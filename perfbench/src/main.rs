//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload against the real serving stack, checks every
//! answer, and prints the metrics of `BENCHMARK.json` by name with their
//! units. The last line of standard output is the JSON result. With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, timed from the benchmark's own spans around calls
//! into each layer's public entry points. See `perfbench/README.md`.

mod analyses;
mod embedded;
mod gated;
mod inputs;
mod metrics;
mod rng;
mod stack;
mod stats;
mod trace;
mod wire_mixed;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Size;
use metrics::{owned, Outcome, Values, E2E, LAYERS};

/// What one run works in.
pub struct Ctx {
    pub seed: u64,
    /// Scratch directory for this run's stores (removed at the end).
    pub dir: PathBuf,
}

/// How one workload pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and time each layer afterwards.
    pub trace: bool,
    /// Split the measured time into an untraced and a traced half and
    /// report the difference (the main pass of a traced run).
    pub overhead: bool,
    /// Set-ups performed; `setup_s` is their median.
    pub setups: usize,
}

impl Plan {
    /// Unmeasured load run first on the final set-up, so caches fill
    /// and lazy set-up finishes before timing (its answers are still
    /// checked).
    pub fn warmup(&self) -> f64 {
        (self.seconds / 10.0).min(1.0)
    }

    /// Whether set-up has been timed often enough: `setups` times, and
    /// for a main pass until half a second of set-up has been timed (at
    /// most 25 times), so fast set-ups still give a steady median.
    pub fn enough_setups(&self, times: &[f64]) -> bool {
        times.len() >= self.setups
            && (self.setups == 1 || times.iter().sum::<f64>() >= 0.5 || times.len() >= 25)
    }

    /// The measured phases: `(traced, seconds)`.
    pub fn phases(&self) -> Vec<(bool, f64)> {
        if self.trace && self.overhead {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(self.trace, self.seconds)]
        }
    }
}

/// The workloads, also the order companions run and fill metrics in:
/// `gated_admin`'s one-at-a-time commits kept `commit_p50_us` steadier
/// between runs than `wire_mixed`'s pipelined ones, so a run that owns
/// no commit takes it from `gated_admin`.
pub const WORKLOADS: &[&str] = &["embedded_reads", "gated_admin", "wire_mixed", "analyses"];

/// Set-ups per main pass.
const SETUPS: usize = 3;

fn run_pass(name: &str, ctx: &Ctx, size: Size, plan: Plan) -> Outcome {
    match name {
        "embedded_reads" => embedded::run(ctx, size, plan),
        "wire_mixed" => wire_mixed::run(ctx, size, plan),
        "gated_admin" => gated::run(ctx, size, plan),
        "analyses" => analyses::run(ctx, size, plan),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs `workload` as the main pass, then other workloads as companion
/// passes of the same size and length. Each run must report every
/// gated metric, and a workload owns only some of them (commits,
/// previews, analyses); companion values fill the rest, so a metric
/// outside a workload's own bracket regresses only when the owning
/// path does. Companions run after the main pass is measured.
pub fn run(workload: &str, ctx: &Ctx, size: Size, seconds: f64, trace: bool) -> Outcome {
    let mut out = run_pass(
        workload,
        ctx,
        size,
        Plan {
            seconds,
            trace,
            overhead: trace,
            setups: SETUPS,
        },
    );
    // Untraced runs only run companions that own a gated metric still
    // missing (ungated ones are printed by their owners' runs); traced
    // runs need every companion's per-layer metrics.
    for &other in WORKLOADS.iter().filter(|&&w| w != workload) {
        let needed = owned(other)
            .iter()
            .any(|name| E2E.iter().any(|(n, _)| n == name) && !out.e2e.contains_key(name));
        if !needed && !trace {
            continue;
        }
        let companion = run_pass(
            other,
            ctx,
            size,
            Plan {
                seconds,
                trace,
                overhead: false,
                setups: 1,
            },
        );
        out.absorb(companion, other);
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.insert("ok_ratio", 1.0 - failed_ratio);
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit checked out at the repository root this benchmark was
/// built in; `None` unless that root is itself a git work tree (an
/// enclosing repository's commit would be the wrong one).
fn checkout_commit() -> Option<String> {
    let root = std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).ok()?;
    let dir = root.to_str()?;
    let out = command_output("git", &["-C", dir, "rev-parse", "--show-toplevel", "HEAD"])?;
    let mut lines = out.lines();
    let top = std::fs::canonicalize(lines.next()?).ok()?;
    (top == root).then(|| lines.next().map(str::to_string))?
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The variable switches `PublishMode::default()` to full rebuilds:
    // the benchmark would silently measure a different program.
    if std::env::var_os("ADMINREF_PUBLISH_MODE").is_some() {
        eprintln!(
            "perfbench: ADMINREF_PUBLISH_MODE is set; unset it to measure the default publish path"
        );
        return ExitCode::from(2);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let ctx = Ctx {
        seed: args.seed,
        dir: root.join(format!(
            "run-{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: creating {}: {e}", ctx.dir.display());
        return ExitCode::from(1);
    }

    let commit = checkout_commit().unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} commit={commit} nproc={nproc} rustc=\"{rustc}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{header}");

    let out = run(&args.workload, &ctx, Size::Full, args.seconds, args.trace);
    let _ = std::fs::remove_dir_all(&ctx.dir);

    for (k, v) in &out.props {
        println!("input {k}: {v}");
    }
    for n in &out.notes {
        println!("note {n}");
    }
    let wanted: &[(&str, &str)] = if args.trace { LAYERS } else { E2E };
    let values: &Values = if args.trace { &out.layers } else { &out.e2e };
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        match values.get(name) {
            Some(v) => println!("metric {name} = {v:.4} {unit}"),
            None => missing.push(name),
        }
    }
    if !args.trace {
        for &(name, unit) in metrics::UNGATED {
            if let Some(v) = out.e2e.get(name) {
                println!("metric {name} = {v:.4} {unit} (printed, not gated)");
            }
        }
    }
    if args.trace {
        for (name, unit) in E2E.iter().chain(metrics::UNGATED) {
            match out.overhead.get(name) {
                Some(v) => println!("overhead {name} = {v:+.4} {unit} (traced minus untraced)"),
                None => println!("overhead {name} = n/a (not measured in the traced main pass)"),
            }
        }
        let path = root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &header, &out.spans) {
            Ok(()) => println!("spans {} written to {}", out.spans.len(), path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
        for (layer, ms) in trace::self_time_by_layer(&out.spans) {
            println!("self_time {layer} = {ms:.3} ms");
        }
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "checked attempted={} failed={} failed_ratio={failed_ratio}",
        out.attempted, out.failed
    );
    for p in &out.problems {
        println!("problem {p}");
    }
    if !missing.is_empty() || out.attempted == 0 {
        eprintln!("perfbench: no value for {missing:?}; no result printed");
        return ExitCode::from(1);
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    let body: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(values[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(label: &str) -> Ctx {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Ctx { seed: 11, dir }
    }

    fn tiny(trace: bool) -> Plan {
        Plan {
            seconds: 0.3,
            trace,
            overhead: trace,
            setups: 1,
        }
    }

    #[test]
    fn tiny_smoke_run_of_each_workload_reports_its_own_metrics() {
        for &(workload, owned) in metrics::OWNED {
            let c = ctx(workload);
            let out = run_pass(workload, &c, Size::Tiny, tiny(false));
            let _ = std::fs::remove_dir_all(&c.dir);
            assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{workload}");
            for name in owned {
                let v = out.e2e.get(name).copied();
                assert!(v.is_some_and(f64::is_finite), "{workload} lacks {name}");
            }
        }
    }

    #[test]
    fn traced_tiny_runs_together_report_every_metric() {
        let c = ctx("traced");
        let out = run("wire_mixed", &c, Size::Tiny, 0.3, true);
        let _ = std::fs::remove_dir_all(&c.dir);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        for (name, _) in LAYERS {
            assert!(out.layers.contains_key(name), "no layer metric {name}");
        }
        for (name, _) in E2E.iter().chain(metrics::UNGATED) {
            if *name != "ok_ratio" {
                assert!(out.e2e.contains_key(name), "no end-to-end metric {name}");
            }
        }
        assert!(!out.overhead.is_empty());
        assert!(!out.spans.is_empty());
    }

    #[test]
    fn benchmark_json_names_the_same_metrics_and_workloads() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in E2E.iter().chain(LAYERS) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\"")),
                "no workload {w}"
            );
        }
    }
}
