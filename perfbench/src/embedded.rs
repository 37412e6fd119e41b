//! `embedded_reads`: the embedded library PDP. One reader thread runs a
//! closed loop of `check_access` on an in-process `MonitorService`
//! while one writer thread publishes 8-toggle batches in an open loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use adminref_core::command::Command;
use adminref_core::snapshot::{batch_deltas, PolicySnapshot, PublishMode};
use adminref_core::transition::{step, AuthMode, StepOutcome};
use adminref_core::universe::Edge;
use adminref_monitor::{MonitorConfig, ReferenceMonitor, SessionId};
use adminref_service::{MonitorService, PolicyService};

use crate::inputs::{self, EmbeddedInputs, Size};
use crate::metrics::Outcome;
use crate::stack;
use crate::stats::{mean, median, peak_rss_mb, per_call_ns, Lat, Windows, FINE, POOLED};
use crate::trace::{new_op, Spans};
use crate::{Ctx, Plan};

/// Every `TIMED_EVERY`-th read is timed; every `SPAN_EVERY`-th timed
/// read also gets a span in traced phases (memory stays bounded).
const TIMED_EVERY: u64 = 8;
const SPAN_EVERY: u64 = 64;

/// Did a batch do exactly what its toggles promise?
pub fn batch_ok(outcomes: &[StepOutcome], len: usize) -> bool {
    outcomes.len() == len && outcomes.iter().all(|o| o.executed() && o.changed)
}

struct Phase {
    reads: u64,
    read: Windows,
    batches: u64,
    cmds: u64,
    elapsed: f64,
    commit: Windows,
    lateness: Lat,
    attempted: u64,
    failed: u64,
    spans: Vec<crate::trace::Span>,
}

fn phase(
    svc: &MonitorService,
    sids: &[SessionId],
    inp: &EmbeddedInputs,
    secs: f64,
    traced: bool,
    probe_at: &mut usize,
    batch_at: &mut usize,
) -> Phase {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let read = &inp.read;
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut spans = Spans::new(traced);
            let mut win = Windows::new(start, secs, FINE);
            let (mut reads, mut failed) = (0u64, 0u64);
            let mut i = *probe_at;
            loop {
                for _ in 0..256 {
                    let (s, perm, expect) = read.probe(inp.probes[i % inp.probes.len()]);
                    i += 1;
                    reads += 1;
                    let ok = if reads.is_multiple_of(TIMED_EVERY) {
                        let t = Instant::now();
                        let r = svc.check_access(sids[s], perm);
                        let end = Instant::now();
                        win.sample(t, end - t);
                        if reads.is_multiple_of(TIMED_EVERY * SPAN_EVERY) {
                            spans.record("service", "check_access", new_op(), 0, t, end);
                        }
                        r
                    } else {
                        svc.check_access(sids[s], perm)
                    }
                    .is_ok_and(|granted| granted == expect);
                    failed += u64::from(!ok);
                }
                let now = Instant::now();
                win.done(now, 256);
                if now >= deadline || stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (reads, failed, win, spans, i)
        });
        let writer = scope.spawn(|| {
            let mut spans = Spans::new(traced);
            let mut win = Windows::new(start, secs, POOLED);
            let mut lateness = Lat::default();
            let (mut batches, mut cmds, mut failed) = (0u64, 0u64, 0u64);
            let mut b = *batch_at;
            let period = Duration::from_secs_f64(1.0 / inp.batch_rate);
            let mut due = start;
            while due < deadline {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                lateness.push(sent.saturating_duration_since(due));
                let batch = &inp.batches[b % inp.batches.len()];
                b += 1;
                let r = svc.submit(batch.clone());
                let acked = Instant::now();
                // Open loop: latency runs from the batch's due time.
                win.sample(due, acked.saturating_duration_since(due));
                spans.record("service", "submit", new_op(), 0, sent, acked);
                match r {
                    Ok(outcomes) if batch_ok(&outcomes, batch.len()) => {
                        cmds += batch.len() as u64;
                    }
                    _ => failed += 1,
                }
                batches += 1;
                due += period;
            }
            stop.store(true, Ordering::Relaxed);
            (batches, cmds, failed, win, lateness, spans, b)
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    let (reads, read_failed, read_win, mut spans, next_probe) = reader;
    let (batches, cmds, write_failed, commit, lateness, wspans, next_batch) = writer;
    let elapsed = start.elapsed().as_secs_f64();
    *probe_at = next_probe;
    *batch_at = next_batch;
    spans.spans.extend(wspans.spans);
    Phase {
        reads,
        read: read_win,
        batches,
        cmds,
        elapsed,
        commit,
        lateness,
        attempted: reads + batches,
        failed: read_failed + write_failed,
        spans: spans.spans,
    }
}

fn phase_metrics(p: &mut Phase) -> crate::metrics::Values {
    let mut v = crate::metrics::Values::new();
    v.insert("reads_per_s", p.read.rate());
    v.insert("read_p50_us", p.read.us(0.5));
    v.insert("read_p99_us", p.read.us(0.99));
    v.insert("open_loop_commit_p50_us", p.commit.us(0.5));
    v.insert("open_loop_commit_p99_us", p.commit.us(0.99));
    v
}

/// Share of probes that repeat an earlier probe of the same epoch, with
/// `per_epoch` reads landing between publishes.
pub fn repeat_share(probes: &[u32], per_epoch: usize, total: usize) -> f64 {
    let per_epoch = per_epoch.max(1);
    let n = total.min(probes.len()).max(1);
    let mut repeats = 0usize;
    let mut seen = std::collections::HashSet::new();
    for (i, &p) in probes[..n].iter().enumerate() {
        if i.is_multiple_of(per_epoch) {
            seen.clear();
        }
        if !seen.insert(p) {
            repeats += 1;
        }
    }
    repeats as f64 / n as f64
}

/// Does `batch` carry an RH edge (and so a whole-hierarchy re-derivation
/// when published)?
pub fn has_rh(batch: &[Command]) -> bool {
    batch.iter().any(|c| matches!(c.edge, Edge::RoleRole(..)))
}

fn severs(batch: &[Command]) -> bool {
    batch.iter().any(|c| {
        c.kind == adminref_core::command::CommandKind::Revoke
            && !matches!(c.edge, Edge::RolePriv(..))
    })
}

pub fn run(ctx: &Ctx, size: Size, plan: Plan) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs::embedded(ctx.seed, size);
    let read = &inp.read;

    let mut setups = Vec::new();
    let mut deployed = None;
    while !plan.enough_setups(&setups) {
        drop(deployed.take());
        let dir = ctx.dir.join("embedded");
        let start = Instant::now();
        let built =
            stack::create_store(&dir, &read.universe, &read.policy, None).and_then(|store| {
                let svc = stack::embedded_service(store);
                let sids = read
                    .sessions
                    .iter()
                    .map(|s| {
                        let id = svc.create_session(s.user)?;
                        svc.activate_role(id, s.role)?;
                        Ok(id)
                    })
                    .collect::<Result<Vec<_>, adminref_service::ServiceError>>()
                    .map_err(|e| format!("opening sessions: {e}"))?;
                Ok((svc, sids))
            });
        setups.push(start.elapsed().as_secs_f64());
        match built {
            Ok(d) => deployed = Some(d),
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
    }
    let (svc, sids) = deployed.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setups));

    let (mut probe_at, mut batch_at) = (0usize, 0usize);
    let warm = phase(
        &svc,
        &sids,
        &inp,
        plan.warmup(),
        false,
        &mut probe_at,
        &mut batch_at,
    );
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    let epoch0 = svc.monitor().version();
    let mut results = Vec::new();
    for (traced, secs) in plan.phases() {
        let mut p = phase(
            &svc,
            &sids,
            &inp,
            secs,
            traced,
            &mut probe_at,
            &mut batch_at,
        );
        out.attempted += p.attempted;
        out.failed += p.failed;
        let values = phase_metrics(&mut p);
        // The open loop fixes the rate; a lower one shows the writer fell
        // behind.
        out.notes.push(format!(
            "{} phase: {} reads, {} batches, writer {:.1} cmds/s, lateness p50 {:.1} us p99 {:.1} us",
            if traced { "traced" } else { "untraced" },
            p.reads,
            p.batches,
            p.cmds as f64 / p.elapsed,
            p.lateness.us(0.5),
            p.lateness.us(0.99)
        ));
        out.spans.append(&mut p.spans);
        results.push((traced, values, p.reads, p.batches));
    }
    let (_, _, reads, batches) = &results[0];
    if let [(false, untraced, ..), (true, traced, ..)] = &results[..] {
        for (k, v) in traced {
            out.overhead.insert(k, v - untraced[k]);
        }
    }
    for (k, v) in results.last().expect("one phase").1.iter() {
        out.e2e.insert(k, *v);
    }
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    let published: u64 = results.iter().map(|r| r.3).sum();
    if svc.monitor().version() - epoch0 != published {
        out.problem("published epochs differ from acknowledged batches");
    }
    if svc.monitor().session_revocations_total() != 0 {
        out.problem("a writer batch force-deactivated a reader session");
    }

    let per_epoch = (*reads / (*batches).max(1)) as usize;
    out.prop(
        "probe_repeat_share_within_epoch",
        format!(
            "{:.3} (Zipf 1.0 over {} sessions x {} perms, {} reads per epoch)",
            repeat_share(&inp.probes, per_epoch, *reads as usize),
            read.sessions.len(),
            inputs::PERMS_PER_SESSION,
            per_epoch
        ),
    );
    let severing = inp.batches.iter().filter(|b| severs(b)).count();
    out.prop(
        "severing_batch_share",
        format!(
            "{:.3} ({} of {} batches revoke UA/RH edges and trigger the session sweep)",
            severing as f64 / inp.batches.len() as f64,
            severing,
            inp.batches.len()
        ),
    );
    let rh = inp.batches.iter().filter(|b| has_rh(b)).count();
    out.prop(
        "rh_batch_share",
        format!(
            "{:.3} ({} of {} batches toggle RH edges below roles no session reaches)",
            rh as f64 / inp.batches.len() as f64,
            rh,
            inp.batches.len()
        ),
    );
    out.prop(
        "policy",
        format!(
            "{} roles, {} sessions, {} toggle edges, {} cmds/batch at {} batches/s",
            read.universe.role_count(),
            read.sessions.len(),
            read.toggles.len(),
            inp.batches[0].len(),
            inp.batch_rate
        ),
    );

    if plan.trace {
        layers(&mut out, &inp, &svc, &sids, probe_at, batch_at);
    }
    out
}

/// Per-layer timings with the writer stopped, on the same inputs.
fn layers(
    out: &mut Outcome,
    inp: &EmbeddedInputs,
    svc: &MonitorService,
    sids: &[SessionId],
    probe_at: usize,
    mut batch_at: usize,
) {
    let read = &inp.read;
    let mut spans = Spans::new(true);
    let n = inp.probes.len().min(1 << 16);
    let probes: Vec<(usize, adminref_core::ids::Perm, bool)> = (0..n)
        .map(|i| read.probe(inp.probes[(probe_at + i) % inp.probes.len()]))
        .collect();
    let monitor = svc.monitor();
    let mut wrong = 0u64;
    let (service_ns, w) = per_call_ns(&probes, 64, |&(s, perm, expect)| {
        wrong += u64::from(svc.check_access(sids[s], perm).ok() != Some(expect));
    });
    record_blocks(&mut spans, "service", "check_access x64", &w);
    let (monitor_ns, w) = per_call_ns(&probes, 64, |&(s, perm, expect)| {
        wrong += u64::from(monitor.check_access(sids[s], perm).ok() != Some(expect));
    });
    record_blocks(&mut spans, "monitor", "check_access x64", &w);
    let snapshot = monitor.read_snapshot();
    let (probe_ns, w) = per_call_ns(&probes, 64, |&(s, perm, expect)| {
        let role = read.sessions[s].role;
        wrong += u64::from(snapshot.roles_reach_perm([role], perm) != expect);
    });
    record_blocks(&mut spans, "core::snapshot", "roles_reach_perm x64", &w);
    out.attempted += 3 * n as u64;
    out.failed += wrong;
    out.layers.insert("service.check_access_ns", service_ns);
    out.layers.insert("monitor.check_access_ns", monitor_ns);
    out.layers.insert("core.reach_probe_ns", probe_ns);
    out.layers
        .insert("monitor.session_pin_ns", monitor_ns - probe_ns);

    // Delta derivation over the writer's next 16 batches (2 of them RH),
    // off the live path.
    let (mut universe, mut policy) = snapshot.clone_state();
    let mut parent = (*snapshot).clone();
    let (mut next_us, mut rh_us) = (Vec::new(), Vec::new());
    for k in 0..16 {
        let batch = &inp.batches[(batch_at + k) % inp.batches.len()];
        let outcomes: Vec<StepOutcome> = batch
            .iter()
            .map(|c| step(&mut universe, &mut policy, c, AuthMode::Explicit))
            .collect();
        out.check(batch_ok(&outcomes, batch.len()));
        let deltas = batch_deltas(batch, &outcomes);
        let op = new_op();
        let t = Instant::now();
        let (child, _) = PolicySnapshot::next(
            &parent,
            &universe,
            &policy,
            &deltas,
            parent.epoch + 1,
            PublishMode::Incremental,
        );
        let end = Instant::now();
        spans.record("core::snapshot", "next", op, 0, t, end);
        let us = (end - t).as_secs_f64() * 1e6;
        next_us.push(us);
        if has_rh(batch) {
            rh_us.push(us);
        }
        parent = child;
    }
    out.layers.insert("core.snapshot_next_us", mean(&next_us));
    out.layers
        .insert("core.snapshot_next_rh_us", median(&rh_us));

    // Monitor commit on the durable store (no group commit in front).
    let mut commit_us = Vec::new();
    for _ in 0..16 {
        let batch = &inp.batches[batch_at % inp.batches.len()];
        batch_at += 1;
        let t = Instant::now();
        let (outcomes, err) = monitor.submit_batch_outcomes(batch);
        let end = Instant::now();
        spans.record("monitor", "submit_batch_outcomes", new_op(), 0, t, end);
        commit_us.push((end - t).as_secs_f64() * 1e6);
        out.check(err.is_none() && batch_ok(&outcomes, batch.len()));
    }
    out.layers.insert("monitor.commit_us", median(&commit_us));

    // Revalidation: severing minus non-severing commit, with every
    // reader session live and then with none, on an in-memory monitor.
    let m = ReferenceMonitor::new(
        read.universe.clone(),
        read.policy.clone(),
        MonitorConfig::default(),
    );
    let mut live = Vec::new();
    for s in &read.sessions {
        let id = m.create_session(s.user);
        out.check(m.activate_role(id, s.role).is_ok());
        live.push(id);
    }
    // Grants of UA edges absent at the start (non-severing), each
    // followed by the revocation of the same edges (severing).
    let absent: Vec<Edge> = read.toggles[..read.toggles.len() / 2]
        .iter()
        .copied()
        .filter(|e| matches!(e, Edge::UserRole(..)))
        .collect();
    let pairs: Vec<(Vec<Command>, Vec<Command>)> = absent
        .chunks(8)
        .take(16)
        .map(|c| {
            (
                c.iter().map(|&e| Command::grant(read.admin, e)).collect(),
                c.iter().map(|&e| Command::revoke(read.admin, e)).collect(),
            )
        })
        .collect();
    let sweep_cost = |m: &ReferenceMonitor, spans: &mut Spans, out: &mut Outcome| {
        let (mut sev, mut non) = (Vec::new(), Vec::new());
        for k in 0..2 * pairs.len() {
            let (grant, revoke) = &pairs[k % pairs.len()];
            for (batch, into) in [(grant, &mut non), (revoke, &mut sev)] {
                let t = Instant::now();
                let r = m.submit_batch(batch);
                let end = Instant::now();
                spans.record("monitor", "submit_batch", new_op(), 0, t, end);
                into.push((end - t).as_secs_f64() * 1e6);
                out.check(r.is_ok_and(|o| batch_ok(&o, batch.len())));
            }
        }
        median(&sev) - median(&non)
    };
    let with_sessions = sweep_cost(&m, &mut spans, out);
    for id in live {
        m.drop_session(id);
    }
    let without = sweep_cost(&m, &mut spans, out);
    out.layers
        .insert("monitor.revalidate_us", with_sessions - without);
    out.spans.append(&mut spans.spans);
}

pub fn record_blocks(
    spans: &mut Spans,
    layer: &'static str,
    name: &'static str,
    windows: &[(Instant, Instant)],
) {
    for &(s, e) in windows {
        spans.record(layer, name, new_op(), 0, s, e);
    }
}
