//! `gated_admin`: publish-time admission. One admin thread on one
//! daemon connection previews (`Analyze`) and then submits each batch
//! of the wide-universe trickle under a declared constraint set; one
//! batch in sixteen is planted to violate an SoD pair and must be
//! refused with a typed `Admission` error.

use std::time::{Duration, Instant};

use adminref_core::admission::{self, Interval};
use adminref_core::snapshot::{batch_deltas, PolicySnapshot, PublishMode};
use adminref_core::transition::{step, AuthMode, StepOutcome};
use adminref_service::{Request, Response, ServiceError};

use crate::embedded::{batch_ok, has_rh};
use crate::inputs::{self, GatedInputs, Size};
use crate::metrics::{Outcome, Values};
use crate::stack::{self, Conn, Deployment};
use crate::stats::{mean, median, peak_rss_mb, Lat, Windows, POOLED};
use crate::trace::{new_op, Span, Spans};
use crate::wire_mixed::{check_convergence, expected_checksum};
use crate::{Ctx, Plan};

struct Phase {
    batches: u64,
    planted: u64,
    committed: u64,
    elapsed: f64,
    preview: Windows,
    commit: Windows,
    refusal_lat: Lat,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

fn phase(conn: &mut Conn, inp: &GatedInputs, secs: f64, traced: bool, pos: &mut usize) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut p = Phase {
        batches: 0,
        planted: 0,
        committed: 0,
        elapsed: 0.0,
        preview: Windows::new(start, secs, POOLED),
        commit: Windows::new(start, secs, POOLED),
        refusal_lat: Lat::default(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    let mut spans = Spans::new(traced);
    while Instant::now() < deadline {
        let batch = &inp.batches[*pos % inp.batches.len()];
        *pos += 1;
        let op = new_op();
        let t0 = Instant::now();
        let preview = conn.call(&Request::Analyze {
            commands: batch.commands.clone(),
        });
        let t1 = Instant::now();
        let submit = conn.call(&Request::Submit {
            commands: batch.commands.clone(),
        });
        let t2 = Instant::now();
        spans.record("service::client", "Analyze", op, 0, t0, t1);
        spans.record("service::client", "Submit", op, 0, t1, t2);
        p.preview.sample(t1, t1 - t0);
        let n = batch.commands.len();
        let preview_ok = match &preview {
            Ok(Response::Impact(r)) if batch.planted => r.refused(),
            Ok(Response::Impact(r)) => !r.refused() && batch_ok(&r.outcomes, n),
            _ => false,
        };
        let submit_ok = match &submit {
            Err(ServiceError::Admission(r)) if batch.planted => r.refused(),
            Ok(Response::Outcomes(o)) if !batch.planted => batch_ok(o, n),
            _ => false,
        };
        if batch.planted {
            p.planted += 1;
            p.refusal_lat.push(t2 - t1);
        } else {
            p.commit.sample(t2, t2 - t1);
            if submit_ok {
                p.committed += n as u64;
            }
        }
        p.batches += 1;
        p.attempted += 2;
        p.failed += u64::from(!preview_ok) + u64::from(!submit_ok);
    }
    p.elapsed = start.elapsed().as_secs_f64();
    p.spans = spans.spans;
    p
}

struct Live {
    deployment: Deployment,
    admin: Conn,
    replica: Conn,
}

pub fn run(ctx: &Ctx, size: Size, plan: Plan) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs::gated(ctx.seed, size);
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    while !plan.enough_setups(&setups) {
        if let Some(old) = live.take() {
            drop((old.admin, old.replica));
            old.deployment.shutdown();
        }
        let dir = ctx.dir.join("gated");
        let start = Instant::now();
        let built = stack::create_store(&dir, &inp.universe, &inp.policy, Some(&inp.constraints))
            .and_then(|store| Deployment::start(&dir, store))
            .and_then(|deployment| {
                let admin = Conn::connect(deployment.primary.addr).map_err(|e| e.to_string())?;
                let replica = Conn::connect(deployment.replica.addr).map_err(|e| e.to_string())?;
                Ok(Live {
                    deployment,
                    admin,
                    replica,
                })
            });
        setups.push(start.elapsed().as_secs_f64());
        match built {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
    }
    let mut live = live.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setups));

    let monitor = std::sync::Arc::clone(&live.deployment.primary.monitor);
    let (checks0, refusals0) = monitor.admission_counts();
    let fallbacks0 = monitor.publish_counts().1;
    let mut pos = 0usize;
    let warm = phase(&mut live.admin, &inp, plan.warmup(), false, &mut pos);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    let mut results: Vec<(bool, Values)> = Vec::new();
    let mut planted = warm.planted;
    let mut batches = warm.batches;
    for (traced, secs) in plan.phases() {
        let mut p = phase(&mut live.admin, &inp, secs, traced, &mut pos);
        let mut v = Values::new();
        v.insert("commits_per_s", p.committed as f64 / p.elapsed);
        v.insert("commit_p50_us", p.commit.us(0.5));
        v.insert("commit_p99_us", p.commit.us(0.99));
        v.insert("preview_p50_us", p.preview.us(0.5));
        out.attempted += p.attempted;
        out.failed += p.failed;
        planted += p.planted;
        batches += p.batches;
        out.notes.push(format!(
            "{} phase: {} batches ({} planted), refusal p50 {:.1} us",
            if traced { "traced" } else { "untraced" },
            p.batches,
            p.planted,
            p.refusal_lat.us(0.5)
        ));
        out.spans.append(&mut p.spans);
        results.push((traced, v));
    }
    if let [(false, u), (true, t)] = &results[..] {
        for (k, v) in t {
            out.overhead.insert(k, v - u[k]);
        }
    }
    for (k, v) in &results.last().expect("one phase").1 {
        out.e2e.insert(k, *v);
    }
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    let (checks, refusals) = monitor.admission_counts();
    let (checks, refusals) = (checks - checks0, refusals - refusals0);
    if refusals != planted {
        out.problem(format!(
            "{refusals} admission refusals for {planted} planted batches"
        ));
    }
    let forced = monitor.session_revocations_total();
    if forced != 0 {
        out.problem(format!("{forced} forced deactivations"));
    }
    let singles = inp.batches.iter().filter(|b| b.commands.len() == 1).count();
    out.prop(
        "batch_size_mix",
        format!(
            "{singles} of {} batches single-edge, the rest 8 edges",
            inp.batches.len()
        ),
    );
    out.prop(
        "planted_refusal_share",
        format!(
            "{:.4} ({planted} of {batches} batches run)",
            planted as f64 / batches.max(1) as f64
        ),
    );
    out.prop(
        "policy",
        format!(
            "{} roles, {} SoD pairs, {} frozen-edge assertion(s), {} toggle edges",
            inp.universe.role_count(),
            inp.constraints.sod_pairs.len(),
            inp.constraints.frozen_edges.len(),
            inp.grantable.len() - 1
        ),
    );

    if plan.trace {
        let mut spans = Spans::new(true);
        out.layers.insert("monitor.admission_checks", checks as f64);
        out.layers
            .insert("monitor.admission_refusals", refusals as f64);
        out.layers.insert(
            "monitor.publish_fallbacks",
            (monitor.publish_counts().1 - fallbacks0) as f64,
        );
        out.layers
            .insert("monitor.forced_deactivations", forced as f64);
        layers(&mut out, &mut spans, &inp, &monitor, pos);
        out.spans.append(&mut spans.spans);
    }

    // Every toggle of one period is flipped twice, so the live state is
    // the schedule's prefix up to `pos` within the current period.
    let mut present = vec![false; inp.grantable.len() - 1];
    for batch in inp.batches.iter().take(pos % inp.batches.len()) {
        if batch.planted {
            continue;
        }
        for c in &batch.commands {
            let i = inp
                .grantable
                .iter()
                .position(|e| *e == c.edge)
                .expect("toggle edge");
            present[i] = !present[i];
        }
    }
    let expected = expected_checksum(&inp.policy, &inp.grantable[..present.len()], &present);
    drop(monitor);
    let Live {
        deployment,
        mut admin,
        mut replica,
    } = live;
    check_convergence(&mut out, &mut admin, &mut replica, expected);
    drop((admin, replica));
    let dir = deployment.shutdown();
    match stack::reopen_checksum(&dir) {
        Ok(sum) => out.check(sum == expected),
        Err(e) => out.problem(e),
    }
    out
}

/// Per-layer timings of the admission path on the next batches of the
/// schedule, against the live state, without committing anything.
fn layers(
    out: &mut Outcome,
    spans: &mut Spans,
    inp: &GatedInputs,
    monitor: &adminref_monitor::ReferenceMonitor,
    pos: usize,
) {
    let (universe, policy) = monitor.snapshot();
    let mut interval_us = Vec::new();
    for _ in 0..8 {
        let t = Instant::now();
        let interval = Interval::from_policy(&universe, &policy, AuthMode::Explicit);
        let end = Instant::now();
        spans.record(
            "core::admission",
            "Interval::from_policy",
            new_op(),
            0,
            t,
            end,
        );
        interval_us.push((end - t).as_secs_f64() * 1e6);
        out.check(interval.frozen.contains(&inp.constraints.frozen_edges[0]));
    }
    out.layers.insert("core.interval_us", median(&interval_us));

    let (mut admit_us, mut analyze_us) = (Vec::new(), Vec::new());
    for k in 0..32 {
        let batch = &inp.batches[(pos + k) % inp.batches.len()];
        let t = Instant::now();
        let admitted = admission::admit_batch(
            &universe,
            &policy,
            &batch.commands,
            &inp.constraints,
            AuthMode::Explicit,
        );
        let mid = Instant::now();
        let impact = admission::analyze_batch(
            &universe,
            &policy,
            &batch.commands,
            &inp.constraints,
            AuthMode::Explicit,
        );
        let end = Instant::now();
        let op = new_op();
        spans.record("core::admission", "admit_batch", op, 0, t, mid);
        spans.record("core::admission", "analyze_batch", op, 0, mid, end);
        admit_us.push((mid - t).as_secs_f64() * 1e6);
        analyze_us.push((end - mid).as_secs_f64() * 1e6);
        // Off the live path the state does not advance, so only the
        // first batch after `pos` and every planted batch have a
        // schedule-determined verdict.
        if k == 0 || batch.planted {
            out.check(admitted.is_err() == batch.planted && impact.refused() == batch.planted);
        }
    }
    out.layers.insert("core.admit_us", median(&admit_us));
    out.layers.insert("core.analyze_us", median(&analyze_us));

    let snapshot = monitor.read_snapshot();
    let (mut u, mut p) = snapshot.clone_state();
    let mut parent = (*snapshot).clone();
    let (mut next_us, mut rh_us) = (Vec::new(), Vec::new());
    // The next 32 schedule slots, extended until one RH batch is timed.
    for k in 0..inp.batches.len() {
        if k >= 32 && !rh_us.is_empty() {
            break;
        }
        let batch = &inp.batches[(pos + k) % inp.batches.len()];
        if batch.planted {
            continue;
        }
        let outcomes: Vec<StepOutcome> = batch
            .commands
            .iter()
            .map(|c| step(&mut u, &mut p, c, AuthMode::Explicit))
            .collect();
        out.check(batch_ok(&outcomes, batch.commands.len()));
        let deltas = batch_deltas(&batch.commands, &outcomes);
        let t = Instant::now();
        let (child, _) = PolicySnapshot::next(
            &parent,
            &u,
            &p,
            &deltas,
            parent.epoch + 1,
            PublishMode::Incremental,
        );
        let end = Instant::now();
        spans.record("core::snapshot", "next", new_op(), 0, t, end);
        let us = (end - t).as_secs_f64() * 1e6;
        next_us.push(us);
        if has_rh(&batch.commands) {
            rh_us.push(us);
        }
        parent = child;
    }
    out.layers.insert("core.snapshot_next_us", mean(&next_us));
    out.layers
        .insert("core.snapshot_next_rh_us", median(&rh_us));
}
