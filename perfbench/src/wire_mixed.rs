//! `wire_mixed`: the served deployment. Connection A drives the primary
//! daemon with 16 logical clients (90% `CheckAccess`, 10% single-command
//! `Submit`); connection B drives the replica with 16 read-only
//! clients. Each connection is one thread keeping its window in flight
//! with the public frame codec.

use std::path::Path;
use std::time::{Duration, Instant};

use adminref_core::checksum::{policy_checksum, toggle_edge};
use adminref_core::reach::EdgeDelta;
use adminref_core::transition::{authorize, AuthMode, StepOutcome};
use adminref_monitor::{MonitorConfig, ReferenceMonitor, SessionId};
use adminref_service::wire::{self, HEADER_LEN};
use adminref_service::{PolicyService, Request, Response};
use adminref_store::CommandLog;

use crate::embedded::record_blocks;
use crate::inputs::{self, toggle, Size, WireInputs, WireOp, WIRE_CLIENTS};
use crate::metrics::{Outcome, Values};
use crate::stack::{self, decode_reply, Conn, Deployment};
use crate::stats::{median, peak_rss_mb, per_call_ns, Lat, Windows, FINE};
use crate::trace::{new_op, Span, Spans};
use crate::{Ctx, Plan};

/// In traced phases every `SPAN_EVERY`-th read gets a span (writes all
/// do), and connection B asks the replica for its lag every
/// `LAG_EVERY` replies.
const SPAN_EVERY: u64 = 16;
const LAG_EVERY: u64 = 256;

/// The daemon holds a `Submit` in its per-connection burst until the
/// buffered input ends on a slow request; a `Submit` followed in the
/// same read by inline requests waits for the next slow request. Under
/// load another client's submit releases it (its wait is part of the
/// measured commit latency), but once the clients stop, nothing would.
/// After the deadline, a submit with no reply for `STRANDED_AFTER` is
/// counted as stranded and released by one read-only `Analyze` sent
/// from this otherwise unused request-id slot.
const NUDGE_SLOT: u64 = 31;
const STRANDED_AFTER: Duration = Duration::from_millis(250);

#[derive(Clone, Copy)]
enum Flight {
    Read(u32),
    Submit,
    Stats,
}

/// One connection's load: `ops[c]` is client `c`'s cyclic op list.
struct Load<'a> {
    /// Per client, each op's request payload, encoded before timing.
    encoded: &'a [Vec<Vec<u8>>],
    read: &'a inputs::ReadPolicy,
    primary: Option<&'a [Vec<WireOp>]>,
    replica: Option<&'a [Vec<u32>]>,
    pos: &'a mut [usize],
    /// Acknowledged toggles per client (primary only).
    acked: &'a mut [u64],
    traced: bool,
    log_path: Option<&'a Path>,
}

struct ConnStats {
    reads: u64,
    submits: u64,
    read: Windows,
    submit: Windows,
    attempted: u64,
    failed: u64,
    lag: Vec<f64>,
    log_shrinks: u64,
    stranded: u64,
    spans: Vec<Span>,
}

fn next_flight(load: &Load, c: usize, stats: bool) -> Flight {
    match (load.primary, load.replica) {
        (Some(ops), _) => match ops[c][load.pos[c] % ops[c].len()] {
            WireOp::Read(slot) => Flight::Read(slot),
            WireOp::Submit(_) => Flight::Submit,
        },
        (None, Some(ops)) => {
            if stats {
                Flight::Stats
            } else {
                Flight::Read(ops[c][load.pos[c] % ops[c].len()])
            }
        }
        (None, None) => unreachable!("a load drives one side"),
    }
}

/// Queues client `c`'s next request under `id`.
fn send_next(
    conn: &mut Conn,
    load: &Load,
    c: usize,
    stats: bool,
    id: u64,
) -> std::io::Result<Flight> {
    let flight = next_flight(load, c, stats);
    match flight {
        Flight::Stats => conn.send(id, &Request::Stats)?,
        _ => {
            let enc = &load.encoded[c];
            conn.send_encoded(id, &enc[load.pos[c] % enc.len()])?;
        }
    }
    Ok(flight)
}

/// Encodes every op of every client, with the connection's session ids.
fn encode_ops(
    read: &inputs::ReadPolicy,
    sids: &[SessionId],
    ops: &[Vec<WireOp>],
) -> Vec<Vec<Vec<u8>>> {
    ops.iter()
        .map(|list| {
            list.iter()
                .map(|op| {
                    wire::encode_request(&match *op {
                        WireOp::Read(slot) => {
                            let (s, perm, _) = read.probe(slot);
                            Request::CheckAccess {
                                session: sids[s],
                                perm,
                            }
                        }
                        WireOp::Submit(cmd) => Request::Submit {
                            commands: vec![cmd],
                        },
                    })
                })
                .collect()
        })
        .collect()
}

fn drive(conn: &mut Conn, load: Load, start: Instant, secs: f64) -> Result<ConnStats, String> {
    let deadline = start + Duration::from_secs_f64(secs);
    let mut st = ConnStats {
        reads: 0,
        submits: 0,
        read: Windows::new(start, secs, FINE),
        submit: Windows::new(start, secs, FINE),
        attempted: 0,
        failed: 0,
        lag: Vec::new(),
        log_shrinks: 0,
        stranded: 0,
        spans: Vec::new(),
    };
    let mut spans = Spans::new(load.traced);
    let mut inflight: Vec<Option<(u64, Instant, Flight)>> = vec![None; WIRE_CLIENTS];
    let mut seq = 0u64;
    let mut replies = 0u64;
    let mut last_log = 0u64;
    let mut since_lag = 0u64;
    // See `NUDGE_SLOT`: sent once, when the run's deadline passes.
    let mut nudge: Option<u64> = None;
    let io = |e: std::io::Error| e.to_string();
    for (c, slot) in inflight.iter_mut().enumerate() {
        seq += 1;
        let id = seq << 5 | c as u64;
        let flight = send_next(conn, &load, c, false, id).map_err(io)?;
        *slot = Some((id, Instant::now(), flight));
    }
    conn.flush().map_err(io)?;
    while inflight.iter().any(Option::is_some) || nudge.is_some() {
        let draining = Instant::now() >= deadline;
        let Some(frame) = conn
            .recv_within(draining.then_some(STRANDED_AFTER))
            .map_err(io)?
        else {
            if nudge.is_some() {
                return Err("no reply after the end-of-run nudge".into());
            }
            st.stranded += inflight
                .iter()
                .flatten()
                .filter(|(_, _, f)| matches!(f, Flight::Submit))
                .count() as u64;
            seq += 1;
            let id = seq << 5 | NUDGE_SLOT;
            conn.send(
                id,
                &Request::Analyze {
                    commands: Vec::new(),
                },
            )
            .map_err(io)?;
            conn.flush().map_err(io)?;
            nudge = Some(id);
            continue;
        };
        let end = Instant::now();
        if frame.request_id & 31 == NUDGE_SLOT {
            if nudge != Some(frame.request_id) {
                return Err(format!("unexpected reply {}", frame.request_id));
            }
            nudge = None;
            continue;
        }
        let c = (frame.request_id & 31) as usize;
        let Some((id, start, flight)) = inflight.get_mut(c).and_then(Option::take) else {
            return Err(format!("reply for unknown request {}", frame.request_id));
        };
        if id != frame.request_id {
            return Err(format!(
                "reply {} while {id} was in flight",
                frame.request_id
            ));
        }
        replies += 1;
        let reply = decode_reply(&frame);
        match flight {
            Flight::Read(slot) => {
                let (_, _, expect) = load.read.probe(slot);
                let ok = matches!(reply, Ok(Response::Access(g)) if g == expect);
                st.reads += 1;
                st.attempted += 1;
                st.failed += u64::from(!ok);
                st.read.sample(end, end - start);
                st.read.done(end, 1);
                if st.reads.is_multiple_of(SPAN_EVERY) {
                    spans.record("service::client", "CheckAccess", new_op(), 0, start, end);
                }
                load.pos[c] += 1;
            }
            Flight::Submit => {
                let ok = matches!(&reply, Ok(Response::Outcomes(o))
                    if o.len() == 1 && o[0].executed() && o[0].changed);
                st.submits += 1;
                st.attempted += 1;
                st.failed += u64::from(!ok);
                st.submit.sample(end, end - start);
                spans.record("service::client", "Submit", new_op(), 0, start, end);
                if ok {
                    load.acked[c] += 1;
                    st.submit.done(end, 1);
                }
                load.pos[c] += 1;
            }
            Flight::Stats => match reply {
                Ok(Response::Stats(s)) => {
                    st.lag
                        .push(s.replication.map_or(f64::NAN, |r| r.lag as f64));
                }
                _ => st.failed += 1,
            },
        }
        if let (true, Some(path)) = (load.traced && replies.is_multiple_of(128), load.log_path) {
            let len = std::fs::metadata(path).map_or(0, |m| m.len());
            st.log_shrinks += u64::from(len < last_log);
            last_log = len;
        }
        if end < deadline {
            since_lag += 1;
            let stats = load.traced && since_lag >= LAG_EVERY;
            if stats {
                since_lag = 0;
            }
            seq += 1;
            let id = seq << 5 | c as u64;
            let flight = send_next(conn, &load, c, stats, id).map_err(io)?;
            inflight[c] = Some((id, Instant::now(), flight));
        }
        if !conn.buffered() {
            conn.flush().map_err(io)?;
        }
    }
    st.spans = spans.spans;
    Ok(st)
}

struct Live {
    deployment: Deployment,
    a: Conn,
    b: Conn,
    sids_a: Vec<SessionId>,
    sids_b: Vec<SessionId>,
}

fn setup(ctx: &Ctx, inp: &WireInputs) -> Result<Live, String> {
    let read = &inp.read;
    let dir = ctx.dir.join("wire");
    let store = stack::create_store(&dir, &read.universe, &read.policy, None)?;
    let deployment = Deployment::start(&dir, store)?;
    let seats: Vec<_> = read.sessions.iter().map(|s| (s.user, s.role)).collect();
    let mut a = Conn::connect(deployment.primary.addr).map_err(|e| e.to_string())?;
    let mut b = Conn::connect(deployment.replica.addr).map_err(|e| e.to_string())?;
    let sids_a = stack::open_sessions(&mut a, &seats)?;
    let sids_b = stack::open_sessions(&mut b, &seats)?;
    Ok(Live {
        deployment,
        a,
        b,
        sids_a,
        sids_b,
    })
}

struct PhaseOut {
    values: Values,
    a: ConnStats,
    b: ConnStats,
    epochs: u64,
}

pub fn run(ctx: &Ctx, size: Size, plan: Plan) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs::wire(ctx.seed, size);
    let mut setups = Vec::new();
    let mut live = None;
    while !plan.enough_setups(&setups) {
        if let Some(old) = live.take() {
            let Live {
                deployment, a, b, ..
            } = old;
            drop((a, b));
            deployment.shutdown();
        }
        let start = Instant::now();
        match setup(ctx, &inp) {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setups));

    let mut pos_a = vec![0usize; WIRE_CLIENTS];
    let mut pos_b = vec![0usize; WIRE_CLIENTS];
    let mut acked = vec![0u64; WIRE_CLIENTS];
    let log_path = live.deployment.dir.join("commands.log");
    let replica_ops: Vec<Vec<WireOp>> = inp
        .replica_ops
        .iter()
        .map(|list| list.iter().map(|&slot| WireOp::Read(slot)).collect())
        .collect();
    let enc_a = encode_ops(&inp.read, &live.sids_a, &inp.primary_ops);
    let enc_b = encode_ops(&inp.read, &live.sids_b, &replica_ops);
    let mut results: Vec<(bool, PhaseOut)> = Vec::new();
    let warmup = std::iter::once((None, plan.warmup()));
    for (traced, secs) in warmup.chain(plan.phases().into_iter().map(|(t, s)| (Some(t), s))) {
        // `None` marks the unmeasured warm-up (checked, not reported).
        let (measured, traced) = (traced.is_some(), traced.unwrap_or(false));
        let epoch0 = ReferenceMonitor::version(&live.deployment.primary.monitor);
        let start = Instant::now();
        let mut unused = vec![0u64; WIRE_CLIENTS];
        let (ra, rb) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                drive(
                    &mut live.a,
                    Load {
                        encoded: &enc_a,
                        read: &inp.read,
                        primary: Some(&inp.primary_ops),
                        replica: None,
                        pos: &mut pos_a,
                        acked: &mut acked,
                        traced,
                        log_path: Some(&log_path),
                    },
                    start,
                    secs,
                )
            });
            let b = scope.spawn(|| {
                drive(
                    &mut live.b,
                    Load {
                        encoded: &enc_b,
                        read: &inp.read,
                        primary: None,
                        replica: Some(&inp.replica_ops),
                        pos: &mut pos_b,
                        acked: &mut unused,
                        traced,
                        log_path: None,
                    },
                    start,
                    secs,
                )
            });
            (
                a.join().expect("connection A thread"),
                b.join().expect("connection B thread"),
            )
        });
        let (mut a, mut b) = match (ra, rb) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                out.problem(format!("load: {e}"));
                return out;
            }
        };
        out.attempted += a.attempted + b.attempted;
        out.failed += a.failed + b.failed;
        if !measured {
            continue;
        }
        let mut values = Values::new();
        out.notes.push(format!(
            "read rate per window on A: {:?}",
            a.read.rates().iter().map(|r| r.round()).collect::<Vec<_>>()
        ));
        values.insert("reads_per_s", a.read.rate() + b.read.rate());
        values.insert("read_p50_us", a.read.us(0.5));
        values.insert("read_p99_us", a.read.us(0.99));
        values.insert("replica_read_p50_us", b.read.us(0.5));
        values.insert("commits_per_s", a.submit.rate());
        values.insert("commit_p50_us", a.submit.us(0.5));
        values.insert("commit_p99_us", a.submit.us(0.99));
        out.notes.push(format!(
            "{} phase: {} primary reads, {} replica reads, {} submits, \
             {} submit(s) stranded in the daemon's burst at the end of the run",
            if traced { "traced" } else { "untraced" },
            a.reads,
            b.reads,
            a.submits,
            a.stranded
        ));
        let epochs = ReferenceMonitor::version(&live.deployment.primary.monitor) - epoch0;
        results.push((
            traced,
            PhaseOut {
                values,
                a,
                b,
                epochs,
            },
        ));
    }
    if let [(false, u), (true, t)] = &results[..] {
        for (k, v) in &t.values {
            out.overhead.insert(k, v - u.values[k]);
        }
    }
    let (_, last) = results.last().expect("one phase");
    for (k, v) in &last.values {
        out.e2e.insert(k, *v);
    }
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    let reads: u64 = results.iter().map(|(_, p)| p.a.reads + p.b.reads).sum();
    let epochs: u64 = results.iter().map(|(_, p)| p.epochs).sum();
    let per_epoch = (reads / epochs.max(1)) as usize;
    let slots: Vec<u32> = (0..reads.min(1 << 20) as usize)
        .map(|i| {
            let ops = &inp.replica_ops[i % WIRE_CLIENTS];
            ops[(i / WIRE_CLIENTS) % ops.len()]
        })
        .collect();
    out.prop(
        "probe_repeat_share_within_epoch",
        format!(
            "{:.3} (uniform over {} sessions x {} perms, {} reads per epoch)",
            crate::embedded::repeat_share(&slots, per_epoch, slots.len()),
            inp.read.sessions.len(),
            inputs::PERMS_PER_SESSION,
            per_epoch
        ),
    );
    let submits: Vec<_> = inp
        .primary_ops
        .iter()
        .flatten()
        .filter_map(|op| match op {
            WireOp::Submit(cmd) => Some(cmd),
            WireOp::Read(_) => None,
        })
        .collect();
    let revokes = submits
        .iter()
        .filter(|c| c.kind == adminref_core::command::CommandKind::Revoke)
        .count();
    out.prop(
        "severing_batch_share",
        format!(
            "{:.3} of submits revoke a writer-owned UA edge and trigger the session sweep",
            revokes as f64 / submits.len().max(1) as f64
        ),
    );
    out.prop(
        "policy",
        format!(
            "{} roles, {} sessions per connection, {} clients per connection, 10% submits on A",
            inp.read.universe.role_count(),
            inp.read.sessions.len(),
            WIRE_CLIENTS
        ),
    );

    let mut present: Vec<bool> = acked.iter().map(|n| n % 2 == 1).collect();
    if plan.trace {
        let traced = &results.last().expect("one phase").1;
        layers(&mut out, ctx, &inp, &mut live, &mut present, traced);
    }
    converge_and_reopen(&mut out, live, &inp, &present);
    out
}

/// The policy the acknowledged toggles should have produced.
pub fn expected_checksum(
    base: &adminref_core::policy::Policy,
    toggles: &[adminref_core::universe::Edge],
    present: &[bool],
) -> u64 {
    toggles
        .iter()
        .zip(present)
        .filter(|(_, &p)| p)
        .fold(policy_checksum(base), |acc, (&e, _)| toggle_edge(acc, e))
}

/// Durability and convergence: the primary's last acknowledged epoch
/// matches the model of acknowledged toggles, the replica reaches that
/// epoch with the same checksum, and reopening the primary's directory
/// recovers it.
fn converge_and_reopen(out: &mut Outcome, live: Live, inp: &WireInputs, present: &[bool]) {
    let Live {
        deployment,
        mut a,
        mut b,
        ..
    } = live;
    let expected = expected_checksum(&inp.read.policy, &inp.read.toggles[..WIRE_CLIENTS], present);
    check_convergence(out, &mut a, &mut b, expected);
    drop((a, b));
    let dir = deployment.shutdown();
    match stack::reopen_checksum(&dir) {
        Ok(sum) => out.check(sum == expected),
        Err(e) => out.problem(e),
    }
}

pub fn check_convergence(out: &mut Outcome, a: &mut Conn, b: &mut Conn, expected: u64) {
    let primary = match a.call(&Request::Version) {
        Ok(Response::Version(v)) => v,
        other => {
            out.problem(format!("primary version: {other:?}"));
            return;
        }
    };
    if primary.checksum != expected {
        out.problem("primary checksum differs from the acknowledged toggles");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match b.call(&Request::Version) {
            Ok(Response::Version(v)) if v.epoch >= primary.epoch => {
                if v.epoch != primary.epoch || v.checksum != primary.checksum {
                    out.problem(format!(
                        "replica at epoch {} checksum {:x}, primary at {} {:x}",
                        v.epoch, v.checksum, primary.epoch, primary.checksum
                    ));
                }
                out.check(v.checksum == primary.checksum);
                return;
            }
            Ok(Response::Version(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            other => {
                out.problem(format!(
                    "replica never reached the primary's epoch: {other:?}"
                ));
                return;
            }
        }
    }
}

fn layers(
    out: &mut Outcome,
    ctx: &Ctx,
    inp: &WireInputs,
    live: &mut Live,
    present: &mut [bool],
    traced: &PhaseOut,
) {
    let read = &inp.read;
    let mut spans = Spans::new(true);
    let primary = &live.deployment.primary;
    let universe = read.universe.clone();
    let toggles = &read.toggles[..WIRE_CLIENTS];
    let next_toggle = |present: &mut [bool], k: usize| {
        let c = k % WIRE_CLIENTS;
        let cmd = toggle(read.admin, toggles[c], present[c]);
        present[c] = !present[c];
        cmd
    };

    // In-process submit through group commit, alternating with the
    // monitor alone, so both see the same disk and host conditions.
    let mut sample: Option<Vec<StepOutcome>> = None;
    let (mut submit_us, mut commit_us) = (Vec::new(), Vec::new());
    for k in 0..128 {
        let cmd = next_toggle(present, k);
        let t = Instant::now();
        if k % 2 == 0 {
            let r = primary.service.submit(vec![cmd]);
            let end = Instant::now();
            spans.record("service::group_commit", "submit", new_op(), 0, t, end);
            submit_us.push((end - t).as_secs_f64() * 1e6);
            let ok = matches!(&r, Ok(o) if o.len() == 1 && o[0].executed() && o[0].changed);
            out.check(ok);
            if let (Ok(o), None) = (r, &sample) {
                sample = Some(o);
            }
        } else {
            let (o, err) = primary.monitor.submit_batch_outcomes(&[cmd]);
            let end = Instant::now();
            spans.record("monitor", "submit_batch_outcomes", new_op(), 0, t, end);
            commit_us.push((end - t).as_secs_f64() * 1e6);
            out.check(err.is_none() && o.len() == 1 && o[0].changed);
        }
    }
    let (submit, commit) = (median(&submit_us), median(&commit_us));
    out.layers.insert("service.submit_us", submit);
    out.layers.insert("monitor.commit_us", commit);
    out.layers.insert("group_commit.self_us", submit - commit);
    let submits = traced.a.submits;
    out.layers.insert(
        "group_commit.cmds_per_epoch",
        submits as f64 / traced.epochs.max(1) as f64,
    );

    // The codec on this workload's own frames.
    let outcomes = sample.unwrap_or_default();
    let frames: Vec<(Request, Response)> = (0..4096)
        .map(|i| {
            let ops = &inp.primary_ops[i % WIRE_CLIENTS];
            match ops[(i / WIRE_CLIENTS) % ops.len()] {
                WireOp::Read(slot) => {
                    let (s, perm, expect) = read.probe(slot);
                    (
                        Request::CheckAccess {
                            session: live.sids_a[s],
                            perm,
                        },
                        Response::Access(expect),
                    )
                }
                WireOp::Submit(cmd) => (
                    Request::Submit {
                        commands: vec![cmd],
                    },
                    Response::Outcomes(outcomes.clone()),
                ),
            }
        })
        .collect();
    let mut bad = 0u64;
    let mut codec = |(req, resp): &(Request, Response)| {
        let bytes = wire::encode_request(req);
        bad += u64::from(wire::decode_request(&bytes, &universe).is_err());
        let bytes = wire::encode_response(resp);
        bad += u64::from(wire::decode_response(&bytes).is_err());
    };
    let (codec_ns, w) = per_call_ns(&frames, 16, &mut codec);
    record_blocks(&mut spans, "service::wire", "codec x16", &w);
    let reads: Vec<(Request, Response)> = frames
        .iter()
        .filter(|(r, _)| matches!(r, Request::CheckAccess { .. }))
        .cloned()
        .collect();
    let (read_codec_ns, _) = per_call_ns(&reads, 16, &mut codec);
    out.check(bad == 0);
    out.layers.insert("wire.codec_ns", codec_ns);

    // One read in flight on an idle connection, and the same read in
    // process, so the daemon's own share is the difference.
    let probes: Vec<(usize, adminref_core::ids::Perm, bool)> = (0..2048)
        .map(|i| read.probe(inp.replica_ops[i % WIRE_CLIENTS][i / WIRE_CLIENTS]))
        .collect();
    let mut rtt_us = Vec::new();
    for &(s, perm, expect) in &probes {
        let op = new_op();
        let t = Instant::now();
        let r = live.a.call(&Request::CheckAccess {
            session: live.sids_a[s],
            perm,
        });
        let end = Instant::now();
        spans.record("service::daemon", "CheckAccess rtt", op, 0, t, end);
        rtt_us.push((end - t).as_secs_f64() * 1e6);
        out.check(matches!(r, Ok(Response::Access(g)) if g == expect));
    }
    let mut wrong = 0u64;
    let (svc_ns, w) = per_call_ns(&probes, 64, |&(s, perm, expect)| {
        wrong += u64::from(primary.service.check_access(live.sids_a[s], perm).ok() != Some(expect));
    });
    record_blocks(&mut spans, "service", "check_access x64", &w);
    out.check(wrong == 0);
    let rtt = median(&rtt_us);
    out.layers.insert("daemon.read_rtt_us", rtt);
    out.layers
        .insert("daemon.read_self_us", rtt - (svc_ns + read_codec_ns) / 1e3);

    // The store alone: execute_batch (append + fsync) and raw log ops.
    let dir = ctx.dir.join("wire-store");
    match stack::create_store(&dir, &read.universe, &read.policy, None) {
        Ok(mut store) => {
            let log = dir.join("commands.log");
            let before = std::fs::metadata(&log).map_or(0, |m| m.len());
            let mut state = [false; WIRE_CLIENTS];
            let mut exec_us = Vec::new();
            for k in 0..64 {
                let cmd = next_toggle(&mut state, k);
                let t = Instant::now();
                let (o, r) = store.execute_batch([&cmd]);
                let end = Instant::now();
                spans.record("store", "execute_batch", new_op(), 0, t, end);
                exec_us.push((end - t).as_secs_f64() * 1e6);
                out.check(r.is_ok() && o.len() == 1 && o[0].changed);
            }
            let after = std::fs::metadata(&log).map_or(0, |m| m.len());
            out.layers
                .insert("store.execute_batch_us", median(&exec_us));
            out.layers
                .insert("store.wal_bytes_per_cmd", (after - before) as f64 / 64.0);
        }
        Err(e) => out.problem(e),
    }
    match CommandLog::open(&ctx.dir.join("fsync.log")) {
        Ok(recovered) => {
            let mut log = recovered.log;
            let mut state = [false; WIRE_CLIENTS];
            let mut fsync_us = Vec::new();
            for k in 0..64 {
                let cmd = next_toggle(&mut state, k);
                let t = Instant::now();
                let ok = log.append(&cmd, true).is_ok() && log.sync().is_ok();
                let end = Instant::now();
                spans.record("store::log", "append+sync", new_op(), 0, t, end);
                fsync_us.push((end - t).as_secs_f64() * 1e6);
                out.check(ok);
            }
            out.layers.insert("store.fsync_us", median(&fsync_us));
        }
        Err(e) => out.problem(format!("opening a scratch log: {e}")),
    }
    out.layers
        .insert("store.compactions", (traced.a.log_shrinks) as f64);

    // Authorization of this workload's toggle commands.
    let (mut u, p) = (read.universe.clone(), read.policy.clone());
    let mut state = [false; WIRE_CLIENTS];
    let cmds: Vec<_> = (0..4096).map(|k| next_toggle(&mut state, k)).collect();
    let mut unauthorized = 0u64;
    let (auth_ns, w) = per_call_ns(&cmds, 64, |cmd| {
        unauthorized += u64::from(authorize(&mut u, &p, cmd, AuthMode::Explicit).is_none());
    });
    record_blocks(&mut spans, "core::transition", "authorize x64", &w);
    out.check(unauthorized == 0);
    out.layers.insert("core.authorize_ns", auth_ns);

    // Replication: the hook's encode per epoch and the replica's apply,
    // over a recorded stream shaped like the run's epochs.
    let per_epoch = (submits as f64 / traced.epochs.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let mut state = [false; WIRE_CLIENTS];
    let mut sum = policy_checksum(&read.policy);
    let stream: Vec<(u64, Vec<EdgeDelta>, u64)> = (1..=256u64)
        .map(|epoch| {
            let deltas: Vec<EdgeDelta> = (0..per_epoch.min(WIRE_CLIENTS))
                .map(|c| {
                    state[c] = !state[c];
                    sum = toggle_edge(sum, toggles[c]);
                    EdgeDelta {
                        edge: toggles[c],
                        added: state[c],
                    }
                })
                .collect();
            (epoch, deltas, sum)
        })
        .collect();
    let (mut hook_us, mut bytes) = (Vec::new(), 0usize);
    for (epoch, deltas, sum) in &stream {
        let t = Instant::now();
        let frame = wire::encode_repl_delta(1, *epoch, deltas, *sum);
        let end = Instant::now();
        spans.record(
            "service::replication",
            "encode_repl_delta",
            new_op(),
            0,
            t,
            end,
        );
        hook_us.push((end - t).as_secs_f64() * 1e6);
        bytes += HEADER_LEN + frame.len();
    }
    out.layers.insert("replication.hook_us", median(&hook_us));
    out.layers.insert(
        "replication.delta_bytes_per_epoch",
        bytes as f64 / stream.len() as f64,
    );
    let replica = ReferenceMonitor::new(
        read.universe.clone(),
        read.policy.clone(),
        MonitorConfig::default(),
    );
    let mut apply_us = Vec::new();
    for (epoch, deltas, sum) in &stream {
        let t = Instant::now();
        let r = replica.apply_replica_deltas(*epoch, deltas, *sum);
        let end = Instant::now();
        spans.record("monitor", "apply_replica_deltas", new_op(), 0, t, end);
        apply_us.push((end - t).as_secs_f64() * 1e6);
        out.check(r.is_ok());
    }
    out.layers.insert("replication.apply_us", median(&apply_us));
    let mut lag = Lat::default();
    for &l in &traced.b.lag {
        lag.push_ns(l);
    }
    out.layers.insert(
        "replication.lag_epochs_p99",
        if lag.len() == 0 { 0.0 } else { lag.ns(0.99) },
    );
    out.notes.push(format!(
        "replication lag sampled {} times on connection B",
        traced.b.lag.len()
    ));
    out.spans.append(&mut spans.spans);
    for p in [&traced.a, &traced.b] {
        out.spans.extend(p.spans.iter().cloned());
    }
}
