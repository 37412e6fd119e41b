//! `analyses`: the paper's analyses, run sequentially through
//! `PolicyService` with the CLI's default `SafetyConfig`. One pass is
//! four reach queries, a lint of the gated_admin policy with its SoD
//! pairs, and two refinement checks (one refining candidate, one not).

use std::time::{Duration, Instant};

use adminref_core::ids::{Entity, Node, Perm};
use adminref_core::lint::{lint_policy, slice_alphabet, FindingKind, LintConfig};
use adminref_core::policy::Policy;
use adminref_core::reach::reaches;
use adminref_core::refinement::refinement_violations;
use adminref_core::safety::{perm_reachable, prepare_alphabet, ReachabilityAnswer, SafetyConfig};
use adminref_core::transition::{step, AuthMode};
use adminref_core::universe::{PrivTerm, Universe};
use adminref_monitor::MonitorConfig;
use adminref_service::{MonitorService, PolicyService, RefinementDirection};

use crate::inputs::{self, AnalysesInputs, ReachQuery, Size};
use crate::metrics::Outcome;
use crate::stats::{median, peak_rss_mb};
use crate::trace::{new_op, Spans};
use crate::{Ctx, Plan};

/// `adminref reach`'s defaults: three steps, everything else default.
pub fn cli_config() -> SafetyConfig {
    SafetyConfig {
        max_steps: 3,
        ..SafetyConfig::default()
    }
}

/// Does `answer` match the query's expected verdict? A witness is
/// replayed from the root and must end in a policy where the entity
/// reaches the perm, per the reference walk.
fn verdict_ok(q: &ReachQuery, answer: &ReachabilityAnswer) -> bool {
    match answer {
        ReachabilityAnswer::Reachable { witness } if q.reachable => {
            let (mut u, mut p) = (q.universe.clone(), q.policy.clone());
            let executed = witness
                .iter()
                .all(|c| step(&mut u, &mut p, c, AuthMode::Explicit).executed());
            executed && entity_reaches(&u, &p, q.entity, q.perm)
        }
        ReachabilityAnswer::Unreachable => !q.reachable,
        _ => false,
    }
}

fn entity_reaches(u: &Universe, p: &Policy, entity: Entity, perm: Perm) -> bool {
    u.find_term(PrivTerm::Perm(perm))
        .is_some_and(|t| reaches(p, entity.into(), Node::Priv(t)))
}

struct Services {
    /// One service per reach query (queries over the same fixture share
    /// a policy, not a service, so each query's set-up is counted).
    reach: Vec<MonitorService>,
    gated: MonitorService,
}

fn setup(inp: &AnalysesInputs) -> Services {
    Services {
        reach: inp
            .queries
            .iter()
            .map(|q| {
                MonitorService::in_memory(
                    q.universe.clone(),
                    q.policy.clone(),
                    MonitorConfig::default(),
                )
            })
            .collect(),
        gated: MonitorService::in_memory(
            inp.gated.universe.clone(),
            inp.gated.policy.clone(),
            MonitorConfig::default(),
        ),
    }
}

pub fn run(ctx: &Ctx, size: Size, plan: Plan) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs::analyses(ctx.seed, size);
    let mut setups = Vec::new();
    let mut services = None;
    while !plan.enough_setups(&setups) {
        drop(services.take());
        let start = Instant::now();
        services = Some(setup(&inp));
        setups.push(start.elapsed().as_secs_f64());
    }
    let svc = services.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setups));

    let sod = inp.gated.constraints.sod_pairs.clone();
    let mut spans = Spans::new(plan.trace);
    // One checked pass; returns its reach, lint and refinement times in
    // ms. Spans are recorded only in traced phases.
    let mut pass = |traced: bool, out: &mut Outcome| -> [f64; 3] {
        let mut span = |name: &'static str, op, s, e| {
            if traced {
                spans.record("service", name, op, 0, s, e);
            }
        };
        let op = new_op();
        let t0 = Instant::now();
        for (q, s) in inp.queries.iter().zip(&svc.reach) {
            let t = Instant::now();
            let answer = s.analyze_reach(q.entity, q.perm, cli_config());
            span(q.name, op, t, Instant::now());
            out.check(answer.is_ok_and(|a| verdict_ok(q, &a)));
        }
        let t1 = Instant::now();
        let lint = svc.gated.lint(sod.clone());
        let t2 = Instant::now();
        span("lint", op, t1, t2);
        out.check(lint.is_ok_and(|r| {
            r.findings
                .iter()
                .filter(|f| f.kind == FindingKind::SodConflict)
                .count()
                == inp.gated.expected_sod_findings
        }));
        let refines = svc.gated.check_refinement(
            inp.refining.clone(),
            RefinementDirection::CandidateRefinesLive,
            8,
        );
        out.check(refines.is_ok_and(|r| r.holds && r.total_violations == 0));
        let widens = svc.gated.check_refinement(
            inp.widening.clone(),
            RefinementDirection::CandidateRefinesLive,
            8,
        );
        out.check(widens.is_ok_and(|r| !r.holds && r.total_violations == inp.widening_violations));
        let t3 = Instant::now();
        span("check_refinement x2", op, t2, t3);
        [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64() * 1e3)
    };
    // The warm-up passes are checked but not timed.
    let warm_until = Instant::now() + Duration::from_secs_f64(plan.warmup());
    while Instant::now() < warm_until {
        pass(false, &mut out);
    }
    // The passes are deterministic and single-threaded: the fastest one
    // is the cost without interference from other tenants, which slow
    // a varying share of passes by up to 1.5x.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let mut results = Vec::new();
    let (mut reach_ms, mut lint_ms, mut refine_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (traced, secs) in plan.phases() {
        reach_ms.clear();
        lint_ms.clear();
        refine_ms.clear();
        let until = Instant::now() + Duration::from_secs_f64(secs);
        // At least three timed passes per phase.
        while reach_ms.len() < 3 || Instant::now() < until {
            let [reach, lint, refine] = pass(traced, &mut out);
            reach_ms.push(reach);
            lint_ms.push(lint);
            refine_ms.push(refine);
        }
        let mut v = crate::metrics::Values::new();
        v.insert("reach_pass_ms", fastest(&reach_ms));
        v.insert("lint_ms", fastest(&lint_ms));
        v.insert("refine_ms", fastest(&refine_ms));
        results.push((traced, v));
    }
    if let [(false, untraced), (true, traced)] = &results[..] {
        for (k, v) in traced {
            out.overhead.insert(k, v - untraced[k]);
        }
    }
    for (k, v) in &results.last().expect("one phase").1 {
        out.e2e.insert(k, *v);
    }
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{} passes; median pass: reach {:.4} ms, lint {:.4} ms, refine {:.4} ms",
        reach_ms.len(),
        median(&reach_ms),
        median(&lint_ms),
        median(&refine_ms)
    ));
    let indefinite: u64 = svc
        .reach
        .iter()
        .map(|s| s.monitor().analysis_counts().1)
        .sum();
    if indefinite != 0 {
        out.problem(format!("{indefinite} reach analyses ended Unknown"));
    }
    out.prop(
        "queries",
        "cone goal (sliced, reachable), deep_delegation vault (reachable), \
         grow_only goal (reachable), grow_only absent perm (unreachable)",
    );
    out.prop(
        "lint_and_refinement",
        format!(
            "{} roles, {} SoD pairs, {} expected SoD findings, {} expected refinement violations",
            inp.gated.universe.role_count(),
            sod.len(),
            inp.gated.expected_sod_findings,
            inp.widening_violations
        ),
    );
    out.spans.append(&mut spans.spans);

    if plan.trace {
        layers(&mut out, &inp, indefinite);
    }
    out
}

/// The analyses called directly in `adminref_core`, without the
/// service and monitor in front.
fn layers(out: &mut Outcome, inp: &AnalysesInputs, indefinite: u64) {
    let mut spans = Spans::new(true);
    let mut per_query = Vec::new();
    for _ in 0..3 {
        let mut total = 0.0;
        for q in &inp.queries {
            let mut u = q.universe.clone();
            let t = Instant::now();
            let answer = perm_reachable(&mut u, &q.policy, q.entity, q.perm, cli_config());
            let end = Instant::now();
            spans.record("core::safety", "perm_reachable", new_op(), 0, t, end);
            total += (end - t).as_secs_f64() * 1e3;
            out.check(verdict_ok(q, &answer));
        }
        per_query.push(total / inp.queries.len() as f64);
    }
    out.layers.insert("core.reach_query_ms", median(&per_query));

    let cone = &inp.queries[0];
    let mut u = cone.universe.clone();
    let alphabet = prepare_alphabet(&mut u, &cone.policy, cli_config());
    let target = u.priv_perm(cone.perm);
    let sliced = slice_alphabet(
        &u,
        &cone.policy,
        &alphabet,
        cone.entity,
        target,
        AuthMode::Explicit,
    );
    out.layers.insert(
        "core.slice_kept_ratio",
        sliced.after as f64 / sliced.before.max(1) as f64,
    );

    let g = &inp.gated;
    let config = LintConfig {
        auth_mode: AuthMode::Explicit,
        sod_pairs: g.constraints.sod_pairs.clone(),
    };
    let (mut lint_ms, mut refine_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let report = lint_policy(&g.universe, &g.policy, &config);
        let mid = Instant::now();
        let holds = refinement_violations(&g.universe, &g.policy, &inp.refining);
        let widens = refinement_violations(&g.universe, &g.policy, &inp.widening);
        let end = Instant::now();
        let op = new_op();
        spans.record("core::lint", "lint_policy", op, 0, t, mid);
        spans.record(
            "core::refinement",
            "refinement_violations x2",
            op,
            0,
            mid,
            end,
        );
        lint_ms.push((mid - t).as_secs_f64() * 1e3);
        refine_ms.push((end - mid).as_secs_f64() * 1e3);
        out.check(
            report
                .findings
                .iter()
                .filter(|f| f.kind == FindingKind::SodConflict)
                .count()
                == g.expected_sod_findings,
        );
        out.check(holds.is_empty() && widens.len() == inp.widening_violations);
    }
    out.layers.insert("core.lint_ms", median(&lint_ms));
    out.layers.insert("core.refinement_ms", median(&refine_ms));
    out.layers.insert("analysis.indefinite", indefinite as f64);
    out.spans.append(&mut spans.spans);
}
