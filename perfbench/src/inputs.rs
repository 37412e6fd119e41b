//! Input generation: every policy, session, probe, batch and expected
//! answer a workload uses, derived from the seed alone. Generation is
//! the benchmark's own cost; no metric includes it.
//!
//! Expected answers come from the reference walk
//! [`adminref_core::reach::reaches`], never from the `ReachIndex` the
//! monitor serves from.

use std::collections::{BTreeSet, HashSet};

use adminref_core::command::Command;
use adminref_core::ids::{Entity, Node, Perm, PrivId, RoleId, UserId};
use adminref_core::policy::Policy;
use adminref_core::reach::reaches;
use adminref_core::universe::{Edge, PrivTerm, Universe};
use adminref_workloads::{
    cone, deep_delegation, grow_only, layered, populate_perms, populate_users,
    wide_universe_trickle, ConeSpec, DelegationSpec, GrowOnlySpec, LayeredSpec, TrickleSpec,
};

use crate::rng::{Rng, Zipf};

/// How large a workload's inputs are. `Full` is what `BENCHMARK.json`
/// names; `Tiny` is for the smoke tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

/// Perms probed per session: the first half granted, the rest denied.
pub const PERMS_PER_SESSION: usize = 16;

/// One reader session: `user` activates `role` (its largest-closure
/// assignment) and probes `perms`, whose expected verdicts are
/// `expect`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    pub user: UserId,
    pub role: RoleId,
    pub perms: Vec<Perm>,
    pub expect: Vec<bool>,
}

/// A layered policy with reader sessions and admin toggle edges.
#[derive(Clone)]
pub struct ReadPolicy {
    pub universe: Universe,
    pub policy: Policy,
    pub sessions: Vec<SessionSpec>,
    /// The administrator authorized to toggle every edge in `toggles`.
    pub admin: UserId,
    /// Edges absent from `policy` that `admin` may grant and revoke.
    pub toggles: Vec<Edge>,
}

impl ReadPolicy {
    /// The perm and expected verdict of probe slot `slot`
    /// (`session * PERMS_PER_SESSION + k`).
    pub fn probe(&self, slot: u32) -> (usize, Perm, bool) {
        let s = slot as usize / PERMS_PER_SESSION;
        let k = slot as usize % PERMS_PER_SESSION;
        (s, self.sessions[s].perms[k], self.sessions[s].expect[k])
    }

    pub fn slots(&self) -> usize {
        self.sessions.len() * PERMS_PER_SESSION
    }
}

fn perm_term(universe: &Universe, perm: Perm) -> PrivId {
    universe
        .find_term(PrivTerm::Perm(perm))
        .expect("probed perms are interned")
}

/// Builds the shared read-side shape: a 4-layer hierarchy of `roles`
/// roles, `readers` users with two memberships each, two perms per
/// role, one session per user on its largest-closure role, and
/// `ua_toggles` dedicated writer users whose memberships an admin
/// toggles. With `rh_toggles > 0`, the admin also toggles RH edges
/// from dedicated `wsub` roles that no user is assigned to (so no
/// reader session reaches them) into the hierarchy.
fn read_policy(
    roles: usize,
    readers: usize,
    ua_toggles: usize,
    rh_toggles: usize,
    seed: u64,
) -> ReadPolicy {
    let layers = 4;
    let width = roles.div_ceil(layers).max(2);
    let mut h = layered(LayeredSpec {
        layers,
        width,
        edge_prob: (8.0 / width as f64).min(1.0),
        seed,
    });
    let users = populate_users(&mut h, readers, 2, seed);
    populate_perms(&mut h, 2, roles.max(8), seed);
    let all_roles: Vec<RoleId> = h.layers.iter().flatten().copied().collect();
    let all_perms: Vec<Perm> = (0..h.universe.term_count())
        .filter_map(|i| match h.universe.term(PrivId::from_index(i)) {
            PrivTerm::Perm(q) => Some(q),
            _ => None,
        })
        .collect();

    let mut rng = Rng::fork(seed, 1);
    let mut sessions = Vec::with_capacity(users.len());
    for &user in &users {
        // The benchmark's own closure walk picks candidate perms; the
        // expectation below is then taken from the reference walk.
        let closures: Vec<(RoleId, Vec<Perm>)> = h
            .policy
            .roles_of(user)
            .map(|r| (r, perms_below(&h.universe, &h.policy, r)))
            .collect();
        let (role, granted_pool) = closures
            .into_iter()
            .max_by_key(|(r, p)| (role_closure_size(&h.policy, *r), p.len(), *r))
            .expect("every reader has a membership");
        let granted_set: HashSet<Perm> = granted_pool.iter().copied().collect();
        let mut perms = Vec::with_capacity(PERMS_PER_SESSION);
        for _ in 0..PERMS_PER_SESSION / 2 {
            perms.push(granted_pool[rng.below(granted_pool.len())]);
        }
        while perms.len() < PERMS_PER_SESSION {
            let q = all_perms[rng.below(all_perms.len())];
            if !granted_set.contains(&q) {
                perms.push(q);
            }
        }
        let expect = perms
            .iter()
            .map(|&q| {
                reaches(
                    &h.policy,
                    Node::Role(role),
                    Node::Priv(perm_term(&h.universe, q)),
                )
            })
            .collect();
        sessions.push(SessionSpec {
            user,
            role,
            perms,
            expect,
        });
    }

    let admin = h.universe.user("bench_admin");
    let ops = h.universe.role("bench_ops");
    h.policy.add_edge(Edge::UserRole(admin, ops));
    let mut toggles = Vec::new();
    for i in 0..ua_toggles {
        let user = h.universe.user(&format!("w_user{i}"));
        toggles.push(Edge::UserRole(user, all_roles[rng.below(all_roles.len())]));
    }
    let subs: Vec<RoleId> = (0..rh_toggles.div_ceil(4))
        .map(|i| h.universe.role(&format!("wsub{i}")))
        .collect();
    let mut chosen: BTreeSet<Edge> = BTreeSet::new();
    while chosen.len() < rh_toggles {
        let src = subs[chosen.len() % subs.len()];
        let dst = h.layers[1 + rng.below(layers - 1)][rng.below(width)];
        chosen.insert(Edge::RoleRole(src, dst));
    }
    toggles.extend(chosen);
    for &edge in &toggles {
        let grant = h.universe.priv_grant(edge);
        let revoke = h.universe.priv_revoke(edge);
        h.policy.add_edge(Edge::RolePriv(ops, grant));
        h.policy.add_edge(Edge::RolePriv(ops, revoke));
    }
    ReadPolicy {
        universe: h.universe,
        policy: h.policy,
        sessions,
        admin,
        toggles,
    }
}

/// Perms held anywhere below `role` (the benchmark's own walk).
fn perms_below(universe: &Universe, policy: &Policy, role: RoleId) -> Vec<Perm> {
    let mut out = BTreeSet::new();
    for r in roles_below(policy, role) {
        for p in policy.privs_of(r) {
            if let PrivTerm::Perm(q) = universe.term(p) {
                out.insert(q);
            }
        }
    }
    out.into_iter().collect()
}

fn roles_below(policy: &Policy, role: RoleId) -> Vec<RoleId> {
    let mut seen = HashSet::from([role]);
    let mut stack = vec![role];
    while let Some(r) = stack.pop() {
        for s in policy.juniors_of(r) {
            if seen.insert(s) {
                stack.push(s);
            }
        }
    }
    seen.into_iter().collect()
}

fn role_closure_size(policy: &Policy, role: RoleId) -> usize {
    roles_below(policy, role).len()
}

/// A toggle command that flips `edge` given whether it is present now.
pub fn toggle(admin: UserId, edge: Edge, present: bool) -> Command {
    if present {
        Command::revoke(admin, edge)
    } else {
        Command::grant(admin, edge)
    }
}

// ----- embedded_reads --------------------------------------------------

pub struct EmbeddedInputs {
    pub read: ReadPolicy,
    /// Probe slots in the order the reader issues them (cycled).
    pub probes: Vec<u32>,
    /// The writer's batches, one period: every toggle is granted and
    /// then revoked, so cycling the list keeps every command authorized
    /// and policy-changing.
    pub batches: Vec<Vec<Command>>,
    pub batch_rate: f64,
}

/// Toggles per writer batch, and the writer's UA and RH toggle edges.
pub const EMBEDDED_BATCH: usize = 8;
const EMBEDDED_UA: usize = 3584;
const EMBEDDED_RH: usize = 512;
/// One chunk in `RH_EVERY` of each half of the toggle list is RH.
const RH_EVERY: usize = 8;

pub fn embedded(seed: u64, size: Size) -> EmbeddedInputs {
    let (roles, sessions, probes) = match size {
        Size::Full => (8192, 4096, 1 << 21),
        Size::Tiny => (64, 32, 1 << 12),
    };
    // 3584 UA and 512 RH toggles, ordered so that 2 of every 16 batches
    // carry only RH edges (see `interleave_rh`). An RH delta makes the
    // publish re-derive role adjacency over the whole hierarchy, 10-30
    // ms at 8192 roles against about 1 ms for a UA-only batch: a known
    // cost this workload keeps in view.
    let mut read = read_policy(roles, sessions, EMBEDDED_UA, EMBEDDED_RH, seed);
    read.toggles = interleave_rh(&read.toggles, EMBEDDED_RH, EMBEDDED_BATCH / 2);
    let zipf = Zipf::new(read.slots(), 1.0);
    let mut rank_to_slot: Vec<u32> = (0..read.slots() as u32).collect();
    let mut rng = Rng::fork(seed, 2);
    rng.shuffle(&mut rank_to_slot);
    let probes = (0..probes)
        .map(|_| rank_to_slot[zipf.sample(&mut rng)])
        .collect();
    let batches = swap_period(&mut read, EMBEDDED_BATCH);
    EmbeddedInputs {
        read,
        probes,
        batches,
        batch_rate: 100.0,
    }
}

/// Reorders `toggles` (UA edges, then the last `rh` RH edges) into
/// chunks of `step`, every `RH_EVERY`-th chunk RH and the rest UA. Each
/// half then holds the same pattern, so `swap_period`'s batch `k`
/// grants and revokes RH edges exactly when `k % RH_EVERY == 0`: 2 of
/// every 16 batches.
fn interleave_rh(toggles: &[Edge], rh: usize, step: usize) -> Vec<Edge> {
    let chunks = toggles.len() / step;
    assert!(
        toggles.len() == chunks * step && rh * RH_EVERY == toggles.len(),
        "RH edges fill every {RH_EVERY}th chunk"
    );
    let (ua, rh) = toggles.split_at(toggles.len() - rh);
    let (mut ua, mut rh) = (ua.chunks(step), rh.chunks(step));
    (0..chunks)
        .flat_map(|c| {
            let chunk = if c % RH_EVERY == 0 {
                rh.next()
            } else {
                ua.next()
            };
            chunk.expect("counts checked above").iter().copied()
        })
        .collect()
}

/// Makes the second half of `read`'s toggles present in its policy and
/// returns one period of batches that each grant `per_batch / 2` absent
/// edges and revoke as many present ones. Every batch therefore both
/// adds and severs (so all UA-only batches share one commit cost), and
/// after the period every edge is back where it started.
fn swap_period(read: &mut ReadPolicy, per_batch: usize) -> Vec<Vec<Command>> {
    let half = read.toggles.len() / 2;
    let step = per_batch / 2;
    assert!(half.is_multiple_of(step), "whole batches per pass");
    for &e in &read.toggles[half..] {
        read.policy.add_edge(e);
    }
    let (lo, hi) = read.toggles.split_at(half);
    let admin = read.admin;
    let pass = |grant: &[Edge], revoke: &[Edge]| -> Vec<Vec<Command>> {
        grant
            .chunks(step)
            .zip(revoke.chunks(step))
            .map(|(g, r)| {
                g.iter()
                    .map(|&e| Command::grant(admin, e))
                    .chain(r.iter().map(|&e| Command::revoke(admin, e)))
                    .collect()
            })
            .collect()
    };
    let mut batches = pass(lo, hi);
    batches.extend(pass(hi, lo));
    batches
}

// ----- wire_mixed ------------------------------------------------------

/// One logical client's next operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// `CheckAccess` on a probe slot.
    Read(u32),
    /// A single-command `Submit` toggling the client's own edge.
    Submit(Command),
}

pub struct WireInputs {
    pub read: ReadPolicy,
    /// Per primary client: a cyclic op list (an even number of toggles,
    /// alternating grant and revoke of that client's own edge).
    pub primary_ops: Vec<Vec<WireOp>>,
    /// Per replica client: a cyclic list of probe slots.
    pub replica_ops: Vec<Vec<u32>>,
}

pub const WIRE_CLIENTS: usize = 16;

pub fn wire(seed: u64, size: Size) -> WireInputs {
    let (roles, sessions, ops) = match size {
        Size::Full => (1024, 1024, 4096),
        Size::Tiny => (64, 32, 256),
    };
    let read = read_policy(roles, sessions, WIRE_CLIENTS, 0, seed ^ 0x31);
    let mut rng = Rng::fork(seed, 3);
    let slots = read.slots();
    let primary_ops = (0..WIRE_CLIENTS)
        .map(|c| {
            let edge = read.toggles[c];
            let mut present = false;
            let mut list: Vec<WireOp> = (0..ops)
                .map(|_| {
                    if rng.below(10) == 0 {
                        let cmd = toggle(read.admin, edge, present);
                        present = !present;
                        WireOp::Submit(cmd)
                    } else {
                        WireOp::Read(rng.below(slots) as u32)
                    }
                })
                .collect();
            if present {
                // Odd toggle count: turn the last toggle into a read so
                // the cycle ends with the edge absent again.
                let last = list
                    .iter()
                    .rposition(|op| matches!(op, WireOp::Submit(_)))
                    .expect("an odd count is non-zero");
                list[last] = WireOp::Read(rng.below(slots) as u32);
            }
            list
        })
        .collect();
    let replica_ops = (0..WIRE_CLIENTS)
        .map(|_| (0..ops).map(|_| rng.below(slots) as u32).collect())
        .collect();
    WireInputs {
        read,
        primary_ops,
        replica_ops,
    }
}

// ----- gated_admin -----------------------------------------------------

pub struct GatedBatch {
    pub commands: Vec<Command>,
    /// Planted to violate a declared SoD pair: must be refused.
    pub planted: bool,
}

pub struct GatedInputs {
    pub universe: Universe,
    pub policy: Policy,
    pub constraints: adminref_core::admission::ConstraintSet,
    /// One period of batches; cycling it returns every toggle to absent.
    pub batches: Vec<GatedBatch>,
    /// `(pair, user)` co-holdings in the may-add closure, per the
    /// reference walk: what the lint's SoD check must report.
    pub expected_sod_findings: usize,
    /// Every edge the admin may add (the toggles plus the planted one).
    pub grantable: Vec<Edge>,
}

/// Toggle edges: a block of 16 batches uses 13 single-edge toggles and
/// two 8-edge batches (29 edge uses), so 232 = 29 × 8 toggles close one
/// period after 16 blocks with every edge flipped exactly twice.
const GATED_TOGGLES: usize = 232;
const GATED_BLOCK: usize = 16;

pub fn gated(seed: u64, size: Size) -> GatedInputs {
    let (roles, users) = match size {
        Size::Full => (2048, 256),
        // The trickle generator probes a fixed pattern of cross-layer
        // pairs for its RH toggles; 256 roles is comfortably enough.
        Size::Tiny => (256, 16),
    };
    let mut w = wide_universe_trickle(TrickleSpec {
        roles,
        users,
        toggles: GATED_TOGGLES,
        rh_toggle_per_mille: 250,
        seed: seed ^ 0x6A7E,
    });
    let toggles: Vec<Edge> = w.batches[..GATED_TOGGLES]
        .iter()
        .map(|b| b[0].edge)
        .collect();
    let ops = w
        .universe
        .find_role("trickle_ops")
        .expect("trickle ops role");

    // The union of every state the toggles can reach: SoD pairs are
    // chosen clean on it, so only the planted grant can violate one.
    let mut union = w.policy.clone();
    for &e in &toggles {
        union.add_edge(e);
    }
    // SoD roles are dedicated duty roles with juniors in the hierarchy;
    // pair 0's "a" side seats the planted user, pair 1 seats one
    // existing user on each side, so the check is never vacuous.
    let users: Vec<UserId> = w.universe.users().collect();
    let all_roles: Vec<RoleId> = w.universe.roles().collect();
    let mut rng = Rng::fork(seed, 4);
    let mut pairs: Vec<(RoleId, RoleId)> = Vec::new();
    for i in 0..2 {
        let a = w.universe.role(&format!("duty_a{i}"));
        let b = w.universe.role(&format!("duty_b{i}"));
        for duty in [a, b] {
            for _ in 0..4 {
                let junior = all_roles[rng.below(all_roles.len())];
                w.policy.add_edge(Edge::RoleRole(duty, junior));
                union.add_edge(Edge::RoleRole(duty, junior));
            }
        }
        pairs.push((a.min(b), a.max(b)));
    }
    let (x, y) = (users[rng.below(users.len())], users[rng.below(users.len())]);
    if x != y {
        for (u, r) in [(x, pairs[1].0), (y, pairs[1].1)] {
            w.policy.add_edge(Edge::UserRole(u, r));
            union.add_edge(Edge::UserRole(u, r));
        }
    }
    let plant = w.universe.user("plant_user");
    let (a, b) = pairs[0];
    w.policy.add_edge(Edge::UserRole(plant, a));
    let planted_edge = Edge::UserRole(plant, b);
    let planted_term = w.universe.priv_grant(planted_edge);
    w.policy.add_edge(Edge::RolePriv(ops, planted_term));
    union.add_edge(Edge::UserRole(plant, a));
    union.add_edge(planted_edge);

    let constraints = adminref_core::admission::ConstraintSet {
        sod_pairs: pairs.clone(),
        deny_level: None,
        frozen_edges: vec![Edge::UserRole(w.admin, ops)],
    };
    let expected_sod_findings = pairs
        .iter()
        .map(|&(a, b)| {
            w.universe
                .users()
                .filter(|&u| co_holds(&union, u, a, b))
                .count()
        })
        .sum();

    let mut present = vec![false; GATED_TOGGLES];
    let mut next = 0usize;
    let mut batches = Vec::new();
    for _ in 0..GATED_BLOCK {
        for pos in 0..GATED_BLOCK {
            if pos == GATED_BLOCK - 1 {
                batches.push(GatedBatch {
                    commands: vec![Command::grant(w.admin, planted_edge)],
                    planted: true,
                });
                continue;
            }
            let width = if pos == 3 || pos == 11 { 8 } else { 1 };
            let commands = (0..width)
                .map(|_| {
                    let i = next % GATED_TOGGLES;
                    next += 1;
                    let cmd = toggle(w.admin, toggles[i], present[i]);
                    present[i] = !present[i];
                    cmd
                })
                .collect();
            batches.push(GatedBatch {
                commands,
                planted: false,
            });
        }
    }
    assert!(
        present.iter().all(|p| !p),
        "one period returns every toggle to absent"
    );
    let mut grantable = toggles;
    grantable.push(planted_edge);
    GatedInputs {
        universe: w.universe,
        policy: w.policy,
        constraints,
        batches,
        expected_sod_findings,
        grantable,
    }
}

fn co_holds(policy: &Policy, u: UserId, a: RoleId, b: RoleId) -> bool {
    reaches(policy, Node::User(u), Node::Role(a)) && reaches(policy, Node::User(u), Node::Role(b))
}

// ----- analyses --------------------------------------------------------

/// One reach query with its expected verdict.
pub struct ReachQuery {
    pub name: &'static str,
    pub universe: Universe,
    pub policy: Policy,
    pub entity: Entity,
    pub perm: Perm,
    pub reachable: bool,
}

pub struct AnalysesInputs {
    pub queries: Vec<ReachQuery>,
    /// The gated_admin policy the lint and refinement calls run over.
    pub gated: GatedInputs,
    /// A candidate that refines the gated policy (a perm grant removed).
    pub refining: Policy,
    /// A candidate that does not (a perm grant added), with its exact
    /// violation count per the reference walk.
    pub widening: Policy,
    pub widening_violations: usize,
}

pub fn analyses(seed: u64, size: Size) -> AnalysesInputs {
    let tiny = size == Size::Tiny;
    let mut rng = Rng::fork(seed, 5);
    let cone_spec = if tiny {
        ConeSpec {
            departments: 2,
            depth: 2,
            fanout: 2,
        }
    } else {
        ConeSpec::default()
    };
    let c = cone(cone_spec);
    let cone_worker = c.workers[rng.below(c.workers.len())];
    let d = deep_delegation(if tiny {
        DelegationSpec {
            depth: 2,
            fanout: 2,
        }
    } else {
        DelegationSpec::default()
    });
    let dd_worker = d.workers[rng.below(d.workers.len())];
    let g = grow_only(if tiny {
        GrowOnlySpec { width: 4, users: 2 }
    } else {
        GrowOnlySpec::default()
    });
    let member = g.members[rng.below(g.members.len())];
    let queries = vec![
        ReachQuery {
            name: "cone_goal",
            universe: c.universe,
            policy: c.policy,
            entity: Entity::User(cone_worker),
            perm: c.goal_perm,
            reachable: true,
        },
        ReachQuery {
            name: "deep_delegation_vault",
            universe: d.universe,
            policy: d.policy,
            entity: Entity::User(dd_worker),
            perm: d.vault_perm,
            reachable: true,
        },
        ReachQuery {
            name: "grow_only_goal",
            universe: g.universe.clone(),
            policy: g.policy.clone(),
            entity: Entity::User(member),
            perm: g.goal_perm,
            reachable: true,
        },
        ReachQuery {
            name: "grow_only_absent",
            universe: g.universe,
            policy: g.policy,
            entity: Entity::User(member),
            perm: g.absent_perm,
            reachable: false,
        },
    ];

    let gated = gated(seed, size);
    let perm_edges: Vec<(RoleId, PrivId)> = gated
        .policy
        .pa()
        .filter(|&(_, p)| matches!(gated.universe.term(p), PrivTerm::Perm(_)))
        .collect();
    let (r, p) = perm_edges[rng.below(perm_edges.len())];
    let mut refining = gated.policy.clone();
    refining.remove_edge(Edge::RolePriv(r, p));
    // Widen: give some role a perm it does not reach yet.
    let roles: Vec<RoleId> = gated.universe.roles().collect();
    let (x, q) = loop {
        let x = roles[rng.below(roles.len())];
        let (_, q) = perm_edges[rng.below(perm_edges.len())];
        if !reaches(&gated.policy, Node::Role(x), Node::Priv(q)) {
            break (x, q);
        }
    };
    let mut widening = gated.policy.clone();
    widening.add_edge(Edge::RolePriv(x, q));
    let entities = gated
        .universe
        .users()
        .map(Node::User)
        .chain(gated.universe.roles().map(Node::Role));
    let widening_violations = entities
        .filter(|&v| {
            reaches(&gated.policy, v, Node::Role(x)) && !reaches(&gated.policy, v, Node::Priv(q))
        })
        .count();
    AnalysesInputs {
        queries,
        gated,
        refining,
        widening,
        widening_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::checksum::policy_checksum;

    fn embedded_digest(seed: u64) -> (u64, Vec<SessionSpec>, Vec<u32>, Vec<Vec<Command>>) {
        let e = embedded(seed, Size::Tiny);
        (
            policy_checksum(&e.read.policy),
            e.read.sessions,
            e.probes,
            e.batches,
        )
    }

    #[test]
    fn same_seed_same_inputs_and_expectations() {
        assert!(embedded_digest(7) == embedded_digest(7));
        let (a, b) = (wire(7, Size::Tiny), wire(7, Size::Tiny));
        assert_eq!(a.primary_ops, b.primary_ops);
        assert_eq!(a.replica_ops, b.replica_ops);
        assert_eq!(a.read.sessions, b.read.sessions);
        let (a, b) = (gated(7, Size::Tiny), gated(7, Size::Tiny));
        assert_eq!(policy_checksum(&a.policy), policy_checksum(&b.policy));
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.expected_sod_findings, b.expected_sod_findings);
        let (a, b) = (analyses(7, Size::Tiny), analyses(7, Size::Tiny));
        assert_eq!(policy_checksum(&a.widening), policy_checksum(&b.widening));
        assert_eq!(a.widening_violations, b.widening_violations);
    }

    #[test]
    fn another_seed_changes_inputs() {
        let (a, b) = (embedded_digest(7), embedded_digest(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.2, b.2);
        assert_ne!(
            wire(7, Size::Tiny).primary_ops,
            wire(8, Size::Tiny).primary_ops
        );
        assert_ne!(
            policy_checksum(&gated(7, Size::Tiny).policy),
            policy_checksum(&gated(8, Size::Tiny).policy)
        );
    }

    #[test]
    fn expectations_split_granted_and_denied() {
        let e = embedded(3, Size::Tiny);
        for s in &e.read.sessions {
            let half = PERMS_PER_SESSION / 2;
            assert!(s.expect[..half].iter().all(|&x| x));
            assert!(s.expect[half..].iter().all(|&x| !x));
        }
        let rh = e
            .batches
            .iter()
            .filter(|b| b.iter().all(|c| matches!(c.edge, Edge::RoleRole(..))))
            .count();
        assert_eq!(
            rh * RH_EVERY,
            e.batches.len(),
            "2 in 16 batches are RH-only"
        );
        assert!(e.batches.iter().all(|b| b.len() == EMBEDDED_BATCH));
        let g = gated(3, Size::Tiny);
        assert_eq!(g.batches.iter().filter(|b| b.planted).count(), 16);
        assert!(g.expected_sod_findings >= 1, "the planted grant co-holds");
        let a = analyses(3, Size::Tiny);
        assert!(a.widening_violations >= 1);
    }
}
