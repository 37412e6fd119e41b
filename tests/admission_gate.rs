//! Differential and end-to-end coverage for publish-time admission
//! control (`adminref_core::admission`).
//!
//! * The **interval invariant**: `Φ⁻ ⊆ edges(φ) ⊆ Φ⁺` for every policy
//!   `φ` an explicit-state BFS over authorized commands can reach, in
//!   both authorization modes. The BFS is the executable ground truth
//!   the closed-form interval is pinned to.
//! * **Gate ⇔ refusal**: the monitor refuses a batch exactly when
//!   statically evaluating the declared constraints against the
//!   simulated candidate state yields findings — and a refusal leaves
//!   epoch, audit log, WAL, and published policy untouched.
//! * **Staged path vs references**: the publish the gate judged equals
//!   a from-scratch build of the durable state, and the monitor's
//!   staged `analyze_batch` equals the from-scratch one.
//! * The **socket story**: over a real Unix socket, a SoD-violating
//!   batch is refused with the typed `ServiceError::Admission` before
//!   publication while clean batches keep applying.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use adminref_core::prelude::*;
use adminref_monitor::{MonitorConfig, MonitorError, ReferenceMonitor};
use adminref_service::{
    Daemon, MonitorService, PolicyService, ServiceError, WireClient, WireListener,
};
use adminref_store::{PolicyStore, TempDir};
use proptest::prelude::*;

const USERS: usize = 3;
const ROLES: usize = 4;

/// Blueprint for one random policy (index lists shrink well); the same
/// shape the lint differentials use, kept small enough for the BFS.
#[derive(Clone, Debug)]
struct PolicySpec {
    ua: Vec<(u8, u8)>,
    rh: Vec<(u8, u8)>,
    /// (role, privilege blueprint)
    pa: Vec<(u8, PrivSpec)>,
}

#[derive(Clone, Debug)]
enum PrivSpec {
    Perm(u8),
    GrantUserRole(u8, u8),
    GrantRoleRole(u8, u8),
    RevokeUserRole(u8, u8),
    RevokeRoleRole(u8, u8),
}

fn priv_spec() -> BoxedStrategy<PrivSpec> {
    prop_oneof![
        (0u8..3).prop_map(PrivSpec::Perm),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::GrantUserRole(u, r)),
        ((0u8..ROLES as u8), (0u8..ROLES as u8)).prop_map(|(a, b)| PrivSpec::GrantRoleRole(a, b)),
        ((0u8..USERS as u8), (0u8..ROLES as u8)).prop_map(|(u, r)| PrivSpec::RevokeUserRole(u, r)),
        ((0u8..ROLES as u8), (0u8..ROLES as u8)).prop_map(|(a, b)| PrivSpec::RevokeRoleRole(a, b)),
    ]
    .boxed()
}

fn policy_spec() -> impl Strategy<Value = PolicySpec> {
    (
        prop::collection::vec(((0u8..USERS as u8), (0u8..ROLES as u8)), 0..4),
        prop::collection::vec(((0u8..ROLES as u8), (0u8..ROLES as u8)), 0..4),
        prop::collection::vec(((0u8..ROLES as u8), priv_spec()), 0..6),
    )
        .prop_map(|(ua, rh, pa)| PolicySpec { ua, rh, pa })
}

fn build(spec: &PolicySpec) -> (Universe, Policy, Vec<UserId>, Vec<RoleId>) {
    let mut uni = Universe::new();
    let users: Vec<UserId> = (0..USERS).map(|i| uni.user(&format!("u{i}"))).collect();
    let roles: Vec<RoleId> = (0..ROLES).map(|i| uni.role(&format!("r{i}"))).collect();
    let mut policy = Policy::new(&uni);
    for &(u, r) in &spec.ua {
        policy.add_edge(Edge::UserRole(users[u as usize], roles[r as usize]));
    }
    for &(a, b) in &spec.rh {
        policy.add_edge(Edge::RoleRole(roles[a as usize], roles[b as usize]));
    }
    for (r, ps) in &spec.pa {
        let p = match ps {
            PrivSpec::Perm(i) => {
                let perm = uni.perm(["read", "write", "prnt"][*i as usize % 3], "obj");
                uni.priv_perm(perm)
            }
            PrivSpec::GrantUserRole(u, r) => {
                uni.grant_user_role(users[*u as usize], roles[*r as usize])
            }
            PrivSpec::GrantRoleRole(a, b) => {
                uni.grant_role_role(roles[*a as usize], roles[*b as usize])
            }
            PrivSpec::RevokeUserRole(u, r) => {
                uni.revoke_user_role(users[*u as usize], roles[*r as usize])
            }
            PrivSpec::RevokeRoleRole(a, b) => {
                let e = Edge::RoleRole(roles[*a as usize], roles[*b as usize]);
                uni.priv_revoke(e)
            }
        };
        policy.add_edge(Edge::RolePriv(roles[*r as usize], p));
    }
    (uni, policy, users, roles)
}

/// Every edge some interned grant or revoke term mentions: exactly the
/// edges any authorized command can add or remove.
fn actionable_edges(uni: &Universe) -> Vec<Edge> {
    let mut set = BTreeSet::new();
    for i in 0..uni.term_count() {
        match uni.term(PrivId::from_index(i)) {
            PrivTerm::Grant(e) | PrivTerm::Revoke(e) => {
                set.insert(e);
            }
            _ => {}
        }
    }
    set.into_iter().collect()
}

/// Explicit-state BFS over authorized commands: the distinct edge sets
/// of every policy reachable from `root` within `max_depth` steps.
/// Ground truth for the interval — no abstraction, just `step`.
fn reachable_edge_sets(
    uni: &mut Universe,
    root: &Policy,
    mode: AuthMode,
    max_depth: usize,
    max_states: usize,
) -> Vec<BTreeSet<Edge>> {
    let actors: Vec<UserId> = (0..uni.user_count()).map(UserId::from_index).collect();
    let targets = actionable_edges(uni);
    let mut commands = Vec::with_capacity(actors.len() * targets.len() * 2);
    for &u in &actors {
        for &e in &targets {
            commands.push(Command::grant(u, e));
            commands.push(Command::revoke(u, e));
        }
    }
    let fingerprint = |p: &Policy| p.edges().collect::<BTreeSet<Edge>>();
    let mut seen: BTreeSet<BTreeSet<Edge>> = BTreeSet::new();
    seen.insert(fingerprint(root));
    let mut frontier = vec![root.clone()];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for policy in &frontier {
            for cmd in &commands {
                let mut cand = policy.clone();
                if !step(uni, &mut cand, cmd, mode).executed() {
                    continue;
                }
                if seen.insert(fingerprint(&cand)) {
                    next.push(cand);
                }
                if seen.len() >= max_states {
                    return seen.into_iter().collect();
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interval invariant, differentially against the BFS in both
    /// authorization modes: every frozen edge is in every reachable
    /// policy, and every reachable policy stays inside `Φ⁺`.
    #[test]
    fn interval_bounds_every_reachable_policy(spec in policy_spec()) {
        for mode in [AuthMode::Explicit, AuthMode::Ordered(OrderingMode::Extended)] {
            let (uni, policy, _, _) = build(&spec);
            let interval = Interval::from_policy(&uni, &policy, mode);
            let mut bfs_uni = uni.clone();
            let sets = reachable_edge_sets(&mut bfs_uni, &policy, mode, 3, 400);
            for set in &sets {
                for &e in &interval.frozen {
                    prop_assert!(
                        set.contains(&e),
                        "frozen edge {e:?} missing from a reachable policy ({mode:?})"
                    );
                }
                for &e in set {
                    prop_assert!(
                        interval.potential.policy.contains_edge(e),
                        "reachable edge {e:?} outside the may-closure ({mode:?})"
                    );
                }
            }
        }
    }

    /// Gate ⇔ refusal: the monitor refuses exactly when the static
    /// evaluation of the constraints against the simulated candidate
    /// state has findings, in both authorization modes and on both
    /// backends (see [`check_gate`]).
    #[test]
    fn monitor_gate_matches_static_evaluation(
        spec in policy_spec(),
        pair in ((0u8..ROLES as u8), (0u8..ROLES as u8)),
        batch in prop::collection::vec(
            ((0u8..USERS as u8), 0u8..2, 0u8..32), 1..5),
    ) {
        let (uni, policy, users, roles) = build(&spec);
        let targets = actionable_edges(&uni);
        // With nothing any command can touch, the gate is trivially
        // clean and there is no batch to build.
        if !targets.is_empty() {
            let commands = batch_commands(&batch, &users, &targets);
            let constraints = ConstraintSet {
                sod_pairs: vec![(roles[pair.0 as usize], roles[pair.1 as usize])],
                deny_level: None,
                frozen_edges: Vec::new(),
            };
            for mode in [AuthMode::Explicit, AuthMode::Ordered(OrderingMode::Extended)] {
                for durable in [false, true] {
                    check_gate(&uni, &policy, &commands, &constraints, mode, durable);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The staged write path against its from-scratch references, over
    /// a run of clean, refused and (through an injected append failure
    /// at a random record) partially applied batches on a durable
    /// monitor. After every batch the published snapshot equals a
    /// from-scratch build of the reopened store's state, and before it
    /// the monitor's `analyze_batch` equals `admission::analyze_batch`
    /// on every field but the monitor-only `severed_sessions`.
    #[test]
    fn staged_publish_matches_rebuild_and_reference_analysis(
        spec in policy_spec(),
        pair in ((0u8..ROLES as u8), (0u8..ROLES as u8)),
        ordered in 0u8..2,
        fail_after in 0u64..16,
        batches in prop::collection::vec(
            prop::collection::vec(((0u8..USERS as u8 + 1), 0u8..2, 0u8..32), 1..5),
            1..6),
    ) {
        let mode = if ordered == 1 {
            AuthMode::Ordered(OrderingMode::Extended)
        } else {
            AuthMode::Explicit
        };
        check_staged_run(&spec, pair, mode, fail_after, &batches);
    }
}

/// One run of [`staged_publish_matches_rebuild_and_reference_analysis`]:
/// `batches` through a durable monitor whose store fails its append
/// after `fail_after` successful ones.
fn check_staged_run(
    spec: &PolicySpec,
    pair: (u8, u8),
    mode: AuthMode,
    fail_after: u64,
    batches: &[Vec<(u8, u8, u8)>],
) {
    let (mut uni, mut policy, mut users, roles) = build(spec);
    let targets = actionable_edges(&uni);
    if targets.is_empty() {
        return;
    }
    // An extra actor holding grant and revoke authority over every
    // target, so batches actually change the state (and can create the
    // conflicts the gate refuses) rather than being mostly refused.
    let admin = uni.user("admin");
    let admins = uni.role("admins");
    policy.add_edge(Edge::UserRole(admin, admins));
    for &edge in &targets {
        for term in [uni.priv_grant(edge), uni.priv_revoke(edge)] {
            policy.add_edge(Edge::RolePriv(admins, term));
        }
    }
    users.push(admin);
    let dir = TempDir::new("admission-staged").unwrap();
    let mut store = PolicyStore::create(dir.path(), uni, policy, mode).unwrap();
    store.inject_append_failure_after(fail_after);
    let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
    monitor
        .set_constraints(ConstraintSet {
            sod_pairs: vec![(roles[pair.0 as usize], roles[pair.1 as usize])],
            deny_level: None,
            frozen_edges: Vec::new(),
        })
        .unwrap();
    let constraints = (*monitor.constraints()).clone();
    for batch in batches {
        let commands = batch_commands(batch, &users, &targets);
        let parent = monitor.read_snapshot();
        let mut staged = monitor.analyze_batch(&commands);
        staged.severed_sessions.clear();
        let reference = analyze_batch(
            parent.universe(),
            parent.policy(),
            &commands,
            &constraints,
            mode,
        );
        assert_eq!(staged, reference);
        match monitor.submit_batch(&commands) {
            Ok(_) | Err(MonitorError::Admission(_)) | Err(MonitorError::Store(_)) => {}
            Err(other) => panic!("unexpected monitor error: {other}"),
        }
        let live = monitor.read_snapshot();
        let (reopened, report) = PolicyStore::open(dir.path(), mode).unwrap();
        assert_eq!(report.divergent, 0);
        let rebuilt = PolicySnapshot::build(
            reopened.universe().clone(),
            reopened.policy().clone(),
            live.epoch,
        );
        assert_same_snapshot(&live, &rebuilt);
    }
}

/// Turns `(actor, grant?, target)` index triples into commands over the
/// actionable edges.
fn batch_commands(batch: &[(u8, u8, u8)], users: &[UserId], targets: &[Edge]) -> Vec<Command> {
    batch
        .iter()
        .map(|&(u, grant, t)| {
            let edge = targets[t as usize % targets.len()];
            let actor = users[u as usize];
            if grant == 1 {
                Command::grant(actor, edge)
            } else {
                Command::revoke(actor, edge)
            }
        })
        .collect()
}

/// One gate ⇔ refusal case: a monitor over `(uni, policy)` — in memory,
/// or over a fresh durable store — under `mode` refuses `commands`
/// exactly when [`evaluate_constraints`] finds violations in the
/// simulated candidate. A refusal leaves everything as it was: epoch,
/// audit length, published policy and checksum, the WAL's bytes, and
/// the universe (ordered staging interns terms, and none may leak into
/// the published state). A durable store reopened afterwards matches
/// the live published state.
fn check_gate(
    uni: &Universe,
    policy: &Policy,
    commands: &[Command],
    constraints: &ConstraintSet,
    mode: AuthMode,
    durable: bool,
) {
    let dir = TempDir::new("admission-gate").unwrap();
    let config = MonitorConfig {
        auth_mode: mode,
        ..MonitorConfig::default()
    };
    let monitor = if durable {
        let store = PolicyStore::create(dir.path(), uni.clone(), policy.clone(), mode).unwrap();
        ReferenceMonitor::with_store(store, config)
    } else {
        ReferenceMonitor::new(uni.clone(), policy.clone(), config)
    };
    monitor
        .set_constraints(constraints.clone())
        .expect("set_constraints");
    let constraints = (*monitor.constraints()).clone();
    let (cand_uni, cand_policy, _) = simulate_batch(uni, policy, commands, mode);
    let expected = evaluate_constraints(&cand_uni, &cand_policy, &constraints, mode);
    let wal_bytes = || std::fs::read(dir.path().join("commands.log")).unwrap_or_default();
    let wal_before = wal_bytes();
    let before = monitor.read_snapshot();
    let audit_before = monitor.audit_len();
    match monitor.submit_batch(commands) {
        Ok(_) => assert!(
            expected.is_empty(),
            "monitor published a batch the static gate finds dirty ({mode:?}): {expected:?}"
        ),
        Err(MonitorError::Admission(report)) => {
            assert_eq!(report.findings, expected);
            let after = monitor.read_snapshot();
            assert_eq!(after.epoch, before.epoch, "epoch moved on refusal");
            assert_eq!(monitor.audit_len(), audit_before, "audit grew on refusal");
            assert_eq!(
                after.policy(),
                policy,
                "published policy changed on refusal"
            );
            assert_eq!(after.checksum(), before.checksum());
            assert_eq!(
                after.universe().term_count(),
                uni.term_count(),
                "a refused batch leaked an interned term ({mode:?})"
            );
            assert_eq!(wal_bytes(), wal_before, "WAL changed on refusal");
        }
        Err(other) => panic!("unexpected monitor error: {other}"),
    }
    if durable {
        let live = monitor.read_snapshot();
        drop(monitor);
        let (store, report) = PolicyStore::open(dir.path(), mode).unwrap();
        assert_eq!(report.divergent, 0);
        assert_eq!(policy_checksum(store.policy()), live.checksum());
        assert_eq!(store.universe().term_count(), live.universe().term_count());
    }
}

/// Two snapshots hold the same state and answer every reachability
/// probe the same way.
fn assert_same_snapshot(a: &PolicySnapshot, b: &PolicySnapshot) {
    assert_eq!(a.policy(), b.policy());
    assert_eq!(a.checksum(), b.checksum());
    assert_eq!(
        a.universe().population_stamp(),
        b.universe().population_stamp()
    );
    let entities = a
        .universe()
        .users()
        .map(Entity::User)
        .chain(a.universe().roles().map(Entity::Role));
    for e in entities {
        assert_eq!(a.reach().roles_reachable(e), b.reach().roles_reachable(e));
        for p in a.universe().priv_ids() {
            assert_eq!(a.entity_reaches_priv(e, p), b.entity_reaches_priv(e, p));
        }
    }
}

/// A deliberately tiny arena: `admin` can put `alice`/`bob` into `pay`
/// or `audit`; declaring `(pay, audit)` as a SoD pair makes "one user
/// in both" statically refusable.
fn sod_arena() -> (Universe, Policy, UserId) {
    let mut uni = Universe::new();
    let admin = uni.user("admin");
    let admins = uni.role("admins");
    let pay = uni.role("pay");
    let audit = uni.role("audit");
    let mut policy = Policy::new(&uni);
    policy.add_edge(Edge::UserRole(admin, admins));
    for user in ["alice", "bob"] {
        let u = uni.user(user);
        for role in [pay, audit] {
            let g = uni.grant_user_role(u, role);
            let v = uni.revoke_user_role(u, role);
            policy.add_edge(Edge::RolePriv(admins, g));
            policy.add_edge(Edge::RolePriv(admins, v));
        }
    }
    (uni, policy, admin)
}

/// On a durable store, a refused batch leaves the WAL byte-for-byte
/// unchanged and the constraint set (plus the clean state) survives
/// reopen — the replayed store never sees a constraint-dirty epoch.
#[test]
fn refusal_leaves_wal_untouched_and_constraints_survive_reopen() {
    let dir = TempDir::new("admission-wal").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let constraints = ConstraintSet {
        sod_pairs: vec![(pay, audit)],
        deny_level: None,
        frozen_edges: Vec::new(),
    };
    let wal_path = dir.path().join("commands.log");
    {
        let store =
            PolicyStore::create(dir.path(), uni.clone(), policy.clone(), AuthMode::Explicit)
                .unwrap();
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        monitor.set_constraints(constraints.clone()).unwrap();
        let clean = vec![Command::grant(admin, Edge::UserRole(alice, pay))];
        monitor.submit_batch(&clean).expect("clean batch publishes");
        let wal_after_clean = std::fs::metadata(&wal_path).unwrap().len();
        let epoch = monitor.version();

        let violating = vec![Command::grant(admin, Edge::UserRole(alice, audit))];
        match monitor.submit_batch(&violating) {
            Err(MonitorError::Admission(report)) => {
                assert!(report.refused());
                assert_eq!(report.constraints_checked, 1);
            }
            other => panic!("expected admission refusal, got {other:?}"),
        }
        assert_eq!(monitor.version(), epoch, "epoch moved on refusal");
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            wal_after_clean,
            "WAL grew on refusal"
        );
        assert_eq!(monitor.admission_counts(), (2, 1));
        monitor.sync().unwrap();
    }
    let (store, _) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
    assert_eq!(store.constraints(), &constraints, "constraints replay");
    assert!(store.policy().contains_edge(Edge::UserRole(alice, pay)));
    assert!(!store.policy().contains_edge(Edge::UserRole(alice, audit)));
    // The reopened store keeps enforcing: the same violating command is
    // as refusable as before (evaluated statically, no monitor needed).
    let (cand_uni, cand_policy, _) = simulate_batch(
        store.universe(),
        store.policy(),
        &[Command::grant(admin, Edge::UserRole(alice, audit))],
        AuthMode::Explicit,
    );
    assert!(!evaluate_constraints(
        &cand_uni,
        &cand_policy,
        store.constraints(),
        AuthMode::Explicit
    )
    .is_empty());
    let _ = bob;
}

/// The acceptance scenario over a real Unix socket: declare a SoD pair
/// through the wire protocol, watch a violating batch bounce with the
/// typed error and an unchanged epoch, and see clean batches (including
/// ones racing the refused client) keep publishing.
#[test]
fn socket_refuses_sod_violating_batch_before_publication() {
    let dir = TempDir::new("admission-e2e").unwrap();
    let (uni, policy, admin) = sod_arena();
    let alice = uni.find_user("alice").unwrap();
    let bob = uni.find_user("bob").unwrap();
    let pay = uni.find_role("pay").unwrap();
    let audit = uni.find_role("audit").unwrap();
    let service: Arc<dyn PolicyService> = Arc::new(
        MonitorService::in_memory(uni.clone(), policy, MonitorConfig::default())
            .with_write_gather(Duration::from_micros(50)),
    );
    let path = dir.path().join("adminrefd.sock");
    let listener = WireListener::unix(&path).expect("bind unix socket");
    let daemon = Daemon::spawn(service, uni.clone(), listener).expect("spawn daemon");
    let client = WireClient::connect_unix(&path).expect("connect");

    let echoed = client
        .set_constraints(ConstraintSet {
            sod_pairs: vec![(audit, pay)],
            deny_level: None,
            frozen_edges: Vec::new(),
        })
        .expect("declare constraints");
    // The server normalizes: the pair comes back oriented low-id first.
    assert_eq!(echoed.sod_pairs, vec![(pay.min(audit), pay.max(audit))]);
    assert_eq!(client.get_constraints().expect("read back"), echoed);

    let epoch0 = client.version().expect("version");
    let violating = vec![
        Command::grant(admin, Edge::UserRole(alice, pay)),
        Command::grant(admin, Edge::UserRole(alice, audit)),
    ];
    // Pre-flight: the analyze verb sees the refusal without publishing.
    let impact = client.analyze_batch(violating.clone()).expect("analyze");
    assert!(impact.refused(), "analysis must flag the violating batch");
    assert_eq!(client.version().expect("version"), epoch0);

    // A clean batch racing the violating one: the refusal must not
    // poison the coalesced commit group.
    let racer = WireClient::connect_unix(&path).expect("connect racer");
    let clean = vec![Command::grant(admin, Edge::UserRole(bob, pay))];
    let handle = std::thread::spawn(move || racer.submit(clean));
    match client.submit(violating) {
        Err(ServiceError::Admission(report)) => {
            assert!(report.refused());
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.kind == FindingKind::SodConflict),
                "refusal must name the SoD conflict: {:?}",
                report.findings
            );
        }
        other => panic!("expected typed admission refusal, got {other:?}"),
    }
    let raced = handle.join().unwrap().expect("clean batch applies");
    assert!(raced.iter().all(|o| o.executed()));

    // The violating batch published nothing; the clean one did.
    let epoch1 = client.version().expect("version");
    assert_eq!(epoch1, epoch0 + 1, "exactly the clean batch published");
    assert!(
        client
            .submit(vec![Command::grant(admin, Edge::UserRole(bob, audit))])
            .is_err(),
        "bob in both roles must now be refusable too"
    );
    assert_eq!(client.version().expect("version"), epoch1);
    drop(client);
    daemon.shutdown();
}
