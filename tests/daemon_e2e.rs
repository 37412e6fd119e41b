//! End-to-end daemon coverage over real sockets: the full protocol on a
//! Unix socket, a pipelined admin batch from concurrent callers sharing
//! one connection, analysis requests, wire-level error semantics
//! against a raw socket, and clean shutdown.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use adminref_core::prelude::*;
use adminref_monitor::MonitorConfig;
use adminref_service::protocol::RefinementDirection;
use adminref_service::wire::{self, FrameKind};
use adminref_service::{
    Daemon, DaemonConfig, MonitorService, PolicyService, Request, Response, ServiceError,
    WireClient, WireListener,
};
use adminref_store::TempDir;

const SUBJECTS: usize = 4;
const ROLES: usize = 3;

/// An arena where `admin` holds grant and revoke authority over every
/// `(subject, role)` edge, and every role carries one user permission.
fn arena() -> (Universe, Policy, UserId) {
    let mut universe = Universe::new();
    let admin = universe.user("admin");
    let subjects: Vec<UserId> = (0..SUBJECTS)
        .map(|i| universe.user(&format!("subj{i}")))
        .collect();
    let roles: Vec<RoleId> = (0..ROLES)
        .map(|i| universe.role(&format!("r{i}")))
        .collect();
    let admins = universe.role("admins");
    let mut policy = Policy::new(&universe);
    policy.add_edge(Edge::UserRole(admin, admins));
    for &s in &subjects {
        for &r in &roles {
            let g = universe.grant_user_role(s, r);
            let v = universe.revoke_user_role(s, r);
            policy.add_edge(Edge::RolePriv(admins, g));
            policy.add_edge(Edge::RolePriv(admins, v));
        }
    }
    for (i, &r) in roles.iter().enumerate() {
        let perm = universe.perm("use", &format!("obj{i}"));
        let p = universe.priv_perm(perm);
        policy.add_edge(Edge::RolePriv(r, p));
    }
    (universe, policy, admin)
}

fn serve_unix(dir: &TempDir) -> (Daemon, std::path::PathBuf) {
    let (universe, policy, _) = arena();
    // The same service construction `adminref serve` uses: a write
    // gather window so one pipelined round-trip's submissions coalesce.
    let service: Arc<dyn PolicyService> = Arc::new(
        MonitorService::in_memory(universe.clone(), policy, MonitorConfig::default())
            .with_write_gather(Duration::from_micros(50)),
    );
    let path = dir.path().join("adminrefd.sock");
    let listener = WireListener::unix(&path).expect("bind unix socket");
    let daemon = Daemon::spawn(service, universe, listener).expect("spawn daemon");
    (daemon, path)
}

#[test]
fn unix_socket_serves_the_full_protocol() {
    let dir = TempDir::new("daemon-e2e").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let client = WireClient::connect_unix(&path).expect("connect");
    let (mut universe, _, admin) = arena();

    let subj = universe.find_user("subj0").unwrap();
    let r0 = universe.find_role("r0").unwrap();
    // Interning is deterministic, so re-interning on this copy of the
    // universe yields the id the server uses.
    let perm0 = universe.perm("use", "obj0");

    // Access checks: subj0 reaches obj0 only once granted r0 and the
    // session activates it.
    let admin_session = client.create_session(admin).expect("admin session");
    let outcomes = client
        .submit(vec![Command {
            actor: admin,
            kind: CommandKind::Grant,
            edge: Edge::UserRole(subj, r0),
        }])
        .expect("grant");
    assert!(outcomes[0].executed() && outcomes[0].changed);

    let subj_session = client.create_session(subj).expect("subject session");
    assert!(!client.check_access(subj_session, perm0).unwrap());
    client.activate_role(subj_session, r0).expect("activate");
    assert!(client.check_access(subj_session, perm0).unwrap());

    // Analysis over the wire: the granted subject reaches the
    // permission; refinement of the live policy against itself holds.
    let answer = client
        .analyze_reach(
            Entity::User(subj),
            perm0,
            SafetyConfig {
                max_steps: 0,
                ..SafetyConfig::default()
            },
        )
        .expect("reach");
    assert!(answer.is_reachable());

    let live = client.audit_tail(16).expect("audit");
    assert_eq!(live.len(), 1, "one audited command");

    let reply = client
        .check_refinement(
            {
                let (u2, p2, _) = arena();
                assert_eq!(u2.user_count(), universe.user_count());
                p2
            },
            RefinementDirection::CandidateRefinesLive,
            4,
        )
        .expect("refinement");
    assert!(reply.holds, "the pristine arena grants no more than live");

    let report = client
        .lint(vec![(r0, universe.find_role("r1").unwrap())])
        .expect("lint");
    assert!(report.rules_checked > 0);

    let epoch = client.version().expect("version");
    assert!(epoch >= 1, "the grant published an epoch");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions, 2);
    client.compact().expect("compact is a no-op in memory");

    // Session lifecycle: deactivate, drop, and a dropped session is
    // answered with the same typed error a local caller would get.
    assert!(client.deactivate_role(subj_session, r0).unwrap());
    assert!(client.drop_session(subj_session).unwrap());
    match client.check_access(subj_session, perm0) {
        Err(ServiceError::UnknownSession(_)) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    assert!(client.drop_session(admin_session).unwrap());

    daemon.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
    // The connection is dead: calls surface Transport, never hang.
    match client.version() {
        Err(ServiceError::Transport { .. }) => {}
        other => panic!("expected Transport after shutdown, got {other:?}"),
    }
}

#[test]
fn pipelined_admin_batch_is_atomic_and_complete() {
    let dir = TempDir::new("daemon-pipe").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let client = Arc::new(WireClient::connect_unix(&path).expect("connect"));
    let (universe, _, admin) = arena();

    // Each worker toggles its own disjoint `(subject, role)` edge, so
    // every command is authorized and policy-changing regardless of how
    // the daemon's group commit interleaves the requests.
    let workers: Vec<_> = (0..SUBJECTS)
        .map(|i| {
            let client = Arc::clone(&client);
            let subj = universe.find_user(&format!("subj{i}")).unwrap();
            let role = universe.find_role(&format!("r{}", i % ROLES)).unwrap();
            std::thread::spawn(move || {
                let edge = Edge::UserRole(subj, role);
                for _ in 0..8 {
                    for kind in [CommandKind::Grant, CommandKind::Revoke] {
                        let outcomes = client
                            .submit(vec![Command {
                                actor: admin,
                                kind,
                                edge,
                            }])
                            .expect("submit");
                        assert_eq!(outcomes.len(), 1);
                        assert!(outcomes[0].executed(), "admin holds the authority");
                        assert!(outcomes[0].changed, "disjoint toggles always change");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // Every command audited exactly once, and group commit coalesced at
    // least some of the concurrent submissions (fewer epochs than
    // requests — each epoch publishes one drained group).
    let stats = client.stats().expect("stats");
    let total = (SUBJECTS * 8 * 2) as u64;
    assert_eq!(stats.audit_retained as u64, total);
    assert!(
        stats.epoch <= total,
        "epochs ({}) cannot exceed requests ({total})",
        stats.epoch
    );
    daemon.shutdown();
}

#[test]
fn tcp_transport_speaks_the_same_protocol() {
    let (universe, policy, admin) = arena();
    let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let listener = WireListener::tcp("127.0.0.1:0").expect("bind tcp");
    let daemon = Daemon::spawn(service, universe, listener).expect("spawn");
    let addr = daemon.local_addr().expect("tcp daemon has an address");

    let client = WireClient::connect_tcp(addr).expect("connect");
    assert_eq!(client.version().unwrap(), 0, "no writes yet");
    let session = client.create_session(admin).unwrap();
    assert!(client.drop_session(session).unwrap());
    daemon.shutdown();
}

#[cfg(unix)]
#[test]
fn framing_violations_close_with_an_id_zero_error() {
    let dir = TempDir::new("daemon-garbage").unwrap();
    let (daemon, path) = serve_unix(&dir);

    // Garbage bytes — at least a full header's worth, so the server's
    // framed read completes and rejects it: one Transport error frame
    // with request id 0, then the server closes the connection.
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    raw.write_all(b"GET /adminref HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw)
        .expect("server answers before closing")
        .expect("an error frame, not EOF");
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.request_id, 0, "stream position untrustworthy");
    match wire::decode_error(&frame.payload).expect("decodes") {
        ServiceError::Transport { .. } => {}
        other => panic!("expected Transport, got {other:?}"),
    }
    assert!(
        wire::read_frame(&mut raw).expect("clean close").is_none(),
        "connection closed after a framing violation"
    );

    // A well-framed but undecodable request: the error echoes the id
    // and the connection survives.
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    wire::write_frame(&mut raw, FrameKind::Request, 42, &[0xFF, 0xFF, 0x01]).unwrap();
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw).expect("read").expect("frame");
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.request_id, 42, "request-level failures echo the id");

    // …and the same connection still serves real requests.
    wire::write_frame(
        &mut raw,
        FrameKind::Request,
        43,
        &wire::encode_request(&Request::Version),
    )
    .unwrap();
    raw.flush().unwrap();
    let frame = wire::read_frame(&mut raw).expect("read").expect("frame");
    assert_eq!(frame.kind, FrameKind::Response);
    assert_eq!(frame.request_id, 43);
    daemon.shutdown();
}

/// A `Submit` followed in the same read by an inline request: the
/// daemon must dispatch the submit once its buffered input runs dry,
/// not leave it waiting for the connection's next slow request. One
/// `write` carries both frames and nothing is sent after it.
#[cfg(unix)]
#[test]
fn submit_followed_by_inline_request_in_one_write_gets_both_replies() {
    let dir = TempDir::new("daemon-stranded").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let (mut universe, _, admin) = arena();
    let subj = universe.find_user("subj0").unwrap();
    let r0 = universe.find_role("r0").unwrap();
    let use_obj0 = universe.perm("use", "obj0");
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    // A stranded reply shows up as a read timeout, not a hung test.
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = |raw: &mut std::os::unix::net::UnixStream| {
        let frame = wire::read_frame(raw)
            .expect("reply arrives")
            .expect("frame");
        assert_eq!(frame.kind, FrameKind::Response, "{frame:?}");
        (
            frame.request_id,
            wire::decode_response(&frame.payload).unwrap(),
        )
    };

    let create = wire::encode_request(&Request::CreateSession { user: subj });
    wire::write_frame(&mut raw, FrameKind::Request, 1, &create).unwrap();
    let (_, Response::SessionCreated(session)) = reply(&mut raw) else {
        panic!("expected a session");
    };

    let mut both = Vec::new();
    let submit = Request::Submit {
        commands: vec![Command::grant(admin, Edge::UserRole(subj, r0))],
    };
    wire::write_frame(
        &mut both,
        FrameKind::Request,
        2,
        &wire::encode_request(&submit),
    )
    .unwrap();
    let check = Request::CheckAccess {
        session,
        perm: use_obj0,
    };
    wire::write_frame(
        &mut both,
        FrameKind::Request,
        3,
        &wire::encode_request(&check),
    )
    .unwrap();
    raw.write_all(&both).expect("one write");

    let mut replies: Vec<(u64, Response)> = vec![reply(&mut raw), reply(&mut raw)];
    replies.sort_by_key(|(id, _)| *id);
    match &replies[0] {
        (2, Response::Outcomes(outcomes)) => assert!(outcomes[0].executed()),
        other => panic!("expected the submit's outcomes, got {other:?}"),
    }
    assert!(
        matches!(replies[1], (3, Response::Access(_))),
        "{:?}",
        replies[1]
    );
    daemon.shutdown();
}

#[test]
fn daemon_drains_connections_on_shutdown() {
    let dir = TempDir::new("daemon-drain").unwrap();
    let (daemon, path) = serve_unix(&dir);
    let (_, _, admin) = arena();
    let client = WireClient::connect_unix(&path).expect("connect");

    // An in-flight request either completes or surfaces Transport —
    // shutdown must not wedge behind the open connection.
    let session = client.create_session(admin).expect("session");
    let worker = std::thread::spawn(move || daemon.shutdown());
    // The daemon drains: this call races shutdown, so both a served
    // reply and a transport error are acceptable — a hang is not
    // (the test harness would time out).
    match client.drop_session(session) {
        Ok(_) | Err(ServiceError::Transport { .. }) => {}
        Err(other) => panic!("unexpected error during shutdown: {other:?}"),
    }
    worker.join().expect("shutdown completes");
    assert!(!path.exists());
}

#[test]
fn daemon_config_is_tunable() {
    // Tiny worker pool + short polls still serve correctly.
    let (universe, policy, admin) = arena();
    let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let listener = WireListener::tcp("127.0.0.1:0").expect("bind");
    let daemon = Daemon::spawn_with(
        service,
        universe,
        listener,
        DaemonConfig {
            workers_per_connection: 1,
            read_poll: Duration::from_millis(5),
            ..DaemonConfig::default()
        },
    )
    .expect("spawn");
    let client = WireClient::connect_tcp(daemon.local_addr().unwrap()).expect("connect");
    let session = client.create_session(admin).unwrap();
    assert!(client.drop_session(session).unwrap());
    daemon.shutdown();
}
