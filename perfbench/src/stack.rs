//! The serving stack under test, assembled the way `adminref serve`
//! assembles it: a durable store, the default `MonitorConfig`, group
//! commit with the 50 µs write gather, the default `DaemonConfig`, and
//! (`serve --replicate` / `serve --follow`) a replication primary with
//! an in-memory replica bootstrapped over the socket. Plus the raw
//! frame connection the load threads speak.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adminref_core::admission::ConstraintSet;
use adminref_core::policy::Policy;
use adminref_core::transition::AuthMode;
use adminref_core::universe::Universe;
use adminref_monitor::{MonitorConfig, ReferenceMonitor};
use adminref_service::wire::{self, Frame, FrameKind};
use adminref_service::{
    Daemon, DaemonConfig, FollowTarget, MonitorService, PolicyService, ReplicatedService, Request,
    Response, ServiceError, WireListener,
};
use adminref_store::PolicyStore;

/// The write-gather window `adminref serve` configures.
pub const WRITE_GATHER: Duration = Duration::from_micros(50);

/// Creates a durable store at `dir`, declaring `constraints` first
/// (what `adminref constraint add` does before serving).
pub fn create_store(
    dir: &Path,
    universe: &Universe,
    policy: &Policy,
    constraints: Option<&ConstraintSet>,
) -> Result<PolicyStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = PolicyStore::create(dir, universe.clone(), policy.clone(), AuthMode::Explicit)
        .map_err(|e| format!("creating store in {}: {e}", dir.display()))?;
    if let Some(c) = constraints {
        store
            .set_constraints(c.clone())
            .map_err(|e| format!("declaring constraints: {e}"))?;
    }
    Ok(store)
}

/// The embedded library deployment: a `MonitorService` over a durable
/// store, in process.
pub fn embedded_service(store: PolicyStore) -> MonitorService {
    MonitorService::new(ReferenceMonitor::with_store_recovered(
        store,
        None,
        MonitorConfig::default(),
    ))
    .with_write_gather(WRITE_GATHER)
}

pub struct Node {
    pub monitor: Arc<ReferenceMonitor>,
    pub service: Arc<ReplicatedService>,
    pub daemon: Daemon,
    pub addr: SocketAddr,
}

/// A replication primary over a durable store, plus one replica
/// following it over loopback TCP.
pub struct Deployment {
    pub dir: PathBuf,
    pub primary: Node,
    pub replica: Node,
}

impl Deployment {
    pub fn start(dir: &Path, store: PolicyStore) -> Result<Deployment, String> {
        let universe = store.universe().clone();
        let monitor = Arc::new(ReferenceMonitor::with_store_recovered(
            store,
            None,
            MonitorConfig::default(),
        ));
        let service = Arc::new(
            ReplicatedService::primary(Arc::clone(&monitor)).with_write_gather(WRITE_GATHER),
        );
        let hub = Arc::clone(service.hub());
        let listener = WireListener::tcp("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
        let daemon = Daemon::spawn_replicated(
            Arc::clone(&service) as Arc<dyn PolicyService>,
            universe,
            listener,
            DaemonConfig::default(),
            Some(Arc::clone(&hub)),
        )
        .map_err(|e| format!("starting primary daemon: {e}"))?;
        let addr = daemon.local_addr().ok_or("primary has no tcp address")?;
        let primary = Node {
            monitor,
            service,
            daemon,
            addr,
        };

        let target = FollowTarget::Tcp(addr.to_string());
        let (universe, policy, constraints, epoch, term) =
            adminref_service::replication::fetch_bootstrap(&target, Duration::from_secs(30))
                .map_err(|e| format!("replica bootstrap: {e}"))?;
        let monitor = Arc::new(ReferenceMonitor::new(
            universe.clone(),
            policy.clone(),
            MonitorConfig::default(),
        ));
        monitor
            .install_replica_state(universe.clone(), policy, epoch, constraints)
            .map_err(|e| format!("installing replica state: {e}"))?;
        let service = Arc::new(ReplicatedService::replica(
            Arc::clone(&monitor),
            target,
            Duration::from_millis(500),
            Some(term),
        ));
        let listener = WireListener::tcp("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
        let daemon = Daemon::spawn_replicated(
            Arc::clone(&service) as Arc<dyn PolicyService>,
            universe,
            listener,
            DaemonConfig::default(),
            Some(Arc::clone(service.hub())),
        )
        .map_err(|e| format!("starting replica daemon: {e}"))?;
        let addr = daemon.local_addr().ok_or("replica has no tcp address")?;
        let replica = Node {
            monitor,
            service,
            daemon,
            addr,
        };
        // Set-up ends once the replica's stream is live on the primary.
        let deadline = Instant::now() + Duration::from_secs(30);
        while hub.subscriber_count() == 0 {
            if Instant::now() > deadline {
                return Err("replica never subscribed".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Deployment {
            dir: dir.to_path_buf(),
            primary,
            replica,
        })
    }

    /// Shuts both daemons down and drops every handle on the primary's
    /// store, so its directory can be reopened.
    pub fn shutdown(self) -> PathBuf {
        let Deployment {
            dir,
            primary,
            replica,
        } = self;
        replica.daemon.shutdown();
        drop(replica.service);
        drop(replica.monitor);
        primary.daemon.shutdown();
        drop(primary.service);
        drop(primary.monitor);
        dir
    }
}

/// Reopens a store directory the way a restart would and returns the
/// recovered policy's checksum.
pub fn reopen_checksum(dir: &Path) -> Result<u64, String> {
    let (store, report) = PolicyStore::open(dir, AuthMode::Explicit)
        .map_err(|e| format!("reopening {}: {e}", dir.display()))?;
    if report.divergent > 0 {
        return Err(format!("{} divergent entries on reopen", report.divergent));
    }
    Ok(adminref_core::checksum::policy_checksum(store.policy()))
}

/// One client connection speaking the public frame codec directly, so
/// a single thread can keep a window of requests in flight.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    timeout: Option<Duration>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, read_half),
            writer: BufWriter::with_capacity(64 * 1024, stream),
            next_id: 1,
            timeout: None,
        })
    }

    /// Queues one request frame (sent on the next flush).
    pub fn send(&mut self, id: u64, request: &Request) -> io::Result<()> {
        self.send_encoded(id, &wire::encode_request(request))
    }

    /// Queues one request frame whose payload `encode_request` already
    /// produced.
    pub fn send_encoded(&mut self, id: u64, payload: &[u8]) -> io::Result<()> {
        wire::write_frame(&mut self.writer, FrameKind::Request, id, payload)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads the next reply frame.
    pub fn recv(&mut self) -> io::Result<Frame> {
        self.recv_within(None)?
            .ok_or_else(|| io::Error::other("no reply"))
    }

    /// Reads the next reply frame, or `None` if nothing arrives within
    /// `timeout` (when given).
    pub fn recv_within(&mut self, timeout: Option<Duration>) -> io::Result<Option<Frame>> {
        if timeout != self.timeout {
            self.reader.get_ref().set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        match wire::read_frame(&mut self.reader) {
            Ok(Some(frame)) => Ok(Some(frame)),
            Ok(None) => Err(io::Error::other("server closed the connection")),
            Err(wire::FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Whether a reply is already buffered (no syscall needed).
    pub fn buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }

    /// One request, one reply, nothing else in flight.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        let io = |e: io::Error| ServiceError::Transport {
            message: e.to_string(),
        };
        self.send(id, request).map_err(io)?;
        self.flush().map_err(io)?;
        let frame = self.recv().map_err(io)?;
        if frame.request_id != id {
            return Err(ServiceError::Transport {
                message: format!("reply id {} for request {id}", frame.request_id),
            });
        }
        decode_reply(&frame)
    }

    /// Sends `requests` pipelined in windows of 256 and returns the
    /// replies in request order.
    pub fn call_all(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, ServiceError>>, String> {
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(256) {
            let base = self.next_id;
            self.next_id += chunk.len() as u64;
            for (i, r) in chunk.iter().enumerate() {
                self.send(base + i as u64, r).map_err(|e| e.to_string())?;
            }
            self.flush().map_err(|e| e.to_string())?;
            let mut replies: Vec<Option<Result<Response, ServiceError>>> =
                (0..chunk.len()).map(|_| None).collect();
            for _ in 0..chunk.len() {
                let frame = self.recv().map_err(|e| e.to_string())?;
                let slot = frame
                    .request_id
                    .checked_sub(base)
                    .filter(|&s| (s as usize) < chunk.len())
                    .ok_or("reply for an unknown request id")?;
                replies[slot as usize] = Some(decode_reply(&frame));
            }
            out.extend(replies.into_iter().map(|r| r.expect("every slot answered")));
        }
        Ok(out)
    }
}

pub fn decode_reply(frame: &Frame) -> Result<Response, ServiceError> {
    match frame.kind {
        FrameKind::Response => wire::decode_response(&frame.payload).map_err(ServiceError::from),
        FrameKind::Error => {
            Err(
                wire::decode_error(&frame.payload).unwrap_or_else(|e| ServiceError::Transport {
                    message: e.to_string(),
                }),
            )
        }
        other => Err(ServiceError::Transport {
            message: format!("unexpected {other:?} frame"),
        }),
    }
}

/// Creates one session per `(user, role)` over `conn` and activates
/// the role; returns the session ids in order.
pub fn open_sessions(
    conn: &mut Conn,
    seats: &[(adminref_core::ids::UserId, adminref_core::ids::RoleId)],
) -> Result<Vec<adminref_monitor::SessionId>, String> {
    let creates: Vec<Request> = seats
        .iter()
        .map(|&(user, _)| Request::CreateSession { user })
        .collect();
    let ids = conn
        .call_all(&creates)?
        .into_iter()
        .map(|r| match r {
            Ok(Response::SessionCreated(id)) => Ok(id),
            other => Err(format!("create session: {other:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let activations: Vec<Request> = ids
        .iter()
        .zip(seats)
        .map(|(&session, &(_, role))| Request::ActivateRole { session, role })
        .collect();
    for r in conn.call_all(&activations)? {
        if !matches!(r, Ok(Response::RoleActivated)) {
            return Err(format!("activate role: {r:?}"));
        }
    }
    Ok(ids)
}
