//! Group commit: concurrent submitters coalesce into one monitor batch.
//!
//! The monitor's write path is serial by design (Definition 5 is a
//! serial semantics), so under concurrent writers the interesting
//! question is *how much work each pass over the writer lock retires*.
//! Per-call locking retires one request per acquisition — one WAL sync,
//! one `ReachIndex` rebuild, one published epoch *per request*. The
//! combiner here retires the whole in-flight queue per acquisition:
//!
//! 1. a submitter appends its request (commands + a completion slot) to
//!    the shared in-flight batch;
//! 2. if no leader is running, it elects itself leader; otherwise it
//!    just waits on its slot;
//! 3. the leader repeatedly drains *everything* queued, executes the
//!    drained group as **one** `submit_batch_outcomes` call — one
//!    Definition-5 serial execution, one WAL sync, one index rebuild,
//!    one published epoch — then fills each request's slot with its own
//!    slice of the outcomes, and exits when the queue is empty.
//!
//! Requests stay atomic and contiguous: a request's commands are never
//! interleaved with another's, so the outcome sequence equals *some*
//! serial interleaving of the submitters (the drain order), which the
//! `service_protocol` suite verifies against the single-lock
//! [`LockedMonitor`](adminref_monitor::LockedMonitor) by replaying the
//! audit order.
//!
//! On a mid-group backend failure the store installs exactly the
//! records it logged, leaving an applied prefix: requests fully inside
//! it succeed, the request straddling the failure gets
//! [`ServiceError::Backend`] carrying its own applied outcomes, and
//! requests after it get [`ServiceError::Aborted`] (not attempted, safe
//! to retry).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use adminref_core::command::Command;
use adminref_core::transition::StepOutcome;
use adminref_monitor::{MonitorError, ReferenceMonitor};

use crate::protocol::ServiceError;

/// The result a submitter receives for its own request.
pub type SubmitResult = Result<Vec<StepOutcome>, ServiceError>;

/// What a parked submitter finds in its completion slot.
#[derive(Default)]
enum SlotState {
    /// Not served yet; keep waiting.
    #[default]
    Empty,
    /// The request's own result; take it and return.
    Ready(SubmitResult),
    /// Leadership handoff: the retiring leader hit its tenure cap with
    /// this request still queued — run the leader loop, then wait for
    /// the result (the first drain of the new tenure serves it).
    Lead,
}

/// One request's completion slot, filled exactly once by a leader.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

/// Locks a slot/queue mutex, surviving poison: these mutexes protect
/// plain data whose invariants hold between criticals, and the abort
/// guard must be able to unwedge waiters *during* a panic unwind.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Slot {
    fn fill(&self, result: SubmitResult) {
        *lock_unpoisoned(&self.state) = SlotState::Ready(result);
        self.ready.notify_one();
    }

    /// Abort-guard path: deliver an error only if no real result made
    /// it in before the panic.
    fn abort_if_empty(&self) {
        let mut state = lock_unpoisoned(&self.state);
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Ready(Err(ServiceError::Aborted));
            self.ready.notify_one();
        }
    }

    /// Tenure handoff: wake the parked submitter as the next leader.
    /// Only the current leader calls this, and only for an undrained
    /// request, so the slot is necessarily `Empty`.
    fn promote(&self) {
        *lock_unpoisoned(&self.state) = SlotState::Lead;
        self.ready.notify_one();
    }

    /// Test-only: takes a result that must already be present (the
    /// tests drive `execute_group` directly, so slots are pre-filled).
    #[cfg(test)]
    fn take(&self) -> SubmitResult {
        match std::mem::take(&mut *lock_unpoisoned(&self.state)) {
            SlotState::Ready(result) => result,
            other => panic!("slot not served: {:?}", std::mem::discriminant(&other)),
        }
    }

    /// Parks until the request is served, taking over leadership if
    /// the retiring leader hands it to us.
    fn wait_serving(&self, commit: &GroupCommit, monitor: &ReferenceMonitor) -> SubmitResult {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            match std::mem::take(&mut *state) {
                SlotState::Ready(result) => return result,
                SlotState::Lead => {
                    drop(state);
                    commit.lead(monitor);
                    state = lock_unpoisoned(&self.state);
                }
                SlotState::Empty => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }
}

/// One enqueued request.
struct PendingWrite {
    commands: Vec<Command>,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct Queue {
    pending: Vec<PendingWrite>,
    leader_running: bool,
}

/// The write combiner; see the module docs.
///
/// One `GroupCommit` serializes the write path of one monitor (the
/// service owns both and always passes the same monitor in).
#[derive(Default)]
pub struct GroupCommit {
    queue: Mutex<Queue>,
    /// Leader gather window; zero (the default) drains immediately.
    gather: Duration,
    /// Size of the most recent executed group — the concurrency the
    /// last drain proved. The gather window only engages when this is
    /// at least 2, so a lone submitter never pays it.
    gather_hint: AtomicUsize,
}

impl GroupCommit {
    /// A combiner with an empty in-flight batch.
    pub fn new() -> Self {
        GroupCommit::default()
    }

    /// A combiner whose leader, after draining, keeps folding in
    /// late-arriving requests for up to `gather` before executing — but
    /// only when the previous drain saw at least two requests, so a
    /// lone submitter never pays the window.
    ///
    /// Local submitters re-enqueue fast enough that the immediate drain
    /// already forms good groups, so the default stays zero: a gather
    /// window would only add write latency. Over a **round-trip
    /// transport** the picture inverts — a completed batch's replies
    /// must cross the socket and wake the callers before their next
    /// requests appear, so an eager leader drains groups of one or two.
    /// A gather of a few tens of microseconds (well under one WAL sync)
    /// collects that straggler train and restores batch sizes, which is
    /// why the network daemon's serving path opts in (see
    /// [`MonitorService::with_write_gather`](crate::MonitorService::with_write_gather)).
    pub fn with_gather(gather: Duration) -> Self {
        GroupCommit {
            queue: Mutex::new(Queue::default()),
            gather,
            gather_hint: AtomicUsize::new(0),
        }
    }

    /// Submits `commands` as one atomic request, coalescing with every
    /// other request in flight. Blocks until a leader (possibly this
    /// thread) has executed the request, and returns the outcomes of
    /// exactly these `commands`.
    pub fn submit(&self, monitor: &ReferenceMonitor, commands: Vec<Command>) -> SubmitResult {
        let slot = Arc::new(Slot::default());
        let elected = {
            let mut queue = lock_unpoisoned(&self.queue);
            queue.pending.push(PendingWrite {
                commands,
                slot: Arc::clone(&slot),
            });
            if queue.leader_running {
                false
            } else {
                queue.leader_running = true;
                true
            }
        };
        if elected {
            self.lead(monitor);
        }
        slot.wait_serving(self, monitor)
    }

    /// Submits several independent requests at once: all of them join
    /// the in-flight batch under **one** queue acquisition, so they are
    /// guaranteed to land in the same drain (together with whatever
    /// else is in flight). Semantically identical to `requests.len()`
    /// threads each calling [`submit`](GroupCommit::submit)
    /// concurrently — every request stays atomic and contiguous with
    /// its own per-request result — but callable from one thread.
    ///
    /// This is the entry point for pipelined transports: a burst of
    /// `Submit` frames that arrived on a connection together would
    /// otherwise trickle into the combiner one worker wake-up at a
    /// time, and the leader (which drains immediately) would retire
    /// them in needlessly small groups.
    pub fn submit_many(
        &self,
        monitor: &ReferenceMonitor,
        requests: Vec<Vec<Command>>,
    ) -> Vec<SubmitResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        let slots: Vec<Arc<Slot>> = (0..requests.len())
            .map(|_| Arc::new(Slot::default()))
            .collect();
        let elected = {
            let mut queue = lock_unpoisoned(&self.queue);
            for (commands, slot) in requests.into_iter().zip(&slots) {
                queue.pending.push(PendingWrite {
                    commands,
                    slot: Arc::clone(slot),
                });
            }
            if queue.leader_running {
                false
            } else {
                queue.leader_running = true;
                true
            }
        };
        if elected {
            self.lead(monitor);
        }
        slots
            .into_iter()
            .map(|slot| slot.wait_serving(self, monitor))
            .collect()
    }

    /// Leader loop: drain, execute, distribute. Exactly one thread
    /// runs this at a time. A tenure serves at most
    /// [`MAX_DRAINS_PER_TENURE`] drains; if work is still queued after
    /// that, leadership is handed to the oldest parked submitter, so a
    /// single unlucky thread is not starved serving everyone else's
    /// writes under sustained load. A panic escaping a drain (a bug in
    /// monitor/store code) trips the abort guard, which fails the
    /// drained and queued requests and clears the leader flag instead
    /// of wedging every future submit.
    fn lead(&self, monitor: &ReferenceMonitor) {
        for _ in 0..MAX_DRAINS_PER_TENURE {
            let mut group = {
                let mut queue = lock_unpoisoned(&self.queue);
                if queue.pending.is_empty() {
                    queue.leader_running = false;
                    return;
                }
                std::mem::take(&mut queue.pending)
            };
            let target = self.gather_hint.load(Ordering::Relaxed);
            if !self.gather.is_zero() && target >= 2 && group.len() < target {
                // The previous drain proved `target` concurrent
                // submitters, so the missing ones are mid-round-trip:
                // poll-fold the queue until they arrive, the window
                // closes, or the pipeline drains dry. Waiting here
                // cannot deadlock: leadership is already claimed, so
                // stragglers enqueue and park. A group already at
                // `target` skips the window outright — everyone is
                // aboard, and waiting would only stall the sync.
                let deadline = Instant::now() + self.gather;
                let mut idle_folds = 0;
                while group.len() < target && idle_folds < 8 && Instant::now() < deadline {
                    // Yield, not spin or sleep: on a loaded (or single)
                    // core the stragglers are runnable threads that need
                    // this core to finish their round trip, and a
                    // microsecond sleep overshoots severalfold from
                    // timer slack. Two consecutive empty folds mean
                    // every peer is parked waiting on this very drain,
                    // so waiting longer cannot grow the group.
                    std::thread::yield_now();
                    let mut queue = lock_unpoisoned(&self.queue);
                    if queue.pending.is_empty() {
                        idle_folds += 1;
                    } else {
                        idle_folds = 0;
                        group.append(&mut queue.pending);
                    }
                }
            }
            self.gather_hint.store(group.len(), Ordering::Relaxed);
            let guard = AbortGuard {
                commit: self,
                slots: group.iter().map(|r| Arc::clone(&r.slot)).collect(),
                armed: true,
            };
            execute_group(monitor, group);
            drop({
                let mut guard = guard;
                guard.armed = false;
                guard
            });
            // Round-trip transports need single-drain tenures: the
            // leader is a transport worker whose own callers' replies
            // are written only after this call returns, so leading a
            // second drain would hold those replies hostage for a whole
            // WAL sync — the released clients cannot re-submit, and
            // batches collapse to half the true concurrency. Handing
            // leadership to a parked submitter (below) lets the replies
            // flow while the next drain executes.
            if !self.gather.is_zero() {
                break;
            }
            // Batch-formation window: the submitters just released are
            // likely to have a next request; one yield lets them enqueue
            // before the next drain, growing it (costs ~µs against a
            // drain's index rebuild, and is a no-op with no runnable
            // peers).
            std::thread::yield_now();
        }
        // Tenure cap reached: retire, handing leadership to the oldest
        // queued request (the leader flag stays set across the handoff,
        // so no second leader can self-elect in the gap).
        let queue = lock_unpoisoned(&self.queue);
        match queue.pending.first() {
            Some(next) => next.slot.promote(),
            None => {
                let mut queue = queue;
                queue.leader_running = false;
            }
        }
    }
}

/// Upper bound on drains per leader tenure; bounds the elected
/// submitter's own latency to ~cap × drain time under sustained load.
const MAX_DRAINS_PER_TENURE: usize = 8;

/// Unwinds a panicking drain into failed requests instead of a wedged
/// combiner: every slot of the drained group that did not receive a
/// real result, and every request still queued, is aborted, and the
/// leader flag is cleared so the next submit can self-elect.
struct AbortGuard<'a> {
    commit: &'a GroupCommit,
    slots: Vec<Arc<Slot>>,
    armed: bool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for slot in &self.slots {
            slot.abort_if_empty();
        }
        let pending = {
            let mut queue = lock_unpoisoned(&self.commit.queue);
            queue.leader_running = false;
            std::mem::take(&mut queue.pending)
        };
        for request in pending {
            request.slot.abort_if_empty();
        }
    }
}

/// Executes one drained group as a single monitor batch and fills every
/// slot with its request's own result.
///
/// An admission refusal of the *combined* batch must not poison the
/// whole group: the gate judged a candidate state no single request
/// asked for, and the refusal left the monitor untouched. With more
/// than one request aboard, the group is split and each request
/// re-executes as its own batch — clean requests apply (their own
/// epochs), violating ones get the typed [`ServiceError::Admission`].
fn execute_group(monitor: &ReferenceMonitor, group: Vec<PendingWrite>) {
    let combined: Vec<Command> = group
        .iter()
        .flat_map(|request| request.commands.iter().copied())
        .collect();
    let (outcomes, error) = monitor.submit_batch_outcomes(&combined);
    if group.len() > 1 && matches!(error, Some(MonitorError::Admission(_))) {
        for request in group {
            let (own, own_error) = monitor.submit_batch_outcomes(&request.commands);
            request.slot.fill(match own_error {
                None => Ok(own),
                Some(MonitorError::Store(store_error)) => Err(ServiceError::Backend {
                    applied: own,
                    error: store_error,
                }),
                Some(other) => Err(other.into()),
            });
        }
        return;
    }
    distribute(group, outcomes, error);
}

/// Splits the group batch's applied-prefix outcomes back into
/// per-request results.
///
/// With no error, `outcomes` covers every request. A *mid-batch* error
/// leaves a shorter prefix: the first request whose commands are not
/// fully inside it carries the error (with its own partial outcomes)
/// and every later request is aborted untouched. A *batch-final sync*
/// error leaves a full-length prefix — every command executed, was
/// audited, and published, but durability is in doubt — and every
/// submitter must hear that, so each request gets
/// [`ServiceError::Backend`] carrying its own outcomes.
fn distribute(group: Vec<PendingWrite>, outcomes: Vec<StepOutcome>, error: Option<MonitorError>) {
    let applied = outcomes.len();
    let total: usize = group.iter().map(|r| r.commands.len()).sum();
    if applied == total {
        match error {
            // Admission refuses before anything executes, so a refusal
            // with a full-length prefix means an all-empty group: every
            // request hears the typed refusal, not a backend failure.
            Some(MonitorError::Admission(report)) => {
                for request in group {
                    request
                        .slot
                        .fill(Err(ServiceError::Admission(report.clone())));
                }
                return;
            }
            Some(e) => {
                // The store's error type is not Clone (it wraps
                // io::Error), so each submitter gets a synthesized copy
                // of the message.
                let message = e.to_string();
                let mut cursor = 0usize;
                for request in group {
                    let end = cursor + request.commands.len();
                    request.slot.fill(Err(ServiceError::Backend {
                        applied: outcomes[cursor..end].to_vec(),
                        error: adminref_store::StoreError::Io(std::io::Error::other(
                            message.clone(),
                        )),
                    }));
                    cursor = end;
                }
                return;
            }
            None => {}
        }
    }
    let mut error = error;
    let mut cursor = 0usize;
    for request in group {
        let end = cursor + request.commands.len();
        if end <= applied {
            request.slot.fill(Ok(outcomes[cursor..end].to_vec()));
        } else if let Some(e) = error.take() {
            let partial = outcomes[cursor.min(applied)..applied].to_vec();
            request.slot.fill(Err(match e {
                MonitorError::Store(store_error) => ServiceError::Backend {
                    applied: partial,
                    error: store_error,
                },
                other => other.into(),
            }));
        } else {
            request.slot.fill(Err(ServiceError::Aborted));
        }
        cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::transition::AuthMode;
    use adminref_core::universe::{Edge, Universe};
    use adminref_monitor::MonitorConfig;
    use adminref_store::{PolicyStore, TempDir};

    fn fixture() -> (Universe, adminref_core::policy::Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .declare_user("joe")
            .declare_role("staff")
            .declare_role("nurse");
        let (bob, joe, staff, nurse) = {
            let u = b.universe_mut();
            (
                u.find_user("bob").unwrap(),
                u.find_user("joe").unwrap(),
                u.find_role("staff").unwrap(),
                u.find_role("nurse").unwrap(),
            )
        };
        for priv_id in [
            b.universe_mut().grant_user_role(bob, staff),
            b.universe_mut().revoke_user_role(bob, staff),
            b.universe_mut().grant_user_role(joe, nurse),
            b.universe_mut().revoke_user_role(joe, nurse),
        ] {
            b = b.assign_priv("hr", priv_id);
        }
        b.finish()
    }

    /// Enqueue three requests by hand and run one leader drain: the
    /// distribution must slice the combined outcomes back per request.
    #[test]
    fn distribution_slices_outcomes_per_request() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let requests = [
            vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            vec![
                Command::grant(jane, Edge::UserRole(joe, nurse)),
                Command::grant(bob, Edge::UserRole(jane, staff)), // refused
            ],
            vec![Command::revoke(jane, Edge::UserRole(bob, staff))],
        ];
        let slots: Vec<Arc<Slot>> = requests.iter().map(|_| Arc::new(Slot::default())).collect();
        let group = requests
            .iter()
            .zip(&slots)
            .map(|(commands, slot)| PendingWrite {
                commands: commands.clone(),
                slot: Arc::clone(slot),
            })
            .collect();
        execute_group(&monitor, group);
        let results: Vec<Vec<StepOutcome>> =
            slots.iter().map(|s| s.take().expect("applied")).collect();
        assert_eq!(results[0].len(), 1);
        assert!(results[0][0].executed());
        assert_eq!(results[1].len(), 2);
        assert!(results[1][0].executed());
        assert!(!results[1][1].executed(), "forged grant is refused");
        assert_eq!(results[2].len(), 1);
        assert!(results[2][0].executed());
        // One group, one epoch.
        assert_eq!(monitor.version(), 1);
        assert_eq!(monitor.audit_len(), 4);
    }

    /// A mid-group store failure: the request straddling the failure
    /// gets `Backend` with its own applied prefix, the one after gets
    /// `Aborted`, and the one fully inside the prefix succeeds.
    #[test]
    fn mid_group_failure_splits_prefix_error_abort() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dir = TempDir::new("group-commit-fail").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        // Appends 0 and 1 succeed; append 2 (request B's second command)
        // fails once.
        store.inject_append_failure_after(2);
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        let requests = [
            vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            vec![
                Command::grant(jane, Edge::UserRole(joe, nurse)),
                Command::revoke(jane, Edge::UserRole(joe, nurse)),
            ],
            vec![Command::revoke(jane, Edge::UserRole(bob, staff))],
        ];
        let slots: Vec<Arc<Slot>> = requests.iter().map(|_| Arc::new(Slot::default())).collect();
        let group = requests
            .iter()
            .zip(&slots)
            .map(|(commands, slot)| PendingWrite {
                commands: commands.clone(),
                slot: Arc::clone(slot),
            })
            .collect();
        execute_group(&monitor, group);
        // Request A: fully inside the applied prefix.
        let a = slots[0].take().expect("request A applied");
        assert!(a[0].executed());
        // Request B: first command applied, second hit the failure.
        match slots[1].take() {
            Err(ServiceError::Backend { applied, .. }) => {
                assert_eq!(applied.len(), 1);
                assert!(applied[0].executed());
            }
            other => panic!("expected Backend error, got {other:?}"),
        }
        // Request C: never attempted.
        assert!(matches!(slots[2].take(), Err(ServiceError::Aborted)));
        // The published snapshot shows exactly the applied prefix: bob
        // granted, joe granted (B's first command), bob not yet revoked.
        let (_, live) = monitor.snapshot();
        assert!(live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(live.contains_edge(Edge::UserRole(joe, nurse)));
        // And exactly the applied prefix (A's grant + B's first
        // command) was audited.
        assert_eq!(monitor.audit_len(), 2);
    }

    /// A batch-final sync failure (every command applied, the WAL sync
    /// that would make the batch durable failed): every submitter must
    /// hear it, each with its own applied outcomes — silently returning
    /// `Ok` would acknowledge writes that may not survive a crash.
    #[test]
    fn batch_final_sync_failure_reaches_every_submitter() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let dir = TempDir::new("group-commit-sync-fail").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        store.inject_sync_failure();
        let monitor = ReferenceMonitor::with_store(store, MonitorConfig::default());
        let requests = [
            vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            vec![
                Command::grant(jane, Edge::UserRole(joe, nurse)),
                Command::revoke(jane, Edge::UserRole(joe, nurse)),
            ],
        ];
        let slots: Vec<Arc<Slot>> = requests.iter().map(|_| Arc::new(Slot::default())).collect();
        let group = requests
            .iter()
            .zip(&slots)
            .map(|(commands, slot)| PendingWrite {
                commands: commands.clone(),
                slot: Arc::clone(slot),
            })
            .collect();
        execute_group(&monitor, group);
        for (slot, request) in slots.iter().zip(&requests) {
            match slot.take() {
                Err(ServiceError::Backend { applied, error }) => {
                    assert_eq!(applied.len(), request.len(), "own outcomes travel with it");
                    assert!(applied.iter().all(|o| o.executed()));
                    assert!(
                        error.to_string().contains("injected sync failure"),
                        "{error}"
                    );
                }
                other => panic!("expected Backend error, got {other:?}"),
            }
        }
        // The batch itself executed, was audited, and was published.
        assert_eq!(monitor.audit_len(), 3);
        assert_eq!(monitor.version(), 1);
        let (_, live) = monitor.snapshot();
        assert!(live.contains_edge(Edge::UserRole(bob, staff)));
    }

    /// The abort guard (armed during every drain) must convert a panic
    /// escaping monitor/store code into failed requests — drained and
    /// still-queued alike — and release leadership, so the combiner
    /// keeps serving instead of wedging every future submit.
    #[test]
    fn abort_guard_unwedges_slots_and_leadership() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let monitor = ReferenceMonitor::new(uni, policy, MonitorConfig::default());
        let commit = GroupCommit::new();
        let drained = Arc::new(Slot::default());
        let queued = Arc::new(Slot::default());
        {
            let mut queue = lock_unpoisoned(&commit.queue);
            queue.leader_running = true;
            queue.pending.push(PendingWrite {
                commands: vec![Command::grant(jane, Edge::UserRole(bob, staff))],
                slot: Arc::clone(&queued),
            });
        }
        // Simulate a drain that died mid-flight: the guard drops armed.
        drop(AbortGuard {
            commit: &commit,
            slots: vec![Arc::clone(&drained)],
            armed: true,
        });
        assert!(matches!(drained.take(), Err(ServiceError::Aborted)));
        assert!(matches!(queued.take(), Err(ServiceError::Aborted)));
        {
            let queue = lock_unpoisoned(&commit.queue);
            assert!(!queue.leader_running, "leadership released");
            assert!(queue.pending.is_empty(), "queue drained");
        }
        // The combiner stays serviceable: the next submit self-elects
        // and completes normally.
        let out = commit
            .submit(
                &monitor,
                vec![Command::grant(jane, Edge::UserRole(bob, staff))],
            )
            .expect("combiner still serves after an aborted drain");
        assert!(out[0].executed());
    }

    /// Concurrent submitters: every request is answered, every command
    /// audited exactly once, and epochs count the drained groups (at
    /// most one per request, typically far fewer).
    #[test]
    fn concurrent_submitters_all_complete() {
        let (uni, policy) = fixture();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let joe = uni.find_user("joe").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let nurse = uni.find_role("nurse").unwrap();
        let monitor = ReferenceMonitor::new(
            uni,
            policy,
            MonitorConfig {
                audit_capacity: 4096,
                ..MonitorConfig::default()
            },
        );
        let commit = GroupCommit::new();
        let rounds = 50usize;
        crossbeam::scope(|scope| {
            for (user, role) in [(bob, staff), (joe, nurse)] {
                let (commit, monitor) = (&commit, &monitor);
                scope.spawn(move |_| {
                    for _ in 0..rounds {
                        let outcomes = commit
                            .submit(
                                monitor,
                                vec![
                                    Command::grant(jane, Edge::UserRole(user, role)),
                                    Command::revoke(jane, Edge::UserRole(user, role)),
                                ],
                            )
                            .expect("in-memory submit");
                        assert_eq!(outcomes.len(), 2);
                        assert!(outcomes.iter().all(|o| o.executed()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(monitor.audit_len(), 2 * 2 * rounds);
        assert!(monitor.version() <= 2 * rounds as u64);
        let (_, live) = monitor.snapshot();
        assert!(!live.contains_edge(Edge::UserRole(bob, staff)));
        assert!(!live.contains_edge(Edge::UserRole(joe, nurse)));
    }
}
