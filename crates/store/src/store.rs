//! The durable policy store: snapshot + command log + live state.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/policy.snap    snapshot: universe + policy + base sequence
//! <dir>/commands.log   CRC-framed commands appended since the snapshot
//! ```
//!
//! Opening a store loads the snapshot and replays the log through the
//! Definition-5 transition function, which is deterministic, so the
//! recovered state is exactly the pre-crash state up to the last fully
//! written record. `compact` folds the log into a fresh snapshot.
//!
//! Writes follow stage → log → install: a batch is staged once against
//! the live state ([`simulate_batch`]), and [`PolicyStore::commit`]
//! appends each already-decided record, syncs the log once, and then
//! installs the staged post-batch state. The live state therefore never
//! runs ahead of the log: if an append fails at command `k`, the store
//! installs the state the `k` logged records replay to.

use std::path::{Path, PathBuf};

use adminref_core::admission::{simulate_batch, ConstraintSet};
use adminref_core::command::Command;
use adminref_core::policy::Policy;
use adminref_core::transition::{step, AuthMode, StepOutcome};
use adminref_core::universe::Universe;

use crate::log::{CommandLog, LogEntry, StoreError};
use crate::snapshot::{load_snapshot, write_snapshot};

const SNAPSHOT_FILE: &str = "policy.snap";
const LOG_FILE: &str = "commands.log";

/// What recovery found when opening a store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Entries replayed from the log.
    pub replayed: usize,
    /// Whether a torn tail was truncated.
    pub truncated_tail: bool,
    /// Entries whose recorded authorization outcome differed on replay
    /// (should be zero; nonzero indicates the log and snapshot are from
    /// different histories).
    pub divergent: usize,
}

/// A durable administrative policy store.
#[derive(Debug)]
pub struct PolicyStore {
    dir: PathBuf,
    universe: Universe,
    policy: Policy,
    log: CommandLog,
    auth_mode: AuthMode,
    constraints: ConstraintSet,
    /// Testing hook: when `Some(n)`, the append after `n` more
    /// successful appends fails with an injected I/O error (once).
    fail_append_after: Option<u64>,
    /// Testing hook: when `true`, the next batch-final sync fails once.
    fail_next_sync: bool,
}

impl PolicyStore {
    /// Creates a new store at `dir` with the given initial state, writing
    /// the initial snapshot.
    pub fn create(
        dir: &Path,
        universe: Universe,
        policy: Policy,
        auth_mode: AuthMode,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let constraints = ConstraintSet::default();
        write_snapshot(
            &dir.join(SNAPSHOT_FILE),
            &universe,
            &policy,
            0,
            &constraints,
        )?;
        let recovered = CommandLog::open(&dir.join(LOG_FILE))?;
        let mut log = recovered.log;
        log.reset(0)?;
        Ok(PolicyStore {
            dir: dir.to_path_buf(),
            universe,
            policy,
            log,
            auth_mode,
            constraints,
            fail_append_after: None,
            fail_next_sync: false,
        })
    }

    /// Opens an existing store, replaying the log.
    pub fn open(dir: &Path, auth_mode: AuthMode) -> Result<(Self, RecoveryReport), StoreError> {
        let snap = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let recovered = CommandLog::open(&dir.join(LOG_FILE))?;
        let mut universe = snap.universe;
        let mut policy = snap.policy;
        // The snapshot's constraint set, overridden by the latest WAL
        // declaration (last-writer-wins).
        let constraints = recovered.constraints.unwrap_or(snap.constraints);
        let mut report = RecoveryReport {
            replayed: recovered.entries.len(),
            truncated_tail: recovered.truncated_tail,
            divergent: 0,
        };
        for LogEntry {
            command, executed, ..
        } in &recovered.entries
        {
            let outcome = step(&mut universe, &mut policy, command, auth_mode);
            if outcome.executed() != *executed {
                report.divergent += 1;
            }
        }
        Ok((
            PolicyStore {
                dir: dir.to_path_buf(),
                universe,
                policy,
                log: recovered.log,
                auth_mode,
                constraints,
                fail_append_after: None,
                fail_next_sync: false,
            },
            report,
        ))
    }

    /// Logs and installs a batch staged against this store's live state:
    /// `outcomes` are the decisions [`simulate_batch`] reached for
    /// `commands`, and `(universe, policy)` the state they lead to. Each
    /// record is appended in order, the log is forced to stable storage
    /// **once**, and the staged state is installed, so the batch is
    /// durable when the call returns.
    ///
    /// Returns how many leading commands were logged and installed, plus
    /// the first error, if any: after an append failure at command `k`
    /// the live state is what the `k` logged records replay to (exactly
    /// what recovery rebuilds); after a failed final sync every command
    /// was installed, its durability in doubt.
    pub fn commit(
        &mut self,
        commands: &[Command],
        outcomes: &[StepOutcome],
        universe: &Universe,
        policy: &Policy,
    ) -> (usize, Result<(), StoreError>) {
        for (k, (command, outcome)) in commands.iter().zip(outcomes).enumerate() {
            let injected = self.fail_append_after == Some(0);
            self.fail_append_after = self.fail_append_after.and_then(|n| n.checked_sub(1));
            let appended = if injected {
                Err(StoreError::Io(std::io::Error::other(
                    "injected append failure",
                )))
            } else {
                self.log.append(command, outcome.executed()).map(drop)
            };
            if let Err(e) = appended {
                // Best-effort sync of the logged prefix; the append error wins.
                let _ = self.log.sync();
                let (universe, policy, _) =
                    simulate_batch(&self.universe, &self.policy, &commands[..k], self.auth_mode);
                self.universe = universe;
                self.policy = policy;
                return (k, Err(e));
            }
        }
        let status = if commands.is_empty() {
            Ok(())
        } else if self.fail_next_sync {
            self.fail_next_sync = false;
            Err(StoreError::Io(std::io::Error::other(
                "injected sync failure",
            )))
        } else {
            self.log.sync()
        };
        // Installed even when the sync failed: the records are in the
        // log, so a recovery that finds them replays to this state.
        self.universe = universe.clone();
        self.policy = policy.clone();
        (commands.len(), status)
    }

    /// Executes one command as a batch of one (see
    /// [`execute_batch`](Self::execute_batch)).
    pub fn execute(&mut self, command: &Command) -> Result<StepOutcome, StoreError> {
        let (outcomes, status) = self.execute_batch([command]);
        status?;
        Ok(outcomes[0])
    }

    /// Executes a batch of commands: stages it against the live state and
    /// [`commit`](Self::commit)s it, syncing the log **once**. Returns the
    /// outcomes of the applied prefix (every command, unless an append
    /// failed) plus the first error, if any.
    pub fn execute_batch<'a>(
        &mut self,
        commands: impl IntoIterator<Item = &'a Command>,
    ) -> (Vec<StepOutcome>, Result<(), StoreError>) {
        let commands: Vec<Command> = commands.into_iter().copied().collect();
        let (universe, policy, mut outcomes) =
            simulate_batch(&self.universe, &self.policy, &commands, self.auth_mode);
        let (logged, status) = self.commit(&commands, &outcomes, &universe, &policy);
        outcomes.truncate(logged);
        (outcomes, status)
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }

    /// Failure-injection hook for crash/partial-batch tests: the append
    /// after `appends` more successful appends fails once with a
    /// synthetic I/O error, exercising the applied-prefix semantics of
    /// [`commit`](Self::commit) without real disk faults.
    /// Not intended for production use.
    pub fn inject_append_failure_after(&mut self, appends: u64) {
        self.fail_append_after = Some(appends);
    }

    /// Failure-injection hook for durability tests: the next
    /// *batch-final* sync in [`commit`](Self::commit) fails once with a synthetic I/O error after every command
    /// applied — the "executed but durability in doubt" case. Not
    /// intended for production use.
    pub fn inject_sync_failure(&mut self) {
        self.fail_next_sync = true;
    }

    /// Folds the log into a fresh snapshot (including the live
    /// constraint set) and truncates it.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let base = self.log.next_seq();
        write_snapshot(
            &self.dir.join(SNAPSHOT_FILE),
            &self.universe,
            &self.policy,
            base,
            &self.constraints,
        )?;
        self.log.reset(base)?;
        Ok(())
    }

    /// Durably replaces the admission constraint set: appends a WAL
    /// record and fsyncs before the live set changes, so a crash can
    /// never lose an acknowledged declaration.
    pub fn set_constraints(&mut self, constraints: ConstraintSet) -> Result<(), StoreError> {
        self.log.append_constraints(&constraints)?;
        self.log.sync()?;
        self.constraints = constraints;
        Ok(())
    }

    /// The live admission constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The live universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The live policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The authorization mode commands are executed under.
    pub fn auth_mode(&self) -> AuthMode {
        self.auth_mode
    }

    /// Entries in the log since the last snapshot.
    pub fn log_len(&self) -> u64 {
        self.log.len()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::universe::Edge;

    fn sample() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "dbusr2")
            .permit("dbusr2", "write", "t3");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        b = b.assign_priv("hr", g);
        b.finish()
    }

    #[test]
    fn create_execute_reopen() {
        let dir = TempDir::new("store").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        {
            let mut store =
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
            let out = store
                .execute(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            assert!(out.executed());
            store.sync().unwrap();
        }
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.divergent, 0);
        assert!(!report.truncated_tail);
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn execute_batch_matches_serial_execution_and_is_durable() {
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let batch = [
            Command::grant(jane, Edge::UserRole(bob, staff)),
            Command::grant(bob, Edge::UserRole(jane, staff)), // refused
            Command::revoke(jane, Edge::UserRole(bob, staff)), // refused: jane holds no ♦
        ];

        let dir_batch = TempDir::new("batch").unwrap();
        let dir_serial = TempDir::new("serial").unwrap();
        let mut batched = PolicyStore::create(
            dir_batch.path(),
            uni.clone(),
            policy.clone(),
            AuthMode::Explicit,
        )
        .unwrap();
        let mut serial =
            PolicyStore::create(dir_serial.path(), uni, policy, AuthMode::Explicit).unwrap();

        let (batch_outcomes, status) = batched.execute_batch(batch.iter());
        status.unwrap();
        let serial_outcomes: Vec<StepOutcome> =
            batch.iter().map(|c| serial.execute(c).unwrap()).collect();
        serial.sync().unwrap();
        assert_eq!(batch_outcomes, serial_outcomes);
        assert_eq!(batched.policy(), serial.policy());
        assert_eq!(batched.log_len(), 3);

        // The batch is durable without a further sync (recovery replays
        // the identical sequence).
        drop(batched);
        let (store, report) = PolicyStore::open(dir_batch.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.divergent, 0);
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn refused_commands_are_logged_too() {
        let dir = TempDir::new("refused").unwrap();
        let (uni, policy) = sample();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        // Bob has no authority yet.
        let out = store
            .execute(&Command::grant(bob, Edge::UserRole(bob, staff)))
            .unwrap();
        assert!(!out.executed());
        assert_eq!(store.log_len(), 1);
        drop(store);
        let (_, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.divergent, 0);
    }

    #[test]
    fn compact_folds_log_into_snapshot() {
        let dir = TempDir::new("compact").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let mut store = PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
        store
            .execute(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        store.compact().unwrap();
        assert_eq!(store.log_len(), 0);
        drop(store);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 0, "log was folded into the snapshot");
        assert!(store.policy().contains_edge(Edge::UserRole(bob, staff)));
    }

    #[test]
    fn constraints_survive_recovery_and_compaction() {
        let dir = TempDir::new("storecons").unwrap();
        let (uni, policy) = sample();
        let hr = uni.find_role("hr").unwrap();
        let staff = uni.find_role("staff").unwrap();
        let declared = ConstraintSet {
            sod_pairs: vec![(hr.min(staff), hr.max(staff))],
            ..ConstraintSet::default()
        };
        {
            let mut store =
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
            assert!(store.constraints().is_empty());
            store.set_constraints(declared.clone()).unwrap();
        }
        // WAL record alone restores the set.
        let (mut store, _) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(store.constraints(), &declared);
        // Compaction folds it into the snapshot; a fresh open with an
        // empty log still sees it.
        store.compact().unwrap();
        drop(store);
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(store.constraints(), &declared);
    }

    #[test]
    fn crash_recovery_keeps_durable_prefix() {
        let dir = TempDir::new("crash").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let staff = uni.find_role("staff").unwrap();
        {
            let mut store =
                PolicyStore::create(dir.path(), uni, policy, AuthMode::Explicit).unwrap();
            store
                .execute(&Command::grant(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            store
                .execute(&Command::revoke(jane, Edge::UserRole(bob, staff)))
                .unwrap();
            store.sync().unwrap();
            // no clean shutdown: just drop
        }
        // Simulate a torn tail: chop bytes off the log.
        let log_path = dir.path().join("commands.log");
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 5]).unwrap();
        let (store, report) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert!(report.truncated_tail);
        assert_eq!(report.replayed, 1, "second record was torn");
        assert!(
            store.policy().contains_edge(Edge::UserRole(bob, staff)),
            "state reflects the surviving prefix only"
        );
    }

    #[test]
    fn ordered_mode_round_trips_through_recovery() {
        use adminref_core::ordering::OrderingMode;
        let dir = TempDir::new("ordered").unwrap();
        let (uni, policy) = sample();
        let jane = uni.find_user("jane").unwrap();
        let bob = uni.find_user("bob").unwrap();
        let dbusr2 = uni.find_role("dbusr2").unwrap();
        let mode = AuthMode::Ordered(OrderingMode::Extended);
        {
            let mut store = PolicyStore::create(dir.path(), uni, policy, mode).unwrap();
            // Only authorized in ordered mode (weaker than ¤(bob, staff)).
            let out = store
                .execute(&Command::grant(jane, Edge::UserRole(bob, dbusr2)))
                .unwrap();
            assert!(out.executed());
            store.sync().unwrap();
        }
        let (store, report) = PolicyStore::open(dir.path(), mode).unwrap();
        assert_eq!(report.divergent, 0, "replay in the same mode agrees");
        assert!(store.policy().contains_edge(Edge::UserRole(bob, dbusr2)));
        // Replaying under a *different* mode diverges — detected.
        let (_, report2) = PolicyStore::open(dir.path(), AuthMode::Explicit).unwrap();
        assert_eq!(report2.divergent, 1);
    }
}
