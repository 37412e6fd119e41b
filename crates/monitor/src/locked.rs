//! The pre-epoch reference monitor: one `RwLock` over everything.
//!
//! This is the serial baseline the batched/epoch-published
//! [`ReferenceMonitor`](crate::ReferenceMonitor) replaced: policy,
//! sessions, and audit live behind a single reader-writer lock, access
//! checks BFS the policy graph under the read lock, and every
//! administrative command takes the write lock. It is preserved —
//! unchanged in behavior — for two jobs:
//!
//! * **differential testing**: property tests drive the same command
//!   sequences through both monitors and assert identical
//!   [`StepOutcome`] and audit sequences (the epoch rebuild must not
//!   change Definition-5 semantics);
//! * **benchmarking**: `benches/monitor_throughput.rs` and
//!   `adminref bench-monitor` measure the read-throughput gap between
//!   this design and the lock-free read path under concurrent admin
//!   writes.
//!
//! New code should use [`ReferenceMonitor`](crate::ReferenceMonitor).

use parking_lot::RwLock;
use std::collections::HashMap;

use adminref_core::command::{Command, CommandQueue};
use adminref_core::ids::{Perm, RoleId, UserId};
use adminref_core::policy::Policy;
use adminref_core::session::Session;
use adminref_core::transition::{step, AuthMode, StepOutcome};
use adminref_core::universe::Universe;

use crate::audit::{AuditEvent, AuditLog, Decision};
use crate::monitor::{MonitorConfig, MonitorError, SessionId};

struct Inner {
    universe: Universe,
    policy: Policy,
    sessions: HashMap<SessionId, Session>,
    next_session: u64,
    audit: AuditLog,
    version: u64,
    config: MonitorConfig,
}

/// The single-lock in-memory reference monitor (serial baseline).
pub struct LockedMonitor {
    inner: RwLock<Inner>,
}

impl LockedMonitor {
    /// An in-memory monitor over the given state.
    pub fn new(universe: Universe, policy: Policy, config: MonitorConfig) -> Self {
        policy.check_universe(&universe);
        LockedMonitor {
            inner: RwLock::new(Inner {
                universe,
                policy,
                sessions: HashMap::new(),
                next_session: 0,
                audit: AuditLog::new(config.audit_capacity),
                version: 0,
                config,
            }),
        }
    }

    /// Submits one administrative command; records the decision in the
    /// audit log. A revocation that changes the policy immediately
    /// revalidates every session under the same write lock: an active
    /// role whose `u →φ r` justification the command severed is
    /// force-deactivated and recorded, like the epoch monitor's
    /// publish-time sweep.
    pub fn submit(&self, cmd: &Command) -> Result<StepOutcome, MonitorError> {
        let mut inner = self.inner.write();
        let mode = inner.config.auth_mode;
        let inner = &mut *inner;
        let outcome = step(&mut inner.universe, &mut inner.policy, cmd, mode);
        inner
            .audit
            .record(*cmd, Decision::of(&outcome), outcome.changed);
        if outcome.changed {
            inner.version += 1;
            let added = matches!(cmd.kind, adminref_core::command::CommandKind::Grant);
            if crate::monitor::severs_activation(cmd.edge, added) {
                let Inner {
                    policy,
                    sessions,
                    audit,
                    version,
                    ..
                } = inner;
                crate::monitor::sweep_stale_activations(sessions, audit, *version, |user, role| {
                    adminref_core::reach::reaches(
                        policy,
                        adminref_core::ids::Node::User(user),
                        adminref_core::ids::Node::Role(role),
                    )
                });
            }
        }
        Ok(outcome)
    }

    /// Submits a whole queue, front to back (one lock acquisition per
    /// command — the behavior the batched monitor replaced).
    pub fn submit_queue(&self, queue: &CommandQueue) -> Result<Vec<StepOutcome>, MonitorError> {
        queue.iter().map(|cmd| self.submit(cmd)).collect()
    }

    /// Starts a session for `user`.
    pub fn create_session(&self, user: UserId) -> SessionId {
        let mut inner = self.inner.write();
        let id = SessionId::from_raw(inner.next_session);
        inner.next_session += 1;
        inner.sessions.insert(id, Session::new(user));
        id
    }

    /// Activates a role in a session (`u →φ r` required).
    pub fn activate_role(&self, session: SessionId, role: RoleId) -> Result<(), MonitorError> {
        let mut inner = self.inner.write();
        let Inner {
            policy, sessions, ..
        } = &mut *inner;
        let s = sessions
            .get_mut(&session)
            .ok_or(MonitorError::UnknownSession(session))?;
        s.activate(policy, role)?;
        Ok(())
    }

    /// Deactivates a role; `Ok(true)` if it was active.
    pub fn deactivate_role(&self, session: SessionId, role: RoleId) -> Result<bool, MonitorError> {
        let mut inner = self.inner.write();
        let s = inner
            .sessions
            .get_mut(&session)
            .ok_or(MonitorError::UnknownSession(session))?;
        Ok(s.deactivate(role))
    }

    /// Access check: BFS per active role under the read lock.
    pub fn check_access(&self, session: SessionId, perm: Perm) -> Result<bool, MonitorError> {
        let inner = self.inner.read();
        let s = inner
            .sessions
            .get(&session)
            .ok_or(MonitorError::UnknownSession(session))?;
        // Non-mutating variant of Session::check_access: the perm term may
        // not be interned yet, in which case no role reaches it.
        let Some(p) = inner
            .universe
            .find_term(adminref_core::universe::PrivTerm::Perm(perm))
        else {
            return Ok(false);
        };
        let policy = &inner.policy;
        let allowed = s.active_roles().any(|r| {
            adminref_core::reach::reaches(
                policy,
                adminref_core::ids::Node::Role(r),
                adminref_core::ids::Node::Priv(p),
            )
        });
        Ok(allowed)
    }

    /// Ends a session.
    pub fn drop_session(&self, session: SessionId) -> bool {
        self.inner.write().sessions.remove(&session).is_some()
    }

    /// Clones the current state for offline analysis.
    pub fn snapshot(&self) -> (Universe, Policy) {
        let inner = self.inner.read();
        (inner.universe.clone(), inner.policy.clone())
    }

    /// The number of policy-changing commands processed so far.
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Copies out the retained audit events.
    pub fn audit_events(&self) -> Vec<AuditEvent> {
        self.inner.read().audit.events().copied().collect()
    }

    /// Copies out at most the last `max` forced deactivations (oldest
    /// first).
    pub fn session_revocations_tail(&self, max: usize) -> Vec<crate::audit::SessionRevocation> {
        self.inner.read().audit.revocations_tail(max)
    }

    /// Total forced deactivations so far.
    pub fn session_revocations_total(&self) -> u64 {
        self.inner.read().audit.revocations_total()
    }

    /// The configured authorization mode.
    pub fn auth_mode(&self) -> AuthMode {
        self.inner.read().config.auth_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::policy::PolicyBuilder;
    use adminref_core::universe::Edge;

    #[test]
    fn locked_baseline_executes_and_audits() {
        let mut b = PolicyBuilder::new()
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "nurse")
            .permit("nurse", "read", "t1");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        let (mut uni, policy) = b.assign_priv("hr", g).finish();
        let jane = uni.find_user("jane").unwrap();
        let m = LockedMonitor::new(uni.clone(), policy, MonitorConfig::default());
        let out = m
            .submit(&Command::grant(jane, Edge::UserRole(bob, staff)))
            .unwrap();
        assert!(out.executed());
        assert_eq!(m.version(), 1);
        assert_eq!(m.audit_events().len(), 1);
        let sid = m.create_session(bob);
        m.activate_role(sid, staff).unwrap();
        let read_t1 = uni.perm("read", "t1");
        assert!(m.check_access(sid, read_t1).unwrap());
        assert!(m.deactivate_role(sid, staff).unwrap());
        assert!(m.drop_session(sid));
    }
}
