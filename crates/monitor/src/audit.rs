//! Audit log: a bounded ring of authorization decisions.
//!
//! Every administrative command the monitor processes — executed or
//! refused — lands here, together with the privilege vertex that justified
//! it (for ordered-mode decisions the held privilege generally differs
//! from the requested one; auditors want to see both).
//!
//! A second bounded ring records [`SessionRevocation`]s: publish-time
//! forced deactivations of session roles whose `u →φ r` justification a
//! batch's revocations severed. The streams number independently (each
//! stays dense, so cursor arithmetic keeps working on both), and the
//! revocation total is monotone even after eviction.

use std::collections::VecDeque;

use adminref_core::command::Command;
use adminref_core::ids::{PrivId, RoleId, UserId};
use adminref_core::transition::StepOutcome;
use adminref_core::verify::specs::{TraceDecision, TraceStep};

use crate::monitor::SessionId;

/// The decision recorded for one command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Authorized; `held` is the justifying vertex, `target` the required
    /// privilege (equal under explicit authorization).
    Executed {
        /// The privilege vertex that authorized the command.
        held: PrivId,
        /// The privilege the command required.
        target: PrivId,
    },
    /// Refused (consumed as a no-op per Definition 5).
    Refused,
}

impl Decision {
    /// The decision a step outcome records.
    pub fn of(outcome: &StepOutcome) -> Decision {
        match outcome.authorization {
            Some(auth) => Decision::Executed {
                held: auth.held,
                target: auth.target,
            },
            None => Decision::Refused,
        }
    }
}

/// One audit event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuditEvent {
    /// Monotonic event number.
    pub seq: u64,
    /// The command.
    pub command: Command,
    /// The decision.
    pub decision: Decision,
    /// Whether the policy's edge set actually changed.
    pub changed: bool,
}

/// One publish-time forced deactivation: the epoch's policy no longer
/// satisfies `u →φ r`, so the monitor dropped `role` from the session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SessionRevocation {
    /// Monotonic revocation number (independent of command seqs).
    pub seq: u64,
    /// The affected session.
    pub session: SessionId,
    /// The session's user.
    pub user: UserId,
    /// The role that was force-deactivated.
    pub role: RoleId,
    /// The epoch whose publication severed the activation.
    pub epoch: u64,
}

/// Maps an audit stream to an oracle trace
/// ([`adminref_core::verify::specs`]): each event becomes one
/// [`TraceStep`], ready for
/// [`InvariantSuite::replay`](adminref_core::verify::specs::InvariantSuite::replay)
/// against the policy the stream started from.
pub fn trace_of(events: &[AuditEvent]) -> Vec<TraceStep> {
    events
        .iter()
        .map(|e| TraceStep {
            command: e.command,
            decision: match e.decision {
                Decision::Executed { held, target } => TraceDecision::Executed {
                    held,
                    target,
                    changed: e.changed,
                },
                Decision::Refused => TraceDecision::Refused,
            },
        })
        .collect()
}

/// Bounded in-memory audit log (oldest events are evicted first).
#[derive(Debug)]
pub struct AuditLog {
    events: VecDeque<AuditEvent>,
    revocations: VecDeque<SessionRevocation>,
    capacity: usize,
    next_seq: u64,
    next_revocation_seq: u64,
    evicted: u64,
}

impl AuditLog {
    /// Creates a log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        AuditLog {
            events: VecDeque::with_capacity(capacity.min(1024)),
            revocations: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            next_revocation_seq: 0,
            evicted: 0,
        }
    }

    /// Records an event, evicting the oldest if full. Returns its seq.
    pub fn record(&mut self, command: Command, decision: Decision, changed: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(AuditEvent {
            seq,
            command,
            decision,
            changed,
        });
        seq
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &AuditEvent> {
        self.events.iter()
    }

    /// Copies out at most the last `max` retained events, oldest first.
    /// Bounded: callers polling a long-lived monitor pay O(max), not
    /// O(history).
    pub fn tail(&self, max: usize) -> Vec<AuditEvent> {
        let skip = self.events.len().saturating_sub(max);
        self.events.iter().skip(skip).copied().collect()
    }

    /// Copies out up to `max` retained events with `seq > after`, oldest
    /// first. Sequence numbers are dense, so the cursor position is
    /// found by offset arithmetic, not a scan.
    pub fn events_since(&self, after: u64, max: usize) -> Vec<AuditEvent> {
        let Some(first) = self.events.front().map(|e| e.seq) else {
            return Vec::new();
        };
        // Events with seq <= after are skipped; `after` may predate the
        // ring (everything retained qualifies) or postdate it (nothing,
        // including the `u64::MAX` everything-seen sentinel).
        let skip = after
            .saturating_add(1)
            .saturating_sub(first)
            .min(self.events.len() as u64) as usize;
        self.events.iter().skip(skip).take(max).copied().collect()
    }

    /// Takes all retained events out of the log, oldest first, leaving it
    /// empty. Sequence numbering continues where it left off; the drained
    /// events count as evicted for bookkeeping.
    pub fn drain(&mut self) -> Vec<AuditEvent> {
        self.evicted += self.events.len() as u64;
        std::mem::take(&mut self.events).into()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Count of refused commands among retained events.
    pub fn refused_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.decision == Decision::Refused)
            .count()
    }

    /// Records a publish-time forced deactivation, evicting the oldest
    /// if full. Returns its (stream-local) seq.
    pub fn record_revocation(
        &mut self,
        session: SessionId,
        user: UserId,
        role: RoleId,
        epoch: u64,
    ) -> u64 {
        let seq = self.next_revocation_seq;
        self.next_revocation_seq += 1;
        if self.revocations.len() == self.capacity {
            self.revocations.pop_front();
        }
        self.revocations.push_back(SessionRevocation {
            seq,
            session,
            user,
            role,
            epoch,
        });
        seq
    }

    /// Retained forced deactivations, oldest first.
    pub fn revocations(&self) -> impl Iterator<Item = &SessionRevocation> {
        self.revocations.iter()
    }

    /// Copies out at most the last `max` retained forced deactivations,
    /// oldest first.
    pub fn revocations_tail(&self, max: usize) -> Vec<SessionRevocation> {
        let skip = self.revocations.len().saturating_sub(max);
        self.revocations.iter().skip(skip).copied().collect()
    }

    /// Total forced deactivations ever recorded (monotone across
    /// eviction).
    pub fn revocations_total(&self) -> u64 {
        self.next_revocation_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::ids::{RoleId, UserId};
    use adminref_core::universe::Edge;

    fn cmd(n: u32) -> Command {
        Command::grant(UserId(n), Edge::UserRole(UserId(n), RoleId(0)))
    }

    #[test]
    fn records_in_order() {
        let mut log = AuditLog::new(10);
        assert_eq!(log.record(cmd(1), Decision::Refused, false), 0);
        assert_eq!(
            log.record(
                cmd(2),
                Decision::Executed {
                    held: PrivId(1),
                    target: PrivId(1)
                },
                true
            ),
            1
        );
        let events: Vec<_> = log.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(log.refused_count(), 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut log = AuditLog::new(3);
        for i in 0..5 {
            log.record(cmd(i), Decision::Refused, false);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let seqs: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn tail_and_since_are_bounded_windows() {
        let mut log = AuditLog::new(4);
        for i in 0..6 {
            log.record(cmd(i), Decision::Refused, false);
        }
        // Retained: seqs 2..=5.
        assert_eq!(
            log.tail(2).iter().map(|e| e.seq).collect::<Vec<_>>(),
            [4, 5]
        );
        assert_eq!(log.tail(100).len(), 4);
        assert_eq!(
            log.events_since(2, 10)
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>(),
            [3, 4, 5]
        );
        assert_eq!(
            log.events_since(0, 2)
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>(),
            [2, 3],
            "a cursor older than the ring starts at the oldest retained"
        );
        assert!(log.events_since(5, 10).is_empty());
        assert!(log.events_since(99, 10).is_empty());
        assert!(
            log.events_since(u64::MAX, 10).is_empty(),
            "the everything-seen sentinel must not overflow"
        );
    }

    #[test]
    fn drain_empties_but_keeps_numbering() {
        let mut log = AuditLog::new(8);
        for i in 0..3 {
            log.record(cmd(i), Decision::Refused, false);
        }
        let drained = log.drain();
        assert_eq!(drained.len(), 3);
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 3);
        let seq = log.record(cmd(9), Decision::Refused, false);
        assert_eq!(seq, 3, "numbering continues across a drain");
        assert!(log.events_since(1, 10).iter().all(|e| e.seq > 1));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut log = AuditLog::new(0);
        log.record(cmd(0), Decision::Refused, false);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn revocations_number_independently_and_stay_bounded() {
        let mut log = AuditLog::new(2);
        log.record(cmd(0), Decision::Refused, false);
        let sid = SessionId::from_raw(7);
        for i in 0..3 {
            let seq = log.record_revocation(sid, UserId(1), RoleId(i), 5);
            assert_eq!(seq, i as u64);
        }
        assert_eq!(log.revocations().count(), 2, "ring bounded");
        assert_eq!(log.revocations_total(), 3);
        let tail = log.revocations_tail(1);
        assert_eq!(tail[0].seq, 2);
        assert_eq!(tail[0].role, RoleId(2));
        assert_eq!(tail[0].epoch, 5);
        // The command stream's numbering is untouched.
        assert_eq!(log.record(cmd(1), Decision::Refused, false), 1);
    }
}
