//! Deployment leasing (GridARM-backed reservation, §3.2).
//!
//! "GLARE provides the capability to lease an activity deployment ... A
//! fine-grained reservation of a specific activity instead of the entire
//! Grid site is supported. A user with valid reservation ticket is
//! authorized to instantiate the reserved activity. A lease can be
//! exclusive or shared. In case of an exclusive lease no one else is
//! allowed to use the activity during its leased timeframe. In case of
//! shared lease, multiple clients can use the leased activity but GridARM
//! reservation service ensures that the number of concurrent clients does
//! not exceed the allowed limits."

use std::collections::HashMap;

use glare_fabric::SimTime;

use crate::error::GlareError;

/// Exclusive or shared access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaseKind {
    /// Sole use of the deployment for the timeframe.
    Exclusive,
    /// Concurrent use, bounded by the deployment's client capacity.
    Shared,
}

/// A granted reservation ticket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaseTicket {
    /// Ticket id.
    pub id: u64,
    /// Leased deployment key.
    pub deployment: String,
    /// Client holding the ticket.
    pub client: String,
    /// Exclusive or shared.
    pub kind: LeaseKind,
    /// Lease start (inclusive).
    pub from: SimTime,
    /// Lease end (exclusive).
    pub until: SimTime,
}

impl LeaseTicket {
    /// Whether the ticket covers instant `at`.
    pub(crate) fn covers(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }

    fn overlaps(&self, from: SimTime, until: SimTime) -> bool {
        self.from < until && from < self.until
    }
}

/// The reservation service for one site's deployments.
#[derive(Clone, Debug, Default)]
pub struct LeaseManager {
    next_id: u64,
    leases: Vec<LeaseTicket>,
    /// Per-deployment shared-client capacity (QoS limit). Default 4.
    capacities: HashMap<String, u32>,
}

/// Default concurrent-client capacity for shared leases.
pub const DEFAULT_SHARED_CAPACITY: u32 = 4;

impl LeaseManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table a crash leaves behind: no tickets (replay brings back
    /// what was journaled) but the same per-deployment capacities, which
    /// are site configuration rather than ledger state.
    pub(crate) fn after_crash(&mut self) -> LeaseManager {
        let capacities = std::mem::take(&mut self.capacities);
        LeaseManager { capacities, ..LeaseManager::default() }
    }

    /// Set a deployment's shared-lease capacity (the "allowed limits").
    pub fn set_capacity(&mut self, deployment: &str, capacity: u32) {
        assert!(capacity > 0, "capacity must be positive");
        self.capacities.insert(deployment.to_owned(), capacity);
    }

    /// Capacity for a deployment.
    pub fn capacity(&self, deployment: &str) -> u32 {
        self.capacities
            .get(deployment)
            .copied()
            .unwrap_or(DEFAULT_SHARED_CAPACITY)
    }

    /// Request a lease over `[from, until)`.
    pub fn acquire(
        &mut self,
        deployment: &str,
        client: &str,
        kind: LeaseKind,
        from: SimTime,
        until: SimTime,
    ) -> Result<LeaseTicket, GlareError> {
        if from >= until {
            return Err(GlareError::LeaseDenied {
                deployment: deployment.to_owned(),
                reason: "empty timeframe".into(),
            });
        }
        let mut overlapping = 0usize;
        let mut exclusive = false;
        for l in &self.leases {
            if l.deployment == deployment && l.overlaps(from, until) {
                overlapping += 1;
                exclusive |= l.kind == LeaseKind::Exclusive;
            }
        }
        // Any exclusive overlap blocks everything, and an exclusive
        // request is blocked by any overlap.
        if exclusive {
            return Err(GlareError::LeaseDenied {
                deployment: deployment.to_owned(),
                reason: "overlaps an exclusive lease".into(),
            });
        }
        match kind {
            LeaseKind::Exclusive if overlapping > 0 => {
                return Err(GlareError::LeaseDenied {
                    deployment: deployment.to_owned(),
                    reason: format!("{overlapping} shared lease(s) already granted"),
                });
            }
            LeaseKind::Shared => {
                let cap = self.capacity(deployment);
                if overlapping as u32 >= cap {
                    return Err(GlareError::LeaseDenied {
                        deployment: deployment.to_owned(),
                        reason: format!("shared capacity {cap} exhausted"),
                    });
                }
            }
            LeaseKind::Exclusive => {}
        }
        let ticket = LeaseTicket {
            id: self.next_id,
            deployment: deployment.to_owned(),
            client: client.to_owned(),
            kind,
            from,
            until,
        };
        self.next_id += 1;
        self.leases.push(ticket.clone());
        Ok(ticket)
    }

    /// Whether `client` holds a valid ticket for `deployment` at `at`
    /// ("a user with valid reservation ticket is authorized to instantiate
    /// the reserved activity").
    pub fn authorized(&self, deployment: &str, client: &str, at: SimTime) -> bool {
        self.leases
            .iter()
            .any(|l| l.deployment == deployment && l.client == client && l.covers(at))
    }

    /// Whether any *active* exclusive lease excludes `client` at `at`.
    pub fn blocked_for(&self, deployment: &str, client: &str, at: SimTime) -> bool {
        self.leases.iter().any(|l| {
            l.deployment == deployment
                && l.kind == LeaseKind::Exclusive
                && l.client != client
                && l.covers(at)
        })
    }

    /// Re-insert a previously granted ticket during journal replay after
    /// a crash. Skips duplicate ids and bumps the id counter past the
    /// restored ticket so fresh grants never reuse a journaled id.
    pub fn restore(&mut self, ticket: LeaseTicket) {
        if self.leases.iter().any(|l| l.id == ticket.id) {
            return;
        }
        self.next_id = self.next_id.max(ticket.id + 1);
        self.leases.push(ticket);
    }

    /// Release a ticket early.
    pub fn release(&mut self, id: u64) -> Result<(), GlareError> {
        match self.leases.iter().position(|l| l.id == id) {
            Some(i) => {
                self.leases.remove(i);
                Ok(())
            }
            None => Err(GlareError::LeaseDenied {
                deployment: String::new(),
                reason: format!("no such ticket {id}"),
            }),
        }
    }

    /// Drop expired leases; returns how many.
    pub fn sweep_expired(&mut self, now: SimTime) -> usize {
        let before = self.leases.len();
        self.leases.retain(|l| l.until > now);
        before - self.leases.len()
    }

    /// All live tickets, in grant order (invariant checkers use this to
    /// assert shared-capacity caps across a whole run).
    pub fn tickets(&self) -> &[LeaseTicket] {
        &self.leases
    }

    /// Active leases on a deployment at `at`.
    pub fn active_leases(&self, deployment: &str, at: SimTime) -> Vec<&LeaseTicket> {
        self.leases
            .iter()
            .filter(|l| l.deployment == deployment && l.covers(at))
            .collect()
    }

    /// Total live tickets.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether no tickets exist.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut m = LeaseManager::new();
        let ticket = m
            .acquire("jpovray@s1", "alice", LeaseKind::Exclusive, t(10), t(20))
            .unwrap();
        assert!(ticket.covers(t(10)));
        assert!(!ticket.covers(t(20)));
        // Overlapping requests denied, both kinds.
        assert!(m
            .acquire("jpovray@s1", "bob", LeaseKind::Shared, t(15), t(25))
            .is_err());
        assert!(m
            .acquire("jpovray@s1", "bob", LeaseKind::Exclusive, t(19), t(21))
            .is_err());
        // Non-overlapping fine.
        assert!(m
            .acquire("jpovray@s1", "bob", LeaseKind::Exclusive, t(20), t(30))
            .is_ok());
        // Other deployments unaffected.
        assert!(m
            .acquire("wien2k@s2", "bob", LeaseKind::Exclusive, t(10), t(20))
            .is_ok());
    }

    #[test]
    fn shared_capacity_enforced() {
        let mut m = LeaseManager::new();
        m.set_capacity("jpovray@s1", 2);
        m.acquire("jpovray@s1", "a", LeaseKind::Shared, t(0), t(100))
            .unwrap();
        m.acquire("jpovray@s1", "b", LeaseKind::Shared, t(0), t(100))
            .unwrap();
        let err = m
            .acquire("jpovray@s1", "c", LeaseKind::Shared, t(50), t(60))
            .unwrap_err();
        assert!(matches!(err, GlareError::LeaseDenied { .. }));
        // After the window, capacity is free again.
        assert!(m
            .acquire("jpovray@s1", "c", LeaseKind::Shared, t(100), t(110))
            .is_ok());
    }

    #[test]
    fn exclusive_blocked_by_shared() {
        let mut m = LeaseManager::new();
        m.acquire("d", "a", LeaseKind::Shared, t(0), t(10)).unwrap();
        assert!(m.acquire("d", "b", LeaseKind::Exclusive, t(5), t(15)).is_err());
        assert!(m.acquire("d", "b", LeaseKind::Exclusive, t(10), t(15)).is_ok());
    }

    /// Tickets are numbered in grant order and stored as handed out; a
    /// refusal names its reason.
    #[test]
    fn acquire_numbers_tickets_and_refuses_with_its_reasons() {
        let mut m = LeaseManager::new();
        m.set_capacity("d", 2);
        let a = m.acquire("d", "a", LeaseKind::Shared, t(0), t(10)).unwrap();
        let b = m.acquire("d", "b", LeaseKind::Shared, t(0), t(10)).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        assert_eq!(m.tickets(), [a, b]);
        let reason = |r: Result<LeaseTicket, GlareError>| match r {
            Err(GlareError::LeaseDenied { reason, .. }) => reason,
            other => panic!("expected a denial, got {other:?}"),
        };
        assert_eq!(
            reason(m.acquire("d", "c", LeaseKind::Shared, t(5), t(6))),
            "shared capacity 2 exhausted"
        );
        assert_eq!(
            reason(m.acquire("d", "c", LeaseKind::Exclusive, t(5), t(6))),
            "2 shared lease(s) already granted"
        );
        m.acquire("d", "c", LeaseKind::Exclusive, t(10), t(20))
            .unwrap();
        assert_eq!(
            reason(m.acquire("d", "e", LeaseKind::Shared, t(15), t(16))),
            "overlaps an exclusive lease"
        );
        assert_eq!(
            reason(m.acquire("d", "e", LeaseKind::Shared, t(3), t(3))),
            "empty timeframe"
        );
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn authorization_follows_tickets() {
        let mut m = LeaseManager::new();
        m.acquire("d", "alice", LeaseKind::Exclusive, t(10), t(20))
            .unwrap();
        assert!(m.authorized("d", "alice", t(15)));
        assert!(!m.authorized("d", "alice", t(25)));
        assert!(!m.authorized("d", "bob", t(15)));
        assert!(m.blocked_for("d", "bob", t(15)));
        assert!(!m.blocked_for("d", "alice", t(15)));
        assert!(!m.blocked_for("d", "bob", t(25)));
    }

    #[test]
    fn release_and_sweep() {
        let mut m = LeaseManager::new();
        let ticket = m
            .acquire("d", "a", LeaseKind::Exclusive, t(0), t(10))
            .unwrap();
        m.release(ticket.id).unwrap();
        assert!(m.is_empty());
        assert!(m.release(ticket.id).is_err());
        m.acquire("d", "a", LeaseKind::Shared, t(0), t(10)).unwrap();
        m.acquire("d", "b", LeaseKind::Shared, t(0), t(30)).unwrap();
        assert_eq!(m.sweep_expired(t(10)), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_timeframe_rejected() {
        let mut m = LeaseManager::new();
        assert!(m.acquire("d", "a", LeaseKind::Shared, t(5), t(5)).is_err());
        assert!(m.acquire("d", "a", LeaseKind::Shared, t(6), t(5)).is_err());
    }

    #[test]
    fn active_leases_snapshot() {
        let mut m = LeaseManager::new();
        m.acquire("d", "a", LeaseKind::Shared, t(0), t(10)).unwrap();
        m.acquire("d", "b", LeaseKind::Shared, t(5), t(15)).unwrap();
        assert_eq!(m.active_leases("d", t(7)).len(), 2);
        assert_eq!(m.active_leases("d", t(12)).len(), 1);
        assert_eq!(m.active_leases("other", t(7)).len(), 0);
    }
}
