//! The safety properties the harnesses and tests check, one function per
//! invariant (DESIGN.md §6 lists who calls which). Each returns its
//! violations as human-readable strings; empty means the invariant holds.
//! The overlay checks take the node actors in site order: `ids[i]` runs on
//! site `i`, as [`crate::OverlayBuilder`] builds them.

use std::collections::{BTreeMap, BTreeSet};

use glare_fabric::{ActorId, EventLog, EventRecord, SimTime, Simulation, SiteId};

use crate::admission::TenantClass;
use crate::autonomic::{
    live_replica_sites, ActionKind, ActionOutcome, ActionRecord, MAX_REPLICAS, MIN_REPLICAS,
};
use crate::grid::Grid;
use crate::lease::{LeaseKind, LeaseManager};
use crate::node::GlareNode;
use crate::rdm::ProvisionOutcome;
use crate::superpeer::Role;

/// How far a higher class's success ratio may trail a lower one's before
/// [`admission_ordering`] calls it a violation (open-loop arrival noise).
pub(crate) const SUCCESS_RATIO_EPSILON: f64 = 0.02;

fn node(sim: &Simulation, id: ActorId) -> &GlareNode {
    sim.actor_as::<GlareNode>(id).expect("overlay actors are GlareNodes")
}

/// Whether node `id` runs on a site that is down (a node outside `ids`: no).
fn down(sim: &Simulation, ids: &[ActorId], id: ActorId) -> bool {
    let site = ids.iter().position(|&n| n == id);
    site.is_some_and(|i| !sim.site(SiteId(i as u32)).is_up())
}

/// One super-peer per group: every node names a super-peer, the named node
/// holds the office, office holders name themselves, every member they
/// list points back, and as many nodes hold the office as are named. Nodes
/// whose site is down are skipped.
pub fn super_peers(sim: &Simulation, ids: &[ActorId]) -> Vec<String> {
    let mut out = Vec::new();
    let (mut named, mut office_holders) = (BTreeSet::new(), 0usize);
    for (i, &id) in ids.iter().enumerate().filter(|&(_, &id)| !down(sim, ids, id)) {
        let n = node(sim, id);
        let holds_office = n.role() == Role::SuperPeer;
        office_holders += usize::from(holds_office);
        let Some(sp) = n.super_peer() else {
            out.push(format!("node {i}: no super-peer after heal"));
            continue;
        };
        named.insert(sp);
        if node(sim, sp).role() != Role::SuperPeer {
            out.push(format!("node {i}: names node {} as super-peer, which is not one", sp.0));
        }
        if holds_office && sp != id {
            out.push(format!("node {i}: holds the office but defers to node {}", sp.0));
        }
        let members = if holds_office { n.group() } else { &[] };
        for &m in members {
            if !down(sim, ids, m) && node(sim, m).super_peer() != Some(id) {
                let m = m.0;
                out.push(format!("node {m}: in node {i}'s group but names a different super-peer"));
            }
        }
    }
    if named.len() != office_holders {
        let (named, holders) = (named.len(), office_holders);
        out.push(format!("{named} distinct super-peers named but {holders} nodes hold the office"));
    }
    out
}

/// Every cached deployment exists in its origin site's registry at `now`:
/// a cached key its origin no longer knows means the cache invented state.
pub(crate) fn cache_origins(sim: &Simulation, ids: &[ActorId], now: SimTime) -> Vec<String> {
    let mut out = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        for (key, origin) in node(sim, id).cache.deployment_origins() {
            let site = origin.strip_prefix("site").and_then(|s| s.parse::<usize>().ok());
            match site.and_then(|s| ids.get(s)) {
                None => out.push(format!("node {i}: cached {key} from unknown origin {origin}")),
                Some(&o) if node(sim, o).adr.lookup(&key, now).is_none() => out.push(format!(
                    "node {i}: caches {key} but origin {origin} has no such registration"
                )),
                Some(_) => {}
            }
        }
    }
    out
}

/// The `failure.confirmed` records of a log: each a super-peer some node
/// declared dead.
pub(crate) fn confirmed_failures(events: &EventLog) -> impl Iterator<Item = &EventRecord> {
    events.of_kind("failure.confirmed")
}

/// No false-positive takeover: every confirmed failure's suspect (its site
/// is its position in `ids`) ran on a site with a `site.crashed` record. A
/// slowed or lossy-but-alive site keeps heartbeating; declaring it dead is
/// a violation.
pub fn false_takeovers(events: &EventLog, ids: &[ActorId]) -> Vec<String> {
    let crashed: BTreeSet<SiteId> = events.of_kind("site.crashed").filter_map(|r| r.site).collect();
    let mut out = Vec::new();
    for r in confirmed_failures(events) {
        let suspect = r.field("suspect");
        let actor = suspect.and_then(|v| v.strip_prefix("actor")?.parse().ok());
        match actor.and_then(|a| ids.iter().position(|&id| id == ActorId(a))) {
            Some(s) if crashed.contains(&SiteId(s as u32)) => {}
            Some(s) => out.push(format!(
                "false-positive takeover: site {s} was declared dead but never crashed"
            )),
            None => out.push(format!("failure.confirmed with unparsable suspect: {r:?}")),
        }
    }
    out
}

/// Every discrete-event overlay check at `now`: [`super_peers`],
/// `cache_origins` and, when the event log is on, [`false_takeovers`].
pub fn overlay(sim: &Simulation, ids: &[ActorId], now: SimTime) -> Vec<String> {
    let mut out = super_peers(sim, ids);
    out.extend(cache_origins(sim, ids, now));
    out.extend(sim.events().map(|events| false_takeovers(events, ids)).unwrap_or_default());
    out
}

/// Lease caps over site `site`'s whole ledger: shared concurrency never
/// exceeds a deployment's capacity, and an exclusive ticket overlaps no
/// other ticket on its deployment, whichever was granted first.
pub fn lease_caps(site: usize, leases: &LeaseManager) -> Vec<String> {
    let mut out = Vec::new();
    let tickets = leases.tickets();
    let mut by_dep: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (k, t) in tickets.iter().enumerate() {
        by_dep.entry(t.deployment.as_str()).or_default().push(k);
    }
    for (dep, idx) in by_dep {
        let cap = i64::from(leases.capacity(dep));
        // A sweep line over the shared tickets: +1 at `from`, -1 at `until`.
        // The end is exclusive, so at equal times the -1 sorts first.
        let shared = idx.iter().map(|&k| &tickets[k]).filter(|t| t.kind == LeaseKind::Shared);
        let mut edges: Vec<(SimTime, i64)> =
            shared.flat_map(|t| [(t.from, 1), (t.until, -1)]).collect();
        edges.sort();
        let mut running = edges.iter().scan(0i64, |live, &(_, d)| {
            *live += d;
            Some(*live)
        });
        if let Some(live) = running.find(|&live| live > cap) {
            let what = format!("{live} concurrent shared leases on {dep}");
            out.push(format!("site {site}: {what} exceed capacity {cap}"));
        }
        for (a, &ka) in idx.iter().enumerate() {
            for &kb in &idx[a + 1..] {
                let (ta, tb) = (&tickets[ka], &tickets[kb]);
                let (ex, other) = if ta.kind == LeaseKind::Exclusive { (ta, tb) } else { (tb, ta) };
                if ex.kind == LeaseKind::Exclusive && ta.from < tb.until && tb.from < ta.until {
                    out.push(format!(
                        "site {site}: exclusive ticket {} on {dep} overlaps ticket {}",
                        ex.id, other.id
                    ));
                }
            }
        }
    }
    out
}

/// A lease ticket id is issued once: no site's `lease.granted` events
/// repeat a `ticket`. A reissued id would let the holder of a released
/// ticket release the new holder's.
pub fn lease_ids_unique(events: &EventLog) -> Vec<String> {
    let mut granted = BTreeSet::new();
    let grants = events.of_kind("lease.granted");
    let grants = grants.map(|r| (r.site.map_or(0, |s| s.0), r.field("ticket").unwrap_or_default()));
    let again = grants.filter(|grant| !granted.insert(grant.clone()));
    again.map(|(site, ticket)| format!("site {site}: lease ticket {ticket} granted twice")).collect()
}

/// A provision that succeeded listed at least one deployment, and every
/// one it listed is queryable at its site's registry at `now`.
pub fn provision_queryable(grid: &Grid, outcome: &ProvisionOutcome, now: SimTime) -> Vec<String> {
    let mut out = Vec::new();
    if outcome.deployments.is_empty() {
        out.push("provision succeeded but listed no deployments".to_owned());
    }
    for (site, dep) in &outcome.deployments {
        if grid.site(*site).adr.lookup(&dep.key, now).is_none() {
            let key = &dep.key;
            out.push(format!("provision reported {key} at site {site} but it is not queryable"));
        }
    }
    out
}

/// One placement controller's applied actions, checked right after it
/// acted: none landed on a dead site, and no retire left its type below
/// [`MIN_REPLICAS`] live replicas.
pub fn placement_actions(grid: &Grid, records: &[ActionRecord], now: SimTime) -> Vec<String> {
    let t = now.as_millis() / 1000;
    let mut out = Vec::new();
    for rec in records.iter().filter(|r| r.outcome == ActionOutcome::Applied) {
        let (kind, name, site) = (rec.action.kind, &rec.action.type_name, rec.action.site);
        let live = || live_replica_sites(grid, name, now).len() as u32;
        match kind {
            ActionKind::Provision | ActionKind::Reprovision if !grid.site_is_up(site) => out.push(
                format!("t={t}: {} of {name} applied on dead site {site}", kind.label()),
            ),
            ActionKind::Retire if live() < MIN_REPLICAS => {
                out.push(format!("t={t}: retire of {name} broke the replica floor"))
            }
            _ => {}
        }
    }
    out
}

/// One controller round, checked after every controller acted: no type was
/// provisioned (or re-provisioned) more than once by `records`, and none of
/// `types` holds more than [`MAX_REPLICAS`] live replicas.
pub fn placement_round(
    grid: &Grid,
    records: &[ActionRecord],
    types: &[&str],
    now: SimTime,
) -> Vec<String> {
    let t = now.as_millis() / 1000;
    let mut provisioned: BTreeMap<&str, u32> = BTreeMap::new();
    for rec in records {
        if rec.outcome == ActionOutcome::Applied && rec.action.kind != ActionKind::Retire {
            *provisioned.entry(&rec.action.type_name).or_default() += 1;
        }
    }
    let twice = provisioned.into_iter().filter(|&(_, n)| n > 1);
    let mut out: Vec<String> =
        twice.map(|(name, n)| format!("t={t}: {name} provisioned {n}x in one round")).collect();
    for name in types {
        let live = live_replica_sites(grid, name, now).len() as u32;
        if live > MAX_REPLICAS {
            out.push(format!("t={t}: {name} has {live} replicas above the cap"));
        }
    }
    out
}

/// Admission ordering over `(success_ratio, shed)` per tenant class, in
/// class order (gold, silver, best-effort): each higher class succeeds at
/// least as often as every lower one, within a 0.02 tolerance, and
/// never sheds more. A class that offered nothing has no ratio to rank.
pub fn admission_ordering(classes: &[(u64, f64, u64)]) -> Vec<String> {
    let label = |i: usize| TenantClass::ALL.get(i).map_or("?", |c| c.label());
    let offered = classes.iter().enumerate().filter(|(_, &(offered, _, _))| offered > 0);
    let ranked: Vec<(usize, f64, u64)> = offered.map(|(i, &(_, ok, shed))| (i, ok, shed)).collect();
    let mut out = Vec::new();
    for (at, &(hi, hi_ok, hi_shed)) in ranked.iter().enumerate() {
        for &(lo, lo_ok, lo_shed) in &ranked[at + 1..] {
            let (h, l) = (label(hi), label(lo));
            if hi_ok + SUCCESS_RATIO_EPSILON < lo_ok {
                out.push(format!("{h} succeeds {hi_ok:.3} of the time, below {l}'s {lo_ok:.3}"));
            }
            if hi_shed > lo_shed {
                out.push(format!("{h} shed {hi_shed}, more than {l}'s {lo_shed}"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::LeaseTicket;

    fn ticket(id: u64, kind: LeaseKind, from: u64, until: u64) -> LeaseTicket {
        LeaseTicket {
            id,
            deployment: "d".into(),
            client: format!("c{id}"),
            kind,
            from: SimTime::from_secs(from),
            until: SimTime::from_secs(until),
        }
    }

    #[test]
    fn lease_caps_end_is_exclusive_and_an_exclusive_ticket_is_checked_both_ways() {
        let mut m = LeaseManager::new();
        m.set_capacity("d", 1);
        m.restore(ticket(0, LeaseKind::Shared, 0, 10));
        m.restore(ticket(1, LeaseKind::Shared, 10, 20));
        assert_eq!(lease_caps(3, &m), Vec::<String>::new(), "back to back is not concurrent");
        m.restore(ticket(2, LeaseKind::Exclusive, 15, 25));
        assert_eq!(lease_caps(3, &m), ["site 3: exclusive ticket 2 on d overlaps ticket 1"]);
        m.restore(ticket(3, LeaseKind::Shared, 5, 6));
        assert_eq!(
            lease_caps(3, &m),
            [
                "site 3: 2 concurrent shared leases on d exceed capacity 1",
                "site 3: exclusive ticket 2 on d overlaps ticket 1",
            ]
        );
    }

    #[test]
    fn lease_ids_unique_names_a_ticket_granted_twice_at_one_site() {
        let mut log = EventLog::default();
        let grant = |log: &mut EventLog, site: u32, ticket: u64| {
            log.emit(SimTime::ZERO, "lease.granted", Some(SiteId(site)), "lease", [("ticket", ticket)]);
        };
        grant(&mut log, 0, 0);
        grant(&mut log, 0, 1);
        grant(&mut log, 1, 1);
        log.emit(SimTime::ZERO, "lease.released", Some(SiteId(0)), "lease", [("ticket", 1u64)]);
        assert_eq!(lease_ids_unique(&log), Vec::<String>::new(), "one id at two sites is two tickets");
        grant(&mut log, 0, 1);
        assert_eq!(lease_ids_unique(&log), ["site 0: lease ticket 1 granted twice"]);
    }

    #[test]
    fn admission_ordering_names_each_inverted_pair() {
        assert!(admission_ordering(&[(9, 1.0, 0), (9, 0.99, 3), (9, 0.5, 40)]).is_empty());
        assert_eq!(
            admission_ordering(&[(9, 0.9, 5), (9, 0.95, 2), (9, 0.95, 9)]),
            [
                "gold succeeds 0.900 of the time, below silver's 0.950",
                "gold shed 5, more than silver's 2",
                "gold succeeds 0.900 of the time, below best_effort's 0.950",
            ]
        );
        // A class that offered nothing has a 0.0 ratio that ranks below no
        // one; the classes that did offer are still ranked against each other.
        assert!(admission_ordering(&[(0, 0.0, 0), (0, 0.0, 0), (1, 1.0, 0)]).is_empty());
        assert_eq!(
            admission_ordering(&[(0, 0.0, 0), (4, 0.5, 0), (4, 1.0, 0)]),
            ["silver succeeds 0.500 of the time, below best_effort's 1.000"]
        );
    }
}
