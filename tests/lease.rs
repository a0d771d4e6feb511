//! Integration coverage for deployment leasing (§3.2): exclusive vs
//! shared conflict windows, the shared concurrency cap, and reclamation
//! of expired tickets, exercised as scenarios over simulated time.

use glare::core::grid::Grid;
use glare::core::lease::{LeaseKind, LeaseManager, DEFAULT_SHARED_CAPACITY};
use glare::core::GlareError;
use glare::fabric::SimTime;
use glare::services::Transport;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// An exclusive lease owns its whole window: shared and exclusive
/// requests are denied anywhere inside it, in any overlap shape, and
/// granted the instant the window closes.
#[test]
fn exclusive_window_conflicts() {
    let mut m = LeaseManager::new();
    m.acquire("povray@s1", "alice", LeaseKind::Exclusive, t(100), t(200))
        .unwrap();

    // Every overlap shape against [100, 200): leading, trailing,
    // contained, containing, exact.
    for (from, until) in [
        (t(50), t(101)),
        (t(199), t(300)),
        (t(120), t(180)),
        (t(50), t(300)),
        (t(100), t(200)),
    ] {
        assert!(
            m.acquire("povray@s1", "bob", LeaseKind::Shared, from, until)
                .is_err(),
            "shared [{from:?}, {until:?}) must be denied inside an exclusive window"
        );
        assert!(
            m.acquire("povray@s1", "bob", LeaseKind::Exclusive, from, until)
                .is_err(),
            "exclusive [{from:?}, {until:?}) must be denied inside an exclusive window"
        );
    }

    // The boundaries are half-open: [_, 100) and [200, _) do not touch it.
    assert!(m
        .acquire("povray@s1", "bob", LeaseKind::Shared, t(0), t(100))
        .is_ok());
    assert!(m
        .acquire("povray@s1", "carol", LeaseKind::Exclusive, t(200), t(250))
        .is_ok());

    // Authorization follows the tickets: only the holder may
    // instantiate inside the window.
    assert!(m.authorized("povray@s1", "alice", t(150)));
    assert!(!m.authorized("povray@s1", "bob", t(150)));
    assert!(m.blocked_for("povray@s1", "bob", t(150)));
    assert!(!m.blocked_for("povray@s1", "alice", t(150)));
}

/// Shared leases admit concurrent clients up to the per-deployment
/// capacity; an exclusive request is blocked while any shared lease is
/// live, and other deployments are unaffected.
#[test]
fn shared_cap_and_exclusive_interplay() {
    let mut m = LeaseManager::new();
    m.set_capacity("wien2k@s2", 3);

    for client in ["a", "b", "c"] {
        m.acquire("wien2k@s2", client, LeaseKind::Shared, t(0), t(60))
            .unwrap();
    }
    // Capacity 3 exhausted anywhere in the window...
    assert!(m
        .acquire("wien2k@s2", "d", LeaseKind::Shared, t(30), t(40))
        .is_err());
    // ...and an exclusive request cannot evict the sharers.
    assert!(m
        .acquire("wien2k@s2", "d", LeaseKind::Exclusive, t(30), t(40))
        .is_err());
    // A different deployment on the same manager still has the default cap.
    for i in 0..DEFAULT_SHARED_CAPACITY {
        m.acquire("invmod@s3", &format!("u{i}"), LeaseKind::Shared, t(0), t(60))
            .unwrap();
    }
    assert!(m
        .acquire("invmod@s3", "overflow", LeaseKind::Shared, t(0), t(60))
        .is_err());

    // Releasing one sharer frees a slot immediately.
    let freed = m
        .acquire("wien2k@s2", "e", LeaseKind::Shared, t(60), t(90))
        .unwrap();
    m.release(freed.id).unwrap();
    assert!(m
        .acquire("wien2k@s2", "f", LeaseKind::Shared, t(60), t(90))
        .is_ok());
}

/// Expired tickets are reclaimed by the sweep: capacity and exclusivity
/// are computed over live tickets only, and a periodic sweep keeps the
/// manager's footprint bounded.
#[test]
fn expiry_reclamation() {
    let mut m = LeaseManager::new();
    m.set_capacity("d", 2);

    // A rolling workload: each epoch, two sharers take the deployment
    // for 10 s; the sweep at the end of each epoch reclaims them.
    for epoch in 0..5u64 {
        let from = t(epoch * 10);
        let until = t(epoch * 10 + 10);
        m.acquire("d", "a", LeaseKind::Shared, from, until).unwrap();
        m.acquire("d", "b", LeaseKind::Shared, from, until).unwrap();
        assert!(
            m.acquire("d", "c", LeaseKind::Shared, from, until).is_err(),
            "cap 2 holds within epoch {epoch}"
        );
        assert_eq!(m.sweep_expired(until), 2, "both epoch leases reclaimed");
        assert!(m.is_empty(), "nothing outlives its epoch");
    }

    // Sweeping mid-window keeps live tickets: until > now survives.
    m.acquire("d", "a", LeaseKind::Exclusive, t(100), t(110))
        .unwrap();
    assert_eq!(m.sweep_expired(t(105)), 0);
    assert!(m.authorized("d", "a", t(105)));
    assert_eq!(m.sweep_expired(t(110)), 1);
    assert!(!m.authorized("d", "a", t(105)), "ticket gone after reclaim");

    // After reclamation the window is free for a new exclusive holder.
    assert!(m
        .acquire("d", "b", LeaseKind::Exclusive, t(100), t(110))
        .is_ok());
}

/// The concurrency cap holds across a crash and restart of the granting
/// site: the crash wipes the ledger, calls during the outage fail
/// explicitly through the retry layer, restart replays the journaled
/// tickets, and the restart-time sweep reclaims exactly those that expired
/// while the site was down. The cap is site configuration and survives.
#[test]
fn caps_hold_across_crash_and_restart_of_granting_site() {
    let mut g = Grid::new(3, Transport::Http);
    let dep = "wien2k@site0";
    g.site_mut(0).leases.set_capacity(dep, 2);

    // Fill the cap for [10, 50); the overflow request is rejected.
    g.acquire_lease(0, dep, "a", LeaseKind::Shared, t(10)..t(50), t(1))
        .unwrap();
    g.acquire_lease(0, dep, "b", LeaseKind::Shared, t(10)..t(50), t(2))
        .unwrap();
    assert!(g
        .acquire_lease(0, dep, "c", LeaseKind::Shared, t(20)..t(40), t(3))
        .is_err());

    // The granting site crashes. Retried calls burn their budget and
    // fail with an explicit SiteUnavailable — never a silent grant.
    g.crash_site(0, t(5));
    let (res, cost) = g.acquire_lease_retrying(0, dep, "c", LeaseKind::Shared, t(20)..t(40), t(6));
    assert!(
        matches!(res, Err(GlareError::SiteUnavailable { .. })),
        "calls against a crashed site fail explicitly, got {res:?}"
    );
    assert!(cost > glare::fabric::SimDuration::ZERO, "the failure cost time");
    assert_eq!(g.site(0).leases.len(), 0, "the crash wiped the ledger");
    assert_eq!(g.site(0).leases.capacity(dep), 2, "but not the cap");

    // Restart after the window closed: replay brings both tickets back and
    // the sweep reclaims them, so the freed capacity is usable again.
    let reclaimed = g.restart_site(0, t(60));
    assert_eq!(reclaimed, 2, "both expired tickets reclaimed on the way up");
    g.acquire_lease(0, dep, "d", LeaseKind::Shared, t(60)..t(100), t(61))
        .unwrap();
    g.acquire_lease(0, dep, "e", LeaseKind::Shared, t(60)..t(100), t(62))
        .unwrap();
    assert!(
        g.acquire_lease(0, dep, "f", LeaseKind::Shared, t(70)..t(90), t(63))
            .is_err(),
        "the cap still holds in the post-restart epoch"
    );
    assert_eq!(g.site(0).leases.len(), 2, "only the live epoch remains");
}
