//! Multi-thread stress test for the registries' lock-free-for-readers
//! path: writer threads register activity types while reader threads do
//! named lookups and XPath queries against the same shared `Arc`s — no
//! outer `Mutex`. Verifies no panics, no lost stat updates, and that the
//! `lookups_served` counter is monotone under contention.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use glare::core::model::ActivityType;
use glare::core::{ActivityDeploymentRegistry, ActivityTypeRegistry};
use glare::fabric::SimTime;
use glare::services::Transport;

const WRITERS: usize = 4;
const READERS: usize = 8;
const TYPES_PER_WRITER: usize = 50;
const SEEDED_TYPES: usize = 20;

fn type_entry(name: &str) -> ActivityType {
    ActivityType::concrete_type(name, "stress", "wien2k")
        .with_function("run", &["in:data"], &["out:data"])
}

#[test]
fn concurrent_writers_and_readers_keep_registry_consistent() {
    let atr = Arc::new(ActivityTypeRegistry::new("https://stress/ATR", Transport::Http));
    // Seed a stable population readers can always hit.
    for i in 0..SEEDED_TYPES {
        atr.register(type_entry(&format!("Seed{i}")), SimTime::ZERO)
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reader_lookups = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();

    // Writers: each registers a disjoint set of names.
    for w in 0..WRITERS {
        let atr = atr.clone();
        handles.push(thread::spawn(move || {
            for i in 0..TYPES_PER_WRITER {
                atr.register(type_entry(&format!("W{w}T{i}")), SimTime::ZERO)
                    .expect("disjoint names never collide");
            }
        }));
    }

    // Readers: named lookups + XPath queries against the live structure.
    for r in 0..READERS {
        let atr = atr.clone();
        let stop = stop.clone();
        let reader_lookups = reader_lookups.clone();
        handles.push(thread::spawn(move || {
            let mut i = 0usize;
            let mut last_served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let name = format!("Seed{}", i % SEEDED_TYPES);
                i += 1;
                let hit = atr.lookup(&name, SimTime::ZERO);
                assert!(hit.is_some(), "reader {r}: seeded {name} must stay visible");
                reader_lookups.fetch_add(1, Ordering::Relaxed);
                // The stat counter is monotone from any single observer.
                let served = atr.lookups_served();
                assert!(
                    served >= last_served,
                    "reader {r}: lookups_served went backwards ({last_served} -> {served})"
                );
                last_served = served;
                if i.is_multiple_of(16) {
                    let resp = atr
                        .query_xpath("//ActivityTypeEntry[@domain='stress']")
                        .expect("xpath stays valid");
                    assert!(
                        resp.value.len() >= SEEDED_TYPES,
                        "reader {r}: query lost seeded entries"
                    );
                }
            }
        }));
    }

    // Join writers first (the first WRITERS handles), then release readers.
    for h in handles.drain(..WRITERS) {
        h.join().expect("writer thread must not panic");
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("reader thread must not panic");
    }

    // Nothing written was lost.
    let now = SimTime::ZERO;
    assert_eq!(atr.len(now), SEEDED_TYPES + WRITERS * TYPES_PER_WRITER);
    for w in 0..WRITERS {
        for i in 0..TYPES_PER_WRITER {
            assert!(atr.contains(&format!("W{w}T{i}")), "lost W{w}T{i}");
        }
    }
    // No lost stat updates: every reader-side increment and the final
    // verification lookups all landed in the atomic counter.
    let counted_before_check = atr.lookups_served();
    assert!(
        counted_before_check >= reader_lookups.load(Ordering::Relaxed),
        "lookups_served {counted_before_check} lost reader increments"
    );
}

#[test]
fn concurrent_deployment_registrations_do_not_lose_index_entries() {
    let atr = Arc::new(ActivityTypeRegistry::new("https://stress/ATR", Transport::Http));
    for t in 0..5 {
        atr.register(type_entry(&format!("Type{t}")), SimTime::ZERO)
            .unwrap();
    }
    let adr = Arc::new(ActivityDeploymentRegistry::new(
        "https://stress/ADR",
        Transport::Http,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    for w in 0..WRITERS {
        let atr = atr.clone();
        let adr = adr.clone();
        handles.push(thread::spawn(move || {
            for i in 0..TYPES_PER_WRITER {
                let d = glare::core::model::ActivityDeployment::executable(
                    &format!("Type{}", i % 5),
                    &format!("site{w}"),
                    &format!("/opt/deployments/dep-w{w}-{i}"),
                    "/opt/deployments",
                );
                adr.register(d, &atr, SimTime::ZERO).expect("register");
            }
        }));
    }
    for _ in 0..READERS {
        let adr = adr.clone();
        let stop = stop.clone();
        handles.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for t in 0..5 {
                    let found = adr.deployments_of(&format!("Type{t}"), SimTime::ZERO);
                    // Entries only accumulate during this test.
                    std::hint::black_box(found.value.len());
                }
            }
        }));
    }

    for h in handles.drain(..WRITERS) {
        h.join().expect("writer thread must not panic");
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("reader thread must not panic");
    }

    let now = SimTime::ZERO;
    let total: usize = (0..5)
        .map(|t| adr.deployments_of(&format!("Type{t}"), now).value.len())
        .sum();
    assert_eq!(
        total,
        WRITERS * TYPES_PER_WRITER,
        "type index lost or duplicated deployments"
    );
}
