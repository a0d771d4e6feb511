//! Allocation pins for the event log's columns, in the shape `load_2x`
//! keeps 200 000 of: the admission door's `query.shed` record, a literal
//! class label, a shared activity name and a float retry-after hint.
//!
//! A full log holds such a record in 72 bytes: a 24-byte row (time, site,
//! kind, component, the end of its fields) and three 16-byte field cells.
//! Once the columns have grown, keeping one more record allocates nothing,
//! and the log holds one reference to a shared name however many records
//! carry it. Before the log kept columns, each record was an 80-byte
//! struct in a doubling vector plus its own 120-byte vector of fields:
//! this first pin measured 251 bytes a record there.
//!
//! The test owns its binary because it installs a counting global
//! allocator (`support/counting_alloc.rs`, shared with the other
//! allocation pins); the tally is per thread, so the harness's own threads
//! do not disturb it.

use std::sync::Arc;

use glare_fabric::{EventLog, FieldValue, SimTime, Simulation, SiteId, Topology};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

/// Records a full log holds.
const RECORDS: u64 = 10_000;

/// Bytes the log's tables of names and shared names take, whatever it holds.
const TABLES: u64 = 512;

/// A log bounded at `RECORDS` records, as a simulation enables one.
fn bounded_log() -> EventLog {
    let mut sim = Simulation::new(Topology::uniform(1), 7);
    sim.enable_events(RECORDS as usize);
    sim.take_events().expect("events enabled")
}

/// The activity names the records cycle through.
fn activities() -> Vec<Arc<str>> {
    ["Imaging", "JPOVray", "Wien2k", "Invmod"]
        .map(Arc::from)
        .to_vec()
}

/// Keep record `i`, shaped as the admission door's `query.shed`.
fn shed(log: &mut EventLog, i: u64, activities: &[Arc<str>]) {
    let activity = &activities[i as usize % activities.len()];
    log.emit_with(
        SimTime::from_micros(i),
        "query.shed",
        Some(SiteId(3)),
        "admission",
        || {
            [
                ("class", FieldValue::from("gold")),
                ("activity", Arc::clone(activity).into()),
                ("retry_after_ms", (i as f64 * 0.5).into()),
            ]
        },
    );
}

/// `(allocations, bytes still held)` while records `range` are kept.
fn keep(log: &mut EventLog, range: std::ops::Range<u64>, activities: &[Arc<str>]) -> (u64, u64) {
    let before = tally();
    for i in range {
        shed(log, i, activities);
    }
    let after = tally();
    (
        after.0 - before.0,
        (after.1 - before.1) - (after.2 - before.2),
    )
}

#[test]
fn a_full_log_holds_a_shed_record_in_72_bytes() {
    let activities = activities();
    let mut log = bounded_log();
    let (_, held) = keep(&mut log, 0..RECORDS, &activities);
    assert_eq!((log.len() as u64, log.dropped()), (RECORDS, 0));
    assert!(
        held <= 72 * RECORDS + TABLES,
        "{RECORDS} records hold {held} B, {:.1} B each",
        held as f64 / RECORDS as f64
    );
}

#[test]
fn a_kept_record_allocates_nothing_once_the_columns_have_grown() {
    let activities = activities();
    let mut log = bounded_log();
    // Nine tenths of the bound: both columns have grown to what it projects.
    let warm = RECORDS * 9 / 10;
    let (blocks, _) = keep(&mut log, 0..warm, &activities);
    assert!(
        blocks < 40,
        "the columns grew in {blocks} steps, not one per record"
    );
    assert_eq!(keep(&mut log, warm..RECORDS, &activities), (0, 0));
    assert_eq!(log.len() as u64, RECORDS);
    // Past the bound a record is counted, not kept: still nothing.
    assert_eq!(keep(&mut log, RECORDS..2 * RECORDS, &activities), (0, 0));
    assert_eq!(log.dropped(), RECORDS);
}

#[test]
fn the_log_holds_a_shared_name_once_however_many_records_carry_it() {
    let activities = activities();
    let mut log = bounded_log();
    keep(&mut log, 0..16, &activities);
    let counts: Vec<usize> = activities.iter().map(Arc::strong_count).collect();
    assert_eq!(counts, [2; 4], "the caller's reference and the log's");
    keep(&mut log, 16..RECORDS, &activities);
    let counts: Vec<usize> = activities.iter().map(Arc::strong_count).collect();
    assert_eq!(counts, [2; 4], "{RECORDS} records later, still one each");
    let jpovray = log
        .records()
        .filter(|r| r.field("activity").as_deref() == Some("JPOVray"));
    assert_eq!(jpovray.count() as u64, RECORDS / 4);
}
