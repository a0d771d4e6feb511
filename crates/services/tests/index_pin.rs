//! Pins what the index answers, end to end: a seeded walk of registrations,
//! refreshes (with and without new content, of live, removed and never
//! issued ids), removals and queries (by XPath and by name, valid and not),
//! all at time zero. Every returned cost and error, every match, scan count
//! and query cost, and the final aggregate document are folded into one
//! FNV digest. The value was captured before the aggregate document became
//! the index's only copy of its entries, and must never move: a change
//! *meant* to alter what the index answers replaces it, anything else has
//! diverged.

use std::fmt::Write;

use glare_fabric::store::fnv1a;
use glare_fabric::{SimRng, SimTime};
use glare_services::{IndexKind, IndexService, QueryResponse, Transport};
use glare_wsrf::{EntryId, WsrfError, XmlNode};

const NOW: SimTime = SimTime::ZERO;

fn entry(name: &str, domain: &str) -> XmlNode {
    XmlNode::new("ActivityType")
        .attr("name", name)
        .child_text("Domain", domain)
}

fn answer(log: &mut String, r: Result<QueryResponse, WsrfError>) {
    match r {
        Ok(r) => {
            let _ = write!(log, "q {} {} [", r.scanned, r.cost.as_nanos());
            for m in &r.matches {
                let _ = write!(log, "{}|", m.to_xml());
            }
            let _ = writeln!(log, "]");
        }
        Err(e) => {
            let _ = writeln!(log, "q! {e:?}");
        }
    }
}

/// The log of one seeded walk over an index on `transport`.
fn walk(seed: u64, transport: Transport) -> String {
    const DOMAINS: [&str; 3] = ["imaging", "chemistry", "physics"];
    const QUERIES: [&str; 6] = [
        "//Entry",
        "//ActivityType",
        "//ActivityType[Domain='imaging']",
        "//Entry[@member='site1']",
        "/ServiceGroup/Entry/ActivityType/Domain",
        "][",
    ];
    let mut rng = SimRng::from_seed(seed);
    let mut idx = IndexService::new("pin-index", IndexKind::Default, transport);
    let mut issued: Vec<EntryId> = Vec::new();
    let mut log = String::new();
    let mut serial = 0;
    for _ in 0..400 {
        let domain = DOMAINS[rng.index(DOMAINS.len())];
        match rng.range(0, 10) {
            0..=2 => {
                serial += 1;
                let name = match serial % 7 {
                    3 => format!("O'n{serial}"),
                    5 => format!("say \"n{serial}\""),
                    _ => format!("n{serial}"),
                };
                let member = format!("site{}", rng.range(0, 3));
                let (id, cost) = idx.register(&member, entry(&name, domain), NOW);
                issued.push(id);
                let _ = writeln!(log, "reg {} {}", id.0, cost.as_nanos());
            }
            3..=4 => {
                // Any id ever issued (live or removed), or one never issued.
                let id = match issued.len() {
                    0 => EntryId(9_999),
                    n if rng.chance(0.1) => EntryId(n as u64 + 50),
                    n => issued[rng.index(n)],
                };
                serial += 1;
                let content = rng.chance(0.5).then(|| entry(&format!("n{serial}"), domain));
                let r = idx.refresh(id, content, NOW);
                let _ = writeln!(log, "ref {} {:?}", id.0, r.map(|c| c.as_nanos()));
            }
            5 if !issued.is_empty() => {
                let id = issued[rng.index(issued.len())];
                let _ = writeln!(log, "rm {} {:?}", id.0, idx.remove(id));
            }
            6..=7 => {
                let xpath = QUERIES[rng.index(QUERIES.len())];
                answer(&mut log, idx.query(xpath, NOW));
            }
            _ => {
                let name = match rng.range(0, 4) {
                    0 => "O'Brien \"Jr\"".to_owned(),
                    1 => "missing".to_owned(),
                    _ => format!("n{}", rng.range(1, serial.max(1) + 1)),
                };
                answer(&mut log, idx.query_by_name("ActivityType", &name, NOW));
            }
        }
    }
    let _ = writeln!(
        log,
        "len {} served {} aggregate {}",
        idx.len(NOW),
        idx.queries_served(),
        idx.aggregate(NOW).to_xml()
    );
    log
}

#[test]
fn the_index_answers_what_is_pinned() {
    let mut digests = Vec::new();
    for seed in [7, 4212, 0x1DE5] {
        for transport in [Transport::Http, Transport::Https] {
            let log = walk(seed, transport);
            // The walk reaches every path it is meant to pin.
            for seen in [
                "ref", " Ok(", "Err(NoSuchEntry", "rm", "q! InvalidQuery", " []\n", "<Domain>",
            ] {
                assert!(log.contains(seen), "seed {seed}: no {seen:?} in the walk");
            }
            digests.push(fnv1a(log.as_bytes()));
        }
    }
    let pinned: [u64; 6] = [
        0x6b9c_9b0c_d32c_ae88,
        0xef0a_e6ba_ef91_94cb,
        0x3d85_69d8_8573_94d1,
        0xc0de_d0c0_880f_7ca0,
        0xe21f_a869_037e_c68e,
        0x5d02_dbda_e759_dc8f,
    ];
    assert_eq!(digests, pinned, "what the index answers has moved: {digests:#x?}");
}
