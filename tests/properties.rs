//! Randomized property tests over the core data structures and
//! invariants, driven by the deterministic in-tree `SimRng` (seeded per
//! property, so every run checks the same case set and failures
//! reproduce exactly).

use std::collections::HashMap;

use glare::core::deployfile::DeployFile;
use glare::core::hierarchy::TypeHierarchy;
use glare::core::invariants::lease_caps;
use glare::core::lease::{LeaseKind, LeaseManager, LeaseTicket};
use glare::core::model::ActivityType;
use glare::fabric::{SimDuration, SimRng, SimTime};
use glare::services::md5::{Md5, Md5Digest};
use glare::services::vfs::VPath;
use glare::wsrf::{parse_xml, XPath, XmlNode};

/// Cases per property; every case is derived from a fixed seed.
const CASES: u64 = 128;

// --- generators -----------------------------------------------------------

const NAME_FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const NAME_REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-";

fn arb_name(rng: &mut SimRng) -> String {
    let len = rng.range(1, 13) as usize;
    let mut s = String::with_capacity(len);
    s.push(NAME_FIRST[rng.index(NAME_FIRST.len())] as char);
    for _ in 1..len {
        s.push(NAME_REST[rng.index(NAME_REST.len())] as char);
    }
    s
}

/// Printable text including XML-hostile characters; the model trims
/// surrounding whitespace, so generate pre-trimmed text.
fn arb_text(rng: &mut SimRng) -> String {
    let len = rng.range(0, 25) as usize;
    let s: String = (0..len)
        .map(|_| (rng.range(0x20, 0x7f) as u8) as char)
        .collect();
    s.trim().to_owned()
}

fn arb_attrs(rng: &mut SimRng, node: &mut XmlNode) {
    for _ in 0..rng.range(0, 3) {
        let (k, v) = (arb_name(rng), arb_text(rng));
        // Attribute keys must be unique for round-trip equality.
        if node.attribute(&k).is_none() {
            node.attributes.push((k.into(), v));
        }
    }
}

fn arb_xml_tree(rng: &mut SimRng, depth: u32) -> XmlNode {
    if depth == 0 || rng.chance(0.3) {
        let mut n = XmlNode::new(arb_name(rng)).text(arb_text(rng));
        arb_attrs(rng, &mut n);
        return n;
    }
    let mut n = XmlNode::new(arb_name(rng));
    arb_attrs(rng, &mut n);
    for _ in 0..rng.range(0, 4) {
        n.children.push(arb_xml_tree(rng, depth - 1));
    }
    n
}

fn arb_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let mut v = vec![0u8; rng.index(max_len + 1)];
    rng.fill_bytes(&mut v);
    v
}

// --- XML ------------------------------------------------------------------

#[test]
fn xml_round_trips() {
    let mut rng = SimRng::from_seed(0x11A1);
    for _ in 0..CASES {
        let tree = arb_xml_tree(&mut rng, 3);
        let xml = tree.to_xml();
        let parsed = parse_xml(&xml).expect("own output must parse");
        assert_eq!(parsed, tree, "compact round trip of {xml}");
        // Pretty form parses to the same tree too.
        let pretty = parse_xml(&tree.to_xml_pretty()).expect("pretty parses");
        assert_eq!(pretty, tree, "pretty round trip of {xml}");
    }
}

#[test]
fn xml_subtree_size_counts_every_element() {
    fn count(n: &XmlNode) -> usize {
        1 + n.children.iter().map(count).sum::<usize>()
    }
    let mut rng = SimRng::from_seed(0x11A2);
    for _ in 0..CASES {
        let tree = arb_xml_tree(&mut rng, 3);
        assert_eq!(tree.subtree_size(), count(&tree));
    }
}

/// XPath `//Name` must agree with a naive recursive search.
#[test]
fn xpath_descendant_matches_naive_search() {
    fn naive(n: &XmlNode, name: &str) -> usize {
        usize::from(n.name == name) + n.children.iter().map(|c| naive(c, name)).sum::<usize>()
    }
    let mut rng = SimRng::from_seed(0x11A3);
    for _ in 0..CASES {
        let tree = arb_xml_tree(&mut rng, 3);
        // Mix misses with guaranteed hits: half the needles are sampled
        // from names that actually occur in the tree.
        let needle = if rng.chance(0.5) {
            arb_name(&mut rng)
        } else {
            let mut names = Vec::new();
            fn collect(n: &XmlNode, out: &mut Vec<String>) {
                out.push(n.name.to_string());
                for c in &n.children {
                    collect(c, out);
                }
            }
            collect(&tree, &mut names);
            names[rng.index(names.len())].clone()
        };
        let expr = XPath::compile(&format!("//{needle}")).unwrap();
        assert_eq!(expr.select(&tree).len(), naive(&tree, &needle));
    }
}

// --- MD5 ------------------------------------------------------------------

#[test]
fn md5_streaming_equals_oneshot() {
    let mut rng = SimRng::from_seed(0x3D5A);
    for _ in 0..CASES {
        let data = arb_bytes(&mut rng, 2048);
        let split = rng.index(data.len() + 1);
        let mut ctx = Md5::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        assert_eq!(
            ctx.finalize(),
            Md5Digest::of(&data),
            "len {} split {split}",
            data.len()
        );
    }
}

#[test]
fn md5_hex_round_trips() {
    let mut rng = SimRng::from_seed(0x3D5B);
    for _ in 0..CASES {
        let d = Md5Digest::of(&arb_bytes(&mut rng, 256));
        assert_eq!(Md5Digest::from_hex(&d.to_hex()), Some(d));
    }
}

// --- VPath ----------------------------------------------------------------

#[test]
fn vpath_normalization_is_idempotent() {
    const RAW: &[u8] = b"abcdefghijklmnopqrstuvwxyz./";
    let mut rng = SimRng::from_seed(0x7A41);
    for _ in 0..CASES {
        let raw: String = (0..rng.range(0, 41))
            .map(|_| RAW[rng.index(RAW.len())] as char)
            .collect();
        let once = VPath::new(&raw);
        let twice = VPath::new(once.as_str());
        assert_eq!(once, twice, "raw {raw:?}");
        assert!(once.as_str().starts_with('/'));
        assert!(!once.as_str().contains("//") || once.as_str() == "/");
        assert!(!once.as_str().contains("/./"));
        assert!(!once.as_str().contains("/../"));
    }
}

#[test]
fn vpath_join_stays_inside_parent() {
    const SEG: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut rng = SimRng::from_seed(0x7A42);
    let word = |rng: &mut SimRng| -> String {
        (0..rng.range(1, 9))
            .map(|_| SEG[rng.index(SEG.len())] as char)
            .collect()
    };
    for _ in 0..CASES {
        let parent = VPath::new(&format!("/{}", word(&mut rng)));
        let child = parent.join(&word(&mut rng));
        assert!(child.starts_with(&parent));
        assert_eq!(child.parent(), Some(parent));
    }
}

// --- Leasing --------------------------------------------------------------

/// Whatever sequence of lease requests is made, granted exclusive leases
/// never overlap anything on the same deployment, and shared occupancy
/// never exceeds capacity.
#[test]
fn lease_invariants() {
    let mut rng = SimRng::from_seed(0x1EA5);
    for _ in 0..CASES {
        let mut m = LeaseManager::new();
        m.set_capacity("d0", 2);
        for _ in 0..rng.range(1, 40) {
            let dep = format!("d{}", rng.range(0, 3));
            let kind = if rng.chance(0.5) {
                LeaseKind::Exclusive
            } else {
                LeaseKind::Shared
            };
            let from = rng.range(0, 50);
            let len = rng.range(1, 30);
            let _ = m.acquire(
                &dep,
                &format!("c{}", rng.range(0, 4)),
                kind,
                SimTime::from_secs(from),
                SimTime::from_secs(from + len),
            );
        }
        assert!(sampled_caps_hold(&m), "the grant checks let a ledger break its caps");
        assert_eq!(lease_caps(0, &m), Vec::<String>::new());
    }
}

/// The lease caps, sampled at every second of the 80 s horizon the lease
/// generators draw from: at each instant an active exclusive lease is alone
/// on its deployment and the shared ones stay within its capacity. With
/// whole-second tickets this sees every overlap there is.
fn sampled_caps_hold(m: &LeaseManager) -> bool {
    (0..80).map(SimTime::from_secs).all(|at| {
        ["d0", "d1", "d2"].iter().all(|dep| {
            let active = m.active_leases(dep, at);
            let exclusive = active.iter().any(|l| l.kind == LeaseKind::Exclusive);
            let shared = active.iter().filter(|l| l.kind == LeaseKind::Shared).count();
            (!exclusive || active.len() == 1) && shared as u32 <= m.capacity(dep)
        })
    })
}

/// `lease_caps`' sweep line against the per-second sampling, on ledgers
/// restored ticket by ticket, which bypasses the grant checks, so caps
/// break freely: the sweep finds nothing exactly when the sampling does.
/// Tickets often end where another starts, which the sweep must not count
/// as concurrent.
#[test]
fn lease_caps_agrees_with_sampling() {
    let mut rng = SimRng::from_seed(0x1EA6);
    let mut broken = 0;
    for _ in 0..CASES {
        let mut m = LeaseManager::new();
        m.set_capacity("d0", 2);
        m.set_capacity("d1", 1);
        for id in 0..rng.range(1, 12) {
            let kind = if rng.chance(0.2) { LeaseKind::Exclusive } else { LeaseKind::Shared };
            let from = 10 * rng.range(0, 5);
            m.restore(LeaseTicket {
                id,
                deployment: format!("d{}", rng.range(0, 3)),
                client: format!("c{id}"),
                kind,
                from: SimTime::from_secs(from),
                until: SimTime::from_secs(from + 10 * rng.range(1, 3)),
            });
        }
        let found = lease_caps(0, &m);
        assert_eq!(found.is_empty(), sampled_caps_hold(&m), "{found:?} over {:?}", m.tickets());
        broken += usize::from(!found.is_empty());
    }
    assert!(broken > 0 && broken < CASES as usize, "{broken} of {CASES} ledgers broken");
}

// --- Hierarchy ------------------------------------------------------------

/// Every concrete type reachable via resolve_concrete is a subtype of the
/// queried name, and resolution never reports duplicates.
#[test]
fn hierarchy_resolution_sound() {
    let mut rng = SimRng::from_seed(0x41E7);
    for _ in 0..CASES {
        let mut h = TypeHierarchy::new();
        // Build types T0..T7; even ones abstract, odd ones concrete.
        // Only add child->parent edges where child > parent (acyclic).
        let mut bases: Vec<Vec<String>> = vec![Vec::new(); 8];
        for _ in 0..rng.range(0, 16) {
            let (a, b) = (rng.range(0, 8), rng.range(0, 8));
            let (child, parent) = (a.max(b), a.min(b));
            if child != parent {
                let p = format!("T{parent}");
                if !bases[child as usize].contains(&p) {
                    bases[child as usize].push(p);
                }
            }
        }
        for (i, base) in bases.iter().enumerate() {
            let mut t = if i % 2 == 1 {
                ActivityType::concrete_type(&format!("T{i}"), "d", "wien2k")
            } else {
                ActivityType::abstract_type(&format!("T{i}"), "d")
            };
            t.base_types = base.clone();
            h.insert(&t);
        }
        for i in 0..8u8 {
            let name = format!("T{i}");
            let resolved = h.resolve_concrete(&name);
            // No duplicates.
            let mut dedup = resolved.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), resolved.len());
            // Soundness: each result is a subtype of the query.
            for r in &resolved {
                assert!(h.is_subtype_of(r, &name), "{r} !<= {name}");
            }
            assert!(!h.has_cycle_from(&name));
            // The incremental cycle guard agrees with the ground truth:
            // re-adding the existing (acyclic) base edges is never
            // flagged, while closing a loop back from any ancestor is.
            assert!(!h.would_cycle(&name, &bases[i as usize]));
        }
    }
}

// --- Deploy files ----------------------------------------------------------

/// Generated deploy-files always validate, round-trip through XML, and
/// plan in an order where each step follows its dependencies.
#[test]
fn deployfile_plans_respect_dependencies() {
    let cat = glare::services::packages::catalog();
    for spec in &cat {
        let df = DeployFile::for_package(spec, None);
        df.validate().expect("generated files are valid");
        let back = DeployFile::from_xml(&df.to_xml()).expect("round trip");
        assert_eq!(back, df);

        let env = HashMap::from([
            ("DEPLOYMENT_DIR".to_owned(), "/opt/deployments".to_owned()),
            ("GLOBUS_SCRATCH_DIR".to_owned(), "/scratch".to_owned()),
            ("GLOBUS_LOCATION".to_owned(), "/opt/globus".to_owned()),
            ("USER_HOME".to_owned(), "/home/grid".to_owned()),
        ]);
        let plan = df.plan(&env).expect("plannable");
        let position: HashMap<&str, usize> = plan
            .iter()
            .enumerate()
            .map(|(i, a)| (a.step_name(), i))
            .collect();
        for step in &df.steps {
            for dep in &step.depends {
                assert!(position[dep.as_str()] < position[step.name.as_str()]);
            }
        }
    }
}

// --- Shell ------------------------------------------------------------------

/// Variable expansion leaves $-free strings untouched and is idempotent
/// once all variables are resolved.
#[test]
fn expand_vars_behaves() {
    use glare::services::shell::expand_vars;
    const TEXT: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 /._-";
    let mut rng = SimRng::from_seed(0x5E11);
    let env = HashMap::from([("HOME".to_owned(), "/home/grid".to_owned())]);
    for _ in 0..CASES {
        let text: String = (0..rng.range(0, 41))
            .map(|_| TEXT[rng.index(TEXT.len())] as char)
            .collect();
        assert_eq!(expand_vars(&text, &env), text);
        // Braced form delimits the name even when followed by word chars.
        let with_var = format!("{text}${{HOME}}{text}");
        let expanded = expand_vars(&with_var, &env);
        assert_eq!(expanded, format!("{text}/home/grid{text}"));
        // Idempotent on the result (no remaining $NAMES).
        assert_eq!(expand_vars(&expanded, &env), expanded);
        // The bare form ends at the first non-word character; an unset
        // variable expands to nothing, in either form.
        let bare = format!("$HOME/{text}");
        assert_eq!(expand_vars(&bare, &env), format!("/home/grid/{text}"));
        let unset = format!("{text}$UNSET_/${{UNSET}}{text}");
        assert_eq!(expand_vars(&unset, &env), format!("{text}/{text}"));
    }
}

// --- Fabric time ------------------------------------------------------------

#[test]
fn simtime_arithmetic_consistent() {
    let mut rng = SimRng::from_seed(0x71ED);
    for _ in 0..CASES {
        let t = SimTime::from_micros(rng.range(0, 1_000_000));
        let d = SimDuration::from_micros(rng.range(0, 1_000_000));
        let t2 = t + d;
        assert_eq!(t2.since(t), d);
        assert_eq!(t2.saturating_since(t), d);
        assert_eq!(t.saturating_since(t2), SimDuration::ZERO);
    }
}
