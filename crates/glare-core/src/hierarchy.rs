//! The abstract/concrete type hierarchy and its resolution logic.
//!
//! "Abstract activity types are used to discover concrete activity types
//! and a concrete type identifies available activity deployments" (§3.1).
//! Discovery walks *down* the hierarchy: a request for `Imaging` finds
//! `JPOVray` because JPOVray (transitively) extends Imaging. The hierarchy
//! is a DAG — Fig. 2's JPOVray extends both POVray and Imaging.
//!
//! A type's kind and base types live in its ATR entry and are read from
//! there; this index keeps only what a named read cannot answer: the
//! reverse (base → extending type) edges and the memoised closures.
//!
//! Not to be confused with the *super-peer tree* (`superpeer` module,
//! DESIGN.md §9b): this hierarchy relates activity *types* to one another,
//! while the overlay tree groups *sites* under elected super-peers for
//! query routing. The two are orthogonal — a query names a type from this
//! DAG and travels along the overlay tree.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use glare_fabric::sync::RwLock;
use glare_wsrf::ResourceHome;

use crate::model::{ActivityType, TypeKind};

/// The ATR's resource home: every registered type, stored once.
pub(crate) type TypeHome = ResourceHome<Arc<ActivityType>>;

/// Reverse extension edges and closure memo over the types of one home.
#[derive(Clone, Default)]
pub(crate) struct TypeHierarchy {
    /// base type -> types that directly extend it, in (re)registration
    /// order (no empty lists).
    children: HashMap<String, Vec<String>>,
    /// name -> its concrete closure, filled on first resolution and
    /// emptied by every edge change. Only names the home or the edge map
    /// mention are stored, so it never outgrows them.
    closures: RwLock<HashMap<String, Arc<[String]>>>,
}

impl TypeHierarchy {
    /// Add the edges from `t`'s base types down to `t`.
    pub(crate) fn link(&mut self, t: &ActivityType) {
        self.closures.get_mut().clear();
        for base in &t.base_types {
            self.children
                .entry(base.clone())
                .or_default()
                .push(t.name.clone());
        }
    }

    /// Remove the edges from `t`'s base types down to `t`.
    pub(crate) fn unlink(&mut self, t: &ActivityType) {
        self.closures.get_mut().clear();
        for base in &t.base_types {
            if let Some(kids) = self.children.get_mut(base) {
                kids.retain(|k| *k != t.name);
                if kids.is_empty() {
                    self.children.remove(base);
                }
            }
        }
    }

    /// All *concrete* types at or below `name` in `home` (the §2.2
    /// "iterative lookup"), deduplicated, in discovery order, as a shared
    /// slice: the walk runs once per name between edge changes, every
    /// later call is one hash lookup. Names neither `home` nor an edge
    /// mentions are answered empty without being remembered.
    pub(crate) fn concrete_closure(&self, name: &str, home: &TypeHome) -> Arc<[String]> {
        if let Some(hit) = self.closures.read().get(name) {
            return Arc::clone(hit);
        }
        if !self.children.contains_key(name) && !home.contains(name) {
            return Arc::default();
        }
        let closure: Arc<[String]> = self.walk_concrete(name, home).into();
        self.closures
            .write()
            .insert(name.to_owned(), Arc::clone(&closure));
        closure
    }

    /// BFS over extension edges from `name`, collecting concrete types.
    fn walk_concrete(&self, name: &str, home: &TypeHome) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([name]);
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur) {
                continue;
            }
            if home.with_resource(cur, |r| r.payload.kind) == Some(TypeKind::Concrete) {
                out.push(cur.to_owned());
            }
            if let Some(kids) = self.children.get(cur) {
                queue.extend(kids.iter().map(String::as_str));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atr::ActivityTypeRegistry;
    use crate::error::GlareError;
    use crate::model::example_hierarchy;
    use glare_fabric::{SimRng, SimTime};
    use glare_services::Transport;

    const NOW: SimTime = SimTime::ZERO;

    fn fig2() -> ActivityTypeRegistry {
        let r = ActivityTypeRegistry::new("a", Transport::Http);
        for t in example_hierarchy(NOW) {
            r.register(t, NOW).unwrap();
        }
        r
    }

    fn closure(r: &ActivityTypeRegistry, name: &str) -> Vec<String> {
        r.concrete_closure(name).to_vec()
    }

    /// `name`'s transitive base types, deduplicated: a walk up the
    /// `base_types` of what `lookup` returns, independent of the index.
    fn ancestors(r: &ActivityTypeRegistry, name: &str) -> Vec<String> {
        let bases = |n: &str| r.lookup(n, NOW).map_or_else(Vec::new, |t| t.value.base_types.clone());
        let mut out: Vec<String> = Vec::new();
        let mut queue = VecDeque::from(bases(name));
        while let Some(cur) = queue.pop_front() {
            if !out.contains(&cur) {
                queue.extend(bases(&cur));
                out.push(cur);
            }
        }
        out
    }

    /// Whether `sub` is (or extends, transitively) `base`.
    fn is_subtype_of(r: &ActivityTypeRegistry, sub: &str, base: &str) -> bool {
        sub == base || ancestors(r, sub).iter().any(|a| a == base)
    }

    /// Whether a walk up from `name` through `lookup` comes back to a type
    /// it is already inside of.
    fn has_cycle_from(r: &ActivityTypeRegistry, name: &str) -> bool {
        fn visit(r: &ActivityTypeRegistry, node: &str, path: &mut Vec<String>) -> bool {
            if path.iter().any(|p| p == node) {
                return true;
            }
            let Some(t) = r.lookup(node, NOW) else {
                return false;
            };
            path.push(node.to_owned());
            let found = t.value.base_types.iter().any(|b| visit(r, b, path));
            path.pop();
            found
        }
        visit(r, name, &mut Vec::new())
    }

    fn is_cycle_refusal(e: &GlareError) -> bool {
        matches!(e, GlareError::InvalidType { reason, .. } if reason == "extension cycle")
    }

    #[test]
    fn abstract_resolves_to_concrete_descendants() {
        let r = fig2();
        assert_eq!(closure(&r, "Imaging"), ["JPOVray"]);
        assert_eq!(closure(&r, "POVray"), ["JPOVray"]);
        // A concrete type resolves to itself.
        assert_eq!(closure(&r, "JPOVray"), ["JPOVray"]);
        assert_eq!(closure(&r, "Wien2k"), ["Wien2k"]);
        assert!(closure(&r, "Unknown").is_empty());
    }

    #[test]
    fn diamond_inheritance_deduplicates() {
        let r = fig2();
        // JPOVray extends both POVray and Imaging; resolving Imaging must
        // report it once even though two paths reach it.
        let found = closure(&r, "Imaging");
        assert_eq!(found.iter().filter(|n| *n == "JPOVray").count(), 1);
    }

    #[test]
    fn ancestors_and_subtyping() {
        let r = fig2();
        let mut anc = ancestors(&r, "JPOVray");
        anc.sort();
        assert_eq!(anc, ["Imaging", "POVray"]);
        assert!(is_subtype_of(&r, "JPOVray", "Imaging"));
        assert!(is_subtype_of(&r, "JPOVray", "POVray"));
        assert!(is_subtype_of(&r, "JPOVray", "JPOVray"));
        assert!(!is_subtype_of(&r, "Imaging", "JPOVray"));
        assert!(!is_subtype_of(&r, "Wien2k", "Imaging"));
        // Every type of a closure is a subtype of the name resolved.
        for name in r.names() {
            for found in closure(&r, &name) {
                assert!(is_subtype_of(&r, &found, &name), "{found} !<= {name}");
            }
        }
    }

    #[test]
    fn remove_detaches_edges() {
        let r = fig2();
        let removed = r.remove("JPOVray").unwrap();
        assert!(closure(&r, "Imaging").is_empty());
        assert!(closure(&r, "JPOVray").is_empty());
        assert!(!r.contains("JPOVray"));
        let h = r.hierarchy();
        assert!(h.children.values().flatten().all(|k| k != "JPOVray"), "{:?}", h.children);
        drop(h);
        // Re-registration works.
        r.register(removed, NOW).unwrap();
        assert_eq!(closure(&r, "Imaging"), ["JPOVray"]);
    }

    #[test]
    fn insert_replaces_old_edges() {
        let r = fig2();
        // Re-register JPOVray extending only POVray.
        r.update("JPOVray", NOW, |t| t.base_types = vec!["POVray".into()])
            .unwrap();
        assert_eq!(
            closure(&r, "Imaging"),
            ["JPOVray"],
            "still reachable: POVray extends Imaging"
        );
        let mut anc = ancestors(&r, "JPOVray");
        anc.sort();
        assert_eq!(anc, ["Imaging", "POVray"], "transitively via POVray");
        assert_eq!(
            r.hierarchy().children.get("Imaging").map(Vec::as_slice),
            Some(&["POVray".to_owned()][..]),
            "the direct edge from Imaging went"
        );
    }

    #[test]
    fn cycle_detection() {
        let r = ActivityTypeRegistry::new("a", Transport::Http);
        r.register(ActivityType::abstract_type("A", "d").extends("B"), NOW)
            .unwrap();
        let err = r
            .register(ActivityType::abstract_type("B", "d").extends("A"), NOW)
            .unwrap_err();
        assert!(is_cycle_refusal(&err), "{err:?}");
        assert!(!has_cycle_from(&r, "A"));
        assert!(!has_cycle_from(&r, "B"));
        let f = fig2();
        assert!(f.names().iter().all(|n| !has_cycle_from(&f, n)));
    }

    /// Each trial write is refused for a cycle exactly when a base is the
    /// type itself or extends it, judged by a test-side walk.
    #[test]
    fn would_cycle_matches_trial_insert() {
        let trial = |name: &str, bases: &[&str]| -> bool {
            let r = fig2();
            let expected = bases
                .iter()
                .any(|b| *b == name || ancestors(&r, b).iter().any(|a| a == name));
            let bases: Vec<String> = bases.iter().map(|b| (*b).to_owned()).collect();
            let outcome = if r.contains(name) {
                r.update(name, NOW, |t| t.base_types = bases)
            } else {
                let mut t = ActivityType::abstract_type(name, "d");
                t.base_types = bases;
                r.register(t, NOW).map(drop)
            };
            let refused = outcome.as_ref().is_err_and(is_cycle_refusal);
            assert_eq!(refused, expected, "{name} extending {outcome:?}");
            assert!(r.names().iter().all(|n| !has_cycle_from(&r, n)));
            refused
        };
        // Extending an existing leaf from a new name: fine.
        assert!(!trial("NewType", &["JPOVray"]));
        // Self-extension: cycle.
        assert!(trial("X", &["X"]));
        // Existing ancestor extending its own descendant: cycle.
        assert!(trial("Imaging", &["JPOVray"]));
        assert!(trial("Imaging", &["POVray"]));
        // Sibling edges are not cycles.
        assert!(!trial("Wien2k", &["Imaging"]));
        // Unknown bases are future-dangling edges, never cycles.
        assert!(!trial("A", &["NotYetRegistered"]));
    }

    /// The reference the index is judged by: the accepted types in the
    /// order they were last (re)registered, walked breadth first from
    /// `name` down every edge a type's `base_types` names.
    fn reference_walk(model: &[ActivityType], name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([name.to_owned()]);
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if model.iter().any(|t| t.name == cur && t.kind == TypeKind::Concrete) {
                out.push(cur.clone());
            }
            for t in model {
                let edges = t.base_types.iter().filter(|b| **b == cur).count();
                queue.extend(std::iter::repeat_n(t.name.clone(), edges));
            }
        }
        out
    }

    /// Seeded property: whatever sequence of registrations (diamonds,
    /// dangling bases, refused cycles and duplicates), updates
    /// (re-registration under new bases, kind flips, edits that keep the
    /// edges, refused renames and cycles) and removals (inner nodes included) ran, every name's
    /// closure equals the reference walk over the accepted writes, in
    /// content and in order (the order decides which concrete type the
    /// discovery ladder probes first), both when first filled and when
    /// served again from the memo, and asking about names nothing mentions
    /// stores nothing.
    #[test]
    fn memoised_closure_equals_fresh_walk_after_random_edits() {
        const NAMES: u64 = 10;
        let mut rng = SimRng::from_seed(0x13_C105);
        let (mut refused, mut updated) = (0, 0);
        for _ in 0..200 {
            let r = ActivityTypeRegistry::new("a", Transport::Http);
            let mut model: Vec<ActivityType> = Vec::new();
            for _ in 0..rng.range(1, 40) {
                let i = rng.range(0, NAMES);
                let name = format!("T{i}");
                // Any base may be drawn, so some writes would close a
                // cycle; T10.. are never registered themselves.
                let mut bases = Vec::new();
                for _ in 0..rng.range(0, 4) {
                    let base = match rng.chance(0.1) {
                        true => format!("T{}", NAMES + rng.range(0, 2)),
                        false => format!("T{}", rng.range(0, NAMES)),
                    };
                    if !bases.contains(&base) {
                        bases.push(base);
                    }
                }
                let at = model.iter().position(|t| t.name == name);
                let concrete = rng.chance(0.5);
                let mut fresh = match concrete {
                    true => ActivityType::concrete_type(&name, "d", "x"),
                    false => ActivityType::abstract_type(&name, "d"),
                };
                fresh.base_types = bases;
                if let Some(at) = at.filter(|_| rng.chance(0.2)) {
                    // An edit that keeps the edges and flips `revoked`
                    // re-registers the type all the same.
                    fresh = model[at].clone();
                    fresh.revoked = !fresh.revoked;
                }
                let cycles = fresh
                    .base_types
                    .iter()
                    .any(|b| *b == name || ancestors(&r, b).contains(&name));
                match (rng.range(0, 10), at) {
                    (0..=2, Some(at)) => {
                        r.remove(&name).unwrap();
                        model.remove(at);
                    }
                    (3..=5, Some(at)) => {
                        let rename = rng.chance(0.1);
                        let edit = fresh.clone();
                        let outcome = r.update(&name, SimTime::from_secs(1), |t| {
                            t.kind = edit.kind;
                            t.base_types = edit.base_types;
                            t.revoked = edit.revoked;
                            if rename {
                                t.name = "Other".into();
                            }
                        });
                        assert_eq!(outcome.is_ok(), !rename && !cycles, "{outcome:?}");
                        if outcome.is_ok() {
                            model.remove(at);
                            model.push(fresh);
                            updated += 1;
                        } else {
                            refused += 1;
                        }
                    }
                    _ => {
                        let outcome = r.register(fresh.clone(), NOW);
                        assert_eq!(outcome.is_ok(), at.is_none() && !cycles, "{outcome:?}");
                        if outcome.is_ok() {
                            model.push(fresh);
                        } else {
                            refused += 1;
                        }
                    }
                }
                // Probe a few names between edits so stale entries would
                // be there to find.
                for _ in 0..3 {
                    let probe = format!("T{}", rng.range(0, NAMES + 2));
                    assert_eq!(closure(&r, &probe), reference_walk(&model, &probe));
                }
            }
            let h = r.hierarchy();
            assert!(h.closures.read().len() <= r.len(NOW) + h.children.len());
            assert!(h.children.values().all(|kids| !kids.is_empty()));
            h.closures.write().clear();
            drop(h);
            for name in ["Nope", "", "T99"] {
                assert!(r.concrete_closure(name).is_empty());
            }
            assert_eq!(r.hierarchy().closures.read().len(), 0, "unknown names are not stored");
            assert!(r.lookup("Other", NOW).is_none(), "no update renamed a type");
            for i in 0..NAMES + 2 {
                let name = format!("T{i}");
                let fresh = reference_walk(&model, &name);
                assert_eq!(closure(&r, &name), fresh, "first fill of {name}");
                assert_eq!(closure(&r, &name), fresh, "memo hit on {name}");
            }
        }
        assert!(refused > 100 && updated > 100, "{refused} refused, {updated} updated");
    }
}
