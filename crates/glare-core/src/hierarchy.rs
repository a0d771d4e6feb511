//! The abstract/concrete type hierarchy and its resolution logic.
//!
//! "Abstract activity types are used to discover concrete activity types
//! and a concrete type identifies available activity deployments" (§3.1).
//! Discovery walks *down* the hierarchy: a request for `Imaging` finds
//! `JPOVray` because JPOVray (transitively) extends Imaging. The hierarchy
//! is a DAG — Fig. 2's JPOVray extends both POVray and Imaging.
//!
//! Not to be confused with the *super-peer tree* (`superpeer` module,
//! DESIGN.md §9b): this hierarchy relates activity *types* to one another,
//! while the overlay tree groups *sites* under elected super-peers for
//! query routing. The two are orthogonal — a query names a type from this
//! DAG and travels along the overlay tree.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use glare_fabric::sync::RwLock;

use crate::model::{ActivityType, TypeKind};

/// Index over base-type edges for fast downward/upward walks.
#[derive(Clone, Debug, Default)]
pub struct TypeHierarchy {
    /// type -> its kind and its direct base types.
    parents: HashMap<String, (TypeKind, Vec<String>)>,
    /// base type -> types that directly extend it (no empty lists).
    children: HashMap<String, Vec<String>>,
    /// name -> its concrete closure, filled on first resolution and
    /// emptied by every edge change. Only names the edge maps mention are
    /// stored, so it never outgrows them.
    closures: RwLock<HashMap<String, Arc<[String]>>>,
}

impl TypeHierarchy {
    /// Empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a type's edges.
    pub fn insert(&mut self, t: &ActivityType) {
        self.remove(&t.name);
        self.parents
            .insert(t.name.clone(), (t.kind, t.base_types.clone()));
        for base in &t.base_types {
            self.children
                .entry(base.clone())
                .or_default()
                .push(t.name.clone());
        }
    }

    /// Remove a type's edges.
    pub(crate) fn remove(&mut self, name: &str) {
        self.closures.get_mut().clear();
        if let Some((_, bases)) = self.parents.remove(name) {
            for base in bases {
                if let Some(kids) = self.children.get_mut(&base) {
                    kids.retain(|k| k != name);
                    if kids.is_empty() {
                        self.children.remove(&base);
                    }
                }
            }
        }
    }

    /// All *concrete* types at or below `name` (the §2.2 "iterative
    /// lookup"), deduplicated, in discovery order. Unknown names yield an
    /// empty list.
    pub fn resolve_concrete(&self, name: &str) -> Vec<String> {
        self.concrete_closure(name).to_vec()
    }

    /// [`TypeHierarchy::resolve_concrete`] as a shared slice: the walk
    /// runs once per name between edge changes, every later call is one
    /// hash lookup. Names the hierarchy has never heard of are answered
    /// empty without being remembered.
    pub(crate) fn concrete_closure(&self, name: &str) -> Arc<[String]> {
        if let Some(hit) = self.closures.read().get(name) {
            return Arc::clone(hit);
        }
        if !self.parents.contains_key(name) && !self.children.contains_key(name) {
            return Arc::default();
        }
        let closure: Arc<[String]> = self.walk_concrete(name).into();
        self.closures
            .write()
            .insert(name.to_owned(), Arc::clone(&closure));
        closure
    }

    /// BFS over extension edges from `name`, collecting concrete types.
    fn walk_concrete(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([name.to_owned()]);
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if let Some((TypeKind::Concrete, _)) = self.parents.get(&cur) {
                out.push(cur.clone());
            }
            if let Some(kids) = self.children.get(&cur) {
                queue.extend(kids.iter().cloned());
            }
        }
        out
    }

    /// All ancestors (transitive base types) of `name`, deduplicated.
    pub(crate) fn ancestors(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut queue: VecDeque<String> = self
            .parents
            .get(name)
            .map(|(_, p)| p.iter().cloned().collect())
            .unwrap_or_default();
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if let Some((_, ps)) = self.parents.get(&cur) {
                queue.extend(ps.iter().cloned());
            }
            out.push(cur);
        }
        out
    }

    /// Whether `sub` is (or extends, transitively) `base`.
    pub fn is_subtype_of(&self, sub: &str, base: &str) -> bool {
        sub == base || self.ancestors(sub).iter().any(|a| a == base)
    }

    /// Would registering `name` with the given base types introduce an
    /// extension cycle?
    ///
    /// Walks *up* the would-be ancestor chain looking for `name` instead of
    /// cloning the whole hierarchy into a trial copy — O(ancestors of the
    /// bases), not O(total types), so registration cost no longer grows
    /// with registry size.
    pub fn would_cycle(&self, name: &str, bases: &[String]) -> bool {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut stack: Vec<&str> = bases.iter().map(String::as_str).collect();
        while let Some(cur) = stack.pop() {
            if cur == name {
                return true;
            }
            if !seen.insert(cur) {
                continue;
            }
            if let Some((_, ps)) = self.parents.get(cur) {
                stack.extend(ps.iter().map(String::as_str));
            }
        }
        false
    }

    /// Detect a cycle reachable from `name` (providers can upload junk).
    pub fn has_cycle_from(&self, name: &str) -> bool {
        // DFS with colors.
        fn visit(
            h: &TypeHierarchy,
            node: &str,
            visiting: &mut HashSet<String>,
            done: &mut HashSet<String>,
        ) -> bool {
            if done.contains(node) {
                return false;
            }
            if !visiting.insert(node.to_owned()) {
                return true;
            }
            if let Some((_, parents)) = h.parents.get(node) {
                for p in parents {
                    if visit(h, p, visiting, done) {
                        return true;
                    }
                }
            }
            visiting.remove(node);
            done.insert(node.to_owned());
            false
        }
        visit(self, name, &mut HashSet::new(), &mut HashSet::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;
    use glare_fabric::SimTime;

    fn fig2() -> TypeHierarchy {
        let mut h = TypeHierarchy::new();
        for t in example_hierarchy(SimTime::ZERO) {
            h.insert(&t);
        }
        h
    }

    #[test]
    fn abstract_resolves_to_concrete_descendants() {
        let h = fig2();
        assert_eq!(h.resolve_concrete("Imaging"), vec!["JPOVray"]);
        assert_eq!(h.resolve_concrete("POVray"), vec!["JPOVray"]);
        // A concrete type resolves to itself.
        assert_eq!(h.resolve_concrete("JPOVray"), vec!["JPOVray"]);
        assert_eq!(h.resolve_concrete("Wien2k"), vec!["Wien2k"]);
        assert!(h.resolve_concrete("Unknown").is_empty());
    }

    #[test]
    fn diamond_inheritance_deduplicates() {
        let h = fig2();
        // JPOVray extends both POVray and Imaging; resolving Imaging must
        // report it once even though two paths reach it.
        let r = h.resolve_concrete("Imaging");
        assert_eq!(r.iter().filter(|n| *n == "JPOVray").count(), 1);
    }

    #[test]
    fn ancestors_and_subtyping() {
        let h = fig2();
        let mut anc = h.ancestors("JPOVray");
        anc.sort();
        assert_eq!(anc, vec!["Imaging", "POVray"]);
        assert!(h.is_subtype_of("JPOVray", "Imaging"));
        assert!(h.is_subtype_of("JPOVray", "POVray"));
        assert!(h.is_subtype_of("JPOVray", "JPOVray"));
        assert!(!h.is_subtype_of("Imaging", "JPOVray"));
        assert!(!h.is_subtype_of("Wien2k", "Imaging"));
    }

    #[test]
    fn remove_detaches_edges() {
        let mut h = fig2();
        h.remove("JPOVray");
        assert!(h.resolve_concrete("Imaging").is_empty());
        assert!(!h.parents.contains_key("JPOVray"));
        // Reinsert works.
        for t in example_hierarchy(SimTime::ZERO) {
            if t.name == "JPOVray" {
                h.insert(&t);
            }
        }
        assert_eq!(h.resolve_concrete("Imaging"), vec!["JPOVray"]);
    }

    #[test]
    fn insert_replaces_old_edges() {
        let mut h = fig2();
        // Re-register JPOVray extending only POVray.
        let t = crate::model::ActivityType::concrete_type("JPOVray", "imaging", "jpovray")
            .extends("POVray");
        h.insert(&t);
        assert_eq!(
            h.resolve_concrete("Imaging"),
            vec!["JPOVray"],
            "still reachable via POVray -> Imaging? No: POVray extends Imaging"
        );
        let mut anc = h.ancestors("JPOVray");
        anc.sort();
        assert_eq!(anc, vec!["Imaging", "POVray"], "transitively via POVray");
    }

    #[test]
    fn cycle_detection() {
        let mut h = TypeHierarchy::new();
        let a = crate::model::ActivityType::abstract_type("A", "d").extends("B");
        let b = crate::model::ActivityType::abstract_type("B", "d").extends("A");
        h.insert(&a);
        h.insert(&b);
        assert!(h.has_cycle_from("A"));
        assert!(h.has_cycle_from("B"));
        let h2 = fig2();
        assert!(!h2.has_cycle_from("JPOVray"));
    }

    #[test]
    fn would_cycle_matches_trial_insert() {
        let h = fig2();
        // Extending an existing leaf from a new name: fine.
        assert!(!h.would_cycle("NewType", &["JPOVray".to_owned()]));
        // Self-extension: cycle.
        assert!(h.would_cycle("X", &["X".to_owned()]));
        // Existing ancestor extending its own descendant: cycle.
        assert!(h.would_cycle("Imaging", &["JPOVray".to_owned()]));
        assert!(h.would_cycle("Imaging", &["POVray".to_owned()]));
        // Sibling edges are not cycles.
        assert!(!h.would_cycle("Wien2k", &["Imaging".to_owned()]));
        // Unknown bases are future-dangling edges, never cycles.
        assert!(!h.would_cycle("A", &["NotYetRegistered".to_owned()]));
    }

    /// Seeded property: whatever sequence of inserts (diamonds, re-inserts
    /// under new bases, dangling bases) and removals (inner nodes
    /// included) ran, the memoised closure of every name the hierarchy
    /// mentions is what a fresh walk gives, both when first filled and
    /// when served again, and asking about names it has never heard of
    /// stores nothing.
    #[test]
    fn memoised_closure_equals_fresh_walk_after_random_edits() {
        use crate::model::ActivityType;
        use glare_fabric::SimRng;

        const NAMES: u64 = 10;
        let mut rng = SimRng::from_seed(0x13_C105);
        for _ in 0..200 {
            let mut h = TypeHierarchy::new();
            for _ in 0..rng.range(1, 40) {
                let i = rng.range(0, NAMES);
                let name = format!("T{i}");
                if rng.chance(0.3) {
                    h.remove(&name);
                } else {
                    // Bases have smaller indices, so the graph stays
                    // acyclic; T10.. are never registered themselves.
                    let mut t = if rng.chance(0.5) {
                        ActivityType::concrete_type(&name, "d", "x")
                    } else {
                        ActivityType::abstract_type(&name, "d")
                    };
                    for _ in 0..rng.range(0, 4) {
                        let base = if rng.chance(0.1) {
                            format!("T{}", NAMES + rng.range(0, 2))
                        } else if i > 0 {
                            format!("T{}", rng.range(0, i))
                        } else {
                            continue;
                        };
                        if !t.base_types.contains(&base) {
                            t.base_types.push(base);
                        }
                    }
                    h.insert(&t);
                }
                // Probe a few names between edits so stale entries would
                // be there to find.
                for _ in 0..3 {
                    let probe = format!("T{}", rng.range(0, NAMES + 2));
                    assert_eq!(*h.concrete_closure(&probe), *h.walk_concrete(&probe));
                }
            }
            assert!(h.closures.read().len() <= h.parents.len() + h.children.len());
            h.closures.write().clear();
            for name in ["Nope", "", "T99"] {
                assert!(h.concrete_closure(name).is_empty());
            }
            assert!(h.closures.read().is_empty(), "unknown names are not stored");
            for i in 0..NAMES + 2 {
                let name = format!("T{i}");
                let fresh = h.walk_concrete(&name);
                assert_eq!(*h.concrete_closure(&name), *fresh, "first fill of {name}");
                assert_eq!(*h.concrete_closure(&name), *fresh, "memo hit on {name}");
                assert_eq!(h.resolve_concrete(&name), fresh);
            }
            assert!(h.children.values().all(|kids| !kids.is_empty()));
        }
    }
}
