//! AGWL-lite workflow model.
//!
//! "A Grid workflow consists of Grid activities ... a single self
//! contained computational task" (§2). Activities are declared against
//! *activity types* — never against deployments or sites — which is the
//! decoupling GLARE exists to serve: "A developer only uses activity
//! types while composing a Grid workflow application" (§2.2).

use std::collections::{HashMap, HashSet};

use glare_fabric::SimDuration;

/// Identifier of an activity within one workflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActivityId(pub u32);

/// One workflow activity: a typed computational task.
#[derive(Clone, Debug)]
pub struct WorkflowActivity {
    /// Id within the workflow.
    pub id: ActivityId,
    /// Human-readable label.
    pub label: String,
    /// The *activity type* this task needs (abstract or concrete).
    pub activity_type: String,
    /// Declared CPU cost of one run on a reference site.
    pub cpu_cost: SimDuration,
    /// Size of the activity's output artifact in bytes (staged to
    /// dependent activities on other sites).
    pub output_bytes: u64,
}

/// A data/control dependency: `from` must finish (and its output be
/// staged) before `to` starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Dependency {
    /// Producer activity.
    pub from: ActivityId,
    /// Consumer activity.
    pub to: ActivityId,
}

/// A composed Grid workflow.
#[derive(Clone, Debug, Default)]
pub struct Workflow {
    /// Workflow name.
    pub name: String,
    /// Activities by insertion order.
    pub activities: Vec<WorkflowActivity>,
    /// Dependency edges.
    pub dependencies: Vec<Dependency>,
}

/// Validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkflowError {
    /// Duplicate activity id.
    DuplicateActivity(ActivityId),
    /// Edge references an unknown activity.
    UnknownActivity(ActivityId),
    /// The dependency graph has a cycle.
    Cycle,
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DuplicateActivity(a) => write!(f, "duplicate activity {}", a.0),
            WorkflowError::UnknownActivity(a) => write!(f, "unknown activity {}", a.0),
            WorkflowError::Cycle => write!(f, "dependency cycle"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl Workflow {
    /// New empty workflow.
    pub(crate) fn new(name: &str) -> Workflow {
        Workflow {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Add an activity; returns its id.
    pub(crate) fn add_activity(
        &mut self,
        label: &str,
        activity_type: &str,
        cpu_cost: SimDuration,
        output_bytes: u64,
    ) -> ActivityId {
        let id = ActivityId(self.activities.len() as u32);
        self.activities.push(WorkflowActivity {
            id,
            label: label.to_owned(),
            activity_type: activity_type.to_owned(),
            cpu_cost,
            output_bytes,
        });
        id
    }

    /// Add a dependency edge.
    pub(crate) fn add_dependency(&mut self, from: ActivityId, to: ActivityId) {
        self.dependencies.push(Dependency { from, to });
    }

    /// Activity by id.
    pub(crate) fn activity(&self, id: ActivityId) -> Option<&WorkflowActivity> {
        self.activities.iter().find(|a| a.id == id)
    }

    /// Direct predecessors of an activity.
    pub(crate) fn predecessors(&self, id: ActivityId) -> Vec<ActivityId> {
        self.dependencies
            .iter()
            .filter(|d| d.to == id)
            .map(|d| d.from)
            .collect()
    }

    /// Validate ids and acyclicity.
    pub(crate) fn validate(&self) -> Result<(), WorkflowError> {
        let mut seen = HashSet::new();
        for a in &self.activities {
            if !seen.insert(a.id) {
                return Err(WorkflowError::DuplicateActivity(a.id));
            }
        }
        for d in &self.dependencies {
            for id in [d.from, d.to] {
                if !seen.contains(&id) {
                    return Err(WorkflowError::UnknownActivity(id));
                }
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Activities in dependency order.
    pub(crate) fn topological_order(&self) -> Result<Vec<ActivityId>, WorkflowError> {
        let mut indegree: HashMap<ActivityId, usize> =
            self.activities.iter().map(|a| (a.id, 0)).collect();
        for d in &self.dependencies {
            if let Some(n) = indegree.get_mut(&d.to) {
                *n += 1;
            }
        }
        let mut ready: Vec<ActivityId> = self
            .activities
            .iter()
            .map(|a| a.id)
            .filter(|id| indegree[id] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.activities.len());
        while let Some(id) = ready.pop() {
            order.push(id);
            for d in self.dependencies.iter().filter(|d| d.from == id) {
                let n = indegree.get_mut(&d.to).expect("validated ids");
                *n -= 1;
                if *n == 0 {
                    ready.push(d.to);
                }
            }
        }
        if order.len() == self.activities.len() {
            Ok(order)
        } else {
            Err(WorkflowError::Cycle)
        }
    }

    /// The distinct activity types the workflow needs (scheduler input).
    pub(crate) fn required_types(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in &self.activities {
            if !out.contains(&a.activity_type.as_str()) {
                out.push(&a.activity_type);
            }
        }
        out
    }

    /// A Wien2k SCF-style pipeline with parallel branches: `lapw0`
    /// feeding two parallel `lapw1` k-point tasks, joined by `lapw2`.
    /// All four activities need the same `Wien2k` type; with the
    /// `SpreadSites` policy the parallel branches land on distinct sites.
    pub fn wien2k_pipeline() -> Workflow {
        let mut w = Workflow::new("wien2k-scf");
        let lapw0 = w.add_activity("lapw0", "Wien2k", SimDuration::from_secs(30), 8_000_000);
        let k1 = w.add_activity("lapw1-k1", "Wien2k", SimDuration::from_secs(60), 6_000_000);
        let k2 = w.add_activity("lapw1-k2", "Wien2k", SimDuration::from_secs(60), 6_000_000);
        let lapw2 = w.add_activity("lapw2", "Wien2k", SimDuration::from_secs(25), 2_000_000);
        w.add_dependency(lapw0, k1);
        w.add_dependency(lapw0, k2);
        w.add_dependency(k1, lapw2);
        w.add_dependency(k2, lapw2);
        w
    }

    /// The §2 running example: ImageConversion (POVray render) feeding a
    /// Visualization step.
    pub fn povray_example() -> Workflow {
        let mut w = Workflow::new("povray-imaging");
        let conv = w.add_activity(
            "ImageConversion",
            "Imaging",
            SimDuration::from_secs(20),
            4_000_000,
        );
        let vis = w.add_activity(
            "Visualization",
            "Visualization",
            SimDuration::from_secs(3),
            500_000,
        );
        w.add_dependency(conv, vis);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let w = Workflow::povray_example();
        assert_eq!(w.activities.len(), 2);
        w.validate().unwrap();
        assert_eq!(w.required_types(), vec!["Imaging", "Visualization"]);
        assert_eq!(w.predecessors(ActivityId(1)), vec![ActivityId(0)]);
        assert!(w.predecessors(ActivityId(0)).is_empty());
    }

    #[test]
    fn wien2k_pipeline_is_a_diamond() {
        let w = Workflow::wien2k_pipeline();
        w.validate().unwrap();
        assert_eq!(w.activities.len(), 4);
        assert_eq!(w.required_types(), vec!["Wien2k"]);
        assert_eq!(w.predecessors(ActivityId(3)).len(), 2, "join node");
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut w = Workflow::new("diamond");
        let a = w.add_activity("a", "T", SimDuration::from_secs(1), 0);
        let b = w.add_activity("b", "T", SimDuration::from_secs(1), 0);
        let c = w.add_activity("c", "T", SimDuration::from_secs(1), 0);
        let d = w.add_activity("d", "T", SimDuration::from_secs(1), 0);
        w.add_dependency(a, b);
        w.add_dependency(a, c);
        w.add_dependency(b, d);
        w.add_dependency(c, d);
        let order = w.topological_order().unwrap();
        let pos = |x: ActivityId| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(b) < pos(d) && pos(c) < pos(d));
    }

    #[test]
    fn cycle_rejected() {
        let mut w = Workflow::new("cyc");
        let a = w.add_activity("a", "T", SimDuration::from_secs(1), 0);
        let b = w.add_activity("b", "T", SimDuration::from_secs(1), 0);
        w.add_dependency(a, b);
        w.add_dependency(b, a);
        assert_eq!(w.validate(), Err(WorkflowError::Cycle));
    }

    #[test]
    fn unknown_edge_rejected() {
        let mut w = Workflow::new("bad");
        let a = w.add_activity("a", "T", SimDuration::from_secs(1), 0);
        w.add_dependency(a, ActivityId(9));
        assert_eq!(w.validate(), Err(WorkflowError::UnknownActivity(ActivityId(9))));
    }
}
