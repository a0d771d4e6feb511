//! The five workloads. Refer to them by these names.

use glare_fabric::Simulation;

use crate::des::{self, HandlerSplit, NODE_SPANS};
use crate::round::{Clock, Round};
use crate::span::Trace;

pub mod load_2x;
pub mod overlay_10k;
pub mod provision_storm;
pub mod registry;

/// A workload: its name, why it is in the set, and its one round.
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// One line on what the workload stresses (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether the `sim_*` metrics are a function of the seed alone. They
    /// are wherever one thread drives the work; the digest of the answers
    /// is seed-exact on every workload.
    pub seed_exact: bool,
    /// Set up, run the fixed work once, report.
    pub run: fn(&RoundCtx, &mut Clock) -> Round,
}

/// The set, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "overlay_10k",
        why: "10k-site tree overlay, closed loop, cache off: 1e5 pending events, so the event queue, kernel dispatch and query/probe handlers do the work",
        seed_exact: true,
        run: overlay_10k::run,
    },
    Workload {
        name: "load_2x",
        why: "open-loop three-tier Poisson load at 2x saturation on 32 sites: tiny queue, so admission, retry, the workload engine and labeled metrics do the work",
        seed_exact: true,
        run: load_2x::run,
    },
    Workload {
        name: "registry_read",
        why: "real threads reading ATR/ADR/MDS at 300 types with no simulator: hash lookups against the XPath scan, XML parse and serialise",
        seed_exact: true,
        run: registry::run_read,
    },
    Workload {
        name: "registry_churn",
        why: "registry_read with 1 request in 16 a write: MDS snapshot invalidation and ResourceHome shard write locks, which a read-only run bypasses",
        // Two real threads write one shared index: how many scratch entries
        // a scan passes depends on how they interleave, so the modelled scan
        // costs move in the fourth digit from round to round.
        seed_exact: false,
        run: registry::run_churn,
    },
    Workload {
        name: "provision_storm",
        why: "durable 8-site Grid VOs provisioning every package on demand, with leases, uninstall and crash/replay: the synchronous substrate the other four never touch",
        seed_exact: true,
        run: provision_storm::run,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a round is told.
pub struct RoundCtx {
    /// Name of the workload being run (for the trace file).
    pub workload: &'static str,
    /// Feeds input generation only.
    pub seed: u64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Also run the isolated micro-measurements that explain this
    /// workload's layers (traced rounds only).
    pub micro: bool,
}

/// On the threaded and `Grid` workloads every operation is a `root` span
/// whose children are the public calls it made: check that the children
/// plus the root's self time add up to the root.
pub fn check_spans_close(round: &mut Round, trace: &Trace, root: &str, workload: &str) {
    let root_agg = trace.agg(root);
    let children: u64 = trace
        .aggs
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(_, a)| a.sum_ns)
        .sum();
    round.check(root_agg.self_ns + children == root_agg.sum_ns, || {
        format!(
            "{workload}: child spans {children} ns + root self {} ns != root {} ns",
            root_agg.self_ns, root_agg.sum_ns
        )
    });
}

/// Per-layer metrics every simulator workload reads the same way: the
/// handler split of the traced window, the queue's high-water mark and the
/// kernel's drop counters.
pub fn des_layers(
    round: &mut Round,
    trace: &Trace,
    sim: &Simulation,
    events: u64,
    load_span: &str,
) -> HandlerSplit {
    let split = des::handler_split(trace, load_span);
    for span in NODE_SPANS {
        let agg = trace.agg(span);
        round.set(&format!("{span}_calls"), agg.count as f64);
        round.set(&format!("{span}_ns"), agg.mean_ns());
    }
    let share = |ns: f64| ns / split.window_ns.max(1.0);
    round.set("glare_core.node.handler_share", share(split.node_ns));
    round.set(
        "fabric.sim.dispatch_self_ns",
        split.kernel_self_ns / events.max(1) as f64,
    );
    round.set(
        "fabric.sim.dispatch_self_share",
        share(split.kernel_self_ns),
    );
    round.set("kernel_events", events as f64);
    round.set("fabric.queue.peak_len", sim.peak_queue_occupancy() as f64);
    let dropped: u64 = ["partition", "loss", "site_down"]
        .iter()
        .map(|r| {
            sim.metrics()
                .counter_value(&format!("net.msgs_dropped.{r}"))
        })
        .sum();
    round.set("fabric.sim.msgs_dropped", dropped as f64);
    let other_ns = trace.sum_ns(des::NODE_OTHER_SPAN) as f64;
    round.check(other_ns < 0.05 * split.node_ns.max(1.0), || {
        format!(
            "the `other` family holds {other_ns} of {} ns of node handler time (5% allowed)",
            split.node_ns
        )
    });
    // Attribution closes by construction: the window's self time is what
    // is left after every callback span, so the parts must sum to it.
    let parts = split.kernel_self_ns + split.node_ns + split.load_ns;
    round.check((parts - split.window_ns).abs() <= 1.0, || {
        format!(
            "traced window {} ns != kernel {} + node {} + load {} ns",
            split.window_ns, split.kernel_self_ns, split.node_ns, split.load_ns
        )
    });
    split
}
