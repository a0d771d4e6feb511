//! # glare-fabric — deterministic simulated Grid fabric
//!
//! This crate is the substrate substitution for the Austrian Grid testbed
//! the GLARE paper (SC'05) ran on: a deterministic discrete-event simulator
//! of Grid sites, the WAN between them, their CPUs and their failures.
//!
//! * [`time`] — virtual clock types ([`SimTime`], [`SimDuration`]).
//! * [`rng`] — seeded, forkable random streams for replayable experiments.
//! * [`topology`] — static site attributes (the inputs of the paper's
//!   super-peer rank hashcode) and link latency/bandwidth specs.
//! * [`site`] — per-site CPU scheduling, run queues and the Unix 1-minute
//!   load average reported in the paper's Fig. 13.
//! * [`sim`] — the event kernel: actors, messages, timers, CPU work,
//!   crashes, partitions. A façade over the dispatch loop, the actor's
//!   [`Ctx`] and the fault plumbing a [`FaultPlan`] drives.
//! * [`queue`] — the kernel's calendar/bucket event queue, payload pool
//!   and the [`SchedulerKind`] ablation switch.
//! * [`store`] — per-site simulated persistent storage: write-ahead
//!   journal + snapshot/compaction, with torn-tail crash corruption.
//! * [`fault`] — declarative failure scripts.
//! * [`metrics`] — counters/histograms/series the bench harness reads,
//!   plus the labeled families/windowed gauges behind the health report.
//! * [`events`] — bounded structured event log (JSONL) of notable state
//!   transitions, byte-identical across same-seed runs.
//! * [`trace`] — causal spans propagated through messages/timers/compute;
//!   the input of the bench harness's critical-path analysis.
//!
//! Everything is deterministic given a seed; experiments replay
//! bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod fault;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod site;
pub mod store;
pub mod sync;
pub mod time;
pub mod topology;
pub mod trace;

pub use events::{
    json_escape, json_escape_into, EventLog, EventRecord, FieldValue, DEFAULT_MAX_EVENTS, NO_FIELDS,
};
pub use fault::{Fault, FaultPlan};
pub use metrics::{
    percentile, Counter, CounterId, GaugeBucket, GaugeId, Histogram, Labels, MetricsRegistry,
    TimeSeries, WindowedGauge, DEFAULT_GAUGE_WINDOW,
};
pub use queue::{CalendarQueue, EventKey, EventPool, EventQueue, SchedulerKind};
pub use rng::SimRng;
pub use sim::{Actor, ActorId, Ctx, Envelope, Msg, Simulation, TimerToken};
pub use site::{SiteRuntime, TicketEpoch, WorkTicket};
pub use store::{JournalRecord, RecoveredState, SiteStore, Snapshot, StoreConfig, StoreStats};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkSpec, Platform, SiteId, SiteSpec, Topology};
pub use trace::{SpanHandle, SpanId, SpanKind, SpanRecord, TraceContext, TraceId, TraceSink};
