//! Fig. 10 — throughput of the Activity Type Registry vs the WS-MDS Index
//! Service under a varying number of concurrent clients, with and without
//! transport-level security.
//!
//! This is a *real-threads* benchmark, not a simulation: both services are
//! genuine shared data structures, client threads issue named lookups as
//! fast as they can, and the https variants run the actual handshake +
//! stream-cipher work per request. The asymmetry under test is mechanical:
//! the registry answers named lookups from a hash table, the index
//! re-walks its aggregated XML document with XPath.
//!
//! Since the registries' read path became lock-free-for-readers (sharded
//! `RwLock`s + atomic counters), the services are shared as plain
//! `Arc<ActivityTypeRegistry>` / `Arc<IndexService>` — **no outer
//! `Mutex`** — so client threads genuinely run concurrently and measured
//! throughput scales with cores instead of serializing on one lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use glare_core::model::ActivityType;
use glare_core::ActivityTypeRegistry;
use glare_fabric::{SimRng, SimTime};
use glare_services::mds::{IndexKind, IndexService};
use glare_services::Transport;

use crate::json::Json;

/// Which service a measurement exercised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Service {
    /// GLARE Activity Type Registry (hashtable named lookups).
    Atr,
    /// GT4 WS-MDS Index Service (XPath scan).
    Mds,
}

impl Service {
    /// Label used in output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Service::Atr => "ATR",
            Service::Mds => "WS-MDS",
        }
    }
}

/// One throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Service measured.
    pub service: Service,
    /// Transport flavor.
    pub transport: Transport,
    /// Concurrent client threads.
    pub clients: usize,
    /// Registered activity-type resources.
    pub resources: usize,
    /// Measured requests per second.
    pub rps: f64,
}

fn type_entry(i: usize) -> ActivityType {
    ActivityType::concrete_type(&format!("Type{i}"), "bench", "wien2k")
        .with_function("run", &["in:data"], &["out:data"])
}

/// Build an ATR preloaded with `resources` types.
pub(crate) fn build_atr(resources: usize, transport: Transport) -> ActivityTypeRegistry {
    let atr = ActivityTypeRegistry::new("https://bench/ATR", transport);
    for i in 0..resources {
        atr.register(type_entry(i), SimTime::ZERO).unwrap();
    }
    atr
}

/// Build an Index Service preloaded with the same entries.
pub(crate) fn build_mds(resources: usize, transport: Transport) -> IndexService {
    let mut mds = IndexService::new("bench-index", IndexKind::Default, transport);
    for i in 0..resources {
        mds.register("bench", type_entry(i).to_xml(), SimTime::ZERO);
    }
    mds
}

/// Representative request/response payload the https variants encrypt.
const WIRE_PAYLOAD: usize = 1_024;

/// Measure one configuration for `duration`.
pub(crate) fn measure(
    service: Service,
    transport: Transport,
    clients: usize,
    resources: usize,
    duration: Duration,
) -> ThroughputPoint {
    let ops = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // The services are shared directly: the concurrent read path needs no
    // wrapping lock.
    let atr: Arc<ActivityTypeRegistry> = Arc::new(build_atr(resources, transport));
    let mds: Arc<IndexService> = Arc::new(build_mds(resources, transport));
    let payload: Arc<Vec<u8>> = Arc::new((0..WIRE_PAYLOAD).map(|i| (i % 251) as u8).collect());

    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let ops = ops.clone();
        let stop = stop.clone();
        let atr = atr.clone();
        let mds = mds.clone();
        let payload = payload.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = SimRng::from_seed(0xF16_0000 + c as u64);
            let mut sink = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let name = format!("Type{}", rng.range(0, resources as u64));
                // SOAP-ish request envelope: built and parsed per request
                // on the container worker thread, like the real stack.
                let request = format!(
                    "<Envelope><Body><GetResourceProperty dialect=\"hash\">                     <ResourceName>{name}</ResourceName>                     <Client>bench-{c}</Client></GetResourceProperty></Body></Envelope>"
                );
                let parsed = glare_wsrf::parse_xml(&request).expect("request parses");
                std::hint::black_box(&parsed);
                // Transport security: request decryption happens before
                // the service sees it.
                sink ^= transport.process(&payload);
                // The shared data-structure access is the part the two
                // services implement differently.
                let response_doc = match service {
                    Service::Atr => atr
                        .lookup(&name, SimTime::ZERO)
                        .expect("registered type")
                        .value
                        .to_xml(),
                    Service::Mds => {
                        let resp = mds
                            .query_by_name("ActivityTypeEntry", &name, SimTime::ZERO)
                            .expect("valid query");
                        resp.matches.into_iter().next().expect("one match")
                    }
                };
                // Serialize the response envelope (worker thread again).
                sink ^= response_doc.to_xml().len() as u64;
                ops.fetch_add(1, Ordering::Relaxed);
            }
            sink
        }));
    }

    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    let mut sink = 0u64;
    for h in handles {
        sink ^= h.join().expect("client thread");
    }
    std::hint::black_box(sink);
    let total = ops.load(Ordering::Relaxed);
    ThroughputPoint {
        service,
        transport,
        clients,
        resources,
        rps: total as f64 / elapsed.as_secs_f64(),
    }
}

impl ThroughputPoint {
    /// JSON-friendly view of the measurement.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("service", Json::from(self.service.label())),
            ("transport", Json::from(self.transport.label())),
            ("clients", Json::from(self.clients)),
            ("resources", Json::from(self.resources)),
            ("rps", Json::from(self.rps)),
        ])
    }
}

/// The machine-readable result document the `fig10` binary writes to
/// `BENCH_registry.json`: clients → requests/s per service/transport.
pub fn results_json(points: &[ThroughputPoint]) -> Json {
    Json::obj([
        ("figure", Json::from("fig10")),
        (
            "description",
            Json::from("registry throughput vs concurrent clients"),
        ),
        ("points", Json::arr(points.iter().map(|p| p.to_json()))),
    ])
}

/// The Fig. 10 sweep: both services × both transports × client counts,
/// at a fixed resource population.
pub fn run(
    client_counts: &[usize],
    resources: usize,
    per_point: Duration,
) -> Vec<ThroughputPoint> {
    let mut out = Vec::new();
    for &clients in client_counts {
        for service in [Service::Atr, Service::Mds] {
            for transport in [Transport::Http, Transport::Https] {
                out.push(measure(service, transport, clients, resources, per_point));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast smoke configuration (full sweep runs in the fig10 binary).
    #[test]
    fn shape_atr_beats_mds_and_https_costs() {
        let dur = Duration::from_millis(300);
        let resources = 60;
        let atr_http = measure(Service::Atr, Transport::Http, 4, resources, dur);
        let mds_http = measure(Service::Mds, Transport::Http, 4, resources, dur);
        let atr_https = measure(Service::Atr, Transport::Https, 4, resources, dur);
        assert!(
            atr_http.rps > mds_http.rps,
            "ATR {} must out-serve MDS {}",
            atr_http.rps,
            mds_http.rps
        );
        assert!(
            atr_https.rps < atr_http.rps,
            "security must cost throughput: {} !< {}",
            atr_https.rps,
            atr_http.rps
        );
    }

    #[test]
    fn builders_load_requested_resources() {
        let atr = build_atr(25, Transport::Http);
        assert_eq!(atr.len(SimTime::ZERO), 25);
        let mds = build_mds(25, Transport::Http);
        assert_eq!(mds.len(SimTime::ZERO), 25);
        let r = mds
            .query_by_name("ActivityTypeEntry", "Type24", SimTime::ZERO)
            .unwrap();
        assert_eq!(r.matches.len(), 1);
    }

    #[test]
    fn json_document_shape() {
        let p = ThroughputPoint {
            service: Service::Atr,
            transport: Transport::Http,
            clients: 4,
            resources: 100,
            rps: 1234.5,
        };
        let doc = results_json(&[p]).to_string_pretty();
        assert!(doc.contains("\"figure\": \"fig10\""));
        assert!(doc.contains("\"service\": \"ATR\""));
        assert!(doc.contains("\"rps\": 1234.5"));
    }
}
