//! Table 1 — time spent in different operations while deploying Wien2k,
//! Invmod and Counter through the Expect and JavaCoG channels.

use glare_core::grid::Grid;
use glare_core::model::example_hierarchy;
use glare_core::rdm::deploy_manager::{provision, ProvisionRequest};
use glare_fabric::SimTime;
use glare_services::{ChannelKind, Transport};

/// One row-set of Table 1 (one application under one channel).
#[derive(Clone, Debug)]
pub struct Table1Entry {
    /// Deployment method ("Expect" / "Java CoG").
    pub channel: String,
    /// Application name.
    pub app: String,
    /// "Activity Type Addition" (ms).
    pub type_addition_ms: u64,
    /// "Communication Overhead" (ms).
    pub communication_ms: u64,
    /// "Activity Installation/Deployment" (ms).
    pub installation_ms: u64,
    /// "Activity Deployment Registration" (ms).
    pub registration_ms: u64,
    /// "Notification" (ms).
    pub notification_ms: u64,
    /// "Expect Overhead" / "JavaCoG Overhead" (ms).
    pub channel_overhead_ms: u64,
    /// "Total overhead for meta-scheduler" (ms).
    pub total_ms: u64,
}

impl Table1Entry {
    /// JSON-friendly view of the row.
    pub fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj([
            ("channel", crate::json::Json::from(self.channel.clone())),
            ("app", crate::json::Json::from(self.app.clone())),
            ("type_addition_ms", crate::json::Json::from(self.type_addition_ms)),
            ("communication_ms", crate::json::Json::from(self.communication_ms)),
            ("installation_ms", crate::json::Json::from(self.installation_ms)),
            ("registration_ms", crate::json::Json::from(self.registration_ms)),
            ("notification_ms", crate::json::Json::from(self.notification_ms)),
            ("channel_overhead_ms", crate::json::Json::from(self.channel_overhead_ms)),
            ("total_ms", crate::json::Json::from(self.total_ms)),
        ])
    }
}

/// The applications Table 1 measures, as (display name, activity type).
pub(crate) const APPS: [(&str, &str); 3] = [
    ("Wien2k", "Wien2k"),
    ("Invmod", "Invmod"),
    ("Counter", "Counter"),
];

/// Run the Table 1 experiment: a fresh 2-site VO per cell, dependencies
/// (Counter's JDK) pre-installed so each cell isolates the application's
/// own deployment — matching the paper, whose Counter rows exclude the
/// Java runtime install.
pub fn run() -> Vec<Table1Entry> {
    let mut out = Vec::new();
    for channel in [ChannelKind::Expect, ChannelKind::JavaCog] {
        for (display, activity) in APPS {
            let mut grid = Grid::new(2, Transport::Http);
            let t0 = SimTime::ZERO;
            for ty in example_hierarchy(t0) {
                grid.register_type(0, ty, t0).unwrap();
            }
            // Pre-install dependency closure minus the app itself.
            if activity == "Counter" {
                provision(
                    &mut grid,
                    &ProvisionRequest {
                        activity: "Java".into(),
                        client: "setup".into(),
                        channel: ChannelKind::Expect,
                        from_site: 0,
                        preferred_site: Some(1),
                    },
                    t0,
                )
                .expect("jdk preinstall");
            }
            let outcome = provision(
                &mut grid,
                &ProvisionRequest {
                    activity: activity.into(),
                    client: "meta-scheduler".into(),
                    channel,
                    from_site: 0,
                    preferred_site: Some(1),
                },
                SimTime::from_secs(1),
            )
            .expect("table1 provisioning");
            let report = outcome
                .installs
                .iter()
                .find(|r| r.type_name == activity)
                .expect("app install report");
            let b = &report.breakdown;
            out.push(Table1Entry {
                channel: channel.label().to_owned(),
                app: display.to_owned(),
                type_addition_ms: b.type_addition.as_millis(),
                communication_ms: b.communication.as_millis(),
                installation_ms: b.installation.as_millis(),
                registration_ms: b.deployment_registration.as_millis(),
                notification_ms: b.notification.as_millis(),
                channel_overhead_ms: b.channel_overhead.as_millis(),
                total_ms: b.total().as_millis(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 6);
        let get = |ch: &str, app: &str| {
            rows.iter()
                .find(|r| r.channel == ch && r.app == app)
                .unwrap()
        };
        // Per-channel totals ordered Wien2k < Invmod < Counter (paper:
        // 11.1 < 30.5 < 32.5 for Expect; 25.0 < 53.5 for CoG's first two).
        for ch in ["Expect", "Java CoG"] {
            let w = get(ch, "Wien2k").total_ms;
            let i = get(ch, "Invmod").total_ms;
            let c = get(ch, "Counter").total_ms;
            assert!(w < i, "{ch}: wien2k {w} < invmod {i}");
            assert!(i < c * 2, "{ch}: invmod {i} in range of counter {c}");
        }
        // JavaCoG beats Expect in overhead for every app.
        for (app, _) in APPS {
            let e = get("Expect", app).total_ms;
            let c = get("Java CoG", app).total_ms;
            assert!(c > e, "{app}: CoG {c} must exceed Expect {e}");
            let ratio = c as f64 / e as f64;
            assert!((1.1..3.5).contains(&ratio), "{app} ratio {ratio}");
        }
        // Under JavaCoG Invmod's total exceeds Counter's, as in the paper
        // (53.5 s > 43.5 s).
        let (i, c) = (get("Java CoG", "Invmod").total_ms, get("Java CoG", "Counter").total_ms);
        assert!(i > c, "Java CoG: invmod {i} > counter {c}");
        // Installation dominates the Expect totals, as in the paper.
        let inv = get("Expect", "Invmod");
        assert!(inv.installation_ms * 2 > inv.total_ms);
        // Fixed rows match the paper's constants.
        assert_eq!(get("Expect", "Wien2k").notification_ms, 345);
        assert_eq!(get("Expect", "Invmod").type_addition_ms, 630);
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = Json::arr(run().iter().map(|r| r.to_json()));
        let text = rows.to_text();
        let (header, body) = text.split_once('\n').expect("a header and rows");
        for key in [
            "channel", "app", "type_addition_ms", "communication_ms", "installation_ms",
            "registration_ms", "notification_ms", "channel_overhead_ms", "total_ms",
        ] {
            assert!(header.split_whitespace().any(|column| column == key), "{key}: {header}");
        }
        for channel in ["Expect", "Java CoG"] {
            for (app, _) in APPS {
                let (channel_cell, app_cell) = (format!("\"{channel}\""), format!(" \"{app}\" "));
                let found =
                    body.lines().filter(|l| l.starts_with(&channel_cell) && l.contains(&app_cell));
                assert_eq!(found.count(), 1, "one row for {app} via {channel}:\n{text}");
            }
        }
    }
}
