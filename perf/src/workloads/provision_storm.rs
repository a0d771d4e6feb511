//! `provision_storm` — closed loop, one caller (`Grid` is `&mut`): a stream
//! of independent 8-site VOs (the paper's 7–10 site scale) with
//! `enable_durability(StoreConfig::standard())`. Per VO: register
//! `example_hierarchy`, `provision` each catalogue package on demand (Expect
//! channel in even VOs, JavaCoG in odd; the dependency closure installs),
//! 50 repeat discovery requests per package through `RequestManager` from
//! other sites (cache fill, then hits), exclusive and shared lease
//! acquire/release including one conflict, uninstall of every Wien2k
//! deployment and a re-provision (the tombstone path), and one
//! `crash_site`/`restart_site` of the busiest site (journal replay).
//!
//! Why it is here: the second substrate and Table 1's path —
//! `glare_core::grid`, `rdm::{deploy_manager, request_manager}`,
//! `deployfile`, `cache`, `lease`, `durable`, `fabric::store`,
//! `fabric::trace` (the always-on `Grid.trace`) and
//! `services::{gridftp, expect, shell, vfs, md5, gram}`. None of the other
//! four workloads touches these.

use glare_core::lease::LeaseKind;
use glare_core::model::example_hierarchy;
use glare_core::rdm::request_manager::DiscoverySource;
use glare_core::{provision, Grid, ProvisionOutcome, ProvisionRequest, RequestManager};
use glare_fabric::{SimDuration, SimRng, SimTime, StoreConfig};
use glare_services::{ChannelKind, Transport};

use crate::micro;
use crate::round::{Clock, Digest, Round};
use crate::span::{Name, Tracer};
use crate::stats;
use crate::trace_file;
use crate::workloads::{check_spans_close, RoundCtx};

const VOS: usize = 1_600;
const SITES_PER_VO: usize = 8;
/// The deployable catalogue, provisioned in a seed-drawn order per VO.
const ACTIVITIES: [&str; 4] = ["JPOVray", "Wien2k", "Invmod", "Counter"];
const DISCOVERIES_PER_PACKAGE: usize = 50;
const ROOT_SPAN: &str = "provision_storm.op";

struct Spans {
    root: Name,
    provision_install: Name,
    provision_hit: Name,
    list_deployments: Name,
    acquire: Name,
    release: Name,
    uninstall: Name,
    crash: Name,
    restart: Name,
}

/// Running totals over the VOs of one round.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    /// Lease requests refused because they conflict — the outcome the
    /// conflicting request is there to produce.
    refused: u64,
    provision_costs: Vec<SimDuration>,
    sim_cost: SimDuration,
    discoveries: u64,
    ladder_rungs: u64,
    installs: u64,
    communication: Vec<SimDuration>,
    installation: Vec<SimDuration>,
    channel_overhead: Vec<SimDuration>,
    lease_requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    journal_appends: u64,
    journal_bytes: u64,
    grid_spans: u64,
    grid_spans_dropped: u64,
    failures: Vec<String>,
}

/// The one caller: its tracer, span names, totals and output digest.
struct Caller {
    tracer: Tracer,
    sp: Spans,
    tot: Totals,
    digest: Digest,
}

impl Caller {
    /// One operation: count it and time `f` as the only child of a fresh
    /// root span.
    fn call<R>(&mut self, span: Name, f: impl FnOnce() -> R) -> R {
        self.tot.attempted += 1;
        self.tracer.begin_op(self.sp.root);
        self.tracer.enter(span);
        let r = f();
        self.tracer.exit_both();
        r
    }

    /// Count an operation as failed unless `ok`.
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tot.failed += 1;
            if self.tot.failures.len() < 8 {
                self.tot.failures.push(what());
            }
        }
    }

    /// `provision` one activity; `None` (and a failed operation) on error
    /// or when the outcome cannot be verified against the registries.
    fn provision(
        &mut self,
        grid: &mut Grid,
        vo: usize,
        activity: &str,
        from_site: usize,
        now: SimTime,
    ) -> Option<ProvisionOutcome> {
        let req = ProvisionRequest {
            activity: activity.to_owned(),
            client: "meta-scheduler".to_owned(),
            channel: if vo.is_multiple_of(2) {
                ChannelKind::Expect
            } else {
                ChannelKind::JavaCog
            },
            from_site,
            preferred_site: None,
        };
        // Which layer the call exercised is only known from its outcome,
        // so the span is opened as a hit and re-booked if packages were
        // installed.
        self.tot.attempted += 1;
        self.tracer.begin_op(self.sp.root);
        self.tracer.enter(self.sp.provision_hit);
        let out = provision(grid, &req, now);
        if matches!(&out, Ok(o) if !o.installs.is_empty()) {
            self.tracer.rename_innermost(self.sp.provision_install);
        }
        self.tracer.exit_both();
        match out {
            Ok(o) => {
                let verifiable = !o.deployments.is_empty()
                    && o.deployments.iter().all(|(site, d)| {
                        d.is_usable() && grid.site(*site).adr.lookup(&d.key, now).is_some()
                    });
                self.expect(verifiable, || {
                    format!("vo {vo}: provision of {activity} is not verifiable")
                });
                self.tot.provision_costs.push(o.total_cost);
                self.tot.sim_cost += o.total_cost;
                self.tot.installs += o.installs.len() as u64;
                for r in &o.installs {
                    self.tot.communication.push(r.breakdown.communication);
                    self.tot.installation.push(r.breakdown.installation);
                    self.tot.channel_overhead.push(r.breakdown.channel_overhead);
                }
                Some(o)
            }
            Err(e) => {
                self.expect(false, || {
                    format!("vo {vo}: provision of {activity} failed: {e}")
                });
                None
            }
        }
    }

    /// Uninstall one deployment, leaving its tombstone.
    fn uninstall(&mut self, grid: &mut Grid, vo: usize, site: usize, key: &str, now: SimTime) {
        let removed = self.call(self.sp.uninstall, || {
            grid.uninstall_deployment(site, key, now)
        });
        self.expect(removed, || {
            format!("vo {vo}: uninstall of {key} removed nothing")
        });
    }

    /// Build, exercise and tear down one VO.
    fn one_vo(&mut self, vo: usize, rng: &mut SimRng) {
        let mut grid = Grid::new(SITES_PER_VO, Transport::Http);
        grid.enable_durability(StoreConfig::standard());
        for ty in example_hierarchy(SimTime::ZERO) {
            grid.register_type(0, ty, SimTime::ZERO)
                .expect("example type registers");
        }
        let rm = RequestManager::new(true);
        let mut order = ACTIVITIES;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let mut now_ms = 1_000u64;

        for activity in order {
            let from = rng.index(SITES_PER_VO);
            let Some(out) = self.provision(&mut grid, vo, activity, from, t_ms(now_ms)) else {
                continue;
            };
            now_ms += 1_000;
            let (host_site, deployment) = out.deployments[0].clone();
            // The same request from the next site finds the deployment made.
            let next = (from + 1) % SITES_PER_VO;
            let again = self.provision(&mut grid, vo, activity, next, t_ms(now_ms));
            self.expect(again.is_some_and(|o| o.installs.is_empty()), || {
                format!("vo {vo}: second provision of {activity} installed again")
            });
            now_ms += 1_000;

            // Repeat discovery from the other sites: the first request of
            // a site fetches remotely and fills its cache, the rest hit it.
            for i in 0..DISCOVERIES_PER_PACKAGE {
                let asker = (host_site + 1 + i % (SITES_PER_VO - 1)) % SITES_PER_VO;
                let found = self.call(self.sp.list_deployments, || {
                    rm.list_deployments(&mut grid, asker, activity, t_ms(now_ms))
                });
                now_ms += 1;
                match found {
                    Ok(o) => {
                        self.expect(!o.deployments.is_empty(), || {
                            format!(
                                "vo {vo}: discovery of {activity} from site {asker} found nothing"
                            )
                        });
                        self.tot.discoveries += 1;
                        self.tot.ladder_rungs += match o.source {
                            DiscoverySource::LocalRegistry => 1,
                            DiscoverySource::LocalCache => 2,
                            DiscoverySource::RemoteSite(_) => 3,
                            DiscoverySource::DegradedCache => 4,
                        };
                        self.tot.sim_cost += o.cost;
                    }
                    Err(e) => self.expect(false, || {
                        format!("vo {vo}: discovery of {activity} failed: {e}")
                    }),
                }
            }

            // Leases: exclusive, a conflicting shared request (refused, by
            // design), release, then two shared holders side by side.
            let key = deployment.key.as_str();
            let now = t_ms(now_ms);
            let window = now..now + SimDuration::from_secs(60);
            let requests = [
                ("alice", LeaseKind::Exclusive, true),
                ("bob", LeaseKind::Shared, false),
                ("bob", LeaseKind::Shared, true),
                ("carol", LeaseKind::Shared, true),
            ];
            let mut held: Vec<u64> = Vec::new();
            for (client, kind, expect_grant) in requests {
                self.tot.lease_requests += 1;
                let r = self.call(self.sp.acquire, || {
                    grid.acquire_lease(host_site, key, client, kind, window.clone(), now)
                });
                self.expect(r.is_ok() == expect_grant, || {
                    format!("vo {vo}: {kind:?} lease on {key} for {client}: {r:?}")
                });
                match r {
                    Ok(ticket) => held.push(ticket.id),
                    Err(_) => {
                        // The conflicting request: release the exclusive
                        // holder so the shared ones can follow.
                        self.tot.refused += 1;
                        for ticket in held.drain(..) {
                            let r = self.call(self.sp.release, || {
                                grid.release_lease(host_site, ticket, now)
                            });
                            self.expect(r.is_ok(), || {
                                format!("vo {vo}: release of ticket {ticket} failed")
                            });
                        }
                    }
                }
            }
            for ticket in held {
                let r = self.call(self.sp.release, || {
                    grid.release_lease(host_site, ticket, now)
                });
                self.expect(r.is_ok(), || {
                    format!("vo {vo}: release of ticket {ticket} failed")
                });
            }
            now_ms += 1_000;
        }

        // Tombstone path: uninstall every Wien2k deployment, provision again.
        let now = t_ms(now_ms);
        for (site, d) in grid.deployments_anywhere("Wien2k", now) {
            self.uninstall(&mut grid, vo, site, &d.key, now);
        }
        now_ms += 1_000;
        let from = rng.index(SITES_PER_VO);
        let again = self.provision(&mut grid, vo, "Wien2k", from, t_ms(now_ms));
        self.expect(again.is_some_and(|o| !o.installs.is_empty()), || {
            format!("vo {vo}: re-provision after uninstall installed nothing")
        });
        now_ms += 1_000;

        // Uninstall one Invmod deployment for good, then crash and restart
        // the site that holds it: the journal must bring everything else
        // back and must not bring that one back.
        let now = t_ms(now_ms);
        if let Some((site, gone)) = grid.deployments_anywhere("Invmod", now).into_iter().next() {
            self.uninstall(&mut grid, vo, site, &gone.key, now);
            let mut before = grid.site(site).adr.keys(now);
            before.sort();
            let crashed_at = t_ms(now_ms + 1_000);
            self.call(self.sp.crash, || grid.crash_site(site, crashed_at));
            self.expect(grid.site(site).adr.is_empty(crashed_at), || {
                format!("vo {vo}: site {site} kept its registry through an amnesia crash")
            });
            let now = t_ms(now_ms + 2_000);
            self.call(self.sp.restart, || grid.restart_site(site, now));
            let mut after = grid.site(site).adr.keys(now);
            after.sort();
            self.expect(after == before, || {
                format!(
                    "vo {vo}: replay restored {} of {} deployments on site {site}",
                    after.len(),
                    before.len()
                )
            });
            let adr = &grid.site(site).adr;
            let resurrected =
                adr.lookup(&gone.key, now).is_some() || adr.tombstone_of(&gone.key).is_none();
            self.expect(!resurrected, || {
                format!("vo {vo}: uninstalled {} came back after restart", gone.key)
            });
            for k in &after {
                self.digest.text(k);
            }
        } else {
            self.expect(false, || {
                format!("vo {vo}: no Invmod deployment to uninstall")
            });
        }

        for i in 0..SITES_PER_VO {
            let cache = &grid.site(i).cache;
            self.tot.cache_hits += cache.hits();
            self.tot.cache_misses += cache.misses();
            let store = grid.store(i).expect("durability is on");
            self.tot.journal_appends += store.stats().appends;
            self.tot.journal_bytes += store.stats().bytes_written;
            self.digest.word(store.contents_digest());
        }
        self.tot.grid_spans += grid.trace.len() as u64;
        self.tot.grid_spans_dropped += grid.trace.dropped();
    }
}

fn t_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

pub fn run(ctx: &RoundCtx, clock: &mut Clock) -> Round {
    let mut round = Round::default();
    let mut tracer = Tracer::new(ctx.traced);
    let sp = Spans {
        root: tracer.name(ROOT_SPAN),
        provision_install: tracer.name("glare_core.rdm.provision_install"),
        provision_hit: tracer.name("glare_core.rdm.provision_hit"),
        list_deployments: tracer.name("glare_core.rdm.list_deployments"),
        acquire: tracer.name("glare_core.lease.acquire"),
        release: tracer.name("glare_core.lease.release"),
        uninstall: tracer.name("glare_core.grid.uninstall_deployment"),
        crash: tracer.name("glare_core.grid.crash_site"),
        restart: tracer.name("glare_core.grid.restart_replay"),
    };
    // Inputs from the seed: package order, asking sites.
    let mut rng = SimRng::from_seed(ctx.seed).fork("provision_storm");
    let mut caller = Caller {
        tracer,
        sp,
        tot: Totals::default(),
        digest: Digest::default(),
    };

    clock.start_window();
    for vo in 0..VOS {
        caller.one_vo(vo, &mut rng);
    }
    clock.end_window(&mut round);
    let Caller {
        tracer,
        mut tot,
        mut digest,
        ..
    } = caller;

    let mut costs = tot.provision_costs.clone();
    for c in &costs {
        digest.word(c.as_nanos());
    }
    costs.sort_unstable();
    let ms = |v: &[SimDuration], p: f64| stats::percentile(v, p).map_or(0.0, |d| d.as_millis_f64());
    for v in [
        tot.attempted,
        tot.failed,
        tot.refused,
        tot.installs,
        tot.ladder_rungs,
        tot.journal_appends,
        tot.grid_spans,
    ] {
        digest.word(v);
    }
    round.digest = digest.value();
    round.attempted = tot.attempted;
    round.failed = tot.failed;
    round.set("ops", (tot.attempted - tot.failed - tot.refused) as f64);
    round.set("refused", tot.refused as f64);
    round.set("sim_p50_ms", ms(&costs, 50.0));
    round.set("sim_p99_ms", ms(&costs, 99.0));
    round.set("tail_samples", costs.len() as f64);
    round.set(
        "sim_goodput_hz",
        (costs.len() as u64 + tot.discoveries) as f64 / tot.sim_cost.as_secs_f64(),
    );
    round.set(
        "sim_hops_per_query",
        tot.ladder_rungs as f64 / tot.discoveries.max(1) as f64,
    );
    round.set(
        "sim_events",
        (tot.grid_spans + tot.grid_spans_dropped) as f64,
    );
    round.failures.append(&mut tot.failures);
    round.check(tot.failed == 0, || {
        format!("provision_storm: {} operations failed", tot.failed)
    });

    if ctx.traced {
        let trace = tracer.finish();
        check_spans_close(&mut round, &trace, ROOT_SPAN, ctx.workload);
        // A layer's metric is its span's name plus the unit.
        for span in [
            "glare_core.rdm.provision_install",
            "glare_core.rdm.provision_hit",
            "glare_core.rdm.list_deployments",
            "glare_core.lease.acquire",
            "glare_core.lease.release",
            "glare_core.grid.restart_replay",
        ] {
            round.set(&format!("{span}_us"), trace.mean_ns(span) / 1e3);
        }
        round.set("glare_core.rdm.installs", tot.installs as f64);
        for (metric, v) in [
            (
                "glare_core.rdm.sim_communication_ms",
                &mut tot.communication,
            ),
            ("glare_core.rdm.sim_installation_ms", &mut tot.installation),
            (
                "glare_core.rdm.sim_channel_overhead_ms",
                &mut tot.channel_overhead,
            ),
        ] {
            v.sort_unstable();
            round.set(metric, ms(v, 50.0));
        }
        round.set(
            "glare_core.lease.rejected_share",
            tot.refused as f64 / tot.lease_requests.max(1) as f64,
        );
        round.set("fabric.store.journal_records", tot.journal_appends as f64);
        round.set(
            "glare_core.cache.hit_ratio",
            tot.cache_hits as f64 / (tot.cache_hits + tot.cache_misses).max(1) as f64,
        );
        round.set("fabric.trace.spans_recorded", tot.grid_spans as f64);
        round.set("fabric.trace.spans_dropped", tot.grid_spans_dropped as f64);
        if ctx.micro {
            let payload = (tot.journal_bytes / tot.journal_appends.max(1)) as usize;
            micro::store(&mut round, payload);
            micro::services(&mut round);
        }
        trace_file::write(ctx.workload, &trace, &mut round);
    }
    round
}
