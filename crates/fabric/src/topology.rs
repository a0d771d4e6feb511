//! Static description of a simulated Grid: sites and the links between them.
//!
//! A [`SiteSpec`] carries the static attributes the paper's super-peer
//! election hashes into a rank (processor speed, memory, uptime, site name).
//! The [`Platform`] triple (`os`/`arch`/`platform`) that deploy-files match
//! against belongs to a Grid site's host, not to a simulated site. A
//! [`Topology`] adds the link characteristics used to price message and
//! file-transfer latency.

use std::collections::HashSet;

use crate::store::{fnv1a, fnv1a_feed};
use crate::time::SimDuration;

/// Identifier of a simulated Grid site (dense index into the topology).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Index form for vector addressing.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// Hardware/OS platform triple used by deployment constraints.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Platform {
    /// Vendor platform, e.g. `"Intel"`.
    pub platform: String,
    /// Operating system, e.g. `"Linux"`.
    pub os: String,
    /// Architecture word width/family, e.g. `"32bit"`.
    pub arch: String,
}

impl Platform {
    /// Convenience constructor.
    pub fn new(platform: &str, os: &str, arch: &str) -> Self {
        Platform {
            platform: platform.to_owned(),
            os: os.to_owned(),
            arch: arch.to_owned(),
        }
    }

    /// The common Austrian-Grid-era default: 32-bit Intel Linux.
    pub fn intel_linux_32() -> Self {
        Platform::new("Intel", "Linux", "32bit")
    }
}

/// Static attributes of one Grid site.
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// Human-readable unique site name (e.g. `"altix1.uibk.ac.at"`).
    pub name: String,
    /// Aggregate processor speed in MHz.
    pub cpu_mhz: u32,
    /// Number of worker cores available for jobs/installs.
    pub cores: u32,
    /// Physical memory in MB.
    pub memory_mb: u32,
    /// Uptime in seconds at simulation start (election rank input).
    pub uptime_secs: u64,
    /// Relative service speed: 1.0 = reference site; CPU-bound work costs
    /// `cost / speed_factor`.
    pub speed_factor: f64,
}

impl SiteSpec {
    /// A reference-speed site with sensible defaults.
    pub fn reference(name: &str) -> Self {
        SiteSpec {
            name: name.to_owned(),
            cpu_mhz: 2400,
            cores: 4,
            memory_mb: 4096,
            uptime_secs: 86_400,
            speed_factor: 1.0,
        }
    }

    /// The rank hashcode of §3.3: a stable hash over static attributes
    /// (processor speed, memory, uptime and site name). "Well established
    /// hashcode algorithms ensure the uniqueness when invoked by different
    /// GLARE RDM services residing on different sites" — we use FNV-1a,
    /// which every site computes identically.
    pub fn rank_hashcode(&self) -> u64 {
        let pieces: [&[u8]; 4] = [
            &self.cpu_mhz.to_le_bytes(),
            &self.memory_mb.to_le_bytes(),
            &self.uptime_secs.to_le_bytes(),
            self.name.as_bytes(),
        ];
        pieces.into_iter().fold(fnv1a(b""), fnv1a_feed)
    }
}

/// Characteristics of a network path between two sites.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Relative jitter amplitude applied to the latency term (0.1 = ±10%).
    pub jitter: f64,
}

impl LinkSpec {
    /// A metropolitan-area default: 5 ms, 100 Mbit/s, 10% jitter.
    pub fn wan_default() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(5),
            bandwidth_bps: 12_500_000,
            jitter: 0.10,
        }
    }

    /// Loopback: negligible latency, effectively infinite bandwidth.
    pub(crate) fn loopback() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(50),
            bandwidth_bps: 1_250_000_000,
            jitter: 0.0,
        }
    }

    /// Time to move `bytes` across this link (latency + serialization),
    /// before jitter.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let ser_ns = (bytes as u128)
            .saturating_mul(1_000_000_000)
            .checked_div(self.bandwidth_bps as u128)
            .unwrap_or(0);
        self.latency + SimDuration::from_nanos(ser_ns.min(u64::MAX as u128) as u64)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::wan_default()
    }
}

/// The full static picture: all sites plus the link between any two.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    sites: Vec<SiteSpec>,
    /// Site names, so that adding a site checks its name in O(1).
    names: HashSet<String>,
    default_link: LinkSpec,
}

impl Topology {
    /// Empty topology with the WAN default link.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a site, returning its id.
    ///
    /// # Panics
    /// Panics if a site of the same name was already added.
    pub fn add_site(&mut self, spec: SiteSpec) -> SiteId {
        assert!(self.names.insert(spec.name.clone()), "duplicate site name {:?}", spec.name);
        self.sites.push(spec);
        SiteId(self.sites.len() as u32 - 1)
    }

    /// Build `n` reference sites named `site0..siteN-1` with slightly
    /// varied attributes so ranks differ (deterministic in `n`).
    pub fn uniform(n: usize) -> Self {
        let mut t = Topology::new();
        for i in 0..n {
            let mut spec = SiteSpec::reference(&format!("site{i}.agrid.example"));
            spec.cpu_mhz = 2000 + (i as u32 % 7) * 200;
            spec.memory_mb = 2048 + (i as u32 % 5) * 1024;
            spec.uptime_secs = 86_400 + i as u64 * 3_600;
            t.add_site(spec);
        }
        t
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the topology holds no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Site spec by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn site(&self, id: SiteId) -> &SiteSpec {
        &self.sites[id.index()]
    }

    /// All site ids.
    pub(crate) fn site_ids(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites.len() as u32).map(SiteId)
    }

    /// The effective link between two sites; loopback when `a == b`.
    pub(crate) fn link(&self, a: SiteId, b: SiteId) -> LinkSpec {
        if a == b {
            LinkSpec::loopback()
        } else {
            self.default_link
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// Replace the link every pair of distinct sites uses.
        pub(crate) fn set_default_link(&mut self, link: LinkSpec) {
            self.default_link = link;
        }
    }

    #[test]
    fn uniform_topology_has_distinct_ranks() {
        let t = Topology::uniform(10);
        assert_eq!(t.len(), 10);
        let mut ranks: Vec<u64> = t.site_ids().map(|s| t.site(s).rank_hashcode()).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 10, "rank hashcodes must be unique");
    }

    #[test]
    fn rank_hashcode_is_stable() {
        let a = SiteSpec::reference("alpha");
        let b = SiteSpec::reference("alpha");
        assert_eq!(a.rank_hashcode(), b.rank_hashcode());
        let c = SiteSpec::reference("beta");
        assert_ne!(a.rank_hashcode(), c.rank_hashcode());
    }

    #[test]
    #[should_panic(expected = "duplicate site name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_site(SiteSpec::reference("x"));
        t.add_site(SiteSpec::reference("x"));
    }

    /// 10 000 sites: the name check in `add_site` is a map lookup, not a
    /// scan of the sites so far.
    #[test]
    fn uniform_10k_builds_and_finds_sites_by_name() {
        let t = Topology::uniform(10_000);
        assert_eq!(t.len(), 10_000);
        assert!(t.names.contains("site9999.agrid.example"));
        assert_eq!(t.site(SiteId(9_999)).name, "site9999.agrid.example");
    }

    #[test]
    fn link_lookup_symmetry_and_default() {
        let mut t = Topology::uniform(3);
        let (a, b) = (SiteId(0), SiteId(1));
        assert_eq!(t.link(a, SiteId(2)).latency, LinkSpec::wan_default().latency);
        let fast = LinkSpec {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 125_000_000,
            jitter: 0.0,
        };
        t.set_default_link(fast);
        assert_eq!(t.link(a, b).latency, SimDuration::from_millis(1));
        assert_eq!(t.link(b, a).latency, SimDuration::from_millis(1));
        // Self link is loopback.
        assert_eq!(t.link(a, a).latency, LinkSpec::loopback().latency);
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let l = LinkSpec {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: 1_000_000, // 1 MB/s
            jitter: 0.0,
        };
        // 2 MB at 1 MB/s = 2 s + 10 ms.
        assert_eq!(
            l.transfer_time(2_000_000),
            SimDuration::from_millis(2_010)
        );
        // Zero-size message costs only propagation latency.
        assert_eq!(l.transfer_time(0), SimDuration::from_millis(10));
    }
}
