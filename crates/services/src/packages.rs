//! Synthetic application packages.
//!
//! The paper's Table 1 deploys three real applications — **Wien2k**
//! (pre-compiled electronic-structure package), **Invmod** (hydrological
//! model, compiled from source) and **Counter** (a GT4 sample service) —
//! plus the §2 running example (POVray/JPOVray) and its dependencies
//! (JDK, Ant). We cannot ship those codebases, so each is modeled as a
//! [`PackageSpec`]: archive size, per-phase build costs, interactive
//! prompts, produced executables/services and dependencies. The costs are
//! calibrated so the *shape* of Table 1 (which phase dominates, which
//! application is heaviest) matches the paper.

use std::sync::{Arc, OnceLock};

use glare_fabric::SimDuration;

/// How a package's payload gets turned into a runnable deployment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BuildSystem {
    /// `./configure && make && make install` (paper: "installation with
    /// autoconf ... is supported").
    Autoconf,
    /// `ant` driven build ("auto build using ant").
    Ant,
    /// Pre-compiled: unpack only (Wien2k).
    Precompiled,
    /// A GT4-style service archive deployed into the container (Counter).
    ServiceArchive,
}

/// An interactive installer prompt and the answer the provider scripts
/// into the deploy-file's send/expect dialog (§3.4: POVray "prompts for
/// license acceptance, user type, and install path").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstallPrompt {
    /// Substring the installer prints.
    pub prompt: String,
    /// Expected reply.
    pub answer: String,
}

/// Full description of a deployable application package.
#[derive(Clone, PartialEq, Debug)]
pub struct PackageSpec {
    /// Package/activity name (e.g. `"povray"`).
    pub name: String,
    /// Version string (e.g. `"3.6.1"`).
    pub version: String,
    /// Canonical download URL.
    pub archive_url: String,
    /// Archive size in bytes (drives transfer cost).
    pub archive_bytes: u64,
    /// Build system.
    pub build_system: BuildSystem,
    /// Cost of unpacking the archive.
    pub unpack_cost: SimDuration,
    /// Cost of `./configure` (zero for non-autoconf).
    pub configure_cost: SimDuration,
    /// Cost of compiling (`make`/`ant`); zero when precompiled.
    pub build_cost: SimDuration,
    /// Cost of installing (copying, container deployment).
    pub install_cost: SimDuration,
    /// Executables produced, relative to the install prefix
    /// (e.g. `"bin/povray"`).
    pub executables: Vec<String>,
    /// Web/Grid services exposed after deployment (service name).
    pub services: Vec<String>,
    /// Interactive installer dialog, in order.
    pub prompts: Vec<InstallPrompt>,
    /// Names of packages that must already be deployed (e.g. JPOVray
    /// depends on `java` and `ant`).
    pub dependencies: Vec<String>,
}

impl PackageSpec {
    /// Directory name the archive unpacks into.
    pub fn unpack_dir(&self) -> String {
        format!("{}-{}", self.name, self.version)
    }

    /// Archive file name.
    pub fn archive_file(&self) -> String {
        self.archive_url
            .rsplit('/')
            .next()
            .unwrap_or("archive.tgz")
            .to_owned()
    }

    /// Total intrinsic install cost (all phases, excluding transfer).
    pub fn total_install_cost(&self) -> SimDuration {
        self.unpack_cost + self.configure_cost + self.build_cost + self.install_cost
    }
}

/// The built-in catalog of packages used by examples, tests and Table 1,
/// as an owned copy.
pub fn catalog() -> Vec<PackageSpec> {
    shared_catalog().iter().map(|p| PackageSpec::clone(p)).collect()
}

/// The catalog every lookup, repository and host of the process shares:
/// built on first use and never invalidated, because the catalog is code.
pub(crate) fn shared_catalog() -> &'static [Arc<PackageSpec>] {
    static CATALOG: OnceLock<Vec<Arc<PackageSpec>>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        [jdk(), ant(), povray(), jpovray(), wien2k(), invmod(), counter(), vizkit()]
            .map(Arc::new)
            .into()
    })
}

/// Look up a catalog package by name.
pub fn by_name(name: &str) -> Option<&'static PackageSpec> {
    shared_catalog().iter().find(|p| p.name == name).map(|p| &**p)
}

/// Sun JDK 1.4-era runtime+compiler: big archive, no build.
pub(crate) fn jdk() -> PackageSpec {
    PackageSpec {
        name: "java".into(),
        version: "1.4.2".into(),
        archive_url: "http://repo.example/dist/j2sdk-1.4.2.tgz".into(),
        archive_bytes: 48_000_000,
        build_system: BuildSystem::Precompiled,
        unpack_cost: SimDuration::from_millis(4_500),
        configure_cost: SimDuration::ZERO,
        build_cost: SimDuration::ZERO,
        install_cost: SimDuration::from_millis(900),
        executables: vec!["bin/java".into(), "bin/javac".into()],
        services: vec![],
        prompts: vec![InstallPrompt {
            prompt: "Do you agree to the above license terms?".into(),
            answer: "yes".into(),
        }],
        dependencies: vec![],
    }
}

/// Apache Ant build tool.
pub(crate) fn ant() -> PackageSpec {
    PackageSpec {
        name: "ant".into(),
        version: "1.6.2".into(),
        archive_url: "http://repo.example/dist/apache-ant-1.6.2.tgz".into(),
        archive_bytes: 9_000_000,
        build_system: BuildSystem::Precompiled,
        unpack_cost: SimDuration::from_millis(1_200),
        configure_cost: SimDuration::ZERO,
        build_cost: SimDuration::ZERO,
        install_cost: SimDuration::from_millis(400),
        executables: vec!["bin/ant".into()],
        services: vec![],
        prompts: vec![],
        dependencies: vec!["java".into()],
    }
}

/// POVray 3.6 — the §2 running example; interactive installer.
pub fn povray() -> PackageSpec {
    PackageSpec {
        name: "povray".into(),
        version: "3.6.1".into(),
        archive_url: "http://www.povray.org/ftp/povlinux-3.6.tgz".into(),
        archive_bytes: 12_000_000,
        build_system: BuildSystem::Autoconf,
        unpack_cost: SimDuration::from_millis(800),
        configure_cost: SimDuration::from_millis(2_600),
        build_cost: SimDuration::from_millis(9_500),
        install_cost: SimDuration::from_millis(700),
        executables: vec!["bin/povray".into()],
        services: vec![],
        prompts: vec![
            InstallPrompt {
                prompt: "Do you accept the POV-Ray license?".into(),
                answer: "yes".into(),
            },
            InstallPrompt {
                prompt: "Install for which user type?".into(),
                answer: "all".into(),
            },
            InstallPrompt {
                prompt: "Install path:".into(),
                answer: "$DEPLOYMENT_DIR".into(),
            },
        ],
        dependencies: vec![],
    }
}

/// JPOVray — Java wrapper around POVray, built with ant; also exposes the
/// WS-JPOVray service (Fig. 2's two deployments of one concrete type).
pub fn jpovray() -> PackageSpec {
    PackageSpec {
        name: "jpovray".into(),
        version: "1.0".into(),
        archive_url: "http://repo.example/dist/jpovray-1.0-src.tgz".into(),
        archive_bytes: 2_500_000,
        build_system: BuildSystem::Ant,
        unpack_cost: SimDuration::from_millis(300),
        configure_cost: SimDuration::ZERO,
        build_cost: SimDuration::from_millis(6_800),
        install_cost: SimDuration::from_millis(500),
        executables: vec!["bin/jpovray".into()],
        services: vec!["WS-JPOVray".into()],
        prompts: vec![],
        dependencies: vec!["java".into(), "ant".into()],
    }
}

/// Wien2k — pre-compiled scientific package (Table 1, fastest install).
pub fn wien2k() -> PackageSpec {
    PackageSpec {
        name: "wien2k".into(),
        version: "04.4".into(),
        archive_url: "http://repo.example/dist/wien2k-04.4.tgz".into(),
        archive_bytes: 21_000_000,
        build_system: BuildSystem::Precompiled,
        unpack_cost: SimDuration::from_millis(6_400),
        configure_cost: SimDuration::ZERO,
        build_cost: SimDuration::ZERO,
        install_cost: SimDuration::from_millis(1_600),
        executables: vec!["bin/lapw0".into(), "bin/lapw1".into(), "bin/lapw2".into()],
        services: vec![],
        prompts: vec![],
        dependencies: vec![],
    }
}

/// Invmod — hydrological model compiled from source (Table 1, heavy
/// compilation).
pub fn invmod() -> PackageSpec {
    PackageSpec {
        name: "invmod".into(),
        version: "2.1".into(),
        archive_url: "http://repo.example/dist/invmod-2.1-src.tgz".into(),
        archive_bytes: 17_000_000,
        build_system: BuildSystem::Autoconf,
        unpack_cost: SimDuration::from_millis(1_300),
        configure_cost: SimDuration::from_millis(3_800),
        build_cost: SimDuration::from_millis(20_900),
        install_cost: SimDuration::from_millis(1_700),
        executables: vec!["bin/invmod".into(), "bin/wasim-eth".into()],
        services: vec![],
        prompts: vec![],
        dependencies: vec![],
    }
}

/// Counter — GT4 sample service: archive deployed into the WSRF container
/// (Table 1, heaviest: container redeploy dominates).
pub fn counter() -> PackageSpec {
    PackageSpec {
        name: "counter".into(),
        version: "4.0".into(),
        archive_url: "http://repo.example/dist/counter-service-4.0.gar".into(),
        archive_bytes: 15_500_000,
        build_system: BuildSystem::ServiceArchive,
        unpack_cost: SimDuration::from_millis(1_100),
        configure_cost: SimDuration::ZERO,
        build_cost: SimDuration::from_millis(14_200),
        install_cost: SimDuration::from_millis(14_400),
        executables: vec![],
        services: vec!["CounterService".into()],
        prompts: vec![],
        dependencies: vec!["java".into()],
    }
}

/// VizKit — a small pre-built image viewer/exporter used by the §2
/// workflow's Visualization activity.
pub(crate) fn vizkit() -> PackageSpec {
    PackageSpec {
        name: "vizkit".into(),
        version: "0.9".into(),
        archive_url: "http://repo.example/dist/vizkit-0.9.tgz".into(),
        archive_bytes: 3_000_000,
        build_system: BuildSystem::Precompiled,
        unpack_cost: SimDuration::from_millis(400),
        configure_cost: SimDuration::ZERO,
        build_cost: SimDuration::ZERO,
        install_cost: SimDuration::from_millis(300),
        executables: vec!["bin/visualize".into()],
        services: vec![],
        prompts: vec![],
        dependencies: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_unique() {
        let cat = catalog();
        let mut names: Vec<_> = cat.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    fn by_name_finds_all() {
        for p in catalog() {
            assert!(by_name(&p.name).is_some(), "{}", p.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn shared_catalog_equals_a_fresh_build() {
        let fresh = [jdk(), ant(), povray(), jpovray(), wien2k(), invmod(), counter(), vizkit()];
        assert_eq!(catalog(), fresh);
        for p in &fresh {
            assert_eq!(by_name(&p.name), Some(p));
        }
        let shared = shared_catalog();
        assert!(std::ptr::eq(shared, shared_catalog()), "built once");
        assert!(shared.iter().zip(&fresh).all(|(a, b)| **a == *b));
    }

    #[test]
    fn table1_install_ordering_matches_paper() {
        // Paper, Expect column: Wien2k 8.1s < Invmod 27.8s < Counter 29.8s.
        let w = wien2k().total_install_cost();
        let i = invmod().total_install_cost();
        let c = counter().total_install_cost();
        assert!(w < i, "wien2k ({w}) should install faster than invmod ({i})");
        assert!(i < c, "invmod ({i}) should install faster than counter ({c})");
        // Rough factors: invmod ~3.4x wien2k, counter slightly above invmod.
        let ratio = i.as_millis() as f64 / w.as_millis() as f64;
        assert!((2.5..4.5).contains(&ratio), "invmod/wien2k ratio {ratio}");
    }

    #[test]
    fn dependency_closure_is_in_catalog() {
        for p in catalog() {
            for d in &p.dependencies {
                assert!(by_name(d).is_some(), "{} depends on unknown {d}", p.name);
            }
        }
    }

    #[test]
    fn derived_names() {
        let p = povray();
        assert_eq!(p.unpack_dir(), "povray-3.6.1");
        assert_eq!(p.archive_file(), "povlinux-3.6.tgz");
    }

    #[test]
    fn precompiled_have_no_build_cost() {
        for p in catalog() {
            if p.build_system == BuildSystem::Precompiled {
                assert_eq!(p.build_cost, SimDuration::ZERO, "{}", p.name);
                assert_eq!(p.configure_cost, SimDuration::ZERO, "{}", p.name);
            }
        }
    }

    #[test]
    fn interactive_packages_declare_dialogs() {
        assert_eq!(povray().prompts.len(), 3);
        assert!(jdk().prompts.len() == 1);
        assert!(invmod().prompts.is_empty());
    }
}
