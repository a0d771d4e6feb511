//! The software side of a Grid site: filesystem, installed packages,
//! running service container.
//!
//! A [`SiteHost`] is what GLARE's deployment machinery manipulates on a
//! target site: it owns the site's [`crate::vfs::Vfs`], knows which archives on disk
//! correspond to which [`PackageSpec`]s, tracks per-directory build state
//! (`configure`d? `make`d?) and records completed installations — the
//! ground truth the Activity Deployment Registry publishes.

use std::collections::HashMap;
use std::sync::Arc;

use glare_fabric::topology::Platform;

use crate::packages::PackageSpec;
use crate::vfs::{VPath, Vfs};

/// Build progress of an unpacked package directory.
#[derive(Clone, Debug, Default)]
pub struct BuildState {
    /// `./configure` completed.
    pub configured: bool,
    /// Compilation completed.
    pub built: bool,
    /// Install prefix chosen at configure time.
    pub prefix: Option<VPath>,
    /// Answers collected from the interactive installer dialog.
    pub prompt_answers: Vec<String>,
}

/// A completed installation.
#[derive(Clone, Debug)]
pub struct InstallRecord {
    /// Package name.
    pub package: String,
    /// Install home (prefix).
    pub home: VPath,
    /// Absolute paths of installed executables.
    pub executables: Vec<VPath>,
    /// Names of services now running in the site container.
    pub services: Vec<String>,
}

/// Host-side state of one Grid site.
#[derive(Clone, Debug)]
pub struct SiteHost {
    /// Site name (for addresses/diagnostics).
    pub site_name: String,
    /// The site's platform (deployment constraints match against this).
    pub platform: Platform,
    /// Virtual filesystem.
    pub vfs: Vfs,
    /// Archive files on disk known to contain a package.
    archives: HashMap<VPath, Arc<PackageSpec>>,
    /// Unpacked package directories and their build state.
    package_dirs: HashMap<VPath, (Arc<PackageSpec>, BuildState)>,
    /// Completed installations by package name.
    installed: HashMap<String, InstallRecord>,
    /// Services running in the WSRF container.
    services: Vec<String>,
}

impl SiteHost {
    /// Fresh host with the standard directory skeleton and default
    /// environment locations (§3.4's `DEPLOYMENT_DIR`, `USER_HOME`,
    /// `GLOBUS_SCRATCH_DIR`, `GLOBUS_LOCATION`).
    pub fn new(site_name: &str, platform: Platform) -> SiteHost {
        let mut vfs = Vfs::new();
        for d in [
            "/opt/deployments",
            "/home/grid",
            "/scratch",
            "/opt/globus/bin",
            "/tmp",
        ] {
            vfs.mkdir_p(&VPath::new(d)).expect("skeleton dirs");
        }
        SiteHost {
            site_name: site_name.to_owned(),
            platform,
            vfs,
            archives: HashMap::new(),
            package_dirs: HashMap::new(),
            installed: HashMap::new(),
            services: Vec::new(),
        }
    }

    /// Default environment for shell sessions on this host.
    pub fn default_env(&self) -> HashMap<String, String> {
        HashMap::from([
            ("DEPLOYMENT_DIR".to_owned(), "/opt/deployments".to_owned()),
            ("USER_HOME".to_owned(), "/home/grid".to_owned()),
            ("GLOBUS_SCRATCH_DIR".to_owned(), "/scratch".to_owned()),
            ("GLOBUS_LOCATION".to_owned(), "/opt/globus".to_owned()),
        ])
    }

    /// Record that the file at `path` is the archive of `spec` (set when a
    /// transfer writes it).
    pub fn register_archive(&mut self, path: VPath, spec: impl Into<Arc<PackageSpec>>) {
        self.archives.insert(path, spec.into());
    }

    /// Look up the package an archive contains.
    pub fn archive_package(&self, path: &VPath) -> Option<&Arc<PackageSpec>> {
        self.archives.get(path)
    }

    /// Record an unpacked package directory.
    pub fn register_package_dir(&mut self, dir: VPath, spec: Arc<PackageSpec>) {
        self.package_dirs.insert(dir, (spec, BuildState::default()));
    }

    /// Package + build state of a directory.
    pub fn package_dir(&self, dir: &VPath) -> Option<&(Arc<PackageSpec>, BuildState)> {
        self.package_dirs.get(dir)
    }

    /// Mutable build state of a directory.
    pub fn package_dir_mut(&mut self, dir: &VPath) -> Option<&mut (Arc<PackageSpec>, BuildState)> {
        self.package_dirs.get_mut(dir)
    }

    /// Record a completed installation.
    pub fn record_install(&mut self, record: InstallRecord) {
        for s in &record.services {
            if !self.services.contains(s) {
                self.services.push(s.clone());
            }
        }
        self.installed.insert(record.package.clone(), record);
    }

    /// Installation record of a package, if installed.
    pub fn installation(&self, package: &str) -> Option<&InstallRecord> {
        self.installed.get(package)
    }

    /// Whether a package is installed on this host.
    pub fn is_installed(&self, package: &str) -> bool {
        self.installed.contains_key(package)
    }

    /// Remove an installation (un-deployment / migration source cleanup).
    pub fn uninstall(&mut self, package: &str) -> Option<InstallRecord> {
        let record = self.installed.remove(package)?;
        self.services.retain(|s| !record.services.contains(s));
        let _ = self.vfs.remove(&record.home);
        Some(record)
    }

    /// Services live in the container.
    pub fn running_services(&self) -> &[String] {
        &self.services
    }

    /// Service endpoint address for a running service on this host.
    pub fn service_address(&self, service: &str) -> Option<String> {
        self.services
            .iter()
            .find(|s| *s == service)
            .map(|s| format!("https://{}:8084/wsrf/services/{s}", self.site_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packages;

    fn host() -> SiteHost {
        SiteHost::new("site0.agrid.example", Platform::intel_linux_32())
    }

    #[test]
    fn skeleton_and_env() {
        let h = host();
        assert!(h.vfs.is_dir(&VPath::new("/opt/deployments")));
        let env = h.default_env();
        assert_eq!(env["GLOBUS_LOCATION"], "/opt/globus");
        assert_eq!(env.len(), 4);
    }

    #[test]
    fn archive_registration() {
        let mut h = host();
        let p = VPath::new("/tmp/povlinux-3.6.tgz");
        h.register_archive(p.clone(), packages::povray());
        assert_eq!(h.archive_package(&p).unwrap().name, "povray");
        assert!(h.archive_package(&VPath::new("/tmp/other.tgz")).is_none());
    }

    #[test]
    fn install_record_and_services() {
        let mut h = host();
        h.record_install(InstallRecord {
            package: "jpovray".into(),
            home: VPath::new("/opt/deployments/jpovray"),
            executables: vec![VPath::new("/opt/deployments/jpovray/bin/jpovray")],
            services: vec!["WS-JPOVray".into()],
        });
        assert!(h.is_installed("jpovray"));
        assert_eq!(h.running_services(), ["WS-JPOVray".to_owned()]);
        assert_eq!(
            h.service_address("WS-JPOVray").unwrap(),
            "https://site0.agrid.example:8084/wsrf/services/WS-JPOVray"
        );
        assert!(h.service_address("nope").is_none());
    }

    #[test]
    fn uninstall_removes_home_and_services() {
        let mut h = host();
        let home = VPath::new("/opt/deployments/jpovray");
        h.vfs.mkdir_p(&home).unwrap();
        h.vfs.write_text(&home.join("bin"), "x").ok();
        h.record_install(InstallRecord {
            package: "jpovray".into(),
            home: home.clone(),
            executables: vec![],
            services: vec!["WS-JPOVray".into()],
        });
        let rec = h.uninstall("jpovray").unwrap();
        assert_eq!(rec.package, "jpovray");
        assert!(!h.is_installed("jpovray"));
        assert!(h.running_services().is_empty());
        assert!(!h.vfs.exists(&home));
        assert!(h.uninstall("jpovray").is_none());
    }

    #[test]
    fn duplicate_service_not_double_registered() {
        let mut h = host();
        for _ in 0..2 {
            h.record_install(InstallRecord {
                package: "counter".into(),
                home: VPath::new("/opt/deployments/counter"),
                executables: vec![],
                services: vec!["CounterService".into()],
            });
        }
        assert_eq!(h.running_services().len(), 1);
    }
}
