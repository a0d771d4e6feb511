//! Activity types: the functional descriptions workflows are composed of.
//!
//! "An activity type (AT) is a functional or behavioural description,
//! which can be used to lookup or deploy an activity. ... Activity Types
//! are organized in a hierarchy of abstract and concrete types. An
//! abstract type is one which has no directly associated deployment. A
//! concrete type may have multiple deployments" (§2.2). Types are "defined
//! in terms of base activity types, domains, functions, arguments,
//! benchmarks for different platforms and installation mechanism required
//! for an on-demand deployment" (§3.1).

use glare_fabric::topology::Platform;
use glare_fabric::SimTime;
use glare_wsrf::resource::ResourceProperties;
use glare_wsrf::XmlNode;

/// Abstract vs concrete (only concrete types can have deployments).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TypeKind {
    /// Pure description; discovered through, never deployed.
    Abstract,
    /// Installable; maps to deployments.
    Concrete,
}

/// One function the activity offers (e.g. `render(scene) -> image`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ActivityFunction {
    /// Function name.
    pub name: String,
    /// Input argument names/types (free-form `name:type`).
    pub inputs: Vec<String>,
    /// Output names/types.
    pub outputs: Vec<String>,
}

/// A per-platform benchmark figure attached to a type (used by schedulers
/// for site selection).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeBenchmark {
    /// Platform the figure was measured on.
    pub platform: Platform,
    /// Reference runtime in milliseconds.
    pub reference_ms: u64,
}

/// When automatic installation may happen.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InstallMode {
    /// Install automatically when a client demands the type somewhere.
    #[default]
    OnDemand,
    /// Notify the site administrator instead of installing (§3.4).
    Manual,
}

/// Platform constraints that must hold before installation (Fig. 9's
/// `<Constraints>` block).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InstallConstraints {
    /// Required vendor platform (`None` = any).
    pub platform: Option<String>,
    /// Required OS.
    pub os: Option<String>,
    /// Required architecture.
    pub arch: Option<String>,
}

impl InstallConstraints {
    /// Whether a site's platform satisfies the constraints.
    pub(crate) fn accepts(&self, p: &Platform) -> bool {
        self.platform.as_deref().is_none_or(|v| v == p.platform)
            && self.os.as_deref().is_none_or(|v| v == p.os)
            && self.arch.as_deref().is_none_or(|v| v == p.arch)
    }

    /// Constraints matching the common Intel/Linux/32bit triple.
    pub fn intel_linux_32() -> Self {
        InstallConstraints {
            platform: Some("Intel".into()),
            os: Some("Linux".into()),
            arch: Some("32bit".into()),
        }
    }
}

/// Installation description attached to a concrete type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstallationSpec {
    /// On-demand or manual.
    pub mode: InstallMode,
    /// Platform constraints checked before install.
    pub constraints: InstallConstraints,
    /// URL of the deploy-file describing the automatic steps.
    pub deploy_file_url: String,
    /// Expected md5 of the deploy-file (hex).
    pub deploy_file_md5: Option<String>,
    /// Package this type installs (keys into the package catalog).
    pub package: String,
}

/// Deployment-count limits a provider can impose (§3.3: "a provider can
/// also specify minimum and maximum limits of deployments of an activity").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeploymentLimits {
    /// GLARE keeps at least this many deployments alive.
    pub min: u32,
    /// And never creates more than this many.
    pub max: u32,
}

impl Default for DeploymentLimits {
    fn default() -> Self {
        DeploymentLimits { min: 0, max: u32::MAX }
    }
}

/// An activity type entry.
#[derive(Clone, PartialEq, Debug)]
pub struct ActivityType {
    /// Unique type name (e.g. `"JPOVray"`).
    pub name: String,
    /// Abstract or concrete.
    pub kind: TypeKind,
    /// Names of base types this type extends (multiple inheritance:
    /// JPOVray extends both POVray and Imaging in Fig. 2).
    pub base_types: Vec<String>,
    /// Application domain (e.g. `"imaging"`).
    pub domain: String,
    /// Offered functions.
    pub functions: Vec<ActivityFunction>,
    /// Per-platform benchmarks.
    pub benchmarks: Vec<TypeBenchmark>,
    /// Activities that must be deployed first (e.g. Java, Ant).
    pub dependencies: Vec<String>,
    /// Installation description (`None` for abstract types).
    pub installation: Option<InstallationSpec>,
    /// Deployment-count limits.
    pub limits: DeploymentLimits,
    /// Provider contact, used for manual-mode notifications.
    pub provider_contact: String,
    /// Whether the provider has temporarily revoked the type.
    pub revoked: bool,
}

impl ActivityType {
    /// Minimal abstract type.
    pub fn abstract_type(name: &str, domain: &str) -> ActivityType {
        ActivityType {
            name: name.to_owned(),
            kind: TypeKind::Abstract,
            base_types: Vec::new(),
            domain: domain.to_owned(),
            functions: Vec::new(),
            benchmarks: Vec::new(),
            dependencies: Vec::new(),
            installation: None,
            limits: DeploymentLimits::default(),
            provider_contact: String::new(),
            revoked: false,
        }
    }

    /// Minimal concrete type installing `package`.
    pub fn concrete_type(name: &str, domain: &str, package: &str) -> ActivityType {
        ActivityType {
            name: name.to_owned(),
            kind: TypeKind::Concrete,
            base_types: Vec::new(),
            domain: domain.to_owned(),
            functions: Vec::new(),
            benchmarks: Vec::new(),
            dependencies: Vec::new(),
            installation: Some(InstallationSpec {
                mode: InstallMode::OnDemand,
                constraints: InstallConstraints::default(),
                deploy_file_url: format!("http://repo.example/deployfiles/{package}.build"),
                deploy_file_md5: None,
                package: package.to_owned(),
            }),
            limits: DeploymentLimits::default(),
            provider_contact: String::new(),
            revoked: false,
        }
    }

    /// Builder: add a base type.
    pub(crate) fn extends(mut self, base: &str) -> Self {
        self.base_types.push(base.to_owned());
        self
    }

    /// Builder: add a dependency.
    pub(crate) fn depends_on(mut self, dep: &str) -> Self {
        self.dependencies.push(dep.to_owned());
        self
    }

    /// Builder: add a function.
    pub fn with_function(mut self, name: &str, inputs: &[&str], outputs: &[&str]) -> Self {
        self.functions.push(ActivityFunction {
            name: name.to_owned(),
            inputs: inputs.iter().map(|s| (*s).to_owned()).collect(),
            outputs: outputs.iter().map(|s| (*s).to_owned()).collect(),
        });
        self
    }

    /// Builder: set limits.
    pub fn with_limits(mut self, min: u32, max: u32) -> Self {
        assert!(min <= max, "min limit exceeds max");
        self.limits = DeploymentLimits { min, max };
        self
    }

    /// Builder: set constraints on the installation spec.
    ///
    /// # Panics
    /// Panics on abstract types (they have no installation).
    pub fn with_constraints(mut self, constraints: InstallConstraints) -> Self {
        self.installation
            .as_mut()
            .expect("abstract types have no installation spec")
            .constraints = constraints;
        self
    }

    /// Whether the type can be deployed right now (concrete, installable,
    /// not revoked).
    pub(crate) fn is_deployable(&self) -> bool {
        self.kind == TypeKind::Concrete && self.installation.is_some() && !self.revoked
    }

    /// Render the `ActivityTypeEntry` XML of Fig. 9.
    pub fn to_xml(&self) -> XmlNode {
        let mut node = XmlNode::new("ActivityTypeEntry")
            .attr("name", &self.name)
            .attr(
                "kind",
                match self.kind {
                    TypeKind::Abstract => "abstract",
                    TypeKind::Concrete => "concrete",
                },
            )
            .attr("domain", &self.domain);
        if !self.base_types.is_empty() {
            node = node.child_text("Type", self.base_types.join(","));
        }
        if !self.dependencies.is_empty() {
            node = node.child_text("Dependency", self.dependencies.join(","));
        }
        for f in &self.functions {
            node = node.child(
                XmlNode::new("Function")
                    .attr("name", &f.name)
                    .child_text("Inputs", f.inputs.join(","))
                    .child_text("Outputs", f.outputs.join(",")),
            );
        }
        if let Some(inst) = &self.installation {
            let mut i = XmlNode::new("Installation").attr(
                "mode",
                match inst.mode {
                    InstallMode::OnDemand => "on-demand",
                    InstallMode::Manual => "manual",
                },
            );
            let mut c = XmlNode::new("Constraints");
            if let Some(v) = &inst.constraints.platform {
                c = c.child_text("platform", v);
            }
            if let Some(v) = &inst.constraints.os {
                c = c.child_text("os", v);
            }
            if let Some(v) = &inst.constraints.arch {
                c = c.child_text("arch", v);
            }
            i = i.child(c);
            let mut df = XmlNode::new("DeployFile").attr("url", &inst.deploy_file_url);
            if let Some(md5) = &inst.deploy_file_md5 {
                df = df.attr("md5sum", md5);
            }
            i = i.child(df).child_text("Package", &inst.package);
            node = node.child(i);
        }
        node
    }
}

impl ResourceProperties for ActivityType {
    fn to_property_document(&self) -> XmlNode {
        self.to_xml()
    }
}

/// The Fig. 2/3 example hierarchy: Imaging → POVray → JPOVray, plus the
/// Java and Ant dependency types.
pub fn example_hierarchy(now: SimTime) -> Vec<ActivityType> {
    let _ = now;
    vec![
        ActivityType::abstract_type("Imaging", "imaging")
            .with_function("render", &["scene:pov"], &["image:png"])
            .with_function("export", &["image:png"], &["file:bytes"]),
        ActivityType::abstract_type("POVray", "imaging").extends("Imaging"),
        ActivityType::concrete_type("JPOVray", "imaging", "jpovray")
            .extends("POVray")
            .extends("Imaging")
            .depends_on("Java")
            .depends_on("Ant"),
        ActivityType::concrete_type("Java", "platform", "java"),
        ActivityType::concrete_type("Ant", "platform", "ant"),
        ActivityType::concrete_type("Wien2k", "physics", "wien2k"),
        ActivityType::concrete_type("Invmod", "hydrology", "invmod"),
        ActivityType::concrete_type("Counter", "demo", "counter").depends_on("Java"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let t = ActivityType::concrete_type("JPOVray", "imaging", "jpovray")
            .extends("POVray")
            .extends("Imaging")
            .depends_on("Java")
            .with_function("render", &["scene:pov"], &["image:png"])
            .with_limits(1, 5);
        assert_eq!(t.base_types, vec!["POVray", "Imaging"]);
        assert_eq!(t.dependencies, vec!["Java"]);
        assert_eq!(t.limits.max, 5);
        assert!(t.is_deployable());
    }

    #[test]
    fn abstract_types_not_deployable() {
        let t = ActivityType::abstract_type("Imaging", "imaging");
        assert!(!t.is_deployable());
        let mut c = ActivityType::concrete_type("X", "d", "x");
        c.revoked = true;
        assert!(!c.is_deployable(), "revoked types are not deployable");
    }

    #[test]
    fn constraints_match_platforms() {
        let c = InstallConstraints::intel_linux_32();
        assert!(c.accepts(&Platform::intel_linux_32()));
        assert!(!c.accepts(&Platform::new("AMD", "Linux", "64bit")));
        let any = InstallConstraints::default();
        assert!(any.accepts(&Platform::new("SPARC", "Solaris", "64bit")));
        let os_only = InstallConstraints {
            os: Some("Linux".into()),
            ..Default::default()
        };
        assert!(os_only.accepts(&Platform::new("AMD", "Linux", "64bit")));
        assert!(!os_only.accepts(&Platform::new("AMD", "AIX", "64bit")));
    }

    #[test]
    fn example_hierarchy_is_consistent() {
        let types = example_hierarchy(SimTime::ZERO);
        let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
        // Every base type and dependency resolves within the set.
        for t in &types {
            for b in &t.base_types {
                assert!(names.contains(&b.as_str()), "{} extends unknown {b}", t.name);
            }
            for d in &t.dependencies {
                assert!(names.contains(&d.as_str()), "{} needs unknown {d}", t.name);
            }
        }
        // Packages referenced exist in the catalog.
        for t in &types {
            if let Some(inst) = &t.installation {
                assert!(
                    glare_services::packages::by_name(&inst.package).is_some(),
                    "{} references unknown package {}",
                    t.name,
                    inst.package
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "min limit exceeds max")]
    fn bad_limits_rejected() {
        let _ = ActivityType::concrete_type("X", "d", "x").with_limits(5, 1);
    }
}
