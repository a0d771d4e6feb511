//! Deploy-files: the scripted installation procedure of Fig. 9.
//!
//! A deploy-file is a `<Build>` document of named `<Step>`s with
//! `depends` edges, per-step `<Env>`/`<Property>` settings, timeouts and
//! md5 sums for downloads. GLARE's RDM substitutes the default environment
//! variables (`DEPLOYMENT_DIR`, `USER_HOME`, `GLOBUS_SCRATCH_DIR`,
//! `GLOBUS_LOCATION`, §3.4), topologically orders the steps, and hands
//! the result to a deployment channel.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use glare_fabric::sync::Mutex;
use glare_services::md5::Md5Digest;
use glare_services::packages::{BuildSystem, PackageSpec};
use glare_services::shell::expand_vars;
use glare_services::{ExpectScript, SiteHost};
use glare_wsrf::XmlNode;

use crate::error::GlareError;

/// One build step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeployStep {
    /// Step name (unique within the file).
    pub name: String,
    /// Names of steps that must complete first.
    pub depends: Vec<String>,
    /// The task command (e.g. `"tar xvfz"`, `"./configure"`, or
    /// `"$GLOBUS_LOCATION/bin/globus-url-copy"`).
    pub task: String,
    /// Working directory for the step.
    pub base_dir: Option<String>,
    /// Step timeout in seconds (0 = unlimited).
    pub timeout_secs: u64,
    /// Properties (`argument`, `source`, `destination`, `md5sum`, …).
    pub properties: Vec<(String, String)>,
    /// Extra environment exported by this step.
    pub env: Vec<(String, String)>,
    /// Whether re-running the step after a partial failure is safe. The
    /// deploy manager only retries idempotent steps; a non-idempotent step
    /// that fails mid-flight fails the whole installation. Defaults to
    /// true (`idempotent="false"` in the XML opts out).
    pub idempotent: bool,
}

impl DeployStep {
    /// First property value by name.
    pub(crate) fn property(&self, name: &str) -> Option<&str> {
        self.properties
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All `argument` properties in order.
    pub(crate) fn arguments(&self) -> Vec<&str> {
        self.properties
            .iter()
            .filter(|(k, _)| k == "argument")
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether this step is a GridFTP transfer.
    pub(crate) fn is_transfer(&self) -> bool {
        self.task.contains("globus-url-copy")
    }
}

/// A parsed deploy-file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeployFile {
    /// Build name (the activity it installs).
    pub name: String,
    /// Root working directory.
    pub base_dir: String,
    /// Default task attribute (unused by the executor, kept for fidelity).
    pub default_task: String,
    /// Steps in document order.
    pub steps: Vec<DeployStep>,
    /// The send/expect dialog for interactive installers.
    pub dialog: ExpectScript,
}

/// A step resolved into an executable action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannedAction {
    /// Fetch `url` to `destination`, verifying `md5` when present.
    Transfer {
        /// Step name this came from.
        step: String,
        /// Source URL.
        url: String,
        /// Destination path on the target site.
        destination: String,
        /// Expected digest.
        md5: Option<Md5Digest>,
        /// Timeout in seconds (0 = unlimited).
        timeout_secs: u64,
        /// Whether the step may be retried after a partial failure.
        idempotent: bool,
    },
    /// Run a shell command in `workdir`.
    Shell {
        /// Step name this came from.
        step: String,
        /// Fully substituted command line.
        command: String,
        /// Working directory.
        workdir: String,
        /// Timeout in seconds (0 = unlimited).
        timeout_secs: u64,
        /// Whether the step may be retried after a partial failure.
        idempotent: bool,
    },
}

impl PlannedAction {
    /// The step name that produced this action.
    pub fn step_name(&self) -> &str {
        match self {
            PlannedAction::Transfer { step, .. } | PlannedAction::Shell { step, .. } => step,
        }
    }

    /// The step timeout.
    pub(crate) fn timeout_secs(&self) -> u64 {
        match self {
            PlannedAction::Transfer { timeout_secs, .. }
            | PlannedAction::Shell { timeout_secs, .. } => *timeout_secs,
        }
    }

    /// Whether the deploy manager may retry this action after a
    /// transient failure.
    pub(crate) fn is_idempotent(&self) -> bool {
        match self {
            PlannedAction::Transfer { idempotent, .. }
            | PlannedAction::Shell { idempotent, .. } => *idempotent,
        }
    }
}

impl DeployFile {
    /// Parse from a `<Build>` XML document.
    pub fn from_xml(node: &XmlNode) -> Result<DeployFile, GlareError> {
        if node.name != "Build" {
            return Err(GlareError::InvalidType {
                name: node.name.to_string(),
                reason: "deploy-file root must be <Build>".into(),
            });
        }
        let name = node.attribute("name").unwrap_or("").to_owned();
        let base_dir = node.attribute("baseDir").unwrap_or("/tmp").to_owned();
        let default_task = node.attribute("defaultTask").unwrap_or("").to_owned();
        let mut steps = Vec::new();
        for s in node.children_named("Step") {
            let sname = s
                .attribute("name")
                .ok_or_else(|| GlareError::InvalidType {
                    name: name.clone(),
                    reason: "step without name".into(),
                })?
                .to_owned();
            let depends = s
                .attribute("depends")
                .map(|d| {
                    d.split(',')
                        .filter(|x| !x.is_empty())
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default();
            let task = s.attribute("task").unwrap_or("").to_owned();
            let timeout_secs = s
                .attribute("timeout")
                .and_then(|t| t.parse().ok())
                .unwrap_or(0);
            let properties = s
                .children_named("Property")
                .filter_map(|p| {
                    Some((
                        p.attribute("name")?.to_owned(),
                        p.attribute("value")?.to_owned(),
                    ))
                })
                .collect();
            let env = s
                .children_named("Env")
                .filter_map(|p| {
                    Some((
                        p.attribute("name")?.to_owned(),
                        p.attribute("value")?.to_owned(),
                    ))
                })
                .collect();
            steps.push(DeployStep {
                name: sname,
                depends,
                task,
                base_dir: s.attribute("baseDir").map(str::to_owned),
                timeout_secs,
                properties,
                env,
                idempotent: s.attribute("idempotent") != Some("false"),
            });
        }
        let mut dialog = ExpectScript::new();
        if let Some(d) = node.first_child("ExpectDialog") {
            for rule in d.children_named("Rule") {
                if let (Some(e), Some(snd)) = (rule.attribute("expect"), rule.attribute("send")) {
                    dialog = dialog.expect_send(e, snd);
                }
            }
        }
        let file = DeployFile {
            name,
            base_dir,
            default_task,
            steps,
            dialog,
        };
        file.validate()?;
        Ok(file)
    }

    /// Validate step names and the dependency DAG.
    pub fn validate(&self) -> Result<(), GlareError> {
        let mut names = HashSet::new();
        for s in &self.steps {
            if !names.insert(s.name.as_str()) {
                return Err(GlareError::InvalidType {
                    name: self.name.clone(),
                    reason: format!("duplicate step {}", s.name),
                });
            }
        }
        for s in &self.steps {
            for d in &s.depends {
                if !names.contains(d.as_str()) {
                    return Err(GlareError::InvalidType {
                        name: self.name.clone(),
                        reason: format!("step {} depends on unknown {d}", s.name),
                    });
                }
            }
        }
        self.topological_order()?;
        Ok(())
    }

    /// Steps in dependency order (stable within ties).
    pub(crate) fn topological_order(&self) -> Result<Vec<&DeployStep>, GlareError> {
        let by_name: HashMap<&str, &DeployStep> =
            self.steps.iter().map(|s| (s.name.as_str(), s)).collect();
        let mut order = Vec::new();
        let mut done: HashSet<&str> = HashSet::new();
        let mut visiting: HashSet<&str> = HashSet::new();
        fn visit<'a>(
            step: &'a DeployStep,
            by_name: &HashMap<&str, &'a DeployStep>,
            done: &mut HashSet<&'a str>,
            visiting: &mut HashSet<&'a str>,
            order: &mut Vec<&'a DeployStep>,
            file_name: &str,
        ) -> Result<(), GlareError> {
            if done.contains(step.name.as_str()) {
                return Ok(());
            }
            if !visiting.insert(step.name.as_str()) {
                return Err(GlareError::DependencyCycle {
                    path: vec![file_name.to_owned(), step.name.clone()],
                });
            }
            for d in &step.depends {
                if let Some(dep) = by_name.get(d.as_str()) {
                    visit(dep, by_name, done, visiting, order, file_name)?;
                }
            }
            visiting.remove(step.name.as_str());
            done.insert(step.name.as_str());
            order.push(step);
            Ok(())
        }
        for s in &self.steps {
            visit(s, &by_name, &mut done, &mut visiting, &mut order, &self.name)?;
        }
        Ok(order)
    }

    /// Resolve the file into executable actions under `env` (the RDM's
    /// variable substitution pass).
    pub fn plan(&self, env: &HashMap<String, String>) -> Result<Vec<PlannedAction>, GlareError> {
        let mut env = env.clone();
        let ordered = self.topological_order()?;
        let mut out = Vec::with_capacity(ordered.len());
        for step in ordered {
            // Step Env entries extend the environment for later steps too
            // (Fig. 9's Init step exports POVRAY_HOME/POVRAY_DIR).
            for (k, v) in &step.env {
                let expanded = expand_vars(v, &env);
                env.insert(k.clone(), expanded);
            }
            let workdir = expand_vars(
                step.base_dir.as_deref().unwrap_or(&self.base_dir),
                &env,
            );
            if step.is_transfer() {
                let url = step
                    .property("source")
                    .ok_or_else(|| GlareError::InvalidType {
                        name: self.name.clone(),
                        reason: format!("transfer step {} lacks source", step.name),
                    })?;
                let dst = step
                    .property("destination")
                    .ok_or_else(|| GlareError::InvalidType {
                        name: self.name.clone(),
                        reason: format!("transfer step {} lacks destination", step.name),
                    })?;
                let md5 = step.property("md5sum").and_then(Md5Digest::from_hex);
                let destination = glare_services::vfs::VPath::new(
                    expand_vars(dst, &env).trim_start_matches("file://"),
                )
                .to_string();
                out.push(PlannedAction::Transfer {
                    step: step.name.clone(),
                    url: expand_vars(url, &env),
                    destination,
                    md5,
                    timeout_secs: step.timeout_secs,
                    idempotent: step.idempotent,
                });
            } else {
                let mut command = expand_vars(&step.task, &env);
                for arg in step.arguments() {
                    command.push(' ');
                    command.push_str(&expand_vars(arg, &env));
                }
                out.push(PlannedAction::Shell {
                    step: step.name.clone(),
                    command,
                    workdir,
                    timeout_secs: step.timeout_secs,
                    idempotent: step.idempotent,
                });
            }
        }
        Ok(out)
    }

    /// Generate the canonical deploy-file for a catalog package: download →
    /// expand → (configure → build →) install, with the package's
    /// interactive dialog pre-scripted. `archive_md5` is the provider's
    /// pinned digest of the archive. The steps are the package's build
    /// system's row of the step-shape table, each depending on the one
    /// before.
    pub fn for_package(spec: &PackageSpec, archive_md5: Option<Md5Digest>) -> DeployFile {
        const SCRATCH: &str = "$GLOBUS_SCRATCH_DIR";
        let archive = format!("{SCRATCH}/{}", spec.archive_file());
        let unpack_dir = format!("{SCRATCH}/{}", spec.unpack_dir());
        let mut previous: Option<&str> = None;
        let steps = shapes(spec.build_system)
            .iter()
            .map(|s| {
                let argument = |value: String| vec![("argument".to_owned(), value)];
                let properties = match s.props {
                    Props::Nothing => vec![],
                    Props::Fetch => {
                        let mut p = vec![
                            ("source".to_owned(), spec.archive_url.clone()),
                            ("destination".to_owned(), format!("file://{archive}")),
                        ];
                        p.extend(archive_md5.map(|d| ("md5sum".to_owned(), d.to_hex())));
                        p
                    }
                    Props::Archive => argument(archive.clone()),
                    Props::Prefix => argument(format!("--prefix=$DEPLOYMENT_DIR/{}", spec.name)),
                    Props::Argument(value) => argument(value.to_owned()),
                };
                let base_dir = if s.in_unpack_dir {
                    &unpack_dir
                } else {
                    SCRATCH
                };
                DeployStep {
                    name: s.name.to_owned(),
                    depends: previous
                        .replace(s.name)
                        .map(str::to_owned)
                        .into_iter()
                        .collect(),
                    task: s.task.to_owned(),
                    base_dir: Some(base_dir.to_owned()),
                    timeout_secs: s.timeout_secs,
                    properties,
                    env: vec![],
                    idempotent: s.idempotent,
                }
            })
            .collect();
        // `$DEPLOYMENT_DIR` style answers are left for the executor's
        // environment to expand at send time.
        let dialog = spec.prompts.iter().fold(ExpectScript::new(), |d, p| {
            d.expect_send(&p.prompt, &p.answer)
        });
        DeployFile {
            name: spec.name.clone(),
            base_dir: SCRATCH.to_owned(),
            default_task: "Deploy".into(),
            steps,
            dialog,
        }
    }

    /// Render back to XML (for registries and GridFTP hosting).
    pub fn to_xml(&self) -> XmlNode {
        let mut node = XmlNode::new("Build")
            .attr("name", &self.name)
            .attr("baseDir", &self.base_dir)
            .attr("defaultTask", &self.default_task);
        for s in &self.steps {
            let mut sn = XmlNode::new("Step")
                .attr("name", &s.name)
                .attr("task", &s.task)
                .attr("timeout", s.timeout_secs.to_string());
            if !s.depends.is_empty() {
                sn = sn.attr("depends", s.depends.join(","));
            }
            if let Some(b) = &s.base_dir {
                sn = sn.attr("baseDir", b);
            }
            if !s.idempotent {
                sn = sn.attr("idempotent", "false");
            }
            for (k, v) in &s.env {
                sn = sn.child(XmlNode::new("Env").attr("name", k).attr("value", v));
            }
            for (k, v) in &s.properties {
                sn = sn.child(XmlNode::new("Property").attr("name", k).attr("value", v));
            }
            node = node.child(sn);
        }
        if !self.dialog.is_empty() {
            let mut d = XmlNode::new("ExpectDialog");
            for r in self.dialog.rules() {
                d = d.child(
                    XmlNode::new("Rule")
                        .attr("expect", &r.pattern)
                        .attr("send", &r.send),
                );
            }
            node = node.child(d);
        }
        node
    }
}

/// One step of a generated deploy-file, before a package fills it in.
#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    task: &'static str,
    /// Runs in the unpacked tree rather than the scratch directory.
    in_unpack_dir: bool,
    timeout_secs: u64,
    props: Props,
    idempotent: bool,
}

/// What a generated step's `<Property>`s say.
#[derive(Clone, Copy)]
enum Props {
    Nothing,
    /// `source`, `destination` (and `md5sum` when pinned): the download.
    Fetch,
    /// `argument`: the archive's scratch path.
    Archive,
    /// `argument`: `--prefix=$DEPLOYMENT_DIR/<package>`.
    Prefix,
    /// `argument`: this text.
    Argument(&'static str),
}

/// An idempotent step: `name` runs `task` (in the unpacked tree when
/// `in_unpack_dir`) for at most `timeout_secs`, with `props`.
const fn step(
    name: &'static str,
    task: &'static str,
    in_unpack_dir: bool,
    timeout_secs: u64,
    props: Props,
) -> Shape {
    Shape {
        name,
        task,
        in_unpack_dir,
        timeout_secs,
        props,
        idempotent: true,
    }
}

const INIT: Shape = step(
    "Init",
    "mkdir-p",
    false,
    10,
    Props::Argument("$DEPLOYMENT_DIR"),
);
const DOWNLOAD: Shape = step(
    "Download",
    "$GLOBUS_LOCATION/bin/globus-url-copy",
    false,
    120,
    Props::Fetch,
);
const EXPAND: Shape = step("Expand", "tar xvfz", false, 60, Props::Archive);
const AUTOCONF: &[Shape] = &[
    INIT,
    DOWNLOAD,
    EXPAND,
    step("Configure", "./configure", true, 120, Props::Prefix),
    step("Build", "make", true, 600, Props::Nothing),
    step("Install", "make install", true, 120, Props::Nothing),
];
const ANT: &[Shape] = &[
    INIT,
    DOWNLOAD,
    EXPAND,
    step("Deploy", "ant", true, 600, Props::Argument("Deploy")),
];
const PRECOMPILED: &[Shape] = &[
    INIT,
    DOWNLOAD,
    EXPAND,
    step("Install", "make install", true, 300, Props::Nothing),
];
/// Deploying the same GAR into a live container twice errors, so a
/// partial deploy must not be blindly rerun.
const SERVICE_ARCHIVE: &[Shape] = &[
    INIT,
    DOWNLOAD,
    Shape {
        idempotent: false,
        ..step("Deploy", "globus-deploy-gar", false, 600, Props::Archive)
    },
];

/// The steps a build system's deploy-file runs, in order.
fn shapes(build: BuildSystem) -> &'static [Shape] {
    match build {
        BuildSystem::Autoconf => AUTOCONF,
        BuildSystem::Ant => ANT,
        BuildSystem::Precompiled => PRECOMPILED,
        BuildSystem::ServiceArchive => SERVICE_ARCHIVE,
    }
}

/// A catalogue package's deploy-file and its plan: data, built once per
/// (package, archive digest) in a process and shared by every install.
///
/// A plan depends on the package, the digest and the environment it is
/// planned under, and that environment is always
/// [`SiteHost::default_env`]: an install plans against the session it has
/// just opened, and every session on every host opens in that one map.
#[derive(Debug, PartialEq, Eq)]
pub struct PackagePlan {
    /// The generated deploy-file ([`DeployFile::for_package`]).
    pub file: DeployFile,
    /// Its steps resolved under the default environment.
    pub actions: Vec<PlannedAction>,
}

impl PackagePlan {
    /// The shared plan of `spec` with archive digest `archive_md5`, built
    /// by the first install that asks for it. A repository pinning another
    /// digest (or none) gets its own entry.
    pub(crate) fn shared(
        spec: &'static PackageSpec,
        archive_md5: Option<Md5Digest>,
    ) -> Result<Arc<PackagePlan>, GlareError> {
        type Plans = HashMap<(&'static str, Option<Md5Digest>), Arc<PackagePlan>>;
        static PLANS: OnceLock<Mutex<Plans>> = OnceLock::new();
        let mut plans = PLANS.get_or_init(Mutex::default).lock();
        let key = (spec.name.as_str(), archive_md5);
        if let Some(plan) = plans.get(&key) {
            return Ok(Arc::clone(plan));
        }
        let file = DeployFile::for_package(spec, archive_md5);
        let actions = file.plan(SiteHost::default_env())?;
        let plan = Arc::new(PackagePlan { file, actions });
        plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glare_services::packages;

    fn default_env() -> HashMap<String, String> {
        HashMap::from([
            ("DEPLOYMENT_DIR".to_owned(), "/opt/deployments".to_owned()),
            ("USER_HOME".to_owned(), "/home/grid".to_owned()),
            ("GLOBUS_SCRATCH_DIR".to_owned(), "/scratch".to_owned()),
            ("GLOBUS_LOCATION".to_owned(), "/opt/globus".to_owned()),
        ])
    }

    #[test]
    fn fig9_like_document_parses_and_plans() {
        let xml = r#"
          <Build baseDir="/tmp/papers/" defaultTask="Deploy" name="Povray">
            <Step name="Init" task="mkdir-p" baseDir="$DEPLOYMENT_DIR" timeout="10">
              <Env name="POVRAY_HOME" value="$DEPLOYMENT_DIR/povray/"/>
              <Env name="POVRAY_DIR" value="/tmp/povray/"/>
              <Property name="argument" value="$POVRAY_HOME"/>
            </Step>
            <Step name="Download" depends="Init"
                  task="$GLOBUS_LOCATION/bin/globus-url-copy"
                  baseDir="$POVRAY_DIR" timeout="20">
              <Property name="source" value="http://www.povray.org/ftp/povlinux-3.6.tgz"/>
              <Property name="destination" value="file:///$POVRAY_DIR/povray.tgz"/>
            </Step>
            <Step name="Expand" depends="Download" task="tar xvfz"
                  baseDir="$POVRAY_DIR" timeout="10">
              <Property name="argument" value="$POVRAY_DIR/povray.tgz"/>
            </Step>
            <Step name="Build" depends="Expand" task="make"
                  baseDir="$POVRAY_DIR/povray-3.6.1" timeout="200"/>
          </Build>"#;
        let node = glare_wsrf::parse_xml(xml).unwrap();
        let df = DeployFile::from_xml(&node).unwrap();
        assert_eq!(df.name, "Povray");
        assert_eq!(df.steps.len(), 4);
        let plan = df.plan(&default_env()).unwrap();
        assert_eq!(plan.len(), 4);
        // Init's Env must be visible in later steps.
        match &plan[1] {
            PlannedAction::Transfer {
                url, destination, ..
            } => {
                assert_eq!(url, "http://www.povray.org/ftp/povlinux-3.6.tgz");
                assert_eq!(destination, "/tmp/povray/povray.tgz");
            }
            other => panic!("expected transfer, got {other:?}"),
        }
        match &plan[0] {
            PlannedAction::Shell { command, .. } => {
                assert_eq!(command, "mkdir-p /opt/deployments/povray/");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dependency_order_respected() {
        let mut df = DeployFile::for_package(&packages::invmod(), None);
        // Shuffle document order; plan must still be topological.
        df.steps.reverse();
        let plan = df.plan(&default_env()).unwrap();
        let names: Vec<&str> = plan.iter().map(PlannedAction::step_name).collect();
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(pos("Init") < pos("Download"));
        assert!(pos("Download") < pos("Expand"));
        assert!(pos("Expand") < pos("Configure"));
        assert!(pos("Configure") < pos("Build"));
        assert!(pos("Build") < pos("Install"));
    }

    #[test]
    fn cycles_and_bad_refs_rejected() {
        let cyc = DeployFile {
            name: "c".into(),
            base_dir: "/tmp".into(),
            default_task: String::new(),
            steps: vec![
                DeployStep {
                    name: "A".into(),
                    depends: vec!["B".into()],
                    task: "true".into(),
                    base_dir: None,
                    timeout_secs: 0,
                    properties: vec![],
                    env: vec![],
                idempotent: true,
                },
                DeployStep {
                    name: "B".into(),
                    depends: vec!["A".into()],
                    task: "true".into(),
                    base_dir: None,
                    timeout_secs: 0,
                    properties: vec![],
                    env: vec![],
                idempotent: true,
                },
            ],
            dialog: ExpectScript::new(),
        };
        assert!(matches!(
            cyc.validate(),
            Err(GlareError::DependencyCycle { .. })
        ));
        let bad_ref = DeployFile {
            steps: vec![DeployStep {
                name: "A".into(),
                depends: vec!["Ghost".into()],
                task: "true".into(),
                base_dir: None,
                timeout_secs: 0,
                properties: vec![],
                env: vec![],
                idempotent: true,
            }],
            ..cyc.clone()
        };
        assert!(matches!(
            bad_ref.validate(),
            Err(GlareError::InvalidType { .. })
        ));
    }

    #[test]
    fn generated_files_per_build_system() {
        let auto = DeployFile::for_package(&packages::povray(), None);
        let names: Vec<&str> = auto.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Init", "Download", "Expand", "Configure", "Build", "Install"]);
        assert_eq!(auto.dialog.len(), 3, "povray dialog scripted");

        let ant = DeployFile::for_package(&packages::jpovray(), None);
        let names: Vec<&str> = ant.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Init", "Download", "Expand", "Deploy"]);

        let pre = DeployFile::for_package(&packages::wien2k(), None);
        let names: Vec<&str> = pre.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Init", "Download", "Expand", "Install"]);

        let gar = DeployFile::for_package(&packages::counter(), None);
        let names: Vec<&str> = gar.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Init", "Download", "Deploy"]);
    }

    #[test]
    fn xml_round_trip() {
        let df = DeployFile::for_package(
            &packages::povray(),
            Md5Digest::from_hex("d41d8cd98f00b204e9800998ecf8427e"),
        );
        let xml = df.to_xml();
        let back = DeployFile::from_xml(&xml).unwrap();
        assert_eq!(back, df);
    }

    #[test]
    fn transfer_md5_propagates_into_plan() {
        let digest = Md5Digest::of(b"tgz:povray:3.6.1");
        let df = DeployFile::for_package(&packages::povray(), Some(digest));
        let plan = df.plan(&default_env()).unwrap();
        let transfer = plan
            .iter()
            .find(|a| matches!(a, PlannedAction::Transfer { .. }))
            .unwrap();
        match transfer {
            PlannedAction::Transfer { md5, .. } => assert_eq!(*md5, Some(digest)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn idempotence_flag_round_trips_and_reaches_plan() {
        let df = DeployFile::for_package(&packages::counter(), None);
        let deploy = df.steps.iter().find(|s| s.name == "Deploy").unwrap();
        assert!(!deploy.idempotent, "GAR deploys are not rerunnable");
        let xml = df.to_xml();
        assert!(xml.children_named("Step").any(|s| {
            s.attribute("name") == Some("Deploy") && s.attribute("idempotent") == Some("false")
        }));
        let back = DeployFile::from_xml(&xml).unwrap();
        assert_eq!(back, df);
        let plan = df.plan(&default_env()).unwrap();
        let flags: Vec<bool> = plan.iter().map(PlannedAction::is_idempotent).collect();
        assert_eq!(flags, vec![true, true, false], "Init, Download, Deploy");
    }

    /// Also the premise of the shell's vocabulary: every shell step of every
    /// catalogue plan arrives with its variables expanded and begins with
    /// one of the six words `SiteHost::exec` runs.
    #[test]
    fn the_shared_plan_is_a_fresh_plan_under_the_default_env() {
        const WORDS: [&str; 6] =
            ["mkdir-p", "tar", "./configure", "make", "ant", "globus-deploy-gar"];
        let repo = glare_services::gridftp::Repository::with_catalog();
        for spec in packages::catalog() {
            let spec = packages::by_name(&spec.name).expect("catalogue package");
            let pinned = repo.md5_of(&spec.archive_url);
            assert!(
                pinned.is_some(),
                "{} is pinned in the catalogue repository",
                spec.name
            );
            let other = Some(Md5Digest::of(spec.name.as_bytes()));
            for md5 in [pinned, None, other] {
                let shared = PackagePlan::shared(spec, md5).unwrap();
                let file = DeployFile::for_package(spec, md5);
                let actions = file.plan(&default_env()).unwrap();
                assert_eq!(
                    *shared,
                    PackagePlan { file, actions },
                    "{} with {md5:?}",
                    spec.name
                );
                let again = PackagePlan::shared(spec, md5).unwrap();
                assert!(Arc::ptr_eq(&shared, &again), "{} planned once", spec.name);
                for action in &shared.actions {
                    if let PlannedAction::Shell { command, .. } = action {
                        assert!(!command.contains('$'), "{}: {command:?} is expanded", spec.name);
                        let word = command.split_whitespace().next().unwrap_or_default();
                        assert!(WORDS.contains(&word), "{}: {command:?} is run by exec", spec.name);
                    }
                }
            }
            let plan = |md5| PackagePlan::shared(spec, md5).unwrap();
            assert_ne!(
                plan(pinned).actions,
                plan(other).actions,
                "{}: another plan",
                spec.name
            );
        }
    }

    #[test]
    fn duplicate_step_names_rejected() {
        let mut df = DeployFile::for_package(&packages::wien2k(), None);
        let dup = df.steps[0].clone();
        df.steps.push(dup);
        assert!(matches!(df.validate(), Err(GlareError::InvalidType { .. })));
    }
}
