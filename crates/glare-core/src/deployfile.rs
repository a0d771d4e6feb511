//! Deploy-files: the scripted installation procedure of Fig. 9.
//!
//! A deploy-file is a `<Build>` document of named `<Step>`s with
//! `depends` edges, per-step `<Env>`/`<Property>` settings, timeouts and
//! md5 sums for downloads. GLARE's RDM substitutes the default environment
//! variables (`DEPLOYMENT_DIR`, `USER_HOME`, `GLOBUS_SCRATCH_DIR`,
//! `GLOBUS_LOCATION`, §3.4), topologically orders the steps, and hands
//! the result to a deployment channel.

use std::collections::{HashMap, HashSet};

use glare_services::md5::Md5Digest;
use glare_services::packages::{BuildSystem, PackageSpec};
use glare_services::shell::expand_vars;
use glare_services::ExpectScript;
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
    pub fn property(&self, name: &str) -> Option<&str> {
        self.properties
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All `argument` properties in order.
    pub fn arguments(&self) -> Vec<&str> {
        self.properties
            .iter()
            .filter(|(k, _)| k == "argument")
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether this step is a GridFTP transfer.
    pub fn is_transfer(&self) -> bool {
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
    pub fn timeout_secs(&self) -> u64 {
        match self {
            PlannedAction::Transfer { timeout_secs, .. }
            | PlannedAction::Shell { timeout_secs, .. } => *timeout_secs,
        }
    }

    /// Whether the deploy manager may retry this action after a
    /// transient failure.
    pub fn is_idempotent(&self) -> bool {
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
    pub fn topological_order(&self) -> Result<Vec<&DeployStep>, GlareError> {
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
    /// pinned digest of the archive.
    pub fn for_package(spec: &PackageSpec, archive_md5: Option<Md5Digest>) -> DeployFile {
        let scratch = "$GLOBUS_SCRATCH_DIR".to_owned();
        let archive = format!("{scratch}/{}", spec.archive_file());
        let unpack_dir = format!("{scratch}/{}", spec.unpack_dir());
        let mut steps = vec![
            DeployStep {
                name: "Init".into(),
                depends: vec![],
                task: "mkdir-p".into(),
                base_dir: Some(scratch.clone()),
                timeout_secs: 10,
                properties: vec![("argument".into(), "$DEPLOYMENT_DIR".into())],
                env: vec![],
                idempotent: true,
            },
            DeployStep {
                name: "Download".into(),
                depends: vec!["Init".into()],
                task: "$GLOBUS_LOCATION/bin/globus-url-copy".into(),
                base_dir: Some(scratch.clone()),
                timeout_secs: 120,
                properties: {
                    let mut p = vec![
                        ("source".into(), spec.archive_url.clone()),
                        ("destination".into(), format!("file://{archive}")),
                    ];
                    if let Some(d) = archive_md5 {
                        p.push(("md5sum".into(), d.to_hex()));
                    }
                    p
                },
                env: vec![],
                idempotent: true,
            },
        ];
        let mut last = "Download".to_owned();
        if spec.build_system != BuildSystem::ServiceArchive {
            steps.push(DeployStep {
                name: "Expand".into(),
                depends: vec![last.clone()],
                task: "tar xvfz".into(),
                base_dir: Some(scratch.clone()),
                timeout_secs: 60,
                properties: vec![("argument".into(), archive.clone())],
                env: vec![],
                idempotent: true,
            });
            last = "Expand".into();
        }
        match spec.build_system {
            BuildSystem::Autoconf => {
                steps.push(DeployStep {
                    name: "Configure".into(),
                    depends: vec![last.clone()],
                    task: "./configure".into(),
                    base_dir: Some(unpack_dir.clone()),
                    timeout_secs: 120,
                    properties: vec![(
                        "argument".into(),
                        format!("--prefix=$DEPLOYMENT_DIR/{}", spec.name),
                    )],
                    env: vec![],
                idempotent: true,
                });
                steps.push(DeployStep {
                    name: "Build".into(),
                    depends: vec!["Configure".into()],
                    task: "make".into(),
                    base_dir: Some(unpack_dir.clone()),
                    timeout_secs: 600,
                    properties: vec![],
                    env: vec![],
                idempotent: true,
                });
                steps.push(DeployStep {
                    name: "Install".into(),
                    depends: vec!["Build".into()],
                    task: "make install".into(),
                    base_dir: Some(unpack_dir.clone()),
                    timeout_secs: 120,
                    properties: vec![],
                    env: vec![],
                idempotent: true,
                });
            }
            BuildSystem::Ant => {
                steps.push(DeployStep {
                    name: "Deploy".into(),
                    depends: vec![last.clone()],
                    task: "ant".into(),
                    base_dir: Some(unpack_dir.clone()),
                    timeout_secs: 600,
                    properties: vec![("argument".into(), "Deploy".into())],
                    env: vec![],
                idempotent: true,
                });
            }
            BuildSystem::Precompiled => {
                steps.push(DeployStep {
                    name: "Install".into(),
                    depends: vec![last.clone()],
                    task: "make install".into(),
                    base_dir: Some(unpack_dir.clone()),
                    timeout_secs: 300,
                    properties: vec![],
                    env: vec![],
                idempotent: true,
                });
            }
            BuildSystem::ServiceArchive => {
                // Deploying the same GAR into a live container twice
                // errors, so a partial deploy must not be blindly rerun.
                steps.push(DeployStep {
                    name: "Deploy".into(),
                    depends: vec![last.clone()],
                    task: "globus-deploy-gar".into(),
                    base_dir: Some(scratch.clone()),
                    timeout_secs: 600,
                    properties: vec![("argument".into(), archive.clone())],
                    env: vec![],
                    idempotent: false,
                });
            }
        }
        let mut dialog = ExpectScript::new();
        for p in &spec.prompts {
            // `$DEPLOYMENT_DIR` style answers are left for the executor's
            // environment to expand at send time.
            dialog = dialog.expect_send(&p.prompt, &p.answer);
        }
        DeployFile {
            name: spec.name.clone(),
            base_dir: scratch,
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

    #[test]
    fn duplicate_step_names_rejected() {
        let mut df = DeployFile::for_package(&packages::wien2k(), None);
        let dup = df.steps[0].clone();
        df.steps.push(dup);
        assert!(matches!(df.validate(), Err(GlareError::InvalidType { .. })));
    }
}
