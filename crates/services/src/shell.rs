//! The virtual shell: the paper's "deployment handler is an Expect-based
//! virtual terminal used to automatically interact with operating systems
//! of different Grid sites" needs an operating-system side to talk to.
//!
//! `SiteHost::exec` interprets the command vocabulary deploy-files use
//! (`mkdir -p`, `tar xvfz`, `./configure`, `make`, `make install`, `ant`,
//! `globus-deploy-gar`, plus coreutils) against the site's [`crate::vfs::Vfs`], charges
//! each command its CPU cost from the [`PackageSpec`] being built, and
//! surfaces interactive installer prompts exactly where the real packages
//! have them (POVray's license/user-type/path dialog) so the Expect engine
//! has something genuine to automate.

use std::borrow::Cow;
use std::collections::HashMap;

use glare_fabric::SimDuration;

use crate::host::{InstallRecord, SiteHost};
use crate::packages::{BuildSystem, InstallPrompt, PackageSpec};
use crate::vfs::{VFile, VPath};

/// Cost charged for trivial commands (mkdir, echo, cp…).
pub(crate) const TRIVIAL_CMD_COST: SimDuration = SimDuration::from_millis(5);

/// Extra cost per interactive prompt round-trip.
pub(crate) const PROMPT_COST: SimDuration = SimDuration::from_millis(50);

/// Result of a completed command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmdResult {
    /// Unix-style exit code (0 = success).
    pub exit_code: i32,
    /// Captured stdout.
    pub stdout: String,
    /// CPU cost the command consumed on the site.
    pub cost: SimDuration,
}

impl CmdResult {
    fn ok(stdout: impl Into<String>, cost: SimDuration) -> CmdResult {
        CmdResult {
            exit_code: 0,
            stdout: stdout.into(),
            cost,
        }
    }

    fn fail(code: i32, msg: impl Into<String>) -> CmdResult {
        CmdResult {
            exit_code: code,
            stdout: msg.into(),
            cost: TRIVIAL_CMD_COST,
        }
    }

    /// Whether the command succeeded.
    pub(crate) fn success(&self) -> bool {
        self.exit_code == 0
    }
}

/// Outcome of `SiteHost::exec`: finished, or blocked on a prompt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Command ran to completion.
    Done(CmdResult),
    /// The command is waiting for interactive input; an Expect script
    /// ([`run_expect`](crate::expect::run_expect)) answers it.
    Prompt {
        /// Text the installer printed.
        prompt: String,
        /// Cost consumed so far by this step.
        cost: SimDuration,
    },
}

#[derive(Clone, Debug)]
enum PendingAction {
    Configure { dir: VPath, prefix: VPath },
    Install { dir: VPath, prefix: VPath },
    AntDeploy { dir: VPath, prefix: VPath },
    DeployGar { archive: VPath },
}

#[derive(Clone, Debug)]
struct Pending {
    prompts: Vec<InstallPrompt>,
    next: usize,
    action: PendingAction,
    phase_cost: SimDuration,
}

/// One interactive shell session on a site (cwd + environment + any
/// in-progress installer dialog).
#[derive(Clone, Debug)]
pub struct ShellSession {
    /// Working directory.
    pub cwd: VPath,
    /// Environment variables (expanded into command lines): the shared
    /// [`SiteHost::default_env`] until an `export` copies it.
    pub env: Cow<'static, HashMap<String, String>>,
    pending: Option<Pending>,
}

impl SiteHost {
    /// Open a session with the host's default environment, cwd `/home/grid`.
    pub fn open_session(&self) -> ShellSession {
        ShellSession {
            cwd: VPath::new("/home/grid"),
            env: Cow::Borrowed(SiteHost::default_env()),
            pending: None,
        }
    }

    /// Enter `dir` as `mkdir -p dir && cd dir` would, resolved against the
    /// cwd the way `cd` resolves it, but taking the path whole: no variable
    /// expansion, no word splitting. Charges nothing, as neither command's
    /// cost was ever charged to a step. Returns whether the session is now
    /// in `dir` (an empty path, or one a file blocks, is not entered).
    pub fn enter_dir(&mut self, session: &mut ShellSession, dir: &str) -> bool {
        if dir.is_empty() {
            return false;
        }
        let target = self.resolve(session, dir);
        let entered = self.vfs.mkdir_p(&target).is_ok();
        if entered {
            session.cwd = target;
        }
        entered
    }

    /// Execute one command line in the session.
    pub(crate) fn exec(&mut self, session: &mut ShellSession, line: &str) -> ExecOutcome {
        assert!(
            session.pending.is_none(),
            "session is waiting for interactive input; call respond()"
        );
        let line = expand_vars(line, &session.env);
        let tokens = tokenize(&line);
        let Some(cmd) = tokens.first().map(String::as_str) else {
            return ExecOutcome::Done(CmdResult::ok("", SimDuration::ZERO));
        };
        let args: Vec<&str> = tokens.iter().skip(1).map(String::as_str).collect();
        match cmd {
            "cd" => self.cmd_cd(session, &args),
            "mkdir" | "mkdir-p" => self.cmd_mkdir(session, cmd, &args),
            "echo" => ExecOutcome::Done(CmdResult::ok(args.join(" "), TRIVIAL_CMD_COST)),
            "true" => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
            "false" => ExecOutcome::Done(CmdResult::fail(1, "")),
            "pwd" => ExecOutcome::Done(CmdResult::ok(session.cwd.to_string(), TRIVIAL_CMD_COST)),
            "export" => self.cmd_export(session, &args),
            "tar" => self.cmd_tar(session, &args),
            "./configure" | "configure" => self.cmd_configure(session, &args),
            "make" => self.cmd_make(session, &args),
            "ant" => self.cmd_ant(session, &args),
            "globus-deploy-gar" => self.cmd_deploy_gar(session, &args),
            "cp" => self.cmd_cp(session, &args),
            "rm" => self.cmd_rm(session, &args),
            "chmod" => self.cmd_chmod(session, &args),
            "test" => self.cmd_test(session, &args),
            "cat" => self.cmd_cat(session, &args),
            "ls" => self.cmd_ls(session, &args),
            other => ExecOutcome::Done(CmdResult::fail(127, format!("{other}: command not found"))),
        }
    }

    /// Answer the pending installer prompt. An empty answer aborts the
    /// installer with exit code 1.
    pub(crate) fn respond(&mut self, session: &mut ShellSession, answer: &str) -> ExecOutcome {
        let mut pending = session
            .pending
            .take()
            .expect("respond() without a pending prompt");
        if answer.is_empty() {
            return ExecOutcome::Done(CmdResult::fail(1, "installer aborted: empty answer"));
        }
        if let PendingAction::Configure { dir, .. }
        | PendingAction::Install { dir, .. }
        | PendingAction::AntDeploy { dir, .. } = &pending.action
        {
            let dir = dir.clone();
            if let Some((_, state)) = self.package_dir_mut(&dir) {
                state.prompt_answers.push(answer.to_owned());
            }
        }
        pending.next += 1;
        pending.phase_cost += PROMPT_COST;
        if pending.next < pending.prompts.len() {
            let prompt = pending.prompts[pending.next].prompt.clone();
            let cost = pending.phase_cost;
            session.pending = Some(pending);
            return ExecOutcome::Prompt { prompt, cost };
        }
        self.finish_action(pending.action, pending.phase_cost)
    }

    fn start_or_finish(
        &mut self,
        session: &mut ShellSession,
        prompts: Vec<InstallPrompt>,
        action: PendingAction,
        phase_cost: SimDuration,
    ) -> ExecOutcome {
        if prompts.is_empty() {
            self.finish_action(action, phase_cost)
        } else {
            let prompt = prompts[0].prompt.clone();
            session.pending = Some(Pending {
                prompts,
                next: 0,
                action,
                phase_cost,
            });
            ExecOutcome::Prompt {
                prompt,
                cost: SimDuration::ZERO,
            }
        }
    }

    fn finish_action(&mut self, action: PendingAction, phase_cost: SimDuration) -> ExecOutcome {
        match action {
            PendingAction::Configure { dir, prefix } => {
                let makefile = dir.join("Makefile");
                self.vfs
                    .write_text(&makefile, "# generated by configure\n")
                    .expect("package dir exists");
                let (_, state) = self.package_dir_mut(&dir).expect("registered dir");
                state.configured = true;
                state.prefix = Some(prefix);
                ExecOutcome::Done(CmdResult::ok("configure: creating Makefile", phase_cost))
            }
            PendingAction::Install { dir, prefix } => {
                let spec = self.package_dir(&dir).expect("registered dir").0.clone();
                let record = self.materialize_install(&spec, &prefix);
                self.record_install(record);
                ExecOutcome::Done(CmdResult::ok(
                    format!("installed {} to {prefix}", spec.name),
                    phase_cost,
                ))
            }
            PendingAction::AntDeploy { dir, prefix } => {
                let spec = self.package_dir(&dir).expect("registered dir").0.clone();
                {
                    let (_, state) = self.package_dir_mut(&dir).expect("registered dir");
                    state.built = true;
                }
                let record = self.materialize_install(&spec, &prefix);
                self.record_install(record);
                ExecOutcome::Done(CmdResult::ok(
                    format!("BUILD SUCCESSFUL\ndeployed {} to {prefix}", spec.name),
                    phase_cost,
                ))
            }
            PendingAction::DeployGar { archive } => {
                let spec = self
                    .archive_package(&archive)
                    .expect("checked by caller")
                    .clone();
                let home = VPath::new(&format!("/opt/globus/services/{}", spec.name));
                let record = self.materialize_install(&spec, &home);
                self.record_install(record);
                ExecOutcome::Done(CmdResult::ok(
                    format!("deployed gar {} into container", spec.name),
                    phase_cost,
                ))
            }
        }
    }

    /// Create the install tree (prefix/bin/* with exec bits) and the
    /// resulting [`InstallRecord`].
    fn materialize_install(&mut self, spec: &PackageSpec, prefix: &VPath) -> InstallRecord {
        self.vfs.mkdir_p(prefix).expect("prefix creatable");
        let mut executables = Vec::new();
        for rel in &spec.executables {
            let path = prefix.join(rel);
            if let Some(parent) = path.parent() {
                self.vfs.mkdir_p(&parent).expect("bin dir");
            }
            self.vfs
                .write_file(
                    &path,
                    VFile {
                        size: 1_500_000,
                        content: format!("ELF:{}:{}", spec.name, rel).into_bytes(),
                        executable: true,
                    },
                )
                .expect("write executable");
            executables.push(path);
        }
        InstallRecord {
            package: spec.name.clone(),
            home: prefix.clone(),
            executables,
            services: spec.services.clone(),
        }
    }

    fn resolve(&self, session: &ShellSession, arg: &str) -> VPath {
        if arg.starts_with('/') {
            VPath::new(arg)
        } else {
            session.cwd.join(arg)
        }
    }

    fn cmd_cd(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let Some(dir) = args.first() else {
            return ExecOutcome::Done(CmdResult::fail(2, "cd: missing operand"));
        };
        let target = self.resolve(session, dir);
        if self.vfs.is_dir(&target) {
            session.cwd = target;
            ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST))
        } else {
            ExecOutcome::Done(CmdResult::fail(1, format!("cd: {dir}: no such directory")))
        }
    }

    fn cmd_mkdir(&mut self, session: &mut ShellSession, cmd: &str, args: &[&str]) -> ExecOutcome {
        let mut rest = args;
        if cmd == "mkdir" {
            if rest.first() != Some(&"-p") {
                return ExecOutcome::Done(CmdResult::fail(2, "mkdir: only -p supported"));
            }
            rest = &rest[1..];
        }
        let Some(dir) = rest.first() else {
            return ExecOutcome::Done(CmdResult::fail(2, "mkdir: missing operand"));
        };
        let target = self.resolve(session, dir);
        match self.vfs.mkdir_p(&target) {
            Ok(()) => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
    }

    fn cmd_export(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        for a in args {
            if let Some((k, v)) = a.split_once('=') {
                session.env.to_mut().insert(k.to_owned(), v.to_owned());
            }
        }
        ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST))
    }

    fn cmd_tar(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let (Some(flags), Some(archive)) = (args.first(), args.get(1)) else {
            return ExecOutcome::Done(CmdResult::fail(2, "tar: usage: tar xvfz <archive>"));
        };
        if !flags.contains('x') {
            return ExecOutcome::Done(CmdResult::fail(2, "tar: only extraction supported"));
        }
        let archive_path = self.resolve(session, archive);
        if !self.vfs.is_file(&archive_path) {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                format!("tar: {archive}: no such file"),
            ));
        }
        let Some(spec) = self.archive_package(&archive_path).cloned() else {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                format!("tar: {archive}: not a recognized package archive"),
            ));
        };
        let dir = session.cwd.join(&spec.unpack_dir());
        self.vfs.mkdir_p(&dir).expect("cwd exists");
        self.vfs
            .write_text(&dir.join("README"), &format!("{} {}", spec.name, spec.version))
            .expect("unpack dir exists");
        match spec.build_system {
            BuildSystem::Autoconf => {
                self.vfs
                    .write_text(&dir.join("configure"), "#!/bin/sh\n")
                    .expect("dir");
                self.vfs.mkdir_p(&dir.join("src")).expect("dir");
            }
            BuildSystem::Ant => {
                self.vfs
                    .write_text(&dir.join("build.xml"), "<project name=\"build\"/>")
                    .expect("dir");
                self.vfs.mkdir_p(&dir.join("src")).expect("dir");
            }
            BuildSystem::Precompiled => {
                // Binaries ship in the tarball; they become *installed*
                // executables only after `make install` copies them.
                self.vfs.mkdir_p(&dir.join("bin")).expect("dir");
                for rel in &spec.executables {
                    let p = dir.join(rel);
                    if let Some(parent) = p.parent() {
                        self.vfs.mkdir_p(&parent).expect("dir");
                    }
                    self.vfs
                        .write_text(&p, &format!("shipped:{}", spec.name))
                        .expect("dir");
                }
            }
            BuildSystem::ServiceArchive => {}
        }
        let cost = spec.unpack_cost;
        self.register_package_dir(dir.clone(), spec);
        ExecOutcome::Done(CmdResult::ok(format!("extracted into {dir}"), cost))
    }

    fn cmd_configure(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let dir = session.cwd.clone();
        let Some((spec, _)) = self.package_dir(&dir) else {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                "configure: not inside an unpacked package directory",
            ));
        };
        let spec = spec.clone();
        if spec.build_system != BuildSystem::Autoconf {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                format!("configure: {} does not use autoconf", spec.name),
            ));
        }
        let prefix = args
            .iter()
            .find_map(|a| a.strip_prefix("--prefix="))
            .map(VPath::new)
            .unwrap_or_else(|| {
                VPath::new(&format!(
                    "{}/{}",
                    session
                        .env
                        .get("DEPLOYMENT_DIR")
                        .map_or("/opt/deployments", String::as_str),
                    spec.name
                ))
            });
        self.start_or_finish(
            session,
            spec.prompts.clone(),
            PendingAction::Configure { dir, prefix },
            spec.configure_cost,
        )
    }

    fn cmd_make(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let dir = session.cwd.clone();
        let Some((spec, state)) = self.package_dir(&dir) else {
            return ExecOutcome::Done(CmdResult::fail(2, "make: no Makefile in this directory"));
        };
        let spec = spec.clone();
        let state = state.clone();
        let install = args.first() == Some(&"install");
        match (spec.build_system, install) {
            (BuildSystem::Autoconf, false) => {
                if !state.configured {
                    return ExecOutcome::Done(CmdResult::fail(
                        2,
                        "make: *** No targets. Run ./configure first.",
                    ));
                }
                self.vfs.mkdir_p(&dir.join("build")).expect("dir");
                let (_, st) = self.package_dir_mut(&dir).expect("registered");
                st.built = true;
                ExecOutcome::Done(CmdResult::ok("compilation finished", spec.build_cost))
            }
            (BuildSystem::Autoconf, true) => {
                if !state.built {
                    return ExecOutcome::Done(CmdResult::fail(
                        2,
                        "make: install: nothing built yet",
                    ));
                }
                let prefix = state.prefix.clone().expect("configured implies prefix");
                self.start_or_finish(
                    session,
                    vec![], // autoconf prompts fire at configure time
                    PendingAction::Install { dir, prefix },
                    spec.install_cost,
                )
            }
            (BuildSystem::Precompiled, true) => {
                let prefix = args
                    .iter()
                    .find_map(|a| a.strip_prefix("PREFIX="))
                    .map(VPath::new)
                    .unwrap_or_else(|| {
                        VPath::new(&format!(
                            "{}/{}",
                            session
                                .env
                                .get("DEPLOYMENT_DIR")
                                .map_or("/opt/deployments", String::as_str),
                            spec.name
                        ))
                    });
                self.start_or_finish(
                    session,
                    spec.prompts.clone(),
                    PendingAction::Install { dir, prefix },
                    spec.install_cost,
                )
            }
            (BuildSystem::Precompiled, false) => ExecOutcome::Done(CmdResult::ok(
                "nothing to compile (pre-built package)",
                TRIVIAL_CMD_COST,
            )),
            _ => ExecOutcome::Done(CmdResult::fail(
                2,
                format!("make: {} does not use make", spec.name),
            )),
        }
    }

    fn cmd_ant(&mut self, session: &mut ShellSession, _args: &[&str]) -> ExecOutcome {
        let dir = session.cwd.clone();
        let Some((spec, _)) = self.package_dir(&dir) else {
            return ExecOutcome::Done(CmdResult::fail(2, "ant: build.xml not found"));
        };
        let spec = spec.clone();
        if spec.build_system != BuildSystem::Ant {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                format!("ant: {} does not use ant", spec.name),
            ));
        }
        // Ant builds need the `ant` and `java` activities installed.
        for dep in ["ant", "java"] {
            if !self.is_installed(dep) {
                return ExecOutcome::Done(CmdResult::fail(
                    1,
                    format!("ant: required tool {dep:?} is not installed on this site"),
                ));
            }
        }
        let prefix = VPath::new(&format!(
            "{}/{}",
            session
                .env
                .get("DEPLOYMENT_DIR")
                .map_or("/opt/deployments", String::as_str),
            spec.name
        ));
        self.start_or_finish(
            session,
            spec.prompts.clone(),
            PendingAction::AntDeploy { dir, prefix },
            spec.build_cost + spec.install_cost,
        )
    }

    fn cmd_deploy_gar(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let Some(archive) = args.first() else {
            return ExecOutcome::Done(CmdResult::fail(2, "globus-deploy-gar: missing archive"));
        };
        let path = self.resolve(session, archive);
        let Some(spec) = self.archive_package(&path).cloned() else {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                format!("globus-deploy-gar: {archive}: unknown gar"),
            ));
        };
        if spec.build_system != BuildSystem::ServiceArchive {
            return ExecOutcome::Done(CmdResult::fail(
                2,
                format!("globus-deploy-gar: {} is not a service archive", spec.name),
            ));
        }
        let cost = spec.build_cost + spec.install_cost;
        self.start_or_finish(
            session,
            spec.prompts.clone(),
            PendingAction::DeployGar { archive: path },
            cost,
        )
    }

    fn cmd_cp(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let (Some(src), Some(dst)) = (args.first(), args.get(1)) else {
            return ExecOutcome::Done(CmdResult::fail(2, "cp: usage: cp <src> <dst>"));
        };
        let src = self.resolve(session, src);
        let dst = self.resolve(session, dst);
        match self.vfs.read_file(&src) {
            Ok(file) => {
                let file = file.clone();
                let dst = if self.vfs.is_dir(&dst) {
                    dst.join(src.file_name())
                } else {
                    dst
                };
                match self.vfs.write_file(&dst, file) {
                    Ok(()) => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
                    Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
                }
            }
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
    }

    fn cmd_rm(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let target = match args {
            ["-rf", t] | ["-r", t] | [t] => *t,
            _ => return ExecOutcome::Done(CmdResult::fail(2, "rm: usage: rm [-rf] <path>")),
        };
        let path = self.resolve(session, target);
        match self.vfs.remove(&path) {
            Ok(()) => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
            // rm -rf of a missing path succeeds, like the real tool.
            Err(_) if args.first() == Some(&"-rf") => {
                ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST))
            }
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
    }

    fn cmd_chmod(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let (Some(mode), Some(file)) = (args.first(), args.get(1)) else {
            return ExecOutcome::Done(CmdResult::fail(2, "chmod: usage: chmod +x <file>"));
        };
        let exec = match *mode {
            "+x" => true,
            "-x" => false,
            _ => return ExecOutcome::Done(CmdResult::fail(2, "chmod: only +x/-x supported")),
        };
        let path = self.resolve(session, file);
        match self.vfs.chmod_exec(&path, exec) {
            Ok(()) => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
    }

    fn cmd_test(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        match args {
            ["-e", p] => {
                let path = self.resolve(session, p);
                if self.vfs.exists(&path) {
                    ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST))
                } else {
                    ExecOutcome::Done(CmdResult::fail(1, ""))
                }
            }
            ["-x", p] => {
                let path = self.resolve(session, p);
                match self.vfs.read_file(&path) {
                    Ok(f) if f.executable => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
                    _ => ExecOutcome::Done(CmdResult::fail(1, "")),
                }
            }
            _ => ExecOutcome::Done(CmdResult::fail(2, "test: only -e/-x supported")),
        }
    }

    fn cmd_cat(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let Some(file) = args.first() else {
            return ExecOutcome::Done(CmdResult::fail(2, "cat: missing operand"));
        };
        let path = self.resolve(session, file);
        match self.vfs.read_file(&path) {
            Ok(f) => ExecOutcome::Done(CmdResult::ok(
                String::from_utf8_lossy(&f.content).into_owned(),
                TRIVIAL_CMD_COST,
            )),
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
    }

    fn cmd_ls(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let dir = args
            .first()
            .map(|a| self.resolve(session, a))
            .unwrap_or_else(|| session.cwd.clone());
        match self.vfs.list(&dir) {
            Ok(entries) => {
                let names: Vec<&str> = entries.iter().map(|p| p.file_name()).collect();
                ExecOutcome::Done(CmdResult::ok(names.join("\n"), TRIVIAL_CMD_COST))
            }
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
    }
}

/// Expand `$VAR` and `${VAR}` references from the environment.
pub fn expand_vars(line: &str, env: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' && i + 1 < bytes.len() {
            let (name, consumed) = if bytes[i + 1] == b'{' {
                match line[i + 2..].find('}') {
                    Some(end) => (&line[i + 2..i + 2 + end], end + 3),
                    None => ("", 0),
                }
            } else {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                (&line[start..end], end - i)
            };
            if consumed > 0 && !name.is_empty() {
                if let Some(v) = env.get(name) {
                    out.push_str(v);
                } // Unknown vars expand to empty, like sh.
                i += consumed;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quote: Option<char> = None;
    for c in line.chars() {
        match in_quote {
            Some(q) if c == q => in_quote = None,
            Some(_) => cur.push(c),
            None => match c {
                '"' | '\'' => in_quote = Some(c),
                c if c.is_whitespace() => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                c => cur.push(c),
            },
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packages;
    use glare_fabric::topology::Platform;

    impl ExecOutcome {
        /// Unwrap a completed result (panics on a pending prompt).
        pub(crate) fn expect_done(self, what: &str) -> CmdResult {
            match self {
                ExecOutcome::Done(r) => r,
                ExecOutcome::Prompt { prompt, .. } => {
                    panic!("{what}: unexpected interactive prompt {prompt:?}")
                }
            }
        }
    }

    impl ShellSession {
        /// Whether the session is blocked on an installer prompt.
        pub(crate) fn is_interactive(&self) -> bool {
            self.pending.is_some()
        }
    }

    fn host() -> SiteHost {
        SiteHost::new("site0", Platform::intel_linux_32())
    }

    /// Drop an archive into /tmp and register its package.
    fn stage_archive(h: &mut SiteHost, spec: &PackageSpec) -> String {
        let path = VPath::new(&format!("/tmp/{}", spec.archive_file()));
        h.vfs
            .write_file(
                &path,
                VFile {
                    size: spec.archive_bytes,
                    content: Vec::new(),
                    executable: false,
                },
            )
            .unwrap();
        h.register_archive(path.clone(), spec.clone());
        path.to_string()
    }

    fn run(h: &mut SiteHost, s: &mut ShellSession, cmd: &str) -> CmdResult {
        h.exec(s, cmd).expect_done(cmd)
    }

    #[test]
    fn basic_commands() {
        let mut h = host();
        let mut s = h.open_session();
        assert_eq!(run(&mut h, &mut s, "pwd").stdout, "/home/grid");
        assert!(run(&mut h, &mut s, "mkdir -p work/sub").success());
        assert!(run(&mut h, &mut s, "cd work/sub").success());
        assert_eq!(run(&mut h, &mut s, "pwd").stdout, "/home/grid/work/sub");
        assert_eq!(run(&mut h, &mut s, "echo hi there").stdout, "hi there");
        assert_eq!(run(&mut h, &mut s, "nosuchcmd").exit_code, 127);
        assert_eq!(run(&mut h, &mut s, "cd /nope").exit_code, 1);
    }

    #[test]
    fn env_expansion() {
        let mut h = host();
        let mut s = h.open_session();
        assert_eq!(
            run(&mut h, &mut s, "echo $DEPLOYMENT_DIR/x").stdout,
            "/opt/deployments/x"
        );
        run(&mut h, &mut s, "export FOO=bar");
        assert_eq!(run(&mut h, &mut s, "echo ${FOO}baz").stdout, "barbaz");
        assert_eq!(run(&mut h, &mut s, "echo $UNSET_").stdout, "");
    }

    #[test]
    fn autoconf_lifecycle_invmod() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::invmod();
        let archive = stage_archive(&mut h, &spec);
        run(&mut h, &mut s, "cd /tmp");
        // make before unpack fails
        assert_eq!(run(&mut h, &mut s, "make").exit_code, 2);
        let r = run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        assert!(r.success());
        assert_eq!(r.cost, spec.unpack_cost);
        run(&mut h, &mut s, "cd invmod-2.1");
        // make before configure fails
        assert_eq!(run(&mut h, &mut s, "make").exit_code, 2);
        let r = run(&mut h, &mut s, "./configure --prefix=/opt/deployments/invmod");
        assert!(r.success());
        assert_eq!(r.cost, spec.configure_cost);
        // make install before make fails
        assert_eq!(run(&mut h, &mut s, "make install").exit_code, 2);
        let r = run(&mut h, &mut s, "make");
        assert_eq!(r.cost, spec.build_cost);
        let r = run(&mut h, &mut s, "make install");
        assert!(r.success());
        assert_eq!(r.cost, spec.install_cost);
        let rec = h.installation("invmod").unwrap();
        assert_eq!(rec.home, VPath::new("/opt/deployments/invmod"));
        assert_eq!(rec.executables.len(), 2);
        assert!(h
            .vfs
            .read_file(&VPath::new("/opt/deployments/invmod/bin/invmod"))
            .unwrap()
            .executable);
    }

    #[test]
    fn interactive_povray_dialog() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::povray();
        let archive = stage_archive(&mut h, &spec);
        run(&mut h, &mut s, "cd /scratch");
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        run(&mut h, &mut s, "cd povray-3.6.1");
        let out = h.exec(&mut s, "./configure");
        let ExecOutcome::Prompt { prompt, .. } = out else {
            panic!("expected license prompt, got {out:?}");
        };
        assert!(prompt.contains("license"));
        assert!(s.is_interactive());
        let out = h.respond(&mut s, "yes");
        let ExecOutcome::Prompt { prompt, .. } = out else {
            panic!("expected user-type prompt");
        };
        assert!(prompt.contains("user type"));
        let out = h.respond(&mut s, "all");
        let ExecOutcome::Prompt { prompt, .. } = out else {
            panic!("expected path prompt");
        };
        assert!(prompt.contains("Install path"));
        let out = h.respond(&mut s, "/opt/deployments/povray");
        let ExecOutcome::Done(r) = out else {
            panic!("dialog should finish");
        };
        assert!(r.success());
        // Cost includes configure plus per-prompt overhead.
        assert_eq!(r.cost, spec.configure_cost + PROMPT_COST * 3);
        assert!(run(&mut h, &mut s, "make").success());
        assert!(run(&mut h, &mut s, "make install").success());
        assert!(h.is_installed("povray"));
    }

    #[test]
    fn empty_answer_aborts_installer() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::povray();
        let archive = stage_archive(&mut h, &spec);
        run(&mut h, &mut s, "cd /scratch");
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        run(&mut h, &mut s, "cd povray-3.6.1");
        let ExecOutcome::Prompt { .. } = h.exec(&mut s, "./configure") else {
            panic!()
        };
        let ExecOutcome::Done(r) = h.respond(&mut s, "") else {
            panic!()
        };
        assert_eq!(r.exit_code, 1);
        assert!(!h.is_installed("povray"));
    }

    #[test]
    fn precompiled_wien2k_skips_build() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::wien2k();
        let archive = stage_archive(&mut h, &spec);
        run(&mut h, &mut s, "cd /scratch");
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        run(&mut h, &mut s, "cd wien2k-04.4");
        let r = run(&mut h, &mut s, "make");
        assert!(r.stdout.contains("pre-built"));
        let r = run(&mut h, &mut s, "make install");
        assert!(r.success());
        assert_eq!(r.cost, spec.install_cost);
        assert_eq!(h.installation("wien2k").unwrap().executables.len(), 3);
    }

    #[test]
    fn ant_build_requires_toolchain() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::jpovray();
        let archive = stage_archive(&mut h, &spec);
        run(&mut h, &mut s, "cd /scratch");
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        run(&mut h, &mut s, "cd jpovray-1.0");
        let r = run(&mut h, &mut s, "ant Deploy");
        assert_eq!(r.exit_code, 1, "java/ant missing: {}", r.stdout);
        // Install the toolchain via the quick path, then retry.
        for dep in [packages::jdk(), packages::ant()] {
            let a = stage_archive(&mut h, &dep);
            let mut s2 = h.open_session();
            run(&mut h, &mut s2, "cd /scratch");
            run(&mut h, &mut s2, &format!("tar xvfz {a}"));
            run(&mut h, &mut s2, &format!("cd {}", dep.unpack_dir()));
            match h.exec(&mut s2, "make install") {
                ExecOutcome::Done(r) => assert!(r.success(), "{}", r.stdout),
                ExecOutcome::Prompt { .. } => {
                    // JDK license prompt.
                    let out = h.respond(&mut s2, "yes");
                    assert!(matches!(out, ExecOutcome::Done(r) if r.success()));
                }
            }
        }
        let r = run(&mut h, &mut s, "ant Deploy");
        assert!(r.success(), "{}", r.stdout);
        assert!(r.stdout.contains("BUILD SUCCESSFUL"));
        let rec = h.installation("jpovray").unwrap();
        assert_eq!(rec.services, vec!["WS-JPOVray".to_owned()]);
        assert!(h.running_services().contains(&"WS-JPOVray".to_owned()));
    }

    #[test]
    fn gar_deployment_counter() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::counter();
        let archive = stage_archive(&mut h, &spec);
        let r = run(&mut h, &mut s, &format!("globus-deploy-gar {archive}"));
        assert!(r.success());
        assert_eq!(r.cost, spec.build_cost + spec.install_cost);
        assert!(h.running_services().contains(&"CounterService".to_owned()));
        assert!(h.service_address("CounterService").is_some());
    }

    #[test]
    fn coreutils() {
        let mut h = host();
        let mut s = h.open_session();
        run(&mut h, &mut s, "mkdir -p /work");
        run(&mut h, &mut s, "cd /work");
        h.vfs.write_text(&VPath::new("/work/a.txt"), "data").unwrap();
        assert!(run(&mut h, &mut s, "cp a.txt b.txt").success());
        assert_eq!(run(&mut h, &mut s, "cat b.txt").stdout, "data");
        assert!(run(&mut h, &mut s, "test -e b.txt").success());
        assert_eq!(run(&mut h, &mut s, "test -x b.txt").exit_code, 1);
        assert!(run(&mut h, &mut s, "chmod +x b.txt").success());
        assert!(run(&mut h, &mut s, "test -x b.txt").success());
        assert_eq!(run(&mut h, &mut s, "ls").stdout, "a.txt\nb.txt");
        assert!(run(&mut h, &mut s, "rm b.txt").success());
        assert_eq!(run(&mut h, &mut s, "test -e b.txt").exit_code, 1);
        assert!(run(&mut h, &mut s, "rm -rf missing").success());
        assert_eq!(run(&mut h, &mut s, "rm missing").exit_code, 1);
    }

    #[test]
    fn enter_dir_is_mkdir_p_then_cd_with_the_path_whole() {
        let mut h = host();
        let mut s = h.open_session();
        assert!(h.enter_dir(&mut s, "/scratch/my build"));
        assert_eq!(s.cwd, VPath::new("/scratch/my build"));
        assert!(
            !h.vfs.exists(&VPath::new("/scratch/my")),
            "not split at the space"
        );
        // Relative to the cwd, as `cd` resolves it; an existing one is reused.
        assert!(h.enter_dir(&mut s, "sub/dir"));
        assert_eq!(s.cwd, VPath::new("/scratch/my build/sub/dir"));
        assert!(h.enter_dir(&mut s, "/scratch"));
        assert_eq!(run(&mut h, &mut s, "pwd").stdout, "/scratch");
        // Not entered: an empty path, or one a file stands in the way of.
        h.vfs.write_text(&VPath::new("/scratch/f"), "x").unwrap();
        assert!(!h.enter_dir(&mut s, ""));
        assert!(!h.enter_dir(&mut s, "/scratch/f"));
        assert!(!h.enter_dir(&mut s, "f/below"));
        assert_eq!(
            s.cwd,
            VPath::new("/scratch"),
            "a failed entry leaves the cwd"
        );
        assert!(
            matches!(s.env, Cow::Borrowed(_)),
            "entering copies no environment"
        );
        run(&mut h, &mut s, "export FOO=bar");
        assert_eq!(s.env["FOO"], "bar");
        assert!(
            !SiteHost::default_env().contains_key("FOO"),
            "export copies the shared map"
        );
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(
            tokenize(r#"echo "two words" 'single'"#),
            vec!["echo", "two words", "single"]
        );
        assert_eq!(tokenize("  spaced   out  "), vec!["spaced", "out"]);
        assert!(tokenize("").is_empty());
    }
}
