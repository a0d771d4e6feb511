//! The virtual shell: the paper's "deployment handler is an Expect-based
//! virtual terminal used to automatically interact with operating systems
//! of different Grid sites" needs an operating-system side to talk to.
//!
//! `SiteHost::exec` runs the words a deploy-file plan sends, and no
//! others: `mkdir-p`, `tar xvfz`, `./configure`, `make`, `make install`,
//! `ant` and `globus-deploy-gar` (any other word exits 127; `mkdir -p`
//! stays as a spelling of `mkdir-p` while `perf/` sends it). It runs them
//! against the site's [`crate::vfs::Vfs`], charges each command its CPU
//! cost from the [`PackageSpec`] being built, and surfaces interactive
//! installer prompts exactly where the real packages have them (POVray's
//! license/user-type/path dialog) so the Expect engine has something
//! genuine to automate. A line arrives with its variables already
//! expanded: the RDM resolves a deploy-file once, when it plans it
//! ([`expand_vars`] is that pass), and `exec` only splits it into words.

use std::collections::HashMap;

use glare_fabric::SimDuration;

use crate::host::{InstallRecord, SiteHost};
use crate::packages::{BuildSystem, InstallPrompt, PackageSpec};
use crate::vfs::{VFile, VPath};

/// Cost charged for trivial commands (`mkdir-p`, a failed command, `make`
/// of a pre-built package).
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

/// One interactive shell session on a site (cwd + any in-progress
/// installer dialog). It has no environment of its own: every session runs
/// in [`SiteHost::default_env`], the one its plans were resolved under.
#[derive(Clone, Debug)]
pub struct ShellSession {
    /// Working directory.
    pub cwd: VPath,
    pending: Option<Pending>,
}

impl SiteHost {
    /// Open a session with cwd `/home/grid`.
    pub fn open_session(&self) -> ShellSession {
        ShellSession {
            cwd: VPath::new("/home/grid"),
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

    /// Execute one planned command line (its variables already expanded)
    /// in the session.
    pub(crate) fn exec(&mut self, session: &mut ShellSession, line: &str) -> ExecOutcome {
        assert!(
            session.pending.is_none(),
            "session is waiting for interactive input; call respond()"
        );
        let tokens = tokenize(line);
        let Some(cmd) = tokens.first().map(String::as_str) else {
            return ExecOutcome::Done(CmdResult::ok("", SimDuration::ZERO));
        };
        let args: Vec<&str> = tokens.iter().skip(1).map(String::as_str).collect();
        match cmd {
            "mkdir-p" => self.cmd_mkdir(session, &args),
            // `perf/src/micro.rs` times `mkdir -p`: this arm stays while it
            // does (ROADMAP 14(f)).
            "mkdir" if args.first() == Some(&"-p") => self.cmd_mkdir(session, &args[1..]),
            "tar" => self.cmd_tar(session, &args),
            "./configure" => self.cmd_configure(session, &args),
            "make" => self.cmd_make(session, &args),
            "ant" => self.cmd_ant(session, &args),
            "globus-deploy-gar" => self.cmd_deploy_gar(session, &args),
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

    fn cmd_mkdir(&mut self, session: &mut ShellSession, args: &[&str]) -> ExecOutcome {
        let Some(dir) = args.first() else {
            return ExecOutcome::Done(CmdResult::fail(2, "mkdir-p: missing operand"));
        };
        let target = self.resolve(session, dir);
        match self.vfs.mkdir_p(&target) {
            Ok(()) => ExecOutcome::Done(CmdResult::ok("", TRIVIAL_CMD_COST)),
            Err(e) => ExecOutcome::Done(CmdResult::fail(1, e.to_string())),
        }
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
            .map_or_else(|| default_prefix(&spec), VPath::new);
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
                    .map_or_else(|| default_prefix(&spec), VPath::new);
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
        let prefix = default_prefix(&spec);
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
}

/// `$DEPLOYMENT_DIR/<package>` under [`SiteHost::default_env`]: where a
/// package installs when its command names no prefix.
fn default_prefix(spec: &PackageSpec) -> VPath {
    VPath::new(&format!("{}/{}", SiteHost::default_env()["DEPLOYMENT_DIR"], spec.name))
}

/// Expand `$VAR` and `${VAR}` references from the environment: the pass
/// that resolves a deploy-file when it is planned.
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
        assert!(run(&mut h, &mut s, "mkdir-p work/sub").success());
        assert!(h.vfs.is_dir(&VPath::new("/home/grid/work/sub")));
        assert!(run(&mut h, &mut s, "mkdir -p /tmp/x").success());
        assert!(h.vfs.is_dir(&VPath::new("/tmp/x")));
        assert_eq!(run(&mut h, &mut s, "nosuchcmd").exit_code, 127);
    }

    #[test]
    fn autoconf_lifecycle_invmod() {
        let mut h = host();
        let mut s = h.open_session();
        let spec = packages::invmod();
        let archive = stage_archive(&mut h, &spec);
        assert!(h.enter_dir(&mut s, "/tmp"));
        // make before unpack fails
        assert_eq!(run(&mut h, &mut s, "make").exit_code, 2);
        let r = run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        assert!(r.success());
        assert_eq!(r.cost, spec.unpack_cost);
        assert!(h.enter_dir(&mut s, "invmod-2.1"));
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
        assert!(h.enter_dir(&mut s, "/scratch"));
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        assert!(h.enter_dir(&mut s, "povray-3.6.1"));
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
        assert!(h.enter_dir(&mut s, "/scratch"));
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        assert!(h.enter_dir(&mut s, "povray-3.6.1"));
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
        assert!(h.enter_dir(&mut s, "/scratch"));
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        assert!(h.enter_dir(&mut s, "wien2k-04.4"));
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
        assert!(h.enter_dir(&mut s, "/scratch"));
        run(&mut h, &mut s, &format!("tar xvfz {archive}"));
        assert!(h.enter_dir(&mut s, "jpovray-1.0"));
        let r = run(&mut h, &mut s, "ant Deploy");
        assert_eq!(r.exit_code, 1, "java/ant missing: {}", r.stdout);
        // Install the toolchain via the quick path, then retry.
        for dep in [packages::jdk(), packages::ant()] {
            let a = stage_archive(&mut h, &dep);
            let mut s2 = h.open_session();
            assert!(h.enter_dir(&mut s2, "/scratch"));
            run(&mut h, &mut s2, &format!("tar xvfz {a}"));
            assert!(h.enter_dir(&mut s2, &dep.unpack_dir()));
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
        assert_eq!(s.cwd, VPath::new("/scratch"));
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
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(
            tokenize(r#"mkdir-p "two words" 'single'"#),
            vec!["mkdir-p", "two words", "single"]
        );
        assert_eq!(tokenize("  spaced   out  "), vec!["spaced", "out"]);
        assert!(tokenize("").is_empty());
    }
}
