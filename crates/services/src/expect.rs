//! The Expect engine: scripted automation of interactive installs.
//!
//! "Deployment Handler is an Expect-based virtual terminal used to
//! automatically interact with operating systems of different Grid sites
//! and perform interactive process of local or remote installation. ...
//! activity provider specifies this interaction dialog in deploy-file in
//! the form of send/expect patterns" (§3.4).
//!
//! An [`ExpectScript`] is an ordered list of `expect → send` rules. The
//! engine runs a command through [`SiteHost::exec`]; whenever the command
//! blocks on a prompt, the engine finds the first unconsumed rule whose
//! pattern is contained in the prompt text and sends its answer. No match
//! (or an exhausted script) aborts the installation — exactly the failure
//! an unattended `expect` run hits when an installer asks something the
//! script didn't anticipate.

use glare_fabric::{SimTime, SpanKind, TraceContext, TraceSink};

use crate::host::SiteHost;
use crate::shell::{CmdResult, ExecOutcome, ShellSession};

/// One `expect pattern → send answer` rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectRule {
    /// Substring to look for in the prompt.
    pub pattern: String,
    /// Line to send when it matches.
    pub send: String,
}

/// An ordered send/expect dialog.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpectScript {
    rules: Vec<ExpectRule>,
}

impl ExpectScript {
    /// Empty script (only non-interactive commands will succeed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: add a rule.
    pub fn expect_send(mut self, pattern: impl Into<String>, send: impl Into<String>) -> Self {
        self.rules.push(ExpectRule {
            pattern: pattern.into(),
            send: send.into(),
        });
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the script has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules in order.
    pub fn rules(&self) -> &[ExpectRule] {
        &self.rules
    }
}

/// Why an expect-driven command failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExpectError {
    /// A prompt appeared that no remaining rule matches.
    UnmatchedPrompt {
        /// The prompt text.
        prompt: String,
    },
    /// The command completed with a non-zero exit code.
    CommandFailed(CmdResult),
}

impl std::fmt::Display for ExpectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpectError::UnmatchedPrompt { prompt } => {
                write!(f, "no expect rule matches prompt {prompt:?}")
            }
            ExpectError::CommandFailed(r) => {
                write!(f, "command failed with exit {}: {}", r.exit_code, r.stdout)
            }
        }
    }
}

impl std::error::Error for ExpectError {}

/// Outcome of an expect-driven command: the result plus the number of
/// dialog round-trips performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectOutcome {
    /// The completed command result.
    pub result: CmdResult,
    /// How many prompts were answered.
    pub interactions: usize,
}

/// Drive one command to completion, answering prompts from the script.
///
/// Rules are consumed in order: each rule may fire at most once, and a
/// prompt is matched against the earliest unconsumed rule first (the way
/// a linear `expect` script behaves).
pub fn run_expect(
    host: &mut SiteHost,
    session: &mut ShellSession,
    command: &str,
    script: &ExpectScript,
) -> Result<ExpectOutcome, ExpectError> {
    let mut consumed = vec![false; script.rules.len()];
    let mut interactions = 0usize;
    let mut outcome = host.exec(session, command);
    loop {
        match outcome {
            ExecOutcome::Done(result) => {
                return if result.success() {
                    Ok(ExpectOutcome {
                        result,
                        interactions,
                    })
                } else {
                    Err(ExpectError::CommandFailed(result))
                };
            }
            ExecOutcome::Prompt { prompt, .. } => {
                let hit = script
                    .rules
                    .iter()
                    .enumerate()
                    .find(|(i, r)| !consumed[*i] && prompt.contains(&r.pattern));
                match hit {
                    Some((i, rule)) => {
                        consumed[i] = true;
                        interactions += 1;
                        let answer = rule.send.clone();
                        outcome = host.respond(session, &answer);
                    }
                    None => {
                        // Abort the wedged installer so the session is reusable.
                        let _ = host.respond(session, "");
                        return Err(ExpectError::UnmatchedPrompt { prompt });
                    }
                }
            }
        }
    }
}

/// Like [`run_expect`], but records the command as an `expect.run`
/// service span into `trace`, laid out over `[at, at + cost]` on the
/// virtual clock and parented under `parent`. Failed commands record
/// nothing (the caller annotates its own step span instead).
#[allow(clippy::too_many_arguments)]
pub fn run_expect_traced(
    host: &mut SiteHost,
    session: &mut ShellSession,
    command: &str,
    script: &ExpectScript,
    trace: &mut TraceSink,
    parent: Option<TraceContext>,
    at: SimTime,
) -> Result<ExpectOutcome, ExpectError> {
    let out = run_expect(host, session, command, script)?;
    trace.record(
        parent,
        "expect.run",
        SpanKind::Service,
        None,
        None,
        at,
        at + out.result.cost,
        [
            ("command", command.to_owned().into()),
            ("interactions", out.interactions.to_string().into()),
        ],
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packages;
    use crate::vfs::{VFile, VPath};
    use glare_fabric::topology::Platform;

    fn staged_povray_host() -> (SiteHost, ShellSession) {
        let mut h = SiteHost::new("site0", Platform::intel_linux_32());
        let spec = packages::povray();
        let path = VPath::new("/tmp/povlinux-3.6.tgz");
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
        h.register_archive(path, spec);
        let mut s = h.open_session();
        h.exec(&mut s, "cd /scratch").expect_done("cd");
        h.exec(&mut s, "tar xvfz /tmp/povlinux-3.6.tgz")
            .expect_done("tar");
        h.exec(&mut s, "cd povray-3.6.1").expect_done("cd");
        (h, s)
    }

    fn povray_script() -> ExpectScript {
        ExpectScript::new()
            .expect_send("license", "yes")
            .expect_send("user type", "all")
            .expect_send("Install path", "/opt/deployments/povray")
    }

    #[test]
    fn scripted_dialog_completes_install() {
        let (mut h, mut s) = staged_povray_host();
        let out = run_expect(&mut h, &mut s, "./configure", &povray_script()).unwrap();
        assert_eq!(out.interactions, 3);
        assert!(out.result.success());
        run_expect(&mut h, &mut s, "make", &ExpectScript::new()).unwrap();
        run_expect(&mut h, &mut s, "make install", &ExpectScript::new()).unwrap();
        assert!(h.is_installed("povray"));
    }

    #[test]
    fn missing_rule_aborts() {
        let (mut h, mut s) = staged_povray_host();
        let script = ExpectScript::new().expect_send("license", "yes");
        let err = run_expect(&mut h, &mut s, "./configure", &script).unwrap_err();
        match err {
            ExpectError::UnmatchedPrompt { prompt } => {
                assert!(prompt.contains("user type"), "{prompt}");
            }
            other => panic!("expected UnmatchedPrompt, got {other:?}"),
        }
        assert!(!h.is_installed("povray"));
        assert!(!s.is_interactive(), "session must be reusable after abort");
    }

    #[test]
    fn rules_fire_at_most_once() {
        let (mut h, mut s) = staged_povray_host();
        // A greedy pattern that would match every prompt: once consumed it
        // cannot answer the later prompts.
        let script = ExpectScript::new()
            .expect_send("", "yes") // matches anything, consumed on prompt 1
            .expect_send("user type", "all")
            .expect_send("Install path", "/opt");
        let out = run_expect(&mut h, &mut s, "./configure", &script).unwrap();
        assert_eq!(out.interactions, 3);
    }

    #[test]
    fn scripted_answers_resolve_from_package_spec() {
        use crate::host::SiteHost;
        let spec = crate::packages::povray();
        assert_eq!(
            SiteHost::scripted_answer(&spec, "Do you accept the POV-Ray license? [y/n]"),
            Some("yes".to_owned())
        );
        assert_eq!(
            SiteHost::scripted_answer(&spec, "Install path: "),
            Some("$DEPLOYMENT_DIR".to_owned())
        );
        assert_eq!(SiteHost::scripted_answer(&spec, "unknown prompt"), None);
    }

    #[test]
    fn command_failure_reported() {
        let (mut h, mut s) = staged_povray_host();
        let err = run_expect(&mut h, &mut s, "false", &ExpectScript::new()).unwrap_err();
        assert!(matches!(err, ExpectError::CommandFailed(r) if r.exit_code == 1));
    }
}
