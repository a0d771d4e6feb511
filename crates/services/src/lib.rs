//! # glare-services — the simulated Globus substrate
//!
//! The GLARE paper runs on Globus Toolkit 4 services; this crate rebuilds
//! each one it touches as an inspectable Rust equivalent:
//!
//! * [`vfs`] — per-site virtual filesystem (deploy trees, executables).
//! * [`md5`] — RFC 1321 checksums for deploy-file artifact verification.
//! * [`packages`] — synthetic application packages (Wien2k, Invmod,
//!   Counter, POVray/JPOVray, JDK, Ant) with calibrated build costs.
//! * [`host`] — the software state of a site (installed packages,
//!   container services).
//! * [`shell`] — the command vocabulary deploy-files use, with genuine
//!   interactive installer prompts.
//! * [`expect`] — the send/expect automation engine of §3.4.
//! * [`gram`] — job submission (used by workflows and the JavaCoG channel).
//! * [`gridftp`] — URL transfers with md5 verification.
//! * [`mds`] — the WS-MDS Index Service baseline (XPath scan, hierarchy).
//! * [`security`] — http/https transport cost, mechanically reproduced.
//! * [`channels`] — what the Expect and JavaCoG deployment channels of
//!   Table 1 cost (`glare-core`'s deploy manager is the one executor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod expect;
pub mod gram;
pub mod gridftp;
pub mod host;
pub mod md5;
pub mod mds;
pub mod packages;
pub mod security;
pub mod shell;
pub mod vfs;

pub use channels::ChannelKind;
pub use expect::{run_expect, run_expect_traced, ExpectError, ExpectScript};
pub use gram::{GramError, GramJob, GramService, JobSpec, JobState};
pub use gridftp::{download, download_traced, Repository, TransferError, TransferReceipt};
pub use host::{InstallRecord, SiteHost};
pub use md5::{Md5, Md5Digest};
pub use mds::{IndexKind, IndexService, QueryResponse};
pub use packages::{BuildSystem, PackageSpec};
pub use security::Transport;
pub use shell::{CmdResult, ExecOutcome, ShellSession};
pub use vfs::{VFile, VPath, Vfs, VfsError};
