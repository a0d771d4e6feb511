//! GridFTP-equivalent file transfer.
//!
//! Deploy-files reference archives by URL ("The deploy-file and source
//! URLs must be accessible by GridFTP for transfers to the target Grid
//! site", §3.4) with an `md5sum` attribute verified after the copy.
//! A [`Repository`] stands in for the public download servers; transfers
//! price their cost from the link spec and write the payload into the
//! destination site's [`crate::vfs::Vfs`].

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use glare_fabric::topology::LinkSpec;
use glare_fabric::{SimDuration, SimTime, SpanKind, TraceContext, TraceSink};

use crate::host::SiteHost;
use crate::md5::Md5Digest;
use crate::packages::PackageSpec;
use crate::vfs::{VFile, VPath};

/// Per-transfer control-channel setup cost (auth handshake, channel
/// establishment). The JavaCoG path pays this once per file.
pub(crate) const TRANSFER_SETUP_COST: SimDuration = SimDuration::from_millis(350);

/// One hosted artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Representative content (digested for md5 checks).
    pub content: Vec<u8>,
    /// Package this artifact contains, if it is a package archive (shared
    /// with every host the archive is downloaded to).
    pub package: Option<Arc<PackageSpec>>,
}

impl Artifact {
    /// MD5 of the content.
    pub(crate) fn digest(&self) -> Md5Digest {
        Md5Digest::of(&self.content)
    }
}

/// URL-addressed artifact store (the outside world's download servers).
///
/// Clones share one map until one of them publishes (copy-on-`publish`),
/// so handing every VO the catalog costs a reference count.
#[derive(Clone, Debug, Default)]
pub struct Repository {
    /// URL -> the artifact and its digest, taken when it was published.
    artifacts: Arc<HashMap<String, (Artifact, Md5Digest)>>,
}

impl Repository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host an artifact at a URL.
    pub(crate) fn publish(&mut self, url: impl Into<String>, artifact: Artifact) {
        let digest = artifact.digest();
        Arc::make_mut(&mut self.artifacts).insert(url.into(), (artifact, digest));
    }

    /// Host a package archive at its canonical URL; content is synthesized
    /// from the package identity so digests are stable.
    pub(crate) fn publish_package(&mut self, spec: Arc<PackageSpec>) {
        let content = format!("tgz:{}:{}", spec.name, spec.version).into_bytes();
        self.publish(
            spec.archive_url.clone(),
            Artifact {
                bytes: spec.archive_bytes,
                content,
                package: Some(spec),
            },
        );
    }

    /// The whole built-in catalog, published: built on first use, a clone
    /// of that one repository ever after.
    pub fn with_catalog() -> Repository {
        static CATALOG: OnceLock<Repository> = OnceLock::new();
        let published = CATALOG.get_or_init(|| {
            let mut r = Repository::new();
            for p in crate::packages::shared_catalog() {
                r.publish_package(Arc::clone(p));
            }
            r
        });
        published.clone()
    }

    /// Look up an artifact.
    pub(crate) fn get(&self, url: &str) -> Option<&Artifact> {
        self.artifacts.get(url).map(|(artifact, _)| artifact)
    }

    /// Expected md5 for a URL (what a provider writes into a deploy-file).
    pub fn md5_of(&self, url: &str) -> Option<Md5Digest> {
        self.artifacts.get(url).map(|&(_, digest)| digest)
    }
}

/// Errors from transfers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferError {
    /// URL not found in the repository.
    NotFound(String),
    /// md5 after transfer did not match the expected digest.
    ChecksumMismatch {
        /// URL transferred.
        url: String,
        /// Digest the deploy-file demanded.
        expected: Md5Digest,
        /// Digest of the received payload.
        actual: Md5Digest,
    },
    /// Destination path could not be written.
    WriteFailed(String),
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::NotFound(u) => write!(f, "no such artifact: {u}"),
            TransferError::ChecksumMismatch {
                url,
                expected,
                actual,
            } => write!(f, "md5 mismatch for {url}: expected {expected}, got {actual}"),
            TransferError::WriteFailed(p) => write!(f, "cannot write {p}"),
        }
    }
}

impl std::error::Error for TransferError {}

/// Receipt of a completed transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferReceipt {
    /// Bytes moved.
    pub bytes: u64,
    /// Total cost (setup + serialization + propagation).
    pub cost: SimDuration,
    /// Whether an md5 check was performed.
    pub verified: bool,
}

/// Download `url` from the repository into `dst` on `host` over `link`,
/// verifying `expected_md5` when given. On success the archive's package
/// (if any) is registered with the host so `tar` recognizes it.
pub fn download(
    repo: &Repository,
    url: &str,
    host: &mut SiteHost,
    dst: &VPath,
    link: LinkSpec,
    expected_md5: Option<Md5Digest>,
) -> Result<TransferReceipt, TransferError> {
    let artifact = repo
        .get(url)
        .ok_or_else(|| TransferError::NotFound(url.to_owned()))?;
    let cost = TRANSFER_SETUP_COST + link.transfer_time(artifact.bytes);
    let actual = artifact.digest();
    if let Some(expected) = expected_md5 {
        if expected != actual {
            return Err(TransferError::ChecksumMismatch {
                url: url.to_owned(),
                expected,
                actual,
            });
        }
    }
    if let Some(parent) = dst.parent() {
        host.vfs
            .mkdir_p(&parent)
            .map_err(|_| TransferError::WriteFailed(dst.to_string()))?;
    }
    host.vfs
        .write_file(
            dst,
            VFile {
                size: artifact.bytes,
                content: artifact.content.clone(),
                executable: false,
            },
        )
        .map_err(|_| TransferError::WriteFailed(dst.to_string()))?;
    if let Some(pkg) = &artifact.package {
        host.register_archive(dst.clone(), Arc::clone(pkg));
    }
    Ok(TransferReceipt {
        bytes: artifact.bytes,
        cost,
        verified: expected_md5.is_some(),
    })
}

/// Like [`download`], but records the transfer as a `gridftp.get` network
/// span into `trace`, laid out over `[at, at + cost]` on the virtual
/// clock and parented under `parent`. Failed transfers record nothing.
#[allow(clippy::too_many_arguments)]
pub fn download_traced(
    repo: &Repository,
    url: &str,
    host: &mut SiteHost,
    dst: &VPath,
    link: LinkSpec,
    expected_md5: Option<Md5Digest>,
    trace: &mut TraceSink,
    parent: Option<TraceContext>,
    at: SimTime,
) -> Result<TransferReceipt, TransferError> {
    let receipt = download(repo, url, host, dst, link, expected_md5)?;
    trace.record(
        parent,
        "gridftp.get",
        SpanKind::Network,
        None,
        None,
        at,
        at + receipt.cost,
        [
            ("url", url.to_owned().into()),
            ("bytes", receipt.bytes.to_string().into()),
        ],
    );
    Ok(receipt)
}

/// Third-party copy between two site hosts (e.g. retrieving a rendered
/// image back to the client site).
pub fn copy_between(
    src: &SiteHost,
    src_path: &VPath,
    dst: &mut SiteHost,
    dst_path: &VPath,
    link: LinkSpec,
) -> Result<TransferReceipt, TransferError> {
    let file = src
        .vfs
        .read_file(src_path)
        .map_err(|_| TransferError::NotFound(src_path.to_string()))?
        .clone();
    let cost = TRANSFER_SETUP_COST + link.transfer_time(file.size);
    let bytes = file.size;
    if let Some(parent) = dst_path.parent() {
        dst.vfs
            .mkdir_p(&parent)
            .map_err(|_| TransferError::WriteFailed(dst_path.to_string()))?;
    }
    dst.vfs
        .write_file(dst_path, file)
        .map_err(|_| TransferError::WriteFailed(dst_path.to_string()))?;
    // Propagate archive identity on copy so unpacking still works.
    if let Some(pkg) = src.archive_package(src_path).cloned() {
        dst.register_archive(dst_path.clone(), pkg);
    }
    Ok(TransferReceipt {
        bytes,
        cost,
        verified: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packages;
    use glare_fabric::topology::Platform;

    fn host(name: &str) -> SiteHost {
        SiteHost::new(name, Platform::intel_linux_32())
    }

    fn fast_link() -> LinkSpec {
        LinkSpec {
            latency: SimDuration::from_millis(5),
            bandwidth_bps: 12_500_000,
            jitter: 0.0,
        }
    }

    #[test]
    fn download_writes_and_registers_package() {
        let repo = Repository::with_catalog();
        let mut h = host("s0");
        let spec = packages::povray();
        let dst = VPath::new("/tmp/povlinux-3.6.tgz");
        let expected = repo.md5_of(&spec.archive_url);
        let receipt = download(&repo, &spec.archive_url, &mut h, &dst, fast_link(), expected)
            .unwrap();
        assert_eq!(receipt.bytes, spec.archive_bytes);
        assert!(receipt.verified);
        // 12 MB at 12.5 MB/s ≈ 0.96 s + setup + latency.
        assert!(receipt.cost > SimDuration::from_millis(900));
        assert!(receipt.cost < SimDuration::from_millis(2_000));
        assert!(h.vfs.is_file(&dst));
        assert_eq!(h.archive_package(&dst).unwrap().name, "povray");
    }

    #[test]
    fn missing_url_fails() {
        let repo = Repository::new();
        let mut h = host("s0");
        let err = download(
            &repo,
            "http://nope/x.tgz",
            &mut h,
            &VPath::new("/tmp/x.tgz"),
            fast_link(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, TransferError::NotFound(_)));
    }

    #[test]
    fn checksum_mismatch_detected() {
        let mut repo = Repository::new();
        repo.publish(
            "http://repo/x.tgz",
            Artifact {
                bytes: 10,
                content: b"real content".to_vec(),
                package: None,
            },
        );
        let mut h = host("s0");
        let wrong = Md5Digest::of(b"tampered");
        let err = download(
            &repo,
            "http://repo/x.tgz",
            &mut h,
            &VPath::new("/tmp/x.tgz"),
            fast_link(),
            Some(wrong),
        )
        .unwrap_err();
        assert!(matches!(err, TransferError::ChecksumMismatch { .. }));
        assert!(!h.vfs.is_file(&VPath::new("/tmp/x.tgz")), "nothing written");
    }

    /// The shared repository answers what one published by hand would, a
    /// `publish` on one handle of it (a new URL or a catalog one, random
    /// content) is seen by that handle only, and the transfer still checks
    /// what it received against the digest it was given.
    #[test]
    fn shared_repository_is_copy_on_publish_and_transfers_still_verify() {
        use glare_fabric::SimRng;

        let catalog = packages::catalog();
        let mut by_hand = Repository::new();
        for p in &catalog {
            by_hand.publish_package(Arc::new(p.clone()));
        }
        for p in &catalog {
            let shared = Repository::with_catalog();
            let artifact = shared.get(&p.archive_url).expect("published");
            assert_eq!(shared.md5_of(&p.archive_url), Some(Md5Digest::of(&artifact.content)));
            assert_eq!(shared.md5_of(&p.archive_url), by_hand.md5_of(&p.archive_url));
            assert_eq!(artifact.package.as_deref(), Some(p));
        }

        let mut rng = SimRng::from_seed(0x23_F7B);
        for round in 0..40 {
            let mut mine = Repository::with_catalog();
            let other = Repository::with_catalog();
            let url = match rng.chance(0.5) {
                true => catalog[rng.index(catalog.len())].archive_url.clone(),
                false => format!("http://repo.example/dist/extra-{round}.tgz"),
            };
            let before = other.md5_of(&url);
            let mut content = vec![0u8; rng.range(1, 64) as usize];
            rng.fill_bytes(&mut content);
            let artifact = Artifact { bytes: content.len() as u64, content: content.clone(), package: None };
            mine.publish(url.clone(), artifact);
            let published = Md5Digest::of(&content);
            assert_eq!(mine.md5_of(&url), Some(published), "the digest is taken at publish");
            assert_eq!(other.md5_of(&url), before, "another handle does not see it");
            assert_eq!(Repository::with_catalog().md5_of(&url), before, "nor does the next one");

            let (mut h, dst) = (host("s0"), VPath::new("/tmp/got.tgz"));
            let mut wrong = [0u8; 16];
            rng.fill_bytes(&mut wrong);
            let expected = Md5Digest::of(&wrong);
            let err = download(&mine, &url, &mut h, &dst, fast_link(), Some(expected)).unwrap_err();
            assert_eq!(err, TransferError::ChecksumMismatch { url: url.clone(), expected, actual: published });
            assert!(!h.vfs.is_file(&dst), "nothing written");
            let receipt = download(&mine, &url, &mut h, &dst, fast_link(), mine.md5_of(&url)).unwrap();
            assert!(receipt.verified);
            assert_eq!(h.vfs.read_file(&dst).unwrap().content, content);
        }
    }

    #[test]
    fn unverified_download_allowed() {
        let repo = Repository::with_catalog();
        let mut h = host("s0");
        let spec = packages::ant();
        let r = download(
            &repo,
            &spec.archive_url,
            &mut h,
            &VPath::new("/tmp/ant.tgz"),
            fast_link(),
            None,
        )
        .unwrap();
        assert!(!r.verified);
    }

    #[test]
    fn copy_between_sites_preserves_identity() {
        let repo = Repository::with_catalog();
        let mut a = host("a");
        let mut b = host("b");
        let spec = packages::wien2k();
        let src = VPath::new("/tmp/w.tgz");
        download(&repo, &spec.archive_url, &mut a, &src, fast_link(), None).unwrap();
        let dst = VPath::new("/scratch/w.tgz");
        let r = copy_between(&a, &src, &mut b, &dst, fast_link()).unwrap();
        assert_eq!(r.bytes, spec.archive_bytes);
        assert_eq!(b.archive_package(&dst).unwrap().name, "wien2k");
        // Missing source errors.
        assert!(matches!(
            copy_between(&a, &VPath::new("/no"), &mut b, &dst, fast_link()),
            Err(TransferError::NotFound(_))
        ));
    }

    #[test]
    fn bigger_payload_costs_more() {
        let repo = Repository::with_catalog();
        let mut h = host("s0");
        let small = packages::jpovray(); // 2.5 MB
        let big = packages::jdk(); // 48 MB
        let r1 = download(
            &repo,
            &small.archive_url,
            &mut h,
            &VPath::new("/tmp/a.tgz"),
            fast_link(),
            None,
        )
        .unwrap();
        let r2 = download(
            &repo,
            &big.archive_url,
            &mut h,
            &VPath::new("/tmp/b.tgz"),
            fast_link(),
            None,
        )
        .unwrap();
        assert!(r2.cost > r1.cost * 3);
    }
}
