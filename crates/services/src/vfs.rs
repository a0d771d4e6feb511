//! Per-site virtual filesystem.
//!
//! Deploy-files unpack tarballs, run `configure`/`make`, and GLARE then
//! "automatically finds deployments, for instance by exploring the `bin`
//! sub directory of the deployed activity home for executables" (§3.4).
//! Those mechanics need a filesystem. Each simulated site carries one
//! [`Vfs`]: a tree of directories and files with sizes, executable bits
//! and content digests — enough for transfers, builds, discovery and md5
//! verification, with none of the host filesystem involved.

use std::collections::BTreeMap;

/// A normalized absolute path (always starts with `/`, no `.`/`..`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VPath(String);

impl VPath {
    /// Normalize a path string. Relative paths are taken from `/`.
    pub fn new(path: &str) -> VPath {
        let mut out = String::with_capacity(path.len() + 1);
        push_segments(&mut out, path);
        VPath::rooted(out)
    }

    /// A path from segments `push_segments` wrote: empty is `/`.
    fn rooted(mut path: String) -> VPath {
        if path.is_empty() {
            path.push('/');
        }
        VPath(path)
    }

    /// The path as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Parent directory (`/` has no parent).
    pub fn parent(&self) -> Option<VPath> {
        if self.0 == "/" {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(VPath("/".to_owned())),
            Some(i) => Some(VPath(self.0[..i].to_owned())),
            None => None,
        }
    }

    /// Final path component (empty for `/`).
    pub fn file_name(&self) -> &str {
        self.0.rsplit('/').next().unwrap_or("")
    }

    /// Append a component (or a relative path, normalized as
    /// [`VPath::new`] would normalize the two joined by `/`).
    pub fn join(&self, seg: &str) -> VPath {
        let mut out = String::with_capacity(self.0.len() + 1 + seg.len());
        if self.0 != "/" {
            out.push_str(&self.0);
        }
        push_segments(&mut out, seg);
        VPath::rooted(out)
    }

    /// Whether `self` is `other` or inside it.
    pub fn starts_with(&self, other: &VPath) -> bool {
        self.0
            .strip_prefix(other.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/') || other.0 == "/")
    }
}

/// Append `path`'s segments to the normalized path `out` (`""` for `/`) as
/// `/segment`s: `.` and empty segments vanish, `..` drops the last one.
fn push_segments(out: &mut String, path: &str) {
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => out.truncate(out.rfind('/').unwrap_or(0)),
            s => {
                out.push('/');
                out.push_str(s);
            }
        }
    }
}

impl std::fmt::Display for VPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A file's metadata and content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VFile {
    /// Logical size in bytes (drives transfer cost).
    pub size: u64,
    /// Content (small files carry real bytes; big payloads may be
    /// size-only with synthetic content).
    pub content: Vec<u8>,
    /// Executable bit.
    pub executable: bool,
}

/// Errors from VFS operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VfsError {
    /// Path not found.
    NotFound(String),
    /// Expected a file, found a directory (or vice versa).
    WrongKind(String),
    /// Parent directory missing.
    NoParent(String),
    /// Target already exists as the other kind.
    Conflict(String),
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "not found: {p}"),
            VfsError::WrongKind(p) => write!(f, "wrong kind: {p}"),
            VfsError::NoParent(p) => write!(f, "no parent directory: {p}"),
            VfsError::Conflict(p) => write!(f, "conflicting entry: {p}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// A virtual filesystem: sorted maps of directories and files.
#[derive(Clone, Debug, Default)]
pub struct Vfs {
    dirs: BTreeMap<VPath, ()>,
    files: BTreeMap<VPath, VFile>,
}

impl Vfs {
    /// New filesystem containing only `/`.
    pub(crate) fn new() -> Vfs {
        let mut v = Vfs::default();
        v.dirs.insert(VPath::new("/"), ());
        v
    }

    /// Whether a directory exists.
    pub fn is_dir(&self, path: &VPath) -> bool {
        self.dirs.contains_key(path)
    }

    /// Whether a file exists.
    pub(crate) fn is_file(&self, path: &VPath) -> bool {
        self.files.contains_key(path)
    }

    /// Whether anything exists at `path`.
    pub fn exists(&self, path: &VPath) -> bool {
        self.is_dir(path) || self.is_file(path)
    }

    /// `mkdir -p`: create the directory and all ancestors.
    ///
    /// Every directory's ancestors are directories (nothing creates one
    /// without them, and `remove` takes a directory's subtree with it), so
    /// only the chain below the nearest existing ancestor can be missing.
    pub fn mkdir_p(&mut self, path: &VPath) -> Result<(), VfsError> {
        if self.is_dir(path) {
            return Ok(());
        }
        let mut chain = vec![path.clone()];
        while let Some(parent) = chain.last().and_then(VPath::parent) {
            if self.is_dir(&parent) {
                break;
            }
            chain.push(parent);
        }
        for p in chain.into_iter().rev() {
            if self.is_file(&p) {
                return Err(VfsError::Conflict(p.to_string()));
            }
            self.dirs.insert(p, ());
        }
        Ok(())
    }

    /// Write a file (parent must exist), replacing any existing file.
    pub fn write_file(&mut self, path: &VPath, file: VFile) -> Result<(), VfsError> {
        if self.is_dir(path) {
            return Err(VfsError::Conflict(path.to_string()));
        }
        match path.parent() {
            Some(parent) if self.is_dir(&parent) => {
                self.files.insert(path.clone(), file);
                Ok(())
            }
            _ => Err(VfsError::NoParent(path.to_string())),
        }
    }

    /// Convenience: write a text file.
    pub(crate) fn write_text(&mut self, path: &VPath, text: &str) -> Result<(), VfsError> {
        let bytes = text.as_bytes().to_vec();
        self.write_file(
            path,
            VFile {
                size: bytes.len() as u64,
                content: bytes,
                executable: false,
            },
        )
    }

    /// Read a file.
    pub fn read_file(&self, path: &VPath) -> Result<&VFile, VfsError> {
        if self.is_dir(path) {
            return Err(VfsError::WrongKind(path.to_string()));
        }
        self.files
            .get(path)
            .ok_or_else(|| VfsError::NotFound(path.to_string()))
    }

    /// Set the executable bit on a file.
    pub fn chmod_exec(&mut self, path: &VPath, executable: bool) -> Result<(), VfsError> {
        self.files
            .get_mut(path)
            .map(|f| f.executable = executable)
            .ok_or_else(|| VfsError::NotFound(path.to_string()))
    }

    /// Remove a file or (recursively) a directory.
    pub(crate) fn remove(&mut self, path: &VPath) -> Result<(), VfsError> {
        if self.files.remove(path).is_some() {
            return Ok(());
        }
        if !self.is_dir(path) {
            return Err(VfsError::NotFound(path.to_string()));
        }
        self.dirs.retain(|d, _| !d.starts_with(path));
        self.files.retain(|f, _| !f.starts_with(path));
        Ok(())
    }

    /// All executable files under `dir`, recursively — the discovery pass
    /// GLARE runs over a deployed activity's home.
    pub fn find_executables(&self, dir: &VPath) -> Vec<VPath> {
        self.files
            .iter()
            .filter(|(p, f)| f.executable && p.starts_with(dir))
            .map(|(p, _)| p.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::new(s)
    }

    #[test]
    fn path_normalization() {
        assert_eq!(p("/a//b/./c").as_str(), "/a/b/c");
        assert_eq!(p("a/b").as_str(), "/a/b");
        assert_eq!(p("/a/b/../c").as_str(), "/a/c");
        assert_eq!(p("/../..").as_str(), "/");
        assert_eq!(p("/").as_str(), "/");
    }

    #[test]
    fn path_relations() {
        assert_eq!(p("/a/b").parent(), Some(p("/a")));
        assert_eq!(p("/a").parent(), Some(p("/")));
        assert_eq!(p("/").parent(), None);
        assert_eq!(p("/a/b.txt").file_name(), "b.txt");
        assert_eq!(p("/a").join("b"), p("/a/b"));
        assert!(p("/a/b/c").starts_with(&p("/a/b")));
        assert!(p("/a/b").starts_with(&p("/a/b")));
        assert!(!p("/a/bc").starts_with(&p("/a/b")));
        assert!(p("/x").starts_with(&p("/")));
    }

    #[test]
    fn mkdir_p_creates_ancestors() {
        let mut v = Vfs::new();
        v.mkdir_p(&p("/opt/povray/bin")).unwrap();
        assert!(v.is_dir(&p("/opt")));
        assert!(v.is_dir(&p("/opt/povray")));
        assert!(v.is_dir(&p("/opt/povray/bin")));
    }

    #[test]
    fn write_requires_parent() {
        let mut v = Vfs::new();
        assert!(matches!(
            v.write_text(&p("/nope/x.txt"), "hi"),
            Err(VfsError::NoParent(_))
        ));
        v.mkdir_p(&p("/nope")).unwrap();
        v.write_text(&p("/nope/x.txt"), "hi").unwrap();
        assert_eq!(v.read_file(&p("/nope/x.txt")).unwrap().content, b"hi");
    }

    #[test]
    fn file_dir_conflicts_rejected() {
        let mut v = Vfs::new();
        v.mkdir_p(&p("/d")).unwrap();
        v.write_text(&p("/d/f"), "x").unwrap();
        assert!(matches!(v.mkdir_p(&p("/d/f")), Err(VfsError::Conflict(_))));
        assert!(matches!(
            v.mkdir_p(&p("/d/f/sub")),
            Err(VfsError::Conflict(_))
        ));
        assert!(matches!(
            v.write_file(
                &p("/d"),
                VFile {
                    size: 0,
                    content: vec![],
                    executable: false
                }
            ),
            Err(VfsError::Conflict(_))
        ));
    }

    #[test]
    fn remove_recursive() {
        let mut v = Vfs::new();
        v.mkdir_p(&p("/a/b")).unwrap();
        v.write_text(&p("/a/b/f1"), "1").unwrap();
        v.write_text(&p("/a/f2"), "2").unwrap();
        v.remove(&p("/a/b")).unwrap();
        assert!(!v.exists(&p("/a/b")));
        assert!(!v.exists(&p("/a/b/f1")));
        assert!(v.is_file(&p("/a/f2")));
        assert!(matches!(v.remove(&p("/zzz")), Err(VfsError::NotFound(_))));
    }

    #[test]
    fn executable_discovery() {
        let mut v = Vfs::new();
        v.mkdir_p(&p("/opt/povray/bin")).unwrap();
        v.write_text(&p("/opt/povray/bin/povray"), "#!/bin/sh").unwrap();
        v.write_text(&p("/opt/povray/README"), "docs").unwrap();
        v.chmod_exec(&p("/opt/povray/bin/povray"), true).unwrap();
        let found = v.find_executables(&p("/opt/povray"));
        assert_eq!(found, vec![p("/opt/povray/bin/povray")]);
        assert!(v.find_executables(&p("/elsewhere")).is_empty());
    }

    /// The normaliser as it was before `VPath::new` wrote one `String` in
    /// one pass: collect the segments, then `format!` them behind a `/`.
    fn normalized_by_collecting(path: &str) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for seg in path.split('/') {
            match seg {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                s => parts.push(s),
            }
        }
        format!("/{}", parts.join("/"))
    }

    /// A random path over the segments normalisation treats specially, with
    /// or without a leading and a trailing `/`.
    fn random_path(rng: &mut glare_fabric::SimRng) -> String {
        const SEGMENTS: [&str; 7] = ["", ".", "..", "a", "bc", "my build", "/"];
        let mut path = if rng.chance(0.5) {
            "/".to_owned()
        } else {
            String::new()
        };
        for i in 0..rng.range(0, 6) {
            if i > 0 {
                path.push('/');
            }
            path.push_str(SEGMENTS[rng.index(SEGMENTS.len())]);
        }
        if rng.chance(0.3) {
            path.push('/');
        }
        path
    }

    #[test]
    fn one_pass_normalisation_equals_the_collecting_one() {
        let mut rng = glare_fabric::SimRng::from_seed(0x26_F5);
        for path in ["", ".", "..", "//", "/", "a/", "/a/b/", "./..//x/."] {
            assert_eq!(p(path).as_str(), normalized_by_collecting(path), "{path:?}");
        }
        for _ in 0..2_000 {
            let (base, seg) = (random_path(&mut rng), random_path(&mut rng));
            assert_eq!(
                p(&base).as_str(),
                normalized_by_collecting(&base),
                "{base:?}"
            );
            let joined = normalized_by_collecting(&format!("{}/{seg}", p(&base)));
            assert_eq!(
                p(&base).join(&seg).as_str(),
                joined,
                "{base:?} joined with {seg:?}"
            );
        }
    }

    /// Random `mkdir_p` / `write_file` / `remove` over a small namespace:
    /// after every operation each directory's and each file's parent is a
    /// directory — the invariant `mkdir_p`'s early stop relies on.
    #[test]
    fn every_entry_keeps_a_parent_directory_under_random_edits() {
        const NAMES: [&str; 3] = ["a", "b", "c"];
        let mut rng = glare_fabric::SimRng::from_seed(0x26_D1);
        for round in 0..200 {
            let mut v = Vfs::new();
            for _ in 0..rng.range(1, 40) {
                let mut path = p("/");
                for _ in 0..rng.range(1, 5) {
                    path = path.join(NAMES[rng.index(NAMES.len())]);
                }
                let _ = match rng.range(0, 3) {
                    0 => v.mkdir_p(&path),
                    1 => v.write_text(&path, "x"),
                    _ => v.remove(&path),
                };
                let orphan = v
                    .dirs
                    .keys()
                    .chain(v.files.keys())
                    .find(|entry| entry.parent().is_some_and(|parent| !v.is_dir(&parent)));
                assert!(
                    orphan.is_none(),
                    "round {round}: {orphan:?} lost its parent"
                );
            }
        }
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut v = Vfs::new();
        v.write_text(&p("/f"), "old").unwrap();
        v.write_text(&p("/f"), "newer").unwrap();
        assert_eq!(v.read_file(&p("/f")).unwrap().size, 5);
    }
}
