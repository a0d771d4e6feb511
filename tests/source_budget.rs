//! ROADMAP item 1's size target, held as a test: no source file of a crate
//! runs past `BUDGET` lines before its unit tests. The files that did when the
//! test was written are pinned: they may only shrink, and leave the list then.

use std::{fs, path::{Path, PathBuf}};

const BUDGET: usize = 800;

/// `(path under crates/, lines before its tests)`: a ratchet, not an allowance.
const OVER: [(&str, usize); 7] = [
    ("fabric/src/sim.rs", 1394),
    ("bench/src/chaos.rs", 1014),
    ("fabric/src/metrics.rs", 1010),
    ("glare-core/src/grid.rs", 905),
    ("bench/src/autonomic.rs", 858),
    ("bench/src/health.rs", 850),
    ("glare-core/src/durable.rs", 829),
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_outgrows_its_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates/") {
        rust_sources(&krate.expect("crate directory").path().join("src"), &mut files);
    }
    // Unit tests do not count: a file's own, nor a `tests.rs` (a `mod tests;` body).
    files.retain(|path| !path.ends_with("tests.rs"));
    assert!(files.len() > 50, "found the workspace's sources");
    for path in files {
        let name = path.strip_prefix(&crates).expect("under crates/").to_string_lossy();
        let text = fs::read_to_string(&path).expect("readable source");
        let lines = text.lines().take_while(|l| l.trim() != "#[cfg(test)]").count();
        let pinned = OVER.iter().find(|(listed, _)| *listed == name).map(|&(_, n)| n);
        let limit = pinned.unwrap_or(BUDGET);
        assert!(lines <= limit, "{name}: {lines} lines before its tests, limit {limit}");
        assert!(pinned.is_none() || lines > BUDGET, "{name} fits the budget: delete its entry");
    }
}
