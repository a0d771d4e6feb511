//! ROADMAP item 1's size targets, held as tests: no source file of a crate
//! runs past `BUDGET` lines before its unit tests, no function in one past
//! `FN_BUDGET`, and no policy struct regains a settable field. What did when
//! each test was written is pinned: it may only shrink, and leaves its list then.

use std::{fs, path::{Path, PathBuf}};

const BUDGET: usize = 800;
const FN_BUDGET: usize = 120;

/// `(path under crates/, lines before its tests)`: a ratchet, not an allowance.
const OVER: [(&str, usize); 7] = [
    ("fabric/src/sim.rs", 1363),
    ("bench/src/chaos.rs", 980),
    ("fabric/src/metrics.rs", 980),
    ("glare-core/src/grid.rs", 887),
    ("bench/src/autonomic.rs", 844),
    ("bench/src/health.rs", 822),
    ("glare-core/src/durable.rs", 829),
];

/// `(path under crates/, function, its lines)`: the same ratchet for functions.
const LONG: [(&str, &str, usize); 10] = [
    ("bench/src/autonomic.rs", "run", 374),
    ("bench/src/health.rs", "run", 218),
    ("bench/src/grayfail.rs", "run_mode", 185),
    ("fabric/src/sim.rs", "step", 155),
    ("bench/src/chaos.rs", "run_overlay_point", 152),
    ("bench/src/chaos.rs", "run_grid_phase", 144),
    ("glare-core/src/deployfile.rs", "for_package", 138),
    ("bench/src/health.rs", "run_overlay_with_tenants", 130),
    ("wsrf/src/xml.rs", "parse_element", 128),
    ("bench/src/autonomic.rs", "to_json", 126),
];

/// `(path under crates/, struct, its pub fields)`: what a caller can still set
/// on a policy (ROADMAP 1(d)). A field one value reaches from non-test code is
/// a constant beside its reader, not an entry here.
const KNOBS: [(&str, &str, usize); 6] = [
    ("glare-core/src/retry.rs", "RetryPolicy", 1),
    ("glare-core/src/admission.rs", "AdmissionConfig", 2),
    ("glare-core/src/suspicion.rs", "SuspicionConfig", 1),
    ("glare-core/src/suspicion.rs", "HedgeConfig", 1),
    ("glare-core/src/autonomic.rs", "AutonomicConfig", 4),
    ("fabric/src/store.rs", "StoreConfig", 1),
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

/// Every crate source as `(path under crates/, its lines before its tests)`.
fn sources_before_tests() -> Vec<(String, Vec<String>)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates/") {
        rust_sources(&krate.expect("crate directory").path().join("src"), &mut files);
    }
    // Unit tests do not count: a file's own, nor a `tests.rs` (a `mod tests;` body).
    files.retain(|path| !path.ends_with("tests.rs"));
    assert!(files.len() > 50, "found the workspace's sources");
    let read = |path: &PathBuf| {
        let name = path.strip_prefix(&crates).expect("under crates/").to_string_lossy();
        let text = fs::read_to_string(path).expect("readable source");
        let lines = text.lines().take_while(|l| l.trim() != "#[cfg(test)]").map(str::to_owned);
        (name.into_owned(), lines.collect())
    };
    files.iter().map(read).collect()
}

#[test]
fn no_source_file_outgrows_its_budget() {
    for (name, lines) in sources_before_tests() {
        let lines = lines.len();
        let pinned = OVER.iter().find(|(listed, _)| *listed == name).map(|&(_, n)| n);
        let limit = pinned.unwrap_or(BUDGET);
        assert!(lines <= limit, "{name}: {lines} lines before its tests, limit {limit}");
        assert!(pinned.is_none() || lines > BUDGET, "{name} fits the budget: delete its entry");
    }
}

/// The name a line declares a function under, if it declares one.
fn declared_fn(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    if let Some(after) = rest.strip_prefix("pub") {
        rest = after.trim_start();
        if rest.starts_with('(') {
            rest = rest[rest.find(')')? + 1..].trim_start();
        }
    }
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    Some(&rest[..rest.find(|c: char| c != '_' && !c.is_alphanumeric())?])
}

/// `(name, lines)` of every function with a body: from its `fn` line to the
/// closing brace at that line's indent.
fn function_lengths(lines: &[String]) -> Vec<(&str, usize)> {
    let mut found = Vec::new();
    for (start, line) in lines.iter().enumerate() {
        let Some(name) = declared_fn(line) else { continue };
        // The signature ends at the first `{` (a body follows) or `;` (none does).
        let ends = |l: &String| l.contains('{') || l.trim_end().ends_with(';');
        let Some(open) = lines[start..].iter().position(ends) else { continue };
        let opening = &lines[start + open];
        if !opening.contains('{') {
            continue;
        }
        let one_line_body = opening.matches('{').count() == opening.matches('}').count();
        let close = format!("{}}}", &line[..line.len() - line.trim_start().len()]);
        let body = lines[start + open..].iter().position(|l| l.trim_end() == close);
        found.push((name, if one_line_body { open + 1 } else { open + body.expect("closed") + 1 }));
    }
    found
}

#[test]
fn no_function_outgrows_its_budget() {
    let mut still_long = Vec::new();
    for (file, lines) in sources_before_tests() {
        for (name, len) in function_lengths(&lines) {
            let entry = LONG.iter().find(|(f, n, _)| *f == file && *n == name);
            let limit = entry.map_or(FN_BUDGET, |&(_, _, pinned)| pinned);
            assert!(len <= limit, "{file}: fn {name} runs {len} lines, limit {limit}");
            if len > FN_BUDGET {
                still_long.extend(entry);
            }
        }
    }
    for entry in &LONG {
        let (file, name, _) = entry;
        assert!(still_long.contains(&entry), "{file}: fn {name} fits the budget: delete its entry");
    }
}

/// The `pub` fields `name` declares, from its `pub struct` line to the closing
/// brace at that line's indent.
fn pub_fields(lines: &[String], name: &str) -> usize {
    let opening = format!("pub struct {name} {{");
    let start = lines.iter().position(|l| *l == opening).expect("the struct is declared here");
    let body = lines[start..].iter().take_while(|l| l.as_str() != "}");
    body.filter(|l| l.trim_start().starts_with("pub ") && l.trim_end().ends_with(',')).count()
}

#[test]
fn no_policy_struct_regains_a_knob() {
    let sources = sources_before_tests();
    for (file, name, pinned) in KNOBS {
        let (_, lines) = sources.iter().find(|(f, _)| f == file).expect("listed file exists");
        let fields = pub_fields(lines, name);
        assert!(fields <= pinned, "{file}: {name} has {fields} pub fields, limit {pinned}");
        assert!(fields > 0, "{file}: {name} has nothing left to set: delete its entry");
    }
}
