//! ROADMAP item 1's size targets, held as tests: no source file of a crate
//! runs past `BUDGET` lines before its unit tests, no function in one past
//! `FN_BUDGET`, no policy, harness or node settings struct regains a
//! settable field, and no crate grows its `pub` surface. What did when
//! each test was written is pinned: it may only shrink, and leaves its
//! list then. Nor may a source silence rustc's report of unused code,
//! which the `pub` ratchet relies on.

use std::collections::BTreeMap;
use std::{fs, path::{Path, PathBuf}};

const BUDGET: usize = 800;
const FN_BUDGET: usize = 120;

/// `(path under crates/, lines before its tests)`: a ratchet, not an allowance.
const OVER: [(&str, usize); 0] = [];

/// `(path under crates/, function, its lines)`: the same ratchet for functions.
const LONG: [(&str, &str, usize); 0] = [];

/// `(path under crates/, struct, its pub fields)`: what a caller can still set
/// on a policy (ROADMAP 1(d)), on a harness's `*Params` or on a node's
/// `NodeConfig`. A field one value reaches from non-test code is a constant
/// beside its reader, not an entry here.
const KNOBS: [(&str, &str, usize); 14] = [
    ("glare-core/src/retry.rs", "RetryPolicy", 1),
    ("glare-core/src/admission.rs", "AdmissionConfig", 2),
    ("glare-core/src/suspicion.rs", "SuspicionConfig", 1),
    ("glare-core/src/suspicion.rs", "HedgeConfig", 1),
    ("fabric/src/store.rs", "StoreConfig", 1),
    ("glare-core/src/node/msg.rs", "NodeConfig", 19),
    ("bench/src/autonomic.rs", "AutonomicParams", 3),
    ("bench/src/chaos.rs", "ChaosParams", 10),
    ("bench/src/fig12.rs", "Fig12Params", 4),
    ("bench/src/fig13.rs", "Fig13Params", 2),
    ("bench/src/grayfail.rs", "GrayfailParams", 2),
    ("bench/src/health.rs", "HealthParams", 10),
    ("bench/src/load.rs", "LoadParams", 7),
    ("bench/src/scale.rs", "ScaleParams", 7),
];

/// `(crate directory, pub items before its tests)`: every `pub fn`, `struct`,
/// `enum`, `const`, `static`, `type`, `trait` and `mod` (not `pub(…)`). An
/// item no other crate names is `pub(crate)`, where rustc reports it once
/// nothing calls it; so these counts may only shrink.
const PUB_ITEMS: [(&str, usize); 7] = [
    ("bench", 124),
    ("fabric", 256),
    ("glare-core", 269),
    ("services", 120),
    ("workflow", 21),
    ("workload", 22),
    ("wsrf", 58),
];

/// `(path under crates/, function)`: each function still behind
/// `#[allow(clippy::too_many_arguments)]`. An entry leaves once its function
/// takes fewer arguments, and no function joins: one that needs more
/// arguments than clippy allows takes a struct of them instead.
const MANY_ARGS: [(&str, &str); 4] = [
    ("fabric/src/fault.rs", "random_slowdowns"),
    ("fabric/src/trace.rs", "record"),
    ("services/src/expect.rs", "run_expect_traced"),
    ("services/src/gridftp.rs", "download_traced"),
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
        (name.into_owned(), before_tests(&text))
    };
    files.iter().map(read).collect()
}

/// The lines of a source up to the `#[cfg(test)]` that opens its test
/// module. A `#[cfg(test)]` on any other item does not end them, so a
/// test-only item mid-file cannot hide the rest of the file.
fn before_tests(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let opens_tests = |i: usize| {
        lines[i].trim() == "#[cfg(test)]"
            && lines.get(i + 1).is_some_and(|next| next.trim_start().starts_with("mod "))
    };
    let end = (0..lines.len()).find(|&i| opens_tests(i)).unwrap_or(lines.len());
    lines[..end].iter().map(|l| (*l).to_owned()).collect()
}

#[test]
fn only_a_test_module_ends_the_lines_before_tests() {
    let text = "fn a() {}\n#[cfg(test)]\nfn helper() {}\nfn b() {}\n#[cfg(test)]\nmod tests {\n}\n";
    assert_eq!(before_tests(text), ["fn a() {}", "#[cfg(test)]", "fn helper() {}", "fn b() {}"]);
    assert_eq!(before_tests("fn a() {}\n\n#[cfg(test)]\nmod tests;\n"), ["fn a() {}", ""]);
    assert_eq!(before_tests("fn a() {}\n#[cfg(test)]\n"), ["fn a() {}", "#[cfg(test)]"]);
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

#[test]
fn no_function_joins_those_taking_too_many_arguments() {
    let mut allowed = Vec::new();
    for (file, lines) in sources_before_tests() {
        for (at, line) in lines.iter().enumerate() {
            if line.contains("clippy::too_many_arguments") {
                let name = lines[at..].iter().find_map(|l| declared_fn(l)).expect("a function");
                allowed.push((file.clone(), name.to_owned()));
            }
        }
    }
    allowed.sort();
    let listed: Vec<(String, String)> =
        MANY_ARGS.iter().map(|&(file, name)| (file.to_owned(), name.to_owned())).collect();
    assert_eq!(allowed, listed, "allowed too many arguments, against MANY_ARGS");
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

/// Whether a line declares a plain-`pub` item of the kinds `PUB_ITEMS` counts.
fn declares_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    let kinds = ["fn ", "struct ", "enum ", "const ", "static ", "type ", "trait ", "mod "];
    kinds.iter().any(|kind| rest.starts_with(kind))
}

#[test]
fn no_crate_grows_its_public_surface() {
    let mut counts = BTreeMap::new();
    for (file, lines) in sources_before_tests() {
        let krate = file.split('/').next().expect("a crate directory").to_owned();
        *counts.entry(krate).or_insert(0) += lines.iter().filter(|l| declares_pub_item(l)).count();
    }
    let listed: Vec<&str> = PUB_ITEMS.iter().map(|&(krate, _)| krate).collect();
    assert_eq!(counts.keys().collect::<Vec<_>>(), listed, "every crate is listed once");
    for (krate, pinned) in PUB_ITEMS {
        let n = counts[krate];
        assert!(n <= pinned, "{krate}: {n} pub items before its tests, limit {pinned}");
    }
}

/// The lints that an `allow(…)` or `expect(…)` in `text` silences among
/// `dead_code` and the `unused…` group: the reports that name what no
/// caller uses.
fn silenced_unused_lints(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for opener in ["allow(", "expect("] {
        for (at, _) in text.match_indices(opener) {
            let list = &text[at + opener.len()..];
            let list = &list[..list.find(')').unwrap_or(list.len())];
            let lints = list.split(',').map(str::trim);
            found.extend(lints.filter(|l| *l == "dead_code" || l.starts_with("unused")));
        }
    }
    found
}

#[test]
fn an_allow_is_read_across_lines_and_lists() {
    let text = "#[allow(clippy::too_many_arguments, dead_code)]\nfn a() {}\n#![allow(\n    unused_imports,\n)]\n#[allow(clippy::unused_self)]\n#[expect(unused_variables)]";
    assert_eq!(silenced_unused_lints(text), ["dead_code", "unused_imports", "unused_variables"]);
}

#[test]
fn no_source_silences_the_unused_code_lints() {
    for (file, lines) in sources_before_tests() {
        let silenced = silenced_unused_lints(&lines.join("\n")).join(", ");
        assert!(silenced.is_empty(), "{file}: allows {silenced}, which hides code no caller uses");
    }
}
