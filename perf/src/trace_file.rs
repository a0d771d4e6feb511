//! `perf/out/trace_<workload>.json`: what a traced round recorded — the
//! per-name aggregates and the raw spans of one operation in 1024.

use std::path::PathBuf;

use glare_bench::json::Json;

use crate::round::Round;
use crate::span::{Trace, RAW_SAMPLE_EVERY};

/// Write `contents` to `perf/out/<file>`, creating the directory. Every
/// artefact the benchmark writes goes there, never the repo root.
pub fn write_out(file: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Write the trace of `workload`; a write error fails the round's checks.
pub fn write(workload: &str, trace: &Trace, round: &mut Round) {
    let spans = trace.aggs.iter().map(|(name, a)| {
        Json::obj([
            ("name", Json::from(*name)),
            ("count", Json::from(a.count)),
            ("sum_ns", Json::from(a.sum_ns)),
            ("self_ns", Json::from(a.self_ns)),
            ("p50_ns", Json::from(a.percentile_ns(50.0))),
            ("p99_ns", Json::from(a.percentile_ns(99.0))),
        ])
    });
    let raw = trace.raw.iter().map(|s| {
        Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
            ),
            ("op", Json::from(s.op)),
        ])
    });
    let doc = Json::obj([
        ("schema", Json::from("glare.perf.trace.v1")),
        ("workload", Json::from(workload)),
        ("raw_sample_every", Json::from(RAW_SAMPLE_EVERY)),
        ("spans", Json::arr(spans)),
        ("raw", Json::arr(raw)),
    ]);
    if let Err(e) = write_out(&format!("trace_{workload}.json"), &doc.to_string_pretty()) {
        round.failures.push(e);
    }
}
