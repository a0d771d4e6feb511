//! # glare-bench — the benchmark harness regenerating every table and
//! figure of the GLARE paper's evaluation (§4).
//!
//! Each module owns one experiment and exposes `run(...)` + `render(...)`;
//! the `table1`/`fig10`/`fig11`/`fig12`/`fig13` binaries print the
//! regenerated rows/series. Criterion benches over the same primitives
//! live under `benches/`.

#![warn(missing_docs)]

pub mod ablation;
pub mod autonomic;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod grayfail;
pub mod health;
pub mod json;
pub mod load;
pub mod scale;
pub mod table1;
pub mod timing;
pub mod trace;

/// Nearest-rank percentile (`q` in 0–1) over an ascending slice; 0 when
/// empty.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[rank]
}
