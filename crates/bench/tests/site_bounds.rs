//! The scenario bins refuse a `--sites` below what their scenario needs as
//! a bad argument (exit 2, before anything runs or is written) instead of
//! panicking inside the run. The bound itself runs: `chaos --smoke` and
//! `healthreport --smoke` are at it, and
//! `scale::tests::the_smallest_overlay_answers_every_query` runs two sites.

use std::process::Command;

use glare_bench::{chaos, health, scale};

/// Run `bin --smoke --sites <sites>` and return its exit code and stderr.
fn smoke_with_sites(bin: &str, sites: &str) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(["--smoke", "--sites", sites])
        .output()
        .expect("the bin starts");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn chaos_refuses_fewer_than_four_sites() {
    assert_eq!(chaos::MIN_SITES, 4);
    assert_eq!(chaos::ChaosParams::smoke().sites, chaos::MIN_SITES);
    let (code, err) = smoke_with_sites(env!("CARGO_BIN_EXE_chaos"), "3");
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(err.trim(), "--sites expects an integer >= 4, got `3`");
}

#[test]
fn healthreport_refuses_fewer_than_three_sites() {
    assert_eq!(health::MIN_SITES, 3);
    assert_eq!(health::HealthParams::smoke().sites, health::MIN_SITES);
    let (code, err) = smoke_with_sites(env!("CARGO_BIN_EXE_healthreport"), "2");
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(err.trim(), "--sites expects an integer >= 3, got `2`");
}

#[test]
fn scale_refuses_a_site_count_below_two() {
    assert_eq!(scale::MIN_SITES, 2);
    for sites in ["1", "100,1"] {
        let (code, err) = smoke_with_sites(env!("CARGO_BIN_EXE_scale"), sites);
        assert_eq!(code, Some(2), "{err}");
        let expected = format!("--sites expects comma-separated integers >= 2, got `{sites}`");
        assert_eq!(err.trim(), expected);
    }
}
