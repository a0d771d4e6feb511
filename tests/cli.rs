//! The `glare` CLI takes a given `[n]` as the VO's site count or refuses it
//! as a bad argument (exit 2 and the usage), never silently running on the
//! default instead.

use std::process::Command;

/// Run `glare <args>` and return its exit code and stderr.
fn glare(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_glare"))
        .args(args)
        .output()
        .expect("the bin starts");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_bad_site_count_is_a_usage_error() {
    for command in ["provision", "undeploy", "wrap"] {
        for n in ["abc", "0", "-2"] {
            let (code, err) = glare(&[command, "POVray", n]);
            assert_eq!(code, Some(2), "{command} {n}: {err}");
            let problem = format!("[n] expects an integer >= 1, got `{n}`\nusage: glare");
            assert!(err.starts_with(&problem), "{command} {n}: {err}");
        }
    }
}

#[test]
fn a_valid_site_count_runs() {
    let (code, err) = glare(&["provision", "POVray", "1"]);
    assert_eq!(code, Some(0), "{err}");
    let (code, err) = glare(&["inventory"]);
    assert_eq!(code, Some(0), "{err}");
}
