//! One round: a fresh process that sets a workload up, runs its fixed,
//! seed-determined work once and prints what it measured.
//!
//! The parent process runs rounds as children of its own binary — clean
//! allocator state for each, and a `VmHWM` that belongs to one workload — and
//! reads their results back from the line protocol defined here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// What one round measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Measured values by name: the raw inputs of the end-to-end metrics,
    /// and on a traced round the per-layer metrics.
    pub values: BTreeMap<String, f64>,
    /// Digest of the round's outputs (simulated results, answers read
    /// back): identical for every round of one seed, traced or not.
    pub digest: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with a wrong or missing outcome.
    pub failed: u64,
    /// Correctness checks that did not hold, in words.
    pub failures: Vec<String>,
}

impl Round {
    /// Record a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// A recorded value, 0 if the round did not report it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Record a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The line protocol the child prints on stdout.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.values {
            // `{:?}` prints the shortest string that parses back to the
            // same f64, so the parent sees every digit the child measured.
            let _ = writeln!(s, "value {k} {v:?}");
        }
        let _ = writeln!(s, "digest {:016x}", self.digest);
        let _ = writeln!(s, "attempted {}", self.attempted);
        let _ = writeln!(s, "failed {}", self.failed);
        for f in &self.failures {
            let _ = writeln!(s, "failure {}", f.replace('\n', " "));
        }
        s.push_str("end\n");
        s
    }

    /// Parse a child's stdout. `Err` names the first malformed line, or
    /// says the `end` marker is missing (the child died mid-report).
    pub fn from_lines(text: &str) -> Result<Round, String> {
        let mut r = Round::default();
        let mut ended = false;
        for line in text.lines() {
            let bad = || format!("malformed round line: {line:?}");
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "value" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.values
                        .insert(name.to_owned(), v.parse().map_err(|_| bad())?);
                }
                "digest" => r.digest = u64::from_str_radix(rest, 16).map_err(|_| bad())?,
                "attempted" => r.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => r.failed = rest.parse().map_err(|_| bad())?,
                "failure" => r.failures.push(rest.to_owned()),
                "end" => ended = true,
                _ => return Err(bad()),
            }
        }
        if ended {
            Ok(r)
        } else {
            Err("round output has no `end` line".to_owned())
        }
    }
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock a parent and
/// its child can compare.
pub fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock is past 1970")
        .as_nanos()
}

/// Stopwatch of one round: process start → measured window → end.
pub struct Clock {
    main_entered: Instant,
    /// When the parent spawned this process ([`unix_nanos`]), if it said.
    spawned_at: Option<u128>,
    window_start: Option<(Instant, u128)>,
}

impl Clock {
    /// Call first thing in `main`.
    pub fn at_main() -> Clock {
        Clock {
            main_entered: Instant::now(),
            spawned_at: None,
            window_start: None,
        }
    }

    /// The parent's clock reading just before it spawned this process, so
    /// that `setup_s` also covers exec, loading and runtime start-up.
    pub fn spawned_at(&mut self, unix_nanos: u128) {
        self.spawned_at = Some(unix_nanos);
    }

    /// Set-up is over: the measured window starts now.
    pub fn start_window(&mut self) {
        self.window_start = Some((Instant::now(), unix_nanos()));
    }

    /// The measured window ends now: book `setup_s` and `wall_s`.
    pub fn end_window(&self, round: &mut Round) {
        let end = Instant::now();
        let (start, start_unix) = self.window_start.expect("start_window before end_window");
        let setup = match self.spawned_at {
            Some(spawned) => start_unix.saturating_sub(spawned) as f64 / 1e9,
            None => (start - self.main_entered).as_secs_f64(),
        };
        round.set("setup_s", setup);
        round.set("wall_s", (end - start).as_secs_f64());
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a folding of the words a workload's outputs are digested from.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold a string in (length-prefixed).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.word(glare_fabric::store::fnv1a(s.as_bytes()));
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips_every_digit() {
        let mut r = Round {
            digest: 0xdead_beef_0123_4567,
            attempted: 1_000,
            failed: 2,
            ..Round::default()
        };
        r.set("wall_s", 5.123_456_789_012_345);
        r.set("sim_p99_ms", 0.1 + 0.2);
        r.check(false, || "two\nlines".to_owned());
        r.check(true, || unreachable!());
        let back = Round::from_lines(&r.to_lines()).unwrap();
        assert_eq!(back.values, r.values);
        assert_eq!(back.digest, r.digest);
        assert_eq!((back.attempted, back.failed), (1_000, 2));
        assert_eq!(back.failures, vec!["two lines".to_owned()]);
    }

    #[test]
    fn truncated_or_garbled_output_is_an_error() {
        assert!(Round::from_lines("value wall_s 1.0\n").is_err());
        assert!(Round::from_lines("value wall_s\nend\n").is_err());
        assert!(Round::from_lines("bogus\nend\n").is_err());
    }

    #[test]
    fn peak_rss_reads_back_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
