//! What the harness binaries share: the one flag parser, the artifact
//! writer, the violation exit and the telemetry warnings.
//!
//! A bin takes what it knows out of [`Args`] — bare flags with
//! [`Args::flag`], validated values with `Args::value` / [`Args::set`]
//! / [`Args::set_list`] / [`Args::per_mille`] — and then calls
//! `Args::finish`, which rejects whatever is left. The first problem (missing value, value its
//! predicate rejects, unknown argument) is kept and reported there, so a
//! typo can no longer run the default scenario and exit 0.

use std::str::FromStr;

/// The command line, minus what has been taken from it so far.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
    error: Option<String>,
}

impl Args {
    /// Parse `args` (the command line without the program name).
    pub(crate) fn new(args: Vec<String>) -> Args {
        Args {
            rest: args,
            error: None,
        }
    }

    /// The process's own command line.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1).collect())
    }

    /// Take the bare flag `name`, wherever it stands; `true` if present.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Take `name VALUE` and hand `VALUE` to `parse`; `None` from it (or
    /// no value at all) records "`name` expects `expects`".
    fn take<T>(
        &mut self,
        name: &str,
        expects: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let at = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(at);
        let parsed = (at < self.rest.len()).then(|| self.rest.remove(at));
        let value = parsed.as_deref().and_then(parse);
        if value.is_none() {
            let got = parsed.map_or("nothing".to_owned(), |v| format!("`{v}`"));
            self.error
                .get_or_insert(format!("{name} expects {expects}, got {got}"));
        }
        value
    }

    /// Take `name VALUE`, parsed as `T` and accepted by `ok`.
    pub(crate) fn value<T: FromStr>(
        &mut self,
        name: &str,
        expects: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        self.take(name, expects, |v| v.parse().ok().filter(&ok))
    }

    /// Take `name N`, a share given in per-mille (an integer 0..=1000), as
    /// the probability `N / 1000`.
    pub fn per_mille(&mut self, name: &str) -> Option<f64> {
        let n = self.value(name, "an integer 0..=1000 (per-mille)", |&n: &u32| n <= 1000)?;
        Some(f64::from(n) / 1000.0)
    }

    /// `Args::value` into `slot`, which keeps its value when `name`
    /// is absent (or wrong, which `Args::finish` then reports).
    pub fn set<T: FromStr>(
        &mut self,
        slot: &mut T,
        name: &str,
        expects: &str,
        ok: impl Fn(&T) -> bool,
    ) {
        if let Some(v) = self.value(name, expects, ok) {
            *slot = v;
        }
    }

    /// [`Args::set`] for `name A,B,…`: a non-empty comma-separated list
    /// whose every item parses as `T` and is accepted by `ok`.
    pub fn set_list<T: FromStr>(
        &mut self,
        slot: &mut Vec<T>,
        name: &str,
        expects: &str,
        ok: impl Fn(&T) -> bool,
    ) {
        let item = |v: &str| v.trim().parse().ok().filter(&ok);
        if let Some(items) = self.take(name, expects, |v| v.split(',').map(item).collect()) {
            *slot = items;
        }
    }

    /// The first problem met, or the first argument nobody took.
    pub(crate) fn finish(self) -> Result<(), String> {
        match (self.error, self.rest.first()) {
            (Some(e), _) => Err(e),
            (None, Some(arg)) => Err(format!("unknown argument `{arg}`")),
            (None, None) => Ok(()),
        }
    }

    /// `Args::finish` for a `main`: print the problem and exit 2.
    pub fn finish_or_exit(self) {
        if let Err(e) = self.finish() {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Write one result artifact into the working directory and say so on
/// stderr; a run whose artifact cannot be written exits 1.
pub fn write_artifact(name: &str, contents: &str) {
    match std::fs::write(name, contents) {
        Ok(()) => eprintln!("wrote {name}"),
        Err(e) => {
            eprintln!("could not write {name}: {e}");
            std::process::exit(1);
        }
    }
}

/// Exit 1 when a run's report lists `violations` invariant violations:
/// called after the artifacts are written, so a seed sweep in the shell
/// reads the verdict from the exit status.
pub fn exit_on_violations(violations: usize) {
    if violations > 0 {
        eprintln!("FAIL: {violations} invariant violation(s)");
        std::process::exit(1);
    }
}

/// Say on stderr what a run's telemetry lost or broke: event records
/// dropped at the log bound, metric names failing the lint.
pub fn warn_telemetry(events_dropped: u64, lint: &[String]) {
    if events_dropped > 0 {
        eprintln!(
            "warning: {events_dropped} event record(s) dropped — \
             raise the event-log bound for a complete log"
        );
    }
    for v in lint {
        eprintln!("warning: metric-name lint: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn flags_are_taken_wherever_they_stand() {
        for line in ["--smoke --seed 7", "--seed 7 --smoke"] {
            let mut a = args(line);
            assert!(a.flag("--smoke"), "{line}");
            assert!(!a.flag("--json"), "{line}");
            assert_eq!(
                a.value("--seed", "an integer", |_: &u64| true),
                Some(7),
                "{line}"
            );
            assert_eq!(a.finish(), Ok(()), "{line}");
        }
    }

    #[test]
    fn absent_value_flag_is_none_and_no_error() {
        let mut a = args("--json");
        assert_eq!(
            a.value("--sites", "an integer >= 6", |&n: &usize| n >= 6),
            None
        );
        assert!(a.flag("--json"));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn missing_unparsable_and_rejected_values_are_named() {
        for (line, got) in [
            ("--sites", "nothing"),
            ("--sites abc", "`abc`"),
            ("--sites 5", "`5`"),
        ] {
            let mut a = args(line);
            assert_eq!(
                a.value("--sites", "an integer >= 6", |&n: &usize| n >= 6),
                None
            );
            assert_eq!(
                a.finish(),
                Err(format!("--sites expects an integer >= 6, got {got}")),
                "{line}"
            );
        }
    }

    #[test]
    fn per_mille_is_a_probability_or_an_error() {
        assert_eq!(args("--loss 50").per_mille("--loss"), Some(0.05));
        assert_eq!(args("--loss 1000").per_mille("--loss"), Some(1.0));
        let mut a = args("--loss 5000");
        assert_eq!(a.per_mille("--loss"), None);
        assert_eq!(
            a.finish(),
            Err("--loss expects an integer 0..=1000 (per-mille), got `5000`".into())
        );
    }

    #[test]
    fn lists_parse_every_item_or_keep_the_slot() {
        let mut a = args("--factors 0.5,1,2 --sites 100,0");
        let (mut factors, mut sites) = (vec![9.0], vec![7usize]);
        a.set_list(&mut factors, "--factors", "positive numbers", |&f| f > 0.0);
        a.set_list(&mut sites, "--sites", "positive integers", |&n| n > 0);
        assert_eq!((factors, sites), (vec![0.5, 1.0, 2.0], vec![7]));
        assert_eq!(
            a.finish(),
            Err("--sites expects positive integers, got `100,0`".into())
        );
        let mut empty = args("--factors ,");
        empty.set_list(&mut vec![1.0], "--factors", "positive numbers", |&f| {
            f > 0.0
        });
        assert!(empty.finish().is_err());
    }

    #[test]
    fn leftovers_are_rejected() {
        let mut a = args("--smoke --depht 4");
        assert!(a.flag("--smoke"));
        let mut depth = 3usize;
        a.set(&mut depth, "--depth", "an integer >= 2", |&d| d >= 2);
        assert_eq!(depth, 3);
        assert_eq!(a.finish(), Err("unknown argument `--depht`".into()));
    }
}
