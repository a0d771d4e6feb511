//! `perf` — the GLARE perf ledger.
//!
//! ```text
//! perf [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! perf trace [--workload NAME] [--seed N] [--seconds S]     same as --trace 1
//! perf agree [--seed N] [--seconds S]                       two sets, compared
//! ```
//!
//! `run` measures each selected workload for `--seconds` of host time, in
//! whole rounds (see [`round`]), prints every end-to-end metric by name with
//! its unit and sample count, checks the outputs, and ends with one JSON
//! line per workload. It exits non-zero when a check fails. With `--trace 1`
//! every other round records spans, and the per-layer metrics are printed
//! instead.

use std::process::ExitCode;

mod agree;
mod des;
mod ledger;
mod measure;
mod micro;
mod round;
mod span;
mod stats;
mod trace_file;
mod workloads;

use round::Clock;
use workloads::{RoundCtx, Workload, WORKLOADS};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 4212;

struct Args {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `round` only: also run the micro-measurements.
    micro: bool,
    /// `round` only: when the parent spawned this process.
    spawned_at: Option<u128>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_owned(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: ledger::RUN_SECONDS as f64,
        trace: false,
        micro: false,
        spawned_at: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let switch = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} expects 0 or 1, got {v:?}")),
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects a whole number, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| {
                        format!("--seconds expects a number in (0, 600], got {value:?}")
                    })?;
            }
            "--trace" => args.trace = switch(value)?,
            "--micro" if args.command == "round" => args.micro = switch(value)?,
            "--spawned-at" if args.command == "round" => {
                args.spawned_at = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--spawned-at expects nanoseconds, got {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.command == "trace" {
        args.trace = true;
    }
    Ok(args)
}

/// The child side of a round: run it, print the line protocol.
fn round_main(args: &Args, mut clock: Clock) -> ExitCode {
    let Some(workload) = args.workload else {
        eprintln!("perf round: --workload is required");
        return ExitCode::from(2);
    };
    if let Some(t) = args.spawned_at {
        clock.spawned_at(t);
    }
    let ctx = RoundCtx {
        workload: workload.name,
        seed: args.seed,
        traced: args.trace,
        micro: args.micro,
    };
    let mut round = (workload.run)(&ctx, &mut clock);
    match round::peak_rss_mb() {
        Ok(mb) => round.set("peak_rss_mb", mb),
        Err(e) => round.failures.push(e),
    }
    print!("{}", round.to_lines());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let clock = Clock::at_main();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!("usage: perf [run|trace|agree] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    match args.command.as_str() {
        "round" => round_main(&args, clock),
        "benchmark-json" => {
            print!("{}", ledger::benchmark_json());
            ExitCode::SUCCESS
        }
        "run" | "trace" => {
            let mut ok = true;
            for w in selected {
                match measure::measure(w, args.seed, args.seconds, args.trace) {
                    Ok(report) => {
                        report.print();
                        ok &= report.correct();
                    }
                    Err(e) => {
                        eprintln!("perf: {}: {e}", w.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "agree" => agree::agree(&selected, args.seed, args.seconds),
        other => {
            eprintln!("perf: unknown command {other:?}");
            ExitCode::from(2)
        }
    }
}
