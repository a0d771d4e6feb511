//! Regenerate Table 1: per-operation deployment overhead for Wien2k,
//! Invmod and Counter via the Expect and JavaCoG channels.
//! Pass `--json` for machine-readable output.

use glare_bench::args::Args;
use glare_bench::json::Json;

fn main() {
    let mut args = Args::from_env();
    let json_out = args.flag("--json");
    args.finish_or_exit();
    let rows = glare_bench::table1::run();
    if json_out {
        print!("{}", Json::arr(rows.iter().map(|r| r.to_json())).to_string_pretty());
    } else {
        print!("{}", glare_bench::table1::render(&rows));
    }
}
