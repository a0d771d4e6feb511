//! Regenerate Table 1: per-operation deployment overhead for Wien2k,
//! Invmod and Counter via the Expect and JavaCoG channels. Prints the
//! rows as a table on stdout, or as a JSON array with `--json`.

use glare_bench::args::Args;
use glare_bench::json::Json;

fn main() {
    let mut args = Args::from_env();
    let json_out = args.flag("--json");
    args.finish_or_exit();
    let rows = Json::arr(glare_bench::table1::run().iter().map(|r| r.to_json()));
    print!("{}", if json_out { rows.to_string_pretty() } else { rows.to_text() });
}
