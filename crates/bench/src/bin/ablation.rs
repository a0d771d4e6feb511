//! Regenerate the DESIGN.md §5 ablations: super-peer routing vs flooding,
//! and majority-acknowledged vs naive super-peer takeover.

fn main() {
    glare_bench::args::Args::from_env().finish_or_exit();
    print!("{}", glare_bench::ablation::render());
}
