//! Regenerates any figure or table of the paper (the former
//! `fig2`…`fig9` / `table1`–`table3` binaries, collapsed into one
//! subcommand interface):
//!
//! ```text
//! figures [--cores N] [--scale NAME] [--seed N] [--jobs N] SELECTION...
//! ```
//!
//! Multiple selections render in order, sharing one benchmark sweep;
//! `figures all` prints everything. Defaults: 32 cores (the paper's
//! Table 2), `small` scale, one sweep worker per CPU. Flags parse
//! through the shared [`tsocc_bench::cli`] surface: `--help` documents
//! them and anything undeclared exits 2.

use tsocc_bench::cli::Cli;
use tsocc_bench::figures::{render_all, SELECTIONS};
use tsocc_bench::SweepOpts;

fn main() {
    let args = Cli::new("figures", "regenerate the paper's tables and figures")
        .positional("SELECTION", "table1-table3, fig2-fig9, separation or all")
        .opt("--cores", "N", "core count")
        .opt("--scale", "NAME", "workload scale: tiny, small, full")
        .opt("--seed", "N", "base simulation seed")
        .opt("--jobs", "N", "sweep worker threads (0 = one per CPU)")
        .parse();
    let defaults = SweepOpts::default();
    let opts = SweepOpts {
        n_cores: args.usize("--cores").unwrap_or(defaults.n_cores),
        scale: args.scale("--scale").unwrap_or(defaults.scale),
        seed: args.u64("--seed").unwrap_or(defaults.seed),
        threads: args.usize("--jobs").unwrap_or(defaults.threads),
    };
    if args.positionals().is_empty() {
        eprintln!(
            "usage: figures [flags] <selection>...\nselections: {}",
            SELECTIONS.join(", ")
        );
        std::process::exit(2);
    }
    if let Err(e) = render_all(args.positionals(), opts) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
