//! The repository benchmark. See `README.md` beside this package for
//! the workloads, the metrics and how they are measured.
//!
//! ```text
//! perfbench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] [--bless]
//! perfbench --compare OLD_TRACE.json NEW_TRACE.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod compare;
mod expect;
mod layers;
mod report;
mod sim;
mod trace;
mod verify;

use std::path::PathBuf;
use std::time::Instant;

use tsocc_bench::json;

use crate::expect::Expectations;
use crate::layers::Layers;
use crate::report::{Host, Metrics};
use crate::trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The sweep's default seed; expectations are kept for this seed only.
const DEFAULT_SEED: u64 = 0xC0FFEE;

const WORKLOADS: [&str; 3] = ["suite-16c", "scale-128c", "verify-campaign"];

const USAGE: &str = "usage: perfbench --workload suite-16c|scale-128c|verify-campaign|all \
[--seed N] [--seconds N] [--trace 0|1] [--bless]\n       perfbench --compare OLD.json NEW.json";

/// What one run measures.
#[derive(Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Rewrite the workload's expectations from this run.
    pub bless: bool,
}

/// What a workload run produced.
pub struct Outcome {
    /// Points or jobs run, over every pass.
    pub attempted: u64,
    /// Of those, ones that errored, violated, or differ from their
    /// expectation or from the first pass.
    pub failed: u64,
    /// Worker threads the workload ran on.
    pub workers: usize,
    pub end_to_end: Metrics,
    /// Printed beside the end-to-end metrics but not part of the result
    /// line (defined on the sim workloads only).
    pub extra: Metrics,
    /// Per-layer totals (traced runs only).
    pub layers: Option<Layers>,
    /// `(key, value)` expectations of the first pass.
    pub bless: Vec<(String, String)>,
}

/// Where runs write cache directories and trace files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `pass` repeatedly until `seconds` have passed and at least two
/// passes ran. A traced run alternates untraced and traced passes,
/// starting untraced, so the tracing overhead is measured in-process.
pub fn passes<P>(
    seconds: u64,
    traced: bool,
    tr: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<P, String>,
) -> Result<Vec<(bool, P)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || start.elapsed().as_secs_f64() < seconds as f64 {
        let on = traced && out.len() % 2 == 1;
        tr.set_on(on);
        let t = Instant::now();
        out.push((on, pass(tr)?));
        let kind = if on { "traced" } else { "untraced" };
        eprintln!(
            "pass {} ({kind}): {:.3} s",
            out.len(),
            t.elapsed().as_secs_f64()
        );
    }
    tr.set_on(false);
    Ok(out)
}

/// The untraced and the traced passes of a run, in order.
pub fn split<P>(passes: &[(bool, P)]) -> (Vec<&P>, Vec<&P>) {
    let pick = |traced: bool| {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p)
            .collect()
    };
    (pick(false), pick(true))
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

enum Mode {
    Run(RunOpts),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = RunOpts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = parse_u64(value()?)
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or("--seconds takes an integer from 1 to 3600")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--bless" => opts.bless = true,
            "--compare" => {
                let old = value()?.clone();
                let new = it.next().ok_or("--compare needs two files")?.clone();
                return Ok(Mode::Compare(old, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if opts.bless && (opts.seed != DEFAULT_SEED || opts.trace) {
        return Err("--bless needs the default seed and --trace 0".to_string());
    }
    Ok(Mode::Run(opts))
}

fn run(opts: &RunOpts) -> Result<(), String> {
    let expect = if opts.bless || opts.seed != DEFAULT_SEED {
        Expectations::default()
    } else {
        let e = Expectations::parse(expect::committed(&opts.workload))?;
        if e.is_empty() {
            return Err(format!(
                "no expectations for {}; run --bless",
                opts.workload
            ));
        }
        e
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating output dir: {e}"))?;
    let mut tr = Tracer::new();
    let outcome = match sim::points(&opts.workload) {
        Some(points) => sim::run(opts, &points, &expect, &mut tr)?,
        None => verify::run(opts, &expect, &mut tr)?,
    };
    let host = Host::stamp(opts.seed, outcome.workers);
    let peak_rss_mb = report::peak_rss_mb()?;

    if opts.bless {
        if outcome.failed > 0 {
            return Err("not blessing a run with failures".to_string());
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{}.tsv", opts.workload));
        let body: String = outcome
            .bless
            .iter()
            .map(|(k, v)| format!("{k}\t{v}\n"))
            .collect();
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }

    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("workload {} seed {}", opts.workload, opts.seed);
    let printed = outcome.end_to_end.0.iter().chain(&outcome.extra.0);
    for (name, value, unit) in printed {
        println!("  {name} = {value} {unit}");
    }
    println!("  peak_rss_mb = {peak_rss_mb} MB");
    println!(
        "  failed_ratio = {failed_ratio} ratio ({} of {} points/jobs)",
        outcome.failed, outcome.attempted
    );
    println!("host {}", host.to_json());

    let metrics = match outcome.layers {
        None => outcome.end_to_end,
        Some(mut layers) => {
            layers.spans = tr.len() as f64;
            layers.peak_rss_mb = peak_rss_mb;
            let l = layers.metrics();
            for (name, value, unit) in &l.0 {
                println!("  {name} = {value} {unit}");
            }
            let path = out_dir().join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
            let doc = json::Object::new()
                .str("schema", "perfbench-trace/v1")
                .str("workload", &opts.workload)
                .u64("seed", opts.seed)
                .raw("host", host.to_json())
                .raw("end_to_end", outcome.end_to_end.to_json())
                .raw("metrics", l.to_json())
                .raw("spans", tr.to_json())
                .build();
            std::fs::write(&path, doc + "\n")
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("trace {}", path.display());
            l
        }
    };
    println!(
        "{}",
        json::Object::new()
            .raw("correct", (outcome.failed == 0).to_string())
            .u64("attempted", outcome.attempted)
            .u64("failed", outcome.failed)
            .raw("metrics", metrics.to_json())
            .build()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        // `all` runs every workload in turn, each with its own report.
        Ok(Mode::Run(opts)) if opts.workload == "all" => WORKLOADS.iter().try_for_each(|w| {
            run(&RunOpts {
                workload: w.to_string(),
                ..opts.clone()
            })
        }),
        Ok(Mode::Run(opts)) => run(&opts),
        Ok(Mode::Compare(old, new)) => compare::run(&old, &new),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
