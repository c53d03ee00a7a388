//! The campaign orchestrator entry point.
//!
//! ```text
//! orchestrate sweep    [--cache-dir PATH] [--no-cache] [--jobs N]
//!                      [--cores LIST] [--scale NAME] [--seed N]
//!                      [--out PATH] [--report PATH] [--expect-all-hits]
//! orchestrate sweep    --check PATH [--jobs N]
//! orchestrate campaign [--manifest PATH] [--cache-dir PATH] [--no-cache]
//!                      [--jobs N] [--report PATH]
//! orchestrate status   [--cache-dir PATH]
//! ```
//!
//! - **sweep** runs the committed-baseline matrix
//!   ([`tsocc_bench::sweep::baseline_matrix`]) through the cache-aware
//!   executor and writes a `tsocc-sweep-baseline/v1` artifact (default
//!   `BENCH_sweep.orch.json`; `--no-cache --out BENCH_sweep.json`
//!   regenerates the committed one). Rows are the exact serialized
//!   rows of the compute run — a cached record stores the row verbatim
//!   — so a warm re-run reproduces the cold artifact
//!   **byte-identically** while skipping every simulation.
//!   `--expect-all-hits` (CI's warm leg) exits 3 unless every job was
//!   served from the cache.
//! - **sweep --check PATH** is the drift check: it takes scale, seed
//!   and core counts from the artifact, re-runs its matrix (no cache)
//!   under both `Stepper::EventDriven` and `Stepper::Reference`, and
//!   exits 1 unless the two steppers agree on the full `RunStats` and
//!   the final-memory fingerprint and every simulated field of every
//!   row matches the file. Wall-clock fields are ignored: hosts differ,
//!   simulations must not. An artifact with no rows, or whose
//!   `points_total` disagrees with its rows, also exits 1.
//! - **campaign** expands a `tsocc-campaign-manifest/v1` document
//!   (built-in smoke manifest when `--manifest` is omitted) and exits
//!   nonzero if any job reports a violation.
//! - **status** scans the cache directory and reports record counts by
//!   freshness against the current code fingerprint.
//!
//! Both run subcommands write a `tsocc-orch-report/v1` document with
//! per-job timings, cache keys, and hit/miss/evict statistics.

use tsocc::Stepper;
use tsocc_bench::cli::{Cli, ParsedArgs};
use tsocc_bench::json::{self, Value};
use tsocc_bench::sweep::{baseline_matrix, run_points, run_points_with};
use tsocc_orch::executor::execute;
use tsocc_orch::jobs::JobSpec;
use tsocc_orch::manifest::{parse_manifest, DEFAULT_MANIFEST};
use tsocc_orch::{code_fingerprint, ResultCache};
use tsocc_workloads::Scale;

const TOP_USAGE: &str = "orchestrate — campaign orchestrator with a content-addressed result cache

usage: orchestrate <sweep|campaign|status> [flags]

subcommands:
  sweep     run (or --check) the baseline sweep matrix through the result cache
  campaign  run a declarative campaign manifest
  status    report what the cache directory holds

run `orchestrate <subcommand> --help` for the subcommand's flags.
";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{TOP_USAGE}");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let subcommand = args.remove(0);
    match subcommand.as_str() {
        "sweep" => run_sweep(args),
        "campaign" => run_campaign(args),
        "status" => run_status(args),
        other => {
            eprint!("orchestrate: unknown subcommand {other:?}\n\n{TOP_USAGE}");
            std::process::exit(2);
        }
    }
}

fn cache_flags(cli: Cli) -> Cli {
    cli.opt(
        "--cache-dir",
        "PATH",
        "content-addressed result store directory",
    )
    .switch("--no-cache", "compute everything, touch no cache")
    .opt("--jobs", "N", "worker threads (0 = one per CPU)")
    .opt("--report", "PATH", "tsocc-orch-report/v1 output path")
}

/// Opens the store unless `--no-cache`; `None` means compute-only.
fn open_cache(args: &ParsedArgs, default_dir: &str) -> Option<ResultCache> {
    if args.present("--no-cache") {
        return None;
    }
    let dir = args.str("--cache-dir").unwrap_or(default_dir);
    match ResultCache::open(dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("orchestrate: cannot open cache at {dir}: {e}");
            std::process::exit(2);
        }
    }
}

fn run_sweep(args: Vec<String>) {
    let args = cache_flags(Cli::new(
        "orchestrate sweep",
        "run the baseline sweep matrix through the result cache",
    ))
    .opt("--cores", "LIST", "comma-separated core counts")
    .opt("--scale", "NAME", "workload scale: tiny, small, full")
    .opt("--seed", "N", "base sweep seed")
    .opt("--out", "PATH", "sweep artifact output path")
    .switch(
        "--expect-all-hits",
        "exit 3 unless every job was served from the cache",
    )
    .opt(
        "--check",
        "PATH",
        "drift-check a committed artifact (both steppers) instead of writing one",
    )
    .parse_rest(args);

    if let Some(path) = args.str("--check") {
        check_artifact(&args, path);
        return;
    }
    let scale = args.scale("--scale").unwrap_or(Scale::Small);
    let seed = args.u64("--seed").unwrap_or(0xC0FFEE);
    let core_counts = args
        .usize_list("--cores")
        .unwrap_or_else(|| vec![2, 4, 8, 16, 32, 64, 128]);
    let out_path = args
        .str("--out")
        .unwrap_or("BENCH_sweep.orch.json")
        .to_string();
    let report_path = args
        .str("--report")
        .unwrap_or("ORCH_report.json")
        .to_string();

    let points = baseline_matrix(scale, &core_counts);
    let jobs: Vec<JobSpec> = points
        .into_iter()
        .map(|point| JobSpec::Sweep {
            point,
            base_seed: seed,
        })
        .collect();

    let cache = open_cache(&args, ".tsocc-cache");
    let report = execute(&jobs, args.usize("--jobs").unwrap_or(0), cache.as_ref());

    // The artifact holds no host-dependent header fields, so a warm
    // re-run (whose rows come back verbatim from the store) writes
    // byte-identical content.
    let doc = json::Object::new()
        .str("schema", "tsocc-sweep-baseline/v1")
        .str("orchestrator", "tsocc-orch/v1")
        .str("bench", "fft")
        .str("scale", scale.name())
        .u64("base_seed", seed)
        .u64("points_total", report.rows.len() as u64)
        .raw(
            "points",
            json::array(report.rows.iter().map(|r| r.payload.clone())),
        )
        .build();
    std::fs::write(&out_path, doc + "\n").expect("write sweep artifact");

    let cached = report.cached_rows();
    let total = report.rows.len();
    let report_doc = report.to_json("sweep", cache.as_ref());
    std::fs::write(&report_path, report_doc + "\n").expect("write orchestrator report");
    if let Some(cache) = &cache {
        let stats = cache.stats();
        eprintln!(
            "orchestrate sweep: {total} jobs ({cached} cached, hit rate {:.0}%), {:.2}s; wrote {out_path}, {report_path}",
            stats.hit_rate() * 100.0,
            report.wall_seconds,
        );
    } else {
        eprintln!(
            "orchestrate sweep: {total} jobs (cache disabled), {:.2}s; wrote {out_path}, {report_path}",
            report.wall_seconds,
        );
    }
    if args.present("--expect-all-hits") && cached != total {
        eprintln!(
            "orchestrate sweep: expected an all-hit run, but only {cached}/{total} jobs were served from the cache"
        );
        std::process::exit(3);
    }
}

/// `sweep --check PATH`: re-runs the artifact's matrix under both
/// steppers and exits 1 on any disagreement (see the module docs).
/// Unreadable input or an unknown scale name exits 2.
fn check_artifact(args: &ParsedArgs, path: &str) {
    // Scale, seed and core counts come from the file, and the check
    // never touches the cache or writes an artifact.
    for flag in [
        "--cores",
        "--scale",
        "--seed",
        "--out",
        "--report",
        "--cache-dir",
        "--no-cache",
        "--expect-all-hits",
    ] {
        if args.present(flag) {
            eprintln!("orchestrate sweep: {flag} does not apply to --check (see --help)");
            std::process::exit(2);
        }
    }
    let fail = |code: i32, msg: String| -> ! {
        eprintln!("orchestrate sweep --check: {path}: {msg}");
        std::process::exit(code);
    };
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(2, format!("cannot read: {e}")));
    let doc = json::parse(&src).unwrap_or_else(|e| fail(2, format!("cannot parse: {e}")));
    let field = |v: &Value, key: &str| -> u64 {
        v.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| fail(1, format!("missing numeric field {key:?}")))
    };
    let scale_name = doc.get("scale").and_then(Value::as_str).unwrap_or("");
    let scale = Scale::from_name(scale_name)
        .unwrap_or_else(|| fail(2, format!("unknown scale {scale_name:?}")));
    let base_seed = field(&doc, "base_seed");
    let rows = doc
        .get("points")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail(1, "missing points array".to_string()));
    if rows.is_empty() {
        fail(1, "artifact has no rows".to_string());
    }
    let points_total = field(&doc, "points_total");
    if points_total != rows.len() as u64 {
        fail(
            1,
            format!("points_total is {points_total} but {} rows", rows.len()),
        );
    }
    // The matrix is (cores in first-appearance order) × sweep configs,
    // rebuilt through the same `baseline_matrix` the writer uses.
    let mut core_counts: Vec<usize> = Vec::new();
    for row in rows {
        let n = field(row, "n_cores") as usize;
        if !core_counts.contains(&n) {
            core_counts.push(n);
        }
    }
    let points = baseline_matrix(scale, &core_counts);
    if points.len() != rows.len() {
        fail(
            1,
            format!(
                "{} rows, but cores {core_counts:?} make a {}-point matrix",
                rows.len(),
                points.len()
            ),
        );
    }
    let workers = args.usize("--jobs").unwrap_or(0);
    eprintln!(
        "== drift check against {path}: {} points, scale {}, seed {base_seed} ==",
        points.len(),
        scale.name()
    );
    let event_driven = run_points(&points, workers, base_seed);
    eprintln!("== stepper parity leg: Reference ==");
    let reference = run_points_with(&points, workers, base_seed, Stepper::Reference);

    let mut mismatches = 0usize;
    for ((row, e), r) in rows.iter().zip(&event_driven).zip(&reference) {
        let id = format!("{}/{}x{}", e.bench, e.config, e.n_cores);
        if e.stats != r.stats || e.mem_fp != r.mem_fp {
            eprintln!("MISMATCH {id}: Reference stepper diverged from EventDriven");
            mismatches += 1;
        }
        let committed = (
            row.get("bench").and_then(Value::as_str),
            row.get("config").and_then(Value::as_str),
            row.get("n_cores").and_then(Value::as_u64),
        );
        if committed != (Some(&e.bench), Some(&e.config), Some(e.n_cores as u64)) {
            eprintln!("MISMATCH {id}: committed row is {committed:?}");
            mismatches += 1;
            continue;
        }
        for (key, got) in e.simulated_fields() {
            let want = row.get(key).and_then(Value::as_u64);
            if want != Some(got) {
                eprintln!("MISMATCH {id}.{key}: committed {want:?}, regenerated {got}");
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        fail(1, format!("{mismatches} simulated metric(s) drifted"));
    }
    eprintln!(
        "all simulated metrics match {path}; EventDriven == Reference on {} points",
        points.len()
    );
}

fn run_campaign(args: Vec<String>) {
    let args = cache_flags(Cli::new(
        "orchestrate campaign",
        "run a declarative campaign manifest through the result cache",
    ))
    .opt(
        "--manifest",
        "PATH",
        "tsocc-campaign-manifest/v1 document (built-in smoke manifest if omitted)",
    )
    .parse_rest(args);

    let src = match args.str("--manifest") {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("orchestrate campaign: cannot read {path}: {e}");
            std::process::exit(2);
        }),
        None => DEFAULT_MANIFEST.to_string(),
    };
    let manifest = parse_manifest(&src).unwrap_or_else(|e| {
        eprintln!("orchestrate campaign: bad manifest: {e}");
        std::process::exit(2);
    });
    let report_path = args
        .str("--report")
        .unwrap_or("ORCH_campaign_report.json")
        .to_string();

    let cache = open_cache(&args, ".tsocc-cache");
    let report = execute(
        &manifest.jobs,
        args.usize("--jobs").unwrap_or(0),
        cache.as_ref(),
    );
    let failed = report.failed_rows();
    let report_doc = report.to_json("campaign", cache.as_ref());
    std::fs::write(&report_path, report_doc + "\n").expect("write orchestrator report");
    eprintln!(
        "orchestrate campaign: {} jobs ({} cached, {} failed), {:.2}s; wrote {report_path}",
        report.rows.len(),
        report.cached_rows(),
        failed,
        report.wall_seconds,
    );
    if failed > 0 {
        for row in report.rows.iter().filter(|r| !r.clean) {
            eprintln!("orchestrate campaign: FAILED {}", row.label);
        }
        std::process::exit(1);
    }
}

fn run_status(args: Vec<String>) {
    let args = Cli::new(
        "orchestrate status",
        "report what the cache directory holds",
    )
    .opt(
        "--cache-dir",
        "PATH",
        "content-addressed result store directory",
    )
    .parse_rest(args);

    let dir = args.str("--cache-dir").unwrap_or(".tsocc-cache");
    let cache = ResultCache::open(dir).unwrap_or_else(|e| {
        eprintln!("orchestrate status: cannot open cache at {dir}: {e}");
        std::process::exit(2);
    });
    let scan = cache.scan();
    let doc = json::Object::new()
        .str("schema", "tsocc-orch-status/v1")
        .str("cache_dir", dir)
        .str("fingerprint", &code_fingerprint())
        .u64("records_fresh", scan.fresh)
        .u64("records_stale", scan.stale)
        .u64("records_invalid", scan.invalid)
        .u64("bytes", scan.bytes)
        .build();
    println!("{doc}");
}
