//! The `verify-campaign` workload: one campaign manifest through the
//! orchestrator, cold into a fresh cache directory and then warm from
//! the same directory. A traced run then repeats every job by calling
//! `tsocc_check` and `tsocc_conform` directly, so the checker and the
//! conformance engine are timed from outside the executor.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsocc::FaultPlan;
use tsocc_check::{check_model, pool_for_lines, CheckOpts};
use tsocc_conform::run_campaign;
use tsocc_orch::{execute, parse_manifest, ExecReport, JobRow, JobSpec, ResultCache};
use tsocc_workloads::tso_model::generate_two_thread_programs;

use crate::expect::Expectations;
use crate::layers::Layers;
use crate::report::{median, Metrics};
use crate::trace::{SpanId, Tracer};
use crate::{alloc, Outcome, RunOpts};

/// Set-up-only rounds (manifest parse and cache open) per untraced run.
const SETUP_ROUNDS: usize = 51;

/// The benchmark's manifest: the CI model-check families and a
/// 400-program conformance leg over the paper's three protocols.
pub fn manifest(seed: u64) -> String {
    format!(
        r#"{{
  "schema": "tsocc-campaign-manifest/v1",
  "seed": {seed},
  "legs": [
    {{"kind": "check", "protocols": ["MESI", "MESI-P2-G2", "TSO-CC-4-basic"],
     "cores": 2, "lines": 1, "ops": 2}},
    {{"kind": "conform", "protocols": ["MESI", "MESI-P4-G4", "TSO-CC-4-12-3"],
     "threads": 3, "programs": 400, "chunk": 20, "iters": 2}}
  ]
}}"#
    )
}

/// A job's simulated metrics as one expectation value.
fn metrics_value(row: &JobRow) -> String {
    let parts: Vec<String> = row
        .metrics
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    parts.join(" ")
}

fn metric(row: &JobRow, name: &str) -> u64 {
    row.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Parses the manifest and opens a fresh cache: one set-up round.
fn set_up(
    src: &str,
    dir: &Path,
    tr: &mut Tracer,
    group: u64,
    parent: SpanId,
) -> Result<(Vec<JobSpec>, ResultCache, f64), String> {
    let (manifest, parse_s) = tr.time("orch.parse_manifest", group, parent, || parse_manifest(src));
    let (cache, open_s) = tr.time("orch.cache_open", group, parent, || ResultCache::open(dir));
    let cache = cache.map_err(|e| format!("opening {}: {e}", dir.display()))?;
    Ok((manifest?.jobs, cache, parse_s + open_s))
}

struct VerifyPass {
    wall_s: f64,
    setup_s: f64,
    cold: ExecReport,
    cold_s: f64,
    warm: ExecReport,
    warm_s: f64,
    warm_hits: u64,
    warm_misses: u64,
    allocs: u64,
    alloc_bytes: u64,
    span: SpanId,
}

fn pass(src: &str, dir: &Path, workers: usize, tr: &mut Tracer) -> Result<VerifyPass, String> {
    let (allocs0, bytes0) = alloc::snapshot();
    let group = tr.next_group();
    let span = tr.open("pass verify-campaign", group, None);
    let start = Instant::now();
    let (jobs, cache, setup_s) = set_up(src, dir, tr, group, span)?;
    let (cold, cold_s) = tr.time("orch.execute cold", group, span, || {
        execute(&jobs, workers, Some(&cache))
    });
    let (warm_cache, _) = tr.time("orch.cache_open", group, span, || ResultCache::open(dir));
    let warm_cache = warm_cache.map_err(|e| format!("reopening {}: {e}", dir.display()))?;
    let (warm, warm_s) = tr.time("orch.execute warm", group, span, || {
        execute(&jobs, workers, Some(&warm_cache))
    });
    let wall_s = start.elapsed().as_secs_f64();
    tr.close(span);
    let (allocs1, bytes1) = alloc::snapshot();
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let stats = warm_cache.stats();
    Ok(VerifyPass {
        wall_s,
        setup_s,
        cold,
        cold_s,
        warm,
        warm_s,
        warm_hits: stats.hits,
        warm_misses: stats.misses,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        span,
    })
}

/// Failed rows of a pass: a cold row must be computed fresh, clean
/// (zero violations, every check complete) and as expected; its warm
/// row must be served from the cache with identical metrics.
fn failed_rows(p: &VerifyPass, expect: &Expectations) -> u64 {
    let mut failed = 0;
    for (c, w) in p.cold.rows.iter().zip(&p.warm.rows) {
        if c.cached || !c.clean || !expect.check(&c.label, &metrics_value(c)) {
            eprintln!("FAILED cold job {}", c.label);
            failed += 1;
        }
        if !w.cached || !w.clean || w.metrics != c.metrics {
            eprintln!("FAILED warm job {}", w.label);
            failed += 1;
        }
    }
    failed
}

/// Direct-call totals of the traced layer leg.
#[derive(Default)]
struct Leg {
    build_s: f64,
    check_s: f64,
    conform_s: f64,
    schedules: u64,
    transitions: u64,
    sleep_blocked: u64,
    programs: u64,
    sim_runs: u64,
    failed: u64,
}

/// Repeats every job through the crates' own entry points, one job at
/// a time, and checks each against its row from the executor.
fn layer_leg(jobs: &[JobSpec], rows: &[JobRow], tr: &mut Tracer) -> Result<Leg, String> {
    let mut leg = Leg::default();
    let span = tr.open("layers verify-campaign", 0, None);
    for (job, row) in jobs.iter().zip(rows) {
        let group = tr.next_group();
        let job_span = tr.open(&format!("job {}", row.label), group, span);
        let same = match job {
            JobSpec::Check {
                protocol,
                cores,
                lines,
                ops,
            } => {
                let (family, build_s) = tr.time("workloads.build", group, job_span, || {
                    generate_two_thread_programs(*ops)
                });
                leg.build_s += build_s;
                let pool = pool_for_lines(*lines);
                let opts = CheckOpts::default();
                let (mut schedules, mut transitions, mut sleep_blocked) = (0, 0, 0);
                let mut clean = true;
                for mut program in family {
                    program.resize(*cores, Vec::new());
                    let (report, s) = tr.time("check.check_model", group, job_span, || {
                        check_model(protocol, FaultPlan::none(), &program, &pool, &opts)
                    });
                    leg.check_s += s;
                    let report = report.map_err(|e| format!("{}: {e:?}", row.label))?;
                    schedules += report.schedules;
                    transitions += report.transitions;
                    sleep_blocked += report.sleep_blocked;
                    clean &= report.complete && report.violations.is_empty();
                }
                leg.schedules += schedules;
                leg.transitions += transitions;
                leg.sleep_blocked += sleep_blocked;
                clean
                    && schedules == metric(row, "schedules")
                    && transitions == metric(row, "transitions")
                    && sleep_blocked == metric(row, "sleep_blocked")
            }
            JobSpec::Conform { opts, .. } => {
                let (report, s) = tr.time("conform.run_campaign", group, job_span, || {
                    run_campaign(opts)
                });
                leg.conform_s += s;
                leg.programs += report.programs_checked as u64;
                leg.sim_runs += report.sim_runs;
                report.violations_total == 0
                    && report.programs_checked as u64 == metric(row, "programs_checked")
                    && report.sim_runs == metric(row, "sim_runs")
            }
            JobSpec::Sweep { .. } => return Err("the manifest has no sweep leg".to_string()),
        };
        tr.close(job_span);
        if !same {
            eprintln!("FAILED direct job {}", row.label);
            leg.failed += 1;
        }
    }
    tr.close(span);
    Ok(leg)
}

/// A cache directory of this process under the benchmark's output
/// directory.
fn cache_dir(kind: &str, n: usize) -> PathBuf {
    crate::out_dir().join(format!("cache-{}-{kind}{n}", std::process::id()))
}

/// Runs `verify-campaign` for `opts.seconds`.
pub fn run(opts: &RunOpts, expect: &Expectations, tr: &mut Tracer) -> Result<Outcome, String> {
    let src = manifest(opts.seed);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut n = 0;
    let passes = crate::passes(opts.seconds, opts.trace, tr, |tr| {
        n += 1;
        pass(&src, &cache_dir("pass", n), workers, tr)
    })?;
    // Set-up rounds run after the passes, in a warmed-up process.
    let mut setups = Vec::new();
    if !opts.trace {
        for n in 0..SETUP_ROUNDS {
            let dir = cache_dir("setup", n);
            let (_, _, s) = set_up(&src, &dir, &mut Tracer::new(), 0, None)?;
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
            setups.push(s);
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (_, p) in &passes {
        attempted += (p.cold.rows.len() + p.warm.rows.len()) as u64;
        failed += failed_rows(p, expect);
        // The cold pass must produce the same metrics in every pass.
        for (c, c0) in p.cold.rows.iter().zip(&passes[0].1.cold.rows) {
            if c.metrics != c0.metrics {
                eprintln!("NONDETERMINISTIC job {}", c.label);
                failed += 1;
            }
        }
    }

    let (untraced, traced) = crate::split(&passes);
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    setups.extend(untraced.iter().map(|p| p.setup_s));
    // The slowest job by its median cold compute time over the passes.
    let slowest = (0..passes[0].1.cold.rows.len())
        .map(|i| {
            median(
                &untraced
                    .iter()
                    .map(|p| p.cold.rows[i].wall_seconds)
                    .collect::<Vec<_>>(),
            )
        })
        .fold(0.0, f64::max);

    let mut end_to_end = Metrics::default();
    end_to_end.put("wall_s", wall_s, "s");
    end_to_end.put("setup_s", median(&setups), "s");
    end_to_end.put("slowest_job_s", slowest, "s");

    let layers = match traced.last() {
        None => None,
        Some(p) => {
            let jobs = parse_manifest(&src)?.jobs;
            tr.set_on(true);
            let leg = layer_leg(&jobs, &p.cold.rows, tr)?;
            tr.set_on(false);
            attempted += jobs.len() as u64;
            failed += leg.failed;
            let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
            Some(Layers {
                build_s: leg.build_s,
                check_s: leg.check_s,
                schedules: leg.schedules as f64,
                transitions: leg.transitions as f64,
                sleep_blocked: leg.sleep_blocked as f64,
                conform_s: leg.conform_s,
                programs: leg.programs as f64,
                sim_runs: leg.sim_runs as f64,
                execute_s: p.cold_s,
                job_compute_s: p.cold.rows.iter().map(|r| r.wall_seconds).sum(),
                workers: p.cold.workers as f64,
                steals: p.cold.steals as f64,
                critical_path_s: p
                    .cold
                    .rows
                    .iter()
                    .map(|r| r.wall_seconds)
                    .fold(0.0, f64::max),
                cache_hits: p.warm_hits as f64,
                cache_misses: p.warm_misses as f64,
                warm_s: p.warm_s,
                allocs: p.allocs as f64,
                alloc_bytes: p.alloc_bytes as f64,
                pass_wall_s: p.wall_s,
                overhead_s: median(&traced_walls) - wall_s,
                span_coverage: tr.children_s(p.span) / tr.duration_s(p.span),
                ..Layers::default()
            })
        }
    };
    let bless = passes[0]
        .1
        .cold
        .rows
        .iter()
        .map(|r| (r.label.clone(), metrics_value(r)))
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        workers,
        end_to_end,
        extra: Metrics::default(),
        layers,
        bless,
    })
}
