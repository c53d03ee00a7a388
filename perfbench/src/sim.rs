//! The sim workloads, `suite-16c` and `scale-128c`: serial passes over
//! a (kernel × protocol) matrix at `Scale::Small` on the default
//! stepper, timing each call into `tsocc_workloads` and `tsocc` from
//! outside.

use std::time::Instant;

use tsocc::{RunStats, System};
use tsocc_bench::sweep::SweepPoint;
use tsocc_mem::Addr;
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale};

use crate::expect::{run_stats_value, Expectations};
use crate::layers::{Layers, PROTOCOLS};
use crate::report::{median, Metrics};
use crate::trace::{SpanId, Tracer};
use crate::{alloc, Outcome, RunOpts};

/// Kernels of `scale-128c`. `lu`, `water-nsq` and STAMP are left out:
/// at 128 cores `intruder` alone runs 30–41 s per protocol.
const SCALE_KERNELS: [Benchmark; 6] = [
    Benchmark::Fft,
    Benchmark::Radix,
    Benchmark::Canneal,
    Benchmark::Raytrace,
    Benchmark::Blackscholes,
    Benchmark::X264,
];

/// Set-up-only rounds per untraced run, pooled with each pass's set-up
/// time for the `setup_s` median.
const SETUP_ROUNDS: usize = 21;

/// Simulated-cycle budget per point (the sweep engine's).
const MAX_CYCLES: u64 = 200_000_000;

/// The points of a sim workload, or `None` if it is not one.
pub fn points(workload: &str) -> Option<Vec<SweepPoint>> {
    let (kernels, n_cores): (&[Benchmark], usize) = match workload {
        "suite-16c" => (&Benchmark::ALL, 16),
        "scale-128c" => (&SCALE_KERNELS, 128),
        _ => return None,
    };
    let protocols: Vec<Protocol> = PROTOCOLS
        .iter()
        .map(|p| Protocol::from_name(p).expect("benchmark protocol names parse"))
        .collect();
    Some(
        kernels
            .iter()
            .flat_map(|&bench| {
                protocols.iter().map(move |&protocol| SweepPoint {
                    bench,
                    protocol,
                    n_cores,
                    scale: Scale::Small,
                })
            })
            .collect(),
    )
}

/// The expectation key of a point.
fn key(workload: &str, p: &SweepPoint) -> String {
    format!(
        "{workload}/{}/{}/{}c",
        p.bench.name(),
        p.protocol.name(),
        p.n_cores
    )
}

/// One point's timings and outcome.
struct PointRun {
    protocol: usize,
    n_cores: u64,
    build_s: f64,
    new_s: f64,
    init_s: f64,
    run_s: f64,
    image_s: f64,
    wall_s: f64,
    stats: Result<RunStats, String>,
    steps: u64,
    image_lines: u64,
    /// Matches its committed expectation (always true off the default
    /// seed).
    expected: bool,
}

impl PointRun {
    fn setup_s(&self) -> f64 {
        self.build_s + self.new_s + self.init_s
    }
}

struct SetUp {
    sys: System,
    build_s: f64,
    new_s: f64,
    init_s: f64,
}

/// Builds the point's workload and machine and writes its initial
/// memory: the set-up `setup_s` measures.
fn set_up(p: &SweepPoint, base_seed: u64, tr: &mut Tracer, group: u64, parent: SpanId) -> SetUp {
    let seed = p.seed(base_seed);
    let (workload, build_s) = tr.time("workloads.build", group, parent, || {
        p.bench.build(p.n_cores, p.scale, seed)
    });
    let cfg = p.system_config(base_seed);
    let (sys, new_s) = tr.time("core.new", group, parent, || {
        System::try_new(cfg, workload.programs)
    });
    let mut sys = sys.expect("benchmark points have valid configurations");
    let ((), init_s) = tr.time("core.init", group, parent, || {
        for &(addr, value) in &workload.init {
            sys.write_word(Addr::new(addr), value);
        }
    });
    SetUp {
        sys,
        build_s,
        new_s,
        init_s,
    }
}

/// Sets up every point without running it; returns each point's
/// set-up time.
fn setup_round(points: &[SweepPoint], base_seed: u64) -> Vec<f64> {
    let mut tr = Tracer::new();
    points
        .iter()
        .map(|p| {
            let s = set_up(p, base_seed, &mut tr, 0, None);
            s.build_s + s.new_s + s.init_s
        })
        .collect()
}

/// For each point, the median over `rounds` of its value; summed, this
/// is a pass's figure with brief host stalls in single rounds left out.
fn point_medians(rounds: &[Vec<f64>]) -> Vec<f64> {
    (0..rounds[0].len())
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

struct SimPass {
    wall_s: f64,
    points: Vec<PointRun>,
    allocs: u64,
    alloc_bytes: u64,
    span: SpanId,
}

fn pass(
    workload: &str,
    points: &[SweepPoint],
    base_seed: u64,
    expect: &Expectations,
    tr: &mut Tracer,
) -> SimPass {
    let (allocs0, bytes0) = alloc::snapshot();
    let pass_group = tr.next_group();
    let span = tr.open(&format!("pass {workload}"), pass_group, None);
    let start = Instant::now();
    let runs = points
        .iter()
        .map(|p| {
            let group = tr.next_group();
            let key = key(workload, p);
            let point_span = tr.open(&format!("point {key}"), group, span);
            let t = Instant::now();
            let mut s = set_up(p, base_seed, tr, group, point_span);
            let (stats, run_s) = tr.time("core.run", group, point_span, || s.sys.run(MAX_CYCLES));
            let steps = s.sys.steps_executed();
            let (image, image_s) = tr.time("core.memory_image", group, point_span, || {
                s.sys.memory_image()
            });
            let wall_s = t.elapsed().as_secs_f64();
            tr.close(point_span);
            let stats = stats.map_err(|e| format!("{key}: {e}"));
            let expected = match &stats {
                Ok(st) => expect.check(&key, &run_stats_value(st)),
                Err(e) => {
                    eprintln!("RUN ERROR {e}");
                    false
                }
            };
            PointRun {
                protocol: Layers::protocol_index(&p.protocol.name()),
                n_cores: p.n_cores as u64,
                build_s: s.build_s,
                new_s: s.new_s,
                init_s: s.init_s,
                run_s,
                image_s,
                wall_s,
                stats,
                steps,
                image_lines: image.len() as u64,
                expected,
            }
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    tr.close(span);
    let (allocs1, bytes1) = alloc::snapshot();
    SimPass {
        wall_s,
        points: runs,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        span,
    }
}

/// Points attempted and failed over all passes. A point fails on a
/// run error, on a mismatch with its expectation, or when it differs
/// from the same point in the first pass (checked at any seed).
fn tally(passes: &[(bool, SimPass)]) -> (u64, u64) {
    let first = &passes[0].1.points;
    let mut attempted = 0;
    let mut failed = 0;
    for (_, p) in passes {
        for (r, r0) in p.points.iter().zip(first) {
            attempted += 1;
            let same = matches!((&r.stats, &r0.stats), (Ok(a), Ok(b)) if a == b);
            if !(r.expected && same) {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// Per-layer totals of one pass.
fn layers(p: &SimPass, tr: &Tracer) -> Layers {
    let mut l = Layers {
        pass_wall_s: p.wall_s,
        allocs: p.allocs as f64,
        alloc_bytes: p.alloc_bytes as f64,
        span_coverage: tr.children_s(p.span) / tr.duration_s(p.span),
        ..Layers::default()
    };
    for r in &p.points {
        l.build_s += r.build_s;
        l.new_s += r.new_s;
        l.init_s += r.init_s;
        l.run_s += r.run_s;
        l.run_s_by_protocol[r.protocol] += r.run_s;
        l.steps += r.steps as f64;
        l.memory_image_s += r.image_s;
        l.image_lines += r.image_lines as f64;
        let Ok(s) = &r.stats else { continue };
        l.sched_pushes += s.sched.pushes as f64;
        l.sched_pops += s.sched.events_popped as f64;
        l.sched_stale_skips += s.sched.stale_skips as f64;
        l.cycles += s.cycles as f64;
        l.core_cycles += (s.cycles * r.n_cores) as f64;
        l.instructions += s.instructions as f64;
        l.wb_full_stalls += s.wb_full_stalls as f64;
        l.l1_accesses += s.l1.accesses() as f64;
        l.l1_misses += (s.l1.read_misses() + s.l1.write_misses()) as f64;
        l.l1_selfinv_events += s.l1.selfinv_total() as f64;
        l.l1_selfinv_lines += s.l1.selfinv_lines.get() as f64;
        l.l1_ts_resets += s.l1.ts_resets.get() as f64;
        let l2 = [
            &s.l2.hits,
            &s.l2.misses,
            &s.l2.writebacks,
            &s.l2.decays,
            &s.l2.sro_invalidations,
            &s.l2.ts_resets,
        ];
        for (acc, c) in l.l2.iter_mut().zip(l2) {
            *acc += c.get() as f64;
        }
        for (acc, c) in l.msgs.iter_mut().zip(&s.noc.messages) {
            *acc += c.get() as f64;
        }
        l.flits += s.total_flits() as f64;
        l.flits_by_protocol[r.protocol] += s.total_flits() as f64;
        l.flit_hops += s.noc.flit_hops.get() as f64;
        l.contention_cycles += s.noc.contention_cycles.get() as f64;
    }
    l
}

/// Runs a sim workload for `opts.seconds`.
pub fn run(
    opts: &RunOpts,
    points: &[SweepPoint],
    expect: &Expectations,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let passes = crate::passes(opts.seconds, opts.trace, tr, |tr| {
        Ok(pass(&opts.workload, points, opts.seed, expect, tr))
    })?;
    // Set-up rounds run after the passes, in a warmed-up process.
    let mut setups: Vec<Vec<f64>> = Vec::new();
    if !opts.trace {
        for _ in 0..SETUP_ROUNDS {
            setups.push(setup_round(points, opts.seed));
        }
    }
    let (attempted, failed) = tally(&passes);
    let first = &passes[0].1.points;

    let (untraced, traced) = crate::split(&passes);
    let walls: Vec<Vec<f64>> = untraced
        .iter()
        .map(|p| p.points.iter().map(|r| r.wall_s).collect())
        .collect();
    let point_walls = point_medians(&walls);
    let wall_s: f64 = point_walls.iter().sum();
    setups.extend(
        untraced
            .iter()
            .map(|p| p.points.iter().map(PointRun::setup_s).collect()),
    );
    let cycles: u64 = first
        .iter()
        .filter_map(|r| r.stats.as_ref().ok().map(|s| s.cycles))
        .sum();
    let instructions: u64 = first
        .iter()
        .filter_map(|r| r.stats.as_ref().ok().map(|s| s.instructions))
        .sum();

    let mut end_to_end = Metrics::default();
    end_to_end.put("wall_s", wall_s, "s");
    end_to_end.put("setup_s", point_medians(&setups).iter().sum(), "s");
    end_to_end.put(
        "slowest_job_s",
        point_walls.iter().copied().fold(0.0, f64::max),
        "s",
    );
    let mut extra = Metrics::default();
    extra.put("sim_cycles_per_s", cycles as f64 / wall_s, "cycles/s");
    extra.put("sim_instr_per_s", instructions as f64 / wall_s, "instr/s");

    let layers = traced.last().map(|p| {
        let mut l = layers(p, tr);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        let untraced_walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        l.overhead_s = median(&traced_walls) - median(&untraced_walls);
        l
    });
    let bless = points
        .iter()
        .zip(first)
        .filter_map(|(p, r)| {
            let s = r.stats.as_ref().ok()?;
            Some((key(&opts.workload, p), run_stats_value(s)))
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        workers: 1,
        end_to_end,
        extra,
        layers,
        bless,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The self-test of the correctness gate: the committed expectation
    /// passes, and one tampered expectation is counted as a failure.
    #[test]
    fn tampered_expectation_is_reported_as_a_failure() {
        let workload = "suite-16c";
        let point = &points(workload).unwrap()[..1];
        let mut expect = Expectations::parse(crate::expect::committed(workload)).unwrap();
        let mut tr = Tracer::new();
        let run = |expect: &Expectations, tr: &mut Tracer| {
            let p = pass(workload, point, crate::DEFAULT_SEED, expect, tr);
            tally(&[(false, p)])
        };
        assert_eq!(run(&expect, &mut tr), (1, 0));

        let k = key(workload, &point[0]);
        let tampered = crate::expect::committed(workload)
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{k}\t")))
            .unwrap()
            .replacen("cycles=", "cycles=1", 1);
        expect.set(&k, &tampered);
        assert_eq!(run(&expect, &mut tr), (1, 1));
    }

    #[test]
    fn a_point_that_differs_from_the_first_pass_fails() {
        let workload = "suite-16c";
        let point = &points(workload).unwrap()[..1];
        let expect = Expectations::default();
        let mut tr = Tracer::new();
        let first = pass(workload, point, crate::DEFAULT_SEED, &expect, &mut tr);
        let other = pass(workload, point, crate::DEFAULT_SEED + 1, &expect, &mut tr);
        assert_eq!(tally(&[(false, first), (false, other)]), (2, 1));
    }
}
