//! The campaign driver: generate → enumerate → simulate → check →
//! shrink, fanned out over worker threads.
//!
//! Workers pull program indices off a shared atomic counter, and
//! everything a program does — generation, enumeration, simulation
//! seeds — derives deterministically from the campaign seed and the
//! program index, never from which worker picked it up. A campaign runs
//! until its time budget expires *and* at least `min_programs` programs
//! have been checked, so CI smokes can pin a floor while nightly runs
//! scale with their budget.
//!
//! This is the one fan-out that does not go through the workspace's
//! index-keyed pool (`tsocc_bench::pool::run_indexed`). A campaign is
//! an open-ended stream that stops on a time budget, so there is no job
//! count to size the pool's result slots with, and each worker folds
//! its programs into a local report instead. Splitting the stream into
//! fixed-size rounds would idle every worker at each round's barrier
//! for the length of its slowest program, for the whole of a nightly
//! budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tsocc::{FaultPlan, System, SystemConfig};
use tsocc_isa::RmwOp;
use tsocc_protocols::Protocol;
use tsocc_sim::rng::SplitMix64;
use tsocc_workloads::tso_model::{enumerate, ModelMode, ModelOp, ModelProgram};

use crate::compile::{compile_program, observed_outcome, DEFAULT_POOL};
use crate::gen::{generate_program, GenConfig};
use crate::shrink::{op_count, shrink};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignOpts {
    /// Base seed; every program/run seed derives from it.
    pub seed: u64,
    /// Worker threads (`0` = one per available CPU).
    pub workers: usize,
    /// Time budget. The campaign keeps generating fresh programs until
    /// the budget is spent (and the floor below is met).
    pub budget: Duration,
    /// Check at least this many programs even if the budget expires.
    pub min_programs: usize,
    /// Hard cap on generated programs (`0` = none).
    pub max_programs: usize,
    /// Randomized-timing simulator runs per (program, protocol).
    pub iters_per_program: u64,
    /// Protocols every program runs on.
    pub protocols: Vec<Protocol>,
    /// Program shape.
    pub gen: GenConfig,
    /// The oracle the simulator is checked against. [`ModelMode::Tso`]
    /// is the real contract; [`ModelMode::Sc`] is strictly stronger and
    /// exists to *inject* violations when testing the campaign itself.
    pub oracle: ModelMode,
    /// Per-program enumeration bound; larger programs are skipped and
    /// counted, not fatal.
    pub max_states: usize,
    /// Initial random delay compiled into every thread (timing spread).
    pub jitter: u32,
    /// Simulator runs used to re-confirm a violation on each shrink
    /// candidate.
    pub shrink_iters: u64,
    /// At most this many violations are shrunk and kept in full (the
    /// rest only count toward `violations_total`).
    pub max_violations: usize,
    /// Fault-injection plan installed on every simulator run.
    /// [`FaultPlan::none`] (the default) checks the healthy simulator;
    /// a protocol mutation turns the campaign into a
    /// mutation-detection oracle — the mutation is caught when the
    /// campaign reports violations (model mismatches or hangs).
    pub faults: FaultPlan,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            seed: 0xC0FFEE,
            workers: 0,
            budget: Duration::ZERO,
            min_programs: 100,
            max_programs: 0,
            iters_per_program: 2,
            protocols: vec![Protocol::Mesi, Protocol::TsoCc(Default::default())],
            gen: GenConfig::default(),
            oracle: ModelMode::Tso,
            max_states: 60_000,
            jitter: 50,
            shrink_iters: 24,
            max_violations: 8,
            faults: FaultPlan::none(),
        }
    }
}

/// One confirmed conformance violation, with its shrunk reproducer.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Campaign program index (regenerate with the campaign seed).
    pub program_index: usize,
    /// The program's derived generation seed.
    pub program_seed: u64,
    /// Protocol configuration that violated.
    pub protocol: String,
    /// The simulator outcome that is not in the oracle's allowed set
    /// (`None` if the run failed to terminate instead).
    pub outcome: Option<Vec<u64>>,
    /// Run error text for non-termination violations.
    pub error: Option<String>,
    /// The original generated program.
    pub program: ModelProgram,
    /// The shrunk minimal reproducer.
    pub shrunk: ModelProgram,
}

/// Aggregated campaign results.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Programs generated, enumerated and simulated.
    pub programs_checked: usize,
    /// Programs skipped because enumeration outgrew `max_states`.
    pub programs_skipped: usize,
    /// Total simulator executions.
    pub sim_runs: u64,
    /// Sum of model state-space sizes over checked programs.
    pub states_total: u64,
    /// Largest single state space enumerated.
    pub max_state_space: usize,
    /// Programs bucketed by `log2(state-space size)` (last bucket is
    /// `>= 2^15`).
    pub state_space_histogram: [u64; 16],
    /// Programs bucketed by the share of model-allowed outcomes the
    /// simulator actually exhibited (deciles; last bucket = 90–100%).
    pub coverage_histogram: [u64; 10],
    /// Sum of allowed-outcome-set sizes.
    pub allowed_outcomes_total: u64,
    /// Sum of distinct outcomes observed on the machine.
    pub observed_outcomes_total: u64,
    /// All violations found (shrunk reproducers, capped at
    /// `max_violations`).
    pub violations: Vec<Violation>,
    /// Total violating (program, protocol) pairs, including ones beyond
    /// the shrink cap.
    pub violations_total: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Names of the protocols checked.
    pub protocols: Vec<String>,
}

impl CampaignReport {
    fn absorb(&mut self, other: CampaignReport) {
        self.programs_checked += other.programs_checked;
        self.programs_skipped += other.programs_skipped;
        self.sim_runs += other.sim_runs;
        self.states_total += other.states_total;
        self.max_state_space = self.max_state_space.max(other.max_state_space);
        for (a, b) in self
            .state_space_histogram
            .iter_mut()
            .zip(other.state_space_histogram)
        {
            *a += b;
        }
        for (a, b) in self
            .coverage_histogram
            .iter_mut()
            .zip(other.coverage_histogram)
        {
            *a += b;
        }
        self.allowed_outcomes_total += other.allowed_outcomes_total;
        self.observed_outcomes_total += other.observed_outcomes_total;
        self.violations_total += other.violations_total;
        self.violations.extend(other.violations);
    }

    /// A human-readable one-screen summary (the binary prints this to
    /// stderr next to the JSON artifact).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "conformance campaign: {} programs checked ({} skipped as too large), \
             {} sim runs on [{}] in {:.2?}\n\
             state spaces: {} states total, largest {}\n\
             outcome coverage: {} of {} allowed outcomes observed\n",
            self.programs_checked,
            self.programs_skipped,
            self.sim_runs,
            self.protocols.join(", "),
            self.elapsed,
            self.states_total,
            self.max_state_space,
            self.observed_outcomes_total,
            self.allowed_outcomes_total,
        );
        if self.violations_total == 0 {
            s.push_str("violations: none\n");
        } else {
            s.push_str(&format!(
                "violations: {} (showing {} shrunk reproducers)\n",
                self.violations_total,
                self.violations.len()
            ));
            for v in &self.violations {
                s.push_str(&format!(
                    "--- program {} under {} ({} ops shrunk to {}) ---\n{}",
                    v.program_index,
                    v.protocol,
                    op_count(&v.program),
                    op_count(&v.shrunk),
                    litmus_text(&v.shrunk),
                ));
            }
        }
        s
    }
}

/// Renders a model program as a ready-to-paste litmus test: a diy-style
/// column table plus the equivalent Rust construction.
pub fn litmus_text(program: &ModelProgram) -> String {
    fn op_text(op: &ModelOp) -> String {
        match *op {
            ModelOp::Store { addr, value } => format!("St x{addr}={value}"),
            ModelOp::Load { addr } => format!("Ld x{addr}"),
            ModelOp::Fence => "Fence".to_string(),
            ModelOp::Rmw { addr, rmw } => match rmw {
                RmwOp::Cas { expected, new } => format!("CAS x{addr} {expected}->{new}"),
                RmwOp::FetchAdd { operand } => format!("FADD x{addr}+={operand}"),
                RmwOp::Swap { operand } => format!("SWAP x{addr}={operand}"),
            },
        }
    }
    fn op_rust(op: &ModelOp) -> String {
        match *op {
            ModelOp::Store { addr, value } => {
                format!("ModelOp::Store {{ addr: {addr}, value: {value} }}")
            }
            ModelOp::Load { addr } => format!("ModelOp::Load {{ addr: {addr} }}"),
            ModelOp::Fence => "ModelOp::Fence".to_string(),
            ModelOp::Rmw { addr, rmw } => {
                let r = match rmw {
                    RmwOp::Cas { expected, new } => {
                        format!("RmwOp::Cas {{ expected: {expected}, new: {new} }}")
                    }
                    RmwOp::FetchAdd { operand } => {
                        format!("RmwOp::FetchAdd {{ operand: {operand} }}")
                    }
                    RmwOp::Swap { operand } => format!("RmwOp::Swap {{ operand: {operand} }}"),
                };
                format!("ModelOp::Rmw {{ addr: {addr}, rmw: {r} }}")
            }
        }
    }
    let rows = program.iter().map(Vec::len).max().unwrap_or(0);
    let width = program
        .iter()
        .flatten()
        .map(|op| op_text(op).len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    for t in 0..program.len() {
        out.push_str(&format!("{:<width$} | ", format!("P{t}")));
    }
    out.push('\n');
    for row in 0..rows {
        for ops in program {
            let cell = ops.get(row).map(op_text).unwrap_or_default();
            out.push_str(&format!("{cell:<width$} | "));
        }
        out.push('\n');
    }
    out.push_str("vec![\n");
    for ops in program {
        out.push_str("    vec![");
        out.push_str(&ops.iter().map(op_rust).collect::<Vec<_>>().join(", "));
        out.push_str("],\n");
    }
    out.push_str("]\n");
    out
}

/// Stable seed mixing (order- and worker-independent).
fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::new(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Runs one simulator execution of `program`; `Ok` is the observed
/// outcome.
fn run_once(
    program: &ModelProgram,
    pool: &[u64],
    protocol: Protocol,
    jitter: u32,
    seed: u64,
    faults: FaultPlan,
) -> Result<Vec<u64>, String> {
    let compiled = compile_program(program, pool, jitter);
    let mut cfg = SystemConfig::builder()
        .small()
        .cores(program.len().max(1))
        .protocol(protocol)
        .build()
        .expect("valid config");
    cfg.seed = seed;
    cfg.faults = faults;
    let mut sys = System::new(cfg, compiled);
    sys.run(5_000_000).map_err(|e| e.to_string())?;
    Ok(observed_outcome(&sys, program))
}

/// Runs a full campaign. See [`CampaignOpts`] for the knobs.
///
/// # Panics
///
/// Panics if `opts.protocols` is empty or the generator's location
/// count exceeds the built-in pool.
pub fn run_campaign(opts: &CampaignOpts) -> CampaignReport {
    assert!(!opts.protocols.is_empty(), "campaign needs >= 1 protocol");
    assert!(
        opts.gen.locations <= DEFAULT_POOL.len(),
        "generator locations exceed the address pool"
    );
    let pool = &DEFAULT_POOL[..opts.gen.locations];
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if opts.workers == 0 {
        auto
    } else {
        opts.workers
    };
    let next = AtomicUsize::new(0);
    let checked = AtomicUsize::new(0);
    // Global cap on shrunk violations (shrinking is the expensive
    // path); shared across workers so the report honours
    // `max_violations` no matter the fan-out.
    let shrink_slots = AtomicUsize::new(opts.max_violations);
    // Safety valve for the min-programs floor: if the generator's shape
    // makes nearly every program exceed `max_states`, the floor could
    // be unreachable — after this many *attempts* the budget alone
    // decides, so the campaign always terminates.
    let attempt_cap = opts.min_programs.saturating_mul(20).max(1_000);
    let start = Instant::now();
    let mut report = CampaignReport {
        protocols: opts.protocols.iter().map(Protocol::name).collect(),
        ..Default::default()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = CampaignReport::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if opts.max_programs > 0 && i >= opts.max_programs {
                            break;
                        }
                        if (checked.load(Ordering::Relaxed) >= opts.min_programs
                            || i >= attempt_cap)
                            && start.elapsed() >= opts.budget
                        {
                            break;
                        }
                        let pseed = mix(opts.seed, i as u64);
                        let program = generate_program(&opts.gen, pseed);
                        let Ok(en) = enumerate(&program, opts.oracle, opts.max_states) else {
                            local.programs_skipped += 1;
                            continue;
                        };
                        checked.fetch_add(1, Ordering::Relaxed);
                        local.programs_checked += 1;
                        local.states_total += en.states_explored as u64;
                        local.max_state_space = local.max_state_space.max(en.states_explored);
                        let bucket = (en.states_explored.max(1).ilog2() as usize).min(15);
                        local.state_space_histogram[bucket] += 1;
                        let mut observed = std::collections::BTreeSet::new();
                        for (pi, &protocol) in opts.protocols.iter().enumerate() {
                            // One violation per (program, protocol)
                            // pair: later iterations of a reproducibly
                            // broken pair add nothing and would re-run
                            // the expensive shrink.
                            let mut pair_violated = false;
                            for it in 0..opts.iters_per_program {
                                local.sim_runs += 1;
                                let run_seed = mix(pseed, ((pi as u64) << 32) | it);
                                let (outcome, error, violated) = match run_once(
                                    &program,
                                    pool,
                                    protocol,
                                    opts.jitter,
                                    run_seed,
                                    opts.faults,
                                ) {
                                    Ok(outcome) => {
                                        let bad = !en.outcomes.contains(&outcome);
                                        observed.insert(outcome.clone());
                                        (Some(outcome), None, bad)
                                    }
                                    Err(e) => (None, Some(e), true),
                                };
                                if !violated || pair_violated {
                                    continue;
                                }
                                pair_violated = true;
                                local.violations_total += 1;
                                // Claim one of the campaign-wide shrink
                                // slots (`max_violations` total across
                                // all workers).
                                let claimed = shrink_slots
                                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |slots| {
                                        slots.checked_sub(1)
                                    })
                                    .is_ok();
                                if !claimed {
                                    continue;
                                }
                                // Shrink against the same oracle: a
                                // candidate still violates if any of
                                // `shrink_iters` timings produces an
                                // outcome outside its own allowed set
                                // (or fails to terminate). The original
                                // program short-circuits to true — this
                                // very run is its witness; a rare
                                // violation must not be lost to the
                                // statistical re-check.
                                let shrunk = shrink(&program, |p: &ModelProgram| {
                                    if p == &program {
                                        return true;
                                    }
                                    let Ok(en) = enumerate(p, opts.oracle, opts.max_states) else {
                                        return false;
                                    };
                                    (0..opts.shrink_iters).any(|sit| {
                                        let seed = mix(run_seed, 0x5_4213 ^ sit);
                                        match run_once(
                                            p,
                                            pool,
                                            protocol,
                                            opts.jitter,
                                            seed,
                                            opts.faults,
                                        ) {
                                            Ok(o) => !en.outcomes.contains(&o),
                                            Err(_) => true,
                                        }
                                    })
                                });
                                local.violations.push(Violation {
                                    program_index: i,
                                    program_seed: pseed,
                                    protocol: protocol.name(),
                                    outcome,
                                    error,
                                    program: program.clone(),
                                    shrunk,
                                });
                            }
                        }
                        let coverage = observed.len() as f64 / en.outcomes.len().max(1) as f64;
                        let decile = ((coverage * 10.0) as usize).min(9);
                        local.coverage_histogram[decile] += 1;
                        local.allowed_outcomes_total += en.outcomes.len() as u64;
                        local.observed_outcomes_total += observed.len() as u64;
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            let local = h.join().expect("campaign worker panicked");
            report.absorb(local);
        }
    });
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn litmus_text_round_trips_the_shape() {
        let program: ModelProgram = vec![
            vec![
                ModelOp::Store { addr: 0, value: 1 },
                ModelOp::Load { addr: 1 },
            ],
            vec![ModelOp::Rmw {
                addr: 1,
                rmw: RmwOp::FetchAdd { operand: 2 },
            }],
        ];
        let text = litmus_text(&program);
        assert!(text.contains("St x0=1"), "{text}");
        assert!(text.contains("FADD x1+=2"), "{text}");
        assert!(text.contains("ModelOp::Load { addr: 1 }"), "{text}");
        assert!(text.contains("P0"), "{text}");
        assert!(text.contains("P1"), "{text}");
    }

    #[test]
    fn mix_is_stable_and_spread() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
