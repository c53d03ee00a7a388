//! Host-work regression gate: the event-driven stepper's scheduler pops
//! per simulated instruction.
//!
//! `RunStats::sched` counts are exact and host-independent, so this
//! gates simulator host work without any timing noise. A core runs
//! register-only instructions ahead within one tick and so wakes about
//! once per memory operation; a model that returned to one scheduler
//! wake per instruction would push the ratio back above 1 and fail here
//! on any host.

use tsocc::{RunStats, Stepper, System, SystemConfig};
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale};

/// The `BENCH_sweep.json` base seed.
const SEED: u64 = 0xC0FFEE;

fn run_fft16(protocol: Protocol) -> RunStats {
    let workload = Benchmark::Fft.build(16, Scale::Small, SEED);
    let mut cfg = SystemConfig::builder()
        .cores(16)
        .protocol(protocol)
        .build()
        .expect("valid config");
    cfg.seed = SEED;
    cfg.stepper = Stepper::EventDriven;
    let mut sys = System::new(cfg, workload.programs.clone());
    for &(addr, value) in &workload.init {
        sys.write_word(tsocc_mem::Addr::new(addr), value);
    }
    sys.run(200_000_000)
        .unwrap_or_else(|e| panic!("fft x16 on {}: {e}", protocol.name()))
}

/// Scheduler pops per instruction must stay below this. Measured with
/// register run-ahead: MESI 41,937 / 65,360 = 0.642 and TSO-CC-4-12-3
/// 37,676 / 51,618 = 0.730. With one wake per instruction (and two per
/// L1 hit) the same points read MESI 101,886 / 65,360 = 1.559 and
/// TSO-CC-4-12-3 79,143 / 51,618 = 1.533.
const MAX_POPS_PER_INSTRUCTION: f64 = 0.8;

#[test]
fn scheduler_pops_per_instruction_stay_below_bound() {
    for protocol in [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
    ] {
        let stats = run_fft16(protocol);
        let ratio = stats.sched.events_popped as f64 / stats.instructions as f64;
        assert!(
            ratio < MAX_POPS_PER_INSTRUCTION,
            "{}: {} pops / {} instructions = {ratio:.3}",
            protocol.name(),
            stats.sched.events_popped,
            stats.instructions
        );
    }
}
