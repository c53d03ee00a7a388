//! The event-driven scheduler's headline contract: for every point of
//! the sweep matrix, jumping simulated time over idle cycles must
//! produce **bit-identical** results to the cycle-by-cycle reference
//! stepper — the full [`RunStats`] (cycles, messages, flits, flit-hops,
//! every histogram and counter) and the final DRAM image — while
//! executing strictly fewer host steps. Covered from 2 to 128 cores,
//! across all three protocol families, and with multi-cycle routers.
//!
//! [`RunStats`]: tsocc::RunStats

use tsocc::{RunStats, Stepper, System, SystemConfig};
use tsocc_bench::sweep::SweepPoint;
use tsocc_mem::{Addr, LineAddr, LineData};
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale, Workload};

/// The `BENCH_sweep.json` base seed (`SweepOpts::default().seed`).
const BASE_SEED: u64 = 0xC0FFEE;

/// The three protocol families: full-vector MESI, coarse-directory
/// MESI and TSO-CC.
fn families() -> [Protocol; 3] {
    [
        Protocol::Mesi,
        Protocol::MesiCoarse(MesiCoarseConfig::default()),
        Protocol::TsoCc(TsoCcConfig::default()),
    ]
}

struct Outcome {
    stats: RunStats,
    memory: Vec<(LineAddr, LineData)>,
    host_steps: u64,
}

/// Runs `workload` on `cfg` under `stepper`, capturing the final
/// memory image as well.
fn run(mut cfg: SystemConfig, workload: &Workload, stepper: Stepper, label: &str) -> Outcome {
    cfg.stepper = stepper;
    let mut sys = System::new(cfg, workload.programs.clone());
    for &(addr, value) in &workload.init {
        sys.write_word(Addr::new(addr), value);
    }
    let stats = sys
        .run(200_000_000)
        .unwrap_or_else(|e| panic!("{label} ({stepper:?}): {e}"));
    Outcome {
        stats,
        memory: sys.memory_image(),
        host_steps: sys.steps_executed(),
    }
}

/// Runs `workload` on `cfg` under both steppers and asserts they agree.
fn assert_parity(cfg: SystemConfig, workload: &Workload, label: &str) {
    let event = run(cfg.clone(), workload, Stepper::EventDriven, label);
    let reference = run(cfg, workload, Stepper::Reference, label);
    assert_eq!(
        event.stats, reference.stats,
        "{label}: RunStats diverge between steppers"
    );
    assert_eq!(
        event.memory, reference.memory,
        "{label}: final memory image diverges between steppers"
    );
    assert!(
        event.host_steps < reference.host_steps,
        "{label}: event-driven ran {} steps, reference {} — no idle cycles skipped",
        event.host_steps,
        reference.host_steps
    );
}

/// Runs one sweep point exactly the way the sweep engine does (same
/// per-point seed derivation, config and cycle budget) under both
/// steppers.
fn assert_point_parity(point: &SweepPoint) {
    let workload = point
        .bench
        .build(point.n_cores, point.scale, point.seed(BASE_SEED));
    let label = format!(
        "{}/{}/x{}",
        point.bench.name(),
        point.protocol.name(),
        point.n_cores
    );
    assert_parity(point.system_config(BASE_SEED), &workload, &label);
}

/// The exact `BENCH_sweep.json` matrix: fft × all 9 sweep protocol
/// configurations (7 paper configs + 2 MESI-coarse directory points) ×
/// {2, 4, 8} cores at Small scale.
#[test]
fn sweep_matrix_is_bit_identical_across_steppers() {
    let mut checked = 0;
    for n_cores in [2usize, 4, 8] {
        for protocol in Protocol::sweep_configs() {
            let point = SweepPoint {
                bench: Benchmark::Fft,
                protocol,
                n_cores,
                scale: Scale::Small,
            };
            assert_point_parity(&point);
            checked += 1;
        }
    }
    assert_eq!(checked, 27, "the sweep matrix has 27 points");
}

/// Broader workload coverage at Tiny scale: every benchmark of the
/// paper's Table 3 under both a MESI and a TSO-CC machine.
#[test]
fn every_benchmark_is_bit_identical_across_steppers() {
    for bench in Benchmark::ALL {
        for protocol in [Protocol::Mesi, Protocol::TsoCc(TsoCcConfig::default())] {
            let point = SweepPoint {
                bench,
                protocol,
                n_cores: 4,
                scale: Scale::Tiny,
            };
            assert_point_parity(&point);
        }
    }
}

/// Larger machines: 16 cores at Small and 32 cores at Tiny scale, all
/// three protocol families.
#[test]
fn steppers_agree_at_16_and_32_cores() {
    for (n_cores, scale) in [(16, Scale::Small), (32, Scale::Tiny)] {
        for protocol in families() {
            assert_point_parity(&SweepPoint {
                bench: Benchmark::Fft,
                protocol,
                n_cores,
                scale,
            });
        }
    }
}

/// The largest machine in the sweep, all three protocol families.
/// Full-vector MESI at 128 cores is the boundary configuration — its
/// u128 sharer vector is exactly full, and the machine runs two-banked
/// L2 interleaving (`l2_banks = 2`) on the non-square 8×16 mesh.
#[test]
fn steppers_agree_at_128_cores() {
    for protocol in families() {
        let point = SweepPoint {
            bench: Benchmark::Fft,
            protocol,
            n_cores: 128,
            scale: Scale::Tiny,
        };
        let cfg = point.system_config(BASE_SEED);
        let shape = cfg.shape();
        assert_eq!((shape.mesh.rows(), shape.mesh.cols()), (8, 16));
        assert_eq!(cfg.l2_banks, 2);
        assert_point_parity(&point);
    }
}

/// Multi-cycle routers: with `router_latency = 3` every hop spends
/// three cycles in a router, so the event-driven loop must jump over
/// multi-cycle gaps to each arrival.
#[test]
fn steppers_agree_with_multi_cycle_routers() {
    let workload = Benchmark::Fft.build(8, Scale::Tiny, 7);
    let mut cfg = SystemConfig::builder()
        .small()
        .cores(8)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    cfg.noc.router_latency = 3;
    assert_parity(cfg, &workload, "fft/MESI/x8 router_latency=3");
}
