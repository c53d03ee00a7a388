//! The per-layer metrics of a traced run. Every workload reports every
//! metric; a layer the workload bypasses reads 0.

use crate::report::{ratio, Metrics};

/// The protocols both sim workloads run, in report order.
pub const PROTOCOLS: [&str; 3] = ["MESI", "MESI-P4-G4", "TSO-CC-4-12-3"];

/// Per-layer totals over one traced pass (times in seconds, the rest
/// counts).
#[derive(Default)]
pub struct Layers {
    pub build_s: f64,
    pub new_s: f64,
    pub init_s: f64,
    pub run_s: f64,
    pub run_s_by_protocol: [f64; 3],
    pub steps: f64,
    pub memory_image_s: f64,
    pub image_lines: f64,
    pub sched_pushes: f64,
    pub sched_pops: f64,
    pub sched_stale_skips: f64,
    pub cycles: f64,
    pub core_cycles: f64,
    pub instructions: f64,
    pub wb_full_stalls: f64,
    pub l1_accesses: f64,
    pub l1_misses: f64,
    pub l1_selfinv_events: f64,
    pub l1_selfinv_lines: f64,
    pub l1_ts_resets: f64,
    pub l2: [f64; 6],
    pub msgs: [f64; 3],
    pub flits: f64,
    pub flits_by_protocol: [f64; 3],
    pub flit_hops: f64,
    pub contention_cycles: f64,
    pub check_s: f64,
    pub schedules: f64,
    pub transitions: f64,
    pub sleep_blocked: f64,
    pub conform_s: f64,
    pub programs: f64,
    pub sim_runs: f64,
    pub execute_s: f64,
    pub job_compute_s: f64,
    pub workers: f64,
    pub steals: f64,
    pub critical_path_s: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub warm_s: f64,
    pub allocs: f64,
    pub alloc_bytes: f64,
    /// Peak resident memory of the process, in MiB.
    pub peak_rss_mb: f64,
    /// Wall time of the traced pass the totals come from.
    pub pass_wall_s: f64,
    /// Median traced pass wall minus median untraced pass wall.
    pub overhead_s: f64,
    /// Sum of the pass's top-level point/job spans over its wall time.
    pub span_coverage: f64,
    pub spans: f64,
}

/// Names of the L2 counters, in [`Layers::l2`] order.
const L2: [&str; 6] = [
    "hits",
    "misses",
    "writebacks",
    "decays",
    "sro_invalidations",
    "ts_resets",
];

/// Names of the NoC message classes, in [`Layers::msgs`] order.
const VNETS: [&str; 3] = ["request", "forward", "response"];

impl Layers {
    /// Index of a protocol name in [`PROTOCOLS`].
    pub fn protocol_index(name: &str) -> usize {
        PROTOCOLS
            .iter()
            .position(|p| *p == name)
            .expect("sim points use the benchmark's protocols")
    }

    /// Every per-layer metric, by name and unit.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("workloads.build_s", self.build_s, "s");
        m.put("core.new_s", self.new_s, "s");
        m.put("core.init_s", self.init_s, "s");
        m.put("core.run_s", self.run_s, "s");
        for (p, s) in PROTOCOLS.iter().zip(self.run_s_by_protocol) {
            m.put(format!("core.run_s.{p}"), s, "s");
        }
        m.put("core.steps", self.steps, "count");
        m.put(
            "core.run_ns_per_event",
            ratio(self.run_s * 1e9, self.sched_pops),
            "ns/event",
        );
        m.put("core.memory_image_s", self.memory_image_s, "s");
        m.put("mem.image_lines", self.image_lines, "count");
        m.put("sim.sched_pushes", self.sched_pushes, "count");
        m.put("sim.sched_pops", self.sched_pops, "count");
        m.put("sim.sched_stale_skips", self.sched_stale_skips, "count");
        m.put(
            "sim.stale_ratio",
            ratio(self.sched_stale_skips, self.sched_pushes),
            "ratio",
        );
        m.put("sim.cycles", self.cycles, "cycles");
        m.put(
            "sim.cycles_per_step",
            ratio(self.cycles, self.steps),
            "cycles/step",
        );
        m.put(
            "sim.cycles_per_s",
            ratio(self.cycles, self.pass_wall_s),
            "cycles/s",
        );
        m.put("cpu.instructions", self.instructions, "count");
        m.put(
            "cpu.ipc",
            ratio(self.instructions, self.core_cycles),
            "instr/cycle",
        );
        m.put("cpu.wb_full_stalls", self.wb_full_stalls, "cycles");
        m.put(
            "cpu.instr_per_s",
            ratio(self.instructions, self.pass_wall_s),
            "instr/s",
        );
        m.put("coherence.l1.accesses", self.l1_accesses, "count");
        m.put(
            "coherence.l1.miss_rate",
            ratio(self.l1_misses, self.l1_accesses),
            "ratio",
        );
        m.put(
            "coherence.l1.selfinv_events",
            self.l1_selfinv_events,
            "count",
        );
        m.put("coherence.l1.selfinv_lines", self.l1_selfinv_lines, "count");
        m.put("coherence.l1.ts_resets", self.l1_ts_resets, "count");
        for (name, v) in L2.iter().zip(self.l2) {
            m.put(format!("coherence.l2.{name}"), v, "count");
        }
        for (name, v) in VNETS.iter().zip(self.msgs) {
            m.put(format!("noc.msgs_{name}"), v, "count");
        }
        m.put("noc.flits", self.flits, "count");
        for (p, v) in PROTOCOLS.iter().zip(self.flits_by_protocol) {
            m.put(format!("noc.flits.{p}"), v, "count");
        }
        m.put("noc.flit_hops", self.flit_hops, "count");
        m.put("noc.contention_cycles", self.contention_cycles, "cycles");
        m.put("check.wall_s", self.check_s, "s");
        m.put("check.schedules", self.schedules, "count");
        m.put("check.transitions", self.transitions, "count");
        m.put("check.sleep_blocked", self.sleep_blocked, "count");
        m.put(
            "check.transitions_per_s",
            ratio(self.transitions, self.check_s),
            "1/s",
        );
        m.put("conform.wall_s", self.conform_s, "s");
        m.put("conform.programs", self.programs, "count");
        m.put("conform.sim_runs", self.sim_runs, "count");
        m.put("orch.execute_s", self.execute_s, "s");
        m.put(
            "orch.busy_ratio",
            ratio(self.job_compute_s, self.workers * self.execute_s),
            "ratio",
        );
        m.put("orch.steals", self.steals, "count");
        m.put("orch.critical_path_s", self.critical_path_s, "s");
        m.put("orch.cache_hits", self.cache_hits, "count");
        m.put("orch.cache_misses", self.cache_misses, "count");
        m.put(
            "orch.cache_hit_rate",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            "ratio",
        );
        m.put("orch.warm_s", self.warm_s, "s");
        m.put("host.allocs", self.allocs, "count");
        m.put("host.alloc_bytes", self.alloc_bytes, "B");
        m.put(
            "host.allocs_per_kcycle",
            ratio(self.allocs * 1000.0, self.cycles),
            "allocs/kcycle",
        );
        m.put("host.peak_rss_mb", self.peak_rss_mb, "MB");
        m.put("trace.overhead_s", self.overhead_s, "s");
        m.put("trace.span_coverage", self.span_coverage, "ratio");
        m.put("trace.spans", self.spans, "count");
        m
    }
}
