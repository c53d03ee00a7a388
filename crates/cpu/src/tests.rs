use std::collections::HashMap;
use std::collections::VecDeque;

use tsocc_coherence::{
    Agent, CacheController, Completion, CoreOp, L1Controller, L1Stats, Msg, NetMsg, Submit,
};
use tsocc_isa::{Asm, Reg, RmwOp};
use tsocc_sim::Cycle;

use super::*;

/// A functional mock L1: word-addressed flat memory, configurable miss
/// behaviour, records every op with the cycle it was submitted at.
struct MockL1 {
    mem: HashMap<u64, u64>,
    /// Ops complete `miss_latency` cycles later when nonzero.
    miss_latency: u64,
    inflight: VecDeque<(Cycle, Completion)>,
    log: Vec<(u64, CoreOp)>,
    stats: L1Stats,
    now: Cycle,
}

impl MockL1 {
    fn hit() -> Self {
        MockL1 {
            mem: HashMap::new(),
            miss_latency: 0,
            inflight: VecDeque::new(),
            log: Vec::new(),
            stats: L1Stats::default(),
            now: Cycle::ZERO,
        }
    }

    fn missy(latency: u64) -> Self {
        let mut m = MockL1::hit();
        m.miss_latency = latency;
        m
    }

    fn perform(&mut self, op: CoreOp) -> u64 {
        match op {
            CoreOp::Load(a) => self.mem.get(&a.as_u64()).copied().unwrap_or(0),
            CoreOp::Store(a, v) => {
                self.mem.insert(a.as_u64(), v);
                0
            }
            CoreOp::Rmw(a, rmw) => {
                let old = self.mem.get(&a.as_u64()).copied().unwrap_or(0);
                self.mem.insert(a.as_u64(), rmw.apply(old));
                old
            }
            CoreOp::Fence => 0,
        }
    }
}

impl CacheController for MockL1 {
    fn handle_message(&mut self, _now: Cycle, _src: Agent, _msg: Msg) {}
    fn tick(&mut self, now: Cycle) {
        self.now = now;
    }
    fn drain_outbox(&mut self, _now: Cycle, _out: &mut Vec<NetMsg>) {}
    fn is_quiescent(&self) -> bool {
        self.inflight.is_empty()
    }
    fn next_event(&self) -> Cycle {
        self.inflight.front().map_or(Cycle::MAX, |&(t, _)| t)
    }
}

impl L1Controller for MockL1 {
    fn submit(&mut self, now: Cycle, op: CoreOp) -> Submit {
        self.log.push((now.as_u64(), op));
        if self.miss_latency == 0 || matches!(op, CoreOp::Fence) {
            Submit::Hit(self.perform(op))
        } else {
            let value = self.perform(op);
            let done = now + self.miss_latency;
            let completion = match op {
                CoreOp::Store(..) => Completion::Store,
                _ => Completion::Load(value),
            };
            self.inflight.push_back((done, completion));
            Submit::Miss
        }
    }

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        while let Some(&(t, c)) = self.inflight.front() {
            if t > self.now {
                break;
            }
            self.inflight.pop_front();
            out.push(c);
        }
    }

    fn stats(&self) -> &L1Stats {
        &self.stats
    }
}

fn run(core: &mut Core, l1: &mut MockL1, max_cycles: u64) -> u64 {
    for t in 0..max_cycles {
        let now = Cycle::new(t);
        l1.tick(now);
        core.tick(now, l1);
        if core.is_done() {
            return t;
        }
    }
    panic!("core did not finish in {max_cycles} cycles");
}

#[test]
fn straight_line_program_completes() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 42);
    a.store_abs(Reg::R1, 0x100);
    a.load_abs(Reg::R2, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::hit();
    run(&mut core, &mut l1, 1000);
    assert_eq!(core.thread().reg(Reg::R2), 42);
    assert_eq!(core.stats().loads.get(), 1);
    assert_eq!(core.stats().stores.get(), 1);
}

#[test]
fn load_forwards_from_write_buffer() {
    // With a huge miss latency, the store sits in the write buffer; the
    // following load must still see it (TSO bypass) without touching L1.
    let mut a = Asm::new();
    a.movi(Reg::R1, 7);
    a.store_abs(Reg::R1, 0x200);
    a.load_abs(Reg::R2, 0x200);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(500);
    run(&mut core, &mut l1, 3000);
    assert_eq!(core.thread().reg(Reg::R2), 7);
    assert_eq!(core.stats().wb_forwards.get(), 1);
}

#[test]
fn forwarding_picks_youngest_store() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x200);
    a.movi(Reg::R1, 2);
    a.store_abs(Reg::R1, 0x200);
    a.load_abs(Reg::R2, 0x200);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(200);
    run(&mut core, &mut l1, 3000);
    assert_eq!(core.thread().reg(Reg::R2), 2);
}

#[test]
fn stores_drain_in_fifo_order() {
    let mut a = Asm::new();
    for i in 0..5u64 {
        a.movi(Reg::R1, i + 10);
        a.store_abs(Reg::R1, 0x100 + i * 8);
    }
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(17);
    run(&mut core, &mut l1, 3000);
    let stores: Vec<u64> = l1
        .log
        .iter()
        .filter_map(|(_, op)| match op {
            CoreOp::Store(a, _) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    assert_eq!(stores, vec![0x100, 0x108, 0x110, 0x118, 0x120]);
    // One at a time: only one store may be in flight, so the program
    // ends only after 5 * 17 cycles of store draining.
    assert_eq!(l1.mem[&0x120], 14);
}

#[test]
fn fence_waits_for_drain() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 5);
    a.store_abs(Reg::R1, 0x100);
    a.fence();
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(100);
    run(&mut core, &mut l1, 2000);
    // The fence must be performed after the store completed.
    let fence_pos = l1
        .log
        .iter()
        .position(|(_, o)| matches!(o, CoreOp::Fence))
        .unwrap();
    let store_pos = l1
        .log
        .iter()
        .position(|(_, o)| matches!(o, CoreOp::Store(..)))
        .unwrap();
    assert!(fence_pos > store_pos);
    assert_eq!(core.stats().fences.get(), 1);
}

#[test]
fn rmw_drains_then_executes_atomically() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 3);
    a.store_abs(Reg::R1, 0x300); // buffered store to another line
    a.movi(Reg::R2, 1);
    a.fetch_add(Reg::R3, Reg::R0, 0x400, Reg::R2);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(50);
    run(&mut core, &mut l1, 3000);
    assert_eq!(core.thread().reg(Reg::R3), 0, "old value");
    assert_eq!(l1.mem[&0x400], 1);
    // RMW must be ordered after the buffered store drained.
    let rmw_pos = l1
        .log
        .iter()
        .position(|(_, o)| matches!(o, CoreOp::Rmw(..)))
        .unwrap();
    let store_pos = l1
        .log
        .iter()
        .position(|(_, o)| matches!(o, CoreOp::Store(..)))
        .unwrap();
    assert!(rmw_pos > store_pos);
    assert!(core.stats().rmw_latency.count() == 1);
}

#[test]
fn write_buffer_capacity_stalls() {
    let cfg = CoreConfig {
        write_buffer_entries: 2,
        l1_hit_latency: 3,
    };
    let mut a = Asm::new();
    for i in 0..6u64 {
        a.movi(Reg::R1, i);
        a.store_abs(Reg::R1, 0x100 + i * 8);
    }
    a.halt();
    let mut core = Core::new(0, a.finish(), cfg, 1);
    let mut l1 = MockL1::missy(40);
    run(&mut core, &mut l1, 5000);
    assert!(core.stats().wb_full_stalls.get() > 0);
    assert_eq!(l1.mem[&0x128], 5, "all stores eventually landed");
}

#[test]
fn done_requires_drained_write_buffer() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(100);
    // Run a few cycles: thread halts quickly but the store is in flight.
    for t in 0..10 {
        l1.tick(Cycle::new(t));
        core.tick(Cycle::new(t), &mut l1);
    }
    assert!(core.thread().is_halted());
    assert!(!core.is_done(), "store still draining");
    run(&mut core, &mut l1, 1000);
}

#[test]
fn load_latency_recorded_for_misses() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(64);
    run(&mut core, &mut l1, 1000);
    assert_eq!(core.stats().load_latency.count(), 1);
    assert!(core.stats().load_latency.mean() >= 64.0);
}

#[test]
fn rand_delay_is_deterministic_per_seed() {
    let build = || {
        let mut a = Asm::new();
        a.rand_delay(100);
        a.rand_delay(100);
        a.halt();
        a.finish()
    };
    let mut c1 = Core::new(0, build(), CoreConfig::default(), 42);
    let mut c2 = Core::new(0, build(), CoreConfig::default(), 42);
    let mut l1a = MockL1::hit();
    let mut l1b = MockL1::hit();
    let t1 = run(&mut c1, &mut l1a, 10_000);
    let t2 = run(&mut c2, &mut l1b, 10_000);
    assert_eq!(t1, t2, "same seed, same timing");
}

#[test]
fn halted_core_stays_done() {
    let mut a = Asm::new();
    a.halt();
    let mut core = Core::new(3, a.finish(), CoreConfig::default(), 9);
    let mut l1 = MockL1::hit();
    run(&mut core, &mut l1, 100);
    assert!(core.is_done());
    assert_eq!(core.id(), 3);
    core.tick(Cycle::new(999), &mut l1);
    assert!(core.is_done());
}

#[test]
fn next_event_of_a_fresh_core_is_immediate() {
    let mut a = Asm::new();
    a.halt();
    let core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    assert_eq!(core.next_event(Cycle::new(5)), Cycle::new(5));
}

#[test]
fn next_event_of_a_done_core_is_never() {
    let mut a = Asm::new();
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::hit();
    run(&mut core, &mut l1, 100);
    assert_eq!(core.next_event(Cycle::new(50)), Cycle::MAX);
}

#[test]
fn next_event_while_blocked_on_load_is_never() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(500);
    // Tick until the load has been issued and the core is waiting.
    for t in 0..5 {
        let now = Cycle::new(t);
        l1.tick(now);
        core.tick(now, &mut l1);
    }
    assert!(!core.is_done());
    assert_eq!(
        core.next_event(Cycle::new(5)),
        Cycle::MAX,
        "a core blocked on an L1 miss has no self-driven wake"
    );
}

#[test]
fn next_event_with_buffered_store_is_immediate() {
    // A store parked in the write buffer is re-submitted every cycle,
    // so the core must not be skipped while the head is not in flight.
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x100);
    a.store_abs(Reg::R1, 0x140);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(500);
    for t in 0..4 {
        let now = Cycle::new(t);
        l1.tick(now);
        core.tick(now, &mut l1);
    }
    // One store is in flight at the L1 and one still sits in the
    // buffer; the buffered one submits as soon as the first completes,
    // which is message-driven — until then ticks are no-ops.
    assert!(!core.is_done());
    assert_eq!(core.next_event(Cycle::new(4)), Cycle::MAX);
}

/// Drives a core only at its `next_event()` wake-ups (plus the mock
/// L1's completion deadlines, standing in for the mesh wake), as the
/// event-driven stepper does. Returns the done cycle and the number of
/// ticks taken.
fn run_skipping(core: &mut Core, l1: &mut MockL1, max_cycles: u64) -> (u64, u64) {
    let mut ticked = 0u64;
    for t in 0..max_cycles {
        let now = Cycle::new(t);
        let wake = core.next_event(now).min(l1.next_event());
        if wake > now {
            continue;
        }
        l1.tick(now);
        core.tick(now, l1);
        ticked += 1;
        if core.is_done() {
            return (t, ticked);
        }
    }
    panic!("core did not finish in {max_cycles} cycles");
}

/// Runs `program` ticked every cycle and ticked only at wake-ups,
/// requires both to agree on every L1 submit (cycle and op), the done
/// cycle, the final registers and the statistics, and returns the
/// submit cycles with the done cycle.
fn timeline(program: Program, l1: MockL1) -> (Vec<(u64, CoreOp)>, u64) {
    let cfg = CoreConfig::default();
    let miss_latency = l1.miss_latency;
    let mut ref_core = Core::new(0, program.clone(), cfg, 7);
    let mut ref_l1 = l1;
    let done = run(&mut ref_core, &mut ref_l1, 100_000);

    let mut ev_core = Core::new(0, program, cfg, 7);
    let mut ev_l1 = MockL1::missy(miss_latency);
    let (done_ev, _) = run_skipping(&mut ev_core, &mut ev_l1, 100_000);
    assert_eq!(done_ev, done, "event-driven done cycle must match");
    assert_eq!(ev_l1.log, ref_l1.log, "event-driven submits must match");
    assert_eq!(ev_core.thread(), ref_core.thread());
    let (e, r) = (ev_core.stats(), ref_core.stats());
    assert_eq!(e.instructions.get(), r.instructions.get());
    assert_eq!(e.loads.get(), r.loads.get());
    assert_eq!(e.stores.get(), r.stores.get());
    assert_eq!(e.rmws.get(), r.rmws.get());
    assert_eq!(e.wb_full_stalls.get(), r.wb_full_stalls.get());
    (ref_l1.log, done)
}

fn load(addr: u64) -> CoreOp {
    CoreOp::Load(Addr::new(addr))
}

fn store(addr: u64, value: u64) -> CoreOp {
    CoreOp::Store(Addr::new(addr), value)
}

/// `n` register-only instructions: alternating `Movi`/`Alui`.
fn register_run(a: &mut Asm, n: u64) {
    for i in 0..n {
        if i % 2 == 0 {
            a.movi(Reg::R5, i);
        } else {
            a.addi(Reg::R5, Reg::R5, 1);
        }
    }
}

#[test]
fn register_run_then_load_issues_at_the_per_cycle_cycle() {
    let mut a = Asm::new();
    register_run(&mut a, 4);
    a.load_abs(Reg::R1, 0x100);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(log, vec![(4, load(0x100))]);
    assert_eq!(done, 8);
}

#[test]
fn register_run_then_store_issues_at_the_per_cycle_cycle() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 9);
    register_run(&mut a, 5);
    a.store_abs(Reg::R1, 0x100);
    register_run(&mut a, 3);
    a.store_abs(Reg::R1, 0x108);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(log, vec![(7, store(0x100, 9)), (11, store(0x108, 9))]);
    assert_eq!(done, 11);
}

#[test]
fn register_run_then_halt_finishes_at_the_per_cycle_cycle() {
    let mut a = Asm::new();
    register_run(&mut a, 6);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(log, vec![]);
    assert_eq!(done, 6);
}

#[test]
fn register_run_off_the_end_finishes_at_the_per_cycle_cycle() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x100);
    register_run(&mut a, 6);
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(log, vec![(0, load(0x100))]);
    assert_eq!(done, 10);
}

#[test]
fn delays_charge_at_least_one_cycle_plus_the_resume() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.delay(0);
    a.movi(Reg::R2, 2);
    a.load_abs(Reg::R3, 0x100);
    a.delay(5);
    a.movi(Reg::R2, 3);
    a.load_abs(Reg::R3, 0x108);
    a.delay(0);
    a.delay(5);
    a.store_abs(Reg::R2, 0x110);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(
        log,
        vec![(4, load(0x100)), (15, load(0x108)), (28, store(0x110, 3))]
    );
    assert_eq!(done, 28);
}

#[test]
fn rand_delays_charge_their_draw_like_a_delay() {
    let mut a = Asm::new();
    a.rand_delay(0);
    a.movi(Reg::R1, 1);
    a.load_abs(Reg::R3, 0x100);
    a.rand_delay(7);
    a.movi(Reg::R2, 3);
    a.load_abs(Reg::R3, 0x108);
    for _ in 0..4 {
        a.rand_delay(7);
    }
    a.store_abs(Reg::R2, 0x110);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(
        log,
        vec![(3, load(0x100)), (14, load(0x108)), (45, store(0x110, 3))]
    );
    assert_eq!(done, 45);
}

#[test]
fn load_hit_then_register_run_resumes_after_the_hit_latency() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x100);
    register_run(&mut a, 3);
    a.load_abs(Reg::R2, 0x108);
    a.load_abs(Reg::R3, 0x110);
    register_run(&mut a, 1);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(
        log,
        vec![(0, load(0x100)), (7, load(0x108)), (11, load(0x110))]
    );
    assert_eq!(done, 16);
}

#[test]
fn rmw_hit_then_register_run_resumes_after_the_hit_latency() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 2);
    a.fetch_add_abs(Reg::R2, 0x100, Reg::R1);
    register_run(&mut a, 3);
    a.swap_abs(Reg::R3, 0x100, Reg::R1);
    register_run(&mut a, 2);
    a.load_abs(Reg::R4, 0x100);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::hit());
    assert_eq!(
        log,
        vec![
            (
                2,
                CoreOp::Rmw(Addr::new(0x100), RmwOp::FetchAdd { operand: 2 })
            ),
            (
                10,
                CoreOp::Rmw(Addr::new(0x100), RmwOp::Swap { operand: 2 })
            ),
            (16, load(0x100)),
        ]
    );
    assert_eq!(done, 20);
}

#[test]
fn register_runs_around_misses_and_fences_keep_their_cycles() {
    // Stores in flight, a fence waiting on the drain and a load miss,
    // each followed by register code.
    let mut a = Asm::new();
    a.movi(Reg::R1, 4);
    a.store_abs(Reg::R1, 0x100);
    register_run(&mut a, 3);
    a.store_abs(Reg::R1, 0x140);
    register_run(&mut a, 2);
    a.fence();
    register_run(&mut a, 3);
    a.load_abs(Reg::R2, 0x180);
    register_run(&mut a, 4);
    a.load_abs(Reg::R3, 0x140);
    a.halt();
    let (log, done) = timeline(a.finish(), MockL1::missy(20));
    assert_eq!(
        log,
        vec![
            (2, store(0x100, 4)),
            (22, store(0x140, 4)),
            (42, CoreOp::Fence),
            (46, load(0x180)),
            (70, load(0x140)),
        ]
    );
    assert_eq!(done, 90);
}

#[test]
fn a_register_run_longer_than_the_tick_cap_keeps_its_cycles() {
    // A 1000-iteration countdown: 2001 register instructions.
    let mut a = Asm::new();
    a.movi(Reg::R1, 1000);
    let top = a.new_label();
    a.bind(top);
    a.subi(Reg::R1, Reg::R1, 1);
    a.bne(Reg::R1, Reg::R0, top);
    a.store_abs(Reg::R1, 0x100);
    a.load_abs(Reg::R2, 0x108);
    a.halt();
    let program = a.finish();
    let (log, done) = timeline(program.clone(), MockL1::hit());
    assert_eq!(log, vec![(2002, store(0x100, 0)), (2002, load(0x108))]);
    assert_eq!(done, 2006);
    // Woken once per capped run, not once per instruction.
    let mut core = Core::new(0, program, CoreConfig::default(), 7);
    let (_, ticked) = run_skipping(&mut core, &mut MockL1::hit(), 100_000);
    assert!(ticked <= 2001 / RUN_AHEAD_CAP as u64 + 4, "{ticked} ticks");
}

#[test]
fn skipping_to_next_event_matches_per_cycle_ticking() {
    // Drive two identical cores to completion, one ticked every cycle,
    // one ticked only at next_event() wake-ups (plus completion
    // cycles), and require identical timing and statistics.
    let memory_bound = || {
        let mut a = Asm::new();
        a.movi(Reg::R1, 3);
        a.store_abs(Reg::R1, 0x100);
        a.load_abs(Reg::R2, 0x180);
        a.delay(17);
        a.load_abs(Reg::R3, 0x100);
        a.halt();
        a.finish()
    };
    // Mostly register code: a counted loop of ALU work and delays with
    // a store and a load every eighth iteration.
    let register_bound = || {
        let mut a = Asm::new();
        a.movi(Reg::R1, 64);
        let top = a.new_label();
        let skip = a.new_label();
        a.bind(top);
        a.addi(Reg::R2, Reg::R2, 3);
        a.muli(Reg::R3, Reg::R2, 5);
        a.xori(Reg::R4, Reg::R3, 0x55);
        a.rand_delay(3);
        a.andi(Reg::R5, Reg::R1, 7);
        a.bne(Reg::R5, Reg::R0, skip);
        a.store_abs(Reg::R4, 0x100);
        a.load_abs(Reg::R6, 0x140);
        a.bind(skip);
        a.delay(2);
        a.subi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R0, top);
        a.halt();
        a.finish()
    };
    for build in [memory_bound, register_bound] {
        let mut ref_core = Core::new(0, build(), CoreConfig::default(), 7);
        let mut ref_l1 = MockL1::missy(40);
        let done_ref = run(&mut ref_core, &mut ref_l1, 100_000);

        let mut ev_core = Core::new(0, build(), CoreConfig::default(), 7);
        let mut ev_l1 = MockL1::missy(40);
        let (done_ev, ticked) = run_skipping(&mut ev_core, &mut ev_l1, 100_000);
        assert_eq!(done_ev, done_ref, "event-driven timing must match");
        assert!(ticked < done_ref, "some idle cycles must have been skipped");
        assert_eq!(ev_l1.log, ref_l1.log);
        assert_eq!(ev_core.thread(), ref_core.thread());
        assert_eq!(
            ev_core.stats().instructions.get(),
            ref_core.stats().instructions.get()
        );
        assert_eq!(ev_core.stats().loads.get(), ref_core.stats().loads.get());
    }
}
