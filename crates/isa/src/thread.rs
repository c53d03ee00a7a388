//! Thread execution state and the CPU-facing stepping interface.

use crate::instr::{Instr, Reg, RmwOp};
use crate::program::Program;

/// A memory operation surfaced to the timing CPU model.
///
/// Addresses are byte addresses and must be 8-byte aligned; the
/// originating [`ThreadState::step`] validates this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    /// Read one 64-bit word; complete with
    /// [`ThreadState::complete_load`].
    Load {
        /// Byte address of the word.
        addr: u64,
    },
    /// Write one 64-bit word.
    Store {
        /// Byte address of the word.
        addr: u64,
        /// Value to write.
        value: u64,
    },
    /// Atomic read-modify-write; complete with
    /// [`ThreadState::complete_load`] (the old value).
    Rmw {
        /// Byte address of the word.
        addr: u64,
        /// The operation, with operands resolved.
        op: RmwOp,
    },
    /// Full fence: order all prior memory operations before all later
    /// ones (drains the write buffer; self-invalidates under TSO-CC).
    Fence,
}

impl MemOp {
    /// The address the operation touches, if any.
    pub fn addr(&self) -> Option<u64> {
        match self {
            MemOp::Load { addr } | MemOp::Store { addr, .. } | MemOp::Rmw { addr, .. } => {
                Some(*addr)
            }
            MemOp::Fence => None,
        }
    }
}

/// What happened when a thread stepped one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// An internal (register-only) instruction executed; charge one
    /// cycle and step again.
    Continue,
    /// The thread issued a memory operation; the CPU must perform it.
    /// For `Load`/`Rmw` the thread is blocked until
    /// [`ThreadState::complete_load`] is called.
    Mem(MemOp),
    /// The thread computes locally for this many cycles.
    Delay(u32),
    /// The thread wants a random delay of up to this many cycles; the
    /// CPU draws from its own deterministic PRNG.
    RandDelay(u32),
    /// The thread has halted (explicitly or by running off the end).
    Halted,
}

/// Architectural state of one software thread.
///
/// The stepping protocol: call [`ThreadState::step`]; if it returns
/// [`Effect::Mem`] with a `Load` or `Rmw`, the thread is *blocked* —
/// perform the access and call [`ThreadState::complete_load`] with the
/// loaded (old) value before stepping again. Stores and fences complete
/// immediately from the thread's point of view (the CPU models write
/// buffering and drain).
///
/// # Examples
///
/// ```
/// use tsocc_isa::{Asm, Effect, MemOp, Reg, ThreadState};
///
/// let mut a = Asm::new();
/// a.load_abs(Reg::R1, 0x40);
/// a.halt();
/// let p = a.finish();
///
/// let mut t = ThreadState::new();
/// match t.step(&p) {
///     Effect::Mem(MemOp::Load { addr }) => {
///         assert_eq!(addr, 0x40);
///         t.complete_load(1234);
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// assert_eq!(t.reg(Reg::R1), 1234);
/// assert_eq!(t.step(&p), Effect::Halted);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadState {
    regs: [u64; Reg::COUNT],
    pc: usize,
    halted: bool,
    /// Destination register of an in-flight load/RMW.
    pending_rd: Option<Reg>,
}

impl Default for ThreadState {
    fn default() -> Self {
        ThreadState::new()
    }
}

impl ThreadState {
    /// A fresh thread at pc 0 with all registers zero.
    pub fn new() -> Self {
        ThreadState {
            regs: [0; Reg::COUNT],
            pc: 0,
            halted: false,
            pending_rd: None,
        }
    }

    /// Reads a register (R0 reads as zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r == Reg::R0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to R0 are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if r != Reg::R0 {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the thread has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the thread is blocked on an outstanding load/RMW.
    pub fn is_blocked(&self) -> bool {
        self.pending_rd.is_some()
    }

    /// Delivers the value of the outstanding load/RMW and unblocks.
    ///
    /// # Panics
    ///
    /// Panics if no load/RMW is outstanding.
    pub fn complete_load(&mut self, value: u64) {
        let rd = self
            .pending_rd
            .take()
            .expect("complete_load without an outstanding load");
        self.set_reg(rd, value);
    }

    /// Whether the next [`ThreadState::step`] runs a register-only
    /// instruction (`Movi`, `Alu`, `Alui`, `Branch`, `Jump`, `Delay`,
    /// `RandDelay`): one that issues no memory operation and does not
    /// halt, so it changes nothing but the registers and the pc. False
    /// when halted, blocked on a load, or at the end of the program.
    pub fn next_is_local(&self, program: &Program) -> bool {
        !self.halted
            && self.pending_rd.is_none()
            && matches!(
                program.fetch(self.pc),
                Some(
                    Instr::Movi { .. }
                        | Instr::Alu { .. }
                        | Instr::Alui { .. }
                        | Instr::Branch { .. }
                        | Instr::Jump { .. }
                        | Instr::Delay { .. }
                        | Instr::RandDelay { .. }
                )
            )
    }

    /// Executes the instruction at the current pc.
    ///
    /// # Panics
    ///
    /// Panics if called while blocked on a load, or if a memory operand
    /// is not 8-byte aligned (a program bug).
    pub fn step(&mut self, program: &Program) -> Effect {
        assert!(
            self.pending_rd.is_none(),
            "step while blocked on a load at pc {}",
            self.pc
        );
        if self.halted {
            return Effect::Halted;
        }
        let Some(&instr) = program.fetch(self.pc) else {
            self.halted = true;
            return Effect::Halted;
        };
        match instr {
            Instr::Movi { rd, imm } => {
                self.set_reg(rd, imm);
                self.pc += 1;
                Effect::Continue
            }
            Instr::Alu { op, rd, ra, rb } => {
                let v = op.apply(self.reg(ra), self.reg(rb));
                self.set_reg(rd, v);
                self.pc += 1;
                Effect::Continue
            }
            Instr::Alui { op, rd, ra, imm } => {
                let v = op.apply(self.reg(ra), imm);
                self.set_reg(rd, v);
                self.pc += 1;
                Effect::Continue
            }
            Instr::Load { rd, base, offset } => {
                let addr = self.mem_addr(base, offset);
                self.pending_rd = Some(rd);
                self.pc += 1;
                Effect::Mem(MemOp::Load { addr })
            }
            Instr::Store { rs, base, offset } => {
                let addr = self.mem_addr(base, offset);
                let value = self.reg(rs);
                self.pc += 1;
                Effect::Mem(MemOp::Store { addr, value })
            }
            Instr::Cas {
                rd,
                base,
                offset,
                expected,
                new,
            } => {
                let addr = self.mem_addr(base, offset);
                let op = RmwOp::Cas {
                    expected: self.reg(expected),
                    new: self.reg(new),
                };
                self.pending_rd = Some(rd);
                self.pc += 1;
                Effect::Mem(MemOp::Rmw { addr, op })
            }
            Instr::FetchAdd {
                rd,
                base,
                offset,
                rs,
            } => {
                let addr = self.mem_addr(base, offset);
                let op = RmwOp::FetchAdd {
                    operand: self.reg(rs),
                };
                self.pending_rd = Some(rd);
                self.pc += 1;
                Effect::Mem(MemOp::Rmw { addr, op })
            }
            Instr::Swap {
                rd,
                base,
                offset,
                rs,
            } => {
                let addr = self.mem_addr(base, offset);
                let op = RmwOp::Swap {
                    operand: self.reg(rs),
                };
                self.pending_rd = Some(rd);
                self.pc += 1;
                Effect::Mem(MemOp::Rmw { addr, op })
            }
            Instr::Fence => {
                self.pc += 1;
                Effect::Mem(MemOp::Fence)
            }
            Instr::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                if cond.holds(self.reg(ra), self.reg(rb)) {
                    self.pc = target;
                } else {
                    self.pc += 1;
                }
                Effect::Continue
            }
            Instr::Jump { target } => {
                self.pc = target;
                Effect::Continue
            }
            Instr::Delay { cycles } => {
                self.pc += 1;
                Effect::Delay(cycles)
            }
            Instr::RandDelay { max } => {
                self.pc += 1;
                Effect::RandDelay(max)
            }
            Instr::Halt => {
                self.halted = true;
                Effect::Halted
            }
        }
    }

    fn mem_addr(&self, base: Reg, offset: u64) -> u64 {
        let addr = self.reg(base).wrapping_add(offset);
        assert!(
            addr.is_multiple_of(8),
            "unaligned memory operand 0x{addr:x} at pc {}",
            self.pc
        );
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn store_surfaces_value() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 55);
        a.store_abs(Reg::R1, 0x80);
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        assert_eq!(t.step(&p), Effect::Continue);
        match t.step(&p) {
            Effect::Mem(MemOp::Store { addr, value }) => {
                assert_eq!(addr, 0x80);
                assert_eq!(value, 55);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!t.is_blocked(), "stores do not block the thread");
    }

    #[test]
    fn rmw_blocks_until_completed() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 1);
        a.fetch_add(Reg::R2, Reg::R0, 0x40, Reg::R1);
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        t.step(&p);
        match t.step(&p) {
            Effect::Mem(MemOp::Rmw { addr, op }) => {
                assert_eq!(addr, 0x40);
                assert_eq!(op, RmwOp::FetchAdd { operand: 1 });
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.is_blocked());
        t.complete_load(10);
        assert_eq!(t.reg(Reg::R2), 10);
        assert!(!t.is_blocked());
    }

    #[test]
    #[should_panic]
    fn step_while_blocked_panics() {
        let mut a = Asm::new();
        a.load_abs(Reg::R1, 0x40);
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        t.step(&p);
        t.step(&p); // blocked: must panic
    }

    #[test]
    #[should_panic]
    fn unaligned_access_panics() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 0x41);
        a.load(Reg::R2, Reg::R1, 0);
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        t.step(&p);
        t.step(&p);
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 1);
        let p = a.finish();
        let mut t = ThreadState::new();
        assert_eq!(t.step(&p), Effect::Continue);
        assert_eq!(t.step(&p), Effect::Halted);
        assert!(t.is_halted());
        assert_eq!(t.step(&p), Effect::Halted, "halt is sticky");
    }

    #[test]
    fn delay_and_rand_delay_surface() {
        let mut a = Asm::new();
        a.delay(17);
        a.rand_delay(9);
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        assert_eq!(t.step(&p), Effect::Delay(17));
        assert_eq!(t.step(&p), Effect::RandDelay(9));
    }

    #[test]
    fn next_is_local_stops_at_memory_ops_halt_and_the_end() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 0x40);
        a.delay(3);
        a.load(Reg::R2, Reg::R1, 0);
        a.rand_delay(2);
        a.fence();
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        let mut local = Vec::new();
        while !t.is_halted() {
            local.push(t.next_is_local(&p));
            if let Effect::Mem(MemOp::Load { .. }) = t.step(&p) {
                assert!(!t.next_is_local(&p), "blocked on the load");
                t.complete_load(0);
            }
        }
        assert_eq!(local, [true, true, false, true, false, false]);
        assert!(!t.next_is_local(&p), "halted");

        let mut a = Asm::new();
        a.movi(Reg::R1, 1);
        let p = a.finish();
        let mut t = ThreadState::new();
        t.step(&p);
        assert!(!t.next_is_local(&p), "end of program");
    }

    #[test]
    fn fence_surfaces_as_memop() {
        let mut a = Asm::new();
        a.fence();
        a.halt();
        let p = a.finish();
        let mut t = ThreadState::new();
        assert_eq!(t.step(&p), Effect::Mem(MemOp::Fence));
        assert_eq!(MemOp::Fence.addr(), None);
    }
}
