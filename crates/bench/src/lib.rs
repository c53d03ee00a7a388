//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! The `figures` binary reproduces any table or figure via a
//! subcommand (`figures fig3`, `figures table1`, …, `figures all`; see
//! DESIGN.md §6) and takes `--cores`, `--scale`, `--seed` and `--jobs`
//! through the shared [`cli`] surface. `litmus` and `ablation` cover
//! the remaining entry points here; the committed sweep artifact
//! `BENCH_sweep.json` is written and drift-checked by `orchestrate
//! sweep` in `tsocc-orch`.
//!
//! [`pool::run_indexed`] is the one index-keyed fan-out: the sweep
//! engine ([`sweep::run_points`]) and the orchestrator's executor both
//! run through it. Every point derives its seed from its identity, so
//! serial and parallel runs produce identical results.

pub mod cli;
pub mod figures;
pub mod hang;
pub mod json;
pub mod pool;
pub mod sweep;

pub use sweep::{PointResult, Sweep, SweepOpts, SweepPoint};
