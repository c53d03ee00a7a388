//! Campaign orchestrator: a content-addressed result cache and a
//! work-stealing job executor over the simulator's sweep, conformance,
//! and model-checking campaigns.
//!
//! Most campaign work between two commits is *unchanged* work: the same
//! sweep point under the same machine description produces the same
//! simulated metrics, yet the one-shot binaries recompute all of it.
//! This crate treats a simulation result as a persistent, cheaply
//! re-servable artifact instead:
//!
//! - [`jobs::JobSpec`] pins a unit of work's **canonical identity** —
//!   the resolved machine description, workload, scale, and derived
//!   seed, rendered as a stable string.
//! - [`cache::ResultCache`] stores one immutable JSON record per
//!   result, addressed by a 128-bit hash of that identity plus the
//!   [`fingerprint::code_fingerprint`] of every simulated-metric-
//!   affecting crate. Changed code misses; unchanged jobs are served
//!   (after byte-level validation) without re-simulating.
//! - [`executor::execute`] fans a job list out over scoped worker
//!   threads with work stealing: an idle worker refills from a shared
//!   injector deque and, when that runs dry, steals from the back of a
//!   sibling's queue, so one long 128-core point cannot strand the
//!   queue behind it. Results are keyed by job index and all seeds by
//!   job identity, so any worker count produces identical rows.
//! - [`manifest`] expands a declarative `tsocc-campaign-manifest/v1`
//!   document (sweep points, conformance program chunks, model-check
//!   families) into jobs.
//!
//! The `orchestrate` binary fronts all of it with `sweep`, `campaign`
//! and `status` subcommands; `conform_campaign`, `fault_campaign` and
//! `model_check` live in this crate too, so their `--cache-dir` flag
//! can route through the same store.

pub mod cache;
pub mod executor;
pub mod fingerprint;
pub mod hash;
pub mod jobs;
pub mod manifest;
pub mod source;

pub use cache::{cache_key, BinCache, CacheRecord, CacheStats, ResultCache};
pub use executor::{execute, ExecReport, JobRow};
pub use fingerprint::code_fingerprint;
pub use jobs::{canonical_config, JobOutcome, JobSpec};
pub use manifest::{parse_manifest, Manifest, DEFAULT_MANIFEST};
