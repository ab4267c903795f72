//! Cross-engine differential checking with deterministic fault
//! injection.
//!
//! Every register-file organization in this reproduction implements the
//! same [`nsf_core::RegisterFile`] contract, and the paper's comparisons
//! are only meaningful if they all *mean the same thing* by it. This
//! crate checks that mechanically:
//!
//! 1. [`stream`] generates seeded operation streams — multi-thread call
//!    chains, capacity pressure, undefined reads, explicit deallocation —
//!    that are legal for every organization at once, plus the validator
//!    the shrinker uses to keep reductions legal.
//! 2. [`lanes`] names the engine configurations under test, grouped into
//!    families, including *twin* pairs that must match traffic counters
//!    exactly.
//! 3. [`run`] executes the lanes in lockstep against the architectural
//!    oracle, under a seeded [`nsf_core::FaultPlan`], demanding value
//!    agreement, statistics invariants, fault recovery, and a clean
//!    drain.
//! 4. [`shrink()`] reduces a divergent stream to a minimal disciplined
//!    repro, and [`repro`] round-trips it through `.nsftrace` so it can
//!    be checked in as a regression test and replayed by `check_tool`.
//!
//! Everything is a pure function of the seed: fuzzing here is
//! deterministic replay, and none of it ever enters a results path (see
//! EXPERIMENTS.md).

pub mod lanes;
pub mod repro;
pub mod run;
pub mod shrink;
pub mod stream;

pub use lanes::{build_lane, Family};
pub use repro::Repro;
pub use run::{
    check_family, check_lane, check_seed, fault_plan_for_seed, oracle_outcomes, Divergence,
    DivergenceKind, LaneReport, Outcome,
};
pub use shrink::shrink;
pub use stream::{generate, is_valid_stream, SplitMix64, StreamConfig};
