//! # nsf-sim — the block-multithreaded processor simulator
//!
//! This is the reproduction of the paper's "flexible register file
//! simulator" (§7), extended into a full execution-driven model: it runs
//! real programs on the `nsf-isa` instruction set, against any register
//! file organization from `nsf-core`, over the `nsf-mem` hierarchy, with
//! `nsf-runtime` threads — and measures exactly the quantities the paper
//! reports:
//!
//! * register utilization (% of the file holding active data, Fig. 9);
//! * registers spilled/reloaded per instruction (Figs. 10, 12, 13);
//! * resident contexts (Fig. 11);
//! * spill/reload cycle overhead as a fraction of execution time (Fig. 14);
//! * instruction/context-switch profiles (Table 1).
//!
//! ## Model
//!
//! A single-issue processor with a cycle table calibrated to the Sparc-2
//! class emulator the paper took its timings from: ALU ops are 1 cycle,
//! memory ops pay the data-cache latency, procedure `call`/`ret` allocate
//! and free register contexts, and long-latency events (remote loads,
//! empty receives, unsatisfied joins) block the thread and switch to the
//! next ready one. Register-file misses stall the pipeline for the
//! reload/spill cycles reported by the organization's spill engine.
//!
//! Register spills travel through the **Ctable** into the **data cache**
//! (paper Figure 4): the backing store adapter translates
//! `<CID : offset>` to a virtual address and performs ordinary cached
//! memory accesses, so register traffic and data traffic contend for the
//! same cache — observable in the reported cache statistics.

pub mod backing;
pub mod config;
pub mod machine;
pub mod metrics;
pub mod pipeline;
pub mod probe;
pub mod spec;
pub mod trace;

pub use backing::{BackingMap, CtableBacking, LaneStore};
pub use config::{
    CycleTable, RegFileSpec, SimConfig, BACKING_STRIDE_WORDS, FRONTEND_FINGERPRINT_VERSION,
};
pub use machine::{Machine, SimError};
pub use metrics::{OccupancySummary, RunReport};
pub use pipeline::{reg_uses, Pipeline, RegUses};
pub use probe::{batchable_program, FrontendProbe, NoProbe};
pub use spec::{default_engine_spec, parse_engine, SpecError};
pub use trace::{TraceBuffer, TraceEntry};
