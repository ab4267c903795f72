//! # nsf-core — the Named-State Register File and its rivals
//!
//! This crate is the paper's primary contribution, reproduced as a library:
//! register file *organizations* that a processor model plugs in behind a
//! common interface.
//!
//! ## The Named-State Register File (NSF)
//!
//! [`NamedStateFile`] is a **fully associative** register file with very
//! small lines (1–4 registers). A register is named by a
//! `<Context ID : offset>` pair ([`RegAddr`]); a content-addressable decoder
//! ([`cam::AssocDecoder`]) binds names to physical lines at run time:
//!
//! * the **first write** to a register allocates its line (write-allocate);
//! * a **read miss** reloads the register from its backing store on demand;
//! * when the file is full, a victim line is **spilled lazily** (LRU by
//!   default), writing back only dirty registers;
//! * **context switches cost nothing** — the new thread simply starts
//!   issuing and faults its registers in as it touches them.
//!
//! ## Baselines
//!
//! [`SegmentedFile`] models the multithreaded register files of HEP,
//! Sparcle, MASA and friends (paper §3.1): the file is statically divided
//! into frames, one thread per frame; switching to a non-resident thread
//! spills a whole victim frame and reloads the incoming one, using either a
//! hardware spill engine or Sparcle-style software trap handlers
//! ([`SpillEngine`]). The paper's "conventional processor", whose every
//! context switch moves the whole register set through memory, is the
//! degenerate one-frame case: a [`SegmentedFile`] with one frame and
//! full-frame transfers, which names itself `Conventional`.
//! [`WindowedFile`] models the SPARC register windows that the
//! paper's related work (Keppel, Hidaka) tried to multithread — strict
//! stack-ordered windows with trap-driven overflow/underflow and a full
//! flush on thread switches. [`OracleFile`] is an infinite, never-spilling
//! file used as a functional reference in differential tests.
//!
//! All organizations implement [`RegisterFile`] and report uniform
//! [`RegFileStats`], from which every figure of the paper's evaluation is
//! derived.

pub mod addr;
pub mod cam;
pub mod dispatch;
pub mod nsf;
pub mod oracle;
pub mod policy;
pub mod replacement;
pub mod segmented;
pub mod stats;
pub mod store;
pub mod traits;
pub mod windowed;

pub use addr::{Cid, RegAddr};
pub use dispatch::{EngineDispatch, LaneOp, LaneStep};
pub use nsf::{NamedStateFile, NsfConfig};
pub use oracle::OracleFile;
pub use policy::{ReloadPolicy, ReplacementPolicy, SpillEngine, WriteMissPolicy};
pub use segmented::{SegmentedConfig, SegmentedFile};
pub use stats::{Occupancy, RegFileStats};
pub use store::{FaultPlan, FaultyStore, MapStore};
pub use traits::{Access, BackingStore, RegFileError, RegisterFile, StoreFault};
pub use windowed::{WindowedConfig, WindowedFile};

/// Machine word, shared with the memory hierarchy.
pub type Word = nsf_mem::Word;
