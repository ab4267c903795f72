//! # nsf-explore — resumable design-space exploration with online
//! # Pareto pruning
//!
//! The paper's figures sweep one axis at a time (file size in Fig. 12,
//! line size in Fig. 13) with everything else pinned. This crate walks
//! the *cross-product* — engine family × total registers × line size ×
//! context count × data-cache geometry × workload mix — and reports
//! which organizations survive four-way Pareto dominance over
//! {reloads/instruction, register utilization, `nsf-vlsi` silicon
//! area, `nsf-vlsi` access time}: the traffic-vs-implementation
//! trade-off of paper §6–§7 as one queryable surface.
//!
//! The exploration is built to run long and die often:
//!
//! - **Declarative spec** ([`ExploreSpec`]) — value lists per axis,
//!   crossed into a canonically ordered, densely indexed point list.
//!   Engines are named in the shared spec grammar ([`nsf_sim::spec`])
//!   and materialized by its parser.
//! - **Deterministic shards** ([`Explorer::shard_index`]) — points are
//!   partitioned round-robin by index, so `--shard i/N` runs anywhere
//!   and [`merge_ledgers`] reassembles the exact single-run result.
//! - **Checkpointed ledger** ([`ledger`]) — every evaluated point is
//!   appended as a checksummed varint record (a record log of
//!   [`nsf_trace::frame`], as is the result memo, [`memo`]); on restart the explorer replays the ledger, truncates a
//!   half-written tail, and continues after the last intact record. An
//!   interrupted-then-resumed run produces a **byte-identical** ledger
//!   and front to an uninterrupted one (pinned by `tests/resume.rs`).
//! - **Online pruning** ([`pareto`]) — fronts are maintained per
//!   workload and are insertion-order-invariant, so shard merge order
//!   cannot leak into results.
//!
//! Execution rides [`nsf_bench::Sweep::run_stored`]: points are
//! enumerated workload-major so each (workload, cache) cell's engine
//! points share one frontend event-stream capture.

pub mod cost;
pub mod driver;
pub mod ledger;
pub mod memo;
pub mod pareto;
pub mod spec;

pub use cost::{array_of, implementation_cost, point_cost, SWEEP_CID_BITS};
pub use driver::{
    build_fronts, merge_ledgers, render_front, ExploreError, ExploreOutcome, Explorer,
    DEFAULT_CHUNK,
};
pub use ledger::{LedgerError, LedgerHeader, LedgerRecord, ParsedLedger};
pub use memo::{memo_key, parse_memo, MemoRecord, ParsedMemo, MEMO_MAGIC, MEMO_VERSION};
pub use pareto::{CostPoint, ParetoFront, PointCost};
pub use spec::{shard_of, workload_builder, CacheGeom, ExploreSpec, Family, Point, WORKLOADS};
