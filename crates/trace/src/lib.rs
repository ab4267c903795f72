//! # nsf-trace — register-event capture, compact traces, and replay
//!
//! The paper's evaluation is a function of the register-file *operation
//! stream*: every access by `<Cid:offset>`, every context switch, every
//! deallocation hint (plus the program's data-cache traffic that spills
//! contend with — paper Fig. 4). This crate captures that stream from a
//! live run, stores it in a compact versioned binary format, and
//! replays it into any register file organization — so the design space
//! (Figs. 11–13) can be swept without re-executing compiler, runtime
//! and scheduler for every configuration.
//!
//! Four layers:
//!
//! - **Framing** ([`frame`]): the one record framing under every
//!   on-disk format of the workspace — `.nsftrace`, `.nsfs` store
//!   entries, and the explorer's `.nsfx` ledger and `.nsfm` memo. It
//!   owns the FNV-1a-64 checksum, the LEB128 varint codec, the
//!   `magic | version` header check, the sealed-blob and
//!   checksummed-record-log layouts with their typed [`FrameError`]s,
//!   and the atomic-save and torn-tail-truncation file helpers.
//! - **Capture** ([`TraceRecorder`], [`capture`]): a
//!   [`nsf_sim::FrontendProbe`] on the simulator's run, the same hook
//!   the frontend cache ([`fcache`]) records through. Any engine under
//!   any workload records without the workload knowing, and the run
//!   keeps its engine-specialized loop.
//! - **Format** ([`Trace`], [`TraceWriter`], [`TraceReader`]): the
//!   `.nsftrace` encoding — magic + version header, varint fields,
//!   delta-encoded cycles, event-count + checksum trailer; corrupt
//!   input yields typed [`TraceError`]s, never panics. The frontend
//!   cache ([`fcache`]) and its persistent store ([`store`]) encode
//!   through the same varint layer.
//! - **Replay** ([`replay()`], [`diff`]): drives a stored stream into a
//!   fresh engine behind the simulator's own Ctable-over-data-cache
//!   backing store. Same-engine replay reproduces the live run's
//!   [`nsf_core::RegFileStats`] bit for bit (pinned by the golden corpus
//!   in `tests/golden/` and a property test across all organizations);
//!   cross-engine replay and [`diff`] answer "what would this stream
//!   have cost on that file?".
//!
//! The `trace_tool` binary in `nsf-bench` fronts all of this on the
//! command line (`record`, `info`, `replay`, `diff`).

pub mod event;
pub mod fcache;
pub mod format;
pub mod frame;
pub mod recorder;
pub mod replay;
pub mod store;
/// The engine-spec grammar, re-exported from its shared home in
/// `nsf-sim` (`nsf_sim::spec`) — trace headers store these strings, so
/// the historical `nsf_trace::spec` path keeps working.
pub use nsf_sim::spec;

pub use event::{RegEvent, TimedEvent};
pub use fcache::{capture_frontend, capture_rejection, replay_frontend, FrontendBuffer};
pub use format::{Trace, TraceError, TraceMeta, TraceReader, TraceWriter, FORMAT_VERSION, MAGIC};
pub use frame::{FrameError, VarReader, VarWriter};
pub use recorder::TraceRecorder;
pub use replay::{diff, replay, replay_events, DiffReport, Divergence, ReplayReport, StatDelta};
pub use spec::{default_engine_spec, parse_engine, SpecError};
pub use store::{
    decode_stream, encode_stream, stream_fingerprint, validate_stream_bytes, StoreError,
    StreamStore, STORE_MAGIC, STORE_VERSION,
};

use nsf_sim::{RunReport, SimConfig};
use nsf_workloads::{Workload, WorkloadError};

/// Runs `workload` under `cfg` with recording on, returning the trace
/// and the live run's report.
///
/// `engine_spec` and `scale` are stored in the trace header (the spec
/// should describe `cfg.regfile`, e.g. from [`parse_engine`]'s input).
/// The report is identical to an unrecorded [`nsf_workloads::run`] —
/// recording is observational — so `report.regfile` is the ground truth
/// a same-engine [`replay()`] must reproduce exactly.
pub fn capture(
    workload: &Workload,
    cfg: SimConfig,
    engine_spec: &str,
    scale: u32,
) -> Result<(Trace, RunReport), WorkloadError> {
    let mut rec = TraceRecorder::new();
    let report = nsf_workloads::run_probed(workload, cfg, &mut rec)?;
    let trace = Trace {
        meta: TraceMeta {
            workload: workload.name.to_string(),
            engine: engine_spec.to_string(),
            scale,
            instructions: report.instructions,
            cycles: report.cycles,
            context_switches: report.context_switches,
        },
        events: rec.take_events(),
    };
    Ok((trace, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_sim::RegFileSpec;

    #[test]
    fn capture_replay_roundtrip_matches_live_stats() {
        // The end-to-end contract on one real benchmark: capture a run,
        // serialize, deserialize, replay through the same organization,
        // and get the live run's statistics bit for bit.
        let workload = nsf_workloads::gatesim::build(0);
        let spec = default_engine_spec(workload.parallel);
        let cfg = SimConfig::with_regfile(parse_engine(spec).unwrap());
        let (trace, report) = capture(&workload, cfg, spec, 0).unwrap();
        assert!(!trace.events.is_empty());
        assert_eq!(trace.meta.workload, "GateSim");
        assert_eq!(trace.meta.instructions, report.instructions);

        let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back, trace);
        let replayed = replay(&back, &cfg).unwrap();
        assert_eq!(replayed.stats, report.regfile, "replay must be exact");
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let workload = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
        let live = nsf_workloads::run(&workload, cfg).unwrap();
        let (_, recorded) = capture(&workload, cfg, "nsf:80", 0).unwrap();
        assert_eq!(recorded.instructions, live.instructions);
        assert_eq!(recorded.cycles, live.cycles);
        assert_eq!(recorded.regfile, live.regfile);
    }
}
