//! # nsf-trace — one frontend stream: capture, store, trace and replay
//!
//! The paper's evaluation is a function of the register-file *operation
//! stream*: every access by `<Cid:offset>`, every context switch, every
//! deallocation hint (plus the program's data-cache traffic that spills
//! contend with — paper Fig. 4). This crate records that stream from a
//! live run once, in one encoding, and replays it into any register
//! file organization through one tile loop — so the design space
//! (Figs. 11–13) can be swept without re-executing compiler, runtime
//! and scheduler for every configuration.
//!
//! Three layers:
//!
//! - **Framing** ([`frame`]): the one record framing under every
//!   on-disk format of the workspace — `.nsftrace`, `.nsfs` store
//!   entries, and the explorer's `.nsfx` ledger and `.nsfm` memo. It
//!   owns the checksums (a word-parallel one for sealed blobs,
//!   FNV-1a-64 for records and keys), the LEB128 varint codec, the
//!   `magic | version` header check, the sealed-blob and
//!   checksummed-record-log layouts with their typed [`FrameError`]s,
//!   the chunked stream buffer (`ChunkedBytes`, 64 KiB chunks, so no
//!   allocation is sized by a stream or a file), and the atomic-save,
//!   chunked sealed-read and torn-tail-truncation file helpers.
//! - **Stream** ([`fcache`], [`store`], [`Trace`]): a
//!   [`nsf_sim::FrontendProbe`] on the simulator's run encodes every
//!   register, memory and context operation with the live values it
//!   produced. The sweep keeps the stream in memory, feeding the
//!   rest of its group as it records ([`capture_group`]), or persists
//!   it as a `.nsfs` entry
//!   ([`store`]); [`capture`] keeps it with the workload's staged memory
//!   and the run's report as a `.nsftrace` file ([`mod@format`]), for any
//!   program. Both files are one sealed stream container with one
//!   encoder, which never copies the stream, and one decoder, which
//!   reads a file or a slice a chunk at a time.
//! - **Replay** ([`replay_frontend`], [`replay()`], [`diff`]): the
//!   stream is decoded one tile at a time and every lane runs a tile
//!   behind the simulator's own Ctable-over-data-cache backing store,
//!   checking every recorded value. The sweep replays with the
//!   workload's output check and gets each point's full report; a trace
//!   replays stats-only. Same-engine replay reproduces the live run's
//!   [`nsf_core::RegFileStats`] bit for bit (pinned by the golden corpus
//!   in `tests/golden/` and a property test across all organizations);
//!   cross-engine replay and [`diff`] answer "what would this stream
//!   have cost on that file?".
//!
//! The `trace_tool` binary in `nsf-bench` fronts the trace files on the
//! command line (`record`, `info`, `replay`, `diff`).

pub mod fcache;
pub mod format;
pub mod frame;
pub mod replay;
pub mod store;

pub use fcache::{
    capture_frontend, capture_group, capture_rejection, replay_frontend, FrontendBuffer,
    GroupCapture, TraceStream,
};
pub use format::{Trace, TraceError, TraceMeta, FORMAT_VERSION, MAGIC};
pub use frame::{FrameError, VarReader, VarWriter};
pub use nsf_sim::spec::{default_engine_spec, parse_engine, SpecError};
pub use replay::{diff, replay, replay_events, DiffReport, Divergence, ReplayReport, StatDelta};
pub use store::{
    decode_stream, encode_stream, stream_fingerprint, validate_stream_bytes, validate_stream_file,
    StoreError, StreamStore, STORE_MAGIC, STORE_VERSION,
};

use fcache::FrontendRecorder;
use nsf_sim::{RunReport, SimConfig};
use nsf_workloads::{Workload, WorkloadError};

/// Runs `workload` under `cfg` with recording on, returning the trace
/// and the live run's report.
///
/// Any program records, parallel ones included: the trace holds the
/// run's interleaving as it happened. (What the sweep may cache is a
/// separate rule, [`capture_rejection`].) `engine_spec` and `scale` are
/// stored in the trace header (the spec should describe `cfg.regfile`,
/// e.g. from [`parse_engine`]'s input). The report is identical to an
/// unrecorded [`nsf_workloads::run`] — recording is observational — so
/// `report.regfile` is the ground truth a same-engine [`replay()`] must
/// reproduce exactly.
pub fn capture(
    workload: &Workload,
    cfg: SimConfig,
    engine_spec: &str,
    scale: u32,
) -> Result<(Trace, RunReport), WorkloadError> {
    let (rec, report) = FrontendRecorder::record(workload, cfg, &[])?;
    let trace = Trace {
        meta: TraceMeta {
            workload: workload.name.to_string(),
            engine: engine_spec.to_string(),
            scale,
            instructions: report.instructions,
            cycles: report.cycles,
            context_switches: report.context_switches,
        },
        events: rec.into_stream(workload.mem_init.clone()),
        report: report.clone(),
    };
    Ok((trace, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_sim::RegFileSpec;

    #[test]
    fn recording_does_not_perturb_the_run() {
        let workload = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
        let live = nsf_workloads::run(&workload, cfg).unwrap();
        let (trace, recorded) = capture(&workload, cfg, "nsf:80", 0).unwrap();
        assert_eq!(recorded, live);
        assert_eq!(trace.report, live);
        assert_eq!(trace.meta.instructions, live.instructions);
        assert_eq!(trace.events.mem_init, workload.mem_init);
    }
}
