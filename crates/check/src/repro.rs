//! Checked-in reproduction files.
//!
//! A shrunk divergent stream is exported as an ordinary `.nsftrace`
//! file, so the existing tooling (`trace_tool info`, the replay engine)
//! can open it. The stream holds the register operations only, with no
//! staged memory, and each read carries the oracle's value (0 where the
//! oracle's read is undefined). The checker-specific context rides in
//! the header:
//!
//! * `meta.workload` is `check:<family>` — which lane set to replay;
//! * `meta.engine` encodes the armed [`FaultPlan`] (`none`,
//!   `nth-spill:N`, `nth-reload:N`, `ctx:CID:N`).
//!
//! Reading a repro decodes its ops back through the stream's tile
//! decoder, and replay re-runs [`crate::run::check_family`] on them: a
//! repro "passes" when the family no longer diverges, which is exactly
//! the regression contract `crates/check/tests` pins.

use crate::lanes::Family;
use crate::run::{oracle_outcomes, Outcome};
use nsf_core::{FaultPlan, LaneOp};
use nsf_trace::{Trace, TraceMeta, TraceStream};
use std::path::Path;

/// Encodes a fault plan into the compact header string.
pub fn encode_plan(plan: FaultPlan) -> String {
    match plan {
        FaultPlan::Never => "none".to_string(),
        FaultPlan::NthSpill(n) => format!("nth-spill:{n}"),
        FaultPlan::NthReload(n) => format!("nth-reload:{n}"),
        FaultPlan::NthForContext(cid, n) => format!("ctx:{cid}:{n}"),
        // Persistent plans are never used by the checker (the retry
        // protocol requires healing); refuse to encode one silently.
        FaultPlan::AfterOps(_) => panic!("AfterOps plans are not repro-encodable"),
    }
}

/// Decodes [`encode_plan`]'s output.
pub fn decode_plan(s: &str) -> Option<FaultPlan> {
    if s == "none" {
        return Some(FaultPlan::Never);
    }
    if let Some(n) = s.strip_prefix("nth-spill:") {
        return n.parse().ok().map(FaultPlan::NthSpill);
    }
    if let Some(n) = s.strip_prefix("nth-reload:") {
        return n.parse().ok().map(FaultPlan::NthReload);
    }
    if let Some(rest) = s.strip_prefix("ctx:") {
        let (cid, n) = rest.split_once(':')?;
        return Some(FaultPlan::NthForContext(cid.parse().ok()?, n.parse().ok()?));
    }
    None
}

/// A decoded reproduction: the family to check and the stream + plan
/// that exposed the divergence.
#[derive(Debug)]
pub struct Repro {
    /// Which lane set diverged.
    pub family: Family,
    /// The armed fault plan.
    pub plan: FaultPlan,
    /// The (usually shrunk) operation stream.
    pub ops: Vec<LaneOp>,
}

impl Repro {
    /// Packs the repro into a `.nsftrace` image.
    pub fn to_trace(&self) -> Trace {
        let switches = self
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    LaneOp::SwitchTo(_) | LaneOp::CallPush(_) | LaneOp::ThreadSwitch(_)
                )
            })
            .count() as u64;
        let values = oracle_outcomes(&self.ops).into_iter().map(|out| match out {
            Outcome::Value(v) => v,
            _ => 0,
        });
        let events = TraceStream::from_reg_ops(
            self.ops
                .iter()
                .zip(values)
                .map(|(&op, v)| (op, matches!(op, LaneOp::Read(_)).then_some(v))),
        );
        Trace {
            meta: TraceMeta {
                workload: format!("check:{}", self.family),
                engine: encode_plan(self.plan),
                scale: 0,
                instructions: self.ops.len() as u64,
                cycles: 0,
                context_switches: switches,
            },
            events,
            report: Default::default(),
        }
    }

    /// Unpacks a trace written by [`Repro::to_trace`]. `None` when the
    /// header is not a checker repro (wrong workload tag or plan spec) or
    /// the stream holds anything but decodable register operations.
    pub fn from_trace(trace: &Trace) -> Option<Repro> {
        let family = Family::from_name(trace.meta.workload.strip_prefix("check:")?)?;
        let plan = decode_plan(&trace.meta.engine)?;
        let ops = trace.events.lane_ops().ok()?;
        (ops.len() == trace.events.len()).then_some(Repro { family, plan, ops })
    }

    /// Writes the repro to `path` as a `.nsftrace` file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), String> {
        self.to_trace()
            .write_file(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))
    }

    /// Reads a repro back from `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Repro, String> {
        let path = path.as_ref();
        let trace = Trace::read_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Repro::from_trace(&trace).ok_or_else(|| {
            format!(
                "{}: not a checker repro (workload/engine header)",
                path.display()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{generate, StreamConfig};

    #[test]
    fn plans_round_trip_through_the_header_encoding() {
        for plan in [
            FaultPlan::Never,
            FaultPlan::NthSpill(3),
            FaultPlan::NthReload(17),
            FaultPlan::NthForContext(5, 2),
        ] {
            assert_eq!(decode_plan(&encode_plan(plan)), Some(plan), "{plan:?}");
        }
        assert_eq!(decode_plan("nth-spill:x"), None);
        assert_eq!(decode_plan("ctx:1"), None);
        assert_eq!(decode_plan(""), None);
    }

    #[test]
    fn repros_round_trip_through_nsftrace_bytes() {
        let ops = generate(&StreamConfig::default(), 9);
        let repro = Repro {
            family: Family::Windowed,
            plan: FaultPlan::NthReload(4),
            ops: ops.clone(),
        };
        let bytes = repro.to_trace().to_bytes();
        let back = Repro::from_trace(&Trace::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.family, Family::Windowed);
        assert_eq!(back.plan, FaultPlan::NthReload(4));
        assert_eq!(back.ops, ops);
    }

    #[test]
    fn foreign_traces_are_rejected() {
        let trace = Trace {
            meta: TraceMeta {
                workload: "GateSim".into(),
                engine: "nsf:80".into(),
                scale: 1,
                instructions: 0,
                cycles: 0,
                context_switches: 0,
            },
            ..Trace::default()
        };
        assert!(Repro::from_trace(&trace).is_none());
    }
}
