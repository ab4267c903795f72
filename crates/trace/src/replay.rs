//! Stats-only replay of a recorded `.nsftrace` stream: the sweep's tile
//! loop ([`crate::fcache`]) driven from a [`TraceStream`] instead of a
//! workload, so a recorded stream can be re-swept over other register
//! file organizations.
//!
//! A trace carries no workload, so this mode runs no output check. It
//! stages the trace's recorded memory in every lane and keeps every
//! value check: each read, load and atomic must return what the
//! recording saw, or the replay stops with [`SimError::LaneDivergence`].
//! Engines come from the one buildability check
//! ([`nsf_sim::RegFileSpec::build`]), and spills, reloads and context
//! operations go through the live machine's own Ctable-over-data-cache
//! backing store.
//!
//! Replaying a trace through the organization that recorded it yields
//! the live run's [`RegFileStats`] bit for bit. Through another
//! organization it answers "what would this op stream have cost on that
//! file?". For a parallel program that is the recorded interleaving's
//! cost: a live run under another engine could schedule its threads
//! differently. [`diff`] runs two organizations in lockstep and reports
//! where they first disagree.
//!
//! [`SimError::LaneDivergence`]: nsf_sim::SimError::LaneDivergence

use crate::fcache::{for_each_tile, ReplaySet, TraceStream};
use crate::format::{Trace, TraceError};
use nsf_core::{LaneOp, RegFileStats, RegisterFile};
use nsf_sim::SimConfig;

/// Outcome of replaying one trace through one organization.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The organization's self-description.
    pub regfile_desc: String,
    /// Statistics the organization accumulated — for a same-engine
    /// replay, bit-identical to the live run's.
    pub stats: RegFileStats,
    /// Events replayed.
    pub events: u64,
}

/// A replay set with one lane per configuration and the stream's staged
/// memory in every lane.
fn staged(stream: &TraceStream, cfgs: &[SimConfig]) -> Result<ReplaySet, TraceError> {
    let mut set = ReplaySet::new(cfgs)?;
    set.poke_blocks(&stream.mem_init);
    Ok(set)
}

fn lane_report(set: &ReplaySet, lane: usize, events: u64) -> ReplayReport {
    ReplayReport {
        regfile_desc: set.regfiles[lane].describe(),
        stats: *set.regfiles[lane].stats(),
        events,
    }
}

/// Replays a decoded trace through the organization in `cfg`.
pub fn replay(trace: &Trace, cfg: &SimConfig) -> Result<ReplayReport, TraceError> {
    replay_events(&trace.events, cfg)
}

/// Replays a recorded stream through the organization in `cfg`
/// (`cfg.regfile`, `cfg.mem` and `cfg.backing_base` are used; the rest
/// of the simulator configuration does not affect engine-facing
/// behavior), one tile at a time.
pub fn replay_events(stream: &TraceStream, cfg: &SimConfig) -> Result<ReplayReport, TraceError> {
    let mut set = staged(stream, std::slice::from_ref(cfg))?;
    set.run(&stream.bytes, stream.events)?;
    Ok(lane_report(&set, 0, stream.events))
}

/// The first register-file operation on which two organizations
/// disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the event in the stream.
    pub index: u64,
    /// The operation itself.
    pub op: LaneOp,
    /// Human-readable "A did X, B did Y".
    pub detail: String,
}

/// One statistic that differed after a full dual replay.
#[derive(Clone, Copy, Debug)]
pub struct StatDelta {
    /// Field name in [`RegFileStats`].
    pub name: &'static str,
    /// Engine A's value.
    pub a: u64,
    /// Engine B's value.
    pub b: u64,
}

impl StatDelta {
    /// `b - a` as a signed difference.
    pub fn delta(&self) -> i64 {
        self.b as i64 - self.a as i64
    }
}

/// Outcome of replaying one trace through two organizations in lockstep.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Engine A's replay result.
    pub a: ReplayReport,
    /// Engine B's replay result.
    pub b: ReplayReport,
    /// First per-operation disagreement, if any (engines can diverge
    /// per-op yet still agree on aggregate statistics, and vice versa).
    pub first_divergence: Option<Divergence>,
    /// Statistics that differ after the full replay (only nonzero
    /// deltas; empty when the engines agree exactly).
    pub deltas: Vec<StatDelta>,
}

impl DiffReport {
    /// `true` when the engines agreed on every operation and every
    /// statistic.
    pub fn identical(&self) -> bool {
        self.first_divergence.is_none() && self.deltas.is_empty()
    }
}

/// Replays `trace` through two organizations in lockstep, one event at
/// a time, reporting the first register-file operation whose stall
/// cycles differ, plus every aggregate statistic that ends up different.
/// Values need no comparison between the two: each lane's reads, loads
/// and atomics are checked against the recording itself, and a mismatch
/// is an error.
pub fn diff(trace: &Trace, cfg_a: &SimConfig, cfg_b: &SimConfig) -> Result<DiffReport, TraceError> {
    let stream = &trace.events;
    let mut set = staged(stream, &[*cfg_a, *cfg_b])?;
    let ctable_slots = set.ctable_slots;
    let mut first_divergence = None;
    let mut index = 0u64;
    for_each_tile(&stream.bytes, stream.events, ctable_slots, |tile| {
        for op in tile {
            let mut stalls = [0u64; 2];
            for (lane, stall) in stalls.iter_mut().enumerate() {
                let before = set.clocks[lane];
                set.run_lane(lane, std::slice::from_ref(op))
                    .map_err(|(_, e)| e)?;
                *stall = set.clocks[lane] - before;
            }
            if first_divergence.is_none() && stalls[0] != stalls[1] {
                first_divergence = op.lane_op().map(|op| Divergence {
                    index,
                    op,
                    detail: format!(
                        "A: {} stall cycles; B: {} stall cycles",
                        stalls[0], stalls[1]
                    ),
                });
            }
            index += 1;
        }
        Ok(())
    })?;
    let (a, b) = (
        lane_report(&set, 0, stream.events),
        lane_report(&set, 1, stream.events),
    );
    let deltas = stat_deltas(&a.stats, &b.stats);
    Ok(DiffReport {
        a,
        b,
        first_divergence,
        deltas,
    })
}

/// All [`RegFileStats`] fields whose values differ between `a` and `b`,
/// in declaration order.
pub fn stat_deltas(a: &RegFileStats, b: &RegFileStats) -> Vec<StatDelta> {
    a.fields()
        .into_iter()
        .zip(b.fields())
        .filter(|&((_, va), (_, vb))| va != vb)
        .map(|((name, a), (_, b))| StatDelta { name, a, b })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::{RegAddr, RegFileError, Word};
    use nsf_sim::{RegFileSpec, SimError};

    fn trace(ops: Vec<(LaneOp, Option<Word>)>) -> Trace {
        Trace {
            events: TraceStream::from_reg_ops(ops),
            ..Trace::default()
        }
    }

    /// A tiny hand-written stream: two contexts ping-ponging with more
    /// live registers than a small NSF can hold, forcing spill traffic.
    fn tiny_trace() -> Trace {
        let reg = RegAddr::new;
        let mut ops = vec![(LaneOp::ThreadSwitch(0), None)];
        ops.extend((0..6).map(|off| (LaneOp::Write(reg(0, off), u32::from(off) + 100), None)));
        ops.push((LaneOp::CallPush(1), None));
        ops.extend((0..6).map(|off| (LaneOp::Write(reg(1, off), u32::from(off) + 200), None)));
        ops.push((LaneOp::SwitchTo(0), None));
        ops.extend((0..6).map(|off| (LaneOp::Read(reg(0, off)), Some(u32::from(off) + 100))));
        ops.push((LaneOp::FreeContext(1), None));
        ops.push((LaneOp::FreeReg(reg(0, 5)), None));
        trace(ops)
    }

    fn cfg(spec: RegFileSpec) -> SimConfig {
        SimConfig::with_regfile(spec)
    }

    #[test]
    fn replay_is_deterministic_and_counts_every_operation() {
        let t = tiny_trace();
        let c = cfg(RegFileSpec::paper_nsf(8));
        let r1 = replay(&t, &c).unwrap();
        let r2 = replay(&t, &c).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.events, t.events.events);
        assert!(r1.stats.regs_spilled > 0, "8-reg NSF must spill 12 lives");
        let r = replay(&t, &cfg(RegFileSpec::paper_nsf(128))).unwrap();
        assert_eq!(r.stats.reads, 6);
        assert_eq!(r.stats.writes, 12);
        assert_eq!(r.stats.context_switches, 3);
        assert!(r.regfile_desc.contains("NSF"));
    }

    #[test]
    fn diff_same_engine_is_identical() {
        let t = tiny_trace();
        let c = cfg(RegFileSpec::paper_nsf(16));
        let d = diff(&t, &c, &c).unwrap();
        assert!(d.identical(), "{:?}", d.first_divergence);
        assert_eq!(d.a.stats, d.b.stats);
    }

    #[test]
    fn diff_reports_first_divergence_and_deltas() {
        let t = tiny_trace();
        let big = cfg(RegFileSpec::paper_nsf(128));
        let small = cfg(RegFileSpec::paper_nsf(8));
        let d = diff(&t, &big, &small).unwrap();
        assert!(!d.identical());
        let div = d.first_divergence.expect("8 regs must stall where 128 hit");
        assert!(
            div.detail.starts_with("A: 0 stall cycles"),
            "{}",
            div.detail
        );
        let spilled = d.deltas.iter().find(|s| s.name == "regs_spilled").unwrap();
        assert!(spilled.delta() > 0, "small file spills more");
    }

    #[test]
    fn replay_errors_are_typed() {
        let nsf = cfg(RegFileSpec::paper_nsf(16));
        let read_unwritten = trace(vec![
            (LaneOp::ThreadSwitch(0), None),
            (LaneOp::Read(RegAddr::new(0, 3)), Some(0)),
        ]);
        let wrong_value = trace(vec![
            (LaneOp::ThreadSwitch(0), None),
            (LaneOp::Write(RegAddr::new(0, 3), 5), None),
            (LaneOp::Read(RegAddr::new(0, 3)), Some(6)),
        ]);
        // A context beyond the 4096-entry Ctable cannot come from a run.
        let beyond = trace(vec![(LaneOp::ThreadSwitch(5000), None)]);
        for run in [&|t: &Trace| replay(t, &nsf).map(drop), &|t: &Trace| {
            diff(t, &nsf, &cfg(RegFileSpec::Oracle)).map(drop)
        }] as [&dyn Fn(&Trace) -> Result<(), TraceError>; 2]
        {
            assert!(matches!(
                run(&read_unwritten),
                Err(TraceError::Stream(SimError::RegFile {
                    pc: 1,
                    source: RegFileError::ReadUndefined(_)
                }))
            ));
            assert!(matches!(
                run(&wrong_value),
                Err(TraceError::Stream(SimError::LaneDivergence {
                    pc: 2,
                    lane: 0,
                    ..
                }))
            ));
            assert!(matches!(
                run(&beyond),
                Err(TraceError::Stream(SimError::BadConfig(m))) if m.contains("beyond")
            ));
        }
    }

    #[test]
    fn unbuildable_engine_is_a_typed_error() {
        let t = tiny_trace();
        let bad = cfg(RegFileSpec::paper_segmented(2, 100));
        assert!(matches!(replay(&t, &bad), Err(TraceError::Stream(_))));
        assert!(matches!(diff(&t, &bad, &bad), Err(TraceError::Stream(_))));
    }

    #[test]
    fn stat_deltas_empty_for_equal_stats() {
        let s = RegFileStats::default();
        assert!(stat_deltas(&s, &s).is_empty());
        let mut t = s;
        t.read_misses = 4;
        let d = stat_deltas(&s, &t);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "read_misses");
        assert_eq!(d[0].delta(), 4);
    }
}
