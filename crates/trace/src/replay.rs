//! Trace replay: feed a recorded operation stream into any register
//! file organization, reproducing the statistics a live run under that
//! organization would report — without rebuilding or re-executing the
//! workload.
//!
//! The replay driver mirrors the simulator's engine-facing environment
//! exactly: the engine comes from the same buildability check
//! ([`nsf_sim::RegFileSpec::build`]), a fresh [`MemSystem`] provides the
//! Ctable and data cache, spills and reloads travel through
//! [`CtableBacking`] (charging real cache latencies), and the trace's
//! program memory events keep the cache state identical to the live
//! run's. Context operations go through the live machine's own Ctable
//! lifecycle, [`CtableBacking::context_op`]: a save area
//! (`backing_base + cid * 64`) is mapped when its context is switched in
//! and unmapped when it is freed. A stream that uses a register before
//! switching to its context gets the live machine's answer at its first
//! transfer: a typed [`nsf_core::StoreFault::Unmapped`] fault.
//!
//! Replaying a trace through the *same* organization that recorded it
//! yields bit-identical [`RegFileStats`] (the golden and property tests
//! pin this). Replaying through a *different* organization answers the
//! design-space question — "what would this op stream have cost on that
//! file?" — and [`diff`] reports where and how the two disagree.

use crate::event::{RegEvent, TimedEvent};
use crate::format::{Trace, TraceError};
use nsf_core::{Access, EngineDispatch, LaneOp, RegFileStats, RegisterFile};
use nsf_mem::{Addr, MemSystem};
use nsf_sim::{BackingMap, CtableBacking, SimConfig};

/// Outcome of replaying one trace through one organization.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The organization's self-description.
    pub regfile_desc: String,
    /// Statistics the organization accumulated — for a same-engine
    /// replay, bit-identical to the live run's.
    pub stats: RegFileStats,
    /// Total events replayed.
    pub events: u64,
    /// Of those, register-file operations.
    pub reg_ops: u64,
    /// Of those, program memory accesses (cache conditioning).
    pub mem_ops: u64,
}

/// Per-operation outcome, compared during [`diff`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// A read/write access: `(value, stall_cycles, missed)`.
    Access(u32, u32, bool),
    /// A context switch: stall cycles charged.
    Switch(u32),
    /// A free or memory event (no observable result).
    Unit,
}

impl Outcome {
    fn from_access(a: Access) -> Self {
        Outcome::Access(a.value, a.stall_cycles, a.missed)
    }

    fn describe(&self) -> String {
        match *self {
            Outcome::Access(value, stalls, missed) => format!(
                "{} (value {value:#x}, {stalls} stall cycles)",
                if missed { "miss" } else { "hit" }
            ),
            Outcome::Switch(stalls) => format!("switch costing {stalls} stall cycles"),
            Outcome::Unit => "no observable result".into(),
        }
    }
}

/// One organization mid-replay: the engine plus its memory environment.
struct Lane {
    regfile: EngineDispatch,
    mem: MemSystem,
    map: BackingMap,
    backing_base: Addr,
}

impl Lane {
    fn new(cfg: &SimConfig) -> Result<Self, TraceError> {
        Ok(Lane {
            regfile: cfg.regfile.build().map_err(TraceError::BadEngine)?,
            mem: MemSystem::new(cfg.mem),
            map: BackingMap::new(),
            backing_base: cfg.backing_base,
        })
    }

    /// Applies one event, returning its outcome (or the engine's error).
    fn apply(&mut self, index: u64, event: &RegEvent) -> Result<Outcome, TraceError> {
        let fail = |source| TraceError::Replay { index, source };
        let mut store = CtableBacking {
            mem: &mut self.mem,
            map: &mut self.map,
            base: self.backing_base,
        };
        let rf = &mut self.regfile;
        // Switches and frees go through the live machine's own Ctable
        // lifecycle.
        Ok(match *event {
            RegEvent::Read { addr } => {
                Outcome::from_access(rf.read(addr, &mut store).map_err(fail)?)
            }
            RegEvent::Write { addr, value } => {
                Outcome::from_access(rf.write(addr, value, &mut store).map_err(fail)?)
            }
            RegEvent::SwitchTo { cid } => {
                Outcome::Switch(store.context_op(rf, LaneOp::SwitchTo(cid)).map_err(fail)?)
            }
            RegEvent::CallPush { cid } => {
                Outcome::Switch(store.context_op(rf, LaneOp::CallPush(cid)).map_err(fail)?)
            }
            RegEvent::ThreadSwitch { cid } => Outcome::Switch(
                store
                    .context_op(rf, LaneOp::ThreadSwitch(cid))
                    .map_err(fail)?,
            ),
            RegEvent::FreeContext { cid } => {
                store
                    .context_op(rf, LaneOp::FreeContext(cid))
                    .map_err(fail)?;
                Outcome::Unit
            }
            RegEvent::FreeReg { addr } => {
                store.context_op(rf, LaneOp::FreeReg(addr)).map_err(fail)?;
                Outcome::Unit
            }
            RegEvent::MemRead { addr } => {
                store.mem.load(addr);
                Outcome::Unit
            }
            RegEvent::MemWrite { addr } => {
                // The written value was not recorded: nothing in a replay
                // ever observes program-memory *contents* (register state
                // flows through the engine and its save areas, which live
                // above `backing_base`, disjoint from program addresses).
                // Only the cache-state transition matters, so store a
                // placeholder.
                store.mem.store(addr, 0);
                Outcome::Unit
            }
        })
    }
}

/// Replays a decoded trace through the organization in `cfg`.
pub fn replay(trace: &Trace, cfg: &SimConfig) -> Result<ReplayReport, TraceError> {
    replay_events(&trace.events, cfg)
}

/// Replays a raw event stream through the organization in `cfg`
/// (`cfg.regfile`, `cfg.mem` and `cfg.backing_base` are used; the rest
/// of the simulator configuration does not affect engine-facing
/// behavior).
pub fn replay_events(events: &[TimedEvent], cfg: &SimConfig) -> Result<ReplayReport, TraceError> {
    let mut lane = Lane::new(cfg)?;
    let mut reg_ops = 0u64;
    let mut mem_ops = 0u64;
    for (i, te) in events.iter().enumerate() {
        lane.apply(i as u64, &te.event)?;
        if te.event.is_mem() {
            mem_ops += 1;
        } else {
            reg_ops += 1;
        }
    }
    Ok(ReplayReport {
        regfile_desc: lane.regfile.describe(),
        stats: *lane.regfile.stats(),
        events: events.len() as u64,
        reg_ops,
        mem_ops,
    })
}

/// The first operation on which two organizations disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the operation in the trace.
    pub index: u64,
    /// The operation itself.
    pub event: TimedEvent,
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

/// Replays `trace` through two organizations in lockstep, reporting the
/// first operation whose observable outcome (value, stall cycles,
/// hit/miss) differs, plus every aggregate statistic that ends up
/// different.
pub fn diff(trace: &Trace, cfg_a: &SimConfig, cfg_b: &SimConfig) -> Result<DiffReport, TraceError> {
    let mut a = Lane::new(cfg_a)?;
    let mut b = Lane::new(cfg_b)?;
    let mut first_divergence = None;
    let mut reg_ops = 0u64;
    let mut mem_ops = 0u64;
    for (i, te) in trace.events.iter().enumerate() {
        let oa = a.apply(i as u64, &te.event)?;
        let ob = b.apply(i as u64, &te.event)?;
        if te.event.is_mem() {
            mem_ops += 1;
        } else {
            reg_ops += 1;
        }
        if first_divergence.is_none() && oa != ob {
            first_divergence = Some(Divergence {
                index: i as u64,
                event: *te,
                detail: format!("A: {}; B: {}", oa.describe(), ob.describe()),
            });
        }
    }
    let sa = *a.regfile.stats();
    let sb = *b.regfile.stats();
    let report = |lane: &Lane, stats| ReplayReport {
        regfile_desc: lane.regfile.describe(),
        stats,
        events: trace.events.len() as u64,
        reg_ops,
        mem_ops,
    };
    Ok(DiffReport {
        a: report(&a, sa),
        b: report(&b, sb),
        first_divergence,
        deltas: stat_deltas(&sa, &sb),
    })
}

/// All [`RegFileStats`] fields whose values differ between `a` and `b`.
pub fn stat_deltas(a: &RegFileStats, b: &RegFileStats) -> Vec<StatDelta> {
    let fields: [(&'static str, u64, u64); 14] = [
        ("reads", a.reads, b.reads),
        ("writes", a.writes, b.writes),
        ("read_hits", a.read_hits, b.read_hits),
        ("read_misses", a.read_misses, b.read_misses),
        ("write_hits", a.write_hits, b.write_hits),
        ("write_misses", a.write_misses, b.write_misses),
        ("lines_reloaded", a.lines_reloaded, b.lines_reloaded),
        ("regs_reloaded", a.regs_reloaded, b.regs_reloaded),
        (
            "live_regs_reloaded",
            a.live_regs_reloaded,
            b.live_regs_reloaded,
        ),
        ("regs_spilled", a.regs_spilled, b.regs_spilled),
        ("regs_dribbled", a.regs_dribbled, b.regs_dribbled),
        ("context_switches", a.context_switches, b.context_switches),
        ("switch_hits", a.switch_hits, b.switch_hits),
        (
            "spill_reload_cycles",
            a.spill_reload_cycles,
            b.spill_reload_cycles,
        ),
    ];
    fields
        .into_iter()
        .filter(|&(_, va, vb)| va != vb)
        .map(|(name, a, b)| StatDelta { name, a, b })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceMeta;
    use nsf_core::{RegAddr, RegFileError, StoreFault};
    use nsf_sim::RegFileSpec;

    /// A tiny hand-written stream: two contexts ping-ponging with more
    /// live registers than a small NSF can hold, forcing spill traffic.
    fn tiny_trace() -> Trace {
        let mut events = Vec::new();
        let mut push = |event| {
            events.push(TimedEvent {
                cycle: events.len() as u64,
                event,
            })
        };
        push(RegEvent::ThreadSwitch { cid: 0 });
        for off in 0..6 {
            push(RegEvent::Write {
                addr: RegAddr::new(0, off),
                value: u32::from(off) + 100,
            });
        }
        push(RegEvent::CallPush { cid: 1 });
        for off in 0..6 {
            push(RegEvent::Write {
                addr: RegAddr::new(1, off),
                value: u32::from(off) + 200,
            });
        }
        push(RegEvent::MemRead { addr: 0x0010_0000 });
        push(RegEvent::SwitchTo { cid: 0 });
        for off in 0..6 {
            push(RegEvent::Read {
                addr: RegAddr::new(0, off),
            });
        }
        push(RegEvent::FreeContext { cid: 1 });
        push(RegEvent::FreeReg {
            addr: RegAddr::new(0, 5),
        });
        Trace {
            meta: TraceMeta::default(),
            events,
        }
    }

    fn cfg(spec: RegFileSpec) -> SimConfig {
        SimConfig::with_regfile(spec)
    }

    #[test]
    fn replay_is_deterministic() {
        let t = tiny_trace();
        let c = cfg(RegFileSpec::paper_nsf(8));
        let r1 = replay(&t, &c).unwrap();
        let r2 = replay(&t, &c).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.events, t.events.len() as u64);
        assert_eq!(r1.reg_ops + r1.mem_ops, r1.events);
        assert_eq!(r1.mem_ops, 1);
        assert!(r1.stats.regs_spilled > 0, "8-reg NSF must spill 12 lives");
    }

    #[test]
    fn replay_counts_every_operation() {
        let t = tiny_trace();
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
        let div = d.first_divergence.expect("8 regs must miss where 128 hit");
        assert!(div.detail.contains("A: "), "{}", div.detail);
        assert!(d.deltas.iter().any(|s| s.name == "regs_spilled"));
        let spilled = d.deltas.iter().find(|s| s.name == "regs_spilled").unwrap();
        assert!(spilled.delta() > 0, "small file spills more");
    }

    #[test]
    fn replay_error_is_typed_with_index() {
        let trace = |events: Vec<RegEvent>| Trace {
            meta: TraceMeta::default(),
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| TimedEvent {
                    cycle: i as u64,
                    event,
                })
                .collect(),
        };
        let cases = [
            // Reading a register that was never written: the
            // conventional file treats unknown offsets within range as
            // resident zero, but the NSF faults on a read of a
            // never-allocated register.
            (
                trace(vec![
                    RegEvent::ThreadSwitch { cid: 0 },
                    RegEvent::Read {
                        addr: RegAddr::new(0, 3),
                    },
                ]),
                1,
                RegFileError::ReadUndefined(RegAddr::new(0, 3)),
            ),
            // A context beyond the 4096-entry Ctable has no save area
            // to map at its switch-in.
            (
                trace(vec![
                    RegEvent::ThreadSwitch { cid: 5000 },
                    RegEvent::FreeContext { cid: 5000 },
                ]),
                0,
                RegFileError::Store(StoreFault::Unmapped(5000)),
            ),
        ];
        for (t, want_index, want_source) in cases {
            for err in [
                replay(&t, &cfg(RegFileSpec::paper_nsf(16))).unwrap_err(),
                diff(
                    &t,
                    &cfg(RegFileSpec::paper_nsf(16)),
                    &cfg(RegFileSpec::Oracle),
                )
                .unwrap_err(),
            ] {
                match err {
                    TraceError::Replay { index, source } => {
                        assert_eq!((index, source), (want_index, want_source.clone()));
                    }
                    other => panic!("expected Replay error, got {other}"),
                }
            }
        }
    }

    #[test]
    fn unbuildable_engine_is_a_typed_error() {
        let t = tiny_trace();
        let bad = cfg(RegFileSpec::paper_segmented(2, 100));
        assert!(matches!(replay(&t, &bad), Err(TraceError::BadEngine(_))));
        assert!(matches!(
            diff(&t, &bad, &bad),
            Err(TraceError::BadEngine(_))
        ));
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
