//! The [`TraceRecorder`]: a [`FrontendProbe`] that accumulates the
//! register-file operation stream in memory, ready to be serialized as
//! a [`crate::Trace`].

use crate::event::{RegEvent, TimedEvent};
use nsf_core::{LaneOp, Word};
use nsf_mem::Addr;
use nsf_sim::FrontendProbe;

/// An in-memory event accumulator.
///
/// Hand one to [`nsf_workloads::run_probed`] and take the events back
/// with [`TraceRecorder::take_events`] when the run completes
/// ([`crate::capture`] wraps exactly this):
///
/// ```
/// use nsf_trace::TraceRecorder;
/// let workload = nsf_workloads::gatesim::build(0);
/// let cfg = nsf_sim::SimConfig::default();
/// let mut rec = TraceRecorder::new();
/// let report = nsf_workloads::run_probed(&workload, cfg, &mut rec).unwrap();
/// let events = rec.take_events();
/// assert!(events.len() as u64 > report.regfile.reads + report.regfile.writes);
/// ```
#[derive(Default)]
pub struct TraceRecorder {
    cycle: u64,
    events: Vec<TimedEvent>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes the recorded events, leaving the recorder empty.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }

    fn push(&mut self, event: RegEvent) {
        self.events.push(TimedEvent {
            cycle: self.cycle,
            event,
        });
    }
}

/// Register operations become their [`RegEvent`]s; program loads become
/// [`RegEvent::MemRead`], stores and atomics [`RegEvent::MemWrite`].
/// Values are dropped (a write keeps its value inside the event), and
/// each event is stamped with the latest [`FrontendProbe::clock`].
impl FrontendProbe for TraceRecorder {
    fn reg_op(&mut self, op: LaneOp, _value: Option<Word>) {
        self.push(op.into());
    }

    fn mem_load(&mut self, addr: Addr, _value: Word) {
        self.push(RegEvent::MemRead { addr });
    }

    fn mem_store(&mut self, addr: Addr, _value: Word) {
        self.push(RegEvent::MemWrite { addr });
    }

    fn mem_amo(&mut self, addr: Addr, _delta: i32, _old: Word) {
        self.push(RegEvent::MemWrite { addr });
    }

    fn clock(&mut self, cycle: u64) {
        self.cycle = cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::RegAddr;

    #[test]
    fn records_in_call_order_with_clock_stamps() {
        let mut r = TraceRecorder::new();
        r.clock(3);
        r.reg_op(LaneOp::Write(RegAddr::new(1, 0), 9), None);
        r.reg_op(LaneOp::Read(RegAddr::new(1, 0)), Some(9));
        r.clock(7);
        r.mem_load(0x100, 5);
        r.reg_op(LaneOp::FreeContext(1), None);
        r.mem_amo(0x104, 1, 0);
        assert_eq!(r.len(), 5);
        let events = r.take_events();
        assert!(r.is_empty());
        assert_eq!(events[0].cycle, 3);
        assert_eq!(events[2].cycle, 7);
        assert_eq!(
            events[1].event,
            RegEvent::Read {
                addr: RegAddr::new(1, 0)
            }
        );
        assert_eq!(events[2].event, RegEvent::MemRead { addr: 0x100 });
        assert_eq!(events[3].event, RegEvent::FreeContext { cid: 1 });
        assert_eq!(events[4].event, RegEvent::MemWrite { addr: 0x104 });
    }
}
