//! Post-mortem execution tracing.
//!
//! When enabled (`SimConfig::trace_depth > 0`), the machine records the
//! last N executed instructions in a ring buffer. When a run ends in a
//! [`crate::SimError`], the trace shows exactly how the program got
//! there — which thread, which context, which instructions — without the
//! cost of full logging.

use nsf_core::Cid;
use nsf_isa::Inst;
use nsf_runtime::ThreadId;
use std::collections::VecDeque;
use std::fmt;

/// One executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle at which the instruction issued.
    pub cycle: u64,
    /// Thread that issued it.
    pub tid: ThreadId,
    /// Register context it ran under.
    pub cid: Cid,
    /// Program counter.
    pub pc: u32,
    /// The instruction itself.
    pub inst: Inst,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cycle {:>8}] t{:<3} <cid {:>3}> pc {:>5}: {}",
            self.cycle, self.tid, self.cid, self.pc, self.inst
        )
    }
}

/// A bounded ring of recent [`TraceEntry`] records.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    depth: usize,
    ring: VecDeque<TraceEntry>,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `depth` entries (0 disables it).
    pub fn new(depth: usize) -> Self {
        TraceBuffer {
            depth,
            ring: VecDeque::with_capacity(depth.min(4096)),
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Records one entry, evicting the oldest when full.
    pub fn record(&mut self, entry: TraceEntry) {
        if self.depth == 0 {
            return;
        }
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back(entry);
    }

    /// The recorded entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl fmt::Display for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.ring {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cycle: u64) -> TraceEntry {
        TraceEntry {
            cycle,
            tid: 0,
            cid: 1,
            pc: cycle as u32,
            inst: Inst::Nop,
        }
    }

    #[test]
    fn ring_keeps_the_newest() {
        let mut t = TraceBuffer::new(3);
        for c in 0..5 {
            t.record(entry(c));
        }
        let cycles: Vec<u64> = t.entries().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn zero_depth_records_nothing() {
        let mut t = TraceBuffer::new(0);
        t.record(entry(1));
        assert!(t.is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn display_is_line_oriented() {
        let mut t = TraceBuffer::new(2);
        t.record(entry(7));
        let s = t.to_string();
        assert!(s.contains("cycle"));
        assert!(s.contains("nop"));
    }
}
