//! Delta-debugging reduction of divergent streams.
//!
//! A fuzz-found divergence typically sits at the end of 150+ operations,
//! most of which are noise. [`shrink`] is a ddmin-style chunk remover:
//! it repeatedly deletes spans of the stream, keeping a deletion only
//! when the remainder is still a *disciplined* program
//! ([`crate::stream::is_valid_stream`]) that still reproduces the
//! failure. The validity filter is what makes shrinking sound — deleting
//! a `switch` can turn any stream into one every engine rejects with
//! `NotCurrent`, which would "reproduce" a divergence that has nothing
//! to do with the original bug. The caller's predicate should likewise
//! pin the failure (same lane, same kind), not accept any divergence.

use crate::stream::is_valid_stream;
use nsf_core::LaneOp;

/// Minimizes `ops` under `reproduces`, which must hold for `ops` itself.
/// Runs the predicate O(n log n)-ish times; streams here are hundreds of
/// events, so exhaustive single-event passes are affordable.
pub fn shrink(ops: &[LaneOp], mut reproduces: impl FnMut(&[LaneOp]) -> bool) -> Vec<LaneOp> {
    let mut cur = ops.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if !candidate.is_empty() && is_valid_stream(&candidate) && reproduces(&candidate) {
                cur = candidate;
                progressed = true;
                // The next chunk slid into `start`; do not advance.
            } else {
                start = end;
            }
        }
        if progressed {
            continue; // retry the same granularity on the smaller stream
        }
        if chunk == 1 {
            return cur;
        }
        chunk = (chunk / 2).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::RegAddr;
    use LaneOp::*;

    /// A predicate sensitive to one write surviving: the shape a real
    /// engine-bug predicate ("this lane still returns the wrong value")
    /// takes.
    fn contains_magic(ops: &[LaneOp]) -> bool {
        ops.iter().any(|e| matches!(e, Write(_, 0xdead_beef)))
    }

    #[test]
    fn shrinks_to_the_essential_core() {
        let mut ops = vec![ThreadSwitch(0)];
        for i in 0..40 {
            ops.push(Write(RegAddr::new(0, (i % 8) as u8), i));
        }
        ops.push(Write(RegAddr::new(0, 9), 0xdead_beef));
        for i in 0..40 {
            ops.push(Read(RegAddr::new(0, (i % 8) as u8)));
        }
        assert!(is_valid_stream(&ops));
        let small = shrink(&ops, contains_magic);
        // The 82-op stream reduces to the magic write alone... almost:
        // the write needs its enabling switch to stay disciplined.
        assert!(small.len() <= 2, "still {} ops: {small:?}", small.len());
        assert!(contains_magic(&small));
        assert!(is_valid_stream(&small));
    }

    #[test]
    fn never_returns_an_undisciplined_stream() {
        let ops = vec![
            ThreadSwitch(0),
            CallPush(1),
            Write(RegAddr::new(1, 0), 0xdead_beef),
            FreeContext(1),
            SwitchTo(0),
            FreeContext(0),
        ];
        let small = shrink(&ops, contains_magic);
        // The write cannot survive without `CallPush(1)` before it.
        assert!(is_valid_stream(&small));
        assert!(small.contains(&CallPush(1)));
    }

    #[test]
    fn irreducible_streams_come_back_unchanged() {
        let ops = vec![ThreadSwitch(0), Write(RegAddr::new(0, 0), 0xdead_beef)];
        assert_eq!(shrink(&ops, contains_magic), ops);
    }
}
