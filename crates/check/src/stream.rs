//! Seeded operation-stream generation over the full
//! [`nsf_core::RegisterFile`] surface, plus the *discipline validator*
//! that decides whether an arbitrary op list is a program every
//! organization can legally execute.
//!
//! The generator models a program the way the simulator does: a set of
//! threads, each a stack of context IDs (a call chain). One stream must
//! be valid for every engine family at once, so it obeys the strictest
//! discipline any of them imposes:
//!
//! * accesses name only the *current* context (segmented files reject
//!   anything else with `NotCurrent`; windowed files only expose the
//!   chain top);
//! * after a `FreeContext` of the top, the parent must be re-entered
//!   with an explicit `SwitchTo` before it is accessed (its window may
//!   have been spilled — the switch performs the underflow reload);
//! * context IDs are fresh on every `CallPush`/new-thread dispatch and
//!   never reused, matching the simulator's monotonic activation IDs.
//!
//! Streams are pure functions of `(StreamConfig, seed)`; no wall-clock
//! or process state enters generation.

use nsf_core::{Cid, LaneOp, RegAddr};
use std::collections::HashMap;

/// xorshift*-style deterministic generator (SplitMix64). Self-contained
/// so the checker's streams cannot drift with a library's algorithm.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Shape of a generated stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Register-file operations to emit (the drain suffix is extra).
    pub ops: usize,
    /// Offsets are drawn from `[0, width)`; must not exceed the
    /// narrowest lane's per-context register count.
    pub width: u8,
    /// Maximum concurrently live threads.
    pub max_threads: usize,
    /// Maximum call depth per thread.
    pub max_depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ops: 160,
            width: 16,
            max_threads: 4,
            // Deeper than the windowed file's eight windows, so call
            // chains overflow and underflow within one stream.
            max_depth: 10,
        }
    }
}

/// Program-shape tracker shared by the generator and the validator: the
/// thread stacks, the current thread, and whether the current top has
/// been entered with a switch since it last changed.
#[derive(Clone, Debug, Default)]
struct Shape {
    /// Live threads, each a non-empty stack of context IDs.
    threads: Vec<Vec<Cid>>,
    /// Index of the running thread, if any.
    current: Option<usize>,
    /// The current top is entered (accessible without a switch).
    armed: bool,
    /// Every cid ever introduced (they are never reused).
    seen: Vec<Cid>,
}

impl Shape {
    fn top(&self) -> Option<Cid> {
        self.current
            .and_then(|t| self.threads.get(t))
            .and_then(|s| s.last().copied())
    }

    /// Applies one event, returning `false` if it violates discipline.
    fn step(&mut self, ev: &LaneOp) -> bool {
        match *ev {
            LaneOp::Read(addr) | LaneOp::Write(addr, _) | LaneOp::FreeReg(addr) => {
                self.armed && self.top() == Some(addr.cid)
            }
            LaneOp::SwitchTo(cid) => {
                // Re-entering the current thread's top (redundant switch
                // or post-return re-entry); not a cross-thread jump.
                if self.top() == Some(cid) {
                    self.armed = true;
                    true
                } else {
                    false
                }
            }
            LaneOp::CallPush(cid) => {
                if self.seen.contains(&cid) {
                    return false; // cids are never reused
                }
                self.seen.push(cid);
                match self.current {
                    Some(t) => self.threads[t].push(cid),
                    // A call with no running thread starts one.
                    None => {
                        self.threads.push(vec![cid]);
                        self.current = Some(self.threads.len() - 1);
                    }
                }
                self.armed = true;
                true
            }
            LaneOp::ThreadSwitch(cid) => {
                if let Some(t) = self.threads.iter().position(|s| s.last() == Some(&cid)) {
                    self.current = Some(t);
                    self.armed = true;
                    true
                } else if self.seen.contains(&cid) {
                    false // neither a thread top nor fresh
                } else {
                    self.seen.push(cid);
                    self.threads.push(vec![cid]);
                    self.current = Some(self.threads.len() - 1);
                    self.armed = true;
                    true
                }
            }
            LaneOp::FreeContext(cid) => {
                // Only the top of the running thread may be freed (the
                // return path); the parent needs a SwitchTo before use.
                let Some(t) = self.current else { return false };
                if self.threads[t].last() != Some(&cid) {
                    return false;
                }
                self.threads[t].pop();
                if self.threads[t].is_empty() {
                    self.threads.remove(t);
                    self.current = None;
                }
                self.armed = false;
                true
            }
        }
    }
}

/// `true` iff `ops` is a legal program for every engine family (see the
/// module docs for the discipline). Used by the shrinker to reject
/// deletion candidates that would turn an engine bug into a mere
/// discipline violation.
pub fn is_valid_stream(ops: &[LaneOp]) -> bool {
    let mut shape = Shape::default();
    ops.iter().all(|ev| shape.step(ev))
}

/// Generates a deterministic operation stream from `seed`. The stream
/// ends with a full drain: every live context is freed (innermost
/// first, switching threads as needed), so a checker can assert that
/// occupancy and backing state return to zero.
pub fn generate(cfg: &StreamConfig, seed: u64) -> Vec<LaneOp> {
    let mut rng = SplitMix64::new(seed);
    let mut shape = Shape::default();
    let mut next_cid: Cid = 0;
    // Offsets known written (and not freed) per live context, for
    // read biasing: mostly-defined reads exercise value transport,
    // occasional undefined reads exercise the error path.
    let mut defined: HashMap<Cid, Vec<u8>> = HashMap::new();
    let mut out = Vec::with_capacity(cfg.ops + 16);

    let emit = |shape: &mut Shape, out: &mut Vec<LaneOp>, ev: LaneOp| {
        let ok = shape.step(&ev);
        debug_assert!(ok, "generator emitted an illegal event: {ev}");
        out.push(ev);
    };

    while out.len() < cfg.ops {
        let Some(top) = shape.top().filter(|_| shape.armed) else {
            // No runnable context: dispatch an existing thread or start
            // a fresh one.
            if !shape.threads.is_empty() && rng.below(2) == 0 {
                let t = rng.below(shape.threads.len() as u64) as usize;
                let cid = *shape.threads[t].last().expect("threads are non-empty");
                emit(&mut shape, &mut out, LaneOp::ThreadSwitch(cid));
            } else {
                let cid = next_cid;
                next_cid += 1;
                emit(&mut shape, &mut out, LaneOp::ThreadSwitch(cid));
            }
            continue;
        };

        let depth = shape.threads[shape.current.expect("armed implies current")].len();
        match rng.below(100) {
            // Write: the workhorse (allocation pressure on the NSF).
            0..=34 => {
                let offset = rng.below(u64::from(cfg.width)) as u8;
                let value = rng.next_u64() as u32;
                emit(
                    &mut shape,
                    &mut out,
                    LaneOp::Write(RegAddr::new(top, offset), value),
                );
                let d = defined.entry(top).or_default();
                if !d.contains(&offset) {
                    d.push(offset);
                }
            }
            // Read, biased toward defined offsets.
            35..=54 => {
                let d = defined.get(&top);
                let offset = match d {
                    Some(d) if !d.is_empty() && rng.below(10) < 8 => {
                        d[rng.below(d.len() as u64) as usize]
                    }
                    _ => rng.below(u64::from(cfg.width)) as u8,
                };
                emit(
                    &mut shape,
                    &mut out,
                    LaneOp::Read(RegAddr::new(top, offset)),
                );
            }
            // Procedure call: fresh context on this thread.
            55..=64 if depth < cfg.max_depth => {
                let cid = next_cid;
                next_cid += 1;
                emit(&mut shape, &mut out, LaneOp::CallPush(cid));
            }
            // Return: free the top, re-enter the parent.
            65..=74 if depth > 1 => {
                emit(&mut shape, &mut out, LaneOp::FreeContext(top));
                defined.remove(&top);
                let parent = shape.top().expect("depth > 1 leaves a parent");
                emit(&mut shape, &mut out, LaneOp::SwitchTo(parent));
            }
            // Thread death: free the only frame; the next iteration
            // dispatches another thread.
            65..=74 => {
                emit(&mut shape, &mut out, LaneOp::FreeContext(top));
                defined.remove(&top);
            }
            // Dispatch a different thread.
            75..=82 if shape.threads.len() > 1 => {
                let t = rng.below(shape.threads.len() as u64) as usize;
                let cid = *shape.threads[t].last().expect("threads are non-empty");
                emit(&mut shape, &mut out, LaneOp::ThreadSwitch(cid));
            }
            // Spawn a new thread.
            75..=89 if shape.threads.len() < cfg.max_threads => {
                let cid = next_cid;
                next_cid += 1;
                emit(&mut shape, &mut out, LaneOp::ThreadSwitch(cid));
            }
            // Explicit register deallocation hint (paper §4.2).
            90..=94 => {
                let d = defined.get_mut(&top);
                let offset = match d {
                    Some(d) if !d.is_empty() => {
                        let i = rng.below(d.len() as u64) as usize;
                        d.swap_remove(i)
                    }
                    _ => rng.below(u64::from(cfg.width)) as u8,
                };
                emit(
                    &mut shape,
                    &mut out,
                    LaneOp::FreeReg(RegAddr::new(top, offset)),
                );
            }
            // Redundant switch to the current top (switch-hit paths).
            _ => {
                emit(&mut shape, &mut out, LaneOp::SwitchTo(top));
            }
        }
    }

    // Drain: free every live context so the checker can assert the file
    // and the backing store end empty.
    while let Some(t) = shape
        .current
        .or_else(|| (!shape.threads.is_empty()).then_some(0))
    {
        let cid = *shape.threads[t].last().expect("threads are non-empty");
        if shape.current != Some(t) || !shape.armed {
            emit(&mut shape, &mut out, LaneOp::ThreadSwitch(cid));
        }
        let top = shape.top().expect("just dispatched");
        emit(&mut shape, &mut out, LaneOp::FreeContext(top));
        if shape.current.is_some() {
            let parent = shape.top().expect("current survives a non-final pop");
            emit(&mut shape, &mut out, LaneOp::SwitchTo(parent));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_streams_are_valid_and_deterministic() {
        let cfg = StreamConfig::default();
        for seed in 0..50 {
            let a = generate(&cfg, seed);
            let b = generate(&cfg, seed);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert!(is_valid_stream(&a), "seed {seed} produced invalid stream");
            assert!(a.len() >= cfg.ops);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = StreamConfig::default();
        assert_ne!(generate(&cfg, 1), generate(&cfg, 2));
    }

    #[test]
    fn streams_end_fully_drained() {
        let cfg = StreamConfig::default();
        for seed in 0..20 {
            let ops = generate(&cfg, seed);
            let mut live: Vec<Cid> = Vec::new();
            for ev in &ops {
                match *ev {
                    LaneOp::CallPush(cid) => live.push(cid),
                    LaneOp::ThreadSwitch(cid) if !live.contains(&cid) => live.push(cid),
                    LaneOp::FreeContext(cid) => live.retain(|&c| c != cid),
                    _ => {}
                }
            }
            assert!(live.is_empty(), "seed {seed} left contexts live: {live:?}");
        }
    }

    #[test]
    fn validator_rejects_indiscipline() {
        use LaneOp::*;
        // Access before any switch.
        assert!(!is_valid_stream(&[Read(RegAddr::new(0, 0))]));
        // Access to a non-current context.
        assert!(!is_valid_stream(&[
            ThreadSwitch(0),
            Write(RegAddr::new(1, 0), 9),
        ]));
        // Access after a return without re-entering the parent.
        assert!(!is_valid_stream(&[
            ThreadSwitch(0),
            CallPush(1),
            FreeContext(1),
            Read(RegAddr::new(0, 0)),
        ]));
        // Cid reuse.
        assert!(!is_valid_stream(&[
            ThreadSwitch(0),
            FreeContext(0),
            ThreadSwitch(0),
        ]));
        // Freeing a non-top context.
        assert!(!is_valid_stream(&[
            ThreadSwitch(0),
            CallPush(1),
            FreeContext(0),
        ]));
        // The legal version of the return sequence passes.
        assert!(is_valid_stream(&[
            ThreadSwitch(0),
            CallPush(1),
            FreeContext(1),
            SwitchTo(0),
            Read(RegAddr::new(0, 0)),
        ]));
    }

    #[test]
    fn splitmix_is_stable() {
        // Pin the first outputs so a silent algorithm change (which
        // would re-map every seed to a different stream) is caught.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        let mut r = SplitMix64::new(42);
        assert_eq!(r.next_u64(), 0xbdd7_3226_2feb_6e95);
    }
}
