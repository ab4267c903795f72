//! Victim selection for line (NSF) and frame (segmented) eviction.
//!
//! The paper simulates LRU ("This study simulates a least recently used
//! (LRU) strategy", §4.2); FIFO and seeded-random policies are provided as
//! ablation points for the replacement-policy bench.
//!
//! The hardware tracks recency with per-line state updated in parallel on
//! every access; the model mirrors that with **intrusive doubly-linked
//! order lists** over the slot indices, so `touch`, `allocate` and `pick`
//! are all O(1) with no allocation — a timestamp scan would make every
//! eviction O(lines) and bound large-file sweeps by simulator overhead
//! instead of modeled behaviour.
//!
//! Equivalence with the historical timestamp scan (which survives as
//! [`TimestampPicker`] for differential tests): a victim is only ever
//! picked when the file is **full**, so every candidate slot has been
//! `allocate`d at least once and therefore carries a distinct logical
//! timestamp — the minimum is unique and equals the head of the
//! corresponding order list. The seeded `Random` policy drew
//! `gen_range(0..candidates.len())` over the full ascending slot list,
//! which is exactly `gen_range(0..slots)`; the RNG stream is unchanged.

use crate::policy::ReplacementPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An intrusive doubly-linked list over slot indices `0..slots`, with a
/// sentinel node at index `slots`. Front = least recent, back = most
/// recent. All operations are O(1) and allocation-free after `new`.
#[derive(Debug)]
struct OrderList {
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl OrderList {
    /// A list containing `0, 1, …, slots-1` in ascending order (matching
    /// the timestamp scan's ascending-index tie-break for untouched slots).
    fn new(slots: usize) -> Self {
        let n = slots as u32;
        // Circular through the sentinel: prev[i] = i-1, next[i] = i+1.
        let prev = (0..=n).map(|i| if i == 0 { n } else { i - 1 }).collect();
        let next = (0..=n).map(|i| if i == n { 0 } else { i + 1 }).collect();
        OrderList { prev, next }
    }

    #[inline]
    fn sentinel(&self) -> u32 {
        (self.prev.len() - 1) as u32
    }

    /// The least recently moved slot.
    fn front(&self) -> usize {
        debug_assert_ne!(self.next[self.sentinel() as usize], self.sentinel());
        self.next[self.sentinel() as usize] as usize
    }

    /// Moves `slot` to the back (most recent position).
    #[inline(always)]
    fn move_to_back(&mut self, slot: usize) {
        let s = slot as u32;
        let (p, n) = (self.prev[slot], self.next[slot]);
        if n == self.sentinel() {
            return; // already at the back
        }
        // Unlink.
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        // Insert before the sentinel.
        let sent = self.sentinel();
        let tail = self.prev[sent as usize];
        self.next[tail as usize] = s;
        self.prev[slot] = tail;
        self.next[slot] = sent;
        self.prev[sent as usize] = s;
    }
}

/// Tracks recency/age per slot and picks eviction victims in O(1).
#[derive(Debug)]
pub struct VictimPicker {
    policy: ReplacementPolicy,
    slots: usize,
    /// Recency order (LRU): front = least recently touched.
    recency: OrderList,
    /// Allocation order (FIFO): front = oldest allocation.
    age: OrderList,
    rng: Option<StdRng>,
}

impl VictimPicker {
    /// Creates a picker for `slots` slots under `policy`.
    pub fn new(slots: usize, policy: ReplacementPolicy) -> Self {
        let rng = match policy {
            ReplacementPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        VictimPicker {
            policy,
            slots,
            recency: OrderList::new(slots),
            age: OrderList::new(slots),
            rng,
        }
    }

    /// Records an access to `slot`.
    #[inline(always)]
    pub fn touch(&mut self, slot: usize) {
        self.recency.move_to_back(slot);
    }

    /// Records a (re)allocation of `slot`.
    pub fn allocate(&mut self, slot: usize) {
        self.age.move_to_back(slot);
        self.recency.move_to_back(slot);
    }

    /// Chooses a victim among all slots. The caller guarantees the file
    /// is full (eviction only happens when no free slot exists), so every
    /// slot is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if the picker has zero slots.
    pub fn pick(&mut self) -> usize {
        assert!(self.slots > 0, "no eviction candidates");
        match self.policy {
            ReplacementPolicy::Lru => self.recency.front(),
            ReplacementPolicy::Fifo => self.age.front(),
            ReplacementPolicy::Random { .. } => {
                let rng = self.rng.as_mut().expect("rng present for Random policy");
                rng.gen_range(0..self.slots)
            }
        }
    }
}

/// The historical timestamp-scan picker: O(candidates) per pick. Retained
/// as the **reference implementation** for the equivalence property tests
/// (`tests/replacement_equiv.rs`) and as documentation of the semantics
/// [`VictimPicker`] must preserve.
#[derive(Debug)]
pub struct TimestampPicker {
    policy: ReplacementPolicy,
    /// Last-touch timestamp per slot (LRU).
    touched: Vec<u64>,
    /// Allocation timestamp per slot (FIFO).
    allocated: Vec<u64>,
    clock: u64,
    rng: Option<StdRng>,
}

impl TimestampPicker {
    /// Creates a picker for `slots` slots under `policy`.
    pub fn new(slots: usize, policy: ReplacementPolicy) -> Self {
        let rng = match policy {
            ReplacementPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        TimestampPicker {
            policy,
            touched: vec![0; slots],
            allocated: vec![0; slots],
            clock: 0,
            rng,
        }
    }

    /// Records an access to `slot`.
    pub fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.touched[slot] = self.clock;
    }

    /// Records a (re)allocation of `slot`.
    pub fn allocate(&mut self, slot: usize) {
        self.clock += 1;
        self.allocated[slot] = self.clock;
        self.touched[slot] = self.clock;
    }

    /// Chooses a victim among `candidates` (non-empty) by scanning
    /// timestamps; ties break toward the earliest candidate.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn pick(&mut self, candidates: &[usize]) -> usize {
        assert!(!candidates.is_empty(), "no eviction candidates");
        match self.policy {
            ReplacementPolicy::Lru => *candidates
                .iter()
                .min_by_key(|&&s| self.touched[s])
                .expect("non-empty"),
            ReplacementPolicy::Fifo => *candidates
                .iter()
                .min_by_key(|&&s| self.allocated[s])
                .expect("non-empty"),
            ReplacementPolicy::Random { .. } => {
                let rng = self.rng.as_mut().expect("rng present for Random policy");
                candidates[rng.gen_range(0..candidates.len())]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recently_touched() {
        let mut p = VictimPicker::new(3, ReplacementPolicy::Lru);
        p.allocate(0);
        p.allocate(1);
        p.allocate(2);
        p.touch(0); // 1 is now LRU
        assert_eq!(p.pick(), 1);
        p.touch(1);
        assert_eq!(p.pick(), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut p = VictimPicker::new(3, ReplacementPolicy::Fifo);
        p.allocate(0);
        p.allocate(1);
        p.allocate(2);
        p.touch(0);
        p.touch(0);
        assert_eq!(p.pick(), 0, "oldest allocation evicted first");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let picks = |seed| {
            let mut p = VictimPicker::new(8, ReplacementPolicy::Random { seed });
            (0..10).map(|_| p.pick()).collect::<Vec<_>>()
        };
        assert_eq!(picks(42), picks(42));
    }

    #[test]
    fn random_stream_matches_reference() {
        let mut new = VictimPicker::new(8, ReplacementPolicy::Random { seed: 7 });
        let mut old = TimestampPicker::new(8, ReplacementPolicy::Random { seed: 7 });
        let all: Vec<usize> = (0..8).collect();
        for _ in 0..32 {
            assert_eq!(new.pick(), old.pick(&all));
        }
    }

    #[test]
    fn untouched_slots_break_ties_by_ascending_index() {
        // Before any allocation, both implementations must agree on slot 0.
        let mut new = VictimPicker::new(4, ReplacementPolicy::Lru);
        let mut old = TimestampPicker::new(4, ReplacementPolicy::Lru);
        assert_eq!(new.pick(), 0);
        assert_eq!(old.pick(&[0, 1, 2, 3]), 0);
    }

    #[test]
    fn reallocation_moves_slot_to_back_of_both_orders() {
        let mut p = VictimPicker::new(3, ReplacementPolicy::Fifo);
        p.allocate(0);
        p.allocate(1);
        p.allocate(2);
        p.allocate(0); // 0 is now the *newest* allocation
        assert_eq!(p.pick(), 1);
    }

    #[test]
    #[should_panic(expected = "no eviction candidates")]
    fn empty_picker_panics() {
        let mut p = VictimPicker::new(0, ReplacementPolicy::Lru);
        p.pick();
    }
}
