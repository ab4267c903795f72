//! Collection strategies (`collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

/// A `Vec` of `len`-range length with elements from `elem`.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range in collection::vec");
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.elem.pick(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_stay_in_range_and_cover_it() {
        let mut rng = TestRng::for_case("collection::len", 0);
        let s = vec(0u8..10, 2..6);
        let mut seen = [false; 6];
        for _ in 0..300 {
            let v = s.pick(&mut rng);
            assert!((2..6).contains(&v.len()));
            seen[v.len()] = true;
            assert!(v.iter().all(|&x| x < 10));
        }
        assert!(seen[2] && seen[3] && seen[4] && seen[5]);
    }
}
