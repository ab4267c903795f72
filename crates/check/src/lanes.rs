//! The engine *lanes* the checker drives: every register-file
//! organization, grouped into families so fuzzing budgets and CI smoke
//! steps can be sliced per family.
//!
//! Lane configurations are deliberately small (16-register contexts, a
//! handful of frames or lines) so a ~150-op stream creates real capacity
//! pressure — evictions, frame replacement and window overflow are the
//! code paths differential testing exists for. Specs are the
//! [`nsf_trace::parse_engine`] strings, so a lane name in a divergence
//! report is directly replayable from the command line.

use nsf_core::{EngineDispatch, RegFileStats};
use nsf_trace::parse_engine;

/// An engine family under test. Families partition the lane list; the
/// oracle is not a family — every family is checked against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The Named-State Register File at several line widths.
    Nsf,
    /// Segmented files: hardware engine, frame counts, valid-only policy.
    Segmented,
    /// The software-trap spill engine, twinned with its hardware
    /// counterpart: identical traffic, different cycle costs.
    SegmentedSw,
    /// The SPARC-style windowed file.
    Windowed,
    /// The conventional single-context file, twinned with the
    /// one-frame segmented file it is defined to be.
    Conventional,
}

impl Family {
    /// Every family, in a stable order.
    pub const ALL: [Family; 5] = [
        Family::Nsf,
        Family::Segmented,
        Family::SegmentedSw,
        Family::Windowed,
        Family::Conventional,
    ];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Nsf => "nsf",
            Family::Segmented => "segmented",
            Family::SegmentedSw => "segmented-sw",
            Family::Windowed => "windowed",
            Family::Conventional => "conventional",
        }
    }

    /// Parses a command-line family name.
    pub fn from_name(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Engine specs this family runs in lockstep. All lanes accept
    /// 16-register contexts (the generator's offset width).
    pub fn lanes(self) -> &'static [&'static str] {
        match self {
            // 16 single-register lines (heavy eviction), then wider lines
            // exercising whole-line reload and partial-line validity.
            Family::Nsf => &["nsf:16", "nsf:32x2", "nsf:48x4"],
            // Frame replacement at two capacities, plus valid-only
            // transfers which move a different register subset.
            Family::Segmented => &["segmented:2x16", "segmented:4x16", "segmented-valid:3x16"],
            Family::SegmentedSw => &["segmented-sw:2x16", "segmented:2x16"],
            // Eight windows of 16; call chains deeper than eight overflow.
            Family::Windowed => &["windowed:16"],
            Family::Conventional => &["conventional:16", "segmented:1x16"],
        }
    }

    /// A lane pair whose *traffic counts* must match exactly: the
    /// organizations differ only in cycle accounting. The twin check
    /// catches stat drift that value comparison cannot see.
    pub fn twins(self) -> Option<(&'static str, &'static str)> {
        match self {
            Family::SegmentedSw => Some(("segmented-sw:2x16", "segmented:2x16")),
            Family::Conventional => Some(("conventional:16", "segmented:1x16")),
            _ => None,
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds the engine behind a lane spec.
///
/// # Panics
///
/// Panics on an unparseable or unbuildable spec — lane lists are
/// compile-time constants, so that is a checker bug, not an input error.
pub fn build_lane(spec: &str) -> EngineDispatch {
    parse_engine(spec)
        .unwrap_or_else(|e| panic!("lane spec must parse: {e}"))
        .build()
        .expect("lane spec must build")
}

/// The traffic counters two twin lanes must agree on — every
/// [`RegFileStats`] field except `spill_reload_cycles`, which is the one
/// axis twins legitimately differ in. (`port_conflict_cycles` is charged
/// by the pipeline frontend, never by an engine, so twins trivially
/// agree on 0 — keeping it here pins that contract.)
pub fn traffic_counts(s: &RegFileStats) -> impl Iterator<Item = (&'static str, u64)> {
    s.fields()
        .into_iter()
        .filter(|&(name, _)| name != "spill_reload_cycles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::RegisterFile;

    #[test]
    fn every_lane_spec_builds() {
        for family in Family::ALL {
            for spec in family.lanes() {
                let engine = build_lane(spec);
                assert!(!engine.describe().is_empty(), "{spec}");
                assert!(engine.capacity() >= 16, "{spec} narrower than streams");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::from_name(family.name()), Some(family));
        }
        assert_eq!(Family::from_name("orace"), None);
    }

    #[test]
    fn twins_are_listed_lanes() {
        for family in Family::ALL {
            if let Some((a, b)) = family.twins() {
                assert!(family.lanes().contains(&a));
                assert!(family.lanes().contains(&b));
            }
        }
    }
}
