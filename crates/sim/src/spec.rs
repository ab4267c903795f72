//! Engine spec strings: a compact, human-typeable naming of the
//! register file organizations. This is the **one** grammar shared by
//! every tool that names an engine on a command line or in a file
//! header: `trace_tool` flags and `.nsftrace` headers (`nsf-trace`),
//! the differential checker's lane lists (`nsf-check`), and the
//! design-space explorer's enumerated points (`nsf-explore`). It lives
//! in `nsf-sim` because a spec parses into a buildable
//! [`RegFileSpec`], which is defined here.
//!
//! Grammar:
//!
//! | spec | organization |
//! |------|--------------|
//! | `nsf:<total>` | paper-default NSF, `<total>` registers |
//! | `nsf:<total>x<line>` | NSF with `<line>`-register lines |
//! | `segmented:<frames>x<regs>` | segmented file, hardware assist |
//! | `segmented-sw:<frames>x<regs>` | segmented file, software traps |
//! | `segmented-valid:<frames>x<regs>` | segmented, per-register valid bits |
//! | `windowed:<regs>` | SPARC-like 8-window file |
//! | `conventional:<regs>` | single-context file, hardware assist |
//! | `oracle` | the infinite differential-testing oracle |

use crate::RegFileSpec;
use nsf_core::{NsfConfig, SpillEngine};
use std::fmt;

/// Failure to parse an engine spec string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec.
    pub spec: String,
    /// Why it did not parse.
    pub reason: &'static str,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad engine spec {:?}: {}", self.spec, self.reason)
    }
}

impl std::error::Error for SpecError {}

fn err(spec: &str, reason: &'static str) -> SpecError {
    SpecError {
        spec: spec.to_string(),
        reason,
    }
}

fn num<T: std::str::FromStr>(spec: &str, s: &str) -> Result<T, SpecError> {
    s.parse().map_err(|_| err(spec, "expected a number"))
}

/// Splits `NxM`, both halves numeric.
fn pair(spec: &str, s: &str) -> Result<(u32, u8), SpecError> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| err(spec, "expected <frames>x<regs>"))?;
    Ok((num(spec, a)?, num(spec, b)?))
}

/// Parses an engine spec string (see the module grammar) into a
/// buildable [`RegFileSpec`].
pub fn parse_engine(spec: &str) -> Result<RegFileSpec, SpecError> {
    if spec == "oracle" {
        return Ok(RegFileSpec::Oracle);
    }
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| err(spec, "expected <kind>:<params>"))?;
    match kind {
        "nsf" => {
            let (total, line) = match rest.split_once('x') {
                Some((t, l)) => (num(spec, t)?, num::<u8>(spec, l)?),
                None => (num(spec, rest)?, 1),
            };
            if total == 0 || line == 0 {
                return Err(err(spec, "sizes must be nonzero"));
            }
            let mut cfg = NsfConfig::paper_default(total);
            cfg.regs_per_line = line;
            Ok(RegFileSpec::Nsf(cfg))
        }
        "segmented" => {
            let (frames, regs) = pair(spec, rest)?;
            Ok(RegFileSpec::paper_segmented(frames, regs))
        }
        "segmented-sw" => {
            let (frames, regs) = pair(spec, rest)?;
            let RegFileSpec::Segmented(mut cfg) = RegFileSpec::paper_segmented(frames, regs) else {
                unreachable!("paper_segmented builds Segmented")
            };
            cfg.engine = SpillEngine::software();
            Ok(RegFileSpec::Segmented(cfg))
        }
        "segmented-valid" => {
            let (frames, regs) = pair(spec, rest)?;
            Ok(RegFileSpec::segmented_valid_only(frames, regs))
        }
        "windowed" => Ok(RegFileSpec::sparc_windows(num(spec, rest)?)),
        "conventional" => Ok(RegFileSpec::Conventional {
            regs: num(spec, rest)?,
            engine: SpillEngine::hardware(),
        }),
        _ => Err(err(spec, "unknown engine kind")),
    }
}

/// The default engine spec a workload records under: the paper's NSF
/// reference points (80 registers sequential, 128 parallel).
pub fn default_engine_spec(parallel: bool) -> &'static str {
    if parallel {
        "nsf:128"
    } else {
        "nsf:80"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::RegisterFile;

    #[test]
    fn all_kinds_parse_and_build() {
        for spec in [
            "nsf:80",
            "nsf:128x4",
            "segmented:4x32",
            "segmented-sw:4x32",
            "segmented-valid:4x32",
            "windowed:16",
            "conventional:32",
            "oracle",
        ] {
            let built = parse_engine(spec)
                .unwrap_or_else(|e| panic!("{e}"))
                .build()
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(!built.describe().is_empty(), "{spec}");
        }
    }

    #[test]
    fn parsed_sizes_land_in_the_config() {
        match parse_engine("nsf:96x2").unwrap() {
            RegFileSpec::Nsf(cfg) => {
                assert_eq!(cfg.total_regs, 96);
                assert_eq!(cfg.regs_per_line, 2);
            }
            other => panic!("wrong spec {other:?}"),
        }
        match parse_engine("segmented:6x20").unwrap() {
            RegFileSpec::Segmented(cfg) => {
                assert_eq!(cfg.frames, 6);
                assert_eq!(cfg.frame_regs, 20);
            }
            other => panic!("wrong spec {other:?}"),
        }
    }

    #[test]
    fn software_variant_gets_trap_engine() {
        match parse_engine("segmented-sw:4x32").unwrap() {
            RegFileSpec::Segmented(cfg) => {
                assert!(matches!(cfg.engine, SpillEngine::SoftwareTrap { .. }))
            }
            other => panic!("wrong spec {other:?}"),
        }
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for spec in [
            "",
            "nsf",
            "nsf:",
            "nsf:0",
            "nsf:80x0",
            "seg:4x32",
            "segmented:4",
            "windowed:x",
        ] {
            let e = parse_engine(spec).unwrap_err();
            assert_eq!(e.spec, spec);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn defaults_match_the_paper_reference_points() {
        assert_eq!(default_engine_spec(false), "nsf:80");
        assert_eq!(default_engine_spec(true), "nsf:128");
    }
}
