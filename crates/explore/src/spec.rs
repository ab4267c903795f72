//! The declarative exploration spec: which axes to cross, and the
//! deterministic enumeration of the resulting design points.
//!
//! A [`ExploreSpec`] names value lists along six axes — engine family,
//! total registers, NSF line size, segmented context count, data-cache
//! geometry and workload mix — and [`ExploreSpec::enumerate`] crosses
//! them into a canonically ordered list of [`Point`]s. Points that no
//! hardware could build (a line that does not divide the file, a frame
//! larger than the backing-store stride) are skipped *during*
//! enumeration, so indices are dense and every shard agrees on them.
//!
//! Each point carries its engine as a string in the shared engine-spec
//! grammar ([`nsf_sim::spec`]) — the same strings `trace_tool` flags
//! and `.nsftrace` headers use — and is materialized by the same
//! [`parse_engine`] parser, so the explorer cannot drift from the rest
//! of the toolchain on what a name means.

use nsf_mem::CacheConfig;
use nsf_sim::{parse_engine, RegFileSpec, SimConfig, SpecError, BACKING_STRIDE_WORDS};
use nsf_workloads::{Benchmark, Workload, BENCHMARKS};
use std::fmt;

/// Engine families the explorer can sweep (the spec-grammar kinds,
/// minus the differential-testing oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The Named-State Register File.
    Nsf,
    /// Segmented file, hardware-assisted spills.
    Segmented,
    /// Segmented file, software trap handlers.
    SegmentedSw,
    /// Segmented file, per-register valid bits.
    SegmentedValid,
    /// SPARC-like 8-window file.
    Windowed,
    /// Conventional single-context file.
    Conventional,
}

impl Family {
    /// All sweepable families, in canonical order.
    pub const ALL: [Family; 6] = [
        Family::Nsf,
        Family::Segmented,
        Family::SegmentedSw,
        Family::SegmentedValid,
        Family::Windowed,
        Family::Conventional,
    ];

    /// The family's engine-spec grammar kind.
    pub fn kind(self) -> &'static str {
        match self {
            Family::Nsf => "nsf",
            Family::Segmented => "segmented",
            Family::SegmentedSw => "segmented-sw",
            Family::SegmentedValid => "segmented-valid",
            Family::Windowed => "windowed",
            Family::Conventional => "conventional",
        }
    }

    /// Parses a grammar kind back into a family.
    pub fn parse(kind: &str) -> Result<Self, SpecError> {
        Family::ALL
            .into_iter()
            .find(|f| f.kind() == kind)
            .ok_or_else(|| SpecError {
                spec: kind.to_string(),
                reason: "unknown engine family",
            })
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())
    }
}

/// A swept data-cache geometry. Hit and miss latencies stay at the
/// Sparc-2 calibration ([`CacheConfig::sparc2_dcache`]) — the axis
/// varies *geometry*, which is what register spill traffic contends
/// with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in words.
    pub capacity_words: u32,
    /// Line length in words.
    pub line_words: u32,
    /// Ways per set.
    pub ways: u32,
}

impl CacheGeom {
    /// The paper's measurement cache.
    pub fn sparc2() -> Self {
        let c = CacheConfig::sparc2_dcache();
        CacheGeom {
            capacity_words: c.capacity_words,
            line_words: c.line_words,
            ways: c.ways,
        }
    }

    /// Parses `"sparc2"` or `<capacity>x<line>x<ways>` (words).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        if s == "sparc2" {
            return Ok(CacheGeom::sparc2());
        }
        let err = |reason| SpecError {
            spec: s.to_string(),
            reason,
        };
        let mut it = s.split('x');
        let mut next = |reason| -> Result<u32, SpecError> {
            it.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(reason))
        };
        let g = CacheGeom {
            capacity_words: next("expected <capacity>x<line>x<ways>")?,
            line_words: next("expected <capacity>x<line>x<ways>")?,
            ways: next("expected <capacity>x<line>x<ways>")?,
        };
        if it.next().is_some() {
            return Err(err("trailing cache fields"));
        }
        if g.capacity_words == 0 || g.line_words == 0 || g.ways == 0 {
            return Err(err("cache fields must be nonzero"));
        }
        if !g.line_words.is_power_of_two() {
            return Err(err("cache line must be a power of two"));
        }
        if !g.capacity_words.is_multiple_of(g.line_words * g.ways) {
            return Err(err("line x ways must divide capacity"));
        }
        Ok(g)
    }

    /// The full cache configuration (Sparc-2 latencies).
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            capacity_words: self.capacity_words,
            line_words: self.line_words,
            ways: self.ways,
            ..CacheConfig::sparc2_dcache()
        }
    }
}

impl fmt::Display for CacheGeom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.capacity_words, self.line_words, self.ways
        )
    }
}

/// The paper benchmark an axis names (exact CLI spelling).
fn workload_entry(name: &str) -> Result<&'static Benchmark, SpecError> {
    BENCHMARKS
        .iter()
        .find(|b| b.cli == name)
        .ok_or_else(|| SpecError {
            spec: name.to_string(),
            reason: "unknown workload",
        })
}

/// Resolves an axis workload name (CLI spelling) to its builder.
pub fn workload_builder(name: &str) -> Result<fn(u32) -> Workload, SpecError> {
    workload_entry(name).map(|b| b.build)
}

/// Registers one context of `name`'s programs must address: the
/// paper's per-context allocations (20 sequential, 32 parallel). An
/// organization whose frame/window cannot hold a full context cannot
/// run the workload and is skipped during enumeration.
pub fn workload_ctx_regs(name: &str) -> Result<u32, SpecError> {
    workload_entry(name).map(|b| {
        if b.parallel {
            u32::from(nsf_bench::PAR_CTX_REGS)
        } else {
            u32::from(nsf_bench::SEQ_CTX_REGS)
        }
    })
}

/// The declarative cross-product. Every axis is a value list; the
/// enumeration is their cross, filtered to buildable combinations.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreSpec {
    /// Engine families to sweep.
    pub families: Vec<Family>,
    /// Total register counts.
    pub total_regs: Vec<u32>,
    /// NSF registers per line (applies to [`Family::Nsf`] only).
    pub line_sizes: Vec<u8>,
    /// Segmented context (frame) counts (applies to the segmented
    /// families only).
    pub contexts: Vec<u32>,
    /// Data-cache geometries.
    pub caches: Vec<CacheGeom>,
    /// Workload mix, by CLI name (see [`nsf_workloads::BENCHMARKS`]).
    pub workloads: Vec<String>,
    /// Problem size (0 = smoke, 1 = the evaluation size).
    pub scale: u32,
}

impl ExploreSpec {
    /// The default exploration: NSF vs segmented across four file sizes,
    /// three line widths and two context counts, on the two fastest
    /// sequential benchmarks under the paper's cache.
    pub fn default_spec(scale: u32) -> Self {
        ExploreSpec {
            families: vec![Family::Nsf, Family::Segmented],
            total_regs: vec![48, 64, 80, 128],
            line_sizes: vec![1, 2, 4],
            contexts: vec![2, 4],
            caches: vec![CacheGeom::sparc2()],
            workloads: vec!["gatesim".into(), "zipfile".into()],
            scale,
        }
    }

    /// A stable 64-bit fingerprint of the spec, stored in ledger headers
    /// so a resumed run cannot silently continue someone else's sweep.
    pub fn fingerprint(&self) -> u64 {
        nsf_trace::frame::fnv64(self.canonical().as_bytes())
    }

    /// The canonical one-line rendering the fingerprint hashes.
    pub fn canonical(&self) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        format!(
            "families={};regs={};lines={};contexts={};caches={};workloads={};scale={}",
            join(self.families.iter().map(|f| f.to_string()).collect()),
            join(self.total_regs.iter().map(|v| v.to_string()).collect()),
            join(self.line_sizes.iter().map(|v| v.to_string()).collect()),
            join(self.contexts.iter().map(|v| v.to_string()).collect()),
            join(self.caches.iter().map(|c| c.to_string()).collect()),
            join(self.workloads.clone()),
            self.scale,
        )
    }

    /// Validates the axes: every workload must resolve and no axis may
    /// be empty.
    pub fn validate(&self) -> Result<(), SpecError> {
        let axis = |name: &'static str, empty: bool| {
            if empty {
                Err(SpecError {
                    spec: name.to_string(),
                    reason: "axis is empty",
                })
            } else {
                Ok(())
            }
        };
        axis("families", self.families.is_empty())?;
        axis("regs", self.total_regs.is_empty())?;
        axis("lines", self.line_sizes.is_empty())?;
        axis("contexts", self.contexts.is_empty())?;
        axis("caches", self.caches.is_empty())?;
        axis("workloads", self.workloads.is_empty())?;
        for w in &self.workloads {
            workload_builder(w)?;
        }
        Ok(())
    }

    /// Enumerates the cross-product in canonical order — workload-major,
    /// then cache, then family, then size, innermost the family's own
    /// axis — and assigns dense indices. The order is load-bearing
    /// twice: shard partitions are defined over these indices, and all
    /// engine points of one (workload, cache) pair are consecutive so
    /// the sweep runner's frontend cache captures each frontend once.
    pub fn enumerate(&self) -> Vec<Point> {
        let mut points = Vec::new();
        for (wl, name) in self.workloads.iter().enumerate() {
            // An unknown workload enumerates nothing; `validate`
            // reports it as a typed error before any run.
            let ctx_regs = workload_ctx_regs(name).unwrap_or(u32::MAX);
            for &cache in &self.caches {
                for &family in &self.families {
                    for &regs in &self.total_regs {
                        self.engines(family, regs, ctx_regs, |engine| {
                            points.push(Point {
                                idx: points.len() as u64,
                                workload: wl,
                                workload_name: name.clone(),
                                engine,
                                cache,
                            });
                        });
                    }
                }
            }
        }
        points
    }

    /// Emits the engine-spec strings of one (family, size) cell,
    /// skipping unbuildable combinations deterministically. `ctx_regs`
    /// is the workload's per-context register requirement: a frame,
    /// window or single-context file smaller than one context cannot
    /// run the program at all.
    fn engines(&self, family: Family, regs: u32, ctx_regs: u32, mut emit: impl FnMut(String)) {
        let stride = BACKING_STRIDE_WORDS;
        match family {
            Family::Nsf => {
                for &line in &self.line_sizes {
                    // A line must divide both the file and a 32-register
                    // context (the CAM tags `<CID : line#>`).
                    let l = u32::from(line);
                    if l > 0 && regs.is_multiple_of(l) && 32u32.is_multiple_of(l) {
                        emit(format!("nsf:{regs}x{line}"));
                    }
                }
            }
            Family::Segmented | Family::SegmentedSw | Family::SegmentedValid => {
                for &frames in &self.contexts {
                    // Frames partition the file evenly, hold at least
                    // one full context, and one frame's spill must fit
                    // the backing-store stride.
                    if frames == 0 || !regs.is_multiple_of(frames) {
                        continue;
                    }
                    let frame_regs = regs / frames;
                    if frame_regs < ctx_regs || frame_regs > stride {
                        continue;
                    }
                    emit(format!("{}:{frames}x{frame_regs}", family.kind()));
                }
            }
            Family::Windowed => {
                // Eight fixed windows, each holding a full context; a
                // window's flush must fit the backing-store stride.
                let window = regs / 8;
                if regs.is_multiple_of(8) && window >= ctx_regs && window <= stride {
                    emit(format!("windowed:{window}"));
                }
            }
            Family::Conventional => {
                // One context lives in the file; the whole file spills
                // on a switch.
                if regs >= ctx_regs && regs <= stride {
                    emit(format!("conventional:{regs}"));
                }
            }
        }
    }
}

/// One enumerated design point.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Dense index in the canonical full enumeration.
    pub idx: u64,
    /// Index into [`ExploreSpec::workloads`].
    pub workload: usize,
    /// The workload's CLI name (for rendering and grouping).
    pub workload_name: String,
    /// Engine in the shared spec grammar (`nsf:80x1`, ...).
    pub engine: String,
    /// Swept data-cache geometry.
    pub cache: CacheGeom,
}

impl Point {
    /// The engine as a buildable [`RegFileSpec`] (through the shared
    /// grammar parser — the explorer has no private reading of a name).
    pub fn regfile(&self) -> Result<RegFileSpec, SpecError> {
        parse_engine(&self.engine)
    }

    /// The full simulator configuration of this point.
    pub fn sim_config(&self) -> Result<SimConfig, SpecError> {
        let mut cfg = SimConfig::with_regfile(self.regfile()?);
        cfg.mem.dcache = self.cache.cache_config();
        Ok(cfg)
    }
}

/// The shard a point belongs to under round-robin partitioning.
pub fn shard_of(idx: u64, shard_count: u32) -> u32 {
    (idx % u64::from(shard_count.max(1))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_enumerates_densely_and_deterministically() {
        let spec = ExploreSpec::default_spec(0);
        spec.validate().unwrap();
        let pts = spec.enumerate();
        assert_eq!(pts, spec.enumerate(), "enumeration must be stable");
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.idx, i as u64, "indices must be dense");
            p.sim_config().unwrap_or_else(|e| panic!("{e}"));
        }
        // 2 workloads x 1 cache x (4 regs x 3 lines NSF + 6 segmented
        // — 48/4 and 64/4 frames leave less than one 20-reg context).
        assert_eq!(pts.len(), 2 * (12 + 6));
    }

    #[test]
    fn engine_points_of_a_cell_are_consecutive() {
        let spec = ExploreSpec::default_spec(0);
        let pts = spec.enumerate();
        // Workload/cache only changes at cell boundaries: once a new
        // pair starts, the previous one never reappears.
        let mut seen = Vec::new();
        for p in &pts {
            let cell = (p.workload, p.cache);
            if seen.last() != Some(&cell) {
                assert!(!seen.contains(&cell), "cell split: {cell:?}");
                seen.push(cell);
            }
        }
    }

    #[test]
    fn unbuildable_combinations_are_skipped() {
        let spec = ExploreSpec {
            families: vec![Family::Nsf, Family::Conventional, Family::Windowed],
            total_regs: vec![64, 160],
            line_sizes: vec![1, 3, 16],
            contexts: vec![1],
            caches: vec![CacheGeom::sparc2()],
            workloads: vec!["gatesim".into()],
            scale: 0,
        };
        let engines: Vec<String> = spec.enumerate().into_iter().map(|p| p.engine).collect();
        // Line 3 divides neither file nor context; conventional:160
        // exceeds the 64-word backing stride; windowed 64/8 = 8 is
        // smaller than GateSim's 20-register sequential context.
        assert_eq!(
            engines,
            [
                "nsf:64x1",
                "nsf:64x16",
                "nsf:160x1",
                "nsf:160x16",
                "conventional:64",
                "windowed:20"
            ]
            .map(String::from)
        );
        assert!(!engines.contains(&"windowed:8".to_string()));
    }

    #[test]
    fn shards_partition_the_enumeration() {
        let pts = ExploreSpec::default_spec(0).enumerate();
        let mut counts = [0usize; 3];
        for p in &pts {
            counts[shard_of(p.idx, 3) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), pts.len());
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn cache_geometry_grammar_round_trips() {
        assert_eq!(CacheGeom::parse("sparc2").unwrap(), CacheGeom::sparc2());
        let g = CacheGeom::parse("4096x4x2").unwrap();
        assert_eq!(g.to_string(), "4096x4x2");
        assert_eq!(
            CacheGeom::parse(&CacheGeom::sparc2().to_string()).unwrap(),
            CacheGeom::sparc2()
        );
        for bad in [
            "",
            "4096",
            "4096x4",
            "4096x3x2",
            "0x4x2",
            "100x4x2",
            "4096x4x2x1",
        ] {
            assert!(CacheGeom::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fingerprint_tracks_every_axis() {
        let base = ExploreSpec::default_spec(0);
        let fp = base.fingerprint();
        let mut other = base.clone();
        other.scale = 1;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.total_regs.push(256);
        assert_ne!(fp, other.fingerprint());
        assert_eq!(fp, base.clone().fingerprint());
    }
}
