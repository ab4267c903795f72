//! The exploration driver: shard the enumeration, execute it in
//! checkpointed chunks through the sweep runner's frontend cache,
//! persist every evaluated point to the ledger, and derive the Pareto
//! fronts from the ledger alone.
//!
//! The resume invariant the integration tests pin: **a run interrupted
//! at any checkpoint and resumed produces a byte-identical ledger and
//! front file to an uninterrupted run.** The driver earns that by
//! construction — records are appended strictly in shard point order,
//! resume replays the ledger and continues after the last intact
//! record (truncating a half-written tail first), and the front is
//! always recomputed from the full ledger, never from in-memory state
//! that an interruption could have lost.

use crate::cost::point_cost;
use crate::ledger::{encode_header, encode_record, parse, LedgerError, LedgerHeader, LedgerRecord};
use crate::memo::{encode_memo_header, encode_memo_record, memo_key, parse_memo, MemoRecord};
use crate::pareto::ParetoFront;
use crate::spec::{shard_of, workload_builder, ExploreSpec, Point};
use nsf_bench::Sweep;
use nsf_sim::SpecError;
use nsf_trace::frame::{truncate_to, write_atomic};
use nsf_trace::{stream_fingerprint, StreamStore};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default points per checkpoint chunk: wide enough that a chunk's
/// frontend groups clear the sweep runner's capture threshold
/// ([`Sweep::MIN_CAPTURE_GROUP`]), small enough that an interrupted
/// run loses little work.
pub const DEFAULT_CHUNK: usize = 64;

/// A failure of one exploration run.
#[derive(Debug)]
pub enum ExploreError {
    /// The spec (or an engine string it enumerated) is malformed.
    Spec(SpecError),
    /// The ledger could not be read, written or trusted.
    Ledger(LedgerError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Spec(e) => e.fmt(f),
            ExploreError::Ledger(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SpecError> for ExploreError {
    fn from(e: SpecError) -> Self {
        ExploreError::Spec(e)
    }
}

impl From<LedgerError> for ExploreError {
    fn from(e: LedgerError) -> Self {
        ExploreError::Ledger(e)
    }
}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        ExploreError::Ledger(LedgerError::Io(e))
    }
}

/// A configured exploration: one spec, one shard, one output directory.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// What to explore.
    pub spec: ExploreSpec,
    /// This run's shard (0-based).
    pub shard_index: u32,
    /// Total shards the enumeration is partitioned into.
    pub shard_count: u32,
    /// Where the ledger and front land.
    pub out_dir: PathBuf,
    /// Sweep worker threads.
    pub threads: usize,
    /// Points per checkpoint chunk.
    pub chunk: usize,
    /// Stop (successfully) after this many checkpoints — deterministic
    /// interruption for the resume tests and the CI smoke job.
    pub stop_after: Option<u64>,
    /// Suppress progress commentary on stderr.
    pub quiet: bool,
    /// Persistent content-addressed store directory: frontend event
    /// streams ([`StreamStore`], shared with the sweep harness) plus
    /// the per-point result memo (`explore_memo.nsfm`). `None` runs
    /// store-less — every point simulates live.
    pub store_dir: Option<PathBuf>,
}

/// What one [`Explorer::run`] did.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreOutcome {
    /// Points in the full enumeration.
    pub total_points: u64,
    /// Points assigned to this shard.
    pub shard_points: u64,
    /// Points found already evaluated in the ledger.
    pub resumed: u64,
    /// Points newly evaluated by this invocation.
    pub evaluated: u64,
    /// Of [`ExploreOutcome::evaluated`], points served from the result
    /// memo without simulating.
    pub memoized: u64,
    /// Checkpoints written by this invocation.
    pub checkpoints: u64,
    /// Points offered to the fronts and pruned as dominated.
    pub pruned: u64,
    /// Total surviving front members across workloads.
    pub front_size: u64,
    /// `false` when [`Explorer::stop_after`] ended the run early.
    pub completed: bool,
    /// Where the ledger lives.
    pub ledger_path: PathBuf,
    /// Where the front rendering lives.
    pub front_path: PathBuf,
    /// Wall time of this invocation (excluded from all artifacts).
    pub elapsed: Duration,
}

impl Explorer {
    /// An explorer with default execution parameters: single shard,
    /// all cores.
    pub fn new(spec: ExploreSpec, out_dir: PathBuf) -> Self {
        Explorer {
            spec,
            shard_index: 0,
            shard_count: 1,
            out_dir,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk: DEFAULT_CHUNK,
            stop_after: None,
            quiet: false,
            store_dir: None,
        }
    }

    /// This shard's ledger file.
    pub fn ledger_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "explore_shard{}of{}.nsfx",
            self.shard_index, self.shard_count
        ))
    }

    /// This shard's rendered Pareto front.
    pub fn front_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "explore_front_shard{}of{}.txt",
            self.shard_index, self.shard_count
        ))
    }

    /// The header every ledger of this exploration must carry.
    fn header(&self, shard_points: u64) -> LedgerHeader {
        LedgerHeader {
            fingerprint: self.spec.fingerprint(),
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            shard_points,
        }
    }

    /// Opens (or creates) the ledger, validates it against this run,
    /// truncates any interrupted tail, and returns the intact records.
    fn open_ledger(&self, shard_pts: &[Point]) -> Result<Vec<LedgerRecord>, ExploreError> {
        let path = self.ledger_path();
        let expected = self.header(shard_pts.len() as u64);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&path, &[&encode_header(&expected)])?;
                return Ok(Vec::new());
            }
            Err(e) => return Err(e.into()),
        };
        let parsed = parse(&bytes)?;
        check_identity(&expected, &parsed.header)?;
        check_records(&parsed.records, shard_pts)?;
        // A crash mid-append left a partial record; cut back to the last
        // intact boundary so appending resumes cleanly.
        truncate_to(&path, parsed.valid_len)?;
        Ok(parsed.records)
    }

    /// Runs (or resumes) the exploration.
    pub fn run(&self) -> Result<ExploreOutcome, ExploreError> {
        let t0 = Instant::now();
        self.spec.validate()?;
        assert!(
            self.shard_count > 0 && self.shard_index < self.shard_count,
            "shard {}/{} out of range",
            self.shard_index,
            self.shard_count
        );
        let points = self.spec.enumerate();
        let shard_pts = shard_points(&points, self.shard_index, self.shard_count);
        fs::create_dir_all(&self.out_dir)?;
        let resumed = self.open_ledger(&shard_pts)?.len();
        let mut ctx = match &self.store_dir {
            None => None,
            Some(dir) => Some(StoreCtx::open(dir)?),
        };

        let mut ledger = fs::OpenOptions::new()
            .append(true)
            .open(self.ledger_path())?;
        let mut evaluated = 0u64;
        let mut memoized = 0u64;
        let mut checkpoints = 0u64;
        let mut completed = true;
        for chunk in shard_pts[resumed..].chunks(self.chunk.max(1)) {
            let (records, hits) = self.run_chunk(chunk, ctx.as_mut())?;
            let mut bytes = Vec::new();
            for rec in &records {
                bytes.extend(encode_record(rec));
            }
            ledger.write_all(&bytes)?;
            ledger.flush()?;
            evaluated += chunk.len() as u64;
            memoized += hits;
            checkpoints += 1;
            if !self.quiet {
                eprintln!(
                    "nsf-explore: checkpoint {checkpoints}: {} / {} shard points",
                    resumed as u64 + evaluated,
                    shard_pts.len()
                );
            }
            if self.stop_after.is_some_and(|n| checkpoints >= n) {
                completed = resumed as u64 + evaluated >= shard_pts.len() as u64;
                break;
            }
        }
        drop(ledger);

        // The fronts come from the ledger, not from this invocation's
        // in-memory results: a resumed run and a straight-through run
        // read identical bytes, so they render identical fronts.
        let bytes = fs::read(self.ledger_path())?;
        let records = parse(&bytes)?.records;
        let fronts = build_fronts(&points, &records);
        fs::write(
            self.front_path(),
            render_front(&self.spec, &points, &records),
        )?;

        let (mut pruned, mut front_size) = (0u64, 0u64);
        for f in fronts.values() {
            pruned += f.pruned();
            front_size += f.len() as u64;
        }
        Ok(ExploreOutcome {
            total_points: points.len() as u64,
            shard_points: shard_pts.len() as u64,
            resumed: resumed as u64,
            evaluated,
            memoized,
            checkpoints,
            pruned,
            front_size,
            completed,
            ledger_path: self.ledger_path(),
            front_path: self.front_path(),
            elapsed: t0.elapsed(),
        })
    }

    /// Evaluates one chunk: memo hits synthesize their ledger records
    /// directly; the rest run through the sweep runner's frontend cache
    /// (stream-store-backed when a store is open) and are appended to
    /// the memo for every later chunk, shard, or run. Returns the
    /// records in chunk order plus the memo-hit count. With `ctx:
    /// None` every point simulates live, exactly as before.
    fn run_chunk(
        &self,
        chunk: &[Point],
        mut ctx: Option<&mut StoreCtx>,
    ) -> Result<(Vec<LedgerRecord>, u64), ExploreError> {
        // Every distinct workload of the chunk, built once and
        // registered up front: the sweep is also where the content keys
        // read workloads from.
        let mut sweep = Sweep::new();
        let mut sweep_of: HashMap<usize, usize> = HashMap::new();
        for p in chunk {
            if let std::collections::hash_map::Entry::Vacant(e) = sweep_of.entry(p.workload) {
                let name = &self.spec.workloads[p.workload];
                e.insert(sweep.workload(workload_builder(name)?(self.spec.scale)));
            }
        }

        // Content keys, and the hit/miss split. A point whose frontend
        // cannot be fingerprinted (or with no store open) simply never
        // memoizes. The misses run as the sweep's points, in chunk order.
        let mut records: Vec<Option<LedgerRecord>> = vec![None; chunk.len()];
        let mut keys: Vec<Option<u64>> = vec![None; chunk.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, p) in chunk.iter().enumerate() {
            let w = sweep_of[&p.workload];
            if let Some(c) = ctx.as_deref_mut() {
                keys[i] = stream_fingerprint(&sweep.workloads[w], &p.sim_config()?)
                    .map(|fp| memo_key(fp, &p.engine, nsf_vlsi::MODEL_VERSION));
                if let Some(m) = keys[i].and_then(|k| c.memo.get(&k)) {
                    records[i] = Some(LedgerRecord {
                        point_idx: p.idx,
                        instructions: m.instructions,
                        cycles: m.cycles,
                        cost: m.cost,
                    });
                    continue;
                }
            }
            misses.push(i);
            sweep.point(w, p.sim_config()?);
        }
        let hits = (chunk.len() - misses.len()) as u64;

        let store = ctx.as_deref().map(|c| &c.store);
        let reports = sweep.run_stored(self.threads, store);

        let mut memo_bytes = Vec::new();
        for (&i, report) in misses.iter().zip(&reports) {
            let p = &chunk[i];
            let rec = LedgerRecord {
                point_idx: p.idx,
                instructions: report.instructions,
                cycles: report.cycles,
                cost: point_cost(&p.regfile()?, report),
            };
            records[i] = Some(rec);
            if let (Some(c), Some(k)) = (ctx.as_deref_mut(), keys[i]) {
                let m = MemoRecord {
                    key: k,
                    instructions: rec.instructions,
                    cycles: rec.cycles,
                    cost: rec.cost,
                };
                memo_bytes.extend(encode_memo_record(&m));
                c.memo.insert(k, m);
            }
        }
        if let Some(c) = ctx {
            if !memo_bytes.is_empty() {
                c.file.write_all(&memo_bytes)?;
                c.file.flush()?;
            }
        }
        let records = records
            .into_iter()
            .map(|r| r.expect("every chunk point resolved"))
            .collect();
        Ok((records, hits))
    }
}

/// An open persistent store: the shared frontend [`StreamStore`] plus
/// the explorer's result memo (loaded map + append handle).
struct StoreCtx {
    store: StreamStore,
    memo: HashMap<u64, MemoRecord>,
    file: fs::File,
}

impl StoreCtx {
    /// The memo file inside a store directory.
    fn memo_path(dir: &Path) -> PathBuf {
        dir.join("explore_memo.nsfm")
    }

    /// Opens (or creates) the store directory and loads the memo. The
    /// memo is advisory, so damage is never fatal: a torn tail is
    /// truncated at the last intact record, and a corrupt or foreign
    /// header discards the file and starts a fresh one — the run just
    /// re-simulates what was lost.
    fn open(dir: &Path) -> Result<StoreCtx, ExploreError> {
        fs::create_dir_all(dir)?;
        let path = Self::memo_path(dir);
        let mut memo = HashMap::new();
        match fs::read(&path).map(|bytes| parse_memo(&bytes)) {
            Ok(Ok(parsed)) => {
                truncate_to(&path, parsed.valid_len)?;
                memo.extend(parsed.records.into_iter().map(|r| (r.key, r)));
            }
            Ok(Err(_)) => write_atomic(&path, &[&encode_memo_header()])?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&path, &[&encode_memo_header()])?;
            }
            Err(e) => return Err(e.into()),
        }
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(StoreCtx {
            store: StreamStore::open(dir.to_path_buf()),
            memo,
            file,
        })
    }
}

/// Checks a ledger's header against the one this run (or merge)
/// expects, field by field.
fn check_identity(expected: &LedgerHeader, found: &LedgerHeader) -> Result<(), LedgerError> {
    for (field, expected, found) in [
        ("fingerprint", expected.fingerprint, found.fingerprint),
        (
            "shard index",
            expected.shard_index.into(),
            found.shard_index.into(),
        ),
        (
            "shard count",
            expected.shard_count.into(),
            found.shard_count.into(),
        ),
        ("shard points", expected.shard_points, found.shard_points),
    ] {
        if expected != found {
            return Err(LedgerError::Mismatch {
                field,
                expected,
                found,
            });
        }
    }
    Ok(())
}

/// Checks that `records` name `shard_pts` in order — a prefix of them.
/// Anything else (an index out of range, from another shard, repeated
/// or out of order, or too many records) means the ledger belongs to a
/// different enumeration.
fn check_records(records: &[LedgerRecord], shard_pts: &[Point]) -> Result<(), LedgerError> {
    if records.len() > shard_pts.len() {
        return Err(LedgerError::Mismatch {
            field: "record count",
            expected: shard_pts.len() as u64,
            found: records.len() as u64,
        });
    }
    for (i, (rec, p)) in records.iter().zip(shard_pts).enumerate() {
        if rec.point_idx != p.idx {
            return Err(LedgerError::OutOfSequence {
                record: i as u64,
                expected: p.idx,
                found: rec.point_idx,
            });
        }
    }
    Ok(())
}

/// The points of `points` that shard `index` of `count` evaluates, in
/// order.
fn shard_points(points: &[Point], index: u32, count: u32) -> Vec<Point> {
    points
        .iter()
        .filter(|p| shard_of(p.idx, count) == index)
        .cloned()
        .collect()
}

/// Folds records into one Pareto front per workload (keyed by workload
/// index in the spec).
pub fn build_fronts(
    points: &[Point],
    records: &[LedgerRecord],
) -> std::collections::BTreeMap<usize, ParetoFront> {
    let mut fronts = std::collections::BTreeMap::new();
    for rec in records {
        let p = &points[rec.point_idx as usize];
        fronts
            .entry(p.workload)
            .or_insert_with(ParetoFront::new)
            .insert(rec.point_idx, rec.cost);
    }
    fronts
}

/// Renders the canonical front file. Depends only on the *set* of
/// records (insertion order cannot matter — the front is
/// order-invariant and members are sorted by index), so merged shards
/// and a single-shard run render byte-identical files.
pub fn render_front(spec: &ExploreSpec, points: &[Point], records: &[LedgerRecord]) -> String {
    use std::fmt::Write as _;
    let fronts = build_fronts(points, records);
    let mut out = String::new();
    writeln!(out, "nsf-explore pareto front v1").unwrap();
    writeln!(out, "spec {}", spec.canonical()).unwrap();
    writeln!(out, "fingerprint {:016x}", spec.fingerprint()).unwrap();
    writeln!(out, "records {}", records.len()).unwrap();
    for (wl, front) in &fronts {
        let name = spec.workloads[*wl].as_str();
        writeln!(
            out,
            "workload {name}: front {} of {}",
            front.len(),
            front.inserted()
        )
        .unwrap();
        for m in front.members() {
            let p = &points[m.idx as usize];
            writeln!(
                out,
                "  {} {} cache={} reloads/instr={:.6} util={:.6} area_um2={:.1} access_ns={:.3}",
                m.idx,
                p.engine,
                p.cache,
                m.cost.reloads_per_instr,
                m.cost.utilization,
                m.cost.area_um2,
                m.cost.access_ns,
            )
            .unwrap();
        }
    }
    out
}

/// Merges completed shard ledgers into the full record set and renders
/// the combined front. Every shard of the exploration must be present
/// exactly once, complete, fingerprint-matched to `spec`, and hold
/// exactly its own points in order.
pub fn merge_ledgers(
    spec: &ExploreSpec,
    ledgers: &[Vec<u8>],
) -> Result<(Vec<LedgerRecord>, String), ExploreError> {
    spec.validate()?;
    let points = spec.enumerate();
    let count = ledgers.len() as u32;
    let mut seen = vec![false; ledgers.len()];
    let mut all: Vec<LedgerRecord> = Vec::new();
    for bytes in ledgers {
        let parsed = parse(bytes)?;
        let index = parsed.header.shard_index;
        if index >= count || seen[index as usize] {
            return Err(LedgerError::Mismatch {
                field: "shard index",
                expected: count.into(),
                found: index.into(),
            }
            .into());
        }
        seen[index as usize] = true;
        let shard_pts = shard_points(&points, index, count);
        let expected = LedgerHeader {
            fingerprint: spec.fingerprint(),
            shard_index: index,
            shard_count: count,
            shard_points: shard_pts.len() as u64,
        };
        check_identity(&expected, &parsed.header)?;
        check_records(&parsed.records, &shard_pts)?;
        if parsed.records.len() < shard_pts.len() {
            return Err(LedgerError::Mismatch {
                field: "shard points",
                expected: shard_pts.len() as u64,
                found: parsed.records.len() as u64,
            }
            .into());
        }
        all.extend(parsed.records);
    }
    all.sort_by_key(|r| r.point_idx);
    if all.len() != points.len() {
        return Err(LedgerError::Mismatch {
            field: "merged records",
            expected: points.len() as u64,
            found: all.len() as u64,
        }
        .into());
    }
    let rendered = render_front(spec, &points, &all);
    Ok((all, rendered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::PointCost;
    use crate::spec::{CacheGeom, Family};

    fn spec() -> ExploreSpec {
        ExploreSpec {
            families: vec![Family::Nsf, Family::Segmented],
            total_regs: vec![48, 64, 80],
            line_sizes: vec![1, 2],
            contexts: vec![2],
            caches: vec![CacheGeom::sparc2()],
            workloads: vec!["gatesim".into()],
            scale: 0,
        }
    }

    /// A complete two-shard ledger for shard `index`, with the record
    /// indices `idx` (the shard's own points unless a test forges them).
    fn shard(spec: &ExploreSpec, index: u32, idx: &[u64]) -> Vec<u8> {
        let points = spec.enumerate();
        let mut bytes = encode_header(&LedgerHeader {
            fingerprint: spec.fingerprint(),
            shard_index: index,
            shard_count: 2,
            shard_points: shard_points(&points, index, 2).len() as u64,
        });
        for &point_idx in idx {
            bytes.extend(encode_record(&LedgerRecord {
                point_idx,
                instructions: 1,
                cycles: 1,
                cost: PointCost {
                    reloads_per_instr: 0.0,
                    utilization: 0.0,
                    area_um2: 0.0,
                    access_ns: 0.0,
                },
            }));
        }
        bytes
    }

    #[test]
    fn merge_rejects_records_outside_their_shard() {
        let spec = spec();
        let points = spec.enumerate();
        let own = |i| -> Vec<u64> { shard_points(&points, i, 2).iter().map(|p| p.idx).collect() };
        let (even, odd) = (own(0), own(1));
        assert!(merge_ledgers(&spec, &[shard(&spec, 0, &even), shard(&spec, 1, &odd)]).is_ok());
        let n = points.len() as u64;
        let mut out_of_range = even.clone();
        *out_of_range.last_mut().unwrap() = n + 40;
        let mut wrong_shard = even.clone();
        wrong_shard[1] = odd[0];
        let mut repeated = even.clone();
        repeated[2] = repeated[1];
        let mut swapped = even.clone();
        swapped.swap(0, 1);
        for (name, forged) in [
            ("out of range", out_of_range),
            ("wrong shard", wrong_shard),
            ("repeated", repeated),
            ("out of order", swapped),
        ] {
            let got = merge_ledgers(&spec, &[shard(&spec, 0, &forged), shard(&spec, 1, &odd)]);
            assert!(
                matches!(
                    got,
                    Err(ExploreError::Ledger(LedgerError::OutOfSequence { .. }))
                ),
                "{name}: {got:?}"
            );
        }
    }
}
