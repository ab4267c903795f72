//! The lockstep differential runner.
//!
//! Every lane of a family executes the same operation stream against a
//! [`FaultyStore`] armed with one deterministic [`FaultPlan`], and each
//! per-op outcome is compared against the architectural oracle
//! ([`nsf_core::OracleFile`] over an unfaulted [`MapStore`]). Lanes and
//! oracle alike are [`EngineDispatch`]es, the statically dispatched
//! engine type the simulator and the frontend replay hold, driven one
//! [`nsf_core::LaneOp`] at a time by [`EngineDispatch::apply_op`].
//! Outcomes are *architectural*: read values and typed error kinds.
//! Stall cycles, hit/miss flags and transfer counts differ between
//! organizations by design and are never compared across lanes — except
//! for *twin* lanes ([`Family::twins`]), which must agree on every
//! traffic counter.
//!
//! When a lane's backing store injects a fault, the checker demands the
//! contract the engines advertise: the error surfaces as
//! [`RegFileError::Store`], statistics invariants still hold at the
//! fault point, and — because one-shot plans heal — retrying the same
//! operation succeeds and produces the oracle's outcome. Faults may
//! therefore fire anywhere in a stream without ever excusing a wrong
//! value.
//!
//! Generated streams end drained (the generator frees every context),
//! so a run over one finishes by asserting zero occupancy and an empty
//! backing store: leaked frames, lines or backing pages show up as
//! `Residue`. Shrunk repros may end mid-program; for those the residue
//! checks cover exactly the contexts the stream freed.

use crate::lanes::{build_lane, traffic_counts, Family};
use crate::stream::{generate, SplitMix64, StreamConfig};
use nsf_core::{
    BackingStore, Cid, EngineDispatch, FaultPlan, FaultyStore, LaneOp, MapStore, OracleFile,
    RegFileError, RegFileStats, RegisterFile, Word,
};
use std::fmt;

/// The architectural outcome of one operation — everything lanes must
/// agree on, nothing they may legitimately differ in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A read returned this value.
    Value(Word),
    /// A non-read operation completed.
    Done,
    /// `ReadUndefined`: the register was never written (or was freed).
    Undefined,
    /// `BadOffset`: the offset exceeds the context size.
    BadOffset,
    /// `NotCurrent`: the context is not the running one.
    NotCurrent,
    /// `Store`: the backing store faulted mid-operation.
    StoreFault,
}

fn err_outcome(e: &RegFileError) -> Outcome {
    match e {
        RegFileError::ReadUndefined(_) => Outcome::Undefined,
        RegFileError::BadOffset(_) => Outcome::BadOffset,
        RegFileError::NotCurrent(_) => Outcome::NotCurrent,
        RegFileError::Store(_) => Outcome::StoreFault,
    }
}

/// Applies one [`LaneOp`] to a lane through
/// [`EngineDispatch::apply_op`], reducing the result to its
/// architectural [`Outcome`].
pub fn apply(file: &mut EngineDispatch, op: &LaneOp, store: &mut dyn BackingStore) -> Outcome {
    match file.apply_op(*op, store) {
        Ok(step) => step.value.map_or(Outcome::Done, Outcome::Value),
        Err(e) => err_outcome(&e),
    }
}

/// How a lane disagreed with the oracle or violated a contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A per-op architectural outcome differs from the oracle's.
    Outcome,
    /// A `RegFileStats` invariant broke, or occupancy exceeded capacity.
    Invariant,
    /// An injected fault was mishandled: invariants broke at the fault
    /// point, or the retry of a healed one-shot fault did not recover.
    FaultRecovery,
    /// The drained stream left occupancy or backing-store residue.
    Residue,
    /// Twin lanes disagreed on a traffic counter.
    TwinStats,
}

/// One lane's disagreement, pinned to the operation that exposed it.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The lane's engine spec (or both specs, for twin mismatches).
    pub lane: String,
    /// Index into the stream; `None` for end-of-run checks.
    pub op_index: Option<usize>,
    /// The contract that broke.
    pub kind: DivergenceKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:?}", self.lane, self.kind)?;
        if let Some(i) = self.op_index {
            write!(f, " at op {i}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Every context a stream introduces (for backing-residue checks).
pub fn cids_of(ops: &[LaneOp]) -> Vec<Cid> {
    let mut cids: Vec<Cid> = ops.iter().map(LaneOp::cid).collect();
    cids.sort_unstable();
    cids.dedup();
    cids
}

/// Runs the oracle over `ops`, producing the expected outcome per op.
///
/// # Panics
///
/// Panics if the oracle itself reports a store fault — its store is
/// unfaulted, so that would be a checker bug.
pub fn oracle_outcomes(ops: &[LaneOp]) -> Vec<Outcome> {
    let mut oracle = EngineDispatch::Oracle(OracleFile::new());
    let mut store = MapStore::new();
    ops.iter()
        .map(|ev| {
            let out = apply(&mut oracle, ev, &mut store);
            assert_ne!(out, Outcome::StoreFault, "oracle store cannot fault");
            out
        })
        .collect()
}

/// What one lane reported after a clean (divergence-free) run.
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// The lane's engine spec.
    pub spec: String,
    /// Final statistics.
    pub stats: RegFileStats,
    /// Injected faults the lane absorbed (surfaced + recovered).
    pub faults_absorbed: u64,
}

fn invariant_or_capacity_violation(file: &EngineDispatch) -> Option<String> {
    if let Some(v) = file.stats().invariant_violation() {
        return Some(v);
    }
    let occ = file.occupancy();
    (occ.valid_regs > file.capacity()).then(|| {
        format!(
            "occupancy {} exceeds capacity {}",
            occ.valid_regs,
            file.capacity()
        )
    })
}

/// Runs one lane over `ops` with `plan` armed on its backing store,
/// comparing each outcome against `expected` (from [`oracle_outcomes`]).
pub fn check_lane(
    spec: &str,
    ops: &[LaneOp],
    expected: &[Outcome],
    plan: FaultPlan,
) -> Result<LaneReport, Divergence> {
    let diverge = |op_index, kind, detail| {
        Err(Divergence {
            lane: spec.to_string(),
            op_index,
            kind,
            detail,
        })
    };
    let mut file = build_lane(spec);
    let mut store = FaultyStore::with_plan(MapStore::new(), plan);
    let mut faults_absorbed = 0u64;

    for (i, ev) in ops.iter().enumerate() {
        let mut got = apply(&mut file, ev, &mut store);
        if got == Outcome::StoreFault {
            faults_absorbed += 1;
            // Contract 1: the fault left the counters coherent.
            if let Some(v) = invariant_or_capacity_violation(&file) {
                return diverge(
                    Some(i),
                    DivergenceKind::FaultRecovery,
                    format!("after injected fault on `{ev}`: {v}"),
                );
            }
            // Contract 2: one-shot plans heal, so the retry must not see
            // the store fail again...
            got = apply(&mut file, ev, &mut store);
            if got == Outcome::StoreFault {
                return diverge(
                    Some(i),
                    DivergenceKind::FaultRecovery,
                    format!("retry of `{ev}` hit a store fault after the plan healed"),
                );
            }
            // ...and the retried outcome falls through to the ordinary
            // oracle comparison: recovery must not have lost state.
        }
        if got != expected[i] {
            return diverge(
                Some(i),
                DivergenceKind::Outcome,
                format!("`{ev}`: lane {got:?}, oracle {:?}", expected[i]),
            );
        }
        if let Some(v) = invariant_or_capacity_violation(&file) {
            return diverge(
                Some(i),
                DivergenceKind::Invariant,
                format!("after `{ev}`: {v}"),
            );
        }
    }

    if let Some(d) = residue_divergence(spec, &file, store.inner(), ops) {
        return Err(d);
    }

    Ok(LaneReport {
        spec: spec.to_string(),
        stats: *file.stats(),
        faults_absorbed,
    })
}

/// End-of-run residue check for one lane. Freed contexts must leave nothing behind. Generated streams
/// end fully drained, so the whole file must be empty; shrunk repros may
/// legitimately end mid-program, so the checks scale to what the stream
/// actually freed.
fn residue_divergence(
    spec: &str,
    file: &EngineDispatch,
    store: &MapStore,
    ops: &[LaneOp],
) -> Option<Divergence> {
    let diverge = |kind, detail| {
        Some(Divergence {
            lane: spec.to_string(),
            op_index: None,
            kind,
            detail,
        })
    };
    let freed: Vec<Cid> = ops
        .iter()
        .filter_map(|ev| match *ev {
            LaneOp::FreeContext(cid) => Some(cid),
            _ => None,
        })
        .collect();
    let introduced = cids_of(ops);
    if introduced.iter().all(|cid| freed.contains(cid)) {
        let occ = file.occupancy();
        if occ.valid_regs != 0 || occ.resident_contexts != 0 {
            return diverge(
                DivergenceKind::Residue,
                format!(
                    "drained stream left {} regs / {} contexts resident",
                    occ.valid_regs, occ.resident_contexts
                ),
            );
        }
    }
    for cid in freed {
        if store.any_present(cid) {
            return diverge(
                DivergenceKind::Residue,
                format!("backing store still holds data for freed context {cid}"),
            );
        }
    }
    None
}

/// Checks every lane of `family` over `ops` under `plan`, including the
/// family's twin-stats comparison. Returns the per-lane reports of a
/// clean run, or the first divergence.
pub fn check_family(
    family: Family,
    ops: &[LaneOp],
    plan: FaultPlan,
) -> Result<Vec<LaneReport>, Divergence> {
    let expected = oracle_outcomes(ops);
    let reports: Vec<LaneReport> = family
        .lanes()
        .iter()
        .map(|spec| check_lane(spec, ops, &expected, plan))
        .collect::<Result<_, _>>()?;

    twin_divergence(family, &reports)?;
    Ok(reports)
}

/// The family's twin-stats comparison.
fn twin_divergence(family: Family, reports: &[LaneReport]) -> Result<(), Divergence> {
    if let Some((a, b)) = family.twins() {
        let find = |spec| {
            &reports
                .iter()
                .find(|r| r.spec == spec)
                .expect("twins are listed lanes")
                .stats
        };
        let (sa, sb) = (find(a), find(b));
        for ((name, va), (_, vb)) in traffic_counts(sa).zip(traffic_counts(sb)) {
            if va != vb {
                return Err(Divergence {
                    lane: format!("{a} vs {b}"),
                    op_index: None,
                    kind: DivergenceKind::TwinStats,
                    detail: format!("{name}: {va} != {vb}"),
                });
            }
        }
    }
    Ok(())
}

/// Derives the deterministic fault plan for a fuzz seed: ~40% of seeds
/// run fault-free; the rest arm one *one-shot* fault (the retry protocol
/// relies on healing, so the persistent [`FaultPlan::AfterOps`] is never
/// drawn). The draw uses a domain-separated stream so it cannot alias
/// the op-generator's.
pub fn fault_plan_for_seed(seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed ^ 0xFA01_7FA0_17FA_017F);
    match rng.below(5) {
        0 | 1 => FaultPlan::Never,
        2 => FaultPlan::NthSpill(1 + rng.below(20)),
        3 => FaultPlan::NthReload(1 + rng.below(20)),
        _ => FaultPlan::NthForContext(rng.below(8) as Cid, 1 + rng.below(6)),
    }
}

/// One fuzz iteration: generate the stream and fault plan for `seed`,
/// then run the family. Returns the stream and plan alongside the
/// verdict so callers can shrink or export a repro.
pub fn check_seed(
    family: Family,
    cfg: &StreamConfig,
    seed: u64,
) -> (Vec<LaneOp>, FaultPlan, Result<Vec<LaneReport>, Divergence>) {
    let ops = generate(cfg, seed);
    let plan = fault_plan_for_seed(seed);
    let verdict = check_family(family, &ops, plan);
    (ops, plan, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::RegAddr;

    #[test]
    fn oracle_outcomes_expose_values_and_undefined_reads() {
        use LaneOp::*;
        let ops = [
            ThreadSwitch(0),
            Write(RegAddr::new(0, 3), 77),
            Read(RegAddr::new(0, 3)),
            Read(RegAddr::new(0, 4)),
            FreeReg(RegAddr::new(0, 3)),
            Read(RegAddr::new(0, 3)),
            FreeContext(0),
        ];
        assert_eq!(
            oracle_outcomes(&ops),
            [
                Outcome::Done,
                Outcome::Done,
                Outcome::Value(77),
                Outcome::Undefined,
                Outcome::Done,
                Outcome::Undefined,
                Outcome::Done,
            ]
        );
    }

    #[test]
    fn every_family_passes_a_fault_free_seed() {
        let cfg = StreamConfig::default();
        for family in Family::ALL {
            let ops = generate(&cfg, 7);
            let reports = check_family(family, &ops, FaultPlan::Never)
                .unwrap_or_else(|d| panic!("{family}: {d}"));
            assert_eq!(reports.len(), family.lanes().len());
            assert!(reports.iter().all(|r| r.faults_absorbed == 0));
        }
    }

    #[test]
    fn faulted_seeds_are_absorbed_not_diverged() {
        let cfg = StreamConfig::default();
        // A spill fault and a reload fault must each fire — and be
        // recovered from — in every family within a few seeds. (Which
        // seed first spills differs per family: spill pressure depends
        // on the organization.)
        for plan in [FaultPlan::NthSpill(1), FaultPlan::NthReload(1)] {
            for family in Family::ALL {
                let absorbed = (0..10).any(|seed| {
                    let ops = generate(&cfg, seed);
                    let reports = check_family(family, &ops, plan)
                        .unwrap_or_else(|d| panic!("{family} seed {seed}: {d}"));
                    reports.iter().any(|r| r.faults_absorbed > 0)
                });
                assert!(absorbed, "{family}: no lane absorbed {plan:?} in 10 seeds");
            }
        }
    }

    #[test]
    fn fault_plans_are_deterministic_and_one_shot_only() {
        for seed in 0..200 {
            let a = fault_plan_for_seed(seed);
            assert_eq!(a, fault_plan_for_seed(seed));
            assert!(
                !matches!(a, FaultPlan::AfterOps(_)),
                "persistent plans break the retry protocol"
            );
        }
        // Both fault-free and faulted draws occur.
        let plans: Vec<FaultPlan> = (0..50).map(fault_plan_for_seed).collect();
        assert!(plans.contains(&FaultPlan::Never));
        assert!(plans.iter().any(|p| *p != FaultPlan::Never));
    }

    #[test]
    fn a_wrong_value_is_reported_as_an_outcome_divergence() {
        use LaneOp::*;
        // The oracle sees the write; a lane checked against outcomes for
        // a *different* stream must diverge. (Drive check_lane directly
        // with mismatched expectations to exercise the reporting path.)
        let ops = [
            ThreadSwitch(0),
            Write(RegAddr::new(0, 0), 5),
            Read(RegAddr::new(0, 0)),
            FreeContext(0),
        ];
        let mut expected = oracle_outcomes(&ops);
        expected[2] = Outcome::Value(6);
        let d = check_lane("nsf:16", &ops, &expected, FaultPlan::Never).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::Outcome);
        assert_eq!(d.op_index, Some(2));
        assert!(d.to_string().contains("nsf:16"), "{d}");
    }

    #[test]
    fn check_seed_ties_stream_plan_and_verdict_together() {
        let cfg = StreamConfig::default();
        let (ops, plan, verdict) = check_seed(Family::Segmented, &cfg, 3);
        assert_eq!(ops, generate(&cfg, 3));
        assert_eq!(plan, fault_plan_for_seed(3));
        verdict.unwrap_or_else(|d| panic!("{d}"));
    }
}
