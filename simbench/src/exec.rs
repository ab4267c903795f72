//! The untimed parts of a run and the untraced passes: scratch
//! directories, the reference, one cold or warm pass through the
//! default execution path, and the correctness check of its output.

use crate::gen::Plan;
use nsf_bench::Sweep;
use nsf_explore::{ledger, Explorer, LedgerRecord};
use nsf_sim::RunReport;
use nsf_trace::StreamStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The two passes of one repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Against an empty scratch store.
    Cold,
    /// Against the store the cold pass filled.
    Warm,
}

impl Pass {
    /// Both passes, in the order a repetition runs them.
    pub const BOTH: [Pass; 2] = [Pass::Cold, Pass::Warm];

    /// Lower-case name, used for directories and span tags.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Cold => "cold",
            Pass::Warm => "warm",
        }
    }
}

/// A benchmark-private directory tree holding the stream store, the
/// explorer's memo and its ledgers. It is wiped when opened and by
/// [`Scratch::wipe`], so every cold pass starts from nothing.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Opens (and empties) the scratch tree at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Scratch {
        let s = Scratch { root: root.into() };
        s.wipe();
        s
    }

    /// Removes everything under the scratch root.
    pub fn wipe(&self) {
        match std::fs::remove_dir_all(&self.root) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot wipe {}: {e}", self.root.display()),
        }
    }

    /// The stream store (and explorer memo) directory.
    pub fn store_dir(&self) -> PathBuf {
        self.root.join("store")
    }

    /// The explorer output (ledger and front) directory of one pass.
    pub fn out_dir(&self, tag: &str) -> PathBuf {
        self.root.join(tag)
    }

    /// Bytes currently held under the scratch root.
    pub fn bytes(&self) -> u64 {
        dir_bytes(&self.root)
    }

    /// Stream entries (`.nsfs` files) in the store.
    pub fn streams(&self) -> u64 {
        std::fs::read_dir(self.store_dir()).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "nsfs"))
                .count() as u64
        })
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Built inputs: the plan plus its programs (and, for sweeps, points).
pub struct Inputs {
    /// What the seed drew.
    pub plan: Plan,
    /// The built programs and the sweep points.
    pub sweep: Sweep,
}

/// What one pass produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// A sweep's reports, in point order.
    Reports(Vec<RunReport>),
    /// An exploration's ledger and rendered front.
    Explore {
        /// Ledger file bytes.
        ledger: Vec<u8>,
        /// Front file bytes.
        front: Vec<u8>,
    },
    /// The pass panicked or returned an error.
    Failed(String),
}

/// The store-less reference for one explorer pass.
pub struct ExploreRef {
    /// Ledger file bytes.
    pub ledger: Vec<u8>,
    /// Front file bytes.
    pub front: Vec<u8>,
    /// The ledger's records.
    pub records: Vec<LedgerRecord>,
}

/// What every pass must reproduce, computed once per invocation outside
/// the timed passes.
pub enum Reference {
    /// `Sweep::run(1)` over the sweep's points (the same for both
    /// passes).
    Sweep(Vec<RunReport>),
    /// A store-less `Explorer` run of the cold spec and of the warm
    /// spec.
    Explore(ExploreRef, ExploreRef),
}

impl Reference {
    /// Computes the reference. Explorer outputs land under `scratch`,
    /// which is wiped afterwards.
    pub fn compute(inputs: &Inputs, scratch: &Scratch) -> Reference {
        let reference = match &inputs.plan.explore {
            None => Reference::Sweep(inputs.sweep.run(1)),
            Some((cold, warm)) => {
                let run = |spec: &nsf_explore::ExploreSpec, tag: &str| {
                    let mut ex = Explorer::new(spec.clone(), scratch.out_dir(tag));
                    ex.threads = crate::THREADS;
                    ex.quiet = true;
                    let out = ex.run().expect("store-less reference exploration");
                    let ledger = std::fs::read(out.ledger_path).expect("reference ledger");
                    let front = std::fs::read(out.front_path).expect("reference front");
                    let records = ledger::parse(&ledger).expect("reference ledger").records;
                    ExploreRef {
                        ledger,
                        front,
                        records,
                    }
                };
                Reference::Explore(run(cold, "ref-cold"), run(warm, "ref-warm"))
            }
        };
        scratch.wipe();
        reference
    }

    /// Points in `pass`.
    pub fn points(&self, pass: Pass) -> usize {
        match (self, pass) {
            (Reference::Sweep(r), _) => r.len(),
            (Reference::Explore(c, _), Pass::Cold) => c.records.len(),
            (Reference::Explore(_, w), Pass::Warm) => w.records.len(),
        }
    }

    /// Simulated instructions summed over the points of `pass`.
    pub fn instructions(&self, pass: Pass) -> u64 {
        match (self, pass) {
            (Reference::Sweep(r), _) => r.iter().map(|r| r.instructions).sum(),
            (Reference::Explore(c, _), Pass::Cold) => {
                c.records.iter().map(|r| r.instructions).sum()
            }
            (Reference::Explore(_, w), Pass::Warm) => {
                w.records.iter().map(|r| r.instructions).sum()
            }
        }
    }

    /// Points of `pass` whose output differs from the reference. A
    /// failed pass fails every point; an explorer pass whose bytes
    /// differ fails at least one.
    pub fn failures(&self, pass: Pass, out: &Output) -> usize {
        let all = self.points(pass);
        match (self, out) {
            (Reference::Sweep(want), Output::Reports(got)) => {
                let same = want.iter().zip(got).filter(|(a, b)| a == b).count();
                all - same.min(all)
            }
            (Reference::Explore(c, w), Output::Explore { ledger: l, front }) => {
                let want = if pass == Pass::Cold { c } else { w };
                if *l == want.ledger && *front == want.front {
                    return 0;
                }
                let Ok(got) = ledger::parse(l) else {
                    return all;
                };
                let differing = want
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(i, r)| got.records.get(*i) != Some(r))
                    .count();
                differing.max(1)
            }
            _ => all,
        }
    }
}

/// How one pass routed its points, as the code under test reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Route {
    /// Points replayed from a captured or stored stream.
    pub replayed: u64,
    /// Streams captured live after a store miss.
    pub captured: u64,
    /// Groups whose stream loaded from the store; `None` where the code
    /// does not report it (inside `Explorer::run`).
    pub store_hits: Option<u64>,
    /// Points the explorer served from its result memo.
    pub memoized: u64,
}

impl Route {
    /// The counts added since `earlier` (both cumulative).
    pub fn since(&self, earlier: &Route) -> Route {
        Route {
            replayed: self.replayed - earlier.replayed,
            captured: self.captured - earlier.captured,
            store_hits: self.store_hits.zip(earlier.store_hits).map(|(a, b)| a - b),
            memoized: self.memoized - earlier.memoized,
        }
    }

    /// Whether `mirror` (the traced run's counts) agrees with these
    /// counts on everything both report.
    pub fn agrees_with(&self, mirror: &Route) -> bool {
        self.replayed == mirror.replayed
            && self.captured == mirror.captured
            && self.memoized == mirror.memoized
            && (self.store_hits.is_none() || self.store_hits == mirror.store_hits)
    }
}

/// Runs `f`, turning a panic into [`Output::Failed`]: a failed
/// validation inside a pass counts against the points attempted
/// instead of aborting the run.
pub fn guarded(f: impl FnOnce() -> Output) -> Output {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Output::Failed(msg)
    })
}

/// One untraced pass through the default execution path:
/// `Sweep::run_stored` with the frontend cache and the scratch stream
/// store, or `Explorer::run` with the scratch store, on
/// [`crate::THREADS`] workers. Returns its wall time, its output and
/// its routing. A sweep's routing is `Sweep::run_stored_stats`'s
/// counters (the code `run_stored` runs). An exploration's is
/// `ExploreOutcome::memoized`, the stream entries the pass added to the
/// store (one per capture), and the remaining evaluated points, which
/// replayed.
pub fn run_pass(inputs: &Inputs, pass: Pass, scratch: &Scratch) -> (Duration, Output, Route) {
    let streams_before = scratch.streams();
    let mut route = Route::default();
    let mut evaluated = 0;
    let t0 = Instant::now();
    let out = guarded(|| match &inputs.plan.explore {
        None => {
            let store = StreamStore::open(scratch.store_dir());
            let (reports, stats) = inputs.sweep.run_stored_stats(
                crate::THREADS,
                nsf_bench::DEFAULT_LANES,
                Some(&store),
            );
            route.replayed = stats.replayed_points;
            route.captured = stats.store_misses;
            route.store_hits = Some(stats.store_hits);
            Output::Reports(reports)
        }
        Some((cold, warm)) => {
            let spec = if pass == Pass::Cold { cold } else { warm };
            let mut ex = Explorer::new(spec.clone(), scratch.out_dir(pass.name()));
            ex.threads = crate::THREADS;
            ex.quiet = true;
            ex.store_dir = Some(scratch.store_dir());
            match ex.run() {
                Ok(o) => {
                    route.memoized = o.memoized;
                    evaluated = o.evaluated;
                    read_explore(&o.ledger_path, &o.front_path)
                }
                Err(e) => Output::Failed(e.to_string()),
            }
        }
    });
    let elapsed = t0.elapsed();
    if inputs.plan.explore.is_some() {
        route.captured = scratch.streams().saturating_sub(streams_before);
        route.replayed = evaluated.saturating_sub(route.memoized + route.captured);
    }
    (elapsed, out, route)
}

/// Reads an exploration's ledger and front back as an [`Output`].
pub fn read_explore(ledger: &Path, front: &Path) -> Output {
    match (std::fs::read(ledger), std::fs::read(front)) {
        (Ok(ledger), Ok(front)) => Output::Explore { ledger, front },
        (Err(e), _) | (_, Err(e)) => Output::Failed(e.to_string()),
    }
}
