//! The traced run. It drives the same work as an untraced pass, but
//! calls each layer's public entry points itself — in the order the
//! sweep runner and the explorer call them — so every call can be
//! wrapped in a span. Spans are kept in memory and written as JSON
//! Lines when the run ends. The traced pass runs on one thread, so a
//! span's children never overlap and its self time is its duration
//! minus theirs.

use crate::exec::{guarded, read_explore, Output, Route};
use nsf_bench::Sweep;
use nsf_explore::ledger::{encode_header, encode_record, parse};
use nsf_explore::memo::{encode_memo_header, encode_memo_record, memo_key, parse_memo, MemoRecord};
use nsf_explore::{
    build_fronts, point_cost, render_front, workload_builder, ExploreSpec, Explorer, LedgerHeader,
    LedgerRecord, DEFAULT_CHUNK,
};
use nsf_sim::{RunReport, SimConfig};
use nsf_trace::{capture_frontend, replay_frontend, stream_fingerprint, StreamStore};
use nsf_workloads::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call across a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`fcache.replay`, `store.load`, ...).
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Which pass (or `setup`/`probe`) the span belongs to.
    pub pass: String,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pass: String,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: String::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans recorded from now on.
    pub fn set_pass(&mut self, pass: impl Into<String>) {
        self.pass = pass.into();
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass.clone(),
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` and every span still open inside it (a panic
    /// can leave inner spans open).
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let v = f();
        self.exit(id);
        v
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"pass\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, own[i], s.pass
            )
            .expect("writing to a String cannot fail");
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Work counted at the same boundaries the spans time.
#[derive(Default)]
pub struct Counters {
    /// Sweep points routed by the runner mirror.
    pub points: u64,
    /// Frontend groups routed.
    pub groups: u64,
    /// Points in groups at least `MIN_CAPTURE_GROUP` wide.
    pub wide_points: u64,
    /// Points that ran live (uncapturable).
    pub live_points: u64,
    /// Instructions of the live points.
    pub live_instructions: u64,
    /// Group busy time summed over every sweep.
    pub pool_busy_ns: f64,
    /// Worker time the runner's pool would hold over every sweep.
    pub pool_capacity_ns: f64,
    /// Streams captured.
    pub captures: u64,
    /// Events in the captured streams.
    pub capture_events: u64,
    /// Encoded bytes of the captured streams.
    pub capture_bytes: u64,
    /// Captured heads: (program index, configuration, capture ns).
    pub heads: Vec<(usize, SimConfig, u64)>,
    /// Points served by replay.
    pub replay_points: u64,
    /// Stream events replayed, once per lane.
    pub replay_lane_events: u64,
    /// Store lookups that replayed.
    pub hits: u64,
    /// Capturable groups that captured instead.
    pub misses: u64,
    /// Entries present but rejected.
    pub rejects: u64,
    /// Entry bytes written.
    pub bytes_written: u64,
    /// Entry bytes read on hits.
    pub bytes_read: u64,
    /// Every report the simulator produced, summed.
    pub sim: RunReport,
    /// Explorer memo lookups.
    pub memo_lookups: u64,
    /// Explorer memo hits.
    pub memo_hits: u64,
    /// Points offered to the Pareto fronts.
    pub front_inserted: u64,
    /// Of those, pruned as dominated.
    pub front_pruned: u64,
    /// Ledger bytes written.
    pub ledger_bytes: u64,
}

impl Counters {
    fn absorb(&mut self, r: &RunReport) {
        let s = &mut self.sim;
        s.instructions += r.instructions;
        s.cycles += r.cycles;
        s.idle_cycles += r.idle_cycles;
        s.thread_switches += r.thread_switches;
        s.spawns += r.spawns;
        s.regfile.merge(&r.regfile);
        s.dcache.accesses += r.dcache.accesses;
        s.dcache.hits += r.dcache.hits;
        s.dcache.misses += r.dcache.misses;
        s.dcache.writebacks += r.dcache.writebacks;
    }

    /// Adds one sweep's pool occupancy: its measured group times laid
    /// out in submission order over [`POOL_WORKERS`], each group going
    /// to the first free worker, as the runner's shared cursor does.
    fn add_pool(&mut self, durations: &[u64]) {
        let busy: u64 = durations.iter().sum();
        let workers = POOL_WORKERS.min(durations.len()).max(1);
        let mut free = vec![0u64; workers];
        for &d in durations {
            let k = (0..workers).min_by_key(|&k| free[k]).expect("one worker");
            free[k] += d;
        }
        let makespan = free.iter().copied().max().unwrap_or(0);
        self.pool_busy_ns += busy as f64;
        self.pool_capacity_ns += (workers as u64 * makespan) as f64;
    }

    /// The routing counted so far, in the terms of the runner's own
    /// counters.
    pub fn route(&self) -> Route {
        Route {
            replayed: self.replay_points,
            captured: self.captures,
            store_hits: Some(self.hits),
            memoized: self.memo_hits,
        }
    }
}

/// Workers the pool-idle model lays traced group times out on: the
/// two-vCPU hosts the benchmark was sized on. The timed passes run one
/// worker, so this models what a second worker would leave idle.
const POOL_WORKERS: usize = 2;

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// A traced sweep: the runner's store path (`Sweep::run_stored`) group
/// by group. `program_of` maps a sweep workload index to the index the
/// capture-tax probe re-runs.
pub fn sweep(
    sweep: &Sweep,
    store: &StreamStore,
    program_of: &dyn Fn(usize) -> usize,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Vec<RunReport> {
    let groups = tr.span("runner.frontend_groups", || sweep.frontend_groups());
    let mut out: Vec<Option<RunReport>> = vec![None; sweep.points.len()];
    let mut durations = Vec::with_capacity(groups.len());
    for g in &groups {
        let id = tr.enter("runner.group");
        let reports = group(sweep, g, store, program_of, tr, c);
        tr.exit(id);
        durations.push(tr.spans[id].ns());
        c.points += g.len() as u64;
        c.groups += 1;
        if g.len() >= Sweep::MIN_CAPTURE_GROUP {
            c.wide_points += g.len() as u64;
        }
        for (&i, r) in g.iter().zip(reports) {
            c.absorb(&r);
            out[i] = Some(r);
        }
    }
    c.add_pool(&durations);
    out.into_iter()
        .map(|r| r.expect("every point resolved"))
        .collect()
}

/// One frontend group, in the runner's order: fingerprint, store load,
/// replay on a hit; otherwise capture, save and replay the rest.
/// Uncapturable groups (parallel programs, multi-issue frontends) run
/// live point by point.
fn group(
    sweep: &Sweep,
    g: &[usize],
    store: &StreamStore,
    program_of: &dyn Fn(usize) -> usize,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Vec<RunReport> {
    let head = sweep.points[g[0]];
    let w = &sweep.workloads[head.workload];
    // Every program the benchmark generates encodes to words, so a
    // capturable group always has a fingerprint; without one the runner
    // would leave the store, and this mirror runs the group live.
    let fp = if crate::capturable(sweep, g) {
        tr.span("store.fingerprint", || stream_fingerprint(w, &head.cfg))
    } else {
        None
    };
    let Some(fp) = fp else {
        return g
            .iter()
            .map(|&i| {
                let cfg = sweep.points[i].cfg;
                let r = tr
                    .span("sim.live", || nsf_workloads::run(w, cfg))
                    .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
                c.live_points += 1;
                c.live_instructions += r.instructions;
                r
            })
            .collect();
    };
    let cfgs: Vec<SimConfig> = g.iter().map(|&i| sweep.points[i].cfg).collect();
    match tr.span("store.load", || store.load_stream(fp, &head.cfg)) {
        Ok(Some(buf)) => {
            c.bytes_read += file_len(&store.stream_path(fp));
            match tr.span("fcache.replay", || replay_frontend(&buf, w, &cfgs)) {
                Ok(reports) => {
                    c.hits += 1;
                    c.replay_points += g.len() as u64;
                    c.replay_lane_events += buf.events * g.len() as u64;
                    return reports;
                }
                Err(_) => {
                    c.rejects += 1;
                    store.remove_stream(fp);
                }
            }
        }
        Ok(None) => {}
        Err(_) => {
            c.rejects += 1;
            store.remove_stream(fp);
        }
    }
    c.misses += 1;
    let id = tr.enter("fcache.capture");
    let buf = capture_frontend(w, head.cfg).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
    tr.exit(id);
    c.captures += 1;
    c.capture_events += buf.events;
    c.capture_bytes += buf.encoded_len() as u64;
    c.heads
        .push((program_of(head.workload), head.cfg, tr.spans[id].ns()));
    if tr
        .span("store.save", || store.save_stream(fp, &buf))
        .is_ok()
    {
        c.bytes_written += file_len(&store.stream_path(fp));
    }
    let mut out = Vec::with_capacity(g.len());
    out.push(buf.report.clone());
    if g.len() > 1 {
        let rest = tr
            .span("fcache.replay", || replay_frontend(&buf, w, &cfgs[1..]))
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        c.replay_points += rest.len() as u64;
        c.replay_lane_events += buf.events * rest.len() as u64;
        out.extend(rest);
    }
    out
}

/// The memo file `Explorer` keeps inside its store directory. The
/// traced run checks that an untraced exploration left it there.
pub const MEMO_FILE: &str = "explore_memo.nsfm";

/// A traced exploration: `Explorer::run` for one fresh single-shard
/// ledger, step by step — enumerate, memo lookups by stream
/// fingerprint, a traced sweep of the misses per checkpoint chunk,
/// costs, memo and ledger appends, then the fronts.
pub fn explore(
    spec: &ExploreSpec,
    out_dir: &Path,
    store_dir: &Path,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Output {
    let paths = Explorer::new(spec.clone(), out_dir.to_path_buf());
    let (ledger_path, front_path) = (paths.ledger_path(), paths.front_path());
    let result = (|| -> Result<(), Box<dyn std::error::Error>> {
        let points = tr.span("explore.enumerate", || {
            spec.validate().map(|()| spec.enumerate())
        })?;
        std::fs::create_dir_all(out_dir)?;
        let header = LedgerHeader {
            fingerprint: spec.fingerprint(),
            shard_index: 0,
            shard_count: 1,
            shard_points: points.len() as u64,
        };
        tr.span("explore.ledger", || {
            std::fs::write(&ledger_path, encode_header(&header))
        })?;
        let (mut memo, mut memo_file) = tr.span("explore.memo", || open_memo(store_dir))?;
        let store = StreamStore::open(store_dir);
        let mut ledger = std::fs::OpenOptions::new()
            .append(true)
            .open(&ledger_path)?;
        for chunk in points.chunks(DEFAULT_CHUNK) {
            let mut built: Vec<(usize, Workload)> = Vec::new();
            let mut slot_of: HashMap<usize, usize> = HashMap::new();
            for p in chunk {
                if let std::collections::hash_map::Entry::Vacant(e) = slot_of.entry(p.workload) {
                    let builder = workload_builder(&spec.workloads[p.workload])?;
                    e.insert(built.len());
                    built.push((p.workload, tr.span("explore.build", || builder(spec.scale))));
                }
            }
            let mut records: Vec<Option<LedgerRecord>> = vec![None; chunk.len()];
            let mut keys: Vec<Option<u64>> = vec![None; chunk.len()];
            let mut misses = Vec::new();
            for (i, p) in chunk.iter().enumerate() {
                let w = &built[slot_of[&p.workload]].1;
                let cfg = p.sim_config()?;
                keys[i] = tr
                    .span("store.fingerprint", || stream_fingerprint(w, &cfg))
                    .map(|fp| memo_key(fp, &p.engine, nsf_vlsi::MODEL_VERSION));
                c.memo_lookups += 1;
                match keys[i].and_then(|k| memo.get(&k)) {
                    Some(m) => {
                        c.memo_hits += 1;
                        records[i] = Some(LedgerRecord {
                            point_idx: p.idx,
                            instructions: m.instructions,
                            cycles: m.cycles,
                            cost: m.cost,
                        });
                    }
                    None => misses.push(i),
                }
            }
            let mut sw = Sweep::new();
            let mut slots: Vec<Option<Workload>> =
                built.into_iter().map(|(_, w)| Some(w)).collect();
            let mut sweep_idx: HashMap<usize, usize> = HashMap::new();
            let mut spec_of: Vec<usize> = Vec::new();
            for &i in &misses {
                let p = &chunk[i];
                let wl = match sweep_idx.get(&p.workload) {
                    Some(&wl) => wl,
                    None => {
                        let w = slots[slot_of[&p.workload]].take().expect("built once");
                        let wl = sw.workload(w);
                        sweep_idx.insert(p.workload, wl);
                        spec_of.push(p.workload);
                        wl
                    }
                };
                sw.point(wl, p.sim_config()?);
            }
            let reports = sweep(&sw, &store, &|i| spec_of[i], tr, c);
            let costs = tr.span("explore.cost", || {
                misses
                    .iter()
                    .zip(&reports)
                    .map(|(&i, r)| chunk[i].regfile().map(|rf| point_cost(&rf, r)))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let mut memo_bytes = Vec::new();
            for ((&i, report), cost) in misses.iter().zip(&reports).zip(costs) {
                let rec = LedgerRecord {
                    point_idx: chunk[i].idx,
                    instructions: report.instructions,
                    cycles: report.cycles,
                    cost,
                };
                records[i] = Some(rec);
                if let Some(k) = keys[i] {
                    let m = MemoRecord {
                        key: k,
                        instructions: rec.instructions,
                        cycles: rec.cycles,
                        cost: rec.cost,
                    };
                    memo_bytes.extend(encode_memo_record(&m));
                    memo.insert(k, m);
                }
            }
            tr.span("explore.memo", || {
                memo_file.write_all(&memo_bytes)?;
                memo_file.flush()
            })?;
            let mut bytes = Vec::new();
            for r in records {
                bytes.extend(encode_record(&r.expect("every chunk point resolved")));
            }
            tr.span("explore.ledger", || {
                ledger.write_all(&bytes)?;
                ledger.flush()
            })?;
        }
        drop(ledger);
        let bytes = tr.span("explore.ledger", || std::fs::read(&ledger_path))?;
        c.ledger_bytes += bytes.len() as u64;
        let records = tr.span("explore.ledger", || parse(&bytes))?.records;
        tr.span("explore.pareto", || {
            for f in build_fronts(&points, &records).values() {
                c.front_inserted += f.inserted();
                c.front_pruned += f.pruned();
            }
            std::fs::write(&front_path, render_front(spec, &points, &records))
        })?;
        Ok(())
    })();
    match result {
        Ok(()) => read_explore(&ledger_path, &front_path),
        Err(e) => Output::Failed(e.to_string()),
    }
}

/// Loads (or creates) the explorer memo, as `Explorer` does on open.
fn open_memo(dir: &Path) -> std::io::Result<(HashMap<u64, MemoRecord>, std::fs::File)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(MEMO_FILE);
    let mut memo = HashMap::new();
    match std::fs::read(&path) {
        Ok(bytes) => match parse_memo(&bytes) {
            Ok(parsed) => {
                if parsed.valid_len < bytes.len() {
                    let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                    f.set_len(parsed.valid_len as u64)?;
                }
                for r in parsed.records {
                    memo.insert(r.key, r);
                }
            }
            Err(_) => std::fs::write(&path, encode_memo_header())?,
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(&path, encode_memo_header())?;
        }
        Err(e) => return Err(e),
    }
    let file = std::fs::OpenOptions::new().append(true).open(&path)?;
    Ok((memo, file))
}

/// Runs one traced pass under `guarded`, closing any span a panic left
/// open.
pub fn pass(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> Output) -> (u64, Output) {
    let id = tr.enter("pass");
    let out = guarded(|| f(tr));
    tr.exit(id);
    (tr.spans[id].ns(), out)
}
