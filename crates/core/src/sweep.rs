//! Work-stealing sweep executor with per-worker scratch arenas.
//!
//! The figure sweeps (Fig. 10/11, §V-B) are wide grids of independent
//! co-simulation runs. The executor here runs such a grid on a fixed pool
//! of workers pulling jobs from a chunked injector deque, stealing from
//! each other when their share runs dry — and gives each worker a
//! [`SweepArena`]: a small cache of geometry-keyed model parts (floorplan,
//! rasterized grids, power model, prepared thermal solver with its Cholesky
//! factor / CG workspace) plus one reusable [`FrameAnalyzer`]. Repeated
//! same-geometry runs — the common case in every figure sweep — then skip
//! model assembly and the per-`Δt` solver preparation entirely and allocate
//! near-zero.
//!
//! On top of the pool sits the **lockstep batch engine**: jobs sharing a
//! [`geom_key`] are grouped (first-seen key order) and chunked into batches
//! of up to [`DEFAULT_BATCH_WIDTH`] runs, and each batch advances through
//! one [`crate::pipeline::BatchedCoSim`]-style driver whose multi-RHS
//! thermal solves stream the shared backward-Euler matrix once per substep
//! for the whole batch. A chunk of one job — a straggler of a group, or a
//! geometry that appears only once — is a one-lane batch: every run goes
//! through the same stepping loop.
//!
//! The core model is shared too. Each sweep owns one set of **activity
//! traces** (see [`crate::activity_trace`]): a workload stream's per-window
//! core activity, keyed on its benchmark, stream seed and sample size, is
//! simulated once — warm-up included — and every run of the stream reads
//! it, whatever batch, chunk or geometry group the run lands in (Fig. 11's
//! Cold and Idle runs of one (benchmark, core) pair; §V-B's N7 streams at
//! every IC area factor). A trace holds its warmed core only while a run is
//! reading it, so inside a geometry group jobs are first grouped by trace
//! (first-seen order) and only then chunked: the readers of one stream sit
//! side by side and keep its core alive. A run that reads past the end of a
//! trace whose core was dropped re-warms it and replays the recorded
//! windows, which is exact.
//!
//! Results are **order-preserving and bit-identical** to running each
//! config through [`crate::pipeline::run_sim`] serially: the scheduler only
//! decides *where and how wide* a run executes — arena recycling restores
//! exactly the fresh-construction state and the lockstep solver applies
//! each lane's arithmetic in single-RHS element order
//! (`tests/sweep_equivalence.rs` pins all of it down).
//!
//! Telemetry: `sweep.jobs` / `sweep.completions` count scheduled and
//! finished runs (always equal), `sweep.steal` counts cross-worker steals
//! (≤ work items), `sweep.arena_reuse` counts geometry-cache hits,
//! `sweep.queue_depth` samples the injector backlog at each chunk grab,
//! and `solver.batch_width` / `solver.lockstep_runs` record the widths of
//! scheduled lockstep batches of two or more lanes and the runs executed
//! through them; the whole pool runs under a `sweep.executor` span.

use std::collections::VecDeque;
use std::ops::Range;

use hotgauge_telemetry::{counter, span};
use hotgauge_thermal::MAX_LOCKSTEP_WIDTH;

use crate::activity_trace::{TraceKey, TraceSet};
use crate::analysis::FrameAnalyzer;
use crate::pipeline::{
    run_batch_with_analyzers, CoSimulation, GeomParts, RunResult, SimConfig, SweepProgress,
};

/// Geometry entries an arena keeps before evicting the oldest. Sweeps cycle
/// over a handful of geometries (fig10: one per node), so a small FIFO
/// bounds peak RSS without costing hits.
const MAX_ARENA_GEOMETRIES: usize = 8;

/// Default width of a lockstep batch: same-geometry jobs are solved up to
/// eight at a time through the multi-RHS thermal path. Eight columns fill a
/// cache line of `f64`s per matrix row — wider batches add little bandwidth
/// amortization while inflating per-worker state; capped by
/// [`MAX_LOCKSTEP_WIDTH`] either way.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// Per-worker scratch arena: recycled geometry-keyed model parts plus one
/// reusable frame analyzer. Owned by exactly one worker, so no locking.
///
/// Runs executed through [`run_batch_in`] are bit-identical whether the arena
/// is fresh or dirty — recycling only skips rebuilding state that is a pure
/// function of the config's geometry (see [`geom_key`]).
pub struct SweepArena {
    /// FIFO of `(geometry key, parts)`; linear scan (≤ 8 entries).
    geoms: Vec<(String, GeomParts)>,
    analyzer: Option<FrameAnalyzer>,
}

impl SweepArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            geoms: Vec::new(),
            analyzer: None,
        }
    }

    /// Number of geometry entries currently cached.
    pub fn cached_geometries(&self) -> usize {
        self.geoms.len()
    }

    fn take_geom(&mut self, key: &str) -> Option<GeomParts> {
        let pos = self.geoms.iter().position(|(k, _)| k == key)?;
        Some(self.geoms.remove(pos).1)
    }

    fn store_geom(&mut self, key: String, parts: GeomParts) {
        if self.geoms.len() >= MAX_ARENA_GEOMETRIES {
            self.geoms.remove(0);
        }
        self.geoms.push((key, parts));
    }
}

impl Default for SweepArena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SweepArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepArena")
            .field("cached_geometries", &self.geoms.len())
            .field("has_analyzer", &self.analyzer.is_some())
            .finish()
    }
}

/// The arena cache key of a config: every [`SimConfig`] field the floorplan,
/// rasterized grids, power model, thermal stack, or prepared solver depends
/// on. Two configs with equal keys build bit-identical model parts; fields
/// that only shape the *run* (benchmark, seed, warm-up, thresholds,
/// horizons, analysis strategy) are deliberately excluded.
pub(crate) fn geom_key(cfg: &SimConfig) -> String {
    use std::fmt::Write;
    let mut key = format!(
        "{:?}|{}|{}|{}|{}|{}",
        cfg.node,
        cfg.cell_um.to_bits(),
        cfg.border_mm.to_bits(),
        cfg.substeps,
        cfg.solver,
        cfg.ic_area_factor.to_bits(),
    );
    for (kind, factor) in &cfg.unit_scales {
        let _ = write!(key, "|{kind:?}*{}", factor.to_bits());
    }
    key
}

/// Runs a batch of same-[`geom_key`] configurations in lockstep inside an
/// arena: lane 0 recycles the arena's cached geometry (or builds it) and
/// analyzer, the remaining lanes clone lane 0's parts — sharing the prepared
/// backward-Euler matrix — and all lanes advance through the multi-RHS
/// solver together. Lanes of one workload stream read one activity trace,
/// so its core model runs once. Each result is bit-identical to `run_sim`
/// of that configuration, for any arena state; a one-config batch is
/// `run_sim` inside an arena. `on_lane_done` fires with the lane index as
/// each lane finishes.
///
/// # Panics
///
/// Panics if `cfgs` is empty, wider than [`MAX_LOCKSTEP_WIDTH`], or invalid,
/// like `run_sim` / [`CoSimulation::new`] (user-input paths validate
/// through [`CoSimulation::try_new`] first).
pub fn run_batch_in(
    cfgs: Vec<SimConfig>,
    arena: &mut SweepArena,
    on_lane_done: Option<&dyn Fn(usize)>,
) -> Vec<RunResult> {
    run_batch_traced(cfgs, arena, &TraceSet::default(), on_lane_done)
}

/// [`run_batch_in`] reading its activity traces from `traces`.
fn run_batch_traced(
    cfgs: Vec<SimConfig>,
    arena: &mut SweepArena,
    traces: &TraceSet,
    on_lane_done: Option<&dyn Fn(usize)>,
) -> Vec<RunResult> {
    assert!(!cfgs.is_empty(), "a batch needs at least one configuration");
    let key = geom_key(&cfgs[0]);
    debug_assert!(
        cfgs.iter().all(|c| geom_key(c) == key),
        "batch lanes must share a geometry key"
    );
    let mut lanes: Vec<CoSimulation> = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let geom = match lanes.first() {
            // Batch mates clone lane 0's parts instead of rebuilding:
            // same-key parts are bit-identical by construction, and the
            // clone shares the prepared matrix the lockstep solver keys on.
            Some(first) => Some(first.clone_geom_parts()),
            None => {
                let g = arena.take_geom(&key);
                if g.is_some() {
                    counter!("sweep.arena_reuse", 1);
                }
                g
            }
        };
        let sim = CoSimulation::try_new_in(cfg, geom, traces)
            // hotgauge-lint: allow(L001, "programmatic entry point mirroring run_sim/CoSimulation::new; user-input paths validate through try_new and exit 2")
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        lanes.push(sim);
    }
    let analyzers: Vec<FrameAnalyzer> = lanes
        .iter()
        .enumerate()
        .map(|(l, sim)| {
            let recycled = if l == 0 { arena.analyzer.take() } else { None };
            recycled.unwrap_or_else(|| {
                let c = sim.config();
                FrameAnalyzer::new(c.detect, c.severity, c.analysis.threads)
            })
        })
        .collect();
    // A lone lane steps solo; only wider batches solve in lockstep.
    if lanes.len() > 1 {
        counter!("solver.batch_width", lanes.len());
        counter!("solver.lockstep_runs", lanes.len());
    }
    let outs = run_batch_with_analyzers(lanes, analyzers, on_lane_done, None);
    let mut results = Vec::with_capacity(outs.len());
    for (l, (result, analyzer, parts)) in outs.into_iter().enumerate() {
        if l == 0 {
            arena.analyzer = Some(analyzer);
            arena.store_geom(key.clone(), parts);
        }
        results.push(result);
    }
    results
}

/// The worker-pool width a sweep of `jobs` runs will use for a `--threads`
/// value of `threads` (`0` = one per hardware thread). Exposed so the bench
/// bins can record the realized pool shape in their run manifests.
///
/// The width is capped at the machine's hardware threads: the runs are
/// CPU-bound, so oversubscribed workers cannot finish sooner — they only
/// multiply per-worker [`SweepArena`] scratch (cached geometries, solver
/// workspaces) into peak RSS. Note the sweep's serial-forcing rule still
/// keys on the *requested* budget, so reported `AnalysisConfig`s do not
/// change with the machine.
pub fn pool_workers(threads: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    resolved_threads(threads).min(hw).min(jobs)
}

/// Whether a sweep at `threads` applies the serial-forcing rule to each
/// run's `AnalysisConfig` (see [`run_many_batched_with`]): true when the
/// requested budget resolves to more than one worker. Exposed so result
/// caches can key on the *effective* per-run config — the one a fresh
/// sweep would record into its [`RunResult`]s — without re-implementing
/// the `--threads 0` hardware resolution.
pub fn sweep_serial_forced(threads: usize) -> bool {
    resolved_threads(threads) > 1
}

/// `--threads` semantics: `0` means one worker per hardware thread.
fn resolved_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs many configurations on the work-stealing pool; results keep input
/// order. `threads = 0` sizes the pool to the hardware; an empty batch
/// returns immediately for any `threads`. `on_done` is invoked from worker
/// threads as each run finishes (sweep liveness for long experiments).
///
/// Same-geometry jobs are solved in lockstep batches of
/// [`DEFAULT_BATCH_WIDTH`]; use [`run_many_batched_with`] to pick another
/// width (or `1` to disable batching). Results are identical either way.
pub fn run_many_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    run_many_batched_with(cfgs, threads, DEFAULT_BATCH_WIDTH, on_done)
}

/// [`run_many_with`] with an explicit lockstep batch width: same-[`geom_key`]
/// jobs are grouped (first-seen key order), ordered by activity trace
/// within the group, and solved up to `batch` at a time through
/// [`run_batch_in`]; `batch <= 1` disables batching and runs
/// every job as a one-lane batch. The width is clamped to
/// [`MAX_LOCKSTEP_WIDTH`]. The batch width never changes any result — only
/// how many runs share each thermal solve. Every run of the sweep reads its
/// core activity from one trace set, so each distinct trace is simulated
/// once per call at any width.
pub fn run_many_batched_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    batch: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    let n = cfgs.len();
    if n == 0 {
        return Vec::new();
    }
    let _executor = span!("sweep.executor");
    counter!("sweep.jobs", n);
    let requested = resolved_threads(threads);
    // Serial-forcing rule: sweep workers already saturate the machine, so
    // per-run analysis threads would only oversubscribe it. Keyed on the
    // requested thread budget — not the realized pool width — so a
    // single-job sweep at `--threads 8` reports the same (serial-forced)
    // `AnalysisConfig` in its `RunResult` as it always has. Results are
    // identical either way.
    let force_serial = requested > 1;
    let batch = batch.clamp(1, MAX_LOCKSTEP_WIDTH);

    let items = work_items(&cfgs, batch);
    let traces = TraceSet::default();
    // Workers are additionally capped at the item count — a worker without
    // a work item would only ever contribute idle arena scratch to peak RSS.
    let workers = pool_workers(threads, n).min(items.len()).max(1);

    let completed = std::sync::atomic::AtomicUsize::new(0);
    let cfgs_ref = &cfgs;
    // Executes one work item in an arena; returns `(input index, result)`
    // pairs. Completion accounting fires per *run* (not per item), as each
    // lane of a batch finishes.
    let run_item = |item: &[usize], arena: &mut SweepArena| -> Vec<(usize, RunResult)> {
        let lane_done = |lane: usize| {
            let idx = item[lane];
            let done = completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            counter!("sweep.completions", 1);
            if let Some(cb) = on_done {
                cb(SweepProgress {
                    done,
                    total: n,
                    benchmark: cfgs_ref[idx].benchmark.clone(),
                    node: cfgs_ref[idx].node,
                    target_core: cfgs_ref[idx].target_core,
                });
            }
        };
        let _run = span!("sweep.run");
        let batch_cfgs: Vec<SimConfig> = item
            .iter()
            .map(|&i| {
                let mut cfg = cfgs_ref[i].clone();
                if force_serial {
                    cfg.analysis = cfg.analysis.serial();
                }
                cfg
            })
            .collect();
        let rs = run_batch_traced(batch_cfgs, arena, &traces, Some(&lane_done));
        item.iter().copied().zip(rs).collect()
    };

    let mut results: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();
    if workers == 1 {
        // Degenerate pool: run inline on the caller thread, still
        // arena-backed so same-geometry runs factor once.
        let mut arena = SweepArena::new();
        for item in &items {
            for (i, r) in run_item(item, &mut arena) {
                results[i] = Some(r);
            }
        }
    } else {
        // Chunked injector: work items enter as contiguous index ranges of
        // ~1/4 of a fair share, so workers refill a few items at a time
        // (amortizing the injector lock) while the tail still balances
        // across the pool.
        let chunk = (items.len() / (workers * 4)).max(1);
        let mut backlog: VecDeque<Range<usize>> = VecDeque::new();
        let mut at = 0;
        while at < items.len() {
            let end = (at + chunk).min(items.len());
            backlog.push_back(at..end);
            at = end;
        }
        let injector = parking_lot::Mutex::new(backlog);
        let locals: Vec<parking_lot::Mutex<VecDeque<usize>>> = (0..workers)
            .map(|_| parking_lot::Mutex::new(VecDeque::new()))
            .collect();
        let results_mutex = parking_lot::Mutex::new(&mut results);
        let items_ref = &items;
        let run_item_ref = &run_item;
        std::thread::scope(|scope| {
            for me in 0..workers {
                let injector = &injector;
                let locals = &locals;
                let results_mutex = &results_mutex;
                scope.spawn(move || {
                    let mut arena = SweepArena::new();
                    while let Some(it) = next_job(me, injector, locals) {
                        let out = run_item_ref(&items_ref[it], &mut arena);
                        let mut slots = results_mutex.lock();
                        for (i, r) in out {
                            slots[i] = Some(r);
                        }
                    }
                });
            }
        });
    }
    results
        .into_iter()
        // hotgauge-lint: allow(L001, "every work item is claimed by exactly one worker before the scope joins, so every slot is Some; a worker panic already propagated at scope exit")
        .map(|r| r.expect("every run completed"))
        .collect()
}

/// The pool's work items for a sweep at lockstep width `batch`: index
/// batches of same-[`geom_key`] jobs. Jobs group by geometry (first-seen
/// order), then within a geometry by [`TraceKey`] (first-seen order), and
/// only then chunk into batches of up to `batch`, so the readers of one
/// trace are adjacent and share a batch — keeping its core alive — unless a
/// chunk boundary cuts them. With `batch == 1` every job is its own item,
/// in input order.
fn work_items(cfgs: &[SimConfig], batch: usize) -> Vec<Vec<usize>> {
    if batch == 1 {
        return (0..cfgs.len()).map(|i| vec![i]).collect();
    }
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, c) in cfgs.iter().enumerate() {
        let key = geom_key(c);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut items = Vec::new();
    for (_, idxs) in groups {
        let mut streams: Vec<(TraceKey, Vec<usize>)> = Vec::new();
        for i in idxs {
            let key = TraceKey::of_run(&cfgs[i]);
            match streams.iter_mut().find(|(k, _)| *k == key) {
                Some((_, same)) => same.push(i),
                None => streams.push((key, vec![i])),
            }
        }
        let ordered: Vec<usize> = streams.into_iter().flat_map(|(_, same)| same).collect();
        items.extend(ordered.chunks(batch).map(<[usize]>::to_vec));
    }
    items
}

/// Claims the next job for worker `me`: own deque first, then a chunk from
/// the injector (first job runs now, the rest queue locally where
/// neighbours can steal them), then a steal from another worker's deque.
/// `None` means every queue is empty — all remaining jobs are already
/// claimed by other workers, so `me` can retire; nothing re-enqueues.
fn next_job(
    me: usize,
    injector: &parking_lot::Mutex<VecDeque<Range<usize>>>,
    locals: &[parking_lot::Mutex<VecDeque<usize>>],
) -> Option<usize> {
    if let Some(i) = locals[me].lock().pop_front() {
        return Some(i);
    }
    let grabbed = {
        let mut inj = injector.lock();
        let chunk = inj.pop_front();
        if chunk.is_some() {
            counter!("sweep.queue_depth", inj.len());
        }
        chunk
    };
    if let Some(mut range) = grabbed {
        let first = range.next();
        if range.start < range.end {
            locals[me].lock().extend(range);
        }
        return first;
    }
    // Steal from the *back* of a victim's deque — the jobs its owner would
    // reach last — scanning neighbours round-robin from our right.
    for k in 1..locals.len() {
        let victim = (me + k) % locals.len();
        if let Some(i) = locals[victim].lock().pop_back() {
            counter!("sweep.steal", 1);
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_floorplan::tech::TechNode;
    use hotgauge_thermal::warmup::Warmup;

    fn quick_cfg(benchmark: &str) -> SimConfig {
        let mut c = SimConfig::new(TechNode::N7, benchmark);
        c.cell_um = 300.0;
        c.substeps = 1;
        c.sample_instrs = 8_000;
        c.max_time_s = 6e-4;
        c.warmup = Warmup::Cold;
        c
    }

    /// One config through [`run_batch_in`]: `run_sim` inside `arena`.
    fn run_in(cfg: SimConfig, arena: &mut SweepArena) -> RunResult {
        run_batch_in(vec![cfg], arena, None).remove(0)
    }

    #[test]
    fn empty_batch_returns_cleanly_for_any_thread_count() {
        for threads in [0, 1, 7] {
            assert!(run_many_with(Vec::new(), threads, None).is_empty());
        }
    }

    #[test]
    fn threads_zero_resolves_to_hardware_pool() {
        let rs = run_many_with(vec![quick_cfg("hmmer")], 0, None);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].config.benchmark, "hmmer");
    }

    #[test]
    fn more_threads_than_jobs_preserves_order_and_serial_forcing() {
        let rs = run_many_with(vec![quick_cfg("hmmer"), quick_cfg("povray")], 8, None);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].config.benchmark, "hmmer");
        assert_eq!(rs[1].config.benchmark, "povray");
        for r in &rs {
            // The serial-forcing rule keys on the requested budget (8 > 1)
            // even though only two workers exist.
            assert_eq!(r.config.analysis.threads, 1);
        }
    }

    #[test]
    fn single_job_single_thread_keeps_analysis_config() {
        let cfg = quick_cfg("hmmer");
        let want = cfg.analysis;
        let rs = run_many_with(vec![cfg], 1, None);
        assert_eq!(
            rs[0].config.analysis, want,
            "threads=1 must not serial-force"
        );
    }

    #[test]
    fn progress_callback_reaches_total_exactly_once_per_job() {
        let seen = parking_lot::Mutex::new(Vec::new());
        let cb = |p: SweepProgress| seen.lock().push(p.done);
        let cfgs = vec![quick_cfg("hmmer"); 5];
        let rs = run_many_with(cfgs, 2, Some(&cb));
        assert_eq!(rs.len(), 5);
        let mut dones = seen.into_inner();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn arena_reuse_is_bitwise_identical_to_fresh_runs() {
        let mut arena = SweepArena::new();
        let a1 = run_in(quick_cfg("hmmer"), &mut arena);
        assert_eq!(arena.cached_geometries(), 1);
        // Second run hits the cached geometry; reference comes from a
        // fresh arena (= fresh construction).
        let a2 = run_in(quick_cfg("povray"), &mut arena);
        let b2 = run_in(quick_cfg("povray"), &mut SweepArena::new());
        assert_eq!(a2.records, b2.records);
        assert_eq!(a2.final_frame, b2.final_frame);
        assert_eq!(a2.sev_series, b2.sev_series);
        assert_eq!(a2.total_instructions, b2.total_instructions);
        assert_eq!(a1.config.benchmark, "hmmer");
    }

    #[test]
    fn arena_caches_per_geometry_and_evicts_fifo() {
        let mut arena = SweepArena::new();
        for i in 0..(MAX_ARENA_GEOMETRIES + 2) {
            let mut c = quick_cfg("hmmer");
            c.cell_um = 300.0 + 10.0 * i as f64; // distinct geometry each
            c.max_time_s = 2e-4;
            run_in(c, &mut arena);
        }
        assert_eq!(arena.cached_geometries(), MAX_ARENA_GEOMETRIES);
    }

    #[test]
    fn geom_key_separates_geometry_but_not_workload() {
        let a = quick_cfg("hmmer");
        let mut b = quick_cfg("povray");
        b.seed = 99;
        b.warmup = Warmup::Idle;
        b.stop_at_first_hotspot = true;
        assert_eq!(
            geom_key(&a),
            geom_key(&b),
            "workload fields must not split the key"
        );
        let mut c = quick_cfg("hmmer");
        c.cell_um = 299.0;
        assert_ne!(geom_key(&a), geom_key(&c));
        let mut d = quick_cfg("hmmer");
        d.substeps = 2;
        assert_ne!(geom_key(&a), geom_key(&d));
    }

    #[test]
    fn work_items_group_streams_inside_geometry_groups() {
        // Two geometries; traces differ by benchmark, seed, target core
        // (part of the stream seed), or sample size. Fields that only shape
        // the run — warm-up, stop mode, horizon — do not split a trace.
        let job = |bench: &str, seed: u64, core: usize, cell_um: f64| {
            let mut c = quick_cfg(bench);
            c.seed = seed;
            c.target_core = core;
            c.cell_um = cell_um;
            c
        };
        let mut cfgs = vec![
            job("hmmer", 1, 0, 300.0), // 0: stream A
            job("gcc", 1, 0, 300.0),   // 1: stream B
            job("hmmer", 1, 1, 300.0), // 2: stream C (other core)
            job("hmmer", 1, 0, 360.0), // 3: stream A, other geometry
            job("hmmer", 1, 0, 300.0), // 4: stream A
            job("gcc", 1, 0, 300.0),   // 5: stream B
            job("hmmer", 2, 0, 300.0), // 6: stream D (other seed)
            job("hmmer", 1, 0, 300.0), // 7: stream A
            job("hmmer", 1, 0, 300.0), // 8: stream E (other sample size)
        ];
        cfgs[4].warmup = Warmup::Idle;
        cfgs[5].stop_at_first_hotspot = true;
        cfgs[7].max_time_s = 2e-4;
        cfgs[8].sample_instrs = 4_000;
        let flat = |items: &[Vec<usize>]| -> Vec<usize> { items.concat() };

        // Every job exactly once; every item within one geometry group; and
        // the jobs of a stream are adjacent, so only a chunk boundary can
        // separate them.
        for batch in [2, 3, 8] {
            let items = work_items(&cfgs, batch);
            let order = flat(&items);
            let mut all = order.clone();
            all.sort_unstable();
            assert_eq!(all, (0..cfgs.len()).collect::<Vec<_>>());
            for item in &items {
                assert!(item.len() <= batch);
                assert!(item
                    .iter()
                    .all(|&i| geom_key(&cfgs[i]) == geom_key(&cfgs[item[0]])));
            }
            for (k, &i) in order.iter().enumerate() {
                let same = |&j: &usize| {
                    TraceKey::of_run(&cfgs[j]) == TraceKey::of_run(&cfgs[i])
                        && geom_key(&cfgs[j]) == geom_key(&cfgs[i])
                };
                let last = order.iter().rposition(same).unwrap();
                assert!(order[k..=last].iter().all(same), "stream of job {i} split");
            }
        }
        // Wide enough: each stream sits in one item, first-seen order.
        assert_eq!(
            work_items(&cfgs, 8),
            vec![vec![0, 4, 7, 1, 5, 2, 6, 8], vec![3]]
        );
        // Width 2: A's three jobs are cut by a chunk boundary, which shifts
        // B across the next one; chunking never reorders to avoid a cut.
        assert_eq!(
            work_items(&cfgs, 2),
            vec![vec![0, 4], vec![7, 1], vec![5, 2], vec![6, 8], vec![3]]
        );
        // Width 1 is the classic per-job executor, in input order.
        assert_eq!(
            flat(&work_items(&cfgs, 1)),
            (0..cfgs.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_workers_caps_at_jobs_and_hardware() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(pool_workers(4, 2), 4.min(hw).min(2));
        assert_eq!(pool_workers(2, 100), 2.min(hw));
        assert!(pool_workers(0, 100) >= 1);
        assert_eq!(pool_workers(3, 0), 0);
        // The RSS guarantee: requesting far more workers than the machine
        // has hardware threads must not widen the realized pool — each
        // realized worker owns arena scratch (cached geometries, solver
        // workspaces), so the pool width bounds peak memory.
        assert!(
            pool_workers(64 * hw, 1_000) <= hw,
            "oversubscription must not widen the pool"
        );
        assert_eq!(pool_workers(0, 1_000), hw);
    }

    #[test]
    fn batched_executor_matches_unbatched_executor_bitwise() {
        // Two geometries interleaved plus a straggler: groups of 3 and 2
        // chunk into a width-2 batch + singleton, and one width-2 batch.
        let mut cfgs = Vec::new();
        for (i, bench) in ["hmmer", "povray", "gcc", "hmmer", "povray"]
            .iter()
            .enumerate()
        {
            let mut c = quick_cfg(bench);
            if i % 2 == 1 {
                c.cell_um = 360.0;
            }
            c.seed = i as u64;
            cfgs.push(c);
        }
        let unbatched = run_many_batched_with(cfgs.clone(), 1, 1, None);
        let batched = run_many_batched_with(cfgs, 1, 2, None);
        assert_eq!(unbatched.len(), batched.len());
        for (a, b) in unbatched.iter().zip(&batched) {
            assert_eq!(a.records, b.records);
            assert_eq!(a.final_frame, b.final_frame);
            assert_eq!(a.sev_series, b.sev_series);
            assert_eq!(a.total_instructions, b.total_instructions);
            assert_eq!(a.config.benchmark, b.config.benchmark);
        }
    }

    #[test]
    fn run_batch_in_is_bitwise_identical_to_fresh_runs_and_recycles_the_arena() {
        let mut arena = SweepArena::new();
        let cfgs = vec![quick_cfg("hmmer"), quick_cfg("povray")];
        let want: Vec<RunResult> = cfgs
            .iter()
            .map(|c| run_in(c.clone(), &mut SweepArena::new()))
            .collect();
        let got = run_batch_in(cfgs.clone(), &mut arena, None);
        assert_eq!(
            arena.cached_geometries(),
            1,
            "lane 0's parts return to the arena"
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.records, w.records);
            assert_eq!(g.final_frame, w.final_frame);
            assert_eq!(g.total_instructions, w.total_instructions);
        }
        // A second batch through the same arena recycles the stored parts.
        let again = run_batch_in(cfgs, &mut arena, None);
        for (g, w) in again.iter().zip(&want) {
            assert_eq!(g.records, w.records);
            assert_eq!(g.final_frame, w.final_frame);
        }
    }

    #[test]
    fn batch_lane_completion_callbacks_fire_once_per_run() {
        let seen = parking_lot::Mutex::new(Vec::new());
        let cb = |p: SweepProgress| seen.lock().push((p.done, p.benchmark.clone()));
        let cfgs = vec![quick_cfg("hmmer"), quick_cfg("povray"), quick_cfg("gcc")];
        let rs = run_many_batched_with(cfgs, 1, 8, Some(&cb));
        assert_eq!(rs.len(), 3);
        let mut dones: Vec<usize> = seen.into_inner().into_iter().map(|(d, _)| d).collect();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2, 3]);
    }
}
