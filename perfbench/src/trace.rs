//! The traced run (`perfbench trace`), a separate fresh process per
//! workload with three parts:
//!
//! * (a) the layer replay of every job ([`crate::replay`]), whose rows the
//!   runner checks against the fresh-process reference;
//! * (b) the program's own per-run costs: every job through
//!   `CoSimulation::try_new` + `run`, with the process memos in place;
//! * (c) the store and service replay: the workload's request session
//!   through the store's and service's public calls.
//!
//! Jobs of (a) and (b) run on one worker per hardware thread; every call
//! is timed on the thread that makes it and the times are summed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{CoSimulation, RunResult, SimConfig};
use hotgauge_core::{run_many_batched_with, DEFAULT_BATCH_WIDTH};
use hotgauge_store::{
    request_config, rows_for_outcome, sweep_key, write_row_line, ContentKey, ResultStore,
    RunSource, StoreStats, SweepOutcome, SweepRequest,
};
use hotgauge_thermal::warmup::Warmup;

use crate::grids::{self, effective, fidelity, nproc};
use crate::replay::{replay_job, timed, Ledger};
use crate::{floats_json, rows_json, Args, Row};

/// Runs `f` over `0..n` on `threads` workers; returns the outputs in index
/// order and the merged per-thread ledgers.
fn par_map<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize, &mut Ledger) -> T + Sync,
) -> (Vec<T>, Ledger) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let total = Mutex::new(Ledger::default());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            s.spawn(|| {
                let mut ledger = Ledger::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = f(i, &mut ledger);
                    out.lock().expect("replay output lock").push((i, v));
                }
                total.lock().expect("ledger lock").merge(&ledger);
            });
        }
    });
    let mut out = out.into_inner().expect("replay output lock");
    out.sort_by_key(|(i, _)| *i);
    let ledger = total.into_inner().expect("ledger lock");
    (out.into_iter().map(|(_, v)| v).collect(), ledger)
}

/// A grid job as the request line the service would receive for it.
fn request_line(cfg: &SimConfig, fid: &Fidelity, threads: usize) -> Result<String, String> {
    /// Milliseconds per second, for the request's `ms` horizon field.
    const MS_PER_S: f64 = 1e3;
    let req = SweepRequest {
        benchmark: cfg.benchmark.clone(),
        node: Some(cfg.node.label().to_owned()),
        core: Some(cfg.target_core),
        seed: Some(cfg.seed),
        cold: Some(cfg.warmup == Warmup::Cold),
        ms: (cfg.max_time_s != fid.max_time_s).then_some(cfg.max_time_s * MS_PER_S),
        ic_area: (cfg.ic_area_factor != 1.0).then_some(cfg.ic_area_factor),
        stop_at_first_hotspot: Some(cfg.stop_at_first_hotspot),
    };
    let back = request_config(&req, fid).map_err(|e| e.to_string())?;
    if sweep_key(&back, threads) != sweep_key(cfg, threads) {
        return Err(format!(
            "job {} is not expressible as a request",
            cfg.benchmark
        ));
    }
    serde_json::to_string(&req).map_err(|e| format!("{e:?}"))
}

/// Host time and counts of the store/service replay.
#[derive(Debug, Default)]
struct StoreLedger {
    open_s: f64,
    key_s: f64,
    get_s: f64,
    put_s: f64,
    flush_s: f64,
    parse_s: f64,
    rows_s: f64,
    bytes_read: u64,
    bytes_written: u64,
    rejected: u64,
    stats: StoreStats,
    /// Jobs the service had to simulate, and the executor work items
    /// (lockstep batches) they formed.
    sim_jobs: usize,
    sim_items: usize,
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Replays a request session (NDJSON lines, blank line = end of batch)
/// through the calls `hotgauge serve` makes: parse and `request_config`,
/// `sweep_key`, `ResultStore::get`, `put` and `flush` for misses, and
/// `rows_for_outcome` + `write_row_line`. Misses take their result from
/// `known` (the (b) runs) instead of simulating again.
fn replay_store(
    session: &str,
    fid: &Fidelity,
    store_dir: &str,
    known: &HashMap<ContentKey, RunResult>,
) -> Result<StoreLedger, String> {
    let mut l = StoreLedger::default();
    let mut store =
        timed(&mut l.open_s, || ResultStore::open(store_dir)).map_err(|e| e.to_string())?;
    let mut sink: Vec<u8> = Vec::new();
    let mut pending: Vec<SweepRequest> = Vec::new();
    let lines: Vec<&str> = session.lines().chain(std::iter::once("")).collect();
    for line in lines {
        if !line.trim().is_empty() {
            match timed(&mut l.parse_s, || {
                serde_json::from_str::<SweepRequest>(line)
            }) {
                Ok(req) => pending.push(req),
                Err(_) => l.rejected += 1,
            }
            continue;
        }
        if pending.is_empty() {
            continue;
        }
        let batch = std::mem::take(&mut pending);
        let cfgs: Result<Vec<SimConfig>, _> = timed(&mut l.parse_s, || {
            batch.iter().map(|r| request_config(r, fid)).collect()
        });
        let Ok(cfgs) = cfgs else {
            l.rejected += batch.len() as u64;
            continue;
        };
        let keys: Vec<ContentKey> = timed(&mut l.key_s, || {
            cfgs.iter().map(|c| sweep_key(c, fid.threads)).collect()
        });
        let mut results = Vec::with_capacity(cfgs.len());
        let mut sources = Vec::with_capacity(cfgs.len());
        let mut misses = Vec::new();
        for (cfg, key) in cfgs.iter().zip(&keys) {
            match timed(&mut l.get_s, || store.get(key)) {
                Some(r) => {
                    l.bytes_read += file_len(&store.object_path(key));
                    results.push(r);
                    sources.push(RunSource::Store);
                }
                None => {
                    let r = match known.get(key) {
                        Some(r) => r.clone(),
                        None => run_many_batched_with(
                            vec![cfg.clone()],
                            fid.threads,
                            DEFAULT_BATCH_WIDTH,
                            None,
                        )
                        .remove(0),
                    };
                    timed(&mut l.put_s, || store.put(key, &r)).map_err(|e| e.to_string())?;
                    l.bytes_written += file_len(&store.object_path(key));
                    results.push(r);
                    sources.push(RunSource::Simulated);
                    misses.push(cfg.clone());
                }
            }
        }
        if !misses.is_empty() {
            l.sim_jobs += misses.len();
            l.sim_items += grids::work_items(&misses);
            timed(&mut l.flush_s, || store.flush()).map_err(|e| e.to_string())?;
            l.bytes_written += file_len(&std::path::Path::new(store_dir).join("index.json"));
        }
        let outcome = SweepOutcome {
            results,
            keys,
            sources,
            stats: StoreStats::default(),
        };
        timed(&mut l.rows_s, || {
            rows_for_outcome(&outcome)
                .iter()
                .try_for_each(|row| write_row_line(&mut sink, row))
        })
        .map_err(|e| e.to_string())?;
    }
    l.stats = store.stats();
    Ok(l)
}

/// Prints a grid workload's jobs as request lines.
pub(crate) fn cmd_requests(a: &Args) -> Result<(), String> {
    let (workload, _, jobs) = crate::workload_jobs(a)?;
    let fid = fidelity(&workload);
    for c in &jobs {
        println!("{}", request_line(c, &fid, fid.threads)?);
    }
    Ok(())
}

pub(crate) fn cmd_trace(a: &Args) -> Result<(), String> {
    let workload = a.req("--workload")?;
    let store_dir = a.req("--store")?;
    let threads = nproc();
    let read = |flag: &str| -> Result<String, String> {
        let path = a.req(flag)?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (fid, jobs, session) = if workload == "serve_warm" {
        let mut fid = Fidelity::smoke();
        fid.threads = threads;
        let jobs = read("--requests")?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(grids::request_job)
            .collect::<Result<Vec<_>, _>>()?;
        (fid, jobs, read("--mix")?)
    } else {
        let seed: u64 = a.num("--seed")?.unwrap_or(0);
        let jobs = grids::jobs(workload, seed, a.num("--jobs")?)
            .ok_or_else(|| format!("unknown workload {workload}"))?;
        let fid = fidelity(workload);
        // One batch of the whole grid into an empty store, then the same
        // batch again: the cold and the warm pass of `--store`.
        let batch: Vec<String> = jobs
            .iter()
            .map(|c| request_line(c, &fid, threads))
            .collect::<Result<_, _>>()?;
        let batch = batch.join("\n");
        (fid, jobs, format!("{batch}\n\n{batch}\n"))
    };
    let props = grids::properties(&jobs);
    let eff: Vec<SimConfig> = jobs.iter().map(|c| effective(c, threads)).collect();

    // (a) Layer replay.
    let t_replay = Instant::now();
    let (replayed, ledger) = par_map(eff.len(), threads, |i, l| {
        let before = l.job_wall_s;
        let row = replay_job(&eff[i], l);
        (row, l.job_wall_s - before)
    });
    let replay_wall = t_replay.elapsed().as_secs_f64();
    let (rows, job_walls): (Vec<Row>, Vec<f64>) = replayed.into_iter().unzip();

    // (b) The program's per-run costs, memos in place.
    let (runs, _) = par_map(eff.len(), threads, |i, _| {
        let t0 = Instant::now();
        let sim = CoSimulation::try_new(eff[i].clone()).map_err(|e| e.to_string());
        let construct = t0.elapsed().as_secs_f64();
        sim.map(|sim| {
            let t1 = Instant::now();
            let r = sim.run();
            (construct, t1.elapsed().as_secs_f64(), r)
        })
    });
    let mut construct_s = 0.0;
    let mut run_s = 0.0;
    let mut known = HashMap::new();
    for (job, run) in jobs.iter().zip(runs) {
        let (c, r, result) = run?;
        construct_s += c;
        run_s += r;
        known.insert(sweep_key(job, threads), result);
    }

    // (c) Store and service replay.
    let st = replay_store(&session, &fid, store_dir, &known)?;

    let l = &ledger;
    let perf_s = l.perf_warmup_s + l.perf_window_s + l.perf_idle_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let lookups = st.stats.hits + st.stats.misses;
    let metrics: Vec<(&str, f64)> = vec![
        ("perf.warmup_s", l.perf_warmup_s),
        ("perf.window_s", l.perf_window_s),
        ("perf.idle_s", l.perf_idle_s),
        ("perf.instrs", l.perf_instrs as f64),
        (
            "perf.ns_per_instr",
            ratio(perf_s * 1e9, l.perf_instrs as f64),
        ),
        ("workloads.trace_dup_frac", props.trace_dup_frac),
        ("power.build_s", l.power_build_s),
        ("power.eval_s", l.power_eval_s),
        ("power.evals", l.power_evals as f64),
        ("floorplan.build_s", l.floorplan_build_s),
        ("floorplan.rasterize_s", l.floorplan_rasterize_s),
        ("floorplan.power_map_s", l.floorplan_power_map_s),
        ("floorplan.cells", l.floorplan_cells as f64),
        ("thermal.build_s", l.thermal_build_s),
        ("thermal.warmup_s", l.thermal_warmup_s),
        ("thermal.step_s", l.thermal_step_s),
        ("thermal.extract_s", l.thermal_extract_s),
        ("thermal.steps", l.thermal_steps as f64),
        ("thermal.cg_iters", l.thermal_cg_iters as f64),
        (
            "thermal.cg_iters_per_step",
            ratio(l.thermal_cg_iters as f64, l.thermal_steps as f64),
        ),
        (
            "thermal.direct_engaged",
            ratio(l.thermal_direct_engaged as f64, l.jobs as f64),
        ),
        ("thermal.warmup_dup_frac", props.warmup_dup_frac),
        ("core.analysis_s", l.analysis_s),
        ("core.analysis.frames", l.analysis_frames as f64),
        (
            "core.analysis.cold_frame_frac",
            ratio(l.analysis_cold_frames as f64, l.analysis_frames as f64),
        ),
        ("core.analysis.hotspots", l.analysis_hotspots as f64),
        ("core.sweep.construct_s", construct_s),
        ("core.sweep.run_s", run_s),
        ("core.sweep.geom_groups", props.geom_groups as f64),
        (
            "core.sweep.lanes_per_batch",
            ratio(st.sim_jobs as f64, st.sim_items as f64),
        ),
        ("store.open_s", st.open_s),
        ("store.key_s", st.key_s),
        ("store.get_s", st.get_s),
        ("store.put_s", st.put_s),
        ("store.flush_s", st.flush_s),
        (
            "store.hit_rate",
            ratio(st.stats.hits as f64, lookups as f64),
        ),
        ("store.bytes_read", st.bytes_read as f64),
        ("store.bytes_written", st.bytes_written as f64),
        ("store.quarantined", st.stats.quarantined as f64),
        ("store.service.parse_s", st.parse_s),
        ("store.service.rows_s", st.rows_s),
        ("store.service.rejected", st.rejected as f64),
        ("trace.unattributed_s", l.job_wall_s - l.attributed_s()),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:?}"))
        .collect();
    println!(
        "{{\"metrics\":{{{}}},\"replay_wall_s\":{replay_wall:?},\"job_wall_s\":{},\"rows\":{}}}",
        body.join(","),
        floats_json(&job_walls),
        rows_json(&rows)
    );
    Ok(())
}
