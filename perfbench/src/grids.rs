//! The benchmark's job grids and the workload properties counted on them.
//!
//! Both grids come from the library's own figure-grid functions
//! (`tuh_grid`, `sec5b_grid`); the benchmark only sets every job's seed and
//! the thread budget of the measuring host.

use std::collections::HashSet;

use hotgauge_core::experiments::{sec5b_grid, tuh_grid, Fidelity};
use hotgauge_core::pipeline::SimConfig;
use hotgauge_core::DEFAULT_BATCH_WIDTH;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_store::{request_config, SweepRequest};
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006::ALL_BENCHMARKS;

/// The §V-B benchmarks and IC area factors of `sec5b_ic_scaling`.
pub const IC_BENCHMARKS: [&str; 4] = ["gcc", "hmmer", "povray", "gobmk"];
pub const IC_FACTORS: [f64; 8] = [1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0];
/// §V-B horizon cap (the bin runs `min(preset horizon, 20 ms)`).
const IC_HORIZON_S: f64 = 0.02;

/// Sweep worker threads: one per hardware thread, as the figure bins use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The fidelity preset a workload runs at, with the host's thread budget.
/// `ic_scaling` uses the fast preset (250 µm) rather than the bin's medium
/// one: at 150 µm every fresh-process reference job pays its own idle
/// warm-up, and the per-row reference no longer fits a benchmark run.
pub fn fidelity(workload: &str) -> Fidelity {
    let mut fid = match workload {
        "ic_scaling" => Fidelity::fast(),
        _ => Fidelity::smoke(),
    };
    fid.threads = nproc();
    fid
}

/// The job grid of a grid workload at `seed`, in the order the figure bins
/// submit it. `None` for an unknown workload.
pub fn grid(workload: &str, seed: u64) -> Option<Vec<SimConfig>> {
    let fid = fidelity(workload);
    let mut cfgs = match workload {
        "tuh_grid" => {
            let cores: Vec<usize> = (0..7).collect();
            let mut g = tuh_grid(&fid, TechNode::N7, Warmup::Cold, &ALL_BENCHMARKS, &cores);
            g.extend(tuh_grid(
                &fid,
                TechNode::N7,
                Warmup::Idle,
                &ALL_BENCHMARKS,
                &cores,
            ));
            g
        }
        "ic_scaling" => sec5b_grid(
            &fid,
            &IC_BENCHMARKS,
            &IC_FACTORS,
            fid.max_time_s.min(IC_HORIZON_S),
        ),
        _ => return None,
    };
    for c in &mut cfgs {
        c.seed = seed;
    }
    Some(cfgs)
}

/// `count` evenly spaced indices of an `n`-job grid (all of them when
/// `count` is `None` or at least `n`); the benchmark's short mode.
pub fn subset(n: usize, count: Option<usize>) -> Vec<usize> {
    match count {
        Some(k) if k < n => (0..k).map(|i| i * n / k).collect(),
        _ => (0..n).collect(),
    }
}

/// A grid workload's job list after the short-mode subset.
pub fn jobs(workload: &str, seed: u64, count: Option<usize>) -> Option<Vec<SimConfig>> {
    let all = grid(workload, seed)?;
    Some(
        subset(all.len(), count)
            .into_iter()
            .map(|i| all[i].clone())
            .collect(),
    )
}

/// The config the service builds for one request line (smoke preset, the
/// host's thread budget), as `hotgauge serve` does.
pub fn request_job(line: &str) -> Result<SimConfig, String> {
    let req: SweepRequest = serde_json::from_str(line).map_err(|e| format!("{e:?}"))?;
    let mut fid = Fidelity::smoke();
    fid.threads = nproc();
    request_config(&req, &fid).map_err(|e| e.to_string())
}

/// The executor's effective config for a job of a pooled sweep: the
/// serial-forcing rule `run_many_batched_with` applies at `threads > 1`.
pub fn effective(cfg: &SimConfig, threads: usize) -> SimConfig {
    let mut c = cfg.clone();
    if threads > 1 {
        c.analysis = c.analysis.serial();
    }
    c
}

/// The workload-generator seed the pipeline derives for a job.
pub fn stream_seed(cfg: &SimConfig) -> u64 {
    cfg.seed ^ (cfg.target_core as u64) << 32 ^ (cfg.node.generations_from_14() as u64) << 40
}

/// Every config field the geometry-keyed model parts depend on (the
/// executor's grouping key).
fn geometry(cfg: &SimConfig) -> String {
    format!(
        "{:?}|{}|{}|{}|{}|{}|{:?}",
        cfg.node,
        cfg.cell_um.to_bits(),
        cfg.border_mm.to_bits(),
        cfg.substeps,
        cfg.solver,
        cfg.ic_area_factor.to_bits(),
        cfg.unit_scales
    )
}

/// Jobs whose row depends on which job reached the pipeline's idle
/// warm-up memo first: idle-warm-up jobs whose memo entry (floorplan,
/// cell, border) is shared with idle jobs of a different idle stream.
pub fn memo_exposed(cfgs: &[SimConfig]) -> Vec<bool> {
    let memo_key = |c: &SimConfig| {
        format!(
            "{:?}|{}|{:?}|{}|{}",
            c.node,
            c.ic_area_factor.to_bits(),
            c.unit_scales,
            c.cell_um.to_bits(),
            c.border_mm.to_bits()
        )
    };
    let mut streams: Vec<(String, HashSet<u64>)> = Vec::new();
    for c in cfgs.iter().filter(|c| c.warmup == Warmup::Idle) {
        let k = memo_key(c);
        match streams.iter_mut().find(|(key, _)| *key == k) {
            Some((_, set)) => {
                set.insert(stream_seed(c));
            }
            None => streams.push((k, HashSet::from([stream_seed(c)]))),
        }
    }
    cfgs.iter()
        .map(|c| {
            c.warmup == Warmup::Idle
                && streams
                    .iter()
                    .any(|(k, set)| *k == memo_key(c) && set.len() > 1)
        })
        .collect()
}

/// Exact workload-property counts of a job list.
#[derive(Debug, Clone, Copy)]
pub struct Properties {
    /// Jobs whose core trace (benchmark, stream seed, sample size) repeats
    /// an earlier job's, over all jobs.
    pub trace_dup_frac: f64,
    /// Idle-warm-up jobs whose warm-up inputs (geometry and idle stream)
    /// repeat an earlier job's, over idle-warm-up jobs.
    pub warmup_dup_frac: f64,
    /// Distinct geometries, i.e. lockstep groups.
    pub geom_groups: usize,
}

/// The executor's work items for one call at the default batch width:
/// same-geometry jobs chunked into lockstep batches.
pub fn work_items(cfgs: &[SimConfig]) -> usize {
    let mut groups: Vec<(String, usize)> = Vec::new();
    for c in cfgs {
        let g = geometry(c);
        match groups.iter_mut().find(|(k, _)| *k == g) {
            Some((_, n)) => *n += 1,
            None => groups.push((g, 1)),
        }
    }
    groups
        .iter()
        .map(|(_, n)| n.div_ceil(DEFAULT_BATCH_WIDTH))
        .sum()
}

pub fn properties(cfgs: &[SimConfig]) -> Properties {
    let mut traces = HashSet::new();
    let mut warmups = HashSet::new();
    let mut geometries = HashSet::new();
    let mut idle_jobs = 0usize;
    for c in cfgs {
        traces.insert((c.benchmark.clone(), stream_seed(c), c.sample_instrs));
        let g = geometry(c);
        if c.warmup == Warmup::Idle {
            idle_jobs += 1;
            warmups.insert((g.clone(), stream_seed(c)));
        }
        geometries.insert(g);
    }
    let dup = |distinct: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            1.0 - distinct as f64 / of as f64
        }
    };
    Properties {
        trace_dup_frac: dup(traces.len(), cfgs.len()),
        warmup_dup_frac: dup(warmups.len(), idle_jobs),
        geom_groups: geometries.len(),
    }
}
