//! The traced layer replay: one job at a time through each layer's public
//! functions, in the pipeline's order, timing every call from outside.
//!
//! Nothing inside the program is instrumented and no process-global memo
//! is used, so a replayed job does exactly the work of the same job run
//! alone in a fresh process — and must produce the same row.

use std::time::Instant;

use hotgauge_core::analysis::FrameAnalyzer;
use hotgauge_core::pipeline::{
    build_floorplan, unit_temperatures, SimConfig, UNIT_POWER_CONCENTRATION,
};
use hotgauge_core::series::TimeSeries;
use hotgauge_core::units::M_PER_MM;
use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_perf::activity::ActivityCounters;
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_power::model::{CoreWindow, PowerModel, PowerParams};
use hotgauge_thermal::model::{SolverStrategy, ThermalModel, ThermalSim};
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::{initial_state, Warmup};
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::{
    benchmark_profile, idle_profile, IDLE_DUTY_CYCLE, IDLE_WARMUP_DURATION_S,
};

use crate::grids::stream_seed;
use crate::Row;

/// The pipeline's core warm-up before the region of interest.
const CORE_WARMUP_INSTRS: u64 = 2_000_000;
/// The background cores' idle window: warm-up, then the sampled window.
const IDLE_WARMUP_INSTRS: u64 = 200_000;
const IDLE_WINDOW_INSTRS: u64 = 50_000;
/// Thermal warm-up step and the stepping CG tolerance the pipeline uses.
const IDLE_WARMUP_DT_S: f64 = 25e-3;
const STEP_CG_TOLERANCE: f64 = 1e-6;
/// Mixing constant of the background cores' idle stream seed.
const IDLE_SEED_MIX: u64 = 0xDEAD_BEEF;

/// Host seconds spent in each layer's public calls, and the layers' counts.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub perf_warmup_s: f64,
    pub perf_window_s: f64,
    pub perf_idle_s: f64,
    pub perf_instrs: u64,
    pub power_build_s: f64,
    pub power_eval_s: f64,
    pub power_evals: u64,
    pub floorplan_build_s: f64,
    pub floorplan_rasterize_s: f64,
    pub floorplan_power_map_s: f64,
    pub floorplan_cells: u64,
    pub thermal_build_s: f64,
    pub thermal_warmup_s: f64,
    pub thermal_step_s: f64,
    pub thermal_extract_s: f64,
    pub thermal_steps: u64,
    pub thermal_cg_iters: u64,
    pub thermal_direct_engaged: u64,
    pub analysis_s: f64,
    pub analysis_frames: u64,
    pub analysis_cold_frames: u64,
    pub analysis_hotspots: u64,
    /// Wall time of the replayed jobs, summed.
    pub job_wall_s: f64,
    pub jobs: u64,
}

impl Ledger {
    /// Host seconds attributed to a layer call.
    pub fn attributed_s(&self) -> f64 {
        self.perf_warmup_s
            + self.perf_window_s
            + self.perf_idle_s
            + self.power_build_s
            + self.power_eval_s
            + self.floorplan_build_s
            + self.floorplan_rasterize_s
            + self.floorplan_power_map_s
            + self.thermal_build_s
            + self.thermal_warmup_s
            + self.thermal_step_s
            + self.thermal_extract_s
            + self.analysis_s
    }

    pub fn merge(&mut self, o: &Ledger) {
        self.perf_warmup_s += o.perf_warmup_s;
        self.perf_window_s += o.perf_window_s;
        self.perf_idle_s += o.perf_idle_s;
        self.perf_instrs += o.perf_instrs;
        self.power_build_s += o.power_build_s;
        self.power_eval_s += o.power_eval_s;
        self.power_evals += o.power_evals;
        self.floorplan_build_s += o.floorplan_build_s;
        self.floorplan_rasterize_s += o.floorplan_rasterize_s;
        self.floorplan_power_map_s += o.floorplan_power_map_s;
        self.floorplan_cells += o.floorplan_cells;
        self.thermal_build_s += o.thermal_build_s;
        self.thermal_warmup_s += o.thermal_warmup_s;
        self.thermal_step_s += o.thermal_step_s;
        self.thermal_extract_s += o.thermal_extract_s;
        self.thermal_steps += o.thermal_steps;
        self.thermal_cg_iters += o.thermal_cg_iters;
        self.thermal_direct_engaged += o.thermal_direct_engaged;
        self.analysis_s += o.analysis_s;
        self.analysis_frames += o.analysis_frames;
        self.analysis_cold_frames += o.analysis_cold_frames;
        self.analysis_hotspots += o.analysis_hotspots;
        self.job_wall_s += o.job_wall_s;
        self.jobs += o.jobs;
    }
}

/// Runs `f`, adding its host time to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed().as_secs_f64();
    v
}

/// The seven cores' windows: the target core's activity, the others idle
/// (or parked) — the pipeline's background model.
fn core_windows<'a>(
    cfg: &SimConfig,
    target: Option<&'a ActivityCounters>,
    idle: &'a ActivityCounters,
) -> Vec<CoreWindow<'a>> {
    let mut cores: Vec<CoreWindow<'a>> = (0..7)
        .map(|_| {
            if cfg.background_idle || target.is_none() {
                CoreWindow::Active {
                    activity: idle,
                    duty: IDLE_DUTY_CYCLE,
                }
            } else {
                CoreWindow::Parked
            }
        })
        .collect();
    if let Some(act) = target {
        cores[cfg.target_core] = CoreWindow::Active {
            activity: act,
            duty: 1.0,
        };
    }
    cores
}

/// Replays one job (its effective config) and returns its result row.
pub fn replay_job(cfg: &SimConfig, l: &mut Ledger) -> Row {
    let job_start = Instant::now();

    // Floorplan build and rasterization; the power model is built on the
    // node's baseline floorplan, as the pipeline does.
    let fp = timed(&mut l.floorplan_build_s, || build_floorplan(cfg));
    let baseline = timed(&mut l.floorplan_build_s, || {
        SkylakeProxy::new(cfg.node).build()
    });
    let grid = timed(&mut l.floorplan_rasterize_s, || {
        FloorplanGrid::rasterize(&fp, cfg.cell_um)
    });
    let grid_peaked = timed(&mut l.floorplan_rasterize_s, || {
        FloorplanGrid::rasterize_with_concentration(
            &fp,
            cfg.cell_um,
            Some(UNIT_POWER_CONCENTRATION),
        )
    });
    l.floorplan_cells += grid.cell_count() as u64;
    let power = timed(&mut l.power_build_s, || {
        PowerModel::new(&baseline, cfg.node, PowerParams::default())
    });

    // Core warm-up, then the background cores' idle window.
    let profile = benchmark_profile(&cfg.benchmark).expect("grid jobs name known benchmarks");
    let seed = stream_seed(cfg);
    let mut gen = WorkloadGen::new(profile, seed);
    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    timed(&mut l.perf_warmup_s, || {
        core.warm_up(&mut gen, CORE_WARMUP_INSTRS)
    });
    let idle_act = timed(&mut l.perf_idle_s, || {
        let mut idle_core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut idle_gen = WorkloadGen::new(idle_profile(), seed ^ IDLE_SEED_MIX);
        idle_core.warm_up(&mut idle_gen, IDLE_WARMUP_INSTRS);
        idle_core.run_instructions(&mut idle_gen, IDLE_WINDOW_INSTRS)
    });
    l.perf_instrs += CORE_WARMUP_INSTRS + IDLE_WARMUP_INSTRS + IDLE_WINDOW_INSTRS;

    // Thermal build and (for idle warm-up) the warm initial state.
    let mut thermal = timed(&mut l.thermal_build_s, || {
        let stack = StackDescription::client_cpu_with_border(
            grid.nx,
            grid.ny,
            cfg.cell_um,
            cfg.border_mm * M_PER_MM,
        );
        let model = ThermalModel::new(stack);
        let ambient = model.stack().ambient_c;
        let mut t = ThermalSim::new(model, ambient);
        t.set_strategy(cfg.solver);
        t.cg.tolerance = STEP_CG_TOLERANCE;
        t.set_solver_threads(cfg.solver_threads);
        t
    });
    if cfg.warmup == Warmup::Idle {
        let frame = timed(&mut l.thermal_extract_s, || thermal.die_frame());
        let breakdown = timed(&mut l.power_eval_s, || {
            let temps = unit_temperatures(&fp, &grid, &frame);
            power.evaluate(&core_windows(cfg, None, &idle_act), &temps)
        });
        l.power_evals += 1;
        let idle_power = timed(&mut l.floorplan_power_map_s, || {
            grid.power_map(&breakdown.unit_watts)
        });
        let state = timed(&mut l.thermal_warmup_s, || {
            initial_state(
                thermal.model(),
                Warmup::Idle,
                &idle_power,
                IDLE_WARMUP_DURATION_S,
                IDLE_WARMUP_DT_S,
            )
        });
        thermal.set_state(state);
    }
    let dt_sub = cfg.window_seconds() / cfg.substeps as f64;
    timed(&mut l.thermal_build_s, || thermal.prepare(dt_sub));
    if thermal.active_solver() == Some(SolverStrategy::DirectCholesky) {
        l.thermal_direct_engaged += 1;
    }

    // The window loop: perf → power → power map → step → extract → analyze.
    let mut analyzer = timed(&mut l.analysis_s, || {
        FrameAnalyzer::new(cfg.detect, cfg.severity, cfg.analysis.threads)
    });
    let prefilter =
        cfg.analysis.prefilter && cfg.stop_at_first_hotspot && cfg.track_units.is_empty();
    let mut sev = TimeSeries::default();
    let mut tuh = None;
    let mut time_s = 0.0;
    let mut instructions: u64 = 0;
    let mut last_instructions: u64 = 0;
    'outer: while instructions < cfg.max_instructions && time_s < cfg.max_time_s {
        let window = timed(&mut l.perf_window_s, || {
            core.run_instructions(&mut gen, cfg.sample_instrs)
        });
        l.perf_instrs += cfg.sample_instrs;
        let ipc = window.ipc();
        instructions += (ipc * CoreConfig::TIME_STEP_CYCLES as f64) as u64;
        let frame_before = timed(&mut l.thermal_extract_s, || thermal.die_frame());
        let breakdown = timed(&mut l.power_eval_s, || {
            let temps = unit_temperatures(&fp, &grid, &frame_before);
            power.evaluate(&core_windows(cfg, Some(&window), &idle_act), &temps)
        });
        l.power_evals += 1;
        let power_map = timed(&mut l.floorplan_power_map_s, || {
            let mut map = grid.power_map(&breakdown.unit_watts_smooth);
            grid_peaked.accumulate_power_map(&breakdown.unit_watts_peaked, &mut map);
            map
        });
        for _ in 0..cfg.substeps {
            let stats = timed(&mut l.thermal_step_s, || thermal.step(&power_map, dt_sub));
            l.thermal_steps += 1;
            l.thermal_cg_iters += stats.iterations as u64;
            time_s += dt_sub;
            let (frame, frame_max) =
                timed(&mut l.thermal_extract_s, || thermal.die_frame_with_max());
            let analysis = timed(&mut l.analysis_s, || {
                analyzer.analyze_with_max(&frame, frame_max, prefilter)
            });
            l.analysis_frames += 1;
            if frame_max <= cfg.detect.t_threshold_c {
                l.analysis_cold_frames += 1;
            }
            l.analysis_hotspots += analysis.hotspots.len() as u64;
            if tuh.is_none() && !analysis.hotspots.is_empty() {
                tuh = Some(time_s);
            }
            sev.push(time_s, analysis.peak_severity);
            last_instructions = instructions;
            if cfg.stop_at_first_hotspot && tuh.is_some() {
                break 'outer;
            }
        }
    }
    let total_instructions = if cfg.stop_at_first_hotspot && tuh.is_some() {
        last_instructions
    } else {
        instructions
    };
    l.job_wall_s += job_start.elapsed().as_secs_f64();
    l.jobs += 1;
    Row {
        tuh_s: tuh,
        peak_severity: sev.max(),
        rms_severity: sev.rms(),
        total_instructions,
    }
}
