//! The perf-power-therm co-simulation orchestrator (Fig. 3 of the paper).
//!
//! Every thermal time step (1 M cycles = 200 µs at 5 GHz):
//!
//! 1. the interval core model runs a representative instruction sample of
//!    the target workload and reports per-unit activity **rates**;
//! 2. the power model converts activity + current unit temperatures into
//!    per-unit watts (leakage feeds back from the thermal state);
//! 3. the rasterizer spreads unit power over the active-layer grid;
//! 4. the thermal model advances by the step (optionally in substeps for
//!    finer TUH resolution), and the hotspot metrics (MLTD, detection,
//!    severity) are evaluated on each new frame.
//!
//! The simulation starts either cold (from ambient) or after an idle
//! warm-up, as in Figs. 8 and 11.

use serde::{Deserialize, Serialize};

use hotgauge_telemetry::{counter, if_telemetry, span};

use hotgauge_floorplan::floorplan::Floorplan;
use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_perf::activity::ActivityCounters;
use hotgauge_perf::config::CoreConfig;
use hotgauge_power::model::{CoreWindow, PowerModel, PowerParams};
use hotgauge_thermal::frame::ThermalFrame;
use hotgauge_thermal::model::{
    step_lockstep, LockstepScratch, SolverStrategy, ThermalModel, ThermalSim,
};
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_thermal::MAX_LOCKSTEP_WIDTH;
use hotgauge_workloads::benchmark_profile;
use hotgauge_workloads::idle::{IDLE_DUTY_CYCLE, IDLE_WARMUP_DURATION_S};

use crate::activity_trace::{TraceCursor, TraceKey, TraceSet};
use crate::analysis::{AnalysisConfig, FrameAnalyzer};
use crate::detect::HotspotParams;
use crate::locations::HotspotCensus;
use crate::series::TimeSeries;
use crate::severity::SeverityParams;
use crate::units;

/// Intra-unit power concentration used by the pipeline: 80 % of a unit's
/// power dissipates in a centered sub-rectangle covering 15 % of its area
/// (≈5.7× density), standing in for the sub-unit granularity of a 50+-unit
/// floorplan.
pub const UNIT_POWER_CONCENTRATION: (f64, f64) = (0.15, 0.85);

/// Histogram request: `bins` equal bins over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistSpec {
    /// Lower edge.
    pub lo: f64,
    /// Upper edge.
    pub hi: f64,
    /// Number of bins.
    pub bins: usize,
}

/// Configuration of one co-simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Technology node.
    pub node: TechNode,
    /// Benchmark name (a SPEC2006 proxy, or `"idle"`).
    pub benchmark: String,
    /// Core the single-threaded workload is pinned to (0..7).
    pub target_core: usize,
    /// Initial thermal condition.
    pub warmup: Warmup,
    /// In-plane grid resolution, micrometers (paper: 100).
    pub cell_um: f64,
    /// Spreading border of the thermal domain around the die, millimeters.
    pub border_mm: f64,
    /// Thermal substeps per 1 M-cycle window (4 ⇒ 50 µs TUH resolution).
    pub substeps: usize,
    /// Selects nothing: warm-started CG is the only thermal solver. Still
    /// serialized because every result key hashes the whole config, so
    /// dropping it would change every key.
    pub solver: SolverStrategy,
    /// Instructions sampled by the interval core per window; the sampled
    /// rates represent the whole window (Sniper-style sampling).
    pub sample_instrs: u64,
    /// Instruction budget (paper: 200 M per region of interest).
    pub max_instructions: u64,
    /// Wall-clock simulation cap, seconds.
    pub max_time_s: f64,
    /// Hotspot definition thresholds.
    pub detect: HotspotParams,
    /// Severity metric parameters.
    pub severity: SeverityParams,
    /// Workload RNG seed (combined with core/node for decorrelation).
    pub seed: u64,
    /// Mitigation: per-kind area scaling (§V-A).
    pub unit_scales: Vec<(UnitKind, f64)>,
    /// Mitigation: uniform IC area factor (§V-B).
    pub ic_area_factor: f64,
    /// Stop as soon as the first hotspot is found (TUH studies).
    pub stop_at_first_hotspot: bool,
    /// Whether the other cores run the idle/OS background task (vs parked).
    pub background_idle: bool,
    /// Unit names whose peak severity is tracked per step (Fig. 13).
    pub track_units: Vec<String>,
    /// Record a temperature histogram per step (Fig. 8).
    pub temp_histogram: Option<HistSpec>,
    /// Accumulate the distribution of per-cell ΔT over each 200 µs window
    /// (Fig. 2).
    pub delta_histogram: Option<HistSpec>,
    /// Execution strategy of the per-substep analysis stage (row sharding,
    /// sub-threshold prefilter). The thread count never changes a result.
    /// The prefilter keeps the TUH, census and thermal trajectory exact but
    /// does change records: in `stop_at_first_hotspot` runs without tracked
    /// units it writes zeros for MLTD, severity and hotspot count on
    /// substeps whose frame max is below `T_th`.
    pub analysis: AnalysisConfig,
    /// Selects nothing: no solver has a thread knob any more. Still
    /// serialized because every result key hashes the whole config, so
    /// dropping it would change every key.
    pub solver_threads: usize,
}

impl SimConfig {
    /// A fast-fidelity configuration (200 µm grid, 2 substeps) suitable for
    /// tests and sweeps.
    pub fn new(node: TechNode, benchmark: impl Into<String>) -> Self {
        Self {
            node,
            benchmark: benchmark.into(),
            target_core: 0,
            warmup: Warmup::Idle,
            cell_um: 200.0,
            border_mm: 4.0,
            substeps: 2,
            solver: SolverStrategy::default(),
            sample_instrs: 30_000,
            max_instructions: 200_000_000,
            max_time_s: 0.05,
            detect: HotspotParams::paper_default(),
            severity: SeverityParams::cpu_default(),
            seed: 0,
            unit_scales: Vec::new(),
            ic_area_factor: 1.0,
            stop_at_first_hotspot: false,
            background_idle: true,
            track_units: Vec::new(),
            temp_histogram: None,
            delta_histogram: None,
            analysis: AnalysisConfig::default(),
            solver_threads: 1,
        }
    }

    /// Upgrades to the paper's fidelity: 100 µm grid and 50 µs substeps.
    pub fn paper_fidelity(mut self) -> Self {
        self.cell_um = 100.0;
        self.substeps = 4;
        self.sample_instrs = 50_000;
        self
    }

    /// Simulated seconds per window (1 M cycles at 5 GHz).
    pub fn window_seconds(&self) -> f64 {
        CoreConfig::TIME_STEP_CYCLES as f64 / 5e9
    }
}

/// Per-substep record of the co-simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Simulation time at the end of the substep, seconds.
    pub time_s: f64,
    /// Peak die temperature, °C.
    pub max_temp_c: f64,
    /// Mean die temperature, °C.
    pub mean_temp_c: f64,
    /// Minimum die temperature, °C.
    pub min_temp_c: f64,
    /// Maximum MLTD on the die, °C.
    pub max_mltd_c: f64,
    /// Peak severity over the die.
    pub peak_severity: f64,
    /// Number of hotspots detected this substep.
    pub hotspot_count: usize,
    /// Total chip power during the window, W.
    pub power_w: f64,
    /// IPC of the target core's window.
    pub ipc: f64,
    /// Peak severity within each tracked unit.
    pub unit_severity: Vec<f64>,
    /// Temperature histogram counts, if requested.
    pub temp_hist: Option<Vec<usize>>,
}

/// Result of one co-simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The configuration that produced this run.
    pub config: SimConfig,
    /// Per-substep records.
    pub records: Vec<StepRecord>,
    /// Time until the first hotspot, if one occurred.
    pub tuh_s: Option<f64>,
    /// Hotspot location counts per unit label.
    pub census: HotspotCensus,
    /// ΔT histogram (edges, counts), if requested.
    pub delta_hist: Option<(Vec<f64>, Vec<usize>)>,
    /// Instructions represented by the run (sampled rates × windows).
    pub total_instructions: u64,
    /// The last active-layer frame.
    pub final_frame: ThermalFrame,
    /// Peak-severity time series (times mirror `records`).
    pub sev_series: TimeSeries,
}

impl RunResult {
    /// Peak severity over the whole run.
    pub fn peak_severity(&self) -> f64 {
        self.sev_series.max()
    }

    /// RMS of the peak-severity series (§V-B summary).
    pub fn rms_severity(&self) -> f64 {
        self.sev_series.rms()
    }
}

/// Builds the (possibly mitigation-scaled) floorplan of a config.
pub fn build_floorplan(cfg: &SimConfig) -> Floorplan {
    skylake_proxy(cfg).build()
}

fn skylake_proxy(cfg: &SimConfig) -> SkylakeProxy {
    let mut b = SkylakeProxy::new(cfg.node);
    for &(kind, factor) in &cfg.unit_scales {
        b = b.scale_unit(kind, factor);
    }
    if cfg.ic_area_factor > 1.0 {
        b = b.ic_area_factor(cfg.ic_area_factor);
    }
    b
}

/// The largest thermal grid a run may build, in cells per layer: the die
/// plus its spreading border. The paper's 100 µm cells with the default
/// 4 mm border need at most 52 398 across every node, IC area factor and
/// unit scaling the experiments use; the cap leaves room for finer studies
/// (50 µm at 14 nm) while rejecting cell sizes whose grids would take
/// gigabytes or hours.
pub const MAX_GRID_CELLS: usize = 250_000;

/// The cells per layer of the thermal grid `cfg` builds — the die
/// rasterized at `cell_um` plus the border on each side, with the
/// rasterizer's and stack's rounding — from the die outline alone, so
/// nothing grid-sized is allocated. Counted in `f64`: an absurdly small cell
/// gives a huge count, not an overflow. Needs finite, positive `cell_um`,
/// `border_mm` ≥ 0, and valid mitigation factors.
fn grid_cells(cfg: &SimConfig) -> f64 {
    let die = skylake_proxy(cfg).die();
    let cell_mm = cfg.cell_um / 1000.0;
    let border = (cfg.border_mm * units::M_PER_MM / (cfg.cell_um * 1e-6))
        .round()
        .max(1.0);
    let nx = (die.w / cell_mm).ceil().max(1.0) + 2.0 * border;
    let ny = (die.h / cell_mm).ceil().max(1.0) + 2.0 * border;
    nx * ny
}

/// Runs one co-simulation to completion.
pub fn run_sim(cfg: SimConfig) -> RunResult {
    CoSimulation::new(cfg).run()
}

/// Liveness report for one finished run of a sweep (`done` of `total`).
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// Runs finished so far (including this one).
    pub done: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// Benchmark of the finished run.
    pub benchmark: String,
    /// Technology node of the finished run.
    pub node: TechNode,
    /// Target core of the finished run.
    pub target_core: usize,
}

/// Per-window liveness report of one co-simulation.
#[derive(Debug, Clone, Copy)]
pub struct WindowProgress {
    /// Perf/power/thermal windows completed.
    pub windows: u64,
    /// Simulated time so far, seconds.
    pub time_s: f64,
    /// Instructions represented so far.
    pub instructions: u64,
    /// The run's instruction budget.
    pub max_instructions: u64,
    /// The run's simulated-time cap, seconds.
    pub max_time_s: f64,
}

/// Runs many configurations on the work-stealing sweep executor; results
/// keep input order. `threads = 0` sizes the pool to the hardware. See
/// [`crate::sweep`] for the executor and its per-worker scratch arenas.
pub fn run_many(cfgs: Vec<SimConfig>, threads: usize) -> Vec<RunResult> {
    crate::sweep::run_many_with(cfgs, threads, None)
}

/// [`run_many`] with an optional completion callback, invoked from worker
/// threads as each run finishes (sweep liveness for long experiments).
pub fn run_many_with(
    cfgs: Vec<SimConfig>,
    threads: usize,
    on_done: Option<&(dyn Fn(SweepProgress) + Sync)>,
) -> Vec<RunResult> {
    crate::sweep::run_many_with(cfgs, threads, on_done)
}

/// A rejected [`SimConfig`]. These are the user-input-reachable failure
/// modes (CLI flags, sweep manifests); bench bins map them to exit code 2.
/// Each numeric check rejects a value the models would otherwise turn into
/// a panic or a meaningless (NaN or empty) run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The benchmark name is not `idle`, a known SPEC2006 proxy, or a
    /// server-trace workload.
    UnknownBenchmark(String),
    /// `target_core` does not exist on the 7-core Skylake proxy.
    TargetCoreOutOfRange(usize),
    /// `substeps` must be at least 1.
    ZeroSubsteps,
    /// A `track_units` entry does not name a floorplan unit.
    UnknownTrackedUnit(String),
    /// `max_time_s` must be finite and positive.
    InvalidHorizon(f64),
    /// `cell_um` must be finite and positive.
    InvalidCellSize(f64),
    /// `border_mm` must be finite and non-negative.
    InvalidBorder(f64),
    /// `ic_area_factor` must be finite and at least 1.
    InvalidIcAreaFactor(f64),
    /// A `unit_scales` factor must be finite and positive.
    InvalidUnitScale(UnitKind, f64),
    /// `sample_instrs` must be at least 1.
    ZeroSampleInstrs,
    /// The thermal grid (cells per layer) would exceed [`MAX_GRID_CELLS`].
    GridTooLarge(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownBenchmark(name) => {
                write!(
                    f,
                    "unknown benchmark `{name}` (not `idle`, a SPEC2006 proxy, or a server trace)"
                )
            }
            ConfigError::TargetCoreOutOfRange(core) => {
                write!(
                    f,
                    "target core {core} out of range (the proxy has cores 0..7)"
                )
            }
            ConfigError::ZeroSubsteps => write!(f, "substeps must be >= 1"),
            ConfigError::UnknownTrackedUnit(name) => {
                write!(f, "tracked unit `{name}` is not a floorplan unit")
            }
            ConfigError::InvalidHorizon(s) => {
                write!(f, "horizon {s} s must be finite and > 0")
            }
            ConfigError::InvalidCellSize(um) => {
                write!(f, "cell size {um} um must be finite and > 0")
            }
            ConfigError::InvalidBorder(mm) => {
                write!(f, "border {mm} mm must be finite and >= 0")
            }
            ConfigError::InvalidIcAreaFactor(x) => {
                write!(f, "IC area factor {x} must be finite and >= 1")
            }
            ConfigError::InvalidUnitScale(kind, x) => {
                write!(f, "scale factor {x} of {kind:?} must be finite and > 0")
            }
            ConfigError::ZeroSampleInstrs => write!(f, "sample_instrs must be >= 1"),
            ConfigError::GridTooLarge(cells) => write!(
                f,
                "thermal grid of {cells:.3e} cells per layer exceeds the budget of \
                 {MAX_GRID_CELLS} cells"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The checks construction runs before building any model, so a bad config
/// is rejected before any model work is paid for it. Front ends that hand
/// configs to the sweep executor, which panics on a bad config, call it
/// first. `track_units` is checked against the floorplan at construction.
pub fn check_config(cfg: &SimConfig) -> Result<(), ConfigError> {
    if cfg.target_core >= 7 {
        return Err(ConfigError::TargetCoreOutOfRange(cfg.target_core));
    }
    if cfg.substeps < 1 {
        return Err(ConfigError::ZeroSubsteps);
    }
    if benchmark_profile(&cfg.benchmark).is_none() {
        return Err(ConfigError::UnknownBenchmark(cfg.benchmark.clone()));
    }
    if !(cfg.max_time_s.is_finite() && cfg.max_time_s > 0.0) {
        return Err(ConfigError::InvalidHorizon(cfg.max_time_s));
    }
    if !(cfg.cell_um.is_finite() && cfg.cell_um > 0.0) {
        return Err(ConfigError::InvalidCellSize(cfg.cell_um));
    }
    if !(cfg.border_mm.is_finite() && cfg.border_mm >= 0.0) {
        return Err(ConfigError::InvalidBorder(cfg.border_mm));
    }
    if !(cfg.ic_area_factor.is_finite() && cfg.ic_area_factor >= 1.0) {
        return Err(ConfigError::InvalidIcAreaFactor(cfg.ic_area_factor));
    }
    for &(kind, factor) in &cfg.unit_scales {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ConfigError::InvalidUnitScale(kind, factor));
        }
    }
    if cfg.sample_instrs < 1 {
        return Err(ConfigError::ZeroSampleInstrs);
    }
    let cells = grid_cells(cfg);
    if cells > MAX_GRID_CELLS as f64 {
        return Err(ConfigError::GridTooLarge(cells));
    }
    Ok(())
}

/// The seed of a run's workload stream: `cfg.seed` decorrelated by target
/// core and node. With the benchmark and `sample_instrs` it determines the
/// run's activity trace (see [`crate::activity_trace::TraceKey`]); the idle
/// background stream derives from it too.
pub(crate) fn stream_seed(cfg: &SimConfig) -> u64 {
    cfg.seed ^ (cfg.target_core as u64) << 32 ^ (cfg.node.generations_from_14() as u64) << 40
}

/// The assembled co-simulation state. `Clone` so construction (floorplan,
/// power model, warm-up, solver preparation) can be paid once and the
/// stepping loop repeated from the same initial state — benches and sweeps
/// over per-run knobs rely on this. A clone reads the same activity trace
/// from the same position, replaying the windows the original recorded.
#[derive(Clone)]
pub struct CoSimulation {
    cfg: SimConfig,
    fp: Floorplan,
    grid: FloorplanGrid,
    grid_peaked: FloorplanGrid,
    power: PowerModel,
    thermal: ThermalSim,
    trace: TraceCursor,
    idle_act: ActivityCounters,
}

impl std::fmt::Debug for CoSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoSimulation")
            .field("benchmark", &self.cfg.benchmark)
            .field("node", &self.cfg.node)
            .field("target_core", &self.cfg.target_core)
            .field("units", &self.fp.units.len())
            .field("grid", &(self.grid.nx, self.grid.ny))
            .finish_non_exhaustive()
    }
}

impl CoSimulation {
    /// Builds every model of the toolchain for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark name is unknown or the configuration is
    /// inconsistent (e.g. target core out of range). User-input paths
    /// (CLI, manifests) should call [`CoSimulation::try_new`] instead.
    pub fn new(cfg: SimConfig) -> Self {
        // hotgauge-lint: allow(L001, "programmatic constructor for configs built in code; the CLI/manifest path goes through try_new and exits 2 on bad input")
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid simulation config: {e}"))
    }

    /// Validates the configuration and builds every model of the toolchain,
    /// returning a typed [`ConfigError`] on user-reachable misconfiguration
    /// instead of panicking.
    ///
    /// The run reads a private activity trace, and its core warm-up runs
    /// here, so construction pays for the warm-up and the run for its
    /// windows.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let sim = Self::try_new_in(cfg, None, &TraceSet::default())?;
        sim.trace.warm();
        Ok(sim)
    }

    /// [`CoSimulation::try_new`] reading its activity traces from `traces`,
    /// optionally recycling the geometry-keyed model parts of a previous
    /// same-geometry run (see [`crate::sweep`]). The core warm-up is left to
    /// the first window read past the trace's recorded end.
    ///
    /// With `geom: Some(..)` the floorplan, rasterized grids, power model,
    /// and prepared thermal solver are adopted instead of rebuilt; the
    /// thermal *state* is reset to exactly the fresh-construction initial
    /// condition, so the run is bit-identical to one built from scratch.
    /// The caller must only pass parts produced under the same
    /// [`crate::sweep::geom_key`].
    pub(crate) fn try_new_in(
        cfg: SimConfig,
        geom: Option<GeomParts>,
        traces: &TraceSet,
    ) -> Result<Self, ConfigError> {
        check_config(&cfg)?;

        let (fp, grid, grid_peaked, power, recycled_thermal) = match geom {
            Some(parts) => (
                parts.fp,
                parts.grid,
                parts.grid_peaked,
                parts.power,
                Some(parts.thermal),
            ),
            None => {
                let fp = build_floorplan(&cfg);
                // Two rasterizations: leakage + clock power spreads uniformly
                // over each unit, while utilization-driven switching
                // concentrates in the unit's hot structures (see
                // `rasterize_with_concentration`).
                let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
                let grid_peaked = FloorplanGrid::rasterize_with_concentration(
                    &fp,
                    cfg.cell_um,
                    Some(UNIT_POWER_CONCENTRATION),
                );

                // Power is built against the *baseline* floorplan of the node
                // so that mitigation floorplans redistribute the same watts
                // over more area (area scaling as a power-density proxy,
                // §V-A). Unit order is identical between baseline and scaled
                // floorplans by construction.
                let baseline = SkylakeProxy::new(cfg.node).build();
                assert_eq!(baseline.units.len(), fp.units.len());
                let power = PowerModel::new(&baseline, cfg.node, PowerParams::default());
                (fp, grid, grid_peaked, power, None)
            }
        };
        for name in &cfg.track_units {
            if fp.unit_index_by_name(name).is_none() {
                return Err(ConfigError::UnknownTrackedUnit(name.clone()));
            }
        }

        let trace = traces.open(TraceKey::of_run(&cfg))?;
        // A representative idle window for the background cores.
        let idle_act = traces.open(TraceKey::idle_background(&cfg))?.next_window();

        // Thermal initial condition. A recycled solver keeps its prepared
        // system (the backward-Euler matrix and CG workspace are functions
        // of geometry + dt only, both part of the arena key) but is reset
        // to the uniform ambient state a fresh `ThermalSim::new` starts
        // from, so the warm-up below — and everything after it — sees
        // exactly the fresh-construction state.
        let mut thermal = match recycled_thermal {
            Some(mut t) => {
                t.set_uniform(t.model().stack().ambient_c);
                t
            }
            None => {
                let stack = StackDescription::client_cpu_with_border(
                    grid.nx,
                    grid.ny,
                    cfg.cell_um,
                    cfg.border_mm * units::M_PER_MM,
                );
                let model = ThermalModel::new(stack);
                let ambient = model.stack().ambient_c;
                ThermalSim::new(model, ambient)
            }
        };
        // Backward-Euler steps are solved to a relative residual that is far
        // below per-step temperature changes; tighter tolerances cost CG
        // iterations without changing any metric.
        thermal.cg.tolerance = 1e-6;
        if cfg.warmup == Warmup::Idle {
            let state = warmup_state_cached(&cfg, &fp, &grid, &power, &thermal, &idle_act);
            thermal.set_state(state);
        }
        // Prepare the solver for the run's substep size now, so the one-time
        // assembly cost lands in construction rather than the first step. A
        // no-op on recycled solvers (same dt): the prepare-once win the
        // sweep arenas exist for.
        thermal.prepare(cfg.window_seconds() / cfg.substeps as f64);

        Ok(Self {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            thermal,
            trace,
            idle_act,
        })
    }

    /// The floorplan being simulated.
    pub fn floorplan(&self) -> &Floorplan {
        &self.fp
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Clones the geometry-keyed model parts of this simulation, so a
    /// lockstep batch mate with the same [`crate::sweep::geom_key`] can be
    /// constructed without rebuilding them ([`CoSimulation::try_new_in`]
    /// resets the cloned thermal state exactly as it does for arena-recycled
    /// parts). The clone shares the prepared backward-Euler matrix through
    /// its `Arc`, which is also what lets [`step_lockstep`] batch the lanes.
    pub(crate) fn clone_geom_parts(&self) -> GeomParts {
        GeomParts {
            fp: self.fp.clone(),
            grid: self.grid.clone(),
            grid_peaked: self.grid_peaked.clone(),
            power: self.power.clone(),
            thermal: self.thermal.clone(),
        }
    }

    /// The transient thermal simulation.
    pub fn thermal(&self) -> &ThermalSim {
        &self.thermal
    }

    fn idle_power_map(
        fp: &Floorplan,
        grid: &FloorplanGrid,
        power: &PowerModel,
        thermal: &ThermalSim,
        idle_act: &ActivityCounters,
    ) -> Vec<f64> {
        let frame = thermal.die_frame();
        let temps = unit_temperatures(fp, grid, &frame);
        let cores: Vec<CoreWindow<'_>> = (0..7)
            .map(|_| CoreWindow::Active {
                activity: idle_act,
                duty: IDLE_DUTY_CYCLE,
            })
            .collect();
        let breakdown = power.evaluate(&cores, &temps);
        // Idle power is dominated by clock + leakage; spread it uniformly.
        grid.power_map(&breakdown.unit_watts)
    }

    /// Runs the simulation to completion.
    pub fn run(self) -> RunResult {
        self.run_with_progress(None)
    }

    /// [`CoSimulation::run`] with a per-window liveness callback, so long
    /// runs can report progress while they execute. The callback fires once
    /// per window the run completes; a stop-at-first-hotspot run that ends
    /// mid-window reports no progress for that window.
    ///
    /// A run is a one-lane batch: it advances through the same stepping loop
    /// as [`BatchedCoSim`] and the sweep executor, whose lone lane takes the
    /// single-RHS [`ThermalSim::step`].
    pub fn run_with_progress(self, on_window: Option<&dyn Fn(WindowProgress)>) -> RunResult {
        let analyzer = FrameAnalyzer::new(
            self.cfg.detect,
            self.cfg.severity,
            self.cfg.analysis.threads,
        );
        let forward = on_window.map(|cb| move |_lane: usize, p: WindowProgress| cb(p));
        let on_lane_window = forward
            .as_ref()
            .map(|f| f as &dyn Fn(usize, WindowProgress));
        let mut outs = run_batch_with_analyzers(vec![self], vec![analyzer], None, on_lane_window);
        outs.swap_remove(0).0
    }
}

/// The geometry-keyed model parts of one co-simulation — everything that
/// depends only on the floorplan/grid/solver shape of a [`SimConfig`], not
/// on its workload or seed. A sweep worker hands these from a finished run
/// to the next run with the same [`crate::sweep::geom_key`], skipping the
/// floorplan build, the two rasterizations, the power-model assembly, and
/// the thermal-system preparation (backward-Euler matrix and CG
/// workspace).
pub(crate) struct GeomParts {
    pub(crate) fp: Floorplan,
    pub(crate) grid: FloorplanGrid,
    pub(crate) grid_peaked: FloorplanGrid,
    pub(crate) power: PowerModel,
    pub(crate) thermal: ThermalSim,
}

/// A lockstep batch of up to [`MAX_LOCKSTEP_WIDTH`] co-simulations advanced
/// together: every lane produces its perf/power window, then one multi-RHS
/// thermal solve ([`step_lockstep`]) advances all still-running lanes at
/// once, streaming the shared backward-Euler matrix a single time per
/// substep instead of once per lane. Lanes deactivate independently — a
/// stop-at-first-hotspot lane that trips, or a lane whose instruction/time
/// budget runs out, simply drops out of subsequent solves while its batch
/// mates continue.
///
/// Results are **bit-identical** to running each lane through
/// [`CoSimulation::run`] on its own: the lanes share nothing but the thermal
/// solve, and the lockstep solver applies each lane's arithmetic in the same
/// element order as the single-RHS path. Lanes whose thermal systems turn
/// out not to be homogeneous (different grids or CG configs) fall back
/// to per-lane solo steps inside [`step_lockstep`] — still exact, just
/// without the memory-bandwidth win. The sweep executor groups compatible
/// jobs by [`crate::sweep::geom_key`] so batches hit the fast path.
#[derive(Debug)]
pub struct BatchedCoSim {
    lanes: Vec<CoSimulation>,
}

impl BatchedCoSim {
    /// Assembles a batch from fully constructed lanes.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is empty, wider than [`MAX_LOCKSTEP_WIDTH`], or
    /// mixes substep counts (lanes must share the substep schedule to step
    /// in lockstep; geometry *may* differ, at the cost of the fallback).
    pub fn new(lanes: Vec<CoSimulation>) -> Self {
        assert!(!lanes.is_empty(), "a batch needs at least one lane");
        assert!(
            lanes.len() <= MAX_LOCKSTEP_WIDTH,
            "batch width {} exceeds MAX_LOCKSTEP_WIDTH ({MAX_LOCKSTEP_WIDTH})",
            lanes.len()
        );
        assert!(
            lanes
                .iter()
                .all(|l| l.cfg.substeps == lanes[0].cfg.substeps),
            "lockstep lanes must share a substep count"
        );
        Self { lanes }
    }

    /// Number of lanes in the batch.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Runs every lane to completion and returns their results in lane
    /// order. Each element is bit-identical to `run_sim` of that lane's
    /// configuration.
    pub fn run(self) -> Vec<RunResult> {
        let analyzers = self
            .lanes
            .iter()
            .map(|l| FrameAnalyzer::new(l.cfg.detect, l.cfg.severity, l.cfg.analysis.threads))
            .collect();
        run_batch_with_analyzers(self.lanes, analyzers, None, None)
            .into_iter()
            .map(|(result, _, _)| result)
            .collect()
    }
}

/// The stepping loop of the pipeline, and its only copy: a plain run (one
/// lane), a [`BatchedCoSim`], and every work item of the sweep executor
/// advance through it. Per window, each running lane produces its
/// perf/power window; per substep, one [`step_lockstep`] call advances the
/// still-running lanes and each lane's analysis reads its new frame.
///
/// Runs on caller-supplied (possibly recycled) analyzers, re-targeted at
/// each lane's parameters first so a dirty analyzer gives bit-identical
/// results, and hands each lane's analyzer and geometry parts back for arena
/// reuse. `on_lane_done` fires with the lane index as each lane finishes
/// (sweep liveness); `on_window` fires with the lane index after each window
/// a lane completes.
pub(crate) fn run_batch_with_analyzers(
    sims: Vec<CoSimulation>,
    analyzers: Vec<FrameAnalyzer>,
    on_lane_done: Option<&dyn Fn(usize)>,
    on_window: Option<&dyn Fn(usize, WindowProgress)>,
) -> Vec<(RunResult, FrameAnalyzer, GeomParts)> {
    // The per-lane model parts, split by mutability: the window producer and
    // thermal solver mutate `LaneMut`, while the analysis contexts hold
    // shared borrows of `LaneRo` for the whole run.
    struct LaneRo {
        cfg: SimConfig,
        fp: Floorplan,
        grid: FloorplanGrid,
        grid_peaked: FloorplanGrid,
        power: PowerModel,
        idle_act: ActivityCounters,
        track_idx: Vec<usize>,
    }
    struct LaneMut {
        thermal: ThermalSim,
        trace: TraceCursor,
    }
    /// Per-lane loop state.
    struct LaneRun {
        time_s: f64,
        instructions: u64,
        windows: u64,
        delta_counts: Option<(HistSpec, Vec<f64>, Vec<usize>)>,
        window: Option<WindowOutput>,
        finished: bool,
    }

    let k = sims.len();
    assert!(k >= 1, "a batch needs at least one lane");
    assert!(
        k <= MAX_LOCKSTEP_WIDTH,
        "batch width {k} exceeds MAX_LOCKSTEP_WIDTH ({MAX_LOCKSTEP_WIDTH})"
    );
    assert_eq!(k, analyzers.len(), "one analyzer per lane");
    let substeps = sims[0].cfg.substeps;
    assert!(
        sims.iter().all(|s| s.cfg.substeps == substeps),
        "lockstep lanes must share a substep count"
    );
    let dt_sub = sims[0].cfg.window_seconds() / substeps as f64;

    let mut ro = Vec::with_capacity(k);
    let mut lanes = Vec::with_capacity(k);
    for sim in sims {
        let CoSimulation {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            thermal,
            trace,
            idle_act,
        } = sim;
        let track_idx: Vec<usize> = cfg
            .track_units
            .iter()
            .map(|n| {
                fp.unit_index_by_name(n)
                    // hotgauge-lint: allow(L001, "track_units validated against the floorplan in try_new; a miss here is a bug, not user input")
                    .unwrap_or_else(|| panic!("unknown tracked unit {n}"))
            })
            .collect();
        ro.push(LaneRo {
            cfg,
            fp,
            grid,
            grid_peaked,
            power,
            idle_act,
            track_idx,
        });
        lanes.push(LaneMut { thermal, trace });
    }

    let mut ctxs: Vec<AnalysisCtx<'_>> = ro
        .iter()
        .zip(analyzers)
        .map(|(r, analyzer)| AnalysisCtx::new(&r.cfg, &r.fp, &r.grid, &r.track_idx, analyzer))
        .collect();

    let mut runs: Vec<LaneRun> = ro
        .iter()
        .map(|r| LaneRun {
            time_s: 0.0,
            instructions: 0,
            windows: 0,
            delta_counts: r
                .cfg
                .delta_histogram
                .map(|h| (h, edges(&h), vec![0usize; h.bins])),
            window: None,
            finished: false,
        })
        .collect();

    let mut scratch = LockstepScratch::new();
    let mut active_idx: Vec<usize> = Vec::with_capacity(k);
    loop {
        // Window start: every unfinished lane with budget left produces its
        // perf/power window; a lane whose instruction or time budget ran out
        // finishes here.
        let mut any = false;
        for i in 0..k {
            if runs[i].finished {
                continue;
            }
            if !(runs[i].instructions < ro[i].cfg.max_instructions
                && runs[i].time_s < ro[i].cfg.max_time_s)
            {
                runs[i].finished = true;
                if let Some(cb) = on_lane_done {
                    cb(i);
                }
                continue;
            }
            let lane = &mut lanes[i];
            let w = produce_window(
                &ro[i].cfg,
                &ro[i].fp,
                &ro[i].grid,
                &ro[i].grid_peaked,
                &ro[i].power,
                &lane.thermal,
                &mut lane.trace,
                &ro[i].idle_act,
            );
            runs[i].instructions += w.instr_delta;
            counter!("pipeline.substeps", substeps);
            runs[i].window = Some(w);
            any = true;
        }
        if !any {
            break;
        }

        for _ in 0..substeps {
            // The active set is re-evaluated every substep: a lane that
            // stopped at substep s takes no thermal step at s + 1.
            active_idx.clear();
            for (i, run) in runs.iter().enumerate() {
                if !run.finished && run.window.is_some() {
                    active_idx.push(i);
                }
            }
            if active_idx.is_empty() {
                break;
            }

            {
                let _stage = span!("stage.thermal");
                let mut therm: Vec<&mut ThermalSim> = Vec::with_capacity(active_idx.len());
                let mut want = active_idx.iter().peekable();
                for (j, lane) in lanes.iter_mut().enumerate() {
                    if want.peek() == Some(&&j) {
                        want.next();
                        therm.push(&mut lane.thermal);
                    }
                }
                let maps: Vec<&[f64]> = active_idx
                    .iter()
                    .filter_map(|&i| runs[i].window.as_ref().map(|w| w.power_map.as_slice()))
                    .collect();
                step_lockstep(&mut therm, &maps, dt_sub, &mut scratch);
            }

            for &i in active_idx.iter() {
                let Some((power_w, ipc)) = runs[i].window.as_ref().map(|w| (w.power_w, w.ipc))
                else {
                    continue;
                };
                runs[i].time_s += dt_sub;
                let (frame, frame_max) = match ctxs[i].out.spare.take() {
                    Some(spare) => lanes[i].thermal.die_frame_with_max_into(spare.temps),
                    None => lanes[i].thermal.die_frame_with_max(),
                };
                let proceed = {
                    let _stage = span!("stage.detect");
                    ctxs[i].process(Substep {
                        frame,
                        frame_max,
                        time_s: runs[i].time_s,
                        power_w,
                        ipc,
                        instructions: runs[i].instructions,
                    })
                };
                if !proceed {
                    // Stop-at-first-hotspot: the lane ends mid-window, so it
                    // takes no further steps and neither accumulates this
                    // window's ΔT histogram nor reports it as progress.
                    runs[i].finished = true;
                    runs[i].window = None;
                    if let Some(cb) = on_lane_done {
                        cb(i);
                    }
                }
            }
        }

        // Window end for lanes that completed all substeps.
        for (i, (run, lane)) in runs.iter_mut().zip(lanes.iter()).enumerate() {
            let Some(w) = run.window.take() else { continue };
            if let Some((ref h, _, ref mut counts)) = run.delta_counts {
                accumulate_deltas(h, counts, &w.frame_before, &lane.thermal.die_frame());
            }
            run.windows += 1;
            if let Some(cb) = on_window {
                cb(
                    i,
                    WindowProgress {
                        windows: run.windows,
                        time_s: run.time_s,
                        instructions: run.instructions,
                        max_instructions: ro[i].cfg.max_instructions,
                        max_time_s: ro[i].cfg.max_time_s,
                    },
                );
            }
        }
    }

    // Ends the analysis contexts' borrows of `ro` before its parts move out.
    let outs: Vec<LaneOut> = ctxs.into_iter().map(|c| c.out).collect();

    let mut results = Vec::with_capacity(k);
    for (((r, lane), mut out), run) in ro.into_iter().zip(lanes).zip(outs).zip(runs) {
        let stopped = r.cfg.stop_at_first_hotspot && out.tuh.is_some();
        let total_instructions = if stopped {
            out.last_instructions
        } else {
            run.instructions
        };
        let final_frame = if stopped {
            // hotgauge-lint: allow(L001, "tuh is only set by AnalysisCtx::process, which stores last_frame in the same call before returning false")
            out.last_frame.take().expect("stopping substep has a frame")
        } else {
            lane.thermal.die_frame()
        };
        let result = RunResult {
            config: r.cfg,
            records: out.records,
            tuh_s: out.tuh,
            census: out.census,
            delta_hist: run.delta_counts.map(|(_, e, c)| (e, c)),
            total_instructions,
            final_frame,
            sev_series: out.sev_series,
        };
        let parts = GeomParts {
            fp: r.fp,
            grid: r.grid,
            grid_peaked: r.grid_peaked,
            power: r.power,
            thermal: lane.thermal,
        };
        results.push((result, out.analyzer, parts));
    }
    results
}

/// One produced perf/power window, ready for thermal substepping.
struct WindowOutput {
    ipc: f64,
    power_w: f64,
    /// Instructions represented by the window (`ipc ×` window cycles).
    instr_delta: u64,
    power_map: Vec<f64>,
    /// Die frame before the window's substeps (Fig. 2 ΔT histogram).
    frame_before: ThermalFrame,
}

/// Runs one perf sample + power evaluation + rasterization — stages 1–3 of
/// the per-window loop. Only the trace cursor advances; the thermal state
/// is read for leakage feedback.
#[allow(clippy::too_many_arguments)]
fn produce_window(
    cfg: &SimConfig,
    fp: &Floorplan,
    grid: &FloorplanGrid,
    grid_peaked: &FloorplanGrid,
    power: &PowerModel,
    thermal: &ThermalSim,
    trace: &mut TraceCursor,
    idle_act: &ActivityCounters,
) -> WindowOutput {
    // 1. Performance window (sampled), read from the stream's activity
    //    trace; the first reader past its recorded end simulates it.
    let window = {
        let _stage = span!("stage.perf");
        trace.next_window()
    };
    let ipc = window.ipc();
    let instr_delta = (ipc * CoreConfig::TIME_STEP_CYCLES as f64) as u64;

    // 2. Power from activity + temperature.
    let frame_before = thermal.die_frame();
    let breakdown = {
        let _stage = span!("stage.power");
        let temps = unit_temperatures(fp, grid, &frame_before);
        let mut cores: Vec<CoreWindow<'_>> = (0..7)
            .map(|_| {
                if cfg.background_idle {
                    CoreWindow::Active {
                        activity: idle_act,
                        duty: IDLE_DUTY_CYCLE,
                    }
                } else {
                    CoreWindow::Parked
                }
            })
            .collect();
        cores[cfg.target_core] = CoreWindow::Active {
            activity: &window,
            duty: 1.0,
        };
        power.evaluate(&cores, &temps)
    };
    // 3. Rasterize unit watts onto the active-layer grid.
    let power_map = {
        let _stage = span!("stage.rasterize");
        let mut map = grid.power_map(&breakdown.unit_watts_smooth);
        grid_peaked.accumulate_power_map(&breakdown.unit_watts_peaked, &mut map);
        map
    };
    WindowOutput {
        ipc,
        power_w: breakdown.total_w(),
        instr_delta,
        power_map,
        frame_before,
    }
}

/// One solved substep, handed to the lane's analysis.
struct Substep {
    frame: ThermalFrame,
    /// Frame max, tracked during extraction (drives the prefilter and the
    /// record's `max_temp_c`).
    frame_max: f64,
    time_s: f64,
    power_w: f64,
    ipc: f64,
    /// The lane's instruction counter at this substep's window.
    instructions: u64,
}

/// The owned accumulators of one lane's analysis, kept apart from the
/// borrowed model parts so they outlive them when the run ends.
struct LaneOut {
    analyzer: FrameAnalyzer,
    records: Vec<StepRecord>,
    sev_series: TimeSeries,
    census: HotspotCensus,
    tuh: Option<f64>,
    /// The last analyzed frame (the stopping frame in TUH mode).
    last_frame: Option<ThermalFrame>,
    /// The lane's instruction counter at the last analyzed substep.
    last_instructions: u64,
    /// The frame analyzed before `last_frame`, retired for storage reuse:
    /// the next substep's frame is extracted into it, so a run allocates
    /// frames only for its first two substeps. Extraction overwrites every
    /// value, so results are bit-identical to fresh allocation.
    spare: Option<ThermalFrame>,
}

/// The analysis side of one lane: everything the per-substep metrics block
/// reads and accumulates.
struct AnalysisCtx<'a> {
    cfg: &'a SimConfig,
    fp: &'a Floorplan,
    grid: &'a FloorplanGrid,
    track_idx: &'a [usize],
    prefilter: bool,
    out: LaneOut,
}

impl<'a> AnalysisCtx<'a> {
    /// A fresh context, re-targeting `analyzer` at the lane's parameters.
    fn new(
        cfg: &'a SimConfig,
        fp: &'a Floorplan,
        grid: &'a FloorplanGrid,
        track_idx: &'a [usize],
        mut analyzer: FrameAnalyzer,
    ) -> Self {
        analyzer.reconfigure(cfg.detect, cfg.severity, cfg.analysis.threads);
        // The prefilter records zeros for MLTD/severity on provably
        // hotspot-free substeps, so it only engages where those fields are
        // never consumed: stop-at-first-hotspot (TUH) runs without per-unit
        // severity tracking. The TUH itself is exact either way — a frame
        // whose max is at or below `T_th` cannot contain a hotspot.
        let prefilter = cfg.analysis.prefilter && cfg.stop_at_first_hotspot && track_idx.is_empty();
        Self {
            cfg,
            fp,
            grid,
            track_idx,
            prefilter,
            out: LaneOut {
                analyzer,
                records: Vec::new(),
                sev_series: TimeSeries::default(),
                census: HotspotCensus::new(),
                tuh: None,
                last_frame: None,
                last_instructions: 0,
                spare: None,
            },
        }
    }

    /// Analyzes one substep and appends its record. Returns `false` when a
    /// stop-at-first-hotspot run must end at this substep.
    fn process(&mut self, sub: Substep) -> bool {
        let Substep {
            frame,
            frame_max,
            time_s,
            power_w,
            ipc,
            instructions,
        } = sub;
        let out = &mut self.out;
        let analysis = out
            .analyzer
            .analyze_with_max(&frame, frame_max, self.prefilter);
        out.census.record(&analysis.hotspots, self.grid, self.fp);
        if out.tuh.is_none() && !analysis.hotspots.is_empty() {
            out.tuh = Some(time_s);
        }

        // Candidate cells clear the temperature threshold before the
        // MLTD/severity filters; only counted when telemetry is on.
        if_telemetry! {
            if !analysis.prefiltered {
                let candidates = frame
                    .temps
                    .iter()
                    .filter(|&&t| t >= self.cfg.detect.t_threshold_c)
                    .count();
                counter!("detect.candidates", candidates);
            }
        }
        counter!("detect.hotspots", analysis.hotspots.len());

        let unit_severity: Vec<f64> = self
            .track_idx
            .iter()
            .map(|&u| {
                let mltd = out.analyzer.mltd();
                self.grid.coverage[u]
                    .iter()
                    .map(|&(cell, _)| self.cfg.severity.severity(frame.temps[cell], mltd[cell]))
                    .fold(0.0, f64::max)
            })
            .collect();

        let temp_hist = self.cfg.temp_histogram.map(|h| {
            let (_, counts) = hotgauge_thermal::frame::histogram(&frame.temps, h.lo, h.hi, h.bins);
            counts
        });

        out.sev_series.push(time_s, analysis.peak_severity);
        out.records.push(StepRecord {
            time_s,
            max_temp_c: frame_max,
            mean_temp_c: frame.mean(),
            min_temp_c: frame.min(),
            max_mltd_c: analysis.max_mltd_c,
            peak_severity: analysis.peak_severity,
            hotspot_count: analysis.hotspots.len(),
            power_w,
            ipc,
            unit_severity,
            temp_hist,
        });
        out.last_instructions = instructions;
        // The newest frame is always kept (it is the stopping frame in TUH
        // mode); the one before it becomes the spare.
        out.spare = out.last_frame.replace(frame);
        !(self.cfg.stop_at_first_hotspot && out.tuh.is_some())
    }
}
/// Fig. 2: per-cell ΔT over one window, accumulated into clamped edge bins.
fn accumulate_deltas(
    h: &HistSpec,
    counts: &mut [usize],
    before: &ThermalFrame,
    after: &ThermalFrame,
) {
    let width = (h.hi - h.lo) / h.bins as f64;
    for (a, b) in after.temps.iter().zip(&before.temps) {
        let d = a - b;
        let mut bin = ((d - h.lo) / width).floor() as isize;
        bin = bin.clamp(0, h.bins as isize - 1);
        counts[bin as usize] += 1;
    }
}

/// The idle warm-up state of a run, memoized process-wide: a TUH sweep
/// launches hundreds of idle-warmed runs per floorplan.
///
/// The key is the floorplan name, grid resolution, and border only. It
/// omits the idle stream: `idle_act` depends on the seed, target core, and
/// node through [`stream_seed`], yet runs that differ only there share one
/// entry, and whichever computes it first fills it. So the memoized state
/// is *not* the run's own for every other idle stream, and a result can
/// depend on which runs came earlier in the process (ROADMAP item 1).
/// The key is left as it is on purpose: keying on the full content of the
/// inputs changes results, and it costs the `serve_warm` benchmark about
/// +32% `wall_s` (2-vCPU host), so the fix belongs with ROADMAP item 1's
/// re-pinning of the golden keys.
fn warmup_state_cached(
    cfg: &SimConfig,
    fp: &Floorplan,
    grid: &FloorplanGrid,
    power: &PowerModel,
    thermal: &ThermalSim,
    idle_act: &ActivityCounters,
) -> Vec<f64> {
    use std::collections::HashMap;
    use std::sync::{Arc, OnceLock};
    static CACHE: OnceLock<parking_lot::Mutex<HashMap<String, Arc<Vec<f64>>>>> = OnceLock::new();
    let key = format!("{}|{}|{}", fp.name, cfg.cell_um, cfg.border_mm);
    let cache = CACHE.get_or_init(|| parking_lot::Mutex::new(HashMap::new()));
    if let Some(state) = cache.lock().get(&key) {
        return state.as_ref().clone();
    }
    let idle_power = CoSimulation::idle_power_map(fp, grid, power, thermal, idle_act);
    let state = hotgauge_thermal::warmup::initial_state(
        thermal.model(),
        Warmup::Idle,
        &idle_power,
        IDLE_WARMUP_DURATION_S,
        25e-3,
    );
    cache.lock().insert(key, Arc::new(state.clone()));
    state
}

fn edges(h: &HistSpec) -> Vec<f64> {
    let width = (h.hi - h.lo) / h.bins as f64;
    (0..=h.bins).map(|i| h.lo + i as f64 * width).collect()
}

/// Mean temperature of each floorplan unit, °C, from an active-layer frame
/// aligned with the rasterized grid (coverage-weighted).
pub fn unit_temperatures(fp: &Floorplan, grid: &FloorplanGrid, frame: &ThermalFrame) -> Vec<f64> {
    assert_eq!(grid.nx, frame.nx, "grid/frame misalignment");
    assert_eq!(grid.ny, frame.ny, "grid/frame misalignment");
    fp.units
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let cells = &grid.coverage[i];
            if cells.is_empty() {
                return frame.mean();
            }
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for &(cell, frac) in cells {
                acc += frame.temps[cell] * frac;
                wsum += frac;
            }
            acc / wsum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        let mut c = SimConfig::new(TechNode::N7, "hmmer");
        c.cell_um = 300.0;
        c.substeps = 1;
        c.sample_instrs = 8_000;
        c.max_time_s = 2e-3; // 10 windows
        c.warmup = Warmup::Cold;
        c
    }

    #[test]
    fn cosim_runs_and_heats_the_die() {
        let r = run_sim(quick_cfg());
        assert!(!r.records.is_empty());
        let first = &r.records[0];
        let last = r.records.last().unwrap();
        assert!(
            last.max_temp_c > first.max_temp_c,
            "die should heat: {} -> {}",
            first.max_temp_c,
            last.max_temp_c
        );
        assert!(last.power_w > 1.0, "chip power {}", last.power_w);
        assert!(last.ipc > 0.1);
        assert!(r.total_instructions > 0);
    }

    #[test]
    fn idle_warmup_starts_warmer() {
        let mut cold = quick_cfg();
        cold.max_time_s = 4e-4;
        let mut warm = cold.clone();
        warm.warmup = Warmup::Idle;
        let rc = run_sim(cold);
        let rw = run_sim(warm);
        assert!(
            rw.records[0].mean_temp_c > rc.records[0].mean_temp_c + 0.5,
            "idle warmup should raise the initial temperature: {} vs {}",
            rw.records[0].mean_temp_c,
            rc.records[0].mean_temp_c
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_sim(quick_cfg());
        let b = run_sim(quick_cfg());
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.max_temp_c, rb.max_temp_c);
            assert_eq!(ra.ipc, rb.ipc);
        }
    }

    #[test]
    fn tracked_unit_severity_is_recorded() {
        let mut c = quick_cfg();
        c.track_units = vec!["core0.fpIWin".into(), "core0.intRF".into()];
        let r = run_sim(c);
        for rec in &r.records {
            assert_eq!(rec.unit_severity.len(), 2);
            for &s in &rec.unit_severity {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn histograms_are_collected() {
        let mut c = quick_cfg();
        c.temp_histogram = Some(HistSpec {
            lo: 30.0,
            hi: 130.0,
            bins: 50,
        });
        c.delta_histogram = Some(HistSpec {
            lo: -2.0,
            hi: 2.0,
            bins: 40,
        });
        let r = run_sim(c);
        let rec = r.records.last().unwrap();
        let h = rec.temp_hist.as_ref().expect("temp hist requested");
        let cells = r.final_frame.temps.len();
        assert_eq!(h.iter().sum::<usize>(), cells);
        let (e, counts) = r.delta_hist.expect("delta hist requested");
        assert_eq!(e.len(), 41);
        assert_eq!(counts.iter().sum::<usize>(), cells * r.records.len());
    }

    #[test]
    fn cloned_cosim_replays_identically() {
        let mut cfg = quick_cfg();
        cfg.max_time_s = 6e-4;
        let sim = CoSimulation::new(cfg);
        let a = sim.clone().run();
        let b = sim.run();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.max_temp_c, rb.max_temp_c);
            assert_eq!(ra.ipc, rb.ipc);
        }
    }

    /// Runs `cfg` with a window callback and returns the result plus every
    /// report the callback saw, in order.
    fn run_reporting(cfg: SimConfig) -> (RunResult, Vec<WindowProgress>) {
        let seen = std::cell::RefCell::new(Vec::new());
        let cb = |p: WindowProgress| seen.borrow_mut().push(p);
        let r = CoSimulation::new(cfg).run_with_progress(Some(&cb));
        (r, seen.into_inner())
    }

    #[test]
    fn run_with_progress_reports_each_window_once() {
        let mut cfg = quick_cfg();
        cfg.substeps = 2;
        let want = run_sim(cfg.clone());
        let (got, seen) = run_reporting(cfg.clone());
        assert_same_result(&got, &want);
        assert_eq!(seen.len(), want.records.len() / cfg.substeps);
        for (n, p) in seen.iter().enumerate() {
            assert_eq!(p.windows, n as u64 + 1);
            assert_eq!(p.max_instructions, cfg.max_instructions);
            assert_eq!(p.max_time_s, cfg.max_time_s);
        }
        for pair in seen.windows(2) {
            assert!(pair[1].time_s >= pair[0].time_s);
            assert!(pair[1].instructions >= pair[0].instructions);
        }
        let last = seen.last().unwrap();
        assert_eq!(last.time_s, want.records.last().unwrap().time_s);
        assert_eq!(last.instructions, want.total_instructions);
    }

    #[test]
    fn run_with_progress_skips_the_window_a_stop_cuts_short() {
        // A stop-at-first-hotspot run reports only the windows it completed:
        // the window holding the stopping substep is never reported, even
        // when the stop lands on its last substep.
        let mut cfg = quick_cfg();
        cfg.substeps = 2;
        cfg.stop_at_first_hotspot = true;
        cfg.detect.t_threshold_c = 48.0;
        cfg.detect.mltd_threshold_c = 0.05;
        let (got, seen) = run_reporting(cfg.clone());
        assert_same_result(&got, &run_sim(cfg.clone()));
        assert!(got.tuh_s.is_some(), "test premise: the run must stop");
        assert_eq!(seen.len(), (got.records.len() - 1) / cfg.substeps);
        for (n, p) in seen.iter().enumerate() {
            assert_eq!(p.windows, n as u64 + 1);
        }
    }

    /// Full bitwise equality of two runs (every field `PartialEq` offers).
    fn assert_same_result(a: &RunResult, b: &RunResult) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.tuh_s, b.tuh_s);
        assert_eq!(a.census, b.census);
        assert_eq!(a.sev_series, b.sev_series);
        assert_eq!(a.final_frame, b.final_frame);
        assert_eq!(a.total_instructions, b.total_instructions);
        assert_eq!(a.delta_hist, b.delta_hist);
    }

    #[test]
    fn analysis_threads_never_change_a_run() {
        let mut serial = quick_cfg();
        serial.track_units = vec!["core0.intRF".into()];
        serial.temp_histogram = Some(HistSpec {
            lo: 30.0,
            hi: 130.0,
            bins: 20,
        });
        serial.delta_histogram = Some(HistSpec {
            lo: -2.0,
            hi: 2.0,
            bins: 16,
        });
        let mut sharded = serial.clone();
        serial.analysis.threads = 1;
        sharded.analysis.threads = 2;
        assert_same_result(&run_sim(serial), &run_sim(sharded));
    }

    #[test]
    fn analysis_threads_never_change_an_early_stop() {
        // Thresholds low enough that a hotspot fires mid-run: the stopping
        // substep, its frame and instruction count, and every record must
        // match bit for bit at one and at two analysis threads.
        let mut serial = quick_cfg();
        serial.stop_at_first_hotspot = true;
        serial.detect.t_threshold_c = 48.0;
        serial.detect.mltd_threshold_c = 0.05;
        let mut sharded = serial.clone();
        serial.analysis.threads = 1;
        sharded.analysis.threads = 2;
        let rs = run_sim(serial);
        let rp = run_sim(sharded);
        assert!(
            rs.tuh_s.is_some(),
            "test premise: the lowered thresholds must trip a hotspot"
        );
        assert!(
            rs.records.len() < 10,
            "test premise: the stop must happen before the horizon"
        );
        assert_same_result(&rs, &rp);
    }

    #[test]
    fn prefilter_preserves_tuh_and_skips_subthreshold_metrics() {
        // At the paper's 80 °C threshold this short run never gets hot, so
        // the prefiltered TUH run skips every substep's analysis; TUH,
        // census, and the thermal trajectory are unaffected.
        let mut on = quick_cfg();
        on.stop_at_first_hotspot = true;
        let mut off = on.clone();
        on.analysis.prefilter = true;
        off.analysis.prefilter = false;
        let r_on = run_sim(on);
        let r_off = run_sim(off);
        assert_eq!(r_on.tuh_s, r_off.tuh_s);
        assert_eq!(r_on.census, r_off.census);
        assert_eq!(r_on.records.len(), r_off.records.len());
        assert_eq!(r_on.final_frame, r_off.final_frame);
        assert_eq!(r_on.total_instructions, r_off.total_instructions);
        for (a, b) in r_on.records.iter().zip(&r_off.records) {
            assert_eq!(a.max_temp_c, b.max_temp_c);
            assert_eq!(a.mean_temp_c, b.mean_temp_c);
            assert_eq!(a.power_w, b.power_w);
            assert_eq!(a.ipc, b.ipc);
            assert!(a.max_temp_c < 80.0, "premise: run stays sub-threshold");
            assert_eq!(a.max_mltd_c, 0.0, "prefiltered substeps record zeros");
            assert_eq!(a.peak_severity, 0.0);
            assert_eq!(a.hotspot_count, 0);
            assert_eq!(a.hotspot_count, b.hotspot_count);
        }
    }

    #[test]
    fn batched_lanes_reproduce_serial_runs_bitwise() {
        // Mixed workloads, seeds, horizons, and one ΔT histogram — the lane
        // with the longer horizon keeps stepping after its mates finish.
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.benchmark = "povray".into();
        b.seed = 7;
        let mut c = quick_cfg();
        c.benchmark = "gcc".into();
        c.max_time_s = 2.6e-3;
        c.delta_histogram = Some(HistSpec {
            lo: -2.0,
            hi: 2.0,
            bins: 16,
        });
        let cfgs = [a, b, c];
        let want: Vec<RunResult> = cfgs.iter().cloned().map(run_sim).collect();
        let batch = BatchedCoSim::new(cfgs.into_iter().map(CoSimulation::new).collect());
        assert_eq!(batch.width(), 3);
        let got = batch.run();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_same_result(g, w);
        }
    }

    #[test]
    fn batched_stop_lane_stops_alone_and_matches_serial() {
        // One TUH lane (with the prefilter engaged) trips mid-run and must
        // drop out of the lockstep batch without perturbing its batch mate,
        // which runs to the horizon.
        let mut hot = quick_cfg();
        hot.stop_at_first_hotspot = true;
        hot.detect.t_threshold_c = 48.0;
        hot.detect.mltd_threshold_c = 0.05;
        hot.analysis.prefilter = true;
        let cold = quick_cfg();
        let want_hot = run_sim(hot.clone());
        let want_cold = run_sim(cold.clone());
        assert!(
            want_hot.tuh_s.is_some(),
            "test premise: the lowered thresholds must trip a hotspot"
        );
        assert!(
            want_hot.records.len() < want_cold.records.len(),
            "test premise: the stop lane must end before its mate"
        );
        let got = BatchedCoSim::new(vec![CoSimulation::new(hot), CoSimulation::new(cold)]).run();
        assert_same_result(&got[0], &want_hot);
        assert_same_result(&got[1], &want_cold);
    }

    #[test]
    fn batch_of_one_matches_run_sim() {
        let cfg = quick_cfg();
        let want = run_sim(cfg.clone());
        let got = BatchedCoSim::new(vec![CoSimulation::new(cfg)]).run();
        assert_same_result(&got[0], &want);
    }

    #[test]
    fn mixed_geometry_batch_falls_back_per_lane_and_stays_exact() {
        // Different cell sizes mean different node counts: the lockstep
        // solver cannot batch these, so it steps each lane solo — results
        // must still be bit-identical to independent runs.
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.cell_um = 360.0;
        let want_a = run_sim(a.clone());
        let want_b = run_sim(b.clone());
        let got = BatchedCoSim::new(vec![CoSimulation::new(a), CoSimulation::new(b)]).run();
        assert_same_result(&got[0], &want_a);
        assert_same_result(&got[1], &want_b);
    }

    #[test]
    fn run_many_preserves_order() {
        let mut a = quick_cfg();
        a.benchmark = "hmmer".into();
        let mut b = quick_cfg();
        b.benchmark = "povray".into();
        let rs = run_many(vec![a, b], 2);
        assert_eq!(rs[0].config.benchmark, "hmmer");
        assert_eq!(rs[1].config.benchmark, "povray");
    }

    /// `try_new`'s verdict on `quick_cfg` after `edit`.
    fn rejection(edit: impl FnOnce(&mut SimConfig)) -> Option<ConfigError> {
        let mut c = quick_cfg();
        edit(&mut c);
        CoSimulation::try_new(c).err()
    }

    #[test]
    fn non_finite_or_non_positive_horizon_is_rejected() {
        for v in [f64::NAN, f64::INFINITY, 0.0, -1e-3] {
            let err = rejection(|c| c.max_time_s = v);
            assert!(
                matches!(err, Some(ConfigError::InvalidHorizon(x)) if x.to_bits() == v.to_bits())
            );
        }
        // A huge finite horizon is valid: the instruction budget bounds it.
        assert_eq!(
            check_config(&SimConfig {
                max_time_s: 1e300,
                ..quick_cfg()
            }),
            Ok(())
        );
    }

    #[test]
    fn non_finite_or_non_positive_cell_size_is_rejected() {
        for v in [f64::NAN, 0.0, -5.0, f64::INFINITY] {
            let err = rejection(|c| c.cell_um = v);
            assert!(
                matches!(err, Some(ConfigError::InvalidCellSize(x)) if x.to_bits() == v.to_bits())
            );
        }
    }

    #[test]
    fn non_finite_or_negative_border_is_rejected() {
        for v in [f64::NAN, -0.5, f64::NEG_INFINITY] {
            let err = rejection(|c| c.border_mm = v);
            assert!(
                matches!(err, Some(ConfigError::InvalidBorder(x)) if x.to_bits() == v.to_bits())
            );
        }
        assert_eq!(
            check_config(&SimConfig {
                border_mm: 0.0,
                ..quick_cfg()
            }),
            Ok(())
        );
    }

    #[test]
    fn ic_area_factor_below_one_or_non_finite_is_rejected() {
        for v in [f64::NAN, 0.5, -2.0, f64::INFINITY] {
            let err = rejection(|c| c.ic_area_factor = v);
            assert!(
                matches!(err, Some(ConfigError::InvalidIcAreaFactor(x)) if x.to_bits() == v.to_bits())
            );
        }
    }

    #[test]
    fn non_finite_or_non_positive_unit_scale_is_rejected() {
        for v in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let err =
                rejection(|c| c.unit_scales = vec![(UnitKind::Rob, 2.0), (UnitKind::IntRat, v)]);
            assert!(matches!(
                err,
                Some(ConfigError::InvalidUnitScale(UnitKind::IntRat, x)) if x.to_bits() == v.to_bits()
            ));
        }
    }

    #[test]
    fn zero_sample_instrs_is_rejected() {
        assert_eq!(
            rejection(|c| c.sample_instrs = 0),
            Some(ConfigError::ZeroSampleInstrs)
        );
    }

    #[test]
    fn grid_cells_matches_the_built_thermal_grid() {
        for (cell_um, border_mm, ic) in [(300.0, 4.0, 1.0), (250.0, 0.0, 1.7), (130.0, 1.3, 3.0)] {
            let cfg = SimConfig {
                cell_um,
                border_mm,
                ic_area_factor: ic,
                ..quick_cfg()
            };
            let grid = FloorplanGrid::rasterize(&build_floorplan(&cfg), cfg.cell_um);
            let stack = StackDescription::client_cpu_with_border(
                grid.nx,
                grid.ny,
                cfg.cell_um,
                cfg.border_mm * units::M_PER_MM,
            );
            assert_eq!(grid_cells(&cfg), (stack.nx() * stack.ny()) as f64);
        }
    }

    #[test]
    fn grid_budget_admits_every_configuration_the_repo_runs() {
        // The paper's 100 µm cells (the finest any experiment uses) at the
        // default border, on every node, at every §V-B IC area factor, with
        // and without the §V-A unit scalings.
        let scalings = [
            vec![],
            vec![(UnitKind::FpIWin, 10.0)],
            vec![(UnitKind::FpRf, 10.0)],
            vec![(UnitKind::IntRat, 10.0), (UnitKind::FpRat, 10.0)],
        ];
        let mut worst = 0.0f64;
        for node in [TechNode::N14, TechNode::N10, TechNode::N7, TechNode::N5] {
            for ic in [1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0] {
                for scales in &scalings {
                    let cfg = SimConfig {
                        ic_area_factor: ic,
                        unit_scales: scales.clone(),
                        ..SimConfig::new(node, "gcc").paper_fidelity()
                    };
                    assert_eq!(check_config(&cfg), Ok(()));
                    worst = worst.max(grid_cells(&cfg));
                }
            }
        }
        assert!(worst * 4.0 < MAX_GRID_CELLS as f64, "worst grid {worst}");
        let fine = SimConfig {
            cell_um: 50.0,
            ..SimConfig::new(TechNode::N14, "gcc")
        };
        assert_eq!(check_config(&fine), Ok(()));
    }

    #[test]
    fn grid_beyond_the_cell_budget_is_rejected() {
        for edit in [
            (|c: &mut SimConfig| c.cell_um = 1e-9) as fn(&mut SimConfig),
            |c| c.cell_um = 5.0,
            |c| c.border_mm = 1e6,
            |c| c.ic_area_factor = 1e9,
            |c| c.unit_scales = vec![(UnitKind::L2, 1e12)],
        ] {
            assert!(
                matches!(rejection(edit), Some(ConfigError::GridTooLarge(cells)) if cells > MAX_GRID_CELLS as f64)
            );
        }
    }

    #[test]
    fn unit_temperatures_align() {
        let cfg = quick_cfg();
        let fp = build_floorplan(&cfg);
        // Two rasterizations: leakage + clock power spreads uniformly over
        // each unit, while utilization-driven switching concentrates in the
        // unit's hot structures (see `rasterize_with_concentration`).
        let grid = FloorplanGrid::rasterize(&fp, cfg.cell_um);
        let _grid_peaked = FloorplanGrid::rasterize_with_concentration(
            &fp,
            cfg.cell_um,
            Some(UNIT_POWER_CONCENTRATION),
        );
        let frame = ThermalFrame::uniform(grid.nx, grid.ny, cfg.cell_um * 1e-6, 55.0);
        let temps = unit_temperatures(&fp, &grid, &frame);
        assert_eq!(temps.len(), fp.units.len());
        assert!(temps.iter().all(|&t| (t - 55.0).abs() < 1e-9));
    }
}
