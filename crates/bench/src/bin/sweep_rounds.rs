//! Raw sweep timing harness behind `BENCH_sweep.json` / `BENCH_batch.json`:
//! one fig11-style grid (every SPEC proxy × every core, one geometry)
//! through `run_many`, printing wall time and the process's peak RSS
//! (`VmHWM` from `/proc/self/status`; `peak_rss_kb=0` off Linux). The same
//! source is compiled against the pre-change baseline for the
//! alternating-rounds comparison.
//!
//! Usage: `sweep_rounds [THREADS] [BATCH] [CELL_UM]` (defaults 1,
//! `DEFAULT_BATCH_WIDTH`, 200; `BATCH=1` runs every job as a one-lane
//! batch).

use hotgauge_core::pipeline::SimConfig;
use hotgauge_core::sweep::{run_many_batched_with, DEFAULT_BATCH_WIDTH};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006::ALL_BENCHMARKS;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let batch: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_BATCH_WIDTH);
    let cell_um: f64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200.0);
    let mut cfgs = Vec::new();
    for bench in ALL_BENCHMARKS {
        for core in 0..7 {
            let mut c = SimConfig::new(TechNode::N7, bench);
            c.cell_um = cell_um;
            c.border_mm = 1.0;
            c.substeps = 1;
            c.sample_instrs = 8_000;
            c.max_time_s = 1e-3;
            c.warmup = Warmup::Cold;
            c.target_core = core;
            cfgs.push(c);
        }
    }
    let total = cfgs.len();
    let t0 = std::time::Instant::now();
    let rs = run_many_batched_with(cfgs, threads, batch, None);
    let wall = t0.elapsed().as_secs_f64();
    let fired = rs.iter().filter(|r| r.tuh_s.is_some()).count();
    let peak_rss_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .unwrap_or(0);
    println!(
        "runs={total} hotspots={fired} threads={threads} batch={batch} cell_um={cell_um} \
         wall_s={wall:.3} peak_rss_kb={peak_rss_kb}"
    );
    assert_eq!(rs.len(), total);
    // Telemetry builds dump a stage breakdown so the harness doubles as a
    // where-does-the-wall-go profile for the batching work.
    #[cfg(feature = "telemetry")]
    {
        let snap = hotgauge_telemetry::snapshot();
        let mut spans = snap.spans.clone();
        spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
        for s in spans.iter().take(12) {
            eprintln!(
                "span {:<24} calls={:<8} total_s={:.3}",
                s.label,
                s.calls,
                s.total_ns as f64 / 1e9
            );
        }
        for c in &snap.counters {
            eprintln!(
                "counter {:<24} calls={:<8} total={}",
                c.label, c.calls, c.total
            );
        }
    }
}
