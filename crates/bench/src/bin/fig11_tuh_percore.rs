//! Fig. 11 — TUH per benchmark at 7 nm, each benchmark run on every core,
//! from cold vs after idle warm-up (box-and-whisker data).
//!
//! Paper: >2 orders of magnitude TUH spread across benchmarks
//! (0.2 ms – 150 ms); gobmk and namd are warm-up sensitive; ~20 % of
//! benchmarks show order-of-magnitude core-to-core spread.

use hotgauge_bench::cli::{sweep_ticker, BinArgs};
use hotgauge_core::experiments::{fig11_fold, tuh_grid};
use hotgauge_core::report::{fmt_tuh, TextTable};
use hotgauge_core::run_many_batched_with;
use hotgauge_core::series::BoxStats;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006::ALL_BENCHMARKS;

#[derive(serde::Serialize)]
struct TuhRow {
    warmup: String,
    benchmark: String,
    tuh_s: Vec<Option<f64>>,
}

fn main() {
    let args = BinArgs::parse("fig11_tuh_percore");
    let fid = args.fidelity();
    let cores: Vec<usize> = (0..7).collect();
    let warmups = [Warmup::Cold, Warmup::Idle];
    // Both warm-up grids run as one sweep, so the executor can batch each
    // (benchmark, core) pair's Cold and Idle runs together and warm their
    // shared workload stream once.
    let grid: Vec<_> = warmups
        .iter()
        .flat_map(|&w| tuh_grid(&fid, TechNode::N7, w, &ALL_BENCHMARKS, &cores))
        .collect();
    let per_warmup = ALL_BENCHMARKS.len() * cores.len();
    args.note_sweep(grid.len(), fid.threads);
    let mut store = args.open_store();
    let delta = args.delta_basis();
    let printer = args.sweep_progress(grid.len() as u64);
    let on_done = sweep_ticker(&printer);
    // With --store the grid runs through the store-aware executor
    // (bit-identical results, unchanged runs served from disk); without it,
    // through the classic driver.
    let results = match store.as_mut() {
        Some(store) => {
            let outcome = hotgauge_store::run_many_stored_with(
                grid,
                fid.threads,
                fid.batch,
                store,
                delta.as_ref(),
                Some(&on_done),
            )
            .unwrap_or_else(|e| {
                eprintln!("error: store sweep failed: {e}");
                std::process::exit(1);
            });
            args.note_store(outcome.stats);
            outcome.results
        }
        None => run_many_batched_with(grid, fid.threads, fid.batch, Some(&on_done)),
    };
    let mut json_rows = Vec::new();
    for (&warmup, results) in warmups.iter().zip(results.chunks(per_warmup)) {
        let rows = fig11_fold(results, &ALL_BENCHMARKS, &cores);
        for (bench, tuhs) in &rows {
            json_rows.push(TuhRow {
                warmup: warmup.label().to_owned(),
                benchmark: bench.clone(),
                tuh_s: tuhs.clone(),
            });
        }
        if args.quiet() {
            continue;
        }
        println!("\nFig. 11 ({}): TUH at 7nm across cores\n", warmup.label());
        let mut table = TextTable::new(vec![
            "benchmark",
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "none",
        ]);
        let mut global: Vec<f64> = Vec::new();
        for (bench, tuhs) in &rows {
            let fired: Vec<f64> = tuhs.iter().flatten().copied().collect();
            let none = tuhs.len() - fired.len();
            global.extend(&fired);
            if fired.is_empty() {
                table.row(vec![
                    bench.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!(">{:.0}ms", fid.max_time_s * 1e3),
                    none.to_string(),
                ]);
                continue;
            }
            let b = BoxStats::of(&fired);
            table.row(vec![
                bench.clone(),
                fmt_tuh(Some(b.min), fid.max_time_s),
                fmt_tuh(Some(b.q1), fid.max_time_s),
                fmt_tuh(Some(b.median), fid.max_time_s),
                fmt_tuh(Some(b.q3), fid.max_time_s),
                fmt_tuh(Some(b.max), fid.max_time_s),
                none.to_string(),
            ]);
        }
        println!("{}", table.render());
        if !global.is_empty() {
            let lo = global.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = global.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "TUH spread across benchmarks: {:.2e} s .. {:.2e} s ({:.1} orders of magnitude)",
                lo,
                hi,
                (hi / lo).log10()
            );
        }
    }
    args.emit_manifest(
        &[
            ("node", "7nm".to_owned()),
            ("benchmarks", ALL_BENCHMARKS.len().to_string()),
            ("cores", cores.len().to_string()),
        ],
        &json_rows,
    );
}
