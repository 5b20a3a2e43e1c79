//! Fused, sharded per-frame hotspot analysis.
//!
//! The per-substep analysis stage of the pipeline — the MLTD field (§III-E),
//! candidate hotspot detection (§III-F), and the severity metric (§III-G) —
//! historically ran as three independent full-grid passes, with the MLTD
//! sliding-window computed *twice* (once for the records, once inside
//! `detect_hotspots`). [`FrameAnalyzer`] fuses them into one pass over the
//! frame and adds three mechanical speedups, none of which changes a single
//! bit of any result:
//!
//! * **buffer reuse** — the deduplicated sliding-window pass buffers, the
//!   MLTD field, and the deque scratch persist across substeps instead of
//!   being reallocated ~10⁴ times per run;
//! * **row sharding** — both the sliding-window passes and the per-row
//!   combine/detect/severity sweep split the grid into contiguous row bands
//!   across `std::thread::scope` workers (mirroring the CG row sharding in
//!   `hotgauge_thermal::sparse`); per-cell results are unaffected because
//!   each output row depends only on read-only inputs;
//! * **exact severity pruning** — per row, an upper bound
//!   ([`crate::severity::SeverityParams::severity_bound`]) computed from the
//!   row's max temperature and max MLTD skips the exp-heavy per-cell severity
//!   sweep whenever the row provably cannot beat the running peak. The peak
//!   is still the exact full-grid maximum.
//!
//! A fourth mechanism, the **sub-threshold prefilter**
//! ([`FrameAnalyzer::analyze_with_max`]), *does* change what gets recorded —
//! it skips the analysis entirely when no cell exceeds `T_th`, reporting zero
//! MLTD/severity for that substep — so the pipeline only engages it for
//! `stop_at_first_hotspot` (TUH) runs, where those per-substep fields are
//! never consumed and the hotspot set (empty, exactly as Definition 1 says:
//! no cell above `T_th` ⇒ no hotspot) is all that matters.

use serde::{Deserialize, Serialize};

use hotgauge_telemetry::counter;
use hotgauge_thermal::frame::ThermalFrame;
use hotgauge_thermal::sparse::hardware_threads;

use crate::detect::{Hotspot, HotspotParams};
use crate::mltd::{chord_half_widths, rows_window_min_into};
use crate::severity::SeverityParams;

/// Minimum cells per shard: below this a scoped-thread spawn (tens of µs)
/// costs as much as the band's analysis work, so extra shards only add
/// overhead. Coarse test grids (≲ 3 k cells) therefore always run serial.
const MIN_SHARD_CELLS: usize = 8192;

/// Execution strategy of the pipeline's analysis stage: how fast the
/// per-substep hotspot analysis runs, and whether metrics are recorded for
/// provably hotspot-free substeps in TUH mode. The thread count never
/// changes a result; the prefilter keeps the TUH exact but zeroes the MLTD,
/// severity and hotspot count of the substeps it skips.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Worker threads for the row-sharded analysis passes: `0` = one per
    /// hardware thread (capped so every shard keeps at least
    /// `MIN_SHARD_CELLS` cells), `1` = always serial, `N` = at most `N`.
    pub threads: usize,
    /// Skip the analysis of substeps whose frame max is below `T_th` in
    /// `stop_at_first_hotspot` runs (such frames cannot contain a hotspot
    /// by Definition 1).
    pub prefilter: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            prefilter: true,
        }
    }
}

impl AnalysisConfig {
    /// Strictly serial analysis on the calling thread. Used by sweep workers
    /// (`run_many`): when every core already runs its own simulation,
    /// per-run analysis threads would only oversubscribe the machine.
    pub fn serial(self) -> Self {
        Self { threads: 1, ..self }
    }
}

/// Everything the pipeline needs from one frame's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameAnalysis {
    /// Detected hotspots, in the row-major order of [`crate::detect::detect_hotspots`].
    pub hotspots: Vec<Hotspot>,
    /// Maximum MLTD over the frame (0 when prefiltered).
    pub max_mltd_c: f64,
    /// Peak severity over the frame (0 when prefiltered).
    pub peak_severity: f64,
    /// True when the sub-threshold prefilter skipped the analysis.
    pub prefiltered: bool,
}

/// Per-shard partial results of the fused combine/detect/severity sweep.
struct ShardStats {
    hotspots: Vec<Hotspot>,
    max_mltd: f64,
    peak_sev: f64,
    severity_evals: usize,
    /// Rows whose severity sweep ran through the contiguous-slice kernel.
    simd_rows: usize,
}

/// Reusable fused analyzer: computes the MLTD field, the hotspot set, the
/// frame's max MLTD, and the exact peak severity in one (optionally
/// row-sharded) sweep, holding all scratch buffers across calls.
///
/// Outputs are bit-identical to the unfused reference sequence
/// `mltd_field` → `detect_hotspots` → full-grid `peak_severity` fold →
/// max-MLTD fold (the parity property tests in `tests/properties.rs` pin
/// this down).
#[derive(Debug, Clone)]
pub struct FrameAnalyzer {
    params: HotspotParams,
    severity: SeverityParams,
    threads: usize,
    bound_usable: bool,
    /// Disc radius in cells the tables below were built for (-1 = none yet).
    r_cells: isize,
    /// Distinct sliding-window half-widths (deduplicated chord table).
    pass_widths: Vec<isize>,
    /// `|dy|` → index into `pass_widths` / `passes`.
    width_of_dy: Vec<usize>,
    /// One full-grid sliding-window minimum buffer per distinct width.
    passes: Vec<Vec<f64>>,
    /// The MLTD field of the last analyzed frame.
    mltd: Vec<f64>,
    /// Per-row disc-minimum scratch for the serial path (also reused as the
    /// severity-row output buffer once the row's MLTD is written).
    rowmin: Vec<f64>,
    /// Two-pass window-minimum scratch for the serial sliding-window passes.
    winmin: Vec<f64>,
}

impl FrameAnalyzer {
    /// Creates an analyzer for the given detection thresholds and severity
    /// parameters. `threads` follows [`AnalysisConfig::threads`] semantics.
    pub fn new(params: HotspotParams, severity: SeverityParams, threads: usize) -> Self {
        Self {
            params,
            severity,
            threads,
            bound_usable: severity.bound_usable(),
            r_cells: -1,
            pass_widths: Vec::new(),
            width_of_dy: Vec::new(),
            passes: Vec::new(),
            mltd: Vec::new(),
            rowmin: Vec::new(),
            winmin: Vec::new(),
        }
    }

    /// The MLTD field of the last non-prefiltered [`FrameAnalyzer::analyze`]
    /// call (row-major, frame-sized). Empty before the first call.
    pub fn mltd(&self) -> &[f64] {
        &self.mltd
    }

    /// Re-targets a used analyzer at new detection/severity parameters while
    /// keeping every scratch buffer. The chord tables are a function of the
    /// disc radius in cells alone, so [`FrameAnalyzer::analyze`] rebuilds
    /// them on its own if (and only if) the radius changes; everything else
    /// is overwritten before it is read. Sweep workers use this to recycle
    /// one analyzer across heterogeneous runs with bit-identical results.
    pub fn reconfigure(&mut self, params: HotspotParams, severity: SeverityParams, threads: usize) {
        self.params = params;
        self.severity = severity;
        self.threads = threads;
        self.bound_usable = severity.bound_usable();
    }

    /// [`FrameAnalyzer::analyze`] behind the sub-threshold prefilter: when
    /// `prefilter` is set and `frame_max` (the frame's exact max, tracked
    /// during extraction) does not exceed `T_th`, Definition 1 guarantees an
    /// empty hotspot set, so the whole analysis is skipped and zeros are
    /// reported for max-MLTD / peak severity.
    pub fn analyze_with_max(
        &mut self,
        frame: &ThermalFrame,
        frame_max: f64,
        prefilter: bool,
    ) -> FrameAnalysis {
        if prefilter && frame_max <= self.params.t_threshold_c {
            counter!("analysis.prefilter_skips", 1);
            return FrameAnalysis {
                hotspots: Vec::new(),
                max_mltd_c: 0.0,
                peak_severity: 0.0,
                prefiltered: true,
            };
        }
        self.analyze(frame)
    }

    /// Fused analysis of one frame: MLTD field + hotspot detection + max
    /// MLTD + exact peak severity.
    pub fn analyze(&mut self, frame: &ThermalFrame) -> FrameAnalysis {
        self.prepare(frame);
        let (nx, ny) = (frame.nx, frame.ny);
        let shards = self.shard_count(frame.temps.len(), ny);
        let ranges = shard_rows(ny, shards);
        counter!("analysis.shards", ranges.len());

        let temps = &frame.temps[..];
        let params = self.params;
        let severity = self.severity;
        let bound_usable = self.bound_usable;
        let r = self.r_cells;
        let pass_widths = &self.pass_widths[..];
        let width_of_dy = &self.width_of_dy[..];

        // Phase A: the deduplicated sliding-window minimum passes, each pass
        // buffer split into per-shard row bands (rows are independent).
        if ranges.len() == 1 {
            for (k, pass) in self.passes.iter_mut().enumerate() {
                rows_window_min_into(temps, nx, 0..ny, pass_widths[k], pass, &mut self.winmin);
            }
        } else {
            let mut shard_slices: Vec<Vec<&mut [f64]>> =
                ranges.iter().map(|_| Vec::new()).collect();
            for pass in self.passes.iter_mut() {
                let mut rest: &mut [f64] = pass;
                for (j, range) in ranges.iter().enumerate() {
                    let (band, tail) = rest.split_at_mut(range.len() * nx);
                    shard_slices[j].push(band);
                    rest = tail;
                }
            }
            std::thread::scope(|scope| {
                for (range, bands) in ranges.iter().cloned().zip(shard_slices) {
                    scope.spawn(move || {
                        let mut winmin = Vec::new();
                        for (k, band) in bands.into_iter().enumerate() {
                            rows_window_min_into(
                                temps,
                                nx,
                                range.clone(),
                                pass_widths[k],
                                band,
                                &mut winmin,
                            );
                        }
                    });
                }
            });
        }

        // Phase B: per-row chord combine + detection + severity, sharded
        // over the same disjoint row bands of the MLTD buffer.
        let passes = &self.passes[..];
        let stats: Vec<ShardStats> = if ranges.len() == 1 {
            self.rowmin.resize(nx, 0.0);
            vec![analyze_rows(
                temps,
                nx,
                ny,
                0..ny,
                passes,
                width_of_dy,
                r,
                &params,
                &severity,
                bound_usable,
                &mut self.mltd,
                &mut self.rowmin,
            )]
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(ranges.len());
                let mut rest: &mut [f64] = &mut self.mltd;
                for range in ranges.iter().cloned() {
                    let (band, tail) = rest.split_at_mut(range.len() * nx);
                    rest = tail;
                    handles.push(scope.spawn(move || {
                        let mut rowmin = vec![0.0; nx];
                        analyze_rows(
                            temps,
                            nx,
                            ny,
                            range,
                            passes,
                            width_of_dy,
                            r,
                            &params,
                            &severity,
                            bound_usable,
                            band,
                            &mut rowmin,
                        )
                    }));
                }
                handles
                    .into_iter()
                    // hotgauge-lint: allow(L001, "re-raises a shard panic on the caller; swallowing it would merge a partial analysis")
                    .map(|h| h.join().expect("analysis shard panicked"))
                    .collect()
            })
        };

        // Merge in shard (= row) order: concatenated hotspot lists reproduce
        // the serial row-major order, and max-merging the per-shard maxima
        // reproduces the serial `fold(0.0, f64::max)` exactly (both select
        // the same element; the fields are NaN-free).
        let mut hotspots = Vec::new();
        let mut max_mltd = 0.0f64;
        let mut peak_sev = 0.0f64;
        let mut severity_evals = 0usize;
        let mut simd_rows = 0usize;
        for s in stats {
            hotspots.extend(s.hotspots);
            max_mltd = max_mltd.max(s.max_mltd);
            peak_sev = peak_sev.max(s.peak_sev);
            severity_evals += s.severity_evals;
            simd_rows += s.simd_rows;
        }
        counter!("detect.severity_evals", severity_evals);
        counter!("analysis.simd_rows", simd_rows);
        FrameAnalysis {
            hotspots,
            max_mltd_c: max_mltd,
            peak_severity: peak_sev,
            prefiltered: false,
        }
    }

    /// (Re)builds the chord tables and sizes the scratch buffers for the
    /// frame's geometry. No-op when nothing changed — the common case, since
    /// a run's frames all share one grid.
    fn prepare(&mut self, frame: &ThermalFrame) {
        let r = (self.params.radius_m / frame.cell_m).round() as isize;
        let n = frame.temps.len();
        if r != self.r_cells {
            self.r_cells = r;
            // Deduplicate chords by half-width exactly as `mltd_field` does
            // (a 10-cell radius has 11 chords but only 7 distinct widths).
            let half_w = chord_half_widths(r.max(0));
            self.pass_widths.clear();
            self.width_of_dy = half_w
                .iter()
                .map(|&w| match self.pass_widths.iter().position(|&pw| pw == w) {
                    Some(i) => i,
                    None => {
                        self.pass_widths.push(w);
                        self.pass_widths.len() - 1
                    }
                })
                .collect();
            self.passes = vec![Vec::new(); self.pass_widths.len()];
        }
        for pass in &mut self.passes {
            pass.resize(n, 0.0);
        }
        self.mltd.resize(n, 0.0);
    }

    /// Shard count for a frame: the requested thread budget, capped so each
    /// shard keeps at least [`MIN_SHARD_CELLS`] cells and at most one shard
    /// per row exists.
    fn shard_count(&self, cells: usize, ny: usize) -> usize {
        let requested = if self.threads == 0 {
            hardware_threads()
        } else {
            self.threads
        };
        requested
            .min(cells / MIN_SHARD_CELLS + 1)
            .clamp(1, ny.max(1))
    }
}

/// Near-equal contiguous row bands for `shards` workers.
fn shard_rows(ny: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = ny.div_ceil(shards.max(1)).max(1);
    (0..shards)
        .map(|j| (j * chunk).min(ny)..((j + 1) * chunk).min(ny))
        .filter(|r| !r.is_empty())
        .collect()
}

/// The fused per-row sweep over `rows`: combines the sliding-window passes
/// into the disc minimum, writes the MLTD band into `mltd_band` (aligned to
/// `rows.start`), detects hotspots (local maxima in x and y, ties allowed,
/// clearing both Definition-1 thresholds), and folds the band's max MLTD and
/// exact peak severity.
#[allow(clippy::too_many_arguments)]
fn analyze_rows(
    temps: &[f64],
    nx: usize,
    ny: usize,
    rows: std::ops::Range<usize>,
    passes: &[Vec<f64>],
    width_of_dy: &[usize],
    r: isize,
    params: &HotspotParams,
    severity: &SeverityParams,
    bound_usable: bool,
    mltd_band: &mut [f64],
    rowmin: &mut [f64],
) -> ShardStats {
    debug_assert_eq!(mltd_band.len(), rows.len() * nx);
    let mut out = ShardStats {
        hotspots: Vec::new(),
        max_mltd: 0.0,
        peak_sev: 0.0,
        severity_evals: 0,
        simd_rows: 0,
    };
    let row_start = rows.start;
    for iy in rows {
        // Disc minimum for this output row: min over the chord rows
        // iy + dy, each already reduced horizontally by its pass.
        rowmin.fill(f64::INFINITY);
        for dy in -r..=r {
            let sy = iy as isize + dy;
            if sy < 0 || sy >= ny as isize {
                continue;
            }
            let mins = &passes[width_of_dy[dy.unsigned_abs()]];
            let src = &mins[(sy as usize) * nx..(sy as usize + 1) * nx];
            for (d, &s) in rowmin.iter_mut().zip(src) {
                if s < *d {
                    *d = s;
                }
            }
        }

        let trow = &temps[iy * nx..(iy + 1) * nx];
        let mrow = &mut mltd_band[(iy - row_start) * nx..(iy - row_start + 1) * nx];
        let mut row_max_t = f64::NEG_INFINITY;
        let mut row_max_m = 0.0f64;
        for ix in 0..nx {
            let t = trow[ix];
            let m = t - rowmin[ix];
            mrow[ix] = m;
            if t > row_max_t {
                row_max_t = t;
            }
            if m > row_max_m {
                row_max_m = m;
            }
        }
        if row_max_m > out.max_mltd {
            out.max_mltd = row_max_m;
        }

        // Hotspots: only possible when some cell clears T_th (Definition 1),
        // which most rows of a sane die never do.
        if row_max_t > params.t_threshold_c {
            let up = (iy > 0).then(|| &temps[(iy - 1) * nx..iy * nx]);
            let down = (iy + 1 < ny).then(|| &temps[(iy + 1) * nx..(iy + 2) * nx]);
            for ix in 0..nx {
                let t = trow[ix];
                if t <= params.t_threshold_c {
                    continue;
                }
                let m = mrow[ix];
                if m <= params.mltd_threshold_c {
                    continue;
                }
                let ok_x = (ix == 0 || trow[ix - 1] <= t) && (ix + 1 >= nx || trow[ix + 1] <= t);
                let ok_y = up.is_none_or(|u| u[ix] <= t) && down.is_none_or(|d| d[ix] <= t);
                if ok_x && ok_y {
                    out.hotspots.push(Hotspot {
                        ix,
                        iy,
                        temp_c: t,
                        mltd_c: m,
                        severity: severity.severity(t, m),
                    });
                }
            }
        }

        // Exact peak severity with row pruning: the bound dominates every
        // cell in the row, so rows that cannot beat the running peak skip
        // the exp-heavy sweep without changing the final maximum.
        let row_bound = bound_usable.then(|| severity.severity_bound(row_max_t, row_max_m));
        let must_scan = row_bound.is_none_or(|b| b > out.peak_sev);
        if must_scan {
            // Contiguous-slice severity kernel into `rowmin` (free once the
            // MLTD row above is written), then a left-to-right max fold —
            // same per-element formula and selection as the scalar loop.
            severity.severity_row(trow, mrow, rowmin);
            for &s in rowmin.iter() {
                // The pruning is only sound if the row bound dominates every
                // cell severity in the row; check it where the lint cannot.
                debug_assert!(
                    row_bound.is_none_or(|b| s <= b + 1e-12),
                    "severity_bound {row_bound:?} does not dominate severity {s} in row {iy}",
                );
                if s > out.peak_sev {
                    out.peak_sev = s;
                }
            }
            out.severity_evals += nx;
            out.simd_rows += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_hotspots;
    use crate::mltd::mltd_field;
    use crate::severity::peak_severity;

    fn frame_from(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> f64) -> ThermalFrame {
        let mut temps = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                temps.push(f(x, y));
            }
        }
        ThermalFrame::new(nx, ny, 100e-6, temps)
    }

    fn bumpy_frame(nx: usize, ny: usize) -> ThermalFrame {
        frame_from(nx, ny, |x, y| {
            let bump = |cx: f64, cy: f64, amp: f64, sigma: f64| {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                amp * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
            };
            55.0 + bump(0.3 * nx as f64, 0.3 * ny as f64, 42.0, 3.0)
                + bump(0.7 * nx as f64, 0.6 * ny as f64, 38.0, 2.0)
        })
    }

    fn assert_matches_reference(frame: &ThermalFrame, threads: usize) {
        let p = HotspotParams::paper_default();
        let s = SeverityParams::cpu_default();
        let mut az = FrameAnalyzer::new(p, s, threads);
        let a = az.analyze(frame);

        let mltd = mltd_field(frame, p.radius_m);
        assert_eq!(az.mltd(), &mltd[..], "MLTD field must be bit-identical");
        assert_eq!(a.hotspots, detect_hotspots(frame, &p, &s));
        assert_eq!(a.max_mltd_c, mltd.iter().cloned().fold(0.0, f64::max));
        assert_eq!(a.peak_severity, peak_severity(&s, &frame.temps, &mltd));
        assert!(!a.prefiltered);
    }

    #[test]
    fn fused_serial_matches_reference_pipeline() {
        assert_matches_reference(&bumpy_frame(48, 40), 1);
    }

    #[test]
    fn fused_sharded_matches_reference_pipeline() {
        // Big enough that an explicit 3-thread request genuinely shards
        // (cells / MIN_SHARD_CELLS + 1 = 3).
        assert_matches_reference(&bumpy_frame(140, 130), 3);
    }

    #[test]
    fn analyzer_is_reusable_across_frames() {
        let p = HotspotParams::paper_default();
        let s = SeverityParams::cpu_default();
        let mut az = FrameAnalyzer::new(p, s, 1);
        for amp in [10.0, 45.0, 30.0] {
            let f = frame_from(40, 40, |x, y| {
                let dx = x as f64 - 20.0;
                let dy = y as f64 - 20.0;
                55.0 + amp * (-(dx * dx + dy * dy) / 18.0).exp()
            });
            let a = az.analyze(&f);
            assert_eq!(a.hotspots, detect_hotspots(&f, &p, &s));
            assert_eq!(az.mltd(), &mltd_field(&f, p.radius_m)[..]);
        }
    }

    #[test]
    fn prefilter_skips_subthreshold_frames() {
        let f = frame_from(40, 40, |_, _| 61.0);
        let p = HotspotParams::paper_default();
        let mut az = FrameAnalyzer::new(p, SeverityParams::cpu_default(), 1);
        let a = az.analyze_with_max(&f, 61.0, true);
        assert!(a.prefiltered);
        assert!(a.hotspots.is_empty());
        assert_eq!(a.max_mltd_c, 0.0);
        assert_eq!(a.peak_severity, 0.0);
        // Above T_th the prefilter must not engage.
        let hot = frame_from(40, 40, |x, y| if (x, y) == (20, 20) { 95.0 } else { 55.0 });
        let b = az.analyze_with_max(&hot, 95.0, true);
        assert!(!b.prefiltered);
        assert_eq!(b.hotspots.len(), 1);
    }

    #[test]
    fn zero_radius_yields_zero_mltd() {
        let mut p = HotspotParams::paper_default();
        p.radius_m = 1e-9; // rounds to 0 cells
        let f = bumpy_frame(30, 30);
        let mut az = FrameAnalyzer::new(p, SeverityParams::cpu_default(), 1);
        let a = az.analyze(&f);
        assert!(az.mltd().iter().all(|&v| v == 0.0));
        assert_eq!(a.max_mltd_c, 0.0);
        assert!(a.hotspots.is_empty(), "MLTD 0 < threshold everywhere");
    }

    #[test]
    fn shard_rows_cover_exactly() {
        for (ny, shards) in [(1, 1), (7, 3), (64, 4), (10, 16)] {
            let ranges = shard_rows(ny, shards);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, ny);
        }
    }

    #[test]
    fn analysis_config_defaults_are_sane() {
        let c = AnalysisConfig::default();
        assert_eq!(c.threads, 0);
        assert!(c.prefilter);
        let s = c.serial();
        assert_eq!(s.threads, 1);
        assert!(s.prefilter, "serial() must preserve the prefilter choice");
    }
}
