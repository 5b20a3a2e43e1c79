//! Property-based tests on the core data structures and physical invariants,
//! spanning the floorplan, thermal, and metric crates.

use proptest::prelude::*;

use hotgauge_core::analysis::{AnalysisConfig, FrameAnalyzer};
use hotgauge_core::detect::{detect_hotspots, detect_hotspots_naive, HotspotParams};
use hotgauge_core::mltd::{mltd_field, mltd_field_naive};
use hotgauge_core::pipeline::{run_sim, SimConfig};
use hotgauge_core::series::{percentile, rms, BoxStats};
use hotgauge_core::severity::{peak_severity, SeverityParams};
use hotgauge_floorplan::grid::FloorplanGrid;
use hotgauge_floorplan::skylake::SkylakeProxy;
use hotgauge_floorplan::tech::TechNode;
use hotgauge_floorplan::unit::UnitKind;
use hotgauge_thermal::frame::ThermalFrame;
use hotgauge_thermal::model::ThermalModel;
use hotgauge_thermal::solver::CgConfig;
use hotgauge_thermal::stack::StackDescription;
use hotgauge_thermal::warmup::Warmup;

fn arb_node() -> impl Strategy<Value = TechNode> {
    prop_oneof![
        Just(TechNode::N14),
        Just(TechNode::N10),
        Just(TechNode::N7),
        Just(TechNode::N5),
    ]
}

fn arb_unit_kind() -> impl Strategy<Value = UnitKind> {
    prop::sample::select(UnitKind::CORE_KINDS.to_vec())
}

/// Deterministic xorshift temperature field `base + U[0, amp)`, so fields
/// with `base < 80 < base + amp` straddle the paper's `T_th`.
fn random_frame(nx: usize, ny: usize, seed: u64, base: f64, amp: f64) -> ThermalFrame {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let temps = (0..nx * ny)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            base + (x % 10_000) as f64 / 10_000.0 * amp
        })
        .collect();
    ThermalFrame::new(nx, ny, 100e-6, temps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn floorplan_valid_under_any_scaling(
        node in arb_node(),
        kind in arb_unit_kind(),
        factor in 1.0f64..12.0,
        ic in 1.0f64..3.0,
    ) {
        let fp = SkylakeProxy::new(node)
            .scale_unit(kind, factor)
            .ic_area_factor(ic)
            .build();
        prop_assert!(fp.validate().is_ok());
        prop_assert_eq!(fp.core_count(), 7);
        // The scaled unit exists in every core.
        prop_assert_eq!(fp.units_of_kind(kind).count(), 7);
    }

    #[test]
    fn rasterized_power_is_conserved(
        node in arb_node(),
        cell_um in 120.0f64..600.0,
        seed in 0u64..1000,
    ) {
        let fp = SkylakeProxy::new(node).build();
        let grid = FloorplanGrid::rasterize(&fp, cell_um);
        let powers: Vec<f64> = (0..fp.units.len())
            .map(|i| ((i as u64 * 2654435761 + seed) % 100) as f64 / 50.0)
            .collect();
        let map = grid.power_map(&powers);
        let input: f64 = powers.iter().sum();
        let output: f64 = map.iter().sum();
        prop_assert!((input - output).abs() < 1e-6 * input.max(1.0));
        prop_assert!(map.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn severity_is_bounded_and_monotone(
        t in -20.0f64..200.0,
        m in 0.0f64..120.0,
        dt in 0.0f64..30.0,
        dm in 0.0f64..30.0,
    ) {
        let p = SeverityParams::cpu_default();
        let s = p.severity(t, m);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(p.severity(t + dt, m) >= s - 1e-12);
        prop_assert!(p.severity(t, m + dm) >= s - 1e-12);
    }

    #[test]
    fn mltd_implementations_agree(
        nx in 5usize..30,
        ny in 5usize..30,
        r_cells in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut temps = Vec::with_capacity(nx * ny);
        for _ in 0..nx * ny {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            temps.push(40.0 + (x % 6000) as f64 / 100.0);
        }
        let frame = ThermalFrame::new(nx, ny, 100e-6, temps);
        let radius = r_cells as f64 * 100e-6;
        let a = mltd_field(&frame, radius);
        let b = mltd_field_naive(&frame, radius);
        for i in 0..a.len() {
            prop_assert!((a[i] - b[i]).abs() < 1e-9, "cell {}: {} vs {}", i, a[i], b[i]);
        }
        prop_assert!(a.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn thermal_steady_state_superposition(
        seed in 0u64..1000,
        scale in 0.1f64..4.0,
    ) {
        // Linearity: T(a·P) − T_amb = a · (T(P) − T_amb).
        let stack = StackDescription::client_cpu_with_border(8, 8, 500.0, 1e-3);
        let ambient = stack.ambient_c;
        let model = ThermalModel::new(stack);
        let mut x = seed | 1;
        let p1: Vec<f64> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 100) as f64 / 1000.0
            })
            .collect();
        let p2: Vec<f64> = p1.iter().map(|v| v * scale).collect();
        let cfg = CgConfig { tolerance: 1e-11, max_iterations: 100_000 };
        let (t1, s1) = model.steady_state(&p1, &cfg);
        let (t2, s2) = model.steady_state(&p2, &cfg);
        prop_assert!(s1.converged && s2.converged);
        for (a, b) in t1.iter().zip(&t2) {
            let rise1 = a - ambient;
            let rise2 = b - ambient;
            prop_assert!((rise2 - scale * rise1).abs() < 1e-4 * rise1.abs().max(1e-3));
        }
    }

    #[test]
    fn thermal_maximum_principle(seed in 0u64..1000) {
        // With non-negative power every node sits at or above ambient, and
        // the hottest node is in the heated (active) layer.
        let stack = StackDescription::client_cpu_with_border(8, 8, 500.0, 1e-3);
        let ambient = stack.ambient_c;
        let model = ThermalModel::new(stack);
        let mut x = seed | 1;
        let p: Vec<f64> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 50) as f64 / 500.0
            })
            .collect();
        let (t, stats) = model.steady_state(&p, &CgConfig::default());
        prop_assert!(stats.converged);
        prop_assert!(t.iter().all(|&v| v >= ambient - 1e-6));
        let frame = model.die_frame_of(&t);
        let global_max = t.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((frame.max() - global_max).abs() < 1e-6);
    }

    #[test]
    fn percentile_and_box_stats_are_order_statistics(
        mut data in prop::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let b = BoxStats::of(&data);
        data.sort_by(f64::total_cmp);
        prop_assert_eq!(b.min, data[0]);
        prop_assert_eq!(b.max, *data.last().unwrap());
        prop_assert!(b.min <= b.q1 && b.q1 <= b.median);
        prop_assert!(b.median <= b.q3 && b.q3 <= b.max);
        let p50 = percentile(&data, 50.0);
        prop_assert!(p50 >= b.min && p50 <= b.max);
    }

    #[test]
    fn rms_bounds(data in prop::collection::vec(0.0f64..1.0, 1..50)) {
        let r = rms(&data);
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let max = data.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(r >= mean - 1e-12, "RMS {} below mean {}", r, mean);
        prop_assert!(r <= max + 1e-12, "RMS {} above max {}", r, max);
    }

    #[test]
    fn fused_analysis_is_bit_identical_to_references(
        nx in 8usize..40,
        ny in 8usize..40,
        r_cells in 0usize..6,
        seed in 0u64..10_000,
        base in 55.0f64..79.0,
        amp in 2.0f64..60.0,
    ) {
        // Fields straddle 80 °C whenever base + amp crosses it, so both
        // prefilter branches and partially-hot frames are exercised.
        let frame = random_frame(nx, ny, seed, base, amp);
        let radius = r_cells as f64 * 100e-6;
        let params = HotspotParams { radius_m: radius, ..HotspotParams::paper_default() };
        let sev = SeverityParams::cpu_default();
        let mut az = FrameAnalyzer::new(params, sev, 1);
        let a = az.analyze(&frame);

        // MLTD field: bitwise against both the deque reference and the
        // naive disc scan (all three take the min over the same multiset).
        let fast = mltd_field(&frame, radius);
        let naive = mltd_field_naive(&frame, radius);
        prop_assert_eq!(az.mltd(), &fast[..]);
        for (i, (f, n)) in az.mltd().iter().zip(&naive).enumerate() {
            prop_assert!(
                f.to_bits() == n.to_bits(),
                "cell {}: fused {} vs naive {}", i, f, n
            );
        }

        // Hotspots: bitwise against the candidate detector, and every fused
        // hotspot appears bit-for-bit in the all-pixel naive sweep (which is
        // a superset: it does not apply the local-maximum candidate filter).
        let reference = detect_hotspots(&frame, &params, &sev);
        prop_assert_eq!(&a.hotspots, &reference);
        let naive_spots = detect_hotspots_naive(&frame, &params, &sev);
        for h in &a.hotspots {
            prop_assert!(
                naive_spots.iter().any(|n| n.ix == h.ix
                    && n.iy == h.iy
                    && n.temp_c.to_bits() == h.temp_c.to_bits()
                    && n.mltd_c.to_bits() == h.mltd_c.to_bits()
                    && n.severity.to_bits() == h.severity.to_bits()),
                "fused hotspot at ({}, {}) missing from the naive sweep", h.ix, h.iy
            );
        }

        // Folds: bitwise against the unfused full-grid reductions.
        let max_m = fast.iter().cloned().fold(0.0f64, f64::max);
        prop_assert_eq!(a.max_mltd_c.to_bits(), max_m.to_bits());
        let ps = peak_severity(&sev, &frame.temps, &fast);
        prop_assert_eq!(a.peak_severity.to_bits(), ps.to_bits());
    }

    #[test]
    fn sharded_analysis_is_bit_identical_to_serial(
        seed in 0u64..10_000,
        threads in 2usize..5,
        base in 60.0f64..85.0,
    ) {
        // 110×96 = 10 560 cells clears the sharding floor, so an explicit
        // thread request genuinely splits the rows even on small machines.
        let frame = random_frame(110, 96, seed, base, 40.0);
        let params = HotspotParams::paper_default();
        let sev = SeverityParams::cpu_default();
        let mut serial = FrameAnalyzer::new(params, sev, 1);
        let mut sharded = FrameAnalyzer::new(params, sev, threads);
        let a = serial.analyze(&frame);
        let b = sharded.analyze(&frame);
        prop_assert_eq!(a, b);
        prop_assert_eq!(serial.mltd(), sharded.mltd());
    }

    #[test]
    fn prefilter_is_exact_for_hotspot_detection(
        nx in 8usize..30,
        ny in 8usize..30,
        r_cells in 0usize..5,
        seed in 0u64..10_000,
        base in 50.0f64..90.0,
    ) {
        let frame = random_frame(nx, ny, seed, base, 25.0);
        let frame_max = frame.temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let params = HotspotParams {
            radius_m: r_cells as f64 * 100e-6,
            ..HotspotParams::paper_default()
        };
        let sev = SeverityParams::cpu_default();
        let mut az = FrameAnalyzer::new(params, sev, 1);
        let a = az.analyze_with_max(&frame, frame_max, true);
        if a.prefiltered {
            // Skipping is only legal when Definition 1 guarantees emptiness.
            prop_assert!(frame_max <= params.t_threshold_c);
            prop_assert!(a.hotspots.is_empty());
            prop_assert!(detect_hotspots(&frame, &params, &sev).is_empty());
        } else {
            prop_assert!(frame_max > params.t_threshold_c);
            let mut full = FrameAnalyzer::new(params, sev, 1);
            prop_assert_eq!(a, full.analyze(&frame));
        }
    }
}

proptest! {
    // Run-level parity is expensive (two full co-simulations per case).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn analysis_threads_never_change_a_cosim_run(
        seed in 0u64..64,
        bench in prop::sample::select(vec!["hmmer", "povray", "gcc"]),
    ) {
        let mut serial = SimConfig::new(TechNode::N7, bench);
        serial.cell_um = 400.0;
        serial.border_mm = 1.0;
        serial.substeps = 1;
        serial.sample_instrs = 4_000;
        serial.max_time_s = 1e-3;
        serial.seed = seed;
        serial.warmup = Warmup::Cold;
        serial.analysis = AnalysisConfig { threads: 1, prefilter: true };
        let mut sharded = serial.clone();
        sharded.analysis = AnalysisConfig { threads: 2, prefilter: true };
        let a = run_sim(serial);
        let b = run_sim(sharded);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(a.tuh_s, b.tuh_s);
        prop_assert_eq!(&a.census, &b.census);
        prop_assert_eq!(&a.sev_series, &b.sev_series);
        prop_assert_eq!(&a.final_frame, &b.final_frame);
        prop_assert_eq!(a.total_instructions, b.total_instructions);
    }
}
