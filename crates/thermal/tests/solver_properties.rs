//! Property tests for the thermal solver: preconditioned CG must agree with
//! an independent dense Gaussian-elimination solve on random SPD
//! RC-network systems, and a cached workspace must not change any solve.
#![recursion_limit = "256"]

use proptest::prelude::*;

use hotgauge_thermal::solver::{solve_cg, solve_cg_with, CgConfig, CgWorkspace};
use hotgauge_thermal::sparse::{CsrMatrix, TripletBuilder};

/// Builds a random backward-Euler style system `C/Δt + G` over an RC
/// network: a chain guarantees connectivity, extra random edges add
/// fill, every node gets a grounded conductance and a capacitance term,
/// so the assembled matrix is SPD and strictly diagonally dominant.
fn rc_system(n: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Conductances in [0.05, 10.05): strictly positive, well scaled.
    fn g_of(bits: u64) -> f64 {
        0.05 + (bits % 1000) as f64 / 100.0
    }

    let mut b = TripletBuilder::new(n);
    for i in 1..n {
        b.add_conductance(i - 1, i, g_of(next()));
    }
    // Random long-range edges (roughly one per node).
    for _ in 0..n {
        let i = (next() % n as u64) as usize;
        let j = (next() % n as u64) as usize;
        if i != j {
            b.add_conductance(i.min(j), i.max(j), g_of(next()));
        }
    }
    for i in 0..n {
        b.add_grounded_conductance(i, g_of(next())); // heat path to ambient
        b.add_grounded_conductance(i, 0.2 + g_of(next())); // C/Δt lump
    }
    b.build()
}

/// The reference solve: dense Gaussian elimination with partial pivoting
/// on a densified copy of `a`.
fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.n();
    let mut m: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row = vec![0.0; n + 1];
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                row[j] += v;
            }
            row[n] = b[i];
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| m[x][col].abs().total_cmp(&m[y][col].abs()))
            .unwrap();
        m.swap(col, pivot);
        let (top, below) = m.split_at_mut(col + 1);
        let pivot_row = &top[col];
        for row in below.iter_mut() {
            let f = row[col] / pivot_row[col];
            if f != 0.0 {
                for (x, &p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= f * p;
                }
            }
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|j| m[i][j] * x[j]).sum();
        x[i] = (m[i][n] - s) / m[i][i];
    }
    x
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64 + 1)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x2545F4914F6CDD1D);
            -1.0 + (x % 2048) as f64 / 1024.0
        })
        .collect()
}

fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().max(1e-300);
    (num / den).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cg_agrees_with_dense_reference_on_random_rc_networks(
        n in 4usize..60,
        seed in 0u64..10_000,
    ) {
        let a = rc_system(n, seed);
        let b = rhs(n, seed ^ 0xABCD);

        let reference = dense_solve(&a, &b);

        let mut cg = vec![0.0; n];
        let stats = solve_cg(&a, &b, &mut cg, &CgConfig {
            tolerance: 1e-13,
            max_iterations: 10 * n + 100,
        });
        prop_assert!(stats.converged, "CG must converge on an SPD system");
        prop_assert!(
            rel_diff(&cg, &reference) < 1e-8,
            "CG disagrees with the dense reference: rel diff {} on n={n} seed={seed}",
            rel_diff(&cg, &reference)
        );
    }

    #[test]
    fn cached_workspace_matches_fresh_solves(
        n in 4usize..50,
        seed in 0u64..10_000,
        steps in 2usize..6,
    ) {
        let a = rc_system(n, seed);
        let cfg = CgConfig { tolerance: 1e-10, max_iterations: 10 * n + 100 };
        let mut ws = CgWorkspace::new(&a);

        for k in 0..steps {
            let b = rhs(n, seed.wrapping_add(k as u64));
            let mut cached = vec![0.0; n];
            let mut fresh = vec![0.0; n];
            solve_cg_with(&a, &b, &mut cached, &cfg, &mut ws);
            solve_cg(&a, &b, &mut fresh, &cfg);
            // Same matrix, same deterministic algorithm: solutions are
            // bitwise identical, not merely close.
            prop_assert_eq!(cached, fresh);
        }
    }
}
