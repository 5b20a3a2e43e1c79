//! The `hotgauge` CLI turns out-of-range input into an `error:` line and
//! exit code 2 before it builds any model — never a panic (exit 101) and
//! never a run that allocates a grid the machine cannot hold.

use std::process::{Command, Output};

fn hotgauge(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hotgauge"))
        .args(args)
        .output()
        .expect("the hotgauge binary runs")
}

#[test]
fn grid_beyond_the_cell_budget_exits_2() {
    for flags in [["--cell", "1e-9"], ["--cell", "5"], ["--ic-area", "1e9"]] {
        let mut args = vec!["gcc", "--ms", "1", "--quiet"];
        args.extend(flags);
        let out = hotgauge(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.starts_with("error: thermal grid of"),
            "{flags:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?}: nothing may run");
    }
}
