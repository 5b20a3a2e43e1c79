//! `perfbench`: the measured processes of the HotGauge sweep benchmark.
//! `run.py` next to this crate drives them; see README.md.
//!
//! * `perfbench sweep --workload W --seed N [--jobs K] [--setup-only]` —
//!   one end-to-end repetition of a grid workload through
//!   `run_many_batched_with`, in a fresh process. Prints one JSON line.
//! * `perfbench job (--workload W --seed N --index I [--jobs K] | --request LINE)`
//!   — one job alone in a fresh process: the reference row.
//! * `perfbench trace --workload W --seed N --store DIR [--jobs K]
//!   [--mix FILE] [--requests FILE]` — the traced run: layer replay,
//!   per-run program costs, and the store/service replay.
//! * `perfbench requests --workload W --seed N [--jobs K]` — a grid's jobs
//!   as the service's request lines, one per line.
//! * `perfbench serve ...` — the resident NDJSON service, exactly as
//!   `hotgauge serve ...` runs it.

mod grids;
mod replay;
mod trace;

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use hotgauge_core::pipeline::{RunResult, SimConfig};
use hotgauge_core::{run_many_batched_with, DEFAULT_BATCH_WIDTH};

/// The summary row the benchmark checks: the fields the service emits.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub tuh_s: Option<f64>,
    pub peak_severity: f64,
    pub rms_severity: f64,
    pub total_instructions: u64,
}

impl Row {
    pub fn of(r: &RunResult) -> Self {
        Row {
            tuh_s: r.tuh_s,
            peak_severity: r.peak_severity(),
            rms_severity: r.rms_severity(),
            total_instructions: r.total_instructions,
        }
    }

    /// `[tuh_s|null, peak, rms, instructions]`; `{:?}` prints the shortest
    /// decimal that parses back to the same `f64`.
    pub fn json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_owned()
            }
        };
        format!(
            "[{},{},{},{}]",
            self.tuh_s.map_or_else(|| "null".to_owned(), num),
            num(self.peak_severity),
            num(self.rms_severity),
            self.total_instructions
        )
    }
}

pub fn rows_json(rows: &[Row]) -> String {
    let parts: Vec<String> = rows.iter().map(Row::json).collect();
    format!("[{}]", parts.join(","))
}

pub fn floats_json(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", parts.join(","))
}

/// Parsed `--flag value` arguments.
struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut out = Args {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                out.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.pairs.push((a.clone(), v.clone()));
            } else {
                return Err(format!("unexpected argument {a}"));
            }
        }
        Ok(out)
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    }

    fn req(&self, k: &str) -> Result<&str, String> {
        self.get(k).ok_or_else(|| format!("missing {k}"))
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Result<Option<T>, String> {
        self.get(k)
            .map(|v| v.parse().map_err(|_| format!("invalid {k} {v}")))
            .transpose()
    }

    fn has(&self, s: &str) -> bool {
        self.switches.iter().any(|x| x == s)
    }
}

/// Seconds since the Unix epoch: comparable with the runner's spawn time.
fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// User+system CPU seconds of this process (all threads, joined ones too).
fn cpu_seconds() -> f64 {
    /// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub(crate) fn workload_jobs(a: &Args) -> Result<(String, u64, Vec<SimConfig>), String> {
    let workload = a.req("--workload")?.to_owned();
    let seed: u64 = a.num("--seed")?.unwrap_or(0);
    let count: Option<usize> = a.num("--jobs")?;
    let jobs = grids::jobs(&workload, seed, count)
        .ok_or_else(|| format!("unknown grid workload {workload}"))?;
    Ok((workload, seed, jobs))
}

/// One end-to-end repetition: grid build (set-up), then the whole grid
/// through the executor at the host's thread budget and default width.
fn cmd_sweep(a: &Args) -> Result<(), String> {
    let (workload, _, jobs) = workload_jobs(a)?;
    let threads = grids::fidelity(&workload).threads;
    let exposed = grids::memo_exposed(&jobs);
    let handover = unix_now();
    if a.has("--setup-only") {
        println!("{{\"handover_unix_s\":{handover:?}}}");
        return Ok(());
    }
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let done = std::sync::Mutex::new(Vec::with_capacity(jobs.len()));
    let on_done = |_: hotgauge_core::pipeline::SweepProgress| {
        let at = t0.elapsed().as_secs_f64();
        done.lock().expect("completion log lock").push(at);
    };
    let results = run_many_batched_with(jobs, threads, DEFAULT_BATCH_WIDTH, Some(&on_done));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let rows: Vec<Row> = results.iter().map(Row::of).collect();
    let mut completions = done.into_inner().expect("completion log lock");
    completions.sort_by(f64::total_cmp);
    println!(
        "{{\"handover_unix_s\":{handover:?},\"wall_s\":{wall:?},\"cpu_s\":{cpu:?},\"peak_rss_mb\":{:?},\"completions_s\":{},\"exposed\":{:?},\"rows\":{}}}",
        peak_rss_mb(),
        floats_json(&completions),
        exposed,
        rows_json(&rows)
    );
    Ok(())
}

/// One job alone in this (fresh) process, through the same executor entry
/// point a sweep uses, so the executor's serial-forcing rule applies.
fn cmd_job(a: &Args) -> Result<(), String> {
    let cfg = match a.get("--request") {
        Some(line) => grids::request_job(line)?,
        None => {
            let (_, _, jobs) = workload_jobs(a)?;
            let i: usize = a.num("--index")?.ok_or("missing --index")?;
            jobs.get(i).cloned().ok_or("--index out of range")?
        }
    };
    let threads = grids::nproc();
    let t0 = Instant::now();
    let r = run_many_batched_with(vec![cfg], threads, DEFAULT_BATCH_WIDTH, None);
    let wall = t0.elapsed().as_secs_f64();
    let row = r
        .first()
        .map(Row::of)
        .ok_or("the executor returned no row")?;
    println!("{{\"row\":{},\"wall_s\":{wall:?}}}", row.json());
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        std::process::exit(hotgauge_bench::resident::run_serve(&raw[1..]));
    }
    let result = match raw.first().map(String::as_str) {
        Some("sweep") => Args::parse(&raw[1..], &["--setup-only"]).and_then(|a| cmd_sweep(&a)),
        Some("job") => Args::parse(&raw[1..], &[]).and_then(|a| cmd_job(&a)),
        Some("trace") => Args::parse(&raw[1..], &[]).and_then(|a| trace::cmd_trace(&a)),
        Some("requests") => Args::parse(&raw[1..], &[]).and_then(|a| trace::cmd_requests(&a)),
        _ => Err("usage: perfbench sweep|job|trace|serve ... (see src/main.rs)".to_owned()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
