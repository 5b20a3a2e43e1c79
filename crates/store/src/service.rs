//! The NDJSON request/row protocol behind `hotgauge serve` and
//! `hotgauge sweep`.
//!
//! Requests arrive one JSON object per line ([`SweepRequest`]); a blank
//! line (or end of input) flushes the accumulated requests as one job
//! batch through the store-aware executor, and each completed run is
//! emitted as one [`SweepRow`] — an independently parseable,
//! schema-version-tagged JSON line. Rows are written (and the writer
//! flushed) per batch, so a downstream consumer can stream results while
//! the service keeps accepting work. Malformed request lines produce an
//! `{"schema_version":1,"error":"..."}` line and do not abort the
//! session; errors that make the *store* unusable do.

use std::io::{BufRead, Write};

use hotgauge_core::experiments::Fidelity;
use hotgauge_core::pipeline::{check_config, SimConfig};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_thermal::warmup::Warmup;
use serde::{Deserialize, Serialize};

use crate::key::ContentKey;
use crate::store::{DeltaBasis, ResultStore, StoreStats};
use crate::sweep::{run_many_keyed_with, run_many_stored_with, SweepOutcome};
use crate::StoreError;

/// Version stamped into every emitted row (and error line); bump on
/// breaking row-schema changes.
pub const ROW_SCHEMA_VERSION: u32 = 1;

/// Seconds per millisecond, for the request's `ms` horizon field.
const SECONDS_PER_MS: f64 = 1e-3;

/// The Skylake proxy floorplan has 7 cores (`target_core` ∈ 0..7).
const CORES: usize = 7;

/// One sweep request line: which run to (re)simulate or serve.
///
/// Every field except `benchmark` is optional and defaults to the
/// service's base configuration (N7, core 0, idle warmup, fidelity-preset
/// horizon).
#[derive(Debug, Clone, Default, Serialize)]
pub struct SweepRequest {
    /// Benchmark name (SPEC2006 proxy, server workload, or `"idle"`).
    pub benchmark: String,
    /// Technology node label (`"14nm"`/`"10"`/`"7nm"`/`"5"`); default 7 nm.
    pub node: Option<String>,
    /// Target core (0-based); default 0.
    pub core: Option<usize>,
    /// Workload RNG seed; default 0.
    pub seed: Option<u64>,
    /// Cold start instead of the default idle warmup.
    pub cold: Option<bool>,
    /// Simulated-time horizon in milliseconds; default from the fidelity.
    pub ms: Option<f64>,
    /// Uniform IC area factor (§V-B mitigation); default 1.0.
    pub ic_area: Option<f64>,
    /// Stop at the first hotspot (TUH studies); default false.
    pub stop_at_first_hotspot: Option<bool>,
}

/// The keys a request line may carry: the fields of [`SweepRequest`].
const REQUEST_FIELDS: [&str; 8] = [
    "benchmark",
    "node",
    "core",
    "seed",
    "cold",
    "ms",
    "ic_area",
    "stop_at_first_hotspot",
];

/// The derived parser with one addition: a key that is not a field is an
/// error naming it. The derive alone would drop it and serve the default
/// config in its place.
impl Deserialize for SweepRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        const TY: &str = "SweepRequest";
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected object for SweepRequest"))?;
        if let Some((key, _)) = map
            .iter()
            .find(|(key, _)| !REQUEST_FIELDS.contains(&key.as_str()))
        {
            return Err(serde::Error::custom(format!(
                "unknown field `{key}` (expected one of {})",
                REQUEST_FIELDS.join(", ")
            )));
        }
        Ok(SweepRequest {
            benchmark: serde::field(map, "benchmark", TY)?,
            node: serde::field(map, "node", TY)?,
            core: serde::field(map, "core", TY)?,
            seed: serde::field(map, "seed", TY)?,
            cold: serde::field(map, "cold", TY)?,
            ms: serde::field(map, "ms", TY)?,
            ic_area: serde::field(map, "ic_area", TY)?,
            stop_at_first_hotspot: serde::field(map, "stop_at_first_hotspot", TY)?,
        })
    }
}

/// One result line: a completed run's summary, tagged with its content
/// key and provenance (`"sim"` or `"store"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Row schema version ([`ROW_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// 1-based position within the batch.
    pub seq: usize,
    /// Number of rows in the batch.
    pub total: usize,
    /// Content key of the run.
    pub key: ContentKey,
    /// `"sim"` (freshly simulated) or `"store"` (served from disk).
    pub source: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Technology node label.
    pub node: String,
    /// Target core.
    pub target_core: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Time until the first hotspot, seconds (absent if none occurred).
    pub tuh_s: Option<f64>,
    /// Peak severity over the run.
    pub peak_severity: f64,
    /// RMS of the peak-severity series.
    pub rms_severity: f64,
    /// Instructions represented by the run.
    pub total_instructions: u64,
}

/// Execution knobs for [`serve`] and the batch sweep path.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Fidelity preset applied to every request's base config.
    pub fidelity: Fidelity,
    /// Sweep thread budget (`0` = hardware threads).
    pub threads: usize,
    /// Lockstep batch width for the executor.
    pub batch: usize,
}

impl ServeOptions {
    /// Options from a fidelity preset, inheriting its thread/batch knobs.
    pub fn from_fidelity(fidelity: Fidelity) -> Self {
        ServeOptions {
            threads: fidelity.threads,
            batch: fidelity.batch,
            fidelity,
        }
    }
}

/// What one [`serve`] session processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request batches executed.
    pub batches: usize,
    /// Result rows emitted (excluding error lines).
    pub rows: usize,
    /// Request lines rejected as malformed.
    pub rejected: usize,
    /// Store counters accumulated across the session.
    pub stats: StoreStats,
}

/// Builds the effective [`SimConfig`] for one request under `fid`,
/// validating every field the simulator would otherwise panic on.
pub fn request_config(req: &SweepRequest, fid: &Fidelity) -> Result<SimConfig, StoreError> {
    if hotgauge_workloads::benchmark_profile(&req.benchmark).is_none() {
        return Err(StoreError::InvalidRequest(format!(
            "unknown benchmark `{}`",
            req.benchmark
        )));
    }
    let node = match &req.node {
        None => TechNode::N7,
        Some(s) => parse_node(s).ok_or_else(|| {
            StoreError::InvalidRequest(format!("unknown node `{s}` (want 14/10/7/5[nm])"))
        })?,
    };
    let core = req.core.unwrap_or(0);
    if core >= CORES {
        return Err(StoreError::InvalidRequest(format!(
            "target core {core} out of range (floorplan has {CORES} cores)"
        )));
    }
    if let Some(ms) = req.ms {
        if !(ms.is_finite() && ms > 0.0) {
            return Err(StoreError::InvalidRequest(format!(
                "horizon ms={ms} must be a positive finite number"
            )));
        }
    }
    if let Some(f) = req.ic_area {
        if !(f.is_finite() && f >= 1.0) {
            return Err(StoreError::InvalidRequest(format!(
                "ic_area={f} must be a finite factor >= 1.0"
            )));
        }
    }
    let mut cfg = fid.apply(SimConfig::new(node, req.benchmark.clone()));
    cfg.target_core = core;
    cfg.seed = req.seed.unwrap_or(0);
    if req.cold.unwrap_or(false) {
        cfg.warmup = Warmup::Cold;
    }
    if let Some(ms) = req.ms {
        cfg.max_time_s = ms * SECONDS_PER_MS;
    }
    if let Some(f) = req.ic_area {
        cfg.ic_area_factor = f;
    }
    cfg.stop_at_first_hotspot = req.stop_at_first_hotspot.unwrap_or(false);
    // The effective config can still be out of range where the request
    // field was not, e.g. a tiny `ms` that underflows to a zero horizon.
    check_config(&cfg).map_err(|e| StoreError::InvalidRequest(e.to_string()))?;
    Ok(cfg)
}

fn parse_node(s: &str) -> Option<TechNode> {
    match s.strip_suffix("nm").unwrap_or(s) {
        "14" => Some(TechNode::N14),
        "10" => Some(TechNode::N10),
        "7" => Some(TechNode::N7),
        "5" => Some(TechNode::N5),
        _ => None,
    }
}

/// The result rows of one executed batch, in input order.
pub fn rows_for_outcome(outcome: &SweepOutcome) -> Vec<SweepRow> {
    let total = outcome.results.len();
    outcome
        .results
        .iter()
        .enumerate()
        .map(|(i, r)| SweepRow {
            schema_version: ROW_SCHEMA_VERSION,
            seq: i + 1,
            total,
            key: outcome.keys[i].clone(),
            source: outcome.sources[i].label().to_owned(),
            benchmark: r.config.benchmark.clone(),
            node: r.config.node.label().to_owned(),
            target_core: r.config.target_core,
            seed: r.config.seed,
            tuh_s: r.tuh_s,
            peak_severity: r.peak_severity(),
            rms_severity: r.rms_severity(),
            total_instructions: r.total_instructions,
        })
        .collect()
}

/// Runs one batch of requests through the executor — with the store in
/// front when one is given — and returns the outcome.
pub fn run_requests(
    requests: &[SweepRequest],
    opts: &ServeOptions,
    store: Option<&mut ResultStore>,
    delta: Option<&DeltaBasis>,
) -> Result<SweepOutcome, StoreError> {
    let mut cfgs = Vec::with_capacity(requests.len());
    for req in requests {
        cfgs.push(request_config(req, &opts.fidelity)?);
    }
    match store {
        Some(store) => run_many_stored_with(cfgs, opts.threads, opts.batch, store, delta, None),
        None => Ok(run_many_keyed_with(cfgs, opts.threads, opts.batch, None)),
    }
}

/// The resident service loop: reads request lines from `input`, executes
/// them batch-by-batch (a blank line or EOF flushes the pending batch),
/// and writes one row line per completed run to `out`.
///
/// Malformed request lines are answered with an error line and skipped;
/// store-level failures (unwritable snapshots, invalid delta basis)
/// abort the session with an error.
pub fn serve<R: BufRead, W: Write>(
    input: R,
    mut out: W,
    store: &mut ResultStore,
    opts: &ServeOptions,
    delta: Option<&DeltaBasis>,
) -> Result<ServeSummary, StoreError> {
    let mut summary = ServeSummary::default();
    let mut pending: Vec<SweepRequest> = Vec::new();
    let stdin_path = || std::path::PathBuf::from("<input>");
    let mut lines = input.lines();
    loop {
        let line = match lines.next() {
            Some(Ok(line)) => Some(line),
            Some(Err(e)) => return Err(StoreError::io(stdin_path(), e)),
            None => None,
        };
        let flush = match &line {
            Some(l) if l.trim().is_empty() => true,
            None => true,
            Some(l) => {
                match serde_json::from_str::<SweepRequest>(l) {
                    Ok(req) => pending.push(req),
                    Err(e) => {
                        summary.rejected += 1;
                        emit_error_line(&mut out, &format!("bad request: {e}"))?;
                    }
                }
                false
            }
        };
        if flush && !pending.is_empty() {
            let batch: Vec<SweepRequest> = std::mem::take(&mut pending);
            match run_requests(&batch, opts, Some(store), delta) {
                Ok(outcome) => {
                    for row in rows_for_outcome(&outcome) {
                        write_row_line(&mut out, &row)?;
                    }
                    summary.batches += 1;
                    summary.rows += outcome.results.len();
                    summary.stats.merge(outcome.stats);
                    out.flush().map_err(|e| StoreError::io(stdin_path(), e))?;
                }
                Err(StoreError::InvalidRequest(msg)) => {
                    // A bad request inside a batch rejects the batch but
                    // keeps the session alive.
                    summary.rejected += batch.len();
                    emit_error_line(&mut out, &msg)?;
                }
                Err(e) => return Err(e),
            }
        }
        if line.is_none() {
            break;
        }
    }
    out.flush().map_err(|e| StoreError::io(stdin_path(), e))?;
    Ok(summary)
}

/// Writes one row as a single compact JSON line.
pub fn write_row_line<W: Write>(out: &mut W, row: &SweepRow) -> Result<(), StoreError> {
    let text = serde_json::to_string(row)
        .map_err(|_| StoreError::Internal("a sweep row failed to serialize"))?;
    writeln!(out, "{text}").map_err(|e| StoreError::io("<output>", e))
}

fn emit_error_line<W: Write>(out: &mut W, msg: &str) -> Result<(), StoreError> {
    let line = serde::Value::Map(vec![
        (
            "schema_version".to_owned(),
            serde::Value::U64(u64::from(ROW_SCHEMA_VERSION)),
        ),
        ("error".to_owned(), serde::Value::Str(msg.to_owned())),
    ]);
    let text = serde_json::to_string(&line)
        .map_err(|_| StoreError::Internal("an error line failed to serialize"))?;
    writeln!(out, "{text}").map_err(|e| StoreError::io("<output>", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_config_applies_every_field() {
        let fid = Fidelity::fast();
        let req = SweepRequest {
            benchmark: "hmmer".to_owned(),
            node: Some("10nm".to_owned()),
            core: Some(3),
            seed: Some(42),
            cold: Some(true),
            ms: Some(0.5),
            ic_area: Some(1.5),
            stop_at_first_hotspot: Some(true),
        };
        let cfg = request_config(&req, &fid).unwrap();
        assert_eq!(cfg.node, TechNode::N10);
        assert_eq!(cfg.target_core, 3);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.warmup, Warmup::Cold);
        assert!((cfg.max_time_s - 5e-4).abs() < 1e-15);
        assert!((cfg.ic_area_factor - 1.5).abs() < 1e-15);
        assert!(cfg.stop_at_first_hotspot);
        assert_eq!(cfg.cell_um, fid.cell_um);
    }

    #[test]
    fn request_config_rejects_bad_fields() {
        let fid = Fidelity::fast();
        let mut req = SweepRequest {
            benchmark: "not-a-benchmark".to_owned(),
            ..SweepRequest::default()
        };
        assert!(request_config(&req, &fid).is_err());
        req.benchmark = "hmmer".to_owned();
        req.node = Some("3nm".to_owned());
        assert!(request_config(&req, &fid).is_err());
        req.node = None;
        req.core = Some(CORES);
        assert!(request_config(&req, &fid).is_err());
        req.core = None;
        req.ms = Some(-1.0);
        assert!(request_config(&req, &fid).is_err());
        req.ms = Some(1e-322);
        assert!(request_config(&req, &fid).is_err());
        req.ms = None;
        req.ic_area = Some(0.5);
        assert!(request_config(&req, &fid).is_err());
        // Valid on its own, but the grid would blow the cell budget.
        req.ic_area = Some(1e9);
        assert!(request_config(&req, &fid).is_err());
        req.ic_area = None;
        assert!(request_config(&req, &fid).is_ok());
    }

    #[test]
    fn oversized_grid_request_is_answered_with_an_error_row() {
        let root = std::env::temp_dir().join(format!(
            "hotgauge-service-{}-grid-budget",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = ResultStore::open(&root).unwrap();
        let opts = ServeOptions::from_fidelity(Fidelity::fast());
        let input = "{\"benchmark\":\"gcc\",\"ic_area\":1e9}\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, &mut store, &opts, None).unwrap();
        assert_eq!((summary.batches, summary.rows, summary.rejected), (0, 0, 1));
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"error\"") && text.contains("exceeds the budget"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn request_fields_are_the_sweep_request_fields() {
        let serde::Value::Map(entries) = serde_json::to_value(&SweepRequest::default()) else {
            panic!("a request serializes to a map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, REQUEST_FIELDS);
    }

    #[test]
    fn unknown_request_fields_are_answered_with_error_rows() {
        let root = std::env::temp_dir().join(format!(
            "hotgauge-service-{}-unknown-fields",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = ResultStore::open(&root).unwrap();
        let opts = ServeOptions::from_fidelity(Fidelity::smoke());
        let input = "{\"benchmark\":\"gcc\",\"cell_um\":-3}\n\
                     {\"benchmark\":\"gcc\",\"cell\":0}\n\
                     {\"benchmark\":\"gcc\",\"ms\":0.2}\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, &mut store, &opts, None).unwrap();
        assert_eq!((summary.batches, summary.rows, summary.rejected), (1, 1, 2));
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"error\"") && lines[0].contains("unknown field `cell_um`"));
        assert!(lines[1].contains("\"error\"") && lines[1].contains("unknown field `cell`"));
        let row: SweepRow = serde_json::from_str(lines[2]).unwrap();
        assert_eq!((row.benchmark.as_str(), row.seq, row.total), ("gcc", 1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn request_lines_round_trip() {
        let line = r#"{"benchmark":"hmmer","node":"7nm","seed":7}"#;
        let req: SweepRequest = serde_json::from_str(line).unwrap();
        assert_eq!(req.benchmark, "hmmer");
        assert_eq!(req.seed, Some(7));
        assert_eq!(req.core, None);
    }
}
