//! Activity traces: a workload stream's per-window core activity, simulated
//! once and read by every run of the stream.
//!
//! The interval core never reads thermal state (DVFS throttling, which
//! does, keeps its own coupled loop in [`crate::throttle`]), so the
//! `ActivityCounters` of a run's *n*-th window are a pure function of its
//! [`TraceKey`]: the workload, the stream seed, the warm-up length and the
//! instructions sampled per window. The core and memory configs are
//! constants. An [`ActivityTrace`] records those windows the first time a
//! run reads past its end, extending itself with the warmed core that
//! produced them; runs read it through a [`TraceCursor`].
//!
//! A trace holds its `CoreSim` (about 2.2 MB of cache tags) only while a
//! cursor is open on it; the last cursor to close drops it. A later read
//! past the recorded end warms a new core and replays the recorded windows
//! to reach the frontier, which is exact because the trace is
//! deterministic. The recorded windows are a few hundred bytes each and
//! live as long as their [`TraceSet`], which one construction or one sweep
//! owns (see [`crate::sweep`]); there is no process-global trace cache.
//!
//! Telemetry: `core.warmups` counts 2 M-instruction warm-ups of run
//! streams, `core.idle_warmups` the short warm-ups of idle background
//! windows, and `core.trace_windows` every window the core model simulates,
//! replays included.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hotgauge_perf::activity::ActivityCounters;
use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_telemetry::counter;
use hotgauge_workloads::benchmark_profile;
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::profile::WorkloadProfile;

use crate::pipeline::{stream_seed, ConfigError, SimConfig};

/// Core warm-up before the region of interest, as in the paper.
const CORE_WARMUP_INSTRS: u64 = 2_000_000;
/// The background cores' idle window: a short warm-up, then one sample.
const IDLE_WARMUP_INSTRS: u64 = 200_000;
const IDLE_WINDOW_INSTRS: u64 = 50_000;
/// Decorrelates the idle background stream from the run's own stream.
const IDLE_SEED_MIX: u64 = 0xDEAD_BEEF;

/// Everything an [`ActivityTrace`] is a function of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TraceKey {
    /// Workload name, resolved through [`benchmark_profile`].
    benchmark: String,
    /// Seed of the workload stream.
    seed: u64,
    /// Instructions run, uncounted, before the first window.
    warmup_instrs: u64,
    /// Instructions sampled per window.
    sample_instrs: u64,
}

impl TraceKey {
    /// The trace of a run's own workload stream: its benchmark,
    /// [`stream_seed`] and `sample_instrs`, after the core warm-up. The
    /// sweep groups jobs by this key too.
    pub(crate) fn of_run(cfg: &SimConfig) -> Self {
        Self {
            benchmark: cfg.benchmark.clone(),
            seed: stream_seed(cfg),
            warmup_instrs: CORE_WARMUP_INSTRS,
            sample_instrs: cfg.sample_instrs,
        }
    }

    /// The one-window trace of the idle task on a run's background cores,
    /// seeded from the run's stream seed.
    pub(crate) fn idle_background(cfg: &SimConfig) -> Self {
        Self {
            benchmark: "idle".to_owned(),
            seed: stream_seed(cfg) ^ IDLE_SEED_MIX,
            warmup_instrs: IDLE_WARMUP_INSTRS,
            sample_instrs: IDLE_WINDOW_INSTRS,
        }
    }
}

/// One workload stream's recorded windows, plus the warmed core that
/// extends them while anyone reads the trace.
pub(crate) struct ActivityTrace {
    key: TraceKey,
    profile: WorkloadProfile,
    state: Mutex<TraceState>,
}

#[derive(Default)]
struct TraceState {
    /// The recorded windows, in stream order.
    windows: Vec<ActivityCounters>,
    /// The core and its stream, positioned after the last recorded window.
    /// Held only while `readers > 0`.
    core: Option<(CoreSim, WorkloadGen)>,
    /// Open cursors.
    readers: usize,
}

impl ActivityTrace {
    /// A fresh core and stream, warmed up and then fast-forwarded past the
    /// `recorded` windows.
    fn warm(&self, recorded: &[ActivityCounters]) -> (CoreSim, WorkloadGen) {
        let mut gen = WorkloadGen::new(self.profile.clone(), self.key.seed);
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        core.warm_up(&mut gen, self.key.warmup_instrs);
        if self.key.warmup_instrs == CORE_WARMUP_INSTRS {
            counter!("core.warmups", 1);
        } else {
            counter!("core.idle_warmups", 1);
        }
        for want in recorded {
            let got = core.run_instructions(&mut gen, self.key.sample_instrs);
            counter!("core.trace_windows", 1);
            debug_assert_eq!(got, *want, "trace replay diverged from its recording");
        }
        (core, gen)
    }

    /// Window `i`, simulating the windows up to it if no reader has yet.
    fn window(&self, i: usize) -> ActivityCounters {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        while st.windows.len() <= i {
            let recorded = &st.windows;
            let (core, gen) = st.core.get_or_insert_with(|| self.warm(recorded));
            let w = core.run_instructions(gen, self.key.sample_instrs);
            counter!("core.trace_windows", 1);
            st.windows.push(w);
        }
        st.windows[i]
    }
}

/// A run's read position in an [`ActivityTrace`]. While open it keeps the
/// trace's core alive, so runs reading a stream side by side share one.
pub(crate) struct TraceCursor {
    trace: Arc<ActivityTrace>,
    next: usize,
}

impl TraceCursor {
    fn open(trace: Arc<ActivityTrace>, next: usize) -> Self {
        trace.state.lock().readers += 1;
        Self { trace, next }
    }

    /// The next window of the stream.
    pub(crate) fn next_window(&mut self) -> ActivityCounters {
        let w = self.trace.window(self.next);
        self.next += 1;
        w
    }

    /// Warms the trace's core now if it holds none, so the reads that
    /// follow cost only their own windows.
    pub(crate) fn warm(&self) {
        let mut guard = self.trace.state.lock();
        let st = &mut *guard;
        let recorded = &st.windows;
        st.core.get_or_insert_with(|| self.trace.warm(recorded));
    }
}

impl Clone for TraceCursor {
    fn clone(&self) -> Self {
        Self::open(Arc::clone(&self.trace), self.next)
    }
}

impl Drop for TraceCursor {
    fn drop(&mut self) {
        let mut st = self.trace.state.lock();
        st.readers -= 1;
        if st.readers == 0 {
            st.core = None;
        }
    }
}

impl std::fmt::Debug for TraceCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCursor")
            .field("key", &self.trace.key)
            .field("next", &self.next)
            .finish()
    }
}

/// The activity traces of one construction or one sweep, by key.
#[derive(Default)]
pub(crate) struct TraceSet {
    traces: Mutex<HashMap<TraceKey, Arc<ActivityTrace>>>,
}

impl TraceSet {
    /// Opens a cursor at the start of `key`'s trace, creating the trace on
    /// first use.
    pub(crate) fn open(&self, key: TraceKey) -> Result<TraceCursor, ConfigError> {
        let mut traces = self.traces.lock();
        let trace = match traces.get(&key) {
            Some(trace) => Arc::clone(trace),
            None => {
                let profile = benchmark_profile(&key.benchmark)
                    .ok_or_else(|| ConfigError::UnknownBenchmark(key.benchmark.clone()))?;
                let trace = Arc::new(ActivityTrace {
                    key: key.clone(),
                    profile,
                    state: Mutex::default(),
                });
                traces.insert(key, Arc::clone(&trace));
                trace
            }
        };
        Ok(TraceCursor::open(trace, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotgauge_floorplan::tech::TechNode;

    fn key() -> TraceKey {
        let mut cfg = SimConfig::new(TechNode::N7, "hmmer");
        cfg.sample_instrs = 4_000;
        TraceKey::of_run(&cfg)
    }

    fn holds_core(c: &TraceCursor) -> bool {
        c.trace.state.lock().core.is_some()
    }

    #[test]
    fn cursors_of_one_key_read_one_trace() {
        let set = TraceSet::default();
        let mut a = set.open(key()).unwrap();
        let mut b = set.open(key()).unwrap();
        assert!(Arc::ptr_eq(&a.trace, &b.trace));
        let wa: Vec<_> = (0..3).map(|_| a.next_window()).collect();
        let wb: Vec<_> = (0..3).map(|_| b.next_window()).collect();
        assert_eq!(wa, wb);
        assert_eq!(a.trace.state.lock().windows.len(), 3);
        let idle = set.open(TraceKey::idle_background(&SimConfig::new(
            TechNode::N7,
            "hmmer",
        )));
        assert!(!Arc::ptr_eq(&a.trace, &idle.unwrap().trace));
    }

    #[test]
    fn last_reader_drops_the_core_and_a_later_read_replays_exactly() {
        // Reference: one reader, never dropped.
        let mut whole = TraceSet::default().open(key()).unwrap();
        let want: Vec<_> = (0..5).map(|_| whole.next_window()).collect();

        let set = TraceSet::default();
        let mut short = set.open(key()).unwrap();
        short.warm();
        assert!(holds_core(&short));
        let head: Vec<_> = (0..2).map(|_| short.next_window()).collect();
        assert_eq!(head, want[..2]);
        let clone = short.clone();
        drop(short);
        assert!(holds_core(&clone), "an open clone keeps the core alive");
        drop(clone);

        // No reader left: the core is gone, the recorded windows stay.
        let mut long = set.open(key()).unwrap();
        assert!(!holds_core(&long));
        assert_eq!(long.trace.state.lock().windows.len(), 2);
        // Reading past the recorded end re-warms and fast-forwards.
        let got: Vec<_> = (0..5).map(|_| long.next_window()).collect();
        assert_eq!(got, want);
        assert!(holds_core(&long));
    }

    #[test]
    fn unknown_benchmark_is_a_config_error() {
        let mut k = key();
        k.benchmark = "nope".to_owned();
        assert_eq!(
            TraceSet::default().open(k).err(),
            Some(ConfigError::UnknownBenchmark("nope".to_owned()))
        );
    }
}
