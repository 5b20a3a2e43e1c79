#!/usr/bin/env python3
"""HotGauge sweep benchmark: three workloads, end-to-end metrics with
telemetry compiled out, a per-layer traced replay, and a fresh-process
reference check of every result row.

    python3 perfbench/run.py --workload tuh_grid --seed 1 --seconds 20 --trace 0

Builds `perfbench` (this directory's crate) from source, runs the workload,
prints per-repetition digests and every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
See README.md for the workloads, the metrics and the traced run.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tuh_grid", "ic_scaling", "serve_warm")

# End-to-end metrics (trace 0) and per-layer metrics (trace 1), with units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "runs_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "match_frac": "ratio",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
}
PER_LAYER = {
    "perf.warmup_s": "s",
    "perf.window_s": "s",
    "perf.idle_s": "s",
    "perf.instrs": "count",
    "perf.ns_per_instr": "ns",
    "workloads.trace_dup_frac": "ratio",
    "power.build_s": "s",
    "power.eval_s": "s",
    "power.evals": "count",
    "floorplan.build_s": "s",
    "floorplan.rasterize_s": "s",
    "floorplan.power_map_s": "s",
    "floorplan.cells": "count",
    "thermal.build_s": "s",
    "thermal.warmup_s": "s",
    "thermal.step_s": "s",
    "thermal.extract_s": "s",
    "thermal.steps": "count",
    "thermal.cg_iters": "count",
    "thermal.cg_iters_per_step": "count",
    "thermal.direct_engaged": "ratio",
    "thermal.warmup_dup_frac": "ratio",
    "core.analysis_s": "s",
    "core.analysis.frames": "count",
    "core.analysis.cold_frame_frac": "ratio",
    "core.analysis.hotspots": "count",
    "core.sweep.construct_s": "s",
    "core.sweep.run_s": "s",
    "core.sweep.speedup": "ratio",
    "core.sweep.geom_groups": "count",
    "core.sweep.lanes_per_batch": "count",
    "store.open_s": "s",
    "store.key_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.flush_s": "s",
    "store.hit_rate": "ratio",
    "store.bytes_read": "B",
    "store.bytes_written": "B",
    "store.quarantined": "count",
    "store.service.parse_s": "s",
    "store.service.rows_s": "s",
    "store.service.rejected": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

# Set-up is milliseconds long and noisy: sample it this many times per run.
SETUP_SAMPLES = 31
# serve_warm session shape: batches of stored-row requests, a fixed share of
# which also carry requests with unseen seeds (the write path).
SERVE_BATCHES = 120
SERVE_BATCH_SIZE = 8
SERVE_WRITE_EVERY = 8
SERVE_NEW_PER_WRITE = 2
# A line the service cannot parse: its error reply marks the service ready.
PROBE_LINE = "probe"
# Every child process is bounded so a run ends within its time limit.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark crate (release, no features: telemetry out)."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise BenchError("the benchmark failed to build")
    return os.path.join(target_dir(), "release", "perfbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


class Bench:
    def __init__(self, binary):
        self.bin = binary
        # Caches (references, the seeded store) are valid for one binary;
        # those of earlier binaries are dropped.
        root = os.path.join(target_dir(), "perfbench-work")
        digest = file_digest(binary)
        if os.path.isdir(root):
            for old in os.listdir(root):
                if old != digest:
                    shutil.rmtree(os.path.join(root, old), ignore_errors=True)
        self.work = os.path.join(root, digest)
        os.makedirs(self.work, exist_ok=True)

    def call(self, *args, env=None):
        proc = subprocess.run([self.bin, *args], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=env)
        if proc.returncode != 0:
            raise BenchError(f"perfbench {args[0]} failed: {proc.stderr.strip()}")
        return proc.stdout

    def call_json(self, *args):
        return json.loads(self.call(*args).strip().splitlines()[-1])

    def cached(self, name, compute):
        path = os.path.join(self.work, name + ".json")
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
        value = compute()
        with open(path + ".tmp", "w") as f:
            json.dump(value, f)
        os.replace(path + ".tmp", path)
        return value

    def reference(self, workload, seed, jobs=None, requests=None):
        """Per-row reference: every job alone in a fresh process. Returns
        a list of {"row", "wall_s"}."""
        if requests is not None:
            calls = [("job", "--request", r) for r in requests]
            name = "ref-requests-" + hashlib.sha256("\n".join(requests).encode()).hexdigest()[:16]
        else:
            n = len(self.requests(workload, seed, jobs))
            extra = ("--jobs", str(jobs)) if jobs else ()
            calls = [("job", "--workload", workload, "--seed", str(seed), "--index", str(i), *extra)
                     for i in range(n)]
            name = f"ref-{workload}-{seed}-{jobs or 'all'}"

        def compute():
            with ThreadPoolExecutor(max_workers=nproc()) as pool:
                return list(pool.map(lambda c: self.call_json(*c), calls))
        return self.cached(name, compute)

    def requests(self, workload, seed, jobs=None):
        extra = ("--jobs", str(jobs)) if jobs else ()
        out = self.call("requests", "--workload", workload, "--seed", str(seed), *extra)
        return [line for line in out.splitlines() if line.strip()]


def rows_digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def quantile(values, q):
    """The q-th quantile (0..1), linear between order statistics."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Check:
    """Compares returned rows with the reference. A mismatch is explained
    only on a row exposed to the order-dependent idle warm-up memo (an
    idle-warm-up job sharing its warm-up key with jobs of other idle
    streams); any other mismatch makes the run incorrect."""

    def __init__(self):
        self.requested = 0
        self.returned = 0
        self.errors = 0
        self.mismatched = 0
        self.unexplained = []
        # Measured processes that crashed or exited non-zero.
        self.crashes = []

    def compare(self, rows, refs, exposed):
        matched = 0
        for i, (row, ref) in enumerate(zip(rows, refs)):
            if row == ref:
                matched += 1
                continue
            self.mismatched += 1
            if not exposed[i]:
                self.unexplained.append((i, row, ref))
        self.returned += len(rows)
        return matched

    @property
    def failed(self):
        return self.requested - self.returned + self.errors

    def correct(self):
        return self.failed == 0 and not self.unexplained and not self.crashes


def setup_sample(bench, workload, seed, jobs):
    extra = ("--jobs", str(jobs)) if jobs else ()
    t0 = time.time()
    out = bench.call_json("sweep", "--workload", workload, "--seed", str(seed), "--setup-only", *extra)
    return out["handover_unix_s"] - t0


def run_grid(bench, workload, seed, seconds, jobs, check):
    extra = ("--jobs", str(jobs)) if jobs else ()
    refs = [r["row"] for r in bench.reference(workload, seed, jobs)]
    setups = [setup_sample(bench, workload, seed, jobs) for _ in range(SETUP_SAMPLES)]
    reps = []
    started = time.monotonic()
    while not reps or time.monotonic() - started + reps[-1]["span_s"] <= seconds:
        t0 = time.time()
        t_start = time.monotonic()
        check.requested += len(refs)
        try:
            out = bench.call_json("sweep", "--workload", workload, "--seed", str(seed), *extra)
        except BenchError as e:
            # Every row of a crashed repetition is lost; the run reports it.
            check.crashes.append(str(e))
            break
        out["span_s"] = time.monotonic() - t_start
        setups.append(out["handover_unix_s"] - t0)
        matched = check.compare(out["rows"], refs, out["exposed"])
        out["match_frac"] = matched / max(1, len(out["rows"]))
        log(f"rep {len(reps) + 1}: digest {rows_digest(out['rows'])} rows {len(out['rows'])} "
            f"mismatches {len(out['rows']) - matched} (race-exposed rows {sum(out['exposed'])}) "
            f"wall_s {out['wall_s']:.3f}")
        reps.append(out)
    if not reps:
        raise BenchError(f"no repetition completed: {check.crashes[0]}")
    completions_ms = [t * 1e3 for r in reps for t in r["completions_s"]]
    med = lambda key: statistics.median(r[key] for r in reps)
    log(f"samples: {len(reps)} repetitions, {len(setups)} set-ups, {len(completions_ms)} row returns")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "runs_per_s": statistics.median(len(r["rows"]) / r["wall_s"] for r in reps),
        "peak_rss_mb": med("peak_rss_mb"),
        "match_frac": med("match_frac"),
        "batch_p50_ms": quantile(completions_ms, 0.5),
        "batch_p90_ms": quantile(completions_ms, 0.9),
    }


# --- serve_warm ------------------------------------------------------------

def serve_mix(stored, seed, batches):
    """The seeded request mix. Every batch re-requests stored rows; a fixed
    share of batches (positions drawn from the seed) also carries requests
    with unseen seeds, which the service must simulate and write. Returns
    the batches as [(request line, reference index into stored + new)] and
    the new request lines."""
    rng = random.Random(seed)
    writes = set(rng.sample(range(batches), max(1, batches // SERVE_WRITE_EVERY)))
    benchmarks = sorted({json.loads(s)["benchmark"] for s in stored})
    new = []
    mix = []
    for b in range(batches):
        n_new = SERVE_NEW_PER_WRITE if b in writes else 0
        batch = []
        for _ in range(SERVE_BATCH_SIZE - n_new):
            i = rng.randrange(len(stored))
            batch.append((stored[i], i))
        for _ in range(n_new):
            req = json.dumps({
                "benchmark": rng.choice(benchmarks),
                "core": rng.randrange(7),
                "seed": rng.randrange(1, 2**32),
                "cold": rng.random() < 0.5,
                "stop_at_first_hotspot": True,
            })
            batch.insert(rng.randrange(len(batch) + 1), (req, len(stored) + len(new)))
            new.append(req)
        mix.append(batch)
    return mix, new


def serve_exposed(stored, new):
    """Race exposure of every stored + new row. The stored rows come from
    one pooled sweep of the whole grid, and a session simulates all its new
    rows in one process: an idle-warm-up row is exposed when that process
    ran idle jobs of more than one idle stream (all rows share one
    floorplan, cell and border)."""
    def idle_streams(lines):
        reqs = [json.loads(x) for x in lines]
        return {(r.get("seed", 0), r.get("core", 0)) for r in reqs if not r.get("cold", False)}
    shared = {"stored": len(idle_streams(stored)) > 1, "new": len(idle_streams(new)) > 1}
    return [not json.loads(x).get("cold", False) and shared[kind]
            for kind, lines in (("stored", stored), ("new", new)) for x in lines]


class Serve:
    """One resident `perfbench serve` process (the `hotgauge serve` entry
    point) on the smoke preset, driven by one closed-loop client."""

    def __init__(self, bench, store):
        env = dict(os.environ, HOTGAUGE_SMOKE="1")
        self.t_spawn = time.time()
        self.proc = subprocess.Popen(
            [bench.bin, "serve", "--store", store, "--threads", str(nproc())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)

    def probe(self):
        """Seconds from spawn until the service answers its first line
        (process start, store open and index load)."""
        self.proc.stdin.write(PROBE_LINE + "\n")
        self.proc.stdin.flush()
        if not self.proc.stdout.readline():
            raise BenchError("the service exited before answering")
        return time.time() - self.t_spawn

    def batch(self, lines):
        """Sends one batch; returns (seconds to its last row, rows). The
        rows stop short if the service dies."""
        t0 = time.monotonic()
        rows = []
        try:
            self.proc.stdin.write("\n".join(lines) + "\n\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return time.monotonic() - t0, rows
        for _ in lines:
            line = self.proc.stdout.readline()
            if not line:
                break
            rows.append(json.loads(line))
        return time.monotonic() - t0, rows

    def proc_stats(self):
        """(CPU seconds, VmHWM MB) of the service process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        rss = 0.0
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    rss = int(line.split()[1]) / 1024.0
        return cpu, rss

    def close(self):
        """Ends the session and waits for the process; returns (exit code,
        its stderr summary)."""
        try:
            _, err = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except (subprocess.TimeoutExpired, BrokenPipeError):
            self.proc.kill()
            _, err = self.proc.communicate()
        return self.proc.returncode, err.strip()


def session(bench, store, batches):
    """One closed-loop session against a fresh service process. Returns the
    set-up time, per-batch latencies and rows, and process figures."""
    svc = Serve(bench, store)
    out = []
    try:
        setup = svc.probe()
        cpu0, _ = svc.proc_stats()
        t_first = time.monotonic()
        for lines in batches:
            out.append(svc.batch(lines))
            if len(out[-1][1]) < len(lines):
                break  # the service died; the rest of the session is lost
        wall = time.monotonic() - t_first
        cpu1, rss = svc.proc_stats()
    finally:
        code, summary = svc.close()
    complete = [lat for (lat, rows), lines in zip(out, batches) if len(rows) == len(lines)]
    return {"setup_s": setup, "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss,
            "latencies": complete, "rows": [rows for _, rows in out],
            "exit_code": code, "summary": summary}


def seeded_store(bench, stored):
    """The service store holding every stored row, built once per binary by
    a session that simulates the whole grid; repetitions use copies."""
    path = os.path.join(bench.work, "serve-seeded-store")
    if os.path.exists(os.path.join(path, "index.json")):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    out = session(bench, tmp, [stored])
    rows = out["rows"][0] if out["rows"] else []
    if out["exit_code"] != 0 or len(rows) != len(stored) or any(
            r.get("source") != "sim" for r in rows):
        raise BenchError("seeding the service store failed")
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


def restore(bench, seeded):
    """A copy of the seeded store: the state before every repetition."""
    path = os.path.join(bench.work, "serve-store")
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(seeded, path)
    return path


def row_fields(r):
    return [r.get("tuh_s"), r["peak_severity"], r["rms_severity"], r["total_instructions"]]


class ServeWorkload:
    """serve_warm's inputs: the stored-row pool (the tuh_grid jobs at seed
    0), the seeded mix, their references and the seeded store."""

    def __init__(self, bench, seed, batches):
        self.stored = bench.requests("tuh_grid", 0)
        self.mix, self.new = serve_mix(self.stored, seed, batches)
        ref_stored = bench.reference("tuh_grid", 0)
        self.ref_new = bench.reference(None, None, requests=self.new)
        self.refs = [r["row"] for r in ref_stored + self.ref_new]
        self.exposed = serve_exposed(self.stored, self.new)
        self.seeded = seeded_store(bench, self.stored)
        self.lines = [[line for line, _ in batch] for batch in self.mix]

    def check(self, out, check):
        """Checks one session's rows; returns its matched fraction. Batches
        after a service crash count as requested and not returned."""
        if out["exit_code"] != 0:
            check.crashes.append(f"the service exited with {out['exit_code']}: {out['summary']}")
        matched = returned = 0
        sent = out["rows"] + [[]] * (len(self.mix) - len(out["rows"]))
        for batch, rows in zip(self.mix, sent):
            check.requested += len(batch)
            ok = [(row_fields(r), i) for r, (_, i) in zip(rows, batch) if "error" not in r]
            check.errors += len(rows) - len(ok)
            matched += check.compare([f for f, _ in ok], [self.refs[i] for _, i in ok],
                                     [self.exposed[i] for _, i in ok])
            returned += len(ok)
        return matched / max(1, returned)

    def session_text(self):
        """The session as the service reads it, probe line first."""
        return PROBE_LINE + "\n" + "".join("\n".join(b) + "\n\n" for b in self.lines)


def serve_setup_sample(bench, store):
    svc = Serve(bench, store)
    try:
        return svc.probe()
    finally:
        code, summary = svc.close()
        if code != 0:
            raise BenchError(f"the service exited with {code}: {summary}")


def run_serve(bench, seed, seconds, batches, check):
    w = ServeWorkload(bench, seed, batches)
    store = restore(bench, w.seeded)
    setups = [serve_setup_sample(bench, store) for _ in range(SETUP_SAMPLES)]
    reps = []
    started = time.monotonic()
    while not reps or time.monotonic() - started + reps[-1]["span_s"] <= seconds:
        t0 = time.monotonic()
        out = session(bench, restore(bench, w.seeded), w.lines)
        out["span_s"] = time.monotonic() - t0
        setups.append(out["setup_s"])
        out["match_frac"] = w.check(out, check)
        rows = [row_fields(r) for batch in out["rows"] for r in batch if "error" not in r]
        out["n_rows"] = len(rows)
        log(f"rep {len(reps) + 1}: digest {rows_digest(rows)} rows {len(rows)} "
            f"match_frac {out['match_frac']:.4f} wall_s {out['wall_s']:.3f}; {out['summary']}")
        reps.append(out)
    lat_ms = [lat * 1e3 for r in reps for lat in r["latencies"]]
    med = lambda key: statistics.median(r[key] for r in reps)
    writes = sum(1 for b in w.mix if any(i >= len(w.stored) for _, i in b))
    log(f"samples: {len(reps)} sessions, {len(setups)} set-ups, {len(lat_ms)} complete batches "
        f"({writes} of every {len(w.mix)} carry writes)")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "runs_per_s": statistics.median(r["n_rows"] / r["wall_s"] for r in reps),
        "peak_rss_mb": med("peak_rss_mb"),
        "match_frac": med("match_frac"),
        "batch_p50_ms": quantile(lat_ms, 0.5),
        "batch_p90_ms": quantile(lat_ms, 0.9),
    }


# --- traced run --------------------------------------------------------------

def run_trace(bench, workload, seed, batches, jobs, check):
    """The traced run: the layer replay (checked against the reference),
    the program's per-run costs and the store/service replay, plus one
    untraced repetition for the executor's speed-up."""
    with tempfile.TemporaryDirectory(dir=bench.work) as tmp:
        if workload == "serve_warm":
            w = ServeWorkload(bench, seed, batches)
            refs = w.ref_new
            wall = session(bench, restore(bench, w.seeded), w.lines)["wall_s"]
            mix = os.path.join(tmp, "mix.ndjson")
            reqs = os.path.join(tmp, "requests.ndjson")
            with open(mix, "w") as f:
                f.write(w.session_text())
            with open(reqs, "w") as f:
                f.write("\n".join(w.new) + "\n")
            args = ("--mix", mix, "--requests", reqs, "--store", restore(bench, w.seeded))
        else:
            extra = ("--jobs", str(jobs)) if jobs else ()
            refs = bench.reference(workload, seed, jobs)
            wall = bench.call_json("sweep", "--workload", workload, "--seed", str(seed),
                                   *extra)["wall_s"]
            args = ("--seed", str(seed), "--store", os.path.join(tmp, "store"), *extra)
        out = bench.call_json("trace", "--workload", workload, *args)
    check.requested += len(refs)
    check.compare(out["rows"], [r["row"] for r in refs], [False] * len(refs))
    log(f"replay: digest {rows_digest(out['rows'])} rows {len(out['rows'])} "
        f"mismatches {check.mismatched} against the fresh-process reference")
    m = out["metrics"]
    m["core.sweep.speedup"] = (m["core.sweep.construct_s"] + m["core.sweep.run_s"]) / wall
    m["trace.overhead_frac"] = sum(out["job_wall_s"]) / sum(r["wall_s"] for r in refs) - 1.0
    return m


# --- host facts and main -----------------------------------------------------

def host_facts():
    def git(*args):
        try:
            p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                               timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": bool(status) if rev else None,
        "build": "release, lto=thin, codegen-units=1, features: none (telemetry compiled out)",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="a few jobs and batches per workload (for the tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    jobs = 8 if args.short else None
    batches = 12 if args.short else SERVE_BATCHES
    try:
        bench = Bench(build())
        log("host: " + json.dumps(host_facts()))
        log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        check = Check()
        if args.trace:
            metrics, units = run_trace(bench, args.workload, args.seed, batches, jobs, check), PER_LAYER
        elif args.workload == "serve_warm":
            metrics, units = run_serve(bench, args.seed, args.seconds, batches, check), END_TO_END
        else:
            metrics, units = run_grid(bench, args.workload, args.seed, args.seconds, jobs,
                                      check), END_TO_END
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        log(f"metric {name} = {metrics[name]:.6g} {unit}")
    attempted = max(1, check.requested)
    log(f"error_frac = {check.failed / attempted:.6g} ratio ({check.failed} of {attempted} rows)")
    log(f"mismatch_frac = {check.mismatched / max(1, check.returned):.6g} ratio "
        f"({check.mismatched} of {check.returned} rows differ from the fresh-process reference; "
        f"{len(check.unexplained)} not explained by the idle warm-up memo race)")
    for i, row, ref in check.unexplained[:5]:
        log(f"unexplained mismatch at row {i}: got {row}, reference {ref}")
    for crash in check.crashes:
        log(f"crash: {crash}")
    print(json.dumps({
        "correct": check.correct(),
        "attempted": attempted,
        "failed": check.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
