"""End-to-end benchmark of the PROX reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload movielens-exact --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``movielens-exact``,
``movielens-sampled`` and ``ddp-exact`` run Algorithm 1 offline, one
fresh process per timed run; ``serve-mixed`` drives ``repro serve
--workers 2`` over HTTP with two closed-loop client threads.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` reports the per-layer metrics: one run with the layer
wrappers of ``tracer.py`` installed, plus an untraced run and a
``REPRO_METRICS=off`` run for the tracing and telemetry overheads.
``--smoke`` runs tiny sizes of the same workloads (the benchmark's own
tests use it).

Every run checks its output against the committed golden fingerprint of
its pooled seed (``golden/``).  The readable report goes to stdout
first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import fingerprint  # noqa: E402
import workloads  # noqa: E402

#: The gated metrics, reported for every workload (``--trace 0``).  For
#: the offline workloads the per-operation latencies are those of the
#: offline operations: a greedy step (lat_*), one ``Summarizer.run()``
#: (summarize), building the instance and problem (ingest) and rendering
#: the summary expression and groups (read).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("summarize_p50_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
)

#: Per-layer metrics of the traced run (``--trace 1``).  ``*_s`` are
#: seconds spent inside the layer's wrapped calls over the whole run.
PER_LAYER = (
    ("datasets.generate_s", "s"),
    ("equivalence.group_s", "s"),
    ("equivalence.merges", "count"),
    ("pool.candidates_s", "s"),
    ("pool.advance_s", "s"),
    ("pool.candidates", "count"),
    ("engine.measure_s", "s"),
    ("engine.advance_s", "s"),
    ("engine.candidates", "count"),
    ("engine.rescored", "count"),
    ("engine.rescored_ratio", "ratio"),
    ("engine.parallel_steps", "count"),
    ("engine.fallbacks", "count"),
    ("engine.steps.fast", "count"),
    ("engine.steps.sampled", "count"),
    ("engine.steps.naive", "count"),
    ("scorer.build_s", "s"),
    ("scorer.score_s", "s"),
    ("scorer.advance_s", "s"),
    ("kernels.calls", "count"),
    ("kernels.s", "s"),
    ("kernels.words_per_row", "words"),
    ("distance.calls", "count"),
    ("distance.s", "s"),
    ("provenance.evaluate_calls", "count"),
    ("provenance.evaluate_s", "s"),
    ("provenance.apply_mapping_s", "s"),
    ("scoring.rank_s", "s"),
    ("streaming.apply_s", "s"),
    ("session.summarize_s", "s"),
    ("session.ingest_s", "s"),
    ("session.read_s", "s"),
    ("session.conflict_ratio", "ratio"),
    ("manager.lock_wait_s", "s"),
    ("manager.restores", "count"),
    ("manager.restore_s", "s"),
    ("workers.queue_wait_s", "s"),
    ("workers.shed", "count"),
    ("front.overhead_ms", "ms"),
    ("serialization.snapshot_s", "s"),
    ("serialization.restore_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
)

#: What the traced window leaves uncovered, per workload kind.
UNCOVERED = {
    "offline": "greedy-loop glue in Summarizer._run (summary minting, "
    "mapping composition, StepRecord/telemetry, engine and distance "
    "computer construction)",
    "serve": "the HTTP front (socket accept, JSON parse and encode, handler "
    "threads) and client-side gaps between requests",
}

#: Offline: set-up-only processes per run.
SETUP_ONLY = 4
#: serve-mixed: the fewest server start-ups per run (each pass of the
#: script starts its own server; the rest start up and stop).
SERVE_SETUPS = 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def percentile(values, q: float) -> float:
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


class RunDir:
    """Scratch space inside the checkout, removed when the run ends."""

    def __init__(self) -> None:
        self.path = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
        os.makedirs(self.path, exist_ok=True)
        self.env = dict(os.environ)
        self.env["TMPDIR"] = self.path
        self.env["XDG_CACHE_HOME"] = os.path.join(self.path, "cache")

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


# -- offline workloads -------------------------------------------------------------


def offline_child(
    rundir: RunDir,
    workload: str,
    pooled: int,
    smoke: bool,
    setup_only: bool = False,
    trace_dir: Optional[str] = None,
    metrics_off: bool = False,
) -> Tuple[Optional[dict], float]:
    """Run one offline process; returns ``(record, started)``."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "offline.py"),
        "--workload", workload,
        "--instance-seed", str(pooled),
    ]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    env = dict(rundir.env)
    if metrics_off:
        env["REPRO_METRICS"] = "off"
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        log(f"offline child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return None, started
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def offline_e2e(rundir: RunDir, workload: str, seed: int, seconds: float, smoke: bool):
    """``(metrics, raw metrics, attempted, failed, notes)``.

    Timed runs cycle through the workload's whole seed pool, starting at
    ``seed``'s entry, for as many full cycles as ``seconds`` holds at the
    workload's nominal process time (at least one; a fixed count, so
    every run of one ``--seconds`` times the same instances the same
    number of times and the seed only sets their order).  Time metrics are normalized by the calibration
    samples bracketing each timing.
    """
    pool = workloads.load_golden(workload, smoke)["pool"]
    order = [pool[(seed + index) % len(pool)] for index in range(len(pool))]
    setup: List[Tuple[float, float]] = []  # (raw, normalized)
    for index in range(1 if smoke else SETUP_ONLY):
        before = calibrate.sample()
        record, started = offline_child(
            rundir, workload, order[index % len(order)], smoke, setup_only=True
        )
        if record is None:
            raise RuntimeError("set-up process failed")
        raw = record["ready"] - started
        setup.append((raw, raw * calibrate.factor(before, calibrate.sample())))
    runs: List[dict] = []
    attempted = failed = 0
    spec = workloads.offline_spec(workload, smoke)
    cycles = max(1, round(seconds / (len(order) * spec.nominal_s)))
    for _ in range(cycles):
        for pooled in order:
            attempted += 1
            before = calibrate.sample()
            record, started = offline_child(rundir, workload, pooled, smoke)
            if record is None:
                failed += 1
                continue
            raw = record["ready"] - started
            setup.append((raw, raw * calibrate.factor(before, record["cal_run"][0])))
            runs.append(record)
            if not record["fingerprint_ok"]:
                failed += 1
                log(f"fingerprint mismatch on seed {pooled}: {record['fingerprint']}")
    if not runs:
        raise RuntimeError("no offline run succeeded")

    def summary(normalize: bool) -> Dict[str, float]:
        def run_f(run):
            return calibrate.factor(*run["cal_run"]) if normalize else 1.0

        def ops_f(run):
            return calibrate.factor(*run["cal_ops"]) if normalize else 1.0

        steps = [value * run_f(run) for run in runs for value in run["step_ms"]]
        run_s = median([run["run_s"] * run_f(run) for run in runs])
        return {
            "setup_s": median([pair[1 if normalize else 0] for pair in setup]),
            "run_s": run_s,
            "peak_rss_mb": median([run["rss_mb"] for run in runs]),
            "lat_p50_ms": median(steps),
            "lat_p95_ms": percentile(steps, 95),
            "summarize_p50_ms": run_s * 1e3,
            "ingest_p50_ms": median([median(run["ingest_ms"]) * ops_f(run) for run in runs]),
            "read_p50_ms": median([median(run["read_ms"]) * ops_f(run) for run in runs]),
        }

    notes = [
        f"instance seeds {order}; {len(runs)} timed runs, {len(setup)} set-ups, "
        f"{sum(len(run['step_ms']) for run in runs)} step samples (lat_*), "
        f"kernel {runs[0]['kernel']}",
        f"scoring paths per run: {runs[0]['scoring_paths']}",
    ]
    return summary(True), summary(False), attempted, failed, notes


def offline_layers(rundir: RunDir, workload: str, pooled: int, smoke: bool):
    import tracer

    trace_dir = rundir.sub("trace")
    records = {}
    attempted = failed = 0
    for label, kwargs in (
        ("metrics_off", {"metrics_off": True}),
        ("untraced", {}),
        ("traced", {"trace_dir": trace_dir}),
    ):
        attempted += 1
        record, _ = offline_child(rundir, workload, pooled, smoke, **kwargs)
        if record is None or not record["fingerprint_ok"]:
            failed += 1
        if record is None:
            raise RuntimeError(f"{label} run failed")
        records[label] = record
    spans, counts = tracer.load(sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))))
    metrics = layer_metrics(spans, counts)
    metrics["trace.coverage_frac"] = tracer.coverage(spans, "bench.run")
    run_s = {
        label: record["run_s"] * calibrate.factor(*record["cal_run"])
        for label, record in records.items()
    }
    metrics["trace.overhead_frac"] = run_s["traced"] / run_s["untraced"] - 1.0
    metrics["telemetry.overhead_frac"] = run_s["untraced"] / run_s["metrics_off"] - 1.0
    notes = [
        f"raw run_s: traced {records['traced']['run_s']:.4f} s, untraced "
        f"{records['untraced']['run_s']:.4f} s, REPRO_METRICS=off "
        f"{records['metrics_off']['run_s']:.4f} s",
        f"uncovered by layer spans: {UNCOVERED['offline']}",
    ]
    return metrics, attempted, failed, notes, spans


# -- serve-mixed ---------------------------------------------------------------------


class Server:
    """One ``repro serve --workers N`` process tree, driven over HTTP."""

    _ADDRESS = re.compile(r"http://([0-9.]+):(\d+)")

    def __init__(self, rundir: RunDir, workers: int, trace_dir=None, metrics_off=False):
        self.rundir = rundir
        self.workers = workers
        self.trace_dir = trace_dir
        self.env = dict(rundir.env)
        if metrics_off:
            self.env["REPRO_METRICS"] = "off"
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.worker_pids: List[int] = []
        self._reader: Optional[threading.Thread] = None

    def start(self, timeout: float = 60.0) -> None:
        cmd = [sys.executable, "-u", os.path.join(HERE, "serve_launcher.py")]
        if self.trace_dir:
            cmd += ["--trace-dir", self.trace_dir]
        cmd += [
            "--",
            "--workers", str(self.workers),
            "--port", "0",
            "--snapshot-dir", self.rundir.sub("snapshots"),
            "--evict-idle", "3600",
        ]
        self.proc = subprocess.Popen(
            cmd,
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=open(os.path.join(self.rundir.path, "server.log"), "ab"),
            start_new_session=True,
        )
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server did not announce its address")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            match = self._ADDRESS.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        self._reader = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._reader.start()
        while True:
            try:
                status, payload, _ = self.request("GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                self.worker_pids = [row["pid"] for row in payload.get("workers", ())]
                return
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def request(self, method: str, path: str, body=None):
        """``(status, payload, seconds)``; payload is parsed JSON or text."""
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=170)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        elapsed = time.perf_counter() - started
        kind = response.getheader("Content-Type", "")
        payload = json.loads(raw) if kind.startswith("application/json") else raw.decode()
        return response.status, payload, elapsed

    def peak_rss_mb(self) -> float:
        """Sum of the front's and the workers' peak RSS (VmHWM)."""
        total = 0.0
        for pid in [self.proc.pid, *self.worker_pids]:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def stop(self) -> None:
        """Drain (SIGTERM) and wait until the whole tree has exited."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=10)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10
        for pid in self.worker_pids:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.proc.stdout.close()
        self.proc = None


def serve_sessions(pooled: int, smoke: bool):
    from repro.prox.workers import HashRing

    spec = workloads.serve_spec(smoke)
    owners = {HashRing(spec.workers).owner(sid) for sid in workloads.SESSION_IDS}
    if len(owners) != len(workloads.SESSION_IDS):
        raise RuntimeError("benchmark sessions hash to the same worker")
    return spec, [
        workloads.session_script(spec, pooled, index)
        for index in range(len(workloads.SESSION_IDS))
    ]


def serve_setup(server: Server, sessions) -> float:
    """Start the server, create and select both sessions; seconds taken."""
    started = time.monotonic()
    server.start()
    for body, titles, _, _ in sessions:
        create_session(server, body, titles)
    return time.monotonic() - started


def create_session(server: Server, body: dict, titles: List[str]) -> None:
    status, payload, _ = server.request("POST", "/sessions", body)
    if status != 201:
        raise RuntimeError(f"session create failed: {status} {payload}")
    sid = body["session_id"]
    status, payload, _ = server.request("POST", f"/sessions/{sid}/select", {"titles": titles})
    if status != 200:
        raise RuntimeError(f"select failed: {status} {payload}")


def serve_script(server: Server, sessions, golden) -> dict:
    """Drive both sessions' scripts concurrently (one closed-loop thread
    per session); returns per-request records and the wall time."""
    records: List[tuple] = []
    lock = threading.Lock()
    errors: List[str] = []

    def drive(body, ops, final) -> None:
        sid = body["session_id"]
        for op in list(ops) + [final]:
            start = time.perf_counter()
            try:
                status, payload, elapsed = server.request(op.method, op.path, op.body)
            except OSError as error:
                status, payload, elapsed = 0, str(error), time.perf_counter() - start
            ok = 200 <= status < 300 or (
                status == 409 and op.kind in ("read", "evict")
            )
            if ok and op is final:
                expected = golden.get(sid)
                ok = expected is not None and fingerprint.of_response(payload) == expected
                if not ok:
                    with lock:
                        errors.append(f"{sid}: final summary differs from golden")
            elif not ok:
                with lock:
                    errors.append(f"{sid} {op.method} {op.path}: {status} {payload}")
            with lock:
                records.append((op.kind, status, elapsed, start, ok))

    threads = [
        threading.Thread(target=drive, args=(body, ops, final))
        for body, _, ops, final in sessions
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    for error in errors[:10]:
        log(error)
    return {"records": records, "run_s": ended - started, "window": (started, ended)}


def serve_metrics_scrape(server: Server) -> Dict[str, float]:
    """Worker-side scoring counters from the merged ``/metrics``."""
    status, text, _ = server.request("GET", "/metrics")
    out = {"fallbacks": 0.0, "naive_steps": 0.0}
    if status != 200 or not isinstance(text, str):
        return out
    for line in text.splitlines():
        if line.startswith("prox_scoring_fallbacks_total"):
            out["fallbacks"] += float(line.rsplit(" ", 1)[1])
        elif line.startswith("prox_scoring_steps_total") and 'path="naive"' in line:
            out["naive_steps"] += float(line.rsplit(" ", 1)[1])
    return out


def serve_e2e(rundir: RunDir, pooled: int, seconds: float, smoke: bool):
    """``(metrics, raw metrics, attempted, failed, notes)``.

    The script runs in passes, each on a freshly started server, as many
    as ``seconds`` holds at the nominal pass time (at least one; a fixed
    count); ``run_s`` is the median pass.  Every start-up is a ``setup_s`` sample
    (``SERVE_SETUPS`` at least).  Time metrics are normalized by the
    calibration samples bracketing each start-up and pass.
    """
    spec, sessions = serve_sessions(pooled, smoke)
    golden = workloads.load_golden(workloads.SERVE, smoke)["fingerprints"][str(pooled)]
    setups: List[Tuple[float, float]] = []  # (raw, normalized)
    passes: List[Tuple[dict, float]] = []  # (script result, factor)
    rss: List[float] = []

    def start_server() -> Server:
        before = calibrate.sample()
        server = Server(rundir, spec.workers)
        try:
            raw = serve_setup(server, sessions)
        except BaseException:
            server.stop()
            raise
        setups.append((raw, raw * calibrate.factor(before, calibrate.sample())))
        return server

    for _ in range(0 if smoke else SERVE_SETUPS - 1):
        start_server().stop()
    for _ in range(max(1, round(seconds / spec.nominal_pass_s))):
        server = start_server()
        try:
            before = calibrate.sample()
            result = serve_script(server, sessions, golden)
            passes.append((result, calibrate.factor(before, calibrate.sample())))
            rss.append(server.peak_rss_mb())
            scraped = serve_metrics_scrape(server)
        finally:
            server.stop()
    records = [rec for result, _ in passes for rec in result["records"]]
    failed = sum(1 for rec in records if not rec[4])

    def summary(normalize: bool) -> Dict[str, float]:
        def scaled(kind=None) -> List[float]:
            return [
                rec[2] * 1e3 * (factor if normalize else 1.0)
                for result, factor in passes
                for rec in result["records"]
                if kind is None or rec[0] == kind
            ]

        latency = scaled()
        return {
            "setup_s": median([pair[1 if normalize else 0] for pair in setups]),
            "run_s": median(
                [result["run_s"] * (factor if normalize else 1.0) for result, factor in passes]
            ),
            "peak_rss_mb": median(rss),
            "lat_p50_ms": median(latency),
            "lat_p95_ms": percentile(latency, 95),
            "summarize_p50_ms": median(scaled("summarize")),
            "ingest_p50_ms": median(scaled("ingest")),
            "read_p50_ms": median(scaled("read")),
        }

    kinds: Dict[str, int] = {}
    for rec in records:
        kinds[rec[0]] = kinds.get(rec[0], 0) + 1
    run_total = sum(result["run_s"] for result, _ in passes)
    notes = [
        f"read-route seed {pooled}; {len(passes)} passes, {len(records)} requests {kinds}; "
        f"{len(setups)} set-ups; throughput {len(records) / run_total:.2f} req/s",
        f"workers' scoring: naive steps {scraped['naive_steps']:g}, "
        f"fallbacks {scraped['fallbacks']:g} (known: daemonic workers cannot "
        "fork the parallelism=auto pool, so steps with >=64 candidates run naive)",
    ]
    return summary(True), summary(False), len(records), failed, notes


def serve_layers(rundir: RunDir, pooled: int, smoke: bool):
    import tracer

    spec, sessions = serve_sessions(pooled, smoke)
    golden = workloads.load_golden(workloads.SERVE, smoke)["fingerprints"][str(pooled)]
    trace_dir = rundir.sub("trace")
    results = {}
    for label, kwargs in (
        ("metrics_off", {"metrics_off": True}),
        ("untraced", {}),
        ("traced", {"trace_dir": trace_dir}),
    ):
        server = Server(rundir, spec.workers, **kwargs)
        try:
            serve_setup(server, sessions)
            before = calibrate.sample()
            results[label] = serve_script(server, sessions, golden)
            results[label]["norm_s"] = results[label]["run_s"] * calibrate.factor(
                before, calibrate.sample()
            )
            if label == "traced":
                results["scraped"] = serve_metrics_scrape(server)
        finally:
            server.stop()
    attempted = sum(len(results[label]["records"]) for label in ("metrics_off", "untraced", "traced"))
    failed = sum(
        1
        for label in ("metrics_off", "untraced", "traced")
        for rec in results[label]["records"]
        if not rec[4]
    )
    traced = results["traced"]
    low, high = traced["window"]
    spans, counts = tracer.load(sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))))
    metrics = layer_metrics(spans, counts)
    in_window = [span for span in spans if low <= span[3] and span[4] <= high]
    window_totals = tracer.totals(in_window)
    records = traced["records"]
    reads = [rec for rec in records if rec[0] == "read"]
    client_s = sum(rec[2] for rec in records)
    metrics["session.conflict_ratio"] = (
        sum(1 for rec in reads if rec[1] == 409) / len(reads) if reads else 0.0
    )
    metrics["workers.queue_wait_s"] = window_totals.get("front.dispatch", 0.0) - window_totals.get(
        "app.dispatch", 0.0
    )
    metrics["front.overhead_ms"] = (
        (client_s - window_totals.get("app.dispatch", 0.0)) / len(records) * 1e3
    )
    front = [span for span in in_window if span[2] == "front.dispatch"]
    metrics["trace.coverage_frac"] = tracer.union(
        [(span[3], span[4]) for span in front]
    ) / (high - low)
    metrics["trace.overhead_frac"] = traced["norm_s"] / results["untraced"]["norm_s"] - 1.0
    metrics["telemetry.overhead_frac"] = (
        results["untraced"]["norm_s"] / results["metrics_off"]["norm_s"] - 1.0
    )
    scraped = results["scraped"]
    notes = [
        f"raw script run_s: traced {traced['run_s']:.4f} s, untraced "
        f"{results['untraced']['run_s']:.4f} s, REPRO_METRICS=off "
        f"{results['metrics_off']['run_s']:.4f} s",
        f"workers' /metrics: naive steps {scraped['naive_steps']:g}, fallbacks "
        f"{scraped['fallbacks']:g}",
        f"uncovered by layer spans: {UNCOVERED['serve']}",
    ]
    return metrics, attempted, failed, notes, spans


# -- per-layer metrics -----------------------------------------------------------------


def layer_metrics(spans, counts) -> Dict[str, float]:
    import tracer

    total = tracer.totals(spans)
    selfs = tracer.self_times(spans)
    kernel_s = sum((value for name, value in total.items() if name.startswith("kernels.")), 0.0)
    candidates = counts.get("engine.candidates", 0.0)
    width_calls = counts.get("kernels.width_calls", 0.0)
    metrics = {
        "datasets.generate_s": total.get("datasets.generate", 0.0),
        "equivalence.group_s": total.get("equivalence.group", 0.0),
        "pool.candidates_s": total.get("pool.candidates", 0.0),
        "pool.advance_s": total.get("pool.advance", 0.0),
        "engine.measure_s": total.get("engine.measure", 0.0)
        + total.get("engine.refresh_near", 0.0),
        "engine.advance_s": total.get("engine.advance", 0.0),
        "engine.rescored_ratio": (
            counts.get("engine.rescored", 0.0) / candidates if candidates else 0.0
        ),
        "scorer.build_s": total.get("scorer.build", 0.0),
        "scorer.score_s": total.get("scorer.score", 0.0),
        "scorer.advance_s": total.get("scorer.advance", 0.0),
        "kernels.s": kernel_s,
        "kernels.words_per_row": (
            counts.get("kernels.words", 0.0) / width_calls if width_calls else 0.0
        ),
        "distance.calls": float(sum(1 for span in spans if span[2] == "distance.compute")),
        "distance.s": total.get("distance.compute", 0.0),
        "provenance.evaluate_s": total.get("provenance.evaluate", 0.0),
        "provenance.apply_mapping_s": total.get("provenance.apply_mapping", 0.0),
        "scoring.rank_s": total.get("scoring.rank", 0.0),
        "streaming.apply_s": total.get("streaming.apply", 0.0),
        "session.summarize_s": total.get("session.summarize", 0.0),
        "session.ingest_s": total.get("session.ingest", 0.0),
        "session.read_s": total.get("session.read", 0.0),
        "manager.lock_wait_s": selfs.get("manager.acquire", 0.0),
        "manager.restore_s": total.get("manager.restore", 0.0),
        "serialization.snapshot_s": total.get("serialization.snapshot", 0.0),
        "serialization.restore_s": total.get("serialization.restore", 0.0),
        "session.conflict_ratio": 0.0,
        "workers.queue_wait_s": 0.0,
        "front.overhead_ms": 0.0,
    }
    for name in (
        "equivalence.merges",
        "pool.candidates",
        "engine.candidates",
        "engine.rescored",
        "engine.parallel_steps",
        "engine.fallbacks",
        "engine.steps.fast",
        "engine.steps.sampled",
        "engine.steps.naive",
        "kernels.calls",
        "provenance.evaluate_calls",
        "manager.restores",
        "workers.shed",
    ):
        metrics[name] = float(counts.get(name, 0.0))
    return metrics


def self_time_table(spans) -> List[str]:
    import tracer

    total = tracer.totals(spans)
    selfs = tracer.self_times(spans)
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[2]] = calls.get(span[2], 0) + 1
    lines = [f"  {'span':<28} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name in sorted(total, key=lambda key: -selfs[key]):
        lines.append(
            f"  {name:<28} {calls[name]:>8} {total[name]:>10.4f} {selfs[name]:>10.4f}"
        )
    return lines


# -- main ----------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"the program's sources are missing: {SRC}/repro not found")
        return 2
    sys.path.insert(0, SRC)

    pooled = workloads.pool_seed(args.workload, args.seed, args.smoke)
    rundir = RunDir()
    spans = None
    raw = None
    try:
        if args.workload == workloads.SERVE:
            if args.trace:
                metrics, attempted, failed, notes, spans = serve_layers(rundir, pooled, args.smoke)
            else:
                metrics, raw, attempted, failed, notes = serve_e2e(
                    rundir, pooled, args.seconds, args.smoke
                )
        elif args.trace:
            metrics, attempted, failed, notes, spans = offline_layers(
                rundir, args.workload, pooled, args.smoke
            )
        else:
            metrics, raw, attempted, failed, notes = offline_e2e(
                rundir, args.workload, args.seed, args.seconds, args.smoke
            )
    finally:
        rundir.close()

    catalogue = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace})")
    for note in notes:
        print(f"  {note}")
    if raw is not None:
        print("  times normalized to the reference speed (calibrate.py); raw in brackets")
    for name, unit in catalogue:
        suffix = f"  [{raw[name]:.6f}]" if raw is not None else ""
        print(f"  {name:<28} {metrics[name]:>14.6f} {unit}{suffix}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6f} ratio ({failed}/{attempted})")
    if spans:
        print("  layer self times (traced run):")
        for line in self_time_table(spans):
            print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in catalogue
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
