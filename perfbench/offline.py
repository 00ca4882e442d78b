"""One offline workload process: set up, run Algorithm 1 once, report.

Run by ``run.py`` as a fresh interpreter per timed run, so every run pays
what a CLI run pays (imports, kernel-backend resolution, instance
generation, problem build) and process-to-process noise is sampled
rather than hidden.  Prints one JSON object on its last stdout line.

``setup_s`` is measured by the parent: from just before it starts this
process to the ``ready`` timestamp printed here (``time.monotonic`` is
system-wide, so the two clocks agree).  Calibration samples
(``calibrate.py``) bracket the timed run and the operation batches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: The ingest (instance build) and read (summary render) operations take
#: milliseconds or less: each latency sample is the mean over a batch of
#: back-to-back operations lasting at least ``OP_BATCH_S``.
OP_SAMPLES = 10
OP_BATCH_S = 0.04


def op_samples(operation) -> list:
    """Per-operation milliseconds, one value per batch."""
    samples = []
    for _ in range(OP_SAMPLES):
        count = 0
        started = time.perf_counter()
        while True:
            operation()
            count += 1
            elapsed = time.perf_counter() - started
            if elapsed >= OP_BATCH_S:
                break
        samples.append(elapsed / count * 1e3)
    return samples


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--instance-seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (import time is part of set-up)
    from repro.core import kernels
    from repro.core.summarize import Summarizer

    import calibrate
    import fingerprint
    import workloads

    kernel = kernels.get_backend().name
    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    spec = workloads.offline_spec(args.workload, args.smoke)
    instance = workloads.build_instance(spec, args.instance_seed)
    problem = instance.problem()
    config = workloads.build_config(spec)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    cal_run = [calibrate.sample()]
    if tracer is not None:
        with tracer.span("bench.run"):
            started = time.perf_counter()
            result = Summarizer(problem, config).run()
            run_s = time.perf_counter() - started
    else:
        started = time.perf_counter()
        result = Summarizer(problem, config).run()
        run_s = time.perf_counter() - started
    cal_run.append(calibrate.sample())

    golden = workloads.load_golden(args.workload, args.smoke)["fingerprints"]
    expected = golden.get(str(args.instance_seed))
    got = fingerprint.of_result(result)

    ingest_ms: list = []
    read_ms: list = []
    cal_ops: list = []
    if tracer is None:
        cal_ops.append(calibrate.sample())
        ingest_ms = op_samples(
            lambda: workloads.build_instance(spec, args.instance_seed).problem()
        )
        read_ms = op_samples(
            lambda: (str(result.summary_expression), result.summary_groups())
        )
        cal_ops.append(calibrate.sample())
    else:
        tracer.dump(os.path.join(args.trace_dir, f"spans-offline-{os.getpid()}.json"))

    paths = {}
    for record in result.steps:
        paths[record.scoring_path] = paths.get(record.scoring_path, 0) + 1
    print(
        json.dumps(
            {
                "ready": ready,
                "run_s": run_s,
                "step_ms": [record.step_seconds * 1e3 for record in result.steps],
                "ingest_ms": ingest_ms,
                "read_ms": read_ms,
                "cal_run": cal_run,
                "cal_ops": cal_ops,
                "rss_mb": peak_rss_mb(),
                "fingerprint_ok": expected is not None and got == expected,
                "fingerprint": fingerprint.digest(got),
                "steps": len(result.steps),
                "scoring_paths": paths,
                "kernel": kernel,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
