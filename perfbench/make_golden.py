"""Build or check the committed instance-seed pools and golden fingerprints.

Check the committed fingerprints (exit 1 on any difference)::

    python3 perfbench/make_golden.py --workload ddp-exact [--smoke]

Select a new pool (only when a workload is redefined: the pool is part of
the benchmark's definition) and write the golden file::

    python3 perfbench/make_golden.py --workload ddp-exact --select 8 --candidates 40 --write

Offline selection keeps candidate seeds with the same step and valuation
counts and nearly the same work (candidates × expression size summed over
the steps), so every pooled seed asks for about the same work; their
fingerprints come from an in-process ``Summarizer`` run.
serve-mixed seeds only pick read routes (equal work); candidates whose
scripted replay (evicts included, each session in a fresh process like a
worker) fails are excluded and listed with their first error under
``excluded`` -- see README, known defects.  The fingerprint of each
session's final ``/summarize`` comes from an in-process ``ProxSession``
fed the same requests without the evicts (evicted ≡ never-evicted); every
benchmark run cross-checks it against the sharded tier.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import fingerprint  # noqa: E402
import workloads  # noqa: E402

SMOKE_POOL = (0, 1, 2)


def offline_run(workload: str, seed: int, smoke: bool):
    """``(fingerprint, seconds)`` of one in-process run."""
    from repro.core.summarize import Summarizer

    spec = workloads.offline_spec(workload, smoke)
    problem = workloads.build_instance(spec, seed).problem()
    started = time.perf_counter()
    result = Summarizer(problem, workloads.build_config(spec)).run()
    return fingerprint.of_result(result), time.perf_counter() - started


def serve_reference(seed: int, smoke: bool):
    """``{session_id: fingerprint}`` of the final summaries, in-process."""
    from repro.datasets import MovieLensConfig, generate_movielens
    from repro.prox.session import ProxSession
    from repro.prox.summarization import SummarizationRequest
    from repro.serialization import delta_from_dict

    spec = workloads.serve_spec(smoke)
    out = {}
    for index in range(len(workloads.SESSION_IDS)):
        body, titles, ops, final = workloads.session_script(spec, seed, index)
        session = ProxSession(
            generate_movielens(MovieLensConfig(**body["config"])),
            session_id=f"ref-{body['session_id']}",
        )
        session.select_titles(titles)
        result = None
        for op in list(ops) + [final]:
            if op.kind == "summarize":
                result = session.summarize(SummarizationRequest(**op.body), seed=0)
            elif op.kind == "ingest":
                session.ingest(delta_from_dict({"kind": "delta", **op.body}))
        out[body["session_id"]] = fingerprint.of_response(
            fingerprint.summarize_payload(result)
        )
        session.close()
    return out


def replay_session(seed: int, index: int, smoke: bool, order_seed=None, requests=None):
    """Replay one session's script, evicts included, through an
    in-process ``ProxApp``; returns the first error response or ``None``.

    Run it in a fresh process: like a freshly forked worker, the process
    arena is then pristine and restores take the zero-copy path.
    """
    import tempfile

    from repro.prox.app import ProxApp
    from repro.prox.manager import SessionManager

    spec = workloads.serve_spec(smoke)
    if requests is not None:
        spec = dataclasses.replace(spec, requests_per_session=requests)
    body, titles, ops, final = workloads.session_script(spec, seed, index, order_seed)
    sid = body["session_id"]
    with tempfile.TemporaryDirectory() as snapshots:
        app = ProxApp(manager=SessionManager(snapshot_dir=snapshots))
        app.dispatch("POST", "/sessions", {}, body)
        app.dispatch("POST", f"/sessions/{sid}/select", {}, {"titles": titles})
        for number, op in enumerate(list(ops) + [final]):
            status, payload, _, _ = app.dispatch(op.method, op.path, {}, op.body or {})
            if status >= 400 and status != 409:
                return f"{sid} request {number} {op.method} {op.path}: {status} {payload}"
        app.manager.close_all()
    return None


def serve_replay_error(seed: int, smoke: bool, order_seed=None, requests=None):
    """First error of either session's replay (each in a fresh process);
    ``order_seed`` and ``requests`` override the spec's order and length."""
    import subprocess

    spec = workloads.serve_spec(smoke)
    order = spec.order_seed if order_seed is None else order_seed
    length = spec.requests_per_session if requests is None else requests
    for index in range(len(workloads.SESSION_IDS)):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workloads.SERVE,
               "--replay-session", f"{seed}:{index}:{order}:{length}"]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            lines = (proc.stdout or proc.stderr).strip().splitlines()
            return lines[-1] if lines else f"replay exited {proc.returncode}"
    return None


def offline_shape(workload: str, seed: int, smoke: bool):
    """``(group, work)`` of one default run: ``group`` is (steps,
    valuations); ``work`` sums candidates × expression size over the steps."""
    from repro.core.summarize import Summarizer

    spec = workloads.offline_spec(workload, smoke)
    problem = workloads.build_instance(spec, seed).problem()
    result = Summarizer(problem, workloads.build_config(spec)).run()
    sizes = [result.original_size] + [record.size_after for record in result.steps]
    work = sum(record.n_candidates * size for record, size in zip(result.steps, sizes))
    return (len(result.steps), len(problem.valuations)), work


def fingerprint_of(workload: str, seed: int, smoke: bool):
    if workload == workloads.SERVE:
        return serve_reference(seed, smoke)
    return offline_run(workload, seed, smoke)[0]


def select_pool(workload: str, size: int, candidates: int, smoke: bool):
    """``(pool, fingerprints, shapes, excluded)`` from ``range(candidates)``.

    Offline: among the seeds sharing the most common (steps, valuations)
    pair, the ``size`` whose work (candidates × expression size summed
    over the steps) is nearest that group's median -- a deterministic
    match, unlike run times on this box.  serve-mixed: the first ``size``
    seeds whose replay succeeds; failing ones are excluded with their
    first error (see README, known defects).
    """
    seeds = list(range(candidates))
    shapes: dict = {}
    excluded: dict = {}
    if workload == workloads.SERVE:
        for seed in seeds:
            error = serve_replay_error(seed, smoke)
            if error is not None:
                excluded[seed] = error
        pool = [seed for seed in seeds if seed not in excluded][:size]
    else:
        shapes = {seed: offline_shape(workload, seed, smoke) for seed in seeds}
        groups: dict = {}
        for seed, (group, _) in shapes.items():
            groups.setdefault(group, []).append(seed)
        members = max(groups.values(), key=len)
        center = statistics.median(shapes[seed][1] for seed in members)
        pool = sorted(sorted(members, key=lambda seed: abs(shapes[seed][1] - center))[:size])
    prints = {seed: fingerprint_of(workload, seed, smoke) for seed in pool}
    return pool, prints, shapes, excluded


def write(path, workload, pool, prints, shapes, excluded=None) -> None:
    data = {
        "workload": workload,
        "pool": pool,
        "fingerprints": {str(seed): prints[seed] for seed in pool},
    }
    if excluded:
        data["excluded"] = {str(seed): error for seed, error in excluded.items()}
    if shapes:
        data["shapes"] = {
            str(seed): {"steps": shapes[seed][0][0], "valuations": shapes[seed][0][1],
                        "work": shapes[seed][1]}
            for seed in pool
        }
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--select", type=int, default=0, metavar="K")
    parser.add_argument("--candidates", type=int, default=40)
    parser.add_argument("--write", action="store_true")
    parser.add_argument(
        "--replay-session", metavar="SEED:INDEX:ORDER:REQUESTS", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.replay_session:
        seed, index, order, length = map(int, args.replay_session.split(":"))
        error = replay_session(seed, index, args.smoke, order, length)
        print(error or "ok")
        return 1 if error else 0
    path = workloads.golden_path(args.workload, args.smoke)

    if args.select:
        pool, prints, shapes, excluded = select_pool(
            args.workload, args.select, args.candidates, args.smoke
        )
        for seed in pool:
            print(seed, shapes.get(seed, ""))
    elif args.write and args.smoke:
        pool = list(SMOKE_POOL)
        prints = {seed: fingerprint_of(args.workload, seed, True) for seed in pool}
        shapes, excluded = {}, {}
    else:
        golden = workloads.load_golden(args.workload, args.smoke)
        bad = [
            seed
            for seed in golden["pool"]
            if fingerprint_of(args.workload, seed, args.smoke)
            != golden["fingerprints"][str(seed)]
        ]
        print(f"{args.workload}: {len(golden['pool']) - len(bad)}/{len(golden['pool'])} "
              f"fingerprints match" + (f"; differ: {bad}" if bad else ""))
        return 1 if bad else 0
    if args.write:
        write(path, args.workload, pool, prints, shapes, excluded)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
