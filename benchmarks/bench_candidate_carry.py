#!/usr/bin/env python
"""Cross-step candidate carry vs. the seed per-step rebuild loop.

Runs the same greedy summarization (MovieLens-style provenance) under
the two Algorithm-1 loop configurations:

* ``seed`` -- ``carry=off``: fresh ``enumerate_candidates`` + full
  re-score every step (the pre-carry behavior);
* ``lazy`` -- ``carry=on`` (the default): the :class:`~repro.core.pool
  .CandidatePool` maintains the candidate list across steps and the
  winner is selected through the lazy-greedy priority queue,
  re-scoring only popped queue heads (sound by Prop 4.2.2
  monotonicity).

Both modes must produce the identical merge sequence (asserted).  The
table reports steps/second and the fraction of candidates freshly
re-scored per step after the first (the carried fraction is its
complement); the JSON mirror lands in
``benchmarks/results/candidate_carry.json`` (uploaded as a CI
artifact).  The headline acceptance number is the lazy mode's
re-score reduction: candidates scored per step after the first must
drop by at least 3x vs. the seed loop.

``--quick`` runs a small instance (CI smoke): it exercises every mode,
asserts equivalence and a nonzero carried fraction, and skips the
reduction expectation.  ``--seed`` varies the generated instance (and
the summarizer RNG).

Usage::

    PYTHONPATH=src python benchmarks/bench_candidate_carry.py [--quick]
        [--seed N] [--users N] [--movies N] [--steps N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import SummarizationConfig, Summarizer  # noqa: E402
from repro.datasets import MovieLensConfig, generate_movielens  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "candidate_carry.txt"
RESULTS_JSON_PATH = Path(__file__).parent / "results" / "candidate_carry.json"


def build_problem(n_users: int, n_movies: int, seed: int = 0):
    """MovieLens-style provenance with many small groups.

    Few ratings per user over many movies keeps each merge's affected
    neighborhood small relative to the candidate set -- the regime the
    candidate carry targets (a dense instance re-scores almost
    everything and honestly reports so).
    """
    return generate_movielens(
        MovieLensConfig(
            n_users=n_users,
            n_movies=n_movies,
            min_ratings_per_user=3,
            max_ratings_per_user=5,
            seed=seed,
        )
    ).problem()


def run_mode(n_users, n_movies, steps, seed=0, **knobs):
    problem = build_problem(n_users, n_movies, seed=seed)
    config = SummarizationConfig(w_dist=0.7, max_steps=steps, seed=seed, **knobs)
    started = time.perf_counter()
    result = Summarizer(problem, config).run()
    elapsed = time.perf_counter() - started
    return result, elapsed


def tail_counts(result):
    """(rescored, total) candidates over the steps after the first --
    the first step always measures everything in every mode."""
    tail = result.steps[1:]
    rescored = sum(
        r.n_rescored if r.n_rescored >= 0 else r.n_candidates for r in tail
    )
    total = sum(r.n_candidates for r in tail)
    return rescored, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: small instance")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="instance-generation and summarizer RNG seed",
    )
    parser.add_argument("--users", type=int, default=48)
    parser.add_argument("--movies", type=int, default=60)
    parser.add_argument("--steps", type=int, default=8)
    args = parser.parse_args(argv)

    if args.quick:
        n_users, n_movies, steps = 16, 20, 3
    else:
        n_users, n_movies, steps = args.users, args.movies, args.steps

    modes = [
        ("seed", dict(carry="off")),
        ("lazy", dict(carry="on")),
    ]

    rows = []
    reference = None
    for label, knobs in modes:
        result, elapsed = run_mode(n_users, n_movies, steps, seed=args.seed, **knobs)
        merges = [record.merged for record in result.steps]
        if reference is None:
            reference = merges
        elif merges != reference:
            print(f"FAIL: mode {label!r} diverged from the seed merge sequence")
            return 1
        rescored, total = tail_counts(result)
        rows.append(
            {
                "mode": label,
                "seconds": elapsed,
                "steps_per_second": result.n_steps / elapsed if elapsed else None,
                "steps": result.n_steps,
                "tail_rescored": rescored,
                "tail_total": total,
                "rescored_fraction": rescored / total if total else None,
            }
        )

    base = rows[0]
    lines = [
        f"instance: movielens n_users={n_users} n_movies={n_movies} "
        f"steps={steps} seed={args.seed} cores={os.cpu_count()}",
        "",
        f"{'mode':<8} {'seconds':>9} {'steps/s':>9} {'rescored/step>1':>17} "
        f"{'reduction':>10}",
    ]
    for row in rows:
        reduction = (
            base["tail_rescored"] / row["tail_rescored"]
            if row["tail_rescored"]
            else float("inf")
        )
        row["rescore_reduction_vs_seed"] = (
            None if reduction == float("inf") else reduction
        )
        lines.append(
            f"{row['mode']:<8} {row['seconds']:>9.3f} "
            f"{row['steps_per_second']:>9.2f} "
            f"{row['tail_rescored']:>8}/{row['tail_total']:<8} "
            f"{reduction:>9.2f}x"
        )
    lines.append("")
    lines.append("all modes produced the identical merge sequence")
    body = "\n".join(lines)
    print(body)

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(body + "\n")
    print(f"\nwritten to {RESULTS_PATH}")

    payload = {
        "benchmark": "candidate_carry",
        "quick": args.quick,
        "instance": {
            "dataset": "movielens",
            "n_users": n_users,
            "n_movies": n_movies,
            "steps": steps,
            "seed": args.seed,
            "cores": os.cpu_count(),
        },
        "modes": rows,
        "identical_merge_sequence": True,
    }
    RESULTS_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {RESULTS_JSON_PATH}")

    lazy = rows[-1]
    carried_fraction = 1.0 - (lazy["rescored_fraction"] or 1.0)
    if carried_fraction <= 0.0:
        print("FAIL: the lazy carry never carried a candidate measurement")
        return 1
    if not args.quick:
        reduction = lazy["rescore_reduction_vs_seed"] or float("inf")
        if reduction < 3.0:
            print(
                f"FAIL: lazy re-score reduction {reduction:.2f}x < 3x acceptance "
                "target"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
