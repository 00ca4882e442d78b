"""Golden run fingerprints: whole summarization runs pinned to fixed truth.

Every scoring path of the engine must reproduce the committed
fingerprints in ``golden_runs.json`` bit for bit: the merge sequence,
the expression size after every step, the IEEE bit pattern
(``float.hex``) of every recorded step distance and of the final
distance, the stop reason and the engine path labels the steps report.  The carried ≡ fresh and backend ≡
backend contracts therefore rest on fixed values rather than on two
paths agreeing with each other (both could be wrong the same way).

The cases cover MovieLens under the three vector VAL-FUNCs, greedy and
beam search, exact enumeration and sampled scoring (``max_enumerate=0``),
plus one DDP and one Wikipedia greedy run -- all at the default engine
knobs -- and the two greedy configurations that select eagerly
(``scoring="ordinal"`` and ``carry="off"``).  The fingerprints hold
under every kernel backend (``REPRO_KERNEL=python|numpy|native``).

Regenerate (only when an intended output change lands) with::

    python tests/core/test_golden_runs.py --write
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

if __name__ == "__main__":  # pragma: no cover - script mode
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    )

import pytest

from repro.core import (
    AbsoluteDifference,
    BeamSummarizer,
    Disagreement,
    EuclideanDistance,
    SummarizationConfig,
    Summarizer,
)
from repro.datasets import (
    DDPConfig,
    MovieLensConfig,
    WikipediaConfig,
    generate_ddp,
    generate_movielens,
    generate_wikipedia,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_runs.json")

VAL_FUNCS = {
    "euclidean": EuclideanDistance,
    "absdiff": AbsoluteDifference,
    "disagreement": Disagreement,
}

#: Exact enumeration (the default) vs. the shared-batch sampled scorer.
SCORING_MODES = {
    "exact": {},
    "sampled": {"max_enumerate": 0},
}


def movielens(val_func: str):
    problem = generate_movielens(
        MovieLensConfig(n_users=12, n_movies=6, seed=3)
    ).problem()
    val_func_cls = VAL_FUNCS[val_func]
    return dataclasses.replace(
        problem, val_func=val_func_cls(problem.val_func.monoid)
    )


def ddp():
    return generate_ddp(
        DDPConfig(n_templates=3, executions_per_template=3, seed=1)
    ).problem()


def wikipedia():
    return generate_wikipedia(WikipediaConfig(n_users=8, n_pages=6, seed=2)).problem()


def _cases():
    """``case id → (algorithm, problem factory, config kwargs)``."""
    cases = {}
    for val_func in VAL_FUNCS:
        for algorithm in ("greedy", "beam"):
            for mode, knobs in SCORING_MODES.items():
                cases[f"movielens-{val_func}-{algorithm}-{mode}"] = (
                    algorithm,
                    lambda val_func=val_func: movielens(val_func),
                    dict(w_dist=0.7, max_steps=12, **knobs),
                )
    cases["ddp-greedy"] = ("greedy", ddp, dict(w_dist=0.5))
    cases["wikipedia-greedy"] = ("greedy", wikipedia, dict(w_dist=0.5, max_steps=8))
    cases["movielens-euclidean-greedy-ordinal"] = (
        "greedy",
        lambda: movielens("euclidean"),
        dict(w_dist=0.7, max_steps=12, scoring="ordinal"),
    )
    cases["movielens-euclidean-greedy-carry-off"] = (
        "greedy",
        lambda: movielens("euclidean"),
        dict(w_dist=0.7, max_steps=12, carry="off"),
    )
    return cases


CASES = _cases()


def run_case(case_id: str):
    algorithm, make_problem, knobs = CASES[case_id]
    config = SummarizationConfig(seed=0, **knobs)
    if algorithm == "beam":
        return BeamSummarizer(make_problem(), config, beam_width=2).run()
    return Summarizer(make_problem(), config).run()


def _hex(estimate):
    return None if estimate is None else float(estimate.value).hex()


def fingerprint(result) -> dict:
    """Everything a scoring-path change could perturb, bit-exactly."""
    return {
        "merged": [list(record.merged) for record in result.steps],
        "new_annotations": [record.new_annotation for record in result.steps],
        "sizes": [record.size_after for record in result.steps],
        "step_distances": [_hex(record.distance_after) for record in result.steps],
        "final_size": result.final_size,
        "final_distance": _hex(result.final_distance),
        "stop_reason": result.stop_reason,
        "scoring_paths": sorted({record.scoring_path for record in result.steps}),
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_run_matches_golden_fingerprint(case_id):
    expected = load_golden()[case_id]
    result = run_case(case_id)
    assert fingerprint(result) == expected
    # A run that takes no step pins nothing about candidate scoring.
    assert result.steps


def write_golden() -> None:
    golden = {case_id: fingerprint(run_case(case_id)) for case_id in sorted(CASES)}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover - script mode
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/core/test_golden_runs.py --write")
    write_golden()
