"""Smoke tests of the end-to-end benchmark (tiny sizes of all workloads).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fingerprint  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_every_metric_and_matches_fingerprints(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "4", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {name: spec["unit"] for name, spec in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        assert all(spec["value"] > 0 for spec in result["metrics"].values())


def test_catalogue_matches_benchmark_json():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ddp-exact", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pooled_seed_has_a_golden_fingerprint(workload):
    for smoke in (False, True):
        golden = workloads.load_golden(workload, smoke)
        assert golden["pool"]
        assert {str(seed) for seed in golden["pool"]} == set(golden["fingerprints"])


#: A serve-mixed request order and script length (requests per session)
#: that hit the known restore defect.
DEFECT_ORDER = 3
DEFECT_REQUESTS = 100


@pytest.mark.xfail(
    strict=True,
    reason="known defect: after a restore, an ingest and further "
    "evict/restore cycles, a restore fails with 'arena snapshot must start "
    "with the empty monomial' and the session answers 400 from then on",
)
def test_serve_script_survives_every_evict_order():
    import make_golden

    assert (
        make_golden.serve_replay_error(
            0, False, order_seed=DEFECT_ORDER, requests=DEFECT_REQUESTS
        )
        is None
    )


def test_response_fingerprint_renumbers_minted_names():
    def payload(first, second):
        return {
            "steps_detail": [
                {"merged": ["UID1", "UID2"], "distance_after": 0.25},
                {"merged": [first, "UID3"], "distance_after": 0.5},
                {"merged": [second, "a~f00"], "distance_after": 0.5},
            ],
            "size": 7,
            "distance": 0.5,
        }

    early = fingerprint.of_response(payload("Gender=F#3", "Age#4"))
    late = fingerprint.of_response(payload("Gender=F#41", "Age#42"))
    assert early == late
    assert early["steps"][2][0] == "Age#2|a~f00"
    assert early["final_distance"] == fingerprint.float_bits(0.5) == "3fe0000000000000"
    # The same minted summary merged again keeps its first number.
    assert fingerprint.of_response(payload("Gender=F#3", "Gender=F#3")) != early


def test_self_time_and_coverage():
    # (id, parent, name, start, end): a 10 s window with two children
    # overlapping on [2, 3] and a grandchild inside the first child.
    spans = [
        (1, None, "bench.run", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "b", 2.0, 5.0),
        (4, 2, "c", 1.5, 2.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs["bench.run"] == pytest.approx(6.0)
    assert selfs["a"] == pytest.approx(1.0)
    assert tracer.coverage(spans, "bench.run") == pytest.approx(0.4)


def test_reentrant_layer_calls_record_one_span():
    recorder = tracer.Tracer()

    def inner(x):
        return x + 1

    traced_inner = recorder.wrap("distance.inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = recorder.wrap("distance.outer", outer)
    assert traced_outer(1) == 4
    assert [span[2] for span in recorder.spans] == ["distance.outer"]
