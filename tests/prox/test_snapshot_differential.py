"""Snapshot/restore differentials: evicted ≡ never-evicted, bit-exact.

The acceptance bar for the serving tier: a session snapshotted,
evicted and restored (zero-copy in a fresh process, replay in a warm
one) must produce *bit-identical* ``/summarize`` results to a session
that was never evicted -- same sizes, same distances, same merge
sequence -- across greedy/beam × full re-score/lazy queue × sampled
scoring paths.
Soundness rests on PR 3 (results independent of monomial-id layout)
and PR 6 (repaired ≡ from-scratch), so dropping repair state and
re-interning on restore cannot shift anything.

Plus the golden format test: arena snapshot → mmap-load → snapshot is
byte-identical, and likewise for a whole restored session.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import serialization
from repro.core.beam import BeamSummarizer
from repro.datasets import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.provenance import ir as _ir
from repro.prox import ProxSession, SessionManager
from repro.prox.summarization import SummarizationRequest

CONFIG = MovieLensConfig(n_users=10, n_movies=8, include_movie_merges=True, seed=5)

#: The scoring-path grid of the acceptance criterion.  Greedy via the
#: session API; the beam axis runs BeamSummarizer over the session's
#: own problem (build_problem).
REQUESTS = [
    pytest.param(
        SummarizationRequest(number_of_steps=4, carry="off"),
        id="greedy-baseline",
    ),
    pytest.param(
        SummarizationRequest(number_of_steps=4, carry="on", repair="off"),
        id="greedy-carry",
    ),
    pytest.param(
        SummarizationRequest(number_of_steps=4, carry="on"),
        id="greedy-carry-lazy",
    ),
    pytest.param(
        SummarizationRequest(
            number_of_steps=4, sample_sharing="on", sample_block=64
        ),
        id="greedy-sampled",
    ),
]


DELTA_CONFIG = MovieLensDeltaConfig(n_deltas=2, seed=9)


def build_session(session_id=None, n_ingested=DELTA_CONFIG.n_deltas):
    instance = generate_movielens(CONFIG)
    session = ProxSession(instance, session_id=session_id)
    session.select_by(genre=None)
    for delta in generate_movielens_deltas(instance, DELTA_CONFIG)[:n_ingested]:
        session.ingest(delta)
    return session


def fingerprint(result):
    """Everything the acceptance criterion compares, bit-exact."""
    return {
        "size": result.final_size,
        "distance": repr(result.final_distance),
        "expression": str(result.summary_expression),
        "merges": [
            (record.step, tuple(record.merged), record.label, record.size_after)
            for record in result.steps
        ],
        "stop": result.stop_reason,
    }


@pytest.mark.parametrize("request_", REQUESTS)
def test_evicted_session_summarizes_bit_identically(request_, tmp_path):
    """In-process eviction (warm store: replay path) changes nothing."""
    control = build_session()
    expected = fingerprint(control.summarize(request_, seed=13))

    manager = SessionManager(
        factory=lambda sid: build_session(sid),
        max_sessions=2,
        snapshot_dir=str(tmp_path),
    )
    try:
        subject = manager.create()
        session_id = subject.session_id
        assert manager.evict(session_id)
        with manager.acquire(session_id) as restored:
            actual = fingerprint(restored.summarize(request_, seed=13))
        assert actual == expected
    finally:
        manager.close_all()
        control.close()


def test_beam_summarizes_bit_identically_after_restore(tmp_path):
    """The beam axis: same problem, same beam trajectory after restore."""
    request_ = SummarizationRequest(number_of_steps=4, carry="on")
    control = build_session()
    baseline = BeamSummarizer(
        control.summarization.build_problem(control.selected, request_),
        request_.to_config(seed=13),
        beam_width=2,
    ).run()
    expected = fingerprint(baseline)

    path = str(tmp_path / "beam.snap")
    control.snapshot(path)
    control.close()
    restored = ProxSession.restore(path)
    try:
        result = BeamSummarizer(
            restored.summarization.build_problem(restored.selected, request_),
            request_.to_config(seed=13),
            beam_width=2,
        ).run()
        assert fingerprint(result) == expected
    finally:
        restored.close()


def _rewrite_stored_request(source, target, **extra):
    """Copy a session snapshot, adding ``extra`` keys to its stored
    summarize request (the shape older snapshots were written in)."""
    meta, names_blob, store = serialization.load_session_snapshot(str(source))
    meta["last_summarize"][0].update(extra)
    names = [name.decode() for name in names_blob.split(b"\x00")] if names_blob else None
    serialization.write_session_snapshot(
        str(target), meta, interner_names=names, store=store
    )


def test_restore_drops_removed_knobs_and_rejects_unknown_ones(tmp_path):
    """A snapshot written while ``parallelism`` / ``incremental`` /
    ``lazy`` existed restores and summarizes as if they were unset (each
    was output-neutral); any other unknown key is a typed error."""
    control = build_session()
    expected = fingerprint(
        control.summarize(SummarizationRequest(number_of_steps=4), seed=13)
    )
    current = tmp_path / "current.snap"
    control.snapshot(str(current))
    control.close()

    older = tmp_path / "older.snap"
    _rewrite_stored_request(
        current, older, parallelism=2, incremental="off", lazy="on"
    )
    restored = ProxSession.restore(str(older))
    try:
        assert fingerprint(restored._require_result()) == expected
    finally:
        restored.close()

    corrupt = tmp_path / "corrupt.snap"
    _rewrite_stored_request(current, corrupt, bogus=1)
    with pytest.raises(serialization.SerializationError, match="bogus"):
        ProxSession.restore(str(corrupt))


_CHILD_BUILD = """
import json, sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import build_session, fingerprint
from repro.prox.summarization import SummarizationRequest

session = build_session()
result = session.summarize(
    SummarizationRequest(**json.loads(sys.argv[2])), seed=13
)
session.snapshot(sys.argv[1])
print(json.dumps({{"fingerprint": fingerprint(result)}}))
"""

_CHILD_RESTORE = """
import json, sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import fingerprint
from repro.provenance import ir
from repro.prox import ProxSession

session = ProxSession.restore(sys.argv[1])
result = session._require_result()   # lazy re-summarize after rehydrate
print(json.dumps({{
    "fingerprint": fingerprint(result),
    "zero_copy": ir.GLOBAL_STORE.restored(),
}}))
"""


def _run_child(code, *argv):
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root, os.environ.get("PYTHONPATH", "")]
        ),
    )
    completed = subprocess.run(
        [sys.executable, "-c", code.format(src=root), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize(
    "request_",
    [
        pytest.param({"number_of_steps": 4, "carry": "off"}, id="baseline"),
        pytest.param(
            {"number_of_steps": 4, "carry": "on"}, id="carry-lazy"
        ),
        pytest.param(
            {"number_of_steps": 4, "sample_sharing": "on"}, id="sampled"
        ),
    ],
)
def test_cross_process_zero_copy_restore_is_bit_identical(request_, tmp_path):
    """A fresh process mmap-loads the snapshot zero-copy and recomputes
    the exact same summary the original process produced."""
    path = str(tmp_path / "session.snap")
    original = _run_child(_CHILD_BUILD, path, json.dumps(request_))
    restored = _run_child(_CHILD_RESTORE, path)
    assert restored["zero_copy"], "expected the zero-copy install path"
    assert restored["fingerprint"] == original["fingerprint"]


_CHILD_BUILD_ONE_DELTA = """
import sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import build_session

build_session(n_ingested=1).snapshot(sys.argv[1])
print('{{}}')
"""

_CHILD_REWRITE = """
import json, sys
sys.path.insert(0, {src!r})
from tests.prox.test_snapshot_differential import (
    CONFIG, DELTA_CONFIG, fingerprint,
)
from repro.datasets import generate_movielens, generate_movielens_deltas
from repro.provenance import ir
from repro.prox import ProxSession
from repro.prox.summarization import SummarizationRequest

path = sys.argv[1]
session = ProxSession.restore(path)
assert ir.GLOBAL_STORE.restored(), "expected the zero-copy install path"
session.ingest(
    generate_movielens_deltas(generate_movielens(CONFIG), DELTA_CONFIG)[1]
)
# Evict twice more: each snapshot rewrites the file the installed
# store maps, and each one re-reads that store's monomial columns.
for _ in range(2):
    session.snapshot(path)
    session.close()
    session = ProxSession.restore(path)
result = session.summarize(SummarizationRequest(**json.loads(sys.argv[2])), seed=13)
print(json.dumps({{"fingerprint": fingerprint(result)}}))
"""


def test_resnapshot_over_a_mapped_snapshot_restores_bit_identically(tmp_path):
    """Restore (zero-copy) → ingest → snapshot to the same path →
    restore → snapshot → restore → summarize, in a pristine process,
    matches a session that was never evicted.  Rewriting the snapshot
    in place used to change the bytes under the installed store, so the
    next snapshot wrote a corrupt arena and every later restore
    failed."""
    request_ = {"number_of_steps": 4, "carry": "on"}
    control = build_session()
    try:
        expected = fingerprint(
            control.summarize(SummarizationRequest(**request_), seed=13)
        )
    finally:
        control.close()
    path = str(tmp_path / "session.snap")
    _run_child(_CHILD_BUILD_ONE_DELTA, path)
    rewritten = _run_child(_CHILD_REWRITE, path, json.dumps(request_))
    assert rewritten["fingerprint"] == json.loads(json.dumps(expected))


def test_arena_snapshot_roundtrip_is_byte_identical(tmp_path):
    """Golden: snapshot → mmap-load → snapshot reproduces every byte."""
    session = build_session()
    try:
        session.summarize(SummarizationRequest(number_of_steps=3))
        blob = serialization.arena_snapshot_bytes(_ir.GLOBAL_STORE)
        path = str(tmp_path / "arena.bin")
        serialization.write_arena_snapshot(_ir.GLOBAL_STORE, path)
        with open(path, "rb") as handle:
            assert handle.read() == blob
        loaded = serialization.load_arena_snapshot(path)
        assert loaded.restored()
        assert serialization.arena_snapshot_bytes(loaded) == blob
        assert loaded.n_monomials() == _ir.GLOBAL_STORE.n_monomials()
    finally:
        session.close()


def test_session_snapshot_restore_resnapshot_is_byte_identical(tmp_path):
    """A restored-but-untouched session re-snapshots to the same bytes
    (fresh process: restore is zero-copy, so no arena drift)."""
    first = str(tmp_path / "first.snap")
    second = str(tmp_path / "second.snap")
    _run_child(_CHILD_BUILD, first, json.dumps({"number_of_steps": 3}))
    code = """
import sys
sys.path.insert(0, {src!r})
from repro.prox import ProxSession

session = ProxSession.restore(sys.argv[1])
session.snapshot(sys.argv[2])
print('{{}}')
"""
    _run_child(code, first, second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()
