"""Layer tracing from outside the program.

The traced run wraps the public calls of each layer -- ``datasets``,
``core.*``, ``provenance``, ``prox.*`` and ``serialization`` -- from the
benchmark's own files; nothing inside ``src/`` is instrumented.  Each
wrapper is installed where its callers resolve the name (a module
attribute, a class attribute, or a method on the kernel backend object
the scorers capture), so every call through the normal code path is
seen.

A span records its name, start, end and parent (the innermost open span
of the same thread).  A call into a layer that is already open on the
thread's stack runs unwrapped, so a layer's time is never counted twice
(``DistanceComputer.distance`` calling ``.exact``, a subclass scorer
calling its base).  Spans stay in memory and are written out once, at
the end of the process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Kernel ops whose arguments carry a row width: op -> (arg index of
#: ``n_vals``, or None when the width is the length of the first row).
_KERNEL_WIDTH = {
    "scatter_false_sets": 2,
    "fold_max": 1,
    "fold_sum": 1,
    "baseline_scatter": 1,
    "group_fold": 1,
    "fold_not": 1,
    "fold_and": None,
    "fold_or": None,
    "popcount": None,
    "popcount_blocks": None,
}
_KERNEL_OPS = tuple(_KERNEL_WIDTH) + (
    "sparse_scores",
    "weighted_moments",
    "merge_monomials",
)


class Tracer:
    """In-memory span recorder plus the counters measured at layer edges."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, name, start, end)``; parent 0 = root.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_fallbacks: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the body (always, even if reentrant)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name.split(".", 1)[0]))
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, func: Callable, after: Optional[Callable] = None):
        """``func`` recorded as span ``name`` (layer = text before the
        first dot); ``after(args, kwargs, result)`` updates counters."""
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            for _, open_layer in stack:
                if open_layer == layer:
                    return func(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, layer))
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None):
        """Replace ``owner.attr`` by its traced version; class and static
        methods keep their kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, after)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, after)))
        else:
            setattr(owner, attr, self.wrap(name, raw, after))

    def reset(self) -> None:
        """Forget everything recorded so far (a forked worker's start)."""
        self.spans.clear()
        self.counts.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer's public calls."""
        self._install_datasets()
        self._install_core()
        self._install_kernels()
        self._install_provenance()
        self._install_prox()

    def _install_datasets(self) -> None:
        datasets, ddp, movielens, session = _modules(
            "repro.datasets", "repro.datasets.ddp", "repro.datasets.movielens",
            "repro.prox.session",
        )

        for owner in (datasets, movielens, session):
            self.patch(owner, "generate_movielens", "datasets.generate")
        for owner in (datasets, ddp):
            self.patch(owner, "generate_ddp", "datasets.generate")
        for owner in (datasets, movielens):
            self.patch(owner, "generate_movielens_deltas", "datasets.generate")

    def _install_core(self) -> None:
        engine, streaming, summarize, session = _modules(
            "repro.core.engine", "repro.core.streaming", "repro.core.summarize",
            "repro.prox.session",
        )
        from repro.core.distance import DistanceComputer
        from repro.core.fast_distance import FastStepScorer, IncrementalStepScorer
        from repro.core.pool import CandidatePool
        from repro.core.sampled_scoring import SampledStepScorer

        counts = self.counts

        def merges(args, kwargs, result):
            counts["equivalence.merges"] += result[2]

        self.patch(summarize, "group_equivalent", "equivalence.group", merges)

        def pooled(args, kwargs, result):
            counts["pool.candidates"] += len(result)

        self.patch(CandidatePool, "candidates", "pool.candidates", pooled)
        self.patch(CandidatePool, "advance", "pool.advance")

        def measured(args, kwargs, result):
            engine_obj, candidates = args[0], args[1]
            counts["engine.candidates"] += len(candidates)
            counts["engine.rescored"] += engine_obj.last_rescored
            if engine_obj.last_workers > 1:
                counts["engine.parallel_steps"] += 1
            path = engine_obj.last_path
            kind = "naive" if path == "naive" else path.split("+", 1)[0]
            counts[f"engine.steps.{kind}"] += 1
            seen = self._seen_fallbacks.get(engine_obj, 0)
            counts["engine.fallbacks"] += engine_obj.fallback_count - seen
            self._seen_fallbacks[engine_obj] = engine_obj.fallback_count

        Engine = engine.ScoringEngine
        self.patch(Engine, "measure", "engine.measure", measured)
        self.patch(Engine, "measure_lazy", "engine.measure", measured)
        self.patch(Engine, "refresh_near", "engine.refresh_near")
        self.patch(Engine, "advance", "engine.advance")

        for cls in (FastStepScorer, IncrementalStepScorer, SampledStepScorer):
            self.patch(cls, "__init__", "scorer.build")
            for attr in ("score", "score_detail", "score_positions", "carried_score_fast"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, "scorer.score")
            if "advance" in cls.__dict__:
                self.patch(cls, "advance", "scorer.advance")

        for attr in ("distance", "exact", "sampled"):
            self.patch(DistanceComputer, attr, "distance.compute")

        self.patch(summarize, "score_candidates", "scoring.rank")
        self.patch(engine, "score_candidates", "scoring.rank")

        self.patch(session, "apply_delta", "streaming.apply")
        self.patch(streaming, "apply_delta", "streaming.apply")
        self.patch(streaming, "extend_valuations", "streaming.apply")

    def _install_kernels(self) -> None:
        from repro.core import kernels

        backend = kernels.get_backend()
        counts = self.counts

        def counter(op: str):
            width_arg = _KERNEL_WIDTH.get(op, "none")

            def count(args, kwargs, result):
                counts["kernels.calls"] += 1
                if width_arg == "none":
                    return
                if width_arg is None:
                    first = args[0]
                    if op.startswith("fold_"):
                        first = first[0] if len(first) else ()
                    words = len(first)
                else:
                    words = kernels.words_for(args[width_arg])
                counts["kernels.width_calls"] += 1
                counts["kernels.words"] += words

            return count

        for op in _KERNEL_OPS:
            setattr(backend, op, self.wrap(f"kernels.{op}", getattr(backend, op), counter(op)))

    def _install_provenance(self) -> None:
        from repro.provenance.ddp_expression import DDPExpression
        from repro.provenance.tensor_sum import TensorSum

        counts = self.counts

        def evaluated(args, kwargs, result):
            counts["provenance.evaluate_calls"] += 1

        for cls in (TensorSum, DDPExpression):
            self.patch(cls, "evaluate", "provenance.evaluate", evaluated)
            self.patch(cls, "apply_mapping", "provenance.apply_mapping")

    def _install_prox(self) -> None:
        serialization, manager, workers = _modules(
            "repro.serialization", "repro.prox.manager", "repro.prox.workers"
        )
        from repro.prox.app import ProxApp
        from repro.prox.session import ProxSession

        counts = self.counts
        for attr in ("summarize", "ingest"):
            self.patch(ProxSession, attr, f"session.{attr}")
        for attr in ("groups_view", "expression_view", "titles"):
            self.patch(ProxSession, attr, "session.read")

        def restored(args, kwargs, result):
            counts["manager.restores"] += 1

        self.patch(ProxSession, "restore", "manager.restore", restored)

        original_acquire = manager.SessionManager.__dict__["acquire"]
        tracer = self

        @contextlib.contextmanager
        def acquire(self_, session_id):
            with contextlib.ExitStack() as stack:
                with tracer.span("manager.acquire"):
                    session = stack.enter_context(original_acquire(self_, session_id))
                yield session

        manager.SessionManager.acquire = acquire

        self.patch(serialization, "write_session_snapshot", "serialization.snapshot")
        self.patch(serialization, "load_session_snapshot", "serialization.restore")

        def front_reply(args, kwargs, result):
            if result[0] == 429:
                counts["workers.shed"] += 1

        self.patch(workers.WorkerFront, "dispatch", "front.dispatch", front_reply)
        self.patch(ProxApp, "dispatch", "app.dispatch")

    def install_worker_dump(self, directory: str) -> None:
        """Make forked PROX workers start empty and write their spans
        to ``directory`` when they drain."""
        workers = importlib.import_module("repro.prox.workers")
        original = workers._worker_main
        tracer = self

        def worker_main(*args, **kwargs):
            tracer.reset()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.dump(os.path.join(directory, f"spans-worker-{os.getpid()}.json"))

        workers._worker_main = worker_main


def _modules(*names):
    """The named modules (``repro.core`` re-exports functions under some
    module names, so ``from repro.core import summarize`` is a function)."""
    return [importlib.import_module(name) for name in names]


# -- analysis ---------------------------------------------------------------------


def load(paths) -> Tuple[List[tuple], Dict[str, float]]:
    """Merge span dumps (span ids stay per-file: they are re-keyed)."""
    spans: List[tuple] = []
    counts: Dict[str, float] = defaultdict(float)
    for index, path in enumerate(paths):
        with open(path) as handle:
            data = json.load(handle)
        for span_id, parent, name, start, end in data["spans"]:
            spans.append(
                ((index, span_id), (index, parent) if parent else None, name, start, end)
            )
        for key, value in data["counts"].items():
            counts[key] += value
    return spans, counts


def totals(spans) -> Dict[str, float]:
    """Inclusive seconds per span name."""
    out: Dict[str, float] = defaultdict(float)
    for _, _, name, start, end in spans:
        out[name] += end - start
    return out


def union(intervals) -> float:
    """Seconds covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def self_times(spans) -> Dict[str, float]:
    """Self seconds per span name: duration minus the part of it that
    the span's children cover."""
    children: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - union(children.get(span_id, ()))
    return out


def coverage(spans, window_name: str) -> float:
    """Share of the ``window_name`` spans covered by their children."""
    windows = {span[0]: span for span in spans if span[2] == window_name}
    children: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent in windows:
            children[parent].append((start, end))
    total = sum(end - start for _, _, _, start, end in windows.values())
    covered = sum(union(children[key]) for key in windows)
    return covered / total if total > 0 else 0.0
