"""The candidate scoring engine: incremental scorers + lazy-greedy selection.

One Algorithm-1 step measures every candidate merge's size and
distance -- the dominant cost of the whole algorithm.  The
:class:`ScoringEngine` owns that measurement and picks, per step, the
cheapest scorer that preserves the reference semantics:

* **fast + incremental** -- an
  :class:`~repro.core.fast_distance.IncrementalStepScorer` carried
  across steps (:meth:`ScoringEngine.advance` invalidates only the
  merged neighborhood) with sparse per-candidate metrics, when the
  class is small enough to enumerate;
* **sampled + incremental** -- the
  :class:`~repro.core.sampled_scoring.SampledStepScorer` when the
  class is too large to enumerate: the same bitmask kernel over one
  shared Monte-Carlo batch (common random numbers), carried across
  steps with its batch pinned so the lazy queue stays sound;
* **naive** -- the reference :class:`~repro.core.distance
  .DistanceComputer` applied to each materialized candidate expression
  (for large classes this is the per-candidate reference sampler --
  also the fallback when ``sample_sharing`` is off or the kernel's
  preconditions fail).

Scoring runs in-process and serially: the lazy-greedy queue re-scores
only a handful of queue heads per step, which left no workload where
sharding the candidate list across forked workers paid for the fork.

Robustness contract: if any fast path raises mid-run -- a latent
applicability gap, a broken scorer -- the engine rescores the *entire*
step through the naive path rather than crashing or returning a
partial candidate list.  ``path_counts`` records which path every step
actually took.

Selection has exactly two modes (``SummarizationConfig.lazy_selection``):

* **lazy** (:meth:`ScoringEngine.measure_lazy`) whenever
  ``scoring="normalized"`` and ``carry`` is not off: candidates sit in
  a lazy-greedy priority queue of carried measurements.  Stale distance
  scores are lower bounds by Prop 4.2.2 monotonicity, so only popped
  queue heads are re-scored until the head is fresh.
* **full re-score** (:meth:`ScoringEngine.measure`) otherwise -- ordinal
  scoring (ranks compare raw floats for exact ties), ``carry="off"``
  and beam search: every candidate is scored every step.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..observability import metrics as _metrics
from ..observability import tracing as _tracing
from ..provenance.annotations import Annotation, AnnotationUniverse
from .candidates import Candidate, virtual_summary
from .distance import DistanceComputer
from .fast_distance import FastStepScorer, IncrementalStepScorer
from .mapping import MappingState
from .sampled_scoring import SampledStepScorer
from .scoring import ScoredCandidate, score_candidates
from . import kernels as _kernels

_SCORING_STEPS = _metrics.counter(
    "prox_scoring_steps_total",
    "Candidate-scoring steps measured, by engine path.",
    labelnames=("path",),
)
_SCORING_SECONDS = _metrics.histogram(
    "prox_scoring_seconds",
    "Pure candidate-scoring wall-clock seconds per step.",
)
_SCORING_CANDIDATES = _metrics.counter(
    "prox_scoring_candidates_total",
    "Candidates measured across all scoring steps.",
)
_SCORING_FALLBACKS = _metrics.counter(
    "prox_scoring_fallbacks_total",
    "Fast-path failures rescored through the naive path.",
)
_SCORING_CARRIED = _metrics.counter(
    "prox_scoring_candidates_carried_total",
    "Candidates whose measurement was carried across a step "
    "(served stale from the lazy queue).",
)
_SCORING_RESCORED = _metrics.counter(
    "prox_scoring_candidates_rescored_total",
    "Candidates freshly re-scored (every candidate of a full "
    "re-score; new or popped stale heads of the lazy queue).",
)
_SCORING_SAMPLED_FAST = _metrics.counter(
    "prox_scoring_sampled_fast_total",
    "Scoring steps served by the bit-packed sampled (shared "
    "Monte-Carlo batch) kernel.",
)
_SAMPLE_BATCH_REUSE = _metrics.counter(
    "prox_scoring_sample_batch_reuse_total",
    "Sampled steps that reused the carried scorer's valuation batch "
    "instead of redrawing it.",
)


#: Float-association dust bound between a repair-seeded measurement and
#: a fresh walk: the lazy queue lowers seeded entries' keys by it so they
#: stay lower bounds.
_CARRY_TOLERANCE = 1e-9


class _OverlayUniverse:
    """Read-only view of a universe plus a few virtual annotations.

    Candidate scoring evaluates merges that are mostly discarded; the
    overlay lets the distance machinery resolve a candidate's virtual
    summary annotation without registering it.
    """

    __slots__ = ("_base", "_extra")

    def __init__(self, base: AnnotationUniverse, extra: Mapping[str, Annotation]):
        self._base = base
        self._extra = dict(extra)

    def __getitem__(self, name: str) -> Annotation:
        extra = self._extra.get(name)
        if extra is not None:
            return extra
        return self._base[name]

    def __contains__(self, name: str) -> bool:
        return name in self._extra or name in self._base


class ScoringEngine:
    """Measures one step's candidates; carries state between steps."""

    #: Processes that scored the most recent step: always 1, scoring
    #: runs in the calling process.  Kept because the perfbench tracer
    #: reads it to count multi-process steps.
    last_workers: int = 1

    PATH_FAST_INCREMENTAL = "fast+incremental"
    PATH_SAMPLED_INCREMENTAL = "sampled+incremental"
    PATH_NAIVE = "naive"

    def __init__(self, problem, config, computer: DistanceComputer):
        self.problem = problem
        self.config = config
        self.computer = computer
        self._lazy = config.lazy_selection
        # Lazy step 0 keeps the (size, accumulators, weighted_finished)
        # detail the repair checkpoint needs only when the run captures
        # one.
        self._repair = getattr(config, "repair", None) is not False
        # Bit-packed sampled scoring for classes too large to
        # enumerate: one shared Monte-Carlo batch per step instead of
        # per-candidate redraws through the naive path.  "auto"/"on"
        # engage it whenever the kernel's preconditions hold; "off"
        # restores the reference per-candidate sampler.
        self._sample_sharing = (
            getattr(config, "sample_sharing", None) is not False
        )
        self._scorer: Optional[IncrementalStepScorer] = None
        #: The lazy queue's carried ``(size, estimate)`` measurements
        #: keyed by parts tuple.  Valid only while ``_carry_expr``
        #: tracks the scorer's current expression through advance().
        self._carry_store: Dict[Tuple[str, ...], tuple] = {}
        #: Lazy step 0's ``(size, accumulators, weighted_finished)``
        #: detail store for :meth:`capture_repair_checkpoint`; ``None``
        #: otherwise.
        self._checkpoint_store: Optional[Dict[Tuple[str, ...], tuple]] = None
        self._carry_expr: object = None
        self._carry_ready: bool = False
        #: Cross-run repair seed (a previous run's step-0 checkpoint
        #: plus the delta's flipped labels / affected names), consumed
        #: by the first :meth:`measure` and then cleared.
        self._repair_seed: Optional[tuple] = None
        #: Step-0 measurements served from the repair seed vs. freshly
        #: re-scored (telemetry for the streaming-repair harness).
        self.last_repair_seeded: int = 0
        self.last_repair_rescored: int = 0
        #: Path taken by the most recent :meth:`measure` call.
        self.last_path: str = ""
        #: Kernel backend that folded the most recent step's masks
        #: (the scorer's captured backend; the process-wide active
        #: backend for naive steps, which fold nothing).
        self.last_kernel: str = _kernels.active_backend()
        #: Shared-batch telemetry of the most recent sampled step:
        #: batch size, achieved baseline variance, and whether the
        #: carried scorer's batch was reused rather than redrawn.
        self.last_sample_batch: int = 0
        self.last_sample_variance: float = 0.0
        self.last_batch_reused: bool = False
        #: Carried / freshly re-scored candidate counts of the most
        #: recent step.
        self.last_carried: int = 0
        self.last_rescored: int = 0
        #: Lifetime totals of the two counts above.
        self.total_carried: int = 0
        self.total_rescored: int = 0
        #: How often each path was taken over the engine's lifetime.
        self.path_counts: Dict[str, int] = {}
        #: Fast-path failures that fell back to naive rescoring.
        self.fallback_count: int = 0

    @property
    def lazy(self) -> bool:
        """Whether :meth:`measure_lazy` drives candidate selection."""
        return self._lazy

    # -- public API --------------------------------------------------------------

    def measure(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        """Size and distance of every candidate against ``current``.

        Returns the measured candidates (in input order) and the pure
        scoring wall-clock time, excluding the step's shared
        precomputation -- the quantity Fig. 6.5a plots.
        """
        span = _tracing.span("score_candidates")
        with span:
            measured, seconds = self._measure(candidates, current, mapping)
            span.set("path", self.last_path)
            span.set("kernel", self.last_kernel)
            span.set("n_candidates", len(candidates))
            span.set("seconds", seconds)
            span.set("carried", self.last_carried)
            span.set("rescored", self.last_rescored)
            self._set_sample_attrs(span)
        self._emit_step_metrics(len(candidates), seconds)
        return measured, seconds

    def _measure(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        # A full re-score: every candidate is freshly scored.
        self.last_carried = 0
        self.last_rescored = len(candidates)
        self.last_sample_batch = 0
        self.last_sample_variance = 0.0
        self.last_batch_reused = False
        mode = self._step_mode(current)
        if mode is not None:
            try:
                scorer = self._obtain_scorer(current, mapping, mode)
            except Exception:
                self._scorer = None
                scorer = None
                self._note_fallback()
            if scorer is not None:
                started = time.perf_counter()
                # No carried measurement outlives a full re-score.
                self._repair_seed = None
                self._invalidate_carry()
                try:
                    results = [scorer.score(candidate.parts) for candidate in candidates]
                except Exception:
                    # The fast path bailed mid-run: never crash or skip
                    # candidates -- rescore the whole step naively.
                    self._scorer = None
                    self._note_fallback()
                else:
                    measured = [
                        ScoredCandidate(
                            candidate=candidate,
                            expression=None,
                            step_mapping={},
                            size=size,
                            distance=distance,
                        )
                        for candidate, (size, distance) in zip(candidates, results)
                    ]
                    self._record(self._scorer_path(scorer))
                    self.last_kernel = scorer._kernel.name
                    self._note_sample_step(scorer)
                    return measured, time.perf_counter() - started
        return self._measure_naive(candidates, current, mapping)

    def _step_mode(self, current) -> Optional[str]:
        """Which fast kernel (if any) can serve this step.

        ``"exact"`` enumerates the whole class (small classes);
        ``"sampled"`` scores against one shared Monte-Carlo batch
        (classes too large to enumerate, when ``sample_sharing`` is not
        off).  ``None`` falls through to the naive reference path.
        """
        problem = self.problem
        if FastStepScorer.applicable(
            current,
            problem.val_func,
            problem.combiners,
            problem.valuations,
            problem.universe,
            self.config.max_enumerate,
        ):
            return "exact"
        if self._sample_sharing and SampledStepScorer.applicable(
            current,
            problem.val_func,
            problem.combiners,
            problem.valuations,
            problem.universe,
            self.config.max_enumerate,
        ):
            return "sampled"
        return None

    def _scorer_path(self, scorer: IncrementalStepScorer) -> str:
        if isinstance(scorer, SampledStepScorer):
            return self.PATH_SAMPLED_INCREMENTAL
        return self.PATH_FAST_INCREMENTAL

    def _note_sample_step(self, scorer: IncrementalStepScorer) -> None:
        if isinstance(scorer, SampledStepScorer):
            self.last_sample_batch = scorer.batch_size
            self.last_sample_variance = scorer.batch_variance

    def advance(
        self,
        parts: Sequence[str],
        new_name: str,
        new_expression,
        new_mapping: MappingState,
    ) -> None:
        """Carry the step scorer past the applied merge ``parts → new_name``.

        A failed carry is never fatal: the scorer is dropped and the
        next :meth:`measure` rebuilds from scratch.
        """
        scorer = self._scorer
        if scorer is None:
            self._invalidate_carry()
            return
        measured_expr = scorer.current
        try:
            scorer.advance(parts, new_name, new_expression, new_mapping)
        except Exception:
            self._scorer = None
            self._invalidate_carry()
            return
        # Re-link the lazy queue's carried measurements to the new
        # expression.
        linked = self._carry_ready and self._carry_expr is measured_expr
        if linked:
            # A merge whose global term-canonicalization collapsed
            # duplicates *outside* its own neighborhood breaks the
            # carried-size identity for every candidate (the candidate's
            # own merge would collapse the same pair), not just for
            # intersecting ones -- drop the whole carry and re-measure.
            linked = scorer.last_shift_local
        if linked:
            self._carry_expr = new_expression
        else:
            self._invalidate_carry()

    def refresh_near(self, scored: Sequence[ScoredCandidate]) -> int:
        """Always 0: no selection path carries stale scores into a full
        ranking any more.  Kept because the perfbench tracer binds
        ``ScoringEngine.__dict__["refresh_near"]``, as it reads
        :attr:`last_workers`."""
        return 0

    def capture_repair_checkpoint(self) -> Optional[dict]:
        """Snapshot the current step's measurement state for repair.

        Called by the summarizer right after the *first* greedy step's
        measurement (before any merge is applied): a later run over a
        delta-extended problem can :meth:`seed_repair` from this
        snapshot and skip re-measuring every candidate untouched by
        the delta.  Returns ``None`` when the step's path cannot seed
        a repair -- the sampled kernel's Monte-Carlo batch is not
        reproducible across runs, and a dense scorer keeps no
        per-candidate accumulators -- in which case the repaired run
        simply re-scores from scratch (correct, just not accelerated).
        The snapshot is the step-0 detail store :meth:`_lazy_select`
        kept beside its ``(size, estimate)`` queue store; full re-score
        steps keep none.
        """
        scorer = self._scorer
        store = self._checkpoint_store
        # _lazy_select keeps the detail store only for sparse,
        # enumerating scorers; any scorer swap invalidates it.
        if (
            store is None
            or not self._carry_ready
            or scorer is None
            or self._carry_expr is not scorer.current
        ):
            return None
        labels = tuple(str(valuation) for valuation in scorer.valuations)
        if len(set(labels)) != len(labels):
            return None
        return {
            # Copy the carried lists, not just the dict: the checkpoint
            # must keep step 0's accumulators intact for the next run's
            # seed whatever later steps do to the store.
            "store": {
                parts: (entry[0], list(entry[1]), list(entry[2]))
                for parts, entry in store.items()
            },
            "labels": labels,
            "weights": tuple(valuation.weight for valuation in scorer.valuations),
            "expr_size": scorer.current.size(),
            "terms": tuple(scorer._terms),
            "nonzero_empty": all(not entries for entries in scorer._nonzero),
        }

    def seed_repair(
        self,
        checkpoint: Optional[dict],
        flipped_labels: Sequence[str] = (),
        affected_names: Sequence[str] = (),
    ) -> None:
        """Arm the next measurement with a prior run's step-0 checkpoint.

        ``flipped_labels`` are the valuation labels whose truth
        assignments the delta extended (their positions must be
        re-measured); ``affected_names`` the annotations the delta
        added or removed (candidates touching them are re-scored
        fresh).  The seed is consumed by the first :meth:`measure` and
        discarded on any applicability miss -- seeding can only skip
        work, never change a result.
        """
        self.last_repair_seeded = 0
        self.last_repair_rescored = 0
        if checkpoint is None:
            self._repair_seed = None
            return
        self._repair_seed = (
            checkpoint,
            frozenset(flipped_labels),
            frozenset(affected_names),
        )

    def measure_lazy(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, float]:
        """Select the step's best candidate via the lazy-greedy queue.

        Candidates sit in a priority queue keyed by ``CandidateScore``.
        Sizes are kept exact (cheap), while a carried entry's distance
        may be *stale* -- measured against an earlier expression in the
        merge chain.  By Prop 4.2.2 the distance from the original is
        non-decreasing along merge chains, so a stale distance (and
        with exact sizes, a stale score) is a lower bound on the fresh
        one: popping the minimum, re-scoring it if stale and pushing it
        back terminates with the true fresh argmin when the top entry
        is fresh.  Candidates far from the top are never re-scored and
        their staleness deepens harmlessly.
        """
        span = _tracing.span("score_candidates")
        with span:
            best, seconds = self._measure_lazy(
                candidates, current, mapping, w_dist, w_size, original_size
            )
            span.set("path", self.last_path)
            span.set("kernel", self.last_kernel)
            span.set("n_candidates", len(candidates))
            span.set("seconds", seconds)
            span.set("carried", self.last_carried)
            span.set("rescored", self.last_rescored)
            self._set_sample_attrs(span)
        self._emit_step_metrics(len(candidates), seconds)
        return best, seconds

    def reset(self) -> None:
        """Drop any carried state (e.g. after reverting a step)."""
        self._scorer = None
        self._invalidate_carry()

    # -- internals ---------------------------------------------------------------

    def _record(self, path: str) -> None:
        self.last_path = path
        self.path_counts[path] = self.path_counts.get(path, 0) + 1

    def _sampled_step(self) -> bool:
        """Whether the most recent step ran the sampled kernel."""
        return self.last_path == self.PATH_SAMPLED_INCREMENTAL

    def _set_sample_attrs(self, span) -> None:
        # Only when the sampled kernel actually engaged: enumerated
        # steps keep their span shape unchanged.
        if not self._sampled_step():
            return
        span.set("sample_batch", self.last_sample_batch)
        span.set("sample_variance", self.last_sample_variance)
        span.set("batch_reused", self.last_batch_reused)

    def _emit_step_metrics(self, n_candidates: int, seconds: float) -> None:
        if not _metrics.ENABLED:
            return
        _SCORING_STEPS.inc(path=self.last_path)
        _SCORING_SECONDS.observe(seconds)
        _SCORING_CANDIDATES.inc(n_candidates)
        if self.last_carried:
            _SCORING_CARRIED.inc(self.last_carried)
        if self.last_rescored:
            _SCORING_RESCORED.inc(self.last_rescored)
        if self._sampled_step():
            _SCORING_SAMPLED_FAST.inc()
            if self.last_batch_reused:
                _SAMPLE_BATCH_REUSE.inc()

    def _note_fallback(self) -> None:
        self.fallback_count += 1
        if _metrics.ENABLED:
            _SCORING_FALLBACKS.inc()

    def _invalidate_carry(self) -> None:
        self._carry_store = {}
        self._checkpoint_store = None
        self._carry_expr = None
        self._carry_ready = False

    def _obtain_scorer(
        self, current, mapping: MappingState, mode: str = "exact"
    ) -> IncrementalStepScorer:
        if mode == "sampled":
            carried = self._scorer
            if isinstance(carried, SampledStepScorer) and carried.current is current:
                # The carried scorer keeps its pinned batch: stale
                # carried measurements stay lower bounds (Prop 4.2.2
                # holds pointwise only over a fixed valuation set).
                self.last_batch_reused = True
                return carried
            self._scorer = SampledStepScorer(
                self.computer, current, mapping, self.problem.universe
            )
            self._invalidate_carry()
            return self._scorer
        carried = self._scorer
        if (
            carried is not None
            and not isinstance(carried, SampledStepScorer)
            and carried.current is current
        ):
            return carried
        self._scorer = IncrementalStepScorer(
            self.computer, current, mapping, self.problem.universe
        )
        self._invalidate_carry()
        return self._scorer

    def _tally(self, carried: int, rescored: int) -> None:
        """Record one step's carried / freshly re-scored partition."""
        self.last_carried = carried
        self.last_rescored = rescored
        self.total_carried += carried
        self.total_rescored += rescored

    def _step0_detail(
        self,
        scorer: IncrementalStepScorer,
        candidates: Sequence[Candidate],
        seed: Optional[tuple],
    ) -> Tuple[List[tuple], Set[Tuple[str, ...]]]:
        """Full ``(size, estimate, accs, wf)`` measurements of lazy
        step 0, re-based on the repair seed when one applies.  Returns
        the measurements and the parts served from the seed (stale
        until re-scored)."""
        if seed is not None:
            try:
                seeded = self._score_from_seed(scorer, candidates, *seed)
            except Exception:
                seeded = None
            if seeded is not None:
                return seeded
        detail = [scorer.score_detail(candidate.parts) for candidate in candidates]
        return detail, set()

    def _score_from_seed(
        self,
        scorer: IncrementalStepScorer,
        candidates: Sequence[Candidate],
        checkpoint: dict,
        flipped_labels: FrozenSet[str],
        affected_names: FrozenSet[str],
    ) -> Optional[Tuple[List[tuple], Set[Tuple[str, ...]]]]:
        """Step-0 measurements re-based on a prior run's checkpoint.

        A carried candidate's accumulator at a valuation position is
        exactly the sum of its recomputed-neighborhood contributions
        (the step-0 baseline contributions are all zero -- gated).  For
        a candidate whose neighborhood the delta does not touch, those
        contributions are unchanged at every surviving valuation
        position, so the old accumulator is permuted by label and only
        the appended / flipped positions are recomputed
        (:meth:`~repro.core.fast_distance.IncrementalStepScorer
        .score_positions`); the finish walk then reproduces the fresh
        estimate bit for bit.  Sizes shift by the expression-size
        delta (the candidate's collision structure is untouched).
        Returns ``(size, estimate, accs, wf)`` per candidate plus the
        seeded parts, or ``None`` when any applicability gate fails.
        """
        if isinstance(scorer, SampledStepScorer):
            return None
        if not checkpoint.get("nonzero_empty") or any(scorer._nonzero):
            return None
        new_labels = tuple(str(valuation) for valuation in scorer.valuations)
        if len(set(new_labels)) != len(new_labels):
            return None
        old_index = {
            label: index for index, label in enumerate(checkpoint["labels"])
        }
        old_weights = checkpoint["weights"]
        pi: List[Optional[int]] = []
        recompute: List[int] = []
        for position, label in enumerate(new_labels):
            carried = old_index.get(label)
            if carried is None or label in flipped_labels:
                pi.append(None)
                recompute.append(position)
                continue
            if scorer.valuations[position].weight != old_weights[carried]:
                return None
            pi.append(carried)

        # Dirty state: terms not carried verbatim from the checkpoint
        # expression (multiset diff -- renames, congruent-merge count
        # changes and fresh delta terms all change the Term value), the
        # groups containing them, and the delta's added/removed names.
        old_counts = Counter(checkpoint["terms"])
        affected_terms: set = set()
        affected_groups: set = set(affected_names)
        for index, term in enumerate(scorer._terms):
            if old_counts.get(term, 0) > 0:
                old_counts[term] -= 1
            else:
                affected_terms.add(index)
                affected_groups.add(term.group)
        for term, remaining in old_counts.items():
            if remaining > 0:
                affected_groups.add(term.group)
        key = scorer._key
        for name in affected_names:
            affected_terms.update(scorer._ann_terms.get(key(name), ()))
            affected_terms.update(scorer._group_terms.get(name, ()))

        store = checkpoint["store"]
        shift = scorer.current.size() - checkpoint["expr_size"]
        n_vals = scorer.n_vals
        zeros = [0.0] * n_vals
        # Append-only streams almost always keep the old valuations as a
        # positional prefix of the new ones (π = identity on the prefix,
        # recompute = the appended tail).  Detect that once and replace
        # the per-candidate permutation listcomps with one C-level list
        # concat -- the values are identical, only the copy is cheaper.
        n_old = len(checkpoint["labels"])
        prefix_carry = (
            len(pi) >= n_old
            and all(
                carried == position
                for position, carried in enumerate(pi[:n_old])
            )
            and all(carried is None for carried in pi[n_old:])
        )
        tail = [0.0] * (n_vals - n_old)
        detail: List[tuple] = []
        stale: Set[Tuple[str, ...]] = set()
        for candidate in candidates:
            parts = candidate.parts
            entry = store.get(parts)
            if entry is None or self._seed_intersects(
                scorer, parts, affected_terms, affected_groups
            ):
                detail.append(scorer.score_detail(parts))
                continue
            old_accs = entry[1]
            old_wf = entry[2]
            if prefix_carry:
                accs = old_accs + tail
                wf = old_wf + tail
            else:
                accs = [
                    old_accs[carried] if carried is not None else 0.0
                    for carried in pi
                ]
                wf = [
                    old_wf[carried] if carried is not None else 0.0
                    for carried in pi
                ]
            if recompute:
                for position, value in scorer.score_positions(
                    parts, recompute
                ).items():
                    accs[position] = value
            # Re-finish exactly the recomputed positions and re-sum the
            # carried weighted contributions (valid verbatim: the label
            # permutation gate pinned weights, and finish is a pure
            # function of the unchanged accumulator).
            estimate, accs, wf = scorer.carried_score_fast(
                accs, wf, zeros, recompute, mutate=True
            )
            detail.append((entry[0] + shift, estimate, accs, wf))
            stale.add(parts)
        self.last_repair_seeded = len(stale)
        self.last_repair_rescored = len(candidates) - len(stale)
        return detail, stale

    @staticmethod
    def _seed_intersects(
        scorer: IncrementalStepScorer,
        parts: Tuple[str, ...],
        affected_terms: set,
        affected_groups: set,
    ) -> bool:
        """Whether the delta perturbs this candidate's measurement.

        Mirrors :meth:`IncrementalStepScorer.candidate_intersects`
        against the delta's dirty sets instead of a single applied
        merge's."""
        key = scorer._key
        terms = scorer._terms
        for name in parts:
            if name in affected_groups:
                return True
            for index in scorer._ann_terms.get(key(name), ()):
                if index in affected_terms or terms[index].group in affected_groups:
                    return True
            for index in scorer._group_terms.get(name, ()):
                if index in affected_terms:
                    return True
        return False

    def _measure_lazy(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, float]:
        self.last_carried = 0
        self.last_rescored = len(candidates)
        self.last_sample_batch = 0
        self.last_sample_variance = 0.0
        self.last_batch_reused = False
        scorer: Optional[IncrementalStepScorer] = None
        mode = self._step_mode(current)
        if mode is not None:
            try:
                scorer = self._obtain_scorer(current, mapping, mode)
            except Exception:
                self._scorer = None
                scorer = None
                self._note_fallback()
        if scorer is None:
            return self._lazy_fallback(
                candidates, current, mapping, w_dist, w_size, original_size
            )
        started = time.perf_counter()
        try:
            best, carried, rescored = self._lazy_select(
                scorer, candidates, w_dist, w_size, original_size
            )
        except Exception:
            self._scorer = None
            self._invalidate_carry()
            self._note_fallback()
            return self._lazy_fallback(
                candidates, current, mapping, w_dist, w_size, original_size
            )
        self._tally(carried, rescored)
        self._record(self._scorer_path(scorer))
        self.last_kernel = scorer._kernel.name
        self._note_sample_step(scorer)
        return best, time.perf_counter() - started

    def _lazy_fallback(
        self, candidates, current, mapping, w_dist, w_size, original_size
    ) -> Tuple[ScoredCandidate, float]:
        """Full measurement + full ranking when the queue cannot run."""
        measured, seconds = self._measure(candidates, current, mapping)
        ranked = score_candidates(
            measured,
            w_dist=w_dist,
            w_size=w_size,
            original_size=original_size,
            strategy="normalized",
        )
        return ranked[0], seconds

    def _lazy_select(
        self,
        scorer: IncrementalStepScorer,
        candidates: Sequence[Candidate],
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, int, int]:
        """Pop-rescore-reinsert until the queue's top entry is fresh.

        Entries hold ``[size, estimate, fresh]``.  Sizes are always
        exact -- a stale size could *overstate* the bound (sizes only
        shrink along chains) and break the lower-bound invariant, so
        disjoint candidates get the exact carried-size shift and the
        rest a direct size recomputation.  New pairs (no carried entry)
        enter with the global distance floor 0.0.

        Step 0 (no live carry) measures every candidate.  When the run
        captures a repair checkpoint it measures with detail, so the
        step-0 ``(size, accs, wf)`` store can seed the next run, and
        consumes this run's repair seed: seeded entries enter the
        queue stale, their keys lowered by ``_CARRY_TOLERANCE`` to stay
        lower bounds.
        """
        store = self._carry_store
        live = (
            self._carry_ready
            and self._carry_expr is scorer.current
            and scorer.last_affected_terms is not None
        )
        entries: List[list] = []
        detail_store: Optional[Dict[Tuple[str, ...], tuple]] = None
        seeded: Set[Tuple[str, ...]] = set()
        if not live:
            seed = self._repair_seed
            self._repair_seed = None
            if self._repair and scorer._sparse and not isinstance(
                scorer, SampledStepScorer
            ):
                detail, seeded = self._step0_detail(scorer, candidates, seed)
                detail_store = {}
                for candidate, (size, estimate, accs, wf) in zip(
                    candidates, detail
                ):
                    detail_store[candidate.parts] = (size, accs, wf)
                    entries.append(
                        [size, estimate, candidate.parts not in seeded]
                    )
            else:
                for candidate in candidates:
                    size, estimate = scorer.score(candidate.parts)
                    entries.append([size, estimate, True])
            rescored = len(candidates) - len(seeded)
        else:
            rescored = 0
            shift = scorer.last_size_shift
            for candidate in candidates:
                entry = store.get(candidate.parts)
                if entry is None:
                    entries.append(
                        [scorer.candidate_size(candidate.parts), None, False]
                    )
                elif scorer.candidate_intersects(candidate.parts):
                    entries.append(
                        [scorer.candidate_size(candidate.parts), entry[1], False]
                    )
                else:
                    entries.append([entry[0] + shift, entry[1], False])

        def entry_key(index: int) -> Tuple[float, float, Tuple[str, ...]]:
            size, estimate, fresh = entries[index]
            parts = candidates[index].parts
            r_dist = estimate.normalized if estimate is not None else 0.0
            r_size = size / original_size if original_size else 0.0
            score = w_dist * r_dist + w_size * r_size
            if not fresh and parts in seeded:
                score -= _CARRY_TOLERANCE
            return (score, candidates[index].proposal.taxonomy_cost, parts)

        heap = [(entry_key(index), index) for index in range(len(candidates))]
        heapq.heapify(heap)
        while True:
            _, index = heapq.heappop(heap)
            if entries[index][2]:
                best_index = index
                break
            parts = candidates[index].parts
            if detail_store is not None:
                size, estimate, accs, wf = scorer.score_detail(parts)
                detail_store[parts] = (size, accs, wf)
            else:
                size, estimate = scorer.score(parts)
            entries[index] = [size, estimate, True]
            rescored += 1
            heapq.heappush(heap, (entry_key(index), index))

        self._carry_store = {
            candidate.parts: (entry[0], entry[1])
            for candidate, entry in zip(candidates, entries)
            if entry[1] is not None
        }
        self._checkpoint_store = detail_store
        self._carry_expr = scorer.current
        self._carry_ready = True

        size, estimate, _ = entries[best_index]
        r_dist = estimate.normalized
        r_size = size / original_size if original_size else 0.0
        best = ScoredCandidate(
            candidate=candidates[best_index],
            expression=None,
            step_mapping={},
            size=size,
            distance=estimate,
            r_dist=r_dist,
            r_size=r_size,
            score=w_dist * r_dist + w_size * r_size,
        )
        return best, len(candidates) - rescored, rescored

    def _measure_naive(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        """Reference path: materialize and measure each candidate."""
        self._invalidate_carry()
        problem = self.problem
        measured: List[ScoredCandidate] = []
        started = time.perf_counter()
        for candidate in candidates:
            parts = [problem.universe[name] for name in candidate.parts]
            virtual = virtual_summary(parts, candidate.proposal)
            overlay = _OverlayUniverse(problem.universe, {virtual.name: virtual})
            step_mapping = {name: virtual.name for name in candidate.parts}
            expression = current.apply_mapping(step_mapping)
            candidate_mapping = mapping.compose(step_mapping)
            distance = self.computer.distance(
                expression, candidate_mapping, universe=overlay
            )
            measured.append(
                ScoredCandidate(
                    candidate=candidate,
                    expression=expression,
                    step_mapping=step_mapping,
                    size=expression.size(),
                    distance=distance,
                )
            )
        self._record(self.PATH_NAIVE)
        self.last_kernel = _kernels.active_backend()
        return measured, time.perf_counter() - started
