"""Differential proof obligations for the scoring engine.

Three implementations must agree on every candidate of a step: the
naive reference (:class:`DistanceComputer` on each materialized
candidate), the dense :class:`FastStepScorer` and the sparse
:class:`IncrementalStepScorer` -- over randomized instances (explicit
RNG grid), SUM/MAX/COUNT aggregations, the OR combiner, and the
degenerate corners (one candidate, one valuation, all-false
annotations, empty groups).

Sizes must match as exact integers; distances to within 1e-12 (the
tolerance the seed's fast-path suite already uses -- dense and sparse
summation differ only in fold order).  The engine's dispatch of a
scorer must agree bit-for-bit with calling that scorer directly, and
whole greedy runs must be bit-identical across the carry axis (full
per-step re-score ≡ lazy-greedy queue) and across the parallel axis:
the same run on several threads at once, the way the threaded PROX
server runs concurrent sessions in one process, must reproduce the
serial run.  ``test_golden_runs.py`` pins the same runs to committed
fingerprints.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import (
    AbsoluteDifference,
    AllowAll,
    BeamSummarizer,
    Disagreement,
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    ScoringEngine,
    SummarizationConfig,
    SummarizationProblem,
    Summarizer,
    enumerate_candidates,
    virtual_summary,
)
from repro.core.engine import _OverlayUniverse
from repro.core.fast_distance import FastStepScorer, IncrementalStepScorer
from repro.datasets import MovieLensConfig, generate_movielens
from repro.provenance import (
    COUNT,
    MAX,
    SUM,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    ExplicitValuations,
    Guard,
    TensorSum,
    Term,
    Valuation,
)

from repro.core import kernels

MONOIDS = {"MAX": MAX, "SUM": SUM, "COUNT": COUNT}

KERNEL_AXIS = [
    kernels.MODE_PYTHON,
    pytest.param(
        kernels.MODE_NUMPY,
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="numpy backend unavailable"
        ),
    ),
    pytest.param(
        kernels.MODE_NATIVE,
        marks=pytest.mark.skipif(
            not kernels.native_available(), reason="native backend unavailable"
        ),
    ),
]


needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy backend unavailable"
)

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="native backend unavailable"
)


@pytest.fixture(params=KERNEL_AXIS)
def kernel(request):
    """Run the test under each kernel backend (python x numpy x native)."""
    with kernels.backend(request.param) as resolved:
        assert resolved == request.param
        yield resolved


# -- instance generation -----------------------------------------------------------


def random_problem(
    seed,
    monoid,
    val_func_cls=EuclideanDistance,
    n_users=6,
    n_terms=14,
    with_guards=False,
    group_merges=False,
    valuations=None,
):
    """A randomized TensorSum summarization problem over one domain.

    With ``group_merges=True`` the group keys are the annotation names
    themselves, so merging a candidate pair also merges groups -- the
    Wikipedia-style path through the scorers.
    """
    rng = random.Random(seed)
    universe = AnnotationUniverse()
    names = [f"U{i}" for i in range(n_users)]
    for name in names:
        universe.register(
            Annotation(name, "user", {"g": rng.choice("AB"), "r": rng.choice("XY")})
        )
    groups = list(names) if group_merges else ["g0", "g1", "g2", None]
    terms = []
    for _ in range(n_terms):
        annotations = tuple(rng.sample(names, rng.choice([1, 1, 2])))
        guards = ()
        if with_guards and rng.random() < 0.4:
            guards = (
                Guard(
                    (rng.choice(names),),
                    rng.choice([1, 5]),
                    rng.choice([">", ">=", "=="]),
                    rng.choice([0, 2]),
                ),
            )
        terms.append(
            Term(
                annotations,
                float(rng.randint(0, 5)),
                group=rng.choice(groups),
                guards=guards,
            )
        )
    expression = TensorSum(terms, monoid)
    if valuations is None:
        valuations = CancelSingleAnnotation(universe, domains=("user",))
    return SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=valuations,
        val_func=val_func_cls(monoid),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
        description=f"random seed={seed}",
    )


# -- the four scoring paths --------------------------------------------------------


def make_computer(problem):
    return DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
    )


def naive_scores(problem, computer, current, mapping, candidates):
    out = []
    for candidate in candidates:
        parts = [problem.universe[name] for name in candidate.parts]
        virtual = virtual_summary(parts, candidate.proposal)
        overlay = _OverlayUniverse(problem.universe, {virtual.name: virtual})
        step = {name: virtual.name for name in candidate.parts}
        expression = current.apply_mapping(step)
        distance = computer.distance(
            expression, mapping.compose(step), universe=overlay
        )
        out.append((expression.size(), distance))
    return out


def engine_scores(problem, computer, current, mapping, candidates, **knobs):
    engine = ScoringEngine(problem, SummarizationConfig(**knobs), computer)
    measured, _ = engine.measure(candidates, current, mapping)
    return engine, [(scored.size, scored.distance) for scored in measured]


def assert_distances_match(actual, reference, context=""):
    assert len(actual) == len(reference)
    for (size, distance), (ref_size, ref_distance) in zip(actual, reference):
        assert size == ref_size, context
        assert distance.value == pytest.approx(ref_distance.value, abs=1e-12), context
        assert distance.normalized == pytest.approx(
            ref_distance.normalized, abs=1e-12
        ), context


def assert_all_paths_agree(problem):
    """naive ≡ dense fast ≡ sparse incremental ≡ engine dispatch, one step."""
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    assert candidates, "instance must produce candidates"
    assert FastStepScorer.applicable(
        current,
        problem.val_func,
        problem.combiners,
        problem.valuations,
        problem.universe,
        512,
    )
    reference = naive_scores(problem, computer, current, mapping, candidates)

    serial_scorer = FastStepScorer(computer, current, mapping, problem.universe)
    serial = [serial_scorer.score(candidate.parts) for candidate in candidates]
    assert_distances_match(serial, reference, "serial fast vs naive")

    incremental_scorer = IncrementalStepScorer(
        computer, current, mapping, problem.universe
    )
    incremental = [
        incremental_scorer.score(candidate.parts) for candidate in candidates
    ]
    assert_distances_match(incremental, reference, "incremental vs naive")

    # The engine runs the very same scorer, so its measurements must be
    # *bit*-identical to the direct calls, not just close.
    engine, dispatched = engine_scores(
        problem, computer, current, mapping, candidates
    )
    assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
    assert dispatched == incremental


# -- the RNG grid ------------------------------------------------------------------


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_differential_over_rng_grid(monoid_name, seed, kernel):
    assert_all_paths_agree(random_problem(seed, MONOIDS[monoid_name]))


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_differential_with_guards(monoid_name):
    assert_all_paths_agree(
        random_problem(11, MONOIDS[monoid_name], with_guards=True)
    )


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_differential_with_group_merges(monoid_name):
    assert_all_paths_agree(
        random_problem(23, MONOIDS[monoid_name], group_merges=True)
    )


@pytest.mark.parametrize("val_func_cls", [AbsoluteDifference, Disagreement])
def test_differential_other_val_funcs(val_func_cls):
    assert_all_paths_agree(random_problem(5, MAX, val_func_cls=val_func_cls))
    assert_all_paths_agree(random_problem(5, SUM, val_func_cls=val_func_cls))


# -- degenerate corners ------------------------------------------------------------


def test_single_candidate():
    assert_all_paths_agree(random_problem(3, SUM, n_users=2, n_terms=5))


def test_single_valuation():
    problem = random_problem(
        9,
        MAX,
        valuations=ExplicitValuations(
            [Valuation({"U0": 0.0}, label="cancel U0")]
        ),
    )
    assert_all_paths_agree(problem)


def test_all_false_annotations():
    """A valuation cancelling every annotation empties both vectors."""
    names = {f"U{i}": 0.0 for i in range(6)}
    problem = random_problem(
        13,
        SUM,
        valuations=ExplicitValuations(
            [
                Valuation(dict(names), label="cancel everything"),
                Valuation({}, label="keep everything"),
            ]
        ),
    )
    assert_all_paths_agree(problem)


def test_empty_groups():
    """Groups whose terms all die under a valuation, plus ungrouped terms."""
    universe = AnnotationUniverse()
    for name in ("U0", "U1", "U2"):
        universe.register(Annotation(name, "user", {"g": "A"}))
    expression = TensorSum(
        [
            Term(("U0",), 2.0, group="g0"),
            Term(("U1",), 3.0, group=None),
            Term(("U0", "U1"), 1.0, group="g1"),
        ],
        SUM,
    )
    problem = SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=CancelSingleAnnotation(universe, domains=("user",)),
        val_func=EuclideanDistance(SUM),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
    )
    assert_all_paths_agree(problem)


def test_group_only_rename_congruence_size_regression():
    """Terms in different groups whose annotations already coincide
    become congruent when their *groups* merge; the fast size used to
    miss this collision because neither term mentions the merged
    annotations (latent seed bug found by the differential grid)."""
    universe = AnnotationUniverse()
    for name in ("U0", "U1", "U2"):
        universe.register(Annotation(name, "user", {"g": "A"}))
    expression = TensorSum(
        [
            Term(("U2",), 2.0, group="U0"),
            Term(("U2",), 3.0, group="U1"),
            Term(("U0",), 1.0, group=None),
            Term(("U1",), 4.0, group=None),
        ],
        SUM,
    )
    problem = SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=CancelSingleAnnotation(universe, domains=("user",)),
        val_func=EuclideanDistance(SUM),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
    )
    assert_all_paths_agree(problem)


# -- incremental carry across steps ------------------------------------------------


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_incremental_across_steps_matches_fresh(monoid_name):
    """After each applied merge the carried scorer must equal a fresh
    scorer and the naive reference on the *next* step's candidates."""
    problem = random_problem(17, MONOIDS[monoid_name], n_users=6, n_terms=16)
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    carried = IncrementalStepScorer(computer, current, mapping, problem.universe)

    for step in range(3):
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        reference = naive_scores(problem, computer, current, mapping, candidates)
        scores = [carried.score(candidate.parts) for candidate in candidates]
        assert_distances_match(scores, reference, f"step {step}")
        fresh = FastStepScorer(computer, current, mapping, problem.universe)
        fresh_scores = [fresh.score(candidate.parts) for candidate in candidates]
        assert_distances_match(scores, fresh_scores, f"step {step} vs fresh")

        chosen = candidates[step % len(candidates)]
        summary_parts = [problem.universe[name] for name in chosen.parts]
        summary = problem.universe.new_summary(
            summary_parts,
            label=chosen.proposal.label,
            concept=chosen.proposal.concept,
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        carried.advance(chosen.parts, summary.name, current, mapping)
        assert carried.steps_carried == step + 1


def test_incremental_group_merges_across_steps():
    problem = random_problem(29, SUM, group_merges=True, n_terms=18)
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    carried = IncrementalStepScorer(computer, current, mapping, problem.universe)
    for step in range(2):
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        reference = naive_scores(problem, computer, current, mapping, candidates)
        scores = [carried.score(candidate.parts) for candidate in candidates]
        assert_distances_match(scores, reference, f"group-merge step {step}")
        chosen = candidates[0]
        summary_parts = [problem.universe[name] for name in chosen.parts]
        summary = problem.universe.new_summary(
            summary_parts, label=chosen.proposal.label
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        carried.advance(chosen.parts, summary.name, current, mapping)


# -- end-to-end determinism --------------------------------------------------------


def run_concurrently(runner, n_threads=2):
    """Call ``runner`` on ``n_threads`` threads released together and
    return every result (the threaded server's concurrent sessions)."""
    start = threading.Barrier(n_threads)

    def gated():
        start.wait(timeout=60)
        return runner()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(gated) for _ in range(n_threads)]
        return [future.result() for future in futures]


def fingerprint_runs(runner, fingerprint, threads=1):
    """``fingerprint(runner())``; with ``threads > 1`` the run happens
    on that many threads at once and every thread must agree."""
    if threads == 1:
        return fingerprint(runner())
    prints = [fingerprint(result) for result in run_concurrently(runner, threads)]
    assert all(p == prints[0] for p in prints[1:]), "threads disagree"
    return prints[0]


def movielens_problem(seed):
    return generate_movielens(
        MovieLensConfig(n_users=12, n_movies=6, seed=seed)
    ).problem()


@pytest.mark.parametrize("seed", [3, 9])
def test_e2e_determinism_parallel_incremental_vs_seed_default(seed):
    """The default engine (lazy-greedy queue), run on two threads at
    once, must replay the seed-behavior run (candidates re-enumerated
    and re-scored in full every step) merge for merge on the bundled
    MovieLens sample -- on every thread."""
    config_kwargs = dict(w_dist=0.7, max_steps=6, seed=0)
    baseline = Summarizer(
        movielens_problem(seed),
        SummarizationConfig(carry="off", **config_kwargs),
    ).run()
    runs = run_concurrently(
        lambda: Summarizer(
            movielens_problem(seed),
            SummarizationConfig(**config_kwargs),
        ).run()
    )
    assert {r.scoring_path for r in baseline.steps} == {"fast+incremental"}
    for tuned in runs:
        assert [r.merged for r in tuned.steps] == [r.merged for r in baseline.steps]
        assert [r.new_annotation for r in tuned.steps] == [
            r.new_annotation for r in baseline.steps
        ]
        assert tuned.final_size == baseline.final_size
        assert tuned.final_distance.value == baseline.final_distance.value
        assert tuned.summary_groups() == baseline.summary_groups()
        assert {r.scoring_path for r in tuned.steps} == {"fast+incremental"}


# -- run fingerprints and the engine grid ------------------------------------------


def _steps_fingerprint(result):
    """Everything an engine path could perturb, captured bit-exactly."""
    return {
        "merged": [r.merged for r in result.steps],
        "new_annotations": [r.new_annotation for r in result.steps],
        "sizes": [r.size_after for r in result.steps],
        "final_size": result.final_size,
        "final_distance": result.final_distance.value,
        "final_normalized": result.final_distance.normalized,
        "stop_reason": result.stop_reason,
        "groups": result.summary_groups(),
    }


#: Engine knob combinations of the differential grids, with the number
#: of threads each run occupies at once.  With ``carry`` on, every entry
#: but "eager-carry" selects through the lazy queue: "serial" at the
#: default knobs, "incremental" without the repair checkpoint (step 0
#: scores without per-valuation detail), "sampled" over one pinned
#: shared batch.  "eager-carry" keeps the candidate-pool carry but
#: re-scores every candidate (ordinal scoring selects eagerly).  The
#: "parallel" entries run on two threads concurrently.
_ENGINE_GRID = {
    "serial": (dict(), 1),
    "incremental": (dict(repair="off"), 1),
    "parallel": (dict(), 2),
    "parallel+incremental": (dict(repair="off"), 2),
    "eager-carry": (dict(scoring="ordinal"), 1),
    "sampled": (dict(max_enumerate=0, distance_samples=64), 1),
}
engine_grid = pytest.mark.parametrize(
    "knobs,threads", list(_ENGINE_GRID.values()), ids=list(_ENGINE_GRID)
)


# -- fallback regression -----------------------------------------------------------


def test_fast_path_bailing_mid_run_falls_back_to_naive(monkeypatch):
    """If the scorer dies partway through a step the engine must score
    the whole step naively -- no crash, no skipped candidates."""
    problem = random_problem(31, MAX)
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    reference = naive_scores(problem, computer, current, mapping, candidates)

    calls = {"n": 0}
    original_score = IncrementalStepScorer.score

    def flaky_score(self, parts):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("fast path bailed mid-run")
        return original_score(self, parts)

    monkeypatch.setattr(IncrementalStepScorer, "score", flaky_score)
    engine, scores = engine_scores(
        problem, computer, current, mapping, candidates
    )
    assert engine.last_path == ScoringEngine.PATH_NAIVE
    assert calls["n"] == 4, "the fast path was attempted and bailed"
    assert_distances_match(scores, reference, "fallback")


def test_summarizer_survives_broken_fast_path(monkeypatch):
    """A full greedy run with a permanently broken fast path completes
    on the naive path and reproduces the unbroken merge sequence."""
    expected = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
    ).run()

    def broken_score(self, parts):
        raise RuntimeError("broken scorer")

    monkeypatch.setattr(FastStepScorer, "score", broken_score)
    monkeypatch.setattr(IncrementalStepScorer, "score", broken_score)
    monkeypatch.setattr(IncrementalStepScorer, "score_detail", broken_score)
    result = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
    ).run()
    assert [r.merged for r in result.steps] == [r.merged for r in expected.steps]
    assert {r.scoring_path for r in result.steps} == {"naive"}
    assert result.final_distance.value == pytest.approx(
        expected.final_distance.value, abs=1e-12
    )


# -- the carry axis: cross-step candidate carry ≡ fresh per-step runs --------------


def _full_fingerprint(result):
    """The steps fingerprint plus every per-step recorded float."""
    fingerprint = _steps_fingerprint(result)
    fingerprint["step_distances"] = [
        r.distance_after.value if r.distance_after is not None else None
        for r in result.steps
    ]
    fingerprint["n_candidates"] = [r.n_candidates for r in result.steps]
    return fingerprint


@engine_grid
@pytest.mark.parametrize("seed", [3, 9])
def test_greedy_carry_bit_identical(seed, knobs, threads, kernel):
    """The carry axis of the differential grid: with cross-step
    candidate carry on, a greedy run must be *bit*-identical to the
    carry-off (seed) run -- same merges, sizes and exact distance
    floats -- under every engine knob."""

    def runner(carry):
        return Summarizer(
            movielens_problem(seed),
            SummarizationConfig(w_dist=0.7, max_steps=6, seed=0, carry=carry, **knobs),
        ).run()

    off = _full_fingerprint(runner("off"))
    on = fingerprint_runs(lambda: runner("on"), _full_fingerprint, threads)
    assert on == off


@needs_numpy
@engine_grid
def test_greedy_run_bit_identical_across_kernels(knobs, threads):
    """The tentpole contract end-to-end: a full greedy run under the
    accelerated kernels reproduces the python-kernel run bit for bit --
    same merges, same sizes, same exact distance floats -- on every
    engine path.  The native backend joins the comparison whenever its
    probe succeeds on this host."""

    def runner():
        return Summarizer(
            movielens_problem(3),
            SummarizationConfig(w_dist=0.7, max_steps=6, seed=0, **knobs),
        ).run()

    with kernels.backend(kernels.MODE_PYTHON):
        reference = _full_fingerprint(runner())
    with kernels.backend(kernels.MODE_NUMPY):
        vectorized = fingerprint_runs(runner, _full_fingerprint, threads)
    assert vectorized == reference
    if kernels.native_available():
        with kernels.backend(kernels.MODE_NATIVE):
            compiled = fingerprint_runs(runner, _full_fingerprint, threads)
        assert compiled == reference


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_random_problems_carry_bit_identical(monoid_name):
    def runner(carry):
        return Summarizer(
            random_problem(19, MONOIDS[monoid_name], n_terms=16),
            SummarizationConfig(w_dist=0.6, max_steps=4, seed=0, carry=carry),
        ).run()

    assert _full_fingerprint(runner("on")) == _full_fingerprint(runner("off"))


@pytest.mark.parametrize("scoring", ["normalized", "ordinal"])
def test_carry_respects_scoring_strategy(scoring):
    """Ordinal scoring disables the delta score carry (rank ties
    compare raw floats) but keeps the pool carry -- output must match
    the carry-off run either way."""

    def runner(carry):
        return Summarizer(
            movielens_problem(3),
            SummarizationConfig(
                w_dist=0.7, max_steps=5, seed=0, scoring=scoring, carry=carry
            ),
        ).run()

    assert _full_fingerprint(runner("on")) == _full_fingerprint(runner("off"))


@pytest.mark.parametrize("seed", [3, 9])
def test_beam_carry_bit_identical(seed):
    def runner(carry):
        return BeamSummarizer(
            movielens_problem(seed),
            SummarizationConfig(
                w_dist=0.7, max_steps=5, seed=0, carry=carry, candidate_cap=24
            ),
            beam_width=2,
        ).run()

    off = _full_fingerprint(runner("off"))
    on = _full_fingerprint(runner("on"))
    assert on == off


@pytest.mark.parametrize("seed", [3, 9])
def test_lazy_matches_eager_selection(seed):
    """Lazy-greedy selection must pick the exact same merge sequence
    (and record the same fresh winner measurements) as the eager run,
    while re-scoring only a fraction of the candidates."""

    def runner(**knobs):
        return Summarizer(
            movielens_problem(seed),
            SummarizationConfig(w_dist=0.7, max_steps=6, seed=0, **knobs),
        ).run()

    eager = runner(carry="off")
    lazy = runner(carry="on")
    assert _full_fingerprint(lazy) == _full_fingerprint(eager)
    rescored = sum(r.n_rescored for r in lazy.steps[1:])
    total = sum(r.n_candidates for r in lazy.steps[1:])
    assert rescored < total, "lazy selection never skipped a re-score"


def test_lazy_stale_scores_are_lower_bounds():
    """The soundness invariant behind the lazy queue (Prop 4.2.2):
    after applying a merge, every surviving candidate's *stale*
    distance estimate is a lower bound on its fresh re-score, and the
    exact-size carry keeps the size component exact -- so the stale
    queue key never exceeds the fresh one."""
    for monoid_name in sorted(MONOIDS):
        problem = random_problem(11, MONOIDS[monoid_name], n_terms=16)
        computer = make_computer(problem)
        current = problem.expression
        mapping = MappingState(sorted(current.annotation_names()))
        for _ in range(3):
            candidates = enumerate_candidates(
                current, problem.universe, problem.constraint
            )
            if len(candidates) < 2:
                break
            scorer = IncrementalStepScorer(
                computer, current, mapping, problem.universe
            )
            stale = {c.parts: scorer.score(c.parts) for c in candidates}
            chosen = candidates[0]
            summary = problem.universe.new_summary(
                [problem.universe[name] for name in chosen.parts],
                label=chosen.proposal.label,
            )
            step_mapping = {name: summary.name for name in chosen.parts}
            current = current.apply_mapping(step_mapping)
            mapping = mapping.compose(step_mapping)
            scorer.advance(chosen.parts, summary.name, current, mapping)
            merged = set(chosen.parts)
            for candidate in candidates:
                if merged.intersection(candidate.parts):
                    continue
                old_size, old_estimate = stale[candidate.parts]
                new_size, new_estimate = scorer.score(candidate.parts)
                assert old_estimate.value <= new_estimate.value + 1e-12, (
                    monoid_name,
                    candidate.parts,
                )
                # The exact-shift size carry only claims candidates the
                # engine's neighborhood predicate marks disjoint (a
                # merge can enable joint term collapses otherwise).
                if not scorer.candidate_intersects(candidate.parts):
                    assert new_size == old_size + scorer.last_size_shift


def test_lazy_requires_normalized_scoring_and_carry():
    """Stale lower bounds order absolute scores, not per-step ordinal
    ranks, and the queue needs carried measurements: ordinal scoring
    and ``carry="off"`` re-score every candidate every step."""
    assert not SummarizationConfig(scoring="ordinal").lazy_selection
    assert not SummarizationConfig(carry="off").lazy_selection
    assert not SummarizationConfig(scoring="ordinal", carry="on").lazy_selection
    assert not ScoringEngine(None, SummarizationConfig(carry="off"), None).lazy


def test_lazy_defaults_on_whenever_valid():
    """Lazy selection is not a knob: it is on whenever it is valid."""
    assert SummarizationConfig().lazy_selection
    assert SummarizationConfig(carry="auto").lazy_selection
    assert SummarizationConfig(carry="on").lazy_selection
    assert ScoringEngine(None, SummarizationConfig(), None).lazy


@pytest.mark.parametrize(
    "knob", ["parallelism", "parallel_threshold", "incremental", "lazy"]
)
def test_removed_parallel_knobs_raise_type_error(knob):
    """Knobs of deleted scoring paths (the forked-worker tier, the
    per-step scorer rebuild, eager-vs-lazy selection) are not silently
    accepted."""
    with pytest.raises(TypeError, match=knob):
        SummarizationConfig(**{knob: 2})


def test_carry_counters_partition_each_step():
    """last_carried + last_rescored must partition every step's
    candidate set, and the per-step record must expose the re-score
    count."""
    result = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, carry="on"),
    ).run()
    for record in result.steps:
        assert 0 <= record.n_rescored <= record.n_candidates
    assert result.steps[0].n_rescored == result.steps[0].n_candidates


def test_pool_invalidation_falls_back_to_fresh_enumeration(monkeypatch):
    """A poisoned pool maintenance step must not change the output:
    the pool invalidates itself and the next step re-enumerates."""
    from repro.core.pool import CandidatePool

    expected = _full_fingerprint(
        Summarizer(
            movielens_problem(3),
            SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, carry="off"),
        ).run()
    )

    def broken_maintain(self, merged, new_name, new_expression):
        raise RuntimeError("maintenance poisoned")

    monkeypatch.setattr(CandidatePool, "_maintain", broken_maintain)
    result = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, carry="on"),
    ).run()
    assert _full_fingerprint(result) == expected
