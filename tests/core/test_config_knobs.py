"""Less-travelled configuration knobs of the summarizer."""

import pytest

from repro.core import (
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    SummarizationConfig,
    Summarizer,
)
from repro.datasets import MovieLensConfig, generate_movielens
from repro.provenance import MAX, CancelSubsets


def problem(seed=6):
    return generate_movielens(
        MovieLensConfig(n_users=12, n_movies=6, seed=seed)
    ).problem()


def test_candidate_cap_limits_each_step():
    result = Summarizer(
        problem(), SummarizationConfig(max_steps=3, candidate_cap=5, seed=0)
    ).run()
    assert all(record.n_candidates <= 5 for record in result.steps)


def test_candidate_cap_is_deterministic():
    def run():
        return Summarizer(
            problem(), SummarizationConfig(max_steps=3, candidate_cap=5, seed=2)
        ).run()

    first, second = run(), run()
    assert [r.merged for r in first.steps] == [r.merged for r in second.steps]


def test_ordinal_scoring_through_the_algorithm():
    result = Summarizer(
        problem(), SummarizationConfig(w_dist=0.5, max_steps=4, scoring="ordinal")
    ).run()
    assert result.n_steps >= 1
    assert result.final_size < result.original_size


def test_group_equivalent_can_be_disabled():
    config_on = SummarizationConfig(max_steps=0, group_equivalent_first=True)
    config_off = SummarizationConfig(max_steps=0, group_equivalent_first=False)
    instance = generate_movielens(MovieLensConfig(n_users=12, n_movies=6, seed=6))
    with_grouping = Summarizer(instance.problem(), config_on).run()
    instance = generate_movielens(MovieLensConfig(n_users=12, n_movies=6, seed=6))
    without = Summarizer(instance.problem(), config_off).run()
    assert without.equivalence_merges == 0
    assert with_grouping.final_size <= without.final_size


def test_cancel_subsets_class_through_distances():
    instance = generate_movielens(MovieLensConfig(n_users=6, n_movies=4, seed=3))
    valuations = CancelSubsets(instance.universe, max_cancelled=2, domains=("user",))
    computer = DistanceComputer(
        instance.expression,
        valuations,
        EuclideanDistance(MAX),
        DomainCombiners(),
        instance.universe,
    )
    mapping = MappingState(sorted(instance.expression.annotation_names()))
    estimate = computer.distance(instance.expression, mapping)
    assert estimate.value == 0.0
    assert estimate.n_valuations == len(valuations)


def test_summarizer_with_subsets_valuations():
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=4, seed=3))
    valuations = CancelSubsets(instance.universe, max_cancelled=2, domains=("user",))
    result = Summarizer(
        instance.problem(valuations=valuations),
        SummarizationConfig(w_dist=1.0, max_steps=3, seed=0),
    ).run()
    assert result.final_distance.n_valuations == len(valuations)


@pytest.mark.parametrize("knob", ["carry", "sample_sharing", "repair"])
def test_tri_state_knob_words(knob):
    """Every auto/on/off knob parses the same words to None/True/False
    and names itself when it rejects one."""
    for word, value in [
        ("auto", None), ("on", True), (" ON ", True), ("true", True),
        ("off", False), ("False", False), (None, None), (True, True),
    ]:
        assert getattr(SummarizationConfig(**{knob: word}), knob) is value
    with pytest.raises(ValueError) as raised:
        SummarizationConfig(**{knob: "maybe"})
    assert str(raised.value) == f"{knob} must be 'auto', 'on' or 'off', got 'maybe'"
