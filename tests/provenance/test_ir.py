"""Differential proof obligations for the interned provenance IR.

The IR (:mod:`repro.provenance.ir`) must be *unobservable* through the
``Polynomial`` API: over an explicit RNG grid of randomly built
polynomial expressions, every operation (add, mul, rename, size,
degree, coefficient, evaluate_in) must agree with
:class:`LegacyPolynomial`, a test-local dict-of-tuples model of the
seed representation replaying the same construction sequence -- exact
semirings only, so agreement is equality, not approximation.

Also covered: arithmetic across two live term stores (what
:func:`~repro.provenance.ir.install_store` produces), the
interner/arena invariants (dense stable ids, memoized products,
lazily-extended rename tables), the annotation-names cache regression
from the PR (rename must never mutate the receiver's cached name set),
and the format-version-2 serialization round-trips for term stores and
polynomials.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import serialization
from repro.provenance import ir
from repro.provenance.ir import AnnotationInterner, TermStore
from repro.provenance.polynomial import Polynomial
from repro.provenance.semirings import BOOLEAN, NATURALS
from repro.serialization import SerializationError

NAMES = ["a", "b", "c", "d", "e"]


# -- the dict-of-tuples reference ------------------------------------------------


def _monomial(names):
    return tuple(sorted(Counter(names).items()))


class LegacyPolynomial:
    """The seed ``N[Ann]`` storage: name-sorted monomial tuples → coefficient.

    Every operation is the direct definition over the terms dict, with
    nothing interned or cached -- the oracle the IR must agree with.
    """

    def __init__(self, terms=()):
        self._terms = {
            monomial: coefficient
            for monomial, coefficient in dict(terms).items()
            if coefficient
        }

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): 1})

    @classmethod
    def constant(cls, value):
        return cls({(): value})

    def terms(self):
        return dict(self._terms)

    def __eq__(self, other):
        return self._terms == other.terms()

    def __add__(self, other):
        terms = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return LegacyPolynomial(terms)

    def __mul__(self, other):
        terms = {}
        for left, left_coefficient in self._terms.items():
            for right, right_coefficient in other._terms.items():
                names = [
                    name
                    for monomial in (left, right)
                    for name, exponent in monomial
                    for _ in range(exponent)
                ]
                product = _monomial(names)
                terms[product] = (
                    terms.get(product, 0) + left_coefficient * right_coefficient
                )
        return LegacyPolynomial(terms)

    def rename(self, mapping):
        terms = {}
        for monomial, coefficient in self._terms.items():
            names = []
            for name, exponent in monomial:
                names.extend([mapping.get(name, name)] * exponent)
            renamed = _monomial(names)
            terms[renamed] = terms.get(renamed, 0) + coefficient
        return LegacyPolynomial(terms)

    def coefficient(self, names):
        return self._terms.get(_monomial(names), 0)

    def annotation_names(self):
        return frozenset(name for monomial in self._terms for name, _ in monomial)

    def degree(self):
        return max(
            (sum(exponent for _, exponent in monomial) for monomial in self._terms),
            default=0,
        )

    def size(self):
        return sum(
            coefficient * sum(exponent for _, exponent in monomial)
            for monomial, coefficient in self._terms.items()
        )

    def evaluate_in(self, semiring, valuation):
        total = semiring.zero
        for monomial, coefficient in self._terms.items():
            value = semiring.one
            for name, exponent in monomial:
                for _ in range(exponent):
                    value = semiring.times(value, valuation[name])
            for _ in range(coefficient):
                total = semiring.plus(total, value)
        return total

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for monomial, coefficient in sorted(self._terms.items()):
            factors = [
                name if exponent == 1 else f"{name}^{exponent}"
                for name, exponent in monomial
            ]
            body = "·".join(factors) if factors else "1"
            if coefficient == 1 and factors:
                parts.append(body)
            elif factors:
                parts.append(f"{coefficient}·{body}")
            else:
                parts.append(str(coefficient))
        return " + ".join(parts)


# -- random polynomial programs ----------------------------------------------------


def random_polynomial(rng, kind=Polynomial, depth=4):
    """A random N[Ann] value built by a deterministic op sequence.

    Replaying the same ``rng`` seed with ``kind=LegacyPolynomial``
    performs the *same* constructions on the reference, so the two
    results must be equal as polynomials.
    """
    choice = rng.random()
    if depth == 0 or choice < 0.35:
        leaf = rng.random()
        if leaf < 0.6:
            return kind.variable(rng.choice(NAMES))
        if leaf < 0.8:
            return kind.constant(rng.randint(0, 3))
        return kind(
            {
                tuple(
                    sorted(
                        (name, rng.randint(1, 2))
                        for name in rng.sample(NAMES, rng.randint(1, 3))
                    )
                ): rng.randint(1, 4)
            }
        )
    left = random_polynomial(rng, kind, depth - 1)
    right = random_polynomial(rng, kind, depth - 1)
    if choice < 0.65:
        return left + right
    if choice < 0.9:
        return left * right
    mapping = {name: rng.choice(NAMES + ["m0", "m1"]) for name in rng.sample(NAMES, 2)}
    return (left + right).rename(mapping)


def build_pair(seed):
    """The IR polynomial and its reference twin from one ``seed``."""
    return (
        random_polynomial(random.Random(seed)),
        random_polynomial(random.Random(seed), LegacyPolynomial),
    )


@pytest.mark.parametrize("seed", range(12))
def test_ir_vs_legacy_same_terms(seed):
    built_ir, built_legacy = build_pair(seed)
    assert built_ir.terms() == built_legacy.terms()
    assert built_legacy == built_ir
    # The same value entered as a terms dict: equal and hash-equal.
    from_terms = Polynomial(built_legacy.terms())
    assert built_ir == from_terms
    assert hash(built_ir) == hash(from_terms)
    assert built_ir.size() == built_legacy.size()
    assert built_ir.degree() == built_legacy.degree()
    assert built_ir.annotation_names() == built_legacy.annotation_names()
    assert str(built_ir) == str(built_legacy)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "semiring,values",
    [
        (BOOLEAN, (True, False)),
        (NATURALS, (0, 1, 2, 3)),
    ],
    ids=("boolean", "naturals"),
)
def test_ir_vs_legacy_evaluate_in(seed, semiring, values):
    """The universal property holds identically on the reference."""
    built_ir, built_legacy = build_pair(seed)
    rng = random.Random(seed * 31 + 7)
    names = sorted(built_ir.annotation_names() | built_legacy.annotation_names())
    for _ in range(5):
        valuation = {name: rng.choice(values) for name in names}
        assert built_ir.evaluate_in(semiring, valuation) == built_legacy.evaluate_in(
            semiring, valuation
        )


@pytest.mark.parametrize("seed", range(8))
def test_ir_vs_legacy_coefficient_lookup(seed):
    built_ir, built_legacy = build_pair(seed)
    for monomial in built_legacy.terms():
        names = [name for name, exponent in monomial for _ in range(exponent)]
        assert built_ir.coefficient(names) == built_legacy.coefficient(names)
    # Unknown names return 0 without growing the interner.
    before = len(ir.GLOBAL_STORE.interner)
    assert built_ir.coefficient(["never-interned-name"]) == 0
    assert len(ir.GLOBAL_STORE.interner) == before


@pytest.mark.parametrize("seed", range(10))
def test_rename_composition_matches_sequential(seed):
    """h2 ∘ h1 as one mapping ≡ rename(h1) then rename(h2), on the IR
    and on the reference."""
    rng = random.Random(seed)
    h1 = {name: rng.choice(["m0", "m1", name]) for name in NAMES}
    h2 = {"m0": "s", "m1": "s", "a": "s2"}

    def composed(name):
        step = h1.get(name, name)
        return h2.get(step, step)

    for kind in (Polynomial, LegacyPolynomial):
        poly = random_polynomial(random.Random(seed), kind)
        sequential = poly.rename(h1).rename(h2)
        one_shot = poly.rename(
            {name: composed(name) for name in NAMES + ["m0", "m1"]}
        )
        assert sequential == one_shot, kind.__name__
        assert sequential.terms() == one_shot.terms(), kind.__name__


@contextmanager
def fresh_global_store():
    """Install an empty process-wide store; yield the one it replaced.

    ``install_store`` is how a serving worker adopts a restored arena,
    so polynomials from two live stores meet in real runs.
    """
    previous = ir.install_store(TermStore())
    try:
        yield previous
    finally:
        ir.install_store(previous)


def test_cross_mode_arithmetic_degrades_gracefully():
    """Polynomials from two term stores mix through their terms."""
    old = Polynomial.variable("a") * Polynomial.constant(2)
    with fresh_global_store() as previous:
        # "b" is interned first here, so the two id layouts disagree.
        new = Polynomial.variable("b") + Polynomial.one()
        assert old.ir_store() is previous
        assert new.ir_store() is ir.GLOBAL_STORE
        for mixed in (old + new, new + old):
            assert mixed.ir_store() is ir.GLOBAL_STORE
            assert mixed.terms() == {
                (("a", 1),): 2,
                (("b", 1),): 1,
                (): 1,
            }
        for product in (old * new, new * old):
            assert product.ir_store() is ir.GLOBAL_STORE
            assert product.terms() == {
                (("a", 1), ("b", 1)): 2,
                (("a", 1),): 2,
            }
        twin = Polynomial.variable("a") * Polynomial.constant(2)
        assert twin == old and old == twin
        assert hash(twin) == hash(old)
        assert twin != new


# -- interner / arena invariants ---------------------------------------------------


def test_interner_ids_are_dense_and_stable():
    interner = AnnotationInterner()
    ids = [interner.intern(name) for name in ("x", "y", "x", "z", "y")]
    assert ids == [0, 1, 0, 2, 1]
    assert list(interner) == ["x", "y", "z"]
    assert interner.name_of(2) == "z"
    assert interner.names_of((2, 0)) == ("z", "x")
    assert len(interner) == 3
    assert "y" in interner and "w" not in interner


def test_interner_lookup_never_allocates():
    interner = AnnotationInterner(["x"])
    assert interner.lookup("x") == 0
    assert interner.lookup("missing") is None
    assert len(interner) == 1


def test_term_store_interns_monomials_once():
    store = TermStore()
    first = store.mono_from_name_pairs((("b", 2), ("a", 1)))
    second = store.mono_from_name_pairs((("a", 1), ("b", 2)))
    assert first == second
    assert store.mono_name_pairs(first) == (("a", 1), ("b", 2))
    assert store.mono_size(first) == 3
    assert store.n_monomials() == 2  # the empty monomial plus this one


def test_mono_product_identity_and_memo():
    store = TermStore()
    ab = store.mono_from_name_pairs((("a", 1), ("b", 1)))
    c = store.mono_from_name_pairs((("c", 1),))
    assert store.mono_product(0, ab) == ab
    assert store.mono_product(ab, 0) == ab
    product = store.mono_product(ab, c)
    assert store.mono_name_pairs(product) == (("a", 1), ("b", 1), ("c", 1))
    # Commutes through the memo: the symmetric call is the same id.
    assert store.mono_product(c, ab) == product
    squared = store.mono_product(ab, ab)
    assert store.mono_name_pairs(squared) == (("a", 2), ("b", 2))


def test_rename_table_extends_after_interner_growth():
    store = TermStore()
    a = store.mono_from_name_pairs((("a", 1),))
    table = store.rename_table({"a": "merged", "late": "merged"})
    renamed_a = store.rename_mono(a, table)
    assert store.mono_name_pairs(renamed_a) == (("merged", 1),)
    # A name interned *after* the table was compiled must still remap.
    late = store.mono_from_name_pairs((("late", 1),))
    table_again = store.rename_table({"a": "merged", "late": "merged"})
    assert table_again is table  # cached per mapping
    assert store.mono_name_pairs(store.rename_mono(late, table_again)) == (
        ("merged", 1),
    )


def test_rename_merges_colliding_monomials():
    poly = Polynomial.variable("a") + Polynomial.variable("b")
    merged = poly.rename({"a": "s", "b": "s"})
    assert merged.terms() == {(("s", 1),): 2}
    assert merged.size() == 2


def test_store_stats_report_growth():
    store = TermStore()
    baseline = store.stats()
    assert baseline["monomials"] == 1
    store.mono_from_name_pairs((("a", 1), ("b", 3)))
    grown = store.stats()
    assert grown["interned_annotations"] == 2
    assert grown["monomials"] == 2
    assert grown["arena_bytes"] > baseline["arena_bytes"]


# -- the annotation-names cache (PR regression) ------------------------------------


def test_rename_does_not_mutate_cached_annotation_names():
    """``annotation_names`` is cached per instance; renaming must hand
    back a *new* polynomial with its own (correct) name set and leave
    the receiver's cache untouched."""
    poly = Polynomial.variable("a") * Polynomial.variable("b")
    before = poly.annotation_names()
    assert before == frozenset({"a", "b"})
    renamed = poly.rename({"a": "s", "b": "s"})
    assert renamed.annotation_names() == frozenset({"s"})
    # The receiver's cached set is the same object, unchanged.
    assert poly.annotation_names() is before
    assert poly.annotation_names() == frozenset({"a", "b"})
    # And the cache is per instance, never shared with the result.
    assert renamed.annotation_names() is not before


def test_annotation_names_cache_is_consistent_after_arithmetic():
    left = Polynomial.variable("a")
    right = Polynomial.variable("b")
    assert left.annotation_names() == frozenset({"a"})
    total = left + right
    assert total.annotation_names() == frozenset({"a", "b"})
    assert left.annotation_names() == frozenset({"a"})
    assert right.annotation_names() == frozenset({"b"})


# -- serialization (format version 2) ----------------------------------------------


def make_store():
    store = TermStore()
    store.mono_from_name_pairs((("a", 1),))
    store.mono_from_name_pairs((("a", 2), ("b", 1)))
    store.mono_from_name_pairs((("c", 3),))
    return store


def assert_same_arena(rebuilt, original):
    assert list(rebuilt.interner) == list(original.interner)
    assert rebuilt.n_monomials() == original.n_monomials()
    for mono in range(original.n_monomials()):
        assert rebuilt.mono_name_pairs(mono) == original.mono_name_pairs(mono)
        assert rebuilt.mono_size(mono) == original.mono_size(mono)


def test_term_store_dict_round_trip():
    store = make_store()
    payload = serialization.term_store_to_dict(store)
    assert payload["version"] == serialization.FORMAT_VERSION
    assert payload["kind"] == "term_store"
    assert_same_arena(serialization.term_store_from_dict(payload), store)


def test_term_store_bytes_round_trip():
    store = make_store()
    blob = serialization.term_store_to_bytes(store)
    assert blob.startswith(b"PROXIR")
    assert_same_arena(serialization.term_store_from_bytes(blob), store)


def test_term_store_bytes_rejects_bad_magic_and_truncation():
    store = make_store()
    blob = serialization.term_store_to_bytes(store)
    with pytest.raises(SerializationError, match="bad magic"):
        serialization.term_store_from_bytes(b"NOTPROX" + blob)
    with pytest.raises(SerializationError, match="truncated"):
        serialization.term_store_from_bytes(blob[: len(blob) - 9])


def test_term_store_dict_rejects_malformed_payloads():
    store = make_store()
    good = serialization.term_store_to_dict(store)
    with pytest.raises(SerializationError, match="expected kind"):
        serialization.term_store_from_dict({**good, "kind": "polynomial"})
    with pytest.raises(SerializationError, match="bounds must start at 0"):
        serialization.term_store_from_dict(
            {**good, "bounds": [1] + good["bounds"][1:]}
        )
    with pytest.raises(SerializationError, match="do not cover"):
        serialization.term_store_from_dict(
            {**good, "bounds": good["bounds"][:-1] + [good["bounds"][-1] + 2]}
        )
    with pytest.raises(SerializationError, match="unknown annotation id"):
        serialization.term_store_from_dict({**good, "annotations": ["a"]})
    with pytest.raises(SerializationError, match="newer than supported"):
        serialization.term_store_from_dict(
            {**good, "version": serialization.FORMAT_VERSION + 1}
        )


def test_term_store_rejects_non_canonical_arenas():
    store = make_store()
    good = serialization.term_store_to_dict(store)
    # Duplicate the first real monomial: ids can no longer be preserved.
    first_len = good["bounds"][2] - good["bounds"][1]
    duplicated = {
        **good,
        "pair_data": good["pair_data"]
        + good["pair_data"][good["bounds"][1] : good["bounds"][2]],
        "bounds": good["bounds"] + [good["bounds"][-1] + first_len],
    }
    with pytest.raises(SerializationError, match="not canonical"):
        serialization.term_store_from_dict(duplicated)


@pytest.mark.parametrize("source", ("ir", "legacy"))
@pytest.mark.parametrize("seed", range(6))
def test_polynomial_dict_round_trip_is_mode_independent(source, seed):
    """``ir`` builds the polynomial by IR arithmetic, ``legacy`` enters
    the reference model's terms dict; either way the payload round-trips
    and restores into a second, differently laid out store."""
    if source == "ir":
        poly = random_polynomial(random.Random(seed))
    else:
        poly = Polynomial(
            random_polynomial(random.Random(seed), LegacyPolynomial).terms()
        )
    payload = serialization.polynomial_to_dict(poly)
    assert payload["version"] == serialization.FORMAT_VERSION
    restored = serialization.polynomial_from_dict(payload)
    assert restored == poly
    assert restored.terms() == poly.terms()
    with fresh_global_store():
        elsewhere = serialization.polynomial_from_dict(payload)
        assert elsewhere.ir_store() is not poly.ir_store()
        assert elsewhere.terms() == poly.terms()
        assert elsewhere == poly


def test_polynomial_dict_is_json_stable():
    """Equal polynomials from two stores serialize to the same JSON."""

    def build():
        return (Polynomial.variable("a") + Polynomial.variable("b")) * (
            Polynomial.variable("b") + Polynomial.constant(2)
        )

    here = build()
    with fresh_global_store():
        Polynomial.variable("b")  # shift the id layout of the new store
        there = build()
    assert there.ir_store() is not here.ir_store()
    assert serialization.dumps(
        serialization.polynomial_to_dict(here)
    ) == serialization.dumps(serialization.polynomial_to_dict(there))


def test_polynomial_dict_rejects_malformed_payloads():
    payload = serialization.polynomial_to_dict(Polynomial.variable("a"))
    with pytest.raises(SerializationError, match="differ in length"):
        serialization.polynomial_from_dict({**payload, "coefficients": []})
    with pytest.raises(SerializationError, match="malformed polynomial"):
        serialization.polynomial_from_dict({**payload, "monomials": [99]})
    with pytest.raises(SerializationError, match="malformed polynomial"):
        broken = dict(payload)
        del broken["pair_data"]
        serialization.polynomial_from_dict(broken)


# -- tracing -----------------------------------------------------------------------


@pytest.fixture
def enabled_tracing():
    from repro.observability import tracing

    original = tracing.is_enabled()
    tracing.set_enabled(True)
    tracing.take_trace()
    yield tracing
    tracing.set_enabled(original)
    tracing.take_trace()


def test_polynomial_rename_records_a_span(enabled_tracing):
    tracing = enabled_tracing
    poly = Polynomial.variable("a") + Polynomial.variable("b")
    with tracing.span("root"):
        poly.rename({"a": "s"})
    root = tracing.take_trace()
    rename = root.find("rename")
    assert rename is not None
    assert rename.attributes["n_terms"] == 2


def test_rename_span_is_null_when_tracing_disabled():
    from repro.observability import tracing

    assert not tracing.is_enabled()
    renamed = Polynomial.variable("a").rename({"a": "s"})
    assert renamed.terms() == {(("s", 1),): 1}
    assert tracing.take_trace() is None


def test_publish_metrics_exports_gauges():
    from repro.observability import metrics as metrics_module

    interner = AnnotationInterner(["a", "b", "c"])
    store = TermStore()
    store.mono_from_name_pairs((("x", 1),))
    ir.publish_metrics(interner=interner, store=store)
    rendered = metrics_module.REGISTRY.render()
    assert "repro_ir_interned_annotations 3" in rendered
    assert f"repro_ir_arena_bytes {store.arena_bytes()}" in rendered
    # Restore the process-wide gauges to the global store's truth.
    ir.publish_metrics()
