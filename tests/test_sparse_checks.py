"""The sparse axiom checks against the dense reference scans.

``verify_equipped`` walks only the basis pairs and triples that a stored
product or form entry reaches; :func:`cardyfrob.oracles.dense_axiom_oracle`
scans all of them.  Both must report the same :class:`CheckResult`, witness
included, on real algebras, on copies with one corrupted structure constant
or form entry, and on random (mostly non-associative) sparse algebras with a
random star permutation.
"""

from __future__ import annotations

import copy
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob import (
    AlgebraElement,
    CheckResult,
    EquippedFrobeniusAlgebra,
    build_group,
    cardy_from_pair,
    dense_axiom_oracle,
    subgroup_closure,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob.cardy import _check_form_from_traces
from cardyfrob.frobenius import (
    _check_associativity,
    _check_dual_reconstruction,
    _check_form_invariance,
    _check_form_symmetric,
    _check_involution_antiautomorphism,
)
from cardyfrob.oracles import _dense_associativity
from test_lattice import permutations_of_degree

PINNED_PAIRS = ["z2", "z3", "s3", "s3_k01", "a5_k0123"]
DENSE_NAMES = (
    "associativity",
    "form-symmetric",
    "form-invariance",
    "involution-antiautomorphism",
)


def sparse_results(alg: EquippedFrobeniusAlgebra):
    return [result for result in verify_equipped(alg) if result.name in DENSE_NAMES]


def sparse_checks(alg: EquippedFrobeniusAlgebra):
    """The checks of ``DENSE_NAMES`` alone, without inverting the pairing."""
    return [
        _check_associativity(alg),
        _check_form_symmetric(alg),
        _check_form_invariance(alg),
        _check_involution_antiautomorphism(alg),
    ]


def with_form_entry(alg: EquippedFrobeniusAlgebra, i: int, j: int, delta):
    """A copy of ``alg`` whose stored pairing entry ``F_ij`` is off by ``delta``,
    with no pairing inverse or Casimir element carried over from ``alg``."""
    rows = [dict(row) for row in alg.form]
    rows[i][j] = rows[i].get(j, 0) + delta
    broken = copy.copy(alg)
    broken.form = tuple(rows)
    broken._form_inverse = broken._casimir = broken._twisted_casimir = None
    return broken


def with_constant(
    alg: EquippedFrobeniusAlgebra, i: int, j: int, k: int, value
) -> EquippedFrobeniusAlgebra:
    """A copy of ``alg`` whose constant ``c_ij^k`` is ``value``."""
    products = {
        (alg.basis[a], alg.basis[b]): {
            alg.basis[out]: c for out, c in alg.pair_products(a, b).items()
        }
        for a in range(alg.dim)
        for b in range(alg.dim)
    }
    products[(alg.basis[i], alg.basis[j])][alg.basis[k]] = value
    return EquippedFrobeniusAlgebra(
        basis=alg.basis,
        products=products,
        linear_form=dict(zip(alg.basis, alg.linear_form)),
        involution={label: alg.star_label(label) for label in alg.basis},
        unit=dict(alg.unit.coeffs),
    )


def corruptions(alg: EquippedFrobeniusAlgebra, seed: int, count: int = 3):
    """Seeded single-constant corruptions: stored constants and zero ones."""
    rng = random.Random(seed)
    stored = [
        (i, j, k)
        for i in range(alg.dim)
        for j in range(alg.dim)
        for k in alg.pair_products(i, j)
    ]
    triples = rng.sample(stored, min(count, len(stored)))
    triples += [tuple(rng.randrange(alg.dim) for _ in range(3)) for _ in range(count)]
    for i, j, k in triples:
        old = alg.pair_products(i, j).get(k, 0)
        yield (i, j, k), with_constant(alg, i, j, k, old + 1)


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_sparse_checks_match_dense_reference(suite_algebras, name):
    h = suite_algebras[name]
    for alg in (h.A, h.B):
        results = sparse_results(alg)
        assert results == dense_axiom_oracle(alg)
        assert all(result.passed for result in results)


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_constant_matches_dense_reference(suite_algebras, name):
    b = suite_algebras[name].B
    failed = 0
    for triple, broken in corruptions(b, seed=sum(name.encode("utf-8"))):
        results = sparse_results(broken)
        assert results == dense_axiom_oracle(broken), (name, triple)
        failed += not all(result.passed for result in results)
    assert failed, f"no corruption of {name} broke associativity or invariance"


def test_corrupted_constant_breaks_cardy_checks(suite_algebras):
    h = suite_algebras["s3_k01"]
    broken = with_constant(h.B, 1, 1, 0, h.B.pair_products(1, 1).get(0, 0) + 1)
    results = {r.name: r for r in verify_cardy_frobenius(replace(h, B=broken))}
    assert not results["nu-multiplicative"].passed
    assert results["nu-multiplicative"].witness.startswith("(b1, b1) at ")
    assert not results["cardy"].passed


@pytest.mark.parametrize(("name", "count"), [("s3_k01", None), ("a5_k0123", 12)])
def test_corrupted_form_entry_breaks_form_from_traces(suite_algebras, name, count):
    # Every entry of the s3_k01 pairing, and a seeded sample for a5_k0123
    # (zero and nonzero entries alike); the witness is the corrupted pair.
    h = suite_algebras[name]
    traces = h.catalog.trace_counts()
    assert _check_form_from_traces(h, traces).passed
    entries = [(i, j) for i in range(h.B.dim) for j in range(h.B.dim)]
    if count is not None:
        entries = random.Random(sum(name.encode("utf-8"))).sample(entries, count)
    for i, j in entries:
        broken = with_form_entry(h.B, i, j, Fraction(1, 7))
        witness = f"({h.B.basis[i]}, {h.B.basis[j]})"
        assert _check_form_from_traces(replace(h, B=broken), traces) == CheckResult(
            "form-from-traces", False, witness
        )
        assert sparse_checks(broken) == dense_axiom_oracle(broken), (name, i, j)
        # A second corrupted entry later in the row leaves the witness as is.
        if j + 1 < h.B.dim:
            twice = with_form_entry(broken, i, j + 1, Fraction(1, 7))
            assert _check_form_from_traces(replace(h, B=twice), traces).witness == witness


def test_corrupted_form_row_breaks_dual_reconstruction(suite_algebras):
    # Each row of the a5_k0123 pairing, off by 1/7 at its one nonzero entry:
    # the pairings are recomputed from the products, so the dual basis taken
    # from the corrupted form fails to reconstruct e_i, or the unit first when
    # e_i is one of its terms.
    b = suite_algebras["a5_k0123"].B
    assert _check_dual_reconstruction(b).passed
    for i, label in enumerate(b.basis):
        (j,) = b.form[i]
        broken = with_form_entry(b, i, j, Fraction(1, 7))
        witness = "1" if label in b.unit.coeffs else label
        assert _check_dual_reconstruction(broken) == CheckResult(
            "dual-reconstruction", False, witness
        ), label


def test_integral_constants_are_stored_as_int(suite_algebras):
    for h in suite_algebras.values():
        for alg in (h.A, h.B):
            for _, _, expansion in alg.stored_products():
                assert all(type(value) is int for value in expansion.values())
    alg = EquippedFrobeniusAlgebra(
        basis=["e", "x"],
        products={
            ("e", "e"): {"e": Fraction(2, 2)},
            ("e", "x"): {"x": 1},
            ("x", "e"): {"x": Fraction(1, 2)},
            ("x", "x"): {"e": Fraction(-3), "x": 0},
        },
        linear_form={"e": 1},
        involution={"e": "e", "x": "x"},
        unit={"e": 1},
    )
    assert list(alg.stored_products()) == [
        (0, 0, {0: 1}),
        (0, 1, {1: 1}),
        (1, 0, {1: Fraction(1, 2)}),
        (1, 1, {0: -3}),
    ]
    assert [type(v) for _, _, e in alg.stored_products() for v in e.values()] == [
        int,
        int,
        Fraction,
        int,
    ]


# -- the associativity walk -----------------------------------------------------


@pytest.mark.parametrize("name", ["s4", "a5_k0123"])
def test_associativity_walk_passes_on_B(suite_algebras, name):
    assert _check_associativity(suite_algebras[name].B).passed


def stored_triple(alg: EquippedFrobeniusAlgebra) -> tuple[int, int, int]:
    """The ``(i, j, k)`` of the middle stored constant ``c_ij^k``."""
    pairs = sorted((i, j) for i, j, _ in alg.stored_products())
    i, j = pairs[len(pairs) // 2]
    return i, j, min(alg.pair_products(i, j))


def test_fraction_constant_takes_the_full_walk(suite_algebras):
    b = suite_algebras["a5_k0123"].B
    i, j, k = stored_triple(b)
    broken = with_constant(b, i, j, k, b.pair_products(i, j)[k] + Fraction(1, 2))
    result = _check_associativity(broken)
    assert not result.passed
    assert result == dense_axiom_oracle(broken)[0]


def test_failing_certificate_walk_reports_the_dense_witness(suite_algebras):
    b = suite_algebras["a5_k0123"].B
    i, j, k = stored_triple(b)
    broken = with_constant(b, i, j, k, b.pair_products(i, j)[k] + 1)
    result = _check_associativity(broken)
    assert not result.passed
    assert result == dense_axiom_oracle(broken)[0]


@pytest.mark.parametrize("scale", [6, Fraction(1, 2)], ids=["six", "half"])
def test_power_algebra_is_associative(scale):
    # x^0, ..., x^4 with x^a x^b = scale * x^(a+b) for a, b >= 1 and x^0 the
    # unit: associative, with integral constants when the scale is 6 and
    # fractional ones when it is 1/2.
    basis = [f"x{a}" for a in range(5)]
    products = {
        (f"x{a}", f"x{b}"): {f"x{a + b}": scale if a and b else 1}
        for a in range(5)
        for b in range(5 - a)
    }
    alg = EquippedFrobeniusAlgebra(
        basis=basis,
        products=products,
        linear_form={"x4": 1},
        involution={label: label for label in basis},
        unit={"x0": 1},
    )
    passed = CheckResult("associativity", True)
    assert _check_associativity(alg) == _dense_associativity(alg) == passed


@settings(max_examples=20, deadline=None)
@given(generators=permutations_of_degree, data=st.data())
def test_random_pairs_match_the_dense_associativity_scan(generators, data):
    # B of a random (G, K) passes the associativity walk; one stored constant
    # raised by 1 gives the dense scan's result (the associativity entry of
    # dense_axiom_oracle, without the other scans).  verify_equipped through
    # the permutation model that build_B attaches equals verify_equipped on
    # the same B without it, intact and broken.
    group = build_group(len(generators[0]), generators)
    elements = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    b = cardy_from_pair(group, subgroup_closure(group, elements)).B
    assert _check_associativity(b).passed
    assert verify_equipped(b) == verify_equipped(b.permuted(b.basis))
    stored = [(i, j, k) for i, j, expansion in b.stored_products() for k in expansion]
    i, j, k = data.draw(st.sampled_from(stored))
    broken = with_constant(b, i, j, k, b.pair_products(i, j)[k] + 1)
    assert _check_associativity(broken) == _dense_associativity(broken)
    modelled = copy.copy(broken)
    modelled._model = b._model
    assert verify_equipped(modelled) == verify_equipped(broken)


# -- random sparse algebras ------------------------------------------------------

small_ints = st.integers(min_value=-2, max_value=2)
constants = st.one_of(
    small_ints, st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=3))
)


@st.composite
def sparse_algebra_inputs(draw):
    # About half the draws have integral structure constants and the others
    # mix in Fractions; the linear form may be fractional in either.
    dim = draw(st.integers(min_value=2, max_value=5))
    basis = [f"e{i}" for i in range(dim)]
    index = st.integers(min_value=0, max_value=dim - 1)
    values = small_ints if draw(st.booleans()) else constants
    triples = draw(
        st.dictionaries(
            st.tuples(index, index, index), values, min_size=dim, max_size=dim * dim
        )
    )
    products: dict = {}
    for (i, j, k), value in triples.items():
        products.setdefault((basis[i], basis[j]), {})[basis[k]] = value
    linear_form = draw(
        st.dictionaries(st.sampled_from(basis), constants, min_size=1, max_size=dim)
    )
    star = draw(st.permutations(basis))
    return {
        "basis": basis,
        "products": products,
        "linear_form": linear_form,
        "involution": dict(zip(basis, star)),
        "unit": {basis[0]: 1},
    }


def sparse_algebras():
    """The algebras of :func:`sparse_algebra_inputs`, built by the label constructor."""
    return sparse_algebra_inputs().map(lambda inputs: EquippedFrobeniusAlgebra(**inputs))


@settings(max_examples=200, deadline=None)
@given(sparse_algebras())
def test_random_sparse_algebras_match_dense_reference(alg):
    assert sparse_checks(alg) == dense_axiom_oracle(alg)


@settings(max_examples=200, deadline=None)
@given(sparse_algebras(), st.data())
def test_index_product_matches_multiply(alg, data):
    coeffs = st.dictionaries(st.integers(0, alg.dim - 1), constants, max_size=alg.dim)
    x, y = data.draw(coeffs), data.draw(coeffs)
    product = alg.index_product(x, y)
    labelled = alg.multiply(
        AlgebraElement({alg.basis[i]: value for i, value in x.items()}),
        AlgebraElement({alg.basis[i]: value for i, value in y.items()}),
    )
    assert AlgebraElement({alg.basis[k]: value for k, value in product.items()}) == labelled
    # sum_{i,j,k} x_i y_j c_ij^k e_k over every basis pair, as a reference.
    expected = {
        alg.basis[k]: sum(
            x.get(i, 0) * y.get(j, 0) * alg.pair_products(i, j).get(k, 0)
            for i in range(alg.dim)
            for j in range(alg.dim)
        )
        for k in range(alg.dim)
    }
    assert labelled == AlgebraElement(expected)
