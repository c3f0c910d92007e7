"""Brute-force oracles and their agreement with the algebraic evaluation.

:func:`dense_trace` is the dense reference for the covering oracle on small
pairs: ``(1/|N|) tr`` of integer matrix products in the permutation model.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardyfrob import (
    CardyFrobeniusAlgebra,
    InputError,
    ResourceError,
    SurfaceSpec,
    build_conjugation_setup,
    build_group,
    bundled_input,
    cardy_from_pair,
    closed_nonorientable_oracle,
    closed_orientable_oracle,
    commutator_casimir_check,
    covering_oracle,
    cut_check_boundary,
    evaluate,
    oracle_for_spec,
    subgroup_closure,
)
from cardyfrob.linalg import mat_mul, power
from cardyfrob.oracles import _permutation_model, b_side_value
from conftest import SUITE_DOCUMENTS, algebra_for, bounded_corpus_for, corpus_seed
from test_index_construction import traced
from test_lattice import permutations_up_to, seeded_permutations_up_to


def dense_trace(h: CardyFrobeniusAlgebra, spec: SurfaceSpec) -> Fraction:
    """``(1/|N|) tr(rho(E_alpha_1) .. rho(K_A)^g W_1 tau(W_2) .. tau(W_s))``
    by dense integer matrices, ``rho(U)`` to the crosscap count in place of
    ``rho(K_A)^g``.

    ``W_j`` is the product of the ``nu`` matrices of contour ``j``, ``tau(W)
    = sum_b |Aut b| nu(b) W nu(b*)`` wraps each contour past the first in
    the Casimir legs, ``rho(K_A) = sum_a |Aut a| rho(E_a) rho(E_a*)`` and
    ``rho(U) = sum_n rho(n^2)``.  No structure constant of ``A`` or ``B`` is
    read.
    """
    catalog, model = h.catalog, _permutation_model(h)
    rho, nu = model.rho_class, model.nu
    size, n_group = catalog.nset.size, catalog.nset.group
    identity = [[int(i == j) for j in range(size)] for i in range(size)]

    def weighted(terms) -> list[list[int]]:
        total = [[0] * size for _ in range(size)]
        for weight, matrix in terms:
            for target, row in zip(total, matrix):
                for j, entry in enumerate(row):
                    target[j] += weight * entry
        return total

    def product(matrices) -> list[list[int]]:
        out = identity
        for matrix in matrices:
            out = mat_mul(out, matrix)
        return out

    if spec.orientable:
        ka = weighted(
            (field.aut_order, mat_mul(rho[field.label], rho[field.star]))
            for field in catalog.interior
        )
        surface = power(ka, int(spec.genus), mat_mul, identity)
    else:
        u = [[0] * size for _ in range(size)]
        for n in range(n_group.order):
            for y, x in enumerate(catalog.nset.act_table[n_group.mul(n, n)]):
                u[x][y] += 1
        surface = power(u, spec.crosscaps, mat_mul, identity)
    matrix = product([*(rho[label] for label in spec.interior), surface])
    for position, contour in enumerate(spec.boundary):
        word = product(nu[label] for label in contour)
        if position:
            word = weighted(
                (field.aut_order, mat_mul(nu[field.label], mat_mul(word, nu[field.star])))
                for field in catalog.boundary
            )
        matrix = mat_mul(matrix, word)
    return Fraction(sum(matrix[i][i] for i in range(size)), n_group.order)


def disc(*labels: str) -> SurfaceSpec:
    """The disc with one contour carrying ``labels``."""
    return SurfaceSpec(True, 0, (), (labels,))


def test_closed_orientable_small_values(suite_algebras):
    h = suite_algebras["z2"]
    n_group = h.catalog.nset.group
    assert closed_orientable_oracle(n_group, 0, []).value == Fraction(1, 2)
    assert closed_orientable_oracle(n_group, 1, []).value == 2
    a1 = h.catalog.interior_field("a1")
    assert closed_orientable_oracle(n_group, 0, [a1, a1]).value == Fraction(1, 2)
    assert closed_orientable_oracle(n_group, 0, [a1]).value == 0


def test_closed_nonorientable_small_values(suite_algebras):
    h = suite_algebras["z2"]
    n_group = h.catalog.nset.group
    assert closed_nonorientable_oracle(n_group, 1, []).value == 1
    assert closed_nonorientable_oracle(n_group, 2, []).value == 2
    z3 = suite_algebras["z3"].catalog.nset.group
    assert closed_nonorientable_oracle(z3, 1, []).value == Fraction(1, 3)


def test_closed_oracle_input_validation(suite_algebras):
    h = suite_algebras["z2"]
    n_group = h.catalog.nset.group
    with pytest.raises(InputError):
        closed_orientable_oracle(n_group, -1, [])
    with pytest.raises(InputError):
        closed_nonorientable_oracle(n_group, 0, [])
    # fields must belong to the same N
    other = suite_algebras["z3"].catalog.interior_field("a1")
    with pytest.raises(InputError):
        closed_orientable_oracle(n_group, 0, [other])


def test_tuple_domain_reporting(suite_algebras):
    h = suite_algebras["z2"]
    n_group = h.catalog.nset.group
    a1 = h.catalog.interior_field("a1")
    assert closed_orientable_oracle(n_group, 1, []).tuples_examined == 4
    assert closed_orientable_oracle(n_group, 2, [a1]).tuples_examined == 16
    assert closed_nonorientable_oracle(n_group, 3, []).tuples_examined == 8
    assert covering_oracle(h.catalog, disc("b0")).tuples_examined == 0
    assert covering_oracle(h.catalog, disc("b0", "b0")).tuples_examined == 0


def test_tuple_bound_enforced(suite_algebras):
    h = suite_algebras["s4"]
    n_group = h.catalog.nset.group
    with pytest.raises(ResourceError):
        closed_orientable_oracle(n_group, 2, [], tuple_bound=1000)
    with pytest.raises(ResourceError):
        closed_nonorientable_oracle(n_group, 4, [], tuple_bound=1000)
    # The covering oracle estimates its steps before it counts.
    with pytest.raises(ResourceError, match="exceeds the bound 1000"):
        covering_oracle(h.catalog, disc("b1", "b2"), tuple_bound=1000)
    with pytest.raises(ResourceError):
        oracle_for_spec(h, disc("b1", "b2"), tuple_bound=1000)


def test_trace_oracle_z2_values(suite_algebras):
    h = suite_algebras["z2"]
    assert covering_oracle(h.catalog, disc("b1", "b2")).value == Fraction(1, 2)
    cylinder = SurfaceSpec(True, 0, (), (("b0",), ("b0",)))
    assert covering_oracle(h.catalog, cylinder).value == 1
    with pytest.raises(InputError):
        covering_oracle(h.catalog, SurfaceSpec(True, 0))


def test_t_tensor_oracle_z2(suite_algebras):
    # The t-tensor l_B(b_1 .. b_m) is the disc with one contour and nothing
    # else: closed chains through the contour's orbits, over |N|.
    catalog = suite_algebras["z2"].catalog
    assert covering_oracle(catalog, disc("b1", "b2")).value == Fraction(1, 2)
    assert covering_oracle(catalog, disc("b1", "b1")).value == 0
    assert covering_oracle(catalog, disc("b0")).value == Fraction(1, 2)
    with pytest.raises(InputError):
        covering_oracle(catalog, disc())


def test_t_tensor_matches_chain_products(suite_algebras):
    # l_B of a product of boundary basis vectors counts closed chains.
    h = suite_algebras["s3"]
    b = h.B
    for labels in [
        ("b0",),
        ("b1", "b2"),
        ("b3", "b3"),
        ("b2", "b5", "b1"),
        ("b4", "b4", "b4", "b4"),
    ]:
        product = b.product(b.basis_element(label) for label in labels)
        assert covering_oracle(h.catalog, disc(*labels)).value == b.linear(product), labels


@pytest.mark.parametrize("name", ["z2", "z3", "s3", "s3_k01", "a5_k0123"])
def test_t_tensor_oracle_matches_structure_constants(suite_algebras, name):
    # l_B(b_i b_j b_l) = sum_k c_ij^k F_kl must count the closed 3-chains
    # through the orbits i, j, l: an independent check of every constant.
    h = suite_algebras[name]
    b = h.B
    for i, left in enumerate(b.basis):
        for j, middle in enumerate(b.basis):
            expansion = b.pair_products(i, j)
            for l, right in enumerate(b.basis):
                expected = sum(
                    (value * b.form[k].get(l, 0) for k, value in expansion.items()),
                    Fraction(0),
                )
                chains = covering_oracle(h.catalog, disc(left, middle, right)).value
                assert chains == expected, (name, left, middle, right)


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_interior_fields_on_a_disc(suite_algebras, name):
    # l_B(phi(E_alpha) b) for every interior field and every boundary field:
    # the random corpora seldom give an interior field a nonzero value.
    h = suite_algebras[name]
    for alpha, beta in iter_product(h.catalog.interior_labels, h.catalog.boundary_labels):
        spec = SurfaceSpec(True, 0, (alpha,), ((beta,),))
        value = covering_oracle(h.catalog, spec).value
        assert value == evaluate(h, spec).value, spec
        if name == "s3":
            assert value == dense_trace(h, spec), spec


def test_later_contours_are_counted_at_inverses():
    # A4 (K = 1) has two classes of 3-cycles, each the inverse of the other,
    # so a contour past the first must be read at n^-1: every class of the
    # suite's groups is its own inverse, where n and n^-1 agree.
    group = build_group(4, [[1, 2, 0, 3], [0, 2, 3, 1]])
    h = cardy_from_pair(group, subgroup_closure(group, []))
    labels = h.catalog.boundary_labels
    for first, second in iter_product(labels, repeat=2):
        spec = SurfaceSpec(True, 0, (), ((first,), (second,)))
        value = covering_oracle(h.catalog, spec).value
        assert value == evaluate(h, spec).value, spec
        if first == second:
            assert value == dense_trace(h, spec), spec


@settings(max_examples=20, deadline=None)
@given(generators=permutations_up_to(5), data=st.data())
def test_covering_oracle_matches_evaluation_on_random_pairs(generators, data):
    group = build_group(len(generators[0]), generators)
    elements = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    h = cardy_from_pair(group, subgroup_closure(group, elements))
    interior, boundary = h.catalog.interior_labels, h.catalog.boundary_labels
    orientable = data.draw(st.booleans())
    genus = data.draw(st.integers(0, 1) if orientable else st.sampled_from(["1/2", "1"]))
    contour = st.lists(st.sampled_from(boundary), min_size=1, max_size=2).map(tuple)
    spec = SurfaceSpec(
        orientable,
        Fraction(genus),
        tuple(data.draw(st.lists(st.sampled_from(interior), max_size=1))),
        tuple(data.draw(st.lists(contour, min_size=2, max_size=2))),
    )
    assert covering_oracle(h.catalog, spec).value == evaluate(h, spec).value, spec
    result = cut_check_boundary(h, spec)
    assert result.passed, (spec, result.witness)


@settings(max_examples=20, deadline=None)
@given(generators=seeded_permutations_up_to(5), data=st.data())
def test_evaluation_matches_the_b_side_formula_on_random_pairs(generators, data):
    # evaluate pairs phi*(W) with the A factor in A; b_side_value multiplies
    # phi(a) into the contour word in B, and covering_oracle counts paths.
    # One drawn spec of one to three contours and, where N has a class
    # besides the identity, three of positive value.  A5 with K = 1 has 59
    # points and S5 with K = 1 156, so |X| is at most 60.
    group = build_group(len(generators[0]), generators)
    k = subgroup_closure(group, data.draw(st.lists(st.integers(0, group.order - 1), max_size=2)))
    setup = build_conjugation_setup(group, k)
    assume(setup.nset.size <= 60)
    h = algebra_for(setup)
    interior, boundary = h.catalog.interior_labels, h.catalog.boundary_labels
    orientable = data.draw(st.booleans())
    genus = data.draw(st.integers(0, 1) if orientable else st.sampled_from(["1/2", "1"]))
    contour = st.lists(st.sampled_from(boundary), min_size=1, max_size=3).map(tuple)
    specs = [
        SurfaceSpec(
            orientable,
            Fraction(genus),
            tuple(data.draw(st.lists(st.sampled_from(interior), max_size=2))),
            tuple(data.draw(st.lists(contour, min_size=1, max_size=3))),
        )
    ]
    if setup.nset.group.order > 1:
        specs += bounded_corpus_for(h, seed=data.draw(st.integers(0, 2**32 - 1)), size=3)
    for spec in specs:
        value = evaluate(h, spec).value
        assert value == b_side_value(h, spec) == covering_oracle(h.catalog, spec).value, spec


def test_evaluation_matches_the_b_side_formula_on_a5(a5):
    # The drawn pairs above rarely reach A5 with K = 1 (59 points, dim B =
    # 142), the pair of the benchmark's hurwitz-batch workload, so it is a
    # fixed case here.  Bounded specs in that workload's shapes: genus 0, 0-1
    # interior fields and 1-3 contours of 1-3 drawn labels, two of each
    # shape, and ten of positive value from bounded_corpus_for.  Closed
    # specs: the four values without fields.
    assert (a5.catalog.nset.size, a5.B.dim) == (59, 142)
    rng = random.Random(corpus_seed("hurwitz-batch/a5"))
    interior, boundary = a5.catalog.interior_labels, a5.catalog.boundary_labels

    def labels(pool, count):
        return tuple(rng.choice(pool) for _ in range(count))

    shapes = iter_product(range(2), range(1, 4), range(1, 4), range(2))
    specs = [
        SurfaceSpec(True, 0, labels(interior, k), tuple(labels(boundary, n) for _ in range(c)))
        for k, c, n, _ in shapes
    ]
    specs += bounded_corpus_for(a5, seed=corpus_seed("bounded/a5"), size=10)
    values = [evaluate(a5, spec).value for spec in specs]
    assert sum(1 for value in values if value) >= 10
    for spec, value in zip(specs, values):
        assert value == b_side_value(a5, spec) == covering_oracle(a5.catalog, spec).value, spec
    for orientable, genus, value in [
        (True, 0, Fraction(1, 60)),
        (True, 1, 5),
        (False, Fraction(1, 2), Fraction(4, 15)),
        (False, 1, 5),
    ]:
        spec = SurfaceSpec(orientable, Fraction(genus))
        assert evaluate(a5, spec).value == value == oracle_for_spec(a5, spec).value, spec


def test_covering_oracle_allocates_no_list_of_every_cell(a6_catalog):
    # A6 with K = 1, 501 points: a list of |X|^2 entries takes 8 |X|^2 bytes
    # of pointers alone, about 2 MB; the oracle's traced peak stays below it.
    size = a6_catalog.nset.size
    document = json.loads(bundled_input("surfaces/disc_pair.json").read_text())
    spec = SurfaceSpec.from_document(document)
    result, _, peak = traced(covering_oracle, a6_catalog, spec)
    assert result.tuples_examined == 0
    assert peak < 8 * size * size, peak


def test_commutator_casimir(suite_algebras):
    for name, h in suite_algebras.items():
        result = commutator_casimir_check(h)
        assert result.passed, (name, result.witness)


def test_oracle_dispatch(suite_algebras):
    h = suite_algebras["z2"]
    closed_spec = SurfaceSpec(True, 1)
    bounded_spec = SurfaceSpec(False, 1, (), (("b0",),))
    assert oracle_for_spec(h, closed_spec).value == 2
    assert oracle_for_spec(h, closed_spec).tuples_examined == 4
    assert oracle_for_spec(h, bounded_spec).tuples_examined == 0
    assert (
        oracle_for_spec(h, bounded_spec).value
        == evaluate(h, bounded_spec).value
    )


def test_oracle_matches_evaluation_on_mixed_specs(suite_algebras):
    h = suite_algebras["s3_k01"]
    specs = [
        SurfaceSpec(True, 0, ("a0",), (("b1", "b2"),)),
        SurfaceSpec(False, Fraction(1, 2), (), (("b0",), ("b3",))),
        SurfaceSpec(True, 2, (), ()),
        SurfaceSpec(False, 2, ("a0", "a0"), ()),
    ]
    for spec in specs:
        assert oracle_for_spec(h, spec).value == evaluate(h, spec).value, spec
