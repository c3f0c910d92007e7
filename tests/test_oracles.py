"""Brute-force oracles and their agreement with the algebraic evaluation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cardyfrob import (
    InputError,
    ResourceError,
    SurfaceSpec,
    closed_nonorientable_oracle,
    closed_orientable_oracle,
    commutator_casimir_check,
    evaluate,
    oracle_for_spec,
    t_tensor_oracle,
    trace_oracle,
)


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
    disc = SurfaceSpec(True, 0, (), (("b0",),))
    assert trace_oracle(h, disc).tuples_examined == 0
    assert t_tensor_oracle(h.catalog, ["b0", "b0"]).tuples_examined == 4


def test_tuple_bound_enforced(suite_algebras):
    h = suite_algebras["s4"]
    n_group = h.catalog.nset.group
    with pytest.raises(ResourceError):
        closed_orientable_oracle(n_group, 2, [], tuple_bound=1000)
    with pytest.raises(ResourceError):
        closed_nonorientable_oracle(n_group, 4, [], tuple_bound=1000)


def test_trace_oracle_z2_values(suite_algebras):
    h = suite_algebras["z2"]
    disc = SurfaceSpec(True, 0, (), (("b1", "b2"),))
    assert trace_oracle(h, disc).value == Fraction(1, 2)
    cylinder = SurfaceSpec(True, 0, (), (("b0",), ("b0",)))
    assert trace_oracle(h, cylinder).value == 1
    with pytest.raises(InputError):
        trace_oracle(h, SurfaceSpec(True, 0))


def test_t_tensor_oracle_z2(suite_algebras):
    catalog = suite_algebras["z2"].catalog
    assert t_tensor_oracle(catalog, ["b1", "b2"]).value == Fraction(1, 2)
    assert t_tensor_oracle(catalog, ["b1", "b1"]).value == 0
    assert t_tensor_oracle(catalog, ["b0"]).value == Fraction(1, 2)
    with pytest.raises(InputError):
        t_tensor_oracle(catalog, [])


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
        assert t_tensor_oracle(h.catalog, labels).value == b.linear(product), labels


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
                chains = t_tensor_oracle(h.catalog, [left, middle, right]).value
                assert chains == expected, (name, left, middle, right)


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
