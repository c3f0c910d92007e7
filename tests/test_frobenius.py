"""Equipped Frobenius algebras: elements, axioms, and verification."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob import (
    AlgebraElement,
    CheckResult,
    EquippedFrobeniusAlgebra,
    InputError,
    all_passed,
    center_dimension,
    failures,
    is_semisimple,
    build_conjugation_setup,
    document_digest,
    group_from_document,
    verify_equipped,
)
from cardyfrob import linalg
from cardyfrob.frobenius import multiplication_traces
from conftest import algebra_for

# -- elements -------------------------------------------------------------------


def test_element_arithmetic():
    x = AlgebraElement({"a": 1, "b": Fraction(1, 2)})
    y = AlgebraElement({"b": Fraction(1, 2), "c": -1})
    assert (x + y).coeffs == {"a": 1, "b": 1, "c": -1}
    assert (x - y).coeffs == {"a": 1, "c": 1}
    assert (-x).coeffs == {"a": -1, "b": Fraction(-1, 2)}
    assert (x * 2).coeffs == {"a": 2, "b": 1}
    assert (x * 0).is_zero()


def test_element_drops_zero_coefficients():
    assert AlgebraElement({"a": 0}).is_zero()
    assert AlgebraElement({"a": 1, "b": 0}).coeffs == {"a": 1}
    assert AlgebraElement() == AlgebraElement({})


def test_element_equality_and_hash():
    x = AlgebraElement({"a": Fraction(2, 4)})
    y = AlgebraElement({"a": Fraction(1, 2)})
    assert x == y
    assert hash(x) == hash(y)
    assert x != AlgebraElement({"a": 1})


def test_element_repr_uses_canonical_fractions():
    assert repr(AlgebraElement({"a1": Fraction(1, 2)})) == "1/2*a1"
    assert repr(AlgebraElement()) == "0"


def test_coefficient_lookup():
    x = AlgebraElement({"a": 3})
    assert x.coefficient("a") == 3
    assert x.coefficient("missing") == 0


# -- handcrafted algebras ---------------------------------------------------------


def z3_class_algebra(
    corrupted: bool = False,
    involution: dict[str, str] | None = None,
    linear_form: dict[str, Fraction] | None = None,
) -> EquippedFrobeniusAlgebra:
    """The group algebra of Z3 on the basis of its three class sums, with
    the star and the linear form replaced when given."""
    products = {
        ("a0", "a0"): {"a0": 1},
        ("a0", "a1"): {"a1": 1},
        ("a0", "a2"): {"a2": 1},
        ("a1", "a0"): {"a1": 1},
        ("a1", "a1"): {"a1": 1} if corrupted else {"a2": 1},
        ("a1", "a2"): {"a0": 1},
        ("a2", "a0"): {"a2": 1},
        ("a2", "a1"): {"a0": 1},
        ("a2", "a2"): {"a1": 1},
    }
    return EquippedFrobeniusAlgebra(
        basis=["a0", "a1", "a2"],
        products=products,
        linear_form=linear_form or {"a0": Fraction(1, 3)},
        involution=involution or {"a0": "a0", "a1": "a2", "a2": "a1"},
        unit={"a0": 1},
    )


def dual_numbers() -> EquippedFrobeniusAlgebra:
    """1 and x with x^2 = 0: a Frobenius algebra that is not semisimple."""
    return EquippedFrobeniusAlgebra(
        basis=["one", "x"],
        products={
            ("one", "one"): {"one": 1},
            ("one", "x"): {"x": 1},
            ("x", "one"): {"x": 1},
            ("x", "x"): {},
        },
        linear_form={"x": 1},
        involution={"one": "one", "x": "x"},
        unit={"one": 1},
    )


def test_handcrafted_z3_passes_all_axioms():
    alg = z3_class_algebra()
    results = verify_equipped(alg)
    assert all_passed(results), failures(results)


def test_corrupted_product_is_caught():
    results = verify_equipped(z3_class_algebra(corrupted=True))
    failed = {result.name for result in failures(results)}
    assert "associativity" in failed
    witness = next(r.witness for r in results if r.name == "associativity")
    assert witness


def check_named(results: list[CheckResult], name: str) -> CheckResult:
    return next(result for result in results if result.name == name)


def test_star_that_is_not_an_involution_is_named():
    # A 3-cycle: the star of the star of a0 is a2.
    alg = z3_class_algebra(involution={"a0": "a1", "a1": "a2", "a2": "a0"})
    check = check_named(verify_equipped(alg), "involution-involutive")
    assert check == CheckResult("involution-involutive", False, "a0")


def test_linear_form_that_the_star_moves_is_named():
    # l(a1) = 1 but l(a1*) = l(a2) = 0; a0 is its own star.
    alg = z3_class_algebra(linear_form={"a0": Fraction(1, 3), "a1": 1})
    check = check_named(verify_equipped(alg), "involution-form")
    assert check == CheckResult("involution-form", False, "a1")


def test_dual_numbers_are_frobenius_but_not_semisimple():
    alg = dual_numbers()
    results = verify_equipped(alg)
    assert all_passed(results), failures(results)
    assert not is_semisimple(alg)
    assert center_dimension(alg) == 2
    # trace of multiplication by x is zero on both basis vectors
    assert multiplication_traces(alg)[1].get(1, 0) == 0


def test_constructor_validation():
    with pytest.raises(InputError):
        EquippedFrobeniusAlgebra(
            basis=["a", "a"],
            products={},
            linear_form={},
            involution={"a": "a"},
            unit={"a": 1},
        )
    with pytest.raises(InputError):
        EquippedFrobeniusAlgebra(
            basis=["a"],
            products={},
            linear_form={"zz": 1},
            involution={"a": "a"},
            unit={"a": 1},
        )
    with pytest.raises(InputError):
        EquippedFrobeniusAlgebra(
            basis=["a", "b"],
            products={},
            linear_form={},
            involution={"a": "a", "b": "a"},
            unit={"a": 1},
        )
    with pytest.raises(InputError):
        EquippedFrobeniusAlgebra(
            basis=[],
            products={},
            linear_form={},
            involution={},
            unit={},
        )


def test_unknown_labels_rejected():
    alg = z3_class_algebra()
    with pytest.raises(InputError):
        alg.basis_element("zz")
    with pytest.raises(InputError):
        alg.element({"zz": 1})
    with pytest.raises(InputError):
        alg.structure_constant("a0", "a0", "zz")


def test_power_rejects_negative_exponent():
    alg = z3_class_algebra()
    with pytest.raises(InputError):
        alg.power(alg.unit, -1)


# -- operations on the built algebras ---------------------------------------------


def test_structure_constant_accessor(suite_algebras):
    b = suite_algebras["z2"].B
    assert b.structure_constant("b1", "b2", "b0") == 1
    assert b.structure_constant("b1", "b1", "b0") == 0


def test_linear_and_bilinear(suite_algebras):
    a = suite_algebras["z3"].A
    x = a.basis_element("a1")
    y = a.basis_element("a2")
    assert a.bilinear(x, y) == Fraction(1, 3)
    assert a.bilinear(x, x) == 0
    assert a.linear(a.unit) == Fraction(1, 3)


def test_star_operations(suite_algebras):
    a = suite_algebras["z3"].A
    assert a.star_label("a1") == "a2"
    x = a.element({"a1": 2, "a0": 1})
    assert a.star(x) == a.element({"a2": 2, "a0": 1})
    assert a.star(a.star(x)) == x


def test_casimir_is_central_and_twisted_variant(suite_algebras):
    h = suite_algebras["s3"]
    for alg in (h.A, h.B):
        k = alg.casimir()
        for label in alg.basis:
            e = alg.basis_element(label)
            assert alg.multiply(k, e) == alg.multiply(e, k)
        assert alg.star(alg.twisted_casimir()) == alg.twisted_casimir()


def test_casimir_basis_independence(suite_algebras):
    b = suite_algebras["z2"].B
    shuffled = b.permuted(("b3", "b1", "b0", "b2"))
    assert shuffled.casimir() == b.casimir()
    assert shuffled.twisted_casimir() == b.twisted_casimir()
    results = verify_equipped(shuffled)
    assert all_passed(results), failures(results)


def test_casimir_sandwich_properties(suite_algebras):
    b = suite_algebras["s3"].B
    assert b.casimir_sandwich(b.unit) == b.casimir()
    x = b.basis_element("b1")
    y = b.basis_element("b2")
    wrapped = b.casimir_sandwich(x)
    for label in b.basis:
        e = b.basis_element(label)
        assert b.multiply(wrapped, e) == b.multiply(e, wrapped)
    # The sandwich is tracial: wrapping xy and yx gives the same element.
    assert b.casimir_sandwich(b.multiply(x, y)) == b.casimir_sandwich(
        b.multiply(y, x)
    )
    # And self-adjoint for the pairing.
    assert b.bilinear(b.casimir_sandwich(x), y) == b.bilinear(
        x, b.casimir_sandwich(y)
    )


def test_permuted_requires_same_labels(suite_algebras):
    b = suite_algebras["z2"].B
    with pytest.raises(InputError):
        b.permuted(("b0", "b1"))


def test_dual_reconstruction_identity(suite_algebras):
    a = suite_algebras["s3"].A
    x = a.element({"a0": Fraction(1, 2), "a2": -3})
    assert a.dual_reconstruct(x) == x


# dim Z(B) for the suite and for the two ladder pairs outside it, as the
# commutant system over (j, k) rows gave them.  B for (Z2, {e}) is a full
# 2x2 matrix algebra: one-dimensional center.
CENTER_DIMENSIONS_B = {
    "z2": 1,
    "z3": 1,
    "s3": 2,
    "s3_k01": 1,
    "s4": 3,
    "s4_k0123": 2,
    "a5_k0123": 2,
}
LADDER_CENTER_DIMENSIONS_B = {
    "a5": (
        {"degree": 5, "generators": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]], "k_generators": []},
        3,
    ),
    "s5_k0123": (
        {
            "degree": 5,
            "generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]],
            "k_generators": [[1, 0, 3, 2, 4]],
        },
        4,
    ),
}


def test_center_dimensions(suite_algebras):
    # A is the center of a group algebra, hence commutative.
    for name, h in suite_algebras.items():
        assert center_dimension(h.A) == h.A.dim, name
        assert center_dimension(h.B) == CENTER_DIMENSIONS_B[name], name


@pytest.mark.parametrize("name", sorted(LADDER_CENTER_DIMENSIONS_B))
def test_center_dimensions_of_ladder_pairs(name):
    document, expected = LADDER_CENTER_DIMENSIONS_B[name]
    group, k = group_from_document(document)
    setup = build_conjugation_setup(group, k, digest=document_digest(document))
    assert center_dimension(algebra_for(setup).B) == expected


def test_semisimplicity_of_built_algebras(suite_algebras):
    for name in ("z2", "z3", "s3", "s3_k01"):
        h = suite_algebras[name]
        assert is_semisimple(h.A), name
        assert is_semisimple(h.B), name


def test_check_result_helpers():
    good = CheckResult("good", True)
    bad = CheckResult("bad", False, "details")
    assert all_passed([good])
    assert not all_passed([good, bad])
    assert failures([good, bad]) == [bad]


# -- powers ------------------------------------------------------------------------

def count_products(exponent: int) -> int:
    """How many products ``linalg.power`` takes, on the integers under addition."""
    calls = []

    def add(x, y):
        calls.append((x, y))
        return x + y

    assert linalg.power(1, exponent, add, 0) == exponent
    return len(calls)


def test_power_squares_without_a_trailing_square():
    for exponent in range(65):
        squarings = max(exponent.bit_length() - 1, 0)
        others = max(bin(exponent).count("1") - 1, 0)
        assert count_products(exponent) == squarings + others <= exponent
    with pytest.raises(ValueError):
        linalg.power(1, -1, int.__add__, 0)


@pytest.mark.parametrize("name", ["s4", "a5"])
def test_powers_match_the_linear_loop(suite_algebras, a5, name):
    # The Casimir K_A and the crosscap element U of A, raised to 0..64,
    # against one product at a time.
    h = a5 if name == "a5" else suite_algebras[name]
    alg = h.A
    for x in (alg.casimir(), h.u):
        loop = alg.unit
        for exponent in range(65):
            assert alg.power(x, exponent) == loop, exponent
            loop = alg.multiply(loop, x)


def test_product_matches_the_fold_from_the_unit(suite_algebras):
    # product folds from its first factor, so it multiplies nothing by the
    # unit; it equals the fold that starts from the unit on zero, one and
    # several factors, given as a list or as an iterator.
    for h in suite_algebras.values():
        for alg in (h.A, h.B):
            basis = [alg.basis_element(label) for label in alg.basis]
            casimir = alg.casimir()
            for factors in ([], *([e] for e in basis), basis[:3], [casimir, basis[-1], casimir]):
                fold = alg.unit
                for factor in factors:
                    fold = alg.multiply(fold, factor)
                assert alg.product(factors) == alg.product(iter(factors)) == fold, factors


# -- algebraic laws on random elements --------------------------------------------

small_coeffs = st.dictionaries(
    st.sampled_from(["a0", "a1", "a2"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=3,
)


@settings(max_examples=50, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_multiplication_laws(cx, cy, cz):
    alg = z3_class_algebra()
    x, y, z = alg.element(cx), alg.element(cy), alg.element(cz)
    assert alg.multiply(alg.multiply(x, y), z) == alg.multiply(x, alg.multiply(y, z))
    assert alg.multiply(x + y, z) == alg.multiply(x, z) + alg.multiply(y, z)
    assert alg.bilinear(x, y) == alg.bilinear(y, x)
    assert alg.star(alg.multiply(x, y)) == alg.multiply(alg.star(y), alg.star(x))
    assert alg.dual_reconstruct(x) == x
