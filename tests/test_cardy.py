"""The paired structure: A, B, phi, U, the Cardy identity, and Hecke algebras."""

from __future__ import annotations

from array import array
from dataclasses import replace
from fractions import Fraction

import pytest

from cardyfrob import (
    AlgebraElement,
    CheckResult,
    ConsistencyError,
    EquippedFrobeniusAlgebra,
    FieldCatalog,
    InputError,
    all_passed,
    build_A,
    build_U,
    build_catalog,
    build_group,
    build_phi,
    cardy_from_pair,
    coset_nset,
    failures,
    hecke_check,
    phi_rank,
    subgroup_closure,
    subgroup_from_elements,
    trivial_subgroup,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob import cardy
from cardyfrob.actions import BoundaryField
from test_sparse_checks import with_constant


def test_cardy_from_pair_matches_fixture(suite_algebras):
    z2 = build_group(2, [[1, 0]])
    h = cardy_from_pair(z2, trivial_subgroup(z2))
    fixture = suite_algebras["z2"]
    assert h.A.basis == fixture.A.basis
    assert h.B.basis == fixture.B.basis
    assert h.phi == fixture.phi
    assert h.u == fixture.u


# -- the Z2 micro example -----------------------------------------------------


def test_z2_boundary_algebra_is_matrix_units(suite_algebras):
    b = suite_algebras["z2"].B
    # representatives: b0=(0,0), b1=(0,1), b2=(1,0), b3=(1,1)
    expected = {
        ("b0", "b0"): {"b0": 1},
        ("b0", "b1"): {"b1": 1},
        ("b1", "b2"): {"b0": 1},
        ("b1", "b3"): {"b1": 1},
        ("b2", "b1"): {"b3": 1},
        ("b2", "b0"): {"b2": 1},
        ("b3", "b2"): {"b2": 1},
        ("b3", "b3"): {"b3": 1},
    }
    for i, left in enumerate(b.basis):
        for j, right in enumerate(b.basis):
            coeffs = {
                b.basis[out]: value for out, value in b.pair_products(i, j).items()
            }
            assert coeffs == expected.get((left, right), {}), (left, right)


def test_z2_unit_and_linear_form(suite_algebras):
    b = suite_algebras["z2"].B
    assert b.unit == AlgebraElement({"b0": 1, "b3": 1})
    assert b.linear(b.basis_element("b0")) == Fraction(1, 2)
    assert b.linear(b.basis_element("b1")) == 0
    assert b.linear(b.basis_element("b3")) == Fraction(1, 2)


def test_z2_casimirs_and_u(suite_algebras):
    h = suite_algebras["z2"]
    assert h.A.casimir() == AlgebraElement({"a0": 4})
    assert h.u == AlgebraElement({"a0": 2})
    assert h.A.multiply(h.u, h.u) == h.A.twisted_casimir()
    assert h.B.casimir() == AlgebraElement({"b0": 4, "b3": 4})
    assert h.B.twisted_casimir() == AlgebraElement({"b0": 2, "b3": 2})
    assert h.phi_apply(h.u) == h.B.twisted_casimir()


def test_z2_phi_collapses_to_the_unit(suite_algebras):
    # Both subgroups of Z2 are normal, so N acts trivially on X and phi
    # sends every class sum to a multiple of the identity matrix.
    h = suite_algebras["z2"]
    unit = h.B.unit
    assert h.phi_apply(h.A.basis_element("a0")) == unit
    assert h.phi_apply(h.A.basis_element("a1")) == unit
    assert phi_rank(h) == 1


def test_phi_rank_a5(suite_algebras):
    h = suite_algebras["a5_k0123"]
    assert phi_rank(h) == 2 == h.A.dim


# -- axiom suite on small pairs ------------------------------------------------


@pytest.mark.parametrize("name", ["z2", "z3", "s3_k01"])
def test_axioms_small_pairs(suite_algebras, name):
    h = suite_algebras[name]
    for alg in (h.A, h.B):
        results = verify_equipped(alg)
        assert all_passed(results), (name, failures(results))
    results = verify_cardy_frobenius(h)
    assert all_passed(results), (name, failures(results))


def test_structure_constants_are_nonnegative_integers(suite_algebras):
    # Class-sum products count group elements and B's constants are
    # intersection numbers, so both algebras have integral constants.
    for name, h in suite_algebras.items():
        for alg in (h.A, h.B):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    for k, value in alg.pair_products(i, j).items():
                        assert value.denominator == 1 and value > 0, (name, i, j, k)


def test_verify_reports_expected_check_names(suite_algebras):
    names = [result.name for result in verify_cardy_frobenius(suite_algebras["z3"])]
    assert names == [
        "phi-unit",
        "phi-homomorphism",
        "phi-central",
        "phi-star",
        "u-squared",
        "phi-u",
        "u-coefficients",
        "cardy",
        "nu-multiplicative",
        "nu-star-transpose",
        "form-from-traces",
        "linear-form-from-traces",
        "nu-equivariant",
        "burnside-dimension",
    ]


def test_phi_dual_is_adjoint_to_phi(suite_algebras):
    # (phi(x), y)_B = (x, phi^dual(y))_A for all basis vectors.
    h = suite_algebras["s3"]
    for a_label in h.A.basis:
        x = h.A.basis_element(a_label)
        for b_label in h.B.basis:
            y = h.B.basis_element(b_label)
            assert h.B.bilinear(h.phi_apply(x), y) == h.A.bilinear(
                x, h.phi_dual_apply(y)
            )


# -- negative control ----------------------------------------------------------


def test_tampered_catalog_fails_phi_reconstruction():
    # Fuse the two distinct orbits (0,0) and (0,1) of the Z2 conjugation
    # action into one fake orbit: the class-sum matrices are no longer
    # constant on it, which build_phi must detect.
    z2 = build_group(2, [[1, 0]])
    h = cardy_from_pair(z2, trivial_subgroup(z2))
    catalog = h.catalog
    fused = BoundaryField(
        label="b0",
        representative=(0, 0),
        size=2,
        aut_order=2,
        star="b0",
    )
    keep = tuple(
        field for field in catalog.boundary if field.label in ("b2", "b3")
    )
    broken = FieldCatalog(
        nset=catalog.nset,
        interior=catalog.interior,
        boundary=(fused,) + keep,
        orbit_table=array("i", [0, 0, 1, 2]),
        provenance="",
    )
    with pytest.raises(ConsistencyError, match="not constant on the orbit of b0"):
        build_phi(broken)
    # A representative outside X x X past either end is rejected by the
    # catalog as it is built, so it is never read off another cell.
    size = catalog.nset.size
    field = catalog.boundary[1]
    for outside in ((0, size), (size, 0), (-1, 0)):
        moved = replace(field, representative=outside)
        boundary = (catalog.boundary[0], moved) + catalog.boundary[2:]
        with pytest.raises(ConsistencyError) as caught:
            replace(catalog, boundary=boundary)
        assert f"pair {outside} of b1 lies outside X x X" in str(caught.value)


def test_singular_pairing_is_reported_not_raised(suite_algebras):
    # Without c_{b0,b0}^{b0}, z2's pairing loses the (b0, b0) entry and is
    # singular: twisted_casimir raises, and phi-u reports that as a failure
    # like form-invertible does, so every result still comes back.
    h = suite_algebras["z2"]
    broken = with_constant(h.B, 0, 0, 0, 0)
    results = verify_cardy_frobenius(replace(h, B=broken))
    assert len(results) == 14
    phi_u = next(result for result in results if result.name == "phi-u")
    assert not phi_u.passed and "degenerate" in phi_u.witness
    invertible = next(r for r in verify_equipped(broken) if r.name == "form-invertible")
    assert not invertible.passed and invertible.witness == phi_u.witness


def test_phi_row_past_dim_b_is_reported_not_raised(suite_algebras):
    # A row of phi that holds the position dim B fails each check that reads
    # B at the positions of phi, naming the row's label, and every other
    # check runs as before.
    h = suite_algebras["s3"]
    phi = list(h.phi)
    phi[1] = {**phi[1], h.B.dim: 1}
    results = verify_cardy_frobenius(replace(h, phi=tuple(phi)))
    assert len(results) == 14
    leaving = {"phi-homomorphism", "phi-central", "phi-star", "phi-u", "cardy"}
    for result in results:
        if result.name in leaving:
            assert result == CheckResult(result.name, False, "phi(a1) leaves B")
        else:
            assert result.passed, result.name


def cardy_check(h, name):
    return next(result for result in verify_cardy_frobenius(h) if result.name == name)


@pytest.mark.parametrize(
    "stars, witness",
    [
        # b7 = (1, 4) swaps into b10, not into b14 of the same size.
        ({"b7": "b14"}, "b7"),
        # b9 and b12 swap into b2 and b15; the first field is named.
        ({"b12": "b12", "b9": "b9"}, "b9"),
    ],
    ids=["b7", "b9-b12"],
)
def test_nu_star_transpose_names_a_changed_star(suite_algebras, stars, witness):
    h = suite_algebras["s3"]
    boundary = tuple(
        replace(field, star=stars.get(field.label, field.star)) for field in h.catalog.boundary
    )
    broken = replace(h, catalog=replace(h.catalog, boundary=boundary))
    assert cardy_check(broken, "nu-star-transpose") == (
        CheckResult("nu-star-transpose", False, witness)
    )


def test_linear_form_from_traces_names_a_changed_value(suite_algebras):
    # l_B(b6) and l_B(b13) are 0: b6 and b13 hold no diagonal pair.
    h = suite_algebras["s3"]
    b = h.B
    values = dict(enumerate(b.linear_form))
    values[b.index("b13")] = Fraction(1, 6)
    values[b.index("b6")] = Fraction(-1, 6)
    broken = EquippedFrobeniusAlgebra.from_indices(
        basis=b.basis,
        products=[dict(b.left_products(i)) for i in range(b.dim)],
        linear_form=values,
        involution=b.involution,
        unit={b.index(label): value for label, value in b.unit.coeffs.items()},
    )
    assert cardy_check(replace(h, B=broken), "linear-form-from-traces") == (
        CheckResult("linear-form-from-traces", False, "b6")
    )


def test_u_coefficients_names_the_first_wrong_class(suite_algebras):
    # In S3, U = 4 a0 + a2: a1 (the transpositions) has no square root of an
    # inverse, so both a1 and a2 are wrong below and a1 is named.
    h = suite_algebras["s3"]
    assert h.u == AlgebraElement({"a0": 4, "a2": 1})
    broken = replace(h, u=AlgebraElement({"a0": 4, "a1": 1}))
    assert cardy_check(broken, "u-coefficients") == CheckResult("u-coefficients", False, "a1")



def test_builders_refuse_a_catalog_of_another_group(suite_algebras):
    # U of S4 (K = 1) is 10 a0 + 2 a2 + a3; counted over Z2 it read 2 a0.
    h = suite_algebras["s4"]
    assert build_U(h.catalog.nset.group, h.catalog) == h.u
    assert h.u == AlgebraElement({"a0": 10, "a2": 2, "a3": 1})
    z2 = build_group(2, [[1, 0]])
    for build in (build_A, build_U):
        with pytest.raises(InputError, match="different acting group"):
            build(z2, h.catalog)

# -- Hecke comparison ------------------------------------------------------------


def test_hecke_s3():
    s3 = build_group(3, [[1, 0, 2], [0, 2, 1]])
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    s = subgroup_closure(s3, [transposition])
    comparison = hecke_check(s3, s)
    assert all_passed(comparison.checks), failures(comparison.checks)
    assert comparison.double_coset_count == 2
    assert comparison.boundary_dimension == 2


def test_hecke_s4_transposition():
    s4 = build_group(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]])
    assert s4.perms is not None
    transposition = next(a for a in s4.elements() if s4.perms[a] == (1, 0, 2, 3))
    s = subgroup_closure(s4, [transposition])
    comparison = hecke_check(s4, s)
    assert all_passed(comparison.checks), failures(comparison.checks)
    assert comparison.boundary_dimension == comparison.double_coset_count == 7


def test_hecke_whole_group_is_one_dimensional():
    s3 = build_group(3, [[1, 0, 2], [0, 2, 1]])
    whole = subgroup_from_elements(s3, s3.elements())
    comparison = hecke_check(s3, whole)
    assert all_passed(comparison.checks)
    assert comparison.double_coset_count == 1


def test_hecke_trivial_subgroup_recovers_group_algebra():
    z3 = build_group(3, [[1, 2, 0]])
    comparison = hecke_check(z3, trivial_subgroup(z3))
    assert all_passed(comparison.checks)
    assert comparison.double_coset_count == 3


def s4_over_transposition():
    """S4 acting on its 12 cosets of ``<(0 1)>``: 7 double cosets."""
    s4 = build_group(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]])
    assert s4.perms is not None
    transposition = next(a for a in s4.elements() if s4.perms[a] == (1, 0, 2, 3))
    return s4, subgroup_closure(s4, [transposition])


def hecke_outcome(comparison):
    return (
        [(check.name, check.passed, check.witness) for check in comparison.checks],
        comparison.boundary_dimension,
        comparison.double_coset_count,
    )


@pytest.mark.parametrize(
    "shifts, witness",
    [
        ([(2, 3, 4, 1)], "(b2, b3, b4): 1 != 0"),
        ([(2, 3, 4, -1)], "(b2, b3, b4): -1 != 0"),
        ([(1, 1, 0, 1), (1, 3, 2, -1)], "(b1, b1, b0): 3 != 2"),
        # The first failing (i, j, k) in lexicographic order, not the first k.
        ([(1, 5, 6, 1), (3, 0, 0, -1)], "(b1, b5, b6): 2 != 1"),
        ([(1, 3, 2, -1), (1, 1, 4, 1)], "(b1, b1, b4): 1 != 0"),
    ],
    ids=["zero-up", "zero-down", "stored", "least-i", "least-j"],
)
def test_hecke_names_the_first_shifted_constant(monkeypatch, shifts, witness):
    # Each shift moves one constant c_ij^k of B by +-1, stored or zero.
    build_b = cardy.build_B

    def shifted(catalog):
        alg = build_b(catalog)
        for i, j, k, step in shifts:
            alg = with_constant(alg, i, j, k, alg.pair_products(i, j).get(k, 0) + step)
        return alg

    monkeypatch.setattr(cardy, "build_B", shifted)
    comparison = hecke_check(*s4_over_transposition())
    assert hecke_outcome(comparison) == (
        [("double-coset-bijection", True, None), ("hecke-convolution", False, witness)],
        7,
        7,
    )


def test_hecke_bijection_fails_on_a_representative_off_the_coset_s(monkeypatch):
    # Every orbit is listed at a pair (S, wS); a representative moved to
    # another pair of its own orbit leaves B as it is but fails the bijection.
    catalog_for = cardy.build_catalog

    def moved(position, representative):
        def patched(nset):
            catalog = catalog_for(nset)
            boundary = list(catalog.boundary)
            boundary[position] = replace(boundary[position], representative=representative)
            return replace(catalog, boundary=tuple(boundary))

        return patched

    for position, representative in ((0, (1, 1)), (3, (1, 6))):
        monkeypatch.setattr(cardy, "build_catalog", moved(position, representative))
        comparison = hecke_check(*s4_over_transposition())
        assert hecke_outcome(comparison) == (
            [
                ("double-coset-bijection", False, "7 orbits vs 7 double cosets"),
                ("hecke-convolution", False, "bijection failed, convolution not comparable"),
            ],
            7,
            7,
        )
    # A representative (S, wS) in another orbit breaks B itself: the build
    # raises before any double coset is compared.
    monkeypatch.setattr(cardy, "build_catalog", moved(1, (0, 2)))
    with pytest.raises(ConsistencyError, match=r"not \|O\|/\|N\| at \(b1, b2\)"):
        hecke_check(*s4_over_transposition())


def test_coset_catalog_diagonal_unit():
    # For the coset action the diagonal orbit is a single field: the unit
    # of B corresponds to the identity double coset.
    s3 = build_group(3, [[1, 0, 2], [0, 2, 1]])
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    s = subgroup_closure(s3, [transposition])
    catalog = build_catalog(coset_nset(s3, s))
    assert set(catalog.diagonal_counts()) == {0}
