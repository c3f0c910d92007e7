"""The paired structure: A, B, phi, U, the Cardy identity, and Hecke algebras."""

from __future__ import annotations

import copy
from array import array
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from cardyfrob import (
    AlgebraElement,
    CheckResult,
    ConsistencyError,
    EquippedFrobeniusAlgebra,
    FieldCatalog,
    all_passed,
    build_U,
    build_catalog,
    build_group,
    build_phi,
    cardy_condition_oracle,
    cardy_from_pair,
    coset_nset,
    failures,
    hecke_check,
    subgroup_closure,
    subgroup_from_elements,
    trivial_subgroup,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob import cardy, linalg
from cardyfrob.actions import BoundaryField
from test_index_construction import reference_phi
from test_sparse_checks import with_constant, with_form_entry


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
    assert linalg.rank(h.phi) == 1


def test_phi_rank_a5(suite_algebras):
    h = suite_algebras["a5_k0123"]
    assert linalg.rank(h.phi) == 2 == h.A.dim


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


def test_casimir_sandwich_of_b_is_phi_after_phi_dual(suite_algebras):
    # tau = phi . phi*: the Casimir sandwich of B is phi after phi* on every
    # basis element of every suite pair.
    for name, h in suite_algebras.items():
        for label in h.B.basis:
            e = h.B.basis_element(label)
            assert h.B.casimir_sandwich(e) == h.phi_apply(h.phi_dual_apply(e)), (name, label)


def test_phi_dual_rows_over_their_denominator(suite_algebras):
    # phi* is kept as int numerators over their least common denominator d.
    # Divided, the rows are F_A^-1 Phi F_B multiplied out in Fractions as
    # (F_A^-1 Phi) F_B, zeros dropped.  d is 1 on every suite pair and 13
    # once s3's F_A has an entry moved.
    s3 = suite_algebras["s3"]
    moved = replace(s3, A=with_form_entry(s3.A, 0, 0, Fraction(1, 7)))
    assert moved._phi_dual[0] == 13
    for name, h in [*suite_algebras.items(), ("s3, F_A moved", moved)]:
        d, rows = h._phi_dual
        assert d == (13 if h is moved else 1), name
        left = [linalg.row_times(row.items(), h.phi) for row in linalg.invert(h.A.form)]
        expected = [linalg.row_times(row.items(), h.B.form) for row in left]
        assert all(type(value) is int for row in rows for value in row.values()), name
        assert gcd(d, *(value for row in rows for value in row.values())) == 1, name
        divided = [{j: Fraction(v, d) for j, v in row.items() if v} for row in rows]
        assert divided == [{j: v for j, v in row.items() if v} for row in expected], name
        # phi_dual_apply reads column k of the rows and divides it at its edge.
        for k, label in enumerate(h.B.basis):
            column = {a: Fraction(row.get(k, 0), d) for a, row in zip(h.A.basis, rows)}
            assert h.phi_dual_apply(h.B.basis_element(label)) == AlgebraElement(column), name


def test_pairing_rows_are_f_a_times_phi_dual(suite_algebras):
    # The rows the pairing of bounded surfaces reads are G = F_A phi* = Phi
    # F_B as int numerators over their least common denominator.  Divided,
    # they are both products multiplied out in Fractions, zeros dropped, on
    # the suite pairs and on s3 with an entry of F_A moved, whose phi* is
    # over 13.
    s3 = suite_algebras["s3"]
    moved = replace(s3, A=with_form_entry(s3.A, 0, 0, Fraction(1, 7)))
    for name, h in [*suite_algebras.items(), ("s3, F_A moved", moved)]:
        e, rows = h._pairing_rows
        assert all(type(value) is int for row in rows for value in row.values()), name
        assert gcd(e, *(value for row in rows for value in row.values())) == 1, name
        divided = [{j: Fraction(v, e) for j, v in row.items()} for row in rows]
        left = [linalg.row_times(row.items(), h.phi) for row in linalg.invert(h.A.form)]
        dual = [linalg.row_times(row.items(), h.B.form) for row in left]
        for product in (
            [linalg.row_times(row.items(), dual) for row in h.A.form],
            [linalg.row_times(row.items(), h.B.form) for row in h.phi],
        ):
            assert divided == [{j: v for j, v in row.items() if v} for row in product], name


def test_pairing_rows_stay_phi_f_b_under_a_stale_inverse(suite_algebras):
    # G = Phi F_B is the one product formed, and phi* = F_A^-1 G is derived
    # from it.  With the inverse of a moved F_A kept on s3's intact A, F_A
    # phi* is no longer G, and G is still Phi F_B.
    def nonzero(rows):
        return [{j: v for j, v in row.items() if v} for row in rows]

    h = suite_algebras["s3"]
    stale = copy.copy(h.A)
    stale._form_inverse = with_form_entry(h.A, 0, 0, Fraction(1, 7)).form_inverse()
    broken = replace(h, A=stale)
    e, rows = broken._pairing_rows
    d, dual = broken._phi_dual
    pairing = [{j: Fraction(v, e) for j, v in row.items()} for row in rows]
    divided = [{j: Fraction(v, d) for j, v in row.items()} for row in dual]
    assert pairing == nonzero(linalg.row_times(row.items(), h.B.form) for row in h.phi)
    inverse = stale.form_inverse()
    assert divided == nonzero(linalg.row_times(row.items(), pairing) for row in inverse)
    assert nonzero(linalg.row_times(row.items(), divided) for row in h.A.form) != pairing


def test_phi_dual_pairing_reads_fractions(suite_algebras):
    # phi_dual_pairing(x, y) is l_A(x . phi*(y)) read through phi_dual_apply,
    # both vectors in basis positions, where the discs of the benchmark never
    # go: an x with coefficients in thirds, an int x and the same x in
    # Fractions, and y a Casimir sandwich, whose coefficients are Fractions,
    # or a fifth of one.  The zero vector of A pairs to 0.
    for name, h in suite_algebras.items():
        a, b = h.A, h.B
        last = a.dim - 1
        xs = [{k: Fraction(k + 1, 3) for k in range(a.dim)}, {last: 2}, {last: Fraction(2)}]
        for label in b.basis[:4]:
            sandwich = b.casimir_sandwich(b.basis_element(label))
            fifth = AlgebraElement({k: c / 5 for k, c in sandwich.coeffs.items()})
            for y in (b.basis_element(label), sandwich, fifth):
                vector = {b.index(k): c for k, c in y.coeffs.items()}
                assert all(type(c) is Fraction for c in vector.values()), (name, label)
                for x in xs:
                    element = AlgebraElement({a.basis[k]: c for k, c in x.items()})
                    expected = a.bilinear(element, h.phi_dual_apply(y))
                    value = h.phi_dual_pairing(x, vector)
                    assert type(value) is Fraction and value == expected, (name, label)
                assert h.phi_dual_pairing({}, vector) == 0, (name, label)


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
    with pytest.raises(ConsistencyError, match="not constant on the orbit of b0") as caught:
        build_phi(broken)
    assert str(caught.value) == reference_phi(broken)
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


def test_singular_pairing_of_a_is_reported_not_raised(suite_algebras):
    # The (a0, a0) entry of s3's A zeroed: the pairing of A is singular, and
    # u-squared and cardy, which read its inverse, report that as
    # form-invertible does.
    h = suite_algebras["s3"]
    broken = with_form_entry(h.A, 0, 0, -h.A.form[0][0])
    results = verify_cardy_frobenius(replace(h, A=broken))
    assert len(results) == 14
    invertible = next(r for r in verify_equipped(broken) if r.name == "form-invertible")
    assert not invertible.passed and "degenerate" in invertible.witness
    for name in ("u-squared", "cardy"):
        result = next(result for result in results if result.name == name)
        assert result == CheckResult(name, False, invertible.witness)
    assert cardy_condition_oracle(replace(h, A=broken)) == CheckResult(
        "cardy", False, invertible.witness
    )


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


@pytest.mark.parametrize("name", ["s3", "s4"])
def test_phi_with_a_row_too_few_or_too_many_is_reported_not_raised(suite_algebras, name):
    # Each check that reads a row of phi fails, naming both counts; every
    # other check keeps the result it has on the intact structure.
    h = suite_algebras[name]
    intact = verify_cardy_frobenius(h)
    reading = {"phi-unit", "phi-homomorphism", "phi-central", "phi-star", "phi-u", "cardy"}
    for phi in (h.phi[:-1], h.phi + (h.phi[-1],)):
        results = verify_cardy_frobenius(replace(h, phi=phi))
        assert [result.name for result in results] == [result.name for result in intact]
        witness = f"phi has {len(phi)} rows, dim A is {h.A.dim}"
        for result, before in zip(results, intact):
            if result.name in reading:
                assert result == CheckResult(result.name, False, witness)
            else:
                assert result == before


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


def test_build_u_counts_the_squares_of_s4(suite_algebras):
    # U of S4 (K = 1) is 10 a0 + 2 a2 + a3, read off the catalog's group.
    h = suite_algebras["s4"]
    assert build_U(h.catalog) == h.u
    assert h.u == AlgebraElement({"a0": 10, "a2": 2, "a3": 1})


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
