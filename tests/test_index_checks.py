"""The index-table checks against their slow references.

unit and casimir-central (of ``verify_equipped``), phi-central,
nu-multiplicative and nu-equivariant (of ``verify_cardy_frobenius``) run over
integer index tables: commutator rows, the orbit table and chain codes.
:func:`cardyfrob.oracles.element_axiom_oracle` and
:func:`cardyfrob.oracles.cardy_axiom_oracle` compute the same results by
``AlgebraElement`` multiplies and dense permutation matrices.  Both must
agree, witness included, on the suite, on seeded corruptions of ``B``, of
``phi`` and of the catalog, and on random sparse algebras.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cardyfrob import (
    CheckResult,
    FieldCatalog,
    cardy_axiom_oracle,
    element_axiom_oracle,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob.cardy import (
    _check_nu_equivariant,
    _check_nu_multiplicative,
    _check_phi_central,
    _orbit_table,
)
from cardyfrob.frobenius import _check_casimir_central, _check_unit, commutator_rows
from conftest import SUITE_DOCUMENTS
from test_sparse_checks import sparse_algebras, with_constant

ELEMENT_NAMES = ("unit", "casimir-central")
CARDY_NAMES = ("phi-central", "nu-multiplicative", "nu-equivariant")
SMALL_PAIRS = ["z2", "z3", "s3", "s3_k01", "s4_k0123", "a5_k0123"]

def element_checks(alg) -> list[CheckResult]:
    return [_check_unit(alg), _check_casimir_central(alg)]


def cardy_checks(h) -> list[CheckResult]:
    return [_check_phi_central(h), _check_nu_multiplicative(h), _check_nu_equivariant(h)]


def seed_of(name: str) -> int:
    return sum(name.encode("utf-8"))


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_index_checks_match_oracles_on_the_suite(suite_algebras, name):
    h = suite_algebras[name]
    for alg in (h.A, h.B):
        results = [r for r in verify_equipped(alg) if r.name in ELEMENT_NAMES]
        assert results == element_axiom_oracle(alg)
        assert all(result.passed for result in results)
    results = [r for r in verify_cardy_frobenius(h) if r.name in CARDY_NAMES]
    assert results == cardy_axiom_oracle(h)
    assert all(result.passed for result in results)


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_corrupted_constant_matches_oracles(suite_algebras, name):
    # Stored and zero constants, each off by 1, by -1 (a zero one turns
    # negative) and by 1/2: the last two are no counts, so nu-multiplicative
    # takes the walk from the start.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    stored = [(i, j, k) for i in range(b.dim) for j in range(b.dim) for k in b.pair_products(i, j)]
    triples = rng.sample(stored, 2) + [tuple(rng.randrange(b.dim) for _ in range(3)) for _ in range(2)]
    failed: set[str] = set()
    for i, j, k in triples:
        for delta in (1, -1, Fraction(1, 2)):
            broken = with_constant(b, i, j, k, b.pair_products(i, j).get(k, 0) + delta)
            hb = replace(h, B=broken)
            results = element_checks(broken) + cardy_checks(hb)
            expected = element_axiom_oracle(broken) + cardy_axiom_oracle(hb)
            assert results == expected, (name, (i, j, k), delta)
            failed |= {result.name for result in results if not result.passed}
    assert "nu-multiplicative" in failed


def test_corrupted_constants_fail_every_index_check(suite_algebras):
    h = suite_algebras["a5_k0123"]
    failed: set[str] = set()
    for i in range(h.B.dim):
        broken = with_constant(h.B, i, 0, i, h.B.pair_products(i, 0).get(i, 0) + 1)
        results = element_checks(broken) + cardy_checks(replace(h, B=broken))
        failed |= {result.name for result in results if not result.passed}
    assert failed == {"unit", "casimir-central", "phi-central", "nu-multiplicative"}


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_corrupted_phi_entry_matches_oracle(suite_algebras, name):
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    failed = 0
    for _ in range(4):
        i, j = rng.randrange(len(h.phi)), rng.randrange(h.B.dim)
        for delta in (1, Fraction(1, 3)):
            rows = [list(row) for row in h.phi]
            rows[i][j] += delta
            broken = replace(h, phi=tuple(tuple(row) for row in rows))
            results = cardy_checks(broken)
            assert results == cardy_axiom_oracle(broken), (name, i, j, delta)
            failed += not results[0].passed
    assert failed


def moved_pair(catalog: FieldCatalog, source: int, target: int, mode: str) -> FieldCatalog:
    """``catalog`` with the last pair of orbit ``source`` moved to orbit
    ``target`` (``"move"``), copied there (``"copy"``) or dropped (``"drop"``)."""
    fields = list(catalog.boundary)
    pair = fields[source].orbit[-1]
    if mode != "copy":
        fields[source] = replace(fields[source], orbit=fields[source].orbit[:-1])
    if mode != "drop":
        fields[target] = replace(
            fields[target], orbit=tuple(sorted(fields[target].orbit + (pair,)))
        )
    return replace(catalog, boundary=tuple(fields))


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_moved_orbit_pair_matches_oracle(suite_algebras, name):
    # A pair moved between two orbits keeps the partition but breaks
    # equivariance; a pair copied into a second orbit leaves no orbit table,
    # and a dropped pair reads -1 in it.  Each takes the walks.
    h = suite_algebras[name]
    fields = h.catalog.boundary
    sources = [position for position, field in enumerate(fields) if field.size > 1]
    rng = random.Random(seed_of(name))
    for source in rng.sample(sources, min(3, len(sources))):
        target = rng.choice([other for other in range(len(fields)) if other != source])
        for mode in ("move", "copy", "drop"):
            catalog = moved_pair(h.catalog, source, target, mode)
            assert (_orbit_table(catalog)[0] is None) == (mode == "copy")
            broken = replace(h, catalog=catalog)
            results = cardy_checks(broken)
            assert results == cardy_axiom_oracle(broken), (name, source, target, mode)
            assert not results[1].passed and not results[2].passed


def test_nu_multiplicative_names_the_least_failing_pair(suite_algebras):
    # c_{15,13}^13 off by one fails at every pair of O_13, {(2, 1), (3, 1),
    # ...}; the witness is the least of them, not the first one a set yields.
    h = suite_algebras["a5_k0123"]
    assert h.catalog.boundary[13].orbit[:2] == ((2, 1), (3, 1))
    broken = with_constant(h.B, 15, 13, 13, h.B.pair_products(15, 13)[13] + 1)
    result = _check_nu_multiplicative(replace(h, B=broken))
    assert result == CheckResult("nu-multiplicative", False, "(b15, b13) at (2, 1)")


@settings(max_examples=100, deadline=None)
@given(sparse_algebras())
def test_random_sparse_algebras_match_element_oracle(alg):
    assert element_checks(alg) == element_axiom_oracle(alg)


@pytest.mark.parametrize("name", ["z2", "s3", "a5_k0123"])
def test_commutator_rows_are_basis_commutators(suite_algebras, name):
    b = suite_algebras[name].B
    rows = commutator_rows(b)
    for s, left in enumerate(b.basis):
        for t, right in enumerate(b.basis):
            x, y = b.basis_element(left), b.basis_element(right)
            commutator = b.multiply(x, y) - b.multiply(y, x)
            expected = {b.index(label): value for label, value in commutator.coeffs.items()}
            row = {key % b.dim: value for key, value in rows[s].items() if key // b.dim == t}
            assert row == expected, (name, left, right)
