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
    ConsistencyError,
    FieldCatalog,
    build_B,
    cardy_axiom_oracle,
    element_axiom_oracle,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob.cardy import (
    _check_nu_equivariant,
    _check_nu_multiplicative,
    _check_phi_central,
    _check_phi_homomorphism,
    _check_phi_star,
    _check_phi_unit,
    _generator_rows,
    _invariant,
    _orbit_table,
    _single_orbits,
)
from cardyfrob.frobenius import _check_casimir_central, _check_unit, commutator_rows
from conftest import SUITE_DOCUMENTS
from test_sparse_checks import sparse_algebras, with_constant

ELEMENT_NAMES = ("unit", "casimir-central")
CARDY_NAMES = (
    "phi-unit",
    "phi-homomorphism",
    "phi-central",
    "phi-star",
    "nu-multiplicative",
    "nu-equivariant",
)
SMALL_PAIRS = ["z2", "z3", "s3", "s3_k01", "s4_k0123", "a5_k0123"]

def element_checks(alg) -> list[CheckResult]:
    return [_check_unit(alg), _check_casimir_central(alg)]


def cardy_checks(h) -> list[CheckResult]:
    return [
        _check_phi_unit(h),
        _check_phi_homomorphism(h),
        _check_phi_central(h),
        _check_phi_star(h),
        _check_nu_multiplicative(h),
        _check_nu_equivariant(h),
    ]


def failed_names(results: list[CheckResult]) -> set[str]:
    return {result.name for result in results if not result.passed}


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
    assert failed == {
        "unit",
        "casimir-central",
        "phi-homomorphism",
        "phi-central",
        "nu-multiplicative",
    }


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_corrupted_phi_entry_matches_oracle(suite_algebras, name):
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    failed = 0
    for _ in range(4):
        i, j = rng.randrange(len(h.phi)), rng.randrange(h.B.dim)
        for delta in (1, Fraction(1, 3)):
            rows = [dict(row) for row in h.phi]
            rows[i][j] = rows[i].get(j, 0) + delta
            broken = replace(h, phi=tuple(rows))
            results = cardy_checks(broken)
            assert results == cardy_axiom_oracle(broken), (name, i, j, delta)
            failed += "phi-central" in failed_names(results)
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
            assert {"nu-multiplicative", "nu-equivariant"} <= failed_names(results)


def merged_orbits(catalog: FieldCatalog, keep: int, emptied: int) -> FieldCatalog:
    """``catalog`` with orbit ``emptied`` listed under ``keep`` as well, and
    left empty under its own label."""
    fields = list(catalog.boundary)
    union = tuple(sorted(fields[keep].orbit + fields[emptied].orbit))
    fields[keep] = replace(fields[keep], orbit=union)
    fields[emptied] = replace(fields[emptied], orbit=())
    return replace(catalog, boundary=tuple(fields))


@pytest.mark.parametrize("name", SMALL_PAIRS + ["s4"])
def test_merged_orbits_match_oracle(suite_algebras, name):
    # Two N-orbits under one label still partition X x X and leave the orbit
    # table invariant under every element, so nu-equivariant passes; only
    # the walk that finds a listed orbit to be two N-orbits sends
    # nu-multiplicative to the chain walk, which must fail as the oracle does.
    h = suite_algebras[name]
    rows = h.catalog.nset.act_table
    rng = random.Random(seed_of(name))
    diagonal = [k for k, field in enumerate(h.catalog.boundary) if field.is_diagonal]
    choices = [tuple(rng.sample(range(h.B.dim), 2)) for _ in range(3)]
    if len(diagonal) > 1:
        choices.append(tuple(diagonal[:2]))
    for keep, emptied in choices:
        catalog = merged_orbits(h.catalog, keep, emptied)
        table, fault = _orbit_table(catalog)
        assert fault is None and _invariant(table, rows)
        assert not _single_orbits(catalog.boundary, _generator_rows(catalog.nset), catalog.nset.size)
        broken = replace(h, catalog=catalog)
        results = cardy_checks(broken)
        assert results == cardy_axiom_oracle(broken), (name, keep, emptied)
        assert failed_names(results) == {"nu-multiplicative"}


def swapped_pairs(catalog: FieldCatalog, a: int, b: int) -> FieldCatalog:
    """``catalog`` with the last pairs of orbits ``a`` and ``b`` swapped."""
    fields = list(catalog.boundary)
    last_a, last_b = fields[a].orbit[-1], fields[b].orbit[-1]
    fields[a] = replace(fields[a], orbit=tuple(sorted(fields[a].orbit[:-1] + (last_b,))))
    fields[b] = replace(fields[b], orbit=tuple(sorted(fields[b].orbit[:-1] + (last_a,))))
    return replace(catalog, boundary=tuple(fields))


@pytest.mark.parametrize("name", ["a5_k0123", "s4"])
def test_swapped_orbit_pairs_match_oracle(suite_algebras, name):
    # The last pairs of two orbits of one size swapped, and B counted anew
    # from that catalog where build_B accepts it: the walk from each first
    # pair still reaches as many pairs as its orbit lists, and the chains at
    # the first pairs are the ones B was counted from, so only the
    # invariance test keeps nu-multiplicative off the fast path.
    h = suite_algebras[name]
    by_size: dict[int, list[int]] = {}
    for k, field in enumerate(h.catalog.boundary):
        if field.size > 1:
            by_size.setdefault(field.size, []).append(k)
    swaps = [pair for ks in by_size.values() for pair in zip(ks, ks[1:])]
    checked = 0
    for a, b in swaps:
        catalog = swapped_pairs(h.catalog, a, b)
        try:
            rebuilt = build_B(catalog)
        except ConsistencyError:
            continue
        for b_algebra in (h.B, rebuilt):
            broken = replace(h, catalog=catalog, B=b_algebra)
            results = cardy_checks(broken)
            assert results == cardy_axiom_oracle(broken), (name, a, b)
            assert {"nu-multiplicative", "nu-equivariant"} <= failed_names(results)
        checked += 1
        if checked == 2:
            break
    assert checked == 2


def test_single_orbits_reads_the_listed_orbits(suite_algebras):
    catalog = suite_algebras["s4_k0123"].catalog
    rows = _generator_rows(catalog.nset)
    assert _single_orbits(catalog.boundary, rows, catalog.nset.size)
    assert not _single_orbits(catalog.boundary, rows[:0], catalog.nset.size)
    split = list(catalog.boundary)
    big = max(range(len(split)), key=lambda k: split[k].size)
    split[big] = replace(split[big], orbit=split[big].orbit[:1])
    assert not _single_orbits(split, rows, catalog.nset.size)


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
