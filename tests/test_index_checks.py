"""The index-table checks against their slow references.

unit and casimir-central (of ``verify_equipped``), phi-central,
nu-multiplicative and nu-equivariant (of ``verify_cardy_frobenius``) run over
integer index tables: commutator rows and the orbit table.  The two ``nu``
checks run premise (a)'s counters over everything: the chain tally in codes
``i * dim + j`` at every cell, and the invariance scan
``actions._moved_orbits`` over every row of ``N``.
:func:`cardyfrob.oracles.element_axiom_oracle` and
:func:`cardyfrob.oracles.cardy_axiom_oracle` compute the same results by
``AlgebraElement`` multiplies and dense permutation matrices.  Both must
agree, witness included, on the suite, on seeded corruptions of ``B``, of
``phi`` and of the catalog, on drawn pairs with corrupted catalogs, and on
random sparse algebras.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardyfrob import (
    CheckResult,
    ConsistencyError,
    FieldCatalog,
    build_B,
    build_conjugation_setup,
    build_group,
    cardy_axiom_oracle,
    element_axiom_oracle,
    group_from_document,
    subgroup_closure,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob.actions import _counted_orbits, _moved_orbits
from cardyfrob.cardy import (
    _check_burnside_dimension,
    _check_nu_equivariant,
    _check_nu_multiplicative,
    _check_phi_central,
    _check_phi_homomorphism,
    _check_phi_star,
    _check_phi_unit,
)
from cardyfrob.frobenius import _check_casimir_central, _check_unit, commutator_rows
from cardyfrob.oracles import _dense_nu_equivariant, _dense_nu_multiplicative
from conftest import SUITE_DOCUMENTS, algebra_for
from test_lattice import seeded_permutations_up_to
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


def with_table(catalog: FieldCatalog, table: array, sizes: list[int]) -> FieldCatalog:
    """``catalog`` with ``table`` as its orbit table and ``sizes`` as the
    sizes of its boundary fields; the catalog checks them as it is built."""
    boundary = tuple(replace(field, size=size) for field, size in zip(catalog.boundary, sizes))
    return replace(catalog, boundary=boundary, orbit_table=table)


def last_cell(table: array, k: int) -> int:
    """The code of the last pair of orbit ``k``."""
    return len(table) - 1 - table[::-1].index(k)


def moved_pair(catalog: FieldCatalog, source: int, target: int, mode: str) -> FieldCatalog:
    """``catalog`` with the last pair of orbit ``source`` moved to orbit
    ``target`` (``"move"``), counted under ``target`` as well (``"copy"``)
    or put in no orbit (``"drop"``), each touched size set to the number of
    pairs it now lists.  Only a move gives a catalog: a copy leaves the size
    of ``target`` wrong and a drop leaves a cell in no orbit, and either
    raises :class:`ConsistencyError`."""
    table = array("i", catalog.orbit_table)
    sizes = [field.size for field in catalog.boundary]
    if mode != "copy":
        table[last_cell(table, source)] = target if mode == "move" else -1
        sizes[source] -= 1
    if mode != "drop":
        sizes[target] += 1
    return with_table(catalog, table, sizes)


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_moved_orbit_pair_matches_oracle(suite_algebras, name):
    # A pair moved between two orbits keeps the partition but breaks
    # equivariance, so both checks take the walks.  A pair copied into a
    # second orbit or dropped from every orbit is no catalog at all.
    h = suite_algebras[name]
    fields = h.catalog.boundary
    sources = [position for position, field in enumerate(fields) if field.size > 1]
    rng = random.Random(seed_of(name))
    for source in rng.sample(sources, min(3, len(sources))):
        target = rng.choice([other for other in range(len(fields)) if other != source])
        for mode in ("copy", "drop"):
            with pytest.raises(ConsistencyError):
                moved_pair(h.catalog, source, target, mode)
        broken = replace(h, catalog=moved_pair(h.catalog, source, target, "move"))
        results = cardy_checks(broken)
        assert results == cardy_axiom_oracle(broken), (name, source, target)
        assert {"nu-multiplicative", "nu-equivariant"} <= failed_names(results)


def merged_orbits(catalog: FieldCatalog, keep: int, emptied: int) -> FieldCatalog:
    """``catalog`` with the pairs of orbit ``emptied`` listed under ``keep``,
    and none left under its own label."""
    table = array("i", (keep if k == emptied else k for k in catalog.orbit_table))
    sizes = [field.size for field in catalog.boundary]
    sizes[keep] += sizes[emptied]
    sizes[emptied] = 0
    return with_table(catalog, table, sizes)


def test_one_point_moves_no_orbit():
    # Z3 over K = Z3 acts on one point.  itemgetter of one index gives no
    # tuple, so the scan reads that row whole: the identity moves nothing,
    # and premise (a) and nu-equivariant hold.
    group, k = group_from_document(
        {"degree": 3, "generators": [[1, 2, 0]], "k_generators": [[1, 2, 0]]}
    )
    h = algebra_for(build_conjugation_setup(group, k))
    catalog = h.catalog
    assert catalog.nset.size == 1
    assert list(_moved_orbits(catalog.orbit_table, catalog.nset.act_table)) == []
    assert catalog.premises(h.B).modelled
    assert _check_nu_equivariant(h).passed


@pytest.mark.parametrize("name", SMALL_PAIRS + ["s4"])
def test_merged_orbits_match_oracle(suite_algebras, name):
    # Two N-orbits under one label still partition X x X and leave the orbit
    # table invariant under every element, so nu-equivariant passes; only
    # the walk that finds a listed orbit to be two N-orbits (or its
    # representative in another orbit) sends nu-multiplicative to the chain
    # walk, which must fail as the oracle does.
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    diagonal = [k for k, field in enumerate(h.catalog.boundary) if field.is_diagonal]
    choices = [tuple(rng.sample(range(h.B.dim), 2)) for _ in range(3)]
    if len(diagonal) > 1:
        choices.append(tuple(diagonal[:2]))
    for keep, emptied in choices:
        catalog = merged_orbits(h.catalog, keep, emptied)
        assert not any(_moved_orbits(catalog.orbit_table, catalog.nset.act_table))
        assert not _counted_orbits(catalog)
        broken = replace(h, catalog=catalog)
        results = cardy_checks(broken)
        assert results == cardy_axiom_oracle(broken), (name, keep, emptied)
        assert failed_names(results) == {"nu-multiplicative"}


def swapped_pairs(catalog: FieldCatalog, a: int, b: int) -> FieldCatalog:
    """``catalog`` with the last pairs of orbits ``a`` and ``b`` swapped."""
    table = array("i", catalog.orbit_table)
    last_a, last_b = last_cell(table, a), last_cell(table, b)
    table[last_a], table[last_b] = b, a
    return replace(catalog, orbit_table=table)


@pytest.mark.parametrize("name", ["a5_k0123", "s4"])
def test_swapped_orbit_pairs_match_oracle(suite_algebras, name):
    # The last pairs of two orbits of one size swapped, and B counted anew
    # from that catalog where build_B accepts it: the walk from each
    # representative still reaches as many pairs as its orbit holds, and the
    # chains at the representatives are the ones B was counted from, so only
    # the invariance test keeps nu-multiplicative off the fast path.
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


def test_counted_orbits_reads_the_listed_orbits(suite_algebras):
    catalog = suite_algebras["s4_k0123"].catalog
    nset, dim = catalog.nset, len(catalog.boundary)
    assert nset.squared_fixed_points() == nset.group.order * dim
    assert _counted_orbits(catalog)
    # The largest orbit cut down to its representative, the rest of its
    # pairs listed as an orbit of their own: every representative still
    # holds its own label, but Burnside's lemma counts one orbit fewer than
    # the catalog lists.
    fields = list(catalog.boundary)
    big = max(range(len(fields)), key=lambda k: fields[k].size)
    table = array("i", catalog.orbit_table)
    rest = [code for code, k in enumerate(table) if k == big][1:]
    for code in rest:
        table[code] = len(fields)
    extra = replace(
        fields[big],
        label=f"b{len(fields)}",
        representative=divmod(rest[0], catalog.nset.size),
        size=len(rest),
    )
    fields[big] = replace(fields[big], size=1)
    split = replace(catalog, boundary=(*fields, extra), orbit_table=table)
    size = nset.size
    representatives = [field.representative for field in split.boundary]
    assert all(table[x * size + z] == k for k, (x, z) in enumerate(representatives))
    assert not _counted_orbits(split)
    # A representative whose cell lies in another orbit fails the premise,
    # though the count of orbits is right.
    fields = list(catalog.boundary)
    fields[big] = replace(fields[big], representative=fields[big - 1].representative)
    assert not _counted_orbits(replace(catalog, boundary=tuple(fields)))


def test_nu_multiplicative_names_the_least_failing_pair(suite_algebras):
    # c_{15,13}^13 off by one fails at every pair of O_13, {(2, 1), (3, 1),
    # ...}; the witness is the least of them, not the first one a set yields.
    h = suite_algebras["a5_k0123"]
    assert h.catalog.orbits()[13][:2] == ((2, 1), (3, 1))
    broken = with_constant(h.B, 15, 13, 13, h.B.pair_products(15, 13)[13] + 1)
    result = _check_nu_multiplicative(replace(h, B=broken))
    assert result == CheckResult("nu-multiplicative", False, "(b15, b13) at (2, 1)")


def test_nu_multiplicative_reports_the_least_fault_not_the_first(suite_algebras):
    # Two zero constants of B set to 1: c_{1,j}^0, j > 0, at the diagonal
    # orbit of point 0, whose cell (0, 0) the walk tallies first, and
    # c_{1,0}^k at an orbit whose rows and stored constants begin past
    # orbit 1, so that none of its cells lies in row 0.  The walk finds
    # (b1, bj) first and must still name (b1, b0), which is less.
    h = suite_algebras["z2"]
    catalog, b = h.catalog, h.B
    size, table = catalog.nset.size, catalog.orbit_table
    least_stored = [
        min(i for i, _, expansion in b.stored_products() if k in expansion) for k in range(b.dim)
    ]
    k = next(
        k
        for k, (x, _) in enumerate(field.representative for field in catalog.boundary)
        if least_stored[k] > 1 and min(table[x * size : (x + 1) * size]) > 1
    )
    j = max(j for j in range(1, b.dim) if 0 not in b.pair_products(1, j))
    assert k not in b.pair_products(1, 0)
    broken = replace(h, B=with_constant(with_constant(b, 1, j, 0, 1), 1, 0, k, 1))
    result = _check_nu_multiplicative(broken)
    assert result == _dense_nu_multiplicative(broken)
    assert result.witness.startswith("(b1, b0) at ")


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


def drawn_catalogs(catalog: FieldCatalog, rng: random.Random) -> list[FieldCatalog]:
    """``catalog`` of two points or more and seeded corruptions of it: two
    orbits merged and, where it has orbits enough, a pair moved and the
    last pairs of two orbits of one size swapped."""
    dim = len(catalog.boundary)
    catalogs = [catalog, merged_orbits(catalog, *rng.sample(range(dim), 2))]
    sources = [k for k, field in enumerate(catalog.boundary) if field.size > 1]
    if sources:
        source = rng.choice(sources)
        target = rng.choice([k for k in range(dim) if k != source])
        catalogs.append(moved_pair(catalog, source, target, "move"))
    by_size: dict[int, list[int]] = {}
    for k in sources:
        by_size.setdefault(catalog.boundary[k].size, []).append(k)
    swaps = [pair for ks in by_size.values() for pair in zip(ks, ks[1:])]
    if swaps:
        catalogs.append(swapped_pairs(catalog, *rng.choice(swaps)))
    return catalogs


@settings(max_examples=20, deadline=None)
@given(generators=seeded_permutations_up_to(5), data=st.data())
def test_nu_checks_match_oracle_on_random_pairs(generators, data):
    # The walks of nu-multiplicative and nu-equivariant against the dense
    # matrices of cardy_axiom_oracle, witness included, on drawn pairs and
    # seeded corruptions of their catalogs, with B as built and, where
    # build_B accepts the broken catalog, counted anew from it.  Wherever
    # premise (a) holds, the three checks it certifies pass when walked,
    # and the traces it reads at the representatives are the pass over
    # every cell.  The dense products cost about dim^2 |X|^3 steps, so |X|
    # is at most 20.
    group = build_group(len(generators[0]), generators)
    k = subgroup_closure(group, data.draw(st.lists(st.integers(0, group.order - 1), max_size=2)))
    setup = build_conjugation_setup(group, k)
    assume(1 < setup.nset.size <= 20)
    h = algebra_for(setup)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for catalog in drawn_catalogs(h.catalog, rng):
        algebras = [h.B]
        try:
            algebras.append(build_B(catalog))
        except ConsistencyError:
            pass
        for b in algebras:
            broken = replace(h, catalog=catalog, B=b)
            results = [_check_nu_multiplicative(broken), _check_nu_equivariant(broken)]
            assert results == [_dense_nu_multiplicative(broken), _dense_nu_equivariant(broken)]
            if catalog.is_model_of(b):
                assert all(result.passed for result in results)
                assert _check_burnside_dimension(broken).passed
                assert catalog.premises(b).traces == catalog.trace_counts()
