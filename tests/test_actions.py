"""Group actions, the conjugation setup, and the field catalog."""

from __future__ import annotations

import gc
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from cardyfrob import (
    ConsistencyError,
    InputError,
    NSet,
    build_catalog,
    build_conjugation_setup,
    build_group,
    coset_nset,
    group_from_document,
    subgroup_closure,
    trivial_subgroup,
)
from conftest import SUITE_DOCUMENTS, left_cosets


def orbit_of_pair(nset: NSet, pair: tuple[int, int]) -> frozenset[tuple[int, int]]:
    x, y = pair
    return frozenset((row[x], row[y]) for row in nset.act_table)


def scanned_fields(nset: NSet) -> tuple[array, list[tuple[str, tuple[int, int], int, int, str]]]:
    """The orbit table and ``(label, representative, size, aut_order, star)``
    of each boundary field by a row-major scan of ``X x X``: each cell not
    yet filled is the smallest pair of its orbit, which takes the next
    position.  The reference for the fill of :func:`cardyfrob.build_catalog`."""
    size = nset.size
    table = array("i", [-1]) * (size * size)
    found = []
    for code in range(size * size):
        if table[code] < 0:
            pair = divmod(code, size)
            orbit = orbit_of_pair(nset, pair)
            for x, y in orbit:
                table[x * size + y] = len(found)
            found.append((pair, len(orbit)))
    fields = [
        (f"b{k}", (x, y), count, nset.group.order // count, f"b{table[y * size + x]}")
        for k, ((x, y), count) in enumerate(found)
    ]
    return table, fields


def pair_labels(catalog) -> dict[tuple[int, int], str]:
    return {
        pair: field.label
        for field, orbit in zip(catalog.boundary, catalog.orbits())
        for pair in orbit
    }


SUITE_FACTS = {
    #       G   K   N   |X| dimA dimB
    "z2": (2, 1, 2, 2, 2, 4),
    "z3": (3, 1, 3, 2, 3, 4),
    "s3": (6, 1, 6, 6, 3, 17),
    "s3_k01": (6, 2, 1, 2, 1, 4),
    "s4": (24, 1, 24, 30, 5, 155),
    "s4_k0123": (24, 2, 4, 9, 4, 65),
    "a5_k0123": (60, 2, 2, 8, 2, 40),
}


# -- NSet ----------------------------------------------------------------------


def test_nset_validates_action_axioms():
    z2 = build_group(2, [[1, 0]])
    NSet(z2, ((0, 1), (1, 0)))  # the swap action is fine
    with pytest.raises(ConsistencyError):
        NSet(z2, ((1, 0), (0, 1)))  # identity must act trivially
    with pytest.raises(ConsistencyError):
        NSet(z2, ((0, 1), (0, 0)))  # rows must be bijections


def test_nset_accessors():
    z2 = build_group(2, [[1, 0]])
    nset = NSet(z2, ((0, 1), (1, 0)))
    assert nset.size == 2
    assert nset.act(1, 0) == 1
    assert nset.fixed_point_count(0) == 2
    assert nset.fixed_point_count(1) == 0
    assert orbit_of_pair(nset, (0, 1)) == frozenset({(0, 1), (1, 0)})


# -- conjugation setup ---------------------------------------------------------


def test_suite_sizes(suite_setups, suite_algebras):
    for name, (g_order, k_order, n_order, x_size, dim_a, dim_b) in SUITE_FACTS.items():
        setup = suite_setups[name]
        h = suite_algebras[name]
        assert setup.group.order == g_order, name
        assert setup.k.order == k_order, name
        assert setup.n_group.order == n_order, name
        assert len(setup.subgroups) == x_size, name
        assert h.A.dim == dim_a, name
        assert h.B.dim == dim_b, name
        assert setup.k_core_free, name


def test_x_orders_frozen(suite_setups):
    assert suite_setups["s3"].x_orders == (1, 2, 2, 2, 3, 6)
    assert suite_setups["a5_k0123"].x_orders == (2, 4, 6, 6, 10, 10, 12, 60)
    assert suite_setups["s4_k0123"].x_orders == (2, 4, 4, 4, 8, 8, 8, 12, 24)


def test_subgroups_all_contain_k(suite_setups):
    for setup in suite_setups.values():
        k_set = set(setup.k.elements)
        for sub in setup.subgroups:
            assert k_set <= set(sub.elements)


def test_action_permutes_x_within_conjugacy(suite_setups):
    # Conjugation preserves subgroup order.
    setup = suite_setups["s4_k0123"]
    nset = setup.nset
    for n in setup.n_group.elements():
        for x in range(nset.size):
            assert setup.subgroups[nset.act(n, x)].order == setup.subgroups[x].order


def test_digest_threads_through(suite_setups):
    for setup in suite_setups.values():
        assert len(setup.digest) == 12


# -- coset actions -------------------------------------------------------------


def test_coset_nset_s3():
    s3 = build_group(3, [[1, 0, 2], [0, 2, 1]])
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    s = subgroup_closure(s3, [transposition])
    nset = coset_nset(s3, s)
    assert nset.size == 3
    cosets = left_cosets(s3, s)
    assert cosets[0] == set(s.elements)
    # Point 0 is S, and g sends it to the coset g S.
    assert all(g in cosets[nset.act(g, 0)] for g in s3.elements())
    # Left translation is transitive.
    reached = {nset.act(g, 0) for g in s3.elements()}
    assert reached == set(range(nset.size))


def test_coset_nset_regular_for_trivial_subgroup():
    z3 = build_group(3, [[1, 2, 0]])
    nset = coset_nset(z3, trivial_subgroup(z3))
    assert nset.size == 3
    for g in z3.elements():
        assert nset.act(g, 0) == z3.mul(g, 0)


# -- field catalog -------------------------------------------------------------


def test_interior_fields_z3(suite_algebras):
    catalog = suite_algebras["z3"].catalog
    assert catalog.interior_labels == ("a0", "a1", "a2")
    for field in catalog.interior:
        assert field.size == 1
        assert field.aut_order == 3
        assert field.d in (0, 1)
    # In an abelian group of odd order every element is a unique square.
    assert [field.d for field in catalog.interior] == [1, 1, 1]
    stars = {field.label: field.star for field in catalog.interior}
    assert stars == {"a0": "a0", "a1": "a2", "a2": "a1"}


def test_interior_field_invariants(suite_algebras):
    for name, h in suite_algebras.items():
        catalog = h.catalog
        n_order = catalog.nset.group.order
        for field in catalog.interior:
            assert field.aut_order * field.size == n_order, name
            star = catalog.interior_field(field.star)
            assert star.star == field.label, name
            assert star.size == field.size, name
            assert star.d == field.d, name
            assert catalog.nset.group.inv(field.representative) in star.members


def test_boundary_fields_z2(suite_algebras):
    catalog = suite_algebras["z2"].catalog
    assert catalog.boundary_labels == ("b0", "b1", "b2", "b3")
    reps = [field.representative for field in catalog.boundary]
    assert reps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(field.aut_order == 2 for field in catalog.boundary)
    stars = {field.label: field.star for field in catalog.boundary}
    assert stars == {"b0": "b0", "b1": "b2", "b2": "b1", "b3": "b3"}
    assert set(catalog.diagonal_counts()) == {0, 3}


def test_boundary_field_invariants(suite_algebras):
    for name, h in suite_algebras.items():
        catalog = h.catalog
        n_order = catalog.nset.group.order
        for field in catalog.boundary:
            assert field.aut_order * field.size == n_order, name
            star = catalog.boundary_field(field.star)
            assert star.star == field.label, name
            x, y = field.representative
            cell = catalog.orbit_table[y * catalog.nset.size + x]
            assert cell == catalog.boundary_position(field.star), name
            position = catalog.boundary_position(field.label)
            assert field.is_diagonal == (position in catalog.diagonal_counts()), name


def test_orbits_partition_pairs(suite_algebras):
    for name, h in suite_algebras.items():
        catalog = h.catalog
        orbits = catalog.orbits()
        seen = sorted(pair for orbit in orbits for pair in orbit)
        size = catalog.nset.size
        assert seen == [(x, y) for x in range(size) for y in range(size)], name
        assert [len(orbit) for orbit in orbits] == [field.size for field in catalog.boundary]
        assert [orbit[0] for orbit in orbits] == [f.representative for f in catalog.boundary]
        assert all(list(orbit) == sorted(orbit) for orbit in orbits), name


def test_catalog_rejects_a_table_that_does_not_partition_pairs(suite_algebras):
    catalog = suite_algebras["s3"].catalog
    table, dim = catalog.orbit_table, len(catalog.boundary)
    for broken, message in (
        (table[:-1], "is not an array('i') of 36 cells"),
        (table.tolist(), "is not an array('i') of 36 cells"),
        (array("q", table), "is not an array('i') of 36 cells"),
        (table[:-1] + array("i", [dim]), "pair (5, 5) lies in no orbit"),
        (array("i", [-1]) + table[1:], "pair (0, 0) lies in no orbit"),
        (table[:-1] + array("i", [0]), "b0 lists 1 pairs but holds 2 cells"),
    ):
        with pytest.raises(ConsistencyError) as caught:
            replace(catalog, orbit_table=broken)
        assert message in str(caught.value)


MEMORY_DOCUMENTS = {
    "s4": SUITE_DOCUMENTS["s4"],
    "a5": {**SUITE_DOCUMENTS["a5_k0123"], "k_generators": []},
}


@pytest.mark.parametrize("name", sorted(MEMORY_DOCUMENTS))
def test_catalog_retains_little_beyond_its_table(name):
    # The boundary orbits are kept as one flat table of |X|^2 4-byte cells,
    # no pair tuples: the catalog retains at most 50 bytes per table cell
    # and per field (interior or boundary).  A tuple of pairs per orbit
    # costs 64 bytes or more per pair alone, so it cannot pass.
    group, k = group_from_document(MEMORY_DOCUMENTS[name])
    nset = build_conjugation_setup(group, k).nset
    build_catalog(nset)  # fills the caches of the group, which the catalog does not own
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        catalog = build_catalog(nset)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    units = nset.size**2 + len(catalog.interior) + len(catalog.boundary)
    assert retained <= 50 * units, (name, retained, units)


def test_identity_interior_label(suite_algebras):
    for h in suite_algebras.values():
        label = h.catalog.identity_interior_label
        assert label == "a0"
        assert h.catalog.interior_field(label).representative == 0


def test_pair_label_round_trip(suite_algebras):
    # Each orbit derived from the table is the N-orbit of each of its pairs,
    # so the table holds, cell by cell, the orbit that orbit_of_pair computes.
    for name, h in suite_algebras.items():
        catalog = h.catalog
        labels = pair_labels(catalog)
        size = catalog.nset.size
        assert len(labels) == size * size, name
        for field, orbit in zip(catalog.boundary, catalog.orbits()):
            for pair in orbit:
                assert labels[pair] == field.label
                assert orbit_of_pair(catalog.nset, pair) == frozenset(orbit), (name, pair)
        assert (0, 99) not in labels


def test_unknown_labels_rejected(suite_algebras):
    catalog = suite_algebras["z2"].catalog
    with pytest.raises(InputError):
        catalog.interior_field("a9")
    with pytest.raises(InputError):
        catalog.boundary_field("nope")


def test_burnside_dimension_for_coset_catalog():
    s3 = build_group(3, [[1, 0, 2], [0, 2, 1]])
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    s = subgroup_closure(s3, [transposition])
    nset = coset_nset(s3, s)
    catalog = build_catalog(nset)
    fixed_pairs = sum(nset.fixed_point_count(g) ** 2 for g in s3.elements())
    assert len(catalog.boundary) * s3.order == fixed_pairs
    assert len(catalog.boundary) == 2


@pytest.mark.parametrize("name", ["s3", "s4"])
def test_build_catalog_refuses_a_wrong_burnside_count(suite_setups, monkeypatch, name):
    # The count is summed over the classes, |C| fix(rep_C)^2; one fixed
    # point too many at the identity adds 2 |X| + 1 to it, and the catalog
    # is refused with the count it found.
    nset = suite_setups[name].nset
    dim = len(build_catalog(nset).boundary)
    counted = NSet.fixed_point_count
    monkeypatch.setattr(
        NSet, "fixed_point_count", lambda self, n: counted(self, n) + (n == 0)
    )
    with pytest.raises(ConsistencyError) as caught:
        build_catalog(nset)
    burnside = nset.group.order * dim + 2 * nset.size + 1
    assert str(caught.value) == (
        f"Burnside count {burnside}/{nset.group.order} does not match {dim} orbits"
    )
