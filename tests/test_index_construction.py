"""The index-keyed construction of ``A``, ``B`` and ``phi``.

:meth:`EquippedFrobeniusAlgebra.from_indices` validates rows from outside;
the label constructor translates labels and hands them to it, and
:meth:`~EquippedFrobeniusAlgebra.permuted` remaps positions through it.  Both
paths must store the same constants in the same order, on random sparse
algebras with ``Fraction`` constants, zero constants and mixed-denominator
linear forms.  ``build_A`` and ``build_B`` hand their counted rows and the
pairing counted with them to a private core without that validation; on
the suite, on drawn pairs and on broken catalogs they must equal
``from_indices`` on the same rows, pairing key order included.  The store
is read only through ``pair_products``, ``left_products`` and
``stored_products``, which must agree with one another, and no module but
``frobenius`` may name it.  ``from_indices`` stores a copy of its rows.
``build_B`` reads the catalog's orbit table, which cannot be handed a
table that does not partition ``X x X`` (the catalog names the pair or the
field when it is built), and must peak near the memory it keeps; ``phi`` must expand every class sum of the dense permutation model
over the ``nu`` matrices.  ``build_phi`` counts at the least point of each
orbit of points and reads the other rows through the action; it must equal
the per-class scan :func:`reference_phi`, rows or message, on the suite,
on drawn pairs, on a coset action and on broken catalogs, refuse interior
fields that are not closed under conjugation, and allocate no ``|X|^2``
list.
"""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob import (
    ConsistencyError,
    EquippedFrobeniusAlgebra,
    InputError,
    build_A,
    build_B,
    build_catalog,
    build_group,
    build_phi,
    cardy_from_pair,
    coset_nset,
    subgroup_closure,
)
from cardyfrob.cardy import _phi_is_rho
from cardyfrob.oracles import _permutation_model
from conftest import SUITE_DOCUMENTS
from test_index_checks import moved_pair, seed_of, swapped_pairs
from test_lattice import permutations_up_to
from test_model_certificate import fused_orbits
from test_sparse_checks import sparse_algebra_inputs


def stored(alg: EquippedFrobeniusAlgebra) -> list:
    """The stored constants in row-major order, with the type of each value."""
    return [
        (i, j, [(k, value, type(value)) for k, value in expansion.items()])
        for i, j, expansion in alg.stored_products()
    ]


def assert_accessors_agree(alg: EquippedFrobeniusAlgebra) -> None:
    """``stored_products`` lists each nonzero ``pair_products(i, j)`` once,
    row-major and in the order of ``left_products(i)``, which holds exactly
    the nonzero ``pair_products(i, .)``."""
    listed = list(alg.stored_products())
    assert [i for i, _, _ in listed] == sorted(i for i, _, _ in listed)
    for i in range(alg.dim):
        row = alg.left_products(i)
        nonzero = {j: alg.pair_products(i, j) for j in range(alg.dim) if alg.pair_products(i, j)}
        assert row == nonzero
        assert [(j, expansion) for left, j, expansion in listed if left == i] == list(row.items())
    assert all(expansion == alg.pair_products(i, j) for i, j, expansion in listed)


def assert_one_dict_per_expansion(alg: EquippedFrobeniusAlgebra) -> None:
    """The store holds one dict object per distinct expansion: products with
    equal expansions share it, and unequal ones never do."""
    expansions = [expansion for _, _, expansion in alg.stored_products()]
    distinct = {tuple(expansion.items()) for expansion in expansions}
    assert len({id(expansion) for expansion in expansions}) == len(distinct)


def index_inputs(inputs: dict) -> dict:
    """The label-keyed constructor arguments ``inputs`` in basis positions,
    the products as one row per left position."""
    basis = inputs["basis"]
    position = {label: i for i, label in enumerate(basis)}
    rows: list = [{} for _ in basis]
    for (left, right), expansion in inputs["products"].items():
        rows[position[left]][position[right]] = {
            position[out]: value for out, value in expansion.items()
        }
    return {
        "basis": basis,
        "products": rows,
        "linear_form": {position[label]: v for label, v in inputs["linear_form"].items()},
        "involution": [position[inputs["involution"][label]] for label in basis],
        "unit": {position[label]: value for label, value in inputs["unit"].items()},
    }


def expected_products(inputs: dict) -> list:
    """The constants as the label constructor must store them: zeros dropped,
    integral values as ``int``, row-major and in the order of ``inputs``
    within a row."""
    basis = inputs["basis"]
    position = {label: i for i, label in enumerate(basis)}
    out = []
    for (left, right), expansion in inputs["products"].items():
        cleaned = []
        for label, value in expansion.items():
            value = Fraction(value)
            if value:
                exact = value.numerator if value.denominator == 1 else value
                cleaned.append((position[label], exact, type(exact)))
        if cleaned:
            out.append((position[left], position[right], cleaned))
    return sorted(out, key=itemgetter(0))


def per_entry_form(alg: EquippedFrobeniusAlgebra) -> tuple:
    """``l(e_i e_j)`` summed entry by entry in ``Fraction``, zeros dropped."""
    rows: tuple = tuple({} for _ in range(alg.dim))
    for i, j, expansion in alg.stored_products():
        total = sum(
            (Fraction(value) * alg.linear_form[k] for k, value in expansion.items()),
            Fraction(0),
        )
        if total:
            rows[i][j] = total
    return rows


def assert_same_algebra(left: EquippedFrobeniusAlgebra, right: EquippedFrobeniusAlgebra):
    assert left.basis == right.basis
    assert stored(left) == stored(right)
    assert left.form == right.form
    assert left.linear_form == right.linear_form
    assert left.involution == right.involution
    assert left.unit == right.unit


@settings(max_examples=200, deadline=None)
@given(sparse_algebra_inputs(), st.randoms(use_true_random=False))
def test_index_core_matches_label_constructor(inputs, rng):
    labelled = EquippedFrobeniusAlgebra(**inputs)
    indexed = EquippedFrobeniusAlgebra.from_indices(**index_inputs(inputs))
    assert_same_algebra(indexed, labelled)
    assert stored(labelled) == expected_products(inputs)
    assert_accessors_agree(labelled)
    assert labelled.form == per_entry_form(labelled)
    assert all(type(entry) is Fraction for row in labelled.form for entry in row.values())
    order = list(labelled.basis)
    rng.shuffle(order)
    shuffled = labelled.permuted(order)
    assert_accessors_agree(shuffled)
    assert shuffled.basis == tuple(order)
    assert shuffled.form == per_entry_form(shuffled)
    assert shuffled.unit == labelled.unit
    for left in order:
        assert shuffled.star_label(left) == labelled.star_label(left)
        assert shuffled.linear(shuffled.basis_element(left)) == labelled.linear(
            labelled.basis_element(left)
        )
        for right in order:
            for out in order:
                assert shuffled.structure_constant(left, right, out) == (
                    labelled.structure_constant(left, right, out)
                )
    assert_same_algebra(shuffled.permuted(labelled.basis), labelled)


def three_dimensional(**changes) -> dict:
    inputs = {
        "basis": ("e0", "e1", "e2"),
        "products": [{0: {0: 1}}, {1: {1: 2}}, {2: {2: 3}}],
        "linear_form": {0: 1},
        "involution": (0, 1, 2),
        "unit": {0: 1},
    }
    inputs.update(changes)
    return inputs


def test_from_indices_accepts_a_well_formed_algebra():
    alg = EquippedFrobeniusAlgebra.from_indices(**three_dimensional())
    assert alg.structure_constant("e2", "e2", "e2") == 3
    assert alg.form == ({0: Fraction(1)}, {}, {})


@pytest.mark.parametrize(
    "changes",
    [
        {"products": [{0: {0: 1}}, {1: {1: 2}}]},
        {"products": [{0: {0: 1}}, {3: {1: 2}}, {}]},
        {"products": [{0: {0: 1}}, {-1: {1: 2}}, {}]},
        {"products": {0: {0: {0: 1}}, 4: {1: {1: 2}}, 8: {2: {2: 3}}}},
        {"products": [{0: {3: 1}}, {}, {}]},
        {"products": [{0: {-1: 1}}, {}, {}]},
        {"products": [{0: {3: Fraction(1, 2)}}, {}, {}]},
        {"involution": (0, 0, 2)},
        {"involution": (0, 1)},
        {"involution": (0, 1, 3)},
        {"linear_form": {3: 1}},
        {"unit": {5: 1}},
        {"basis": ("e0", "e0", "e2")},
        {"basis": ()},
    ],
    ids=[
        "row-count",
        "right-past-end",
        "negative-right",
        "code-keyed",
        "output-past-end",
        "negative-output",
        "fraction-output-past-end",
        "repeated-star",
        "short-involution",
        "star-past-end",
        "linear-form-position",
        "unit-position",
        "repeated-label",
        "empty-basis",
    ],
)
def test_from_indices_rejects_malformed_shapes(changes):
    with pytest.raises(InputError):
        EquippedFrobeniusAlgebra.from_indices(**three_dimensional(**changes))


def test_from_indices_drops_zero_constants():
    alg = EquippedFrobeniusAlgebra.from_indices(
        **three_dimensional(
            products=[{0: {0: 1, 1: 0}, 1: {2: 0}}, {1: {1: Fraction(4, 2)}}, {}]
        )
    )
    assert stored(alg) == [(0, 0, [(0, 1, int)]), (1, 1, [(1, 2, int)])]


def test_from_indices_stores_plain_dicts():
    # Plain rows of int constants, a read-only mapping, a Fraction or a zero
    # constant: every row is stored as a copy, of plain dicts with int
    # constants.
    for rows in (
        [{0: {0: 1}}, {1: {1: 2}}, {}],
        [{0: {0: 1}}, {1: MappingProxyType({1: 2})}, {}],
        [{0: {0: 1}}, MappingProxyType({1: {1: 2}}), {}],
        [{0: {0: 1}}, {1: {1: Fraction(2)}}, {}],
        [{0: {0: 1}}, {1: {1: 2, 0: 0}}, {}],
    ):
        alg = EquippedFrobeniusAlgebra.from_indices(**three_dimensional(products=rows))
        assert all(alg.left_products(i) is not row for i, row in enumerate(rows))
        assert all(type(alg.left_products(i)) is dict for i in range(3))
        assert type(alg.pair_products(1, 1)) is dict
        assert alg.pair_products(1, 1) is not rows[1][1]
        assert stored(alg) == [(0, 0, [(0, 1, int)]), (1, 1, [(1, 2, int)])]


@pytest.mark.parametrize("i, j", [(-1, 2), (3, 0), (0, 3), (0, -1), (-4, -4)])
def test_store_accessors_reject_positions_outside_the_basis(i, j):
    alg = EquippedFrobeniusAlgebra.from_indices(**three_dimensional())
    with pytest.raises(InputError, match="outside 0..2"):
        alg.pair_products(i, j)
    if not 0 <= i < 3:
        with pytest.raises(InputError, match="outside 0..2"):
            alg.left_products(i)


def store_attribute(alg: EquippedFrobeniusAlgebra) -> str:
    """The name of the attribute holding the rows that ``left_products`` hands out."""
    (name,) = [
        name
        for name, value in vars(alg).items()
        if isinstance(value, list)
        and len(value) == alg.dim
        and all(row is alg.left_products(i) for i, row in enumerate(value))
    ]
    return name


def test_only_frobenius_names_the_store():
    # Every other module and test reads the constants through the three
    # accessors, so a new store layout touches frobenius.py alone.
    name = store_attribute(EquippedFrobeniusAlgebra.from_indices(**three_dimensional()))
    assert name.startswith("_")
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "cardyfrob"
    assert pattern.search((package / "frobenius.py").read_text(encoding="utf-8"))
    readers = [
        path.relative_to(root).as_posix()
        for path in sorted(package.glob("*.py")) + sorted((root / "tests").glob("*.py"))
        if path.name != "frobenius.py" and pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert readers == []


# -- B and phi from the orbit table ------------------------------------------------


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_build_B_stores_chain_counts_in_first_seen_order(suite_algebras, name):
    # c_ij^k counted one chain x -> y -> z at a time at the representative
    # (x, z) of each O_k in turn, each (i, j) stored when first seen; the
    # store lists the rows in order of i, each row in first-seen order.
    h = suite_algebras[name]
    catalog = h.catalog
    orbit_of = {pair: k for k, orbit in enumerate(catalog.orbits()) for pair in orbit}
    expected: dict[tuple[int, int], dict[int, int]] = {}
    for k, field in enumerate(catalog.boundary):
        x, z = field.representative
        for y in range(catalog.nset.size):
            expansion = expected.setdefault((orbit_of[(x, y)], orbit_of[(y, z)]), {})
            expansion[k] = expansion.get(k, 0) + 1
    b = build_B(catalog)
    assert stored(b) == [
        (i, j, [(k, count, int) for k, count in expansion.items()])
        for (i, j), expansion in sorted(expected.items(), key=lambda item: item[0][0])
    ]
    for alg in (h.A, b):
        assert_accessors_agree(alg)


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_build_B_stores_one_dict_per_distinct_product(suite_algebras, name):
    # Products with equal expansions share one dict, so B keeps each
    # distinct product of the orbital algebra once.
    assert_one_dict_per_expansion(suite_algebras[name].B)
    assert_one_dict_per_expansion(build_B(suite_algebras[name].catalog))


def traced(build, *args) -> tuple:
    """What ``build(*args)`` returns, the memory it retains and its traced peak,
    both above the memory traced before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        built = build(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, retained - base, peak - base


@pytest.mark.parametrize("name", ["s4", "s4_k0123", "a5_k0123"])
def test_build_B_peaks_near_what_it_keeps(suite_algebras, name):
    # The constants are counted one block of orbits at a time and each
    # block's products go straight into the rows that B keeps, so no second
    # copy of them is alive during the build: the traced peak stays within
    # 1.5 times the memory the built algebra retains.  Each distinct product
    # is stored once, so B retains at most 0.6 times what the reference,
    # one dict per product, retains.
    catalog = suite_algebras[name].catalog
    b, retained, peak = traced(build_B, catalog)
    assert b.dim == len(catalog.boundary)
    assert peak <= 1.5 * retained, (name, peak, retained)
    reference, unshared, _ = traced(reference_B, catalog)
    assert stored(reference) == stored(b)
    assert retained <= 0.6 * unshared, (name, retained, unshared)


def form_items(alg: EquippedFrobeniusAlgebra) -> list:
    """The pairing rows as ``(j, value)`` lists, so that key order counts."""
    return [list(row.items()) for row in alg.form]


def assert_equals_revalidated(alg: EquippedFrobeniusAlgebra) -> None:
    """``alg`` equals :meth:`~EquippedFrobeniusAlgebra.from_indices` on a copy
    of its own rows, ``l``, star and unit, which recomputes the pairing: the
    same stored rows, the same pairing in the same key order, and the same
    linear form, unit and involution."""
    rows = [{j: dict(e) for j, e in alg.left_products(i).items()} for i in range(alg.dim)]
    again = EquippedFrobeniusAlgebra.from_indices(
        basis=alg.basis,
        products=rows,
        linear_form=dict(enumerate(alg.linear_form)),
        involution=list(alg.involution),
        unit={alg.index(label): value for label, value in alg.unit.coeffs.items()},
    )
    assert_same_algebra(alg, again)
    assert form_items(alg) == form_items(again)


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_builders_equal_from_indices_on_their_rows(suite_algebras, name):
    # build_A and build_B count their pairing with their constants and skip
    # the shape scans of from_indices; on their own rows, from_indices must
    # find the same algebra.
    h = suite_algebras[name]
    for alg in (h.A, h.B, build_A(h.catalog), build_B(h.catalog)):
        assert_equals_revalidated(alg)


@settings(max_examples=20, deadline=None)
@given(generators=permutations_up_to(5), data=st.data())
def test_builders_equal_from_indices_on_random_pairs(generators, data):
    group = build_group(len(generators[0]), generators)
    k = subgroup_closure(group, data.draw(st.lists(st.integers(0, group.order - 1), max_size=2)))
    h = cardy_from_pair(group, k)
    assert_equals_revalidated(h.A)
    assert_equals_revalidated(h.B)
    assert_one_dict_per_expansion(h.B)
    assert assert_phi_equals_reference(h.catalog)


def reference_B(catalog) -> EquippedFrobeniusAlgebra | str:
    """``B`` as :meth:`~EquippedFrobeniusAlgebra.from_indices` builds it from
    constants counted one chain ``x -> y -> z`` at a time at each
    representative, with ``l(e_k)`` the diagonal cells of ``O_k`` over
    ``|N|``; or, where the pairing it recomputes is not ``|O_i| / |N|`` at
    ``(i, i*)`` alone, the message with which :func:`build_B` refuses."""
    size, n_order = catalog.nset.size, catalog.nset.group.order
    table, fields = catalog.orbit_table, catalog.boundary
    rows: list = [{} for _ in fields]
    for k, field in enumerate(fields):
        x, z = field.representative
        for y in range(size):
            expansion = rows[table[x * size + y]].setdefault(table[y * size + z], {})
            expansion[k] = expansion.get(k, 0) + 1
    traces = [0] * len(fields)
    for x in range(size):
        traces[table[x * size + x]] += 1
    position = {field.label: k for k, field in enumerate(fields)}
    alg = EquippedFrobeniusAlgebra.from_indices(
        basis=catalog.boundary_labels,
        products=rows,
        linear_form={k: Fraction(trace, n_order) for k, trace in enumerate(traces) if trace},
        involution=[position[field.star] for field in fields],
        unit={k: 1 for k, field in enumerate(fields) if field.is_diagonal},
    )
    for i, field in enumerate(fields):
        x, z = field.representative
        star = table[z * size + x]
        if alg.form[i] != {star: Fraction(field.size, n_order)}:
            return (
                "the pairing recomputed from structure constants is not "
                f"|O|/|N| at ({field.label}, {fields[star].label}) and zero "
                "elsewhere in its row"
            )
    return alg


@pytest.mark.parametrize("name", ["s3", "s4", "s4_k0123", "a5_k0123"])
def test_build_B_equals_its_reference_on_broken_catalogs(suite_algebras, name):
    # The last pairs of two orbits of one size swapped, and two self-paired
    # orbits fused into one: an orbit may then hold diagonal cells off its
    # representative, and the counted pairing sums over every orbit with a
    # diagonal cell.  Where build_B returns, it is the reference algebra, its
    # store in the same order and its pairing in the same key order; where it
    # refuses, with the same message.  Such a catalog can give one row
    # products from two blocks of orbits (representatives in two rows of
    # the table); that row must then list its products in first-seen order,
    # and no product shared within a block may change.
    catalog = suite_algebras[name].catalog
    fields = catalog.boundary
    by_size: dict[int, list[int]] = {}
    for k, field in enumerate(fields):
        if field.size > 1:
            by_size.setdefault(field.size, []).append(k)
    selfpaired = [k for k, field in enumerate(fields) if field.star == field.label]
    rng = random.Random(seed_of(name))
    broken = [swapped_pairs(catalog, a, b) for ks in by_size.values() for a, b in zip(ks, ks[1:])]
    fusions = list(combinations(selfpaired, 2))
    fused = [
        fused_orbits(catalog, keep, gone)
        for keep, gone in rng.sample(fusions, min(12, len(fusions)))
    ]
    broken += fused
    sampled = rng.sample(broken, min(24, len(broken)))
    built = merged = 0
    phi_built = set()
    # Every fused catalog too: those are the ones whose rows meet two blocks.
    for candidate in sampled + [other for other in fused if other not in sampled]:
        phi_built.add(assert_phi_equals_reference(candidate))
        expected = reference_B(candidate)
        try:
            b = build_B(candidate)
        except ConsistencyError as exc:
            assert str(exc) == expected
            continue
        assert stored(b) == stored(expected)
        assert_same_algebra(b, expected)
        assert form_items(b) == form_items(expected)
        built += 1
        merged += rows_from_two_blocks(b, candidate)
    assert built
    assert merged, name
    # phi equals its reference too, built on some of these catalogs and
    # refused with the same message on others.
    assert phi_built == {True, False}, name


def rows_from_two_blocks(alg: EquippedFrobeniusAlgebra, catalog) -> int:
    """The number of rows of ``alg`` whose products expand over orbits whose
    representatives lie in two rows of the table."""
    block = [field.representative[0] for field in catalog.boundary]
    return sum(
        len({block[k] for expansion in alg.left_products(i).values() for k in expansion}) > 1
        for i in range(alg.dim)
    )


@pytest.mark.parametrize("name", ["s4", "a5_k0123"])
@pytest.mark.parametrize("mode", ["drop", "copy"])
def test_build_B_names_the_pair_outside_the_partition(suite_algebras, name, mode):
    # build_B can no longer be handed such a catalog: the catalog rejects a
    # table that does not partition X x X when it is built.  A dropped pair
    # lies in no orbit, and the error names it; a pair copied into a second
    # orbit leaves that orbit's size wrong, and the error names the field.
    # Every orbit of more than one pair is broken once.
    h = suite_algebras[name]
    fields = h.catalog.boundary
    orbits = h.catalog.orbits()
    sources = [position for position, field in enumerate(fields) if field.size > 1]
    rng = random.Random(seed_of(name))
    for source in sources:
        target = rng.choice([other for other in range(len(fields)) if other != source])
        with pytest.raises(ConsistencyError) as caught:
            build_B(moved_pair(h.catalog, source, target, mode))
        message = str(caught.value)
        if mode == "drop":
            assert message == f"pair {orbits[source][-1]} lies in no orbit", (source, message)
        else:
            expected = f"{fields[target].label} lists {fields[target].size + 1} pairs but holds"
            assert message.startswith(expected), (source, target, message)


def reference_phi(catalog) -> tuple[dict[int, int], ...] | str:
    """The rows of ``phi`` from one ``|X|^2`` count list per class, cell
    ``x * |X| + y`` holding ``#{n in alpha : n y = x}``, each list compared
    with its counts at the orbit representatives cell by cell; or, at the
    first class in interior order that is not constant on an orbit, the
    message with which :func:`build_phi` refuses, naming the least such
    orbit."""
    act_table = catalog.nset.act_table
    size = catalog.nset.size
    table = catalog.orbit_table
    firsts = [x * size + y for x, y in (field.representative for field in catalog.boundary)]
    rows = []
    for field in catalog.interior:
        counts = [0] * len(table)
        for member in field.members:
            for y, x in enumerate(act_table[member]):
                counts[x * size + y] += 1
        row = list(map(counts.__getitem__, firsts))
        if counts != list(map(row.__getitem__, table)):
            k = min(k for k, count in zip(table, counts) if count != row[k])
            return (
                f"class sum {field.label} is not constant on the orbit "
                f"of {catalog.boundary[k].label}; phi is undefined"
            )
        rows.append({k: value for k, value in enumerate(row) if value})
    return tuple(rows)


def assert_phi_equals_reference(catalog) -> bool:
    """``build_phi`` equals :func:`reference_phi` on ``catalog``: the same
    rows, keys in the same order and ``int`` counts, or the same message.
    Whether it built rows."""
    expected = reference_phi(catalog)
    try:
        phi = build_phi(catalog)
    except ConsistencyError as exc:
        assert str(exc) == expected
        return False
    assert not isinstance(expected, str), expected
    assert [list(row.items()) for row in phi] == [list(row.items()) for row in expected]
    assert all(type(count) is int for row in phi for count in row.values())
    return True


def test_build_phi_equals_its_reference_on_a_coset_action():
    # S4 on the 12 cosets of <(0 1)>: a transitive action that is not by
    # conjugation, one orbit of points.
    group = build_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    s = subgroup_closure(group, [group.perms.index((1, 0, 2, 3))])
    catalog = build_catalog(coset_nset(group, s))
    assert catalog.nset.size == 12
    assert assert_phi_equals_reference(catalog)


@pytest.mark.parametrize("name", ["s4", "a5_k0123"])
def test_build_phi_names_the_least_witness_over_every_row(suite_algebras, name):
    # The last pairs of two orbits swapped, and of two more: cells break in
    # several rows of the table, and the message names the first class in
    # interior order and its least orbit over all of them, as the per-class
    # scan does.
    catalog = suite_algebras[name].catalog
    by_size: dict[int, list[int]] = {}
    for k, field in enumerate(catalog.boundary):
        if field.size > 1:
            by_size.setdefault(field.size, []).append(k)
    swaps = [(a, b) for ks in by_size.values() for a, b in zip(ks, ks[1:])]
    rng = random.Random(seed_of(name))
    refused = 0
    for _ in range(16):
        (a, b), (c, d) = rng.sample(swaps, 2)
        if len({a, b, c, d}) == 4:
            refused += not assert_phi_equals_reference(
                swapped_pairs(swapped_pairs(catalog, a, b), c, d)
            )
    assert refused, name


def with_members(catalog, members: dict[int, tuple[int, ...]]):
    """``catalog`` with the interior fields at the given positions listing
    the given members instead of their own."""
    fields = list(catalog.interior)
    for position, listed in members.items():
        cls = replace(fields[position].conjugacy_class, members=listed)
        fields[position] = replace(fields[position], conjugacy_class=cls)
    return replace(catalog, interior=tuple(fields))


@pytest.mark.parametrize("name", ["s3", "s4"])
def test_build_phi_names_a_field_not_closed_under_conjugation(suite_algebras, name):
    # Row g x0 is read as row x0 through g^-1 only for fields closed under
    # conjugation.  The last member of one field moved into another opens
    # both; the last members of two fields dropped open both too.  Either
    # way the first of them in interior order is named.
    h = suite_algebras[name]
    fields = h.catalog.interior
    large = [a for a, field in enumerate(fields) if field.size > 1]
    assert len(large) >= 2
    for source in large:
        for target in range(len(fields)):
            if target == source:
                continue
            moved = {
                source: fields[source].members[:-1],
                target: fields[target].members + fields[source].members[-1:],
            }
            broken = [with_members(h.catalog, moved)]
            if target in large:
                dropped = {a: fields[a].members[:-1] for a in (source, target)}
                broken.append(with_members(h.catalog, dropped))
            for catalog in broken:
                with pytest.raises(ConsistencyError) as caught:
                    build_phi(catalog)
                assert str(caught.value) == (
                    f"interior field {fields[min(source, target)].label} is not closed "
                    "under conjugation in N; phi is undefined"
                ), (name, source, target)
                assert not _phi_is_rho(replace(h, catalog=catalog))


def test_build_phi_allocates_no_list_of_every_cell(a6_catalog):
    # A6 with K = 1, 501 points: one list of |X|^2 entries takes 8 |X|^2
    # bytes of pointers alone, about 2 MB, and build_phi's working memory,
    # its traced peak less what it retains, stays far below that.
    catalog = a6_catalog
    size = catalog.nset.size
    assert size == 501
    phi, retained, peak = traced(build_phi, catalog)
    assert phi == reference_phi(catalog)
    assert peak - retained < 8 * size * size, (peak, retained)


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_phi_expands_the_class_sums_of_the_permutation_model(suite_algebras, name):
    # rho(E_alpha) == sum_k phi[alpha][k] nu(beta_k) as dense integer matrices,
    # and phi is the per-class scan of the reference.
    h = suite_algebras[name]
    assert assert_phi_equals_reference(h.catalog)
    assert h.phi == build_phi(h.catalog)
    model = _permutation_model(h)
    size = h.catalog.nset.size
    for a_label, row in zip(h.A.basis, h.phi):
        assert all(type(entry) is int and entry for entry in row.values())
        expanded = [[Fraction(0)] * size for _ in range(size)]
        for k, entry in row.items():
            for x, nu_row in enumerate(model.nu[h.B.basis[k]]):
                for y, bit in enumerate(nu_row):
                    if bit:
                        expanded[x][y] += entry
        assert expanded == model.rho_class[a_label], (name, a_label)
