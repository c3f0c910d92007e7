"""The subgroup lattice over K against its brute-force reference.

:func:`cardyfrob.subgroups_containing` extends one representative per
class of subgroups under conjugation by ``N_G(K)``, by one coset per orbit
of the representative's stabiliser, and registers each class whole.  It
misses nothing: for ``L`` over ``K``, take ``M`` maximal over ``K`` inside
``L``; then ``L = <M, x>``, which is a conjugate of an extension of the
representative of ``M``'s class.  :func:`cardyfrob.subgroup_lattice_oracle`
adjoins to every found subgroup one element of each of its left cosets.
Both must return the same subgroups, orders and ``id``s, on the suite
pairs and on drawn pairs of degree up to 5.  On the drawn pairs the
conjugation and coset actions are checked against their references as
well, the orbit table and boundary fields of both against a row-major
scan of ``X x X``, the interior fields' ``aut_order`` and ``d`` against a
scan of ``N`` per class, and :func:`cardyfrob.hecke_check` on the coset
action of ``(G, K)``.  Past the oracle's reach, digests of the lattices of S5, PSL(2,7),
A6, PSL(2,13) and S6 with ``K = 1``, and of S5's lattices over every
``K``, pin the output, and digests of the field catalogs of A6 with
``K = 1`` and of S5 over every ``K`` pin the orbit tables.
The classical subgroup counts and the points bound are checked here as
well.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cardyfrob.groups
from cardyfrob import (
    ResourceError,
    build_catalog,
    build_conjugation_setup,
    build_group,
    centralizer,
    coset_nset,
    group_from_document,
    hecke_check,
    normalizer,
    quotient_group,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_lattice_oracle,
    subgroups_containing,
    trivial_subgroup,
)
from cardyfrob.cli import run
from cardyfrob.groups import POINTS_BOUND
from cardyfrob.oracles import conjugation_table_oracle, is_associative

from conftest import SUITE_DOCUMENTS, left_cosets
from test_actions import scanned_fields

A5_GENERATORS = [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]
S5_GENERATORS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
S6_GENERATORS = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
# PSL(2,7) as the group generated by (0 1 2 3 4 5 6) and (2 4)(5 6).
PSL27_GENERATORS = [[1, 2, 3, 4, 5, 6, 0], [0, 1, 4, 3, 2, 6, 5]]
A6_GENERATORS = [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]
# PSL(2,13) on the projective line 0..12 and infinity (13), generated by
# x -> x + 1 and x -> -1/x.
PSL213_GENERATORS = [
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 13],
    [13, 12, 6, 4, 3, 5, 2, 11, 8, 10, 9, 7, 1, 0],
]

# sha256 of the compact JSON of [[order, elements], ...] for K = 1, written
# by the coset sweep that enumerated every subgroup by its own walks.
LATTICE_DIGESTS = {
    "s5": "bb318781d680e4b7ddfc51d28050b28739a025fa6f4ddbc8c1bb89827e9dcb08",
    "psl27": "a3bcaca40d353486b258aecc2c5a0cbd066904f1289c4fc339b500788a451520",
    "a6": "8f6a6613d1a1a10382828613a76282bbcd0f9a168167808e6a78b0ea6b8092f6",
    "psl213": "02bb18c995169418e79900231c4be0b595eb255077441065b2e5a5f47cfbce4b",
    "s6": "e36bb1f58593b67b296e4ac6f8a873bf7d0ec1d1f9a9b069ad951cdbbd152fee",
}
# The same for the list of lattices over every subgroup K of S5, in order.
S5_EVERY_K_DIGEST = "e3e4480be6cacbdf7cfecc4113be386635dea00b6a9c97a514d4c0da926f5344"
# sha256 of each field catalog's orbit_table.tobytes() followed by the
# compact JSON of [[label, representative, size, star], ...], in turn: of A6
# with K = 1, and of S5 over every K in order.  Written by the row-major
# scan that filled the table before the fill went by orbits of points.
CATALOG_DIGESTS = {"a6": "aa0f8207ad3b47f80d18819a3f4dd76349399016ce034e43175674b08e0942d1"}
S5_EVERY_K_CATALOG_DIGEST = "8e02b7fa72d744162a51860939dacd27393e0240974a46760dca1617312d85b2"

EXTRA_DOCUMENTS = {
    "a5": {"degree": 5, "generators": A5_GENERATORS, "k_generators": []},
    "a5_k0123": {
        "degree": 5,
        "generators": A5_GENERATORS,
        "k_generators": [[1, 0, 3, 2, 4]],
    },
}


@pytest.fixture(scope="module")
def s6():
    return build_group(6, S6_GENERATORS)


def lattice_view(subgroups):
    return [(sub.id, sub.order, sub.elements) for sub in subgroups]


def assert_matches_oracle(group, k):
    fast = subgroups_containing(group, k)
    assert lattice_view(fast) == lattice_view(subgroup_lattice_oracle(group, k))
    assert all(sub.parent is group for sub in fast)


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_suite_lattices_match_oracle(name):
    assert_matches_oracle(*group_from_document(SUITE_DOCUMENTS[name]))


@pytest.mark.parametrize("name", sorted(EXTRA_DOCUMENTS))
def test_a5_lattices_match_oracle(name):
    assert_matches_oracle(*group_from_document(EXTRA_DOCUMENTS[name]))


def order_element_pairs(subgroups):
    return [[sub.order, list(sub.elements)] for sub in subgroups]


def sha256_of(payload):
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode("ascii")).hexdigest()


def catalog_digest(catalogs):
    digest = hashlib.sha256()
    for catalog in catalogs:
        digest.update(catalog.orbit_table.tobytes())
        fields = [[f.label, list(f.representative), f.size, f.star] for f in catalog.boundary]
        digest.update(json.dumps(fields, separators=(",", ":")).encode("ascii"))
    return digest.hexdigest()


def permutations_up_to(max_degree):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda degree: st.lists(st.permutations(range(degree)), min_size=1, max_size=3)
    )


# Degree <= 4, shared with the drawn-pair tests of other modules.
permutations_of_degree = permutations_up_to(4)


def symmetric_and_alternating(degree):
    """Generators of ``S_d`` (a ``d``-cycle and a transposition) and of
    ``A_d`` (``(0 1 2)`` and an even cycle through the other points)."""
    cycle = [*range(1, degree), 0]
    transposition = [1, 0, *range(2, degree)]
    three_cycle = [1, 2, 0, *range(3, degree)]
    # (0 1 .. d-1) is even for odd d; for even d, (1 2 .. d-1) fixes 0.
    even = cycle if degree % 2 else [0, *range(2, degree), 1]
    return [[cycle, transposition], [three_cycle, even]]


def seeded_permutations_up_to(max_degree):
    """:func:`permutations_up_to`, or with equal weight the generators of
    ``S_d`` or ``A_d`` for ``4 <= d <= max_degree``, so that groups of order
    24 and more come up: drawn generators mostly close to tiny groups."""
    degrees = range(4, max_degree + 1)
    named = [gens for degree in degrees for gens in symmetric_and_alternating(degree)]
    return st.one_of(st.sampled_from(named), permutations_up_to(max_degree))


@settings(max_examples=60, deadline=None)
@given(generators=permutations_up_to(5), data=st.data())
def test_random_lattices_match_oracle(generators, data):
    group = build_group(len(generators[0]), generators)
    k_generators = data.draw(
        st.lists(st.integers(min_value=0, max_value=group.order - 1), max_size=3)
    )
    k = subgroup_closure(group, k_generators)
    # The oracle closes every adjunction by a set sweep: 2 s for index 60 in
    # S5, 11.5 s for S5 with K = 1.
    assume(group.order // k.order <= 60)
    assert_matches_oracle(group, k)
    # The action rows come from the lattice's class walks; the oracle
    # conjugates by every coset representative.
    setup = build_conjugation_setup(group, k)
    assert setup.nset.act_table == conjugation_table_oracle(setup)
    # The coset action shares the walk that fills the rows.
    cosets = left_cosets(group, k)
    coset_of = {x: point for point, coset in enumerate(cosets) for x in coset}
    coset_action = coset_nset(group, k)
    assert coset_action.act_table == tuple(
        tuple(coset_of[group.mul(g, min(coset))] for coset in cosets) for g in range(group.order)
    )
    # The orbit table is filled one orbit of points at a time; a row-major
    # scan of X x X must give the same table and fields.  The conjugation
    # action has many orbits of points, the coset action one.
    catalog = build_catalog(setup.nset)
    for nset, built in ((setup.nset, catalog), (coset_action, build_catalog(coset_action))):
        table, fields = scanned_fields(nset)
        assert built.orbit_table == table
        assert fields == [
            (field.label, field.representative, field.size, field.aut_order, field.star)
            for field in built.boundary
        ]
    # |Aut alpha| and d^alpha, read off the class size and one tally of
    # squares, against a scan of N per class.
    n_group = setup.n_group
    for field in catalog.interior:
        inverse = n_group.inv(field.representative)
        assert field.aut_order == centralizer(n_group, field.representative).order
        assert field.d == sum(n_group.mul(n, n) == inverse for n in n_group.elements())
    # B of the coset action is the Hecke algebra of (G, K).
    comparison = hecke_check(group, k)
    assert all(check.passed for check in comparison.checks)
    assert comparison.boundary_dimension == comparison.double_coset_count


@settings(max_examples=60, deadline=None)
@given(generators=permutations_of_degree, data=st.data())
def test_generators_close_to_the_group(generators, data):
    # The generator certificates of the action and the orbit checks rest on
    # these: they must generate, number at most log2 |G|, and the table
    # must be associative; likewise for a quotient by a normal subgroup.
    group = build_group(len(generators[0]), generators)
    k = subgroup_closure(group, data.draw(st.lists(st.integers(0, group.order - 1), max_size=2)))
    quotient, _ = quotient_group(normalizer(group, k), k)
    for g in (group, quotient):
        assert subgroup_closure(g, g.generators).elements == tuple(range(g.order))
        assert len(g.generators) <= g.order.bit_length() - 1
        assert is_associative(g)


@pytest.mark.parametrize(
    ("degree", "generators", "count"),
    [
        (4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]], 30),
        (5, A5_GENERATORS, 59),
        (5, S5_GENERATORS, 156),
        (7, PSL27_GENERATORS, 179),
    ],
    ids=["s4", "a5", "s5", "psl27"],
)
def test_classical_subgroup_counts(degree, generators, count):
    group = build_group(degree, generators)
    subgroups = subgroups_containing(group, trivial_subgroup(group))
    assert len(subgroups) == count
    for sub in subgroups:
        subgroup_from_elements(group, sub.elements)


@pytest.mark.parametrize(
    ("name", "degree", "generators"),
    [
        ("s5", 5, S5_GENERATORS),
        ("psl27", 7, PSL27_GENERATORS),
        ("a6", 6, A6_GENERATORS),
        ("psl213", 14, PSL213_GENERATORS),
    ],
)
def test_lattice_digests_under_the_bound(name, degree, generators):
    group = build_group(degree, generators)
    subgroups = subgroups_containing(group, trivial_subgroup(group))
    assert sha256_of(order_element_pairs(subgroups)) == LATTICE_DIGESTS[name]
    if name in CATALOG_DIGESTS:
        setup = build_conjugation_setup(group, trivial_subgroup(group))
        assert catalog_digest([build_catalog(setup.nset)]) == CATALOG_DIGESTS[name]


def test_lattices_over_every_subgroup_of_s5():
    # Every K, not only K = 1, so that N_G(K) modulo K and the stabilisers
    # of the classes under it vary.
    group = build_group(5, S5_GENERATORS)
    ks = subgroups_containing(group, trivial_subgroup(group))
    lattices = [order_element_pairs(subgroups_containing(group, k)) for k in ks]
    assert sha256_of(lattices) == S5_EVERY_K_DIGEST
    catalogs = [build_catalog(build_conjugation_setup(group, k).nset) for k in ks]
    assert catalog_digest(catalogs) == S5_EVERY_K_CATALOG_DIGEST


def test_s6_has_1455_subgroups(s6, monkeypatch):
    # Past the points bound, so only with the bound lifted.
    monkeypatch.setattr(cardyfrob.groups, "POINTS_BOUND", 1455)
    subgroups = subgroups_containing(s6, trivial_subgroup(s6))
    assert len(subgroups) == 1455
    assert [sub.order for sub in subgroups[:2]] == [1, 2]
    assert subgroups[-1].elements == tuple(range(720))
    assert sha256_of(order_element_pairs(subgroups)) == LATTICE_DIGESTS["s6"]


def test_points_bound_admits_nontrivial_k_in_s6(s6):
    assert s6.perms is not None
    index = {perm: position for position, perm in enumerate(s6.perms)}
    for k_perm, count in [
        ((1, 0, 2, 3, 4, 5), 99),
        ((1, 0, 3, 2, 4, 5), 90),
        ((1, 2, 0, 3, 4, 5), 44),
    ]:
        k = subgroup_closure(s6, [index[k_perm]])
        assert len(subgroups_containing(s6, k)) == count <= POINTS_BOUND


def test_points_bound_rejects_s6_with_trivial_k(s6):
    with pytest.raises(ResourceError, match="points bound"):
        subgroups_containing(s6, trivial_subgroup(s6))


def test_small_points_bound_rejects_s4(monkeypatch):
    group = build_group(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]])
    monkeypatch.setattr(cardyfrob.groups, "POINTS_BOUND", 30)
    assert len(subgroups_containing(group, trivial_subgroup(group))) == 30
    monkeypatch.setattr(cardyfrob.groups, "POINTS_BOUND", 29)
    with pytest.raises(ResourceError, match="more than 29 subgroups"):
        subgroups_containing(group, trivial_subgroup(group))


def test_check_on_s6_exits_3_at_the_points_bound(capsys, tmp_path):
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({"degree": 6, "generators": S6_GENERATORS}))
    started = time.perf_counter()
    code = run(["check", "--group", str(path)])
    assert time.perf_counter() - started < 10.0
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("resource error: ") and "points bound" in captured.err
