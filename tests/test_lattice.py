"""The subgroup lattice over K against its brute-force reference.

:func:`cardyfrob.subgroups_containing` sweeps right cosets with bitmasks
and one adjunction per class; :func:`cardyfrob.subgroup_lattice_oracle`
adjoins every element to every found subgroup.  Both must return the same
subgroups, orders and ``id``s.  The classical subgroup counts and the points
bound are checked here as well.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardyfrob.groups
from cardyfrob import (
    ResourceError,
    build_group,
    group_from_document,
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
from cardyfrob.oracles import is_associative

from conftest import SUITE_DOCUMENTS

A5_GENERATORS = [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]
S5_GENERATORS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
S6_GENERATORS = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
# PSL(2,7) as the group generated by (0 1 2 3 4 5 6) and (2 4)(5 6).
PSL27_GENERATORS = [[1, 2, 3, 4, 5, 6, 0], [0, 1, 4, 3, 2, 6, 5]]

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


permutations_of_degree = st.integers(min_value=1, max_value=4).flatmap(
    lambda degree: st.lists(st.permutations(range(degree)), min_size=1, max_size=3)
)


@settings(max_examples=60, deadline=None)
@given(generators=permutations_of_degree, data=st.data())
def test_random_lattices_match_oracle(generators, data):
    group = build_group(len(generators[0]), generators)
    k_generators = data.draw(
        st.lists(st.integers(min_value=0, max_value=group.order - 1), max_size=3)
    )
    assert_matches_oracle(group, subgroup_closure(group, k_generators))


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


def test_s6_has_1455_subgroups(s6, monkeypatch):
    # Past the points bound, so only with the bound lifted.
    monkeypatch.setattr(cardyfrob.groups, "POINTS_BOUND", 1455)
    subgroups = subgroups_containing(s6, trivial_subgroup(s6))
    assert len(subgroups) == 1455
    assert [sub.order for sub in subgroups[:2]] == [1, 2]
    assert subgroups[-1].elements == tuple(range(720))


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
