"""The conjugation action, built and certified on generators of N.

:func:`cardyfrob.build_conjugation_setup` takes the rows of the generators
of ``N`` from the class walks of the subgroup lattice and composes the
other rows; :func:`cardyfrob.oracles.conjugation_table_oracle` conjugates
by every coset representative.  :class:`cardyfrob.NSet` checks the product
rule on generators and falls back to every pair ``(g, h)`` on a failure, so
a corrupted table must be rejected with the first failing pair of the full
loop, computed here by brute force.
"""

from __future__ import annotations

import random

import pytest

from cardyfrob import (
    ConsistencyError,
    NSet,
    build_conjugation_setup,
    build_group,
    coset_nset,
    group_from_document,
    subgroup_closure,
)
from cardyfrob.oracles import conjugation_table_oracle
from conftest import SUITE_DOCUMENTS, left_cosets

S5 = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
A5 = [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]
S4 = [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]
DOUBLE_TRANSPOSITION = [[1, 0, 3, 2, 4]]

# The ladder pairs of the benchmark and S5 with K = 1, next to the suite.
EXTRA_DOCUMENTS = {
    "ladder_s4": {"degree": 4, "generators": S4},
    "ladder_a5": {"degree": 5, "generators": A5},
    "ladder_s5_k0123": {"degree": 5, "generators": S5, "k_generators": DOUBLE_TRANSPOSITION},
    "ladder_a5_k0123": {"degree": 5, "generators": A5, "k_generators": DOUBLE_TRANSPOSITION},
    "s5": {"degree": 5, "generators": S5},
}
DOCUMENTS = {**SUITE_DOCUMENTS, **EXTRA_DOCUMENTS}


def setup_of(name: str):
    return build_conjugation_setup(*group_from_document(DOCUMENTS[name]))


def first_incompatible_product(nset_group, table) -> tuple[int, int] | None:
    """The first ``(g, h)`` with ``rho(g) rho(h) != rho(gh)``, by brute force."""
    for g in range(nset_group.order):
        for h in range(nset_group.order):
            gh = table[nset_group.mul(g, h)]
            if any(table[g][table[h][x]] != gh[x] for x in range(len(gh))):
                return g, h
    return None


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_generator_rows_match_conjugation_oracle(name):
    setup = setup_of(name)
    assert setup.nset.act_table == conjugation_table_oracle(setup)


@pytest.mark.parametrize("degree, generators, s_generators", [
    (3, [[1, 0, 2], [0, 2, 1]], [[1, 0, 2]]),
    (4, S4, [[1, 0, 2, 3], [0, 2, 1, 3]]),
    (5, A5, [[1, 0, 3, 2, 4]]),
    (5, S5, []),
])
def test_coset_actions_are_left_translations(degree, generators, s_generators):
    group = build_group(degree, generators)
    assert group.perms is not None
    index = {perm: position for position, perm in enumerate(group.perms)}
    s = subgroup_closure(group, [index[tuple(perm)] for perm in s_generators])
    nset = coset_nset(group, s)
    cosets = left_cosets(group, s)
    position = {coset: point for point, coset in enumerate(cosets)}
    expected = tuple(
        tuple(position[frozenset(group.mul(h, x) for x in coset)] for coset in cosets)
        for h in range(group.order)
    )
    assert nset.act_table == expected


def corrupted_tables(table, seed: str, trials: int = 6):
    """Seeded corruptions of rows past the identity: two images swapped in one
    row, or one row copied from another element, alternately."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randrange(1, len(table))
        rows = [list(row) for row in table]
        if trial % 2 == 0:
            a, b = rng.sample(range(len(rows[n])), 2)
            rows[n][a], rows[n][b] = rows[n][b], rows[n][a]
        else:
            m = rng.choice([m for m in range(len(table)) if m != n])
            rows[n] = list(rows[m])
        yield tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("name", ["z3", "ladder_s4", "ladder_a5"])
def test_corrupted_action_names_the_first_failing_product(name):
    setup = setup_of(name)
    group = setup.n_group
    raised = 0
    for table in corrupted_tables(setup.nset.act_table, name):
        expected = first_incompatible_product(group, table)
        if expected is None:
            NSet(group, table)
            continue
        with pytest.raises(ConsistencyError) as caught:
            NSet(group, table)
        assert str(caught.value) == f"action is not compatible with the product at {expected}"
        raised += 1
    assert raised >= 3


def test_corrupted_action_texts_are_pinned():
    # The texts the loop over every pair gave before the generator check.
    pinned = {
        "z3": ["(1, 2)", None, "(1, 1)", None, "(1, 2)", None],
        "ladder_s4": ["(1, 6)", "(1, 2)", "(1, 14)", "(1, 7)", "(1, 2)", "(1, 14)"],
        "ladder_a5": ["(1, 37)", "(1, 5)", "(1, 2)", "(1, 30)", "(1, 57)", "(1, 58)"],
    }
    seeds = {"z3": "z3", "ladder_s4": "s4", "ladder_a5": "a5"}
    for name, texts in pinned.items():
        setup = setup_of(name)
        for table, text in zip(corrupted_tables(setup.nset.act_table, seeds[name]), texts):
            try:
                NSet(setup.n_group, table)
            except ConsistencyError as exc:
                assert str(exc) == f"action is not compatible with the product at {text}"
            else:
                assert text is None


@pytest.mark.parametrize("name", ["ladder_s4", "ladder_a5"])
def test_corrupted_non_generator_row_is_named(name):
    # NSet sorts only the identity and generator rows; the product rule makes
    # every other row a composition of permutations.  A row of another
    # element that permutes nothing, with a repeated image or one image too
    # few, still raises the text of the sort over every row.
    setup = setup_of(name)
    group, table = setup.n_group, setup.nset.act_table
    others = [n for n in range(1, group.order) if n not in group.generators]
    rng = random.Random(name)
    for n in rng.sample(others, 3):
        for row in ((table[n][1],) + table[n][1:], table[n][:-1]):
            broken = table[:n] + (row,) + table[n + 1 :]
            with pytest.raises(ConsistencyError) as caught:
                NSet(group, broken)
            text = str(caught.value)
            assert text == f"action row {n} is not a permutation of the points"
    # Two bad rows: the first in element order is named, generator or not.
    first, second = sorted(rng.sample(range(1, group.order), 2))
    rows = list(table)
    for n in (first, second):
        rows[n] = (rows[n][1],) + rows[n][1:]
    with pytest.raises(ConsistencyError) as caught:
        NSet(group, tuple(rows))
    text = str(caught.value)
    assert text == f"action row {first} is not a permutation of the points"

