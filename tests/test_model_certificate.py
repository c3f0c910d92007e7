"""The permutation-model certificate of ``verify_equipped``.

``build_B`` keeps the catalog it counted ``B`` from, and ``verify_equipped``
decides one premise from it on every call: ``B`` is the catalog's orbital
algebra.  That is premise (a), the orbit matrices ``nu(e_k)`` multiply as
the stored constants say, together with the star, the stored pairing, the
unit and the linear form equal to the catalog's counts.  When it holds, the
unit, associativity, the star anti-automorphism, form invariance and
casimir-central pass without their walks; when it fails, none of them
does, even with (a) standing.  Every result, witness included, must equal
the one of the same algebra without a model, on intact algebras, on seeded
corruptions of a constant, a pairing entry, the star, the unit or the
linear form, and with catalogs that are no permutation model of ``B``.
"""

from __future__ import annotations

import copy
import random
from array import array
from dataclasses import replace
from fractions import Fraction

import pytest

from cardyfrob import (
    AlgebraElement,
    CheckResult,
    ConsistencyError,
    build_B,
    dense_axiom_oracle,
    frobenius,
    verify_equipped,
)
from conftest import SUITE_DOCUMENTS
from test_index_checks import SMALL_PAIRS, merged_orbits, seed_of, swapped_pairs
from test_sparse_checks import (
    DENSE_NAMES,
    PINNED_PAIRS,
    with_constant,
    with_form_entry,
)

CERTIFIABLE = {
    "unit",
    "associativity",
    "involution-antiautomorphism",
    "form-invariance",
    "casimir-central",
}


def model_certificate(alg) -> set[str]:
    """The checks of ``CERTIFIABLE`` that ``verify_equipped(alg)`` passes
    without calling their walks."""
    walked: set[str] = set()

    def stub(name: str):
        def check(_alg) -> CheckResult:
            walked.add(name)
            return CheckResult(name, True)

        return check

    with pytest.MonkeyPatch.context() as patch:
        for name in CERTIFIABLE:
            patch.setattr(frobenius, "_check_" + name.replace("-", "_"), stub(name))
        verify_equipped(alg)
    return CERTIFIABLE - walked


def with_model(alg, model):
    """A copy of ``alg`` that carries ``model`` as its permutation model."""
    copied = copy.copy(alg)
    copied._model = model
    return copied


def with_star(alg, a: int, b: int):
    """A copy of ``alg`` (model included) with the stars of ``e_a`` and ``e_b``
    exchanged, with no pairing inverse or Casimir element carried over."""
    star = list(alg.involution)
    star[a], star[b] = star[b], star[a]
    broken = copy.copy(alg)
    broken._form_inverse = broken._casimir = broken._twisted_casimir = None
    broken.involution = tuple(star)
    return broken


def with_linear_value(alg, k: int, value):
    """A copy of ``alg`` (model included) with ``l(e_k) = value`` and the
    stored pairing left as it was."""
    broken = copy.copy(alg)
    broken.linear_form = tuple(value if i == k else old for i, old in enumerate(alg.linear_form))
    return broken


def assert_generic(alg, dense: bool = True) -> list:
    """``verify_equipped(alg)``, asserted equal to the same algebra without a
    model and, under the names it scans, to the dense reference unless
    ``dense`` is off."""
    results = verify_equipped(alg)
    assert results == verify_equipped(with_model(alg, None))
    if dense:
        assert [r for r in results if r.name in DENSE_NAMES] == dense_axiom_oracle(alg)
    return results


def test_build_B_keeps_its_catalog_as_the_model(suite_algebras):
    for h in suite_algebras.values():
        assert h.B._model is h.catalog
        assert h.A._model is None
        assert h.B.permuted(h.B.basis[::-1])._model is None
        assert with_constant(h.B, 0, 0, 0, 1)._model is None


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_intact_B_is_certified(suite_algebras, name):
    b = suite_algebras[name].B
    assert model_certificate(b) == CERTIFIABLE
    results = assert_generic(b, dense=name != "s4")
    assert all(result.passed for result in results)


def test_certified_B_walks_no_middles(suite_algebras):
    b = suite_algebras["a5_k0123"].B
    assert "associativity" in model_certificate(b)
    assert "associativity" not in model_certificate(with_model(b, None))


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_constant_breaks_premise_a(suite_algebras, name):
    # Stored constants off by +1, -1 and +1/2 or zeroed, and zero ones off
    # by the same: each breaks the chains, so nothing is certified and every
    # check takes its walk.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    stored = [(i, j, k) for i, j, expansion in b.stored_products() for k in expansion]
    triples = rng.sample(stored, min(2, len(stored)))
    triples += [tuple(rng.randrange(b.dim) for _ in range(3)) for _ in range(2)]
    failed: set[str] = set()
    for i, j, k in triples:
        old = b.pair_products(i, j).get(k, 0)
        for value in {old + 1, old - 1, old + Fraction(1, 2), 0} - {old}:
            broken = with_model(with_constant(b, i, j, k, value), h.catalog)
            assert model_certificate(broken) == set(), (name, (i, j, k), value)
            results = assert_generic(broken)
            failed |= {result.name for result in results if not result.passed}
    assert "associativity" in failed


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_constant_without_chains_breaks_premise_a(suite_algebras, name):
    # A constant stored at an (i, j, k) where the table counts no chain x_k
    # -> y -> z_k: every counted chain still finds its constant, and only the
    # count of the matched constants against the stored ones sees it.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    unstored = [
        (i, j, k)
        for i in range(b.dim)
        for j in range(b.dim)
        for k in range(b.dim)
        if k not in b.pair_products(i, j)
    ]
    for i, j, k in rng.sample(unstored, 3):
        broken = with_model(with_constant(b, i, j, k, 1), h.catalog)
        assert not h.catalog.is_model_of(broken), (name, (i, j, k))
        assert model_certificate(broken) == set()
        assert_generic(broken)


def with_unit(alg, coeffs: dict[int, int]):
    """A copy of ``alg`` (model included) whose unit is ``coeffs``, keyed by
    position, with no pairing inverse or Casimir element carried over."""
    broken = copy.copy(alg)
    broken._form_inverse = broken._casimir = broken._twisted_casimir = None
    broken.unit = AlgebraElement({alg.basis[k]: value for k, value in coeffs.items()})
    return broken


def assert_uncertified(h, broken, case) -> list:
    """``assert_generic(broken)``, asserted to keep premise (a) of ``h``'s
    catalog and to have nothing certified."""
    assert h.catalog.is_model_of(broken), case
    assert model_certificate(broken) == set(), case
    return assert_generic(broken)


def failing(results) -> list[str]:
    return [result.name for result in results if not result.passed]


# Each corruption below leaves premise (a) standing and moves one of the
# unit, a pairing entry, the star and the linear form off the catalog's
# counts.  B is then no orbital algebra, so all five walks run and every
# result is that of the algebra without a model.


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_changed_unit_breaks_only_premise_e(suite_algebras, name):
    # Three units: moved off one diagonal orbit onto an orbit off the
    # diagonal, given coefficient 2 on that diagonal orbit, and given an
    # orbit off the diagonal besides.  Only the unit check fails.
    h = suite_algebras[name]
    b = h.B
    diagonal = sorted(h.catalog.diagonal_counts())
    unit = dict.fromkeys(diagonal, 1)
    assert {b.index(label): value for label, value in b.unit.coeffs.items()} == unit
    rng = random.Random(seed_of(name))
    on = rng.choice(diagonal)
    off = rng.choice([k for k in range(b.dim) if k not in unit])
    moved = {**{k: 1 for k in diagonal if k != on}, off: 1}
    for coeffs in (moved, {**unit, on: 2}, {**unit, off: 1}):
        broken = with_unit(b, coeffs)
        results = assert_uncertified(h, broken, (name, coeffs))
        assert results == verify_equipped(broken.permuted(broken.basis))
        assert failing(results) == ["unit"], (name, coeffs)


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_form_entry_breaks_only_premise_c(suite_algebras, name):
    # A stored pairing entry off by 1/7: form invariance fails at least once.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    failed: set[str] = set()
    for _ in range(4):
        i, j = rng.randrange(b.dim), rng.randrange(b.dim)
        broken = with_form_entry(b, i, j, Fraction(1, 7))
        failed.update(failing(assert_uncertified(h, broken, (name, "form", i, j))))
    assert "form-invariance" in failed


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_changed_involution_breaks_only_premise_b(suite_algebras, name):
    # The stars of two elements exchanged: the anti-automorphism fails at
    # least once.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    failed: set[str] = set()
    for _ in range(3):
        s, t = rng.sample(range(b.dim), 2)
        failed.update(failing(assert_uncertified(h, with_star(b, s, t), (name, "star", s, t))))
    assert "involution-antiautomorphism" in failed


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_changed_linear_form_certifies_nothing(suite_algebras, name):
    # l(e_k) off by 1/7 or zeroed, the stored pairing kept: the pairing
    # recomputed from the products is no longer the stored one, so dual
    # reconstruction fails every time.
    h = suite_algebras[name]
    b = h.B
    diagonal = sorted(h.catalog.diagonal_counts())
    rng = random.Random(seed_of(name))
    for k in [rng.choice(diagonal)] + [rng.randrange(b.dim) for _ in range(2)]:
        old = b.linear_form[k]
        for value in {old + Fraction(1, 7), Fraction(0)} - {old}:
            broken = with_linear_value(b, k, value)
            results = assert_uncertified(h, broken, (name, "linear", k, value))
            assert "dual-reconstruction" in failing(results), (name, k, value)


def fused_orbits(catalog, keep: int, gone: int):
    """``catalog`` with orbit ``gone`` listed under ``keep`` and removed, the
    later positions moved down by one.  Both orbits are their own stars, so
    every star label still names a field."""
    table = array("i", (keep if k == gone else k - (k > gone) for k in catalog.orbit_table))
    fields = list(catalog.boundary)
    fields[keep] = replace(fields[keep], size=fields[keep].size + fields[gone].size)
    del fields[gone]
    return replace(catalog, boundary=tuple(fields), orbit_table=table)


@pytest.mark.parametrize("name", ["s4_k0123", "a5_k0123"])
def test_fused_orbits_certify_nothing(suite_algebras, name):
    # Two self-paired orbits listed as one: the table stays invariant, and B
    # counted from the fused catalog has the chains at its representatives,
    # so only the single-orbit walk keeps it from being certified.
    h = suite_algebras[name]
    fields = h.catalog.boundary
    selfpaired = [k for k, field in enumerate(fields) if field.star == field.label]
    pairs = [(a, b) for a in selfpaired for b in selfpaired if a < b]
    rng = random.Random(seed_of(name))
    rng.shuffle(pairs)
    checked = 0
    for keep, gone in pairs:
        catalog = fused_orbits(h.catalog, keep, gone)
        try:
            fused = build_B(catalog)
        except ConsistencyError:
            continue
        assert fused._model is catalog
        assert model_certificate(fused) == set(), (name, keep, gone)
        assert_generic(fused)
        checked += 1
        if checked == 3:
            break
    assert checked == 3


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_merged_orbits_certify_nothing(suite_algebras, name):
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    for _ in range(3):
        keep, emptied = rng.sample(range(h.B.dim), 2)
        broken = with_model(h.B, merged_orbits(h.catalog, keep, emptied))
        assert model_certificate(broken) == set(), (name, keep, emptied)
        assert_generic(broken, dense=False)


def test_swapped_orbit_pairs_certify_nothing(suite_algebras):
    # As the model of B itself and of B counted anew from the swapped
    # catalog, where build_B accepts it.
    h = suite_algebras["a5_k0123"]
    by_size: dict[int, list[int]] = {}
    for k, field in enumerate(h.catalog.boundary):
        if field.size > 1:
            by_size.setdefault(field.size, []).append(k)
    rebuilt = 0
    for a, b in [pair for ks in by_size.values() for pair in zip(ks, ks[1:])]:
        catalog = swapped_pairs(h.catalog, a, b)
        assert model_certificate(with_model(h.B, catalog)) == set(), (a, b)
        assert_generic(with_model(h.B, catalog), dense=False)
        try:
            counted = build_B(catalog)
        except ConsistencyError:
            continue
        assert model_certificate(counted) == set(), (a, b)
        assert_generic(counted)
        rebuilt += 1
        if rebuilt == 2:
            break
    assert rebuilt == 2
