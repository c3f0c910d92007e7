"""The permutation-model certificate of ``verify_cardy_frobenius``.

``verify_cardy_frobenius`` computes premise (a), ``is_model_of(B)``, once
per call.  Under (a), nu-multiplicative, nu-equivariant and
burnside-dimension pass without their walks and the Cardy traces
``tr(L_i R_j)`` are counted on the orbit table; under (a) and (d),
``phi`` being the rows ``build_phi`` counts from the catalog, phi-central
passes too.  Every one of these results, witness
included, must equal the slow references :func:`cardy_condition_oracle` and
:func:`cardy_axiom_oracle`, on the suite and on seeded corruptions of
``phi``, of the constants of ``B`` (which break (a)), of its pairing (which
leaves (a) standing) and of the catalog.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob import (
    ConsistencyError,
    FieldCatalog,
    build_B,
    build_group,
    bundled_input,
    cardy_axiom_oracle,
    cardy_condition_oracle,
    cardy_from_pair,
    group_from_document,
    subgroup_closure,
    verify_all,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob.cardy import _model_certificate, _phi_is_rho
from cardyfrob.cli import run
from cardyfrob.frobenius import multiplication_traces
from cardyfrob.oracles import _permutation_model
from conftest import SUITE_DOCUMENTS
from test_index_checks import SMALL_PAIRS, merged_orbits, seed_of, swapped_pairs
from test_lattice import permutations_of_degree
from test_sparse_checks import PINNED_PAIRS, with_constant, with_form_entry

MODEL_NAMES = ("phi-central", "cardy", "nu-multiplicative", "nu-equivariant")
CERTIFIED = {"phi-central", "nu-multiplicative", "nu-equivariant", "burnside-dimension"}


def model_results(h) -> list:
    return [result for result in verify_cardy_frobenius(h) if result.name in MODEL_NAMES]


def oracle_results(h) -> list:
    by_name = {result.name: result for result in cardy_axiom_oracle(h)}
    by_name["cardy"] = cardy_condition_oracle(h)
    return [by_name[name] for name in MODEL_NAMES]


def assert_matches_oracles(h, context) -> set[str]:
    """The four results of ``h`` asserted equal to the references; the names that failed."""
    results = model_results(h)
    assert results == oracle_results(h), context
    return {result.name for result in results if not result.passed}


def dense_phi_is_rho(h) -> bool:
    """``sum_k phi[alpha][k] nu(beta_k) == rho(E_alpha)`` for every ``alpha``, by dense matrices."""
    model = _permutation_model(h)
    size = h.catalog.nset.size
    for field, row in zip(h.catalog.interior, h.phi):
        image = [[0] * size for _ in range(size)]
        for k, value in row.items():
            for x, line in enumerate(model.nu[h.catalog.boundary[k].label]):
                for y, entry in enumerate(line):
                    image[x][y] += value * entry
        if image != model.rho_class[field.label]:
            return False
    return True


def model_traces(catalog) -> dict:
    return dict(catalog.cardy_trace_counts())


def constant_traces(b) -> dict:
    return {
        (i, j): value
        for i, row in enumerate(multiplication_traces(b, right=True))
        for j, value in row.items()
        if value
    }


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_model_checks_match_oracles_on_the_suite(suite_algebras, name):
    h = suite_algebras[name]
    assert _model_certificate(h, h.catalog.is_model_of(h.B)) == CERTIFIED
    assert assert_matches_oracles(h, name) == set()


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_phi_matches_oracles(suite_algebras, name):
    # One entry of phi off by +1 or -1, and one key added with a count or
    # with a zero: each fails premise (d), so phi-central takes its walk
    # (which passes on an added zero).
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    failed: set[str] = set()
    for _ in range(3):
        alpha, k = rng.randrange(len(h.phi)), rng.randrange(h.B.dim)
        changes = [(k, h.phi[alpha].get(k, 0) + delta) for delta in (1, -1)]
        missing = [position for position in range(h.B.dim) if position not in h.phi[alpha]]
        if missing:
            added = rng.choice(missing)
            changes += [(added, 1), (added, 0)]
        for key, value in changes:
            rows = [dict(row) for row in h.phi]
            rows[alpha][key] = value
            broken = replace(h, phi=tuple(rows))
            assert not _phi_is_rho(broken)
            assert _model_certificate(broken, True) == CERTIFIED - {"phi-central"}
            failed |= assert_matches_oracles(broken, (name, alpha, key, value))
    assert {"phi-central", "cardy"} <= failed


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_constant_matches_oracles(suite_algebras, name):
    # A stored constant c_ij^k with i != j in the support of phi, which moves
    # the commutator [phi(e_alpha), e_j], another stored one and a zero one,
    # each off by +1 and -1: the chains break, so nothing is certified,
    # phi-central and nu-multiplicative take their walks and the Cardy traces
    # come from the constants.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    image = set().union(*h.phi)
    stored = [(i, j, k) for i, j, expansion in b.stored_products() for k in expansion]
    triples = [rng.choice([(i, j, k) for i, j, k in stored if i in image and i != j])]
    triples += [rng.choice(stored), tuple(rng.randrange(b.dim) for _ in range(3))]
    failed: set[str] = set()
    for i, j, k in triples:
        for delta in (1, -1):
            shifted = with_constant(b, i, j, k, b.pair_products(i, j).get(k, 0) + delta)
            broken = replace(h, B=shifted)
            assert not h.catalog.is_model_of(broken.B)
            failed |= assert_matches_oracles(broken, (name, (i, j, k), delta))
    assert {"phi-central", "cardy", "nu-multiplicative"} <= failed


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_pairing_matches_oracles(suite_algebras, name):
    # One entry of the pairing of B off by 1/7: the constants, and with them
    # premise (a), are intact, so the Cardy traces come from the model while
    # the left side reads the broken pairing.  Only a row of the pairing that
    # phi reaches can move the left side; the first entry lies in one.
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    image = sorted(set().union(*h.phi))
    failed: set[str] = set()
    for i in (rng.choice(image), rng.randrange(h.B.dim), rng.randrange(h.B.dim)):
        j = rng.randrange(h.B.dim)
        broken = replace(h, B=with_form_entry(h.B, i, j, Fraction(1, 7)))
        assert broken.catalog.is_model_of(broken.B)
        failed |= assert_matches_oracles(broken, (name, i, j))
    assert failed == {"cardy"}


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_merged_orbits_match_oracles(suite_algebras, name):
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    for _ in range(3):
        keep, emptied = rng.sample(range(h.B.dim), 2)
        broken = replace(h, catalog=merged_orbits(h.catalog, keep, emptied))
        assert not broken.catalog.is_model_of(broken.B)
        assert "nu-multiplicative" in assert_matches_oracles(broken, (name, keep, emptied))


@pytest.mark.parametrize("name", ["s4_k0123", "a5_k0123"])
def test_swapped_orbit_pairs_match_oracles(suite_algebras, name):
    # The last pairs of two orbits of one size swapped: the table is no
    # longer invariant, with B as it is and with B counted anew from it.
    h = suite_algebras[name]
    by_size: dict[int, list[int]] = {}
    for k, field in enumerate(h.catalog.boundary):
        if field.size > 1:
            by_size.setdefault(field.size, []).append(k)
    swaps = [pair for ks in by_size.values() for pair in zip(ks, ks[1:])]
    failed: set[str] = set()
    for a, b in swaps[:2]:
        catalog = swapped_pairs(h.catalog, a, b)
        candidates = [h.B]
        try:
            candidates.append(build_B(catalog))
        except ConsistencyError:
            pass
        for b_algebra in candidates:
            broken = replace(h, catalog=catalog, B=b_algebra)
            failed |= assert_matches_oracles(broken, (name, a, b))
    assert "nu-equivariant" in failed


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_phi_is_rho_only_when_every_cell_agrees(suite_algebras, name):
    # Premise (d) must mean nu(phi(e_alpha)) == rho(E_alpha) at every cell.
    # A merged catalog keeps every representative, so the counts read there
    # are those of phi; where the counts of the two orbits differ, as at a
    # diagonal and an off-diagonal orbit under the identity class, (d) fails.
    h = suite_algebras[name]
    assert _phi_is_rho(h) and dense_phi_is_rho(h)
    fields = h.catalog.boundary
    diagonal = next(k for k, field in enumerate(fields) if field.is_diagonal)
    other = next(k for k, field in enumerate(fields) if not field.is_diagonal)
    rng = random.Random(seed_of(name))
    pairs = [(diagonal, other), (other, diagonal)]
    pairs += [tuple(rng.sample(range(h.B.dim), 2)) for _ in range(6)]
    for keep, emptied in pairs:
        broken = replace(h, catalog=merged_orbits(h.catalog, keep, emptied))
        agrees = dense_phi_is_rho(broken)
        assert agrees == all(row.get(keep, 0) == row.get(emptied, 0) for row in h.phi)
        assert _phi_is_rho(broken) == agrees, (name, keep, emptied)


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_model_traces_match_the_constants(suite_algebras, name):
    h = suite_algebras[name]
    assert model_traces(h.catalog) == constant_traces(h.B)


@settings(max_examples=20, deadline=None)
@given(generators=permutations_of_degree, data=st.data())
def test_model_traces_match_the_constants_on_random_pairs(generators, data):
    group = build_group(len(generators[0]), generators)
    elements = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    h = cardy_from_pair(group, subgroup_closure(group, elements))
    assert model_traces(h.catalog) == constant_traces(h.B)
    assert _model_certificate(h, h.catalog.is_model_of(h.B)) == CERTIFIED


def counted_premises(monkeypatch) -> Counter:
    """Counts of the calls of ``FieldCatalog.is_model_of`` and ``trace_counts``."""
    calls: Counter = Counter()
    for name in ("is_model_of", "trace_counts"):
        original = getattr(FieldCatalog, name)

        def counting(self, *args, original=original, name=name):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(FieldCatalog, name, counting)
    return calls


def test_check_decides_the_premises_once(monkeypatch, capsys):
    # cardyfrob check shares one record of premise (a) and the traces
    # between the verifiers of B and of the Cardy structure; each public
    # verifier, called alone, still computes its own.
    calls = counted_premises(monkeypatch)
    group = str(bundled_input("groups/s4_k_double_transposition.json"))
    assert run(["check", "--group", group]) == 0
    assert '"all_passed": true' in capsys.readouterr().out
    assert calls == {"is_model_of": 1, "trace_counts": 1}
    h = cardy_from_pair(*group_from_document(SUITE_DOCUMENTS["s4_k0123"]))
    for verify, algebra in ((verify_equipped, h.B), (verify_cardy_frobenius, h)):
        calls.clear()
        assert all(result.passed for result in verify(algebra))
        assert calls == {"is_model_of": 1, "trace_counts": 1}, verify.__name__


def test_verify_all_is_the_three_verifiers_on_one_record(suite_algebras, monkeypatch):
    # Intact, and with a constant of B raised by 1, which breaks premise (a).
    h = suite_algebras["s3_k01"]
    broken = replace(h, B=with_constant(h.B, 1, 1, 0, h.B.pair_products(1, 1).get(0, 0) + 1))
    calls = counted_premises(monkeypatch)
    for structure in (h, broken):
        calls.clear()
        results = verify_all(structure)
        assert calls == {"is_model_of": 1, "trace_counts": 1}
        assert results == {
            "A": verify_equipped(structure.A),
            "B": verify_equipped(structure.B),
            "cardy": verify_cardy_frobenius(structure),
        }
    assert all(result.passed for results in verify_all(h).values() for result in results)
    assert not all(result.passed for result in verify_all(broken)["cardy"])
