"""The permutation-model certificate of ``verify_cardy_frobenius``.

``verify_cardy_frobenius`` computes premise (a), ``is_model_of(B)``, once
per call.  Under (a), nu-multiplicative, nu-equivariant and
burnside-dimension pass without their walks; under (a) and (d),
``phi`` being the rows ``build_phi`` counts from the catalog, phi-central
passes too; and when ``B`` is moreover the catalog's orbital algebra and
(e) holds, ``A`` being the class algebra of ``N``, phi-homomorphism,
phi-star and cardy pass as well.  Every one of these results, witness
included, must equal the slow references :func:`cardy_condition_oracle` and
:func:`cardy_axiom_oracle`, on the suite and on seeded corruptions of
``phi``, of the constants of ``B`` (which break (a)), of its pairing, star,
unit and linear form (which leave (a) standing) and of the catalog, a
catalog whose table only the first generator of ``N`` leaves invariant
among them.  A ``B`` one element shorter or longer than the catalog has
orbits is no model of it, and every check still returns a result.
Wherever the certificate holds, each certified check passes when walked, on
the suite and on drawn pairs.  Copies of ``A`` with a constant changed, two
stars exchanged, a pairing entry, the unit or the linear form off, or a
pairing inverse that is not the pairing's, and catalogs whose interior
fields are not the conjugacy classes, fail (e), and the three checks it
certifies then give the results of their walks.
"""

from __future__ import annotations

import copy
import random
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardyfrob import (
    CheckResult,
    ConsistencyError,
    EquippedFrobeniusAlgebra,
    FieldCatalog,
    build_B,
    build_cardy_frobenius,
    build_conjugation_setup,
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
from cardyfrob.actions import _chains_match, _counted_orbits, _moved_orbits
from cardyfrob.cardy import (
    _check_burnside_dimension,
    _check_cardy,
    _check_nu_equivariant,
    _check_nu_multiplicative,
    _check_phi_central,
    _check_phi_homomorphism,
    _check_phi_star,
    _is_class_algebra,
    _model_certificate,
    _phi_is_rho,
)
from cardyfrob.cli import run
from cardyfrob.oracles import _permutation_model
from conftest import SUITE_DOCUMENTS, algebra_for
from test_index_checks import SMALL_PAIRS, merged_orbits, seed_of, swapped_pairs
from test_lattice import seeded_permutations_up_to
from test_model_certificate import fused_orbits, with_linear_value, with_star, with_unit
from test_sparse_checks import PINNED_PAIRS, with_constant, with_form_entry

MODEL_NAMES = (
    "phi-homomorphism",
    "phi-central",
    "phi-star",
    "cardy",
    "nu-multiplicative",
    "nu-equivariant",
)
# The checks certified by (a) alone, by (a) and (d), and by (a), orbital, (d) and (e).
MODEL_CERTIFIED = {"nu-multiplicative", "nu-equivariant", "burnside-dimension"}
PHI_CERTIFIED = {"phi-central"}
CLASS_CERTIFIED = {"phi-homomorphism", "phi-star", "cardy"}
CERTIFIED = MODEL_CERTIFIED | PHI_CERTIFIED | CLASS_CERTIFIED
WALKS = {
    "phi-homomorphism": _check_phi_homomorphism,
    "phi-central": _check_phi_central,
    "phi-star": _check_phi_star,
    "nu-multiplicative": _check_nu_multiplicative,
    "nu-equivariant": _check_nu_equivariant,
    "burnside-dimension": _check_burnside_dimension,
    "cardy": _check_cardy,
}


def model_results(h) -> list:
    return [result for result in verify_cardy_frobenius(h) if result.name in MODEL_NAMES]


def oracle_results(h) -> list:
    by_name = {result.name: result for result in cardy_axiom_oracle(h)}
    by_name["cardy"] = cardy_condition_oracle(h)
    return [by_name[name] for name in MODEL_NAMES]


def assert_matches_oracles(h, context) -> set[str]:
    """The results of ``MODEL_NAMES`` for ``h`` asserted equal to the references;
    the names that failed."""
    results = model_results(h)
    assert results == oracle_results(h), context
    return {result.name for result in results if not result.passed}


def certificate(h) -> set[str]:
    """The checks certified for ``h`` on the premises its catalog decides for ``h.B``."""
    return _model_certificate(h, h.catalog.premises(h.B))


def assert_certificate_sound(h, context) -> set[str]:
    """Each check certified for ``h`` called directly, asserted to pass."""
    certified = certificate(h)
    for name in certified:
        assert WALKS[name](h) == CheckResult(name, True), (context, name)
    return certified


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


@pytest.mark.parametrize("name", SMALL_PAIRS)
def test_model_checks_match_oracles_on_the_suite(suite_algebras, name):
    h = suite_algebras[name]
    assert certificate(h) == CERTIFIED
    assert assert_matches_oracles(h, name) == set()


@pytest.mark.parametrize("name", PINNED_PAIRS)
def test_corrupted_phi_matches_oracles(suite_algebras, name):
    # One entry of phi off by +1 or -1, and one key added with a count or
    # with a zero: each fails premise (d), so phi-central, and with it
    # phi-homomorphism, phi-star and cardy, take their walks (phi-central's
    # passes on an added zero).
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
            assert certificate(broken) == MODEL_CERTIFIED
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
    # One entry of the pairing of B off by 1/7, two stars of B exchanged, the
    # unit doubled or the linear form off by 1/7: the constants, and with
    # them premise (a), are intact, but B is no orbital algebra, so the Cardy
    # condition walks, its traces counted from the constants and its left
    # side read off the pairing.  Only a row of the pairing that phi reaches
    # can move the left side; the first entry lies in one.  The walk reads
    # no star, unit or linear form, so only a broken pairing fails it; the
    # exchanged stars, one of them in phi's image, fail phi-star.
    h = suite_algebras[name]
    b = h.B
    rng = random.Random(seed_of(name))
    image = sorted(set().union(*h.phi))
    cases = {}
    for i in (rng.choice(image), rng.randrange(b.dim), rng.randrange(b.dim)):
        j = rng.randrange(b.dim)
        cases["form", i, j] = with_form_entry(b, i, j, Fraction(1, 7))
    s = rng.choice(image)
    t = rng.choice([position for position in range(b.dim) if position != s])
    cases["star", s, t] = with_star(b, s, t)
    cases[("unit",)] = with_unit(b, {b.index(label): 2 * c for label, c in b.unit.coeffs.items()})
    cases["linear", t] = with_linear_value(b, t, b.linear_form[t] + Fraction(1, 7))
    failed: dict[tuple, set[str]] = {}
    for case, broken_b in cases.items():
        broken = replace(h, B=broken_b)
        assert broken.catalog.is_model_of(broken.B), case
        assert certificate(broken) == MODEL_CERTIFIED | PHI_CERTIFIED, case
        failed[case] = assert_matches_oracles(broken, (name, case))
    by_kind: dict[str, set[str]] = {}
    for case, names in failed.items():
        by_kind.setdefault(case[0], set()).update(names)
    assert by_kind == {"form": {"cardy"}, "star": {"phi-star"}, "unit": set(), "linear": set()}


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


def closed_cell_sets(h, k: int) -> list[list[int]]:
    """The cells of orbit ``k`` of ``h.catalog`` in the classes of the group
    that the first generator of ``N`` and transposition generate, without
    the class of the representative, each sorted."""
    catalog = h.catalog
    size, table = catalog.nset.size, catalog.orbit_table
    step = catalog.nset.act_table[catalog.nset.group.generators[0]]
    x, z = catalog.boundary[k].representative
    seen, sets = {x * size + z}, []
    for cell in range(size * size):
        if table[cell] != k or cell in seen:
            continue
        found, stack = set(), [cell]
        while stack:
            code = stack.pop()
            if code not in found:
                found.add(code)
                y, w = divmod(code, size)
                stack += [step[y] * size + step[w], w * size + y]
        seen |= found
        if x * size + z not in found:
            sets.append(sorted(found))
    return sets


def first_generator_catalog(h, a: int, b: int):
    """``h`` on a catalog whose table only the first generator of ``N``
    leaves invariant, with ``B`` counted anew from it: the labels of two
    equal-sized cell sets of the self-paired orbits ``a`` and ``b``
    exchanged, each closed under the first generator and under
    transposition and holding no representative.  It is the first such
    pair that ``build_B`` accepts and whose chains premise (a) then finds
    at the representatives, so that only the invariance scan can refuse it."""
    for left in closed_cell_sets(h, a):
        for right in closed_cell_sets(h, b):
            if len(left) != len(right):
                continue
            table = array("i", h.catalog.orbit_table)
            for cells, label in ((left, b), (right, a)):
                for cell in cells:
                    table[cell] = label
            catalog = replace(h.catalog, orbit_table=table)
            try:
                b_algebra = build_B(catalog)
            except ConsistencyError:
                continue
            if _chains_match(b_algebra, catalog):
                return replace(h, catalog=catalog, B=b_algebra)
    raise AssertionError(f"no two cell sets of orbits {a} and {b} could be exchanged")


def test_a_table_left_invariant_by_the_first_generator_only_matches_oracles(suite_algebras):
    # s4's self-paired orbits 13 and 14 with two cell sets exchanged: every
    # representative keeps its orbit, the orbit sizes and the Burnside count
    # stand, and premise (a) finds the chains at the representatives.  Only
    # another generator than the first moves the table, so premise (a) must
    # scan every generator, and the nu checks walk and fail as the oracle does.
    h = suite_algebras["s4"]
    fields = h.catalog.boundary
    assert [fields[k].star for k in (13, 14)] == [fields[k].label for k in (13, 14)]
    broken = first_generator_catalog(h, 13, 14)
    catalog = broken.catalog
    first = catalog.nset.act_table[catalog.nset.group.generators[0]]
    assert not any(_moved_orbits(catalog.orbit_table, [first]))
    assert _counted_orbits(catalog) and _chains_match(broken.B, catalog)
    assert not catalog.premises(broken.B).modelled
    results = {result.name: result for result in verify_cardy_frobenius(broken)}
    expected = {result.name: result for result in cardy_axiom_oracle(broken)}
    for name in ("nu-multiplicative", "nu-equivariant"):
        assert results[name] == expected[name] and not results[name].passed, name


def with_dim(b, dim: int):
    """``b`` cut to its first ``dim`` basis elements, or grown by elements
    that have no products, ``l = 0`` and are each their own star."""
    kept = range(min(dim, b.dim))
    rows = [
        {j: {k: c for k, c in e.items() if k < dim} for j, e in b.left_products(i).items()}
        for i in kept
    ]
    return EquippedFrobeniusAlgebra.from_indices(
        basis=[*b.basis[:dim], *(f"extra{m}" for m in range(b.dim, dim))],
        products=[{j: e for j, e in row.items() if j < dim and e} for row in rows]
        + [{} for _ in range(b.dim, dim)],
        linear_form=dict(enumerate(b.linear_form[:dim])),
        involution=[*(b.involution[i] for i in kept), *range(b.dim, dim)],
        unit={b.index(label): c for label, c in b.unit.coeffs.items() if b.index(label) < dim},
    )


@pytest.mark.parametrize("name", ["s3", "s4"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_b_of_another_dimension_is_no_model(suite_algebras, name, extra):
    # B one element shorter or longer than the catalog has orbits.  The
    # longer one's products are the chains of the table, and its extra
    # element has none, so the invariance, the orbit count and the chains
    # all accept it and only the dimension tells it from a model.  Every
    # check returns a result, and the trace checks name both counts.
    h = suite_algebras[name]
    broken = replace(h, B=with_dim(h.B, h.B.dim + extra))
    if extra > 0:
        generators = [h.catalog.nset.act_table[n] for n in h.catalog.nset.group.generators]
        assert not any(_moved_orbits(h.catalog.orbit_table, generators))
        assert _counted_orbits(h.catalog) and _chains_match(broken.B, h.catalog)
    assert not h.catalog.premises(broken.B).modelled
    results = verify_all(broken)
    assert results["cardy"] == verify_cardy_frobenius(broken)
    by_name = {result.name: result for result in results["cardy"]}
    witness = f"dim B is {h.B.dim + extra}, the catalog has {h.B.dim} orbits"
    for check in ("form-from-traces", "linear-form-from-traces"):
        assert by_name[check] == CheckResult(check, False, witness)
    assert not by_name["burnside-dimension"].passed


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
def test_certified_checks_pass_when_walked_on_the_suite(suite_algebras, name):
    assert assert_certificate_sound(suite_algebras[name], name) == CERTIFIED


@settings(max_examples=20, deadline=None)
@given(generators=seeded_permutations_up_to(5), data=st.data())
def test_certified_checks_pass_when_walked_on_random_pairs(generators, data):
    # Degree <= 5 with S_d and A_d among the draws, random K; the walks of
    # S5 with K = 1 (156 points) take about a second, so |X| is at most 60.
    group = build_group(len(generators[0]), generators)
    k = subgroup_closure(group, data.draw(st.lists(st.integers(0, group.order - 1), max_size=2)))
    setup = build_conjugation_setup(group, k)
    assume(setup.nset.size <= 60)
    h = algebra_for(setup)
    assert assert_certificate_sound(h, (generators, k.order)) == CERTIFIED


def assert_class_checks_walk(broken, context) -> list:
    """The certificate of ``broken`` asserted to lack the three checks (e)
    certifies, and their results in ``verify_cardy_frobenius`` asserted
    equal to their walks, the Cardy condition's reading the constants of
    ``B``; the walks' results."""
    assert certificate(broken) == MODEL_CERTIFIED | PHI_CERTIFIED, context
    results = {result.name: result for result in verify_cardy_frobenius(broken)}
    walks = [
        _check_phi_homomorphism(broken),
        _check_phi_star(broken),
        _check_cardy(broken),
    ]
    assert [results[walk.name] for walk in walks] == walks, context
    return walks


def broken_class_algebras(h, rng: random.Random) -> dict[str, object]:
    """Copies of ``h.A`` that are not the class algebra of ``N``: a stored
    constant raised by 1 and, where ``A`` has one, a zero constant set to 1
    (the pairing recomputed), two stars exchanged, a pairing entry off by
    1/7, the unit doubled and the linear form off by 1/7 at the identity's
    class, each with no pairing inverse yet; and the pairing entry off with
    the intact inverse kept, or the intact pairing with the inverse of the
    broken entry kept.  Cardy reads the inverse, and no check that (e)
    certifies reads the pairing, the unit or the linear form."""
    a = h.A
    i, j, expansion = rng.choice(list(a.stored_products()))
    k = rng.choice(sorted(expansion))
    s, t = rng.randrange(a.dim), rng.randrange(a.dim)
    identity = a.index(h.catalog.identity_interior_label)
    broken = {
        "constant": with_constant(a, i, j, k, expansion[k] + 1),
        "form": with_form_entry(a, s, t, Fraction(1, 7)),
        "unit": with_unit(a, {identity: 2}),
        "linear": with_linear_value(a, identity, a.linear_form[identity] + Fraction(1, 7)),
    }
    kept = copy.copy(broken["form"])
    kept._form_inverse = a.form_inverse()
    broken["form, inverse kept"] = kept
    stale = copy.copy(a)
    stale._form_inverse = with_form_entry(a, s, t, Fraction(1, 7)).form_inverse()
    broken["stale inverse"] = stale
    positions = range(a.dim)
    zeros = [
        (i, j, k)
        for i in positions
        for j in positions
        for k in positions
        if k not in a.pair_products(i, j)
    ]
    if zeros:
        broken["zero constant"] = with_constant(a, *rng.choice(zeros), 1)
    if a.dim > 1:
        broken["star"] = with_star(a, *rng.sample(positions, 2))
    return broken


@pytest.mark.parametrize("name", sorted(SUITE_DOCUMENTS))
def test_broken_class_algebras_walk(suite_algebras, name):
    # Each copy of A fails premise (e) with (a), orbital and (d) standing, so
    # phi-homomorphism, phi-star and cardy give what their walks give.
    h = suite_algebras[name]
    rng = random.Random(seed_of(name))
    failed: set[str] = set()
    for kind, a in broken_class_algebras(h, rng).items():
        broken = replace(h, A=a)
        assert not _is_class_algebra(broken), (name, kind)
        walks = assert_class_checks_walk(broken, (name, kind))
        failed |= {(kind, walk.name) for walk in walks if not walk.passed}
    # A raised constant breaks phi-homomorphism, and the stale inverse the
    # Cardy condition, which (e) would otherwise certify.
    assert ("constant", "phi-homomorphism") in failed
    assert ("stale inverse", "cardy") in failed


@pytest.mark.parametrize("name", ["s3", "s4"])
def test_fields_that_are_not_the_classes_fail_the_class_algebra(suite_algebras, name):
    # Two self-inverse classes listed as one field, and one of them dropped,
    # with A, phi and U counted from those fields: (a), orbital and (d)
    # stand, so only (e) keeps the three checks from being certified.
    h = suite_algebras[name]
    fields = list(h.catalog.interior)
    first, second = [
        m for m, field in enumerate(fields) if field.star == field.label and field.representative
    ][:2]
    merged = fields[first].conjugacy_class
    merged = replace(merged, members=merged.members + fields[second].members)
    candidates = {
        "merged": fields[:second] + fields[second + 1 :],
        "dropped": fields[:second] + fields[second + 1 :],
    }
    candidates["merged"][first] = replace(fields[first], conjugacy_class=merged)
    for kind, interior in candidates.items():
        broken = build_cardy_frobenius(replace(h.catalog, interior=tuple(interior)))
        assert _phi_is_rho(broken) and not _is_class_algebra(broken), (name, kind)
        assert_class_checks_walk(broken, (name, kind))


def test_a_representative_in_another_class_fails_the_class_algebra(suite_algebras):
    # The transpositions and the 4-cycles of S4 are self-inverse classes of
    # six elements each.  Their fields exchange representatives and stars,
    # with A, phi and U counted from those fields and A's pairing and its
    # inverse moved onto the new stars: every other test of (e) passes, so
    # only the test that each representative lies in its own field keeps
    # phi-homomorphism and phi-star, which fail, from being certified.
    h = suite_algebras["s4"]
    fields = list(h.catalog.interior)
    m, n = [position for position, field in enumerate(fields) if field.size == 6]
    first, second = fields[m].conjugacy_class, fields[n].conjugacy_class
    fields[m] = replace(
        fields[m],
        conjugacy_class=replace(first, representative=second.representative),
        star=fields[n].label,
    )
    fields[n] = replace(
        fields[n],
        conjugacy_class=replace(second, representative=first.representative),
        star=fields[m].label,
    )
    broken = build_cardy_frobenius(replace(h.catalog, interior=tuple(fields)))
    order = h.catalog.nset.group.order
    a = copy.copy(broken.A)
    a.form = tuple({star: Fraction(f.size, order)} for star, f in zip(a.involution, fields))
    a._form_inverse = tuple(
        {star: Fraction(order, f.size)} for star, f in zip(a.involution, fields)
    )
    a._casimir = a._twisted_casimir = None
    broken = replace(broken, A=a)
    assert _phi_is_rho(broken) and not _is_class_algebra(broken)
    walks = assert_class_checks_walk(broken, "s4")
    oracle = {result.name: result for result in cardy_axiom_oracle(broken)}
    assert walks[:2] == [oracle["phi-homomorphism"], oracle["phi-star"]]
    assert not any(walk.passed for walk in walks[:2])


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
    # verifier, called alone, still computes its own.  Premise (a) holds,
    # so the traces are read at the representatives and the pass over the
    # table's cells never runs.
    calls = counted_premises(monkeypatch)
    group = str(bundled_input("groups/s4_k_double_transposition.json"))
    assert run(["check", "--group", group]) == 0
    assert '"all_passed": true' in capsys.readouterr().out
    assert calls == {"is_model_of": 1}
    h = cardy_from_pair(*group_from_document(SUITE_DOCUMENTS["s4_k0123"]))
    for verify, algebra in ((verify_equipped, h.B), (verify_cardy_frobenius, h)):
        calls.clear()
        assert all(result.passed for result in verify(algebra))
        assert calls == {"is_model_of": 1}, verify.__name__


def test_verify_all_is_the_three_verifiers_on_one_record(suite_algebras, monkeypatch):
    # Intact, and with a constant of B raised by 1, which breaks premise (a):
    # the pass over the table's cells for the traces runs only then.
    h = suite_algebras["s3_k01"]
    broken = replace(h, B=with_constant(h.B, 1, 1, 0, h.B.pair_products(1, 1).get(0, 0) + 1))
    calls = counted_premises(monkeypatch)
    both = {"is_model_of": 1, "trace_counts": 1}
    for structure, counts in ((h, {"is_model_of": 1}), (broken, both)):
        calls.clear()
        results = verify_all(structure)
        assert calls == counts
        assert results == {
            "A": verify_equipped(structure.A),
            "B": verify_equipped(structure.B),
            "cardy": verify_cardy_frobenius(structure),
        }
    assert all(result.passed for results in verify_all(h).values() for result in results)
    assert not all(result.passed for result in verify_all(broken)["cardy"])


def test_nu_checks_on_a_catalog_with_fewer_positions_than_B(suite_algebras):
    # Two self-paired orbits fused: B keeps a basis element past the
    # catalog's positions, whose constants have no cell, and no label past
    # the catalog is looked up.  The dense references cannot read such a
    # catalog; the witness is the one the orbit-by-orbit walk gave.
    h = suite_algebras["s4_k0123"]
    broken = replace(h, catalog=fused_orbits(h.catalog, 0, 9))
    assert len(broken.catalog.boundary) == h.B.dim - 1
    expected = CheckResult("nu-multiplicative", False, "(b0, b8) at (1, 0)")
    assert _check_nu_multiplicative(broken) == expected
    assert _check_nu_equivariant(broken) == CheckResult("nu-equivariant", True)
