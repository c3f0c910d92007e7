"""Acceptance criteria, one test per criterion, all equalities exact.

Each test prints a single ``CRITERION <n>: PASS/FAIL`` line (visible with
``pytest -s`` and in the captured output of failing tests) before asserting.
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction

from conftest import SUITE_DOCUMENTS, algebra_for, setup_for
from test_oracles import dense_trace

from cardyfrob import (
    SurfaceSpec,
    build_catalog,
    build_cardy_frobenius,
    build_conjugation_setup,
    build_group,
    center_dimension,
    closed_nonorientable_oracle,
    closed_orientable_oracle,
    covering_oracle,
    cut_check_boundary,
    cut_check_crosscap,
    cut_check_handle,
    evaluate,
    failures,
    group_from_document,
    hecke_check,
    is_semisimple,
    rotated,
    star_reversed,
    subgroup_closure,
    verify_cardy_frobenius,
    verify_equipped,
)
from cardyfrob import linalg
from cardyfrob.oracles import b_side_value


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {number}: {status} - {detail}", flush=True)


# -- criterion 1: the A5 / Z2 example ------------------------------------------


def test_criterion_1_a5_example():
    # A5 has 15 involutions, in 5 Klein four-groups, 10 copies of S3, 6 of
    # D10 and 5 of A4 (3, 3, 5 and 3 involutions each).  So K = <(01)(23)>
    # lies in 1 V4, 2 S3, 2 D10 and 1 A4; with K and A5 that makes |X| = 8.
    # N_G(K) = V4, so N = Z2, whose non-trivial element (02)(13) fixes K, V4,
    # A4 and A5 and swaps the two S3 and the two D10.  Burnside's count on
    # pairs of points gives dim B = (8^2 + 4^2) / 2 = 40.
    stated = {
        "x_size": 8,
        "x_orders": (2, 4, 6, 6, 10, 10, 12, 60),
        "dim_a": 2,
        "dim_b": 40,
    }
    started = time.perf_counter()
    group, k = group_from_document(SUITE_DOCUMENTS["a5_k0123"])
    setup = build_conjugation_setup(group, k)
    catalog = build_catalog(setup.nset)
    h = build_cardy_frobenius(catalog)
    center_b = center_dimension(h.B)
    rank = linalg.rank(h.phi)
    image_central = next(
        r for r in verify_cardy_frobenius(h) if r.name == "phi-central"
    )
    semisimple = is_semisimple(h.B)
    elapsed = time.perf_counter() - started

    problems = []
    if len(setup.subgroups) != stated["x_size"]:
        problems.append(
            f"|X| is {len(setup.subgroups)}, stated {stated['x_size']}"
        )
    if setup.x_orders != stated["x_orders"]:
        problems.append(
            f"subgroup orders are {setup.x_orders}, stated {stated['x_orders']}"
        )
    if h.A.dim != stated["dim_a"]:
        problems.append(f"dim A is {h.A.dim}, stated {stated['dim_a']}")
    if h.B.dim != stated["dim_b"]:
        problems.append(f"dim B is {h.B.dim}, stated {stated['dim_b']}")

    # Independent enumeration of X: every overgroup of K in A5 is generated
    # by K and one further element, so the distinct closures <K, g> over all
    # g in A5 are exactly the subgroups containing K.
    enumerated = {
        subgroup_closure(group, [*k.elements, g]).elements for g in group.elements()
    }
    enumerated_orders = tuple(sorted(len(members) for members in enumerated))
    if enumerated != {s.elements for s in setup.subgroups}:
        problems.append(
            f"enumerated overgroups of K have orders {enumerated_orders}, "
            f"setup.subgroups has {setup.x_orders}"
        )
    if (len(enumerated), enumerated_orders) != (stated["x_size"], stated["x_orders"]):
        problems.append(
            f"enumeration gives {len(enumerated)} overgroups of orders "
            f"{enumerated_orders}, stated {stated['x_size']} of {stated['x_orders']}"
        )
    # Burnside over N_G(K), which acts on X through N = N_G(K)/K (K fixes
    # every overgroup of itself): orbits on X x X = sum of fix(n)^2 / |N_G(K)|.
    k_set = set(k.elements)
    k_normalizer = [
        n for n in group.elements()
        if {group.conjugate(n, x) for x in k.elements} == k_set
    ]
    fixed = sorted(
        sum(
            1
            for members in enumerated
            if {group.conjugate(n, x) for x in members} == set(members)
        )
        for n in k_normalizer
    )
    pair_orbits = Fraction(sum(f * f for f in fixed), len(k_normalizer))
    if pair_orbits != stated["dim_b"]:
        problems.append(
            f"fixed points on X over N_G(K) are {fixed}, which gives "
            f"{pair_orbits} pair orbits, stated dim B {stated['dim_b']}"
        )
    if center_b != 2:
        problems.append(f"center of B has dimension {center_b}, stated 2")
    if not (rank == h.A.dim == center_b and image_central.passed):
        problems.append(
            f"phi rank {rank}, dim A {h.A.dim}, central image "
            f"{image_central.passed}: not a bijection onto the center"
        )
    if not semisimple:
        problems.append("B's regular trace form is degenerate")
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")

    _report(1, not problems, f"({elapsed:.2f}s) " + ("; ".join(problems) or "all facts hold"))
    assert not problems, "; ".join(problems)


# -- criterion 2: axiom suite over all seven pairs ------------------------------


def test_criterion_2_axiom_suite():
    started = time.perf_counter()
    problems = []
    check_names: set[str] = set()
    for name in SUITE_DOCUMENTS:
        h = algebra_for(setup_for(name))
        for scope, alg in (("A", h.A), ("B", h.B)):
            results = verify_equipped(alg)
            check_names.update(r.name for r in results)
            for bad in failures(results):
                problems.append(f"{name}/{scope}: {bad.name} ({bad.witness})")
        results = verify_cardy_frobenius(h)
        check_names.update(r.name for r in results)
        for bad in failures(results):
            problems.append(f"{name}/cardy: {bad.name} ({bad.witness})")
    elapsed = time.perf_counter() - started
    required = {
        "associativity",
        "unit",
        "form-invariance",
        "involution-form",
        "nu-multiplicative",
        "form-from-traces",
        "nu-star-transpose",
        "u-squared",
        "phi-u",
        "phi-star",
        "cardy",
    }
    missing = required - check_names
    if missing:
        problems.append(f"missing checks: {sorted(missing)}")
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _report(
        2,
        not problems,
        f"({elapsed:.2f}s, {len(SUITE_DOCUMENTS)} pairs) "
        + ("; ".join(problems) or "every axiom check passed"),
    )
    assert not problems, "; ".join(problems)


# -- criterion 3: oracle equivalence on the randomized corpus -------------------


def oracle_problems(name: str, h, specs: list[SurfaceSpec]) -> tuple[list[str], int, int]:
    """Each spec evaluated against its oracle, each bounded one also against
    the ``B``-side formula :func:`b_side_value` and its oracle against
    :func:`dense_trace`: the problems found and the numbers of closed and
    bounded specs."""
    problems = []
    closed_count = bounded_count = 0
    n_group = h.catalog.nset.group
    for spec in specs:
        value = evaluate(h, spec).value
        if spec.boundary:
            bounded_count += 1
            oracle = covering_oracle(h.catalog, spec).value
            dense = dense_trace(h, spec)
            if dense != oracle:
                problems.append(f"{name} {spec.to_document()}: dense {dense} != {oracle}")
            reference = b_side_value(h, spec)
            if reference != value:
                problems.append(f"{name} {spec.to_document()}: B side {reference} != {value}")
        else:
            closed_count += 1
            fields = [h.catalog.interior_field(label) for label in spec.interior]
            if spec.orientable:
                oracle = closed_orientable_oracle(n_group, int(spec.genus), fields).value
            else:
                oracle = closed_nonorientable_oracle(n_group, spec.crosscaps, fields).value
        if value != oracle:
            problems.append(f"{name} {spec.to_document()}: {value} != {oracle}")
    return problems, closed_count, bounded_count


def test_criterion_3_oracle_equivalence(suite_algebras, spec_corpora):
    problems = []
    closed_count = bounded_count = 0
    for name, specs in spec_corpora.items():
        found, closed, bounded = oracle_problems(name, suite_algebras[name], specs)
        problems += found
        closed_count += closed
        bounded_count += bounded
    _report(
        3,
        not problems,
        f"({closed_count} closed, {bounded_count} bounded specs) "
        + ("; ".join(problems[:3]) or "evaluation matches the oracles exactly"),
    )
    assert not problems, "; ".join(problems[:10])


def test_criterion_3_on_bounded_corpora(bounded_corpora):
    # Bounded specs whose non-identity interior fields give a positive value,
    # on pairs that include A4 (K = 1), where N moves points and a class is
    # not its own inverse: the random corpora above reach neither.
    problems = []
    for name, (h, specs) in bounded_corpora.items():
        assert all(evaluate(h, spec).value > 0 for spec in specs), name
        assert all(h.catalog.identity_interior_label not in spec.interior for spec in specs)
        problems += oracle_problems(name, h, specs)[0]
    assert not problems, "; ".join(problems[:10])


# -- criterion 4: cut identities on the same corpora ------------------------------


def all_corpora(suite_algebras, spec_corpora, bounded_corpora):
    """``(name, algebra, specs)`` for the random corpus of each suite pair,
    then for each bounded corpus, whose specs have positive values."""
    for name, specs in spec_corpora.items():
        yield name, suite_algebras[name], specs
    for name, (h, specs) in bounded_corpora.items():
        yield f"bounded/{name}", h, specs


def test_criterion_4_cut_identities(suite_algebras, spec_corpora, bounded_corpora):
    problems = []
    counts = {"cut-handle": 0, "cut-crosscap": 0, "cut-boundary": 0}
    for name, h, specs in all_corpora(suite_algebras, spec_corpora, bounded_corpora):
        for spec in specs:
            results = []
            if spec.orientable and spec.genus >= 1:
                results.append(cut_check_handle(h, spec))
            if not spec.orientable:
                results.append(cut_check_crosscap(h, spec))
            if len(spec.boundary) >= 2:
                results.append(cut_check_boundary(h, spec))
            for result in results:
                counts[result.name] += 1
                if not result.passed:
                    problems.append(
                        f"{name} {spec.to_document()}: {result.name} {result.witness}"
                    )
    if not all(counts.values()):
        problems.append(f"corpus exercised cuts unevenly: {counts}")
    _report(
        4,
        not problems,
        f"({counts['cut-handle']} handle, {counts['cut-crosscap']} crosscap, "
        f"{counts['cut-boundary']} boundary cuts) "
        + ("; ".join(problems[:3]) or "all cut identities hold exactly"),
    )
    assert not problems, "; ".join(problems[:10])


# -- criterion 5: the Z2 micro example -------------------------------------------


def test_criterion_5_z2_micro_regression(suite_algebras):
    h = suite_algebras["z2"]
    problems = []

    product = h.B.multiply(h.B.basis_element("b1"), h.B.basis_element("b2"))
    if product != h.B.basis_element("b0"):
        problems.append(f"b1 * b2 = {product!r}, expected b0")

    def spec(orientable, genus, boundary=()):
        return SurfaceSpec(orientable, Fraction(genus), (), boundary)

    for description, surface, expected in [
        ("sphere", spec(True, 0), Fraction(1, 2)),
        ("torus", spec(True, 1), Fraction(2)),
        ("projective plane", spec(False, Fraction(1, 2)), Fraction(1)),
        ("Klein bottle", spec(False, 1), Fraction(2)),
        ("disc [b1, b2]", spec(True, 0, (("b1", "b2"),)), Fraction(1, 2)),
    ]:
        value = evaluate(h, surface).value
        if value != expected:
            problems.append(f"{description}: {value} != {expected}")

    # Cardy identity entry at (b0, b0), both sides computed from scratch.
    b0 = h.B.basis_element("b0")
    lhs = h.A.bilinear(h.phi_dual_apply(b0), h.phi_dual_apply(b0))
    i = h.B.index("b0")
    rhs = Fraction(0)
    for k in range(h.B.dim):
        for out, left_coeff in h.B.pair_products(i, k).items():
            rhs += left_coeff * h.B.pair_products(out, i).get(k, Fraction(0))
    if lhs != 1 or rhs != 1:
        problems.append(f"Cardy entry (b0, b0): pairing side {lhs}, trace side {rhs}")

    _report(5, not problems, "; ".join(problems) or "micro example reproduced")
    assert not problems, "; ".join(problems)


# -- criterion 6: Hecke comparison ------------------------------------------------


def test_criterion_6_hecke_comparison():
    problems = []

    s3 = build_group(3, [[1, 0, 2], [0, 2, 1]])
    s3_sub = subgroup_closure(
        s3, [next(a for a in s3.elements() if s3.element_order(a) == 2)]
    )
    s3_comparison = hecke_check(s3, s3_sub)
    for bad in failures(s3_comparison.checks):
        problems.append(f"S3: {bad.name} ({bad.witness})")

    s4 = build_group(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]])
    assert s4.perms is not None
    s4_sub = subgroup_closure(
        s4, [next(a for a in s4.elements() if s4.perms[a] == (1, 0, 2, 3))]
    )
    s4_comparison = hecke_check(s4, s4_sub)
    for bad in failures(s4_comparison.checks):
        problems.append(f"S4: {bad.name} ({bad.witness})")

    # B of S3 acting on S3/S, S = <(01)>, has one basis element per double
    # coset S g S: S itself (size 2) and S(02)S (size 4), since
    # |G| = sum |S|^2 / |S ∩ gSg^-1| = 2 + 4.  So dim B = 2; the number 3 is
    # |G/S|, the number of points, not the number of orbits on pairs.
    stated_dimension = 2
    s3_double_cosets = {
        frozenset(s3.mul(s3.mul(a, g), b) for a in s3_sub.elements for b in s3_sub.elements)
        for g in s3.elements()
    }
    coset_sizes = sorted(len(members) for members in s3_double_cosets)
    if coset_sizes != [2, 4]:
        problems.append(f"S3 double cosets of <(01)> have sizes {coset_sizes}, expected [2, 4]")
    if s3_comparison.boundary_dimension != len(s3_double_cosets):
        problems.append(
            f"B has {s3_comparison.boundary_dimension} basis elements, but "
            f"enumeration finds {len(s3_double_cosets)} double cosets in S3"
        )
    if s3_comparison.boundary_dimension != stated_dimension:
        problems.append(
            f"stated dimension {stated_dimension} for the S3 case, but B has "
            f"{s3_comparison.boundary_dimension} basis elements and S3 has "
            f"{s3_comparison.double_coset_count} double cosets of a "
            "transposition subgroup (the cosets {e, (01)} and the four "
            "remaining elements)"
        )

    _report(
        6,
        not problems,
        f"(S3: {s3_comparison.double_coset_count} double cosets, "
        f"S4: {s4_comparison.double_coset_count}) "
        + ("; ".join(problems) or "dimensions and convolutions match"),
    )
    assert not problems, "; ".join(problems)


# -- criterion 7: invariance properties --------------------------------------------


def test_criterion_7_invariances(suite_algebras, spec_corpora, bounded_corpora):
    problems = []
    examined = 0
    for name, h, specs in all_corpora(suite_algebras, spec_corpora, bounded_corpora):
        for spec in specs:
            examined += 1
            value = evaluate(h, spec).value
            flipped = star_reversed(h.catalog, spec)
            if evaluate(h, flipped).value != value:
                problems.append(f"{name} {spec.to_document()}: star reversal")
            for index, contour in enumerate(spec.boundary):
                for shift in range(1, len(contour)):
                    turned = rotated(spec, index, shift)
                    if evaluate(h, turned).value != value:
                        problems.append(
                            f"{name} {spec.to_document()}: rotation {index}/{shift}"
                        )
            padded = replace(
                spec, interior=spec.interior + (h.catalog.identity_interior_label,)
            )
            if evaluate(h, padded).value != value:
                problems.append(f"{name} {spec.to_document()}: unit insertion")
    _report(
        7,
        not problems,
        f"({examined} specs) "
        + ("; ".join(problems[:3]) or "star reversal, rotation, unit insertion invariant"),
    )
    assert not problems, "; ".join(problems[:10])


# -- criterion 8: Burnside dimension count ------------------------------------------


def test_criterion_8_burnside_dimension(suite_algebras):
    problems = []
    for name, h in suite_algebras.items():
        nset = h.catalog.nset
        n_group = nset.group
        fixed_pairs = sum(
            nset.fixed_point_count(n) ** 2 for n in n_group.elements()
        )
        if h.B.dim * n_group.order != fixed_pairs:
            problems.append(
                f"{name}: dim B = {h.B.dim} but the orbit count gives "
                f"{Fraction(fixed_pairs, n_group.order)}"
            )
    _report(
        8,
        not problems,
        "; ".join(problems) or f"dim B = (1/|N|) sum of squared fixed points "
        f"for all {len(suite_algebras)} catalogs",
    )
    assert not problems, "; ".join(problems)
