"""Shared fixtures: the standard (G, K) suite and randomized spec corpora."""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

import pytest

from cardyfrob import (
    CardyFrobeniusAlgebra,
    ConjugationSetup,
    FieldCatalog,
    SurfaceSpec,
    build_cardy_frobenius,
    build_catalog,
    build_conjugation_setup,
    document_digest,
    group_from_document,
)

# The standard suite of (G, K) pairs, as group documents.  Keys double as
# fixture lookup names; values are exactly what the CLI accepts.
SUITE_DOCUMENTS: dict[str, dict[str, object]] = {
    "z2": {"degree": 2, "generators": [[1, 0]], "k_generators": []},
    "z3": {"degree": 3, "generators": [[1, 2, 0]], "k_generators": []},
    "s3": {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]], "k_generators": []},
    "s3_k01": {
        "degree": 3,
        "generators": [[1, 0, 2], [0, 2, 1]],
        "k_generators": [[1, 0, 2]],
    },
    "s4": {
        "degree": 4,
        "generators": [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]],
        "k_generators": [],
    },
    "s4_k0123": {
        "degree": 4,
        "generators": [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]],
        "k_generators": [[1, 0, 3, 2]],
    },
    "a5_k0123": {
        "degree": 5,
        "generators": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2], [1, 0, 3, 2, 4]],
        "k_generators": [[1, 0, 3, 2, 4]],
    },
}

# A5 with K = 1: 59 points and dim B = 142, the pair of the benchmark's
# hurwitz-batch workload.
A5_DOCUMENT = {"degree": 5, "generators": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]], "k_generators": []}

# A6 with K = 1: 501 points, for the memory bounds of the steps that must
# allocate no list of all |X|^2 cells.
A6_DOCUMENT = {
    "degree": 6,
    "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]],
    "k_generators": [],
}

CORPUS_SIZE = 30

# A4 with K = 1, no suite pair, so the witness corpus does not see it: N
# moves the points of X, and its two classes of 3-cycles are each other's
# inverses.  z3, the only suite group with a class that is not its own
# inverse, fixes every point.
A4_DOCUMENT = {"degree": 4, "generators": [[1, 2, 0, 3], [1, 0, 3, 2]], "k_generators": []}
# The suite pairs whose bounded corpus specs with a non-identity interior
# field all evaluate to 0 in the random corpora.
BOUNDED_PAIRS = ("s3", "s4", "a5_k0123")
BOUNDED_CORPUS_SIZE = 20


def left_cosets(group, s) -> list[frozenset[int]]:
    """The cosets ``{g s : s in S}`` of ``S`` in ``group``, numbered by their
    least element, as :func:`cardyfrob.coset_nset` numbers its points."""
    cosets = {frozenset(group.mul(g, x) for x in s.elements) for g in range(group.order)}
    return sorted(cosets, key=min)


def setup_for(name: str) -> ConjugationSetup:
    document = SUITE_DOCUMENTS[name]
    group, k = group_from_document(document)
    return build_conjugation_setup(group, k, digest=document_digest(document))


def algebra_for(setup: ConjugationSetup) -> CardyFrobeniusAlgebra:
    catalog = build_catalog(setup.nset, provenance=setup.digest)
    return build_cardy_frobenius(catalog)


def spec_corpus_for(
    h: CardyFrobeniusAlgebra, seed: int, size: int = CORPUS_SIZE
) -> list[SurfaceSpec]:
    """Randomized surface specs with both orientation types, genus up to 2
    (up to four crosscaps), up to two interior fields, and up to two
    contours carrying one or two boundary labels each."""
    rng = random.Random(seed)
    interior_labels = h.catalog.interior_labels
    boundary_labels = h.catalog.boundary_labels
    specs = []
    for _ in range(size):
        orientable = rng.random() < 0.5
        if orientable:
            genus = Fraction(rng.randint(0, 2))
        else:
            genus = Fraction(rng.randint(1, 4), 2)
        interior = tuple(
            rng.choice(interior_labels) for _ in range(rng.randint(0, 2))
        )
        boundary = tuple(
            tuple(rng.choice(boundary_labels) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2))
        )
        specs.append(
            SurfaceSpec(
                orientable=orientable,
                genus=genus,
                interior=interior,
                boundary=boundary,
            )
        )
    return specs


def bounded_corpus_for(
    h: CardyFrobeniusAlgebra, seed: int, size: int = BOUNDED_CORPUS_SIZE
) -> list[SurfaceSpec]:
    """Randomized bounded specs of positive value, each with one or two
    non-identity interior fields and one or two contours.

    Each contour is a path of one to three drawn points closed by an
    element of ``N``, its labels the orbits of its steps; the points of a
    spec lie in one drawn ``N``-orbit of points, one that ``N`` moves
    where there is one.  A contour past the first closes by a drawn ``m``;
    the first by ``n = a m^-1``, ``a`` a product of one member of each
    interior field.  The value is
    ``(1/|N|) sum_n t_1(n) (r * t~_2)(n)`` with nonnegative terms
    (:func:`cardyfrob.covering_oracle`), and at this ``n`` both factors are
    at least one, so it is positive; on a pair with a class that is not its
    own inverse, reading ``t_2`` at ``m`` instead of ``m^-1`` changes it.
    """
    rng = random.Random(seed)
    catalog = h.catalog
    group, act_table = catalog.nset.group, catalog.nset.act_table
    points, table, labels = catalog.nset.size, catalog.orbit_table, catalog.boundary_labels
    fields = [field for field in catalog.interior if field.representative != 0]
    orbits = {frozenset(row[x] for row in act_table) for x in range(points)}
    moved = sorted(map(sorted, orbits - {frozenset([x]) for x in range(points)}))

    def contour(end: int) -> tuple[str, ...]:
        path = [rng.choice(orbit) for _ in range(rng.randint(1, 3))]
        path.append(act_table[end][path[0]])
        return tuple(labels[table[x * points + y]] for x, y in zip(path, path[1:]))

    specs = []
    for _ in range(size):
        orbit = rng.choice(moved or sorted(map(sorted, orbits)))
        orientable = rng.random() < 0.5
        if orientable:
            genus = Fraction(rng.randint(0, 1))
        else:
            genus = Fraction(rng.randint(1, 2), 2)
        interior = [rng.choice(fields) for _ in range(rng.randint(1, 2))]
        n = 0
        for field in interior:
            n = group.mul(n, rng.choice(field.members))
        later = []
        if rng.random() < 0.5:
            m = rng.randrange(group.order)
            later.append(contour(m))
            n = group.mul(n, group.inverses[m])
        specs.append(
            SurfaceSpec(
                orientable=orientable,
                genus=genus,
                interior=tuple(field.label for field in interior),
                boundary=(contour(n), *later),
            )
        )
    return specs


def corpus_seed(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


@pytest.fixture(scope="session")
def suite_setups() -> dict[str, ConjugationSetup]:
    return {name: setup_for(name) for name in SUITE_DOCUMENTS}


@pytest.fixture(scope="session")
def suite_algebras(
    suite_setups: dict[str, ConjugationSetup],
) -> dict[str, CardyFrobeniusAlgebra]:
    return {name: algebra_for(setup) for name, setup in suite_setups.items()}


@pytest.fixture(scope="session")
def spec_corpora(
    suite_algebras: dict[str, CardyFrobeniusAlgebra],
) -> dict[str, list[SurfaceSpec]]:
    return {
        name: spec_corpus_for(h, seed=corpus_seed(name))
        for name, h in suite_algebras.items()
    }


@pytest.fixture(scope="session")
def bounded_corpora(
    suite_algebras: dict[str, CardyFrobeniusAlgebra],
) -> dict[str, tuple[CardyFrobeniusAlgebra, list[SurfaceSpec]]]:
    """The algebra and :func:`bounded_corpus_for` of each of
    :data:`BOUNDED_PAIRS` and of A4 with ``K = 1``."""
    algebras = {name: suite_algebras[name] for name in BOUNDED_PAIRS}
    group, k = group_from_document(A4_DOCUMENT)
    algebras["a4"] = algebra_for(build_conjugation_setup(group, k))
    return {
        name: (h, bounded_corpus_for(h, seed=corpus_seed(f"bounded/{name}")))
        for name, h in algebras.items()
    }


@pytest.fixture(scope="session")
def a5() -> CardyFrobeniusAlgebra:
    group, k = group_from_document(A5_DOCUMENT)
    return algebra_for(build_conjugation_setup(group, k, digest=document_digest(A5_DOCUMENT)))


@pytest.fixture(scope="session")
def a6_catalog() -> FieldCatalog:
    group, k = group_from_document(A6_DOCUMENT)
    return build_catalog(build_conjugation_setup(group, k).nset)
