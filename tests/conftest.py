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

# A6 with K = 1: 501 points, for the memory bounds of the steps that must
# allocate no list of all |X|^2 cells.
A6_DOCUMENT = {
    "degree": 6,
    "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]],
    "k_generators": [],
}

CORPUS_SIZE = 30


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
def a6_catalog() -> FieldCatalog:
    group, k = group_from_document(A6_DOCUMENT)
    return build_catalog(build_conjugation_setup(group, k).nset)
