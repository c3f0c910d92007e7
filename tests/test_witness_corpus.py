"""A committed corpus of seeded corruptions, with every check result pinned.

Each case is one Cardy-Frobenius structure of a suite or ladder pair, intact
or with one seeded corruption:

* ``constant``: a stored or a zero constant of ``B`` set to its value +1,
  -1, +1/2 or to zero, the pairing recomputed from the new constants;
* ``form``: one stored pairing entry of ``B`` off by 1/7 or zeroed;
* ``star``: the stars of two basis elements of ``B`` exchanged;
* ``unit``: the unit of ``B`` moved off a diagonal orbit, doubled on one,
  or given an orbit off the diagonal besides;
* ``linear``: one value of the linear form of ``B`` off by 1/7 or zeroed,
  the stored pairing left as it was;
* ``phi``: one entry of ``phi`` off by +1 or -1, or a key added with a
  count or with a zero;
* ``merged``, ``moved``, ``swapped`` and ``fused``: catalogs that are no
  permutation model of ``B`` (orbits merged, a pair moved to another orbit,
  the last pairs of two orbits swapped, two self-paired orbits listed as
  one), with ``B`` as it is and, where :func:`build_B` accepts the catalog,
  ``B`` counted anew from it.

``B`` carries the catalog of its structure as its permutation model, as
:func:`build_B` leaves it, and inverts its pairing and sums its Casimir
elements anew.  The algebras are built here, not shared with other tests.
For each case the results of ``verify_equipped(B)`` (scope ``B``) and
``verify_cardy_frobenius`` (scope ``cardy``) are compared with
``tests/data/witness_corpus.json``, which lists, per case, every result that
is not a plain pass as ``[scope, name, status, witness]``; every other
result must pass without a witness.  ``phi`` cases have no ``B`` scope, since ``B`` is intact.  The
file was written from the tree before the permutation-model premises were
shared between the verifiers; any change to it is a change of test data.
Rewrite it with ``PYTHONPATH=src python tests/test_witness_corpus.py``.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import zlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from cardyfrob import (
    CardyFrobeniusAlgebra,
    ConsistencyError,
    EquippedFrobeniusAlgebra,
    build_B,
    build_conjugation_setup,
    group_from_document,
    verify_cardy_frobenius,
    verify_equipped,
)
from conftest import SUITE_DOCUMENTS, algebra_for
from test_index_checks import merged_orbits, moved_pair, swapped_pairs
from test_model_certificate import (
    fused_orbits,
    with_linear_value,
    with_model,
    with_star,
    with_unit,
)
from test_sparse_checks import with_form_entry

CORPUS_PATH = Path(__file__).parent / "data" / "witness_corpus.json"

A5 = [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]
S5 = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
# The benchmark ladder is s4, a5, s5_k0123 and a5_k0123; s4 and a5_k0123
# are suite pairs.
LADDER_DOCUMENTS = {
    "a5": {"degree": 5, "generators": A5, "k_generators": []},
    "s5_k0123": {"degree": 5, "generators": S5, "k_generators": [[1, 0, 3, 2, 4]]},
}
DOCUMENTS = {**SUITE_DOCUMENTS, **LADDER_DOCUMENTS}
# The pairs whose uncertified checks take tens of milliseconds get one case
# per family; s4_k0123, at a few milliseconds a case, the cases of width 2;
# the others, at about one millisecond, those of width 4.
LARGE_PAIRS = ("s4", "a5", "s5_k0123")
NARROW_PAIRS = ("s4_k0123", *LARGE_PAIRS)

B_CHECKS = (
    "unit",
    "associativity",
    "form-symmetric",
    "form-invertible",
    "form-invariance",
    "involution-involutive",
    "involution-antiautomorphism",
    "involution-form",
    "casimir-central",
    "dual-reconstruction",
)
CARDY_CHECKS = (
    "phi-unit",
    "phi-homomorphism",
    "phi-central",
    "phi-star",
    "u-squared",
    "phi-u",
    "u-coefficients",
    "cardy",
    "nu-multiplicative",
    "nu-star-transpose",
    "form-from-traces",
    "linear-form-from-traces",
    "nu-equivariant",
    "burnside-dimension",
)

Case = tuple[str, tuple[str, ...], Callable[[], CardyFrobeniusAlgebra]]
BOTH = ("B", "cardy")


def with_constant_value(alg: EquippedFrobeniusAlgebra, i: int, j: int, k: int, value):
    """A copy of ``alg`` without a model whose constant ``c_ij^k`` is
    ``value``, its pairing recomputed from the constants."""
    rows = [dict(alg.left_products(a)) for a in range(alg.dim)]
    rows[i][j] = {**rows[i].get(j, {}), k: value}
    return EquippedFrobeniusAlgebra.from_indices(
        basis=alg.basis,
        products=rows,
        linear_form=dict(enumerate(alg.linear_form)),
        involution=alg.involution,
        unit={alg.index(label): value for label, value in alg.unit.coeffs.items()},
    )


def uncached(alg: EquippedFrobeniusAlgebra) -> EquippedFrobeniusAlgebra:
    """A copy of ``alg`` (model included) that has not yet inverted its
    pairing or summed a Casimir element, so a copy made by hand after a
    corruption does not read those of the algebra it came from."""
    fresh = copy.copy(alg)
    fresh._form_inverse = fresh._casimir = fresh._twisted_casimir = None
    return fresh


def with_catalog(h: CardyFrobeniusAlgebra, catalog, b: EquippedFrobeniusAlgebra | None = None):
    """``h`` on ``catalog``, with ``b`` (``h.B`` by default) carrying it as its model."""
    return replace(h, catalog=catalog, B=with_model(h.B if b is None else b, catalog))


def with_b(h: CardyFrobeniusAlgebra, b: EquippedFrobeniusAlgebra) -> CardyFrobeniusAlgebra:
    """``h`` with ``b`` as its ``B``, carrying ``h.catalog`` as its model."""
    return replace(h, B=with_model(b, h.catalog))


def seeded(name: str, family: str) -> random.Random:
    return random.Random(zlib.crc32(f"{name}/{family}".encode("utf-8")))


def cases(name: str, h: CardyFrobeniusAlgebra, width: int) -> Iterator[Case]:
    """``(case id, scopes checked, constructor)`` for each case of ``name``;
    ``width`` sets how many positions each family draws."""
    b, catalog = h.B, h.catalog
    dim = b.dim
    fields = catalog.boundary
    yield f"{name}/intact", BOTH, lambda: h

    rng = seeded(name, "constant")
    stored = [(i, j, k) for i, j, expansion in b.stored_products() for k in expansion]
    triples = rng.sample(stored, min(width, len(stored)))
    triples += [tuple(rng.randrange(dim) for _ in range(3)) for _ in range(width)]
    for i, j, k in triples:
        old = b.pair_products(i, j).get(k, 0)
        for value in (old + 1, old - 1, old + Fraction(1, 2), 0):
            if value != old:
                yield (
                    f"{name}/constant/{i},{j},{k}={value}",
                    BOTH,
                    lambda i=i, j=j, k=k, value=value: with_b(
                        h, with_constant_value(b, i, j, k, value)
                    ),
                )

    rng = seeded(name, "form")
    entries = [(i, j) for i, row in enumerate(b.form) for j in row]
    drawn = [(rng.randrange(dim), rng.randrange(dim)) for _ in range(width + 1)]
    for i, j in [rng.choice(entries)] + drawn:
        yield (
            f"{name}/form/{i},{j}+1/7",
            BOTH,
            lambda i=i, j=j: replace(h, B=with_form_entry(b, i, j, Fraction(1, 7))),
        )
    i, j = rng.choice(entries)
    yield f"{name}/form/{i},{j}=0", BOTH, lambda i=i, j=j: replace(
        h, B=with_form_entry(b, i, j, -b.form[i][j])
    )

    rng = seeded(name, "star")
    for _ in range(width + 1):
        s, t = rng.sample(range(dim), 2)
        yield f"{name}/star/{s},{t}", BOTH, lambda s=s, t=t: replace(h, B=with_star(b, s, t))

    rng = seeded(name, "unit")
    diagonal = sorted(catalog.diagonal_counts())
    unit = dict.fromkeys(diagonal, 1)
    on = rng.choice(diagonal)
    off = rng.choice([k for k in range(dim) if k not in unit])
    units = {
        "moved": {**{k: 1 for k in diagonal if k != on}, off: 1},
        "doubled": {**unit, on: 2},
        "extra": {**unit, off: 1},
    }
    for kind, coeffs in units.items():
        yield f"{name}/unit/{kind}", BOTH, lambda coeffs=coeffs: replace(h, B=with_unit(b, coeffs))

    rng = seeded(name, "linear")
    for k in [rng.choice(diagonal)] + [rng.randrange(dim) for _ in range(width)]:
        old = b.linear_form[k]
        for value in (old + Fraction(1, 7), Fraction(0)):
            if value != old:
                yield (
                    f"{name}/linear/{k}={value}",
                    BOTH,
                    lambda k=k, value=value: replace(h, B=with_linear_value(b, k, value)),
                )

    rng = seeded(name, "phi")
    for _ in range(width + 1):
        alpha, k = rng.randrange(len(h.phi)), rng.randrange(dim)
        changes = [(k, h.phi[alpha].get(k, 0) + delta) for delta in (1, -1)]
        missing = [position for position in range(dim) if position not in h.phi[alpha]]
        if missing:
            added = rng.choice(missing)
            changes += [(added, 1), (added, 0)]
        for key, value in changes:
            rows = [dict(row) for row in h.phi]
            rows[alpha][key] = value
            yield f"{name}/phi/{alpha},{key}={value}", ("cardy",), lambda rows=rows: replace(
                h, phi=tuple(rows)
            )

    rng = seeded(name, "merged")
    for _ in range(width + 1):
        keep, emptied = rng.sample(range(dim), 2)
        yield f"{name}/merged/{keep}<{emptied}", BOTH, lambda keep=keep, emptied=emptied: (
            with_catalog(h, merged_orbits(catalog, keep, emptied))
        )

    rng = seeded(name, "moved")
    sources = [k for k, field in enumerate(fields) if field.size > 1]
    for source in rng.sample(sources, min(width, len(sources))):
        target = rng.choice([k for k in range(dim) if k != source])
        yield f"{name}/moved/{source}>{target}", BOTH, lambda source=source, target=target: (
            with_catalog(h, moved_pair(catalog, source, target, "move"))
        )

    by_size: dict[int, list[int]] = {}
    for k, field in enumerate(fields):
        if field.size > 1:
            by_size.setdefault(field.size, []).append(k)
    swaps = [pair for ks in by_size.values() for pair in zip(ks, ks[1:])]
    for s, t in swaps[:2]:
        swapped = swapped_pairs(catalog, s, t)
        yield f"{name}/swapped/{s}~{t}", BOTH, lambda swapped=swapped: with_catalog(h, swapped)
        yield f"{name}/swapped/{s}~{t}/counted", BOTH, lambda swapped=swapped: (
            with_catalog(h, swapped, build_B(swapped))
        )

    rng = seeded(name, "fused")
    selfpaired = [k for k, field in enumerate(fields) if field.star == field.label]
    pairs = [(s, t) for s in selfpaired for t in selfpaired if s < t]
    for keep, gone in rng.sample(pairs, min(2, len(pairs))):
        fused = fused_orbits(catalog, keep, gone)
        yield f"{name}/fused/{keep}+{gone}", ("B",), lambda fused=fused: (
            with_catalog(h, fused, build_B(fused))
        )


def selected(name: str, h: CardyFrobeniusAlgebra) -> Iterator[Case]:
    """The cases of ``name``, only the first of each family on a large pair."""
    seen: set[str] = set()
    for case in cases(name, h, 2 if name in NARROW_PAIRS else 4):
        family = case[0].split("/")[1]
        if name in LARGE_PAIRS and family in seen:
            continue
        seen.add(family)
        yield case


def results(h: CardyFrobeniusAlgebra, scopes: tuple[str, ...]) -> list[list]:
    """``[scope, name, status, witness]`` of every check of the case in ``scopes``."""
    verifiers = {"B": lambda: verify_equipped(h.B), "cardy": lambda: verify_cardy_frobenius(h)}
    scoped = [(scope, verifiers[scope]()) for scope in scopes]
    return [
        [scope, result.name, "pass" if result.passed else "fail", result.witness]
        for scope, checks in scoped
        for result in checks
    ]


def pinned_form(records: list[list]) -> list[list]:
    return [record for record in records if record[2:] != ["pass", None]]


def corpus_algebras() -> dict[str, CardyFrobeniusAlgebra]:
    return {
        name: algebra_for(build_conjugation_setup(*group_from_document(document)))
        for name, document in DOCUMENTS.items()
    }


def corpus(algebras: dict[str, CardyFrobeniusAlgebra]) -> dict[str, list[list] | str]:
    """Every case id with its pinned records, or the error text when the
    corrupted structure cannot be built."""
    pinned: dict[str, list[list] | str] = {}
    for name in sorted(algebras):
        for case_id, scopes, build in selected(name, algebras[name]):
            try:
                h = build()
            except ConsistencyError as exc:
                pinned[case_id] = f"ConsistencyError: {exc}"
                continue
            h = replace(h, B=uncached(h.B))
            pinned[case_id] = pinned_form(results(h, scopes))
    return pinned


def test_corpus_results_equal_the_pins():
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    actual = corpus(corpus_algebras())
    assert list(actual) == list(expected)
    for case_id, records in expected.items():
        assert actual[case_id] == records, case_id
    assert len(expected) >= 404
    # Every family breaks some check somewhere, and the intact cases pass.
    families = {case_id.split("/")[1] for case_id, records in expected.items() if records}
    assert families >= {"constant", "form", "star", "unit", "linear", "phi", "merged"}
    assert all(expected[f"{name}/intact"] == [] for name in DOCUMENTS)


def test_pinned_records_name_known_checks():
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    known = {("B", name) for name in B_CHECKS} | {("cardy", name) for name in CARDY_CHECKS}
    for records in expected.values():
        if isinstance(records, list):
            assert all((scope, name) in known for scope, name, _, _ in records)


if __name__ == "__main__":
    written = corpus(corpus_algebras())
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(case)}: {json.dumps(records)}" for case, records in written.items()]
    CORPUS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(written)} cases written to {CORPUS_PATH}", file=sys.stderr)
