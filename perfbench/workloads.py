"""The three benchmark workloads, their seeded inputs and the correctness gate.

Every workload is one closed loop in one process: set-up, then operations
back to back for at least ``seconds`` (each starts when the previous one
ends), then the gate, which runs outside every timed window.

* ``build-s5``: set-up is S5 (K = 1) from its document to the field
  catalog (group closure, subgroup lattice, conjugation action, catalog);
  the operation builds ``(A, B, phi, U)`` from that catalog.
* ``verify-ladder``: set-up builds the four ladder pairs; the operation is
  one pass of what ``cardyfrob check`` verifies on each of them.
* ``hurwitz-batch``: set-up builds A5 (K = 1) and evaluates one warm-up
  surface per shape; the operation evaluates one surface of the corpus.

Inputs come from the seed only.  Each pair document is conjugated by a
seeded relabelling of the points and its generators are shuffled, which
changes element and label numbering but none of the pinned invariants, so
any seed is checked against the same expected answers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from math import ceil, prod
from pathlib import Path
from statistics import median

from speed import SpeedProbe

_S5 = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
_A5 = [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]
_S4 = [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]
_DOUBLE_TRANSPOSITION = [[1, 0, 3, 2, 4]]

DOCUMENTS = {
    "s5": {"degree": 5, "generators": _S5, "k_generators": []},
    "s4": {"degree": 4, "generators": _S4, "k_generators": []},
    "a5": {"degree": 5, "generators": _A5, "k_generators": []},
    "s5_k0123": {"degree": 5, "generators": _S5, "k_generators": _DOUBLE_TRANSPOSITION},
    "a5_k0123": {"degree": 5, "generators": _A5, "k_generators": _DOUBLE_TRANSPOSITION},
    "z2": {"degree": 2, "generators": [[1, 0]], "k_generators": []},
    "s3_k01": {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]], "k_generators": [[1, 0, 2]]},
}

# |G|, |N|, |X|, dim A, dim B.  |X| is the number of subgroups containing K,
# so the K = 1 rows are the classical subgroup counts (S4 30, A5 59, S5 156).
PINS = {
    "s5": {"G": 120, "N": 120, "X": 156, "dim_A": 7, "dim_B": 679},
    "s4": {"G": 24, "N": 24, "X": 30, "dim_A": 5, "dim_B": 155},
    "a5": {"G": 60, "N": 60, "X": 59, "dim_A": 5, "dim_B": 142},
    "s5_k0123": {"G": 120, "N": 4, "X": 19, "dim_A": 4, "dim_B": 205},
    "a5_k0123": {"G": 60, "N": 2, "X": 8, "dim_A": 2, "dim_B": 40},
    "z2": {"G": 2, "N": 2, "X": 2, "dim_A": 2, "dim_B": 4},
    "s3_k01": {"G": 6, "N": 1, "X": 2, "dim_A": 1, "dim_B": 4},
}

# Hurwitz numbers of A5 (K = 1) on surfaces without fields: 1/|N|, the
# class count, the involution count over |N|, and the Frobenius-Schur sum.
A5_LABEL_FREE = {
    "sphere": (True, Fraction(0), Fraction(1, 60)),
    "torus": (True, Fraction(1), Fraction(5)),
    "projective_plane": (False, Fraction(1, 2), Fraction(4, 15)),
    "klein_bottle": (False, Fraction(1), Fraction(5)),
}

LADDERS = {
    "full": {
        "build-s5": ["s5"],
        "verify-ladder": ["s4", "a5", "s5_k0123", "a5_k0123"],
        "hurwitz-batch": ["a5"],
    },
    "tiny": {
        "build-s5": ["z2"],
        "verify-ladder": ["z2", "s3_k01"],
        "hurwitz-batch": ["s3_k01"],
    },
}

# Set-ups per run, whose median is setup_s: one S5 set-up takes 10-20 s.
SETUP_REPEATS = {"build-s5": 1, "verify-ladder": 2, "hurwitz-batch": 3}
CORPUS_UNIT = 1440  # a multiple of 40 and 12 (and 3x of 6): every form equally often
MIN_EVALUATIONS = 1000  # so that p99 has at least ten samples beyond it
ORACLE_SAMPLE_PER_SHAPE = 8
GATE_SAMPLE_PER_SHAPE = 3
ORACLE_DOMAIN_LIMIT = 200_000
SHAPES = ("closed", "disc", "multi")


class Run:
    """Bookkeeping of one workload run: operations, failures and results."""

    def __init__(self, probe, span=None) -> None:
        self.probe = probe
        self.setup_spans: list[tuple] = []  # probe marks around each set-up
        self.attempted = 0
        self.failed = 0
        self.span = span or (lambda name: nullcontext())
        self.values: list[str] = []  # every exact Hurwitz value, in order
        self.oracle_checks = 0
        self.oracle_agree = 0
        self.tuples_examined = 0
        self.counts = {
            "G_order": 0,
            "X_size": 0,
            "N_order": 0,
            "pair_orbits": 0,
            "B_nonzero_pairs": 0,
            "B_structure_constants": 0,
            "B_cells": 0,
        }
        self.metrics: dict[str, float] = {}
        self.report: dict[str, tuple] = {}  # (value, unit) figures for the text report only
        self.algebras: dict[str, object] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)
        return ok

    def error(self, what: str, exc: Exception) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


# -- seeded inputs -------------------------------------------------------------


def relabelled(name: str, seed: int) -> dict:
    """The pair document conjugated by a seeded point relabelling, generators shuffled."""
    base = DOCUMENTS[name]
    rng = random.Random(f"{seed}:{name}")
    degree = base["degree"]
    sigma = list(range(degree))
    rng.shuffle(sigma)

    def conjugate(perm):
        image = [0] * degree
        for x in range(degree):
            image[sigma[x]] = sigma[perm[x]]
        return image

    generators = [conjugate(g) for g in base["generators"]]
    k_generators = [conjugate(g) for g in base["k_generators"]]
    rng.shuffle(generators)
    rng.shuffle(k_generators)
    return {"degree": degree, "generators": generators, "k_generators": k_generators}


def shape_of(spec) -> str:
    if not spec.boundary:
        return "closed"
    return "disc" if len(spec.boundary) == 1 else "multi"


# Surface structures, cycled so that every seed gets the same mix and only
# the labels differ: (orientable, genus, interior count) for closed surfaces,
# (interior count, contour count, labels per contour) for the others.
CLOSED_FORMS = [(True, Fraction(g), k) for g in range(4) for k in range(4)] + [
    (False, Fraction(c, 2), k) for c in range(1, 7) for k in range(4)
]
DISC_FORMS = [(k, 1, n) for k in range(2) for n in range(1, 4)]
MULTI_FORMS = [(k, c, n) for k in range(2) for c in (2, 3) for n in range(1, 4)]


def make_corpus(cf, catalog, rng: random.Random, unit: int) -> list:
    """``unit`` closed, ``3 * unit`` disc (one contour) and ``unit`` multi
    (2-3 contour) surfaces, shuffled.

    Disc surfaces are the majority so that the median evaluation falls
    inside their dense cluster of latencies; with equal thirds it falls in
    the sparse gap between shapes and jumps by tens of percent between runs.
    """
    interior = catalog.interior_labels
    boundary = catalog.boundary_labels

    def labels(pool, count):
        return tuple(rng.choice(pool) for _ in range(count))

    def bounded(form):
        k, contours, n = form
        return cf.SurfaceSpec(
            True, Fraction(0), labels(interior, k),
            tuple(labels(boundary, n) for _ in range(contours)),
        )

    specs = []
    for position in range(unit):
        orientable, genus, k = CLOSED_FORMS[position % len(CLOSED_FORMS)]
        specs.append(cf.SurfaceSpec(orientable, genus, labels(interior, k)))
        specs.append(bounded(MULTI_FORMS[position % len(MULTI_FORMS)]))
    for position in range(3 * unit):
        specs.append(bounded(DISC_FORMS[position % len(DISC_FORMS)]))
    rng.shuffle(specs)
    return specs


def oracle_feasible(h, spec) -> bool:
    """Whether the brute-force oracle for ``spec`` stays small."""
    if spec.boundary:
        return True
    order = h.catalog.nset.group.order
    factor = 2 * int(spec.genus) if spec.orientable else spec.crosscaps
    sizes = prod(h.catalog.interior_field(label).size for label in spec.interior)
    return sizes * order**factor <= ORACLE_DOMAIN_LIMIT


def oracle_sample(h, corpus: list, rng: random.Random, per_shape: int) -> list[int]:
    """Seeded corpus positions, ``per_shape`` oracle-feasible ones of each shape."""
    chosen = []
    for shape in SHAPES:
        pool = [i for i, spec in enumerate(corpus) if shape_of(spec) == shape and oracle_feasible(h, spec)]
        chosen += rng.sample(pool, min(per_shape, len(pool)))
    return sorted(chosen)


# -- shared steps ----------------------------------------------------------------


def build_catalog(cf, document):
    group, k = cf.group_from_document(document)
    setup = cf.build_conjugation_setup(group, k, digest=cf.document_digest(document))
    return setup, cf.build_catalog(setup.nset, provenance=setup.digest)


def build_algebra(cf, document):
    setup, catalog = build_catalog(cf, document)
    return setup, cf.build_cardy_frobenius(catalog)


def check_pins(run: Run, pins: dict, name: str, setup, h) -> None:
    actual = {
        "G": setup.group.order,
        "N": setup.n_group.order,
        "X": len(setup.subgroups),
        "dim_A": h.A.dim,
        "dim_B": h.B.dim,
    }
    run.check(actual == pins[name], f"{name}: sizes {actual} != pinned {pins[name]}")


def count_pair(run: Run, setup, h) -> None:
    """Per-layer size counters, from public data only."""
    counts = run.counts
    counts["G_order"] += setup.group.order
    counts["X_size"] += len(setup.subgroups)
    counts["N_order"] += setup.n_group.order
    counts["pair_orbits"] += len(h.catalog.boundary)
    dim = h.B.dim
    for i in range(dim):
        for j in range(dim):
            expansion = h.B.pair_products(i, j)
            if expansion:
                counts["B_nonzero_pairs"] += 1
                counts["B_structure_constants"] += len(expansion)
    counts["B_cells"] += dim * dim


def compare_with_oracle(cf, run: Run, h, spec, value, what: str) -> None:
    try:
        result = cf.oracle_for_spec(h, spec)
    except Exception as exc:  # any raise is a failed comparison
        run.error(f"oracle {what}", exc)
        return
    run.oracle_checks += 1
    run.tuples_examined += result.tuples_examined
    agree = result.value == value
    run.oracle_agree += agree
    run.check(agree, f"oracle {what}: evaluate {value} != oracle {result.value}")


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, ceil(fraction * len(sorted_values)) - 1)]


def closed_loop(run: Run, seconds: float, op) -> None:
    """Call ``op`` back to back until ``seconds`` have passed, at least once."""
    probe = run.probe
    marks = [probe.mark()]
    while True:
        op()
        marks.append(probe.mark())
        if marks[-1][0] - marks[0][0] >= seconds:
            break
    raw = [probe.raw(a, b) for a, b in zip(marks, marks[1:])]
    scaled = [probe.scaled(a, b) for a, b in zip(marks, marks[1:])]
    run.metrics["op_ms_p50"] = 1000.0 * median(scaled)
    run.metrics["ops_per_s"] = len(scaled) / probe.scaled(marks[0], marks[-1])
    run.report["raw_op_ms_p50"] = (1000.0 * median(raw), "ms")
    run.report["raw_ops_per_s"] = (len(raw) / probe.raw(marks[0], marks[-1]), "1/s")


def timed_setups(run: Run, repeats: int, setup, after=None) -> None:
    """Time ``setup`` ``repeats`` times, calling ``after`` untimed after each."""
    probe = run.probe
    for _ in range(repeats):
        start = probe.mark()
        setup()
        run.setup_spans.append((start, probe.mark()))
        if after:
            after()


def finish_setups(run: Run) -> None:
    # Scaled only once the probe has samples after the last set-up.
    probe = run.probe
    run.metrics["setup_s"] = median(probe.scaled(a, b) for a, b in run.setup_spans)
    run.report["raw_setup_s"] = (median(probe.raw(a, b) for a, b in run.setup_spans), "s")


# -- workloads -------------------------------------------------------------------


def build_s5(cf, run: Run, docs: dict, pairs: list, pins: dict, seconds: float) -> None:
    (name,) = pairs
    built = {}

    def setup():
        built["setup"], built["catalog"] = build_catalog(cf, docs[name])

    def op():
        built["h"] = None  # one algebra alive at a time, so peak memory is one build's
        built["h"] = cf.build_cardy_frobenius(built["catalog"])

    timed_setups(run, SETUP_REPEATS["build-s5"], setup)
    closed_loop(run, seconds, op)
    finish_setups(run)
    run.report["document_to_algebra_s"] = (
        run.metrics["setup_s"] + run.metrics["op_ms_p50"] / 1000.0, "s")
    check_pins(run, pins, name, built["setup"], built["h"])
    count_pair(run, built["setup"], built["h"])


def verify_ladder(cf, run: Run, docs: dict, pairs: list, pins: dict, seconds: float) -> None:
    built: dict = {}
    results = []

    def setup():
        built.clear()
        for name in pairs:
            built[name] = build_algebra(cf, docs[name])

    def op():
        for name, (_, h) in built.items():
            results.append(
                (name, cf.verify_equipped(h.A) + cf.verify_equipped(h.B) + cf.verify_cardy_frobenius(h))
            )

    def after():
        for name, (setup_, h) in built.items():
            check_pins(run, pins, name, setup_, h)

    timed_setups(run, SETUP_REPEATS["verify-ladder"], setup, after)
    for name, (setup_, h) in built.items():
        count_pair(run, setup_, h)
        run.algebras[name] = h
    closed_loop(run, seconds, op)
    finish_setups(run)
    run.report["verify_s"] = (run.metrics["op_ms_p50"] / 1000.0, "s")
    for name, checks in results:
        broken = [check.name for check in checks if not check.passed]
        run.check(not broken, f"{name}: checks failed: {broken}")


def hurwitz_batch(cf, run: Run, docs: dict, pairs: list, pins: dict, seconds: float, seed: int) -> None:
    (name,) = pairs
    built: dict = {}

    def setup():
        built["setup"], h = build_algebra(cf, docs[name])
        first_b = h.catalog.boundary_labels[0]
        warm_up = [
            cf.SurfaceSpec(True, Fraction(1)),
            cf.SurfaceSpec(True, Fraction(0), (), ((first_b,),)),
            cf.SurfaceSpec(True, Fraction(0), (), ((first_b,), (first_b,))),
        ]
        for spec in warm_up:
            cf.evaluate(h, spec)
        built["h"] = h

    timed_setups(
        run, SETUP_REPEATS["hurwitz-batch"], setup,
        lambda: check_pins(run, pins, name, built["setup"], built["h"]),
    )
    h = built["h"]
    count_pair(run, built["setup"], h)
    run.algebras[name] = h

    rng = random.Random(f"{seed}:corpus")
    corpus = make_corpus(cf, h.catalog, rng, CORPUS_UNIT)
    shapes = [shape_of(spec) for spec in corpus]
    size = len(corpus)
    values: list = [None] * size
    samples: list[tuple[float, float, str]] = []  # (end time, raw seconds, shape)
    evaluate = cf.evaluate
    probe = run.probe
    mark = probe.mark
    position = 0
    first = mark()
    while True:
        slot = position % size
        before = mark()
        try:
            value = evaluate(h, corpus[slot]).value
        except Exception as exc:  # an evaluation that raises is a failed operation
            run.error(f"evaluate corpus[{slot}]", exc)
            value = None
        after = mark()
        position += 1
        if value is not None:
            samples.append((after[0], (after[0] - before[0]) - (after[1] - before[1]), shapes[slot]))
            if values[slot] is None:
                values[slot] = value
                run.attempted += 1
            else:
                run.check(value == values[slot], f"corpus[{slot}] changed between passes")
        if after[0] - first[0] >= seconds and position >= max(MIN_EVALUATIONS, size):
            break
    last = mark()
    finish_setups(run)
    # Each latency is scaled by the machine speed sampled in its own second.
    factors: dict[int, float] = {}
    scaled: list[float] = []
    by_shape: dict[str, list[float]] = {shape: [] for shape in SHAPES}
    for end, latency, shape in samples:
        second = int(end - first[0])
        if second not in factors:
            factors[second] = probe.factor(first[0] + second, first[0] + second + 1)
        scaled.append(latency * factors[second])
        by_shape[shape].append(scaled[-1])
    ordered = sorted(scaled)
    run.metrics["op_ms_p50"] = 1000.0 * median(ordered)
    run.metrics["ops_per_s"] = len(scaled) / probe.scaled(first, last)
    raw = sorted(latency for _, latency, _ in samples)
    run.report["eval_per_s"] = (run.metrics["ops_per_s"], "1/s")
    run.report["eval_ms_p50"] = (run.metrics["op_ms_p50"], "ms")
    run.report["eval_ms_p99"] = (1000.0 * percentile(ordered, 0.99), "ms")
    run.report["evaluations"] = (len(scaled), "count")
    for shape in SHAPES:
        run.report[f"eval_ms_p50.{shape}"] = (1000.0 * median(by_shape[shape]), "ms")
    run.report["raw_eval_per_s"] = (len(raw) / probe.raw(first, last), "1/s")
    run.report["raw_eval_ms_p50"] = (1000.0 * median(raw), "ms")
    run.report["raw_eval_ms_p99"] = (1000.0 * percentile(raw, 0.99), "ms")
    run.values += [str(value) for value in values]

    for slot in oracle_sample(h, corpus, rng, ORACLE_SAMPLE_PER_SHAPE):
        if values[slot] is not None:
            compare_with_oracle(cf, run, h, corpus[slot], values[slot], f"corpus[{slot}]")


# -- gate ------------------------------------------------------------------------


def gate(cf, cli, run: Run, seed: int, pins: dict, out_dir: Path) -> None:
    """Correctness checks every workload runs after its timed windows."""
    document = relabelled("a5_k0123", seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"a5_k0123-seed{seed}.json"
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")
    outputs = []
    for _ in range(2):
        stdout, stderr = io.StringIO(), io.StringIO()
        with run.span("cli.run_check"), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.run(["check", "--group", str(path)])
        outputs.append((code, stdout.getvalue()))
    (code, text), (code_again, text_again) = outputs
    run.check(code == 0 and code_again == 0, f"cardyfrob check a5_k0123 exit codes {code}, {code_again}")
    run.check(text == text_again, "cardyfrob check a5_k0123 stdout differs between runs")
    try:
        report = json.loads(text)
        expected = (True, pins["a5_k0123"]["X"], pins["a5_k0123"]["dim_B"])
        actual = (report["all_passed"], report["x_size"], report["dim_b"])
    except (ValueError, KeyError) as exc:
        run.error("cardyfrob check a5_k0123 output", exc)
    else:
        run.check(actual == expected, f"cardyfrob check a5_k0123 reports {actual} != {expected}")

    h = run.algebras.get("a5")
    if h is None:
        setup, h = build_algebra(cf, relabelled("a5", seed))
        check_pins(run, pins, "a5", setup, h)
    for name, (orientable, genus, pinned) in A5_LABEL_FREE.items():
        spec = cf.SurfaceSpec(orientable, genus)
        value = cf.evaluate(h, spec).value
        run.values.append(str(value))
        run.check(value == pinned, f"A5 {name}: {value} != pinned {pinned}")
        compare_with_oracle(cf, run, h, spec, value, f"A5 {name}")

    setup, small = build_algebra(cf, document)
    rng = random.Random(f"{seed}:gate")
    corpus = make_corpus(cf, small.catalog, rng, 12)
    for slot in oracle_sample(small, corpus, rng, GATE_SAMPLE_PER_SHAPE):
        value = cf.evaluate(small, corpus[slot]).value
        run.values.append(str(value))
        compare_with_oracle(cf, run, small, corpus[slot], value, f"a5_k0123 gate[{slot}]")


def check_digest(run: Run, key: str, out_dir: Path) -> str:
    """Digest of every exact value; it must match earlier runs with the same key."""
    digest = hashlib.sha256("\n".join(run.values).encode("ascii")).hexdigest()[:16]
    store = out_dir / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    if key in known:
        run.check(known[key] == digest, f"value digest {digest} != {known[key]} of an earlier run")
    else:
        known[key] = digest
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return digest


def run_workload(cf, cli, workload: str, seed: int, seconds: float, ladder: str,
                 pins: dict, out_dir: Path, span=None) -> tuple[Run, str]:
    """Run one workload and its gate; returns the bookkeeping and the value digest."""
    run = Run(SpeedProbe(), span)
    pairs = LADDERS[ladder][workload]
    docs = {name: relabelled(name, seed) for name in pairs}
    run.probe.start()
    try:
        if workload == "build-s5":
            build_s5(cf, run, docs, pairs, pins, seconds)
        elif workload == "verify-ladder":
            verify_ladder(cf, run, docs, pairs, pins, seconds)
        else:
            hurwitz_batch(cf, run, docs, pairs, pins, seconds, seed)
    finally:
        run.probe.stop()
    run.report["machine_speed"] = (run.probe.speed(), "x nominal")
    gate(cf, cli, run, seed, pins, out_dir)
    run.algebras.clear()
    digest = check_digest(run, f"{workload}/{ladder}/{seed}", out_dir)
    return run, digest
