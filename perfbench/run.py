"""Benchmark of cardyfrob: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload hurwitz-batch --seed 1 --seconds 10 --trace 0

Without ``--workload`` it runs every workload, each in a fresh interpreter,
and prints a summary.  Each run builds ``cardyfrob`` from ``src/`` of the
checkout it sits in, checks every output (see ``workloads.py``), prints one
``metric`` line per figure and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.

``--trace 1`` first runs the same workload untraced in a child interpreter,
then runs it again here with spans around every call into the package, and
reports per-layer numbers plus the tracing overhead (traced minus untraced).
Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
WORKLOADS = ("build-s5", "verify-ladder", "hurwitz-batch")

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer(tracer, run, untraced) -> dict[str, tuple[float, str]]:
    counts = run.counts
    traced_s = tracer.total
    figures = {
        "groups.group_from_document.s": (traced_s("groups.group_from_document"), "s"),
        "groups.subgroups_containing.s": (traced_s("groups.subgroups_containing"), "s"),
        "groups.normalizer.s": (traced_s("groups.normalizer"), "s"),
        "groups.quotient_group.s": (traced_s("groups.quotient_group"), "s"),
        "groups.is_core_free.s": (traced_s("groups.is_core_free"), "s"),
        "groups.conjugacy_classes.s": (traced_s("groups.conjugacy_classes"), "s"),
        "groups.G_order": (counts["G_order"], "count"),
        "groups.X_size": (counts["X_size"], "count"),
        "actions.build_conjugation_setup.self_s": (
            tracer.self_time("actions.build_conjugation_setup"), "s"),
        "actions.build_catalog.self_s": (tracer.self_time("actions.build_catalog"), "s"),
        "actions.N_order": (counts["N_order"], "count"),
        "actions.pair_orbits": (counts["pair_orbits"], "count"),
    }
    for stage in ("build_A", "build_B", "build_reps", "build_phi", "build_U"):
        figures[f"cardy.{stage}.s"] = (traced_s(f"cardy.{stage}"), "s")
    figures.update({
        "cardy.build_B.rss_delta_mb": (tracer.rss_delta_mb("cardy.build_B"), "MB"),
        "cardy.build_reps.rss_delta_mb": (tracer.rss_delta_mb("cardy.build_reps"), "MB"),
        "cardy.verify_cardy_frobenius.s": (traced_s("cardy.verify_cardy_frobenius"), "s"),
        "cardy.B_nonzero_pairs": (counts["B_nonzero_pairs"], "count"),
        "cardy.B_structure_constants": (counts["B_structure_constants"], "count"),
        "cardy.B_pair_density": (counts["B_nonzero_pairs"] / counts["B_cells"], "frac"),
        "frobenius.verify_equipped_A.s": (traced_s("frobenius.verify_equipped_A"), "s"),
        "frobenius.verify_equipped_B.s": (traced_s("frobenius.verify_equipped_B"), "s"),
        "frobenius.form_inverse.s": (tracer.aggregate_seconds("frobenius.form_inverse"), "s"),
        "frobenius.multiply.calls": (tracer.calls("frobenius.multiply"), "count"),
        "frobenius.multiply.s": (tracer.aggregate_seconds("frobenius.multiply"), "s"),
        "frobenius.casimir_sandwich.s": (
            tracer.aggregate_seconds("frobenius.casimir_sandwich"), "s"),
    })
    for shape in ("closed", "disc", "multi"):
        figures[f"hurwitz.evaluate.{shape}.ms_p50"] = (
            tracer.median_ms(f"hurwitz.evaluate.{shape}"), "ms")
    figures.update({
        "oracles.oracle_for_spec.s": (traced_s("oracles.oracle_for_spec"), "s"),
        "oracles.tuples_examined": (run.tuples_examined, "count"),
        "oracles.agree_frac": (run.oracle_agree / max(1, run.oracle_checks), "frac"),
        "cli.run_check.s": (traced_s("cli.run_check"), "s"),
        "trace.op_overhead_ms": (
            run.metrics["op_ms_p50"] - untraced["op_ms_p50"]["value"], "ms"),
        "trace.setup_overhead_s": (
            run.metrics["setup_s"] - untraced["setup_s"]["value"], "s"),
    })
    return figures


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ladder", choices=("full", "tiny"), default="full",
        help="tiny swaps in z2 and s3_k01 so that every code path runs in seconds",
    )
    parser.add_argument(
        "--pin", action="append", default=[], metavar="PAIR.KEY=VALUE",
        help="override one pinned invariant (the self-test uses it to trip the gate)",
    )
    return parser.parse_args(argv)


def _child(args, workload: str, trace: int) -> tuple[int, dict | None, list[str]]:
    """Run one workload in a fresh interpreter; return its exit code, result and text lines."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--ladder", args.ladder,
    ]
    for pin in args.pin:
        command += ["--pin", pin]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return completed.returncode, result, lines[:-1] if result is not None else lines


def _run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        code, result, lines = _child(args, workload, args.trace)
        worst = max(worst, code)
        print("\n".join(lines))
        if result is None:
            print(f"{workload}: no result (exit {code})")
    return worst


def _pins(overrides, pins):
    pins = {name: dict(values) for name, values in pins.items()}
    for override in overrides:
        key, _, value = override.partition("=")
        pair, _, field = key.partition(".")
        if pair not in pins or field not in pins[pair] or not value.isdigit():
            raise SystemExit(f"error: bad --pin {override!r}")
        pins[pair][field] = int(value)
    return pins


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cardyfrob" / "__init__.py").is_file():
        print(f"error: no cardyfrob sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)

    untraced = None
    if args.trace:
        code, result, _ = _child(args, args.workload, 0)
        if result is None:
            print(f"error: the untraced run exited {code} without a result", file=sys.stderr)
            return 1
        untraced = result

    sys.path.insert(0, str(SRC))
    import cardyfrob
    import cardyfrob.cli as cli

    if not Path(cardyfrob.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cardyfrob from {cardyfrob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    pins = _pins(args.pin, workloads.PINS)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(cardyfrob)
    try:
        run, digest = workloads.run_workload(
            cardyfrob, cli, args.workload, args.seed, args.seconds, args.ladder, pins, OUT,
            span=tracer.span if tracer else None,
        )
    finally:
        if tracer:
            tracer.uninstall()
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = run.failed
    if untraced is not None and not untraced["correct"]:
        failed += untraced["failed"] or 1

    if tracer:
        tracer.dump(OUT / f"trace-{args.workload}-{args.ladder}-seed{args.seed}.json")
        figures = _per_layer(tracer, run, untraced["metrics"])
    else:
        figures = {name: (run.metrics[name], unit) for name, unit in END_TO_END.items()}

    print(f"workload {args.workload} ladder {args.ladder} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace} digest {digest}")
    for name, (value, unit) in run.report.items():
        print(f"report {name} = {value:.6g} {unit}")
    print(f"report failed_frac = {failed / max(1, run.attempted):.6g} frac "
          f"({failed} of {run.attempted} operations)")
    for name, (value, unit) in figures.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
