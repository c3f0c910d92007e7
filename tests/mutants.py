"""Mutation check of the premises, the certificate, the two witness walks and
the closed-surface tuple count of the oracles.

Each mutant is ``(function, old, new)``: inside the named function of
``src/cardyfrob``, the one occurrence of ``old`` becomes ``new``.  For each
mutant the script copies the repository, without ``.git``, into a
temporary directory, applies the mutant there and runs the tier-1 suite with
``-x`` under a time limit.  A mutant is killed when the run fails or runs out
of time, and it survives when every test passes.  The unmutated copy runs
first, and the script stops if it fails, so no mutant counts as killed by a
suite that fails anyway.  A mutant whose ``old`` is not found once in its
function stops the script too: the source has moved on, and the list must
follow it.

The script uses only the standard library, and pytest does not collect it.
Run it from anywhere::

    python3 tests/mutants.py          # every mutant
    python3 tests/mutants.py M3 M17   # the named ones

It prints one line per mutant, exits 1 when one survives and 2 when the
unmutated copy fails.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cardyfrob"
# A killed mutant takes seconds and the whole suite about a minute; a run
# past this many seconds counts as killed.
TIMEOUT = 600


class Mutant(NamedTuple):
    function: str
    old: str
    new: str


MUTANTS: dict[str, Mutant] = {
    # Premise (a), FieldCatalog.is_model_of and its three parts.
    "M1": Mutant("is_model_of", "len(self.boundary) == algebra.dim\n            and ", ""),
    "M2": Mutant("is_model_of", "group.generators)", "group.generators[:1])"),
    "M3": Mutant("is_model_of", "\n            and _chains_match(algebra, self)", ""),
    "M4": Mutant(
        "_moved_orbits",
        "read = through(table[image * size : (image + 1) * size])",
        "read = tuple(table[image * size : (image + 1) * size])",
    ),
    "M5": Mutant("_moved_orbits", "enumerate(step):", "enumerate(step[:-1]):"),
    "M6": Mutant("_counted_orbits", "if table[x * size + z] != k:", "if table[x * size + z] < 0:"),
    "M7": Mutant(
        "_counted_orbits",
        "return nset.squared_fixed_points() == nset.group.order * len(catalog.boundary)",
        "return True",
    ),
    "M8": Mutant(
        "_chains_match", "if mirror is None or mirror.get(star) != count:", "if mirror is None:"
    ),
    "M9": Mutant(
        "_chains_match",
        "return matched == sum(map(len, chain.from_iterable(row.values() for row in rows)))",
        "return True",
    ),
    # The orbital premise.
    "M10": Mutant(
        "_is_orbital_algebra", "all(algebra.involution[i] == j for i, j in traces)\n        and ", ""
    ),
    "M11": Mutant("_is_orbital_algebra", "\n        and unit == dict.fromkeys(diagonal, 1)", ""),
    "M12": Mutant("_is_trace_form", "sum(map(len, form)) == len(traces) and ", ""),
    # Premises (d) and (e), and the certificate that reads them.
    "M13": Mutant(
        "_phi_is_rho",
        "return h.phi == build_phi(h.catalog)",
        "return len(h.phi) == len(build_phi(h.catalog))",
    ),
    "M14": Mutant("_is_class_algebra", " and class_of[z] == m for", " for"),
    "M15": Mutant(
        "_is_class_algebra",
        "return matched == sum(map(len, chain.from_iterable(row.values() for row in rows)))",
        "return True",
    ),
    "M16": Mutant(
        "_is_class_algebra",
        "\n        or not _is_monomial(a.form_inverse(), stars, [order] * dim, sizes)",
        "",
    ),
    "M17": Mutant("_is_monomial", "row.keys() == {column} and ", "column in row and "),
    "M18": Mutant("_model_certificate", "if _phi_is_rho(h):", "if True:"),
    "M19": Mutant(
        "_model_certificate",
        "if premises.orbital and _is_class_algebra(h):",
        "if _is_class_algebra(h):",
    ),
    # The walks name the least fault, not the first one met.
    "M20": Mutant("_check_nu_multiplicative", "code, x, z = min(faults)", "code, x, z = faults[0]"),
    "M21": Mutant(
        "_check_form_from_traces",
        "i, j = min(failing)",
        "i, j = max(f for f in failing if f[0] == min(failing)[0])",
    ),
    # The closed-surface tuple count: a crosscap letter is x^2, and a sphere's
    # word closes on the identity alone.
    "M22": Mutant("_letters", "[row[x] for x, row", "[x for x, row"),
    "M23": Mutant("_closed_count", "if factors else [0]", "if factors else list(range(order))"),
}


def mutated(mutant: Mutant) -> tuple[str, str]:
    """``(module file name, mutated source)`` for ``mutant``."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == mutant.function:
                lines = source.splitlines(keepends=True)
                start = sum(map(len, lines[: node.lineno - 1]))
                end = sum(map(len, lines[: node.end_lineno]))
                body = source[start:end]
                if body.count(mutant.old) != 1:
                    raise SystemExit(f"{mutant.function}: {mutant.old!r} is not found once")
                return path.name, source[:start] + body.replace(mutant.old, mutant.new) + source[end:]
    raise SystemExit(f"no function {mutant.function} in {PACKAGE}")


def run_suite(mutant: Mutant | None) -> tuple[bool, float, str]:
    """``(passed, seconds, first failing test)`` of tier-1 on a copy."""
    with tempfile.TemporaryDirectory(prefix="cardyfrob-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=ignore)
        if mutant is not None:
            name, source = mutated(mutant)
            (copy / "src" / "cardyfrob" / name).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        command.append("--continue-on-collection-errors")
        start = time.monotonic()
        process = subprocess.Popen(
            command,
            cwd=copy,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = process.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return False, time.monotonic() - start, f"timeout after {TIMEOUT} s"
        seconds = time.monotonic() - start
    if process.returncode == 0:
        return True, seconds, ""
    failing = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return False, seconds, failing.group(1) if failing else f"exit {process.returncode}"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = names or list(MUTANTS)
    for name in chosen:
        mutated(MUTANTS[name])
    passed, seconds, failing = run_suite(None)
    outcome = "passed" if passed else "failed"
    print(f"{'--':4} {'unmutated':28} {outcome:8} {seconds:6.1f} s  {failing}", flush=True)
    if not passed:
        return 2
    survivors = 0
    for name in chosen:
        passed, seconds, failing = run_suite(MUTANTS[name])
        survivors += passed
        outcome = "survived" if passed else "killed"
        print(f"{name:4} {MUTANTS[name].function:28} {outcome:8} {seconds:6.1f} s  {failing}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
