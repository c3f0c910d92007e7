"""Command-line interface.

All commands read a group document (JSON with ``degree``, ``generators``,
``k_generators``) and print deterministic JSON: keys sorted, rationals as
canonical ``p/q`` strings.  Exit codes: 0 success, 1 failed axiom or check,
2 malformed input, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .actions import ConjugationSetup, build_catalog, build_conjugation_setup
from .cardy import CardyFrobeniusAlgebra, build_cardy_frobenius, hecke_check, verify_all
from .errors import ConsistencyError, InputError, ResourceError
from .frobenius import CheckResult, EquippedFrobeniusAlgebra
from .groups import (
    DEFAULT_ORDER_BOUND,
    document_digest,
    group_from_document,
    group_of_document,
    subgroup_from_permutations,
)
from .hurwitz import SurfaceSpec, evaluate
from .oracles import DEFAULT_TUPLE_BOUND, oracle_for_spec
from .rationals import format_fraction


def _bound(text: str) -> int:
    """An ``int`` argument of at least 1: no smaller bound admits any work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardyfrob",
        description=(
            "Exact Cardy-Frobenius algebras of finite group pairs and "
            "Hurwitz numbers of group coverings."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--group", required=True, help="path to the group JSON document")
        sub.add_argument(
            "--order-bound",
            type=_bound,
            default=DEFAULT_ORDER_BOUND,
            help="maximum group order for the generator closure",
        )

    info = subparsers.add_parser("info", help="sizes of G, K, N and X")
    add_common(info)

    fields = subparsers.add_parser("fields", help="the interior/boundary field catalog")
    add_common(fields)

    algebra = subparsers.add_parser("algebra", help="the algebras A and B with phi and U")
    add_common(algebra)
    algebra.add_argument(
        "--dump",
        action="store_true",
        help="also emit structure constants and pairing matrices",
    )

    check = subparsers.add_parser("check", help="run the full axiom suite")
    add_common(check)

    hurwitz = subparsers.add_parser("hurwitz", help="evaluate a surface spec")
    add_common(hurwitz)
    hurwitz.add_argument(
        "--surface", required=True, help="path to the surface JSON document (or list)"
    )
    hurwitz.add_argument(
        "--trace",
        action="store_true",
        help="write the evaluation trace of each surface to stderr",
    )

    oracle = subparsers.add_parser("oracle", help="brute-force evaluate a surface spec")
    add_common(oracle)
    oracle.add_argument(
        "--surface", required=True, help="path to the surface JSON document (or list)"
    )
    oracle.add_argument(
        "--tuple-bound",
        type=_bound,
        default=DEFAULT_TUPLE_BOUND,
        help="maximum tuple enumeration domain",
    )

    hecke = subparsers.add_parser(
        "hecke", help="compare B of a coset action with the Hecke algebra"
    )
    add_common(hecke)
    hecke.add_argument(
        "--subgroup-generators",
        required=True,
        help="JSON list of permutations generating the subgroup S",
    )
    return parser


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer beyond the interpreter's digit limit.
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to parse") from None


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _setup_from_args(args: argparse.Namespace) -> ConjugationSetup:
    document = _load_json(args.group)
    group, k = group_from_document(document, order_bound=args.order_bound)
    return build_conjugation_setup(group, k, digest=document_digest(document))


def _algebra_from_setup(setup: ConjugationSetup) -> CardyFrobeniusAlgebra:
    catalog = build_catalog(setup.nset, provenance=setup.digest)
    return build_cardy_frobenius(catalog)


def _check_entries(scope: str, results: Sequence[CheckResult]) -> list[dict[str, Any]]:
    entries = []
    for result in results:
        entry: dict[str, Any] = {
            "axiom": result.name,
            "scope": scope,
            "status": "pass" if result.passed else "fail",
        }
        if result.witness is not None:
            entry["witness"] = result.witness
        entries.append(entry)
    return entries


def _algebra_summary(alg: EquippedFrobeniusAlgebra, dump: bool) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "basis": list(alg.basis),
        "linear_form": {
            label: format_fraction(alg.linear_form[i])
            for i, label in enumerate(alg.basis)
            if alg.linear_form[i]
        },
        "involution": {label: alg.star_label(label) for label in alg.basis},
        "unit": {
            label: format_fraction(value) for label, value in sorted(alg.unit.coeffs.items())
        },
    }
    if dump:
        constants = []
        for i, left in enumerate(alg.basis):
            for j, right in enumerate(alg.basis):
                expansion = alg.pair_products(i, j)
                for k in sorted(expansion):
                    constants.append(
                        [left, right, alg.basis[k], format_fraction(expansion[k])]
                    )
        summary["structure_constants"] = constants
        summary["form"] = [
            [format_fraction(row.get(j, 0)) for j in range(alg.dim)] for row in alg.form
        ]
    return summary


def _surface_specs(path: str) -> list[SurfaceSpec]:
    document = _load_json(path)
    if isinstance(document, list):
        if not document:
            raise InputError("surface list is empty")
        return [SurfaceSpec.from_document(item) for item in document]
    return [SurfaceSpec.from_document(document)]


def _cmd_info(args: argparse.Namespace) -> int:
    setup = _setup_from_args(args)
    _emit(
        {
            "group_order": setup.group.order,
            "k_order": setup.k.order,
            "k_normalizer_order": setup.k_normalizer.order,
            "n_order": setup.n_group.order,
            "x_size": len(setup.subgroups),
            "x_orders": list(setup.x_orders),
            "k_core_free": setup.k_core_free,
            "digest": setup.digest,
        }
    )
    return 0


def _cmd_fields(args: argparse.Namespace) -> int:
    setup = _setup_from_args(args)
    catalog = build_catalog(setup.nset, provenance=setup.digest)
    _emit(
        {
            "provenance": catalog.provenance,
            "interior": [
                {
                    "label": field.label,
                    "size": field.size,
                    "aut": field.aut_order,
                    "star": field.star,
                    "d": field.d,
                }
                for field in catalog.interior
            ],
            "boundary": [
                {
                    "label": field.label,
                    "representative": list(field.representative),
                    "size": field.size,
                    "aut": field.aut_order,
                    "star": field.star,
                }
                for field in catalog.boundary
            ],
        }
    )
    return 0


def _cmd_algebra(args: argparse.Namespace) -> int:
    setup = _setup_from_args(args)
    h = _algebra_from_setup(setup)
    _emit(
        {
            "dim_a": h.A.dim,
            "dim_b": h.B.dim,
            "a": _algebra_summary(h.A, args.dump),
            "b": _algebra_summary(h.B, args.dump),
            "phi": [
                [format_fraction(row.get(j, 0)) for j in range(h.B.dim)] for row in h.phi
            ],
            "u": {
                label: format_fraction(value)
                for label, value in sorted(h.u.coeffs.items())
            },
        }
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    setup = _setup_from_args(args)
    h = _algebra_from_setup(setup)
    entries = [
        entry
        for scope, results in verify_all(h).items()
        for entry in _check_entries(scope, results)
    ]
    all_passed = all(entry["status"] == "pass" for entry in entries)
    _emit(
        {
            "x_size": len(setup.subgroups),
            "dim_a": h.A.dim,
            "dim_b": h.B.dim,
            "k_core_free": setup.k_core_free,
            "checks": entries,
            "all_passed": all_passed,
        }
    )
    return 0 if all_passed else 1


def _cmd_hurwitz(args: argparse.Namespace) -> int:
    specs = _surface_specs(args.surface)
    setup = _setup_from_args(args)
    h = _algebra_from_setup(setup)
    value = Fraction(1)
    for position, spec in enumerate(specs):
        result = evaluate(h, spec, with_trace=args.trace)
        value *= result.value
        for line in result.evaluation_trace or ():
            print(f"surface {position}: {line}", file=sys.stderr)
    _emit({"hurwitz": format_fraction(value)})
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    specs = _surface_specs(args.surface)
    setup = _setup_from_args(args)
    h = _algebra_from_setup(setup)
    value = Fraction(1)
    tuples = 0
    for spec in specs:
        result = oracle_for_spec(h, spec, tuple_bound=args.tuple_bound)
        value *= result.value
        tuples += result.tuples_examined
    _emit({"hurwitz_oracle": format_fraction(value), "tuples": tuples})
    return 0


def _cmd_hecke(args: argparse.Namespace) -> int:
    document = _load_json(args.group)
    group = group_of_document(document, args.order_bound)
    try:
        raw = json.loads(args.subgroup_generators)
    except ValueError as exc:
        raise InputError(f"--subgroup-generators is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("--subgroup-generators nests too deeply to parse") from None
    s = subgroup_from_permutations(group, raw, "--subgroup-generators")
    comparison = hecke_check(group, s)
    all_passed = all(result.passed for result in comparison.checks)
    _emit(
        {
            "s_order": s.order,
            "dim_b": comparison.boundary_dimension,
            "double_cosets": comparison.double_coset_count,
            "checks": _check_entries("hecke", comparison.checks),
            "all_passed": all_passed,
        }
    )
    return 0 if all_passed else 1


_COMMANDS = {
    "info": _cmd_info,
    "fields": _cmd_fields,
    "algebra": _cmd_algebra,
    "check": _cmd_check,
    "hurwitz": _cmd_hurwitz,
    "oracle": _cmd_oracle,
    "hecke": _cmd_hecke,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
