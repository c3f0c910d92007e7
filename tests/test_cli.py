"""End-to-end command-line runs on real input documents."""

from __future__ import annotations

import json
import sys
import time

import pytest

from cardyfrob import bundled_input, cardy_from_pair, cli, group_from_document
from cardyfrob.cli import run
from cardyfrob.groups import DEGREE_BOUND
from cardyfrob.rationals import format_fraction

Z2_DOC = {"degree": 2, "generators": [[1, 0]], "k_generators": []}
S4_DOC = {
    "degree": 4,
    "generators": [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]],
    "k_generators": [],
}
TORUS_DOC = {"orientable": True, "genus": 1, "interior": [], "boundary": []}
BUNDLED_GROUPS = [
    "a5_k_double_transposition",
    "s3_k_transposition",
    "s3_trivial",
    "s4_k_double_transposition",
    "s4_trivial",
    "z2_trivial",
    "z3_trivial",
]


@pytest.fixture()
def z2_path(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(Z2_DOC))
    return str(path)


@pytest.fixture()
def torus_path(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_DOC))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths -----------------------------------------------------------------


def test_info(capsys, z2_path):
    code, out, _ = run_json(capsys, ["info", "--group", z2_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == 2
    assert payload["k_order"] == 1
    assert payload["n_order"] == 2
    assert payload["x_size"] == 2
    assert payload["x_orders"] == [1, 2]
    assert payload["k_core_free"] is True
    assert len(payload["digest"]) == 12


def test_info_is_byte_deterministic(capsys, z2_path):
    _, first, _ = run_json(capsys, ["info", "--group", z2_path])
    _, second, _ = run_json(capsys, ["info", "--group", z2_path])
    assert first == second
    assert json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n" == first


def test_fields(capsys, z2_path):
    code, out, _ = run_json(capsys, ["fields", "--group", z2_path])
    assert code == 0
    payload = json.loads(out)
    assert [f["label"] for f in payload["interior"]] == ["a0", "a1"]
    assert [f["d"] for f in payload["interior"]] == [2, 0]
    assert [f["label"] for f in payload["boundary"]] == ["b0", "b1", "b2", "b3"]
    assert [f["representative"] for f in payload["boundary"]] == [
        [0, 0],
        [0, 1],
        [1, 0],
        [1, 1],
    ]
    assert all(f["aut"] == 2 for f in payload["boundary"])


def test_algebra_dump(capsys, z2_path):
    code, out, _ = run_json(capsys, ["algebra", "--group", z2_path, "--dump"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_a"] == 2
    assert payload["dim_b"] == 4
    assert payload["u"] == {"a0": "2"}
    assert ["b1", "b2", "b0", "1"] in payload["b"]["structure_constants"]
    assert payload["b"]["unit"] == {"b0": "1", "b3": "1"}
    assert payload["a"]["linear_form"] == {"a0": "1/2"}
    assert payload["b"]["form"][1][2] == "1/2"
    # The dump writes the sparse pairing out densely: every entry, zeros
    # included, is l(e_i e_j) recomputed from the products.
    for name in BUNDLED_GROUPS:
        path = bundled_input(f"groups/{name}.json")
        code, out, _ = run_json(capsys, ["algebra", "--group", str(path), "--dump"])
        assert code == 0
        payload = json.loads(out)
        h = cardy_from_pair(*group_from_document(json.loads(path.read_text())))
        for key, alg in (("a", h.A), ("b", h.B)):
            elements = [alg.basis_element(label) for label in alg.basis]
            expected = [
                [format_fraction(alg.bilinear(x, y)) for y in elements] for x in elements
            ]
            assert payload[key]["form"] == expected, (name, key)


def test_algebra_without_dump_is_compact(capsys, z2_path):
    code, out, _ = run_json(capsys, ["algebra", "--group", z2_path])
    assert code == 0
    payload = json.loads(out)
    assert "structure_constants" not in payload["b"]
    assert payload["phi"] == [["1", "0", "0", "1"], ["1", "0", "0", "1"]]


def test_check(capsys, z2_path):
    code, out, _ = run_json(capsys, ["check", "--group", z2_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    scopes = {entry["scope"] for entry in payload["checks"]}
    assert scopes == {"A", "B", "cardy"}
    assert all(entry["status"] == "pass" for entry in payload["checks"])


def test_check_degenerate_pair(capsys, tmp_path):
    # K = G collapses N and X to a point; everything still holds.
    path = tmp_path / "z2_full.json"
    path.write_text(
        json.dumps({"degree": 2, "generators": [[1, 0]], "k_generators": [[1, 0]]})
    )
    code, out, _ = run_json(capsys, ["check", "--group", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["x_size"] == 1
    assert payload["k_core_free"] is False
    assert payload["all_passed"] is True


def test_hurwitz_torus(capsys, z2_path, torus_path):
    code, out, _ = run_json(
        capsys, ["hurwitz", "--group", z2_path, "--surface", torus_path]
    )
    assert code == 0
    assert json.loads(out) == {"hurwitz": "2"}


def test_hurwitz_disconnected_surface_multiplies(capsys, z2_path, tmp_path):
    path = tmp_path / "both.json"
    path.write_text(
        json.dumps(
            [
                TORUS_DOC,
                {"orientable": True, "genus": 0, "interior": [], "boundary": []},
            ]
        )
    )
    code, out, _ = run_json(
        capsys, ["hurwitz", "--group", z2_path, "--surface", str(path)]
    )
    assert code == 0
    assert json.loads(out) == {"hurwitz": "1"}  # 2 * 1/2


def test_hurwitz_trace_goes_to_stderr_only(capsys):
    group = str(bundled_input("groups/s3_trivial.json"))
    for surface in ("surfaces/disc_pair.json", "surfaces/torus.json"):
        argv = ["hurwitz", "--group", group, "--surface", str(bundled_input(surface))]
        code, plain, quiet = run_json(capsys, argv)
        traced_code, traced, trace = run_json(capsys, argv + ["--trace"])
        assert code == traced_code == 0
        assert traced == plain and quiet == ""
        lines = trace.splitlines()
        assert lines[0].startswith("surface 0: A factor: ")
        value = json.loads(plain)["hurwitz"]
        assert lines[-1] in (f"surface 0: l_A = {value}", f"surface 0: l_B = {value}")


def test_oracle_torus(capsys, z2_path, torus_path):
    code, out, _ = run_json(
        capsys, ["oracle", "--group", z2_path, "--surface", torus_path]
    )
    assert code == 0
    assert json.loads(out) == {"hurwitz_oracle": "2", "tuples": 4}


def test_hecke(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps(
            {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]], "k_generators": []}
        )
    )
    code, out, _ = run_json(
        capsys,
        [
            "hecke",
            "--group",
            str(path),
            "--subgroup-generators",
            "[[1, 0, 2]]",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s_order"] == 2
    assert payload["dim_b"] == 2
    assert payload["double_cosets"] == 2
    assert payload["all_passed"] is True


def test_hecke_leaves_k_generators_unread(capsys, tmp_path):
    # hecke compares B of G on G/S with the Hecke algebra; K plays no part,
    # so not even malformed k_generators change its output.
    s3 = {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]]}
    outputs = []
    for name, document in (("plain", s3), ("bad_k", {**s3, "k_generators": [[0, 1, 2, 3]]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        argv = ["hecke", "--group", str(path), "--subgroup-generators", "[[1,0,2]]"]
        code, out, err = run_json(capsys, argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


# -- bundled example inputs ---------------------------------------------------------


def test_bundled_inputs_run(capsys):
    group = str(bundled_input("groups/z2_trivial.json"))
    for surface, expected in [
        ("surfaces/sphere.json", "1/2"),
        ("surfaces/torus.json", "2"),
        ("surfaces/projective_plane.json", "1"),
        ("surfaces/klein_bottle.json", "2"),
        ("surfaces/disc_pair.json", "1/2"),
        ("surfaces/cylinder_diagonal.json", "1"),
    ]:
        code, out, _ = run_json(
            capsys,
            ["hurwitz", "--group", group, "--surface", str(bundled_input(surface))],
        )
        assert code == 0
        assert json.loads(out) == {"hurwitz": expected}, surface


def test_bundled_a5_info(capsys):
    group = str(bundled_input("groups/a5_k_double_transposition.json"))
    code, out, _ = run_json(capsys, ["info", "--group", group])
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == 60
    assert payload["x_size"] == 8
    assert payload["x_orders"] == [2, 4, 6, 6, 10, 10, 12, 60]


def test_bundled_input_unknown_name():
    from cardyfrob import InputError

    with pytest.raises(InputError):
        bundled_input("groups/missing.json")


# -- error paths ----------------------------------------------------------------------


def test_missing_group_file(capsys, tmp_path):
    code, _, err = run_json(capsys, ["info", "--group", str(tmp_path / "no.json")])
    assert code == 2
    assert "error" in err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_json(capsys, ["info", "--group", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_bad_document_shape(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 2}))
    code, _, err = run_json(capsys, ["info", "--group", str(path)])
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"degree": 2, "generators": [[0, "a"]]}',
        '{"degree": 2, "generators": [[0, 1.0]]}',
        '{"degree": 2, "generators": [[true, 0]]}',
        '{"degree": 2, "generators": [[1, 0]], "k_generators": [[0, null]]}',
        '{"degree": 2, "generators": [[1, 0]], "k_generators": [null]}',
        # An integer beyond the interpreter's int-digit limit.
        '{"degree": 2' + "0" * 5000 + ', "generators": [[1, 0]]}',
    ],
    ids=["str-entry", "float-entry", "bool-entry", "null-k-entry", "null-k", "huge-int"],
)
def test_malformed_group_document_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_json(capsys, ["info", "--group", str(path)])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_exponent_genus_is_rejected_at_once(capsys, z2_path, tmp_path):
    path = tmp_path / "surf.json"
    path.write_text(json.dumps({"orientable": True, "genus": "1e999999999"}))
    code, _, err = run_json(
        capsys, ["hurwitz", "--group", z2_path, "--surface", str(path)]
    )
    assert code == 2
    assert "invalid rational literal" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run_json(capsys, ["info", "--group", str(path)])
    assert code == 2
    assert "nests too deeply" in err


@pytest.mark.parametrize(
    "group, surface",
    [
        ("z2_trivial", {"orientable": True, "genus": 10**9}),
        ("z2_trivial", {"orientable": False, "genus": "1000000001/2"}),
        ("s4_trivial", {"orientable": True, "genus": 3000}),
    ],
    ids=["z2-genus-1e9", "z2-crosscaps-1e9", "s4-genus-3000"],
)
@pytest.mark.parametrize("command", ["hurwitz", "oracle"])
def test_genus_past_the_handle_bound_exits_3_at_once(
    capsys, tmp_path, group, surface, command
):
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(surface))
    group_path = str(bundled_input(f"groups/{group}.json"))
    started = time.perf_counter()
    code, out, err = run_json(
        capsys, [command, "--group", group_path, "--surface", str(path)]
    )
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("resource error: ") and "exceed the bound" in err


@pytest.mark.parametrize("command", ["hurwitz", "oracle"])
def test_crosscaps_too_long_to_print_exit_3(capsys, z2_path, tmp_path, command):
    # A genus of 4,300 nines, as many digits as the interpreter reads by
    # default: the crosscap count 2g has one digit more than it prints.
    path = tmp_path / "surf.json"
    path.write_text(json.dumps({"orientable": False, "genus": "9" * 4300}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_json(capsys, [command, "--group", z2_path, "--surface", str(path)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 3
    assert out == ""
    assert err.startswith("resource error: ") and err.count("\n") == 1


def test_memory_error_exits_3_without_a_traceback(capsys, z2_path, monkeypatch):
    # The backstop for an input that passes every bound and still does not
    # fit; the command is patched to raise, so nothing is allocated.
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "check", exhausted)
    code, out, err = run_json(capsys, ["check", "--group", z2_path])
    assert code == 3
    assert out == ""
    assert err == "resource error: out of memory\n"


def test_value_too_large_to_print_exits_3(capsys, z2_path, tmp_path):
    # Z2 gives 2^1999 on a genus-1000 surface; eight of them multiply to a
    # 4,815-digit integer, past the interpreter's default 4,300-digit limit.
    path = tmp_path / "surf.json"
    path.write_text(json.dumps([{"orientable": True, "genus": 1000}] * 8))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_json(
            capsys, ["hurwitz", "--group", z2_path, "--surface", str(path)]
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 3
    assert out == ""
    assert err.startswith("resource error: ") and "4300 digits" in err


def test_unknown_field_label(capsys, z2_path, tmp_path):
    path = tmp_path / "surf.json"
    path.write_text(
        json.dumps(
            {"orientable": True, "genus": 0, "interior": ["a9"], "boundary": []}
        )
    )
    code, _, err = run_json(
        capsys, ["hurwitz", "--group", z2_path, "--surface", str(path)]
    )
    assert code == 2


def test_empty_surface_list(capsys, z2_path, tmp_path):
    path = tmp_path / "surf.json"
    path.write_text("[]")
    code, _, _ = run_json(
        capsys, ["hurwitz", "--group", z2_path, "--surface", str(path)]
    )
    assert code == 2


def test_order_bound_exceeded(capsys, tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(S4_DOC))
    code, _, err = run_json(
        capsys, ["info", "--group", str(path), "--order-bound", "10"]
    )
    assert code == 3
    assert "resource" in err


@pytest.mark.parametrize("surface", ["disc_pair", "cylinder_diagonal"])
def test_oracle_on_a_bounded_surface_reports_no_tuples(capsys, surface):
    group = str(bundled_input("groups/s4_trivial.json"))
    path = str(bundled_input(f"surfaces/{surface}.json"))
    code, out, _ = run_json(capsys, ["oracle", "--group", group, "--surface", path])
    assert code == 0
    result = json.loads(out)
    assert result["tuples"] == 0
    _, hurwitz, _ = run_json(capsys, ["hurwitz", "--group", group, "--surface", path])
    assert result["hurwitz_oracle"] == json.loads(hurwitz)["hurwitz"]


def test_oracle_on_a_bounded_surface_past_the_tuple_bound_exits_3(capsys):
    group = str(bundled_input("groups/s4_trivial.json"))
    path = str(bundled_input("surfaces/disc_pair.json"))
    argv = ["oracle", "--group", group, "--surface", path, "--tuple-bound", "1000"]
    code, out, err = run_json(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("surface", ["disc_pair", "torus"])
def test_oracle_builds_no_algebra(capsys, monkeypatch, surface):
    # Every oracle reads the catalog and the tables of N: with the builder
    # of (A, B, phi, U) made to raise, oracle still answers, and agrees with
    # hurwitz, run before the patch.
    group = str(bundled_input("groups/s4_trivial.json"))
    path = str(bundled_input(f"surfaces/{surface}.json"))
    _, hurwitz, _ = run_json(capsys, ["hurwitz", "--group", group, "--surface", path])

    def refuse(catalog):
        raise AssertionError("oracle built the algebra")

    monkeypatch.setattr(cli, "build_cardy_frobenius", refuse)
    code, out, _ = run_json(capsys, ["oracle", "--group", group, "--surface", path])
    assert code == 0
    assert json.loads(out)["hurwitz_oracle"] == json.loads(hurwitz)["hurwitz"]


def test_oracle_tuple_bound_exceeded(capsys, z2_path, torus_path):
    code, _, err = run_json(
        capsys,
        [
            "oracle",
            "--group",
            z2_path,
            "--surface",
            torus_path,
            "--tuple-bound",
            "3",
        ],
    )
    assert code == 3


@pytest.mark.parametrize(
    ("command", "option", "value"),
    [
        ("check", "--order-bound", "-5"),
        ("info", "--order-bound", "0"),
        ("oracle", "--tuple-bound", "-1"),
        ("oracle", "--tuple-bound", "0"),
    ],
)
def test_bounds_below_one_are_bad_input(capsys, z2_path, torus_path, command, option, value):
    # No bound below 1 admits any work, so it is refused before the group is read.
    argv = [command, "--group", z2_path, option, value]
    if command == "oracle":
        argv += ["--surface", torus_path]
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert f"argument {option}: must be at least 1, got {value}" in captured.err


def test_hecke_bad_generators(capsys, z2_path):
    code, _, _ = run_json(
        capsys, ["hecke", "--group", z2_path, "--subgroup-generators", "not json"]
    )
    assert code == 2
    code, _, _ = run_json(
        capsys, ["hecke", "--group", z2_path, "--subgroup-generators", "[[0, 0]]"]
    )
    assert code == 2
    # (012) is a valid permutation but not an element of Z2 on two points.
    code, _, _ = run_json(
        capsys, ["hecke", "--group", z2_path, "--subgroup-generators", "[[0, 1, 2]]"]
    )
    assert code == 2
    code, _, err = run_json(
        capsys, ["hecke", "--group", z2_path, "--subgroup-generators", '[[0, "a", 1]]']
    )
    assert code == 2
    assert "must be a list of integers" in err
    code, _, err = run_json(
        capsys, ["hecke", "--group", z2_path, "--subgroup-generators", "[[1" + "0" * 5000 + "]]"]
    )
    assert code == 2
    assert "not valid JSON" in err


def test_hecke_past_the_points_bound_exits_3_at_once(capsys, tmp_path):
    # S trivial in C2 x S6 on 8 points: 1,440 cosets, more than POINTS_BOUND.
    path = tmp_path / "c2_s6.json"
    generators = [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 0, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]]
    path.write_text(json.dumps({"degree": 8, "generators": generators}))
    started = time.perf_counter()
    code, out, err = run_json(
        capsys, ["hecke", "--group", str(path), "--subgroup-generators", "[]"]
    )
    assert time.perf_counter() - started < 10.0
    assert code == 3
    assert out == ""
    assert err.startswith("resource error: ") and "points bound" in err


@pytest.mark.parametrize("degree", [DEGREE_BOUND + 1, 3_000_000, 1_000_000_000])
@pytest.mark.parametrize("generators", [[], [[0]]], ids=["no-generators", "one-point"])
def test_degree_past_the_degree_bound_exits_3_at_once(capsys, tmp_path, degree, generators):
    # A few dozen bytes of document must not allocate a permutation per point.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"degree": degree, "generators": generators}))
    started = time.perf_counter()
    code, out, err = run_json(capsys, ["info", "--group", str(path)])
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        f"resource error: degree {degree} is more than {DEGREE_BOUND} (the degree bound)\n"
    )


def test_degree_at_the_degree_bound_is_admitted(capsys, tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"degree": DEGREE_BOUND, "generators": []}))
    code, out, _ = run_json(capsys, ["info", "--group", str(path)])
    assert code == 0
    assert json.loads(out)["group_order"] == 1


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["frobnicate"])
    assert excinfo.value.code == 2


def test_one_parser_serves_every_run(capsys, monkeypatch, z2_path):
    # run builds its parser once per process; its help and usage errors,
    # before and after a successful run, are those of a parser built anew.
    original = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()

    def outcome(parse, argv):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        return excinfo.value.code, capsys.readouterr()

    argvs = [["--help"], ["check"], ["info", "--group", z2_path, "--order-bound", "0"]]
    fresh = [outcome(lambda argv: original().parse_args(argv), argv) for argv in argvs]
    assert [code for code, _ in fresh] == [0, 2, 2]
    for _ in range(2):
        assert [outcome(run, argv) for argv in argvs] == fresh
        assert run(["info", "--group", z2_path]) == 0
        capsys.readouterr()
    assert built == [1]


def test_an_explicit_double_dash_is_the_value(capsys, z2_path):
    # "--option=--" gives the option the text "--", as Python 3.13 reads it;
    # 3.11 and 3.12 store an empty list, on which each command crashed.
    assert run(["info", "--group=--"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read --: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as excinfo:
        run(["info", "--group", z2_path, "--order-bound=--"])
    assert excinfo.value.code == 2
    assert "argument --order-bound: invalid int value: '--'" in capsys.readouterr().err
