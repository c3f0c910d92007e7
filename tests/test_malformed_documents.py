"""Malformed group and surface documents through the command line.

Each drawn document breaks its schema in one place: it is no JSON object,
a key is missing or unknown, a value has the wrong type (a ``bool`` where
an ``int`` or a rational belongs among them), a generator is no
permutation or lies outside the group, a field label is unknown, or the
genus is no rational, no admissible genus, or a huge or odd rational.
``info``, ``check``, ``hurwitz`` and ``oracle`` run on it through
:func:`cardyfrob.cli.run` and must exit 2 with one ``error:`` line on
stderr, or 3 with one ``resource error:`` line when a bound is hit, with
nothing on stdout and no traceback.  ``hecke`` is held to the same with a
malformed ``--subgroup-generators``: text that is no JSON or nests past the
parser's depth, no list, or a list with one generator that is no
permutation (a ``bool``, a float or a huge integer among its entries, or
the wrong degree) or lies outside the group.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cardyfrob.cli import run

# S3 on three points with K = 1, and a surface over its field labels.
GROUP = {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]], "k_generators": []}
SURFACE = {"orientable": True, "genus": 1, "interior": ["a1"], "boundary": [["b0", "b1"]]}
PREFIX = {2: "error: ", 3: "resource error: "}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
not_lists = json_values.filter(lambda value: not isinstance(value, list))
not_objects = json_values.filter(lambda value: not isinstance(value, dict))
# Labels are a0, a1, ... and b0, b1, ...; nothing else names a field.
bad_labels = st.text(max_size=4).filter(lambda text: not re.fullmatch(r"[ab][0-9]+", text)) | (
    json_values.filter(lambda value: not isinstance(value, str))
)


def broken_key(document: dict, required: list[str], values: dict) -> st.SearchStrategy:
    """``document`` without one of its ``required`` keys, with an unknown
    key added, or with the value of a key ``k`` drawn from ``values[k]``."""
    dropped = st.sampled_from(required).map(
        lambda key: {k: v for k, v in document.items() if k != key}
    )
    added = st.tuples(st.text(max_size=8).filter(lambda key: key not in document), json_values)
    replaced = st.sampled_from(sorted(values)).flatmap(
        lambda key: values[key].map(lambda value: {**document, key: value})
    )
    return dropped | added.map(lambda item: {**document, item[0]: item[1]}) | replaced


def inserted(valid: list, bad: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` with one item drawn from ``bad`` put in at any position."""
    return st.tuples(st.integers(0, len(valid)), bad).map(
        lambda item: valid[: item[0]] + [item[1]] + valid[item[0] :]
    )


def one_entry(values: st.SearchStrategy) -> st.SearchStrategy:
    """The permutation (0 1 2), ``[1, 2, 0]``, with one entry drawn from ``values``."""
    return st.tuples(st.integers(0, 2), values).map(
        lambda item: [1, 2, 0][: item[0]] + [item[1]] + [1, 2, 0][item[0] + 1 :]
    )


# A generator that is no permutation of 0, 1, 2: a non-list, integers in
# the wrong order or number, a permutation of another degree, or (0 1 2)
# with one entry of another type or a huge integer.
bad_generators = st.one_of(
    not_lists,
    st.lists(st.integers(-3, 5), max_size=5).filter(lambda perm: sorted(perm) != [0, 1, 2]),
    st.integers(1, 6).filter(lambda n: n != 3).flatmap(lambda n: st.permutations(range(n))),
    one_entry(
        scalars.filter(lambda value: type(value) is not int)
        | st.lists(st.integers(0, 2), max_size=2)
        | st.integers(3, 10**30)
        | st.integers(-(10**30), -1)
    ),
)

group_documents = st.one_of(
    not_objects,
    broken_key(
        GROUP,
        ["degree", "generators"],
        {
            "degree": json_values.filter(lambda value: not (type(value) is int and value == 3)),
            "generators": not_lists | inserted(GROUP["generators"], bad_generators),
            "k_generators": not_lists | inserted([], bad_generators),
        },
    ),
    # (0 1) lies outside the group that (0 1 2) generates.
    st.just({"degree": 3, "generators": [[1, 2, 0]], "k_generators": [[1, 0, 2]]}),
)


# Digit counts of a genus of nines: past the handle bound, and often next to
# the interpreter's limit for converting integers to and from text.
LIMIT = sys.get_int_max_str_digits()
nines = st.integers(4, LIMIT + 100) | st.integers(LIMIT - 2, LIMIT + 2)


def bad_genera(orientable: bool) -> st.SearchStrategy:
    """Values of ``genus`` that no surface of this orientability admits."""
    factor = 1 if orientable else 2  # the genus, or the crosscap count 2g
    return st.one_of(
        json_values.filter(lambda value: type(value) not in (int, str)),
        st.text(max_size=6).filter(lambda text: not any(c.isdigit() for c in text)),
        st.tuples(
            st.sampled_from(["{}/0", "{}.{}", "{}e{}", "{}/{}/{}", "0x{}"]),
            st.integers(0, 99),
            st.integers(0, 99),
        ).map(lambda item: item[0].format(*item[1:], item[2])),
        st.integers(-(10**30), -1 if orientable else 0),
        st.tuples(st.integers(-(10**6), 10**6), st.integers(2, 50))
        .filter(lambda item: item[0] * factor % item[1])
        .map(lambda item: f"{item[0]}/{item[1]}"),
        # Past the handle bound, or non-integral, or past the digit limit.
        st.integers(1001, 10**30),
        nines.map(lambda digits: "9" * digits),
        nines.map(lambda digits: "9" * digits + "/7"),
    )


def surface_documents(orientable: bool) -> st.SearchStrategy:
    document = {**SURFACE, "orientable": orientable}
    return broken_key(
        document,
        ["orientable", "genus"],
        {
            "orientable": json_values.filter(lambda value: not isinstance(value, bool)),
            "genus": bad_genera(orientable),
            "interior": not_lists | inserted(SURFACE["interior"], bad_labels),
            "boundary": not_lists
            | inserted(SURFACE["boundary"], not_lists | st.just([]))
            | inserted(SURFACE["boundary"], inserted(["b0"], bad_labels)),
        },
    )


bad_surfaces = st.one_of(not_objects, surface_documents(True), surface_documents(False))
# A surface list refuses a bad document anywhere in it.
surface_lists = bad_surfaces | inserted([SURFACE], bad_surfaces)


def is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


# Z3 on three points: each transposition of 0, 1, 2 lies outside it.
CYCLIC = {"degree": 3, "generators": [[1, 2, 0]], "k_generators": []}
subgroup_generators = st.one_of(
    st.text(max_size=8).filter(lambda text: not is_json(text)),
    # "--", "-1e+16", "-Infinity": no list, and option-like to argparse.
    st.text(max_size=8).map("-{}".format),
    # [[]] and deeper: a generator that is no permutation, or past the depth
    # the JSON parser recurses to.
    st.integers(2, 10**5).map(lambda depth: "[" * depth + "]" * depth),
    # An entry past the interpreter's limit for converting text to an int.
    nines.map(lambda digits: f"[[1, 2, {'9' * digits}]]"),
    st.one_of(
        not_lists,
        inserted([[1, 2, 0]], bad_generators | st.sampled_from([[1, 0, 2], [0, 2, 1], [2, 1, 0]])),
    ).map(json.dumps),
)


def refused(argv: list[str]) -> None:
    """Run ``argv`` and assert that it exits 2 or 3 with one message line."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    message = err.getvalue()
    assert code in PREFIX, (argv, code, message)
    assert message.startswith(PREFIX[code]) and message.count("\n") == 1, message
    assert "Traceback" not in message
    assert out.getvalue() == ""


def write(path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


# With the parser built once per process, a refused run takes about a
# millisecond, so each test draws 100 documents in about half a second.
QUICK = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@QUICK
@given(document=group_documents)
def test_malformed_group_documents_exit_2_or_3(tmp_path, document):
    group = write(tmp_path / "group.json", document)
    surface = write(tmp_path / "surface.json", SURFACE)
    for command in ("info", "check"):
        refused([command, "--group", group])
    for command in ("hurwitz", "oracle"):
        refused([command, "--group", group, "--surface", surface])


@QUICK
@given(document=surface_lists)
def test_malformed_surface_documents_exit_2_or_3(tmp_path, document):
    group = write(tmp_path / "group.json", GROUP)
    surface = write(tmp_path / "surface.json", document)
    for command in ("hurwitz", "oracle"):
        refused([command, "--group", group, "--surface", surface])


def test_the_unbroken_documents_run(tmp_path, capsys):
    # What the strategies break is valid as it stands.
    group = write(tmp_path / "group.json", GROUP)
    assert run(["check", "--group", group]) == 0
    for surface in (SURFACE, {**SURFACE, "orientable": False}, [SURFACE, SURFACE]):
        path = write(tmp_path / "surface.json", surface)
        for command in ("hurwitz", "oracle"):
            assert run([command, "--group", group, "--surface", path]) == 0
    assert capsys.readouterr().err == ""


@QUICK
@given(text=subgroup_generators)
@example(text="--")
@example(text="-Infinity")
def test_malformed_subgroup_generators_exit_2_or_3(tmp_path, text):
    group = write(tmp_path / "group.json", CYCLIC)
    # Joined by "=", the text is the value even where it begins with "-",
    # which argparse would otherwise read as an option.
    refused(["hecke", "--group", group, f"--subgroup-generators={text}"])


def test_the_unbroken_subgroup_generators_run(tmp_path, capsys):
    group = write(tmp_path / "group.json", CYCLIC)
    for text in ("[]", "[[1, 2, 0]]", "[[1, 2, 0], [2, 0, 1]]"):
        assert run(["hecke", "--group", group, "--subgroup-generators", text]) == 0
    assert capsys.readouterr().err == ""
