"""Surface specs, Hurwitz evaluation, cut identities, and invariances."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from cardyfrob import (
    ConsistencyError,
    InputError,
    ResourceError,
    SurfaceSpec,
    cut_check_boundary,
    cut_check_crosscap,
    cut_check_handle,
    evaluate,
    rotated,
    star_reversed,
)
from cardyfrob.frobenius import AlgebraElement
from cardyfrob.hurwitz import HANDLE_BOUND
from cardyfrob.oracles import b_side_value
from test_sparse_checks import with_form_entry


def closed(orientable: bool, genus, interior=()) -> SurfaceSpec:
    return SurfaceSpec(
        orientable=orientable, genus=Fraction(genus), interior=tuple(interior)
    )


# -- spec validation -------------------------------------------------------------


def test_spec_normalizes_sequences():
    spec = SurfaceSpec(True, 1, ["a0"], [["b0", "b1"]])
    assert spec.interior == ("a0",)
    assert spec.boundary == (("b0", "b1"),)
    assert spec.genus == Fraction(1)


def test_spec_rejects_bad_genus():
    with pytest.raises(InputError):
        SurfaceSpec(True, Fraction(1, 2))
    with pytest.raises(InputError):
        SurfaceSpec(True, -1)
    with pytest.raises(InputError):
        SurfaceSpec(False, 0)
    with pytest.raises(InputError):
        SurfaceSpec(False, Fraction(1, 4))


def test_spec_rejects_empty_contour():
    with pytest.raises(InputError):
        SurfaceSpec(True, 0, (), ((),))


def test_spec_bounds_handles_and_crosscaps():
    assert SurfaceSpec(True, HANDLE_BOUND).genus == HANDLE_BOUND
    assert SurfaceSpec(False, Fraction(HANDLE_BOUND, 2)).crosscaps == HANDLE_BOUND
    with pytest.raises(ResourceError):
        SurfaceSpec(True, HANDLE_BOUND + 1)
    with pytest.raises(ResourceError):
        SurfaceSpec(False, Fraction(HANDLE_BOUND + 1, 2))


def test_crosscaps():
    assert SurfaceSpec(False, Fraction(1, 2)).crosscaps == 1
    assert SurfaceSpec(False, 1).crosscaps == 2
    assert SurfaceSpec(False, Fraction(3, 2)).crosscaps == 3


def test_from_document_round_trip():
    document = {
        "orientable": False,
        "genus": "3/2",
        "interior": ["a1"],
        "boundary": [["b0"], ["b1", "b2"]],
    }
    spec = SurfaceSpec.from_document(document)
    assert spec.genus == Fraction(3, 2)
    assert spec.to_document() == document


def test_from_document_rejects_bad_shapes():
    good = {"orientable": True, "genus": 0}
    assert SurfaceSpec.from_document(good).interior == ()
    for bad in [
        "not an object",
        {},
        {"orientable": 1, "genus": 0},
        {"orientable": True},
        {"orientable": True, "genus": "x"},
        {"orientable": True, "genus": "1e999999999"},
        {"orientable": True, "genus": "1.0"},
        {"orientable": True, "genus": 0, "interior": "a0"},
        {"orientable": True, "genus": 0, "interior": [1]},
        {"orientable": True, "genus": 0, "boundary": "b0"},
        {"orientable": True, "genus": 0, "boundary": ["b0"]},
        {"orientable": True, "genus": 0, "boundary": [[1]]},
        {"orientable": True, "genus": 0, "surprise": 1},
    ]:
        with pytest.raises(InputError):
            SurfaceSpec.from_document(bad)


def test_unknown_labels_rejected_at_evaluation(suite_algebras):
    # The lookup of a label's position is its validation, with the catalog's
    # text, in every contour.
    h = suite_algebras["z2"]
    with pytest.raises(InputError, match="^unknown interior field label 'a7'$"):
        evaluate(h, closed(True, 0, ["a7"]))
    with pytest.raises(InputError, match="^unknown boundary field label 'b9'$"):
        evaluate(h, SurfaceSpec(True, 0, (), (("b9",),)))
    with pytest.raises(InputError, match="^unknown boundary field label 'b9'$"):
        evaluate(h, SurfaceSpec(True, 1, ("a1",), (("b0", "b1"), ("b1", "b9"))))


# -- frozen values for (Z2, {e}) ---------------------------------------------------


def test_z2_closed_surfaces(suite_algebras):
    h = suite_algebras["z2"]
    assert evaluate(h, closed(True, 0)).value == Fraction(1, 2)  # sphere
    assert evaluate(h, closed(True, 1)).value == 2  # torus
    assert evaluate(h, closed(True, 2)).value == 8
    assert evaluate(h, closed(False, Fraction(1, 2))).value == 1  # projective plane
    assert evaluate(h, closed(False, 1)).value == 2  # Klein bottle


def test_z2_closed_surfaces_with_insertions(suite_algebras):
    h = suite_algebras["z2"]
    assert evaluate(h, closed(True, 0, ["a1", "a1"])).value == Fraction(1, 2)
    assert evaluate(h, closed(True, 0, ["a1"])).value == 0
    assert evaluate(h, closed(True, 1, ["a1", "a1"])).value == 2


def test_z2_bounded_surfaces(suite_algebras):
    h = suite_algebras["z2"]
    disc = SurfaceSpec(True, 0, (), (("b1", "b2"),))
    assert evaluate(h, disc).value == Fraction(1, 2)
    # Both contours carry the trivial-stabilizer diagonal field, so the
    # coverings of the annulus are exactly the principal coverings:
    # |Hom(Z, Z2)| / |Z2| = 1.
    cylinder = SurfaceSpec(True, 0, (), (("b0",), ("b0",)))
    assert evaluate(h, cylinder).value == 1
    annulus_mixed = SurfaceSpec(True, 0, (), (("b0",), ("b3",)))
    assert evaluate(h, annulus_mixed).value == 1
    disc_single = SurfaceSpec(True, 0, (), (("b0",),))
    assert evaluate(h, disc_single).value == Fraction(1, 2)


def test_z3_sphere_and_torus(suite_algebras):
    h = suite_algebras["z3"]
    assert evaluate(h, closed(True, 0)).value == Fraction(1, 3)
    assert evaluate(h, closed(True, 1)).value == 3
    # An abelian group of odd order has a unique square root for every
    # element, so the projective plane counts |N| solutions of x^2 = e
    # over |N|: exactly one.
    assert evaluate(h, closed(False, Fraction(1, 2))).value == Fraction(1, 3)


def test_evaluation_trace(suite_algebras):
    h = suite_algebras["z2"]
    result = evaluate(h, SurfaceSpec(True, 1, (), (("b0",),)), with_trace=True)
    assert result.evaluation_trace is not None
    assert any("phi" in line for line in result.evaluation_trace)
    plain = evaluate(h, SurfaceSpec(True, 1, (), (("b0",),)))
    assert plain.evaluation_trace is None
    assert plain.value == result.value


def test_evaluation_trace_of_a_closed_surface(suite_algebras):
    # Without contours the value is l_A of the A factor, which ends the trace.
    h = suite_algebras["s3"]
    for spec, trace in [
        (SurfaceSpec(True, 1, (), ()), ("A factor: 18*a0 + 9*a2", "l_A = 3")),
        (SurfaceSpec(True, 0, ("a1", "a1"), ()), ("A factor: 3*a0 + 3*a2", "l_A = 1/2")),
        (SurfaceSpec(False, Fraction(1, 2), ("a1",), ()), ("A factor: 6*a1", "l_A = 0")),
    ]:
        assert evaluate(h, spec, with_trace=True).evaluation_trace == trace


def test_evaluation_trace_of_a_bounded_surface(suite_algebras):
    # With contours the word W of the contours is built in B, phi*(W) pairs
    # with the A factor in A, and l_A ends the trace.
    h = suite_algebras["s3"]
    disc = SurfaceSpec(True, 0, ("a1",), (("b5", "b6"),))
    assert evaluate(h, disc, with_trace=True).evaluation_trace == (
        "A factor: 1*a1",
        "W after contour 0: 1*b6",
        "phi*(W): 2*a1 + 3*a2",
        "l_A = 1",
    )
    cylinder = SurfaceSpec(True, 0, ("a2",), (("b5",), ("b5", "b6")))
    assert evaluate(h, cylinder, with_trace=True).evaluation_trace == (
        "A factor: 1*a2",
        "W after contour 0: 1*b5",
        "W after contour 1: 2*b5 + 5*b6",
        "phi*(W): 6*a0 + 12*a1 + 15*a2",
        "l_A = 5",
    )


def test_evaluation_trace_pins_the_fold_of_the_a_factor(suite_algebras):
    # The interior fields are folded in their order, then K_A^g or U^c: on
    # bounded surfaces of genus 1 and 2 of s3 and on closed non-orientable
    # surfaces of s4 and z3 with two fields each.
    s3, s4, z3 = (suite_algebras[name] for name in ("s3", "s4", "z3"))
    for h, spec, trace in [
        (s3, SurfaceSpec(True, 1, ("a1", "a2"), (("b5", "b6"),)), (
            "A factor: 72*a1",
            "W after contour 0: 1*b6",
            "phi*(W): 2*a1 + 3*a2",
            "l_A = 72",
        )),
        (s3, SurfaceSpec(True, 2, ("a2", "a1"), (("b6",), ("b5", "b6"))), (
            "A factor: 2592*a1",
            "W after contour 0: 1*b6",
            "W after contour 1: 10*b5 + 7*b6",
            "phi*(W): 30*a0 + 24*a1 + 21*a2",
            "l_A = 31104",
        )),
        (s4, SurfaceSpec(False, 1, ("a1", "a4")), (
            "A factor: 1536*a0 + 1792*a2 + 1728*a3",
            "l_A = 64",
        )),
        (z3, SurfaceSpec(False, Fraction(1, 2), ("a1", "a2")), (
            "A factor: 1*a0 + 1*a1 + 1*a2",
            "l_A = 1/3",
        )),
    ]:
        assert evaluate(h, spec, with_trace=True).evaluation_trace == trace, spec


def test_discs_evaluate_in_positions_only(suite_algebras, monkeypatch):
    # Without a trace a genus-0 disc never leaves basis positions: with or
    # without interior fields, over one or several labels, no AlgebraElement
    # is built.
    h = suite_algebras["s3"]
    discs = [
        SurfaceSpec(True, 0, (), (("b5",),)),
        SurfaceSpec(True, 0, ("a1",), (("b5", "b6"),)),
        SurfaceSpec(True, 0, ("a1", "a2"), (("b6", "b6", "b5"),)),
    ]
    values = [evaluate(h, disc).value for disc in discs]

    def refuse(*_args, **_kwargs):
        raise AssertionError("an AlgebraElement was built")

    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    assert [evaluate(h, disc).value for disc in discs] == values


def test_evaluation_trace_of_a_disc_without_interior_fields(suite_algebras):
    # A genus-0 surface without interior fields has the unit as its A factor.
    h = suite_algebras["s3"]
    disc = SurfaceSpec(True, 0, (), (("b6", "b6"),))
    assert evaluate(h, disc, with_trace=True).evaluation_trace == (
        "A factor: 1*a0",
        "W after contour 0: 2*b5 + 1*b6",
        "phi*(W): 6*a0 + 4*a1 + 3*a2",
        "l_A = 1",
    )


def test_bounded_evaluation_divides_by_the_denominators_once(suite_algebras, spec_corpora):
    # On the suite pairs phi* and the A factor are integral.  With the (a0,
    # a0) entry of s3's pairing of A moved by 1/7 they are not: phi* and K_A
    # read F_A^-1, which has 13 in its denominators.  The pairing reads the
    # same F_A, so F_A phi* is still Phi F_B and every value is still the
    # B-side formula's.
    h = suite_algebras["s3"]
    broken = replace(h, A=with_form_entry(h.A, 0, 0, Fraction(1, 7)))
    assert evaluate(broken, SurfaceSpec(True, 1, (), (("b0",),)), with_trace=True).evaluation_trace == (
        "A factor: 198/13*a0 + 9*a2",
        "W after contour 0: 1*b0",
        "phi*(W): 7/13*a0 + 1*a1 + 1*a2",
        "l_A = 72/13",
    )
    specs = [spec for spec in spec_corpora["s3"] if spec.boundary]
    assert specs
    for spec in specs:
        assert evaluate(broken, spec).value == b_side_value(broken, spec), spec


def test_bounded_evaluation_needs_an_invertible_pairing_of_a(suite_algebras):
    # phi* = F_A^-1 Phi F_B: with the (a0, a0) entry of s3's A zeroed a Moebius
    # band raises, though its A factor U needs no inverse pairing, and the
    # projective plane, which reads only l_A of U, does not.
    h = suite_algebras["s3"]
    broken = replace(h, A=with_form_entry(h.A, 0, 0, -h.A.form[0][0]))
    with pytest.raises(ConsistencyError, match="degenerate"):
        evaluate(broken, SurfaceSpec(False, Fraction(1, 2), (), (("b0",),)))
    plane = SurfaceSpec(False, Fraction(1, 2))
    assert evaluate(broken, plane).value == evaluate(h, plane).value


# -- cut identities ----------------------------------------------------------------


def test_cut_preconditions(suite_algebras):
    h = suite_algebras["z2"]
    with pytest.raises(InputError):
        cut_check_handle(h, closed(True, 0))
    with pytest.raises(InputError):
        cut_check_handle(h, closed(False, 1))
    with pytest.raises(InputError):
        cut_check_crosscap(h, closed(True, 1))
    with pytest.raises(InputError):
        cut_check_boundary(h, SurfaceSpec(True, 0, (), (("b0",),)))
    two = SurfaceSpec(True, 0, (), (("b0",), ("b0",)))
    with pytest.raises(InputError):
        cut_check_boundary(h, two, junction=1)


@pytest.mark.parametrize("name", ["z2", "z3", "s3"])
def test_cut_handle_small(suite_algebras, name):
    h = suite_algebras[name]
    for spec in [
        closed(True, 1),
        closed(True, 2),
        SurfaceSpec(True, 1, ("a1",), (("b0",),)),
    ]:
        result = cut_check_handle(h, spec)
        assert result.passed, result.witness


@pytest.mark.parametrize("name", ["z2", "z3", "s3"])
def test_cut_crosscap_small(suite_algebras, name):
    h = suite_algebras[name]
    for spec in [
        closed(False, Fraction(1, 2)),
        closed(False, 1),
        SurfaceSpec(False, Fraction(3, 2), ("a1",), ()),
        SurfaceSpec(False, Fraction(1, 2), (), (("b0",),)),
    ]:
        result = cut_check_crosscap(h, spec)
        assert result.passed, result.witness


@pytest.mark.parametrize("name", ["z2", "s3"])
def test_cut_boundary_small(suite_algebras, name):
    h = suite_algebras[name]
    for spec in [
        SurfaceSpec(True, 0, (), (("b0",), ("b0",))),
        SurfaceSpec(True, 1, (), (("b1",), ("b0", "b1"))),
        SurfaceSpec(False, Fraction(1, 2), ("a1",), (("b0",), ("b1",), ("b2",))),
    ]:
        for junction in range(len(spec.boundary) - 1):
            result = cut_check_boundary(h, spec, junction=junction)
            assert result.passed, (junction, result.witness)


# -- invariances --------------------------------------------------------------------


def test_star_reversal_invariance(suite_algebras):
    h = suite_algebras["s3"]
    spec = SurfaceSpec(True, 1, ("a1", "a2"), (("b0", "b4"), ("b2",)))
    flipped = star_reversed(h.catalog, spec)
    assert evaluate(h, flipped).value == evaluate(h, spec).value
    assert star_reversed(h.catalog, flipped) == spec


def test_rotation_invariance(suite_algebras):
    h = suite_algebras["s3"]
    spec = SurfaceSpec(True, 0, (), (("b0", "b4", "b2"), ("b1",)))
    for shift in range(3):
        assert evaluate(h, rotated(spec, 0, shift)).value == evaluate(h, spec).value
    with pytest.raises(InputError):
        rotated(spec, 5, 1)


def test_rotation_invariance_later_contour(suite_algebras):
    # Rotating a contour other than the first exercises the Casimir
    # sandwich: b2.b1 and b1.b2 are different matrix units, and only the
    # legs-around-the-word coupling makes both readings evaluate alike.
    h = suite_algebras["z2"]
    spec = SurfaceSpec(False, 2, ("a1", "a1"), (("b3", "b3"), ("b2", "b1")))
    assert evaluate(h, spec).value == 16
    assert evaluate(h, rotated(spec, 1, 1)).value == 16


def test_unit_insertion_invariance(suite_algebras):
    h = suite_algebras["s3"]
    spec = SurfaceSpec(True, 1, ("a2",), (("b3",),))
    inserted = replace(spec, interior=spec.interior + ("a0",))
    assert evaluate(h, inserted).value == evaluate(h, spec).value


def test_contour_order_invariance(suite_algebras):
    # The sandwich is central and self-adjoint for the pairing, so whole
    # contours can be swapped.
    h = suite_algebras["z2"]
    spec = SurfaceSpec(True, 0, (), (("b1", "b2"), ("b0",)))
    swapped = replace(spec, boundary=(("b0",), ("b1", "b2")))
    assert evaluate(h, swapped).value == evaluate(h, spec).value


def test_genus_1000_matches_the_linear_loop(suite_algebras, monkeypatch):
    # Repeated squaring of K_A gives the value of K_A multiplied in 1000
    # times, and both give Mednykh's sum over the degrees of S4's characters.
    h = suite_algebras["s4"]
    spec = closed(True, 1000)
    value = evaluate(h, spec).value
    assert value == sum(Fraction(24, d) ** 1998 for d in (1, 1, 2, 3, 3))

    def loop_power(alg, x, exponent):
        result = alg.unit
        for _ in range(exponent):
            result = alg.multiply(result, x)
        return result

    monkeypatch.setattr(type(h.A), "power", loop_power)
    assert evaluate(h, spec).value == value
