"""Hurwitz numbers of group coverings, evaluated by the closed formula.

A surface is described combinatorially: orientability, genus (a half-integer
for non-orientable surfaces, so the crosscap count ``2g`` is an integer),
a multiset of interior field labels, and a list of boundary contours, each a
cyclic sequence of boundary field labels.  The Hurwitz number is

* ``l_A(E_a1 ... E_am . K_A^g)`` for a closed orientable surface (``U^{2g}``
  replaces ``K_A^g`` in the non-orientable case), and
* ``l_B(phi(a) . W)`` when boundaries exist, with ``a`` that ``A`` factor,
  ``W = C_1 . tau(C_2) ... tau(C_s)``, ``C_i`` the product of the i-th
  contour's labels and ``tau`` the Casimir sandwich ``tau(x) = sum_{i,j}
  (F^-1)_{ij} e_i x e_j``.  Each contour past the first is wrapped by the
  two legs of the Casimir tensor, one leg on each side — this is what
  gluing the contours into a single disc boundary produces, and it is the
  coupling under which the value depends only on the cyclic order of every
  contour.  (Multiplying by the plain central element ``K_B = tau(1)``
  instead would put both legs on the same side and break cyclic
  invariance.)

Bounded surfaces are evaluated on the ``A`` side, as ``l_A(a . phi*(W))``:
``phi* = F_A^-1 Phi F_B`` is the adjoint of ``phi``, so ``a^T F_A phi*(W) =
a^T Phi F_B W`` wherever the stored forms are the pairings of the constants,
as :func:`~cardyfrob.cardy.build_A` and :func:`~cardyfrob.cardy.build_B`
count them.  The algebra forms ``G = Phi F_B`` once and caches it as
``int`` rows over one denominator, one per ``A`` position, and derives
``phi* = F_A^-1 G`` from it; one evaluation sums ``a^T G W`` over the
positions of ``a`` and ``W`` and makes one ``Fraction``.  ``F_A`` is
inverted before ``G`` is read, so a degenerate pairing of ``A`` raises for
every bounded surface.

:func:`evaluate` runs in basis positions.  The catalog's lookup of each
label is its validation; ``a`` folds the interior fields in their order,
then ``K_A^g`` or ``U^{2g}`` for a positive exponent only (nothing is
multiplied by the unit, and with no factor ``a`` is the unit); a closed
surface reads ``l_A`` off ``a``.  Only the trace shows labels.  ``A.power``
and ``tau`` still take labelled elements, converted at one edge each.

The three cut identities (handle, crosscap, boundary segment) are provided as
exact rational checks; they re-evaluate the surface after the corresponding
field surgery and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .actions import FieldCatalog
from .cardy import CardyFrobeniusAlgebra
from .errors import InputError, ResourceError
from .frobenius import AlgebraElement, CheckResult, EquippedFrobeniusAlgebra
from .rationals import format_fraction, parse_fraction

# The most handles (orientable) or crosscaps (non-orientable) a surface may
# have.  Evaluation and the covering oracle raise an element to that power,
# and at this bound a value already runs to thousands of digits.
HANDLE_BOUND = 1000


@dataclass(frozen=True, slots=True)
class SurfaceSpec:
    """A connected surface with field assignments.

    ``genus`` must be a nonnegative integer when orientable; otherwise
    ``2 * genus`` must be a positive integer (the crosscap count).  A
    ``Fraction`` genus is kept as given, anything else is converted.  Every
    boundary contour must carry at least one label.  More than
    :data:`HANDLE_BOUND` handles or crosscaps raise :class:`ResourceError`.
    """

    orientable: bool
    genus: Fraction
    interior: tuple[str, ...] = ()
    boundary: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        genus = self.genus
        if not isinstance(genus, Fraction):
            genus = Fraction(genus)
            object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "interior", tuple(self.interior))
        object.__setattr__(
            self, "boundary", tuple(tuple(contour) for contour in self.boundary)
        )
        if self.orientable:
            if genus.denominator != 1 or genus < 0:
                raise InputError(
                    f"orientable genus must be a nonnegative integer, got {genus}"
                )
        else:
            doubled = 2 * genus
            if doubled.denominator != 1 or doubled < 1:
                raise InputError(
                    "non-orientable genus must be a positive half-integer or "
                    f"integer, got {genus}"
                )
        for position, contour in enumerate(self.boundary):
            if not contour:
                raise InputError(f"boundary contour {position} is empty")
        factors = genus if self.orientable else self.crosscaps
        if factors > HANDLE_BOUND:
            kind = "handles" if self.orientable else "crosscaps"
            count = format_fraction(factors)  # ResourceError past the digit limit
            raise ResourceError(f"{count} {kind} exceed the bound {HANDLE_BOUND}")

    @property
    def crosscaps(self) -> int:
        return int(2 * self.genus)

    @staticmethod
    def from_document(document: object) -> "SurfaceSpec":
        if not isinstance(document, Mapping):
            raise InputError("surface document must be a JSON object")
        unknown = set(document) - {"orientable", "genus", "interior", "boundary"}
        if unknown:
            raise InputError(f"unknown surface document keys: {sorted(unknown)}")
        orientable = document.get("orientable")
        if not isinstance(orientable, bool):
            raise InputError(f"orientable must be true or false, got {orientable!r}")
        if "genus" not in document:
            raise InputError("surface document is missing the genus")
        genus = parse_fraction(document["genus"])
        interior = document.get("interior", [])
        if not isinstance(interior, Sequence) or isinstance(interior, (str, bytes)):
            raise InputError("interior must be a list of field labels")
        for position, label in enumerate(interior):
            if not isinstance(label, str):
                raise InputError(f"interior[{position}] must be a string label")
        boundary = document.get("boundary", [])
        if not isinstance(boundary, Sequence) or isinstance(boundary, (str, bytes)):
            raise InputError("boundary must be a list of contours")
        contours = []
        for i, contour in enumerate(boundary):
            if not isinstance(contour, Sequence) or isinstance(contour, (str, bytes)):
                raise InputError(f"boundary[{i}] must be a list of field labels")
            for j, label in enumerate(contour):
                if not isinstance(label, str):
                    raise InputError(f"boundary[{i}][{j}] must be a string label")
            contours.append(tuple(contour))
        return SurfaceSpec(
            orientable=orientable,
            genus=genus,
            interior=tuple(interior),
            boundary=tuple(contours),
        )

    def to_document(self) -> dict[str, object]:
        return {
            "orientable": self.orientable,
            "genus": format_fraction(self.genus),
            "interior": list(self.interior),
            "boundary": [list(contour) for contour in self.boundary],
        }


@dataclass(frozen=True, slots=True)
class HurwitzResult:
    value: Fraction
    evaluation_trace: tuple[str, ...] | None = None


def evaluate(
    h: CardyFrobeniusAlgebra, spec: SurfaceSpec, with_trace: bool = False
) -> HurwitzResult:
    """Evaluate the Hurwitz number of one connected surface."""
    catalog, A, B = h.catalog, h.A, h.B
    factors = [{catalog.interior_position(label): 1} for label in spec.interior]
    words = [[catalog.boundary_position(label) for label in contour] for contour in spec.boundary]
    trace: list[str] | None = [] if with_trace else None
    exponent = spec.genus.numerator if spec.orientable else spec.crosscaps
    if exponent:
        power = A.power(A.casimir() if spec.orientable else h.u, exponent)
        factors.append(_positions(A, power))
    a = reduce(A.index_product, factors) if factors else _positions(A, A.unit)
    if trace is not None:
        trace.append(f"A factor: {_labelled(A, a)!r}")
    if not words:
        value = sum((c * A.linear_form[i] for i, c in a.items()), Fraction(0))
    else:
        for position, contour in enumerate(words):
            word: dict[int, Fraction | int] = {contour[0]: 1}
            for k in contour[1:]:
                word = B.index_product(word, {k: 1})
            if position:
                word = _positions(B, B.casimir_sandwich(_labelled(B, word)))
            w = B.index_product(w, word) if position else word
            if trace is not None:
                trace.append(f"W after contour {position}: {_labelled(B, w)!r}")
        value = h.phi_dual_pairing(a, w)
        if trace is not None:
            trace.append(f"phi*(W): {h.phi_dual_apply(_labelled(B, w))!r}")
    if trace is not None:
        trace.append(f"l_A = {format_fraction(value)}")
    return HurwitzResult(value, tuple(trace) if trace is not None else None)


def _positions(alg: EquippedFrobeniusAlgebra, x: AlgebraElement) -> dict[int, Fraction]:
    index = alg.index
    return {index(label): value for label, value in x.coeffs.items()}


def _labelled(alg: EquippedFrobeniusAlgebra, x: Mapping[int, Fraction | int]) -> AlgebraElement:
    return AlgebraElement({alg.basis[k]: value for k, value in x.items()})


# -- cut identities ----------------------------------------------------------


def _cut_check(
    name: str,
    h: CardyFrobeniusAlgebra,
    spec: SurfaceSpec,
    terms: Iterable[tuple[int, SurfaceSpec]],
) -> CheckResult:
    """``evaluate(spec) == sum weight * evaluate(reduced)`` over the
    ``(weight, reduced)`` terms, exactly; the witness shows both sides."""
    lhs = evaluate(h, spec).value
    rhs = sum((weight * evaluate(h, reduced).value for weight, reduced in terms), Fraction(0))
    passed = lhs == rhs
    witness = None if passed else f"{format_fraction(lhs)} != {format_fraction(rhs)}"
    return CheckResult(name, passed, witness)


def cut_check_handle(h: CardyFrobeniusAlgebra, spec: SurfaceSpec) -> CheckResult:
    """Cutting a handle: genus drops by one, a dual field pair appears.

    Checks ``evaluate(spec) == sum_alpha |Aut alpha| * evaluate(spec with
    genus - 1 and interior + (alpha, alpha*))`` exactly.
    """
    if not spec.orientable or spec.genus < 1:
        raise InputError("handle cut requires an orientable spec of genus >= 1")
    smaller = replace(spec, genus=spec.genus - 1)
    terms = (
        (field.aut_order, replace(smaller, interior=spec.interior + (field.label, field.star)))
        for field in h.catalog.interior
    )
    return _cut_check("cut-handle", h, spec, terms)


def cut_check_crosscap(h: CardyFrobeniusAlgebra, spec: SurfaceSpec) -> CheckResult:
    """Cutting a crosscap: one crosscap is traded for a weighted field sum.

    Checks ``evaluate(spec) == sum_alpha d^alpha * evaluate(spec with one
    crosscap fewer and interior + (alpha,))``; a reduced surface with no
    crosscaps left is orientable of genus 0.
    """
    if spec.orientable:
        raise InputError("crosscap cut requires a non-orientable spec")
    remaining = spec.crosscaps - 1
    smaller = replace(spec, orientable=remaining == 0, genus=Fraction(remaining, 2))
    terms = (
        (field.d, replace(smaller, interior=spec.interior + (field.label,)))
        for field in h.catalog.interior
    )
    return _cut_check("cut-crosscap", h, spec, terms)


def cut_check_boundary(
    h: CardyFrobeniusAlgebra, spec: SurfaceSpec, junction: int = 0
) -> CheckResult:
    """Cutting the segment joining two contours: the Casimir legs expand.

    Contours ``junction`` and ``junction + 1`` merge into one.  The cut
    segment is crossed twice while walking the merged contour — once between
    the two original words and once closing back — so the new field pair
    ``beta, beta*`` straddles the second word; the check is
    ``evaluate(spec) == sum_beta |Aut beta| * evaluate(merged spec)``.
    """
    if len(spec.boundary) < 2:
        raise InputError("boundary cut requires at least two contours")
    if not 0 <= junction < len(spec.boundary) - 1:
        raise InputError(
            f"junction must be in 0..{len(spec.boundary) - 2}, got {junction}"
        )
    before, after = spec.boundary[:junction], spec.boundary[junction + 2 :]
    first, second = spec.boundary[junction : junction + 2]
    merged = (
        (field.aut_order, (*before, first + (field.label,) + second + (field.star,), *after))
        for field in h.catalog.boundary
    )
    terms = ((weight, replace(spec, boundary=boundary)) for weight, boundary in merged)
    return _cut_check("cut-boundary", h, spec, terms)


# -- invariance helpers ------------------------------------------------------


def star_reversed(catalog: FieldCatalog, spec: SurfaceSpec) -> SurfaceSpec:
    """The same surface with all local orientations flipped.

    Every interior field is starred; every contour is reversed with each
    label starred.  Hurwitz numbers are invariant under this operation.
    """
    interior = tuple(catalog.interior_field(label).star for label in spec.interior)
    boundary = tuple(
        tuple(catalog.boundary_field(label).star for label in reversed(contour))
        for contour in spec.boundary
    )
    return replace(spec, interior=interior, boundary=boundary)


def rotated(spec: SurfaceSpec, contour_index: int, shift: int) -> SurfaceSpec:
    """The same surface with one contour's cyclic sequence rotated."""
    if not 0 <= contour_index < len(spec.boundary):
        raise InputError(f"no contour with index {contour_index}")
    contour = spec.boundary[contour_index]
    shift %= len(contour)
    rotated_contour = contour[shift:] + contour[:shift]
    boundary = (
        spec.boundary[:contour_index]
        + (rotated_contour,)
        + spec.boundary[contour_index + 1 :]
    )
    return replace(spec, boundary=boundary)
