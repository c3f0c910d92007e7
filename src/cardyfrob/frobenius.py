"""Equipped Frobenius algebras over exact rationals.

An equipped Frobenius algebra is a finite-dimensional unital associative
algebra with a linear form ``l`` whose pairing ``(x, y) = l(x y)`` is
symmetric and nondegenerate, together with an involutive anti-automorphism
``*`` preserving ``l``.  Scalars are :class:`fractions.Fraction` throughout,
so every verification below is an exact identity, never a numerical one.

Structure constants are stored sparsely, one row per left basis element:
row ``i`` maps each ``j`` with ``e_i e_j != 0`` to the expansion
``{k: c_ij^k}``, and a zero product simply has no entry.  An integral
constant is stored as an ``int`` and any other as a
:class:`~fractions.Fraction`; Python's mixed arithmetic keeps one code path
for both.  The rows are private and read only through three accessors:
:meth:`~EquippedFrobeniusAlgebra.pair_products` (one product),
:meth:`~EquippedFrobeniusAlgebra.left_products` (one row) and
:meth:`~EquippedFrobeniusAlgebra.stored_products` (every stored product,
row-major); the first two reject a position outside ``0..dim-1``.
:meth:`~EquippedFrobeniusAlgebra.index_product` is the one loop that
multiplies two sparse vectors keyed by position through the rows;
:meth:`~EquippedFrobeniusAlgebra.multiply` converts labels to positions and
back at its edge.  :meth:`EquippedFrobeniusAlgebra.from_indices` takes the
constants in the shape of the store, one row per left position, and
validates rows from outside: the label constructor and
:meth:`~EquippedFrobeniusAlgebra.permuted` go through it, and it stores a
copy of the rows and recomputes the pairing.  The builders of
:mod:`cardyfrob.cardy` hand their counted rows, and the pairing they counted
with them, to the private core
:meth:`~EquippedFrobeniusAlgebra._from_counts`, which keeps both and runs
only the checks that cost O(dim).  The pairing and its inverse are sparse
rows (``form[i] = {j: l(e_i e_j)}``), so no ``dim x dim`` matrix is ever
built; the pairing sums integer constants against ``l`` scaled by the lcm
of its denominators and divides once per nonzero entry, at its
``Fraction`` edge.

Associativity walks, for each basis pair ``(i, j)``, only the ``k`` that a
nonzero product reaches; every other triple has both sides zero.  Form
invariance compares ``sum_m c_ij^m F_mk`` with ``sum_m F_im c_jk^m`` one
``i`` at a time, over the form scaled to integers, so its cost is the number
of stored constants times the length of a form row.  Both report the first
failing triple of a dense scan, which survives only as the reference in
:func:`cardyfrob.oracles.dense_axiom_oracle`.  The unit and Casimir
centrality checks sum rows of constants in index space: ``[z, e_b]`` is
``sum_s z_s`` times row ``s`` of :func:`commutator_rows`, and the least
nonzero key names the first failing label; the ``AlgebraElement`` loops they
replace are :func:`cardyfrob.oracles.element_axiom_oracle`.  Dual
reconstruction multiplies the pairings recomputed from the products
(:meth:`~EquippedFrobeniusAlgebra._pairing_totals`, the integer core of the
pairing: its totals against ``l`` scaled by the lcm of the denominators of
``l``) by the inverse pairing scaled to integers in the same way, and
compares the result with each probe times both scales.

An algebra may carry a permutation model: ``B`` of a group action keeps the
catalog it was counted from, and ``nu(e_k)`` is the 0/1 matrix of orbit
``O_k`` on ``X x X``; the supports are disjoint and cover ``X x X``, a
coherent configuration (D. G. Higman, *Coherent configurations*, 1975).
:func:`verify_equipped` decides one premise, that the algebra is its
catalog's orbital algebra: the chains at each orbit representative are the
stored constants, the orbits being single ``N``-orbits of an invariant
table, so ``nu`` is an injective homomorphism into the rational matrices;
the star is transposition, the stored pairing is ``tr(nu(e_i) nu(e_j)) /
|N|``, the unit is the sum of the orbits on the diagonal, and ``l(e_k)`` is
``tr(nu(e_k)) / |N|``.  Then the algebra is associative because matrix
multiplication is, the star is an anti-automorphism because transposition
reverses products, and the pairing is invariant because the trace is
cyclic, so the Casimir element of this symmetric Frobenius algebra is
central; ``nu`` sends the unit to the identity matrix, so it is the unit.
The pairing recomputed from the products is ``sum_k c_ij^k tr(nu(e_k)) /
|N| = tr(nu(e_i) nu(e_j)) / |N|``, the stored one, so dual reconstruction
multiplies the stored pairing by its computed inverse; the product still
checks the inverse.  When the premise holds those five walks are skipped;
when it fails every check runs as it does without a model, so the results
do not depend on the model.  The comparisons of a rational with a count
over ``|N|`` are made in integers.  :func:`cardyfrob.cardy.verify_all`, the
verifier of ``cardyfrob check``, computes the record of
:func:`_model_premises` once and hands it to both :func:`_verify_equipped`
and the core of :func:`cardyfrob.cardy.verify_cardy_frobenius`; nothing is
cached on the algebra or the model.  This module reads the model only
through its methods and imports neither :mod:`cardyfrob.actions` nor
:mod:`cardyfrob.cardy`.  The constructors and
:meth:`~EquippedFrobeniusAlgebra.permuted` never carry a model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import not_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import linalg
from .errors import ConsistencyError, InputError
from .rationals import format_fraction


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one named verification, with a witness when it fails."""

    name: str
    passed: bool
    witness: str | None = None


def all_passed(results: Iterable[CheckResult]) -> bool:
    return all(result.passed for result in results)


def failures(results: Iterable[CheckResult]) -> list[CheckResult]:
    return [result for result in results if not result.passed]


class AlgebraElement:
    """A finite rational linear combination of basis labels.

    Zero coefficients are dropped on construction, so equality of elements is
    plain dictionary equality.  Scalar arithmetic lives here; products of two
    elements need an algebra and live on
    :meth:`EquippedFrobeniusAlgebra.multiply`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, Fraction | int] | None = None) -> None:
        items = coeffs.items() if coeffs else ()
        self.coeffs: dict[str, Fraction] = {
            label: Fraction(value) for label, value in items if value
        }

    def coefficient(self, label: str) -> Fraction:
        return self.coeffs.get(label, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        merged = dict(self.coeffs)
        for label, value in other.coeffs.items():
            merged[label] = merged.get(label, Fraction(0)) + value
        return AlgebraElement(merged)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        merged = dict(self.coeffs)
        for label, value in other.coeffs.items():
            merged[label] = merged.get(label, Fraction(0)) - value
        return AlgebraElement(merged)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({label: -value for label, value in self.coeffs.items()})

    def __mul__(self, scalar: Fraction | int) -> "AlgebraElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return AlgebraElement(
            {label: value * scalar for label, value in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [
            f"{format_fraction(value)}*{label}"
            for label, value in sorted(self.coeffs.items())
        ]
        return " + ".join(parts)


def _exact(value: Fraction | int) -> int | Fraction:
    """A structure constant as ``int`` when it is integral, else as ``Fraction``."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class EquippedFrobeniusAlgebra:
    """A unital algebra with invariant pairing and star, on a labeled basis.

    Parameters take labels throughout: ``products`` maps a pair of basis
    labels to the (sparse) expansion of their product, ``linear_form`` maps
    labels to ``l`` values, ``involution`` maps each label to the label of its
    star, and ``unit`` is the coefficient mapping of the identity element.
    The labels are translated to basis positions and handed to the same
    index-keyed core as :meth:`from_indices`.  Construction validates shapes
    only; the axioms themselves are verified by :func:`verify_equipped`, which
    reports rather than raises so that a broken candidate algebra can be
    inspected.
    """

    def __init__(
        self,
        basis: Sequence[str],
        products: Mapping[tuple[str, str], Mapping[str, Fraction | int]],
        linear_form: Mapping[str, Fraction | int],
        involution: Mapping[str, str],
        unit: Mapping[str, Fraction | int],
    ) -> None:
        self._set_basis(basis)
        index = self.index
        rows: list[dict[int, dict[int, Fraction | int]]] = [{} for _ in self.basis]
        for (left, right), expansion in products.items():
            rows[index(left)][index(right)] = {
                index(out): value for out, value in expansion.items() if value
            }
        unknown = set(linear_form) - set(self.basis)
        if unknown:
            raise InputError(f"linear form uses unknown labels: {sorted(unknown)}")
        if sorted(involution) != sorted(self.basis) or set(involution.values()) != set(
            self.basis
        ):
            raise InputError("involution must be a bijection on the basis labels")
        self._assemble(
            rows,
            {index(label): value for label, value in linear_form.items()},
            tuple(index(involution[label]) for label in self.basis),
            {index(label): value for label, value in unit.items()},
        )

    @classmethod
    def from_indices(
        cls,
        basis: Sequence[str],
        products: Sequence[Mapping[int, Mapping[int, Fraction | int]]],
        linear_form: Mapping[int, Fraction | int],
        involution: Sequence[int],
        unit: Mapping[int, Fraction | int],
    ) -> "EquippedFrobeniusAlgebra":
        """The algebra given in basis positions rather than labels.

        ``products`` has one row per left position, the shape of the store:
        ``products[i]`` maps each ``j`` to the sparse expansion
        ``{k: c_ij^k}`` of ``e_i e_j``.  ``linear_form`` and ``unit`` map
        positions to values, and ``involution[i]`` is the position of the star
        of ``e_i``.  The shapes are validated as by the label constructor.
        The rows are copied, with zero constants dropped and integral values
        stored as ``int``.
        """
        alg = cls.__new__(cls)
        alg._set_basis(basis)
        alg._assemble(products, linear_form, involution, unit)
        return alg

    @classmethod
    def _from_counts(
        cls,
        basis: Sequence[str],
        rows: list[dict[int, dict[int, int]]],
        pairing: tuple[int, list[dict[int, int]]],
        linear_form: Mapping[int, Fraction | int],
        involution: Sequence[int],
        unit: Mapping[int, Fraction | int],
    ) -> "EquippedFrobeniusAlgebra":
        """The algebra of rows a builder counted, with the pairing it counted.

        ``rows`` has the shape :meth:`from_indices` takes and is stored as it
        is: plain dicts of positive ``int`` counts, no expansion empty, every
        position inside ``0..dim-1``.  ``pairing`` is ``(s, totals)`` with
        ``totals[i]`` the nonzero ``{j: s l(e_i e_j)}`` in integers, for any
        common scale ``s``; its rows become those of ``form``, each entry
        divided once, keys in the order given.  Neither is scanned:
        :func:`~cardyfrob.cardy.build_A` counts its rows on the group table
        and :func:`~cardyfrob.cardy.build_B` on an orbit table whose cells the
        catalog checked to be boundary positions.  The checks of the basis,
        of ``l`` and the unit, and of the star, each O(dim), run as in
        :meth:`from_indices`.
        """
        alg = cls.__new__(cls)
        alg._set_basis(basis)
        alg._rows = rows
        alg._equip(linear_form, involution, unit, pairing)
        return alg

    def _set_basis(self, basis: Sequence[str]) -> None:
        self.basis: tuple[str, ...] = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise InputError("basis labels must be unique")
        if not self.basis:
            raise InputError("an algebra needs at least one basis vector")
        self.dim = len(self.basis)
        self._index: dict[str, int] = {label: i for i, label in enumerate(self.basis)}

    def _assemble(
        self,
        products: Sequence[Mapping[int, Mapping[int, Fraction | int]]],
        linear_form: Mapping[int, Fraction | int],
        involution: Sequence[int],
        unit: Mapping[int, Fraction | int],
    ) -> None:
        """The core of :meth:`from_indices`: validate, store a copy of the
        rows, then :meth:`_equip` with the pairing recomputed.  Each row keeps
        its products in input order."""
        n = self.dim
        positions = range(n)
        if len(products) != n or not all(isinstance(row, Mapping) for row in products):
            raise InputError(f"products must be {n} mappings, one row per left position")
        outside = list(set(chain.from_iterable(products)).difference(positions))
        if outside:
            raise InputError(f"products pair with right positions outside 0..{n - 1}: {outside}")
        expansions = chain.from_iterable(row.values() for row in products)
        outside = list(set(chain.from_iterable(expansions)).difference(positions))
        if outside:
            raise InputError(f"products expand over positions outside 0..{n - 1}: {outside}")
        self._rows: list[dict[int, dict[int, int | Fraction]]] = [{} for _ in positions]
        for row, kept in zip(products, self._rows):
            for j, expansion in row.items():
                cleaned = {out: _exact(value) for out, value in expansion.items() if value}
                if cleaned:
                    kept[j] = cleaned
        self._equip(linear_form, involution, unit, None)

    def _equip(
        self,
        linear_form: Mapping[int, Fraction | int],
        involution: Sequence[int],
        unit: Mapping[int, Fraction | int],
        pairing: tuple[int, list[dict[int, int | Fraction]]] | None,
    ) -> None:
        """Check and set ``l``, the star and the unit over the stored rows,
        and the pairing: ``pairing`` divided once per entry, or
        :meth:`_pairing_totals` when it is ``None``."""
        n = self.dim
        positions = range(n)
        for name, mapping in (("linear form", linear_form), ("unit", unit)):
            unknown = [i for i in mapping if i not in positions]
            if unknown:
                raise InputError(f"{name} uses positions outside 0..{n - 1}: {unknown}")
        zero = Fraction(0)
        self.linear_form: tuple[Fraction, ...] = tuple(
            Fraction(linear_form[i]) if i in linear_form else zero for i in positions
        )
        self.involution: tuple[int, ...] = tuple(involution)
        if sorted(self.involution) != list(positions):
            raise InputError("involution must be a permutation of the basis positions")
        self.unit: AlgebraElement = AlgebraElement(
            {self.basis[i]: value for i, value in unit.items()}
        )
        scale, totals = self._pairing_totals() if pairing is None else pairing
        for row in totals:
            for j, total in row.items():
                row[j] = Fraction(total, scale)
        self.form: tuple[dict[int, Fraction], ...] = tuple(totals)
        self._form_inverse: list[dict[int, Fraction]] | None = None
        self._casimir: AlgebraElement | None = None
        self._twisted_casimir: AlgebraElement | None = None
        # The permutation model, a catalog whose orbit matrices nu(e_k) the
        # constants should multiply as; only cardy.build_B sets one.
        self._model = None

    # -- basic accessors -------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown basis label {label!r}") from None

    def basis_element(self, label: str) -> AlgebraElement:
        self.index(label)
        return AlgebraElement({label: 1})

    def element(self, coeffs: Mapping[str, Fraction | int]) -> AlgebraElement:
        for label in coeffs:
            self.index(label)
        return AlgebraElement(coeffs)

    def pair_products(self, i: int, j: int) -> Mapping[int, int | Fraction]:
        """Sparse expansion ``{k: c_ij^k}`` of ``basis[i] * basis[j]``, empty when zero."""
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"basis positions ({i}, {j}) outside 0..{n - 1}")
        return self._rows[i].get(j, {})

    def left_products(self, i: int) -> Mapping[int, Mapping[int, int | Fraction]]:
        """``{j: e_i e_j}`` over the ``j`` with a nonzero product, in input order."""
        if not 0 <= i < self.dim:
            raise InputError(f"basis position {i} outside 0..{self.dim - 1}")
        return self._rows[i]

    def stored_products(self) -> Iterator[tuple[int, int, Mapping[int, int | Fraction]]]:
        """Every nonzero ``(i, j, e_i e_j)``, row-major: by ``i``, then as
        :meth:`left_products` lists ``j``."""
        for i, row in enumerate(self._rows):
            for j, expansion in row.items():
                yield i, j, expansion

    def structure_constant(self, left: str, right: str, out: str) -> int | Fraction:
        expansion = self.pair_products(self.index(left), self.index(right))
        return expansion.get(self.index(out), 0)

    # -- algebra operations ----------------------------------------------

    def index_product(
        self, x: Mapping[int, Fraction | int], y: Mapping[int, Fraction | int]
    ) -> dict[int, Fraction | int]:
        """The product of sparse vectors ``{position: coefficient}``, zero sums
        kept; the positions must lie in ``0..dim-1`` and are not checked."""
        out: dict[int, Fraction | int] = {}
        for i, a in x.items():
            row = self._rows[i]
            for j, b in y.items():
                expansion = row.get(j)
                if expansion:
                    scale = a * b
                    for k, value in expansion.items():
                        out[k] = out.get(k, 0) + scale * value
        return out

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        index = self.index
        product = self.index_product(
            {index(label): value for label, value in x.coeffs.items()},
            {index(label): value for label, value in y.coeffs.items()},
        )
        return AlgebraElement({self.basis[k]: value for k, value in product.items()})

    def product(self, factors: Iterable[AlgebraElement]) -> AlgebraElement:
        result = self.unit
        for factor in factors:
            result = self.multiply(result, factor)
        return result

    def power(self, x: AlgebraElement, exponent: int) -> AlgebraElement:
        if exponent < 0:
            raise InputError("negative powers are not defined here")
        return linalg.power(x, exponent, self.multiply, self.unit)

    def linear(self, x: AlgebraElement) -> Fraction:
        return sum(
            (value * self.linear_form[self.index(label)] for label, value in x.coeffs.items()),
            Fraction(0),
        )

    def bilinear(self, x: AlgebraElement, y: AlgebraElement) -> Fraction:
        return self.linear(self.multiply(x, y))

    def star(self, x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            {
                self.basis[self.involution[self.index(label)]]: value
                for label, value in x.coeffs.items()
            }
        )

    def star_label(self, label: str) -> str:
        return self.basis[self.involution[self.index(label)]]

    # -- pairing and Casimir ----------------------------------------------

    def _pairing_totals(self) -> tuple[int, list[dict[int, int | Fraction]]]:
        """The pairing recomputed from the products and ``l``, times ``s``: the
        lcm ``s`` of the denominators of ``l``, and the nonzero sparse rows
        ``{j: s l(e_i e_j)}``, integers when the constants are."""
        # Only a product that reaches a position where l is nonzero is summed.
        scale = lcm(*(value.denominator for value in self.linear_form))
        weights = {
            out: int(value * scale) for out, value in enumerate(self.linear_form) if value
        }
        totals: list[dict[int, int | Fraction]] = [{} for _ in range(self.dim)]
        disjoint = set(weights).isdisjoint
        for i, totals_row in enumerate(totals):
            row = self.left_products(i)
            reached = map(not_, map(disjoint, row.values()))
            for j, expansion in compress(row.items(), reached):
                total = 0
                for out, value in expansion.items():
                    weight = weights.get(out)
                    if weight:
                        total += value * weight
                if total:
                    totals_row[j] = total
        return scale, totals

    def form_inverse(self) -> list[dict[int, Fraction]]:
        if self._form_inverse is None:
            try:
                self._form_inverse = linalg.invert(self.form)
            except linalg.SingularMatrixError as exc:
                raise ConsistencyError(f"the pairing is degenerate: {exc}") from exc
        return self._form_inverse

    def casimir(self) -> AlgebraElement:
        """The Casimir element ``sum_{i,j} (F^-1)_{ij} e_i e_j``."""
        if self._casimir is None:
            self._casimir = self._casimir_sum(twisted=False)
        return self._casimir

    def twisted_casimir(self) -> AlgebraElement:
        """The star-twisted Casimir ``sum_{i,j} (F^-1)_{ij} e_i e_j^*``."""
        if self._twisted_casimir is None:
            self._twisted_casimir = self._casimir_sum(twisted=True)
        return self._twisted_casimir

    def casimir_sandwich(self, x: AlgebraElement) -> AlgebraElement:
        """The sandwich ``sum_{i,j} (F^-1)_{ij} e_i x e_j``.

        The two legs of the Casimir tensor land on opposite sides of ``x``.
        The image is always central, ``casimir_sandwich(xy) ==
        casimir_sandwich(yx)``, and the image of the unit is :meth:`casimir`.
        """
        inverse = self.form_inverse()
        total = AlgebraElement()
        for i, label in enumerate(self.basis):
            left = self.multiply(self.basis_element(label), x)
            if left.is_zero():
                continue
            for j, weight in inverse[i].items():
                right = self.multiply(left, self.basis_element(self.basis[j]))
                total = total + weight * right
        return total

    def _casimir_sum(self, twisted: bool) -> AlgebraElement:
        inverse = self.form_inverse()
        accumulated: dict[int, Fraction] = {}
        for i, row in enumerate(inverse):
            products = self.left_products(i)
            for j, weight in row.items():
                expansion = products.get(self.involution[j] if twisted else j)
                if not expansion:
                    continue
                for out, value in expansion.items():
                    accumulated[out] = accumulated.get(out, Fraction(0)) + weight * value
        return AlgebraElement(
            {self.basis[out]: value for out, value in accumulated.items()}
        )

    def dual_reconstruct(self, x: AlgebraElement) -> AlgebraElement:
        """Expand ``x`` through the dual basis: ``sum_{i,j} (x,e_i) F^-1_{ij} e_j``.

        The pairings ``(x, e_i) = l(x e_i)`` come from the products and ``l``,
        never from the stored ``form``, so a form that disagrees with the
        products does not reconstruct ``x``.
        """
        inverse = self.form_inverse()
        scale, totals = self._pairing_totals()
        x_coeffs = ((self.index(label), value) for label, value in x.coeffs.items())
        pairings = linalg.row_times(x_coeffs, totals)
        coeffs = linalg.row_times(pairings.items(), inverse)
        return AlgebraElement(
            {self.basis[j]: Fraction(value, scale) for j, value in coeffs.items()}
        )

    def permuted(self, order: Sequence[str]) -> "EquippedFrobeniusAlgebra":
        """The same algebra presented on a reordered basis."""
        order = tuple(order)
        if sorted(order) != sorted(self.basis):
            raise InputError("order must be a permutation of the basis labels")
        n = self.dim
        position = {label: i for i, label in enumerate(order)}
        moved = [position[label] for label in self.basis]
        star = [0] * n
        for i, image in enumerate(self.involution):
            star[moved[i]] = moved[image]
        rows: list[dict[int, dict[int, int | Fraction]]] = [{} for _ in order]
        for i, j, expansion in self.stored_products():
            rows[moved[i]][moved[j]] = {moved[out]: value for out, value in expansion.items()}
        return EquippedFrobeniusAlgebra.from_indices(
            basis=order,
            products=rows,
            linear_form={moved[i]: value for i, value in enumerate(self.linear_form)},
            involution=star,
            unit={position[label]: value for label, value in self.unit.coeffs.items()},
        )


# -- axiom verification ----------------------------------------------------


def verify_equipped(alg: EquippedFrobeniusAlgebra) -> list[CheckResult]:
    """Check every equipped-Frobenius axiom, reporting one result per axiom.

    Checks are exact; a failing check carries a human-readable witness (the
    basis labels at which the identity first breaks).  When the algebra is
    its catalog's orbital algebra (:func:`_is_orbital_algebra`), the five
    checks that premise proves pass without their walks; otherwise every
    check runs as it does without a model, so the results are the same
    either way.  The premise is decided anew on every call
    (:func:`_model_premises`).
    """
    return _verify_equipped(alg, _model_premises(alg._model, alg))


@dataclass(frozen=True, slots=True)
class ModelPremises:
    """What one verification run reads off a permutation model, computed once.

    ``model`` is the catalog whose orbit matrices ``nu(e_k)`` the constants
    of the algebra should multiply as, or ``None``; ``modelled`` is
    ``model.is_model_of(alg)``, premise (a), that ``nu`` is an injective
    homomorphism; ``traces`` is ``model.trace_counts()``, the traces
    ``tr(nu_i nu_j)``, or ``None`` without a model.  With the star, pairing,
    unit and linear form of the algebra they decide the one premise of
    :func:`verify_equipped`, that the algebra is the model's orbital algebra
    (:func:`_is_orbital_algebra`).  Nothing is cached on the algebra or the
    model: a run that is handed no record computes its own.
    """

    model: object | None
    modelled: bool
    traces: Counter[tuple[int, int]] | None


def _model_premises(model, alg: EquippedFrobeniusAlgebra) -> ModelPremises:
    """Premise (a) of ``model`` for ``alg``, and the traces of ``model``."""
    if model is None:
        return ModelPremises(None, False, None)
    return ModelPremises(model, model.is_model_of(alg), model.trace_counts())


def _verify_equipped(alg: EquippedFrobeniusAlgebra, premises: ModelPremises) -> list[CheckResult]:
    """:func:`verify_equipped` on premises computed for ``alg`` by the caller."""
    orbital = _is_orbital_algebra(alg, premises)

    def run(name: str, check: Callable[[EquippedFrobeniusAlgebra], CheckResult]) -> CheckResult:
        return CheckResult(name, True) if orbital else check(alg)

    return [
        run("unit", _check_unit),
        run("associativity", _check_associativity),
        _check_form_symmetric(alg),
        _check_form_invertible(alg),
        run("form-invariance", _check_form_invariance),
        _check_involution_involutive(alg),
        run("involution-antiautomorphism", _check_involution_antiautomorphism),
        _check_involution_form(alg),
        run("casimir-central", _check_casimir_central),
        _check_dual_reconstruction(alg, orbital),
    ]


def _is_orbital_algebra(alg: EquippedFrobeniusAlgebra, premises: ModelPremises) -> bool:
    """Whether ``alg`` is the orbital algebra of ``premises.model``, the one
    premise of the module docstring.

    Premise (a), ``premises.modelled``, must hold, and the rest of ``alg``
    must equal the catalog's counts: the star sends each orbit to the one
    its swapped pairs lie in (the keys of ``premises.traces``); the stored
    pairing is ``traces / |N|``; the unit is ``sum e_k``, each coefficient
    1, over the orbits that meet the diagonal; and ``l(e_k)`` is the number
    of diagonal cells of ``O_k`` over ``|N|``
    (:meth:`~cardyfrob.actions.FieldCatalog.diagonal_counts`).  Each rational
    ``v = count / |N|`` is compared in integers, ``v.numerator * |N| ==
    count * v.denominator``.
    """
    if not premises.modelled:
        return False
    model, traces = premises.model, premises.traces
    order = model.nset.group.order
    diagonal = model.diagonal_counts()
    unit = {alg.index(label): value for label, value in alg.unit.coeffs.items()}
    return (
        all(alg.involution[i] == j for i, j in traces)
        and _is_trace_form(alg.form, traces, order)
        and unit == dict.fromkeys(diagonal, 1)
        and all(_is_ratio(value, diagonal[k], order) for k, value in enumerate(alg.linear_form))
    )


def _is_ratio(value: Fraction | int, count: int, order: int) -> bool:
    """Whether ``value == count / order``, without building the fraction."""
    return value.numerator * order == count * value.denominator


def _is_trace_form(
    form: Sequence[Mapping[int, Fraction | int]], traces: Counter[tuple[int, int]], order: int
) -> bool:
    """Whether the sparse ``form`` is ``traces / order``: each count finds its
    entry, compared in integers, and the form stores no other entry."""
    return sum(map(len, form)) == len(traces) and all(
        _is_ratio(form[i].get(j, 0), count, order) for (i, j), count in traces.items()
    )


def _check_unit(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # sum_s u_s c_sb == e_b == sum_s u_s c_bs for every b, in index space: one
    # walk of the stored constants fills both sides keyed by b * dim + o, and
    # the least failing key names the first failing label of a basis walk.
    n = alg.dim
    weights = {alg.index(label): _exact(value) for label, value in alg.unit.coeffs.items()}
    left: dict[int, int | Fraction] = {}
    right: dict[int, int | Fraction] = {}
    for s, b, expansion in alg.stored_products():
        for side, weight, base in ((left, weights.get(s), b * n), (right, weights.get(b), s * n)):
            if weight:
                for out, value in expansion.items():
                    side[base + out] = side.get(base + out, 0) + weight * value
    identity = {b * n + b: 1 for b in range(n)}
    failing = [
        code
        for code in (_first_difference(left, identity), _first_difference(right, identity))
        if code is not None
    ]
    if failing:
        return CheckResult("unit", False, f"unit fails on {alg.basis[min(failing) // n]}")
    return CheckResult("unit", True)


def _first_difference(lhs: Mapping[int, object], rhs: Mapping[int, object]) -> int | None:
    """The smallest key at which two sparse maps differ, absent keys reading 0."""
    failing = [key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0)]
    return min(failing) if failing else None


def _check_associativity(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # (e_i e_j) e_k == e_i (e_j e_k), one basis pair (i, j) at a time, with
    # both sides keyed by k * dim + out.  The left side is nonzero only for k
    # in the rows of supp(e_i e_j), the right side only for k with
    # e_j e_k != 0 (and only if e_i reaches supp(e_j e_k)); every other k has
    # both sides zero.  Taking the smallest failing k in lexicographic (i, j)
    # order gives the first failing triple of a dense scan.
    n = alg.dim
    rows = list(map(alg.left_products, range(n)))
    reach = [set().union(*row.values()) for row in rows]
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            pij = row_i.get(j)
            if pij is None and reach[j].isdisjoint(row_i):
                continue
            lhs: dict[int, int | Fraction] = {}
            if pij:
                for m, c in pij.items():
                    for k, pmk in rows[m].items():
                        base = k * n
                        for out, value in pmk.items():
                            lhs[base + out] = lhs.get(base + out, 0) + c * value
            rhs: dict[int, int | Fraction] = {}
            for k, pjk in rows[j].items():
                base = k * n
                for m, c in pjk.items():
                    pim = row_i.get(m)
                    if pim:
                        for out, value in pim.items():
                            rhs[base + out] = rhs.get(base + out, 0) + c * value
            if lhs != rhs:
                code = _first_difference(lhs, rhs)
                if code is not None:
                    witness = f"({alg.basis[i]}, {alg.basis[j]}, {alg.basis[code // n]})"
                    return CheckResult("associativity", False, witness)
    return CheckResult("associativity", True)


def _check_form_symmetric(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # Only a stored entry can differ from its mirror.  The dense scan visits
    # (i, j) with j < i in order, so its witness is the least (max, min) pair.
    form = alg.form
    failing = [
        (max(i, j), min(i, j))
        for i, row in enumerate(form)
        for j, entry in row.items()
        if form[j].get(i, 0) != entry
    ]
    if failing:
        i, j = min(failing)
        return CheckResult("form-symmetric", False, f"({alg.basis[i]}, {alg.basis[j]})")
    return CheckResult("form-symmetric", True)


def _check_form_invertible(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    try:
        alg.form_inverse()
    except ConsistencyError as exc:
        return CheckResult("form-invertible", False, str(exc))
    return CheckResult("form-invertible", True)


def _check_form_invariance(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # l((e_i e_j) e_k) == l(e_i (e_j e_k)), that is
    # sum_m c_ij^m F_mk == sum_m F_im c_jk^m, one i at a time with both sides
    # keyed by j * dim + k.  The left side walks row i of the products into
    # the form rows, the right side form row i into the constants c_jk^m
    # listed by m.  The form is scaled by the lcm of its denominators, so
    # integral constants give integer sums; the smallest failing key of the
    # first failing i is the dense scan's first triple.
    n = alg.dim
    _, form = _scaled(alg.form)
    by_out: list[dict[int, int | Fraction]] = [{} for _ in range(n)]
    for j, k, expansion in alg.stored_products():
        key = j * n + k
        for m, c in expansion.items():
            by_out[m][key] = c
    for i in range(n):
        lhs: dict[int, int | Fraction] = {}
        for j, pij in alg.left_products(i).items():
            base = j * n
            for m, c in pij.items():
                for k, entry in form[m].items():
                    lhs[base + k] = lhs.get(base + k, 0) + c * entry
        rhs = linalg.row_times(form[i].items(), by_out)
        if lhs != rhs:
            key = _first_difference(lhs, rhs)
            if key is not None:
                j, k = divmod(key, n)
                witness = f"({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]})"
                return CheckResult("form-invariance", False, witness)
    return CheckResult("form-invariance", True)


def _check_involution_involutive(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    for i in range(alg.dim):
        if alg.involution[alg.involution[i]] != i:
            return CheckResult("involution-involutive", False, alg.basis[i])
    return CheckResult("involution-involutive", True)


def _check_involution_antiautomorphism(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # (e_i e_j)^* == e_j^* e_i^* for all basis pairs.  Both sides are zero
    # unless (i, j) or its mirror (j^*, i^*) is stored, so only those pairs
    # are visited, the mirrors found through the inverse of the star (which
    # need not be involutive); the least failing pair is the dense witness.
    star = alg.involution
    unstar = sorted(range(alg.dim), key=star.__getitem__)
    stored = [(i, j) for i, j, _ in alg.stored_products()]
    pairs = set(stored) | {(unstar[b], unstar[a]) for a, b in stored}
    failing = [
        (i, j)
        for i, j in pairs
        if {star[out]: value for out, value in alg.pair_products(i, j).items()}
        != alg.pair_products(star[j], star[i])
    ]
    if failing:
        i, j = min(failing)
        witness = f"({alg.basis[i]}, {alg.basis[j]})"
        return CheckResult("involution-antiautomorphism", False, witness)
    return CheckResult("involution-antiautomorphism", True)


def _check_involution_form(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    for i in range(alg.dim):
        if alg.linear_form[alg.involution[i]] != alg.linear_form[i]:
            return CheckResult("involution-form", False, alg.basis[i])
    return CheckResult("involution-form", True)


def _check_casimir_central(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    try:
        casimir = alg.casimir()
    except ConsistencyError as exc:
        return CheckResult("casimir-central", False, str(exc))
    weights = [(alg.index(label), value) for label, value in casimir.coeffs.items()]
    b = _first_noncentral(alg.dim, commutator_rows(alg), weights)
    if b is not None:
        return CheckResult("casimir-central", False, alg.basis[b])
    return CheckResult("casimir-central", True)


def _check_dual_reconstruction(
    alg: EquippedFrobeniusAlgebra, pairing_is_stored: bool = False
) -> CheckResult:
    # The dual-basis expansion sum_{i,j} (x, e_i) F^-1_ij e_j of the unit and
    # of every basis element, in index space: the pairings row of x, recomputed
    # from the products and l as in dual_reconstruct (the stored form is what
    # the inverse was taken of), times the rows of F^-1.  ``pairing_is_stored``
    # says that the model proved the recomputed pairing equal to the stored
    # one (the algebra is its catalog's orbital algebra), which is then read
    # instead.  Both factors are scaled to integers, so the expansion comes
    # out times the product of the two scales and is compared with the probe
    # times it.
    try:
        inverse = alg.form_inverse()
    except ConsistencyError as exc:
        return CheckResult("dual-reconstruction", False, str(exc))
    pairing_scale, pairings = _scaled(alg.form) if pairing_is_stored else alg._pairing_totals()
    inverse_scale, inverse = _scaled(inverse)
    scale = pairing_scale * inverse_scale
    unit = {alg.index(label): value for label, value in alg.unit.coeffs.items()}
    scaled_unit = {j: scale * value for j, value in unit.items()}
    probes = chain(
        [("1", scaled_unit, linalg.row_times(unit.items(), pairings))],
        ((label, {b: scale}, pairings[b]) for b, label in enumerate(alg.basis)),
    )
    for name, probe, row in probes:
        expanded = linalg.row_times(row.items(), inverse)
        if {j: value for j, value in expanded.items() if value} != probe:
            return CheckResult("dual-reconstruction", False, name)
    return CheckResult("dual-reconstruction", True)


def _scaled(rows: Sequence[Mapping[int, Fraction]]) -> tuple[int, list[dict[int, int]]]:
    """The lcm of the denominators of sparse rational ``rows``, and the rows
    times it as ``int`` rows, each entry ``numerator * (scale // denominator)``."""
    scale = lcm(*(value.denominator for row in rows for value in row.values()))
    return scale, [
        {j: value.numerator * (scale // value.denominator) for j, value in row.items()}
        for row in rows
    ]


# -- derived structure -------------------------------------------------------


def multiplication_traces(
    alg: EquippedFrobeniusAlgebra, right: bool = False
) -> list[dict[int, int | Fraction]]:
    """Sparse rows of ``tr(L_i L_j)``, or of ``tr(L_i R_j)`` when ``right`` is set.

    ``L_i`` and ``R_j`` are left multiplication by ``e_i`` and right
    multiplication by ``e_j``.  Row ``i`` maps ``j`` to
    ``sum_{k,m} c_{ik}^m c_{jm}^k`` (``c_{mj}^k`` when ``right``), summed over
    buckets of the stored constants keyed by ``(m, k)``; zero sums may remain.
    """
    n = alg.dim
    buckets: dict[int, list[tuple[int, int | Fraction]]] = {}
    for first, second, expansion in alg.stored_products():
        j, m = (second, first) if right else (first, second)
        for k, value in expansion.items():
            buckets.setdefault(m * n + k, []).append((j, value))
    rows: list[dict[int, int | Fraction]] = [{} for _ in range(n)]
    for i, k, expansion in alg.stored_products():
        row = rows[i]
        for m, c in expansion.items():
            for j, value in buckets.get(m * n + k, ()):
                row[j] = row.get(j, 0) + c * value
    return rows


def trace_form(alg: EquippedFrobeniusAlgebra) -> list[list[Fraction]]:
    """The trace form ``t_{ij} = trace of left multiplication by e_i e_j``.

    Computed sparsely as ``t_{ij} = sum_{k,m} c_{ik}^m c_{jm}^k``.
    """
    return [
        [Fraction(row.get(j, 0)) for j in range(alg.dim)]
        for row in multiplication_traces(alg)
    ]


def is_semisimple(alg: EquippedFrobeniusAlgebra) -> bool:
    """Whether the trace form is nondegenerate (semisimplicity over the rationals)."""
    return linalg.rank(multiplication_traces(alg)) == alg.dim


def commutator_rows(alg: EquippedFrobeniusAlgebra) -> list[dict[int, int | Fraction]]:
    """Sparse rows of the commutators ``[e_s, e_b]``, one row per ``s``.

    Row ``s`` maps ``b * dim + o`` to ``c_sb^o - c_bs^o``, zero differences
    dropped, so ``z`` is central iff ``sum_s z_s rows[s]`` is zero.
    """
    n = alg.dim
    rows: list[dict[int, int | Fraction]] = [{} for _ in range(n)]
    for s, b, expansion in alg.stored_products():
        left, right, left_base, right_base = rows[s], rows[b], b * n, s * n
        for out, value in expansion.items():
            left[left_base + out] = left.get(left_base + out, 0) + value
            right[right_base + out] = right.get(right_base + out, 0) - value
    return [{key: value for key, value in row.items() if value} for row in rows]


def _first_noncentral(
    dim: int,
    rows: Sequence[Mapping[int, int | Fraction]],
    weights: Iterable[tuple[int, Fraction | int]],
) -> int | None:
    """The least ``b`` with ``[z, e_b] != 0`` for ``z = sum_s z_s e_s``, if any.

    ``weights`` lists the ``(s, z_s)`` and ``rows`` are :func:`commutator_rows`.
    The weights are scaled by the lcm of their denominators, so integral
    constants give integer sums.
    """
    terms = [(s, Fraction(z)) for s, z in weights if z]
    scale = lcm(*(z.denominator for _, z in terms))
    total = linalg.row_times(((s, int(z * scale)) for s, z in terms), rows)
    failing = [key for key, value in total.items() if value]
    return min(failing) // dim if failing else None


def center_dimension(alg: EquippedFrobeniusAlgebra) -> int:
    """Dimension of the center: ``dim`` minus the rank of :func:`commutator_rows`.

    The center is the kernel of ``z -> ([z, e_b])_b``, whose matrix has the
    commutator rows as its rows.
    """
    return alg.dim - linalg.rank(commutator_rows(alg))
