"""The Cardy-Frobenius algebra of a finite group action.

Given the action of ``N`` on ``X`` produced by :mod:`cardyfrob.actions`, this
module builds the pair of equipped Frobenius algebras

* ``A``: the center of the rational group algebra of ``N`` on the basis of
  conjugacy class sums ``E_alpha``, with ``l_A(x)`` the coefficient of the
  identity divided by ``|N|``;
* ``B``: the algebra spanned by the boundary fields ``beta`` (orbits of ``N``
  on ``X x X``), the orbital algebra of the action: its structure constants
  are the intersection numbers of the orbits, and ``l_B(beta)`` is the number
  of diagonal pairs in ``beta`` divided by ``|N|``;

together with the central homomorphism ``phi: A -> B`` induced by the
permutation representation ``rho`` of ``N`` on ``X``, and the element
``U = sum_{n in N} E_{n^2}`` whose square is the twisted Casimir of ``A`` and
whose image under ``phi`` is the twisted Casimir of ``B``.  The pairings are
normalized so that ``(E_alpha, E_beta)_A = delta_{beta, alpha*} / |Aut alpha|``
and likewise for ``B``.

``A``, ``B`` and ``phi`` are built in index space with integer counts.  The
builders of ``A`` and ``B`` count the pairing ``l(e_i e_j)`` with the
constants and hand both, the constants as rows of the store, one per left
position, to the private core
:meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra._from_counts`, which
keeps them without a copy or a re-scan;
:meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra.from_indices` validates
rows from outside.  Every reader of the boundary orbits indexes the
catalog's orbit table :attr:`~cardyfrob.actions.FieldCatalog.orbit_table`,
cell ``x * |X| + y`` holding ``orbit(x, y)``.  ``B`` is counted one block
of orbits at a time, the orbits whose representatives share a row of the
table, and each distinct product of a block is stored once, as one dict
shared by every pair of basis elements that has it (:func:`build_B`).
``phi`` counts every class sum at once, one key per cell, at the least
point of each ``N``-orbit of points, reads the other rows through the
action (:func:`build_phi`) and keeps, for each class sum, the sparse
integer row ``{k: count}`` of its nonzero counts at the orbit
representatives.  Those
rows are the only form of ``phi``: every reader below takes them as they
are, and only ``cardyfrob algebra`` lists them densely, at the output edge.

Nothing here stores the 0/1 matrices ``nu(beta)`` and ``rho(n)`` on the
permutation module of ``X``: the checks below read the orbit table instead,
and the oracles in :mod:`cardyfrob.oracles` build the dense integer matrices
while they run.  ``B`` keeps its catalog as its permutation model.  What the
model proves, and why, is stated once at
:class:`~cardyfrob.actions.ModelPremises`, the record that
:meth:`~cardyfrob.actions.FieldCatalog.premises` decides anew on each call.
:func:`verify_all`, the verifier of ``cardyfrob check``, decides one record
for ``verify_equipped(B)`` and :func:`verify_cardy_frobenius`.  The checks
of the Cardy structure that the model, ``phi`` counted from it (premise
(d)) and ``A`` recounted as the class algebra of ``N`` (premise (e)) prove
are listed, with the argument, at :func:`_model_certificate`: under all of
them phi-homomorphism, phi-star and the Cardy condition pass without their
walks.  When a premise fails, each check runs its walk, and no walk of the
``phi`` checks or the Cardy condition reads the model, so no result depends
on it.  The walks of the ``nu`` checks count the chains, in the codes
``i * dim + j`` of premise (a) and :func:`build_B`, and scan the invariance
that premise (a) does, in one pass over every cell and row each.

Everything is exact; :func:`verify_cardy_frobenius` checks the full axiom
pack, including the Cardy condition, and reports one result per axiom.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby
from math import lcm
from operator import add, eq, itemgetter
from typing import Callable, Mapping, Sequence

from . import linalg
from .actions import (
    BoundaryField,
    FieldCatalog,
    InteriorField,
    ModelPremises,
    _is_ratio,
    _is_trace_form,
    _moved_orbits,
    build_catalog,
    build_conjugation_setup,
    coset_nset,
)
from .errors import ConsistencyError
from .frobenius import (
    AlgebraElement,
    CheckResult,
    EquippedFrobeniusAlgebra,
    _first_difference,
    _first_noncentral,
    _scaled,
    _verify_equipped,
    commutator_rows,
    multiplication_traces,
    verify_equipped,
)
from .groups import FiniteGroup, Subgroup


@dataclass(frozen=True, eq=False)
class CardyFrobeniusAlgebra:
    """The full structure ``(A, B, phi, U)`` for one group action."""

    catalog: FieldCatalog
    A: EquippedFrobeniusAlgebra
    B: EquippedFrobeniusAlgebra
    phi: tuple[dict[int, int], ...]
    u: AlgebraElement

    def phi_apply(self, x: AlgebraElement) -> AlgebraElement:
        """Image of an ``A`` element under ``phi``, as a ``B`` element."""
        weights = ((self.A.index(label), value) for label, value in x.coeffs.items())
        image = linalg.row_times(weights, self.phi)
        return AlgebraElement({self.B.basis[j]: value for j, value in image.items()})

    @cached_property
    def _pairing_rows(self) -> tuple[int, list[dict[int, int]]]:
        """``(e, G)``: ``G = Phi . F_B = F_A . phi*``, the one product of
        ``phi`` and ``F_B``, as sparse ``int`` rows over their least common
        denominator ``e``, one per ``A`` position, zeros dropped; made on
        first use, after ``F_A`` is inverted, so a singular ``F_A`` raises
        ``ConsistencyError`` for every reader."""
        self.A.form_inverse()
        product = (linalg.row_times(row.items(), self.B.form) for row in self.phi)
        return _scaled([{j: v for j, v in row.items() if v} for row in product])

    @cached_property
    def _phi_dual(self) -> tuple[int, list[dict[int, int]]]:
        """``(d, rows)``: ``phi* = F_A^-1 . G``, the adjoint of ``phi`` (see
        :mod:`cardyfrob.hurwitz`), derived from :attr:`_pairing_rows` on
        first use and kept as ``G`` is, over its own denominator ``d``."""
        e, rows = self._pairing_rows
        dual = (linalg.row_times(row.items(), rows) for row in self.A.form_inverse())
        return _scaled([{j: Fraction(v, e) for j, v in row.items() if v} for row in dual])

    def phi_dual_pairing(
        self, x: Mapping[int, Fraction | int], y: Mapping[int, Fraction | int]
    ) -> Fraction:
        """``l_A(x . phi*(y)) = x^T G y`` for sparse vectors ``{position:
        coefficient}``, ``x`` of ``A`` and ``y`` of ``B``, with ``G`` the
        cached rows of ``Phi . F_B``: one pass over the positions of ``x`` and
        ``y``, ``x`` scaled by the lcm of its denominators (1 when ``x`` is
        integral) and one ``Fraction`` at the end."""
        e, rows = self._pairing_rows
        scale = lcm(*[c.denominator for c in x.values()])
        total = 0
        for i, c in x.items():
            row = rows[i]
            paired = 0
            for j, value in y.items():
                if j in row:
                    paired += value * row[j]
            total += c.numerator * (scale // c.denominator) * paired
        return Fraction(total, scale * e)

    def phi_dual_apply(self, y: AlgebraElement) -> AlgebraElement:
        """Image of a ``B`` element under ``phi*``, divided at this edge."""
        d, rows = self._phi_dual
        vector = [(self.B.index(b), c) for b, c in y.coeffs.items()]
        numerators = (sum(c * row[j] for j, c in vector if j in row) for row in rows)
        return AlgebraElement({a: Fraction(c, d) for a, c in zip(self.A.basis, numerators)})


# -- builders ----------------------------------------------------------------


def build_A(catalog: FieldCatalog) -> EquippedFrobeniusAlgebra:
    """The class-sum algebra of ``N`` with ``l_A = (coefficient of e) / |N|``.

    Each product of two class sums is tallied over the group table, and the
    pairing ``l_A(E_i E_j)`` is its count of the identity over ``|N|``.
    """
    n_group = catalog.nset.group
    fields = catalog.interior
    rep_to_index = {field.representative: i for i, field in enumerate(fields)}
    identity = catalog.interior_labels.index(catalog.identity_interior_label)
    e = fields[identity].representative
    rows: list[dict[int, dict[int, int]]] = []
    pairing: list[dict[int, int]] = []
    for left in fields:
        products: dict[int, dict[int, int]] = {}
        totals: dict[int, int] = {}
        for j, right in enumerate(fields):
            tally: dict[int, int] = {}
            for a in left.members:
                row = n_group.table[a]
                for b in right.members:
                    product = row[b]
                    tally[product] = tally.get(product, 0) + 1
            products[j] = {
                rep_to_index[rep]: count for rep, count in tally.items() if rep in rep_to_index
            }
            if e in tally:
                totals[j] = tally[e]
        rows.append(products)
        pairing.append(totals)
    return EquippedFrobeniusAlgebra._from_counts(
        basis=catalog.interior_labels,
        rows=rows,
        pairing=(n_group.order, pairing),
        linear_form={identity: Fraction(1, n_group.order)},
        involution=_star_positions(fields),
        unit={identity: 1},
    )


def _star_positions(fields: Sequence[InteriorField | BoundaryField]) -> tuple[int, ...]:
    """The position of each field's star, -1 (no position) for an unknown label."""
    position = {field.label: i for i, field in enumerate(fields)}
    return tuple(position.get(field.star, -1) for field in fields)


def build_B(catalog: FieldCatalog) -> EquippedFrobeniusAlgebra:
    """The boundary-field algebra, with intersection numbers as structure constants.

    ``B`` is the orbital algebra of the action of ``N`` on ``X``, so
    ``c_ij^k = #{y : (x, y) in O_i, (y, z) in O_j}`` is the same at every pair
    ``(x, z)`` of ``O_k`` and is counted at its representative: row ``x`` and
    column ``z`` of the orbit table, added as codes ``i * dim + j``, are
    tallied over ``y``.  The orbits are counted one block at a time, a run
    of consecutive positions whose representatives lie in one row ``x``.
    On a catalog from :func:`~cardyfrob.actions.build_catalog` a block is
    the orbits that meet the row of the least point of one ``N``-orbit of
    points, and only that block writes their rows.  Within a block each
    product ``e_i e_j`` is an integer word with one digit
    ``(k - first) * (|X| + 1) + c_ij^k`` per ``k``, in increasing ``k``,
    where ``first`` is the block's first position.  At the end of the block
    each distinct word becomes one dict ``{k: c_ij^k}`` (:func:`_expansion`),
    shared by every ``(i, j)`` that has it.  A row that a later
    block meets again, on a broken catalog, gets a merged private copy, so
    no shared dict changes.  The rows that
    :meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra._from_counts` keeps
    are the ones that storing one count at a time would give: row ``i``
    lists each ``j`` when first seen and each expansion its ``k`` in
    increasing order.

    The pairing is counted with the constants: ``l(e_k) = tr(nu_k) / |N|``
    is nonzero only at the ``k`` with diagonal cells, so the tally of each
    such ``k`` times ``tr(nu_k)`` adds into ``|N| l(e_i e_j) = sum_k c_ij^k
    tr(nu_k)``, the pairing that
    :meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra.from_indices` would
    recompute from the constants.  It must be ``|O_i| / |N|`` at ``(i, i*)``
    and zero elsewhere, and this is asserted; each row of the pairing then
    holds one entry, so its key order is the recomputed one too.  The
    algebra keeps ``catalog`` as its permutation model, which
    :func:`~cardyfrob.frobenius.verify_equipped` certifies anew on each
    call; premise (a) counts the chains again, apart from this builder, at
    one orbit of each transposed pair
    (:class:`~cardyfrob.actions.ModelPremises`).
    """
    n_order = catalog.nset.group.order
    size = catalog.nset.size
    fields = catalog.boundary
    dim = len(fields)
    table = catalog.orbit_table
    diagonal_count = catalog.diagonal_counts()
    # One int object per position, the keys of every row and expansion.
    positions = list(range(dim))
    rows: list[dict[int, dict[int, int]]] = [{} for _ in fields]
    pairing: list[dict[int, int]] = [{} for _ in fields]
    step = size + 1
    for x, block in groupby(range(dim), key=lambda k: fields[k].representative[0]):
        block = list(block)
        first, last = block[0], block[-1]
        base = len(block) * step
        row_codes = [i * dim for i in table[x * size : (x + 1) * size]]
        words: dict[int, int] = {}
        totals: dict[int, int] = {}
        word_of = words.get
        for k in block:
            tally = Counter(map(add, row_codes, table[fields[k].representative[1] :: size]))
            digit = (k - first) * step
            for code, count in tally.items():
                words[code] = word_of(code, 0) * base + digit + count
            trace = diagonal_count[k]
            if trace:
                for code, count in tally.items():
                    totals[code] = totals.get(code, 0) + count * trace
        here = positions[first : last + 1]
        made: dict[int, dict[int, int]] = {}
        for code, word in words.items():
            expansion = made.get(word)
            if expansion is None:
                expansion = made[word] = _expansion(word, base, step, here)
            i, j = divmod(code, dim)
            row = rows[i]
            if j in row:
                # Met by an earlier block, on a broken catalog: a merged
                # private copy, so no shared dict changes.
                row[j] = {**row[j], **expansion}
            else:
                row[positions[j]] = expansion
        for code, total in totals.items():
            i, j = divmod(code, dim)
            row = pairing[i]
            row[positions[j]] = row.get(j, 0) + total
    algebra = EquippedFrobeniusAlgebra._from_counts(
        basis=catalog.boundary_labels,
        rows=rows,
        pairing=(n_order, pairing),
        linear_form={k: Fraction(count, n_order) for k, count in diagonal_count.items()},
        involution=_star_positions(fields),
        unit={k: 1 for k, field in enumerate(fields) if field.is_diagonal},
    )
    for i, field in enumerate(fields):
        x, z = field.representative
        star = table[z * size + x]
        form = algebra.form[i]
        if len(form) != 1 or not _is_ratio(form.get(star, 0), field.size, n_order):
            raise ConsistencyError(
                "the pairing recomputed from structure constants is not "
                f"|O|/|N| at ({field.label}, {fields[star].label}) and zero "
                "elsewhere in its row"
            )
    algebra._model = catalog
    return algebra


def _expansion(word: int, base: int, step: int, positions: Sequence[int]) -> dict[int, int]:
    """The expansion ``{positions[k]: count}`` that a word of ``build_B`` encodes.

    The word holds one digit ``k * step + count`` per constant in base
    ``base``, the least ``k`` most significant; every count lies in
    ``1..step-1``, so no digit is zero.  A one-digit word, the most common,
    is read without the digit loop.
    """
    if word < base:
        k, count = divmod(word, step)
        return {positions[k]: count}
    digits = []
    while word:
        word, digit = divmod(word, base)
        digits.append(digit)
    expansion = {}
    for digit in reversed(digits):
        k, count = divmod(digit, step)
        expansion[positions[k]] = count
    return expansion


def build_phi(catalog: FieldCatalog) -> tuple[dict[int, int], ...]:
    """Expand each class sum ``rho(E_alpha)`` over the boundary basis.

    ``rho(E_alpha)`` has the entry ``#{n in alpha : n y = x}`` at ``(x, y)``.
    Every class is counted at once: element ``n`` weighs ``sum_alpha
    base^alpha`` over the fields that list it (:func:`_class_weights`), and
    ``base`` exceeds every count, so the key of a cell, the sum of the
    weights of the ``n`` that send ``y`` to ``x``, is its vector of counts
    with one digit per class.

    Only the root of each ``N``-orbit of points, its least point ``x0``, is
    counted: one pass over ``N`` adds the weight of ``g^-1`` at ``(x0, g
    x0)``, ``|N|`` steps.  Every other row is transported.  For ``x = g x0``
    and ``m = g^-1 n g``, ``#{n in alpha : n y = x} = #{m in g^-1 alpha g :
    m g^-1 y = x0}``, so row ``x`` is row ``x0`` read through the row of
    ``g^-1``, as :func:`~cardyfrob.actions.build_catalog` fills the orbit
    table.  That needs ``g^-1 alpha g = alpha``: a field that is not closed
    under conjugation would be read as its conjugate, so the weights are
    checked to be a class function first, and such a field raises
    :class:`ConsistencyError` naming it.

    ``rho(E_alpha)`` is constant on pair orbits, so its expansion over the
    ``nu`` matrices is read off at the orbit representatives.  As a guard
    against a broken catalog, every cell's key must equal the key at the
    representative of its orbit: one comparison per cell, however many
    classes there are (:func:`_first_fault`).  A failure names the first
    class in interior order that differs somewhere, at the least orbit
    position where it does.  Row ``alpha`` maps each boundary
    position ``k`` to its nonzero count, ``k`` increasing.  Besides the
    catalog it holds the root keys, one per point, and one row of keys at
    a time, never a ``|X|^2`` list.
    """
    nset, fields = catalog.nset, catalog.interior
    act_table, size, table = nset.act_table, nset.size, catalog.orbit_table
    base, weight = _class_weights(fields, nset.group)
    # For each point x = g x0, its root x0 and the row of one g^-1; the keys
    # of row x0, at the points of its orbit (every other cell holds 0).
    root_of = [0] * size
    back: list[tuple[int, ...] | None] = [None] * size
    roots: dict[int, dict[int, int]] = {}
    inverses = nset.group.inverses
    inverse_weights = list(map(weight.__getitem__, inverses))
    inverse_rows = list(map(act_table.__getitem__, inverses))
    for x0 in range(size):
        if back[x0] is None:
            keys = roots[x0] = {}
            for y, key, inverse_row in zip(
                map(itemgetter(x0), act_table), inverse_weights, inverse_rows
            ):
                keys[y] = keys.get(y, 0) + key
                back[y] = inverse_row
                root_of[y] = x0
    expected = [
        roots[root_of[x]].get(back[x][y], 0)
        for x, y in (field.representative for field in catalog.boundary)
    ]
    fault = _first_fault(table, size, roots, back, expected, base)
    if fault is not None:
        a, k = fault
        raise ConsistencyError(
            f"class sum {fields[a].label} is not constant on the orbit "
            f"of {catalog.boundary[k].label}; phi is undefined"
        )
    rows: list[dict[int, int]] = [{} for _ in fields]
    digits: dict[int, list[tuple[int, int]]] = {}
    for k, key in enumerate(expected):
        if key:
            if key not in digits:
                digits[key] = _digits(key, base)
            for a, count in digits[key]:
                rows[a][k] = count
    return tuple(rows)


def _first_fault(
    table: array,
    size: int,
    roots: dict[int, dict[int, int]],
    back: Sequence[Sequence[int]],
    expected: Sequence[int],
    base: int,
) -> tuple[int, int] | None:
    """The least ``(alpha, k)`` such that a cell of orbit ``k`` differs in
    the digit of class ``alpha`` from the representative's key, or ``None``
    when every cell holds its representative's key.

    The keys of row ``x`` are those of its root ``x0`` read through
    ``back[x]``, and each is compared with the key that the table's orbit
    at that cell expects.
    """
    faults = []
    for x0, keys in roots.items():
        dense = [0] * size
        for y, key in keys.items():
            dense[y] = key
        for x in keys:
            cells = table[x * size : (x + 1) * size]
            row = list(map(dense.__getitem__, back[x]))
            wanted = list(map(expected.__getitem__, cells))
            if row != wanted:
                faults.append(
                    min(
                        (_first_digit(key, want, base), k)
                        for key, want, k in zip(row, wanted, cells)
                        if key != want
                    )
                )
    return min(faults, default=None)


def _class_weights(
    fields: Sequence[InteriorField], group: FiniteGroup
) -> tuple[int, list[int]]:
    """The base and the weight ``sum_alpha base^alpha`` of each element of
    ``group``, one term per listing of the element in field ``alpha``.

    ``base`` exceeds every field's number of members, so no digit of a sum
    of weights carries.  The weights must be a class function, checked on
    the generators: ``s`` permutes ``group`` by conjugation, so a finite
    field closed under it is fixed by it, and by every word in the
    generators.  Otherwise the first field in interior order that some
    generator moves is named.
    """
    base = 1 + max((len(field.members) for field in fields), default=0)
    weight = [0] * group.order
    for a, field in enumerate(fields):
        digit = base**a
        for member in field.members:
            weight[member] += digit
    moved = set()
    for s in group.generators:
        # s n s^-1 for each n: row s, then column s^-1, of the table.
        column = list(map(itemgetter(group.inverses[s]), group.table))
        moved_weight = list(map(weight.__getitem__, map(column.__getitem__, group.table[s])))
        if moved_weight != weight:
            moved.update(
                _first_digit(a, b, base) for a, b in zip(moved_weight, weight) if a != b
            )
    if moved:
        raise ConsistencyError(
            f"interior field {fields[min(moved)].label} is not closed under "
            "conjugation in N; phi is undefined"
        )
    return base, weight


def _first_digit(a: int, b: int, base: int) -> int:
    """The least position at which ``a != b`` differ in base ``base``."""
    position = 0
    while a % base == b % base:
        a, b, position = a // base, b // base, position + 1
    return position


def _digits(key: int, base: int) -> list[tuple[int, int]]:
    """The nonzero digits ``(position, digit)`` of ``key`` in base ``base``."""
    digits = []
    position = 0
    while key:
        key, digit = divmod(key, base)
        if digit:
            digits.append((position, digit))
        position += 1
    return digits


def build_U(catalog: FieldCatalog) -> AlgebraElement:
    """The element ``U = sum_{n in N} E_{n^2}`` expanded over class sums: a class's
    coefficient is its field's ``d``, as ``n -> n^-1`` maps the square roots
    of ``m`` onto those of ``m^-1``."""
    return AlgebraElement({field.label: field.d for field in catalog.interior if field.d})


def build_cardy_frobenius(catalog: FieldCatalog) -> CardyFrobeniusAlgebra:
    return CardyFrobeniusAlgebra(
        catalog=catalog,
        A=build_A(catalog),
        B=build_B(catalog),
        phi=build_phi(catalog),
        u=build_U(catalog),
    )


def cardy_from_pair(
    group: FiniteGroup, k: Subgroup, digest: str = ""
) -> CardyFrobeniusAlgebra:
    """One-call construction from a (G, K) pair."""
    setup = build_conjugation_setup(group, k, digest=digest)
    catalog = build_catalog(setup.nset, provenance=setup.digest)
    return build_cardy_frobenius(catalog)


# -- verification ------------------------------------------------------------


def verify_cardy_frobenius(h: CardyFrobeniusAlgebra) -> list[CheckResult]:
    """Check the axioms tying ``A``, ``B``, ``phi``, ``U`` and ``nu`` together.

    The equipped-Frobenius axioms of ``A`` and ``B`` separately are the job of
    :func:`cardyfrob.frobenius.verify_equipped`; this list covers the mixed
    structure: ``phi`` is a unital homomorphism into the center compatible
    with stars, ``U`` squares to the twisted Casimir of ``A`` and maps to the
    twisted Casimir of ``B``, the Cardy condition, and the permutation model,
    checked on the orbits without building its matrices (``nu``
    multiplicativity, star = transpose, pairing and linear form recovered
    from traces, equivariance, Burnside dimension count).

    The premises are decided once per call, nothing cached
    (:meth:`~cardyfrob.actions.FieldCatalog.premises`); the checks they
    prove are listed at :func:`_model_certificate`.
    """
    return _verify_cardy_frobenius(h, h.catalog.premises(h.B))


def verify_all(h: CardyFrobeniusAlgebra) -> dict[str, list[CheckResult]]:
    """Every check of ``cardyfrob check``, keyed by scope: ``"A"`` and
    ``"B"`` hold :func:`~cardyfrob.frobenius.verify_equipped` of ``h.A`` and
    ``h.B``, ``"cardy"`` holds :func:`verify_cardy_frobenius` of ``h``.

    ``build_B`` keeps ``h.catalog`` as the model of ``h.B``, so one record
    of premises serves both ``B`` and the Cardy structure; it is decided
    once per call, nothing cached.
    """
    premises = h.catalog.premises(h.B)
    return {
        "A": verify_equipped(h.A),
        "B": _verify_equipped(h.B, premises.orbital),
        "cardy": _verify_cardy_frobenius(h, premises),
    }


# The checks that read ``B`` at the positions a row of ``phi`` holds, and all that read a row.
_INDEXING_B_AT_PHI = frozenset({"phi-homomorphism", "phi-central", "phi-star", "phi-u", "cardy"})
_READING_PHI = _INDEXING_B_AT_PHI | {"phi-unit"}


def _verify_cardy_frobenius(
    h: CardyFrobeniusAlgebra, premises: ModelPremises
) -> list[CheckResult]:
    """:func:`verify_cardy_frobenius` on premises computed for ``h.catalog``
    and ``h.B`` by the caller.  A ``phi`` without ``dim A`` rows fails the
    checks that read a row, naming both counts; a row that leaves ``0 ..
    dim B - 1`` fails those that read ``B`` at its positions, naming it."""
    certified = _model_certificate(h, premises)
    inside = set(range(h.B.dim))
    leaving = next((a for a, row in zip(h.A.basis, h.phi) if not row.keys() <= inside), None)
    miscounted = len(h.phi) != h.A.dim

    def run(name: str, check: Callable[[CardyFrobeniusAlgebra], CheckResult]) -> CheckResult:
        if name in certified:
            return CheckResult(name, True)
        if miscounted and name in _READING_PHI:
            return CheckResult(name, False, f"phi has {len(h.phi)} rows, dim A is {h.A.dim}")
        if leaving is not None and name in _INDEXING_B_AT_PHI:
            return CheckResult(name, False, f"phi({leaving}) leaves B")
        return check(h)

    return [
        run("phi-unit", _check_phi_unit),
        run("phi-homomorphism", _check_phi_homomorphism),
        run("phi-central", _check_phi_central),
        run("phi-star", _check_phi_star),
        _check_u_squared(h),
        run("phi-u", _check_phi_u),
        _check_u_coefficients(h),
        run("cardy", _check_cardy),
        run("nu-multiplicative", _check_nu_multiplicative),
        _check_nu_star_transpose(h, premises.traces),
        _check_form_from_traces(h, premises.traces),
        _check_linear_form_from_traces(h),
        run("nu-equivariant", _check_nu_equivariant),
        run("burnside-dimension", _check_burnside_dimension),
    ]


def _model_certificate(h: CardyFrobeniusAlgebra, premises: ModelPremises) -> set[str]:
    """The checks that the permutation model and the class algebra prove.

    (a) is ``premises.modelled``, ``h.catalog.is_model_of(h.B)``: ``nu`` is
    an injective homomorphism from ``B`` into the rational ``|X| x |X|``
    matrices, and the orbit table is invariant under ``N``.  (a) is the
    statement of nu-multiplicative, and the invariance, ``orbit(n x, n y) ==
    orbit(x, y)``, is that of nu-equivariant, so (a) certifies both.  (a)
    has also found ``sum_n fix(n)^2 == |N| |boundary|`` and ``|boundary| ==
    dim B``, whose conjunction is burnside-dimension, so (a) certifies it.

    (d) :func:`_phi_is_rho`: ``nu(phi(e_alpha)) = rho(E_alpha)`` at every
    cell.  The table is invariant under ``N``, so ``rho(n) nu(beta_k)
    rho(n)^-1 = nu(beta_k)``: each ``rho(n)``, and so each class sum
    ``rho(E_alpha)``, commutes with every ``nu(beta_k)``.  Then
    ``nu([phi(e_alpha), beta_k]) = 0``, and ``nu`` being injective,
    ``phi(e_alpha)`` is central: (a) and (d) certify phi-central.

    ``premises.orbital`` adds to (a) that ``nu(e_k^*) = nu(e_k)^T`` and
    that the pairing of ``B`` is ``tr(nu_i nu_j) / |N|``; (e)
    :func:`_is_class_algebra` says that ``A`` is the class algebra of ``N``:
    ``E_i E_j = sum_m c_ij^m E_m`` in the group algebra, ``E_i^* =
    E_{i^-1}``, and ``F_A^-1`` pairs ``E_i`` with ``E_i^*`` at ``|N| /
    |C_i|``.  With (a) and (d), every identity below holds after ``nu``,
    and ``nu`` is injective, so each check compares equal vectors:

    * phi-homomorphism: ``nu(sum_m c_ij^m phi(e_m)) = rho(E_i E_j) =
      rho(E_i) rho(E_j) = nu(phi(e_i) phi(e_j))``, ``rho`` being
      multiplicative;
    * phi-star: ``nu(phi(e_i)^*) = rho(E_i)^T = sum_{n in C_i} rho(n^-1)
      = rho(E_{i^-1}) = nu(phi(e_i^*))``;
    * cardy: each pair of ``O_k`` is ``n (x, y)``, for a fixed ``(x, y)``
      of ``O_k``, for ``|Aut b_k| = |N| / |O_k|`` elements ``n``, so
      ``sum_k |Aut b_k| nu_k W nu_k^T = sum_n tr(W rho(n)) rho(n^-1)``
      for every matrix ``W``.  The right side ``tr(L_i R_j) = sum_k
      [b_k](b_i b_k b_j)`` reads ``nu_i nu_k nu_j`` at the representative
      of ``O_k``, where it is constant on ``O_k``, so it is ``sum_k
      tr(nu_i nu_k nu_j nu_k^T) / |O_k|``, and the identity with ``W =
      nu_j`` makes it ``sum_n tr(nu_i rho(n^-1)) tr(nu_j rho(n)) / |N|``.
      Entry ``(alpha, i)`` of ``Phi F_B`` is ``tr(rho(E_alpha) nu_i) /
      |N|``, ``|C_alpha|`` times ``tr(rho(n) nu_i) / |N|`` at any ``n``
      of ``C_alpha`` because ``nu_i`` commutes with ``rho(N)``, so the
      left side ``(Phi F_B)^T F_A^-1 (Phi F_B)`` is the same sum with
      ``n`` and ``n^-1`` exchanged.

    (a), orbital, (d) and (e) certify these three.  phi-u is not
    certified: it reads the twisted Casimir that ``B`` keeps once summed,
    which no premise recounts, so it walks.  Without (a) nothing is
    certified, and (d) is not computed; (e) is computed only when (a),
    orbital and (d) hold.
    """
    if not premises.modelled:
        return set()
    certified = {"nu-multiplicative", "nu-equivariant", "burnside-dimension"}
    if _phi_is_rho(h):
        certified.add("phi-central")
        if premises.orbital and _is_class_algebra(h):
            certified |= {"phi-homomorphism", "phi-star", "cardy"}
    return certified


def _phi_is_rho(h: CardyFrobeniusAlgebra) -> bool:
    """Premise (d): the rows of ``phi`` are those :func:`build_phi` counts
    from the catalog.

    :func:`build_phi` reads ``rho(E_alpha)`` at the orbit representatives
    and checks that every cell's key, its vector of class-sum counts, is
    the key of its orbit's representative, so equal rows give ``sum_k
    phi_alpha,k nu(beta_k) = rho(E_alpha)`` at every cell.  A catalog on
    whose orbits a class sum is not constant, or whose interior fields are
    not closed under conjugation, for which it raises
    :class:`ConsistencyError`, fails.
    """
    try:
        return h.phi == build_phi(h.catalog)
    except ConsistencyError:
        return False


def _is_class_algebra(h: CardyFrobeniusAlgebra) -> bool:
    """Premise (e), given (d): ``h.A`` is the class algebra of ``N`` on the
    catalog's interior fields, counted apart from :func:`build_A`.

    The fields must be the conjugacy classes of ``N``.  Together their
    members must list every element once, and each representative must lie
    in its own field.  (d) has found each field closed under conjugation
    (:func:`_class_weights`), so each is a union of classes holding its
    representative's, and ``|C| |C_N(rep)| == |N|`` makes it that class
    alone.  Then each product ``E_i E_j`` is central, and its
    coefficient at the representative ``z`` of ``C_m`` is ``c_ij^m``: one
    ``Counter`` per representative tallies ``(class(a), class(a^-1 z))``
    over ``a`` in ``N``, ``|N| dim A`` steps, and each count is looked up
    in the store and the matches counted, as
    :func:`~cardyfrob.actions._chains_match` does for ``B``.  The star must
    send each class to the class of inverses, ``l`` must be ``1 / |N|`` at
    the identity's class and 0 elsewhere, the unit ``E_e``, row ``i`` of
    the pairing ``{i*: |C_i| / |N|}`` and row ``i`` of its inverse, which
    cardy reads and ``A`` keeps once computed, ``{i*: |N| / |C_i|}``.
    """
    a, fields, group = h.A, h.catalog.interior, h.catalog.nset.group
    order, dim, table = group.order, len(fields), group.table
    members = sorted(chain.from_iterable(field.members for field in fields))
    if a.dim != dim or members != list(range(order)):
        return False
    class_of = [0] * order
    for position, field in enumerate(fields):
        for member in field.members:
            class_of[member] = position
    representatives = [field.representative for field in fields]
    if not all(0 <= z < order and class_of[z] == m for m, z in enumerate(representatives)):
        return False
    sizes = [len(field.members) for field in fields]
    for z, size in zip(representatives, sizes):
        if size * sum(map(eq, table[z], map(itemgetter(z), table))) != order:
            return False
    identity = class_of[0]
    stars = [class_of[group.inverses[z]] for z in representatives]
    if (
        a.involution != tuple(stars)
        or a.unit.coeffs != {a.basis[identity]: 1}
        or not all(
            _is_ratio(value, int(m == identity), order) for m, value in enumerate(a.linear_form)
        )
        or not _is_monomial(a.form, stars, sizes, [order] * dim)
        or not _is_monomial(a.form_inverse(), stars, [order] * dim, sizes)
    ):
        return False
    rows = list(map(a.left_products, range(dim)))
    codes = [position * dim for position in class_of]
    matched = 0
    for m, z in enumerate(representatives):
        column = list(map(itemgetter(z), table))
        tally = Counter(
            map(add, codes, map(class_of.__getitem__, map(column.__getitem__, group.inverses)))
        )
        for code, count in tally.items():
            i, j = divmod(code, dim)
            expansion = rows[i].get(j)
            if expansion is None or expansion.get(m) != count:
                return False
        matched += len(tally)
    return matched == sum(map(len, chain.from_iterable(row.values() for row in rows)))


def _is_monomial(
    rows: Sequence[Mapping[int, Fraction]],
    columns: Sequence[int],
    numerators: Sequence[int],
    denominators: Sequence[int],
) -> bool:
    """Whether row ``i`` of ``rows`` is ``{columns[i]: numerators[i] /
    denominators[i]}`` and nothing else, compared in integers."""
    return len(rows) == len(columns) and all(
        row.keys() == {column} and _is_ratio(row[column], numerator, denominator)
        for row, column, numerator, denominator in zip(rows, columns, numerators, denominators)
    )


def _check_phi_unit(h: CardyFrobeniusAlgebra) -> CheckResult:
    # phi(1_A) = sum_m u_m phi[m] against the unit of B, in index space.
    a, b = h.A, h.B
    image = linalg.row_times(((a.index(label), u) for label, u in a.unit.coeffs.items()), h.phi)
    unit = {b.index(label): value for label, value in b.unit.coeffs.items()}
    passed = _first_difference(image, unit) is None
    return CheckResult("phi-unit", passed, None if passed else "phi(1_A) != 1_B")


def _check_phi_homomorphism(h: CardyFrobeniusAlgebra) -> CheckResult:
    # phi(e_i e_j) == phi(e_i) phi(e_j) for every basis pair of A, in index
    # space: sum_m c^A_ij^m phi[m] against sum_{s,t} phi[i][s] phi[j][t] c^B_st
    # over the stored constants of B.  The first failing (i, j) in basis
    # order is the witness.
    a, b = h.A, h.B
    for i, left_row in enumerate(h.phi):
        for j, right_row in enumerate(h.phi):
            image = linalg.row_times(a.pair_products(i, j).items(), h.phi)
            if _first_difference(image, b.index_product(left_row, right_row)) is not None:
                return CheckResult("phi-homomorphism", False, f"({a.basis[i]}, {a.basis[j]})")
    return CheckResult("phi-homomorphism", True)


def _check_phi_central(h: CardyFrobeniusAlgebra) -> CheckResult:
    # [phi(a), e_b] == sum_s phi_as [e_s, e_b] == 0 for every b, over the
    # commutator rows of B; the least failing key names the first failing b.
    rows = commutator_rows(h.B)
    for label, row in zip(h.A.basis, h.phi):
        b = _first_noncentral(h.B.dim, rows, row.items())
        if b is not None:
            return CheckResult("phi-central", False, f"({label}, {h.B.basis[b]})")
    return CheckResult("phi-central", True)


def _check_phi_star(h: CardyFrobeniusAlgebra) -> CheckResult:
    # phi(e_i^*) == phi(e_i)^*: row star_A(i) of phi against row i moved
    # along the involution of B; the first failing i is the witness.
    star_b = h.B.involution
    for i, star in enumerate(h.A.involution):
        moved = {star_b[s]: value for s, value in h.phi[i].items()}
        if _first_difference(h.phi[star], moved) is not None:
            return CheckResult("phi-star", False, h.A.basis[i])
    return CheckResult("phi-star", True)


def _check_u_squared(h: CardyFrobeniusAlgebra) -> CheckResult:
    try:
        twisted = h.A.twisted_casimir()
    except ConsistencyError as exc:
        return CheckResult("u-squared", False, str(exc))
    passed = h.A.multiply(h.u, h.u) == twisted
    return CheckResult("u-squared", passed, None if passed else "U^2 != K_A*")


def _check_phi_u(h: CardyFrobeniusAlgebra) -> CheckResult:
    try:
        twisted = h.B.twisted_casimir()
    except ConsistencyError as exc:
        return CheckResult("phi-u", False, str(exc))
    passed = h.phi_apply(h.u) == twisted
    return CheckResult("phi-u", passed, None if passed else "phi(U) != K_B*")


def _check_u_coefficients(h: CardyFrobeniusAlgebra) -> CheckResult:
    for field in h.catalog.interior:
        if h.u.coefficient(field.label) != field.d:
            return CheckResult("u-coefficients", False, field.label)
    return CheckResult("u-coefficients", True)


def _check_cardy(h: CardyFrobeniusAlgebra) -> CheckResult:
    """The Cardy condition ``(phi*(x), phi*(y))_A = tr W_{x,y}`` on basis pairs.

    The left side is the matrix ``G^T phi*`` in integers, ``G = Phi F_B =
    F_A phi*``: row ``i`` is ``sum_alpha P[alpha][i] D[alpha]``, with ``P =
    e G`` and ``D = d phi*`` the rows :attr:`CardyFrobeniusAlgebra._pairing_rows`
    and :attr:`CardyFrobeniusAlgebra._phi_dual` keep for evaluation, ``P``
    read by columns.  The right side, ``tr W_{i,j} = tr(L_i R_j)`` times ``d
    e``, comes from the constants of ``B``
    (:func:`cardyfrob.frobenius.multiplication_traces`), never the model.
    The witness is the first failing ``i`` in basis order and its least
    failing ``j``; a degenerate pairing of ``A`` fails it with the text of
    :meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra.form_inverse`'s
    error, as form-invertible reports it.  :func:`_model_certificate` says
    when :func:`verify_cardy_frobenius` passes it without the walk.
    """
    b = h.B
    try:
        e, pairing = h._pairing_rows
        d, dual = h._phi_dual
    except ConsistencyError as exc:
        return CheckResult("cardy", False, str(exc))
    columns: list[list[tuple[int, int]]] = [[] for _ in range(b.dim)]
    for a, row in enumerate(pairing):
        for i, value in row.items():
            columns[i].append((a, value))
    for i, (column, trace) in enumerate(zip(columns, multiplication_traces(b, right=True))):
        scaled = {j: d * e * value for j, value in trace.items()}
        j = _first_difference(linalg.row_times(column, dual), scaled)
        if j is not None:
            witness = f"({b.basis[i]}, {b.basis[j]})"
            return CheckResult("cardy", False, witness)
    return CheckResult("cardy", True)


def _check_nu_multiplicative(h: CardyFrobeniusAlgebra) -> CheckResult:
    """``nu(beta_i) nu(beta_j) == sum_k c_ij^k nu(beta_k)``, at every cell.

    :func:`verify_cardy_frobenius` passes this check when premise (a),
    :meth:`~cardyfrob.actions.FieldCatalog.is_model_of`, holds: that is
    this identity, decided at the representative of each orbit alone.
    Otherwise the chain tally at every cell ``(x, z)``, row ``x`` and column
    ``z`` of the orbit table added as codes ``i * dim + j`` as
    :func:`build_B` does, must be the stored ``{i * dim + j: c_ij^k}`` of
    its orbit ``k``, over the catalog's positions.  One pass tallies every
    cell: the codes of each row are made once, and the columns are read
    once, as ``array('i')`` slices.  The witness is the least failing
    ``(i, j, x, z)``.
    """
    catalog, fields = h.catalog, h.catalog.boundary
    dim, size, table = len(fields), catalog.nset.size, catalog.orbit_table
    expected: dict[int, dict[int, int | Fraction]] = {}
    for i, j, expansion in h.B.stored_products():
        # A position past the catalog would alias another code.
        if i < dim and j < dim:
            for k, value in expansion.items():
                expected.setdefault(k, {})[i * dim + j] = value
    columns = [table[z::size] for z in range(size)]
    faults = []
    for x in range(size):
        row = table[x * size : (x + 1) * size]
        codes = [i * dim for i in row]
        for z, (k, column) in enumerate(zip(row, columns)):
            tally = Counter(map(add, codes, column))
            wanted = expected.get(k, {})
            if tally != wanted:
                keys = tally.keys() | wanted.keys()
                faults.append((min(c for c in keys if tally[c] != wanted.get(c, 0)), x, z))
    if not faults:
        return CheckResult("nu-multiplicative", True)
    code, x, z = min(faults)
    i, j = divmod(code, dim)
    witness = f"({fields[i].label}, {fields[j].label}) at {(x, z)}"
    return CheckResult("nu-multiplicative", False, witness)


def _check_nu_star_transpose(
    h: CardyFrobeniusAlgebra, traces: Counter[tuple[int, int]]
) -> CheckResult:
    # nu(beta_k)^T == nu(beta_k*): every swapped pair of O_k lies in O_k*,
    # and O_k* is no larger.  The keys (k, orbit of the swapped pair) of
    # ``traces``, the premises' record (ModelPremises), say where the swapped
    # pairs of O_k lie.  The first failing field is the witness.
    fields = h.catalog.boundary
    stars = [h.catalog.boundary_position(field.star) for field in fields]
    failing = {k for k, swapped in traces if stars[k] != swapped}
    failing.update(k for k, field in enumerate(fields) if field.size != fields[stars[k]].size)
    if failing:
        return CheckResult("nu-star-transpose", False, fields[min(failing)].label)
    return CheckResult("nu-star-transpose", True)


def _check_form_from_traces(
    h: CardyFrobeniusAlgebra, traces: Counter[tuple[int, int]]
) -> CheckResult:
    # (beta_i, beta_j)_B == tr(nu_i nu_j) / |N|, the number of (x, y) in O_i
    # with (y, x) in O_j: ``traces``, the premises' record (ModelPremises),
    # counts them all.  A B of another dimension than the catalog's orbit
    # count fails, naming both.  Each entry is compared in integers; when
    # every count finds its entry and the form stores no other, the check
    # passes without the walk.  The walk lists the failing (i, j) over the
    # stored entries and the trace keys, and the least is the witness.
    n_order = h.catalog.nset.group.order
    fields = h.catalog.boundary
    form = h.B.form
    if h.B.dim != len(fields):
        return CheckResult("form-from-traces", False, _orbit_count_witness(h))
    if _is_trace_form(form, traces, n_order):
        return CheckResult("form-from-traces", True)
    stored = ((i, j) for i, row in enumerate(form) for j in row)
    failing = [
        (i, j)
        for i, j in chain(stored, traces)
        if not _is_ratio(form[i].get(j, 0), traces[i, j], n_order)
    ]
    if failing:
        i, j = min(failing)
        return CheckResult("form-from-traces", False, f"({fields[i].label}, {fields[j].label})")
    return CheckResult("form-from-traces", True)


def _check_linear_form_from_traces(h: CardyFrobeniusAlgebra) -> CheckResult:
    # l_B(beta_i) == tr(nu_i) / |N|, the diagonal cells of O_i, in integers;
    # a B of another dimension than the catalog's orbit count fails, naming both.
    if h.B.dim != len(h.catalog.boundary):
        return CheckResult("linear-form-from-traces", False, _orbit_count_witness(h))
    n_order = h.catalog.nset.group.order
    diagonal = h.catalog.diagonal_counts()
    for i, field in enumerate(h.catalog.boundary):
        if not _is_ratio(h.B.linear_form[i], diagonal[i], n_order):
            return CheckResult("linear-form-from-traces", False, field.label)
    return CheckResult("linear-form-from-traces", True)


def _orbit_count_witness(h: CardyFrobeniusAlgebra) -> str:
    return f"dim B is {h.B.dim}, the catalog has {len(h.catalog.boundary)} orbits"


def _check_nu_equivariant(h: CardyFrobeniusAlgebra) -> CheckResult:
    """``rho(n) nu(beta) rho(n)^-1 == nu(beta)`` for every ``n`` in ``N``.

    That is ``orbit(n x, n y) == orbit(x, y)``.  :func:`verify_cardy_frobenius`
    passes this check when premise (a) holds: its first conjunct is this
    invariance, decided on the generator rows of ``N``.  Otherwise the same
    scan reads every row of ``N``; the witness is the least moved orbit and
    the least ``n`` that moves it.
    """
    catalog = h.catalog
    fault = min(_moved_orbits(catalog.orbit_table, catalog.nset.act_table), default=None)
    if fault is None:
        return CheckResult("nu-equivariant", True)
    k, n = fault
    return CheckResult("nu-equivariant", False, f"({catalog.boundary[k].label}, n={n})")


def _check_burnside_dimension(h: CardyFrobeniusAlgebra) -> CheckResult:
    nset = h.catalog.nset
    n_order = nset.group.order
    burnside = nset.squared_fixed_points()
    passed = burnside == n_order * h.B.dim
    witness = None if passed else f"{burnside}/{n_order} != {h.B.dim}"
    return CheckResult("burnside-dimension", passed, witness)


# -- Hecke comparison --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeckeComparison:
    """Result of comparing ``B`` for a coset action against the Hecke algebra."""

    checks: tuple[CheckResult, ...]
    boundary_dimension: int
    double_coset_count: int


def hecke_check(group: FiniteGroup, s: Subgroup) -> HeckeComparison:
    """Compare ``B`` of the coset action ``G on G/S`` with the Hecke algebra.

    The orbit of a coset pair ``(gS, hS)`` corresponds to the double coset
    ``S g^-1 h S``; the structure constants of ``B`` must equal the double
    coset convolution counts ``#{v in D_i : v^-1 w in D_j} / |S|`` evaluated
    at a representative ``w`` of the target double coset.  Both facts are
    checked by brute force over ``G``, without the orbit table: for each
    target ``k`` one pass over ``G`` tallies the pairs (double coset of
    ``v``, double coset of ``v^-1 w_k``), column ``k`` of the convolution,
    ``dim |G|`` group products in all.  The witness is the first failing
    ``(i, j, k)`` in lexicographic order.  The representative ``(S, wS)`` of
    each orbit gives ``w``, the least element of ``wS``: by the numbering of
    :func:`~cardyfrob.actions.coset_nset`, the least ``g`` that takes point
    0 to that point, read off column 0 of the action table.
    """
    nset = coset_nset(group, s)
    catalog = build_catalog(nset)
    b_algebra = build_B(catalog)
    # Number the double cosets S g S in order of their least element.
    double_coset = [-1] * group.order
    count = 0
    for g in range(group.order):
        if double_coset[g] < 0:
            for a in s.elements:
                row = group.table[group.mul(a, g)]
                for b in s.elements:
                    double_coset[row[b]] = count
            count += 1
    # Each boundary orbit has a representative (S, wS); send it to S w S.
    representatives = [field.representative for field in catalog.boundary]
    column = [row[0] for row in nset.act_table]
    witnesses = [column.index(y) for _, y in representatives]
    position = {double_coset[w]: k for k, w in enumerate(witnesses)}
    bijection = all(x == 0 for x, _ in representatives) and (
        len(position) == len(witnesses) == count
    )
    witness = "bijection failed, convolution not comparable"
    if bijection:
        orbit = [position[target] for target in double_coset]
        inverse = [orbit[v] for v in group.inverses]
        columns: list[dict[tuple[int, int], int | Fraction]] = [{} for _ in witnesses]
        for i, j, expansion in b_algebra.stored_products():
            for k, value in expansion.items():
                columns[k][i, j] = value
        failing = []
        for k, (w, column) in enumerate(zip(witnesses, columns)):
            # (orbit(v), orbit(v^-1 w)) as (orbit(u^-1), orbit(u w)) over all u;
            # the v of each pair form a union of cosets v S, so |S| divides.
            tally = Counter(zip(inverse, [orbit[row[w]] for row in group.table]))
            expected = {pair: n // s.order for pair, n in tally.items()}
            failing += [
                (i, j, k, column.get((i, j), 0), expected.get((i, j), 0))
                for i, j in column.keys() | expected.keys()
                if column.get((i, j), 0) != expected.get((i, j), 0)
            ]
        witness = None
        if failing:
            i, j, k, actual, wanted = min(failing)
            labels = b_algebra.basis
            witness = f"({labels[i]}, {labels[j]}, {labels[k]}): {actual} != {wanted}"
    return HeckeComparison(
        checks=(
            CheckResult(
                "double-coset-bijection",
                bijection,
                None if bijection else f"{len(witnesses)} orbits vs {count} double cosets",
            ),
            CheckResult("hecke-convolution", witness is None, witness),
        ),
        boundary_dimension=b_algebra.dim,
        double_coset_count=count,
    )
