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
cell ``x * |X| + y`` holding ``orbit(x, y)``.  ``B`` reads it as it is:
column ``k`` is the tally of the pairs ``(orbit(x, y), orbit(y, z))`` over
all ``y`` at the representative ``(x, z)`` of ``O_k``, each count put at
once into row ``orbit(x, y)``.  ``phi`` tallies each class sum in a flat
``x * |X| + y`` count list and keeps, for each class sum, the sparse integer row
``{k: count}`` of its nonzero counts at the orbit representatives.  Those
rows are the only form of ``phi``: every reader below takes them as they
are, and only ``cardyfrob algebra`` lists them densely, at the output edge.

Nothing here stores the 0/1 matrices ``nu(beta)`` and ``rho(n)`` on the
permutation module of ``X``: the checks below read the orbit table instead,
and the oracles in :mod:`cardyfrob.oracles` build the dense integer matrices
while they run.  ``B`` keeps its catalog as its permutation model, so that
:func:`~cardyfrob.frobenius.verify_equipped` proves five of its axioms
through ``nu`` when ``B`` is its catalog's orbital algebra: premise (a)
below holds, and the star, pairing, unit and linear form equal the
catalog's counts.  :func:`verify_cardy_frobenius` decides premise (a),
:meth:`~cardyfrob.actions.FieldCatalog.is_model_of`, once per call:
relabelling by each generator of ``N`` must leave the table as it is; each
representative's cell must hold its own orbit, and Burnside's count
``sum_n fix(n)^2 == |N| dim`` then makes each listed orbit a single
``N``-orbit; and the tally of the pairs ``(orbit(x, y), orbit(y, z))`` over
all ``y`` at the representative ``(x, z)`` of each orbit ``O_k`` must find
each count as the stored ``c_ij^k``, every stored constant matched.  (a) is
``nu`` multiplicativity and contains ``nu`` equivariance and the Burnside
dimension count, so all three pass when it holds; when it fails, a walk
over the orbits (and every element, for equivariance) names the witness.
The traces ``tr(nu_i nu_j)``
(:meth:`~cardyfrob.actions.FieldCatalog.trace_counts`) are counted once per
call and serve nu-star-transpose and form-from-traces; both come from
:func:`cardyfrob.frobenius._model_premises`, and :func:`verify_all`, the
verifier of ``cardyfrob check``, computes that record once for
``verify_equipped(B)`` and :func:`verify_cardy_frobenius`.
form-from-traces and linear-form-from-traces compare each rational with its
count over ``|N|`` in integers.  phi-unit, phi-homomorphism and phi-star
compare rows of ``phi`` over the stored constants, the products
``phi(e_i) phi(e_j)`` through
:meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra.index_product`.
phi-central passes when (a) holds and ``phi`` is the row set
:func:`build_phi` counts from the catalog, so that ``nu(phi(e_alpha)) =
rho(E_alpha)``, which commutes with every ``nu(beta)``; otherwise it sums
the commutator rows of ``B`` (:func:`cardyfrob.frobenius.commutator_rows`)
weighted by each row of ``phi``.  The Cardy condition compares the pairing
of the ``phi*`` images, in integers scaled once, with the traces
``tr(L_i R_j)``, counted on the orbit table under (a)
(:meth:`~cardyfrob.actions.FieldCatalog.cardy_trace_counts`) and from the
stored constants otherwise.

Everything is exact; :func:`verify_cardy_frobenius` checks the full axiom
pack, including the Cardy condition, and reports one result per axiom.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from . import linalg
from .actions import (
    BoundaryField,
    FieldCatalog,
    InteriorField,
    build_catalog,
    build_conjugation_setup,
    coset_nset,
)
from .errors import ConsistencyError, InputError
from .frobenius import (
    AlgebraElement,
    CheckResult,
    EquippedFrobeniusAlgebra,
    ModelPremises,
    _first_difference,
    _first_noncentral,
    _is_ratio,
    _is_trace_form,
    _model_premises,
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
    def _phi_dual(self) -> list[dict[int, Fraction]]:
        """Sparse rows of ``phi* = F_A^-1 . Phi . F_B``, the adjoint of ``phi``."""
        phi_form = [linalg.row_times(row.items(), self.B.form) for row in self.phi]
        return [linalg.row_times(row.items(), phi_form) for row in self.A.form_inverse()]

    def phi_dual_apply(self, y: AlgebraElement) -> AlgebraElement:
        """Image of a ``B`` element under the adjoint ``phi*``."""
        y_coeffs = [(self.B.index(label), value) for label, value in y.coeffs.items()]
        return AlgebraElement(
            {
                self.A.basis[i]: sum((row.get(j, 0) * value for j, value in y_coeffs), Fraction(0))
                for i, row in enumerate(self._phi_dual)
            }
        )


# -- builders ----------------------------------------------------------------


def build_A(n_group: FiniteGroup, catalog: FieldCatalog) -> EquippedFrobeniusAlgebra:
    """The class-sum algebra of ``N`` with ``l_A = (coefficient of e) / |N|``.

    Each product of two class sums is tallied over the group table, and the
    pairing ``l_A(E_i E_j)`` is its count of the identity over ``|N|``.
    """
    if catalog.nset.group is not n_group:
        raise InputError("catalog was built for a different acting group")
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
    ``(x, z)`` of ``O_k`` and is counted at its representative: the pairs
    ``(orbit(x, y), orbit(y, z))`` over all ``y``, row ``x`` and column ``z``
    of the catalog's orbit table zipped, are tallied at once.  Each tally
    goes straight into the rows that
    :meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra._from_counts` keeps
    as they are: row ``i`` lists each ``j`` when first seen and each
    expansion its ``k`` in increasing order.  The pairing is counted with
    them: ``l(e_k) = tr(nu_k) / |N|`` is nonzero only at the ``k`` with
    diagonal cells, so the tally of each such ``k`` times ``tr(nu_k)`` adds
    into ``|N| l(e_i e_j) = sum_k c_ij^k tr(nu_k)``, the pairing that
    :meth:`~cardyfrob.frobenius.EquippedFrobeniusAlgebra.from_indices` would
    recompute from the constants.  It must be ``|O_i| / |N|`` at ``(i, i*)``
    and zero elsewhere, and this is asserted; each row of the pairing then
    holds one entry, so its key order is the recomputed one too.  The
    algebra keeps ``catalog`` as its permutation model, which
    :func:`~cardyfrob.frobenius.verify_equipped` certifies anew on each call.
    """
    n_order = catalog.nset.group.order
    size = catalog.nset.size
    fields = catalog.boundary
    table = catalog.orbit_table
    diagonal_count = catalog.diagonal_counts()
    rows: list[dict[int, dict[int, int]]] = [{} for _ in fields]
    pairing: list[dict[int, int]] = [{} for _ in fields]
    for k, field in enumerate(fields):
        x, z = field.representative
        tally = Counter(zip(table[x * size : (x + 1) * size], table[z::size])).items()
        for (i, j), count in tally:
            row = rows[i]
            if j in row:
                row[j][k] = count
            else:
                row[j] = {k: count}
        trace = diagonal_count[k]
        if trace:
            for (i, j), count in tally:
                totals = pairing[i]
                totals[j] = totals.get(j, 0) + count * trace
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
        if algebra.form[i] != {star: Fraction(field.size, n_order)}:
            raise ConsistencyError(
                "the pairing recomputed from structure constants is not "
                f"|O|/|N| at ({field.label}, {fields[star].label}) and zero "
                "elsewhere in its row"
            )
    algebra._model = catalog
    return algebra


def build_phi(catalog: FieldCatalog) -> tuple[dict[int, int], ...]:
    """Expand each class sum ``rho(E_alpha)`` over the boundary basis.

    ``rho(E_alpha)`` has the entry ``#{n in alpha : n y = x}`` at ``(x, y)``,
    tallied in a flat list at ``x * |X| + y``, the layout of the orbit table.
    It is constant on pair orbits, so its expansion over the ``nu`` matrices
    is read off at orbit representatives; as a guard against a broken
    catalog, the counts must equal the representative's count of each cell's
    orbit, one comparison over the whole table.  Row ``alpha`` maps each
    boundary position ``k`` to its nonzero count.
    """
    act_table = catalog.nset.act_table
    size = catalog.nset.size
    table = catalog.orbit_table
    firsts = [x * size + y for x, y in (field.representative for field in catalog.boundary)]
    rows = []
    for field in catalog.interior:
        counts = [0] * len(table)
        for member in field.members:
            for y, x in enumerate(act_table[member]):
                counts[x * size + y] += 1
        row = list(map(counts.__getitem__, firsts))
        if counts != list(map(row.__getitem__, table)):
            k = min(k for k, count in zip(table, counts) if count != row[k])
            raise ConsistencyError(
                f"class sum {field.label} is not constant on the orbit "
                f"of {catalog.boundary[k].label}; phi is undefined"
            )
        rows.append({k: value for k, value in enumerate(row) if value})
    return tuple(rows)


def build_U(n_group: FiniteGroup, catalog: FieldCatalog) -> AlgebraElement:
    """The element ``U = sum_{n in N} E_{n^2}`` expanded over class sums."""
    if catalog.nset.group is not n_group:
        raise InputError("catalog was built for a different acting group")
    square_count: dict[int, int] = {}
    for n in range(n_group.order):
        square = n_group.mul(n, n)
        square_count[square] = square_count.get(square, 0) + 1
    coeffs = {
        field.label: square_count.get(field.representative, 0)
        for field in catalog.interior
    }
    return AlgebraElement({label: value for label, value in coeffs.items() if value})


def build_cardy_frobenius(catalog: FieldCatalog) -> CardyFrobeniusAlgebra:
    n_group = catalog.nset.group
    return CardyFrobeniusAlgebra(
        catalog=catalog,
        A=build_A(n_group, catalog),
        B=build_B(catalog),
        phi=build_phi(catalog),
        u=build_U(n_group, catalog),
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

    Premise (a), :meth:`~cardyfrob.actions.FieldCatalog.is_model_of`, is
    computed once per call, nothing cached, and serves five checks: the
    checks :func:`_model_certificate` proves pass without their walks, and
    the Cardy condition reads its traces off the model.  Every other check,
    and each of these five when its premises fail, runs as it does without
    the model, so the results do not depend on it.  The traces
    :meth:`~cardyfrob.actions.FieldCatalog.trace_counts` are counted once
    per call too, and handed to nu-star-transpose and form-from-traces.
    Both come from :func:`cardyfrob.frobenius._model_premises`, the record
    :func:`verify_all` shares with ``verify_equipped(h.B)``.
    """
    return _verify_cardy_frobenius(h, _model_premises(h.catalog, h.B))


def verify_all(h: CardyFrobeniusAlgebra) -> dict[str, list[CheckResult]]:
    """Every check of ``cardyfrob check``, keyed by scope: ``"A"`` and
    ``"B"`` hold :func:`~cardyfrob.frobenius.verify_equipped` of ``h.A`` and
    ``h.B``, ``"cardy"`` holds :func:`verify_cardy_frobenius` of ``h``.

    ``build_B`` keeps ``h.catalog`` as the model of ``h.B``, so one record
    of premise (a) and the traces serves both ``B`` and the Cardy
    structure; it is computed once per call, nothing cached.
    """
    premises = _model_premises(h.catalog, h.B)
    return {
        "A": verify_equipped(h.A),
        "B": _verify_equipped(h.B, premises),
        "cardy": _verify_cardy_frobenius(h, premises),
    }


# The checks that read ``B`` at the positions a row of ``phi`` holds.
_INDEXING_B_AT_PHI = frozenset({"phi-homomorphism", "phi-central", "phi-star", "phi-u", "cardy"})


def _verify_cardy_frobenius(
    h: CardyFrobeniusAlgebra, premises: ModelPremises
) -> list[CheckResult]:
    """:func:`verify_cardy_frobenius` on premises computed for ``h.catalog``
    and ``h.B`` by the caller.  A row of ``phi`` that leaves ``0 .. dim B - 1``
    fails the checks that read ``B`` at its positions, naming its label."""
    modelled, traces = premises.modelled, premises.traces
    certified = _model_certificate(h, modelled)
    inside = set(range(h.B.dim))
    leaving = next((a for a, row in zip(h.A.basis, h.phi) if not row.keys() <= inside), None)

    def run(name: str, check: Callable[..., CheckResult], *args: object) -> CheckResult:
        if name in certified:
            return CheckResult(name, True)
        if leaving is not None and name in _INDEXING_B_AT_PHI:
            return CheckResult(name, False, f"phi({leaving}) leaves B")
        return check(h, *args)

    return [
        _check_phi_unit(h),
        run("phi-homomorphism", _check_phi_homomorphism),
        run("phi-central", _check_phi_central),
        run("phi-star", _check_phi_star),
        _check_u_squared(h),
        run("phi-u", _check_phi_u),
        _check_u_coefficients(h),
        run("cardy", _check_cardy, modelled),
        run("nu-multiplicative", _check_nu_multiplicative),
        _check_nu_star_transpose(h, traces),
        _check_form_from_traces(h, traces),
        _check_linear_form_from_traces(h),
        run("nu-equivariant", _check_nu_equivariant),
        run("burnside-dimension", _check_burnside_dimension),
    ]


def _model_certificate(h: CardyFrobeniusAlgebra, modelled: bool) -> set[str]:
    """The checks that the permutation model proves, given premise (a).

    ``modelled`` is premise (a), ``h.catalog.is_model_of(h.B)``: ``nu`` is an
    injective homomorphism from ``B`` into the rational ``|X| x |X|``
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

    Without (a) nothing is certified, and (d) is not computed.
    """
    if not modelled:
        return set()
    certified = {"nu-multiplicative", "nu-equivariant", "burnside-dimension"}
    if _phi_is_rho(h):
        certified.add("phi-central")
    return certified


def _phi_is_rho(h: CardyFrobeniusAlgebra) -> bool:
    """Premise (d): the rows of ``phi`` are those :func:`build_phi` counts
    from the catalog.

    :func:`build_phi` reads ``rho(E_alpha)`` at the orbit representatives
    and checks that every cell holds the count of its orbit's
    representative, so equal rows give ``sum_k phi_alpha,k nu(beta_k) =
    rho(E_alpha)`` at every cell.  A catalog on whose orbits a class sum is
    not constant, for which it raises :class:`ConsistencyError`, fails.
    """
    try:
        return h.phi == build_phi(h.catalog)
    except ConsistencyError:
        return False


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
    passed = h.A.multiply(h.u, h.u) == h.A.twisted_casimir()
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


def _check_cardy(h: CardyFrobeniusAlgebra, modelled: bool) -> CheckResult:
    """The Cardy condition ``(phi*(x), phi*(y))_A = tr W_{x,y}`` on basis pairs.

    The left side is the matrix ``(Phi F_B)^T F_A^-1 (Phi F_B)`` in
    integers: ``F_B`` and ``F_A^-1`` are scaled by the lcm of their
    denominators, ``s_B`` and ``s_A``, ``P = Phi s_B F_B`` is transposed
    into sparse columns, and row ``i`` is ``sum_alpha P[alpha][i] (Q
    P)[alpha]`` with ``Q = s_A F_A^-1``, against the traces times ``s_A
    s_B^2``.  The right side ``tr W_{i,j} = tr(L_i R_j)`` is read off the
    model (:meth:`~cardyfrob.actions.FieldCatalog.cardy_trace_counts`) when
    ``modelled``, premise (a), holds, and comes from the sparse trace
    buckets of :func:`cardyfrob.frobenius.multiplication_traces` otherwise.
    The witness is the first failing ``i`` in basis order and its least
    failing ``j``.  A degenerate pairing of ``A`` raises
    :class:`ConsistencyError`.
    """
    b = h.B
    inverse = h.A.form_inverse()
    if modelled:
        traces: list[dict[int, int | Fraction]] = [{} for _ in range(b.dim)]
        for (i, j), count in h.catalog.cardy_trace_counts().items():
            traces[i][j] = count
    else:
        traces = multiplication_traces(b, right=True)
    form_scale, form = _scaled(b.form)
    inverse_scale, scaled_inverse = _scaled(inverse)
    phi_form = [linalg.row_times(row.items(), form) for row in h.phi]
    dual = [linalg.row_times(row.items(), phi_form) for row in scaled_inverse]
    columns: list[list[tuple[int, int | Fraction]]] = [[] for _ in range(b.dim)]
    for a, row in enumerate(phi_form):
        for i, value in row.items():
            if value:
                columns[i].append((a, value))
    scale = inverse_scale * form_scale * form_scale
    for i, (column, trace) in enumerate(zip(columns, traces)):
        scaled = {j: scale * value for j, value in trace.items()}
        j = _first_difference(linalg.row_times(column, dual), scaled)
        if j is not None:
            witness = f"({b.basis[i]}, {b.basis[j]})"
            return CheckResult("cardy", False, witness)
    return CheckResult("cardy", True)


def _check_nu_multiplicative(h: CardyFrobeniusAlgebra) -> CheckResult:
    """``nu(beta_i) nu(beta_j) == sum_k c_ij^k nu(beta_k)``, computed on orbits.

    :func:`verify_cardy_frobenius` passes this check when premise (a),
    :meth:`~cardyfrob.actions.FieldCatalog.is_model_of`, holds: that is
    this identity, decided at the representative of each orbit alone.  When
    it fails, the walk below names the first failing ``(i, j)`` and its
    least failing pair.  Each orbit ``O_i`` is walked once: a chain ``x -> y
    -> z`` lands in the bucket of the orbit ``j`` of ``(y, z)``.
    """
    fields = h.catalog.boundary
    orbits = h.catalog.orbits()
    successors: list[list[tuple[int, int]]] = [[] for _ in range(h.catalog.nset.size)]
    for j, orbit in enumerate(orbits):
        for y, z in orbit:
            successors[y].append((j, z))
    for i, left in enumerate(fields):
        buckets: dict[int, dict[tuple[int, int], int]] = {}
        for x, y in orbits[i]:
            for j, z in successors[y]:
                counts = buckets.setdefault(j, {})
                counts[(x, z)] = counts.get((x, z), 0) + 1
        for j in range(len(fields)):
            counts = buckets.get(j, {})
            expected: dict[tuple[int, int], int | Fraction] = {}
            for k, value in h.B.pair_products(i, j).items():
                for pair in orbits[k]:
                    expected[pair] = expected.get(pair, 0) + value
            if counts == expected:
                continue
            failing = [
                pair
                for pair in counts.keys() | expected.keys()
                if counts.get(pair, 0) != expected.get(pair, 0)
            ]
            if failing:
                witness = f"({left.label}, {fields[j].label}) at {min(failing)}"
                return CheckResult("nu-multiplicative", False, witness)
    return CheckResult("nu-multiplicative", True)


def _check_nu_star_transpose(
    h: CardyFrobeniusAlgebra, traces: Counter[tuple[int, int]]
) -> CheckResult:
    # nu(beta_k)^T == nu(beta_k*): every swapped pair of O_k lies in O_k*,
    # and O_k* is no larger.  ``traces`` is the catalog's trace_counts(), whose
    # keys (k, orbit of the swapped pair) say where the swapped pairs of O_k
    # lie.  The first failing field is the witness.
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
    # with (y, x) in O_j: ``traces``, the catalog's trace_counts(), one pass
    # over the orbit table, counts them all.  Each entry is compared in
    # integers; when every count finds its entry and the form stores no
    # other, the check passes without the walk that names the witness.
    n_order = h.catalog.nset.group.order
    fields = h.catalog.boundary
    form = h.B.form
    if len(form) == len(fields) and _is_trace_form(form, traces, n_order):
        return CheckResult("form-from-traces", True)
    rows: list[dict[int, int]] = [{} for _ in fields]
    for (i, j), count in traces.items():
        rows[i][j] = count
    for i, (left, trace) in enumerate(zip(fields, rows)):
        row = form[i]
        failing = [
            j
            for j in row.keys() | trace.keys()
            if not _is_ratio(row.get(j, 0), trace.get(j, 0), n_order)
        ]
        if failing:
            witness = f"({left.label}, {fields[min(failing)].label})"
            return CheckResult("form-from-traces", False, witness)
    return CheckResult("form-from-traces", True)


def _check_linear_form_from_traces(h: CardyFrobeniusAlgebra) -> CheckResult:
    # l_B(beta_i) == tr(nu_i) / |N|, the diagonal cells of O_i, in integers.
    n_order = h.catalog.nset.group.order
    diagonal = h.catalog.diagonal_counts()
    for i, field in enumerate(h.catalog.boundary):
        if not _is_ratio(h.B.linear_form[i], diagonal[i], n_order):
            return CheckResult("linear-form-from-traces", False, field.label)
    return CheckResult("linear-form-from-traces", True)


def _check_nu_equivariant(h: CardyFrobeniusAlgebra) -> CheckResult:
    """``rho(n) nu(beta) rho(n)^-1 == nu(beta)`` for every ``n`` in ``N``.

    That is ``orbit(n x, n y) == orbit(x, y)``.  :func:`verify_cardy_frobenius`
    passes this check when premise (a) holds: its first conjunct is this
    invariance, decided on the generator rows of ``N``.  Otherwise the walk
    over the orbits and every element names the first failing
    ``(field, n)``.
    """
    nset = h.catalog.nset
    table = h.catalog.orbit_table
    size = nset.size
    for k, (field, orbit) in enumerate(zip(h.catalog.boundary, h.catalog.orbits())):
        for n, row in enumerate(nset.act_table):
            if any(table[row[x] * size + row[y]] != k for x, y in orbit):
                return CheckResult("nu-equivariant", False, f"({field.label}, n={n})")
    return CheckResult("nu-equivariant", True)


def _check_burnside_dimension(h: CardyFrobeniusAlgebra) -> CheckResult:
    nset = h.catalog.nset
    n_order = nset.group.order
    burnside = nset.squared_fixed_points()
    passed = burnside == n_order * h.B.dim
    witness = None if passed else f"{burnside}/{n_order} != {h.B.dim}"
    return CheckResult("burnside-dimension", passed, witness)


def phi_rank(h: CardyFrobeniusAlgebra) -> int:
    """The rank of ``phi`` as a linear map (injectivity iff rank = dim A)."""
    return linalg.rank(h.phi)


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
