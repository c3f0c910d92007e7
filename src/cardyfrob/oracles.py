"""Brute-force oracles, independent of the structure-constant code paths.

Every Hurwitz oracle counts the monodromy data of the coverings, as the paper
defines the numbers: paths in ``X`` and class functions of ``N`` for
surfaces with a boundary (:func:`covering_oracle`), and words over ``N`` for
closed surfaces, counted in one tuple loop: an element of each interior
field's class, then a letter per handle, the commutator ``[x, y]`` of a
pair, or per crosscap, the square ``x^2`` of an element, with product the
identity.  None touches the multiplication tables of ``A`` or ``B``, so
agreement with :func:`cardyfrob.hurwitz.evaluate` is a genuine cross-check,
not a tautology.

The dense permutation model (the ``nu`` and ``rho`` matrices on ``X``) lives
here and nowhere else; each dense check builds it anew.  The dense
scans of associativity, form symmetry, form invariance and the star
anti-automorphism, :func:`dense_axiom_oracle`, live here too: they read the
structure constants and the form like the checks they stand behind, but
through plain loops over every basis pair or triple that share no code with
the sparse walks of :func:`cardyfrob.frobenius.verify_equipped`.
:func:`element_axiom_oracle` and :func:`cardy_axiom_oracle` keep the
``AlgebraElement`` loops of the unit, centrality and ``phi`` checks and check
``nu`` multiplicativity and equivariance by dense matrix products over every
element of ``N``, against the index-table checks and their certificates on
generators.  :func:`cardy_condition_oracle` sums the ``phi*`` image of
each basis element of ``B`` in dense ``Fraction`` loops, pairs them in
``A`` and sums the traces ``tr(L_i R_j)`` by label-keyed multiplies,
against the cached integer rows and the traces the Cardy check reads off
the constants of ``B``.  :func:`conjugation_table_oracle`
conjugates by every coset representative, against the action rows built
from generators, and :func:`is_associative` scans every triple of a group
table.
:func:`subgroup_lattice_oracle` finds the subgroups over ``K`` by adjoining
every element to every found subgroup and closing under products, with no
bitmask, generating list or class cover.  :func:`b_side_value` keeps the
``B``-side formula of bounded surfaces that :func:`~cardyfrob.hurwitz.evaluate` left.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from itertools import product as iter_product
from math import prod
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .actions import ConjugationSetup, FieldCatalog, InteriorField
from .cardy import CardyFrobeniusAlgebra
from .errors import ConsistencyError, InputError, ResourceError
from .frobenius import AlgebraElement, CheckResult, EquippedFrobeniusAlgebra
from .groups import FiniteGroup, Subgroup
from .hurwitz import SurfaceSpec
from .rationals import format_fraction

DEFAULT_TUPLE_BOUND = 10**8


@dataclass(frozen=True)
class OracleResult:
    """An oracle value plus the size of the tuple domain it stands for.

    ``tuples_examined`` reports the conceptual enumeration domain (the count
    the defining sum ranges over); implementations close the final factor by
    a precomputed table, so the work actually done is smaller by one |N|.
    The covering oracle enumerates no tuples and reports 0.
    """

    value: Fraction
    tuples_examined: int


def _class_members(
    n_group: FiniteGroup, fields: Sequence[InteriorField]
) -> list[tuple[int, ...]]:
    for field in fields:
        if field.conjugacy_class.parent is not n_group:
            raise InputError(
                f"interior field {field.label} belongs to a different group"
            )
    return [field.members for field in fields]


def _letters(n_group: FiniteGroup, orientable: bool) -> list[int]:
    """The letters a closed word is made of, with multiplicity: the commutator
    ``[x, y]`` of every pair (a handle), or the square ``x^2`` of every
    element (a crosscap)."""
    if orientable:
        return [n_group.commutator(x, y) for x, y in iter_product(range(n_group.order), repeat=2)]
    return [row[x] for x, row in enumerate(n_group.table)]


def closed_orientable_oracle(
    n_group: FiniteGroup,
    genus: int,
    fields: Sequence[InteriorField],
    tuple_bound: int = DEFAULT_TUPLE_BOUND,
) -> OracleResult:
    """Count tuples ``a_1..a_m, x_1,y_1..x_g,y_g`` with product of the ``a_i``
    and the ``g`` commutators equal to the identity, divided by ``|N|``."""
    if genus < 0:
        raise InputError(f"genus must be nonnegative, got {genus}")
    return _closed_count(n_group, True, genus, fields, tuple_bound)


def closed_nonorientable_oracle(
    n_group: FiniteGroup,
    crosscaps: int,
    fields: Sequence[InteriorField],
    tuple_bound: int = DEFAULT_TUPLE_BOUND,
) -> OracleResult:
    """Count tuples ``a_1..a_m, x_1..x_{2g}`` with ``a_1...a_m x_1^2...x_{2g}^2``
    equal to the identity, divided by ``|N|``."""
    if crosscaps < 1:
        raise InputError(f"crosscap count must be positive, got {crosscaps}")
    return _closed_count(n_group, False, crosscaps, fields, tuple_bound)


def _closed_count(
    n_group: FiniteGroup,
    orientable: bool,
    factors: int,
    fields: Sequence[InteriorField],
    tuple_bound: int,
) -> OracleResult:
    """Count the words of one element of each field and ``factors`` letters
    whose product is the identity, divided by ``|N|``: the tally of the letters
    closes each fold of the fields and ``factors - 1`` letters, and a sphere's
    word closes on the identity alone, as if by one identity letter."""
    members = _class_members(n_group, fields)
    order = n_group.order
    domain = prod(map(len, members)) * order ** ((2 if orientable else 1) * factors)
    if domain > tuple_bound:
        raise ResourceError(
            f"oracle enumeration domain {format_fraction(domain)} exceeds the bound {tuple_bound}"
        )
    table, inverses = n_group.table, n_group.inverses
    letters = _letters(n_group, orientable) if factors else [0]
    closing = Counter(letters)
    count = 0
    for choice in iter_product(*members):
        base = 0
        for a in choice:
            base = table[base][a]
        for middle in iter_product(letters, repeat=max(factors - 1, 0)):
            acc = base
            for letter in middle:
                acc = table[acc][letter]
            count += closing.get(inverses[acc], 0)
    return OracleResult(Fraction(count, order), domain)


def covering_oracle(
    catalog: FieldCatalog, spec: SurfaceSpec, tuple_bound: int = DEFAULT_TUPLE_BOUND
) -> OracleResult:
    """Count the monodromy data of a surface with a boundary, divided by ``|N|``.

    A contour word ``b_1 .. b_m`` gives the class function ``t(n)``, the
    number of paths ``p_0 -> .. -> p_m`` in ``X`` with ``(p_{i-1}, p_i)`` in
    ``O_{b_i}`` and ``p_m = n p_0``.  The number is ``(1/|N|) sum_n t_1(n)
    (r * t~_2 * .. * t~_s)(n)``, where ``t~(n) = t(n^-1)``, ``*`` is
    convolution over ``N`` and ``r = 1_{alpha_1} * .. * c^{*g}`` with ``c(m)
    = #{(x, y) : [x, y] = m}``, or ``q(m) = #{x : x^2 = m}`` to the crosscap
    count.  This is the trace of the permutation model expanded into counts:
    each ``nu(b)`` commutes with ``rho(N)``, ``rho(K_A) = rho(c)``, ``rho(U)
    = rho(q)``, and as ``|Aut b|`` is the order of the stabiliser of a pair
    of ``O_b``, the Casimir legs around a contour are ``rho(t~)``.  Reads
    only the catalog and the tables of ``N``; raises :class:`ResourceError`
    when its estimated steps pass ``tuple_bound``, before any count.
    """
    interior = [catalog.interior_position(label) for label in spec.interior]
    words = [[catalog.boundary_position(label) for label in contour] for contour in spec.boundary]
    if not spec.boundary:
        raise InputError("the covering oracle requires at least one boundary contour")
    classes, size = catalog.interior, catalog.nset.size
    n_group = catalog.nset.group
    order, table, inverses = n_group.order, n_group.table, n_group.inverses
    # Each N-orbit of points is the diagonal of one orbit of pairs, of the
    # same size; the paths are walked from its representative's point.
    leaders = [(f.representative[0], f.size) for f in catalog.boundary if f.is_diagonal]
    factors = int(spec.genus) if spec.orientable else spec.crosscaps
    convolutions = len(spec.interior) + 2 * factors.bit_length() + len(words)
    steps = (
        len(leaders) * sum(size + (len(word) - 1) * size * size for word in words)
        + (order * order if spec.orientable and factors else order)
        + order * len(classes) * convolutions
    )
    if steps > tuple_bound:
        raise ResourceError(f"oracle step estimate {steps} exceeds the bound {tuple_bound}")
    class_of = {m: i for i, field in enumerate(classes) for m in field.members}
    representatives = [field.representative for field in classes]

    def convolve(f: list, g: list) -> list:
        # (f * g)(n) = sum_a f(a) g(a^-1 n), at the representative n of each class.
        weighted = [(a, f[i]) for a, i in class_of.items() if f[i]]
        return [
            sum(w * g[class_of[table[inverses[a]][n]]] for a, w in weighted)
            for n in representatives
        ]

    one = r = [int(n == 0) for n in representatives]
    if factors:
        tally = Counter(_letters(n_group, spec.orientable))
        r = linalg.power([tally[n] for n in representatives], factors, convolve, one)
    for k in interior:
        r = convolve([int(i == k) for i in range(len(classes))], r)
    totals = [_class_totals(catalog, word, leaders) for word in words]
    for total in totals[1:]:
        # t is constant on each class, so the total is |C| t(C) exactly.
        stars = (catalog.interior_position(field.star) for field in classes)
        r = convolve(r, [total[star] // classes[star].size for star in stars])
    return OracleResult(Fraction(sum(map(mul, totals[0], r)), order), 0)


def _class_totals(
    catalog: FieldCatalog, word: Sequence[int], leaders: Sequence[tuple[int, int]]
) -> list[int]:
    """``sum_{m in C} t(m)`` of a contour word for each class ``C`` of ``N``.

    As the orbit table is ``N``-invariant, the paths from ``h x0`` are those
    from ``x0`` moved by ``h``, so the total is ``sum_{x0} |N x0| sum_{m in
    C} P(m x0)`` over one point ``x0`` per orbit of points, where ``P(y)``
    counts the paths from ``x0`` to ``y``, walked one table row at a time.
    """
    table, size, act_table = catalog.orbit_table, catalog.nset.size, catalog.nset.act_table
    totals = [0] * len(catalog.interior)
    for x0, orbit_size in leaders:
        paths = {x0: 1}
        for b in word:
            reached: dict[int, int] = {}
            for y, count in paths.items():
                row = table[y * size : (y + 1) * size]
                for z in compress(range(size), map(b.__eq__, row)):
                    reached[z] = reached.get(z, 0) + count
            paths = reached
        if paths:
            for i, field in enumerate(catalog.interior):
                ends = sum(paths.get(act_table[m][x0], 0) for m in field.members)
                totals[i] += orbit_size * ends
    return totals


def b_side_value(h: CardyFrobeniusAlgebra, spec: SurfaceSpec) -> Fraction:
    """``l_B(phi(a) C_1 tau(C_2) .. tau(C_s))``, ``a`` the ``A`` factor and
    ``C_j`` contour ``j``'s word, by labelled products in ``B``: the
    reference for :func:`~cardyfrob.hurwitz.evaluate`, which reads ``phi*``."""
    A, B = h.A, h.B
    a = A.product(A.basis_element(label) for label in spec.interior)
    if spec.orientable:
        a = A.multiply(a, A.power(A.casimir(), int(spec.genus)))
    else:
        a = A.multiply(a, A.power(h.u, spec.crosscaps))
    current = h.phi_apply(a)
    for position, contour in enumerate(spec.boundary):
        word = B.product(B.basis_element(label) for label in contour)
        current = B.multiply(current, B.casimir_sandwich(word) if position else word)
    return B.linear(current)


def commutator_casimir_check(h: CardyFrobeniusAlgebra) -> CheckResult:
    """Preliminary identity behind the closed oracles: ``K_A = sum_{x,y} [x,y]``.

    The commutator tally over ``N x N``, regrouped into class sums, must equal
    the Casimir element of ``A``.
    """
    tally = Counter(_letters(h.catalog.nset.group, True))
    coeffs = {field.label: tally[field.representative] for field in h.catalog.interior}
    expected = AlgebraElement({label: value for label, value in coeffs.items() if value})
    casimir = h.A.casimir()
    passed = casimir == expected
    witness = None if passed else f"K_A = {casimir!r} but the tally gives {expected!r}"
    return CheckResult("commutator-casimir", passed, witness)


@dataclass(frozen=True, eq=False)
class _PermutationModel:
    """Integer matrices on the permutation module spanned by ``X``.

    ``nu[label]`` is the 0/1 matrix of a boundary field (ones exactly at the
    pairs of its orbit), and ``rho_class[label]`` the matrix of an interior
    field's class sum, with entry ``#{n in class : n y = x}`` at ``(x, y)``.
    """

    nu: dict[str, list[list[int]]]
    rho_class: dict[str, list[list[int]]]


def _permutation_model(h: CardyFrobeniusAlgebra) -> _PermutationModel:
    """The permutation model of ``h``, built from the catalog and the action table."""
    nset, size = h.catalog.nset, h.catalog.nset.size
    nu = {}
    for field, orbit in zip(h.catalog.boundary, h.catalog.orbits()):
        matrix = [[0] * size for _ in range(size)]
        for x, y in orbit:
            matrix[x][y] = 1
        nu[field.label] = matrix
    rho_class = {}
    for field in h.catalog.interior:
        matrix = [[0] * size for _ in range(size)]
        for n in field.members:
            for y, x in enumerate(nset.act_table[n]):
                matrix[x][y] += 1
        rho_class[field.label] = matrix
    return _PermutationModel(nu, rho_class)


def dense_axiom_oracle(alg: EquippedFrobeniusAlgebra) -> list[CheckResult]:
    """Four axioms by dense scans of every basis pair or triple.

    Associativity and form invariance scan all ``dim**3`` triples, form
    symmetry and the star anti-automorphism all ``dim**2`` pairs.  The slow
    reference for the sparse checks of
    :func:`cardyfrob.frobenius.verify_equipped`: every result, witness
    included, must equal the one that function reports under the same name.
    """
    return [
        _dense_associativity(alg),
        _dense_form_symmetric(alg),
        _dense_form_invariance(alg),
        _dense_involution_antiautomorphism(alg),
    ]


def _dense_associativity(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    n = alg.dim
    rows = [alg.left_products(i) for i in range(n)]
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            pij = row_i.get(j)
            row_j = rows[j]
            for k in range(n):
                pjk = row_j.get(k)
                if pij is None and pjk is None:
                    continue
                lhs: dict[int, Fraction] = {}
                if pij:
                    for m, c in pij.items():
                        pmk = rows[m].get(k)
                        if pmk:
                            for out, value in pmk.items():
                                lhs[out] = lhs.get(out, Fraction(0)) + c * value
                rhs: dict[int, Fraction] = {}
                if pjk:
                    for m, c in pjk.items():
                        pim = row_i.get(m)
                        if pim:
                            for out, value in pim.items():
                                rhs[out] = rhs.get(out, Fraction(0)) + c * value
                if {o: v for o, v in lhs.items() if v} != {o: v for o, v in rhs.items() if v}:
                    witness = f"({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]})"
                    return CheckResult("associativity", False, witness)
    return CheckResult("associativity", True)


def _dense_form_symmetric(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    for i in range(alg.dim):
        for j in range(i):
            if alg.form[i].get(j, 0) != alg.form[j].get(i, 0):
                witness = f"({alg.basis[i]}, {alg.basis[j]})"
                return CheckResult("form-symmetric", False, witness)
    return CheckResult("form-symmetric", True)


def _dense_involution_antiautomorphism(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # (e_i e_j)^* == e_j^* e_i^* for all basis pairs.
    n = alg.dim
    involution = alg.involution
    for i in range(n):
        for j in range(n):
            expansion = alg.pair_products(i, j)
            starred = {involution[out]: value for out, value in expansion.items()}
            swapped = alg.pair_products(involution[j], involution[i])
            if starred != dict(swapped):
                witness = f"({alg.basis[i]}, {alg.basis[j]})"
                return CheckResult("involution-antiautomorphism", False, witness)
    return CheckResult("involution-antiautomorphism", True)


def _dense_form_invariance(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    # l((e_i e_j) e_k) == l(e_i (e_j e_k)) for all basis triples.
    n = alg.dim
    rows = [alg.left_products(i) for i in range(n)]
    form = alg.form
    for i in range(n):
        form_i = form[i]
        for j in range(n):
            pij = rows[i].get(j)
            for k in range(n):
                pjk = rows[j].get(k)
                if pij is None and pjk is None:
                    continue
                lhs = Fraction(0)
                if pij:
                    for m, c in pij.items():
                        entry = form[m].get(k, 0)
                        if entry:
                            lhs += c * entry
                rhs = Fraction(0)
                if pjk:
                    for m, c in pjk.items():
                        entry = form_i.get(m, 0)
                        if entry:
                            rhs += c * entry
                if lhs != rhs:
                    witness = f"({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]})"
                    return CheckResult("form-invariance", False, witness)
    return CheckResult("form-invariance", True)


def element_axiom_oracle(alg: EquippedFrobeniusAlgebra) -> list[CheckResult]:
    """The unit and casimir-central axioms by ``AlgebraElement`` multiplies.

    The slow reference for the index-space walks of
    :func:`cardyfrob.frobenius.verify_equipped`: each basis element is
    multiplied by the unit, and by the Casimir element, on both sides.
    """
    return [_element_unit(alg), _element_casimir_central(alg)]


def _element_unit(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    for label in alg.basis:
        e = alg.basis_element(label)
        if alg.multiply(alg.unit, e) != e or alg.multiply(e, alg.unit) != e:
            return CheckResult("unit", False, f"unit fails on {label}")
    return CheckResult("unit", True)


def _element_casimir_central(alg: EquippedFrobeniusAlgebra) -> CheckResult:
    try:
        casimir = alg.casimir()
    except ConsistencyError as exc:
        return CheckResult("casimir-central", False, str(exc))
    for label in alg.basis:
        e = alg.basis_element(label)
        if alg.multiply(casimir, e) != alg.multiply(e, casimir):
            return CheckResult("casimir-central", False, label)
    return CheckResult("casimir-central", True)


def cardy_axiom_oracle(h: CardyFrobeniusAlgebra) -> list[CheckResult]:
    """The phi axioms by ``AlgebraElement`` operations, and the permutation
    model axioms nu-multiplicative and nu-equivariant by dense integer matrices.

    The slow reference for the same six checks of
    :func:`cardyfrob.cardy.verify_cardy_frobenius`, in its order, witnesses
    included: phi-unit, phi-homomorphism, phi-central and phi-star go
    through :meth:`~cardyfrob.cardy.CardyFrobeniusAlgebra.phi_apply` and
    label-keyed multiplies.  The matrices are those of
    :func:`_permutation_model`, multiplied by :func:`cardyfrob.linalg.mat_mul`;
    ``rho(n)`` is read off the action table for every ``n``.
    """
    return [
        _element_phi_unit(h),
        _element_phi_homomorphism(h),
        _element_phi_central(h),
        _element_phi_star(h),
        _dense_nu_multiplicative(h),
        _dense_nu_equivariant(h),
    ]


def cardy_condition_oracle(h: CardyFrobeniusAlgebra) -> CheckResult:
    """The Cardy condition ``(phi*(beta_i), phi*(beta_j))_A = tr W_{i,j}`` by
    dense ``Fraction`` loops and label-keyed ``AlgebraElement`` operations
    over every basis pair.

    The slow reference for the cardy check of
    :func:`cardyfrob.cardy.verify_cardy_frobenius`, witness included:
    ``phi*(beta_i) = sum_{alpha, gamma} (F_A^-1)_{alpha gamma} (Phi
    F_B)_{gamma i} e_alpha`` is summed entry by entry from the stored
    inverse of ``F_A``, ``phi`` and the stored ``F_B``, sharing no code with
    the cached rows of :class:`~cardyfrob.cardy.CardyFrobeniusAlgebra`, and
    the images are paired through ``A.bilinear``.  The right side ``tr
    W_{i,j} = sum_k [beta_k](beta_i beta_k beta_j)`` multiplies basis
    elements through ``B.multiply``.  The witness is the first failing ``i``
    in basis order and its least failing ``j``; a degenerate pairing of
    ``A`` fails it with the text of ``form_inverse``'s error.
    """
    a, b = h.A, h.B
    try:
        inverse = a.form_inverse()
    except ConsistencyError as exc:
        return CheckResult("cardy", False, str(exc))
    phi_form = [[Fraction(0)] * b.dim for _ in h.phi]
    for gamma, row in enumerate(h.phi):
        for m in range(b.dim):
            if row.get(m, 0):
                for i in range(b.dim):
                    phi_form[gamma][i] += row[m] * b.form[m].get(i, 0)
    duals = []
    for i in range(b.dim):
        coeffs = dict.fromkeys(a.basis, Fraction(0))
        for alpha, label in enumerate(a.basis):
            for gamma in range(a.dim):
                coeffs[label] += inverse[alpha].get(gamma, 0) * phi_form[gamma][i]
        duals.append(AlgebraElement(coeffs))
    basis = [b.basis_element(label) for label in b.basis]
    for i, (left, dual) in enumerate(zip(basis, duals)):
        middles = [(label, b.multiply(left, e)) for label, e in zip(b.basis, basis)]
        middles = [(label, middle) for label, middle in middles if not middle.is_zero()]
        for j, (label, right) in enumerate(zip(b.basis, basis)):
            trace = sum(
                (b.multiply(middle, right).coefficient(k) for k, middle in middles),
                Fraction(0),
            )
            if a.bilinear(dual, duals[j]) != trace:
                return CheckResult("cardy", False, f"({b.basis[i]}, {label})")
    return CheckResult("cardy", True)


def _element_phi_unit(h: CardyFrobeniusAlgebra) -> CheckResult:
    passed = h.phi_apply(h.A.unit) == h.B.unit
    return CheckResult("phi-unit", passed, None if passed else "phi(1_A) != 1_B")


def _element_phi_homomorphism(h: CardyFrobeniusAlgebra) -> CheckResult:
    images = {label: h.phi_apply(h.A.basis_element(label)) for label in h.A.basis}
    for left in h.A.basis:
        for right in h.A.basis:
            product = h.A.multiply(h.A.basis_element(left), h.A.basis_element(right))
            if h.phi_apply(product) != h.B.multiply(images[left], images[right]):
                return CheckResult("phi-homomorphism", False, f"({left}, {right})")
    return CheckResult("phi-homomorphism", True)


def _element_phi_star(h: CardyFrobeniusAlgebra) -> CheckResult:
    for label in h.A.basis:
        e = h.A.basis_element(label)
        if h.phi_apply(h.A.star(e)) != h.B.star(h.phi_apply(e)):
            return CheckResult("phi-star", False, label)
    return CheckResult("phi-star", True)


def _element_phi_central(h: CardyFrobeniusAlgebra) -> CheckResult:
    for label in h.A.basis:
        image = h.phi_apply(h.A.basis_element(label))
        for b_label in h.B.basis:
            e = h.B.basis_element(b_label)
            if h.B.multiply(image, e) != h.B.multiply(e, image):
                return CheckResult("phi-central", False, f"({label}, {b_label})")
    return CheckResult("phi-central", True)


def _dense_nu_multiplicative(h: CardyFrobeniusAlgebra) -> CheckResult:
    # nu(b_i) nu(b_j) == sum_k c_ij^k nu(b_k) for every basis pair, from one
    # product nu(b_i) [nu(b_0) | nu(b_1) | ...] per i; the witness is the
    # first failing (i, j) and its least failing entry (x, z).
    model = _permutation_model(h)
    fields = h.catalog.boundary
    size = h.catalog.nset.size
    matrices = [model.nu[field.label] for field in fields]
    wide = [[entry for matrix in matrices for entry in matrix[x]] for x in range(size)]
    entries = [
        [(x, z, entry) for x, row in enumerate(matrix) for z, entry in enumerate(row) if entry]
        for matrix in matrices
    ]
    for i, left in enumerate(fields):
        products = linalg.mat_mul(matrices[i], wide)
        for j, right in enumerate(fields):
            block = slice(j * size, (j + 1) * size)
            product = [row[block] for row in products]
            expected = [[0] * size for _ in range(size)]
            for k, value in h.B.pair_products(i, j).items():
                for x, z, entry in entries[k]:
                    expected[x][z] += value * entry
            if product != expected:
                x, z = min(
                    (x, z)
                    for x in range(size)
                    for z in range(size)
                    if product[x][z] != expected[x][z]
                )
                witness = f"({left.label}, {right.label}) at {(x, z)}"
                return CheckResult("nu-multiplicative", False, witness)
    return CheckResult("nu-multiplicative", True)


def _dense_nu_equivariant(h: CardyFrobeniusAlgebra) -> CheckResult:
    # rho(n) nu(b) == nu(b) rho(n) for every field b and every n in N.
    nset = h.catalog.nset
    nu = _permutation_model(h).nu
    size = nset.size
    rho = []
    for images in nset.act_table:
        matrix = [[0] * size for _ in range(size)]
        for y, x in enumerate(images):
            matrix[x][y] = 1
        rho.append(matrix)
    for field in h.catalog.boundary:
        matrix = nu[field.label]
        for n, rho_n in enumerate(rho):
            if linalg.mat_mul(rho_n, matrix) != linalg.mat_mul(matrix, rho_n):
                return CheckResult("nu-equivariant", False, f"({field.label}, n={n})")
    return CheckResult("nu-equivariant", True)


def is_associative(group: FiniteGroup) -> bool:
    """Exhaustive associativity check over all ``|G|^3`` triples of the table.

    The generator certificates of :mod:`cardyfrob.actions` and
    :mod:`cardyfrob.cardy` hold only for associative tables; tests check the
    tables they build with this."""
    table = group.table
    for a in range(group.order):
        for b in range(group.order):
            ab = table[a][b]
            row_a = table[a]
            for c in range(group.order):
                if table[ab][c] != row_a[table[b][c]]:
                    return False
    return True


def conjugation_table_oracle(setup: ConjugationSetup) -> tuple[tuple[int, ...], ...]:
    """The conjugation action of ``N = N_G(K)/K`` on ``X``, row by row.

    Row ``n`` conjugates every subgroup of ``X`` element by element by the
    least member of the coset ``n``, and looks the image up among the
    subgroups.  The slow reference for the rows that
    :func:`cardyfrob.actions.build_conjugation_setup` takes for generators
    from the class walks of :func:`cardyfrob.groups.subgroup_interval` and
    composes for the rest.
    """
    group = setup.group
    position = {frozenset(s.elements): index for index, s in enumerate(setup.subgroups)}
    reps: dict[int, int] = {}
    for element, coset in setup.projection.items():
        reps[coset] = min(element, reps.get(coset, element))
    return tuple(
        tuple(
            position[frozenset(group.conjugate(reps[n], x) for x in s.elements)]
            for s in setup.subgroups
        )
        for n in range(setup.n_group.order)
    )


def _close_under_products(group: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    current = {0, *seed}
    frontier = set(current)
    table = group.table
    while frontier:
        fresh = set()
        for a in current:
            row = table[a]
            for b in frontier:
                product = row[b]
                if product not in current:
                    fresh.add(product)
        for a in frontier:
            row = table[a]
            for b in current:
                product = row[b]
                if product not in current:
                    fresh.add(product)
        current |= fresh
        frontier = fresh
    return frozenset(current)


def subgroup_lattice_oracle(group: FiniteGroup, subgroup: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups of ``group`` that contain ``subgroup``, by brute force.

    The slow reference for :func:`cardyfrob.groups.subgroups_containing`,
    which must return the same subgroups with the same ``id``s.  Works upward
    by iterated closure: starting from the subgroup itself, adjoin one new
    element in every possible way, closing each result under products by a
    set sweep, until no new subgroups appear.  Since ``<base, x> = <base,
    x b>`` for every ``b`` in ``base``, one ``x`` per left coset ``x base``
    is adjoined.  Results come back sorted by (order, element tuple) with
    ``id`` set to the position.
    """
    if subgroup.parent is not group:
        raise InputError("subgroup does not belong to the given group")
    seed = frozenset(subgroup.elements)
    found: set[frozenset[int]] = {seed}
    frontier: list[frozenset[int]] = [seed]
    while frontier:
        base = frontier.pop()
        covered = set(base)
        for x in range(group.order):
            if x in covered:
                continue
            covered.update(map(group.table[x].__getitem__, base))
            bigger = _close_under_products(group, base | {x})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    ordered = sorted((tuple(sorted(members)) for members in found), key=lambda t: (len(t), t))
    return tuple(
        Subgroup(group, members, id=position) for position, members in enumerate(ordered)
    )


def oracle_for_spec(
    h: CardyFrobeniusAlgebra,
    spec: SurfaceSpec,
    tuple_bound: int = DEFAULT_TUPLE_BOUND,
) -> OracleResult:
    """Dispatch to the oracle matching the surface's shape, from ``h.catalog``."""
    return oracle_for_catalog(h.catalog, spec, tuple_bound=tuple_bound)


def oracle_for_catalog(
    catalog: FieldCatalog,
    spec: SurfaceSpec,
    tuple_bound: int = DEFAULT_TUPLE_BOUND,
) -> OracleResult:
    """Dispatch to the oracle matching the surface's shape.  Every oracle reads
    the catalog and the tables of ``N`` and nothing else, so no algebra is
    built."""
    if spec.boundary:
        return covering_oracle(catalog, spec, tuple_bound=tuple_bound)
    fields = [catalog.interior_field(label) for label in spec.interior]
    n_group = catalog.nset.group
    if spec.orientable:
        return closed_orientable_oracle(
            n_group, int(spec.genus), fields, tuple_bound=tuple_bound
        )
    return closed_nonorientable_oracle(
        n_group, spec.crosscaps, fields, tuple_bound=tuple_bound
    )
