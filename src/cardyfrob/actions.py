"""Group actions on finite point sets and the field catalogs they induce.

Given a finite group ``G`` and a subgroup ``K``, the quotient
``N = N_G(K) / K`` acts by conjugation on the set ``X`` of all subgroups of
``G`` containing ``K``.  Interior fields are the conjugacy classes of ``N``;
boundary fields are the ``N``-orbits on ``X x X``.  Both carry canonical
labels (``a<k>`` and ``b<k>``), automorphism orders, and an involution
(``star``) coming from inversion respectively from swapping the two points
of a pair.  The boundary orbits exist in one form only, the flat orbit table
:attr:`FieldCatalog.orbit_table` that every reader indexes.  The catalog is
also the permutation model of the boundary algebra ``B``, and what the model
proves is decided here: :func:`_chains_match` counts the chains for premise
(a) in codes ``i * dim + j``, as the builder of ``B`` and the walk of the
check nu-multiplicative in :mod:`cardyfrob.cardy` do, :func:`_moved_orbits`
scans the table's invariance for premise (a) and for the check
nu-equivariant, and :meth:`FieldCatalog.premises` decides, in one
:class:`ModelPremises` record, what the model proves about an algebra.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add, eq, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConsistencyError, InputError, ResourceError
from .frobenius import EquippedFrobeniusAlgebra
from .groups import (
    POINTS_BOUND,
    ConjugacyClass,
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    is_core_free,
    normalizer,
    quotient_group,
    subgroup_interval,
)


@dataclass(frozen=True)
class NSet:
    """A finite group action: ``act_table[n][x]`` is the image of point ``x``.

    Points are the indices ``0 .. size-1`` and nothing else: what a point
    stands for (a subgroup of ``X``, a coset ``gS``) is known to the builder
    that numbered it.  Construction validates the action axioms, the
    product rule on a generating set of the group (see :meth:`__post_init__`).
    """

    group: FiniteGroup
    act_table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Validate the action axioms, the product rule on generators only.

        Every row must have ``|X|`` entries, the identity must fix every
        point, and each row of a generator ``s`` in the generating set ``S``
        of :attr:`FiniteGroup.generators` must permute the points.  Then
        ``rho(g) rho(s) = rho(gs)`` is checked for every ``g`` and every
        ``s`` in ``S``, ``|N| |S| |X|`` steps.  That proves ``rho(g) rho(w)
        = rho(gw)`` for every word ``w`` in ``S`` by induction on its length:
        ``rho(w s) = rho(w) rho(s)`` is the case ``g = w``, so ``rho(g)
        rho(ws) = rho(gw) rho(s) = rho((gw)s)``, and ``(gw)s = g(ws)``
        because the table is associative.  In a finite group every element
        is such a word, so ``rho`` is a homomorphism.  The same induction,
        from ``rho(1)`` the identity, makes each row ``rho(ws) = rho(w)
        rho(s)`` a composition of permutations, so no other row needs to be
        sorted.  On a failure every row is sorted, then the identity is
        checked, then the loop over all pairs ``(g, h)`` runs, and the first
        of them to fail names the fault.
        """
        group = self.group
        table = self.act_table
        if len(table) != group.order:
            raise ConsistencyError(
                f"action table has {len(table)} rows for a group of order {group.order}"
            )
        size = self.size
        points = list(range(size))
        generators = group.generators
        if not (
            all(len(row) == size for row in table)
            and list(table[0]) == points
            and all(sorted(table[s]) == points for s in generators)
            and all(
                tuple(map(row_g.__getitem__, table[s])) == table[products[s]]
                for row_g, products in zip(table, group.table)
                for s in generators
            )
        ):
            for n, row in enumerate(table):
                if len(row) != size or sorted(row) != points:
                    raise ConsistencyError(f"action row {n} is not a permutation of the points")
            if list(table[0]) != points:
                raise ConsistencyError("the identity does not act trivially")
            for g in range(group.order):
                row_g = table[g]
                for h in range(group.order):
                    row_h = table[h]
                    row_gh = table[group.mul(g, h)]
                    if any(row_g[row_h[x]] != row_gh[x] for x in range(size)):
                        raise ConsistencyError(
                            f"action is not compatible with the product at ({g}, {h})"
                        )

    @property
    def size(self) -> int:
        return len(self.act_table[0]) if self.act_table else 0

    def act(self, n: int, x: int) -> int:
        return self.act_table[n][x]

    def fixed_point_count(self, n: int) -> int:
        return sum(map(eq, self.act_table[n], range(self.size)))

    def squared_fixed_points(self) -> int:
        """``sum_n fix(n)^2``, the points ``n`` fixes on ``X x X`` summed
        over the group: ``|N|`` times the number of orbits on ``X x X``, by
        Burnside's lemma."""
        return sum(self.fixed_point_count(n) ** 2 for n in range(len(self.act_table)))


@dataclass(frozen=True, eq=False)
class ConjugationSetup:
    """Everything derived from a pair (G, K) before algebra construction."""

    group: FiniteGroup
    k: Subgroup
    k_normalizer: Subgroup
    n_group: FiniteGroup
    projection: Mapping[int, int]
    subgroups: tuple[Subgroup, ...]
    nset: NSet
    k_core_free: bool
    digest: str = ""

    @property
    def x_orders(self) -> tuple[int, ...]:
        return tuple(s.order for s in self.subgroups)


def build_conjugation_setup(
    group: FiniteGroup, k: Subgroup, digest: str = ""
) -> ConjugationSetup:
    """Assemble ``N = N_G(K)/K`` with its conjugation action on ``X``.

    :func:`~cardyfrob.groups.subgroup_interval` finds ``X`` and, from the
    same class walks, the row of each generator ``g`` of ``N_G(K)`` modulo
    ``K``: the position of ``g H g^-1`` for each ``H`` in ``X``.  That row
    is the row of the coset ``projection[g]``: every subgroup of ``X``
    contains ``K``, so ``g k`` with ``k`` in ``K`` conjugates it as ``g``
    does.  The cosets of these generators generate ``N``, and every other
    row follows by :func:`_action_table`.  :class:`NSet` then checks the
    product rule.
    """
    if k.parent is not group:
        raise InputError("the subgroup does not belong to the given group")
    k_normalizer = normalizer(group, k)
    n_group, projection = quotient_group(k_normalizer, k)
    subgroups, rows = subgroup_interval(group, k)
    generator_rows = {projection[g]: row for g, row in rows.items()}
    nset = NSet(n_group, _action_table(n_group, len(subgroups), generator_rows))
    return ConjugationSetup(
        group=group,
        k=k,
        k_normalizer=k_normalizer,
        n_group=n_group,
        projection=dict(projection),
        subgroups=subgroups,
        nset=nset,
        k_core_free=is_core_free(group, k),
        digest=digest,
    )


def coset_nset(group: FiniteGroup, s: Subgroup) -> NSet:
    """The left translation action of ``group`` on the cosets ``g S``.

    Points are numbered by the smallest element of the coset, its leader, so
    the coset ``S`` itself is point 0, and point ``y`` is ``gS`` for the
    least ``g`` with ``act_table[g][0] == y``.  Only the leaders are kept,
    and only the rows of :attr:`FiniteGroup.generators` are translated out;
    :func:`_action_table` fills the rest.  An index ``[G:S]`` past
    :data:`POINTS_BOUND` raises :class:`ResourceError` before any coset is
    built.
    """
    if s.parent is not group:
        raise InputError("the subgroup does not belong to the given group")
    index = group.order // s.order
    if index > POINTS_BOUND:
        raise ResourceError(
            f"S has {index} cosets in G, more than {POINTS_BOUND} (the points bound)"
        )
    coset_of = [-1] * group.order
    leaders: list[int] = []
    for g in range(group.order):
        if coset_of[g] < 0:
            row = group.table[g]
            for x in s.elements:
                coset_of[row[x]] = len(leaders)
            leaders.append(g)
    generator_rows = {
        g: tuple(coset_of[group.table[g][leader]] for leader in leaders) for g in group.generators
    }
    return NSet(group, _action_table(group, index, generator_rows))


def _action_table(
    group: FiniteGroup, size: int, rows: Mapping[int, tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Every row of an action on ``size`` points, from the rows of elements
    that generate ``group``.

    A walk over the table of ``group`` from the identity fills
    ``row[n s] = row[n] o row[s]`` for each given ``s``: acting by ``n s``
    is acting by ``s``, then by ``n``.  In a finite group the words in the
    given elements are all of it, so every row is reached.
    """
    table: list[tuple[int, ...] | None] = [None] * group.order
    table[0] = tuple(range(size))
    walk = [0]
    for n in walk:
        row_n, products = table[n], group.table[n]
        for s, row_s in rows.items():
            product = products[s]
            if table[product] is None:
                table[product] = tuple(map(row_n.__getitem__, row_s))
                walk.append(product)
    return tuple(table)


@dataclass(frozen=True)
class InteriorField:
    """An interior field: a conjugacy class of ``N`` with its attached data.

    ``aut_order`` is ``|Aut alpha|``, the order of the centralizer of the
    representative, which is ``|N|`` over the class size; ``star`` is the
    label of the class of inverses, and ``d`` the number of square roots of
    the representative's inverse in ``N``.
    """

    label: str
    conjugacy_class: ConjugacyClass
    aut_order: int
    star: str
    d: int

    @property
    def size(self) -> int:
        return self.conjugacy_class.size

    @property
    def members(self) -> tuple[int, ...]:
        return self.conjugacy_class.members

    @property
    def representative(self) -> int:
        return self.conjugacy_class.representative


@dataclass(frozen=True, slots=True)
class BoundaryField:
    """A boundary field: an ``N``-orbit on ordered pairs of points of ``X``.

    Its pairs are the cells of the catalog's orbit table that hold its
    position: ``size`` of them, the smallest one the ``representative``.
    ``aut_order`` is the order of the stabilizer of any pair in the orbit
    and ``star`` the label of the orbit of swapped pairs.
    """

    label: str
    representative: tuple[int, int]
    size: int
    aut_order: int
    star: str

    @property
    def is_diagonal(self) -> bool:
        return self.representative[0] == self.representative[1]


@dataclass(frozen=True, slots=True)
class ModelPremises:
    """What a catalog proves about an algebra, decided anew by each call of
    :meth:`FieldCatalog.premises`; nothing is cached on either.

    ``nu`` sends ``e_k`` to the 0/1 matrix of orbit ``O_k`` on ``X x X``.
    The supports are disjoint and cover ``X x X``, a coherent configuration
    (D. G. Higman, *Coherent configurations*, 1975).

    * ``modelled`` is premise (a), :meth:`FieldCatalog.is_model_of`: ``nu``
      is an injective homomorphism into the rational ``|X| x |X|`` matrices,
      decided by the counters the nu checks run at every cell and row.
    * ``traces`` holds the traces ``tr(nu_i nu_j)``; a key ``(i, j)`` says
      that a swapped pair of ``O_i`` lies in ``O_j``.
    * ``orbital`` says that the algebra is the catalog's orbital algebra:
      (a) holds, and the rest of the algebra equals the catalog's counts.
      The star sends each orbit to the one its swapped pairs lie in, so
      ``nu(e_k^*) = nu(e_k)^T``; the stored pairing is ``tr(nu_i nu_j) /
      |N|``; the unit ``u`` is ``sum e_k``, each coefficient 1, over the
      orbits that meet the diagonal, so ``nu(u)`` is the identity matrix;
      and ``l(e_k)`` is ``tr(nu_k) / |N|``, the diagonal cells of ``O_k``
      over ``|N|`` (:meth:`FieldCatalog.diagonal_counts`).  Each rational
      ``v`` is compared with its count in integers, ``v.numerator * |N| ==
      count * v.denominator``.

    Let ``t(k)`` be the orbit that holds the swapped representative ``(z_k,
    x_k)`` of ``O_k``.  Premise (a) finds the table ``N``-invariant and each
    listed orbit one ``N``-orbit before it counts any chain.  Swapping the
    two points commutes with the action, so the transpose of ``O_k`` is an
    ``N``-orbit that meets ``O_{t(k)}``: it is ``O_{t(k)}``, and ``t`` is an
    involution.  Reversing a chain ``x -> y -> z`` through ``O_i, O_j``
    gives a chain ``z -> y -> x`` through ``O_{t(j)}, O_{t(i)}``.  The
    chains at ``(z_k, x_k)``, a pair of the ``N``-orbit ``O_{t(k)}``, are
    as many as at its representative, so ``c_{t(j) t(i)}^{t(k)} =
    c_ij^k``.  Premise (a) therefore tallies one orbit of
    each pair ``{k, t(k)}`` and reads the other by that lookup
    (:func:`_chains_match`).  When (a) holds, ``tr(nu_k nu_j)`` is ``|O_k|``
    at ``j = t(k)`` and 0 elsewhere, so ``traces`` is read off the ``dim``
    representatives; when it fails, ``traces`` is
    :meth:`FieldCatalog.trace_counts`, one pass over the ``|X|^2`` cells,
    which the walks of nu-star-transpose and form-from-traces read.

    When ``orbital`` holds, :func:`~cardyfrob.frobenius.verify_equipped`
    passes five checks without their walks, each transported through the
    injective ``nu`` from a fact about matrices.  The algebra is associative
    because matrix multiplication is.  The star is an anti-automorphism
    because transposition reverses products.  The pairing is invariant
    because the trace is cyclic, so the Casimir element of this symmetric
    Frobenius algebra is central.  ``nu(u)`` is the identity, so ``u`` is
    the unit.  The pairing recomputed from the products is ``sum_k c_ij^k
    tr(nu_k) / |N| = tr(nu_i nu_j) / |N|``, the stored one, so dual
    reconstruction multiplies the stored pairing by its computed inverse,
    and that product still checks the inverse.  When ``orbital`` fails,
    every check runs as it does without a model, so no result depends on
    the model.  :func:`~cardyfrob.cardy.verify_cardy_frobenius` reads all
    three for the checks of the Cardy structure; what they prove there,
    with premises (d) on ``phi`` and (e) on ``A``, is stated at
    :func:`~cardyfrob.cardy._model_certificate`.
    """

    modelled: bool
    traces: Counter[tuple[int, int]]
    orbital: bool


@dataclass(frozen=True, eq=False)
class FieldCatalog:
    """The labeled interior and boundary fields of one group action.

    Cell ``x * |X| + y`` of the ``array('i')`` ``orbit_table`` holds the
    position in ``boundary`` of the orbit of ``(x, y)``.  Construction checks
    in bulk passes that the table has ``|X|^2`` cells, each a boundary
    position, that each field's ``size`` is its number of cells and that each
    representative lies in ``X x X``, so the orbits partition ``X x X``.
    Whether they are ``N``-orbits holding their representatives is left to
    the checks of :mod:`cardyfrob.cardy`.
    """

    nset: NSet
    interior: tuple[InteriorField, ...]
    boundary: tuple[BoundaryField, ...]
    orbit_table: array
    provenance: str = ""

    def __post_init__(self) -> None:
        size, table, dim = self.nset.size, self.orbit_table, len(self.boundary)
        if not isinstance(table, array) or table.typecode != "i" or len(table) != size * size:
            raise ConsistencyError(f"the orbit table is not an array('i') of {size * size} cells")
        cells = Counter(table)
        if cells and not 0 <= min(cells) <= max(cells) < dim:
            code = next(code for code, k in enumerate(table) if not 0 <= k < dim)
            raise ConsistencyError(f"pair {divmod(code, size)} lies in no orbit")
        for k, field in enumerate(self.boundary):
            if not 0 <= min(field.representative) <= max(field.representative) < size:
                raise ConsistencyError(
                    f"pair {field.representative} of {field.label} lies outside X x X"
                )
            if cells[k] != field.size:
                raise ConsistencyError(
                    f"{field.label} lists {field.size} pairs but holds {cells[k]} cells"
                )

    def orbits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The pairs of each boundary orbit in increasing order, derived in one
        row-major pass over the table; not cached, so no pair tuples stay alive."""
        pairs: list[list[tuple[int, int]]] = [[] for _ in self.boundary]
        for code, k in enumerate(self.orbit_table):
            pairs[k].append(divmod(code, self.nset.size))
        return tuple(map(tuple, pairs))

    def trace_counts(self) -> Counter[tuple[int, int]]:
        """``#{(x, y) in O_i : (y, x) in O_j}`` for each ``(i, j)`` that occurs.

        That is ``tr(nu(beta_i) nu(beta_j))``, the 0/1 matrices of the
        orbits, counted in one pass over the table read row-major beside its
        transpose.  A key ``(i, j)`` means that a swapped pair of ``O_i``
        lies in ``O_j``.
        """
        table, size = self.orbit_table, self.nset.size
        return Counter(zip(table, chain.from_iterable(table[x::size] for x in range(size))))

    def diagonal_counts(self) -> Counter[int]:
        """The number of diagonal cells ``(x, x)`` of each orbit that has one:
        ``tr(nu(beta_k))``, for each ``k`` that occurs."""
        return Counter(self.orbit_table[:: self.nset.size + 1])

    def premises(self, algebra: EquippedFrobeniusAlgebra) -> ModelPremises:
        """The :class:`ModelPremises` of this catalog for ``algebra``: premise
        (a), the traces, and whether ``algebra`` is the orbital algebra."""
        modelled = self.is_model_of(algebra)
        if modelled:
            sizes = (field.size for field in self.boundary)
            traces = Counter(dict(zip(enumerate(_transposes(self)), sizes)))
        else:
            traces = self.trace_counts()
        return ModelPremises(
            modelled, traces, modelled and _is_orbital_algebra(self, algebra, traces)
        )

    def is_model_of(self, algebra: EquippedFrobeniusAlgebra) -> bool:
        """Whether ``nu(beta_i) nu(beta_j) == sum_k c_ij^k nu(beta_k)`` for the
        structure constants of ``algebra``, decided without ``|X|^3`` steps.

        At a pair ``(x, z)`` of ``O_k`` the identity says that the chains
        ``x -> y -> z`` with ``(x, y)`` in ``O_i`` and ``(y, z)`` in ``O_j``
        number ``c_ij^k``.  It is checked at the representative ``(x_k, z_k)``
        of each orbit alone once two things hold, given the partition of
        ``X x X`` into ``dim`` classes of cells that construction guarantees:

        * the orbit table is invariant under the generator rows of ``N``,
          hence under ``N`` (:func:`_moved_orbits`, one row of the table
          at a time);
        * each listed orbit is a single ``N``-orbit holding its
          representative, by Burnside's lemma (:func:`_counted_orbits`).

        Then ``y -> n y`` carries the chains at ``(x_k, z_k)`` onto those at
        ``n (x_k, z_k)``, orbit labels and all, and every pair of ``O_k`` is
        such an image.  That costs ``|S| |X|^2`` steps for the invariance,
        ``|N| |X|`` for the orbit count and ``|X|`` for each orbit ``k <=
        t(k)`` of :class:`ModelPremises`, at most ``dim |X|``, for the chains
        (:func:`_chains_match`) instead of ``|X|^3``.  Both conditions
        matter: a catalog that lists two ``N``-orbits under one label keeps
        the table invariant and fails only the second.  When this holds,
        ``nu`` is an injective homomorphism from ``algebra`` into the rational
        ``|X| x |X|`` matrices: the supports of the ``nu(beta_k)`` are
        disjoint and nonempty, so they are linearly independent.
        """
        generators = map(self.nset.act_table.__getitem__, self.nset.group.generators)
        return (
            len(self.boundary) == algebra.dim
            and not any(_moved_orbits(self.orbit_table, generators))
            and _counted_orbits(self)
            and _chains_match(algebra, self)
        )

    @cached_property
    def _interior_positions(self) -> dict[str, int]:
        return {field.label: i for i, field in enumerate(self.interior)}

    @cached_property
    def _boundary_positions(self) -> dict[str, int]:
        return {field.label: k for k, field in enumerate(self.boundary)}

    def interior_position(self, label: str) -> int:
        """The position of an interior field: its basis position in ``A``."""
        try:
            return self._interior_positions[label]
        except KeyError:
            raise InputError(f"unknown interior field label {label!r}") from None

    def interior_field(self, label: str) -> InteriorField:
        return self.interior[self.interior_position(label)]

    def boundary_position(self, label: str) -> int:
        """The position of a boundary field: the value its cells hold in the table."""
        try:
            return self._boundary_positions[label]
        except KeyError:
            raise InputError(f"unknown boundary field label {label!r}") from None

    def boundary_field(self, label: str) -> BoundaryField:
        return self.boundary[self.boundary_position(label)]

    @property
    def interior_labels(self) -> tuple[str, ...]:
        return tuple(field.label for field in self.interior)

    @property
    def boundary_labels(self) -> tuple[str, ...]:
        return tuple(field.label for field in self.boundary)

    @cached_property
    def identity_interior_label(self) -> str:
        for field in self.interior:
            if field.conjugacy_class.representative == 0:
                return field.label
        raise ConsistencyError("no interior field contains the identity")


def _moved_orbits(table: array, steps: Iterable[Sequence[int]]) -> Iterator[tuple[int, int]]:
    """``(k, n)`` for each row ``x`` of the table that the ``n``-th
    permutation of the points given moves, ``k`` the least
    ``orbit(x, y)`` with ``orbit(n x, n y) != orbit(x, y)``.

    Row ``n x`` read through ``n`` must be row ``x``, so no more than two
    rows are held at once.  Premise (a) stops at the first fault;
    nu-equivariant reads every row of ``N``.  A permutation that moves a
    cell out of ``O_k`` moves another into it, so ``k`` is moved exactly
    when ``rho(n)`` does not commute with ``nu(beta_k)``.
    """
    for n, step in enumerate(steps):
        size = len(step)
        # One point has one permutation, and itemgetter(0) gives no tuple.
        through = itemgetter(*step) if size > 1 else tuple
        for x, image in enumerate(step):
            read = through(table[image * size : (image + 1) * size])
            row = tuple(table[x * size : (x + 1) * size])
            if read != row:
                yield min(k for k, other in zip(row, read) if k != other), n


def _counted_orbits(catalog: FieldCatalog) -> bool:
    """Whether each listed orbit is a single ``N``-orbit holding its
    representative, on an orbit table invariant under ``N``.

    Two facts are checked: the cell of each representative holds its own
    position, and ``sum_n fix(n)^2 == |N| dim``
    (:meth:`NSet.squared_fixed_points`).  On an invariant table the ``dim``
    classes of cells, one per position, are unions of ``N``-orbits that
    partition ``X x X``, and the first fact makes each class nonempty and
    puts its representative in it.  By Burnside's lemma ``X x X`` holds
    exactly ``dim`` ``N``-orbits, so no class holds two: each is one orbit.
    The count costs ``|N| |X|`` steps, where a walk along the generators
    from each representative would cost ``|S| |X|^2``.
    """
    table, nset = catalog.orbit_table, catalog.nset
    size = nset.size
    for k, field in enumerate(catalog.boundary):
        x, z = field.representative
        if table[x * size + z] != k:
            return False
    return nset.squared_fixed_points() == nset.group.order * len(catalog.boundary)


def _transposes(catalog: FieldCatalog) -> list[int]:
    """``t(k)`` for each orbit: the orbit that holds the swapped
    representative ``(z_k, x_k)`` of ``O_k``."""
    table, size = catalog.orbit_table, catalog.nset.size
    return [table[z * size + x] for x, z in (field.representative for field in catalog.boundary)]


def _chains_match(algebra: EquippedFrobeniusAlgebra, catalog: FieldCatalog) -> bool:
    """Whether the representative ``(x, z)`` of each orbit ``O_k`` has the
    chains ``c_ij^k`` asks for, on a table that premise (a) has found
    ``N``-invariant with each listed orbit one ``N``-orbit.

    Only the ``k <= t(k)`` are tallied, apart from
    :func:`cardyfrob.cardy.build_B` but as it does: row ``x`` and column
    ``z`` added as codes ``i * dim + j``, the codes of a row made once per
    run of representatives in it.  Each count must be the stored ``c_ij^k``
    and, when ``t(k) != k``, the stored ``c_{t(j) t(i)}^{t(k)}``
    (:class:`ModelPremises`), and the matches must number the stored
    constants: one at an ``(i, j, k)`` where the table counts no chain is
    left over.  The store keeps integral constants as ``int`` and drops
    zeros, so a stored constant equals its positive count exactly when it
    is that count as a positive ``int``.  No copy is made.
    """
    table, size, dim = catalog.orbit_table, catalog.nset.size, algebra.dim
    rows = list(map(algebra.left_products, range(dim)))
    transposes = _transposes(catalog)
    matched, last, codes = 0, -1, []
    for k, (x, z) in enumerate(field.representative for field in catalog.boundary):
        star = transposes[k]
        if star < k:
            continue
        if x != last:
            last, codes = x, [i * dim for i in table[x * size : (x + 1) * size]]
        tally = Counter(map(add, codes, table[z::size]))
        for code, count in tally.items():
            i, j = divmod(code, dim)
            expansion = rows[i].get(j)
            if expansion is None or expansion.get(k) != count:
                return False
            if star != k:
                mirror = rows[transposes[j]].get(transposes[i])
                if mirror is None or mirror.get(star) != count:
                    return False
        matched += len(tally) if star == k else 2 * len(tally)
    return matched == sum(map(len, chain.from_iterable(row.values() for row in rows)))


def _is_orbital_algebra(
    catalog: FieldCatalog, algebra: EquippedFrobeniusAlgebra, traces: Counter[tuple[int, int]]
) -> bool:
    """Whether the star, pairing, unit and linear form of ``algebra`` are the
    counts of ``catalog`` that :class:`ModelPremises` lists, given premise
    (a) and the catalog's ``traces``."""
    order = catalog.nset.group.order
    diagonal = catalog.diagonal_counts()
    unit = {algebra.index(label): value for label, value in algebra.unit.coeffs.items()}
    return (
        all(algebra.involution[i] == j for i, j in traces)
        and _is_trace_form(algebra.form, traces, order)
        and unit == dict.fromkeys(diagonal, 1)
        and all(
            _is_ratio(value, diagonal[k], order) for k, value in enumerate(algebra.linear_form)
        )
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


def build_catalog(nset: NSet, provenance: str = "") -> FieldCatalog:
    """Enumerate and label interior and boundary fields of an action.

    Interior fields follow the conjugacy class order of the acting group.
    Each field's ``aut_order`` is ``|N| / |class|``, the order of the
    centralizer of its representative by orbit-stabiliser, and its ``d`` is
    read off one tally of the squares ``n^2`` over ``N``.  Boundary orbits
    are labeled ``b<k>`` in order of their smallest pair.
    The orbit table is filled one ``N``-orbit of points at a time, from its
    least point ``x0``: each orbit on ``X x X`` meets row ``x0`` in one
    orbit of ``Stab_N(x0)`` (orbitals and suborbits; P. J. Cameron,
    *Permutation Groups*, 1999), labeled by increasing ``y``, with
    representative ``(x0, y)`` and size ``|N x0| |Stab_N(x0) y|``.  As
    ``orbit(n x0, y) = orbit(x0, n^-1 y)``, row ``n x0`` is row ``x0`` read
    through the row of ``n^-1``.  The smallest pair of an orbit lies in the
    row of the least point of its ``N``-orbit, so this order is the order
    by smallest pair.  The Burnside count ``(1/|N|) * sum of squared
    fixed-point counts`` must equal the number of boundary orbits, and is
    verified here.  ``fix(n)`` is a class function, so the sum is taken
    over the classes just found, ``sum_C |C| fix(rep_C)^2``, not over the
    rows of ``N``.
    """
    group = nset.group
    classes = conjugacy_classes(group)
    label_of = {member: cls.label for cls in classes for member in cls.members}
    squares = Counter(row[n] for n, row in enumerate(group.table))
    interior = [
        InteriorField(
            label=cls.label,
            conjugacy_class=cls,
            aut_order=group.order // cls.size,
            star=label_of[group.inv(cls.representative)],
            d=squares[group.inv(cls.representative)],
        )
        for cls in classes
    ]
    size, act_table = nset.size, nset.act_table
    table = array("i", [-1]) * (size * size)
    found: list[tuple[tuple[int, int], int]] = []
    for x0 in range(size):
        start = x0 * size
        if table[start] >= 0:
            continue
        # For each point x = n x0 of the orbit, the row of one n^-1.
        back = {row[x0]: act_table[inverse] for row, inverse in zip(act_table, group.inverses)}
        stabiliser = [row for row in act_table if row[x0] == x0]
        for y in range(size):
            if table[start + y] < 0:
                cells = {row[y] for row in stabiliser}
                for z in cells:
                    table[start + z] = len(found)
                found.append(((x0, y), len(back) * len(cells)))
        # Row x0 is done; other rows have two cells or more, so the getter gives a tuple.
        del back[x0]
        row_x0 = table[start : start + size].tolist()
        for x, inverse_row in back.items():
            table[x * size : (x + 1) * size] = array("i", itemgetter(*inverse_row)(row_x0))
    labels = [f"b{position}" for position in range(len(found))]
    boundary = []
    for label, ((x, y), orbit_size) in zip(labels, found):
        if group.order % orbit_size != 0:
            raise ConsistencyError(f"orbit size {orbit_size} does not divide |N|")
        star = labels[table[y * size + x]]
        boundary.append(BoundaryField(label, (x, y), orbit_size, group.order // orbit_size, star))
    burnside = sum(cls.size * nset.fixed_point_count(cls.representative) ** 2 for cls in classes)
    if burnside != group.order * len(boundary):
        raise ConsistencyError(
            f"Burnside count {burnside}/{group.order} does not match {len(boundary)} orbits"
        )
    return FieldCatalog(
        nset=nset,
        interior=tuple(interior),
        boundary=tuple(boundary),
        orbit_table=table,
        provenance=provenance,
    )
