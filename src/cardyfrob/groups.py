"""Finite groups as dense Cayley tables.

Elements are the indices ``0 .. order-1`` with ``0`` always the identity.
Groups are produced by breadth-first closure of permutation generators, so
element numbering is deterministic: the identity first, then words in the
generators in discovery order.  Conjugacy classes, centralizers, normalizers
and quotients are computed by exhaustive scans of the table, which is the
right trade at the group orders this package targets (a few thousand at
most).  A subgroup is closed from generators by one walk over right cosets.
The interval of subgroups above a fixed subgroup ``K`` is found one class
under conjugation by ``N_G(K)`` at a time: one representative per class is
extended by cyclic extension, each class is registered whole by
conjugation, and at most :data:`POINTS_BOUND` results come back, with the
conjugation action of the generators of ``N_G(K)`` read off those walks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import ConsistencyError, InputError, ResourceError

Perm = tuple[int, ...]

DEFAULT_ORDER_BOUND = 2000

# The most subgroups over K (points of X) :func:`subgroups_containing`
# returns.  The action, catalog and checks grow with |X|^2 and beyond, so a
# larger interval raises ResourceError before any of that work starts.
POINTS_BOUND = 1_000

# The largest permutation degree :func:`build_group` accepts.  Each element
# is a tuple of ``degree`` ints, so a larger degree raises ResourceError
# before the identity is built.  It is the default order bound, so the
# regular representation of every group that bound admits fits.
DEGREE_BOUND = 2000


def compose(p: Perm, q: Perm) -> Perm:
    """Compose permutations, applying ``q`` first: ``(p * q)(x) = p(q(x))``."""
    return tuple(p[q[x]] for x in range(len(q)))


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Elements are the indices ``0 .. order-1`` and carry no other name.
    ``table[a][b]`` is the product ``a * b``, and ``perms[a]`` is the
    permutation of element ``a`` when the group was closed from permutations
    (``None`` for a quotient).  The constructor checks the
    cheap structural facts (square shape, identity row and column, rows and
    columns are permutations, hence two-sided inverses exist); associativity
    is the builder's responsibility.  Every table built here (closure of
    permutations, quotients) is associative, and the certificates that decide
    a property of the whole group on :attr:`generators` alone (the action
    checks of :class:`cardyfrob.actions.NSet`, the action rows composed from
    generator rows in :mod:`cardyfrob.actions`, the orbit checks of
    :mod:`cardyfrob.cardy`) rely on it.  Tests check it exhaustively with
    :func:`cardyfrob.oracles.is_associative`.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        perms: Sequence[Perm] | None = None,
    ) -> None:
        self.order = len(table)
        if self.order == 0:
            raise InputError("a group must have at least the identity element")
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in table)
        full = set(range(self.order))
        for a, row in enumerate(self.table):
            if len(row) != self.order:
                raise InputError(f"table row {a} has length {len(row)}, expected {self.order}")
            if set(row) != full:
                raise InputError(f"table row {a} is not a permutation of the elements")
        for b in range(self.order):
            if {row[b] for row in self.table} != full:
                raise InputError(f"table column {b} is not a permutation of the elements")
        for a in range(self.order):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise InputError("element 0 is not a two-sided identity")
        self.inverses: tuple[int, ...] = tuple(row.index(0) for row in self.table)
        self.perms: tuple[Perm, ...] | None = tuple(perms) if perms is not None else None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conjugate(self, h: int, x: int) -> int:
        """Return ``h x h^-1``."""
        return self.table[self.table[h][x]][self.inverses[h]]

    def commutator(self, x: int, y: int) -> int:
        """Return ``x y x^-1 y^-1``."""
        return self.table[self.table[x][y]][self.inverses[self.table[y][x]]]

    def element_order(self, a: int) -> int:
        power, n = a, 1
        while power != 0:
            power = self.table[power][a]
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A short generating set: each element not yet generated by the
        earlier ones, at most ``log2(order)`` of them, found once per group."""
        return tuple(_generators_of(self.table, range(self.order)))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def permutation_from_list(raw: object, degree: int, what: str) -> Perm:
    """Validate a permutation of ``0..degree-1`` given in one-line notation.

    ``raw`` must be a list of ``int`` entries (``bool`` is not accepted)
    that together form a permutation; anything else raises
    :class:`InputError` naming ``what``.
    """
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise InputError(f"{what} must be a list of integers")
    perm = tuple(raw)
    if any(not isinstance(entry, int) or isinstance(entry, bool) for entry in perm):
        raise InputError(f"{what} must be a list of integers")
    if sorted(perm) != list(range(degree)):
        raise InputError(f"{what} is not a permutation of 0..{degree - 1}")
    return perm


def build_group(
    degree: int,
    generators: Sequence[Sequence[int]],
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> FiniteGroup:
    """Close a set of permutation generators into a full Cayley table.

    The closure is breadth-first from the identity, multiplying each frontier
    element on the right by the generators in input order, so the element
    numbering is reproducible.  A degree past :data:`DEGREE_BOUND` or more
    than ``order_bound`` elements raise :class:`ResourceError`.

    The closure records ``right[x][g]``, the index of ``x * gens[g]``, and
    for each element ``b`` but the identity the step ``(x, g)`` that found
    it, ``b = x * gens[g]``.  A parent is found before its child, so each row
    of the table fills in element order from ``a * b = right[a * x][g]``,
    with integer lookups and no permutation arithmetic.
    """
    if degree < 1:
        raise InputError(f"degree must be positive, got {degree}")
    if degree > DEGREE_BOUND:
        raise ResourceError(f"degree {degree} is more than {DEGREE_BOUND} (the degree bound)")
    gens = [
        permutation_from_list(gen, degree, f"generators[{pos}]")
        for pos, gen in enumerate(generators)
    ]
    identity = tuple(range(degree))
    elements: list[Perm] = [identity]
    index: dict[Perm, int] = {identity: 0}
    right: list[list[int]] = []
    steps: list[tuple[int, int]] = []
    for x, current in enumerate(elements):
        row = []
        for g, gen in enumerate(gens):
            product = compose(current, gen)
            found = index.get(product)
            if found is None:
                if len(elements) >= order_bound:
                    raise ResourceError(
                        f"group closure exceeded the order bound {order_bound}"
                    )
                found = index[product] = len(elements)
                elements.append(product)
                steps.append((x, g))
            row.append(found)
        right.append(row)
    table = []
    for a in range(len(elements)):
        row = [a]
        for x, g in steps:
            row.append(right[row[x]][g])
        table.append(row)
    return FiniteGroup(table, perms=elements)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` as a sorted tuple of element indices.

    ``id`` is the subgroup's position in a canonical enumeration when one is
    in force (see :func:`subgroups_containing`) and ``None`` otherwise.
    """

    parent: FiniteGroup
    elements: tuple[int, ...]
    id: int | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __repr__(self) -> str:
        tag = f", id={self.id}" if self.id is not None else ""
        return f"Subgroup(order={self.order}{tag})"


def _coset_walk(
    table: Sequence[Sequence[int]],
    generators: Sequence[int],
    index: Sequence[int],
    reps: Sequence[int],
) -> list[int]:
    """The right cosets ``Hy`` that make up ``<H, generators>``, by number.

    ``index`` is the coset number of every element and ``reps`` an element
    of each coset, coset 0 being ``H``; ``generators`` must generate ``H``
    among other things.  For the trivial ``H``, ``index = reps =
    range(order)`` and the walk lists the elements themselves.  The walk is
    breadth-first from ``H``: each coset found is multiplied on the right by
    every generator (``Hy * g = H(yg)``), so it costs ``#cosets *
    #generators`` table lookups.  In a finite group the words in the
    generators already form a group (``g^-1`` is a power of ``g``), so no
    inverses are needed.
    """
    walk = [0]
    seen = bytearray(len(reps))
    seen[0] = 1
    for coset in walk:
        row = table[reps[coset]]
        for g in generators:
            product = index[row[g]]
            if not seen[product]:
                seen[product] = 1
                walk.append(product)
    return walk


def subgroup_closure(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """The subgroup generated by the given element indices."""
    seed = list(generators)
    for x in seed:
        if not 0 <= x < group.order:
            raise InputError(f"element index {x} is out of range for a group of order {group.order}")
    elements = range(group.order)
    return Subgroup(group, tuple(sorted(_coset_walk(group.table, seed, elements, elements))))


def subgroup_from_elements(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Validate that a set of element indices is a subgroup and wrap it up."""
    members = sorted(set(elements))
    member_set = set(members)
    if 0 not in member_set:
        raise InputError("a subgroup must contain the identity element 0")
    for x in members:
        if not 0 <= x < group.order:
            raise InputError(f"element index {x} is out of range for a group of order {group.order}")
    for x in members:
        if group.inv(x) not in member_set:
            raise InputError(f"subgroup is not closed under inversion at element {x}")
        row = group.table[x]
        for y in members:
            if row[y] not in member_set:
                raise InputError(f"subgroup is not closed under products at ({x}, {y})")
    if group.order % len(members) != 0:
        raise InputError(
            f"subgroup size {len(members)} does not divide the group order {group.order}"
        )
    return Subgroup(group, tuple(members))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (0,))


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class with its canonical label ``a<k>``.

    Classes of a group are enumerated sorted by (order of the representative,
    smallest member); the representative is the smallest member.
    """

    parent: FiniteGroup
    label: str
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(group: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    assigned = [False] * group.order
    raw: list[tuple[int, tuple[int, ...]]] = []
    for start in range(group.order):
        if assigned[start]:
            continue
        members = {group.conjugate(h, start) for h in range(group.order)}
        for member in members:
            assigned[member] = True
        raw.append((start, tuple(sorted(members))))
    raw.sort(key=lambda item: (group.element_order(item[0]), item[0]))
    return tuple(
        ConjugacyClass(group, f"a{k}", representative, members)
        for k, (representative, members) in enumerate(raw)
    )


def centralizer(group: FiniteGroup, x: int) -> Subgroup:
    members = tuple(
        h for h in range(group.order) if group.table[h][x] == group.table[x][h]
    )
    return Subgroup(group, members)


def normalizer(group: FiniteGroup, subgroup: Subgroup) -> Subgroup:
    """The elements ``h`` with ``h S h^-1 = S``: those that conjugate each
    generator of ``S`` into ``S``, which suffices in a finite group."""
    table, inverses = group.table, group.inverses
    member_set = subgroup.member_set()
    members = range(group.order)
    for x in _generators_of(table, subgroup.elements):
        members = [h for h in members if table[table[h][x]][inverses[h]] in member_set]
    return Subgroup(group, tuple(members))


def quotient_group(
    overgroup: Subgroup, kernel: Subgroup
) -> tuple[FiniteGroup, dict[int, int]]:
    """The quotient of ``overgroup`` by a normal subgroup ``kernel``.

    Returns the quotient as a :class:`FiniteGroup` (cosets numbered by
    their smallest member, so the kernel itself is element 0) together with
    the projection map from overgroup elements to coset indices.  The caller
    must pass a genuinely normal kernel; violations raise
    :class:`ConsistencyError` because they indicate a logic error upstream.
    The quotient of the whole parent by the trivial subgroup is the parent
    itself, with the identity projection, and builds no second table.
    """
    parent = overgroup.parent
    if kernel.parent is not parent:
        raise InputError("kernel and overgroup must live in the same parent group")
    over_set = overgroup.member_set()
    kernel_set = kernel.member_set()
    if not kernel_set <= over_set:
        raise InputError("kernel is not contained in the overgroup")
    if kernel_set == {0} and over_set == set(range(parent.order)):
        return parent, {h: h for h in range(parent.order)}
    for h in overgroup.elements:
        for x in kernel.elements:
            if parent.conjugate(h, x) not in kernel_set:
                raise ConsistencyError(
                    f"kernel is not normal in the overgroup: element {h} moves it"
                )
    projection: dict[int, int] = {}
    cosets: list[tuple[int, ...]] = []
    for h in overgroup.elements:
        if h in projection:
            continue
        coset = tuple(sorted(parent.table[h][x] for x in kernel.elements))
        for member in coset:
            projection[member] = len(cosets)
        cosets.append(coset)
    reps = [coset[0] for coset in cosets]
    table = [
        [projection[parent.table[left][right]] for right in reps]
        for left in reps
    ]
    return FiniteGroup(table), projection


def _generators_of(table: Sequence[Sequence[int]], elements: Iterable[int]) -> list[int]:
    """A short generating list of the subgroup on ``elements``: each element
    not yet generated by the earlier ones is kept, at most ``log2`` of the
    order of them."""
    everything = range(len(table))
    gens: list[int] = []
    span = {0}
    for x in elements:
        if x not in span:
            gens.append(x)
            span = set(_coset_walk(table, gens, everything, everything))
    return gens


def _right_cosets(
    table: Sequence[Sequence[int]], members: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """The right cosets ``Hy`` of the subgroup ``H`` on ``members``: the
    coset number of every element, the smallest element of each coset, and
    each coset's bitmask.  Coset 0 is ``H``."""
    index = [-1] * len(table)
    reps: list[int] = []
    masks: list[int] = []
    for y in range(len(table)):
        if index[y] < 0:
            coset, mask = len(reps), 0
            for h in members:
                member = table[h][y]
                index[member] = coset
                mask |= 1 << member
            reps.append(y)
            masks.append(mask)
    return index, reps, masks


def _cover_class(
    table: Sequence[Sequence[int]],
    members: Sequence[int],
    x: int,
    index: Sequence[int],
    covered: bytearray,
) -> list[int]:
    """Mark the right cosets of every ``y`` with ``<H, y> = <H, x>``, and
    return those not marked before.

    These are the double cosets ``H x^k H`` with ``k`` prime to the order of
    ``x``: such a ``y`` lies in ``<H, x>``, and ``x^k``, hence ``x``, lies in
    ``<H, y>``.  ``H x^k H`` is the union of the right cosets of ``x^k h``
    over ``h`` in ``H``.  ``covered`` only ever holds whole double cosets
    (``H`` itself first), so one whose first coset is covered is skipped.
    """
    powers = [x]
    while powers[-1] != 0:
        powers.append(table[powers[-1]][x])
    order = len(powers)
    fresh: list[int] = []
    for k, power in enumerate(powers[:-1], start=1):
        if gcd(k, order) == 1 and not covered[index[power]]:
            row = table[power]
            for h in members:
                coset = index[row[h]]
                if not covered[coset]:
                    covered[coset] = 1
                    fresh.append(coset)
    return fresh


def _register_class(
    group: FiniteGroup,
    members: tuple[int, ...],
    bits: Sequence[int],
    conjugations: Mapping[int, Sequence[int]],
    found: dict[int, tuple[int, ...]],
    moves: Mapping[int, dict[int, int]],
) -> list[int]:
    """Add the class of ``H`` (on ``members``) under ``N_G(K)`` to ``found``,
    each member under its bitmask (``bits[x]`` is ``1 << x``), and return
    generators of its stabiliser ``N_G(K) ∩ N_G(H)`` modulo ``K``.

    ``conjugations`` maps each generator ``g`` of ``N_G(K)`` modulo ``K``
    to the permutation ``x -> g x g^-1`` of the elements; ``K`` lies in
    every subgroup over it, so it fixes them all.  The class is walked
    breadth-first along them, so each member costs one lookup per element
    and generator, not a coset walk, and ``moves[g]`` records the walk's
    every step: the mask of each member maps to the mask of its conjugate
    by ``g``.  The walk keeps a transversal: ``t_i`` conjugates ``H`` to the
    ``i``-th member.  An edge ``g`` from member ``i`` to a member ``j``
    already seen gives the Schreier generator ``t_j^-1 g t_i``, and these
    generate the stabiliser (Schreier's lemma); :func:`_generators_of`
    keeps a short list of them.
    """
    table, inverses = group.table, group.inverses
    masks = [sum(map(bits.__getitem__, members))]
    position = {masks[0]: 0}
    orbit = [members]
    transversal = [0]
    schreier: list[int] = []
    for source, current, t in zip(masks, orbit, transversal):
        if len(found) + len(orbit) > POINTS_BOUND:
            raise ResourceError(f"more than {POINTS_BOUND} subgroups contain K (the points bound)")
        for g, conjugation in conjugations.items():
            image = list(map(conjugation.__getitem__, current))
            mask = moves[g][source] = sum(map(bits.__getitem__, image))
            j = position.get(mask)
            if j is None:
                position[mask] = len(orbit)
                masks.append(mask)
                orbit.append(tuple(sorted(image)))
                transversal.append(table[g][t])
            else:
                schreier.append(table[inverses[transversal[j]]][table[g][t]])
    found.update(zip(masks, orbit))
    if len(orbit) == 1:
        return list(conjugations)
    return _generators_of(table, schreier)


def subgroup_interval(
    group: FiniteGroup, subgroup: Subgroup
) -> tuple[tuple[Subgroup, ...], dict[int, tuple[int, ...]]]:
    """All subgroups of ``group`` that contain ``subgroup``, with the
    conjugation action of ``N_G(K)`` on them.

    Works upward from the subgroup ``K`` itself, one class under conjugation
    by ``N_G(K)`` at a time (cyclic extension up to conjugacy: J. Neubüser,
    *Numer. Math.* 2, 1960; D. F. Holt, B. Eick and E. A. O'Brien, *Handbook
    of Computational Group Theory*, 2005).  Each class is registered whole
    when first met (see :func:`_register_class`), and only one
    representative ``H`` of it, kept with a short generating list, is
    extended.  ``H`` is extended to ``<H, x>`` by one walk over its right
    cosets (see :func:`_coset_walk`), for one right coset ``Hx`` per orbit of
    the stabiliser ``S = N_G(K) ∩ N_G(H)`` on the classes of cosets that give
    the same extension (see :func:`_cover_class`).  ``S`` acts on the right
    cosets, ``s(Hy)s^-1 = H(sys^-1)``, and ``<H, sys^-1> = s<H, y>s^-1``, so
    the cosets covered by one walk are closed under the generators of ``S``
    modulo ``K``; ``K`` lies in ``H`` and keeps each double coset ``HyH``,
    which is covered whole.

    The search is exhaustive.  Let ``L`` contain ``K``; if ``L = K``, it is
    the first subgroup found.  Otherwise take ``M`` maximal among the
    subgroups of ``L`` over ``K``; by induction on the order, ``M`` is found,
    so ``M = nHn^-1`` for the representative ``H`` of its class and some
    ``n`` in ``N_G(K)``.  For any ``x`` in ``L`` but not in ``M``,
    ``L = <M, x>`` by maximality, so ``n^-1Ln = <H, y>`` with
    ``y = n^-1xn``.  The coset ``Hy`` was walked or covered, so
    ``<H, y>`` is ``s<H, z>s^-1`` for an ``s`` in ``S`` and an extension
    ``<H, z>`` that was walked, and ``L`` lies in its class.

    More than :data:`POINTS_BOUND` subgroups raise :class:`ResourceError`.
    The subgroups come back sorted by (order, element tuple) with ``id`` set
    to the position.  Beside them, for each generator ``g`` of ``N_G(K)``
    modulo ``K`` (elements of ``group``; those of :attr:`FiniteGroup.generators`
    when ``K`` is trivial), the row whose entry ``i`` is the position of
    ``g H_i g^-1``, read off the class walks.
    """
    if subgroup.parent is not group:
        raise InputError("subgroup does not belong to the given group")
    table, inverses = group.table, group.inverses
    seed = tuple(sorted(subgroup.elements))
    if len(seed) == 1:  # K = 1, so N_G(K) = G, whose generators are cached
        seed_gens, n_generators = [], list(group.generators)
    else:
        # Generators of K first, then of N_G(K) modulo K, which is all that acts.
        both = _generators_of(table, (*seed, *normalizer(group, subgroup).elements))
        seed_gens = [g for g in both if g in seed]
        n_generators = both[len(seed_gens):]
    conjugations = {g: [table[row_g][inverses[g]] for row_g in table[g]] for g in n_generators}
    moves: dict[int, dict[int, int]] = {g: {} for g in n_generators}
    bits = [1 << x for x in range(group.order)]
    found: dict[int, tuple[int, ...]] = {}
    representatives = [
        (seed_gens, seed, _register_class(group, seed, bits, conjugations, found, moves))
    ]
    while representatives:
        gens, members, stabiliser = representatives.pop()
        index, reps, masks = _right_cosets(table, members)
        covered = bytearray(len(reps))
        covered[0] = 1
        for coset, x in enumerate(reps):
            if covered[coset]:
                continue
            bigger_gens = [*gens, x]
            walk = _coset_walk(table, bigger_gens, index, reps)
            # The cosets are disjoint, so the sum of their masks is the union.
            if sum(map(masks.__getitem__, walk)) not in found:
                bigger = tuple(sorted(table[h][reps[other]] for other in walk for h in members))
                bigger_stabiliser = _register_class(group, bigger, bits, conjugations, found, moves)
                representatives.append((bigger_gens, bigger, bigger_stabiliser))
            # Close the covered cosets under S: s(Hy)s^-1 = H(sys^-1).
            fresh = _cover_class(table, members, x, index, covered)
            for other in fresh:
                y = reps[other]
                for s in stabiliser:
                    image = index[table[table[s][y]][inverses[s]]]
                    if not covered[image]:
                        covered[image] = 1
                        fresh.append(image)
    ordered = sorted(found, key=lambda mask: (len(found[mask]), found[mask]))
    position = {mask: i for i, mask in enumerate(ordered)}
    rows = {g: tuple(position[moved[mask]] for mask in ordered) for g, moved in moves.items()}
    subgroups = tuple(Subgroup(group, found[mask], id=i) for i, mask in enumerate(ordered))
    return subgroups, rows


def subgroups_containing(group: FiniteGroup, subgroup: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups of ``group`` that contain ``subgroup``: those of :func:`subgroup_interval`."""
    return subgroup_interval(group, subgroup)[0]


def is_core_free(group: FiniteGroup, subgroup: Subgroup) -> bool:
    """Whether the largest normal subgroup of ``group`` inside ``subgroup`` is trivial."""
    core = set(subgroup.elements)
    for h in range(group.order):
        core &= {group.conjugate(h, x) for x in subgroup.elements}
        if core == {0}:
            return True
    return core == {0}


def group_from_document(
    document: Mapping[str, object],
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> tuple[FiniteGroup, Subgroup]:
    """Build a (group, subgroup) pair from a parsed JSON document.

    The document has the shape ``{"degree": d, "generators": [[...], ...],
    "k_generators": [[...], ...]}`` where each generator is a permutation of
    ``0..d-1`` in one-line notation.  ``k_generators`` may be absent or empty,
    giving the trivial subgroup.  Every subgroup generator must land in the
    group generated by ``generators``.
    """
    group = group_of_document(document, order_bound)
    k_generators = document.get("k_generators", [])
    return group, subgroup_from_permutations(group, k_generators, "k_generators")


def group_of_document(document: Mapping[str, object], order_bound: int) -> FiniteGroup:
    """The group of a group document, ``k_generators`` left unread."""
    if not isinstance(document, Mapping):
        raise InputError("group document must be a JSON object")
    unknown = set(document) - {"degree", "generators", "k_generators"}
    if unknown:
        raise InputError(f"unknown group document keys: {sorted(unknown)}")
    degree = document.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise InputError(f"degree must be a positive integer, got {degree!r}")
    generators = document.get("generators")
    if not isinstance(generators, Sequence) or isinstance(generators, (str, bytes)):
        raise InputError("generators must be a list of permutations")
    return build_group(degree, generators, order_bound=order_bound)


def subgroup_from_permutations(group: FiniteGroup, raw: object, what: str) -> Subgroup:
    """The subgroup of ``group`` generated by a list of permutations.

    ``raw`` must be a list of permutations in one-line notation, each an
    element of ``group`` (whose :attr:`FiniteGroup.perms` must be set);
    anything else raises :class:`InputError` naming ``what``.
    """
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise InputError(f"{what} must be a list of permutations")
    assert group.perms is not None
    perm_index = {perm: position for position, perm in enumerate(group.perms)}
    degree = len(group.perms[0])
    indices = []
    for pos, gen in enumerate(raw):
        perm = permutation_from_list(gen, degree, f"{what}[{pos}]")
        if perm not in perm_index:
            raise InputError(f"{what}[{pos}] is not an element of the group")
        indices.append(perm_index[perm])
    return subgroup_closure(group, indices)


def document_digest(document: Mapping[str, object]) -> str:
    """A short stable digest of a group document, used as provenance tag."""
    canonical = {
        "degree": document.get("degree"),
        "generators": [list(map(int, g)) for g in document.get("generators", [])],
        "k_generators": [list(map(int, g)) for g in document.get("k_generators", [])],
    }
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]
