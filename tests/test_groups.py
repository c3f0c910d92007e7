"""Group construction, subgroup machinery, and document parsing."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob import (
    ConsistencyError,
    FiniteGroup,
    InputError,
    ResourceError,
    Subgroup,
    build_group,
    bundled_input,
    centralizer,
    conjugacy_classes,
    document_digest,
    group_from_document,
    is_core_free,
    normalizer,
    quotient_group,
    subgroup_closure,
    subgroup_from_elements,
    subgroups_containing,
    trivial_subgroup,
)
from cardyfrob.groups import compose
from cardyfrob.oracles import is_associative


def s3() -> FiniteGroup:
    return build_group(3, [[1, 0, 2], [0, 2, 1]])


def s4() -> FiniteGroup:
    return build_group(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]])


# -- closure and Cayley table -------------------------------------------------


def test_build_group_orders():
    assert build_group(2, [[1, 0]]).order == 2
    assert build_group(3, [[1, 2, 0]]).order == 3
    assert s3().order == 6
    assert s4().order == 24
    assert build_group(5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]).order == 60


def compose_table(group: FiniteGroup) -> list[list[int]]:
    """The Cayley table from composing every pair of element permutations."""
    index = {perm: a for a, perm in enumerate(group.perms)}
    return [[index[compose(p, q)] for q in group.perms] for p in group.perms]


@pytest.mark.parametrize(
    "name", sorted(path.name for path in bundled_input("groups/z2_trivial.json").parent.iterdir())
)
def test_table_matches_composition_on_bundled_groups(name):
    group, _ = group_from_document(json.loads(bundled_input(f"groups/{name}").read_text()))
    assert [list(row) for row in group.table] == compose_table(group)


def test_table_matches_composition_on_s6():
    group = build_group(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])
    assert group.order == 720
    assert [list(row) for row in group.table] == compose_table(group)
    assert build_group(6, []).table == ((0,),)


def test_identity_is_element_zero():
    group = s3()
    assert group.perms is not None
    assert group.perms[0] == (0, 1, 2)
    assert all(group.mul(0, a) == a for a in group.elements())
    assert all(group.mul(a, 0) == a for a in group.elements())


def test_cayley_table_is_associative():
    assert is_associative(s3())
    assert is_associative(build_group(3, [[1, 2, 0]]))


def test_inverses_and_orders():
    group = s4()
    for a in group.elements():
        assert group.mul(a, group.inv(a)) == 0
        assert group.mul(group.inv(a), a) == 0
    orders = sorted(group.element_order(a) for a in group.elements())
    assert orders.count(1) == 1
    assert orders.count(2) == 9
    assert orders.count(3) == 8
    assert orders.count(4) == 6


def test_compose_acts_right_to_left():
    # compose(p, q) sends x to p[q[x]].
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 2, 0)


def test_order_bound_exceeded():
    with pytest.raises(ResourceError):
        build_group(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]], order_bound=10)


def test_bad_generator_rejected():
    with pytest.raises(InputError):
        build_group(3, [[1, 1, 0]])
    with pytest.raises(InputError):
        build_group(0, [])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_laws_sampled(data):
    group = s4()
    a = data.draw(st.integers(0, group.order - 1))
    b = data.draw(st.integers(0, group.order - 1))
    c = data.draw(st.integers(0, group.order - 1))
    assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    assert group.inv(group.mul(a, b)) == group.mul(group.inv(b), group.inv(a))
    assert group.conjugate(a, group.commutator(b, c)) == group.commutator(
        group.conjugate(a, b), group.conjugate(a, c)
    )


# -- subgroups ----------------------------------------------------------------


def test_subgroup_closure():
    group = s3()
    transposition = next(
        a for a in group.elements() if group.element_order(a) == 2
    )
    sub = subgroup_closure(group, [transposition])
    assert sub.order == 2
    assert 0 in sub.elements


def test_subgroup_closure_rejects_out_of_range():
    with pytest.raises(InputError):
        subgroup_closure(s3(), [17])


def test_subgroup_from_elements_validates():
    group = s3()
    transposition = next(
        a for a in group.elements() if group.element_order(a) == 2
    )
    sub = subgroup_from_elements(group, [0, transposition])
    assert sub.order == 2
    with pytest.raises(InputError):
        subgroup_from_elements(group, [transposition])  # no identity
    rotation = next(a for a in group.elements() if group.element_order(a) == 3)
    with pytest.raises(InputError):
        subgroup_from_elements(group, [0, rotation])  # not closed


# A loop of order 5 (a Latin square with identity 0, not associative) in
# which {0, 1} is closed: only a table that is no group has such a subset.
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


@pytest.mark.parametrize(
    ("table", "message"),
    [
        ([], "a group must have at least the identity element"),
        ([[0, 1], [1]], "table row 1 has length 1, expected 2"),
        ([[0, 1], [1, 1]], "table row 1 is not a permutation of the elements"),
        ([[0, 1], [0, 1]], "table column 0 is not a permutation of the elements"),
        ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
    ],
)
def test_finite_group_rejects_a_table_that_is_no_group(table, message):
    with pytest.raises(InputError) as caught:
        FiniteGroup(table)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("table", "elements", "message"),
    [
        (None, [0, 17], "element index 17 is out of range for a group of order 6"),
        (None, [0, 1, 2], "subgroup is not closed under products at (1, 2)"),
        (LOOP_5, [0, 1], "subgroup size 2 does not divide the group order 5"),
    ],
)
def test_subgroup_from_elements_names_each_fault(table, elements, message):
    # s3 numbers its transpositions 1, 2 and 5, and 1 * 2 is a 3-cycle.
    group = s3() if table is None else FiniteGroup(table)
    with pytest.raises(InputError) as caught:
        subgroup_from_elements(group, elements)
    assert str(caught.value) == message


def test_trivial_subgroup():
    sub = trivial_subgroup(s3())
    assert sub.elements == (0,)


# -- conjugacy classes --------------------------------------------------------


def test_conjugacy_classes_s3():
    group = s3()
    classes = conjugacy_classes(group)
    assert [cls.label for cls in classes] == ["a0", "a1", "a2"]
    assert [cls.size for cls in classes] == [1, 3, 2]
    assert [group.element_order(cls.representative) for cls in classes] == [1, 2, 3]
    assert classes[0].representative == 0


def test_conjugacy_classes_partition_and_are_closed():
    group = s4()
    classes = conjugacy_classes(group)
    seen = sorted(member for cls in classes for member in cls.members)
    assert seen == list(group.elements())
    for cls in classes:
        member_set = set(cls.members)
        for h in group.elements():
            assert group.conjugate(h, cls.representative) in member_set


def test_centralizer_and_class_size():
    group = s4()
    for cls in conjugacy_classes(group):
        cent = centralizer(group, cls.representative)
        assert cent.order * cls.size == group.order


def test_normalizer():
    group = s4()
    k = subgroup_closure(
        group, [next(a for a in group.elements() if group.perms[a] == (1, 0, 3, 2))]
    )
    norm = normalizer(group, k)
    assert norm.order == 8
    assert set(k.elements) <= set(norm.elements)


# -- quotients ----------------------------------------------------------------


def test_quotient_group():
    group = s4()
    k = subgroup_closure(
        group, [next(a for a in group.elements() if group.perms[a] == (1, 0, 3, 2))]
    )
    norm = normalizer(group, k)
    quotient, projection = quotient_group(norm, k)
    assert quotient.order == 4
    assert projection[0] == 0
    assert is_associative(quotient)
    for h in norm.elements:
        for g in norm.elements:
            assert projection[group.mul(h, g)] == quotient.mul(
                projection[h], projection[g]
            )


def test_quotient_by_non_normal_kernel_fails():
    group = s3()
    whole = subgroup_from_elements(group, group.elements())
    transposition = next(
        a for a in group.elements() if group.element_order(a) == 2
    )
    k = subgroup_closure(group, [transposition])
    with pytest.raises(ConsistencyError):
        quotient_group(whole, k)


def test_quotient_kernel_containment_checked():
    group = s3()
    transposition = next(
        a for a in group.elements() if group.element_order(a) == 2
    )
    k = subgroup_closure(group, [transposition])
    rotation = next(a for a in group.elements() if group.element_order(a) == 3)
    other = subgroup_closure(group, [rotation])
    with pytest.raises(InputError):
        quotient_group(other, k)



def test_quotient_by_trivial_kernel_is_the_group_itself():
    group = s4()
    whole = subgroup_from_elements(group, group.elements())
    quotient, projection = quotient_group(whole, trivial_subgroup(group))
    assert quotient is group
    assert projection == {h: h for h in group.elements()}
    # A proper overgroup still gets its own quotient table.
    k = subgroup_closure(
        group, [next(a for a in group.elements() if group.perms[a] == (1, 0, 3, 2))]
    )
    norm = normalizer(group, k)
    quotient, projection = quotient_group(norm, trivial_subgroup(group))
    assert quotient is not group and quotient.order == norm.order
    assert sorted(projection) == list(norm.elements)
    with pytest.raises(InputError):
        quotient_group(whole, trivial_subgroup(s3()))

# -- subgroup enumeration -----------------------------------------------------


def test_subgroups_containing_trivial_in_s3():
    group = s3()
    subs = subgroups_containing(group, trivial_subgroup(group))
    assert [sub.order for sub in subs] == [1, 2, 2, 2, 3, 6]
    assert [sub.id for sub in subs] == list(range(6))


def test_subgroups_containing_a_transposition():
    group = s3()
    transposition = next(
        a for a in group.elements() if group.element_order(a) == 2
    )
    k = subgroup_closure(group, [transposition])
    subs = subgroups_containing(group, k)
    assert [sub.order for sub in subs] == [2, 6]
    for sub in subs:
        assert set(k.elements) <= set(sub.elements)


def test_subgroups_containing_is_exhaustive_for_s4():
    group = s4()
    subs = subgroups_containing(group, trivial_subgroup(group))
    assert len(subs) == 30
    orders = [sub.order for sub in subs]
    assert orders == sorted(orders)
    # Spot-check closure: every returned tuple really is a subgroup.
    for sub in subs:
        subgroup_from_elements(group, sub.elements)


def test_is_core_free():
    group = s3()
    transposition = next(
        a for a in group.elements() if group.element_order(a) == 2
    )
    assert is_core_free(group, subgroup_closure(group, [transposition]))
    rotation = next(a for a in group.elements() if group.element_order(a) == 3)
    assert not is_core_free(group, subgroup_closure(group, [rotation]))
    assert is_core_free(group, trivial_subgroup(group))


# -- documents ----------------------------------------------------------------


def test_group_from_document():
    group, k = group_from_document(
        {
            "degree": 3,
            "generators": [[1, 0, 2], [0, 2, 1]],
            "k_generators": [[1, 0, 2]],
        }
    )
    assert group.order == 6
    assert k.order == 2


def test_group_from_document_defaults_to_trivial_k():
    group, k = group_from_document({"degree": 2, "generators": [[1, 0]]})
    assert group.order == 2
    assert k.order == 1


def test_group_from_document_rejects_bad_shapes():
    with pytest.raises(InputError):
        group_from_document([1, 2, 3])
    with pytest.raises(InputError):
        group_from_document({"degree": 2, "generators": [[1, 0]], "extra": 1})
    with pytest.raises(InputError):
        group_from_document({"degree": True, "generators": [[1, 0]]})
    with pytest.raises(InputError):
        group_from_document({"degree": 2, "generators": "nope"})
    with pytest.raises(InputError):
        group_from_document({"degree": 2, "generators": [[1, 0]], "k_generators": [[0, 0]]})


def test_group_from_document_k_generator_must_be_member():
    # (02) is not in the cyclic group generated by (012).
    with pytest.raises(InputError):
        group_from_document(
            {
                "degree": 3,
                "generators": [[1, 2, 0]],
                "k_generators": [[2, 1, 0]],
            }
        )


def test_document_digest_is_stable_and_k_sensitive():
    base = {"degree": 3, "generators": [[1, 0, 2], [0, 2, 1]], "k_generators": []}
    withk = {**base, "k_generators": [[1, 0, 2]]}
    assert document_digest(base) == document_digest(base)
    assert document_digest(base) != document_digest(withk)
    assert len(document_digest(base)) == 12


def test_subgroup_repr_mentions_order():
    group = s3()
    sub = Subgroup(group, (0,))
    assert "order=1" in repr(sub)
