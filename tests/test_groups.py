"""Group model, sequences, parsing, and the unit-orbit canonical form."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from conftest import (
    canonical_orbit_representative,
    element_order,
    element_scale,
    parse_sequence,
    unit_multiply,
    units,
)
from zerosum.errors import DomainError, InvalidElementError, ParseError, ZerosumError
from zerosum.groups import (
    AbelianGroup,
    ZSequence,
    element_add,
    element_neg,
    format_element,
    groups_of_order,
    parse_element,
    parse_entries,
    parse_group,
)

Z6 = AbelianGroup((6,))
Z2xZ4 = AbelianGroup((2, 4))


def small_groups():
    return [AbelianGroup((n,)) for n in (1, 2, 5, 6)] + [Z2xZ4, AbelianGroup((2, 2, 2))]


def test_group_basic_attributes():
    assert Z6.order == 6 and Z6.rank == 1 and Z6.exponent == 6 and Z6.is_cyclic
    assert Z2xZ4.order == 8 and Z2xZ4.rank == 2 and Z2xZ4.exponent == 4
    assert not Z2xZ4.is_cyclic
    assert str(Z2xZ4) == "Z2xZ4"
    assert Z6.identity == (0,) and Z2xZ4.identity == (0, 0)


def test_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        AbelianGroup((0,))
    with pytest.raises(ValueError):
        AbelianGroup((6, -2))


def test_element_indexing_round_trip():
    for group in small_groups():
        seen = set()
        for i in range(group.order):
            g = group.element_at(i)
            assert group.index_of(g) == i
            seen.add(g)
        assert len(seen) == group.order
        assert list(group.elements()) == [group.element_at(i) for i in range(group.order)]


def test_element_arithmetic_examples():
    assert element_add(Z6, (4,), (5,)) == (3,)
    assert element_neg(Z6, (2,)) == (4,)
    assert element_scale(Z6, 5, (2,)) == (4,)
    assert element_add(Z2xZ4, (1, 3), (1, 2)) == (0, 1)


def test_element_order_values():
    assert element_order(Z6, (0,)) == 1
    assert element_order(Z6, (1,)) == 6
    assert element_order(Z6, (2,)) == 3
    assert element_order(Z6, (3,)) == 2
    assert element_order(Z2xZ4, (1, 0)) == 2
    assert element_order(Z2xZ4, (1, 1)) == 4
    assert element_order(Z2xZ4, (0, 2)) == 2


@given(st.data())
def test_element_group_axioms(data):
    group = data.draw(st.sampled_from(small_groups()))
    idx = st.integers(min_value=0, max_value=group.order - 1)
    a = group.element_at(data.draw(idx))
    b = group.element_at(data.draw(idx))
    c = group.element_at(data.draw(idx))
    assert element_add(group, a, b) == element_add(group, b, a)
    assert element_add(group, element_add(group, a, b), c) == element_add(
        group, a, element_add(group, b, c)
    )
    assert element_add(group, a, element_neg(group, a)) == group.identity
    assert element_add(group, a, group.identity) == a
    # scaling by the element order closes the cycle
    assert element_scale(group, element_order(group, a), a) == group.identity


def test_validate_rejects_wrong_arity():
    with pytest.raises(InvalidElementError):
        Z6.validate((1, 2))
    with pytest.raises(InvalidElementError):
        Z2xZ4.validate((1,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AbelianGroup(()), ValueError, "at least one cyclic factor"),
        (lambda: Z2xZ4.element(3), InvalidElementError, "needs a rank-1 group"),
        (lambda: Z2xZ4.element((1, 1.5)), InvalidElementError, "non-integer coordinate"),
        (lambda: Z2xZ4.element_at(8), InvalidElementError, "index 8 out of range"),
        (lambda: ZSequence(Z6, ((2,), (1,))), ValueError, "must be sorted"),
        (lambda: units(0), ValueError, "modulus must be positive"),
        (lambda: groups_of_order(0), ValueError, "group order must be positive"),
        (lambda: parse_element(Z2xZ4, "()"), ParseError, "empty element tuple"),
        (lambda: parse_element(Z2xZ4, "(a,1)"), ParseError, "bad element"),
        (lambda: parse_element(Z2xZ4, "3"), ParseError, "needs a rank-1 group"),
        (lambda: parse_entries(Z6, "1),(2"), ParseError, "unbalanced parentheses"),
    ],
)
def test_bad_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_bad_group_input_is_a_package_error():
    # `except ZerosumError` catches each; DomainError is still a ValueError
    for call in (
        lambda: AbelianGroup((0,)),
        lambda: AbelianGroup(()),
        lambda: AbelianGroup((True, 2)),
        lambda: ZSequence(Z6, ((2,), (1,))),
        lambda: groups_of_order(0),
        lambda: groups_of_order(2.0),
    ):
        with pytest.raises(ZerosumError) as info:
            call()
        assert type(info.value) is DomainError


def test_sequence_is_sorted_multiset():
    seq = ZSequence.from_iterable(Z6, [(5,), (2,), (2,), (0,)])
    assert seq.entries == ((0,), (2,), (2,), (5,))
    assert seq.support == ((0,), (2,), (5,))
    assert seq.multiplicity((2,)) == 2
    assert seq.total() == (3,)
    assert len(seq) == 4


def test_sequence_entries_reduced_mod_group():
    seq = ZSequence.from_iterable(Z6, [(7,), (-1,)])
    assert seq.entries == ((1,), (5,))


def test_parse_group_strings():
    assert parse_group("Z6") == Z6
    assert parse_group("z2xz4") == Z2xZ4
    assert parse_group(" Z3 x Z3 ") == AbelianGroup((3, 3))
    for bad in ("", "Z", "Z0", "6", "ZxZ2", "Z2+Z4"):
        with pytest.raises(ParseError):
            parse_group(bad)


def test_parse_element_and_sequence():
    assert parse_element(Z6, "4") == (4,)
    assert parse_element(Z6, "-1") == (5,)
    assert parse_element(Z2xZ4, "(1,3)") == (1, 3)
    assert parse_entries(Z6, "2,2,3") == [(2,), (2,), (3,)]
    seq = parse_sequence(Z2xZ4, "(1,3),(0,2),(1,0)")
    assert seq.entries == ((0, 2), (1, 0), (1, 3))
    for bad in ("", "2,,3", "(1,2", "x", "(1,2)"):
        with pytest.raises(ParseError):
            parse_sequence(Z6, bad)


def test_format_element_round_trip():
    for group in (Z6, Z2xZ4):
        for g in group.elements():
            assert parse_element(group, format_element(group, g)) == g


def test_units_of_small_moduli():
    assert units(1) == (1,)
    assert units(2) == (1,)
    assert units(6) == (1, 5)
    assert units(12) == (1, 5, 7, 11)


def test_unit_multiply_is_bijection_on_sequences():
    seq = parse_sequence(Z6, "1,2,2,5")
    doubled = unit_multiply(Z6, 5, seq)
    assert doubled.entries == ((1,), (4,), (4,), (5,))
    assert unit_multiply(Z6, 5, doubled).entries == seq.entries


def test_canonical_orbit_representative_frozen_cases():
    # (1,3,3) over Z5 maps to (1,1,2) under the unit 2
    z5 = AbelianGroup((5,))
    rep = canonical_orbit_representative(z5, parse_sequence(z5, "1,3,3"))
    assert rep.entries == ((1,), (1,), (2,))
    rep = canonical_orbit_representative(Z6, parse_sequence(Z6, "5,5,5,4,4,3"))
    assert rep.entries == ((1,), (1,), (1,), (2,), (2,), (3,))


@given(st.data())
def test_canonical_representative_is_orbit_invariant(data):
    n = data.draw(st.sampled_from([5, 6, 8, 12]))
    group = AbelianGroup((n,))
    entries = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=7)
    )
    seq = ZSequence.from_iterable(group, [(v,) for v in entries])
    rep = canonical_orbit_representative(group, seq)
    for u in units(n):
        image = unit_multiply(group, u, seq)
        assert canonical_orbit_representative(group, image).entries == rep.entries
    # the representative is itself in the orbit
    assert any(unit_multiply(group, u, seq).entries == rep.entries for u in units(n))


def test_canonical_representative_needs_cyclic():
    with pytest.raises(ValueError):
        canonical_orbit_representative(Z2xZ4, ZSequence.from_iterable(Z2xZ4, [(1, 1)]))


def test_groups_of_order_invariant_factors():
    assert [g.factors for g in groups_of_order(1)] == [(1,)]
    assert [g.factors for g in groups_of_order(6)] == [(6,)]
    assert [g.factors for g in groups_of_order(8)] == [(8,), (2, 4), (2, 2, 2)]
    assert [g.factors for g in groups_of_order(12)] == [(12,), (2, 6)]
    assert len(groups_of_order(16)) == 5
    assert [g.factors for g in groups_of_order(36)] == [(36,), (2, 18), (3, 12), (6, 6)]
    # every m <= 3000, against the structure theorem and no groups code:
    # each type is a chain 1 < d_1 | ... | d_k with product m (Z1 alone at
    # m = 1), the list is sorted by (rank, factors) with no repeats, and
    # it has p(a_1) * ... * p(a_r) entries for m = p_1^a_1 * ... * p_r^a_r,
    # p the partition function
    partitions = [1] + [0] * 11  # p(0..11); 2^12 > 3000
    for part in range(1, 12):
        for a in range(part, 12):
            partitions[a] += partitions[a - part]
    assert partitions[11] == 56
    for m in range(1, 3001):
        types = [g.factors for g in groups_of_order(m)]
        assert types == sorted(set(types), key=lambda f: (len(f), f))
        for f in types:
            assert math.prod(f) == m
            assert (f == (1,)) if m == 1 else (f[0] > 1)
            assert all(b % a == 0 for a, b in zip(f, f[1:]))
        count, rest, p = 1, m, 2
        while rest > 1:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            count *= partitions[a]
            p += 1
        assert len(types) == count
