"""Sum-set DP, minimal zero-sum lengths, and Davenport constants,
cross-checked against exponential brute force."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_davenport,
    brute_length_sums,
    brute_mz,
    brute_sigma,
    cyclic_add_residue,
    is_zero_sum_free,
    packed_pairs,
    parse_sequence,
    unit_multiply,
    units,
)
from zerosum import sums
from zerosum.errors import BudgetExceededError
from zerosum.groups import AbelianGroup, ZSequence, element_add
from zerosum.sums import (
    DENSE_ORDER_CAP,
    INFINITY,
    cyclic_rotation_masks,
    davenport,
    has_zero_sum_of_size,
    mz,
    packed_translator,
    support_size,
    sumset,
)

Z4 = AbelianGroup((4,))
Z5 = AbelianGroup((5,))
Z6 = AbelianGroup((6,))


def seq_of(n: int, values) -> ZSequence:
    return ZSequence.from_iterable(AbelianGroup((n,)), [(v,) for v in values])


def exact_length_sets(group: AbelianGroup, entries, top: int) -> list[int]:
    """Fold the single-set step over entries: out[L] is the |G|-bit set of
    sums of exactly L entries, for L = 0..top."""
    translate = packed_translator(group)
    exact = [1] + [0] * top
    for g in entries:
        for L in range(top, 0, -1):
            exact[L] |= translate(exact[L - 1], g)
    return exact


def packed_sums(group: AbelianGroup, entries, top: int) -> int:
    """The sets of exact_length_sets side by side, set L at bit L*|G|, as
    the Z_n scans pack them."""
    return sum(x << L * group.order for L, x in enumerate(exact_length_sets(group, entries, top)))


def cyclic_packed_sums(n: int, values, top: int) -> int:
    """The same sets through the Z_n scans' rank-1 step."""
    lo, hi = cyclic_rotation_masks(n, top)
    x = 1
    for v in values:
        x = cyclic_add_residue(x, v % n, n, lo, hi)
    return x


# frozen worked examples


def test_minimal_zero_sum_worked_examples():
    r = mz(seq_of(5, [1, 3, 3]))
    assert r.value == INFINITY and r.witness is None
    assert support_size(seq_of(5, [1, 3, 3])) == 2

    r = mz(seq_of(6, [2, 2, 3, 1, 1, 1]))
    assert r.value == 3
    assert r.witness.entries == ((1,), (2,), (3,))
    assert support_size(seq_of(6, [2, 2, 3, 1, 1, 1])) == 3

    assert mz(seq_of(4, [2, 2, 1, 1])).value == 2
    assert mz(seq_of(4, [2, 2, 1, 3])).value == 2
    assert support_size(seq_of(4, [2, 2, 1, 3])) == 3


def test_sumset_worked_example():
    ss = sumset(seq_of(5, [1, 1, 4]))
    assert ss.values == ((0,), (1,), (2,), (4,))
    assert ss.min_length_of((0,)) == 2
    assert ss.min_length_of((1,)) == 1
    assert ss.min_length_of((2,)) == 2
    assert ss.min_length_of((4,)) == 1
    assert ss.min_length_of((3,)) is None
    assert (2,) in ss and (3,) not in ss
    assert len(ss) == 4


def test_empty_sequence():
    empty = ZSequence.from_iterable(Z6, [])
    assert len(sumset(empty)) == 0
    assert mz(empty).value == INFINITY
    assert is_zero_sum_free(empty)


def test_single_zero_entry():
    r = mz(seq_of(6, [0]))
    assert r.value == 1
    assert r.witness.entries == ((0,),)


# oracle agreement


FIXED_CASES = [
    (6, [2, 2, 3, 1, 1, 1]),
    (6, [1, 1, 1, 1, 1]),
    (5, [1, 3, 3]),
    (4, [2, 2, 1, 3]),
    (9, [3, 3, 3]),
    (12, [4, 6, 10, 5]),
    (2, [1, 1, 1]),
    (7, [1, 2, 3, 4, 5, 6]),
]


@pytest.mark.parametrize("n,values", FIXED_CASES)
def test_sumset_matches_brute_force_fixed(n, values):
    seq = seq_of(n, values)
    ss = sumset(seq)
    expect = brute_sigma(seq)
    assert dict(ss.lengths) == expect


@pytest.mark.parametrize("n,values", FIXED_CASES)
def test_mz_matches_brute_force_fixed(n, values):
    seq = seq_of(n, values)
    expect = brute_mz(seq)
    got = mz(seq).value
    assert got == (INFINITY if expect is None else expect)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sumset_and_mz_match_brute_force_random(data):
    factors = data.draw(
        st.sampled_from([(2,), (5,), (6,), (9,), (2, 2), (2, 4), (3, 3), (2, 2, 3)])
    )
    group = AbelianGroup(factors)
    length = data.draw(st.integers(min_value=0, max_value=8))
    entries = [
        group.element_at(data.draw(st.integers(min_value=0, max_value=group.order - 1)))
        for _ in range(length)
    ]
    seq = ZSequence.from_iterable(group, entries)
    ss = sumset(seq)
    sigma = brute_sigma(seq)
    assert dict(ss.lengths) == sigma
    # the lookups answer for every element of G, in the sum set and outside it
    for g in group.elements():
        assert ss.min_length_of(g) == sigma.get(g)
        assert (g in ss) == (g in sigma)
    expect = brute_mz(seq)
    result = mz(seq)
    assert result.value == (INFINITY if expect is None else expect)
    if result.is_finite:
        w = result.witness
        assert len(w) == result.value
        assert w.total() == group.identity
        for g in w.support:
            assert w.multiplicity(g) <= seq.multiplicity(g)
        # minimality: no shorter zero-sum inside the witness itself
        assert brute_mz(w) == len(w)


def test_witness_prefers_earliest_entries():
    # ties broken toward the front of the sorted sequence
    r = mz(seq_of(6, [2, 2, 3, 1, 1, 1]))
    assert r.witness.entries == ((1,), (2,), (3,))
    r = mz(seq_of(4, [1, 1, 2, 2]))
    assert r.witness.entries == ((2,), (2,))


def test_has_zero_sum_of_size_matches_brute_force():
    for n, values in FIXED_CASES:
        seq = seq_of(n, values)
        for size in range(1, len(seq) + 1):
            brute = False
            for m in range(1, 1 << len(seq)):
                picked = [seq.entries[i][0] for i in range(len(seq)) if m >> i & 1]
                if len(picked) == size and sum(picked) % n == 0:
                    brute = True
                    break
            assert has_zero_sum_of_size(seq, size) == brute


def test_has_zero_sum_of_size_memory_is_its_sets_and_masks():
    # size + 1 sets of |G| bits, plus two |G|-bit masks per distinct
    # (digit, shift): 0.38 MB here, where one size*|G|-bit int rotated
    # under masks as wide peaked at 26 MB
    group = AbelianGroup((10000,))
    rng = random.Random(1)
    seq = ZSequence.from_iterable(group, [(rng.randrange(10000),) for _ in range(100)])
    size = 100
    shifts = sum(1 for g in seq.support if g != group.identity)
    formula = (size + 1 + 2 * shifts) * group.order // 8
    tracemalloc.start()
    try:
        has_zero_sum_of_size(seq, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * formula <= 1 << 20, (peak, formula)


def test_zero_sum_free_iff_mz_infinite():
    for n, values in FIXED_CASES:
        seq = seq_of(n, values)
        assert is_zero_sum_free(seq) == (mz(seq).value == INFINITY)


NONCYCLIC_CASES = [
    ((2, 2), [(1, 0), (0, 1), (1, 1)]),
    ((2, 4), [(1, 1), (1, 3), (0, 2), (0, 2), (0, 0)]),
    ((3, 3), [(1, 0), (1, 0), (1, 0), (0, 1), (2, 2)]),
    ((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
]


def test_cyclic_helpers_agree_with_library():
    seqs = [seq_of(n, values) for n, values in FIXED_CASES]
    seqs += [ZSequence.from_iterable(AbelianGroup(f), entries) for f, entries in NONCYCLIC_CASES]
    for seq in seqs:
        group = seq.group
        k = len(seq)
        packed = packed_sums(group, seq.entries, k)
        pairs = packed_pairs(group.order, packed)
        # least nonempty length per element is exactly sumset's table
        least: dict[int, int] = {}
        for length, v in sorted(pairs):
            if length:
                least.setdefault(v, length)
        assert {group.element_at(v): length for v, length in least.items()} == dict(sumset(seq).lengths)
        assert least.get(0, INFINITY) == mz(seq).value
        for size in range(1, k + 1):
            assert ((size, 0) in pairs) == has_zero_sum_of_size(seq, size)
        if group.rank == 1:
            # the Z_n scans' inlined step is the rank-1 case of the same step
            assert cyclic_packed_sums(group.order, [g[0] for g in seq], k) == packed


PACKED_GROUPS = [(n,) for n in range(2, 13)] + [(2, 2), (2, 4), (3, 3), (2, 3), (2, 2, 2)]


@settings(max_examples=160, deadline=None)
@given(st.data())
def test_packed_step_matches_subset_enumeration(data):
    group = AbelianGroup(data.draw(st.sampled_from(PACKED_GROUPS)))
    order = group.order
    # the identity and the element with every digit at its top (the widest
    # wrap-around of each digit) are drawn far more often
    widest = group.element_at(order - 1)
    element = st.one_of(
        st.sampled_from([group.identity, widest]),
        st.integers(0, order - 1).map(group.element_at),
    )
    entries = data.draw(st.lists(element, max_size=min(2 * order - 1, 23)))
    k = len(entries)
    expect = brute_length_sums(group, entries)
    got = packed_sums(group, entries, k)
    assert got >> ((k + 1) * order) == 0
    assert packed_pairs(order, got) == expect
    # cut at |G| lengths, as the length 2n-1 scan keeps it: the bits of
    # lengths 0..|G| survive unchanged and nothing lands above them
    cut = packed_sums(group, entries, order)
    assert cut == got & ((1 << ((order + 1) * order)) - 1)
    assert packed_pairs(order, cut) == {(L, v) for L, v in expect if L <= order}
    if group.rank == 1:
        values = [g[0] for g in entries]
        assert cyclic_packed_sums(order, values, k) == got
        assert cyclic_packed_sums(order, values, order) == cut
    # one translation moves each set by g and stays within |G| bits
    translate = packed_translator(group)
    sets = exact_length_sets(group, entries, k)
    for g in set(entries) | {group.identity, widest}:
        for L, x in enumerate(sets):
            moved = {group.index_of(element_add(group, group.element_at(v), g)) for M, v in expect if M == L}
            y = translate(x, g)
            assert y >> order == 0
            assert {v for _, v in packed_pairs(order, y)} == moved


ORACLE_GROUPS = [(n,) for n in range(1, 13)] + [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)]
# sub-multisets the brute-force oracle may walk per sequence
ORACLE_SUBSETS = 1 << 13


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_layers_match_brute_force_any_rank(data):
    group = AbelianGroup(data.draw(st.sampled_from(ORACLE_GROUPS)))
    top = 3 * group.order // 2 + 2
    support = data.draw(
        st.lists(st.integers(0, group.order - 1), unique=True, max_size=min(group.order, 13))
    )
    # few distinct entries allow long multiplicities (a constant sequence
    # reaches length 1.5|G| + 2), many force short ones
    cap = max(1, int(ORACLE_SUBSETS ** (1 / max(1, len(support)))) - 1)
    entries = []
    for v in support:
        room = top - len(entries)
        if room <= 0:
            break
        entries += [group.element_at(v)] * data.draw(st.integers(1, min(cap, room)))
    seq = ZSequence.from_iterable(group, entries)
    expect = brute_sigma(seq)
    assert dict(sumset(seq).lengths) == expect
    result = mz(seq)
    m = expect.get(group.identity)
    assert result.value == (INFINITY if m is None else m)
    if m is None:
        assert result.witness is None
    else:
        w = result.witness
        assert len(w) == m and w.total() == group.identity
        assert all(w.multiplicity(g) <= seq.multiplicity(g) for g in w.support)
        if len(seq) <= 12:
            # the witness rule keeps an entry only when the target needs it,
            # so its positions are the zero-sum set of size m whose largest
            # position is least, then its next largest, and so on
            zero_sets = [
                idx
                for idx in combinations(range(len(seq)), m)
                if ZSequence.from_iterable(group, (seq.entries[i] for i in idx)).total() == group.identity
            ]
            best = min(zero_sets, key=lambda idx: idx[::-1])
            assert w.entries == tuple(seq.entries[i] for i in best)
    exact = brute_length_sums(group, seq.entries)
    for size in range(len(seq) + 2):
        assert has_zero_sum_of_size(seq, size) == (size >= 1 and (size, 0) in exact)


def test_mz_witness_refuses_above_bit_cap(monkeypatch):
    # the witness replays k * m * |G| bits: here 6 * 6 * 6
    seq = seq_of(6, [1] * 6)
    monkeypatch.setattr(sums, "WITNESS_BIT_CAP", 6 * 6 * 6)
    assert mz(seq).witness == seq
    monkeypatch.setattr(sums, "WITNESS_BIT_CAP", 6 * 6 * 6 - 1)
    with pytest.raises(BudgetExceededError):
        mz(seq)
    # a zero-sum-free sequence needs no witness and is never refused
    assert mz(seq_of(6, [1] * 5)).value == INFINITY


def test_dense_routines_refuse_order_above_cap():
    group = AbelianGroup((DENSE_ORDER_CAP + 1,))
    seq = ZSequence.from_iterable(group, [(1,), (2,)])
    with pytest.raises(BudgetExceededError):
        mz(seq)
    with pytest.raises(BudgetExceededError):
        sumset(seq)
    with pytest.raises(BudgetExceededError):
        has_zero_sum_of_size(seq, 2)


def test_dense_routines_refuse_more_bits_than_the_cap(monkeypatch):
    # 400 copies of -1 over Z_1,000,000 would hold 400 layers of |G| bits,
    # 4*10^8 in all (mz took 9.3 s and peaked at 51.6 MB before the cap)
    group = AbelianGroup((1_000_000,))
    seq = ZSequence.from_iterable(group, [(999_999,)] * 400)
    t0 = time.perf_counter()
    for run in (mz, sumset, lambda s: has_zero_sum_of_size(s, 200)):
        with pytest.raises(BudgetExceededError, match=r"sets\*\|G\| <= 134217728 bits, got \d+\*1000000$"):
            run(seq)
    assert time.perf_counter() - t0 < 1
    # the cap is on the product: min(k, |G|) sets for mz and sumset, size + 1
    # for has_zero_sum_of_size
    seq = seq_of(6, [1] * 8)
    monkeypatch.setattr(sums, "DENSE_BIT_CAP", 6 * 6)
    assert mz(seq).value == 6 and len(sumset(seq)) == 6
    assert has_zero_sum_of_size(seq, 5) is False
    monkeypatch.setattr(sums, "DENSE_BIT_CAP", 6 * 6 - 1)
    for run in (mz, sumset, lambda s: has_zero_sum_of_size(s, 6)):
        with pytest.raises(BudgetExceededError):
            run(seq)
    assert has_zero_sum_of_size(seq, 4) is False


def test_sumset_of_a_long_sparse_run():
    # 30 copies of -1 over Z_1,000,000: the sums are -L for L = 1..30, each
    # first reached by L entries, listed by element index
    group = AbelianGroup((1_000_000,))
    got = sumset(ZSequence.from_iterable(group, [(999_999,)] * 30))
    assert got.lengths == tuple(((1_000_000 - L,), L) for L in range(30, 0, -1))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_unit_action_preserves_invariants(data):
    n = data.draw(st.sampled_from([5, 6, 8, 12]))
    group = AbelianGroup((n,))
    entries = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=8)
    )
    seq = ZSequence.from_iterable(group, [(v,) for v in entries])
    for u in units(n):
        image = unit_multiply(group, u, seq)
        assert mz(image).value == mz(seq).value
        assert support_size(image) == support_size(seq)
        assert len(sumset(image)) == len(sumset(seq))


# Davenport constants


def test_davenport_cyclic_equals_order():
    for n in range(1, 13):
        r = davenport(AbelianGroup((n,)))
        assert r.value == n
        assert len(r.witness) == n - 1
        assert is_zero_sum_free(r.witness)


def test_davenport_witness_is_maximal_zero_sum_free():
    r = davenport(AbelianGroup((12,)))
    assert r.witness.entries == tuple([(1,)] * 11)


def test_davenport_small_noncyclic_frozen():
    assert davenport(AbelianGroup((2, 2))).value == 3
    assert davenport(AbelianGroup((3, 3))).value == 5
    assert davenport(AbelianGroup((2, 4))).value == 5
    assert davenport(AbelianGroup((2, 2, 2))).value == 4
    assert davenport(AbelianGroup((2, 6))).value == 7


def test_davenport_matches_brute_force():
    for factors in [(1,), (2,), (5,), (2, 2), (3, 3), (2, 4), (2, 2, 2)]:
        group = AbelianGroup(factors)
        assert davenport(group).value == brute_davenport(group)


def test_davenport_order_cap():
    with pytest.raises(BudgetExceededError):
        davenport(AbelianGroup((65,)))


def test_davenport_bounds_general():
    # 1 + sum(n_i - 1) <= D(G) <= |G|, equality on the right iff cyclic
    for m in range(1, 17):
        from zerosum.groups import groups_of_order

        for group in groups_of_order(m):
            value = davenport(group).value
            lower = 1 + sum(n - 1 for n in group.factors)
            assert lower <= value <= group.order
            assert (value == group.order) == group.is_cyclic


def test_sumset_lengths_sorted_by_element_index():
    ss = sumset(seq_of(6, [2, 2, 3, 1, 1, 1]))
    idxs = [v[0] for v in ss.values]
    assert idxs == sorted(idxs)


def test_infinity_sentinel_is_float_inf():
    assert INFINITY == math.inf
    assert mz(seq_of(5, [1, 3, 3])).value > 10**9
