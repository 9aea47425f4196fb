"""Subsequence-sum invariants of multiset sequences.

The central quantities: the set of nonempty subsequence sums, the
minimal length of a nonempty zero-sum subsequence (infinite when no
such subsequence exists), the support size, and the Davenport constant
of a group.  Everything here is exact; dynamic programming over the
group's index space replaces subset enumeration.

Sets of group elements are the bits of an int: bit v stands for the
element of index v (AbelianGroup.index_of), and an int holds one such
|G|-bit set.  One step, packed_translator, adds an element to a set for
any group: `mz` and `sumset` keep one set per bound L (the sums of at
most L entries), `has_zero_sum_of_size` one per exact length, and
`davenport` and the zero-sum-free scan in `verify` one sum set per depth
of their search.
Only the Z_n scans in `verify` pack several n-bit sets side by side,
one per exact length, rotated under the masks of cyclic_rotation_masks.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import BudgetExceededError
from .groups import AbelianGroup, Element, ZSequence, element_add, element_neg, record

INFINITY = math.inf

# dense DP walks arrays of size |G|; keep it at desk scale
DENSE_ORDER_CAP = 1_000_000

# the most bits the |G|-bit sets of one dense DP may hold together:
# min(k, |G|) layers for mz and sumset over k entries, size + 1 exact
# lengths for has_zero_sum_of_size (16 MiB)
DENSE_BIT_CAP = 1 << 27

# mz's witness replays k * m * |G| bits of layer snapshots (k entries,
# m = mz); above this many it refuses before building them
WITNESS_BIT_CAP = 1 << 32

# the zero-sum-free search is exponential in the worst case; the
# capacity prune handles every group we target, but cap the order anyway
DAVENPORT_ORDER_CAP = 64


@record
class SumSet:
    """Nonempty subsequence sums of a sequence, with minimal lengths.

    lengths pairs each achievable sum with the least number of entries
    realising it, sorted by the group's element index.
    """

    group: AbelianGroup
    lengths: tuple[tuple[Element, int], ...]

    @property
    def values(self) -> tuple[Element, ...]:
        return tuple(v for v, _ in self.lengths)

    @cached_property
    def _by_value(self) -> dict[Element, int]:
        # built on first lookup; not a field, so equality and repr ignore it
        return dict(self.lengths)

    def min_length_of(self, g: Element) -> int | None:
        return self._by_value.get(self.group.validate(g))

    def __contains__(self, g: Element) -> bool:
        return self.min_length_of(g) is not None

    def __len__(self) -> int:
        return len(self.lengths)


@record
class MZResult:
    """Minimal zero-sum length: an int, or INFINITY for zero-sum-free input.

    witness is a minimal zero-sum subsequence when one exists (chosen
    deterministically: entries are taken greedily from the front of the
    sorted sequence), else None.
    """

    value: int | float
    witness: ZSequence | None

    @property
    def is_finite(self) -> bool:
        return self.value != INFINITY


@record
class DavenportResult:
    """Davenport constant with a maximal zero-sum-free witness sequence."""

    value: int
    witness: ZSequence


def _check_dense_budget(group: AbelianGroup, sets: int) -> None:
    """Refuse a dense DP over the group that holds `sets` sets of |G| bits."""
    if group.order > DENSE_ORDER_CAP:
        raise BudgetExceededError(
            f"dense DP needs |G| <= {DENSE_ORDER_CAP}, got {group.order}"
        )
    if sets * group.order > DENSE_BIT_CAP:
        raise BudgetExceededError(
            f"dense DP needs sets*|G| <= {DENSE_BIT_CAP} bits, got {sets}*{group.order}"
        )


# ---------------------------------------------------------------------------
# the packed step


def _rotation_masks(radix: int, stride: int, c: int, width: int) -> tuple[int, int]:
    """Masks that add c (0 <= c < radix) to one mixed-radix digit.

    The digit's stride is the product of the radices below it, so its
    pattern repeats every radix * stride bits.  lo keeps the bits of a
    width-bit int whose digit is >= c, hi those whose digit is < c, and
    ((x << c*stride) & lo) | ((x >> (radix-c)*stride) & hi) rotates the
    digit, leaves the others alone and drops every bit at or above width.
    The patterns are tiled by doubling, so the cost is linear in width.
    """
    period = radix * stride
    lo = (1 << period) - (1 << c * stride)
    hi = (1 << c * stride) - 1
    span = period
    while span < width:
        lo |= lo << span
        hi |= hi << span
        span <<= 1
    full = (1 << width) - 1
    return lo & full, hi & full


def packed_translator(group: AbelianGroup):
    """translate(x, g): the set x of elements, moved by the element g.

    x is a |G|-bit set; the result is g + x, also within |G| bits.
    Masks are built lazily, one pair per (digit, shift) that occurs:
    prebuilt for every residue of Z10000 they took 2.7 GB.
    """
    factors = group.factors
    strides = [math.prod(factors[j + 1:]) for j in range(len(factors))]
    masks: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    steps: dict[Element, list[tuple[int, int, int, int]]] = {}

    def rotation(j: int, c: int) -> tuple[int, int, int, int]:
        step = masks.get((j, c))
        if step is None:
            n, s = factors[j], strides[j]
            lo, hi = _rotation_masks(n, s, c, group.order)
            step = masks[j, c] = (c * s, lo, (n - c) * s, hi)
        return step

    def translate(x: int, g: Element) -> int:
        ops = steps.get(g)
        if ops is None:
            ops = steps[g] = [rotation(j, c) for j, c in enumerate(g) if c]
        for up, lo, down, hi in ops:
            x = ((x << up) & lo) | ((x >> down) & hi)
        return x

    return translate


def _sum_layers(
    translate,
    entries: tuple[Element, ...],
    cap: int,
    stop_at_zero: bool = False,
    snapshots: list | None = None,
) -> list[int]:
    """Cumulative subset-sum layers: out[L-1] is C_L, the nonempty sums of
    at most L entries, as a |G|-bit int.

    Adding g turns C_L into C_L | (g + (C_{L-1} | {0})).  A top layer equal
    to the one below is dropped, since every layer above it is the same
    set, and each entry adds back at most one layer; so a missing layer L
    equals the last one kept.  Layers above `cap` are never built, and
    with stop_at_zero the cap falls to the lowest layer holding zero.
    snapshots, when given, gets the layers (a tuple) after each entry.
    """
    layers: list[int] = []
    for g in entries:
        if len(layers) < cap:
            layers.append(layers[-1] if layers else 0)
        below = 1  # C_0 | {0}: the empty sum
        for L, old in enumerate(layers):
            layers[L] = old | translate(below, g)
            below = old | 1
        while len(layers) > 1 and layers[-1] == layers[-2]:
            layers.pop()
        if stop_at_zero:
            for L, layer in enumerate(layers):
                if layer & 1:
                    cap = L + 1
                    del layers[cap:]
                    break
        if snapshots is not None:
            snapshots.append(tuple(layers))
    return layers


def sumset(seq: ZSequence) -> SumSet:
    """All nonempty subsequence sums with their minimal lengths."""
    group = seq.group
    _check_dense_budget(group, min(len(seq), group.order))
    layers = _sum_layers(packed_translator(group), seq.entries, len(seq))
    least: dict[int, int] = {}
    seen = 0
    for L, layer in enumerate(layers, 1):
        # the binary digits of the sums new at L, lowest index first; find
        # steps once per sum, not once per element
        new = bin(layer & ~seen)[:1:-1]
        v = new.find("1")
        while v >= 0:
            least[v] = L
            v = new.find("1", v + 1)
        seen = layer
    return SumSet(group, tuple((group.element_at(v), least[v]) for v in sorted(least)))


def mz(seq: ZSequence) -> MZResult:
    """Minimal length of a nonempty zero-sum subsequence of seq."""
    group = seq.group
    _check_dense_budget(group, min(len(seq), group.order))
    entries = seq.entries
    translate = packed_translator(group)
    layers = _sum_layers(translate, entries, len(entries), stop_at_zero=True)
    length = next((L for L, layer in enumerate(layers, 1) if layer & 1), None)
    if length is None:
        return MZResult(INFINITY, None)
    if len(entries) * length * group.order > WITNESS_BIT_CAP:
        raise BudgetExceededError(
            f"mz witness needs k*m*|G| <= {WITNESS_BIT_CAP} bits, got "
            f"{len(entries)}*{length}*{group.order}"
        )
    # replay with the layers up to mz kept after every prefix; then walk
    # backwards and keep an entry only when dropping it would lose the
    # target, which picks the earliest entries overall
    snapshots: list[tuple[int, ...]] = [()]
    _sum_layers(translate, entries, length, snapshots=snapshots)
    chosen: list[Element] = []
    v = 0
    remaining = length
    for i in range(len(entries), 0, -1):
        if remaining == 0:
            break
        before = snapshots[i - 1]
        # a layer above a snapshot's top is equal to its top
        if before and before[min(remaining, len(before)) - 1] >> v & 1:
            continue
        g = entries[i - 1]
        chosen.append(g)
        v = group.index_of(element_add(group, group.element_at(v), element_neg(group, g)))
        remaining -= 1
    witness = ZSequence.from_iterable(group, chosen)
    return MZResult(length, witness)


def support_size(seq: ZSequence) -> int:
    """Number of distinct entries."""
    return len(seq.support)


def has_zero_sum_of_size(seq: ZSequence, size: int) -> bool:
    """True when some subsequence of exactly `size` entries sums to zero.

    exact[L] is the |G|-bit set of sums of exactly L entries, and
    exact[0] = {0}.  Each entry g sets exact[L] |= g + exact[L-1] for L
    from the top down, so no entry is counted twice; before the i-th
    entry (from 0) only lengths up to i can be nonempty, so it moves
    only L <= min(size, i + 1).
    """
    if size < 1 or size > len(seq):
        return False
    group = seq.group
    _check_dense_budget(group, size + 1)
    translate = packed_translator(group)
    exact = [1] + [0] * size
    for i, g in enumerate(seq.entries):
        for L in range(min(size, i + 1), 0, -1):
            exact[L] |= translate(exact[L - 1], g)
    return bool(exact[size] & 1)


# ---------------------------------------------------------------------------
# packed cardinality-resolved subset sums over a single cyclic factor
#
# The layout of the scans over Z_n in verify: one int holds the sets of
# every exact length, bit L*n + r set when some L entries sum to r mod n.
# Adding a residue v rotates every n-bit block by v and moves it up one
# block.


def cyclic_rotation_masks(n: int, blocks: int) -> tuple[list[int], list[int]]:
    """Per-residue masks for the Z_n scans' step over blocks 0..blocks-1.

    Appending the residue v (0 <= v < n) to packed sums x gives
    x | ((((x << v) & lo[v]) | ((x >> (n - v)) & hi[v])) << n), a step
    verify._walk_packed inlines.  lo[v] keeps the bits >= v of every
    n-bit block, hi[v] the bits < v.  The step never writes above block
    `blocks`, so a packed int stays within its lowest (blocks + 1) * n
    bits: lengths past `blocks` are cut off, and every length up to
    `blocks` is kept exactly.
    """
    masks = [_rotation_masks(n, 1, v, blocks * n) for v in range(n)]
    return [lo for lo, _ in masks], [hi for _, hi in masks]


# ---------------------------------------------------------------------------


def davenport(group: AbelianGroup) -> DavenportResult:
    """Davenport constant of the group, with a longest zero-sum-free witness.

    Depth-first search over non-decreasing sequences of nonidentity
    elements, growing the running sum set incrementally.  A branch dies
    when it gains a zero sum, or when even one new sum per further entry
    (the growth guarantee for zero-sum-free sequences) cannot beat the
    best length found.  The witness is the first maximal sequence in
    search order, so results are deterministic.
    """
    if group.order > DAVENPORT_ORDER_CAP:
        raise BudgetExceededError(
            f"zero-sum-free search needs |G| <= {DAVENPORT_ORDER_CAP}, got {group.order}"
        )
    order = group.order
    elements = list(group.elements())
    neg = [group.index_of(element_neg(group, g)) for g in elements]
    translate = packed_translator(group)
    best_len = 0
    best_seq: list[int] = []

    def extend(seq: list[int], sigma: int, size: int, lo: int) -> None:
        nonlocal best_len, best_seq
        if len(seq) > best_len:
            best_len = len(seq)
            best_seq = seq[:]
        for gi in range(lo, order):
            if len(seq) + (order - 1 - size) <= best_len:
                # every further entry adds at least one sum and the sums
                # avoid zero, so this branch cannot beat the record
                break
            if sigma >> neg[gi] & 1:
                # -g is a sum already, so adding g gains zero
                continue
            grown = sigma | translate(sigma, elements[gi]) | (1 << gi)
            seq.append(gi)
            extend(seq, grown, grown.bit_count(), gi)
            seq.pop()

    extend([], 0, 0, 1)
    witness = ZSequence.from_iterable(group, (elements[i] for i in best_seq))
    return DavenportResult(best_len + 1, witness)
