"""Subsequence-sum invariants of multiset sequences.

The central quantities: the set of nonempty subsequence sums, the
minimal length of a nonempty zero-sum subsequence (infinite when no
such subsequence exists), the support size, and the Davenport constant
of a group.  Everything here is exact; dynamic programming over the
group's index space replaces subset enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceededError
from .groups import AbelianGroup, Element, ZSequence, element_add, element_neg

INFINITY = math.inf

# dense DP walks arrays of size |G|; keep it at desk scale
DENSE_ORDER_CAP = 1_000_000

# the zero-sum-free search is exponential in the worst case; the
# capacity prune handles every group we target, but cap the order anyway
DAVENPORT_ORDER_CAP = 64


@dataclass(frozen=True)
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

    def min_length_of(self, g: Element) -> int | None:
        g = self.group.validate(g)
        for v, k in self.lengths:
            if v == g:
                return k
        return None

    def __contains__(self, g: Element) -> bool:
        return self.min_length_of(g) is not None

    def __len__(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DavenportResult:
    """Davenport constant with a maximal zero-sum-free witness sequence."""

    value: int
    witness: ZSequence


def _check_dense_budget(group: AbelianGroup) -> None:
    if group.order > DENSE_ORDER_CAP:
        raise BudgetExceededError(
            f"dense DP needs |G| <= {DENSE_ORDER_CAP}, got {group.order}"
        )


def _add_permutation(group: AbelianGroup, g: Element) -> list[int]:
    """perm[v] = index of element_at(v) + g.

    Index arithmetic mod |G| only matches group addition for a single
    cyclic factor; higher ranks go through the element maps.
    """
    if group.rank == 1:
        n = group.order
        shift = g[0]
        return [(v + shift) % n for v in range(n)]
    return [
        group.index_of(element_add(group, group.element_at(v), g))
        for v in range(group.order)
    ]


def _staged_tables(group: AbelianGroup, entries: tuple[Element, ...]) -> list[list[float]]:
    """Prefix snapshots of the min-length table.

    tables[i][v] = least size of a nonempty subsequence of the first i
    entries summing to index v (INFINITY if none).  tables has len(entries)+1
    rows, so tables[-1] describes the whole sequence.
    """
    order = group.order
    index_of = group.index_of
    table = [INFINITY] * order
    snapshots = [table[:]]
    sub_perms: dict[Element, list[int]] = {}
    for g in entries:
        sub = sub_perms.get(g)
        if sub is None:
            sub = sub_perms[g] = _add_permutation(group, element_neg(group, g))
        gi = index_of(g)
        new = table[:]
        for v in range(order):
            # shifting an older subsequence by g, or starting fresh at {g}
            src = table[sub[v]]
            cand = src + 1 if src != INFINITY else INFINITY
            if v == gi and cand > 1:
                cand = 1
            if cand < new[v]:
                new[v] = cand
        table = new
        snapshots.append(table[:])
    return snapshots


def sumset(seq: ZSequence) -> SumSet:
    """All nonempty subsequence sums with their minimal lengths."""
    _check_dense_budget(seq.group)
    table = _staged_tables(seq.group, seq.entries)[-1]
    pairs = tuple(
        (seq.group.element_at(v), int(k)) for v, k in enumerate(table) if k != INFINITY
    )
    return SumSet(seq.group, pairs)


def mz(seq: ZSequence) -> MZResult:
    """Minimal length of a nonempty zero-sum subsequence of seq."""
    _check_dense_budget(seq.group)
    group = seq.group
    snapshots = _staged_tables(group, seq.entries)
    best = snapshots[-1][0]
    if best == INFINITY:
        return MZResult(INFINITY, None)
    length = int(best)
    # walk the snapshots backwards; keep an entry only when dropping it
    # would lose the target, which picks the earliest entries overall
    chosen: list[Element] = []
    v = 0
    remaining = length
    for i in range(len(seq.entries), 0, -1):
        if remaining == 0:
            break
        if snapshots[i - 1][v] <= remaining:
            continue
        g = seq.entries[i - 1]
        chosen.append(g)
        v = group.index_of(element_add(group, group.element_at(v), element_neg(group, g)))
        remaining -= 1
    witness = ZSequence.from_iterable(group, chosen)
    return MZResult(length, witness)


def support_size(seq: ZSequence) -> int:
    """Number of distinct entries."""
    return len(seq.support)


def is_zero_sum_free(seq: ZSequence) -> bool:
    """True when no nonempty subsequence sums to the identity."""
    return not mz(seq).is_finite


def has_zero_sum_of_size(seq: ZSequence, size: int) -> bool:
    """True when some subsequence of exactly `size` entries sums to zero."""
    if size < 1 or size > len(seq):
        return False
    _check_dense_budget(seq.group)
    group = seq.group
    order = group.order
    by_len: list[set[int]] = [set() for _ in range(size + 1)]
    add_perms: dict[Element, list[int]] = {}
    for g in seq.entries:
        add = add_perms.get(g)
        if add is None:
            add = add_perms[g] = _add_permutation(group, g)
        for length in range(size, 1, -1):
            prev = by_len[length - 1]
            if prev:
                by_len[length] |= {add[v] for v in prev}
        by_len[1].add(group.index_of(g))
    return 0 in by_len[size]


# ---------------------------------------------------------------------------
# packed cardinality-resolved subset sums over a single cyclic factor
#
# One int holds every (length, residue) pair at once: bit L*n + r is set
# when some L entries sum to r mod n, so bit 0 (L = 0, r = 0) stands for
# the empty subsequence and the empty sequence packs to 1.  Adding a
# residue v rotates every n-bit block by v and moves it up one block.


def cyclic_rotation_masks(n: int, blocks: int) -> tuple[list[int], list[int]]:
    """Per-residue masks for cyclic_add_residue over blocks 0..blocks-1.

    lo[v] keeps the bits >= v of every n-bit block, hi[v] the bits < v.
    The step never writes above block `blocks`, so a packed int stays
    within its lowest (blocks + 1) * n bits: lengths past `blocks` are
    cut off, and every length up to `blocks` is kept exactly.
    """
    ones = sum(1 << (b * n) for b in range(blocks))
    lo = [((1 << n) - (1 << v)) * ones for v in range(n)]
    hi = [((1 << v) - 1) * ones for v in range(n)]
    return lo, hi


def cyclic_add_residue(x: int, v: int, n: int, lo: list[int], hi: list[int]) -> int:
    """Packed sums after appending the residue v (0 <= v < n)."""
    return x | ((((x << v) & lo[v]) | ((x >> (n - v)) & hi[v])) << n)


def cyclic_zero_sum_of_size(n: int, values: tuple[int, ...] | list[int], size: int) -> bool:
    """Exact-cardinality variant: a zero-sum subset of exactly `size` residues."""
    if size < 1 or size > len(values):
        return False
    lo, hi = cyclic_rotation_masks(n, size)
    x = 1
    for v in values:
        x = cyclic_add_residue(x, v % n, n, lo, hi)
    return bool(x >> (size * n) & 1)


# ---------------------------------------------------------------------------


def davenport(group: AbelianGroup, order_cap: int = DAVENPORT_ORDER_CAP) -> DavenportResult:
    """Davenport constant of the group, with a longest zero-sum-free witness.

    Depth-first search over non-decreasing sequences of nonidentity
    elements, growing the running sum set incrementally.  A branch dies
    when it gains a zero sum, or when even one new sum per further entry
    (the growth guarantee for zero-sum-free sequences) cannot beat the
    best length found.  The witness is the first maximal sequence in
    search order, so results are deterministic.
    """
    if group.order > order_cap:
        raise BudgetExceededError(
            f"zero-sum-free search needs |G| <= {order_cap}, got {group.order}"
        )
    order = group.order
    elements = list(group.elements())
    add = [
        [group.index_of(element_add(group, a, b)) for b in elements] for a in elements
    ]
    best_len = 0
    best_seq: list[int] = []

    def extend(seq: list[int], sigma: set[int], lo: int) -> None:
        nonlocal best_len, best_seq
        if len(seq) > best_len:
            best_len = len(seq)
            best_seq = seq[:]
        for gi in range(lo, order):
            if len(seq) + (order - 1 - len(sigma)) <= best_len:
                # every further entry adds at least one sum and the sums
                # avoid zero, so this branch cannot beat the record
                break
            row = add[gi]
            new_sigma = {row[v] for v in sigma}
            new_sigma.add(gi)
            if 0 in new_sigma:
                continue
            new_sigma |= sigma
            seq.append(gi)
            extend(seq, new_sigma, gi)
            seq.pop()

    extend([], set(), 1)
    witness = ZSequence.from_iterable(group, (elements[i] for i in best_seq))
    return DavenportResult(best_len + 1, witness)
