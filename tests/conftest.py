"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's DP machinery: every subsequence
is enumerated through subset bitmasks and orbit counts come from
Burnside's formula, so any agreement with the fast paths is meaningful.
packed_pairs only decodes the packed layout of sums.cyclic_add_residue.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd
from operator import add, mod

from zerosum.groups import AbelianGroup, Element, ZSequence


def brute_sigma(seq: ZSequence) -> dict[Element, int]:
    """Sum -> minimal realising length, over all nonempty subsequences.

    Walks every subset bitmask, reusing the sum of the mask with its
    lowest bit removed; no sharing with the library's staged tables.
    Elements are added coordinatewise here, not through the validating
    library call.
    """
    group = seq.group
    factors = group.factors
    out: dict[Element, int] = {}
    entries = seq.entries
    by_mask = [group.identity] * (1 << len(entries))
    for mask in range(1, 1 << len(entries)):
        low = mask & -mask
        acc = tuple(map(mod, map(add, by_mask[mask ^ low], entries[low.bit_length() - 1]), factors))
        by_mask[mask] = acc
        k = mask.bit_count()
        if out.get(acc, k + 1) > k:
            out[acc] = k
    return out


def brute_mz(seq: ZSequence) -> int | None:
    """Minimal nonempty zero-sum length, or None when zero-sum-free."""
    return brute_sigma(seq).get(seq.group.identity)


def all_multisets(group: AbelianGroup, length: int, nonzero: bool = False):
    """Every multiset of the given length over the group, as tuples."""
    pool = [g for g in group.elements() if not (nonzero and g == group.identity)]
    yield from combinations_with_replacement(pool, length)


def brute_davenport(group: AbelianGroup) -> int:
    """1 + the longest zero-sum-free multiset, by direct enumeration."""
    best = 0
    length = 1
    while True:
        hits = (
            combo
            for combo in all_multisets(group, length, nonzero=True)
            if brute_mz(ZSequence.from_iterable(group, combo)) is None
        )
        if next(hits, None) is None:
            break
        best = length
        length += 1
    return best + 1


def _subset_length_sums(n: int, values) -> set[tuple[int, int]]:
    """(size, sum mod n) of every subset, the empty one included."""
    by_mask = [0] * (1 << len(values))
    out = {(0, 0)}
    for mask in range(1, 1 << len(values)):
        low = mask & -mask
        acc = (by_mask[mask ^ low] + values[low.bit_length() - 1]) % n
        by_mask[mask] = acc
        out.add((mask.bit_count(), acc))
    return out


def brute_length_sums(n: int, values) -> set[tuple[int, int]]:
    """Every (L, r) such that some L of the residues sum to r mod n.

    Enumerates the subsets of each half of the input by bitmask and
    pairs them up, so 2n-1 residues stay cheap at n = 12.
    """
    half = len(values) // 2
    left = _subset_length_sums(n, values[:half])
    right = _subset_length_sums(n, values[half:])
    return {(a + b, (r + s) % n) for a, r in left for b, s in right}


def packed_pairs(n: int, packed: int) -> set[tuple[int, int]]:
    """Decode packed subset sums: bit L*n + r becomes the pair (L, r)."""
    return {divmod(bit, n) for bit in range(packed.bit_length()) if packed >> bit & 1}


def burnside_orbit_count(n: int) -> int:
    """Orbits of length-n multisets over Z_n under x -> u*x, u a unit.

    Burnside: the mean over units u of the multisets u fixes.  A fixed
    multiset takes each cycle of x -> u*x with one multiplicity, so the
    count is the t^n coefficient of the product over cycles C of
    1/(1 - t^|C|).
    """
    unit_list = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    total = 0
    for u in unit_list:
        seen = [False] * n
        poly = [1] + [0] * n
        for start in range(n):
            if seen[start]:
                continue
            size = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = (u * x) % n
                size += 1
            # multiply by 1/(1 - t^size), truncated at t^n
            for k in range(size, n + 1):
                poly[k] += poly[k - size]
        total += poly[n]
    count, rest = divmod(total, len(unit_list))
    assert rest == 0, "Burnside sum not divisible by phi(n)"
    return count
