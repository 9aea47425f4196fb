"""Shared brute-force oracles and test-only helpers for the test suite.

The oracles deliberately avoid the library's DP machinery: every
subsequence is enumerated outright, so any agreement with the fast
paths is meaningful.  packed_pairs only decodes the packed layout of
the Z_n scans (sums.cyclic_rotation_masks: bit L*|G| + v), and
replay_settled_walk checks the prefixes a Z_n walk settled against the
cut's argument with no `sums` or `verify` code.
The units mod n, the unit action, its orbit representative, the units
of a quadratic order, element scaling and orders, the Z_n scans' packed
step cyclic_add_residue, the sequence parser, ideal powers, the ideal
of a form and the reduced ideal of a class live here because only the
tests use them.  brute_element_orders composes each form's powers on
their own, as the reference for class_group's shared walks, and
brute_reduced_forms enumerates reduced forms over (a, b) as the
reference for quad.reduced_forms' (a, c) walk.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb, gcd, isqrt, lcm
from operator import add, mod

from zerosum import quad
from zerosum.errors import DomainError, InvalidElementError
from zerosum.groups import AbelianGroup, Element, ZSequence, parse_entries


def brute_sigma(seq: ZSequence) -> dict[Element, int]:
    """Sum -> minimal realising length, over all nonempty subsequences.

    Walks every sub-multiset: each distinct entry is taken 0 to
    multiplicity times, in every combination, so a long sequence with
    few distinct entries stays cheap.  Elements are added coordinatewise
    here, not through the validating library call; nothing is shared
    with the library's packed sums.
    """
    factors = seq.group.factors
    choices = [
        [(j, tuple(j * c % n for c, n in zip(g, factors))) for j in range(seq.multiplicity(g) + 1)]
        for g in seq.support
    ]
    out: dict[Element, int] = {}
    for pick in product(*choices):
        k = sum(j for j, _ in pick)
        if not k:
            continue
        acc = tuple(sum(coords) % n for coords, n in zip(zip(*(v for _, v in pick)), factors))
        if out.get(acc, k + 1) > k:
            out[acc] = k
    return out


def brute_mz(seq: ZSequence) -> int | None:
    """Minimal nonempty zero-sum length, or None when zero-sum-free."""
    return brute_sigma(seq).get(seq.group.identity)


def is_zero_sum_free(seq: ZSequence) -> bool:
    """True when no nonempty subsequence sums to the identity."""
    return brute_mz(seq) is None


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


def _subset_length_sums(factors: tuple[int, ...], entries) -> set[tuple[int, Element]]:
    """(size, sum) of every subset, the empty one included."""
    by_mask = [(0,) * len(factors)] * (1 << len(entries))
    out = {(0, by_mask[0])}
    for mask in range(1, 1 << len(entries)):
        low = mask & -mask
        acc = tuple(map(mod, map(add, by_mask[mask ^ low], entries[low.bit_length() - 1]), factors))
        by_mask[mask] = acc
        out.add((mask.bit_count(), acc))
    return out


def brute_length_sums(group: AbelianGroup, entries) -> set[tuple[int, int]]:
    """Every (L, v) such that some L of the entries sum to the element of
    index v (mixed radix, the last factor least significant).

    Enumerates the subsets of each half of the input by bitmask and
    pairs them up, so 2n-1 residues stay cheap at n = 12.
    """
    factors = group.factors
    half = len(entries) // 2
    left = _subset_length_sums(factors, entries[:half])
    right = _subset_length_sums(factors, entries[half:])
    out = set()
    for a, r in left:
        for b, s in right:
            index = 0
            for x, y, n in zip(r, s, factors):
                index = index * n + (x + y) % n
            out.add((a + b, index))
    return out


def packed_pairs(order: int, packed: int) -> set[tuple[int, int]]:
    """Decode packed subset sums: bit L*|G| + v becomes the pair (L, v)."""
    return {divmod(bit, order) for bit in range(packed.bit_length()) if packed >> bit & 1}


def cyclic_add_residue(x: int, v: int, n: int, lo: list[int], hi: list[int]) -> int:
    """Packed sums after appending the residue v (0 <= v < n), under the
    masks of sums.cyclic_rotation_masks."""
    return x | ((((x << v) & lo[v]) | ((x >> (n - v)) & hi[v])) << n)


def _zero_sum_lengths(values: tuple[int, ...], n: int) -> set[int]:
    """The lengths of the nonempty zero-sum sub-multisets of values over Z_n."""
    reach = {(0, 0)}
    for x in values:
        reach |= {(k + 1, (r + x) % n) for k, r in reach}
    return {k for k, r in reach if k and not r}


def replay_settled_walk(n: int, length: int, settled: list, walked: list, egz: bool) -> None:
    """Check a walk over the length-`length` sequences over Z_n against the cut's argument.

    settled holds (prefix, rest) for each prefix whose subtree the walk
    settled, with rest entries still to come; walked holds the leaves it
    visited.  Each settled prefix must carry what the argument needs:
    for EGZ, n entries summing to 0; for length n, a zero-sum of length
    m_p <= n - 3, and supp_p + min(rest, n-1-v) <= n - m_p for its
    supp_p distinct values and last value v.  The settled prefixes'
    C(n-v+rest-1, rest) leaves and the walked leaves must add up to
    C(n+length-1, length), and cover each sequence exactly once.
    """
    for prefix, rest in settled:
        zeros = _zero_sum_lengths(prefix, n)
        assert len(prefix) + rest == length, prefix
        if egz:
            assert n in zeros, prefix
            continue
        assert zeros, prefix
        m_p = min(zeros)
        assert m_p <= n - 3, (prefix, m_p)
        assert len(set(prefix)) + min(rest, n - 1 - prefix[-1]) <= n - m_p, (prefix, rest, m_p)
    count = sum(comb(n - prefix[-1] + rest - 1, rest) for prefix, rest in settled)
    assert count + len(walked) == comb(n + length - 1, length), (n, count, len(walked))
    heads = {prefix for prefix, _ in settled}
    seen = set(walked)
    assert len(seen) == len(walked)
    for leaf in combinations_with_replacement(range(n), length):
        covers = sum(leaf[:d] in heads for d in range(1, length + 1)) + (leaf in seen)
        assert covers == 1, (leaf, covers)


# ---------------------------------------------------------------------------
# group elements and sequences


def element_scale(group: AbelianGroup, k: int, a: Element) -> Element:
    """k-fold sum of a (k may be any integer)."""
    group.validate(a)
    return tuple((k * x) % n for x, n in zip(a, group.factors))


def element_order(group: AbelianGroup, g: Element) -> int:
    """Order of g: lcm over coordinates of n_j / gcd(n_j, g_j)."""
    group.validate(g)
    return lcm(*(n // gcd(n, c) for c, n in zip(g, group.factors)))


def parse_sequence(group: AbelianGroup, text: str) -> ZSequence:
    """Parse a comma-separated entry list into a canonical sequence."""
    return ZSequence.from_iterable(group, parse_entries(group, text))


# ---------------------------------------------------------------------------
# the unit action on sequences over Z_n, and units of quadratic orders


def units(n: int) -> tuple[int, ...]:
    """Multiplicative units mod n, as residues in [1, n]."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return tuple(u for u in range(1, n + 1) if gcd(u, n) == 1)


def unit_multiply(group: AbelianGroup, u: int, seq: ZSequence) -> ZSequence:
    """Image of a sequence under entrywise multiplication by a unit u."""
    _require_cyclic_rank_one(group)
    n = group.factors[0]
    if gcd(u, n) != 1:
        raise InvalidElementError(f"{u} is not a unit mod {n}")
    return ZSequence.from_iterable(group, ((u * g[0]) % n for g in seq))


def canonical_orbit_representative(group: AbelianGroup, seq: ZSequence) -> ZSequence:
    """Lexicographically least sorted multiset among all unit multiples u*S."""
    _require_cyclic_rank_one(group)
    n = group.factors[0]
    base = tuple(g[0] for g in seq.entries)
    best = base
    for u in units(n):
        if u == 1:
            continue
        image = tuple(sorted((u * x) % n for x in base))
        if image < best:
            best = image
    return ZSequence(group, tuple((x,) for x in best))


def _require_cyclic_rank_one(group: AbelianGroup) -> None:
    # the unit action is only wired up for a single cyclic factor; a
    # product like Z2xZ3 is abstractly cyclic but its presentation is not
    if group.rank != 1:
        raise ValueError(
            f"unit-orbit reduction needs a single cyclic factor, got {group}"
        )


def units_of(order: quad.QuadOrder) -> tuple[quad.Element, ...]:
    if order.d == 1:
        return ((1, 0), (-1, 0), (0, 1), (0, -1))
    if order.d == 3:
        # sixth roots of unity; w = (1+sqrt(-3))/2 is a primitive one
        return ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    return ((1, 0), (-1, 0))


def associates(order: quad.QuadOrder, alpha: quad.Element) -> tuple[quad.Element, ...]:
    return tuple(quad.elem_mul(order, u, alpha) for u in units_of(order))


def principal_class(cg: quad.ClassGroup) -> quad.Form:
    """The reduced principal form, the identity of the class group."""
    return quad.reduce_form(quad.principal_form(cg.base.discriminant))


def ideal_pow(order: quad.QuadOrder, ideal: quad.QuadIdeal, exponent: int) -> quad.QuadIdeal:
    if exponent < 0:
        raise DomainError("negative ideal powers are not integral")
    out = quad.unit_ideal(order)
    for _ in range(exponent):
        out = quad.ideal_mul(order, out, ideal)
    return out


def ideal_of_form(order: quad.QuadOrder, form: quad.Form) -> quad.QuadIdeal:
    """The primitive ideal (a, (b - t)/2 + w) of a form (a, b, c); the
    inverse of quad.form_of_ideal on primitive ideals."""
    a, b_form, _ = form
    b = quad._exact_div(b_form - order.omega_trace, 2) % a
    return quad.validate_ideal(order, quad.QuadIdeal(a, b, 1))


def reduced_class_ideal(order: quad.QuadOrder, ideal: quad.QuadIdeal) -> quad.QuadIdeal:
    """Canonical ideal representative of [ideal]: the one attached to the
    reduced form of its class."""
    return ideal_of_form(order, quad.reduce_form(quad.form_of_ideal(order, ideal)))


def brute_element_orders(forms: tuple[quad.Form, ...], ident: quad.Form) -> list[int]:
    """Order of each reduced form by composing its powers until the
    identity, one walk per form (about h^2 compositions); the reference
    for class_group's cyclic-subgroup walks."""
    h = len(forms)
    element_orders = []
    for f in forms:
        power = f
        o = 1
        while power != ident:
            power = quad.compose_reduced(power, f)
            o += 1
            if o > h:
                raise AssertionError(f"order of {f} exceeds the class number {h}")
        element_orders.append(o)
    return element_orders


def brute_reduced_forms(disc: int) -> tuple[quad.Form, ...]:
    """Reduced primitive forms of a negative discriminant, by a loop over
    a up to sqrt(|disc|/3) and b across (-a, a] with the parity of disc;
    c comes from the discriminant equation (about |disc|/3 steps)."""
    out = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            out.append((a, b, c))
    return tuple(sorted(out))
