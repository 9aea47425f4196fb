"""Reference arithmetic for the benchmark's output checks.

Nothing here imports zerosum: these are the independent answers the
program's outputs are compared with.  Everything is exact integer
arithmetic from the standard library.
"""

from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def class_number(d: int) -> int:
    """h(Q(sqrt(-d))) for squarefree d = 3 mod 4, d > 3, by the analytic
    class number formula h = (w / (2|D|)) * |sum_{a<|D|} chi_D(a) * a|.

    Here D = -d = 1 mod 4, w = 2, and chi_D(a) is the Jacobi symbol
    (a/d), which is completely multiplicative in a: it is evaluated at
    primes and extended through a smallest-prime-factor sieve.
    """
    if d % 4 != 3 or d <= 3:
        raise ValueError("class_number needs d = 3 mod 4 and d > 3")
    spf = list(range(d))
    for p in range(2, isqrt(d - 1) + 1):
        if spf[p] == p:
            for q in range(p * p, d, p):
                if spf[q] == q:
                    spf[q] = p
    chi = [0] * d
    chi[1] = 1
    total = 1
    for a in range(2, d):
        p = spf[a]
        chi[a] = jacobi(p, d) if p == a else chi[p] * chi[a // p]
        total += chi[a] * a
    h, rem = divmod(abs(total), d)
    if rem:
        raise ArithmeticError(f"class number sum for d={d} is not a multiple of d")
    return h


def quad_params(d: int) -> tuple[int, int]:
    """(t, m) with w^2 = t*w - m for the ring of integers of Q(sqrt(-d))."""
    return (1, (1 + d) // 4) if d % 4 == 3 else (0, d)


def quad_norm(d: int, alpha: tuple[int, int]) -> int:
    t, m = quad_params(d)
    x, y = alpha
    return x * x + t * x * y + m * y * y


def quad_mul(d: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    t, m = quad_params(d)
    x1, y1 = a
    x2, y2 = b
    return (x1 * x2 - m * y1 * y2, x1 * y2 + x2 * y1 + t * y1 * y2)


def split_primes(d: int, count: int) -> list[tuple[int, tuple[int, int]]]:
    """The first `count` odd primes that split in Q(sqrt(-d)), each with the
    two roots b of b^2 + t*b + m = 0 mod p; (p, b + w) is a prime ideal."""
    t, m = quad_params(d)
    out = []
    p = 2
    while len(out) < count:
        p += 1
        if not is_prime(p):
            continue
        roots = [b for b in range(p) if (b * b + t * b + m) % p == 0]
        if len(roots) == 2:
            out.append((p, (roots[0], roots[1])))
    return out


class Grid:
    """Z_{n1} x Z_{n2} (rank 1 as n1 = 1) indexed in mixed radix, with
    subset-sum sets held as big-int bitsets over the indices."""

    def __init__(self, factors: tuple[int, ...]):
        if len(factors) == 1:
            factors = (1,) + tuple(factors)
        if len(factors) != 2:
            raise ValueError("Grid supports rank 1 and rank 2")
        self.rows, self.width = factors
        self.size = self.rows * self.width
        self.full = (1 << self.size) - 1
        self._row_masks: dict[int, tuple[int, int]] = {}

    def index(self, g: tuple[int, ...]) -> int:
        if len(g) == 1:
            return g[0] % self.width
        return (g[0] % self.rows) * self.width + g[1] % self.width

    def shift(self, x: int, g: tuple[int, ...]) -> int:
        """Bitset of {v + g : v in x}."""
        row_shift = 0 if len(g) == 1 else g[0] % self.rows
        s = g[-1] % self.width
        if s:
            if s not in self._row_masks:
                low = sum(((1 << s) - 1) << (r * self.width) for r in range(self.rows))
                self._row_masks[s] = (self.full & ~low, low)
            high, low = self._row_masks[s]
            x = ((x << s) & high) | ((x >> (self.width - s)) & low)
        k = row_shift * self.width
        if k:
            x = ((x << k) | (x >> (self.size - k))) & self.full
        return x

    def min_lengths(self, entries: list[tuple[int, ...]]) -> list[int]:
        """lengths[v] = least size of a nonempty subsequence summing to index
        v, or 0 when no subsequence does (cardinality-resolved DP)."""
        by_len = [1] + [0] * len(entries)
        for i, g in enumerate(entries):
            for length in range(i + 1, 0, -1):
                if by_len[length - 1]:
                    by_len[length] |= self.shift(by_len[length - 1], g)
        out = [0] * self.size
        seen = 0
        for length in range(1, len(entries) + 1):
            fresh = by_len[length] & ~seen
            seen |= by_len[length]
            for v, bit in enumerate(reversed(bin(fresh)[2:])):
                if bit == "1":
                    out[v] = length
        return out
