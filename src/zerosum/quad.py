"""Imaginary quadratic maximal orders at desk scale.

Elements are integer pairs (x, y) meaning x + y*w in the integral basis
{1, w} of the ring of integers of Q(sqrt(-d)); ideals are stored in
Hermite normal form scale*(a*Z + (b+w)*Z) so equality is structural.
Class groups are computed through reduced positive definite binary
quadratic forms, enumerated once per discriminant (the tests hold an
independent enumeration as the oracle), and ideal classes fall out of
the classical ideal/form dictionary.

Everything is exact integer arithmetic; norm-equation searches run over
provably finite boxes (the norm form is positive definite).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt, prod

from . import sums
from .errors import (
    ArityError,
    BudgetExceededError,
    DomainError,
    InvalidIdealError,
    ParseError,
    StructureError,
)
from .groups import AbelianGroup, ZSequence, groups_of_order, record

Form = tuple[int, int, int]
CLASS_GROUP_DISC_CAP = 100_000


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


@record
class QuadOrder:
    """Maximal order of Q(sqrt(-d)) for squarefree d >= 1."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError("d must be a positive integer")
        if not _is_squarefree(self.d):
            raise DomainError(f"d must be squarefree, got {self.d}")

    @property
    def discriminant(self) -> int:
        return -self.d if self.d % 4 == 3 else -4 * self.d

    @property
    def omega_trace(self) -> int:
        # w satisfies w^2 = t*w - m
        return 1 if self.d % 4 == 3 else 0

    @property
    def omega_norm(self) -> int:
        return (1 + self.d) // 4 if self.d % 4 == 3 else self.d

    def __str__(self) -> str:
        return f"Q(sqrt(-{self.d}))"


Element = tuple[int, int]


def norm(order: QuadOrder, alpha: Element) -> int:
    x, y = alpha
    return x * x + order.omega_trace * x * y + order.omega_norm * y * y


def elem_mul(order: QuadOrder, a: Element, b: Element) -> Element:
    t, m = order.omega_trace, order.omega_norm
    x1, y1 = a
    x2, y2 = b
    return (x1 * x2 - m * y1 * y2, x1 * y2 + x2 * y1 + t * y1 * y2)


def elem_conj(order: QuadOrder, a: Element) -> Element:
    # conjugate of w is t - w
    x, y = a
    return (x + order.omega_trace * y, -y)


def elem_divides(order: QuadOrder, alpha: Element, beta: Element) -> bool:
    """True when beta divides alpha in the order: alpha * conj(beta) is
    a multiple of N(beta)."""
    nb = norm(order, beta)
    if nb == 0:
        raise DomainError("division by zero")
    px, py = elem_mul(order, alpha, elem_conj(order, beta))
    return not (px % nb or py % nb)


def format_element(order: QuadOrder, alpha: Element) -> str:
    x, y = alpha
    if order.omega_trace == 0:
        root = f"sqrt(-{order.d})"
    else:
        root = f"(1+sqrt(-{order.d}))/2"
    if y == 0:
        return str(x)
    ys = root if y == 1 else (f"-{root}" if y == -1 else f"{y}*{root}")
    if x == 0:
        return ys
    return f"{x}+{ys}" if not ys.startswith("-") else f"{x}{ys}"


# ---------------------------------------------------------------------------
# ideals in Hermite normal form


@record
class QuadIdeal:
    """scale * (a*Z + (b + w)*Z) with 0 <= b < a; unique per module."""

    a: int
    b: int
    scale: int = 1

    def __post_init__(self) -> None:
        if self.a < 1 or self.scale < 1 or not 0 <= self.b < self.a:
            raise InvalidIdealError(f"not an HNF triple: {(self.a, self.b, self.scale)}")

    @property
    def norm(self) -> int:
        return self.scale * self.scale * self.a

    def __str__(self) -> str:
        return f"({self.a},{self.b})*{self.scale}" if self.scale != 1 else f"({self.a},{self.b})"


def validate_ideal(order: QuadOrder, ideal: QuadIdeal) -> QuadIdeal:
    if norm(order, (ideal.b, 1)) % ideal.a:
        raise InvalidIdealError(
            f"{ideal} is not closed under multiplication by w in {order}"
        )
    return ideal


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise StructureError(f"expected {b} to divide {a}")
    return q


def ideal_from_generators(order: QuadOrder, gens: list[Element]) -> QuadIdeal:
    """HNF of the O_K-module spanned by gens (closed under w)."""
    vectors: list[Element] = []
    t, m = order.omega_trace, order.omega_norm
    for x, y in gens:
        if (x, y) == (0, 0):
            continue
        vectors.append((x, y))
        # w * (x + y*w) = -m*y + (x + t*y) * w
        vectors.append((-m * y, x + t * y))
    if not vectors:
        raise InvalidIdealError("zero ideal has no HNF")
    # second basis vector: y-part is the gcd of all y-coordinates
    wx, wy = 0, 0
    for x, y in vectors:
        if y == 0:
            continue
        if wy == 0:
            wx, wy = x, y
        else:
            g, u, v = _ext_gcd(wy, y)
            wx, wy = u * wx + v * x, g
    if wy == 0:
        raise StructureError("module has rank < 2 after w-closure")
    if wy < 0:
        wx, wy = -wx, -wy
    # first basis vector: generator of the x-axis sublattice
    a = 0
    for x, y in vectors:
        a = gcd(a, x - (y // wy) * wx)
    a = abs(a)
    if a == 0:
        raise StructureError("module has rank < 2 after w-closure")
    scale = wy
    a = _exact_div(a, scale)
    b = _exact_div(wx % (a * scale), scale)
    return validate_ideal(order, QuadIdeal(a, b, scale))


def principal_ideal(order: QuadOrder, alpha: Element) -> QuadIdeal:
    return ideal_from_generators(order, [alpha])


def unit_ideal(order: QuadOrder) -> QuadIdeal:
    return QuadIdeal(1, 0, 1)


def ideal_mul(order: QuadOrder, left: QuadIdeal, right: QuadIdeal) -> QuadIdeal:
    validate_ideal(order, left)
    validate_ideal(order, right)
    gens_left = [(left.scale * left.a, 0), (left.scale * left.b, left.scale)]
    gens_right = [(right.scale * right.a, 0), (right.scale * right.b, right.scale)]
    products = [elem_mul(order, p, q) for p in gens_left for q in gens_right]
    result = ideal_from_generators(order, products)
    if result.norm != left.norm * right.norm:
        raise StructureError("ideal norm failed to multiply")
    return result


def ideal_contains(order: QuadOrder, ideal: QuadIdeal, alpha: Element) -> bool:
    x, y = alpha
    c = ideal.scale
    if x % c or y % c:
        return False
    r = y // c
    return (x // c - ideal.b * r) % ideal.a == 0


# ---------------------------------------------------------------------------
# binary quadratic forms


def form_discriminant(form: Form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def principal_form(disc: int) -> Form:
    if disc % 4 == 0:
        return (1, 0, -disc // 4)
    if disc % 4 == 1:
        return (1, 1, (1 - disc) // 4)
    raise StructureError(f"{disc} is not a discriminant")


def form_of_ideal(order: QuadOrder, ideal: QuadIdeal) -> Form:
    """Norm form of the primitive part of an ideal; class is unchanged."""
    validate_ideal(order, ideal)
    a, b = ideal.a, ideal.b
    t = order.omega_trace
    c = _exact_div(norm(order, (b, 1)), a)
    form = (a, 2 * b + t, c)
    if form_discriminant(form) != order.discriminant:
        raise StructureError("ideal form has the wrong discriminant")
    return form


def reduce_form(form: Form) -> Form:
    """Reduced representative (|b| <= a <= c, boundary b >= 0) of the
    proper equivalence class of a positive definite form."""
    a, b, c = form
    disc = form_discriminant(form)
    if disc >= 0 or a <= 0:
        raise StructureError(f"not positive definite: {form}")
    while True:
        if -a < b <= a:
            if a > c:
                a, b, c = c, -b, a
                continue
            if a == c and b < 0:
                b = -b
            return (a, b, c)
        r = b % (2 * a)
        b = r - 2 * a if r > a else r
        c = _exact_div(b * b - disc, 4 * a)


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Least x >= 0 with a*x = b (mod m), and the solution modulus."""
    g, u, _ = _ext_gcd(a, m)
    if b % g:
        raise StructureError(f"{a}*x = {b} (mod {m}) has no solution")
    m_g = m // g
    return (b // g) * u % m_g, m_g

def compose_forms(f1: Form, f2: Form) -> Form:
    """Gauss composition of forms of one discriminant (result unreduced)."""
    disc = form_discriminant(f1)
    if form_discriminant(f2) != disc:
        raise StructureError("discriminant mismatch")
    a1, b1, c1 = f1
    a2, b2, _ = f2
    g = _exact_div(b1 + b2, 2)
    h = _exact_div(b2 - b1, 2)
    w = gcd(a1, gcd(a2, g))
    j = w
    s = _exact_div(a1, w)
    t = _exact_div(a2, w)
    u = _exact_div(g, w)
    mu, nu = _solve_linmod(t * u, h * u + s * c1, s * t)
    lam, _ = _solve_linmod(t * nu, h - t * mu, s)
    k = mu + nu * lam
    l = _exact_div(k * t - h, s)
    m2 = _exact_div(t * u * k - h * u - c1 * s, s * t)
    out = (s * t, j * u - (k * t + l * s), k * l - j * m2)
    if form_discriminant(out) != disc:
        raise StructureError("composition broke the discriminant")
    return out


def compose_reduced(f1: Form, f2: Form) -> Form:
    return reduce_form(compose_forms(f1, f2))


def reduced_forms(disc: int) -> tuple[Form, ...]:
    """All reduced primitive positive definite forms of a discriminant.

    Walks a up to sqrt(|disc|/3) and, for each a, c upward from where
    b^2 = 4ac + disc turns nonnegative until b^2 passes a^2 (about |disc|/24
    steps in all); b is the square root, when 4ac + disc is a square, and
    then has the parity of disc.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise StructureError(f"need a negative discriminant = 0,1 mod 4, got {disc}")
    out = []
    a = 1
    while 3 * a * a <= -disc:
        c = max(a, -(disc // (4 * a)))
        bb = 4 * a * c + disc
        while bb <= a * a:
            b = isqrt(bb)
            if b * b == bb and gcd(gcd(a, b), c) == 1:
                out.append((a, b, c))
                # (a, -b, c) is a second reduced form unless b = 0 or the
                # form is on the boundary b = a or a = c
                if 0 < b < a and a != c:
                    out.append((a, -b, c))
            c += 1
            bb += 4 * a
        a += 1
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# class group


@record
class ClassGroup:
    """Form-class group of an imaginary quadratic maximal order.

    powers holds generator^0 .. generator^(h-1) of a cyclic group, as
    reduced forms, and is empty otherwise: the generator's walk that
    class_group keeps for ideal_class.
    """

    base: QuadOrder
    order_h: int
    element_reps: tuple[Form, ...]
    structure: tuple[int, ...]
    generator_index: int | None
    powers: tuple[Form, ...]

    @cached_property
    def _exponents(self) -> dict[Form, int]:
        # built on first lookup; not a field, so equality and repr ignore it
        return {p: i for i, p in enumerate(self.powers)}

    @property
    def is_cyclic(self) -> bool:
        return len(self.structure) <= 1

    @property
    def generator(self) -> Form:
        if self.generator_index is None:
            raise StructureError("class group is not cyclic")
        return self.element_reps[self.generator_index]


def _invariant_factors(element_orders: list[int], h: int) -> tuple[int, ...]:
    """The one abelian group of order h whose element orders match, as its invariant factors."""
    if h == 1:
        return ()
    divisors = [d for d in range(1, h + 1) if h % d == 0]
    # the elements of order dividing d, a count that determines the group
    counts = [sum(1 for o in element_orders if d % o == 0) for d in divisors]
    matches = [
        group.factors
        for group in groups_of_order(h)
        if [prod(gcd(f, d) for f in group.factors) for d in divisors] == counts
    ]
    if len(matches) != 1:
        raise StructureError(f"order statistics match {len(matches)} abelian groups")
    return matches[0]


def class_group(order: QuadOrder) -> ClassGroup:
    """Class group via reduced forms, enumerated once.

    |D| is capped at CLASS_GROUP_DISC_CAP.  Element orders come from
    cyclic-subgroup walks: the forms are taken in sorted order, and each
    one whose order is not yet known has its powers composed until the
    identity.  A walk f^0..f^(o-1) gives every power f^i its order
    o/gcd(i, o).  A walked form lies in no earlier walk, so the walks
    cover distinct cyclic subgroups C, each at |C| - 1 compositions:
    fewer than h * prod_{p | h} p/(p - 1) = O(h log log h) in all
    (sigma(h) for a cyclic group; at most 1.93h was observed over every
    squarefree d <= 1000).  The first form of order h is always walked
    (every earlier walk has order below h), and its walk is kept as
    powers, from which ideal_class builds its lookup table.
    _invariant_factors checks the order statistics independently.
    """
    disc = order.discriminant
    if -disc > CLASS_GROUP_DISC_CAP:
        raise BudgetExceededError(f"|D| = {-disc} exceeds budget {CLASS_GROUP_DISC_CAP}")
    forms = reduced_forms(disc)
    h = len(forms)
    ident = reduce_form(principal_form(disc))
    if ident not in forms:
        raise StructureError("principal form missing from enumeration")
    orders: dict[Form, int] = {}
    powers: tuple[Form, ...] = ()
    for f in forms:
        if f in orders:
            continue
        walk = [ident]
        power = f
        while power != ident:
            walk.append(power)
            if len(walk) > h:
                raise StructureError("element order exceeds class number")
            power = compose_reduced(power, f)
        o = len(walk)
        for i, p in enumerate(walk):
            orders[p] = o // gcd(i, o)
        if o == h and not powers:
            powers = tuple(walk)
    element_orders = [orders[f] for f in forms]
    structure = _invariant_factors(element_orders, h)
    generator_index: int | None = None
    if h == 1:
        generator_index = 0
    elif len(structure) == 1:
        generator_index = element_orders.index(h)
    return ClassGroup(order, h, forms, structure, generator_index, powers)


def ideal_class(cg: ClassGroup, ideal: QuadIdeal) -> int:
    """Exponent e with [ideal] = generator^e; needs a cyclic class group.

    The reduced form of the ideal is looked up in a table built once from
    cg.powers, the generator's walk kept by class_group, so no form is
    composed.
    """
    if not cg.is_cyclic:
        raise StructureError("class group is not cyclic; no single exponent exists")
    target = reduce_form(form_of_ideal(cg.base, ideal))
    if target not in cg._exponents:
        raise StructureError(f"form {target} is not in the enumerated class group")
    return cg._exponents[target]


# ---------------------------------------------------------------------------
# norm equations, principality, irreducibility


def norm_solutions(order: QuadOrder, target: int) -> list[Element]:
    """All elements of a given norm, by finite box search over y."""
    if target < 0:
        return []
    if target == 0:
        return [(0, 0)]
    t = order.omega_trace
    disc = order.discriminant
    out = []
    ymax = isqrt(4 * target // -disc)
    for y in range(-ymax, ymax + 1):
        # dx >= 0 as |disc| y^2 <= 4N; -t*y + r is even, as r is even when
        # t = 0 (dx = 4(N - d y^2)) and r = y mod 2 when t = 1 (dx = y^2 mod 4)
        dx = 4 * target + disc * y * y
        r = isqrt(dx)
        if r * r != dx:
            continue
        for signed in sorted({r, -r}):
            out.append(((-t * y + signed) // 2, y))
    return sorted(out)


def is_principal(order: QuadOrder, ideal: QuadIdeal) -> Element | None:
    """A canonical generator when the ideal is principal, else None."""
    validate_ideal(order, ideal)
    target = reduce_form(form_of_ideal(order, ideal))
    if target != reduce_form(principal_form(order.discriminant)):
        return None
    n = ideal.norm
    generators = [
        alpha
        for alpha in norm_solutions(order, n)
        if ideal_contains(order, ideal, alpha) and principal_ideal(order, alpha) == ideal
    ]
    if not generators:
        raise StructureError(f"{ideal} has the principal form but no generator of norm {n}")
    return max(generators, key=lambda e: (e[0] > 0, e[1] >= 0, e[0], e[1]))


def is_irreducible(order: QuadOrder, alpha: Element) -> bool:
    """No factorization into two non-units.

    beta | alpha forces N(beta) | N(alpha).  If alpha = beta*gamma with
    both non-units, the factor of smaller norm has norm m with
    2 <= m <= sqrt(N(alpha)), and its cofactor has norm N/m >= sqrt(N)
    > 1, so it is a non-unit too.  Scanning the elements whose norm is a
    divisor m of N(alpha) with 2 <= m <= sqrt(N(alpha)) is therefore
    exhaustive, and any of them that divides alpha refutes
    irreducibility.
    """
    n = norm(order, alpha)
    if n == 0:
        raise DomainError("zero is not factorable")
    if n == 1:
        raise DomainError("units are excluded from irreducibility")
    for m in range(2, isqrt(n) + 1):
        if n % m:
            continue
        for beta in norm_solutions(order, m):
            if elem_divides(order, alpha, beta):
                return False
    return True


@record
class ShortPrincipalProduct:
    """Witness for the short-principal-product law: which input ideals to
    multiply, the product, and its canonical irreducible generator."""

    indices: tuple[int, ...]
    classes: tuple[int, ...]
    support: int
    bound: int
    product: QuadIdeal
    generator: Element


def find_short_principal_product(
    order: QuadOrder, ideals: list[QuadIdeal]
) -> ShortPrincipalProduct:
    """Given h ideals over a cyclic class group of order h, find the
    minimal sub-multiset whose class sum vanishes; its product must be
    principal with an irreducible generator, of size at most h - s + 1
    where s counts the distinct classes present."""
    cg = class_group(order)
    if not cg.is_cyclic:
        raise StructureError(f"class group of {order} is not cyclic")
    h = cg.order_h
    if len(ideals) != h:
        raise ArityError(f"need exactly {h} ideals, got {len(ideals)}")
    classes = tuple(ideal_class(cg, ideal) for ideal in ideals)
    zh = AbelianGroup((h,))
    seq = ZSequence.from_iterable(zh, classes)
    result = sums.mz(seq)
    if not result.is_finite:
        raise StructureError("no zero-sum subset of classes; class data inconsistent")
    needed: dict[int, int] = {}
    for (value,) in result.witness:
        needed[value] = needed.get(value, 0) + 1
    indices = []
    for i, cls in enumerate(classes):
        if needed.get(cls, 0) > 0:
            needed[cls] -= 1
            indices.append(i)
    product = unit_ideal(order)
    for i in indices:
        product = ideal_mul(order, product, ideals[i])
    if product == unit_ideal(order):
        # only a lone unit-ideal input (class 0) multiplies to the unit ideal
        raise DomainError(
            f"ideal {indices[0]} is the unit ideal: its class 0 alone is the zero-sum,"
            " and its generator is a unit"
        )
    generator = is_principal(order, product)
    if generator is None:
        raise StructureError("zero-sum class subset gave a non-principal product")
    support = sums.support_size(seq)
    bound = h - support + 1
    if len(indices) > bound:
        raise StructureError(f"witness size {len(indices)} exceeds bound {bound}")
    if not is_irreducible(order, generator):
        raise StructureError(f"generator {generator} factors; law violated")
    return ShortPrincipalProduct(
        indices=tuple(indices),
        classes=classes,
        support=support,
        bound=bound,
        product=product,
        generator=generator,
    )


# ---------------------------------------------------------------------------
# parsing


def parse_ideal(order: QuadOrder, text: str) -> QuadIdeal:
    """Parse 'a,b' as the ideal generated by a and b + w."""
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise ParseError(f"bad ideal {text!r}; expected 'a,b'")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad ideal {text!r}") from exc
    try:
        return ideal_from_generators(order, [(a, 0), (b, 1)])
    except InvalidIdealError as exc:
        raise ParseError(str(exc)) from exc


def parse_ideal_list(order: QuadOrder, text: str) -> list[QuadIdeal]:
    items = [part for part in text.strip().split(";") if part]
    if not items:
        raise ParseError("empty ideal list")
    return [parse_ideal(order, item) for item in items]
