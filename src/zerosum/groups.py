"""Finite abelian groups presented as products of cyclic factors.

A group is a tuple of factor orders (n_1, ..., n_r) standing for
Z_{n_1} x ... x Z_{n_r}.  Elements are plain int tuples of the same
rank, reduced componentwise.  Sequences over a group are finite
multisets, stored sorted so that equal multisets compare equal.
"""

from __future__ import annotations

import math
from itertools import product as _cartesian
from typing import Iterable, Iterator

from .errors import DomainError, InvalidElementError, ParseError

Element = tuple[int, ...]


def record(cls):
    """Class decorator for the package's value records.

    The fields are the class's own annotations, in order; a class
    attribute of a field's name is its default.  It adds __init__ (fields
    positional or by keyword, then __post_init__ when the class has one),
    __eq__ (same class only), __hash__ and __repr__ over all the fields,
    and refuses assignment and deletion with AttributeError.  Data
    derived from the fields goes in a functools.cached_property, which
    writes to the instance's __dict__ and so stays out of equality, hash
    and repr.  The fields are read from the class's own __annotations__
    entry, which Python 3.14+ fills eagerly only under `from __future__
    import annotations`; a module defining a record needs that import,
    and a class with no fields found raises TypeError when it is
    decorated.  These are the parts of dataclasses the records used;
    importing dataclasses loads inspect, which took about 9 ms of every
    CLI call's start-up (python -X importtime, Python 3.11, 2 CPUs).
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if not names:
        raise TypeError(f"record {cls.__qualname__} has no annotated fields")
    scope = {"_set": object.__setattr__}
    params, body = [], []
    for name in names:
        if name in cls.__dict__:
            scope[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    exec(
        f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body) + "\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        f"    return ({mine}) == ({theirs})\n"
        f"def __hash__(self):\n    return hash(({mine}))\n",
        scope,
    )

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (scope["__init__"], scope["__eq__"], scope["__hash__"], __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@record
class AbelianGroup:
    """Direct product of cyclic groups, given by its factor orders."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("group needs at least one cyclic factor")
        if any(type(n) is not int or n < 1 for n in self.factors):
            raise DomainError("factor orders must be positive integers")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors)

    @property
    def is_cyclic(self) -> bool:
        # the product of the factors equals their lcm exactly when they
        # are pairwise coprime, i.e. the product is cyclic
        return self.exponent == self.order

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    def element(self, value: int | Iterable[int]) -> Element:
        """Coerce an int (rank 1) or an int tuple into a reduced element."""
        if isinstance(value, int):
            if self.rank != 1:
                raise InvalidElementError(
                    f"bare int element needs a rank-1 group, got rank {self.rank}"
                )
            return (value % self.factors[0],)
        coords = tuple(value)
        if len(coords) != self.rank:
            raise InvalidElementError(
                f"element has {len(coords)} coordinates, group has rank {self.rank}"
            )
        if any(not isinstance(c, int) for c in coords):
            raise InvalidElementError(f"non-integer coordinate in {coords!r}")
        return tuple(c % n for c, n in zip(coords, self.factors))

    def validate(self, g: Element) -> Element:
        """Check that g is a reduced element of this group and return it."""
        if (
            not isinstance(g, tuple)
            or len(g) != self.rank
            or any(not isinstance(c, int) or not 0 <= c < n for c, n in zip(g, self.factors))
        ):
            raise InvalidElementError(f"{g!r} is not an element of {self}")
        return g

    def elements(self) -> Iterator[Element]:
        """All group elements in mixed-radix order (identity first)."""
        return _cartesian(*(range(n) for n in self.factors))

    def index_of(self, g: Element) -> int:
        """Mixed-radix encoding of an element as an int in range(order)."""
        self.validate(g)
        idx = 0
        for c, n in zip(g, self.factors):
            idx = idx * n + c
        return idx

    def element_at(self, idx: int) -> Element:
        if not 0 <= idx < self.order:
            raise InvalidElementError(f"index {idx} out of range for {self}")
        coords = []
        for n in reversed(self.factors):
            idx, c = divmod(idx, n)
            coords.append(c)
        return tuple(reversed(coords))

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)


def element_add(group: AbelianGroup, a: Element, b: Element) -> Element:
    group.validate(a)
    group.validate(b)
    return tuple((x + y) % n for x, y, n in zip(a, b, group.factors))


def element_neg(group: AbelianGroup, a: Element) -> Element:
    group.validate(a)
    return tuple((-x) % n for x, n in zip(a, group.factors))


@record
class ZSequence:
    """Finite multiset of group elements, stored sorted.

    Construction goes through from_iterable so entries are always
    reduced and canonically ordered; two sequences over the same group
    are equal exactly when they are equal as multisets.
    """

    group: AbelianGroup
    entries: tuple[Element, ...]

    @classmethod
    def from_iterable(
        cls, group: AbelianGroup, items: Iterable[int | Iterable[int]]
    ) -> "ZSequence":
        return cls(group, tuple(sorted(group.element(x) for x in items)))

    def __post_init__(self) -> None:
        for g in self.entries:
            self.group.validate(g)
        if self.entries != tuple(sorted(self.entries)):
            raise DomainError("sequence entries must be sorted; use from_iterable")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.entries)

    @property
    def support(self) -> tuple[Element, ...]:
        """Distinct entries, in sorted order."""
        return tuple(dict.fromkeys(self.entries))

    def multiplicity(self, g: Element) -> int:
        return self.entries.count(self.group.validate(g))

    def positions_in(self, items: Iterable[Element]) -> list[int]:
        """Positions of the first items, in their order, that make up this multiset."""
        need: dict[Element, int] = {}
        for g in self.entries:
            need[g] = need.get(g, 0) + 1
        out = []
        for i, g in enumerate(items):
            if need.get(g):
                need[g] -= 1
                out.append(i)
        return out

    def total(self) -> Element:
        """Sum of all entries (identity for the empty sequence)."""
        acc = self.group.identity
        for g in self.entries:
            acc = element_add(self.group, acc, g)
        return acc

    def __str__(self) -> str:
        return ",".join(format_element(self.group, g) for g in self.entries)


# ---------------------------------------------------------------------------
# parsing and formatting


def parse_group(text: str) -> AbelianGroup:
    """Parse strings like 'Z6' or 'Z2xZ4' (case-insensitive)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty group string")
    factors = []
    for part in s.lower().split("x"):
        if not part.startswith("z") or not part[1:].isdigit():
            raise ParseError(f"bad group string {text!r}; expected like Z6 or Z2xZ4")
        n = int(part[1:])
        if n < 1:
            raise ParseError(f"factor order must be >= 1 in {text!r}")
        factors.append(n)
    return AbelianGroup(tuple(factors))


def parse_element(group: AbelianGroup, text: str) -> Element:
    """Parse '3' (rank 1) or '(1,3)' into a reduced element."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        inner = s[1:-1].strip()
        if not inner:
            raise ParseError(f"empty element tuple {text!r}")
        try:
            coords = [int(p.strip()) for p in inner.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad element {text!r}") from exc
        try:
            return group.element(coords)
        except InvalidElementError as exc:
            raise ParseError(str(exc)) from exc
    try:
        value = int(s)
    except ValueError as exc:
        raise ParseError(f"bad element {text!r}") from exc
    try:
        return group.element(value)
    except InvalidElementError as exc:
        raise ParseError(str(exc)) from exc


def parse_entries(group: AbelianGroup, text: str) -> list[Element]:
    """Parse a comma-separated entry list in input order; tuples keep
    their parentheses."""
    s = text.strip()
    if not s:
        raise ParseError("empty sequence string")
    parts = []
    depth = 0
    current = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return [parse_element(group, part) for part in parts]


def format_element(group: AbelianGroup, g: Element) -> str:
    group.validate(g)
    if group.rank == 1:
        return str(g[0])
    return "(" + ",".join(str(c) for c in g) + ")"


# ---------------------------------------------------------------------------


def groups_of_order(m: int) -> list[AbelianGroup]:
    """All abelian groups of order m, one per isomorphism type.

    Each type is presented in invariant-factor form d_1 | d_2 | ... | d_k
    with d_1 > 1 (so Z6 appears as Z6, never as Z2xZ3), or as Z1 at
    m = 1; by the structure theorem these chains with product m are
    exactly the types.  They come sorted by rank, then factors.
    """
    if m < 1:
        raise DomainError("group order must be positive")

    def chains(rest: int, low: int) -> Iterator[tuple[int, ...]]:
        # chains of multiples of low with product rest, where low divides
        # rest: either (rest,) alone, or a smallest factor d that leaves a
        # chain of multiples of d with product rest // d, so d * d | rest
        yield (rest,)
        for d in range(max(low, 2), math.isqrt(rest) + 1, low):
            if rest % (d * d) == 0:
                for tail in chains(rest // d, d):
                    yield (d, *tail)

    # a non-int m is refused by AbelianGroup on the first chain, (m,)
    return sorted(map(AbelianGroup, chains(m, 1)), key=lambda g: (g.rank, g.factors))
