"""Imaginary quadratic orders: ideal arithmetic in HNF, form reduction
and composition, class groups, principality, irreducibility."""

from __future__ import annotations

import re
from itertools import product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    associates,
    brute_element_orders,
    brute_reduced_forms,
    ideal_of_form,
    ideal_pow,
    principal_class,
    reduced_class_ideal,
    units_of,
)
from zerosum import quad
from zerosum.errors import (
    ArityError,
    BudgetExceededError,
    DomainError,
    InvalidIdealError,
    ParseError,
    StructureError,
)
from zerosum.groups import groups_of_order

O26 = quad.QuadOrder(26)
O5 = quad.QuadOrder(5)
O23 = quad.QuadOrder(23)


def canonical_associate(order: quad.QuadOrder, alpha: quad.Element) -> quad.Element:
    """Deterministic representative among unit multiples: prefer x > 0,
    then y >= 0, then the largest coordinates."""
    return max(associates(order, alpha), key=lambda e: (e[0] > 0, e[1] >= 0, e[0], e[1]))


def parse_quad_element(text: str) -> quad.Element:
    """'x,y' as the element x + y*w."""
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise ParseError(f"bad element {text!r}; expected 'x,y'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ParseError(f"bad element {text!r}") from exc


def test_order_construction_and_discriminants():
    assert O26.discriminant == -104 and O26.omega_trace == 0 and O26.omega_norm == 26
    assert O23.discriminant == -23 and O23.omega_trace == 1 and O23.omega_norm == 6
    assert quad.QuadOrder(1).discriminant == -4
    assert quad.QuadOrder(3).discriminant == -3
    assert str(O26) == "Q(sqrt(-26))"
    for bad in (0, -5, 4, 12, 18, 25, True):
        with pytest.raises(DomainError):
            quad.QuadOrder(bad)


def test_norm_and_conjugate():
    assert quad.norm(O26, (7, 1)) == 75
    assert quad.norm(O26, (0, 1)) == 26
    assert quad.norm(O23, (0, 1)) == 6
    assert quad.elem_conj(O26, (7, 1)) == (7, -1)
    assert quad.elem_conj(O23, (7, 1)) == (8, -1)
    for O in (O26, O23):
        for a in [(3, 2), (-1, 5), (0, -2)]:
            assert quad.norm(O, a) == quad.norm(O, quad.elem_conj(O, a))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5, 7, 23, 26]),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_norm_is_multiplicative(d, a, b):
    O = quad.QuadOrder(d)
    assert quad.norm(O, quad.elem_mul(O, a, b)) == quad.norm(O, a) * quad.norm(O, b)


def test_units_and_canonical_associate():
    assert len(units_of(quad.QuadOrder(1))) == 4
    assert len(units_of(quad.QuadOrder(3))) == 6
    assert units_of(O26) == ((1, 0), (-1, 0))
    for u in units_of(quad.QuadOrder(3)):
        assert quad.norm(quad.QuadOrder(3), u) == 1
    assert canonical_associate(O26, (-7, -1)) == (7, 1)
    assert canonical_associate(O26, (7, 1)) == (7, 1)
    assert (-7, -1) in associates(O26, (7, 1))
    # the unit multiples of an element are closed under the unit group
    for d in (1, 3, 26):
        order = quad.QuadOrder(d)
        for alpha in ((7, 1), (-2, 5), (0, -3)):
            rep = canonical_associate(order, alpha)
            assert all(canonical_associate(order, e) == rep for e in associates(order, alpha))


def test_format_element():
    assert quad.format_element(O26, (7, 1)) == "7+sqrt(-26)"
    assert quad.format_element(O26, (-7, -1)) == "-7-sqrt(-26)"
    assert quad.format_element(O26, (5, 0)) == "5"
    assert quad.format_element(O26, (0, 2)) == "2*sqrt(-26)"
    assert quad.format_element(O23, (1, 1)) == "1+(1+sqrt(-23))/2"


def test_hnf_of_worked_ideals():
    p1 = quad.parse_ideal(O26, "5,2")
    assert (p1.a, p1.b, p1.scale) == (5, 2, 1)
    assert p1.norm == 5
    p2 = quad.parse_ideal(O26, "2,0")
    assert (p2.a, p2.b, p2.scale) == (2, 0, 1)
    p3 = quad.parse_ideal(O26, "3,1")
    assert (p3.a, p3.b, p3.scale) == (3, 1, 1)
    five = quad.principal_ideal(O26, (5, 0))
    assert (five.a, five.b, five.scale) == (1, 0, 5)
    assert five.norm == 25
    whole = quad.principal_ideal(O26, (1, 0))
    assert whole == quad.unit_ideal(O26)


def test_hnf_rejects_bad_data():
    with pytest.raises(InvalidIdealError):
        quad.ideal_from_generators(O26, [(0, 0)])
    with pytest.raises(InvalidIdealError):
        quad.ideal_from_generators(O26, [])
    with pytest.raises(InvalidIdealError):
        quad.QuadIdeal(5, 7, 1)  # b out of range
    with pytest.raises(InvalidIdealError):
        quad.validate_ideal(O26, quad.QuadIdeal(5, 1, 1))  # 5 does not divide N(1+w)


def test_ideal_membership():
    p1 = quad.parse_ideal(O26, "5,2")
    assert quad.ideal_contains(O26, p1, (5, 0))
    assert quad.ideal_contains(O26, p1, (2, 1))
    assert quad.ideal_contains(O26, p1, (7, 1))
    assert not quad.ideal_contains(O26, p1, (1, 0))
    assert not quad.ideal_contains(O26, p1, (2, 0))
    five = quad.principal_ideal(O26, (5, 0))
    assert quad.ideal_contains(O26, five, (10, 5))
    assert not quad.ideal_contains(O26, five, (5, 1))


def test_ideal_membership_matches_lattice_brute_force():
    # an element is in scale*(a, b+w) iff it is an integer combination
    for text in ("5,2", "2,0", "3,1"):
        ideal = quad.parse_ideal(O26, text)
        spanned = set()
        for s in range(-6, 7):
            for t in range(-6, 7):
                x = s * ideal.scale * ideal.a + t * ideal.scale * ideal.b
                y = t * ideal.scale
                spanned.add((x, y))
        for x in range(-10, 11):
            for y in range(-4, 5):
                inside = quad.ideal_contains(O26, ideal, (x, y))
                assert inside == ((x, y) in spanned)


def test_ideal_powers_frozen():
    p1 = quad.parse_ideal(O26, "5,2")
    p3_ = ideal_pow(O26, p1, 3)
    p4_ = ideal_pow(O26, p1, 4)
    assert (p3_.a, p3_.b, p3_.scale) == (125, 82, 1)
    assert (p4_.a, p4_.b, p4_.scale) == (625, 582, 1)
    assert ideal_pow(O26, p1, 0) == quad.unit_ideal(O26)
    with pytest.raises(DomainError):
        ideal_pow(O26, p1, -1)


def test_ideal_norm_multiplicative():
    ideals = [quad.parse_ideal(O26, t) for t in ("5,2", "2,0", "3,1", "7,0")]
    for left in ideals:
        for right in ideals:
            prod = quad.ideal_mul(O26, left, right)
            assert prod.norm == left.norm * right.norm


def test_form_reduction_frozen():
    assert quad.reduce_form((625, 1164, 542)) == (3, 2, 9)
    assert quad.reduce_form((125, 164, 54)) == (2, 0, 13)
    assert quad.reduce_form((25, 14, 3)) == (3, -2, 9)
    assert quad.reduce_form((1, 0, 26)) == (1, 0, 26)
    with pytest.raises(StructureError):
        quad.reduce_form((1, 0, -1))  # positive discriminant


def test_reduced_forms_frozen_lists():
    assert quad.reduced_forms(-4) == ((1, 0, 1),)
    assert quad.reduced_forms(-20) == ((1, 0, 5), (2, 2, 3))
    assert quad.reduced_forms(-23) == ((1, 1, 6), (2, -1, 3), (2, 1, 3))
    assert quad.reduced_forms(-104) == (
        (1, 0, 26),
        (2, 0, 13),
        (3, -2, 9),
        (3, 2, 9),
        (5, -4, 6),
        (5, 4, 6),
    )
    with pytest.raises(StructureError):
        quad.reduced_forms(-6)  # not 0 or 1 mod 4
    with pytest.raises(StructureError):
        quad.reduced_forms(8)


# squarefree d with 50,000 <= |D| <= 100,000, both kinds of discriminant
LARGE_D = [
    14702, 18169, 21778, 24497, 55163, 61863, 67967, 70211, 75439,
    81863, 83599, 83967, 87307, 88403, 90487, 95479, 98015, 98783,
]


def test_two_enumeration_routes_agree():
    for D in range(-3, -2001, -1):
        if D % 4 in (0, 1):
            assert quad.reduced_forms(D) == brute_reduced_forms(D), D
    for d in LARGE_D:
        D = quad.QuadOrder(d).discriminant
        assert 50_000 <= -D <= 100_000, d
        assert quad.reduced_forms(D) == brute_reduced_forms(D), d


def test_compose_group_laws_d26():
    cg = quad.class_group(O26)
    reps = cg.element_reps
    ident = principal_class(cg)
    for f in reps:
        assert quad.compose_reduced(f, ident) == f
        a, b, c = f
        assert quad.compose_reduced(f, (a, -b, c)) == ident
        for g in reps:
            assert quad.compose_reduced(f, g) == quad.compose_reduced(g, f)
            for h in reps:
                assert quad.compose_reduced(quad.compose_reduced(f, g), h) == (
                    quad.compose_reduced(f, quad.compose_reduced(g, h))
                )


def test_compose_matches_ideal_multiplication():
    cg = quad.class_group(O26)
    for f1 in cg.element_reps:
        for f2 in cg.element_reps:
            i1 = ideal_of_form(O26, f1)
            i2 = ideal_of_form(O26, f2)
            via_forms = quad.compose_reduced(f1, f2)
            via_ideals = quad.reduce_form(
                quad.form_of_ideal(O26, quad.ideal_mul(O26, i1, i2))
            )
            assert via_forms == via_ideals


def test_class_group_frozen_values():
    assert quad.class_group(quad.QuadOrder(1)).order_h == 1
    assert quad.class_group(O5).order_h == 2
    assert quad.class_group(O23).order_h == 3
    cg = quad.class_group(O26)
    assert cg.order_h == 6
    assert cg.structure == (6,)
    assert cg.is_cyclic
    assert cg.generator_index == 4
    assert cg.generator == (5, -4, 6)
    assert principal_class(cg) == (1, 0, 26)


def test_class_group_structures_cyclic_and_not():
    assert quad.class_group(quad.QuadOrder(14)).structure == (4,)
    assert quad.class_group(quad.QuadOrder(21)).structure == (2, 2)
    assert not quad.class_group(quad.QuadOrder(21)).is_cyclic
    assert quad.class_group(quad.QuadOrder(21)).generator_index is None
    with pytest.raises(StructureError, match="not cyclic"):
        quad.class_group(quad.QuadOrder(21)).generator
    assert quad.class_group(quad.QuadOrder(30)).structure == (2, 2)
    assert quad.class_group(quad.QuadOrder(89)).order_h == 12


def test_class_number_one_fields():
    ones = [
        d
        for d in range(1, 170)
        if quad._is_squarefree(d) and quad.class_group(quad.QuadOrder(d)).order_h == 1
    ]
    assert ones == [1, 2, 3, 7, 11, 19, 43, 67, 163]


def test_class_group_budget():
    with pytest.raises(BudgetExceededError):
        quad.class_group(quad.QuadOrder(29 * 1009))


SQUAREFREE_TO_1000 = [d for d in range(1, 1001) if quad._is_squarefree(d)]


def test_class_group_matches_brute_element_orders():
    # d = 95479 has h = 195; the brute loop takes 22,884 compositions there
    for d in SQUAREFREE_TO_1000 + [95479]:
        order = quad.QuadOrder(d)
        cg = quad.class_group(order)
        forms = quad.reduced_forms(order.discriminant)
        h = len(forms)
        orders = brute_element_orders(forms, quad.reduce_form(quad.principal_form(order.discriminant)))
        structure = quad._invariant_factors(orders, h)
        generator_index = 0 if h == 1 else (orders.index(h) if len(structure) == 1 else None)
        fields = (cg.base, cg.order_h, cg.element_reps, cg.structure, cg.generator_index)
        assert fields == (order, h, forms, structure, generator_index), d
        if not cg.is_cyclic:
            continue
        power = principal_class(cg)
        for e in range(h):
            assert quad.ideal_class(cg, ideal_of_form(order, power)) == e, (d, e)
            power = quad.compose_reduced(power, cg.generator)
        assert power == principal_class(cg)


def test_invariant_factors_recover_every_group_of_order_to_64():
    # element orders by brute force, lcm of the coordinate orders; the
    # class groups above reach only a few structures, not e.g. Z2^4
    for h in range(1, 65):
        for group in groups_of_order(h):
            orders = [
                lcm(*(f // gcd(f, x) for f, x in zip(group.factors, e)))
                for e in product(*(range(f) for f in group.factors))
            ]
            assert quad._invariant_factors(orders, h) == (() if h == 1 else group.factors), group
    with pytest.raises(StructureError):
        quad._invariant_factors([1, 1, 1, 1], 4)


def test_class_group_and_ideal_class_composition_counts(monkeypatch):
    calls = [0]
    compose = quad.compose_reduced

    def counting(f1, f2):
        calls[0] += 1
        return compose(f1, f2)

    monkeypatch.setattr(quad, "compose_reduced", counting)
    for d in SQUAREFREE_TO_1000:
        order = quad.QuadOrder(d)
        calls[0] = 0
        cg = quad.class_group(order)
        assert calls[0] <= 2 * cg.order_h, (d, calls[0], cg.order_h)
        if cg.is_cyclic:
            calls[0] = 0
            for f in cg.element_reps:
                quad.ideal_class(cg, ideal_of_form(order, f))
            assert calls[0] == 0, d


def test_ideal_class_frozen_and_homomorphic():
    cg = quad.class_group(O26)
    p1 = quad.parse_ideal(O26, "5,2")
    p2 = quad.parse_ideal(O26, "2,0")
    p3 = quad.parse_ideal(O26, "3,1")
    assert quad.ideal_class(cg, p1) == 5
    assert quad.ideal_class(cg, p2) == 3
    assert quad.ideal_class(cg, p3) == 2
    assert quad.ideal_class(cg, quad.unit_ideal(O26)) == 0
    for left in (p1, p2, p3):
        for right in (p1, p2, p3):
            prod = quad.ideal_mul(O26, left, right)
            assert quad.ideal_class(cg, prod) == (
                quad.ideal_class(cg, left) + quad.ideal_class(cg, right)
            ) % 6
    with pytest.raises(StructureError):
        quad.ideal_class(quad.class_group(quad.QuadOrder(21)), quad.unit_ideal(quad.QuadOrder(21)))


def test_class_group_powers_are_read_only():
    # ideal_class reads its table from powers; a caller must not be able to corrupt it
    cg = quad.class_group(O26)
    p1 = quad.parse_ideal(O26, "5,2")
    target = quad.reduce_form(quad.form_of_ideal(O26, p1))
    with pytest.raises(AttributeError):
        cg.powers = ()
    with pytest.raises(TypeError):
        cg.powers[0] = target
    with pytest.raises(AttributeError):
        cg._exponents = {}
    assert quad.ideal_class(cg, p1) == 5
    assert quad.class_group(quad.QuadOrder(21)).powers == ()
    # a form missing from the table is refused, not given an exponent
    fields = (cg.base, cg.order_h, cg.element_reps, cg.structure, cg.generator_index)
    short = quad.ClassGroup(*fields, tuple(p for p in cg.powers if p != target))
    with pytest.raises(StructureError, match=re.escape(f"form {target} is not in the enumerated")):
        quad.ideal_class(short, p1)


def test_reduced_class_ideal_frozen():
    p1 = quad.parse_ideal(O26, "5,2")
    assert reduced_class_ideal(O26, ideal_pow(O26, p1, 3)) == quad.parse_ideal(
        O26, "2,0"
    )
    assert reduced_class_ideal(O26, ideal_pow(O26, p1, 4)) == quad.parse_ideal(
        O26, "3,1"
    )
    assert reduced_class_ideal(O26, ideal_pow(O26, p1, 6)) == quad.unit_ideal(O26)


def test_is_principal_frozen():
    p1 = quad.parse_ideal(O26, "5,2")
    p3 = quad.parse_ideal(O26, "3,1")
    assert quad.is_principal(O26, p1) is None
    assert quad.is_principal(O26, p3) is None
    prod = quad.ideal_mul(O26, ideal_pow(O26, p1, 2), p3)
    gen = quad.is_principal(O26, prod)
    assert gen == (7, 1)
    assert quad.norm(O26, gen) == 75
    assert quad.principal_ideal(O26, gen) == prod
    # the sixth power of p1 is principal (class has order 6)
    p6 = ideal_pow(O26, p1, 6)
    gen6 = quad.is_principal(O26, p6)
    assert gen6 is not None
    assert quad.principal_ideal(O26, gen6) == p6
    assert quad.norm(O26, gen6) == 5**6


def test_is_principal_matches_class():
    cg = quad.class_group(O26)
    p1 = quad.parse_ideal(O26, "5,2")
    for k in range(0, 8):
        ideal = ideal_pow(O26, p1, k)
        principal = quad.is_principal(O26, ideal) is not None
        assert principal == (quad.ideal_class(cg, ideal) == 0)


def test_norm_solutions_frozen():
    assert quad.norm_solutions(O26, 75) == [(-7, -1), (-7, 1), (7, -1), (7, 1)]
    assert quad.norm_solutions(O26, 25) == [(-5, 0), (5, 0)]
    assert quad.norm_solutions(O26, 3) == []
    assert quad.norm_solutions(O26, 5) == []
    assert quad.norm_solutions(O26, 15) == []
    assert quad.norm_solutions(O26, 26) == [(0, -1), (0, 1)]
    assert quad.norm_solutions(O26, 0) == [(0, 0)]
    assert quad.norm_solutions(O26, -3) == []


def test_norm_solutions_box_is_complete():
    for O in (O26, O23):
        for target in (1, 4, 6, 8, 24, 27, 75):
            brute = sorted(
                (x, y)
                for x in range(-30, 31)
                for y in range(-30, 31)
                if quad.norm(O, (x, y)) == target
            )
            assert quad.norm_solutions(O, target) == brute


def test_irreducibility_frozen():
    assert quad.is_irreducible(O26, (7, 1))
    assert quad.is_irreducible(O26, (-7, -1))
    assert quad.is_irreducible(O26, (0, 1))  # sqrt(-26): no norm 2 or 13 elements
    assert quad.is_irreducible(O26, (2, 0))
    assert quad.is_irreducible(O26, (3, 0))
    assert quad.is_irreducible(O26, (1, 1))  # 1 + sqrt(-26), norm 27
    assert not quad.is_irreducible(O26, (27, 0))  # 27 = 3 * 9 both non-unit
    assert not quad.is_irreducible(O26, (0, 3))  # 3 * sqrt(-26)
    with pytest.raises(DomainError):
        quad.is_irreducible(O26, (1, 0))
    with pytest.raises(DomainError):
        quad.is_irreducible(O26, (-1, 0))
    with pytest.raises(DomainError):
        quad.is_irreducible(O26, (0, 0))


def _brute_irreducible(d: int, alpha: tuple[int, int]) -> bool:
    """Scan every beta whose norm is a proper divisor of N(alpha) >= 2.

    Only for d = 1, 2 mod 4, where the order is Z[sqrt(-d)]: the norm is
    x^2 + d*y^2, and beta | alpha when alpha * conj(beta) is divisible
    by N(beta) in both coordinates.
    """
    a, b = alpha
    n = a * a + d * b * b
    for y in range(-isqrt(n // d), isqrt(n // d) + 1):
        for x in range(-isqrt(n), isqrt(n) + 1):
            m = x * x + d * y * y
            if 2 <= m < n and n % m == 0 and (a * x + d * b * y) % m == 0 and (b * x - a * y) % m == 0:
                return False
    return True


def test_irreducibility_matches_full_divisor_scan():
    # is_irreducible stops at sqrt(N); the oracle tries every proper divisor
    for d, order in ((26, O26), (5, O5)):
        alphas = [
            (x, y)
            for x in range(-15, 16)
            for y in range(-6, 7)
            if 2 <= x * x + d * y * y <= 220
        ]
        squares = [al for al in alphas if isqrt(quad.norm(order, al)) ** 2 == quad.norm(order, al)]
        assert squares
        for alpha in alphas:
            assert quad.is_irreducible(order, alpha) == _brute_irreducible(d, alpha), (d, alpha)
    # N(9) = 81 and no element of Z[sqrt(-26)] has norm 3, so 9 = 3 * 3 is
    # found only at m = sqrt(81), the last divisor the loop tries
    assert not quad.is_irreducible(O26, (9, 0))
    assert quad.is_irreducible(O26, (3, 0)) and quad.is_irreducible(O5, (3, 0))


def test_short_principal_product_worked_example():
    p1 = quad.parse_ideal(O26, "5,2")
    p2 = quad.parse_ideal(O26, "2,0")
    p3 = quad.parse_ideal(O26, "3,1")
    res = quad.find_short_principal_product(O26, [p1, p1, p1, p2, p3, p3])
    assert res.classes == (5, 5, 5, 3, 2, 2)
    assert res.support == 3
    assert res.bound == 4
    assert len(res.indices) == 3 <= res.bound
    assert res.indices == (0, 1, 4)
    assert res.product.norm == 75
    assert res.generator == (7, 1)
    # the product really is the product of the selected inputs
    check = quad.unit_ideal(O26)
    for i in res.indices:
        check = quad.ideal_mul(O26, check, [p1, p1, p1, p2, p3, p3][i])
    assert check == res.product


def test_short_principal_product_all_principal():
    alpha = (0, 1)
    ideals = [quad.principal_ideal(O26, alpha)] * 6
    res = quad.find_short_principal_product(O26, ideals)
    assert len(res.indices) == 1
    assert res.support == 1
    assert res.generator == (0, 1)


def test_short_principal_product_two_torsion_demo():
    p = quad.parse_ideal(O5, "2,1")
    assert ideal_pow(O5, p, 2) == quad.principal_ideal(O5, (2, 0))
    res = quad.find_short_principal_product(O5, [p, p])
    assert len(res.indices) == 2
    assert res.classes == (1, 1)
    assert res.generator == (2, 0)
    assert quad.is_irreducible(O5, res.generator)


def test_short_principal_product_errors():
    with pytest.raises(StructureError):
        quad.find_short_principal_product(
            quad.QuadOrder(21), [quad.unit_ideal(quad.QuadOrder(21))] * 4
        )
    with pytest.raises(ArityError):
        quad.find_short_principal_product(O26, [quad.unit_ideal(O26)] * 3)
    # the unit ideal has class 0, so it alone is the minimal zero-sum, but
    # its generator is a unit; the first class-0 input is the one named
    p1 = quad.parse_ideal(O26, "5,2")
    principal = quad.principal_ideal(O26, (0, 1))
    for ideals, index in (
        ([quad.unit_ideal(O26)] + [p1] * 5, 0),
        ([p1, p1, quad.unit_ideal(O26), principal, p1, p1], 2),
    ):
        with pytest.raises(DomainError, match=f"ideal {index} is the unit ideal"):
            quad.find_short_principal_product(O26, ideals)
    # a principal non-unit input met first is the product, as before
    res = quad.find_short_principal_product(O26, [p1, principal, quad.unit_ideal(O26)] + [p1] * 3)
    assert res.indices == (1,) and res.generator == (0, 1)


def test_parse_errors():
    for bad in ("5", "a,b", "", "5,2,1"):
        with pytest.raises(ParseError):
            quad.parse_ideal(O26, bad)
    with pytest.raises(ParseError):
        quad.parse_ideal_list(O26, ";;")
    with pytest.raises(ParseError):
        parse_quad_element("7")
    assert parse_quad_element("7,1") == (7, 1)
    assert [i.norm for i in quad.parse_ideal_list(O26, "5,2;2,0")] == [5, 2]
