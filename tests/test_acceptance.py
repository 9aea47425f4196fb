"""Acceptance gate: ten criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass; each criterion also carries its stated runtime budget.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from math import comb

from conftest import (
    associates,
    brute_davenport,
    brute_reduced_forms,
    brute_sigma,
    ideal_pow,
    reduced_class_ideal,
)
from zerosum import cli, quad, sums, verify
from zerosum.groups import AbelianGroup, ZSequence, groups_of_order
from zerosum.sums import INFINITY


def _report(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _seq(n: int, values) -> ZSequence:
    return ZSequence.from_iterable(AbelianGroup((n,)), [(v,) for v in values])


_BUNDLES: dict[int, list[verify.VerificationReport]] = {}


def _bundle11(shards: int) -> list[verify.VerificationReport]:
    if shards not in _BUNDLES:
        verify.clear_caches()
        # verify_all(11) with the Davenport table at its cap, order 16
        _BUNDLES[shards] = verify.verify_all(11, shards=shards)[:-1] + [
            verify.verify_davenport_table(16)
        ]
    return _BUNDLES[shards]


def test_criterion_01_worked_examples_bit_exact():
    t0 = time.perf_counter()
    ok = True
    r = sums.mz(_seq(5, [1, 3, 3]))
    ok &= r.value == INFINITY and sums.support_size(_seq(5, [1, 3, 3])) == 2
    r = sums.mz(_seq(6, [2, 2, 3, 1, 1, 1]))
    ok &= r.value == 3 and sums.support_size(_seq(6, [2, 2, 3, 1, 1, 1])) == 3
    ss = sums.sumset(_seq(5, [1, 1, 4]))
    ok &= ss.values == ((0,), (1,), (2,), (4,))
    ok &= sums.mz(_seq(4, [2, 2, 1, 1])).value == 2
    r = sums.mz(_seq(4, [2, 2, 1, 3]))
    ok &= r.value == 2 and sums.support_size(_seq(4, [2, 2, 1, 3])) == 3
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, f"worked examples exact in {elapsed:.3f} s (< 1 s)")


def test_criterion_02_exhaustive_scan_to_eleven(capsys):
    t0 = time.perf_counter()
    reports = _bundle11(1)
    code = cli.main(["verify", "all", "--n-max", "11", "--shards", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    families = {
        "support-bound": range(2, 12),
        "full-length-constant": range(1, 12),
        "extremal-structure": range(2, 12),
        "short-zero-sum": range(1, 12),
    }
    ok = True
    for statement, ns in families.items():
        rows = [r for r in reports if r.statement_id == statement]
        ok &= sorted(r.parameters["n"] for r in rows) == list(ns)
        ok &= all(r.passed for r in rows)
    top = next(
        r
        for r in reports
        if r.statement_id == "support-bound" and r.parameters["n"] == 11
    )
    ok &= top.instances_checked == comb(21, 11) == 352716
    ok &= code == 0 and doc["passed"] is True
    ok &= elapsed < 300
    _report(
        2,
        ok,
        f"all four statement families clean through n=11, "
        f"{top.instances_checked} raw instances at the top, {elapsed:.1f} s (< 300 s)",
    )


def test_criterion_03_extremal_support_values():
    reports = _bundle11(1)
    ok = True
    shapes = []
    for n in range(5, 11):
        r = next(
            r
            for r in reports
            if r.statement_id == "extremal-structure" and r.parameters["n"] == n
        )
        allowed = {"0", "1", str(n - 2), str(n - 1)}
        realized = set(r.details["realized_s"])
        ok &= r.passed and realized <= allowed and "1" in realized
        witness = r.details["witnesses"]["1"]
        seq = _seq(n, witness)
        ok &= sums.mz(seq).value == n - 1 and sums.support_size(seq) == 2
        shapes.append(f"n={n}:{sorted(map(int, realized))}")
    _report(3, ok, "extremal s-values within {0,1,n-2,n-1}, s=1 witnessed; " + " ".join(shapes))


def test_criterion_04_davenport_constants():
    t0 = time.perf_counter()
    ok = all(sums.davenport(AbelianGroup((n,))).value == n for n in range(2, 13))
    for factors, expect in [((2, 2), 3), ((3, 3), 5), ((2, 4), 5)]:
        group = AbelianGroup(factors)
        ok &= sums.davenport(group).value == expect == brute_davenport(group)
    noncyclic = 0
    for m in range(1, 17):
        for group in groups_of_order(m):
            if group.is_cyclic:
                continue
            noncyclic += 1
            ok &= sums.davenport(group).value < group.order
    table = next(
        r for r in _bundle11(1) if r.statement_id == "davenport-table"
    )
    ok &= table.passed and table.parameters["max_order"] == 16
    elapsed = time.perf_counter() - t0
    _report(
        4,
        ok and elapsed < 120,
        f"cyclic D = n through 12, brute-force agreement on 3 product groups, "
        f"{noncyclic} non-cyclic groups strictly below |G|, {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_05_sumset_growth_laws():
    reports = _bundle11(1)
    rows = [r for r in reports if r.statement_id == "sumset-growth"]
    ok = sorted(r.parameters["group"] for r in rows) == sorted(
        f"Z{n}" for n in range(2, 11)
    )
    ok &= all(r.passed and r.parameters["k_max"] == 6 for r in rows)
    total = sum(r.instances_checked for r in rows)
    _report(5, ok, f"zero-sum-free growth laws clean over Z2..Z10, {total} instances")


def test_criterion_06_egz_with_sharpness():
    t0 = time.perf_counter()
    reports = _bundle11(1)
    rows = [r for r in reports if r.statement_id == "egz"]
    ok = sorted(r.parameters["n"] for r in rows) == list(range(2, 7))
    ok &= all(r.passed and r.details["sharpness_confirmed"] for r in rows)
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 60, f"exact-length windows clean for n<=6 with sharpness witnesses, {elapsed:.1f} s (< 60 s)")


def test_criterion_07_oracle_equivalence_random():
    rng = random.Random(20260822)
    pool = [g for m in range(1, 13) for g in groups_of_order(m)]
    checked = 0
    ok = True
    for _ in range(1000):
        group = rng.choice(pool)
        length = rng.randint(0, 14)
        entries = [
            group.element_at(rng.randrange(group.order)) for _ in range(length)
        ]
        seq = ZSequence.from_iterable(group, entries)
        # one enumeration per sequence: the minimal zero-sum length is
        # the oracle's minimal length of the identity
        expect_sigma = brute_sigma(seq)
        expect_mz = expect_sigma.get(group.identity)
        got = sums.mz(seq)
        agree = dict(sums.sumset(seq).lengths) == expect_sigma and got.value == (
            INFINITY if expect_mz is None else expect_mz
        )
        if agree and got.is_finite:
            w = got.witness
            agree = (
                len(w) == got.value
                and w.total() == group.identity
                and all(w.multiplicity(g) <= seq.multiplicity(g) for g in w.support)
            )
        ok &= agree
        checked += 1
    _report(7, ok and checked == 1000, f"{checked} random sequences agree with the subset-enumeration oracle")


def test_criterion_08_quadratic_field_battery():
    t0 = time.perf_counter()
    O = quad.QuadOrder(26)
    cg = quad.class_group(O)
    ok = cg.order_h == 6 and cg.is_cyclic
    p1 = quad.parse_ideal(O, "5,2")
    p2 = quad.parse_ideal(O, "2,0")
    p3 = quad.parse_ideal(O, "3,1")
    ok &= reduced_class_ideal(O, ideal_pow(O, p1, 3)) == p2
    ok &= reduced_class_ideal(O, ideal_pow(O, p1, 4)) == p3
    prod = quad.ideal_mul(O, ideal_pow(O, p1, 2), p3)
    gen = quad.is_principal(O, prod)
    ok &= gen is not None and quad.norm(O, gen) == 75
    ok &= (-7, -1) in associates(O, gen)
    ok &= quad.is_irreducible(O, gen)
    res = quad.find_short_principal_product(O, [p1, p1, p1, p2, p3, p3])
    ok &= len(res.indices) == 3 and res.bound == 4 and res.support == 3
    elapsed = time.perf_counter() - t0
    _report(
        8,
        ok and elapsed < 5,
        f"d=26 battery exact (h=6 cyclic, class-representative equalities, "
        f"norm-75 generator, subset of 3 <= 4) in {elapsed:.2f} s (< 5 s)",
    )


def _is_fundamental(D: int) -> bool:
    if D >= 0:
        return False
    if D % 4 == 1:
        return quad._is_squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and quad._is_squarefree(-m)
    return False


def test_criterion_09_class_numbers_two_paths():
    spot = {1: 1, 5: 2, 23: 3, 26: 6}
    ok = all(quad.class_group(quad.QuadOrder(d)).order_h == h for d, h in spot.items())
    fundamentals = [D for D in range(-3, -1001, -1) if _is_fundamental(D)]
    for D in fundamentals:
        ok &= quad.reduced_forms(D) == brute_reduced_forms(D)
    _report(
        9,
        ok,
        f"h(-4)=1 h(-20)=2 h(-23)=3 h(-104)=6; enumeration routes agree on "
        f"{len(fundamentals)} fundamental discriminants to -1000",
    )


def test_criterion_10_shard_determinism():
    docs = {}
    for shards in (1, 4, 8):
        reports = _bundle11(shards)
        docs[shards] = verify.reports_to_json(reports, include_elapsed=False)
    ok = docs[1] == docs[4] == docs[8]
    _report(
        10,
        ok,
        f"verification JSON byte-identical across shard counts 1/4/8 "
        f"({len(docs[1])} bytes each)",
    )


# sha256 of reports_to_json(_bundle11(1), include_elapsed=False), that is
# verify_all(11) with the Davenport table at order 16; a change here needs
# a stated reason, not just a new digest.  It last changed when the dead
# orbit surface left the reports: no report carries orbit_reduced, and no
# sum-set report carries details.canonical_instances.  The document is the
# one before with those two keys deleted, byte for byte once re-serialised.
BUNDLE11_SHA256 = "18bff0f0d6dc2a5ad56703a3946e8eb4b92340bc0cf2c8d09e11e8768873196d"


def test_bundle11_json_matches_recorded_digest():
    doc = verify.reports_to_json(_bundle11(1), include_elapsed=False)
    assert hashlib.sha256(doc.encode()).hexdigest() == BUNDLE11_SHA256
