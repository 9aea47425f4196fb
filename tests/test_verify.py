"""Exhaustive verification engine: accounting, orbit reduction,
determinism across shard counts, and fault injection."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import multiprocessing
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, prod
from pathlib import Path

import pytest

from conftest import (
    all_multisets,
    brute_davenport,
    brute_length_sums,
    brute_mz,
    burnside_orbit_count,
    canonical_orbit_representative,
    packed_pairs,
)
import zerosum
from zerosum import sums, verify
from zerosum.errors import BudgetExceededError, DomainError
from zerosum.groups import AbelianGroup, ZSequence, parse_group


@pytest.fixture(autouse=True)
def fresh_caches():
    verify.clear_caches()
    yield
    verify.clear_caches()


def test_support_bound_frozen_numbers_n6():
    r = verify.verify_thm_main(6)
    assert r.passed
    assert r.statement_id == "support-bound"
    assert r.parameters == {"n": 6}
    assert r.instances_checked == 462 == comb(11, 6)
    assert r.orbit_reduced is True
    assert r.details["canonical_instances"] == 246
    assert r.details["slices"] == {
        "min-length-n-minus-1": {"instances": 2, "violations": 0},
        "min-length-n-minus-2": {"instances": 4, "violations": 0},
    }


def test_instances_counted_in_raw_space_with_and_without_orbit():
    for n in range(2, 9):
        on = verify.verify_thm_main(n, orbit_reduced=True)
        off = verify.verify_thm_main(n, orbit_reduced=False)
        assert on.instances_checked == off.instances_checked == comb(2 * n - 1, n)
        assert on.passed and off.passed
    # orbit reduction only saves work when the unit group is nontrivial
    r5 = verify.verify_thm_main(5)
    assert r5.details["canonical_instances"] == 34
    assert r5.instances_checked == 126


def test_canonical_instances_match_burnside():
    for n, expect in ((6, 246), (9, 4114)):
        r = verify.verify_thm_main(n)
        assert r.details["canonical_instances"] == burnside_orbit_count(n) == expect


def test_unrank_matches_lexicographic_enumeration():
    for n, length in ((1, 1), (2, 3), (3, 1), (4, 4), (5, 9), (6, 3)):
        expect = list(combinations_with_replacement(range(n), length))
        assert len(expect) == comb(n + length - 1, length)
        assert [tuple(verify._unrank(n, length, r)) for r in range(len(expect))] == expect
        for bad in (-1, len(expect)):
            with pytest.raises(ValueError):
                verify._unrank(n, length, bad)


def test_walk_packed_leaves_match_subset_enumeration():
    # every leaf of both scan shapes, decoded and checked against brute force
    for n, length in ((4, 4), (5, 5), (4, 7), (5, 9)):
        seen = []

        def leaf(packed, combo, counts, cover):
            assert cover == 1
            assert counts == [combo.count(v) for v in range(n)]
            want = {(L, r) for L, r in brute_length_sums(AbelianGroup((n,)), [(v,) for v in combo]) if L <= n}
            assert packed_pairs(n, packed) == want
            seen.append(tuple(combo))

        total = comb(n + length - 1, length)
        verify._walk_packed(n, length, (0, total), leaf)
        assert seen == sorted(seen) and len(seen) == len(set(seen)) == total
        assert all(list(c) == sorted(c) for c in seen)


def _walk_leaves(
    n: int, length: int, ranks: tuple[int, int], orbit: bool = False, pair_free: bool = False
) -> list:
    out = []
    verify._walk_packed(
        n,
        length,
        ranks,
        lambda packed, combo, counts, cover: out.append((tuple(combo), packed, tuple(counts), cover)),
        orbit,
        pair_free,
    )
    return out


def test_walk_packed_rank_ranges_concatenate():
    # split walks must replay the full walk exactly: same leaves in the
    # same order, with the same packed sums and count vectors
    for n, length in ((3, 1), (4, 4), (5, 5), (4, 7), (5, 9)):
        total = comb(n + length - 1, length)
        full = _walk_leaves(n, length, (0, total))
        assert [leaf[0] for leaf in full] == list(combinations_with_replacement(range(n), length))
        assert {leaf[3] for leaf in full} == {1}
        for k in (1, 2, 3, 7, total):
            bounds = [total * i // k for i in range(k + 1)]
            parts = [_walk_leaves(n, length, (a, b)) for a, b in zip(bounds, bounds[1:])]
            assert [len(p) for p in parts] == [b - a for a, b in zip(bounds, bounds[1:])]
            assert [leaf for p in parts for leaf in p] == full
        for a, b in ((0, 0), (total, total), (1, total - 1), (total // 3, total // 2), (total - 1, total)):
            assert _walk_leaves(n, length, (a, b)) == full[a:b]


def _canonical_with_orbit_sizes(n: int, length: int) -> list:
    """(sequence, orbit size) for each canonical sequence, in lexicographic order.

    Independent of the walk: an orbit is the set of distinct sorted images
    u*S, and its canonical member is what the tests' representative
    returns for the first member met.  The representative is orbit
    invariant (see test_groups), so a member of the orbit is canonical,
    that is mapped to itself, exactly when it is that representative.
    """
    group = AbelianGroup((n,))
    unit_list = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    reps = {}
    for combo in combinations_with_replacement(range(n), length):
        orbit = frozenset(tuple(sorted(u * v % n for v in combo)) for u in unit_list)
        if orbit not in reps:
            rep = canonical_orbit_representative(group, ZSequence(group, tuple((v,) for v in combo)))
            reps[orbit] = tuple(g[0] for g in rep)
            assert reps[orbit] in orbit
    return sorted((rep, len(orbit)) for orbit, rep in reps.items())


def test_prefix_rules_compare_the_longest_final_prefix():
    # the rule for (unit u, last value v) compares every image count that
    # is already final, and no other: c'[i] = c[u^-1 i] for the longest run
    # of indices whose preimages are all below v
    def cols(getter):
        got = getter(list(range(n)))
        return got if isinstance(got, tuple) else (got,)

    for n in range(1, 13):
        full, rules, phi = verify._prefix_rules(verify._symmetry(n, True))
        unit_list = [u for u in range(2, n) if gcd(u, n) == 1]
        assert phi == max(1, len(unit_list) + 1) and len(full) == len(unit_list)
        for j, u in enumerate(unit_list):
            p = [pow(u, -1, n) * i % n for i in range(n)]
            assert cols(full[j]) == tuple(p)
            for v in range(n):
                k = 0
                while p[k] < v:
                    k += 1
                image, ident, cut = rules[v][j]
                assert cols(image) == tuple(p[: max(k, 1)])
                assert cols(ident) == tuple(range(max(k, 1)))
                assert cut == (k if p[k] == v and k < v else v)


def test_walk_packed_orbit_mode_visits_exactly_the_canonical_sequences():
    shapes = [(n, n) for n in range(2, 11)] + [(n, 2 * n - 1) for n in range(2, 7)]
    for n, length in shapes:
        want = _canonical_with_orbit_sizes(n, length)
        total = comb(n + length - 1, length)
        full = _walk_leaves(n, length, (0, total), orbit=True)
        assert [(leaf[0], leaf[3]) for leaf in full] == want, (n, length)
        # the packed sums and counts are those of the raw walk's leaf
        raw = {leaf[0]: leaf for leaf in _walk_leaves(n, length, (0, total))}
        assert all(leaf[:3] == raw[leaf[0]][:3] for leaf in full)
        assert sum(size for _, size in want) == total
        for k in (1, 2, 3, 7):
            bounds = [total * i // k for i in range(k + 1)]
            parts = [_walk_leaves(n, length, (a, b), orbit=True) for a, b in zip(bounds, bounds[1:])]
            assert [leaf for p in parts for leaf in p] == full, (n, length, k)


def test_scan_cache_ignores_shard_count(monkeypatch):
    calls = []
    scans = ("_scan_length_n", "_scan_egz", "_scan_zero_sum_free", "_davenport_rows")
    for name in scans:
        real = getattr(verify, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(verify, name, counting)
    runs = [
        lambda shards: verify.verify_thm_main(6, shards=shards),
        lambda shards: verify.verify_egz(4, shards=shards),
        lambda shards: verify.verify_sumset_lemmas(AbelianGroup((6,)), 4),
        lambda shards: verify.verify_davenport_table(6),
    ]
    for run in runs:
        first = run(1).to_json(include_elapsed=False)
        again = run(2).to_json(include_elapsed=False)
        assert first == again
    assert calls == list(scans)


def test_pool_threshold_picks_chunks(monkeypatch):
    calls = []
    real = verify._run_workers

    def recording(worker, arg_list, workers):
        # each argument is (n, rank range, orbit flag, pair_free)
        calls.append((worker.__name__, [a[1] for a in arg_list], workers))
        return real(worker, arg_list, workers)

    monkeypatch.setattr(verify, "_run_workers", recording)
    # the default keeps every small scan in one chunk, whatever shards says;
    # the length-n scan walks only the zero-free ranks, from C(2n-2, n-1)
    verify.verify_thm_main(9, shards=4)
    verify.verify_egz(6, shards=4)
    assert calls == [
        ("_scan_length_n", [(comb(16, 8), comb(17, 9))], 4),
        ("_scan_egz", [(0, comb(16, 5))], 4),
    ]
    # from the threshold up, counted in the leaves the walk will reach (33
    # pair-free unit orbits at n = 7, 22 at n = 6, and 44 pair-free
    # multisets at n = 6 raw), a walk with 2+ shards is cut into
    # POOL_CHUNKS near-equal contiguous rank ranges over its zero-free
    # ranks; the cut is the same for every shard count, which sets only
    # the worker count, and one shard keeps one range
    monkeypatch.setattr(verify, "POOL_MIN_INSTANCES", 33)
    cuts = {}
    for shards in (1, 2, 4, 8):
        verify.clear_caches()
        calls.clear()
        verify.verify_thm_main(7, shards=shards)
        [(name, cuts[shards], workers)] = calls
        assert (name, workers) == ("_scan_length_n", shards)
    assert cuts[1] == [(924, 1716)]
    ranges = cuts[2]
    assert len(ranges) == verify.POOL_CHUNKS
    assert ranges[0][0] == 924 and ranges[-1][1] == 1716
    assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
    sizes = {b - a for a, b in ranges}
    assert min(sizes) > 0 and max(sizes) - min(sizes) <= 1
    assert cuts[4] == cuts[8] == ranges
    verify.clear_caches()
    calls.clear()
    verify.verify_thm_main(6, shards=2)
    verify.verify_thm_main(6, orbit_reduced=False, shards=2)
    assert calls[0][1] == [(252, 462)]
    assert len(calls[1][1]) == verify.POOL_CHUNKS
    assert calls[1][1][0][0] == 252 and calls[1][1][-1][1] == 462


def test_zero_block_equals_the_walk_over_its_ranks():
    # the old walk over the multisets that contain 0 is the oracle
    for n in range(1, 11):
        for orbit in (True, False):
            walked = verify._scan_length_n((n, (0, comb(2 * n - 2, n - 1)), orbit, False))
            assert verify._zero_block(n, orbit) == walked, (n, orbit)


def test_zero_block_orbit_count_matches_brute_force():
    for n in range(1, 8):
        group = AbelianGroup((n,))
        reps = set()
        for rest in combinations_with_replacement(range(n), n - 1):
            seq = ZSequence(group, tuple((v,) for v in (0,) + rest))
            reps.add(canonical_orbit_representative(group, seq).entries)
        assert verify._zero_block(n, True)["canonical"] == len(reps), n


def test_pair_block_and_pair_free_walk_equal_the_unpruned_walk():
    # the walk over every zero-free rank is the oracle
    for n in range(5, 11):
        ranks = (comb(2 * n - 2, n - 1), comb(2 * n - 1, n))
        for orbit in (True, False):
            full = verify._scan_length_n((n, ranks, orbit, False))
            pruned = verify._scan_length_n((n, ranks, orbit, True))
            assert verify._merge_scans([verify._pair_block(n, orbit), pruned]) == full, (n, orbit)


def test_pair_free_walk_is_the_filtered_walk():
    # every rank range of the pair-free walk replays the full walk's leaves
    # in which no two entries sum to 0, covers and packed sums included
    for n, length in ((4, 4), (5, 5), (6, 6), (4, 7), (7, 7)):
        total = comb(n + length - 1, length)
        for orbit in (False, True):
            full = [
                leaf
                for leaf in _walk_leaves(n, length, (0, total), orbit)
                if all((a + b) % n for a, b in combinations(leaf[0], 2))
            ]
            for k in (1, 2, 3, 7):
                bounds = [total * i // k for i in range(k + 1)]
                parts = [_walk_leaves(n, length, (a, b), orbit, True) for a, b in zip(bounds, bounds[1:])]
                assert [leaf for p in parts for leaf in p] == full, (n, length, orbit, k)


def test_zero_free_and_pair_free_counts_match_brute_force():
    for n in range(1, 10):
        group = AbelianGroup((n,))
        zero_free, pair_free = set(), set()
        raw = 0
        for combo in combinations_with_replacement(range(1, n), n):
            rep = canonical_orbit_representative(group, ZSequence(group, tuple((v,) for v in combo))).entries
            zero_free.add(rep)
            if all((a + b) % n for a, b in combinations(combo, 2)):
                raw += 1
                pair_free.add(rep)
        assert verify._multisets(n, n, "zero-free", True) == len(zero_free), n
        assert verify._multisets(n, n, "pair-free", False) == raw, n
        assert verify._multisets(n, n, "pair-free", True) == len(pair_free), n


@pytest.mark.parametrize("orbit,message", [(True, "reached 21 of 22"), (False, "reached 43 of 44")])
def test_length_n_walk_check_catches_a_lost_canonical_leaf(monkeypatch, orbit, message):
    # the covers still add up, but the walk reached one leaf too few
    real = verify._scan_length_n

    def short(args):
        out = real(args)
        out["canonical"] -= 1
        return out

    monkeypatch.setattr(verify, "_scan_length_n", short)
    with pytest.raises(RuntimeError, match=message):
        verify.verify_thm_main(6, orbit_reduced=orbit)


def test_symmetry_is_one_tuple_per_scan_with_the_identity_first():
    for n in range(1, 13):
        assert verify._symmetry(n, False) == (tuple(range(n)),)
        perms = verify._symmetry(n, True)
        assert perms is verify._symmetry(n, True)
        assert perms[0] == tuple(range(n))
        assert all(p[0] == 0 for p in perms)
        # p is the count permutation of u: (u*S) has c[p[i]] copies of i
        unit_list = [u for u in range(1, n + 1) if gcd(u, n) == 1]
        assert sorted(perms) == sorted(tuple(pow(u, -1, n) * i % n for i in range(n)) for u in unit_list)
        # the raw walk compares nothing
        full, rules, order = verify._prefix_rules(verify._symmetry(n, False))
        assert (full, order) == ([], 1) and rules == [[] for _ in range(n)]


@pytest.mark.parametrize("orbit,message", [(True, "reached 183 of 184"), (False, "reached 714 of 715")])
def test_egz_walk_check_catches_a_lost_canonical_leaf(monkeypatch, orbit, message):
    # the covers still add up, but the walk reached one leaf too few
    real = verify._scan_egz

    def short(args):
        out = real(args)
        out["canonical"] -= 1
        return out

    monkeypatch.setattr(verify, "_scan_egz", short)
    with pytest.raises(RuntimeError, match=message):
        verify.verify_egz(5, orbit_reduced=orbit)


def test_extremal_structure_runs_past_the_raw_space_cap():
    # n = 14 has C(27, 14) = 20,058,300 raw multisets but walks 85,230
    # unit orbits, so the leaf budget admits it; the counts come from the
    # tests' own Burnside count and the paper's tight supports
    r = verify.verify_extremal_structure(14)
    assert r.passed and r.instances_checked == comb(27, 14)
    assert r.details["canonical_instances"] == burnside_orbit_count(14) == 3_344_048
    assert r.details["realized_s"] == {"0": 6, "1": 6, "12": 13, "13": 1}


@pytest.mark.parametrize("part", ["_zero_block", "_scan_length_n"])
def test_length_n_reconciliation_catches_a_lost_cover(monkeypatch, part):
    # the closed-form block and the walked covers must add up to C(2n-1, n)
    real = getattr(verify, part)

    def short(*args):
        out = real(*args)
        out["instances"] -= 1
        return out

    monkeypatch.setattr(verify, part, short)
    with pytest.raises(RuntimeError, match="covered 461 of 462"):
        verify.verify_thm_main(6)


def test_import_and_small_scans_skip_pool_machinery():
    # a fresh interpreter: importing zerosum, and CLI runs whose scans all
    # stay in process, never load concurrent.futures; a pooled scan does.
    # The orbit-reduced n = 12 walk reaches 12,380 leaves and stays in
    # process; the EGZ walk at n = 8 reaches 44,220 leaves and pools
    code = (
        "import contextlib, io, sys\n"
        "from zerosum import cli\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        "for argv in (['verify', 'all', '--n-max', '6', '--shards', '2'],\n"
        "             ['verify', 'support-bound', '--n', '12', '--shards', '2'],\n"
        "             ['verify', 'egz', '--n', '8', '--shards', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    loaded.append('concurrent.futures' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(zerosum.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, True]"


def test_full_length_constant_frozen_n6():
    r = verify.verify_prop_all_equal(6)
    assert r.passed
    assert r.details["matching_instances"] == 2
    assert r.details["witnesses"] == [[1, 1, 1, 1, 1, 1]]


def test_extremal_structure_frozen_n6():
    r = verify.verify_extremal_structure(6)
    assert r.passed
    assert r.details["realized_s"] == {"0": 2, "1": 2, "4": 5, "5": 1}
    assert r.details["witnesses"]["1"] == [1, 1, 1, 1, 1, 2]
    assert r.details["witnesses"]["5"] == [0, 1, 2, 3, 4, 5]


def test_extremal_realized_s_within_predicted_range():
    for n in range(5, 10):
        r = verify.verify_extremal_structure(n)
        assert r.passed
        allowed = {"0", "1", str(n - 2), str(n - 1)}
        assert set(r.details["realized_s"]) <= allowed
        assert "1" in r.details["realized_s"]


def test_short_zero_sum_bound_family():
    for n in range(1, 9):
        r = verify.verify_corollary_short_zero_sum(n)
        assert r.passed
        assert r.instances_checked == comb(2 * n - 1, n)


def test_sumset_growth_frozen_z10():
    r = verify.verify_sumset_lemmas(AbelianGroup((10,)))
    assert r.passed
    assert r.parameters == {"group": "Z10", "k_max": 6}
    assert r.instances_checked == 405


def test_sumset_growth_noncyclic_group_runs_raw():
    r = verify.verify_sumset_lemmas(AbelianGroup((2, 2)), k_max=4)
    assert r.passed
    assert r.orbit_reduced is False
    # the scan has no orbit reduction to ask for, for any group
    for factors in ((2, 2), (6,)):
        with pytest.raises(TypeError):
            verify.verify_sumset_lemmas(AbelianGroup(factors), orbit_reduced=True)


def test_sumset_scan_memory_is_its_path():
    # at most k_max + 1 sum sets of |G| bits on the path, two |G|-bit masks
    # per (digit, shift) and the |G|-entry element and negation tables:
    # well under 100 KB at Z24, where two levels of multiset -> sum set
    # dicts peaked at 9.05 MB
    tracemalloc.start()
    try:
        verify.verify_sumset_lemmas(AbelianGroup((24,)), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000, peak


@pytest.mark.parametrize(
    "factors,k_max",
    [((n,), min(5, n + 1)) for n in range(2, 10)] + [((2, 2), 4), ((2, 4), 5), ((3, 3), 5)],
)
def test_sumset_growth_counts_every_zero_sum_free_multiset(factors, k_max):
    group = AbelianGroup(factors)
    expect = sum(
        1
        for k in range(1, k_max + 1)
        for combo in all_multisets(group, k)
        if brute_mz(ZSequence.from_iterable(group, combo)) is None
    )
    r = verify.verify_sumset_lemmas(group, k_max)
    assert r.passed
    assert r.instances_checked == r.details["canonical_instances"] == expect


def test_egz_frozen_numbers():
    r = verify.verify_egz(6)
    assert r.passed
    assert r.instances_checked == comb(16, 5) == 4368
    assert r.details["sharpness_confirmed"] is True
    r5 = verify.verify_egz(5)
    assert r5.instances_checked == comb(13, 4)


def test_davenport_table_frozen():
    r = verify.verify_davenport_table(12)
    assert r.passed
    assert r.instances_checked == 17  # groups with order <= 12
    rows = r.details["table"]
    by_group = {row["group"]: row for row in rows}
    assert by_group["Z12"]["davenport"] == 12
    assert by_group["Z2xZ2"]["davenport"] == 3
    assert by_group["Z3xZ3"]["davenport"] == 5
    assert by_group["Z2xZ4"]["davenport"] == 5
    for row in rows:
        assert (row["davenport"] == row["order"]) == row["cyclic"]


def test_davenport_table_equals_olson_constant():
    # D(G) = D*(G) = 1 + sum(n_i - 1) over the invariant factors n_1 | ... | n_r
    # holds for p-groups and for rank <= 2 (Olson 1969; van Emde Boas and
    # Kruyswijk 1967).  A group of order <= 16 that is neither needs a
    # rank-3 p-part next to another prime, so order >= 24: every row is covered.
    rows = verify.verify_davenport_table(16).details["table"]
    assert len(rows) == 25
    for row in rows:
        factors = [int(part[1:]) for part in row["group"].split("x")]
        assert all(b % a == 0 for a, b in zip(factors, factors[1:])), row["group"]
        assert prod(factors) == row["order"]
        assert row["davenport"] == 1 + sum(f - 1 for f in factors), row["group"]


def test_davenport_table_cap():
    with pytest.raises(BudgetExceededError):
        verify.verify_davenport_table(17)


def test_budget_refuses_oversized_scan():
    with pytest.raises(BudgetExceededError):
        verify.verify_thm_main(30)
    # the budget bounds the leaves walked: 22 pair-free unit orbits at
    # n = 6, and 70 unit orbits of length 7 over Z_4 for EGZ
    with pytest.raises(BudgetExceededError, match="22 exceeds budget 21"):
        verify.verify_thm_main(6, budget=21)
    assert verify.verify_thm_main(6, budget=22).passed
    assert verify.verify_egz(4, budget=70).passed
    # a budget below the leaves walked refuses the scan even once it is cached
    with pytest.raises(BudgetExceededError):
        verify.verify_thm_main(6, budget=21)
    with pytest.raises(BudgetExceededError):
        verify.verify_egz(4, budget=69)


def test_budget_refuses_huge_orders_before_counting():
    # a lower bound on the leaves refuses at once; the message shows no
    # number past the int-to-str digit limit
    for run in (verify.verify_thm_main, verify.verify_egz):
        with pytest.raises(BudgetExceededError, match="over budget 10000000$"):
            run(10**5)
    with pytest.raises(BudgetExceededError, match="over budget a 133-bit int$"):
        verify.verify_extremal_structure(10**9, budget=10**40)


def test_checkers_refuse_fewer_than_one_shard():
    # refused before the scan cache, so a cached scan does not let it through
    assert verify.verify_thm_main(6).passed
    for run in (
        lambda: verify.verify_thm_main(6, shards=0),
        lambda: verify.verify_egz(3, shards=-1),
        lambda: verify.verify_all(6, shards=0),
        lambda: verify.verify_statement("sumset-growth", 5, shards=0),
        lambda: verify.verify_statement("davenport-table", 4, shards=-3),
    ):
        with pytest.raises(DomainError, match="shards >= 1"):
            run()


def test_verify_all_bundle_composition():
    reports = verify.verify_all(6)
    assert len(reports) == 33
    assert all(r.passed for r in reports)
    ids = [r.statement_id for r in reports]
    assert ids.count("support-bound") == 5  # n = 2..6
    assert ids.count("full-length-constant") == 6  # n = 1..6
    assert ids.count("extremal-structure") == 5
    assert ids.count("short-zero-sum") == 6
    assert ids.count("sumset-growth") == 5
    assert ids.count("egz") == 5
    assert ids.count("davenport-table") == 1


def test_reports_serialize_to_canonical_json():
    r = verify.verify_thm_main(5)
    doc = json.loads(r.to_json())
    assert doc["statement_id"] == "support-bound"
    assert doc["passed"] is True
    assert "elapsed_ms" in doc
    doc2 = json.loads(r.to_json(include_elapsed=False))
    assert "elapsed_ms" not in doc2
    combined = json.loads(verify.reports_to_json([r]))
    assert combined["passed"] is True
    assert len(combined["reports"]) == 1


def test_shard_counts_agree_byte_for_byte(monkeypatch):
    # threshold 0: the small Z_n scans still go through worker processes
    monkeypatch.setattr(verify, "POOL_MIN_INSTANCES", 0)
    pooled = []
    real = verify._run_workers

    def recording(worker, arg_list, workers):
        pooled.append((worker.__name__, len(arg_list), workers))
        return real(worker, arg_list, workers)

    monkeypatch.setattr(verify, "_run_workers", recording)
    outs = []
    for shards in (1, 2, 4, 8):
        verify.clear_caches()
        reports = [
            verify.verify_thm_main(7, shards=shards),
            verify.verify_extremal_structure(7, shards=shards),
            verify.verify_egz(5, shards=shards),
            verify.verify_sumset_lemmas(AbelianGroup((8,))),
            verify.verify_davenport_table(8),
        ]
        outs.append(verify.reports_to_json(reports, include_elapsed=False))
    assert outs[0] == outs[1] == outs[2] == outs[3]
    # length-n and egz per shard count: one chunk for one shard, else
    # POOL_CHUNKS for `shards` workers; the zero-sum-free scan and the
    # Davenport table never start a pool
    assert pooled == [
        (name, 1 if k == 1 else verify.POOL_CHUNKS, k)
        for k in (1, 2, 4, 8)
        for name in ("_scan_length_n", "_scan_egz")
    ]


def test_orbit_toggle_does_not_change_findings():
    for n in (4, 6, 7):
        on = verify.verify_thm_main(n, orbit_reduced=True)
        off = verify.verify_thm_main(n, orbit_reduced=False)
        assert on.details["slices"] == off.details["slices"]
        assert on.violations == off.violations == []


def test_fault_injection_surfaces_violations(monkeypatch):
    # break the minimal-length scan: report 1 less than the true value
    real = verify._leaf_min_zero_length

    def skewed(by_len, limit):
        m = real(by_len, limit)
        if m is not None and m > 1:
            return m - 1
        return m

    monkeypatch.setattr(verify, "_leaf_min_zero_length", skewed)
    verify.clear_caches()
    r = verify.verify_thm_main(6)
    assert not r.passed
    assert r.violations_total > 0
    assert len(r.violations) <= 100
    row = r.violations[0]
    assert set(row) >= {"law", "sequence", "observed"}


def test_fault_injection_is_isolated_by_cache_clear():
    r = verify.verify_thm_main(6)
    assert r.passed


def test_violation_rows_sorted_and_truncated(monkeypatch):
    # force every walked instance to look wrong so truncation kicks in;
    # n = 9 walks 336 leaves, more than 2 * VIOLATION_LIMIT, so the scan
    # trims its rows too
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda by_len, limit: None)
    verify.clear_caches()
    r = verify.verify_corollary_short_zero_sum(9)
    assert not r.passed
    assert len(r.violations) == 100
    assert r.violations_total > 100
    keys = [(row["law"], tuple(row["sequence"])) for row in r.violations]
    assert keys == sorted(keys)


def test_egz_sharpness_row_obeys_the_violation_limit(monkeypatch):
    # zero masks: no prefix gains a sum, so every EGZ leaf lacks an n-term
    # zero-sum; and the sharpness witness is made to hold one
    monkeypatch.setattr(sums, "cyclic_rotation_masks", lambda n, blocks: ([0] * n, [0] * n))
    monkeypatch.setattr(sums, "has_zero_sum_of_size", lambda seq, size: True)
    r = verify.verify_egz(6)
    assert r.details["canonical_instances"] > verify.VIOLATION_LIMIT
    assert len(r.violations) == verify.VIOLATION_LIMIT
    keys = [(row["law"], tuple(row["sequence"]), str(row["observed"])) for row in r.violations]
    assert keys == sorted(keys)
    assert r.violations_total == r.details["canonical_instances"] + 1
    assert r.details["sharpness_confirmed"] is False


def test_violation_rows_are_the_smallest_whatever_the_visit_order(monkeypatch):
    # sum sets that never grow past the entries themselves break the growth
    # laws thousands of times; the rows kept must be the smallest by the
    # report's sort key, not the first met by the depth-first scan
    monkeypatch.setattr(sums, "packed_translator", lambda group: lambda x, g: 0)
    kept = verify.verify_sumset_lemmas(AbelianGroup((8,)), 6)
    verify.clear_caches()
    monkeypatch.setattr(verify, "VIOLATION_LIMIT", 10**6)
    full = verify.verify_sumset_lemmas(AbelianGroup((8,)), 6)
    assert kept.violations_total == full.violations_total == len(full.violations)
    # here Sigma(S) is the support of S, so the growth step breaks once
    # per pair (S, v) with v a repeated entry of S: the walk must check
    # every such pair, and every other law once per multiset
    assert Counter(row["law"] for row in full.violations) == {
        "sigma-size-at-least-k": 554,
        "sigma-size-support-bound": 600,
        "sigma-growth-step": 774,
        "sigma-size-k-constant": 46,
    }
    first_law = full.violations[0]["law"]
    assert sum(row["law"] == first_law for row in full.violations) > 100
    assert kept.violations == full.violations[:100]


# the length-n laws: the statement whose report shows each, and the
# (observed, expected) its row must carry, recomputed from the row's
# sequence and the minimal zero-sum length m the scan was told
LENGTH_N_LAWS = {
    "support-bound": ("support-bound", lambda seq, n, m: (len(set(seq)), n - m + 1)),
    "min-length-n-minus-1-support": ("support-bound", lambda seq, n, m: (len(set(seq)), 2)),
    "min-length-n-minus-2-support": ("support-bound", lambda seq, n, m: (len(set(seq)), 3)),
    "full-length-constant": ("full-length-constant", lambda seq, n, m: (len(set(seq)), 1)),
    "short-zero-sum-bound": ("short-zero-sum", lambda seq, n, m: (m, n - len(set(seq)) + 1)),
    "tight-support-range": ("extremal-structure", lambda seq, n, m: (n - m, "{0,1,n-2,n-1}")),
    "tight-support-multiplicity": (
        "extremal-structure",
        lambda seq, n, m: (max(Counter(seq).values()), m),
    ),
    "tight-support-shape": (
        "extremal-structure",
        lambda seq, n, m: ("other", "a^(n-1)+(2a), ord(a)=n"),
    ),
}


@pytest.mark.parametrize(
    "n, m, laws",
    [
        (6, 6, {"support-bound", "full-length-constant", "short-zero-sum-bound"}),
        (
            6,
            5,
            {
                "support-bound",
                "min-length-n-minus-1-support",
                "short-zero-sum-bound",
                "tight-support-multiplicity",
                "tight-support-shape",
            },
        ),
        (
            8,
            6,
            {
                "support-bound",
                "min-length-n-minus-2-support",
                "short-zero-sum-bound",
                "tight-support-range",
                "tight-support-multiplicity",
            },
        ),
        (8, 5, {"tight-support-range", "tight-support-multiplicity"}),
        # pair-free leaves at n = 6 have supp <= 3, so the n-2 slice holds
        (6, 4, {"tight-support-range", "tight-support-multiplicity"}),
    ],
)
def test_each_length_n_law_reports_its_rows(monkeypatch, n, m, laws):
    # every walked leaf is told its minimal zero-sum length is m
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda packed, k: m)
    seen = set()
    for statement in ("support-bound", "full-length-constant", "extremal-structure", "short-zero-sum"):
        (report,) = verify.verify_statement(statement, n, n=n)
        shown = {row["law"] for row in report.violations}
        assert report.passed == (not shown), statement
        for row in report.violations:
            owner, recompute = LENGTH_N_LAWS[row["law"]]
            assert owner == statement
            assert (row["observed"], row["expected"]) == recompute(row["sequence"], n, m), row
        seen |= shown
    assert seen == laws


def test_davenport_laws_report_their_rows(monkeypatch):
    # every Davenport constant one too large: each cyclic group breaks
    # both laws, and a non-cyclic one with D(G) = |G| - 1 breaks equality
    real = sums.davenport
    monkeypatch.setattr(
        sums, "davenport", lambda g: dataclasses.replace(real(g), value=real(g).value + 1)
    )
    r = verify.verify_davenport_table(8)
    assert not r.passed
    assert {row["law"] for row in r.violations} == {
        "davenport-order-bound",
        "davenport-cyclic-equality",
    }
    for row in r.violations:
        (name,) = row["sequence"]
        group = parse_group(name)
        assert row["observed"] == brute_davenport(group) + 1
        if row["law"] == "davenport-order-bound":
            assert row["expected"] == group.order
        else:
            assert row["expected"] == (group.order if group.is_cyclic else f"< {group.order}")
    # Z2xZ2: D = 3, told 4 = |G|, but the group is not cyclic
    row = {"law": "davenport-cyclic-equality", "sequence": ["Z2xZ2"], "observed": 4, "expected": "< 4"}
    assert row in r.violations


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="only forked workers inherit the faults"
)
def test_faulted_pooled_scans_agree_byte_for_byte(monkeypatch):
    # threshold 0 and a small limit: chunk results carry violation rows,
    # which the merge must add up and trim the same for every worker count
    monkeypatch.setattr(verify, "POOL_MIN_INSTANCES", 0)
    monkeypatch.setattr(verify, "VIOLATION_LIMIT", 3)
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda packed, n: n - 1)
    monkeypatch.setattr(sums, "cyclic_rotation_masks", lambda n, blocks: ([0] * n, [0] * n))
    outs = []
    for shards in (1, 2, 4):
        verify.clear_caches()
        reports = [
            check(n, orbit_reduced=orbit, shards=shards)
            for n, orbit in ((7, True), (8, False))
            for check in (
                verify.verify_thm_main,
                verify.verify_extremal_structure,
                verify.verify_corollary_short_zero_sum,
            )
        ] + [verify.verify_egz(5, shards=shards)]
        assert all(len(r.violations) == 3 < r.violations_total for r in reports)
        outs.append(verify.reports_to_json(reports, include_elapsed=False))
    assert outs[0] == outs[1] == outs[2]


def test_every_emitted_law_is_shown_by_exactly_one_statement():
    # a law that _add_violation writes but no STATEMENTS row lists would
    # vanish from every report
    tree = ast.parse(Path(verify.__file__).read_text())
    emitted = {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_add_violation"
    }
    listed = Counter(law for entry in verify.STATEMENTS.values() for law in entry[3])
    assert set(listed) == emitted
    assert set(listed.values()) == {1}


def test_checkers_answer_the_benchmark_calls():
    # the calls zsbench/passrun.py makes, at small orders: an API slip
    # fails here rather than in the benchmark
    verify.clear_caches()
    for name in (
        "verify_thm_main",
        "verify_prop_all_equal",
        "verify_extremal_structure",
        "verify_corollary_short_zero_sum",
    ):
        fn = getattr(verify, name)
        assert fn.__name__ == name
        for n, r in ((6, fn(6)), (7, fn(7, shards=2))):
            assert r.passed and r.parameters == {"n": n}
            assert r.instances_checked == comb(2 * n - 1, n)
            assert isinstance(r.details["canonical_instances"], int)
    assert "orbit_reduced" in inspect.signature(verify.verify_thm_main).parameters
    verify.clear_caches()
    raw = verify.verify_thm_main(7, orbit_reduced=False)
    assert raw.passed and raw.details["canonical_instances"] == raw.instances_checked
    egz = verify.verify_egz(4)
    assert egz.passed and egz.parameters == {"n": 4, "length": 7}
    assert egz.instances_checked == comb(10, 3)
    growth = verify.verify_sumset_lemmas(AbelianGroup((2, 4)), 3)
    assert growth.passed and growth.parameters == {"group": "Z2xZ4", "k_max": 3}
    table = verify.verify_davenport_table(16)
    assert table.passed and table.parameters == {"max_order": 16}
    verify.clear_caches()
    reports = verify.verify_all(8, shards=2)
    assert all(r.passed for r in reports)
    assert [r.statement_id for r in reports][-1] == "davenport-table"
