"""Exhaustive verification engine: accounting, the settled-subtree cut,
determinism across shard counts, and fault injection."""

from __future__ import annotations

import ast
import inspect
import json
import multiprocessing
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, prod
from pathlib import Path

import pytest

from conftest import (
    all_multisets,
    brute_davenport,
    brute_length_sums,
    brute_mz,
    packed_pairs,
    replay_settled_walk,
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
    assert r.orbit_reduced is False
    assert r.details["canonical_instances"] == 462
    assert r.details["slices"] == {
        "min-length-n-minus-1": {"instances": 2, "violations": 0},
        "min-length-n-minus-2": {"instances": 4, "violations": 0},
    }


def test_instances_counted_in_raw_space_with_and_without_orbit():
    # every scan is raw: orbit_reduced=False is the default, and the
    # report counts each multiset once
    for n in range(2, 9):
        default = verify.verify_thm_main(n)
        verify.clear_caches()
        off = verify.verify_thm_main(n, orbit_reduced=False)
        assert default.to_dict(include_elapsed=False) == off.to_dict(include_elapsed=False)
        assert off.instances_checked == off.details["canonical_instances"] == comb(2 * n - 1, n)
        assert off.passed and off.orbit_reduced is False
        with pytest.raises(DomainError, match="orbit reduction is gone"):
            verify.verify_thm_main(n, orbit_reduced=True)


def _never(packed, combo, supp, rest):
    return False


def test_walk_packed_leaves_match_subset_enumeration():
    # every leaf of both scan shapes, decoded and checked against brute force
    for n, length in ((4, 4), (5, 5), (4, 7), (5, 9)):
        seen = []

        def leaf(packed, combo, supp):
            assert supp == len(set(combo))
            want = {(L, r) for L, r in brute_length_sums(AbelianGroup((n,)), [(v,) for v in combo]) if L <= n}
            assert packed_pairs(n, packed) == want
            seen.append(tuple(combo))

        total = comb(n + length - 1, length)
        assert verify._walk_packed(n, length, (), leaf, _never, 10**9) == (0, total)
        assert seen == sorted(seen) and len(seen) == len(set(seen)) == total
        assert all(list(c) == sorted(c) for c in seen)


def _walk_leaves(n: int, length: int, prefix: tuple, depth: int = 0) -> list:
    out = []
    result = verify._walk_packed(
        n,
        length,
        prefix,
        lambda packed, combo, supp: out.append((tuple(combo), packed, supp)),
        _never,
        10**9,
        depth,
    )
    # with nothing settled, the work is the leaves walked below depth
    assert result == (0, 0 if depth else len(out))
    return out


def test_walk_packed_rank_ranges_concatenate():
    # the sequences below a prefix are a range of ranks: the walk stopped
    # at depth d deals every prefix of d entries in lexicographic order,
    # and the walks below them replay the full walk exactly: same leaves
    # in the same order, with the same packed sums and supports
    for n, length in ((3, 1), (4, 4), (5, 5), (4, 7), (5, 9)):
        full = _walk_leaves(n, length, ())
        assert [leaf[0] for leaf in full] == list(combinations_with_replacement(range(n), length))
        assert all(supp == len(set(combo)) for combo, _, supp in full)
        for depth in range(1, min(length, 4)):
            prefixes = [leaf[0] for leaf in _walk_leaves(n, length, (), depth)]
            assert prefixes == list(combinations_with_replacement(range(n), depth))
            assert [leaf for p in prefixes for leaf in _walk_leaves(n, length, p)] == full
    # the first entry walked below (0, 2) repeats the prefix's last one
    first = _walk_leaves(4, 4, (0, 2))[0]
    assert first[0] == (0, 2, 2, 2) and first[2] == 2


def _recorded_walk(family: str, n: int) -> tuple[list, list, tuple[int, int]]:
    """(settled, walked, (settled count, work)) of the real cut's walk from the empty prefix."""
    length = n if family == "length-n" else 2 * n - 1
    real = (verify._length_n_cut if family == "length-n" else verify._egz_cut)(n)
    settled, walked = [], []

    def cut(packed, combo, supp, rest):
        hit = real(packed, combo, supp, rest)
        if hit:
            settled.append((tuple(combo), rest))
        return hit

    result = verify._walk_packed(
        n, length, (), lambda packed, combo, supp: walked.append(tuple(combo)), cut, 10**9
    )
    return settled, walked, result


@pytest.mark.parametrize(
    "family, n", [("length-n", n) for n in range(2, 11)] + [("egz", n) for n in range(2, 8)]
)
def test_settled_prefixes_replay_the_cut_argument(family, n):
    # the bound itself is pinned here: a looser cut (m_p <= n - 2, or the
    # support bound one higher) settles a prefix this replay refuses,
    # whether or not the reports would show it
    length = n if family == "length-n" else 2 * n - 1
    settled, walked, (count, _) = _recorded_walk(family, n)
    assert count == sum(comb(n - p[-1] + rest - 1, rest) for p, rest in settled)
    replay_settled_walk(n, length, settled, walked, family == "egz")


def test_work_is_the_same_for_every_cut_of_the_ranks(monkeypatch):
    # the budget must refuse a scan or not whatever the shard count, so
    # the dealing walk and the chunks below its prefixes add up to the
    # one-walk work and result at every split depth; a depth of length
    # or more is clamped to length - 1.  The chunks run in process here
    monkeypatch.setattr(verify, "POOL_MIN_ORDER", {"length-n": 0, "egz": 0})
    monkeypatch.setattr(verify, "_run_workers", lambda worker, arg_list, workers: list(map(worker, arg_list)))
    for family, orders in (("length-n", range(1, 13)), ("egz", range(1, 7))):
        for n in orders:
            length = n if family == "length-n" else 2 * n - 1
            whole = verify._zn_bundle(family, n, 1, 10**9)
            for depth in range(1, length + 2):
                monkeypatch.setattr(verify, "POOL_DEPTH", depth)
                assert verify._zn_bundle(family, n, 2, 10**9) == whole, (family, n, depth)


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
        first = verify.reports_to_json([run(1)], include_elapsed=False)
        again = verify.reports_to_json([run(2)], include_elapsed=False)
        assert first == again
    assert calls == list(scans)


def test_pool_threshold_picks_chunks(monkeypatch):
    calls = []
    real = verify._run_workers

    def recording(worker, arg_list, workers):
        # each argument is (n, prefix, budget)
        calls.append((worker.__name__, [a[1] for a in arg_list], workers))
        return real(worker, arg_list, workers)

    monkeypatch.setattr(verify, "_run_workers", recording)
    # below its family's POOL_MIN_ORDER a scan is one walk from the empty
    # prefix, whatever shards says
    assert verify.POOL_MIN_ORDER["length-n"] > 12 and verify.POOL_MIN_ORDER["egz"] > 6
    verify.verify_thm_main(12, shards=4)
    verify.verify_egz(6, shards=4)
    assert calls == [("_scan_length_n", [()], 4), ("_scan_egz", [()], 4)]
    # from it up, a walk with 2+ shards is dealt: its chunks are the
    # prefixes of POOL_DEPTH entries that have no settled prefix, in
    # lexicographic order, the same for every shard count, which sets
    # only the worker count; one shard keeps one walk
    monkeypatch.setitem(verify.POOL_MIN_ORDER, "length-n", 7)
    chunks = {}
    for shards in (1, 2, 4, 8):
        verify.clear_caches()
        calls.clear()
        verify.verify_thm_main(7, shards=shards)
        [(name, chunks[shards], workers)] = calls
        assert (name, workers) == ("_scan_length_n", shards)
    assert chunks[1] == [()]
    depth = verify.POOL_DEPTH
    settled = {prefix for prefix, _ in _recorded_walk("length-n", 7)[0]}
    dealt = [
        p
        for p in combinations_with_replacement(range(7), depth)
        if not any(p[:k] in settled for k in range(1, depth + 1))
    ]
    assert 1 < len(dealt) < comb(7 + depth - 1, depth)
    assert chunks[2] == chunks[4] == chunks[8] == dealt
    verify.clear_caches()
    calls.clear()
    verify.verify_thm_main(6, shards=2)
    assert calls == [("_scan_length_n", [()], 2)]


def test_zero_block_equals_the_walk_over_its_ranks():
    # the multisets that contain 0 are those below the prefix (0,), the
    # first C(2n-2, n-1) ranks; each has m = 1, so s = n-1, every law
    # holds, and the support bound is tight only on {0, 1, ..., n-1}.  The
    # cut must settle them into exactly the closed form the scan once used
    # for this block.  At n = 1 the block is the whole space, (0,) alone,
    # so its walk starts from the empty prefix
    for n in range(1, 11):
        size = comb(2 * n - 2, n - 1)
        walked = verify._scan_length_n((n, (0,) if n > 1 else (), 10**9))
        assert walked.pop("work") <= size
        assert walked == {
            "instances": size,
            "slice_nm1": 0,
            "slice_nm2": size if n == 3 else 0,
            "full_instances": 1 if n == 1 else 0,
            "full_witnesses": [[0]] if n == 1 else [],
            "realized": {n - 1: 1},
            "first_tight": {n - 1: list(range(n))},
            "totals": {},
            "rows": [],
        }, n


def test_cut_walk_equals_the_unpruned_walk(monkeypatch):
    # the walk that settles nothing evaluates every leaf: it is the oracle
    for family, orders in (("length-n", range(1, 11)), ("egz", range(1, 7))):
        worker = verify._scan_length_n if family == "length-n" else verify._scan_egz
        for n in orders:
            length = n if family == "length-n" else 2 * n - 1
            space = comb(n + length - 1, length)
            cut = worker((n, (), 10**9))
            with monkeypatch.context() as m:
                m.setattr(verify, "_length_n_cut" if family == "length-n" else "_egz_cut", lambda n: _never)
                full = worker((n, (), 10**9))
            assert full.pop("work") == space
            assert cut.pop("work") <= space
            assert cut == full, (family, n)


def test_extremal_structure_runs_past_the_raw_space_cap():
    # C(39, 20) = 68,923,264,410 raw multisets at n = 20 and C(28, 9) =
    # 6,906,900 of length 19 over Z_10: the cut settles nearly all of
    # them, so each scan takes well under 5 s on one worker (about 0.3 s
    # and 0.6 s on 2 CPUs); a cut that stops firing fails here.  The
    # tight supports are the paper's: phi(20) = 8 for s = 0 and 1
    t0 = time.perf_counter()
    r = verify.verify_extremal_structure(20)
    assert time.perf_counter() - t0 < 5
    assert r.passed and r.instances_checked == r.details["canonical_instances"] == comb(39, 20)
    assert r.details["realized_s"] == {"0": 8, "1": 8, "18": 19, "19": 1}
    t0 = time.perf_counter()
    egz = verify.verify_egz(10)
    assert time.perf_counter() - t0 < 5
    assert egz.passed and egz.instances_checked == comb(28, 9)


@pytest.mark.parametrize("part", ["_zero_block", "_scan_length_n", "walked_leaf"])
def test_length_n_reconciliation_catches_a_lost_cover(monkeypatch, part):
    # walked and settled leaves must add up to C(2n-1, n) = 462 at n = 6.
    # _zero_block: the walk skips 0 5^5, the last multiset that contains
    # 0, which the cut settles with the prefix (0, 5); walked_leaf: it skips
    # 1^6, whose only zero sum is the whole sequence, so the walk reaches
    # it as a leaf; _scan_length_n: the scan counts one instance too few
    if part == "_scan_length_n":
        real_scan = verify._scan_length_n

        def short(args):
            out = real_scan(args)
            out["instances"] -= 1
            return out

        monkeypatch.setattr(verify, "_scan_length_n", short)
    else:
        lost = [0] + [5] * 5 if part == "_zero_block" else [1] * 6
        settled, walked, _ = _recorded_walk("length-n", 6)
        assert ((0, 5), 4) in settled and (1,) * 6 in walked
        real_walk = verify._walk_packed

        def skip(n, length, prefix, leaf, cut, cap, depth=0):
            # the prefixes of the lost multiset are walked on, not settled
            def around(packed, combo, supp, rest):
                return combo != lost[: len(combo)] and cut(packed, combo, supp, rest)

            def other(packed, combo, supp):
                if combo != lost:
                    leaf(packed, combo, supp)

            return real_walk(n, length, prefix, other, around, cap, depth)

        monkeypatch.setattr(verify, "_walk_packed", skip)
    with pytest.raises(RuntimeError, match="covered 461 of 462"):
        verify.verify_thm_main(6)


def test_egz_reconciliation_catches_a_lost_cover(monkeypatch):
    # walked and settled leaves must add up to C(3n-2, n-1)
    real = verify._scan_egz

    def short(args):
        out = real(args)
        out["instances"] -= 1
        return out

    monkeypatch.setattr(verify, "_scan_egz", short)
    with pytest.raises(RuntimeError, match="covered 714 of 715"):
        verify.verify_egz(5)


def test_import_and_small_scans_skip_pool_machinery():
    # a fresh interpreter: importing zerosum, and CLI runs whose scans all
    # stay in process, never load concurrent.futures; a pooled scan does.
    # Each family's scans pool from its POOL_MIN_ORDER up
    top = verify.POOL_MIN_ORDER
    code = (
        "import contextlib, io, sys\n"
        "from zerosum import cli\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        "for argv in (['verify', 'all', '--n-max', '8', '--shards', '2'],\n"
        f"             ['verify', 'egz', '--n', '{top['egz'] - 1}', '--shards', '2'],\n"
        f"             ['verify', 'support-bound', '--n', '{top['length-n'] - 1}', '--shards', '2'],\n"
        f"             ['verify', 'support-bound', '--n', '{top['length-n']}', '--shards', '2']):\n"
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
    assert proc.stdout.strip() == "[False, False, False, False, True]"


def test_full_length_constant_frozen_n6():
    r = verify.verify_prop_all_equal(6)
    assert r.passed
    assert r.details["matching_instances"] == 2
    assert r.details["witnesses"] == [[1, 1, 1, 1, 1, 1], [5, 5, 5, 5, 5, 5]]


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


def test_sumset_growth_refuses_by_its_multiset_count():
    # sum_{k<=6} C(8+k, k) = C(15, 6) - 1 = 5,004 nonzero multisets over
    # Z10: admitted at exactly that budget, refused one below it
    z10 = AbelianGroup((10,))
    assert verify.verify_sumset_lemmas(z10, 6, budget=5_004).passed
    with pytest.raises(BudgetExceededError, match="over budget 5003"):
        verify.verify_sumset_lemmas(z10, 6, budget=5_003)
    # the count is bounded as it grows, not summed in full: adding up
    # 40,000 binomials at Z1000 took 6.4 s
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        verify.verify_sumset_lemmas(AbelianGroup((1000,)), 10**5)
    assert time.perf_counter() - t0 < 0.5


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


def test_budget_refuses_oversized_scan(monkeypatch):
    # counted as the walk runs: n = 30 does about 5.4 million units of work,
    # and is refused once it passes 100,000
    with pytest.raises(BudgetExceededError, match="over budget 100000$"):
        verify.verify_thm_main(30, budget=10**5)
    # the budget bounds the leaves walked plus the subtrees settled: 121
    # at n = 6, and 59 for EGZ at n = 4 (length 7)
    with pytest.raises(BudgetExceededError, match="length-6 scan over Z_6, .*: over budget 120$"):
        verify.verify_thm_main(6, budget=120)
    assert verify.verify_thm_main(6, budget=121).passed
    assert verify.verify_egz(4, budget=59).passed
    # a budget below the work refuses the scan even once it is cached
    with pytest.raises(BudgetExceededError):
        verify.verify_thm_main(6, budget=120)
    with pytest.raises(BudgetExceededError):
        verify.verify_egz(4, budget=58)
    # and whatever the shard count: n = 8 does 632 units in one walk or
    # dealt, 11 of them in the dealing walk and at most 228 in a chunk; a
    # budget of 10 stops the dealing walk, and one of 100 a chunk inside
    # its worker
    monkeypatch.setitem(verify.POOL_MIN_ORDER, "length-n", 0)
    for shards in (1, 2):
        verify.clear_caches()
        for budget in (10, 100, 631):
            with pytest.raises(BudgetExceededError, match=f"over budget {budget}$"):
                verify.verify_thm_main(8, shards=shards, budget=budget)
        assert verify.verify_thm_main(8, shards=shards, budget=632).passed


def test_budget_refuses_huge_orders_before_counting():
    # a lower bound on the work refuses at once, before the masks are
    # built; the message shows no number past the int-to-str digit limit
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
    (doc,) = json.loads(verify.reports_to_json([r]))["reports"]
    assert doc["statement_id"] == "support-bound"
    assert doc["passed"] is True
    assert "elapsed_ms" in doc
    (doc2,) = json.loads(verify.reports_to_json([r], include_elapsed=False))["reports"]
    assert "elapsed_ms" not in doc2
    combined = json.loads(verify.reports_to_json([r]))
    assert combined["passed"] is True
    assert len(combined["reports"]) == 1


def test_shard_counts_agree_byte_for_byte(monkeypatch):
    # threshold 0: the small Z_n scans still go through worker processes;
    # the orders 1..3 meet the clamp of the split depth to length - 1,
    # which leaves every chunk an entry to walk
    monkeypatch.setattr(verify, "POOL_MIN_ORDER", {"length-n": 0, "egz": 0})
    pooled = {}
    real = verify._run_workers

    def recording(worker, arg_list, workers):
        pooled.setdefault(workers, []).append((worker.__name__, arg_list[0][0], [a[1] for a in arg_list]))
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
            *(verify.verify_corollary_short_zero_sum(m, shards=shards) for m in (1, 2, 3)),
            *(verify.verify_egz(m, shards=shards) for m in (2, 3)),
        ]
        outs.append(verify.reports_to_json(reports, include_elapsed=False))
    assert outs[0] == outs[1] == outs[2] == outs[3]
    # length-n and egz per shard count: one walk from the empty prefix for
    # one shard, else the same dealt prefixes for `shards` workers; the
    # zero-sum-free scan and the Davenport table never start a pool
    scans = [("_scan_length_n", 7), ("_scan_egz", 5)]
    scans += [("_scan_length_n", m) for m in (1, 2, 3)] + [("_scan_egz", m) for m in (2, 3)]
    assert pooled[1] == [(name, m, [()]) for name, m in scans]
    assert pooled[2] == pooled[4] == pooled[8]
    # each dealt prefix has POOL_DEPTH entries, or length - 1 if fewer:
    # at order 1 that is the empty prefix, one walk
    for name, m, prefixes in pooled[2]:
        length = m if name == "_scan_length_n" else 2 * m - 1
        assert {len(p) for p in prefixes} == {min(verify.POOL_DEPTH, length - 1)}, (name, m)


def test_orbit_toggle_does_not_change_findings():
    # orbit reduction is gone: the keyword stays, defaults to False, and
    # True is refused by every scan over Z_n, before any scan runs
    for check in (
        verify.verify_thm_main,
        verify.verify_prop_all_equal,
        verify.verify_extremal_structure,
        verify.verify_corollary_short_zero_sum,
        verify.verify_egz,
    ):
        assert inspect.signature(check).parameters["orbit_reduced"].default is False
        with pytest.raises(DomainError, match="orbit reduction is gone"):
            check(4, orbit_reduced=True)
    for run in (
        lambda: verify.verify_all(6, orbit_reduced=True),
        lambda: verify.verify_statement("egz", 6, orbit_reduced=True),
    ):
        with pytest.raises(DomainError, match="orbit reduction is gone"):
            run()
    assert verify._scan_cache == {}


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
    # with no zero-sum seen nothing settles, so n = 9 walks all 24,310
    # leaves, more than 2 * VIOLATION_LIMIT, and the scan trims its rows too
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
        # m = 5 <= n - 3 lets the cut settle prefixes with supp_p + min(r,
        # n-1-v) <= 3, but the leaves of support 5 and up are walked
        (
            8,
            5,
            {
                "support-bound",
                "short-zero-sum-bound",
                "tight-support-range",
                "tight-support-multiplicity",
            },
        ),
        (
            6,
            4,
            {
                "support-bound",
                "min-length-n-minus-2-support",
                "short-zero-sum-bound",
                "tight-support-range",
                "tight-support-multiplicity",
            },
        ),
    ],
)
def test_each_length_n_law_reports_its_rows(monkeypatch, n, m, laws):
    # every walked leaf, and every prefix the cut asks about, is told its
    # minimal zero-sum length is m; with no limit every row is shown
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda packed, k: m)
    monkeypatch.setattr(verify, "VIOLATION_LIMIT", 10**6)
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


def test_tight_support_shape_counts_the_repeated_value(monkeypatch):
    # 1^3 2^2 over Z_5, told m = n - 1 = 4, is tight with s = 1, b = 2a and
    # gcd(a, 5) = 1: only a's multiplicity, 3 not 4, breaks a^(n-1) (2a)
    (packed,) = [p for combo, p, _ in _walk_leaves(5, 5, ()) if combo == (1, 1, 1, 2, 2)]
    real = verify._leaf_min_zero_length
    monkeypatch.setattr(
        verify, "_leaf_min_zero_length", lambda p, n: 4 if (p, n) == (packed, 5) else real(p, n)
    )
    report = verify.verify_extremal_structure(5)
    rows = {row["law"]: row for row in report.violations if row["sequence"] == [1, 1, 1, 2, 2]}
    assert set(rows) == {"tight-support-multiplicity", "tight-support-shape"}
    assert rows["tight-support-multiplicity"]["observed"] == 3


def test_davenport_laws_report_their_rows(monkeypatch):
    # every Davenport constant one too large: each cyclic group breaks
    # both laws, and a non-cyclic one with D(G) = |G| - 1 breaks equality
    real = sums.davenport
    monkeypatch.setattr(sums, "davenport", lambda g: sums.DavenportResult(real(g).value + 1, real(g).witness))
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
    monkeypatch.setattr(verify, "POOL_MIN_ORDER", {"length-n": 0, "egz": 0})
    monkeypatch.setattr(verify, "VIOLATION_LIMIT", 3)
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda packed, n: n - 1)
    monkeypatch.setattr(sums, "cyclic_rotation_masks", lambda n, blocks: ([0] * n, [0] * n))
    outs = []
    for shards in (1, 2, 4):
        verify.clear_caches()
        reports = [
            check(n, shards=shards)
            for n in (7, 8)
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


def test_benchmark_probes_find_what_they_read():
    # zsbench's traced probes read two things from verify: its
    # verify.orbit_speedup.n12 probe looks for the orbit_reduced keyword,
    # and its verify.canonical_ratio.* metrics read
    # details["canonical_instances"]; a result line without them carries
    # a null metric.  The benchmark change of ROADMAP item 4 drops those
    # probes, and with them the keyword and this test
    assert "orbit_reduced" in inspect.signature(verify.verify_thm_main).parameters
    zn = {"support-bound", "full-length-constant", "extremal-structure", "short-zero-sum", "egz"}
    reports = [r for r in verify.verify_all(8) if r.statement_id in zn]
    reports += [verify.verify_thm_main(12), verify.verify_egz(7)]
    assert {r.statement_id for r in reports} == zn
    for r in reports:
        assert r.details["canonical_instances"] == r.instances_checked, r.statement_id
