"""Exhaustive verification engine: accounting, orbit reduction,
determinism across shard counts, and fault injection."""

from __future__ import annotations

import json
from math import comb

import pytest

from conftest import brute_length_sums, burnside_orbit_count, packed_pairs
from zerosum import verify
from zerosum.errors import BudgetExceededError, UnsupportedSymmetryError
from zerosum.groups import AbelianGroup


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


def test_walk_packed_leaves_match_subset_enumeration():
    # every leaf of both scan shapes, decoded and checked against brute force
    for n, length in ((4, 4), (5, 5), (4, 7), (5, 9)):
        seen = []

        def leaf(packed, combo, counts):
            assert counts == [combo.count(v) for v in range(n)]
            want = {(L, r) for L, r in brute_length_sums(n, combo) if L <= n}
            assert packed_pairs(n, packed) == want
            seen.append(tuple(combo))

        verify._walk_packed(n, length, (0, n), leaf)
        assert seen == sorted(seen) and len(seen) == len(set(seen)) == comb(n + length - 1, length)
        assert all(list(c) == sorted(c) for c in seen)


def test_scan_cache_ignores_shard_count(monkeypatch):
    calls = []
    real = verify._run_workers

    def counting(worker, arg_list, shards):
        calls.append(worker.__name__)
        return real(worker, arg_list, shards)

    monkeypatch.setattr(verify, "_run_workers", counting)
    runs = [
        lambda shards: verify.verify_thm_main(6, shards=shards),
        lambda shards: verify.verify_egz(4, shards=shards),
        lambda shards: verify.verify_sumset_lemmas(AbelianGroup((6,)), 4, shards=shards),
        lambda shards: verify.verify_davenport_table(6, shards=shards),
    ]
    for run in runs:
        first = run(1).to_json(include_elapsed=False)
        again = run(2).to_json(include_elapsed=False)
        assert first == again
    assert calls == ["_scan_length_n", "_scan_egz", "_scan_zero_sum_free", "_davenport_rows"]


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
    with pytest.raises(UnsupportedSymmetryError):
        verify.verify_sumset_lemmas(AbelianGroup((2, 2)), orbit_reduced=True)


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


def test_davenport_table_cap():
    with pytest.raises(BudgetExceededError):
        verify.verify_davenport_table(17)


def test_budget_refuses_oversized_scan(monkeypatch):
    with pytest.raises(BudgetExceededError):
        verify.verify_thm_main(30)
    monkeypatch.setenv("ZEROSUM_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        verify.verify_thm_main(6)
    monkeypatch.setenv("ZEROSUM_BUDGET", "1000")
    assert verify.verify_thm_main(6).passed


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


def test_shard_counts_agree_byte_for_byte():
    outs = []
    for shards in (1, 2, 4, 8):
        verify.clear_caches()
        reports = [
            verify.verify_thm_main(7, shards=shards),
            verify.verify_extremal_structure(7, shards=shards),
            verify.verify_egz(5, shards=shards),
            verify.verify_sumset_lemmas(AbelianGroup((8,)), shards=shards),
        ]
        outs.append(verify.reports_to_json(reports, include_elapsed=False))
    assert outs[0] == outs[1] == outs[2] == outs[3]


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
    # force every instance to look wrong so truncation kicks in
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda by_len, limit: None)
    verify.clear_caches()
    r = verify.verify_corollary_short_zero_sum(6)
    assert not r.passed
    assert len(r.violations) == 100
    assert r.violations_total > 100
    keys = [(row["law"], tuple(row["sequence"])) for row in r.violations]
    assert keys == sorted(keys)
