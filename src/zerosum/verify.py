"""Exhaustive verification of the package's combinatorial laws.

Each checker enumerates a complete desk-scale instance space, evaluates
one family of statements on every instance, and returns a report with
counts, violations, and witnesses.  A checker validates only its input
(order, and the budget on the work its scan does); one report builder,
_report, builds every report: it runs the statement's scan once per key
(the four length-n statements share one), emits the violations of the
laws STATEMENTS lists for the statement, and adds the statement's
details.  STATEMENTS also gives each checker and its range of orders,
and both verify_all and the CLI take those ranges from there.

The scans over Z_n (length n, and length 2n-1 for EGZ) walk the
non-decreasing sequences depth first and carry the subset sums of the
current prefix in one int, the layout of sums.cyclic_rotation_masks: bit
L*n + r is set when some L entries of the prefix sum to r mod n, so
block L (bits L*n .. L*n+n-1) is the set of sums of length L, and the
empty prefix is 1.  Appending the residue v rotates every block by v
(two shifts under per-residue masks built once per scan) and moves it
up one block.  Blocks past n are never written: the minimal zero-sum
length is the index of the lowest set bit among L*n, L = 1..n, and the
EGZ statement reads bit n*n.

Almost every such sequence holds a zero-sum so short that no law can
fail on it, and the walk settles the whole subtree below such a prefix
by a count: a prefix with last value v and r entries still to come
heads C(n-v+r-1, r) sequences, since every later entry is >= v.  The
argument uses two facts only: a zero-sum of the prefix stays in every
extension, and each later entry adds at most one distinct value.
  - Length n.  A prefix with supp_p distinct values and a zero-sum of
    length m_p gives every leaf below it m <= m_p and
    supp <= supp_p + min(r, n-1-v).  If m_p <= n-3 and that support
    bound is <= n - m_p, every leaf has supp <= n - m: the support bound
    and the short-zero-sum bound hold, no leaf is tight (that needs
    supp = n - m + 1), and m <= n-3 reaches no slice or full-length
    count.  So the subtree adds its count to `instances` and nothing
    else.  m_p is read through _leaf_min_zero_length, so a fault that
    forces m moves the cut with it.
  - EGZ.  A prefix with an n-term zero-sum (bit n*n) passes it to every
    leaf, so each leaf below passes.
Walked plus settled leaves must equal C(n+L-1, L) exactly.

A scan's work is its walked leaves plus its settled subtrees, counted as
it runs (see _walk_packed) against the budget, which refuses it with
BudgetExceededError once the work passes.  A scan over Z_n of order
below POOL_MIN_ORDER for its family, or with one shard, runs in the
calling process as one walk.  A larger one is dealt by the same walk
stopped at POOL_DEPTH entries (length - 1 if fewer, so that each chunk
has an entry to walk): each prefix it leaves unsettled there is one
chunk, and a pool of `shards` worker processes takes the chunks one at a
time as each frees up.  Workers are pure; chunk results merge in prefix
order, which is lexicographic order, by summing counts and keeping the
VIOLATION_LIMIT smallest violation rows of each law, so a report, and
whether the budget refuses it, are the same for every shard count.  The
zero-sum-free scan and the Davenport table always run in process: a
pool never paid for them.

The zero-sum-free scan runs over any group, depth first, and keeps only
its current path T with its sum set, one |G|-bit int grown by
sums.packed_translator.  The growth step compares a multiset S with
S - v for each distinct entry v, and (S, v) <-> (T, g) = (S - v, v) is a
bijection onto the zero-sum-free T shorter than k_max paired with a
nonzero g whose negative is not a sum of T.  So each node T grows its
sum set by every such g and checks the step there; the g >= last(T)
extend the path, and each T + g they reach is an instance.
"""

from __future__ import annotations

import json
import os
import time
from functools import cache
from itertools import groupby, islice
from math import comb, gcd
from operator import itemgetter

from . import sums
from .errors import BudgetExceededError, DomainError
from .groups import AbelianGroup, ZSequence, element_neg, groups_of_order, record

# The most work a scan may do: leaves walked plus subtrees settled for
# a scan over Z_n (see _walk_packed), multisets for the sum-set scan.
# At 1.3-2.9 us a unit on one core, length-n n = 31 does 9,813,340 in
# 19.8 s, and n = 32 is refused after 17.1 s.
SCAN_WORK_CAP = 10_000_000
DAVENPORT_TABLE_CAP = 16
VIOLATION_LIMIT = 100
WITNESS_LIMIT = 100
# A scan over Z_n of lower order than its family's entry runs in the
# calling process whatever `shards` says.  Measured on 2 CPUs (Python
# 3.11, fork start, a fresh interpreter per run, medians of 5, two
# workers against one with the gate forced to 0): length-n n = 21 loses
# 0.549 -> 0.620 s, n = 22 gains 0.731 -> 0.510 s, n = 23 1.42 -> 0.94 s
# and n = 25 3.29 -> 1.93 s; EGZ n = 9 is a wash (0.132 -> 0.145 s) and
# n = 10 gains 0.472 -> 0.355 s.
POOL_MIN_ORDER = {"length-n": 22, "egz": 10}
# A pooled walk is dealt as one chunk per prefix of this many entries
# that its walk leaves unsettled.  With two workers on 2 CPUs (medians of
# 13 fresh runs), depths 1 and 2 tie within 5% and depth 3 is 20-40% slower
# on length-n n = 22..25; depth 1's largest chunk holds about half the work.
POOL_DEPTH = 2


def _shown(x: int) -> str:
    # str() of an int past 4,300 digits raises ValueError
    return str(x) if x.bit_length() <= 64 else f"a {x.bit_length()}-bit int"


def _budget(budget: int | None) -> int:
    return SCAN_WORK_CAP if budget is None else budget


@record
class VerificationReport:
    """Outcome of one exhaustive check.

    violations holds at most VIOLATION_LIMIT entries (sorted); the full
    count survives in violations_total.  details carries per-statement
    extras such as witnesses and slice counts.
    """

    statement_id: str
    parameters: dict
    instances_checked: int
    violations: list[dict]
    violations_total: int
    details: dict
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "statement_id": self.statement_id,
            "parameters": self.parameters,
            "instances_checked": self.instances_checked,
            "passed": self.passed,
            "violations": self.violations,
            "violations_total": self.violations_total,
            "details": self.details,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def reports_to_json(reports: list[VerificationReport], include_elapsed: bool = True) -> str:
    doc = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict(include_elapsed) for r in reports],
    }
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# shared machinery


def _run_workers(worker, arg_list: list, workers: int) -> list:
    """worker over arg_list in order; a process pool only for 2+ chunks.

    The pool has min(workers, CPUs) processes and deals the chunks one at
    a time as each process frees up; map returns them in argument order.
    """
    if len(arg_list) <= 1:
        return [worker(a) for a in arg_list]
    # imported here: it takes 15-30 ms to import, which loading this
    # module, and so every `zerosum verify` call, would otherwise pay
    # even when all its scans stay in process
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(worker, arg_list))


@cache
def _zero_column(n: int) -> int:
    """Bits L*n for L = 1..n: a nonempty subsequence of length L sums to 0."""
    return sum(1 << (length * n) for length in range(1, n + 1))


def _leaf_min_zero_length(packed: int, n: int) -> int | None:
    # kept module-level so tests can fault-inject the scan path
    zeros = packed & _zero_column(n)
    if not zeros:
        return None
    return ((zeros & -zeros).bit_length() - 1) // n


def _over_budget(n: int, length: int, cap: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"length-{length} scan over Z_{n}, leaves walked plus subtrees settled: over budget {_shown(cap)}"
    )


def _walk_packed(n: int, length: int, prefix: tuple, leaf, cut, cap: int, depth: int = 0) -> tuple[int, int]:
    """Call leaf(packed, combo, supp) on each non-decreasing sequence not settled by cut.

    Covers the length-`length` sequences over Z_n that start with prefix,
    in lexicographic order; a nonzero depth stops it at their prefixes of
    that many entries.  combo is the sequence, supp its number of
    distinct values, and packed its subset sums in the layout of
    sums.cyclic_rotation_masks, cut to lengths 0..n.  combo is only valid
    during the call.

    cut(packed, combo, supp, rest) is asked of each nonempty prefix, the
    whole sequence included, with its supp distinct values and the rest
    entries still to come; when it holds, it must hold for every
    extension too, and the prefix's C(n-v+rest-1, rest) sequences (v its
    last value) are settled: counted, not visited.

    Returns (settled, work): the sequences settled, and the work, which
    counts each whole sequence walked and each prefix settled.
    BudgetExceededError is raised once the work passes cap.
    """
    lo_mask, hi_mask = sums.cyclic_rotation_masks(n, n)
    combo: list[int] = []
    top = (depth or length) - 1
    along = len(prefix)
    settled = work = 0

    def rec(lo_v: int, at: int, x: int, supp: int) -> None:
        # combo holds `at` entries; the step of sums.cyclic_rotation_masks
        # is inlined: a call per node would add about 15% to the walk
        nonlocal settled, work
        rest = length - 1 - at
        # along the prefix, only its own entry; lo_v is the entry before,
        # and the sequence never decreases, so v is new when it differs
        for v in range(lo_v, n) if at >= along else (prefix[at],):
            y = x | ((((x << v) & lo_mask[v]) | ((x >> (n - v)) & hi_mask[v])) << n)
            grown = supp + (not at or v != lo_v)
            combo.append(v)
            if cut(y, combo, grown, rest):
                settled += comb(n - v + rest - 1, rest)
                work += 1
            elif at < top:
                rec(v, at + 1, y, grown)
            else:
                leaf(y, combo, grown)
                work += not rest
            combo.pop()
        if work > cap:
            raise _over_budget(n, length, cap)

    rec(0, 0, 1, 0)
    return settled, work


def _keep_smallest(rows: list[dict]) -> None:
    # sorted, and cut to each law's VIOLATION_LIMIT smallest: the rows a
    # report shows must not depend on visiting or shard order
    rows.sort(key=lambda r: (r["law"], tuple(r["sequence"]), str(r["observed"])))
    laws = groupby(rows, itemgetter("law"))
    rows[:] = [row for _, same in laws for row in islice(same, VIOLATION_LIMIT)]


def _add_violation(bundle: dict, law: str, sequence, observed, expected) -> None:
    # the trim bounds a scan's memory: 2 * VIOLATION_LIMIT rows per law fired
    totals = bundle["totals"]
    totals[law] = totals.get(law, 0) + 1
    rows = bundle["rows"]
    rows.append(
        {
            "law": law,
            "sequence": list(sequence),
            "observed": observed,
            "expected": expected,
        }
    )
    if len(rows) >= 2 * VIOLATION_LIMIT * len(totals):
        _keep_smallest(rows)


# ---------------------------------------------------------------------------
# the length-n scan over Z_n: one pass feeds four checkers


def _length_n_cut(n: int):
    """The length-n scan's cut (see _walk_packed and the module docstring).

    A prefix settles when its shortest zero-sum has length m_p <= n-3
    and supp_p + min(rest, n-1-v) <= n - m_p.
    """

    def cut(packed: int, combo: list[int], supp: int, rest: int) -> bool:
        bound = supp + min(rest, n - 1 - combo[-1])
        if bound >= n:
            # n - m_p < n for every m_p
            return False
        m = _leaf_min_zero_length(packed, n)
        return m is not None and m <= n - 3 and m <= n - bound

    return cut


def _scan_length_n(args: tuple) -> dict:
    """Verify every length-n multiset over Z_n that starts with a prefix.

    Each walked instance comes with its support size; its minimal
    zero-sum length m is read off the packed subset sums, and all the
    length-n statements are evaluated at once.  A settled subtree adds
    to instances alone.  args is (n, prefix, cap), passed on to
    _walk_packed.  Like every scan result it holds its violations as
    totals (law -> count) and rows, both written by _add_violation.
    """
    n, prefix, cap = args
    allowed_s = {0, 1, n - 2, n - 1}
    out = {"instances": 0, "work": 0, "slice_nm1": 0, "slice_nm2": 0, "full_instances": 0}
    out.update(full_witnesses=[], realized={}, first_tight={}, totals={}, rows=[])

    def leaf(packed: int, combo: list[int], supp: int) -> None:
        out["instances"] += 1
        m = _leaf_min_zero_length(packed, n)
        if m is None:
            # no zero-sum subsequence at all; the short-bound law cannot hold
            _add_violation(out, "short-zero-sum-bound", combo, "infinity", n - supp + 1)
            return
        s = n - m
        if supp > s + 1:
            _add_violation(out, "support-bound", combo, supp, s + 1)
        if n >= 3:
            if m == n - 1:
                out["slice_nm1"] += 1
                if supp != 2:
                    _add_violation(out, "min-length-n-minus-1-support", combo, supp, 2)
            elif m == n - 2:
                out["slice_nm2"] += 1
                if supp > 3:
                    _add_violation(out, "min-length-n-minus-2-support", combo, supp, 3)
        if m == n:
            out["full_instances"] += 1
            if len(out["full_witnesses"]) < WITNESS_LIMIT:
                out["full_witnesses"].append(list(combo))
            if supp != 1 or gcd(combo[0], n) != 1:
                _add_violation(out, "full-length-constant", combo, supp, 1)
        if m > n - supp + 1:
            _add_violation(out, "short-zero-sum-bound", combo, m, n - supp + 1)
        if supp == s + 1:
            # the support bound is tight here; structure laws apply
            out["realized"][s] = out["realized"].get(s, 0) + 1
            if s not in out["first_tight"]:
                out["first_tight"][s] = list(combo)
            if s not in allowed_s:
                _add_violation(out, "tight-support-range", combo, s, "{0,1,n-2,n-1}")
            # combo is sorted, so equal values stand in runs
            most = max(len(list(run)) for _, run in groupby(combo))
            if most < n - s:
                _add_violation(out, "tight-support-multiplicity", combo, most, n - s)
            if s == 1 and n >= 4:
                # supp is 2: a^(n-1) b or b a^(n-1), and either way combo[1] is a
                a = combo[1]
                b = combo[-1] if combo[0] == a else combo[0]
                ok = combo.count(a) == n - 1 and b == (2 * a) % n and gcd(a, n) == 1
                if not ok:
                    _add_violation(
                        out, "tight-support-shape", combo, "other", "a^(n-1)+(2a), ord(a)=n"
                    )

    settled, out["work"] = _walk_packed(n, n, prefix, leaf, _length_n_cut(n), cap)
    out["instances"] += settled
    return out


def _merge_scans(bundles: list[dict]) -> dict:
    """Chunk results of one Z_n scan, in chunk order, as one result.

    Integers add up, and so do the per-key counts in realized and totals;
    violation rows concatenate and are cut by _keep_smallest, other lists
    concatenate up to WITNESS_LIMIT, and first_tight keeps the first
    chunk's witness.
    """
    out = {}
    for key in bundles[0]:
        parts = [b[key] for b in bundles]
        if key in ("realized", "totals"):
            out[key] = {}
            for part in parts:
                for k, count in part.items():
                    out[key][k] = out[key].get(k, 0) + count
        elif key == "rows":
            out[key] = [row for part in parts for row in part]
            _keep_smallest(out[key])
        elif key == "first_tight":
            # later chunks are read first, so an earlier chunk overwrites them
            out[key] = {s: w for part in reversed(parts) for s, w in part.items()}
        elif isinstance(parts[0], list):
            out[key] = [w for part in parts for w in part][:WITNESS_LIMIT]
        else:
            out[key] = sum(parts)
    return out


# scan cache: statements that read one scan (the four length-n ones) share it
_scan_cache: dict[tuple, dict] = {}


def clear_caches() -> None:
    """Drop memoized scan bundles (test isolation around fault injection)."""
    _scan_cache.clear()


def _report(statement_id: str, parameters: dict, key: tuple, scan, details) -> VerificationReport:
    """The one builder of a VerificationReport.

    scan() runs once per cache key; the report takes its instances, the
    violations of the laws STATEMENTS lists for statement_id, and
    details(bundle).  Callers check order and budget first, so a scan is
    refused under a budget below its cost even when it ran before.
    """
    t0 = time.perf_counter()
    if key not in _scan_cache:
        _scan_cache[key] = scan()
    bundle = _scan_cache[key]
    laws = STATEMENTS[statement_id][3]
    rows = [row for row in bundle["rows"] if row["law"] in laws]
    _keep_smallest(rows)
    return VerificationReport(
        statement_id=statement_id,
        parameters=parameters,
        instances_checked=bundle["instances"],
        violations=rows[:VIOLATION_LIMIT],
        violations_total=sum(bundle["totals"].get(law, 0) for law in laws),
        details=details(bundle),
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _zn_bundle(family: str, n: int, shards: int, cap: int) -> dict:
    """The merged result of the `family` scan over Z_n, walked with budget cap.

    "length-n" walks the length-n multisets; "egz" walks those of length
    2n-1 after _sharpness_block.  Walked plus settled leaves must cover
    the raw space exactly, and all the walks' work must stay within cap.
    """
    length = n if family == "length-n" else 2 * n - 1
    space = comb(n + length - 1, length)
    head, worker = ([], _scan_length_n) if family == "length-n" else ([_sharpness_block(n)], _scan_egz)
    prefixes, settled, work = [()], 0, 0
    if shards > 1 and n >= POOL_MIN_ORDER[family] and length > 1:
        prefixes = []
        deal = lambda packed, combo, supp: prefixes.append(tuple(combo))
        cut = _length_n_cut(n) if family == "length-n" else _egz_cut(n)
        settled, work = _walk_packed(n, length, (), deal, cut, cap, min(POOL_DEPTH, length - 1))
    merged = _merge_scans(head + _run_workers(worker, [(n, p, cap) for p in prefixes], shards))
    merged["instances"] += settled
    merged["work"] += work
    if merged["instances"] != space:
        raise RuntimeError(f"enumeration covered {merged['instances']} of {space} multisets")
    if merged["work"] > cap:
        raise _over_budget(n, length, cap)
    return merged


def _require_order(statement_id: str, n: int, name: str = "n") -> None:
    floor = STATEMENTS[statement_id][1]
    if n < floor:
        raise DomainError(f"{statement_id} needs {name} >= {floor}, got {n}")


def _more_multisets_than(values: int, length: int, limit: int) -> bool:
    """Whether C(values+length-1, length) > limit, with no int much larger than limit."""
    count = 1
    for i in range(1, length + 1):
        count = count * (values - 1 + i) // i  # C(values-1+i, i)
        if count > limit:
            return True
    return False


def _more_work_than(family: str, n: int, cap: int) -> bool:
    """Whether a lower bound on the work of the `family` scan over Z_n passes cap.

    A prefix without the zero-sum its cut reads never settles, and the
    unsettled prefixes of one depth head disjoint subtrees, each holding
    some work.  For EGZ those include every prefix shorter than n; for
    length n, every prefix of d entries from 1..floor((n-1)/d), whose
    subset sums all lie in 1..n-1.
    """
    if family == "egz":
        return _more_multisets_than(n, n - 1, cap)
    return any(_more_multisets_than((n - 1) // d, d, cap) for d in range(1, n))


def _zn_report(
    statement_id: str,
    family: str,
    n: int,
    details,
    shards: int,
    budget: int | None,
) -> VerificationReport:
    """The report of one statement read off the `family` scan over Z_n.

    The budget bounds the scan's work.  _more_work_than refuses a large n
    at once, before the masks, whose n^3 bits alone could exhaust
    memory, are built; a scan cached under a larger budget is refused by
    the work it did.  details(bundle) gives the statement's own details;
    every report also carries canonical_instances, which equals
    instances_checked: zsbench's verify.canonical_ratio probes read it.
    """
    _require_order(statement_id, n)
    if shards < 1:
        raise DomainError(f"{statement_id} needs shards >= 1, got {shards}")
    length = n if family == "length-n" else 2 * n - 1
    cap = _budget(budget)
    key = (family, n)
    if _more_work_than(family, n, cap) or key in _scan_cache and _scan_cache[key]["work"] > cap:
        raise _over_budget(n, length, cap)
    return _report(
        statement_id,
        {"n": n} if family == "length-n" else {"n": n, "length": length},
        key,
        lambda: _zn_bundle(family, n, shards, cap),
        lambda bundle: {"canonical_instances": bundle["instances"], **details(bundle)},
    )


# ---------------------------------------------------------------------------
# the four length-n checkers


def verify_thm_main(
    n: int,
    *,
    orbit_reduced: bool = False,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Support bound: length-n S over Z_n with finite minimal zero-sum
    length n-s has at most s+1 distinct entries.  The s=1 slice must hit
    exactly 2 distinct entries and the s=2 slice at most 3 (both n >= 3).

    orbit_reduced=True is refused: every scan over Z_n is raw.
    """
    # the keyword stays only for zsbench's verify.orbit_speedup.n12 probe,
    # which looks for it, until the benchmark change of ROADMAP item 1
    if orbit_reduced:
        raise DomainError("support-bound: orbit reduction is gone, every scan over Z_n is raw")

    def details(bundle: dict) -> dict:
        totals = bundle["totals"]
        return {
            "slices": {
                f"min-length-n-minus-{k}": {
                    "instances": bundle[f"slice_nm{k}"],
                    "violations": totals.get(f"min-length-n-minus-{k}-support", 0),
                }
                for k in (1, 2)
            }
        }

    return _zn_report("support-bound", "length-n", n, details, shards, budget)


def verify_prop_all_equal(
    n: int,
    *,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Full-length case: minimal zero-sum length exactly n forces a
    constant sequence g^n with g of order n."""

    def details(bundle: dict) -> dict:
        return {
            "matching_instances": bundle["full_instances"],
            "witnesses": bundle["full_witnesses"],
        }

    return _zn_report("full-length-constant", "length-n", n, details, shards, budget)


def verify_extremal_structure(
    n: int,
    *,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Structure of instances where the support bound is tight.

    Over instances with minimal zero-sum length n-s and exactly s+1
    distinct entries: s is confined to {0, 1, n-2, n-1}; some entry has
    multiplicity at least n-s; and for s=1, n >= 4 the sequence is
    a^(n-1) together with 2a for a generator a.
    """

    def details(bundle: dict) -> dict:
        return {
            "realized_s": {str(s): c for s, c in sorted(bundle["realized"].items())},
            "witnesses": {str(s): w for s, w in sorted(bundle["first_tight"].items())},
        }

    return _zn_report("extremal-structure", "length-n", n, details, shards, budget)


def verify_corollary_short_zero_sum(
    n: int,
    *,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Support forces short zero-sums: a length-n sequence over Z_n with
    s distinct entries has a zero-sum subsequence of length <= n-s+1."""
    return _zn_report("short-zero-sum", "length-n", n, lambda bundle: {}, shards, budget)


# ---------------------------------------------------------------------------
# zero-sum-free scan: sum-set growth laws


def _scan_zero_sum_free(group: AbelianGroup, k_max: int) -> dict:
    """Enumerate zero-sum-free multisets (length <= k_max) over a group.

    Depth first over non-decreasing element indices, keeping only the
    path T and its sum set.  Each node T builds Sigma(T + g) =
    Sigma(T) | (g + Sigma(T)) | {g} for every nonzero g with -g not a sum
    of T: (T, g) is the growth step's pair (S, v) = (T + g, g), met once
    per S and distinct entry v.  Only g >= last(T) descends, to the
    instance T + g, where the three per-multiset laws are checked.
    """
    order = group.order
    elements = list(group.elements())
    neg = [group.index_of(element_neg(group, g)) for g in elements]
    translate = sums.packed_translator(group)
    out = {"instances": 0, "totals": {}, "rows": []}
    path: list[int] = []

    def visit(sigma: int, supp: int) -> None:
        # path is a zero-sum-free T with sum set sigma and supp distinct entries
        k = len(path) + 1
        last = path[-1] if path else 0
        step = sigma.bit_count() + 1
        for gi in range(1, order):
            if sigma >> neg[gi] & 1:
                continue
            grown = sigma | translate(sigma, elements[gi]) | (1 << gi)
            size = grown.bit_count()
            if size < step:
                _add_violation(out, "sigma-growth-step", sorted(path + [gi]), size, step)
            if gi < last:
                continue
            out["instances"] += 1
            support = supp + (gi != last)
            if size < k:
                _add_violation(out, "sigma-size-at-least-k", path + [gi], size, k)
            if size < k - 1 + support:
                _add_violation(
                    out, "sigma-size-support-bound", path + [gi], size, k - 1 + support
                )
            if size == k and support != 1:
                _add_violation(out, "sigma-size-k-constant", path + [gi], support, 1)
            if k < k_max:
                path.append(gi)
                visit(grown, support)
                path.pop()

    visit(0, 0)
    return out


def verify_sumset_lemmas(
    group: AbelianGroup,
    k_max: int = 6,
    *,
    budget: int | None = None,
) -> VerificationReport:
    """Sum-set growth over zero-sum-free multisets of length k <= k_max:
    at least k sums, at least k-1+supp sums, one-step growth of at least
    one per appended entry, and exactly k sums only for constant input.

    The scan always runs in process and checks every multiset."""
    if k_max < 1:
        raise DomainError(f"sumset-growth needs k_max >= 1, got {k_max}")
    order = group.order
    _require_order("sumset-growth", order, "|G|")
    # the multisets of nonzero elements of lengths 1..k_max number
    # sum_k C(|G|-2+k, k) = C(|G|-1+k_max, k_max) - 1 (hockey stick)
    cap = _budget(budget)
    if _more_multisets_than(order, k_max, cap + 1):
        raise BudgetExceededError(
            f"sumset-growth over {group} to k_max {k_max}, multisets: over budget {_shown(cap)}"
        )
    return _report(
        "sumset-growth",
        {"group": str(group), "k_max": k_max},
        ("zero-sum-free", group.factors, k_max),
        lambda: _scan_zero_sum_free(group, k_max),
        lambda bundle: {},
    )


# ---------------------------------------------------------------------------
# exact-cardinality zero-sums in windows of length 2n-1


def _egz_cut(n: int):
    """The EGZ scan's cut: a prefix with an n-term zero-sum (bit n*n) settles."""
    target = n * n
    return lambda packed, combo, supp, rest: packed >> target & 1


def _scan_egz(args: tuple) -> dict:
    """Check every length 2n-1 multiset over Z_n that starts with a prefix
    for n entries summing to zero (bit n*n of the packed sums); a settled
    subtree passes whole.  args is (n, prefix, cap), as for
    _scan_length_n."""
    n, prefix, cap = args
    out = {"instances": 0, "work": 0, "totals": {}, "rows": []}
    target = n * n

    def leaf(packed: int, combo: list[int], supp: int) -> None:
        out["instances"] += 1
        if not packed >> target & 1:
            _add_violation(out, "exact-n-zero-sum", combo, False, True)

    settled, out["work"] = _walk_packed(n, 2 * n - 1, prefix, leaf, _egz_cut(n), cap)
    out["instances"] += settled
    return out


def _sharpness_block(n: int) -> dict:
    """The EGZ scan's sharpness check: n-1 zeros with n-1 ones have no n-term zero-sum."""
    out = {"instances": 0, "work": 0, "totals": {}, "rows": []}
    sharp = [0] * (n - 1) + [1] * (n - 1)
    if sums.has_zero_sum_of_size(ZSequence.from_iterable(AbelianGroup((n,)), sharp), n):
        _add_violation(out, "sharpness-witness", sharp, "has exact-n zero-sum", "none")
    return out


def verify_egz(
    n: int,
    *,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Every multiset of 2n-1 residues mod n contains n of them summing
    to zero; the bound is sharp, witnessed by n-1 zeros with n-1 ones."""

    def details(bundle: dict) -> dict:
        return {
            "sharpness_witness": [0] * (n - 1) + [1] * (n - 1),
            "sharpness_confirmed": "sharpness-witness" not in bundle["totals"],
        }

    return _zn_report("egz", "egz", n, details, shards, budget)


# ---------------------------------------------------------------------------
# Davenport constants across all small groups


def _davenport_rows(max_order: int) -> dict:
    out = {"table": [], "totals": {}, "rows": []}
    for m in range(1, max_order + 1):
        for group in groups_of_order(m):
            result = sums.davenport(group)
            row = {
                "group": str(group),
                "order": m,
                "cyclic": group.is_cyclic,
                "davenport": result.value,
                "witness": str(result.witness),
            }
            out["table"].append(row)
            if result.value > m:
                _add_violation(out, "davenport-order-bound", [str(group)], result.value, m)
            if (result.value == m) != group.is_cyclic:
                _add_violation(
                    out,
                    "davenport-cyclic-equality",
                    [str(group)],
                    result.value,
                    m if group.is_cyclic else f"< {m}",
                )
    out["instances"] = len(out["table"])
    return out


def verify_davenport_table(max_order: int = DAVENPORT_TABLE_CAP) -> VerificationReport:
    """Davenport constant never exceeds the group order, with equality
    exactly for cyclic groups; checked for every abelian group of order
    up to max_order.  The table always runs in process (about 30 ms at
    order 16)."""
    _require_order("davenport-table", max_order, "max_order")
    if max_order > DAVENPORT_TABLE_CAP:
        raise BudgetExceededError(
            f"davenport table capped at order {DAVENPORT_TABLE_CAP}, got {max_order}"
        )
    return _report(
        "davenport-table",
        {"max_order": max_order},
        ("davenport-table", max_order),
        lambda: _davenport_rows(max_order),
        lambda bundle: {"table": bundle["table"]},
    )


# ---------------------------------------------------------------------------


# statement id -> (checker, lowest order, highest order or None, laws).
# The orders are n for the Z_n statements, the cyclic groups Z_n for
# sumset-growth, and max_order for davenport-table, whose one report
# covers every order up to the highest.  The laws are the violation rows
# the statement's report shows, read off its scan by _report.
STATEMENTS = {
    "support-bound": (
        verify_thm_main,
        2,
        None,
        ("support-bound", "min-length-n-minus-1-support", "min-length-n-minus-2-support"),
    ),
    "full-length-constant": (verify_prop_all_equal, 1, None, ("full-length-constant",)),
    "extremal-structure": (
        verify_extremal_structure,
        2,
        None,
        ("tight-support-range", "tight-support-multiplicity", "tight-support-shape"),
    ),
    "short-zero-sum": (verify_corollary_short_zero_sum, 1, None, ("short-zero-sum-bound",)),
    "sumset-growth": (
        verify_sumset_lemmas,
        2,
        10,
        ("sigma-size-at-least-k", "sigma-size-support-bound", "sigma-growth-step",
         "sigma-size-k-constant"),
    ),
    "egz": (verify_egz, 2, 6, ("exact-n-zero-sum", "sharpness-witness")),
    "davenport-table": (
        verify_davenport_table,
        1,
        DAVENPORT_TABLE_CAP,
        ("davenport-order-bound", "davenport-cyclic-equality"),
    ),
}


def verify_statement(
    statement: str,
    n_max: int,
    *,
    n: int | None = None,
    shards: int = 1,
    budget: int | None = None,
) -> list[VerificationReport]:
    """The reports of one STATEMENTS entry over its orders up to n_max,
    or at the single order n.  `shards` applies to the scans over Z_n
    only, but every statement refuses shards < 1.  An n_max below the
    statement's floor leaves no order to check and raises DomainError."""
    check, floor, cap, _ = STATEMENTS[statement]
    if shards < 1:
        raise DomainError(f"{statement} needs shards >= 1, got {shards}")
    top = n_max if cap is None else min(n_max, cap)
    if n is None and top < floor:
        raise DomainError(f"{statement} needs n_max >= {floor}, got {n_max}")
    if statement == "davenport-table":
        return [check(top if n is None else n)]
    orders = range(floor, top + 1) if n is None else [n]
    if statement == "sumset-growth":
        return [check(AbelianGroup((m,)), budget=budget) for m in orders]
    return [check(m, shards=shards, budget=budget) for m in orders]


def verify_all(
    n_max: int,
    *,
    shards: int = 1,
    budget: int | None = None,
) -> list[VerificationReport]:
    """Run every statement in STATEMENTS over its orders up to n_max.

    Each statement starts at its own hypothesis floor; sum-set growth
    and EGZ stop at their own caps, since their spaces grow on a
    different scale.
    """
    if n_max < 2:
        raise DomainError(f"verify_all needs n_max >= 2, got {n_max}")
    return [
        report
        for statement in STATEMENTS
        for report in verify_statement(statement, n_max, shards=shards, budget=budget)
    ]
