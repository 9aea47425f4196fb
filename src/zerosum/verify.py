"""Exhaustive verification of the package's combinatorial laws.

Each checker enumerates a complete desk-scale instance space, evaluates
one family of statements on every instance, and returns a report with
counts, violations, and witnesses.  A checker validates only its input
(order, and the budget on the leaves its scan will walk); one report
builder, _report, builds every report: it runs the statement's scan
once per key (the four length-n statements share one), emits the
violations of the laws STATEMENTS lists for the statement, and adds the
statement's details.  STATEMENTS also gives each checker and its range
of orders, and both verify_all and the CLI take those ranges from there.

A multiset S over Z_n that contains 0 has the zero-sum subsequence (0),
so its minimal zero-sum length m is 1 and every length-n law holds on
it; the support bound n - m + 1 = n is tight only on {0, 1, ..., n-1}.
These multisets are the first C(2n-2, n-1) lexicographic ranks of the
length-n scan, and _zero_block settles them in closed form: its orbit
count is Burnside's.  Only the C(2n-2, n) zero-free ranks are walked.
The inverse-pair lemma settles most of those: a zero-free S that holds
some a together with n-a, or n/2 twice, has m = 2, so for n >= 5 every
length-n law holds on it and the support bound is tight only on
{1, ..., n-1} plus one repeated entry.  _pair_block gives those in
closed form too, and the walk skips every prefix with an inverse pair,
so it reaches only the pair-free multisets: P(n) of them, the t^n
coefficient of ((1+t)/(1-t))^floor((n-1)/2) * (1+t)^[n even], and their
unit orbits by Burnside.  The raw count still reconciles with C(2n-1, n).

Every walk over Z_n (EGZ's too) counts its leaves in closed form first
(_multisets); that count meets the budget, decides whether the walk
pools, and must equal the leaves walked.  A walk that reaches fewer
than POOL_MIN_INSTANCES leaves, or runs with one shard, runs in the
calling process; a larger one is cut into POOL_CHUNKS equal ranges of the
lexicographic ranks of its sequences (the walk unranks each range's
first and last sequence), which a pool of `shards` worker processes
takes one at a time as each frees up.  Workers are pure; chunk results
merge in rank order by summing counts and keeping the VIOLATION_LIMIT
smallest violation rows of each law, so a report is byte-identical for
every shard count.  The zero-sum-free scan and the Davenport table
always run in process: a pool never paid for them.

The scans over Z_n are reduced to one representative per unit orbit
u*S (the checked statements are all invariant under that action), and
instances_checked still counts the raw multisets covered, weighting
each representative by its orbit size.  _symmetry gives the action once
per n, as count-vector permutations; the pruning rules, the orbit sizes
and the Burnside counts all read it.  The representative is the
sequence that sorts lowest in its orbit.  The walk prunes as it goes
(canonical augmentation, McKay, J. Algorithms 26, 1998): once a prefix
has last value v, the counts of the values below v are final, and so is
the image of their first k counts under a unit, up to the first index
whose preimage reaches v.  A unit whose image of that part is larger
cuts the whole subtree; a unit whose image is smaller can never reject
or stabilize a sequence below and is dropped from the node's live
units; an equal one stays live.  A leaf compares only the live units'
full images, so it gets its orbit size from the walk.

The scans over Z_n (length n, and length 2n-1 for EGZ) walk the
non-decreasing sequences depth first and carry the subset sums of the
current prefix in one int, the layout of sums.cyclic_add_residue: bit
L*n + r is set when some L entries of the prefix sum to r mod n, so
block L (bits L*n .. L*n+n-1) is the set of sums of length L, and the
empty prefix is 1.  Appending the residue v rotates every block by v
(two shifts under per-residue masks built once per scan) and moves it
up one block.  Blocks past n are never written: the minimal zero-sum
length is the index of the lowest set bit among L*n, L = 1..n, and the
EGZ statement reads bit n*n.

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
from dataclasses import dataclass, field
from functools import cache
from itertools import groupby, islice
from math import comb, gcd
from operator import itemgetter

from . import sums
from .errors import BudgetExceededError, DomainError
from .groups import AbelianGroup, ZSequence, element_neg, groups_of_order, units

# The most leaves a scan may walk (about 100 s on one core at the Z_n
# walk's 9-11 us per leaf); the sum-set scan counts its multisets.
SCAN_LEAF_CAP = 10_000_000
DAVENPORT_TABLE_CAP = 16
VIOLATION_LIMIT = 100
WITNESS_LIMIT = 100
# Walks that reach fewer leaves than this run in the calling process
# whatever `shards` says.  Measured with dealt chunks on 2 CPUs (Python
# 3.11, fork start, a fresh interpreter per run, medians of 9-11, two
# workers against one with the threshold forced to 0): raw length-n
# n = 11 (20,330 leaves) loses 0.096 -> 0.105 s and n = 12 (48,940)
# gains 0.196 -> 0.167 s; raw EGZ n = 7 (27,132) loses 0.048 -> 0.090 s;
# orbit EGZ n = 7 (4,542) loses 0.028 -> 0.059 s and n = 8 (44,220)
# gains 0.199 -> 0.163 s; orbit length-n n = 12 (12,380) loses 0.073 ->
# 0.121 s, n = 13 (17,485) is a wash (0.191 -> 0.151 s in one set of
# runs, 0.146 -> 0.183 s in another) and n = 14 (85,230) gains 0.68 ->
# 0.43 s.
POOL_MIN_INSTANCES = 40_000
# A pooled walk is cut into this many equal rank ranges, which the pool
# deals to its workers as each frees up: the canonical leaves crowd the
# low ranks, so one equal range per worker left the upper one nearly
# idle.  Of 16, 32, 64 and 128, timed with two workers at orbit length-n
# n = 14..16 and orbit EGZ n = 9..10 (medians of 9 and of 11 fresh runs),
# 32 is the smallest within 10% of the best on every scan (at most 8%
# behind it); 16 falls 10-19% behind on some.
POOL_CHUNKS = 32


def _shown(x: int) -> str:
    # str() of an int past 4,300 digits raises ValueError
    return str(x) if x.bit_length() <= 64 else f"a {x.bit_length()}-bit int"


def _budget(budget: int | None) -> int:
    return SCAN_LEAF_CAP if budget is None else budget


def _require_budget(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise BudgetExceededError(f"{what}: {_shown(count)} exceeds budget {_shown(cap)}")


@dataclass
class VerificationReport:
    """Outcome of one exhaustive check.

    violations holds at most VIOLATION_LIMIT entries (sorted); the full
    count survives in violations_total.  details carries per-statement
    extras such as witnesses and slice counts.
    """

    statement_id: str
    parameters: dict
    instances_checked: int
    orbit_reduced: bool
    violations: list[dict]
    violations_total: int
    details: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "statement_id": self.statement_id,
            "parameters": self.parameters,
            "instances_checked": self.instances_checked,
            "orbit_reduced": self.orbit_reduced,
            "passed": self.passed,
            "violations": self.violations,
            "violations_total": self.violations_total,
            "details": self.details,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed), sort_keys=True)


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
def _symmetry(n: int, orbit: bool) -> tuple[tuple[int, ...], ...]:
    """The count-vector permutations a Z_n scan reduces by, the identity first.

    With orbit there is one per unit u: multiplying a multiset by u sends
    its count vector c to c' with c'[i] = c[p[i]], where p[i] = u^{-1} i
    mod n.  Without it the identity is alone.  Every permutation must fix
    0, since the k = 0 rule of _prefix_rules relies on it.
    """
    if not orbit:
        return (tuple(range(n)),)
    return tuple(tuple(pow(u, -1, n) * i % n for i in range(n)) for u in units(n))


def _prefix_rules(perms: tuple) -> tuple[list[itemgetter], list[list[tuple]], int]:
    """The pruning tables for _symmetry's perms: full image getters, per-value rules, group order.

    For the j-th permutation p after the identity, and a prefix whose
    last value is v, the counts c[0..v-1] are final.  With k the first
    index where p[k] >= v (k <= v, since only v indices have p[i] < v),
    the image counts c'[0..k-1] are final too.
    rules[v][j] is (image, ident, cut): getters for c'[0..k-1] and
    c[0..k-1] (index 0 alone when k = 0, which p fixes), and cut = k when
    p[k] == v and k < v, else v.  With equal prefixes the current c[v]
    is a lower bound on c'[cut], so c[v] > c[cut] rejects; cut = v makes
    that test a no-op.
    """
    n = len(perms[0])
    rules: list[list[tuple]] = [[] for _ in range(n)]
    for p in perms[1:]:
        for v in range(n):
            k = next(i for i in range(n) if p[i] >= v)
            cols = max(k, 1)
            cut = k if p[k] == v and k < v else v
            rules[v].append((itemgetter(*p[:cols]), itemgetter(*range(cols)), cut))
    return [itemgetter(*p) for p in perms[1:]], rules, len(perms)


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


def _unrank(n: int, length: int, rank: int) -> list[int]:
    """The non-decreasing length-`length` sequence over Z_n at `rank`.

    Ranks count the C(n+length-1, length) sequences in lexicographic
    order, by the combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3): C(n-v-1+rest, rest) sequences continue a prefix with the
    entry v when `rest` entries follow it.
    """
    if not 0 <= rank < comb(n + length - 1, length):
        raise ValueError(f"rank {rank} out of range for length {length} over Z_{n}")
    out = []
    v = 0
    for rest in range(length - 1, -1, -1):
        while rank >= (block := comb(n - v - 1 + rest, rest)):
            rank -= block
            v += 1
        out.append(v)
    return out


def _walk_packed(
    n: int, length: int, ranks: tuple[int, int], leaf, orbit: bool = False, pair_free: bool = False
) -> None:
    """Call leaf(packed, combo, counts, cover) on each non-decreasing sequence.

    Covers the length-`length` sequences over Z_n whose rank (see
    _unrank) is in [start, stop), in lexicographic order.  combo is the
    sequence, counts its count vector, and packed its subset sums in the
    layout of sums.cyclic_add_residue, cut to lengths 0..n.  All three
    are only valid during the call.

    With pair_free, only the sequences in which no two entries sum to 0
    are covered: the walk skips v when -v is already in the prefix
    (counts[-v] is counts[(n - v) % n]), which also skips a second n/2
    or 0, and cuts the subtree below.  That class is closed under units,
    so the orbit pruning below is unchanged.

    With orbit, only the canonical sequences (no unit image u*S sorts
    below S) reach leaf, and cover is the size of their orbit; without
    it, every sequence does, with cover 1.  Each node carries the units
    still live below it (see _prefix_rules): a unit whose image of the
    final part of the prefix is larger cuts the subtree, a smaller one
    can never reject or stabilize anything below and is dropped, and an
    equal one stays.  A leaf compares only the live units' full images.

    Only the nodes on the paths to the range's first and last sequence
    check bounds (`edge`); every subtree between those paths is complete
    and goes to `rec`, which checks none, so the bounds cost O(n*length)
    steps per range and nothing per leaf.
    """
    start, stop = ranks
    if start >= stop:
        return
    first = _unrank(n, length, start)
    final = _unrank(n, length, stop - 1)
    lo_mask, hi_mask = sums.cyclic_rotation_masks(n, n)
    full, rules, order = _prefix_rules(_symmetry(n, orbit))
    combo: list[int] = []
    counts = [0] * n
    last = length - 1

    def prune(v: int, live: list[int]) -> list[int] | None:
        # the live units below the prefix just extended by v, or None to cut
        rule = rules[v]
        cv = counts[v]
        if cv > 1:
            # v was already last: the final part of the prefix is unchanged
            # and equal under every live unit; only the grown c[v] can reject
            for j in live:
                if cv > counts[rule[j][2]]:
                    return None
            return live
        kept = []
        for j in live:
            image, ident, cut = rule[j]
            a = image(counts)
            b = ident(counts)
            if a > b:
                return None
            if a == b:
                if cv > counts[cut]:
                    return None
                kept.append(j)
        return kept

    def cover_of(live: list[int]) -> int:
        # orbit size of the finished counts, or 0 when a unit image sorts lower
        here = tuple(counts)
        stab = 1
        for j in live:
            image = full[j](counts)
            if image > here:
                return 0
            if image == here:
                stab += 1
        return order // stab

    def rec(lo_v: int, hi_v: int, depth: int, x: int, live: list[int]) -> None:
        # sums.cyclic_add_residue is inlined in both loops: a call per node
        # would add about 15% to the walk
        if depth == last:
            for v in range(lo_v, hi_v):
                if pair_free and counts[-v]:
                    continue
                combo.append(v)
                counts[v] += 1
                cover = cover_of(live) if live else order
                if cover:
                    leaf(x | ((((x << v) & lo_mask[v]) | ((x >> (n - v)) & hi_mask[v])) << n), combo, counts, cover)
                combo.pop()
                counts[v] -= 1
            return
        for v in range(lo_v, hi_v):
            if pair_free and counts[-v]:
                continue
            combo.append(v)
            counts[v] += 1
            below = prune(v, live) if live else live
            if below is not None:
                rec(v, n, depth + 1, x | ((((x << v) & lo_mask[v]) | ((x >> (n - v)) & hi_mask[v])) << n), below)
            combo.pop()
            counts[v] -= 1

    def edge(depth: int, x: int, left: bool, right: bool, live: list[int]) -> None:
        # combo equals first[:depth] when left, final[:depth] when right
        lo_v = first[depth] if left else combo[-1]
        hi_v = final[depth] if right else n - 1
        if depth == last:
            rec(lo_v, hi_v + 1, depth, x, live)
            return
        for v in range(lo_v, hi_v + 1):
            on_left = left and v == lo_v
            on_right = right and v == hi_v
            if not (on_left or on_right):
                rec(v, v + 1, depth, x, live)
                continue
            if pair_free and counts[-v]:
                continue
            combo.append(v)
            counts[v] += 1
            below = prune(v, live) if live else live
            if below is not None:
                edge(depth + 1, sums.cyclic_add_residue(x, v, n, lo_mask, hi_mask), on_left, on_right, below)
            combo.pop()
            counts[v] -= 1

    edge(0, 1, True, True, list(range(len(full))))


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


def _length_n_bundle(**fields) -> dict:
    """A result of the length-n scan: `fields`, and zero counts and empty tables elsewhere.

    Like every scan result it holds its violations as totals (law ->
    count) and rows, both written by _add_violation.
    """
    out = {"instances": 0, "canonical": 0, "slice_nm1": 0, "slice_nm2": 0, "full_instances": 0}
    out.update(full_witnesses=[], realized={}, first_tight={}, totals={}, rows=[])
    out.update(fields)
    return out


def _scan_length_n(args: tuple) -> dict:
    """Verify every length-n multiset over Z_n with rank in [start, stop).

    For each instance the minimal zero-sum length m and the support size
    are computed (packed cardinality-resolved subset sums), and all the
    length-n statements are evaluated at once.  args is (n, (start,
    stop), orbit, pair_free), the last two passed on to _walk_packed.
    """
    n, ranks, orbit, pair_free = args
    allowed_s = {0, 1, n - 2, n - 1}
    out = _length_n_bundle()

    def leaf(packed: int, combo: list[int], counts: list[int], cover: int) -> None:
        out["instances"] += cover
        out["canonical"] += 1
        supp = len(set(combo))
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
                out["slice_nm1"] += cover
                if supp != 2:
                    _add_violation(out, "min-length-n-minus-1-support", combo, supp, 2)
            elif m == n - 2:
                out["slice_nm2"] += cover
                if supp > 3:
                    _add_violation(out, "min-length-n-minus-2-support", combo, supp, 3)
        if m == n:
            out["full_instances"] += cover
            if len(out["full_witnesses"]) < WITNESS_LIMIT:
                out["full_witnesses"].append(list(combo))
            if supp != 1 or gcd(combo[0], n) != 1:
                _add_violation(out, "full-length-constant", combo, supp, 1)
        if m > n - supp + 1:
            _add_violation(out, "short-zero-sum-bound", combo, m, n - supp + 1)
        if supp == s + 1:
            # the support bound is tight here; structure laws apply
            out["realized"][s] = out["realized"].get(s, 0) + cover
            if s not in out["first_tight"]:
                out["first_tight"][s] = list(combo)
            if s not in allowed_s:
                _add_violation(out, "tight-support-range", combo, s, "{0,1,n-2,n-1}")
            if max(counts) < n - s:
                _add_violation(out, "tight-support-multiplicity", combo, max(counts), n - s)
            if s == 1 and n >= 4:
                a = counts.index(n - 1) if n - 1 in counts else -1
                ok = False
                if a >= 0:
                    b = next(v for v in combo if v != a) if supp == 2 else a
                    ok = b == (2 * a) % n and gcd(a, n) == 1
                if not ok:
                    _add_violation(
                        out, "tight-support-shape", combo, "other", "a^(n-1)+(2a), ord(a)=n"
                    )

    _walk_packed(n, n, ranks, leaf, orbit, pair_free)
    return out


@cache
def _multisets(n: int, length: int, kind: str, orbit: bool) -> int:
    """The length-`length` multisets over Z_n of one kind, or with orbit their orbits.

    kind is "all", "zero-free" (no 0) or "pair-free" (zero-free, and no
    two entries sum to 0); each kind is closed under units.  Burnside:
    the orbits number the mean over the permutations p of _symmetry of
    the multisets p fixes (raw mode has the identity alone, so every
    multiset is its own orbit).  A fixed multiset has one count per
    cycle C of p, so the fixed ones are the t^length coefficient of the
    product over the cycles of the counts' generating functions:
    1/(1 - t^|C|), except that C = {0} takes only 0 in a zero-free
    multiset.  In a pair-free one, a cycle with C = -C holds some a with
    n-a and stays unused, except {n/2}, which may be used once (1 + t);
    of a mirror pair C != -C at most one is used, so the one met first
    stands for both with (1 + t^|C|)/(1 - t^|C|).
    """
    perms = _symmetry(n, orbit)
    fixed = 0
    for p in perms:
        poly = [1] + [0] * length
        seen = set()
        for first in range(n):
            if first in seen:
                continue
            size = 0
            x = first
            while x not in seen:
                seen.add(x)
                x = p[x]
                size += 1
            # `first` is the least member of its cycle.  A prefix sum over
            # step `grow` divides by 1 - t^grow, a suffix sum over step
            # `once` multiplies by 1 + t^once
            grow = once = 0
            if kind == "all" or (first and kind == "zero-free"):
                grow = size
            elif kind == "pair-free" and first:
                if n - first not in seen:
                    grow = once = size
                elif 2 * first == n:
                    once = 1
            if once:
                for k in range(length, once - 1, -1):
                    poly[k] += poly[k - once]
            if grow:
                for k in range(grow, length + 1):
                    poly[k] += poly[k - grow]
        fixed += poly[length]
    return fixed // len(perms)


def _zero_block(n: int, orbit: bool) -> dict:
    """_scan_length_n over the ranks [0, C(2n-2, n-1)), in closed form.

    Those ranks are the multisets that contain 0, and each has m = 1.
    So s = n-1, every law holds, and the support bound is tight only on
    {0, 1, ..., n-1}, a single unit orbit.  Removing one 0 maps the
    block onto the length-(n-1) multisets, unit orbits included, which
    _multisets counts.
    """
    size = comb(2 * n - 2, n - 1)
    return _length_n_bundle(
        instances=size,
        canonical=_multisets(n, n - 1, "all", orbit),
        slice_nm2=size if n == 3 else 0,
        full_instances=1 if n == 1 else 0,
        full_witnesses=[[0]] if n == 1 else [],
        realized={n - 1: 1},
        first_tight={n - 1: list(range(n))},
    )


def _pair_block(n: int, orbit: bool) -> dict:
    """_scan_length_n over the zero-free multisets with an inverse pair, in closed form.

    For n >= 5.  A zero-free S that holds a and n-a, or n/2 twice, has
    m = 2, so s = n-2: no slice or full-length law applies, every law
    holds, and the support bound is tight only on {1, ..., n-1} plus one
    repeated entry, n-1 multisets, of which the first in rank order
    repeats 1.  The block is the zero-free multisets less the pair-free
    ones, both counted by _multisets.
    """
    return _length_n_bundle(
        instances=comb(2 * n - 2, n) - _multisets(n, n, "pair-free", False),
        canonical=_multisets(n, n, "zero-free", orbit) - _multisets(n, n, "pair-free", orbit),
        realized={n - 2: n - 1},
        first_tight={n - 2: [1, *range(1, n)]},
    )


def _merge_scans(bundles: list[dict]) -> dict:
    """Shard results of one Z_n scan, in shard order, as one result.

    Integers add up, and so do the per-key counts in realized and totals;
    violation rows concatenate and are cut by _keep_smallest, other lists
    concatenate up to WITNESS_LIMIT, and first_tight keeps the first
    shard's witness.
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
            # later shards are read first, so an earlier shard overwrites them
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


def _report(
    statement_id: str, parameters: dict, key: tuple, scan, details, orbit_reduced: bool = False
) -> VerificationReport:
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
        orbit_reduced=orbit_reduced,
        violations=rows[:VIOLATION_LIMIT],
        violations_total=sum(bundle["totals"].get(law, 0) for law in laws),
        details=details(bundle),
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _zn_family(family: str, n: int) -> tuple[int, str]:
    """(length, kind): the `family` scan over Z_n walks the length-`length` multisets of that kind.

    "length-n" walks the pair-free ones from n = 5 (the zero-free ones
    below) after _zero_block and _pair_block; "egz" walks every one of
    length 2n-1 after _sharpness_block.  See the module docstring.
    """
    if family == "egz":
        return 2 * n - 1, "all"
    return n, "pair-free" if n >= 5 else "zero-free"


def _zn_bundle(family: str, n: int, orbit: bool, shards: int) -> dict:
    """The merged result of one scan over Z_n (see _zn_family).

    The closed-form blocks go first, so first_tight keeps rank order.
    The merge must cover the raw space, and the walked leaves must equal
    their closed-form count.
    """
    length, kind = _zn_family(family, n)
    pair_free = kind == "pair-free"
    space = comb(n + length - 1, length)
    # a zero-free walk starts past the multisets that hold 0, the first ranks
    start = 0 if kind == "all" else comb(n + length - 2, length - 1)
    leaves = _multisets(n, length, kind, orbit)
    if family == "egz":
        head, worker = [_sharpness_block(n)], _scan_egz
    else:
        head = [_zero_block(n, orbit)] + ([_pair_block(n, orbit)] if pair_free else [])
        worker = _scan_length_n
    # a pooled walk is cut into POOL_CHUNKS equal rank ranges, any other is one
    cut = POOL_CHUNKS if shards > 1 and leaves >= POOL_MIN_INSTANCES else 1
    bounds = [start + (space - start) * i // cut for i in range(cut + 1)]
    chunks = [(n, (a, b), orbit, pair_free) for a, b in zip(bounds, bounds[1:]) if a < b]
    walked = _run_workers(worker, chunks, shards)
    merged = _merge_scans(head + walked)
    # orbit sizes must account for the raw space exactly
    if merged["instances"] != space:
        raise RuntimeError(f"enumeration covered {merged['instances']} of {space} multisets")
    reached = sum(part["canonical"] for part in walked)
    if reached != leaves:
        raise RuntimeError(f"walk reached {reached} of {leaves} canonical multisets")
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


def _zn_report(
    statement_id: str,
    family: str,
    n: int,
    details,
    orbit_reduced: bool,
    shards: int,
    budget: int | None,
) -> VerificationReport:
    """The report of one statement read off the `family` scan over Z_n.

    The budget bounds the walk's closed-form leaf count.  A lower bound
    refuses a large n before that count, whose cost grows with n: every
    multiset over 1..floor((n-1)/2) is pair-free (over Z_n for EGZ), and
    an orbit has at most n members.  details(bundle) gives the
    statement's own details; every report also carries
    canonical_instances.
    """
    _require_order(statement_id, n)
    if shards < 1:
        raise DomainError(f"{statement_id} needs shards >= 1, got {shards}")
    length, kind = _zn_family(family, n)
    cap = _budget(budget)
    what = f"{statement_id} at n = {n}, leaves walked"
    if _more_multisets_than(n if kind == "all" else (n - 1) // 2, length, cap * n):
        raise BudgetExceededError(f"{what}: over budget {_shown(cap)}")
    _require_budget(_multisets(n, length, kind, orbit_reduced), cap, what)
    return _report(
        statement_id,
        {"n": n} if family == "length-n" else {"n": n, "length": length},
        (family, n, orbit_reduced),
        lambda: _zn_bundle(family, n, orbit_reduced, shards),
        lambda bundle: {"canonical_instances": bundle["canonical"], **details(bundle)},
        orbit_reduced,
    )


# ---------------------------------------------------------------------------
# the four length-n checkers


def verify_thm_main(
    n: int,
    *,
    orbit_reduced: bool = True,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Support bound: length-n S over Z_n with finite minimal zero-sum
    length n-s has at most s+1 distinct entries.  The s=1 slice must hit
    exactly 2 distinct entries and the s=2 slice at most 3 (both n >= 3).
    """

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

    return _zn_report("support-bound", "length-n", n, details, orbit_reduced, shards, budget)


def verify_prop_all_equal(
    n: int,
    *,
    orbit_reduced: bool = True,
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

    return _zn_report("full-length-constant", "length-n", n, details, orbit_reduced, shards, budget)


def verify_extremal_structure(
    n: int,
    *,
    orbit_reduced: bool = True,
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

    return _zn_report("extremal-structure", "length-n", n, details, orbit_reduced, shards, budget)


def verify_corollary_short_zero_sum(
    n: int,
    *,
    orbit_reduced: bool = True,
    shards: int = 1,
    budget: int | None = None,
) -> VerificationReport:
    """Support forces short zero-sums: a length-n sequence over Z_n with
    s distinct entries has a zero-sum subsequence of length <= n-s+1."""
    return _zn_report(
        "short-zero-sum", "length-n", n, lambda bundle: {}, orbit_reduced, shards, budget
    )


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

    The scan always runs in process and checks every multiset, so the
    report is never orbit-reduced."""
    if k_max < 1:
        raise DomainError(f"sumset-growth needs k_max >= 1, got {k_max}")
    order = group.order
    _require_order("sumset-growth", order, "|G|")
    count = sum(comb(order - 2 + k, k) for k in range(1, k_max + 1))
    _require_budget(count, _budget(budget), f"sumset-growth over {group} to k_max {k_max}, multisets")
    return _report(
        "sumset-growth",
        {"group": str(group), "k_max": k_max},
        ("zero-sum-free", group.factors, k_max),
        lambda: _scan_zero_sum_free(group, k_max),
        lambda bundle: {"canonical_instances": bundle["instances"]},
    )


# ---------------------------------------------------------------------------
# exact-cardinality zero-sums in windows of length 2n-1


def _scan_egz(args: tuple) -> dict:
    """Check every length 2n-1 multiset over Z_n with rank in [start, stop)
    for n entries summing to zero (bit n*n of the packed sums).  args is
    (n, (start, stop), orbit, pair_free), as for _scan_length_n."""
    n, ranks, orbit, pair_free = args
    out = {"instances": 0, "canonical": 0, "totals": {}, "rows": []}
    target = n * n

    def leaf(packed: int, combo: list[int], counts: list[int], cover: int) -> None:
        out["instances"] += cover
        out["canonical"] += 1
        if not packed >> target & 1:
            _add_violation(out, "exact-n-zero-sum", combo, False, True)

    _walk_packed(n, 2 * n - 1, ranks, leaf, orbit, pair_free)
    return out


def _sharpness_block(n: int) -> dict:
    """The EGZ scan's sharpness check: n-1 zeros with n-1 ones have no n-term zero-sum."""
    out = {"instances": 0, "canonical": 0, "totals": {}, "rows": []}
    sharp = [0] * (n - 1) + [1] * (n - 1)
    if sums.has_zero_sum_of_size(ZSequence.from_iterable(AbelianGroup((n,)), sharp), n):
        _add_violation(out, "sharpness-witness", sharp, "has exact-n zero-sum", "none")
    return out


def verify_egz(
    n: int,
    *,
    orbit_reduced: bool = True,
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

    return _zn_report("egz", "egz", n, details, orbit_reduced, shards, budget)


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
    orbit_reduced: bool = True,
    shards: int = 1,
    budget: int | None = None,
) -> list[VerificationReport]:
    """The reports of one STATEMENTS entry over its orders up to n_max,
    or at the single order n.  `shards` and `orbit_reduced` apply to the
    scans over Z_n only, but every statement refuses shards < 1.  An
    n_max below the statement's floor leaves no order to check and
    raises DomainError."""
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
    return [check(m, orbit_reduced=orbit_reduced, shards=shards, budget=budget) for m in orders]


def verify_all(
    n_max: int,
    *,
    orbit_reduced: bool = True,
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
        for report in verify_statement(
            statement, n_max, orbit_reduced=orbit_reduced, shards=shards, budget=budget
        )
    ]
