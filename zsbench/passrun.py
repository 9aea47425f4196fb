"""One pass of a workload, run in a fresh interpreter.

Usage: python3 zsbench/passrun.py < spec.json

The spec is {"workload", "inputs", "root", "pass_id", "traced",
"probes"}.  The pass imports zerosum from <root>/src, clears its caches,
runs the workload's calls (each timed with perf_counter, and wrapped in
a span when traced), checks every output outside the timed region, and
prints one JSON line: the per-call records, peak resident set, spans,
and the metrics it could not measure with the reason.

Probes are extra calls made only in traced passes, for per-layer
metrics such as the orbit and shard speed-ups; they are not part of the
workload's wall time.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from math import comb, prod
from pathlib import Path

import reference
from tracing import Tracer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
LENGTH_N_STATEMENTS = ("support-bound", "full-length-constant", "extremal-structure", "short-zero-sum")
PROJECTION = ("statement_id", "parameters", "instances_checked", "violations_total", "passed")
CLI_TIMEOUT_S = 120


def _projection(report) -> dict:
    if isinstance(report, dict):
        return {key: report[key] for key in PROJECTION}
    return {key: getattr(report, key) for key in PROJECTION}


def _raw_count_problems(row: dict) -> list[str]:
    n = row["parameters"].get("n")
    if row["statement_id"] in LENGTH_N_STATEMENTS:
        expected = comb(2 * n - 1, n)
    elif row["statement_id"] == "egz":
        expected = comb(3 * n - 2, n - 1)
    else:
        return []
    if row["instances_checked"] != expected:
        return [f"{row['statement_id']} n={n} covered {row['instances_checked']} of {expected}"]
    return []


class Pass:
    """Times calls into zerosum, checks their outputs, records spans."""

    def __init__(self, spec: dict, golden: dict, recording: bool = False):
        self.tracer = Tracer(spec["pass_id"]) if spec.get("traced") else None
        self.golden = golden
        self.recording = recording
        self.section = "workload"
        self.ops: list[dict] = []
        self.absent: dict[str, str] = {}

    def span(self, name: str, module: str):
        return self.tracer.span(name, module) if self.tracer else nullcontext()

    @contextmanager
    def probes(self):
        self.section = "probe"
        with self.span("probes", "bench"):
            yield
        self.section = "workload"

    def _record(self, label: str, module: str, seconds: float, problems: list[str], info: dict) -> None:
        self.ops.append(
            {
                "label": label,
                "module": module,
                "section": self.section,
                "s": seconds,
                "ok": not problems,
                "problems": problems[:3],
                **info,
            }
        )

    def call(self, module: str, label: str, fn, *args, check=None, info=None, **kwargs):
        """Time fn(*args, **kwargs); check and describe its result untimed."""
        error = None
        with self.span(label, module):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a failed call is counted, the pass goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if error:
            self._record(label, module, seconds, [error], {})
            return None
        problems = self._checked(check, result) if check else []
        self._record(label, module, seconds, problems, info(result) if info and not problems else {})
        return result

    @staticmethod
    def _checked(check, *args) -> list[str]:
        """Problems found by check(*args); a check that cannot read the
        output (a renamed field, malformed JSON) is a failed check."""
        try:
            return check(*args)
        except Exception as exc:  # the pass goes on and counts the failure
            return [f"check raised {type(exc).__name__}: {exc}"]

    def cli(self, label: str, argv: list[str], check) -> None:
        """Run `python3 -m zerosum.cli argv` as a subprocess and wait for it."""
        cmd = [sys.executable, "-m", "zerosum.cli", *argv]
        with self.span(f"cli {label}", "cli"):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                error = None
            except subprocess.TimeoutExpired:
                proc, error = None, f"timed out after {CLI_TIMEOUT_S} s"
            seconds = time.perf_counter() - t0
        if error:
            problems = [error]
        elif proc.returncode != 0:
            problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        else:
            problems = self._checked(check, " ".join(argv), proc.stdout)
        self._record(label, "cli", seconds, problems, {"command": label})

    def expect(self, key: str, value) -> list[str]:
        """Compare with the golden value recorded at the seed commit."""
        value = json.loads(json.dumps(value))
        if self.recording:
            self.golden[key] = value
            return []
        if key not in self.golden:
            return [f"no golden value for {key}"]
        return [] if self.golden[key] == value else [f"{key} differs from golden"]

    # -- checks -------------------------------------------------------------

    def check_reports(self, key: str):
        def check(reports) -> list[str]:
            if not isinstance(reports, list):
                reports = [reports]
            rows = [_projection(r) for r in reports]
            problems = [f"{r['statement_id']} {r['parameters']} did not pass" for r in rows if not r["passed"]]
            for row in rows:
                problems += _raw_count_problems(row)
            return problems + self.expect(key, rows)

        return check

    def check_cli_output(self, command: str, stdout: str) -> list[str]:
        key = f"cli: {command}"
        if "--json" in command.split() and command.startswith("verify"):
            doc = json.loads(stdout)
            rows = [_projection(r) for r in doc["reports"]]
            problems = [] if doc["passed"] else ["document does not pass"]
            for row in rows:
                problems += _raw_count_problems(row)
            return problems + self.expect(key, rows)
        return self.expect(key, hashlib.sha256(stdout.encode()).hexdigest())

    def cli_part(self, commands: list, rounds: int) -> None:
        for _ in range(rounds):
            for label, argv in commands:
                self.cli(label, argv, self.check_cli_output)

    def peak_rss_mb(self) -> float:
        """Largest resident set of this process and of every child it waited
        for (pool workers, CLI subprocesses)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, children) / 1024.0


def _report_info(report) -> dict:
    details = getattr(report, "details", None)
    canonical = details.get("canonical_instances") if isinstance(details, dict) else None
    return {"instances": report.instances_checked, "canonical": canonical}


def _clear_caches(verify) -> None:
    clear = getattr(verify, "clear_caches", None)
    if clear is not None:
        clear()


def _length_n_checkers(verify) -> list:
    return [
        verify.verify_thm_main,
        verify.verify_prop_all_equal,
        verify.verify_extremal_structure,
        verify.verify_corollary_short_zero_sum,
    ]


# -- workloads ---------------------------------------------------------------


def battery_11(p: Pass, inputs: dict) -> None:
    from zerosum import verify

    p.call("verify", "verify_all(11)", verify.verify_all, 11, check=p.check_reports("verify_all(11)"))
    p.cli_part(*inputs["cli"])


def battery_11_probes(p: Pass, inputs: dict) -> None:
    from zerosum import verify

    # the first checker runs the n=11 scan; the other three reuse it
    _clear_caches(verify)
    for i, fn in enumerate(_length_n_checkers(verify)):
        label = f"{fn.__name__}(11)"
        p.call(
            "verify",
            label,
            fn,
            11,
            check=p.check_reports(label),
            info=lambda r, i=i: {**_report_info(r), "role": "scan" if i == 0 else "cached"},
        )


def length_n_12_sharded(p: Pass, inputs: dict) -> None:
    from zerosum import verify

    for i, fn in enumerate(_length_n_checkers(verify)):
        p.call(
            "verify",
            f"{fn.__name__}(12,shards=2)",
            fn,
            12,
            shards=2,
            check=p.check_reports(f"{fn.__name__}(12)"),
            info=lambda r, i=i: {**_report_info(r), "role": "scan" if i == 0 else "cached"},
        )
    p.cli_part(*inputs["cli"])


def length_n_12_probes(p: Pass, inputs: dict) -> None:
    from zerosum import verify

    _clear_caches(verify)
    p.call(
        "verify",
        "verify_thm_main(12)",
        verify.verify_thm_main,
        12,
        check=p.check_reports("verify_thm_main(12)"),
        info=_report_info,
    )
    if "orbit_reduced" in inspect.signature(verify.verify_thm_main).parameters:
        _clear_caches(verify)
        p.call(
            "verify",
            "verify_thm_main(12,orbit_reduced=False)",
            verify.verify_thm_main,
            12,
            orbit_reduced=False,
            check=p.check_reports("verify_thm_main(12)"),
            info=_report_info,
        )
    else:
        p.absent["verify.orbit_speedup.n12"] = "verify_thm_main has no orbit_reduced keyword"


DAVENPORT_GROUPS = ((16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2))
DAVENPORT_REPS = 5


def scans_wide(p: Pass, inputs: dict) -> None:
    from zerosum import AbelianGroup, verify

    p.call("verify", "verify_egz(8)", verify.verify_egz, 8, check=p.check_reports("verify_egz(8)"), info=_report_info)
    for factors, k_max in (((24,), 6), ((2, 12), 8)):
        group = AbelianGroup(factors)
        label = f"verify_sumset_lemmas({group},{k_max})"
        p.call(
            "verify",
            label,
            verify.verify_sumset_lemmas,
            group,
            k_max,
            check=p.check_reports(label),
            info=lambda r, g=str(group): {**_report_info(r), "group": g},
        )
    p.call(
        "verify",
        "verify_davenport_table(16)",
        verify.verify_davenport_table,
        16,
        check=p.check_reports("verify_davenport_table(16)"),
    )
    p.cli_part(*inputs["cli"])


def scans_wide_probes(p: Pass, inputs: dict) -> None:
    from zerosum import AbelianGroup, sums

    for factors in DAVENPORT_GROUPS:
        group = AbelianGroup(factors)
        # D(G) = 1 + sum(n_i - 1) for p-groups (Olson 1969)
        expected = 1 + sum(n - 1 for n in factors)

        def check(r, expected=expected) -> list[str]:
            if r.value != expected or len(r.witness) != expected - 1:
                return [f"davenport {r.value}, witness length {len(r.witness)}; expected {expected}"]
            return []

        for _ in range(DAVENPORT_REPS):
            p.call("sums", f"davenport({group})", sums.davenport, group, check=check, info=lambda r, g=str(group): {"group": g})


def _mz_check(spec: dict):
    factors = spec["factors"]
    expected = spec["lengths"][0]
    entries = Counter(tuple(e) for e in spec["entries"])

    def check(r) -> list[str]:
        if expected == 0:
            return [] if r.witness is None and r.value == float("inf") else [f"mz {r.value}; expected infinity"]
        if r.value != expected:
            return [f"mz {r.value}; expected {expected}"]
        witness = list(r.witness)
        problems = []
        if Counter(witness) - entries:
            problems.append("witness is not a sub-multiset of the input")
        if any(sum(g[i] for g in witness) % n for i, n in enumerate(factors)):
            problems.append("witness does not sum to zero")
        if len(witness) != r.value:
            problems.append(f"witness length {len(witness)} != mz {r.value}")
        return problems

    return check


def _sumset_check(spec: dict):
    grid = reference.Grid(tuple(spec["factors"]))
    expected = {v: k for v, k in enumerate(spec["lengths"]) if k}

    def check(r) -> list[str]:
        got = {grid.index(g): k for g, k in r.lengths}
        return [] if got == expected else [f"sumset has {len(got)} values; expected {len(expected)}"]

    return check


def _class_group_check(h: int):
    def check(cg) -> list[str]:
        if cg.order_h != h or len(cg.element_reps) != h or prod(cg.structure) != h:
            return [f"h = {cg.order_h} with {len(cg.element_reps)} forms, structure {cg.structure}; analytic h = {h}"]
        return []

    return check


def _short_product_check(item: dict):
    d = item["d"]
    primes = [int(part.split(",")[0]) for part in item["ideals"].split(";")]

    def check(r) -> list[str]:
        problems = []
        if reference.quad_norm(d, tuple(r.generator)) != r.product.norm:
            problems.append("generator norm differs from product norm")
        if len(r.indices) > r.bound:
            problems.append(f"subset of {len(r.indices)} exceeds bound {r.bound}")
        if prod(primes[i] for i in r.indices) != r.product.norm:
            problems.append("product norm is not the product of the chosen ideal norms")
        if len(r.classes) != item["h"]:
            problems.append(f"{len(r.classes)} classes for h = {item['h']}")
        return problems

    return check


ELEMENT_ADD_LOOPS = 10
ELEMENT_ADD_REPS = 5
POOL_REPS = 3


def _sequences(inputs: dict) -> dict:
    from zerosum import AbelianGroup, ZSequence

    out = {}
    for key in ("mz_cyclic", "mz_rank2"):
        spec = inputs[key]
        group = AbelianGroup(tuple(spec["factors"]))
        out[key] = ZSequence.from_iterable(group, [tuple(e) for e in spec["entries"]])
    return out


def _tag(spec: dict) -> str:
    return f"G{prod(spec['factors'])}-k{len(spec['entries'])}"


def quad_cli(p: Pass, inputs: dict) -> None:
    from zerosum import quad, sums

    for item in inputs["class_groups"]:
        d = item["d"]
        p.call(
            "quad",
            f"class_group(d={d})",
            lambda d=d: quad.class_group(quad.QuadOrder(d)),
            check=_class_group_check(item["h"]),
            info=lambda r, band=item["band"]: {"band": band},
        )
    field = quad.QuadOrder(inputs["irreducible_d"])
    for item in inputs["irreducible"]:
        alpha = tuple(item["alpha"])
        p.call(
            "quad",
            f"is_irreducible({alpha[0]},{alpha[1]})",
            quad.is_irreducible,
            field,
            alpha,
            check=lambda r, want=item["expected"]: [] if r is want else [f"is_irreducible {r}; expected {want}"],
            info=lambda r, item=item: {"band": item["band"], "irreducible": item["expected"]},
        )
    for item in inputs["short_products"]:
        order = quad.QuadOrder(item["d"])
        ideals = quad.parse_ideal_list(order, item["ideals"])
        p.call(
            "quad",
            f"find_short_principal_product(d={item['d']},h={item['h']})",
            quad.find_short_principal_product,
            order,
            ideals,
            check=_short_product_check(item),
        )
    sequences = _sequences(inputs)
    cyclic, rank2 = inputs["mz_cyclic"], inputs["mz_rank2"]
    tag_cyclic, tag_rank2 = _tag(cyclic), _tag(rank2)
    p.call("sums", f"mz({tag_cyclic})", sums.mz, sequences["mz_cyclic"], check=_mz_check(cyclic), info=lambda r: {"tag": tag_cyclic})
    p.call("sums", f"sumset({tag_cyclic})", sums.sumset, sequences["mz_cyclic"], check=_sumset_check(cyclic), info=lambda r: {"tag": tag_cyclic})
    p.call("sums", f"mz({tag_rank2})", sums.mz, sequences["mz_rank2"], check=_mz_check(rank2), info=lambda r: {"tag": tag_rank2})
    p.cli_part(*inputs["cli"])


def quad_cli_probes(p: Pass, inputs: dict) -> None:
    from zerosum import AbelianGroup, element_add, sums, verify

    group = AbelianGroup((60, 60))
    pairs = [(tuple(a), tuple(b)) for a, b in inputs["element_add_pairs"]] * ELEMENT_ADD_LOOPS
    expected = [((a[0] + b[0]) % 60, (a[1] + b[1]) % 60) for a, b in pairs]
    for _ in range(ELEMENT_ADD_REPS):
        p.call(
            "groups",
            "element_add(Z60xZ60)",
            lambda: [element_add(group, a, b) for a, b in pairs],
            check=lambda r: [] if r == expected else ["element_add sums differ"],
            info=lambda r: {"calls": len(pairs)},
        )

    def mz_peak(seq):
        tracemalloc.start()
        try:
            result = sums.mz(seq)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cyclic = inputs["mz_cyclic"]
    mz_ok = _mz_check(cyclic)
    p.call(
        "sums",
        f"mz({_tag(cyclic)}) under tracemalloc",
        mz_peak,
        _sequences(inputs)["mz_cyclic"],
        check=lambda r: mz_ok(r[0]),
        info=lambda r: {"tag": _tag(cyclic), "peak_mb": r[1] / 2**20},
    )
    # pool start-up: the same small battery with two shards and with one
    for _ in range(POOL_REPS):
        for shards in (1, 2):
            _clear_caches(verify)
            p.call(
                "verify",
                f"verify_all(8,shards={shards})",
                verify.verify_all,
                8,
                shards=shards,
                check=p.check_reports("verify_all(8)"),
                info=lambda r, shards=shards: {"shards": shards},
            )


# workload -> (the timed calls, the extra calls of a traced pass)
WORKLOAD_FNS = {
    "battery-11": (battery_11, battery_11_probes),
    "length-n-12-sharded": (length_n_12_sharded, length_n_12_probes),
    "scans-wide": (scans_wide, scans_wide_probes),
    "quad-cli": (quad_cli, quad_cli_probes),
}


def run_pass(spec: dict, golden: dict, recording: bool = False) -> dict:
    import zerosum
    from zerosum import verify

    src = Path(spec["root"]).resolve() / "src"
    if Path(zerosum.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"zerosum imported from {zerosum.__file__}, not from {src}")
    if "ZEROSUM_BUDGET" in os.environ:
        raise RuntimeError("ZEROSUM_BUDGET must not be set for a benchmark pass")
    _clear_caches(verify)
    p = Pass(spec, golden, recording)
    workload, probes = WORKLOAD_FNS[spec["workload"]]
    with p.span(f"pass {spec['workload']}", "bench"):
        workload(p, spec["inputs"])
        peak = p.peak_rss_mb()
        if spec.get("probes"):
            with p.probes():
                probes(p, spec["inputs"])
    return {
        "workload": spec["workload"],
        "pass_id": spec["pass_id"],
        "ops": p.ops,
        "peak_rss_mb": peak,
        "absent": p.absent,
        "spans": p.tracer.spans if p.tracer else [],
    }


def main() -> int:
    spec = json.load(sys.stdin)
    golden = json.loads(GOLDEN_PATH.read_text())
    print(json.dumps(run_pass(spec, golden)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
