"""Benchmark for zerosum: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 zsbench/run.py --workload battery-11 --seed 1 --seconds 45 --trace 0

--trace 0 runs fresh-process passes of the workload until --seconds have
passed and reports the end-to-end metrics: wall_s (median pass time),
setup_s (median time from starting a fresh interpreter until `import
zerosum` returns), peak_rss_mb (median over passes of the largest
resident set of the pass process and the processes it started) and
cli_p50_ms (median latency of each CLI command of the workload, averaged
over its commands).  failed_frac is printed too; it is carried by the
"failed" and "attempted" counts of the result line.

--trace 1 runs one untraced pass of the workload, then one traced pass
of every workload with its probes, and reports the per-layer metrics,
the tracing overhead and the self time of each module.  The spans are
written to zsbench/out/.

Every pass imports zerosum from src/ of this checkout with
ZEROSUM_BUDGET removed from the environment.  The last line of standard
output is the JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PASS_TIMEOUT_S = 170
SETUP_STARTS = 9

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("cli_p50_ms", "ms"))

# name, unit, better; every traced run reports all of them (or marks one
# absent with the reason)
PER_LAYER = (
    ("verify.length_n.scan_s.n11", "s", "lower"),
    ("verify.length_n.instances_per_s.n11", "1/s", "higher"),
    ("verify.length_n.cached_s.n11", "s", "lower"),
    ("verify.canonical_ratio.n11", "ratio", "lower"),
    ("verify.length_n.scan_s.n12", "s", "lower"),
    ("verify.length_n.instances_per_s.n12", "1/s", "higher"),
    ("verify.length_n.cached_s.n12", "s", "lower"),
    ("verify.canonical_ratio.n12", "ratio", "lower"),
    ("verify.orbit_speedup.n12", "x", "higher"),
    ("verify.shard_speedup.n12", "x", "higher"),
    ("verify.pool_overhead_s", "s", "lower"),
    ("verify.egz.scan_s.n8", "s", "lower"),
    ("verify.egz.instances_per_s.n8", "1/s", "higher"),
    ("verify.sumset_growth.scan_s.Z24", "s", "lower"),
    ("verify.sumset_growth.scan_s.Z2xZ12", "s", "lower"),
    ("verify.sumset_growth.instances_per_s", "1/s", "higher"),
    ("verify.davenport_table.s", "s", "lower"),
    ("sums.davenport.s.Z16", "s", "lower"),
    ("sums.davenport.s.Z2xZ8", "s", "lower"),
    ("sums.davenport.s.Z4xZ4", "s", "lower"),
    ("sums.davenport.s.Z2xZ2xZ4", "s", "lower"),
    ("sums.davenport.s.Z2xZ2xZ2xZ2", "s", "lower"),
    ("sums.mz.s.G10000-k100", "s", "lower"),
    ("sums.mz.s.G3600-k40", "s", "lower"),
    ("sums.sumset.s.G10000-k100", "s", "lower"),
    ("sums.mz.peak_mb.G10000-k100", "MB", "lower"),
    ("groups.element_add.us", "us", "lower"),
    ("quad.class_group.s.D50k-75k", "s", "lower"),
    ("quad.class_group.s.D75k-100k", "s", "lower"),
    ("quad.is_irreducible.s.N1e6-3e6", "s", "lower"),
    ("quad.is_irreducible.s.N3e6-5e6", "s", "lower"),
    ("quad.is_irreducible.s.N5e6-7e6", "s", "lower"),
    ("quad.is_irreducible.s.N7e6-9e6", "s", "lower"),
    ("quad.is_irreducible.reducible_s", "s", "lower"),
    ("quad.find_short_principal_product.s", "s", "lower"),
    ("cli.mz.ms", "ms", "lower"),
    ("cli.quad-demo51.ms", "ms", "lower"),
    ("cli.quad-class-group.ms", "ms", "lower"),
    ("cli.verify-all-8.ms", "ms", "lower"),
    ("self_s.verify", "s", "lower"),
    ("self_s.sums", "s", "lower"),
    ("self_s.groups", "s", "lower"),
    ("self_s.quad", "s", "lower"),
    ("self_s.cli", "s", "lower"),
    ("self_s.bench", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class PassFailed(RuntimeError):
    pass


def bench_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ZEROSUM_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(env: dict, workload: str, inp: dict, pass_id: str, traced: bool) -> dict:
    spec = {
        "workload": workload,
        "inputs": inp,
        "root": str(ROOT),
        "pass_id": pass_id,
        "traced": traced,
        "probes": traced,
    }
    # a process group of its own, so that a pass that overruns is stopped
    # together with its pool workers and CLI subprocesses (this process
    # starts no threads, so preexec_fn is safe here)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=os.setpgrp,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(spec), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass {pass_id} ran over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        raise PassFailed(f"pass {pass_id} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def setup_samples(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter until `import zerosum`
    returns, measured with CLOCK_MONOTONIC on both sides."""
    code = "import time, zerosum; print(time.monotonic())"
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)  # fill bytecode caches
    out = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        out.append(float(proc.stdout.strip()) - t0)
    return out


def workload_ops(result: dict) -> list[dict]:
    return [op for op in result["ops"] if op["section"] == "workload"]


def pass_wall(result: dict) -> float:
    return sum(op["s"] for op in workload_ops(result))


def cli_latencies(results: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for result in results:
        for op in workload_ops(result):
            if op["module"] == "cli":
                out.setdefault(op["command"], []).append(op["s"])
    return out


def count_ops(results: list[dict]) -> tuple[int, int]:
    ops = [op for result in results for op in result["ops"]]
    return len(ops), sum(1 for op in ops if not op["ok"])


def failures(results: list[dict]) -> list[str]:
    return [f"{op['label']}: {'; '.join(op['problems'])}" for r in results for op in r["ops"] if not op["ok"]]


def timed_run(env: dict, workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[dict]]:
    inp = inputs.make_inputs(workload, seed)
    setup = setup_samples(env)
    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start < seconds:
        results.append(run_pass(env, workload, inp, f"{workload}/seed{seed}/pass{len(results)}", traced=False))
    cli = cli_latencies(results)
    values = {
        "wall_s": statistics.median(pass_wall(r) for r in results),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "cli_p50_ms": 1000 * statistics.fmean(statistics.median(v) for v in cli.values()),
    }
    samples = {
        "wall_s": len(results),
        "setup_s": len(setup),
        "peak_rss_mb": len(results),
        "cli_p50_ms": sum(len(v) for v in cli.values()),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, samples, results


def _find(result: dict, label: str, section: str | None = None) -> dict | None:
    for op in result["ops"]:
        if op["label"] == label and (section is None or op["section"] == section):
            return op
    return None


class Layers:
    """Per-layer values with their sample counts, and absence reasons."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.absent: dict[str, str] = {}

    def __setitem__(self, name: str, value: float) -> None:
        self.values[name] = value
        self.samples[name] = 1

    def median(self, name: str, times: list[float], scale: float = 1.0) -> None:
        self.values[name] = scale * statistics.median(times)
        self.samples[name] = len(times)


def _battery_layers(values: Layers, battery: dict) -> None:
    scan = _find(battery, "verify_thm_main(11)", "probe")
    values["verify.length_n.scan_s.n11"] = scan["s"]
    values["verify.length_n.instances_per_s.n11"] = scan["instances"] / scan["s"]
    values["verify.length_n.cached_s.n11"] = sum(
        op["s"] for op in battery["ops"] if op["section"] == "probe" and op.get("role") == "cached"
    )
    _canonical_ratio(values, 11, scan)


def _length_n_layers(values: Layers, length_n: dict) -> None:
    serial = _find(length_n, "verify_thm_main(12)", "probe")
    sharded = _find(length_n, "verify_thm_main(12,shards=2)", "workload")
    values["verify.length_n.scan_s.n12"] = serial["s"]
    values["verify.length_n.instances_per_s.n12"] = serial["instances"] / serial["s"]
    values["verify.length_n.cached_s.n12"] = sum(op["s"] for op in workload_ops(length_n) if op.get("role") == "cached")
    values["verify.shard_speedup.n12"] = serial["s"] / sharded["s"]
    raw = _find(length_n, "verify_thm_main(12,orbit_reduced=False)", "probe")
    if raw is not None:
        values["verify.orbit_speedup.n12"] = raw["s"] / serial["s"]
    _canonical_ratio(values, 12, serial)


def _canonical_ratio(values: Layers, n: int, op: dict) -> None:
    if op.get("canonical") is None:
        values.absent[f"verify.canonical_ratio.n{n}"] = "reports carry no details.canonical_instances"
    else:
        values[f"verify.canonical_ratio.n{n}"] = op["canonical"] / op["instances"]


def _scans_layers(values: Layers, scans: dict) -> None:
    egz = _find(scans, "verify_egz(8)")
    values["verify.egz.scan_s.n8"] = egz["s"]
    values["verify.egz.instances_per_s.n8"] = egz["instances"] / egz["s"]
    sumsets = [op for op in scans["ops"] if "group" in op and op["module"] == "verify"]
    for op in sumsets:
        values[f"verify.sumset_growth.scan_s.{op['group']}"] = op["s"]
    values["verify.sumset_growth.instances_per_s"] = sum(op["instances"] for op in sumsets) / sum(
        op["s"] for op in sumsets
    )
    values["verify.davenport_table.s"] = _find(scans, "verify_davenport_table(16)")["s"]
    by_group: dict[str, list[float]] = {}
    for op in scans["ops"]:
        if op["module"] == "sums" and "group" in op:
            by_group.setdefault(op["group"], []).append(op["s"])
    for group, times in by_group.items():
        values.median(f"sums.davenport.s.{group}", times)


def _quad_layers(values: Layers, quad: dict) -> None:
    quad_ops = workload_ops(quad)
    bands: dict[str, list[float]] = {}
    for op in quad_ops:
        if op["label"].startswith("class_group("):
            bands.setdefault(op["band"], []).append(op["s"])
        elif op["label"].startswith("is_irreducible(") and op["irreducible"]:
            values[f"quad.is_irreducible.s.{op['band']}"] = op["s"]
    for band, times in bands.items():
        values.median(f"quad.class_group.s.{band}", times)
    values["quad.is_irreducible.reducible_s"] = sum(
        op["s"] for op in quad_ops if op["label"].startswith("is_irreducible(") and not op["irreducible"]
    )
    values.median(
        "quad.find_short_principal_product.s",
        [op["s"] for op in quad_ops if op["label"].startswith("find_short_principal_product(")],
    )
    for op in quad_ops:
        if op["module"] == "sums":
            values[f"sums.{op['label'].split('(')[0]}.s.{op['tag']}"] = op["s"]
    for op in quad["ops"]:
        if "peak_mb" in op:
            values[f"sums.mz.peak_mb.{op['tag']}"] = op["peak_mb"]
    for command, times in cli_latencies([quad]).items():
        values.median(f"cli.{command}.ms", times, 1000)
    values.median(
        "groups.element_add.us", [op["s"] / op["calls"] for op in quad["ops"] if op["module"] == "groups"], 1e6
    )
    pool = {shards: [op["s"] for op in quad["ops"] if op.get("shards") == shards] for shards in (1, 2)}
    values["verify.pool_overhead_s"] = statistics.median(pool[2]) - statistics.median(pool[1])
    values.samples["verify.pool_overhead_s"] = len(pool[1]) + len(pool[2])


LAYER_FNS = {
    "battery-11": _battery_layers,
    "length-n-12-sharded": _length_n_layers,
    "scans-wide": _scans_layers,
    "quad-cli": _quad_layers,
}


def per_layer_values(traced: dict[str, dict], untraced: dict, workload: str) -> Layers:
    """Per-layer metrics from one traced pass of every workload.  A call
    that failed leaves its metrics unset; they are reported absent."""
    values = Layers()
    for name, fn in LAYER_FNS.items():
        values.absent.update(traced[name]["absent"])
        try:
            fn(values, traced[name])
        except (KeyError, TypeError, ZeroDivisionError, statistics.StatisticsError) as exc:
            print(f"  per-layer metrics of {name} incomplete: {type(exc).__name__}: {exc}")

    spans = [s for result in traced.values() for s in result["spans"]]
    own = self_times(spans)
    modules: dict[str, float] = {}
    for s in spans:
        modules[s["module"]] = modules.get(s["module"], 0.0) + own[s["id"]]
    for module, seconds in modules.items():
        values[f"self_s.{module}"] = seconds
    values["trace.overhead_s"] = pass_wall(traced[workload]) - pass_wall(untraced)
    values["trace.spans"] = len(spans)
    return values


def traced_run(env: dict, workload: str, seed: int) -> tuple[dict, dict, list[dict]]:
    untraced = run_pass(env, workload, inputs.make_inputs(workload, seed), f"{workload}/seed{seed}/untraced", False)
    traced = {}
    for name in inputs.WORKLOADS:
        traced[name] = run_pass(env, name, inputs.make_inputs(name, seed), f"{name}/seed{seed}/traced", True)
    layers = per_layer_values(traced, untraced, workload)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"untraced": untraced, "traced": traced}, indent=None) + "\n"
    )
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in layers.values:
            metrics[name] = {"value": layers.values[name], "unit": unit}
        else:
            reason = layers.absent.get(name, "not measured: a traced call failed or is missing")
            metrics[name] = {"value": None, "unit": unit, "absent": reason}
    samples = {name: layers.samples.get(name, 0) for name in metrics}
    return metrics, samples, [untraced, *traced.values()]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": inputs.HOLDOUT_SEED,
        "seed_changes_inputs": inputs.SEEDED[args.workload],
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "samples": samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zerosum" / "__init__.py").is_file():
        print(f"error: no zerosum package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = bench_env()
    try:
        if args.trace:
            metrics, samples, results = traced_run(env, args.workload, args.seed)
        else:
            metrics, samples, results = timed_run(env, args.workload, args.seed, args.seconds)
    except (PassFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = count_ops(results)
    mode = "traced" if args.trace else "untraced"
    print(f"zsbench {args.workload} seed={args.seed} {mode}: {len(results)} passes, {attempted} operations")
    if not inputs.SEEDED[args.workload]:
        print("  exhaustive scans: the seed changes nothing in this workload")
    for name, metric in metrics.items():
        if metric["value"] is None:
            print(f"  {name:40s} absent: {metric['absent']}")
        else:
            print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}  (samples: {samples[name]})")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    for line in failures(results)[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"provenance": provenance(args, samples)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
