"""Record golden.json: the expected outputs of the benchmark's checks.

Usage: python3 zsbench/record_golden.py

Run this only at a commit whose outputs are known to be right (the
golden file in the repository was recorded at the commit that added the
benchmark).  It runs every workload once, probes included, in this
process, and stores each verify report projection and each CLI output
instead of comparing them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import passrun  # noqa: E402


def main() -> int:
    os.environ.pop("ZEROSUM_BUDGET", None)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    golden: dict = {}
    for workload in inputs.WORKLOADS:
        spec = {
            "workload": workload,
            "inputs": inputs.make_inputs(workload, 0),
            "root": str(ROOT),
            "pass_id": f"record-{workload}",
            "probes": True,
        }
        result = passrun.run_pass(spec, golden, recording=True)
        failed = [op for op in result["ops"] if not op["ok"]]
        if failed:
            print(json.dumps(failed, indent=1), file=sys.stderr)
            return 1
    p = passrun.Pass({"pass_id": "record-cli"}, golden, recording=True)
    for d in inputs.CLI_CLASS_GROUP_DS:
        p.cli("quad-class-group", ["quad-class-group", "-d", str(d)], p.check_cli_output)
    if not all(op["ok"] for op in p.ops):
        return 1
    passrun.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden entries to {passrun.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
