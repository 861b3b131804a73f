"""Record ``baseline.json``: why each workload exists, how its seed is used,
the machine it was measured on, and the layer shares of its traced run.

Run from the root of a checkout:  python3 perfbench/record_baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run
from spans import TIME_LAYERS

HERE = Path(__file__).resolve().parent
SEED_ARGUMENT = {
    "paper-experiments": "--seed N runs E1-E10 with experiment seed seed_table[N mod 12] of reference.json",
    "sweep-local": "--seed N derives the grid's 8 study seeds from numpy SeedSequence(N)",
    "sweep-served": "--seed N derives the first study seed of every request set from numpy SeedSequence(N)",
}


def fingerprint(root: Path) -> dict:
    probe = (
        "import json, sys, numpy, importlib.util; "
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'numba': 'present' if importlib.util.find_spec('numba') else 'absent', "
        "'psutil': 'present' if importlib.util.find_spec('psutil') else 'absent'}))"
    )
    found = json.loads(
        subprocess.run(
            [sys.executable, "-c", probe],
            env=run.child_env(root),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    return {"nproc": os.cpu_count(), "machine": platform.machine(), **found}


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = {"machine": fingerprint(root), "workloads": {}}
    self_times = {metric for metric, _span in TIME_LAYERS}
    for entry in spec["workloads"]:
        name = entry["name"]
        result = run.run_workload(root, name, 1, 1.0, 1)
        metrics = {key: value["value"] for key, value in result["metrics"].items()}
        wall = metrics["trace.wall_s"]
        shares = {
            key: round(value / wall, 4)
            for key, value in sorted(metrics.items(), key=lambda item: -item[1])
            if key in self_times and value > 0
        }
        out["workloads"][name] = {
            "why": entry["why"],
            "seed_argument": SEED_ARGUMENT[name],
            "traced_seed": 1,
            "correct": result["correct"],
            "trace_wall_s": round(wall, 4),
            "tracing_overhead_ratio": round(metrics["trace.overhead_ratio"], 3),
            "layer_shares": shares,
            "per_layer": metrics,
        }
        print(f"{name}: {len(shares)} layers with time", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
