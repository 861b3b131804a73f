"""Record the reference outputs the paper-experiments workload checks against.

Runs E1-E10 with ``backend="reference"`` (the serial per-node kernel, the
repo's oracle) for every experiment seed of the seed table and stores, per
experiment, the digest of its findings and tables with timing columns
removed, plus the pass's Σ trials × simulated slots and the paper verdicts
(recorded, not gated on).  It also runs the default ``auto`` backend on
every seed and exits 1 unless its digests and slot counts are identical.

Run from the repo root:  PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.experiments import ExperimentConfig, run_experiment
from repro.sim.runner import TrialRunner

from workloads import TINY_EXPERIMENTS, experiment_digest

HERE = Path(__file__).resolve().parent
#: ``--seed N`` of the workload runs seed ``SEED_TABLE[N mod 12]``, so the
#: table must keep its length and order.
SEED_TABLE = [20210219 + k for k in range(12)]
MODES = {
    "full": {"experiments": [f"E{i}" for i in range(1, 11)], "scale": "smoke", "trials": 5},
    "tiny": {"experiments": list(TINY_EXPERIMENTS), "scale": "smoke", "trials": 2},
}

_slots = [0]
_backends: dict = {}
_original_run = TrialRunner.run


def _counting_run(self, trials, seed=None):
    study = _original_run(self, trials, seed)
    for result in study.results:
        _slots[0] += int(result.horizon)
        _backends[result.backend] = _backends.get(result.backend, 0) + 1
    return study


def run_suite(mode, seed: int, backend: str):
    _slots[0] = 0
    _backends.clear()
    config = ExperimentConfig(
        scale=mode["scale"], trials=mode["trials"], seed=seed, backend=backend
    )
    digests, verdicts = {}, {}
    for experiment_id in mode["experiments"]:
        result = run_experiment(experiment_id, config)
        digests[experiment_id] = experiment_digest(result)
        verdicts[experiment_id] = result.consistent_with_paper
    return digests, verdicts, _slots[0], dict(_backends)


def main() -> int:
    TrialRunner.run = _counting_run
    out = {"seed_table": SEED_TABLE}
    ok = True
    for name, mode in MODES.items():
        seeds = SEED_TABLE[:1] if name == "tiny" else SEED_TABLE
        entry = dict(mode, seeds={})
        for seed in seeds:
            start = time.perf_counter()
            digests, verdicts, slots, backends = run_suite(mode, seed, "reference")
            auto, _, auto_slots, auto_backends = run_suite(mode, seed, "auto")
            same = auto == digests and auto_slots == slots
            ok &= same
            print(
                f"{name} seed {seed}: reference {backends}; auto "
                f"{'matches' if same else 'DIFFERS'} {auto_backends}; "
                f"{time.perf_counter() - start:.1f}s",
                file=sys.stderr,
                flush=True,
            )
            entry["seeds"][str(seed)] = {
                "digests": digests,
                "trial_slots": slots,
                "consistent_with_paper": verdicts,
            }
        out[name] = entry
    if not ok:
        print("auto differs from reference; reference.json left unchanged", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
