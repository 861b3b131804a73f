"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Runs one workload of ``worker.py`` against the checkout's ``src/repro`` and
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

Set-up is timed from outside: the worker is started several times, each
start timed from process launch to its ``PERFBENCH-READY`` line (interpreter
start, ``import repro``, input generation, warm-up and, for the served
workload, the store pre-fill and daemon start-up) and divided by the host
slowdown the worker reports on that line; ``setup_s`` is the median.  All
starts but the last are told to exit; the last one runs the timed phase.

``--self-check`` runs every workload on tiny inputs, traced and untraced,
and asserts that each metric of ``BENCHMARK.json`` is emitted with its unit
and that every output check ran.

Only the standard library is used here, so the script fails cleanly (exit
2, no result line) when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-experiments", "sweep-local", "sweep-served")
#: Timed starts per run (the median is ``setup_s``); the longer set-ups (a
#: warm pass of E1-E10; a store pre-fill and a daemon) are timed fewer
#: times, which keeps a slow-host run of the longest workload near 45 s.
SETUP_STARTS = {"paper-experiments": 2, "sweep-local": 3, "sweep-served": 2}
#: Output checks each workload must report as run.
CHECKS = {
    "paper-experiments": {"reference-digest"},
    "sweep-local": {"reference-sample", "pass-identity"},
    "sweep-served": {"payload-vs-local"},
}
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> Dict[str, str]:
    """A clean environment: the checkout's ``src`` only, bytecode cached
    inside the checkout, no inherited ``REPRO_*`` settings or BLAS threads."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """One ``worker.py`` process, read line by line with a deadline.

    The worker leads its own process group, so that killing the group also
    stops the daemon a ``sweep-served`` worker starts.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], deadline: float) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.kill)
        self.timer.daemon = True
        self.timer.start()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def expect(self, marker: str) -> str:
        """Read until a line starting with ``marker``; echo others to stderr."""
        for line in self.proc.stdout:
            if line.startswith(marker):
                return line[len(marker):].strip()
            sys.stderr.write(line)
        self.proc.wait()
        raise BenchError(f"worker exited (code {self.proc.returncode}) before {marker}")

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        # Whatever the worker left behind (a daemon, if it died early).
        self.kill()
        self.proc.wait()
        self.timer.cancel()
        if self.proc.stdout:
            self.proc.stdout.close()


def run_workload(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    tiny: bool = False,
) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    workdir = root / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_out = root / ".perfbench" / "traces" / f"{workload}-seed{seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    try:
        # Untimed throwaway import: compiles the bytecode cache, so neither
        # side of a comparison pays compilation inside its set-up time.
        subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                "import repro.cli, spans, workloads",
            ],
            env=env,
            check=True,
            timeout=120,
        )
        base = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
            "--trace-out",
            str(trace_out),
        ]
        if tiny:
            base.append("--tiny")
        starts = 1 if trace else SETUP_STARTS[workload]
        setups: List[float] = []
        payload: Optional[Dict[str, Any]] = None
        for index in range(starts):
            worker = Worker(
                base + ["--workdir", str(workdir / f"start-{index}")], env, deadline
            )
            try:
                slowdown = float(worker.expect("PERFBENCH-READY"))
                setups.append((time.perf_counter() - worker.started) / slowdown)
                if index + 1 < starts:
                    worker.send("exit")
                else:
                    worker.send("go")
                    payload = json.loads(worker.expect("PERFBENCH-RESULT"))
            finally:
                worker.close()
            if worker.proc.returncode != 0:
                raise BenchError(f"worker exited with code {worker.proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert payload is not None
    metrics = payload["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in payload.get("checks", []):
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": payload["failed"] == 0 and payload["attempted"] > 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
        "checks_run": sorted(payload.get("checks_run", [])),
    }


def self_check(root: Path) -> int:
    """Tiny inputs, every workload, both modes: metrics, units and checks."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: List[str] = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            result = run_workload(root, workload, 1, 1.0, trace, tiny=True)
            where = f"{workload} --trace {trace}"
            for name, unit in wanted[trace].items():
                got = result["metrics"].get(name)
                if got is None:
                    problems.append(f"{where}: metric {name} missing")
                elif got.get("unit") != unit:
                    problems.append(f"{where}: {name} has unit {got.get('unit')}, want {unit}")
            extra = set(result["metrics"]) - set(wanted[trace])
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            missing = CHECKS[workload] - set(result["checks_run"])
            if missing:
                problems.append(f"{where}: checks not run: {sorted(missing)}")
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']}/{result['attempted']} failed")
            print(
                f"self-check {where}: {len(result['metrics'])} metrics, "
                f"{result['attempted']} ops, {time.perf_counter() - start:.1f}s",
                file=sys.stderr,
            )
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print(json.dumps({"self_check": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from a checkout's root", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
