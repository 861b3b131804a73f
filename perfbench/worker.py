"""One benchmark process: set up a workload, then measure it on request.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Prints
``PERFBENCH-READY <host slowdown during set-up>`` once set-up is done and
then reads one command from
stdin: ``exit`` (a set-up-only start, used to time set-up repeatedly) or
``go``, after which it runs the timed phase (or, with ``--trace 1``, the
traced run) and prints ``PERFBENCH-RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Any, Dict

import spans as tracing
import workloads
from workloads import SweepServed, quantile

HERE = Path(__file__).resolve().parent
#: Untraced passes a traced local run times first, for its overhead ratio.
UNTRACED_PASSES = 3

def emit(payload: Dict[str, Any]) -> None:
    print("PERFBENCH-RESULT " + json.dumps(payload), flush=True)


# ---------------------------------------------------------------- local runs


def run_local_passes(workload, seconds: float, minimum: int = 1) -> None:
    """Timed passes until their summed wall time reaches ``seconds``."""
    while len(workload.pass_walls) < minimum or sum(workload.pass_walls) < seconds:
        check_pass(workload, workload.run_pass())


def check_pass(workload, outputs) -> None:
    if isinstance(outputs, tuple):
        workload.check_pass(*outputs)
    else:
        workload.check_pass(outputs)


def local_result(workload) -> Dict[str, Any]:
    rss = workloads.peak_rss_mb()
    latencies = [quantile(v, 0.5) for v in workload.latencies.values()]
    wall = sum(latencies)
    return {
        "wall_s": (wall, "s"),
        "trial_slots_per_s": (workload.pass_trial_slots() / wall, "1/s"),
        "p50_ms": (quantile(latencies, 0.5) * 1000.0, "ms"),
        "p95_ms": (quantile(latencies, 0.95) * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_local(workload, args) -> Dict[str, Any]:
    run_local_passes(workload, 0.0, minimum=UNTRACED_PASSES)
    untraced = quantile(workload.pass_walls, 0.5)
    tracer = tracing.Tracer()
    tracing.load_modules()
    tracing.install(tracer, tracing.LAYERS)
    outputs = workload.run_pass()
    wall = workload.pass_walls[-1]
    trace_path = Path(args.trace_out)
    tracer.dump(trace_path, {"workload": workload.name, "wall_s": wall})
    with tracer.paused():
        check_pass(workload, outputs)
    trace = json.loads(trace_path.read_text())
    identity = tracing.identity_of(trace, ["MainThread"], wall)
    identity["trace.overhead_ratio"] = wall / untraced
    return tracing.per_layer_metrics([trace], identity, {})


# --------------------------------------------------------------- served runs


def served_result(workload: SweepServed, args) -> Dict[str, Any]:
    workload.run_rounds(args.seconds, workload.rounds_cap)
    walls, latencies = workload.normal_speed_times()
    wall = quantile(walls, 0.5)
    workload.stop_daemon()
    rss = workloads.peak_rss_mb(resource.RUSAGE_CHILDREN)
    workload.check()
    return {
        "wall_s": (wall, "s"),
        "trial_slots_per_s": (workload.pass_trial_slots() / wall, "1/s"),
        "p50_ms": (quantile(latencies, 0.5) * 1000.0, "ms"),
        "p95_ms": (quantile(latencies, 0.95) * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_served(workload: SweepServed, args) -> Dict[str, Any]:
    rounds = workload.rounds_cap
    workload.run_rounds(float("inf"), rounds)
    untraced = quantile(workload.round_walls, 0.5)
    workload.stop_daemon()
    workload.check()

    trace_path = Path(args.trace_out)
    daemon_trace = trace_path.with_name(trace_path.stem + "-daemon.json")
    daemon_trace.unlink(missing_ok=True)
    traced = SweepServed(workload.seed, workload.tiny, workload.workdir / "traced")
    traced.workdir.mkdir(parents=True, exist_ok=True)
    launcher = [
        sys.executable,
        str(HERE / "serve_launcher.py"),
        "--trace-out",
        str(daemon_trace),
        "--",
    ]
    try:
        traced.setup(rounds=rounds, launcher=launcher)
        tracer = tracing.Tracer()
        tracing.load_modules()
        tracing.install(tracer, tracing.LAYERS + tracing.CLIENT_LAYERS)
        traced.run_rounds(float("inf"), rounds, tag=tracer.tag)
        with tracer.paused():
            walls = traced.round_walls
            wall = sum(walls) * len(workloads.ROUND_SCHEDULE)
            tracer.dump(trace_path, {"workload": traced.name, "wall_s": wall})
            traced.stop_daemon()
            traced.check()
    finally:
        traced.teardown()
    workload.attempted += traced.attempted
    workload.failed += traced.failed
    workload.checks.extend(traced.checks)
    workload.checks_run |= traced.checks_run
    client = json.loads(trace_path.read_text())
    daemon = json.loads(daemon_trace.read_text())
    identity = tracing.identity_of(client, [f"client-{i}" for i in range(2)], wall)
    identity["trace.overhead_ratio"] = quantile(walls, 0.5) / untraced
    overheads = traced.overhead_ms()
    serve = {
        "serve.job_run_s": traced.job_run_seconds(),
        "serve.overhead_p50_ms": quantile(overheads, 0.5) if overheads else 0.0,
        **{f"serve.{key}": value for key, value in traced.stats_delta.items()},
    }
    return tracing.per_layer_metrics([client, daemon], identity, serve)


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    clock = workloads.SetupClock()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    workload.clock = clock
    try:
        if isinstance(workload, SweepServed) and args.trace:
            workload.setup(rounds=2 if args.tiny else workloads.TRACED_ROUNDS)
        else:
            workload.setup()
        clock.checkpoint()
        # run.py divides the set-up time it measures by this slowdown.
        print(f"PERFBENCH-READY {clock.slowdown()!r}", flush=True)
        command = sys.stdin.readline().strip()
        if command != "go":
            return 0
        if isinstance(workload, SweepServed):
            metrics = (traced_served if args.trace else served_result)(workload, args)
        elif args.trace:
            metrics = traced_local(workload, args)
        else:
            run_local_passes(workload, args.seconds)
            metrics = local_result(workload)
    finally:
        workload.teardown()
    if not args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    emit(
        {
            "attempted": workload.attempted,
            "failed": workload.failed,
            "checks": workload.checks,
            "checks_run": sorted(workload.checks_run),
            "metrics": metrics,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
