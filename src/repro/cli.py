"""Command-line interface.

Examples
--------

Run a single experiment at the quick scale and print its tables::

    python -m repro.cli run E3 --trials 3

Run every experiment and (re)generate EXPERIMENTS.md::

    python -m repro.cli report --scale full --output EXPERIMENTS.md

Simulate one workload interactively (ad hoc or a named scenario)::

    python -m repro.cli simulate --arrivals 128 --horizon 16384 --jam 0.25
    python -m repro.cli simulate --scenario ethernet-burst

List the named scenarios and their specs::

    python -m repro.cli scenarios --format json

Sweep a parameter grid over a declarative study spec (results are cached in
a content-addressed store keyed by spec hash)::

    python -m repro.cli sweep --scenario adversarial-jam \\
        --axis adversary.jamming.params.fraction=0.0,0.1,0.25,0.4 \\
        --axis horizon=4096,8192,16384 --trials 3 --format csv

Run the benchmark suite and persist the performance trajectory::

    python -m repro.cli bench --scale smoke --output BENCH_$(date +%F).json
    python -m repro.cli bench --compare BENCH_old.json BENCH_new.json

Serve StudySpec JSON over TCP (deduped async job queue + sharded store)::

    python -m repro.cli serve --port 7421 --workers 4
    python -m repro.cli sweep --server :7421 --scenario adversarial-jam \\
        --axis adversary.jamming.params.fraction=0.0,0.25
    python -m repro.cli sweep --server :7421 --scenario adversarial-jam \\
        --axis horizon=4096,8192 --no-wait --priority 1
    python -m repro.cli client stats --server :7421
    python -m repro.cli store stats --root .repro-store
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .errors import ReproError, SpecError
from .experiments import ExperimentConfig, all_experiments, get_experiment
from .experiments.report import run_all, write_report
from .sim.backends import available_backends, available_study_backends

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-contention",
        description=(
            "Reproduction of 'Tight Trade-off in Contention Resolution without "
            "Collision Detection' (PODC 2021)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment and print its report")
    run_parser.add_argument("experiment_id", help="experiment id, e.g. E3")
    _add_config_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    report_parser = subparsers.add_parser(
        "report", help="run all experiments and write EXPERIMENTS.md"
    )
    report_parser.add_argument("--output", default="EXPERIMENTS.md")
    report_parser.add_argument(
        "--only", nargs="*", default=None, help="restrict to these experiment ids"
    )
    _add_config_arguments(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run the paper's algorithm once on a simple workload"
    )
    simulate_parser.add_argument("--arrivals", type=int, default=64)
    simulate_parser.add_argument("--horizon", type=int, default=None)
    simulate_parser.add_argument("--jam", type=float, default=0.0)
    simulate_parser.add_argument("--seed", type=int, default=None)
    simulate_parser.add_argument(
        "--scenario",
        default=None,
        help="run a named scenario workload instead of --arrivals/--jam "
        "(see `repro scenarios`)",
    )
    simulate_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="auto",
        help="backend (auto walks the study ladder; see --explain-backend)",
    )
    simulate_parser.add_argument(
        "--explain-backend",
        action="store_true",
        help="also print the backend ladder: which kernel was selected, "
        "which rungs were skipped or ineligible and why",
    )
    simulate_parser.set_defaults(func=_cmd_simulate)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list the named workload scenarios and their specs"
    )
    scenarios_parser.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    scenarios_parser.set_defaults(func=_cmd_scenarios)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="expand a parameter grid over a study spec and run every point "
        "(cached by spec hash)",
    )
    base = sweep_parser.add_mutually_exclusive_group(required=True)
    base.add_argument(
        "--spec", default=None, help="path to a StudySpec JSON file ('-' for stdin)"
    )
    base.add_argument(
        "--scenario", default=None, help="use a named scenario's study spec as the base"
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="PATH=V1,V2,...",
        help="sweep axis: dotted spec path and comma-separated values "
        "(repeatable; cartesian product)",
    )
    sweep_parser.add_argument("--trials", type=int, default=None)
    sweep_parser.add_argument("--seed", type=int, default=None)
    sweep_parser.add_argument(
        "--backend", choices=available_study_backends(), default=None
    )
    sweep_parser.add_argument("--workers", type=int, default=None)
    sweep_parser.add_argument(
        "--streaming",
        action="store_const",
        const=True,
        default=None,
        help="run every sweep point in streaming mode (summaries only)",
    )
    sweep_parser.add_argument(
        "--store",
        default=".repro-store",
        help="result cache directory (default: .repro-store)",
    )
    sweep_parser.add_argument(
        "--no-store", action="store_true", help="disable the result cache"
    )
    sweep_parser.add_argument(
        "--format", choices=["table", "json", "csv"], default="table"
    )
    sweep_parser.add_argument(
        "--on-error",
        choices=["raise", "skip"],
        default="raise",
        help="per-point failure policy: raise immediately (default), or "
        "record the failure and continue (exit status 1); a re-run against "
        "the same store serves finished points and re-runs the rest",
    )
    sweep_parser.add_argument(
        "--server",
        default=None,
        metavar="HOST:PORT",
        help="submit the grid to a running `repro serve` daemon instead of "
        "executing locally (thin client; rows stream back)",
    )
    sweep_parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="with --server: queue priority (lower runs first; default 0)",
    )
    sweep_parser.add_argument(
        "--no-wait",
        action="store_true",
        help="with --server: enqueue and print job hashes instead of "
        "waiting for results",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="with --server: client socket timeout in seconds "
        "(default 300; 0 disables)",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the sweep-service daemon: accept StudySpec JSON over TCP, "
        "dedupe and execute through a sharded study store",
    )
    serve_parser.add_argument(
        "--host", default=None, help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, help="TCP port (default 7421)"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent job executions (default 2)",
    )
    serve_parser.add_argument(
        "--store-root",
        default=".repro-store",
        help="sharded store directory; an existing store keeps its ring.json "
        "topology, a new one gets 2 shards (default .repro-store)",
    )
    serve_parser.add_argument(
        "--store-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-shard byte budget; evict LRU-by-atime after each job "
        "(default: unlimited)",
    )
    serve_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead journal of job transitions; a restarted server "
        "re-queues accepted-but-unfinished jobs from it (default: none)",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job execution deadline; overruns are re-queued then "
        "failed (default: unlimited)",
    )
    serve_parser.add_argument(
        "--requeues",
        type=int,
        default=1,
        help="times a deadline/hang-hit job is re-queued before failing "
        "(default: 1)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    client_parser = subparsers.add_parser(
        "client",
        help="query a running `repro serve` daemon (status/stats/shutdown)",
    )
    client_parser.add_argument(
        "action", choices=["stats", "status", "result", "shutdown"]
    )
    client_parser.add_argument(
        "hashes", nargs="*", help="spec hashes (status/result)"
    )
    client_parser.add_argument(
        "--server",
        default=None,
        metavar="HOST:PORT",
        help="sweep-server address (default: REPRO_SERVE_HOST/REPRO_SERVE_PORT "
        "or 127.0.0.1:7421)",
    )
    client_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="client socket timeout in seconds (default 300; 0 disables)",
    )
    client_parser.set_defaults(func=_cmd_client)

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and maintain a sharded study store "
        "(stats / evict / scrub)",
    )
    store_parser.add_argument("action", choices=["stats", "evict", "scrub"])
    store_parser.add_argument(
        "--root",
        default=".repro-store",
        help="store directory (default: .repro-store)",
    )
    store_parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-shard byte budget for evict",
    )
    store_parser.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    store_parser.set_defaults(func=_cmd_store)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the benchmark suite and write a BENCH_<date>.json, "
        "or compare two bench files",
    )
    bench_parser.add_argument(
        "--scale", choices=["smoke", "quick", "full"], default="smoke"
    )
    bench_parser.add_argument("--seed", type=int, default=20210219)
    bench_parser.add_argument(
        "--output",
        default=None,
        help="output path (default: BENCH_<date>.json in the cwd)",
    )
    bench_parser.add_argument(
        "--backends",
        nargs="*",
        default=None,
        help="restrict the micro suite to these backends",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best wins)"
    )
    bench_parser.add_argument(
        "--no-experiments",
        action="store_true",
        help="skip the experiment-level smoke suite",
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CURRENT"),
        default=None,
        help="diff two bench files instead of running; exits 1 on regression",
    )
    bench_parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative regression threshold for --compare (default 0.2)",
    )
    bench_parser.add_argument(
        "--profile",
        metavar="ID",
        default=None,
        help="cProfile one micro benchmark (top-20 cumulative entries) "
        "instead of running the suite; honours --scale/--seed, and "
        "--backends picks the profiled backend",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    return parser


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20210219)
    parser.add_argument(
        "--scale", choices=["smoke", "quick", "full"], default="quick"
    )
    parser.add_argument(
        "--backend",
        choices=available_study_backends(),
        default="auto",
        help=(
            "simulation backend (auto escalates lockstep-jit -> "
            "lockstep -> vectorized -> reference per study; batched-study "
            "runs only when pinned)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial worker processes (fork-based; 1 = serial)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help=(
            "release per-slot prefix columns after pipeline reduction "
            "(memory O(1) in the horizon; honored by pipeline-based "
            "experiments)"
        ),
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        trials=args.trials,
        seed=args.seed,
        scale=args.scale,
        backend=args.backend,
        workers=args.workers,
        streaming=args.streaming,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    for experiment_id in all_experiments():
        experiment = get_experiment(experiment_id)
        print(f"{experiment_id}: {experiment.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    experiment = get_experiment(args.experiment_id)
    result = experiment.run(config)
    print(result.render_text())
    return 0 if result.consistent_with_paper in (True, None) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    results = run_all(config, experiment_ids=args.only)
    path = write_report(args.output, results, config)
    print(f"wrote {path} ({len(results)} experiments)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Without a scenario the historical default horizon (8192) applies; a
    # scenario supplies its own horizon unless --horizon overrides it.
    horizon = args.horizon
    if horizon is None and args.scenario is None:
        horizon = 8192
    runner = _simulate_runner(args, horizon)
    # run_single dispatches through the runner's own ladder, so the ladder
    # that --explain-backend prints is the one that ran.
    result = runner.run_single(args.seed)
    print(result.describe())
    print(f"classical throughput at horizon: {result.classical_throughput():.3f}")
    print(f"mean latency: {result.mean_latency():.1f} slots")
    print(
        f"backend: {result.backend} "
        f"({result.slots_per_second:,.0f} slots/s, "
        f"{result.wall_time_seconds * 1000:.1f} ms)"
    )
    if args.explain_backend:
        print()
        print(_explain_backend_text(runner))
    return 0


def _simulate_runner(args: argparse.Namespace, horizon: Optional[int]):
    """The trial runner for the simulate command's workload (CJZ, one trial)."""
    from . import cjz_factory
    from .sim import SimulatorConfig
    from .sim.runner import TrialRunner
    from .spec import AdversarySpec

    if args.scenario is not None:
        from .workloads import get_scenario

        named = get_scenario(args.scenario)
        adversary_spec = named.adversary
        horizon = horizon or named.horizon
    else:
        adversary_spec = AdversarySpec.batch(
            args.arrivals, jam_fraction=args.jam
        )
    horizon = horizon or 4096
    return TrialRunner(
        cjz_factory(),
        adversary_spec.factory(horizon),
        SimulatorConfig(horizon=horizon),
        backend=args.backend,
    )


def _explain_backend_text(runner) -> str:
    """The backend-ladder explanation of the runner the simulate command ran."""
    from .sim.backends.compiled import interpreter_mode

    lines = ["backend ladder (single trial):"]
    for row in runner.explain_backend():
        lines.append(
            f"  {row['backend']:<24} {row['status']:<10} {row['reason']}"
        )
    lines.append(
        "environment: "
        f"REPRO_DISABLE_NUMBA={os.environ.get('REPRO_DISABLE_NUMBA', '')!r} "
        f"REPRO_COMPILED_FORCE_PYTHON="
        f"{os.environ.get('REPRO_COMPILED_FORCE_PYTHON', '')!r} "
        f"(compiled interpreter mode: {interpreter_mode()})"
    )
    return "\n".join(lines)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .workloads import STANDARD_SCENARIOS

    if args.format == "json":
        payload = [
            {
                "key": scenario.key,
                "description": scenario.description,
                "study": scenario.study_spec().to_dict(),
            }
            for scenario in STANDARD_SCENARIOS.values()
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for scenario in STANDARD_SCENARIOS.values():
        adversary = scenario.adversary
        print(f"{scenario.key}")
        print(f"  {scenario.description}")
        print(
            f"  workload: {adversary.arrivals.kind} + {adversary.jamming.kind} "
            f"over {scenario.horizon} slots"
        )
    print(
        "\nrun one with: repro simulate --scenario <key>   "
        "or sweep it with: repro sweep --scenario <key> --axis ..."
    )
    return 0


def _parse_axis_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_axes(axis_args: Sequence[str]) -> Dict[str, List[Any]]:
    axes: Dict[str, List[Any]] = {}
    for axis in axis_args:
        path, sep, values = axis.partition("=")
        if not sep or not path or not values:
            raise SpecError(
                f"invalid --axis {axis!r}; expected PATH=V1,V2,... "
                "(e.g. adversary.jamming.params.fraction=0.0,0.25)"
            )
        axes[path] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _sweep_base_spec(args: argparse.Namespace):
    from .spec import StudySpec
    from .workloads import scenario_study

    if args.scenario is not None:
        spec = scenario_study(args.scenario)
    elif args.spec == "-":
        spec = StudySpec.from_json(sys.stdin.read())
    else:
        spec = StudySpec.from_json(Path(args.spec).read_text())
    overrides: Dict[str, Any] = {}
    for name in ("trials", "seed", "backend", "workers", "streaming"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return spec.with_overrides(overrides)


def _render_sweep_rows(rows: List[Dict[str, Any]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    from .analysis.tables import Table

    columns = list(rows[0])
    table = Table(title=f"sweep ({len(rows)} points)", columns=columns)
    for row in rows:
        table.add_row(*[row[c] for c in columns])
    return table.render()


def _print_health(results) -> None:
    """One footer line per study whose run recorded health events."""
    for r in results:
        health = getattr(r.study, "health", None)
        if health is not None and not health.clean:
            print(f"health [{r.spec.display_label}]: {health.describe()}")


def _print_served(results, args: argparse.Namespace) -> int:
    """Print the rows of ``sweep --server``.

    Served studies carry their RunHealth over the wire, so the table gets
    the same health footer as a local sweep.
    """
    from .spec import sweep_rows

    print(_render_sweep_rows(sweep_rows(results), args.format))
    if args.format == "table":
        cached = sum(1 for r in results if r.cached)
        failed = sum(1 for r in results if r.failed)
        print(
            f"{len(results)} points ({cached} cached"
            + (f", {failed} failed" if failed else "")
            + f") served by {_serve_address(args)}"
        )
        _print_health(results)
    return 1 if any(r.failed for r in results) else 0


def _serve_address(args: argparse.Namespace) -> str:
    """Resolve the server address: --server flag, env vars, then defaults."""
    if getattr(args, "server", None):
        address = args.server
    else:
        host = os.environ.get("REPRO_SERVE_HOST", "127.0.0.1")
        port = os.environ.get("REPRO_SERVE_PORT", "7421")
        address = f"{host}:{port}"
    if ":" not in address:
        address = f"127.0.0.1:{address}" if address.isdigit() else f"{address}:7421"
    elif address.startswith(":"):
        address = f"127.0.0.1{address}"
    return address


def _serve_client(args: argparse.Namespace):
    from .serve import ServeClient

    if args.timeout is None:
        return ServeClient.from_address(_serve_address(args))
    return ServeClient.from_address(_serve_address(args), timeout=args.timeout)


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None or value == "":
        return fallback
    try:
        return int(value)
    except ValueError as exc:
        raise SpecError(f"{name} must be an integer, got {value!r}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .spec import StudyPlan, StudyStore, Sweep, sweep_rows

    base = _sweep_base_spec(args)
    sweep = Sweep(base, _parse_axes(args.axis))
    plan = StudyPlan.from_sweep(sweep)
    if args.server is not None:
        client = _serve_client(args)
        if args.no_wait:
            outcomes = client.submit(plan.specs, wait=False, priority=args.priority)
            if args.format == "json":
                rows = [
                    {"hash": o.hash, "status": o.status, "label": o.label}
                    for o in outcomes
                ]
                print(json.dumps(rows, indent=2, sort_keys=True))
            else:
                for outcome in outcomes:
                    print(f"{outcome.hash}  {outcome.status}  {outcome.label}")
            return 0
        return _print_served(
            client.run_plan(
                plan.specs, overrides=sweep.points(), priority=args.priority
            ),
            args,
        )
    store = None if args.no_store else StudyStore(args.store)
    results = plan.run(store=store, on_error=args.on_error)
    rows = sweep_rows(results)
    print(_render_sweep_rows(rows, args.format))
    if args.format == "table":
        cached = sum(1 for r in results if r.cached)
        failed = sum(1 for r in results if r.failed)
        dispatch = sum(r.dispatch_seconds for r in results)
        run_time = sum(r.run_seconds for r in results)
        where = "disabled" if store is None else str(store.root)
        print(
            f"{len(results)} points ({cached} cached"
            + (f", {failed} failed" if failed else "")
            + f"), simulation {run_time:.2f}s + dispatch "
            f"{dispatch * 1000:.0f}ms; store: {where}"
        )
        _print_health(results)
    return 1 if any(r.failed for r in results) else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from .serve import ShardedStudyStore, SweepServer

    host = args.host or os.environ.get("REPRO_SERVE_HOST") or "127.0.0.1"
    port = args.port if args.port is not None else _env_int("REPRO_SERVE_PORT", 7421)
    store = ShardedStudyStore(args.store_root)

    async def _daemon() -> None:
        server = SweepServer(
            store,
            host=host,
            port=port,
            workers=args.workers,
            store_budget=args.store_budget,
            journal=args.journal,
            deadline=args.deadline,
            requeues=args.requeues,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, RuntimeError):
            # SIGTERM = graceful drain: refuse new work, finish and journal
            # the backlog, then exit 0.  (Unavailable on some platforms.)
            loop.add_signal_handler(
                signal.SIGTERM,
                lambda: asyncio.ensure_future(server.drain()),
            )
        bound_host, bound_port = server.address
        extras = ""
        if args.journal is not None:
            extras = f", journal @ {args.journal}"
            if server.stats.recovered:
                extras += f", recovered {server.stats.recovered} jobs"
        print(
            f"repro serve: listening on {bound_host}:{bound_port} "
            f"({args.workers} workers, {len(store.shards)} shards @ {store.root}"
            f"{extras})",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(_daemon())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    if args.action == "stats":
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.action == "shutdown":
        client.shutdown()
        print("shutdown requested")
        return 0
    if args.action == "status":
        rows = client.status(args.hashes or None)
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    # result
    if not args.hashes:
        raise SpecError("repro client result needs at least one spec hash")
    outcomes = client.results(args.hashes, wait=True)
    payload = []
    for outcome in outcomes:
        row: Dict[str, Any] = {
            "hash": outcome.hash,
            "status": outcome.status,
            "cached": outcome.cached,
            "attempts": outcome.attempts,
            "run_seconds": outcome.run_seconds,
            "label": outcome.label,
        }
        if outcome.error:
            row["error"] = outcome.error
        if outcome.study is not None:
            row["summary"] = outcome.study.summary_row()
        payload.append(row)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from .serve import ShardedStudyStore

    store = ShardedStudyStore(args.root)
    if args.action == "stats":
        report = store.stats()
    elif args.action == "evict":
        if args.budget is None:
            raise SpecError("repro store evict needs --budget BYTES")
        report = store.evict(args.budget)
    else:  # scrub
        report = store.scrub()
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.action == "stats":
        print(f"store {report['root']}: {report['entries']} entries, "
              f"{report['bytes']:,} bytes, {report['virtual_nodes']} vnodes/shard")
        for name, shard in sorted(report["shards"].items()):
            corrupt = (
                f", {shard['corrupt']} corrupt" if shard["corrupt"] else ""
            )
            print(
                f"  {name}: {shard['entries']} entries, "
                f"{shard['bytes']:,} bytes{corrupt}"
            )
    elif args.action == "evict":
        over = report["over_budget_shards"]
        print(
            f"evicted {len(report['evicted'])} entries "
            f"({report['freed_bytes']:,} bytes) to fit "
            f"{report['budget_bytes']:,} bytes/shard"
            + (f"; still over budget: {', '.join(over)}" if over else "")
        )
    else:
        lost = report["lost_shards"]
        print(
            f"scrubbed {report['scanned']} entries: {report['ok']} verified, "
            f"{report['legacy']} legacy (no checksum), "
            f"{len(report['quarantined'])} quarantined"
            + (f"; lost shards: {', '.join(lost)}" if lost else "")
        )
        for digest in report["quarantined"]:
            print(f"  quarantined {digest}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        collect_bench,
        compare_bench,
        default_bench_path,
        load_bench,
        render_comparison,
        write_bench,
    )

    if args.compare is not None:
        baseline = load_bench(args.compare[0])
        current = load_bench(args.compare[1])
        regressions = compare_bench(baseline, current, threshold=args.threshold)
        print(render_comparison(regressions))
        return 1 if regressions else 0

    if args.profile is not None:
        from .bench import profile_workload

        backend = args.backends[0] if args.backends else None
        print(
            profile_workload(
                args.profile, scale=args.scale, seed=args.seed, backend=backend
            ),
            end="",
        )
        return 0

    data = collect_bench(
        scale=args.scale,
        seed=args.seed,
        backends=args.backends,
        include_experiments=not args.no_experiments,
        repeats=args.repeats,
    )
    path = args.output or default_bench_path()
    path = write_bench(data, path)
    micro = [b for b in data["benchmarks"] if b["kind"] == "micro"]
    for record in micro:
        note = ""
        if "speedup_vs_reference" in record:
            note = f"  ({record['speedup_vs_reference']:.1f}x vs reference"
            if "speedup_vs_vectorized" in record:
                note += f", {record['speedup_vs_vectorized']:.1f}x vs vectorized"
            note += ")"
        if "result_bytes_per_slot" in record:
            note += (
                f"  [{record['result_bytes_per_slot']:.0f} B/slot retained, "
                f"peak {record['peak_bytes_per_slot']:.0f}]"
            )
        print(
            f"{record['id']} [{record['backend']}]: "
            f"{record['slots_per_second']:,.0f} slots/s{note}"
        )
    for record in data["benchmarks"]:
        if record["id"] == "dispatch-matrix":
            print(
                f"dispatch matrix: auto's picks took "
                f"{record['auto_vs_best']:.3f}x the faster tier per cell "
                f"(worst {record['worst_cell']}: "
                f"{record['worst_cell_ratio']:.2f}x)"
            )
    print(f"wrote {path} ({len(data['benchmarks'])} benchmarks)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
