"""The benchmark's three workloads: inputs, set-up, timed passes, checks.

Every input is generated from the workload seed.  Each workload runs in
*passes* (the unit whose wall time is ``wall_s``) made of *requests* (the
unit a user waits for, whose latencies give ``p50_ms``/``p95_ms``):

* ``paper-experiments``: a pass is E1-E10 through ``run_experiment``; a
  request is one experiment, as ``repro run E<i>`` runs it.
* ``sweep-local``: a pass is one cold 120-point grid through
  ``StudyPlan.run`` with a fresh ``StudyStore``, then ``sweep_rows``; the
  request is the whole sweep, as ``repro sweep`` runs it.
* ``sweep-served``: a pass is one round of 30 ``ServeClient.submit``
  requests from two closed-loop client threads against a ``repro serve``
  daemon; a request is one submit of 4 specs.

The local workloads repeat the same requests every pass, so a request's
latency is the median over the run's passes; ``wall_s`` sums those and
``p50_ms``/``p95_ms`` are taken over the distinct requests.  Every time is
taken at the host's normal speed (see ``host_slowdown``).

An operation is one request; a request whose output does not match its
reference counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.experiments as experiments
from repro.experiments import ExperimentConfig
from repro.rng import fast_bounded_pairs_ok, fast_seed_path_ok
from repro.serve import ServeClient, ShardedStudyStore
from repro.sim.artifacts import streams_verified
from repro.spec import StudyPlan, StudySpec, StudyStore, Sweep, sweep_rows
from repro.spec.store import result_record
from repro.workloads.scenarios import get_scenario

HERE = Path(__file__).resolve().parent
perf_counter = time.perf_counter

#: Columns that carry timings or provenance rather than simulated outcomes.
TIMING_KEYS = frozenset(
    {
        "wall_time_seconds",
        "mean_wall_time_s",
        "mean_slots_per_s",
        "dispatch_seconds",
        "run_seconds",
        "cached",
    }
)


def quantile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between samples."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    return float(np.quantile(np.asarray(ordered, dtype=float), q))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# The host this benchmark was built on (2 vCPUs shared with other tenants)
# alternates, for seconds to minutes at a time, between its normal speed and
# a phase in which the same code runs 1.4-1.9x slower; process CPU time
# slows alike, so it is not steal.  Every timing is therefore divided by the
# host's slowdown at that moment, measured by a fixed loop that mixes small
# numpy operations with per-object Python calls, as the study kernels do:
# seconds at normal speed.
#: The calibration loop's time at the build host's normal speed.
NOMINAL_LOOP_S = 0.00105
_CAL_A = np.linspace(0.0, 1.0, 1024).reshape(16, 64)
_CAL_B = _CAL_A[::-1].copy()


class _CalNode:
    __slots__ = ("state", "count")

    def __init__(self, state: int) -> None:
        self.state = state
        self.count = 0

    def step(self, slot: int) -> bool:
        self.count += 1
        return (self.state * 31 + slot) % 97 < 40


_CAL_NODES = [_CalNode(i) for i in range(64)]


def _calibration_loop() -> float:
    start = perf_counter()
    for _ in range(150):
        np.count_nonzero(_CAL_A * _CAL_B + 0.5 > 0.7)
    sent: Dict[int, int] = {}
    for slot in range(60):
        for node in _CAL_NODES:
            if node.step(slot):
                sent[node.state] = sent.get(node.state, 0) + 1
    return perf_counter() - start


def host_slowdown() -> float:
    """How much longer work takes now than at normal speed (1.0 = normal):
    the median of five calibration loops ÷ NOMINAL_LOOP_S."""
    return statistics.median(_calibration_loop() for _ in range(5)) / NOMINAL_LOOP_S


def at_normal_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two ``host_slowdown`` readings, scaled
    to the host's normal speed."""
    return seconds * 2.0 / (before + after)


class SetupClock:
    """Set-up time at normal speed: the slowdown is read at every
    checkpoint, and each stretch between two readings is scaled by their
    mean, so a set-up of several seconds follows the host's phases."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.normal = 0.0
        self._slowdown = host_slowdown()
        self._last = perf_counter()

    def checkpoint(self) -> None:
        elapsed = perf_counter() - self._last
        slowdown = host_slowdown()
        self.raw += elapsed
        self.normal += at_normal_speed(elapsed, self._slowdown, slowdown)
        self._slowdown = slowdown
        self._last = perf_counter()

    def slowdown(self) -> float:
        """The mean slowdown so far, weighted by time."""
        return self.raw / self.normal


def warm_process() -> None:
    """The once-per-process RNG self-checks every study path relies on."""
    streams_verified()
    fast_seed_path_ok()
    fast_bounded_pairs_ok()


def _plain(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def experiment_digest(result) -> str:
    """sha256 of an experiment's findings and tables, timing columns removed."""
    findings = {
        key: _plain(value)
        for key, value in result.findings.items()
        if key not in TIMING_KEYS
    }
    tables = []
    for table in result.tables:
        keep = [i for i, column in enumerate(table.columns) if column not in TIMING_KEYS]
        tables.append(
            {
                "title": table.title,
                "columns": [table.columns[i] for i in keep],
                "rows": [[_plain(row[i]) for i in keep] for row in table.rows],
            }
        )
    text = json.dumps(
        {"findings": findings, "tables": tables}, sort_keys=True, default=repr
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_row(row: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in row.items() if key not in TIMING_KEYS}


def trial_slots(studies) -> int:
    """Σ trials × simulated slots over studies."""
    return sum(
        int(getattr(result, "horizon", 0))
        for study in studies
        for result in study.results
    )


class Workload:
    """Shared shape: set up, run passes, check, tear down."""

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = int(seed)
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks: List[str] = []
        self.checks_run: set = set()
        self.clock: Optional[SetupClock] = None

    def setup(self) -> None:
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Between set-up steps: lets a timed set-up follow the host's speed."""
        if self.clock is not None:
            self.clock.checkpoint()

    def teardown(self) -> None:
        pass

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.checks) < 20:
            self.checks.append(why)


# ------------------------------------------------------------ paper-experiments


TINY_EXPERIMENTS = ("E1", "E6", "E10")


def load_reference() -> Dict[str, Any]:
    return json.loads((HERE / "reference.json").read_text())


class PaperExperiments(Workload):
    name = "paper-experiments"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        reference = load_reference()
        mode = reference["tiny" if tiny else "full"]
        table = reference["seed_table"]
        # The workload seed picks one of the experiment seeds whose
        # reference-kernel outputs were recorded (record_reference.py).
        self.exp_seed = table[0] if tiny else table[self.seed % len(table)]
        self.ids = list(mode["experiments"])
        self.config = ExperimentConfig(
            scale=mode["scale"], trials=mode["trials"], seed=self.exp_seed
        )
        self.expected = mode["seeds"][str(self.exp_seed)]
        self.pass_walls: List[float] = []
        self.latencies: Dict[str, List[float]] = {key: [] for key in self.ids}

    def setup(self) -> None:
        """RNG self-checks, then one untimed pass of the workload's own
        experiments and config, which fills every ``repro.sim.artifacts``
        table and probe estimate the timed passes use."""
        warm_process()
        for experiment_id in self.ids:
            experiments.run_experiment(experiment_id, self.config)
            self.checkpoint()

    def run_pass(self) -> Dict[str, Any]:
        results = {}
        walls = []
        before = host_slowdown()
        for experiment_id in self.ids:
            start = perf_counter()
            try:
                # Looked up at call time, so that the traced run's wrapper applies.
                results[experiment_id] = experiments.run_experiment(
                    experiment_id, self.config
                )
            except Exception as exc:  # noqa: BLE001 — counted as a failed op
                results[experiment_id] = exc
            walls.append(perf_counter() - start)
            after = host_slowdown()
            self.latencies[experiment_id].append(at_normal_speed(walls[-1], before, after))
            before = after
        self.pass_walls.append(sum(walls))
        return results

    def check_pass(self, results: Dict[str, Any]) -> None:
        for experiment_id, result in results.items():
            self.attempted += 1
            if isinstance(result, Exception):
                self.fail(f"{experiment_id} raised {result!r}")
                continue
            self.checks_run.add("reference-digest")
            if experiment_digest(result) != self.expected["digests"][experiment_id]:
                self.fail(f"{experiment_id} output differs from the reference suite")

    def pass_trial_slots(self) -> int:
        return int(self.expected["trial_slots"])


# ------------------------------------------------------------------ sweep-local


SWEEP_PROTOCOLS = ("cjz", "binary-exponential-backoff", "sawtooth-backoff")
SWEEP_JAMMING = (
    {"kind": "random-fraction", "params": {"fraction": 0.0}},
    {"kind": "random-fraction", "params": {"fraction": 0.1}},
    {"kind": "random-fraction", "params": {"fraction": 0.25}},
    {"kind": "reactive", "params": {"fraction": 0.1, "burst": 4}},
    {"kind": "reactive", "params": {"fraction": 0.25, "burst": 4}},
)


def derived_seeds(seed: int, count: int) -> List[int]:
    states = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(value) >> 1 for value in states]


class SweepLocal(Workload):
    name = "sweep-local"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        horizon = 512 if tiny else 4096
        arrivals = 12 if tiny else 48
        base = StudySpec.from_dict(
            {
                "protocol": {"kind": "cjz", "params": {}},
                "adversary": {
                    "kind": "composed",
                    "arrivals": {
                        "kind": "uniform-random",
                        "params": {"total": arrivals, "start": 1, "end": horizon // 4},
                    },
                    "jamming": dict(SWEEP_JAMMING[0]),
                },
                "horizon": horizon,
                "trials": 8,
                "workers": 1,
            }
        )
        self.sweep = Sweep(
            base,
            {
                "protocol": [{"kind": kind, "params": {}} for kind in SWEEP_PROTOCOLS],
                "adversary.jamming": [dict(jam) for jam in SWEEP_JAMMING],
                "seed": derived_seeds(self.seed, 2 if tiny else 8),
            },
        )
        size = self.sweep.size
        # A fixed sample of grid points re-run on the reference kernel.
        self.sample = sorted({0, size - 1} if tiny else {0, 13, 42, 55, 87, size - 1})
        self.first_rows: Optional[List[Dict[str, Any]]] = None
        self.pass_walls: List[float] = []
        self.latencies: Dict[str, List[float]] = {"sweep": []}
        self.slots_per_pass = 0
        self.passes = 0

    def setup(self) -> None:
        """RNG self-checks, then one untimed pass of the full grid into a
        throwaway store, which fills the program tables and probe estimates
        (keyed by protocol, jamming and horizon) the timed passes use."""
        warm_process()
        root = self.workdir / "store-warm"
        StudyPlan.from_sweep(self.sweep).run(store=StudyStore(root))
        shutil.rmtree(root, ignore_errors=True)

    def run_pass(self) -> Tuple[list, list]:
        root = self.workdir / f"store-{self.passes}"
        self.passes += 1
        before = host_slowdown()
        start = perf_counter()
        results = StudyPlan.from_sweep(self.sweep).run(store=StudyStore(root))
        rows = sweep_rows(results)
        self.pass_walls.append(perf_counter() - start)
        self.latencies["sweep"].append(
            at_normal_speed(self.pass_walls[-1], before, host_slowdown())
        )
        shutil.rmtree(root, ignore_errors=True)
        return results, rows

    def check_pass(self, results, rows) -> None:
        self.slots_per_pass = trial_slots(r.study for r in results if r.study is not None)
        stripped = [outcome_row(row) for row in rows]
        if self.first_rows is None:
            self.first_rows = stripped
            points = self.sweep.expand()
            for index in self.sample:
                reference = points[index].with_execution(backend="reference").run()
                want = outcome_row(reference.summary_row())
                got = {key: stripped[index].get(key) for key in want}
                if got != want:
                    self.fail(f"point {index} differs from its reference-kernel run")
            self.checks_run.add("reference-sample")
        self.checks_run.add("pass-identity")
        for index, row in enumerate(stripped):
            self.attempted += 1
            if row.get("status") != "ok" or row != self.first_rows[index]:
                self.fail(f"point {index} differs between passes")

    def pass_trial_slots(self) -> int:
        return self.slots_per_pass


# ----------------------------------------------------------------- sweep-served


#: Per thread and round: D = the shared fresh set both threads submit at
#: once (one executes, the other attaches), F = a fresh set, P = a set
#: pre-filled into the store in set-up, R = a repeat of a set this thread
#: already received (answered from the daemon's memory), and ``|`` = wait
#: until the other thread gets there too.  Only the D sets are sent by both
#: threads at once; every other request runs alone, the fresh sets first
#: and then the reads, one thread after the other.  A request waits for the
#: GIL (the daemon's behind a running job, the load generator's behind the
#: other client thread) for however long the other holds it, so requests
#: that overlapped took one of several typical times, and the median and
#: the 95th percentile fell on a different mix of them from run to run.
ROUND_SCHEDULE = (
    ("D", "|", "F", "|", "|", "P") + ("R",) * 12 + ("|",),
    ("D", "|", "|", "F", "|", "|") + ("R",) * 13,
)
SET_SIZE = 4
MAX_ROUNDS = 100
TRACED_ROUNDS = 15
#: First set index of each kind (warm-up sets take the indices below).
_PREFILL_SETS = 1_000
_ROUND_SETS = 10_000


@dataclasses.dataclass
class Request:
    thread: int
    number: int
    round: int
    kind: str
    specs: List[StudySpec]
    latency: float = 0.0
    outcomes: Any = None
    error: str = ""


class SweepServed(Workload):
    name = "sweep-served"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        base = get_scenario("adversarial-jam").study_spec(trials=2)
        self.base = dataclasses.replace(base, horizon=128 if tiny else 256)
        self._seed_base = derived_seeds(self.seed, 1)[0] % (1 << 29)
        self.max_rounds = 2 if tiny else MAX_ROUNDS
        self.daemon: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None
        self.local: Dict[str, Any] = {}
        self.requests: List[Request] = []
        self.releases: List[Tuple[float, float, float]] = []
        self.stats_delta: Dict[str, int] = {}

    def spec_set(self, index: int) -> List[StudySpec]:
        """The ``index``-th set of distinct specs; sets never share a seed."""
        first = self._seed_base + index * SET_SIZE
        return [
            dataclasses.replace(self.base, seed=first + offset)
            for offset in range(SET_SIZE)
        ]

    def round_set(self, round_index: int, slot: int) -> List[StudySpec]:
        """Round sets: slot 0 is the shared D set, slot 1 + t thread t's F set."""
        return self.spec_set(_ROUND_SETS + round_index * (1 + len(ROUND_SCHEDULE)) + slot)

    # ------------------------------------------------------------- set-up

    def setup(self, rounds: Optional[int] = None, launcher: Optional[List[str]] = None) -> None:
        """Pre-fill a fresh store, start the daemon, warm it up."""
        warm_process()
        rounds = self.max_rounds if rounds is None else rounds
        self.rounds_cap = rounds
        self.store_root = self.workdir / "serve-store"
        shutil.rmtree(self.store_root, ignore_errors=True)
        self.prefilled = [self.spec_set(_PREFILL_SETS + r) for r in range(rounds)]
        store = ShardedStudyStore(self.store_root, shards=2)
        flat = [spec for group in self.prefilled for spec in group]
        for result in StudyPlan(flat).run(store=store):
            self.local[result.spec.spec_hash()] = result.study
        self.checkpoint()
        self.start_daemon(launcher)
        self.checkpoint()
        self.history = [
            [self.spec_set(2 * thread), self.spec_set(2 * thread + 1)]
            for thread in range(len(ROUND_SCHEDULE))
        ]
        for thread_sets in self.history:
            for specs in thread_sets:
                self.client.submit(specs)

    def start_daemon(self, launcher: Optional[List[str]]) -> None:
        log = self.workdir / "daemon.log"
        journal = self.workdir / "serve.wal"
        journal.unlink(missing_ok=True)
        command = (launcher or [sys.executable, "-m", "repro.cli"]) + [
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "2",
            "--store-root",
            str(self.store_root),
            "--journal",
            str(journal),
        ]
        with open(log, "w") as handle:
            self.daemon = subprocess.Popen(
                command, stdout=handle, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL
            )
        deadline = time.monotonic() + 60.0
        address = None
        while address is None:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"daemon exited at start-up: {log.read_text()[-2000:]}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not report its address within 60 s")
            for line in log.read_text().splitlines():
                if "listening on " in line:
                    address = line.split("listening on ", 1)[1].split(" ", 1)[0]
                    break
            else:
                time.sleep(0.005)
        self.client = ServeClient.from_address(address, timeout=120.0, retries=0)
        while not self.client.ping():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not answer stats within 60 s")
            time.sleep(0.005)

    def stop_daemon(self) -> None:
        if self.daemon is None:
            return
        try:
            if self.daemon.poll() is None and self.client is not None:
                self.client.shutdown()
            self.daemon.wait(timeout=60)
        except Exception:  # noqa: BLE001 — make sure the daemon is gone
            self.daemon.kill()
            self.daemon.wait(timeout=30)
        self.daemon = None

    def teardown(self) -> None:
        self.stop_daemon()

    # ---------------------------------------------------------- timed phase

    def run_rounds(self, seconds: float, rounds: int, tag=None) -> None:
        """Both client threads run rounds until ``seconds`` or ``rounds``."""
        self.requests = []
        self.releases = []
        self.go = True
        before = self.client.stats()
        start = perf_counter()

        def release() -> None:
            # Between rounds, with both threads waiting: (end of the last
            # round, host slowdown, start of the next round).
            now = perf_counter()
            self.releases.append((now, host_slowdown(), perf_counter()))
            completed = len(self.releases) - 1
            self.go = completed < rounds and (completed == 0 or now - start < seconds)

        barrier = threading.Barrier(len(ROUND_SCHEDULE), action=release)
        phase_barrier = threading.Barrier(len(ROUND_SCHEDULE))
        lock = threading.Lock()
        errors: List[BaseException] = []

        def client_loop(thread: int) -> None:
            history = list(self.history[thread])
            number = 0
            round_index = 0
            try:
                while True:
                    barrier.wait(timeout=300)
                    if not self.go:
                        return
                    for position, kind in enumerate(ROUND_SCHEDULE[thread]):
                        if kind == "|":
                            phase_barrier.wait(timeout=300)
                            continue
                        if kind == "D":
                            specs = self.round_set(round_index, 0)
                        elif kind == "F":
                            specs = self.round_set(round_index, 1 + thread)
                        elif kind == "P":
                            specs = self.prefilled[round_index]
                        else:
                            specs = history[(round_index * 7 + position) % len(history)]
                        request = Request(thread, number, round_index, kind, specs)
                        number += 1
                        if tag is not None:
                            tag(request=f"{thread}-{request.number}", kind=kind)
                        begin = perf_counter()
                        try:
                            request.outcomes = self.client.submit(specs)
                        except Exception as exc:  # noqa: BLE001 — a failed op
                            request.error = f"{type(exc).__name__}: {exc}"
                        request.latency = perf_counter() - begin
                        with lock:
                            self.requests.append(request)
                        if kind != "R" and not request.error:
                            history.append(specs)
                    round_index += 1
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
                barrier.abort()
                phase_barrier.abort()

        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"client-{index}")
            for index in range(len(ROUND_SCHEDULE))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        if errors:
            raise errors[0]
        after = self.client.stats()
        self.stats_delta = {
            key: int(after.get(key, 0)) - int(before.get(key, 0))
            for key in ("executed", "cache_hits", "deduped", "failed")
        }

    @property
    def round_walls(self) -> List[float]:
        return [b[0] - a[2] for a, b in zip(self.releases, self.releases[1:])]

    def normal_speed_times(self) -> Tuple[List[float], List[float]]:
        """Round walls and request latencies at the host's normal speed,
        each scaled by the slowdown readings around its round."""
        marks = [(a[1], b[1]) for a, b in zip(self.releases, self.releases[1:])]
        walls = [at_normal_speed(wall, *mark) for wall, mark in zip(self.round_walls, marks)]
        latencies = [at_normal_speed(r.latency, *marks[r.round]) for r in self.requests]
        return walls, latencies

    def executed_specs_per_round(self) -> int:
        fresh = sum(1 for kinds in ROUND_SCHEDULE for kind in kinds if kind == "F")
        return (fresh + 1) * SET_SIZE  # plus the one shared D set

    def pass_trial_slots(self) -> int:
        return self.executed_specs_per_round() * self.base.trials * self.base.horizon

    # --------------------------------------------------------------- checks

    def check(self) -> None:
        """Every payload must equal a local ``StudyPlan.run`` of its spec."""
        missing = {}
        for request in self.requests:
            for spec in request.specs:
                digest = spec.spec_hash()
                if digest not in self.local:
                    missing[digest] = spec
        if missing:
            for result in StudyPlan(list(missing.values())).run():
                self.local[result.spec.spec_hash()] = result.study
        expected_cache: Dict[str, list] = {}
        self.checks_run.add("payload-vs-local")
        for request in self.requests:
            self.attempted += 1
            if request.error:
                self.fail(f"request {request.thread}-{request.number}: {request.error}")
                continue
            for spec, outcome in zip(request.specs, request.outcomes):
                digest = spec.spec_hash()
                want = expected_cache.get(digest)
                if want is None:
                    want = expected_cache[digest] = _records(self.local[digest])
                if not outcome.ok or outcome.study is None or _records(outcome.study) != want:
                    self.fail(
                        f"request {request.thread}-{request.number} ({request.kind}): "
                        f"payload for {digest[:12]} differs from the local run"
                    )
                    break

    def overhead_ms(self) -> List[float]:
        """Per request: latency minus the longest job run for it (requests
        answered from the store or memory ran no job)."""
        values = []
        for request in self.requests:
            if request.outcomes:
                longest = 0.0
                if request.kind in ("D", "F"):
                    longest = max(outcome.run_seconds for outcome in request.outcomes)
                values.append((request.latency - longest) * 1000.0)
        return values

    def job_run_seconds(self) -> float:
        """Σ run time of the jobs executed for this phase's requests."""
        seen = {}
        for request in self.requests:
            if request.kind in ("D", "F"):
                for outcome in request.outcomes or []:
                    seen[outcome.hash] = outcome.run_seconds
        return sum(seen.values())


def _records(study) -> List[Dict[str, Any]]:
    return [
        {
            key: value
            for key, value in result_record(result).items()
            if key not in ("backend", "wall_time_seconds")
        }
        for result in study.results
    ]


WORKLOADS = {
    PaperExperiments.name: PaperExperiments,
    SweepLocal.name: SweepLocal,
    SweepServed.name: SweepServed,
}
