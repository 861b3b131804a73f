"""Micro-benchmarks of fused multi-study sweep dispatch.

Equality against per-point dispatch is asserted unconditionally — a fused
sweep must be seed-for-seed identical to running every point on its own,
whatever speedup it buys.  The ≥3x speedup floor is measured on a smaller
grid than the committed ``BENCH_*.json``'s ``sweep-fused-grid`` record (64
points) to keep CI fast; as everywhere in this suite the floor only guards
against collapses on noisy runners, the committed bench records the full
figure.
"""

from __future__ import annotations

import statistics
import time

from repro.spec import StudyPlan, StudySpec, Sweep, sweep_rows

#: Interleaved fused/per-point pass pairs behind the speedup medians.
REPEATS = 5

POINTS_AXES = {
    "adversary.jamming.params.fraction": [0.0, 0.15, 0.3],
    "seed": [101, 102, 103, 104, 105, 106, 107, 108],
}

TIMING_FIELDS = {
    "mean_wall_time_s",
    "mean_slots_per_s",
    "dispatch_seconds",
    "run_seconds",
}


def _sweep() -> Sweep:
    base = StudySpec.from_dict(
        {
            "protocol": {
                "kind": "cjz",
                "params": {"g": {"kind": "constant", "params": {"value": 4.0}}},
            },
            "adversary": {
                "kind": "composed",
                "arrivals": {"kind": "batch", "params": {"count": 12}},
                "jamming": {
                    "kind": "random-fraction",
                    "params": {"fraction": 0.0},
                },
            },
            "horizon": 192,
            "trials": 2,
            "seed": 101,
            "backend": "lockstep",
        }
    )
    return Sweep(base, POINTS_AXES)


def _strip_timing(rows):
    return [
        {key: value for key, value in row.items() if key not in TIMING_FIELDS}
        for row in rows
    ]


def test_fused_rows_equal_per_point_rows():
    sweep = _sweep()
    fused = StudyPlan.from_sweep(sweep).run(fuse=True)
    serial = StudyPlan.from_sweep(sweep).run(fuse=False)
    assert _strip_timing(sweep_rows(fused)) == _strip_timing(sweep_rows(serial))


def test_fused_sweep_speedup_floor():
    """Fused dispatch must beat per-point dispatch by at least 3x on a
    small-trial grid (the regime it exists for: fixed per-point costs
    dominating the simulation).  Fused and per-point passes alternate and
    their medians are compared, so a slow spell of the runner lands on
    both sides instead of on one."""
    sweep = _sweep()
    StudyPlan.from_sweep(sweep).run(fuse=True)  # warm-up (seed self checks)

    timings = {True: [], False: []}
    for _ in range(REPEATS):
        for fuse in (True, False):
            start = time.perf_counter()
            StudyPlan.from_sweep(sweep).run(fuse=fuse)
            timings[fuse].append(time.perf_counter() - start)
    fused_s = statistics.median(timings[True])
    serial_s = statistics.median(timings[False])
    speedup = serial_s / fused_s
    assert speedup >= 3.0, (
        f"fused sweep dispatch speedup collapsed: {speedup:.2f}x "
        f"(fused {fused_s:.3f}s vs per-point {serial_s:.3f}s)"
    )
