#!/usr/bin/env python3
"""Domain scenario: Ethernet-style bursty traffic with external interference.

The paper motivates contention resolution with congestion control on shared
media (Ethernet, 802.11).  This example starts from the named
``ethernet-burst`` scenario (a first-class, JSON-serializable spec), derives
a heavier variant with 25% interference by overriding two spec fields, and
shows how the system drains each burst — including a per-window success-rate
timeline read from the result's columnar prefix counters
(``result.counters.windowed_successes``).

Run it with::

    python examples/ethernet_burst.py

Set ``REPRO_EXAMPLES_SCALE=smoke`` for a fast CI-sized run.
"""

import os

from repro.metrics import summarize_latencies
from repro.workloads import get_scenario

SMOKE = os.environ.get("REPRO_EXAMPLES_SCALE") == "smoke"
HORIZON = 2048 if SMOKE else 16384
BURST_SIZE = 8 if SMOKE else 32
BURST_PERIOD = 256 if SMOKE else 2048
JAM_FRACTION = 0.25


def main() -> None:
    scenario = get_scenario("ethernet-burst")
    print(f"Scenario '{scenario.key}': {scenario.description}")
    print("This example runs a heavier variant of it with 25% interference.\n")

    # The scenario is a spec; the heavier variant is a few dotted-path
    # overrides away (burst shape, horizon, and random-fraction jamming).
    study = scenario.study_spec(trials=1, seed=99).with_overrides(
        {
            "horizon": HORIZON,
            "adversary.arrivals.params.burst_size": BURST_SIZE,
            "adversary.arrivals.params.period": BURST_PERIOD,
            "adversary.jamming.kind": "random-fraction",
            "adversary.jamming.params": {"fraction": JAM_FRACTION},
            "label": "ethernet-burst-heavy",
        }
    )

    result = study.run().results[0]

    print(result.describe())
    latency = summarize_latencies([result])
    print(
        f"stations served: {result.total_successes}/{result.total_arrivals}, "
        f"latency mean {latency.mean:.0f} / p95 {latency.p95:.0f} slots\n"
    )

    print("deliveries per burst period (each window is one burst interval):")
    windows = result.counters.windowed_successes(BURST_PERIOD).tolist()
    for index, count in enumerate(windows, start=1):
        bar = "#" * count
        print(f"  window {index:2d}: {count:3d} {bar}")


if __name__ == "__main__":
    main()
