#!/usr/bin/env python3
"""Domain scenario: disaster-warning burst drain.

Another of the paper's motivating applications ("disaster warning"): a
seismic event triggers a burst of alarm reports from many sensors at once,
and what matters is how fast the network can *drain* the burst to the
surface — the paper's Fig. 8 "execution time" metric, here on an
operationally-framed workload.

Run:
    python examples/disaster_warning_drain.py
"""

from repro.experiments import Scenario, table2_config
from repro.experiments.engine import PAPER_PROTOCOLS


def main() -> None:
    n_alarms = 60
    print(f"Seismic event: {n_alarms} alarm packets injected across the "
          "array; measuring time to drain them to the surface.\n")
    print(f"{'protocol':10s} {'drain s':>9s} {'completed':>10s} {'energy J':>10s}")
    print("-" * 44)
    for protocol in PAPER_PROTOCOLS:
        config = table2_config(
            protocol=protocol,
            n_sensors=60,
            sim_time_s=300.0,
            data_packet_bits=1024,   # short urgent alarms
            seed=23,
            max_retries=100,         # alarms must get through
        )
        scenario = Scenario(config)
        result = scenario.run_batch(n_packets=n_alarms, max_time_s=1800.0)
        execution = result.execution
        status = "TIMEOUT" if execution.timed_out else f"{execution.drain_time_s:9.1f}"
        print(
            f"{protocol:10s} {status:>9s} {execution.completed:10d} "
            f"{result.energy.total_j:10.0f}"
        )
    print("\nProtocols that exploit waiting resources clear the alarm burst")
    print("sooner and with less energy spent idling (paper Figs. 8-9).")


if __name__ == "__main__":
    main()
