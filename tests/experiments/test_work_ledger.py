"""Work ledger: exact deterministic work counts for two reference cells.

Wall time on a shared VM is too noisy to catch a small algorithmic
regression; these counts are exact.  A change that moves one on purpose
regenerates ``tests/data/work_ledger.json`` and says why in CHANGES.md::

    PYTHONPATH=src python tests/experiments/test_work_ledger.py --write

The cells: the Table-2 EW-MAC cell (60 sensors, mobile, 0.8 kbps, 300 s;
the ``paper_cell`` benchmark workload) and a tiled 300-node scale cell.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.config import table2_config
from repro.experiments.scale import scale_config
from repro.experiments.scenario import Scenario

LEDGER = Path(__file__).resolve().parents[1] / "data" / "work_ledger.json"

CELLS = {
    "table2_ewmac_seed1": lambda: table2_config(
        protocol="EW-MAC", offered_load_kbps=0.8, mobility=True,
        sim_time_s=300.0, seed=1,
    ),
    "scale300_8s_seed1": lambda: scale_config(300, 8.0, seed=1),
}


def measure(name: str) -> dict:
    """Run one ledger cell and return its work counts."""
    scenario = Scenario(CELLS[name]())
    scenario.run_steady_state()
    modems = [node.modem.stats for node in scenario.nodes]
    channel = scenario.channel.stats
    macs = scenario.macs
    return {
        "des.events": scenario.sim.events_processed,
        "channel.broadcasts": channel.broadcasts,
        "channel.deliveries": channel.deliveries,
        "geometry.grid_candidates": channel.grid_candidates,
        "geometry.rows_refreshed": channel.rows_refreshed,
        "modem.ok": sum(m.rx_ok for m in modems),
        "modem.noise": sum(m.rx_noise for m in modems),
        "modem.collision": sum(m.rx_collision for m in modems),
        "modem.half_duplex": sum(m.rx_half_duplex for m in modems),
        "modem.outage": sum(m.rx_outage for m in modems),
        "mac.handshakes_started": sum(m.stats.handshakes_started for m in macs),
        "mac.handshakes_completed": sum(m.stats.handshakes_completed for m in macs),
        "mac.extra_completed": sum(
            getattr(getattr(m, "extra_stats", None), "completed", 0) for m in macs
        ),
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_work_counts_match_ledger(name):
    expected = json.loads(LEDGER.read_text(encoding="utf-8"))[name]
    assert measure(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_work_ledger.py --write")
    ledger = {name: measure(name) for name in sorted(CELLS)}
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(ledger, indent=2, sort_keys=True))
