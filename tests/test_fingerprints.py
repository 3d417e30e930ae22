"""Committed behaviour fingerprints: the byte-identity tripwire.

Each cell of a small scenario matrix — every protocol, fault-free and
under node churn — is run and its
:class:`~repro.metrics.report.MetricsReport` reduced to the sha256 of its
canonical JSON (``json.dumps(dataclasses.asdict(report), sort_keys=True)``).
The digests live in ``tests/fingerprints.json``.  A refactor that claims
"same behaviour" must leave every digest unchanged; a change that alters
behaviour on purpose regenerates the table in the same change and says
why::

    PYTHONPATH=src python tests/test_fingerprints.py --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults import FaultConfig, NodeChurnConfig
from repro.metrics.report import MetricsReport

TABLE = Path(__file__).with_name("fingerprints.json")

PROTOCOLS = ("rica", "bgca", "abr", "aodv", "link_state")
FAULTS = ("fault-free", "churn")

N_NODES = 30
#: Paper density (50 terminals per km^2) at 30 nodes.
FIELD_M = 1000.0 * math.sqrt(N_NODES / 50.0)
#: Heavy churn so every churn cell crashes at least one node in 4 sim-s.
CHURN = FaultConfig(churn=NodeChurnConfig(crash_rate_per_s=0.05, mean_downtime_s=1.0))


def cell_id(protocol: str, faults: str) -> str:
    # "scalar" names the per-node mobility models every cell runs on.
    return f"{protocol}/{faults}/scalar"


CELLS = [(p, f) for p in PROTOCOLS for f in FAULTS]


def cell_config(protocol: str, faults: str) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=N_NODES,
        field_size_m=FIELD_M,
        n_flows=6,
        duration_s=4.0,
        seed=7,
        faults=CHURN if faults == "churn" else None,
    )


def report_digest(report: MetricsReport) -> str:
    payload = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_cell(protocol: str, faults: str) -> Tuple[str, int]:
    """``(report digest, crashes)`` of one matrix cell."""
    scenario = build_scenario(cell_config(protocol, faults))
    report = scenario.run()
    injector = scenario.fault_injector
    return report_digest(report), injector.crashes if injector is not None else 0


def load_table() -> Dict[str, str]:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("protocol,faults", CELLS, ids=[cell_id(*c) for c in CELLS])
def test_report_fingerprint(protocol, faults):
    digest, crashes = run_cell(protocol, faults)
    if faults == "churn":
        assert crashes >= 1, "churn cell crashed no node: the fault path went untested"
    assert digest == load_table()[cell_id(protocol, faults)]


def test_table_covers_exactly_the_matrix():
    assert set(load_table()) == {cell_id(*c) for c in CELLS}


def _update() -> None:
    table = {cell_id(*c): run_cell(*c)[0] for c in CELLS}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} fingerprints to {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fingerprints.py --update")
    _update()
