"""The benchmark's workloads: scenario shapes and their seed derivation.

A run of a workload simulates a fixed set of scenarios whose seeds are
drawn from the workload seed, so the same ``--seed`` always simulates the
same scenarios and yields byte-identical reports.  The modelled metrics
are pooled over that set; more, shorter scenarios keep their spread
across workload seeds small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.scenario import ScenarioConfig
from repro.faults import FaultConfig, NodeChurnConfig


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    #: Scenario template; ``seed`` and ``duration_s`` are set per scenario.
    config: ScenarioConfig
    #: Scenarios per run (each simulated once in full, then repeated for
    #: timing while the run's time budget lasts).
    scenarios: int
    #: Simulated seconds per scenario.
    sim_s: float
    #: Leading scenarios of the set that the traced run simulates.
    traced: int

    def scenario_seeds(self, seed: int) -> List[int]:
        """The run's scenario seeds, a pure function of the workload seed."""
        rng = random.Random(f"{self.name}/{seed}")
        return [rng.randrange(1, 2**31) for _ in range(self.scenarios)]

    def scenario(self, scenario_seed: int, duration_s: float = 0.0) -> ScenarioConfig:
        return self.config.with_(seed=scenario_seed, duration_s=duration_s or self.sim_s)


_STORM_NODES = 200

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-default",
            why="RICA at the paper's Sec. III-A point (50 nodes, 36 km/h, 10 flows x 10 pps); "
            "every figure sweeps around it",
            config=ScenarioConfig(protocol="rica"),
            scenarios=32,
            sim_s=5.0,
            traced=12,
        ),
        Workload(
            name="fast-churn",
            why="paper-default at 72 km/h with node churn: most route breaks and repairs, "
            "the only workload running the faults layer and RICA salvage",
            config=ScenarioConfig(
                protocol="rica",
                mean_speed_kmh=72.0,
                faults=FaultConfig(
                    churn=NodeChurnConfig(crash_rate_per_s=0.01, mean_downtime_s=5.0)
                ),
            ),
            scenarios=32,
            sim_s=5.0,
            traced=12,
        ),
        # Not in BENCHMARK.json: its modelled metrics cannot be made steady
        # within a run's time budget (see README.md).  Kept for traces.
        Workload(
            name="flood-storm",
            why="AODV, 200 nodes at paper density, 25 flows starting together: "
            "simultaneous RREQ floods on the common channel",
            config=ScenarioConfig(
                protocol="aodv",
                n_nodes=_STORM_NODES,
                field_size_m=1000.0 * math.sqrt(_STORM_NODES / 50.0),
                n_flows=25,
            ),
            scenarios=4,
            sim_s=1.0,
            traced=2,
        ),
    )
}
