"""Resilience benchmark: delivery and route repair under node churn.

The fault subsystem's trajectory metric: at the flood-storm stress point
(n = 200, paper density, 25 simultaneous flows) with deterministic node
churn switched on, how much delivery does each protocol keep, how many
route breaks does the churn cause, and how fast are they repaired?
AODV (timeout-driven rediscovery) and RICA (receiver-initiated repair
with salvaging) are the two poles the paper contrasts.

Results land in ``BENCH_resilience.json`` at the repo root via the shared
``bench_json_recorder`` fixture when ``REPRO_BENCH_RECORD=1``, uploaded
with the other BENCH artefacts.

CI gate: delivery under churn must stay above a floor fraction of the
fault-free baseline — the protocols must *degrade*, not collapse, when
nodes start dying (the fault model takes radios off the air; it must not
take the routing layer down with them).
"""

from __future__ import annotations

import math
import time

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults import FaultConfig, NodeChurnConfig

N_NODES = 200
#: Constant paper density: 50 terminals per 1000 m x 1000 m.
FIELD_M = 1000.0 * math.sqrt(N_NODES / 50.0)
N_FLOWS = 25
DURATION_S = 5.0
#: Per-node crash hazard (crashes/s) and mean downtime for the churn leg:
#: ~20 expected crashes across the 200-node run, each ~2 s long.
CHURN_RATE = 0.02
MEAN_DOWNTIME_S = 2.0
#: CI gate: delivery under churn as a fraction of the fault-free
#: baseline, per protocol.  Churn this size costs some delivery (dead
#: relays drop their queues) but must never collapse it.
MIN_DELIVERY_RETENTION = 0.5


def _run(protocol: str, churn: bool) -> dict:
    faults = (
        FaultConfig(
            churn=NodeChurnConfig(
                crash_rate_per_s=CHURN_RATE, mean_downtime_s=MEAN_DOWNTIME_S
            )
        )
        if churn
        else None
    )
    scenario = build_scenario(
        ScenarioConfig(
            protocol=protocol,
            n_nodes=N_NODES,
            field_size_m=FIELD_M,
            n_flows=N_FLOWS,
            duration_s=DURATION_S,
            seed=1,
            faults=faults,
        )
    )
    start = time.perf_counter()
    report = scenario.run()
    wall_s = time.perf_counter() - start
    return {
        "delivery_pct": round(report.delivery_pct, 2),
        "avg_delay_ms": round(report.avg_delay_ms, 1),
        "route_breaks": report.route_breaks,
        "route_repairs": report.route_repairs,
        "avg_repair_latency_ms": round(report.avg_repair_latency_ms, 1),
        "dead_next_hop_losses": report.dead_next_hop_losses,
        "node_crashes": report.events.get("fault_node_crash", 0),
        "node_recoveries": report.events.get("fault_node_recover", 0),
        "wall_s": round(wall_s, 2),
    }


def test_delivery_under_churn(bench_json_recorder):
    payload = {
        "n_nodes": N_NODES,
        "field_m": round(FIELD_M, 1),
        "n_flows": N_FLOWS,
        "duration_s": DURATION_S,
        "churn_rate_per_s": CHURN_RATE,
        "mean_downtime_s": MEAN_DOWNTIME_S,
        "workload": "flood-storm stress point with deterministic node churn",
        "results": {},
    }
    retention = {}
    for protocol in ("aodv", "rica"):
        baseline = _run(protocol, churn=False)
        churned = _run(protocol, churn=True)
        kept = (
            churned["delivery_pct"] / baseline["delivery_pct"]
            if baseline["delivery_pct"]
            else math.inf
        )
        retention[protocol] = kept
        payload["results"][protocol] = {
            "baseline": baseline,
            "under_churn": churned,
            "delivery_retention": round(kept, 3),
        }
        print(
            f"\n{protocol}: delivery {baseline['delivery_pct']:.1f}% -> "
            f"{churned['delivery_pct']:.1f}% under churn "
            f"({churned['node_crashes']} crashes, "
            f"{churned['route_breaks']} breaks, "
            f"{churned['route_repairs']} repairs, "
            f"repair {churned['avg_repair_latency_ms']:.0f} ms)"
        )
        # The churn actually bit: faults fired and breaks were observed.
        assert churned["node_crashes"] > 0
    bench_json_recorder("resilience", payload)
    # CI regression gate: churn-sized failures must degrade delivery
    # gracefully, not collapse it.
    assert retention["aodv"] >= MIN_DELIVERY_RETENTION
    assert retention["rica"] >= MIN_DELIVERY_RETENTION
