"""Ablations on RICA's design knobs.

The paper prescribes a ~1 s CSI-checking period ("this has to be decided
by the change speed of the link CSI"); beyond the paper, duplicate
copies with a better CSI distance may refine a node's downstream pointer
(``ProtocolConfig.refine_pointers``).  These benchmarks quantify both:

* checking faster buys fresher routes at a proportional overhead cost;
* pointer refinement is what makes the RUPD path realise the CSI distance
  the source selected.
"""

import pytest

from repro.analysis.tables import format_table
from repro.core.rica import RicaConfig
from repro.experiments.scenario import ScenarioConfig, run_scenario

BASE = dict(
    protocol="rica",
    n_nodes=30,
    n_flows=6,
    duration_s=10.0,
    field_size_m=800.0,
    mean_speed_kmh=36.0,
    seed=5,
)


def test_check_interval_tradeoff(benchmark):
    """Overhead scales with checking frequency (the protocol's price dial)."""

    def sweep():
        results = {}
        for interval in (0.5, 1.0, 2.0):
            config = ScenarioConfig(
                protocol_config=RicaConfig(check_interval_s=interval), **BASE
            )
            results[interval] = run_scenario(config)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [interval, r.overhead_kbps, r.delivery_pct, r.avg_delay_ms]
        for interval, r in sorted(results.items())
    ]
    print()
    print(
        format_table(
            ["check_interval_s", "overhead_kbps", "delivery_%", "delay_ms"],
            rows,
            title="RICA CSI-checking interval ablation",
        )
    )
    # More frequent checking must cost more control traffic.
    assert results[0.5].overhead_kbps > results[2.0].overhead_kbps


def test_pointer_refinement(benchmark):
    """Pointer refinement vs the paper's literal first-copy tree."""

    def compare():
        out = {}
        for refine in (True, False):
            config = ScenarioConfig(
                protocol_config=RicaConfig(refine_pointers=refine), **BASE
            )
            out[refine] = run_scenario(config)
        return out

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [
        [str(refine), r.avg_link_throughput_kbps, r.delivery_pct, r.avg_delay_ms]
        for refine, r in results.items()
    ]
    print()
    print(
        format_table(
            ["refine_pointers", "link_kbps", "delivery_%", "delay_ms"],
            rows,
            title="RICA downstream-pointer refinement ablation",
        )
    )
    # Both variants must remain functional protocols.
    assert all(r.delivery_pct > 50.0 for r in results.values())
