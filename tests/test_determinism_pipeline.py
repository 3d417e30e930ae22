"""Differential determinism tests for the batched reception pipeline.

The engine's same-timestamp batch sweep, the MAC's ``ReceptionBatch``
dispatch and the network's precomputed handler table are all meant to be
*invisible*: for a fixed seed the metrics report must be byte-identical
to what a one-event-at-a-time reference execution produces.  These tests
pin that down end-to-end (full RICA/AODV scenarios through
``json.dumps``), plus hypothesis property tests for the ``(time, seq)``
same-time ordering contract the batch sweep must preserve.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.sim.engine import Simulator

BASE = ScenarioConfig(protocol="rica", n_nodes=20, duration_s=3.0, seed=5)


def _report_json(report) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def _run_batched(config: ScenarioConfig) -> str:
    """The production path: Scenario.run -> Simulator.run batch sweep."""
    return _report_json(build_scenario(config).run())


def _run_stepped(config: ScenarioConfig) -> str:
    """Reference execution: one Simulator.step() per event, no batching."""
    scenario = build_scenario(config)
    # Scenario.start() arms the same population run() does — including the
    # fault schedule when config.faults is set.
    scenario.start()
    sim = scenario.sim
    while True:
        t = sim.peek_time()
        if t is None or t > config.duration_s:
            break
        sim.step()
    for proto in scenario.protocols:
        proto.stop()
    return _report_json(scenario.metrics.report())


class TestPipelineDeterminism:
    def test_batched_run_matches_stepped_reference_rica(self):
        assert _run_batched(BASE) == _run_stepped(BASE)

    def test_batched_run_matches_stepped_reference_aodv(self):
        config = BASE.with_(protocol="aodv")
        assert _run_batched(config) == _run_stepped(config)

    def test_repeated_runs_byte_identical(self):
        assert _run_batched(BASE) == _run_batched(BASE)

    def test_aggregation_on_is_deterministic(self):
        config = BASE.with_(protocol="aodv", rreq_aggregation_s=0.02)
        assert _run_batched(config) == _run_stepped(config) == _run_batched(config)

    def test_churn_run_matches_stepped_reference(self):
        """Fault events drain through the same (time, seq) queue as
        traffic: run-vs-step equality must survive node churn."""
        from repro.faults import FaultConfig, NodeChurnConfig

        config = BASE.with_(
            protocol="aodv",
            faults=FaultConfig(
                churn=NodeChurnConfig(crash_rate_per_s=0.1, mean_downtime_s=1.0)
            ),
        )
        assert _run_batched(config) == _run_stepped(config) == _run_batched(config)

    def test_aggregation_off_vs_on_differ(self):
        """Sanity check the knob is actually wired through build_scenario."""
        config = BASE.with_(protocol="aodv", mean_speed_kmh=72.0)
        off = json.loads(_run_batched(config))
        on = json.loads(_run_batched(config.with_(rreq_aggregation_s=0.04)))
        assert "rreq_suppressed" in on["events"] or "rreq_coalesced" in on["events"]
        assert "rreq_suppressed" not in off["events"]


class TestSameTimeOrderingProperties:
    @given(times=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_fire_order_is_time_then_schedule_order(self, times):
        sim = Simulator()
        fired = []
        for i, t in enumerate(times):
            sim.schedule(t, fired.append, (t, i))
        sim.run()
        assert fired == sorted(fired)

    @given(
        times=st.lists(st.sampled_from([1.0, 1.0, 2.0]), min_size=1, max_size=30),
        cancel_mask=st.lists(st.booleans(), min_size=30, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancellations_do_not_perturb_survivor_order(self, times, cancel_mask):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(t, fired.append, (t, i)) for i, t in enumerate(times)]
        survivors = []
        for i, handle in enumerate(handles):
            if cancel_mask[i]:
                handle.cancel()
            else:
                survivors.append((times[i], i))
        sim.run()
        assert fired == sorted(survivors)
        assert sim.events_processed == len(survivors)

    @given(n_chained=st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_zero_delay_chains_fire_after_existing_batch(self, n_chained):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(f"chain{depth}")
            if depth < n_chained:
                sim.schedule(0.0, chain, depth + 1)

        sim.schedule(1.0, chain, 0)
        sim.schedule(1.0, fired.append, "sibling")
        sim.run()
        assert fired == ["chain0", "sibling"] + [f"chain{d}" for d in range(1, n_chained + 1)]
