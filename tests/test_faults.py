"""The deterministic fault-injection subsystem.

Three layers under test:

* **Config validation** — every fault dataclass range-checks its fields
  in ``__post_init__`` (MacConfig style), and ``ScenarioConfig`` rejects
  fault windows that fall outside the simulation horizon.
* **Schedule compilation** — :meth:`FaultSchedule.compile` is a pure
  function of ``(config, n_nodes, seed, horizon)``: byte-identical
  signatures across repeated compiles, across execution/MAC/mobility
  backends, and sensitive to each input.
* **Runtime semantics** — ``Network.fail_node``/``recover_node`` take a
  node's radio off the air (topology, MAC, dispatch) and bring it back,
  with reason-set composition (overlapping blackout + churn, permanent
  energy death); and the end-to-end determinism contract: churn-enabled
  campaigns are byte-identical serial vs process-pool.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignSpec, run_campaign, save_results
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults import (
    BlackoutConfig,
    EnergyFaultConfig,
    FaultConfig,
    FaultSchedule,
    NodeChurnConfig,
    NodeOutage,
)

from tests.helpers import build_static_network


class TestFaultConfigValidation:
    def test_churn_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            NodeChurnConfig(crash_rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            NodeChurnConfig(crash_rate_per_s=-0.1)

    def test_churn_rejects_nonpositive_downtime(self):
        with pytest.raises(ConfigurationError):
            NodeChurnConfig(crash_rate_per_s=0.1, mean_downtime_s=0.0)

    def test_churn_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            NodeChurnConfig(crash_rate_per_s=0.1, start_s=-1.0)

    def test_churn_rejects_end_before_start(self):
        with pytest.raises(ConfigurationError):
            NodeChurnConfig(crash_rate_per_s=0.1, start_s=5.0, end_s=5.0)

    def test_outage_rejects_negative_node(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(node_id=-1, crash_s=1.0)

    def test_outage_rejects_negative_crash_time(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(node_id=0, crash_s=-1.0)

    def test_outage_rejects_recover_before_crash(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(node_id=0, crash_s=2.0, recover_s=2.0)
        with pytest.raises(ConfigurationError):
            NodeOutage(node_id=0, crash_s=2.0, recover_s=1.0)

    def test_blackout_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            BlackoutConfig(-1.0, 1.0, 0.0, 0.0, 100.0)

    def test_blackout_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            BlackoutConfig(0.0, 0.0, 0.0, 0.0, 100.0)

    def test_blackout_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigurationError):
            BlackoutConfig(0.0, 1.0, 0.0, 0.0, 0.0)

    def test_energy_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            EnergyFaultConfig(budget_j=0.0)

    def test_energy_rejects_jitter_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            EnergyFaultConfig(budget_j=1.0, budget_jitter=-0.1)
        with pytest.raises(ConfigurationError):
            EnergyFaultConfig(budget_j=1.0, budget_jitter=1.0)

    def test_energy_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            EnergyFaultConfig(budget_j=1.0, check_interval_s=0.0)

    def test_fault_config_rejects_wrong_element_types(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(outages=["not-an-outage"])
        with pytest.raises(ConfigurationError):
            FaultConfig(blackouts=[NodeOutage(0, 1.0)])

    def test_fault_config_coerces_lists_to_tuples(self):
        config = FaultConfig(outages=[NodeOutage(0, 1.0)])
        assert isinstance(config.outages, tuple)
        assert config.enabled()
        assert not FaultConfig().enabled()

    def test_scenario_rejects_churn_outside_horizon(self):
        faults = FaultConfig(churn=NodeChurnConfig(crash_rate_per_s=0.1, start_s=10.0))
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=5.0, faults=faults)
        faults = FaultConfig(
            churn=NodeChurnConfig(crash_rate_per_s=0.1, end_s=6.0)
        )
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=5.0, faults=faults)

    def test_scenario_rejects_outage_outside_horizon(self):
        faults = FaultConfig(outages=[NodeOutage(0, crash_s=5.0)])
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=5.0, faults=faults)

    def test_scenario_rejects_blackout_outside_horizon(self):
        faults = FaultConfig(blackouts=[BlackoutConfig(4.0, 2.0, 0.0, 0.0, 100.0)])
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=5.0, faults=faults)

    def test_scenario_rejects_non_faultconfig(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=5.0, faults=NodeChurnConfig(crash_rate_per_s=0.1))


CHURN = FaultConfig(churn=NodeChurnConfig(crash_rate_per_s=0.2, mean_downtime_s=2.0))


class TestScheduleCompilation:
    def test_compile_is_deterministic(self):
        a = FaultSchedule.compile(CHURN, n_nodes=20, seed=7, horizon=30.0)
        b = FaultSchedule.compile(CHURN, n_nodes=20, seed=7, horizon=30.0)
        assert len(a) > 0
        assert a.signature() == b.signature()

    def test_compile_sensitive_to_seed_and_shape(self):
        base = FaultSchedule.compile(CHURN, n_nodes=20, seed=7, horizon=30.0)
        assert base.signature() != FaultSchedule.compile(
            CHURN, n_nodes=20, seed=8, horizon=30.0
        ).signature()
        assert base.signature() != FaultSchedule.compile(
            CHURN, n_nodes=21, seed=7, horizon=30.0
        ).signature()

    def test_per_node_substreams_are_stable_under_node_count(self):
        """Node i's churn timeline never depends on how many other nodes
        exist — the per-node substream key is the node id."""
        small = FaultSchedule.compile(CHURN, n_nodes=5, seed=7, horizon=30.0)
        large = FaultSchedule.compile(CHURN, n_nodes=10, seed=7, horizon=30.0)
        node_events = lambda sched, node: [
            (e.time, e.action) for e in sched.events if e.node == node
        ]
        for node in range(5):
            assert node_events(small, node) == node_events(large, node)

    def test_events_sorted_with_recover_before_crash_tiebreak(self):
        faults = FaultConfig(
            outages=[
                NodeOutage(0, crash_s=1.0, recover_s=3.0),
                NodeOutage(1, crash_s=3.0),
            ]
        )
        sched = FaultSchedule.compile(faults, n_nodes=2, seed=1, horizon=10.0)
        assert [(e.time, e.action, e.node) for e in sched.events] == [
            (1.0, "crash", 0),
            (3.0, "recover", 0),
            (3.0, "crash", 1),
        ]

    def test_compile_rejects_outage_for_missing_node(self):
        faults = FaultConfig(outages=[NodeOutage(5, crash_s=1.0)])
        with pytest.raises(ConfigurationError):
            FaultSchedule.compile(faults, n_nodes=5, seed=1, horizon=10.0)

    def test_events_clipped_to_horizon(self):
        sched = FaultSchedule.compile(CHURN, n_nodes=20, seed=7, horizon=4.0)
        assert all(e.time < 4.0 for e in sched.events)

    def test_schedule_identical_across_protocols(self):
        """The compiled stream never reads simulation state: every
        protocol arms the same fault timeline for one seed."""
        schedules = [
            build_scenario(
                ScenarioConfig(
                    protocol=protocol,
                    n_nodes=15,
                    duration_s=5.0,
                    seed=3,
                    faults=CHURN,
                )
            ).fault_injector.schedule
            for protocol in ("aodv", "rica")
        ]
        assert schedules[0].events, "churn compiled no fault events"
        assert schedules[0].signature() == schedules[1].signature()


class TestNetworkFailRecover:
    def test_down_node_leaves_topology_and_dispatch(self, sim, streams):
        network, _ = build_static_network(
            sim, streams, [(0, 0), (100, 0), (200, 0)]
        )
        assert network.is_alive(1)
        assert 1 in network.neighbors(0, 0.0)

        assert network.fail_node(1) is True
        assert not network.is_alive(1)
        assert 1 not in network.neighbors(0, 0.0)
        assert not network.node(1).mac.enabled
        # Repeated failure is a no-op (reason bookkeeping only).
        assert network.fail_node(1) is False

        assert network.recover_node(1) is True
        assert network.is_alive(1)
        assert 1 in network.neighbors(0, 0.0)
        assert network.node(1).mac.enabled

    def test_overlapping_reasons_compose(self, sim, streams):
        """A node down for two reasons only recovers when the *last*
        reason clears — e.g. a churn crash inside a blackout window."""
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        assert network.fail_node(1, reason="churn") is True
        assert network.fail_node(1, reason=("blackout", 0)) is False
        # Clearing one of two reasons does not revive the node.
        assert network.recover_node(1, reason="churn") is False
        assert not network.is_alive(1)
        assert network.recover_node(1, reason=("blackout", 0)) is True
        assert network.is_alive(1)

    def test_energy_death_is_permanent_under_churn_recovery(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        network.fail_node(1, reason="energy")
        network.fail_node(1, reason="churn")
        network.recover_node(1, reason="churn")
        assert not network.is_alive(1)  # "energy" still in the reason set


def _fault_events(config: ScenarioConfig) -> dict:
    report = build_scenario(config).run()
    return {k: v for k, v in report.events.items() if k.startswith("fault_")}


class TestEndToEndInjection:
    def test_scripted_outage_emits_crash_and_recover(self):
        config = ScenarioConfig(
            protocol="aodv",
            n_nodes=10,
            duration_s=4.0,
            seed=2,
            faults=FaultConfig(outages=[NodeOutage(3, crash_s=1.0, recover_s=2.5)]),
        )
        events = _fault_events(config)
        assert events["fault_node_crash"] == 1
        assert events["fault_node_recover"] == 1

    def test_blackout_takes_down_disc_membership(self):
        # A disc big enough to swallow the whole field: every node goes
        # dark at 1 s and exactly that set comes back at 2 s.
        config = ScenarioConfig(
            protocol="aodv",
            n_nodes=10,
            duration_s=4.0,
            seed=2,
            faults=FaultConfig(
                blackouts=[BlackoutConfig(1.0, 1.0, 500.0, 500.0, 5000.0)]
            ),
        )
        events = _fault_events(config)
        assert events["fault_blackout_start"] == 1
        assert events["fault_blackout_end"] == 1
        assert events["fault_blackout_node_down"] == 10

    def test_energy_depletion_kills_nodes(self):
        config = ScenarioConfig(
            protocol="aodv",
            n_nodes=10,
            duration_s=5.0,
            seed=2,
            faults=FaultConfig(
                energy=EnergyFaultConfig(budget_j=1e-4, check_interval_s=0.5)
            ),
        )
        events = _fault_events(config)
        assert events.get("fault_energy_death", 0) > 0

    def test_churn_run_is_reproducible(self):
        config = ScenarioConfig(
            protocol="rica", n_nodes=15, duration_s=4.0, seed=11, faults=CHURN
        )
        reports = [
            json.dumps(dataclasses.asdict(build_scenario(config).run()), sort_keys=True)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["events"].get("fault_node_crash", 0) > 0

    def test_default_config_arms_no_injector(self):
        scenario = build_scenario(
            ScenarioConfig(protocol="aodv", n_nodes=10, duration_s=2.0, seed=1)
        )
        assert scenario.fault_injector is None

    def test_churn_campaign_serial_vs_pool_byte_identical(self, tmp_path):
        """The acceptance bar under faults: a churn-enabled campaign run
        with jobs=3 writes byte-identical JSON to the serial run."""
        spec = CampaignSpec(
            name="churn-determinism",
            base=ScenarioConfig(
                duration_s=2.0, n_nodes=10, n_flows=2, seed=5, faults=CHURN
            ),
            protocols=["aodv", "rica"],
            mean_speeds_kmh=[36.0],
            rates_pps=[10.0],
            trials=1,
        )
        serial_path, pool_path = tmp_path / "serial.json", tmp_path / "pool.json"
        save_results(run_campaign(spec), str(serial_path))
        save_results(run_campaign(spec, jobs=3), str(pool_path))
        assert serial_path.read_bytes() == pool_path.read_bytes()
