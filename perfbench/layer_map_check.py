"""Checks that every traced function and event callback maps to a layer.

Without them, time silently lands in ``sim`` (outside every span) once a
module is deleted or a boundary class is reshaped.  The file name keeps
it out of the repository's default ``pytest`` collection; run it with::

    python3 -m pytest -q perfbench/layer_map_check.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import LayerTracer, layer_of_module, resolve_boundaries  # noqa: E402
from repro.experiments.scenario import build_scenario  # noqa: E402
from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_boundary_resolves_to_a_layer():
    targets, missing = resolve_boundaries()
    assert not missing, f"boundaries that no longer exist: {missing}"
    unowned = [f"{c.__module__}.{c.__qualname__}.{n}" for c, n in targets if layer_of_module(c.__module__) is None]
    assert not unowned, f"wrapped functions outside every layer: {unowned}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_event_callback_maps_to_a_layer(name):
    workload = WORKLOADS[name]
    config = workload.scenario(workload.scenario_seeds(1)[0], workload.sim_s / 10.0)
    plain = build_scenario(config)
    plain.run()
    tracer = LayerTracer()
    with tracer.installed():
        build_scenario(config).run()
    unowned = sorted(k for k, layer in tracer.callbacks.items() if layer is None)
    assert not unowned, f"callbacks outside every layer: {unowned}"
    unseen = sorted(set(plain.sim.event_kind_counts) - set(tracer.callbacks))
    assert not unseen, f"event kinds the tracer never resolved: {unseen}"


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
