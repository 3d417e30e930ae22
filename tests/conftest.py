"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from tests.helpers import build_static_network, make_deterministic_channel_config


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams():
    """Deterministic random streams."""
    return RandomStreams(seed=1234)


@pytest.fixture
def det_channel_config():
    """Deterministic (fading-free) channel configuration."""
    return make_deterministic_channel_config()


@pytest.fixture
def line_network(sim, streams):
    """Five static nodes in a line, 150 m apart (class B links between
    neighbours, ~300 m two-hop distances are out of range)."""
    positions = [(i * 150.0, 0.0) for i in range(5)]
    return build_static_network(sim, streams, positions)
