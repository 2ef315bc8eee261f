"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.netsim.simulation import SimulationConfig


@pytest.fixture
def rng() -> random.Random:
    """Deterministic random source for trace-generation tests."""
    return random.Random(1234)


@pytest.fixture
def short_config() -> SimulationConfig:
    """A short simulation configuration used to keep unit tests fast."""
    return SimulationConfig(duration=2.0)


@pytest.fixture
def paper_config() -> SimulationConfig:
    """The paper's section-4 configuration (5 s at 12 Mbps, 20 ms delay)."""
    return SimulationConfig()
