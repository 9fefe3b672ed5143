"""Shared fixtures for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(_SRC))

from repro.experiments.scales import SMOKE  # noqa: E402  (path setup must come first)
from repro.link import LinkConfig  # noqa: E402
from repro.scenarios import ScenarioSpec, run_scenario_grid  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_config() -> LinkConfig:
    """A very small link configuration keeping end-to-end tests fast."""
    return LinkConfig(
        payload_bits=56,
        crc_bits=16,
        modulation="16QAM",
        effective_code_rate=0.6,
        turbo_iterations=3,
        max_transmissions=3,
    )


@pytest.fixture
def tiny_64qam_config() -> LinkConfig:
    """A small 64QAM configuration (the paper's modulation mode)."""
    return LinkConfig(
        payload_bits=104,
        crc_bits=16,
        modulation="64QAM",
        effective_code_rate=0.7,
        turbo_iterations=3,
        max_transmissions=4,
    )


@pytest.fixture
def run_fault_grid():
    """Run a small fault-map scenario grid and return its merged points.

    The link is ``tiny_64qam_config``'s 64QAM, 104-bit-payload, 3-iteration
    mode as a scale preset (the scenario engine keeps the preset's 0.75 code
    rate); *fields* are :class:`~repro.scenarios.spec.ScenarioSpec` fields
    such as ``snr_db``, ``defect_rate``, ``protection`` and ``axes``.
    """

    def run(*, num_packets: int, num_fault_maps: int, seed: int, **fields):
        spec = ScenarioSpec(name="test-grid", title="test grid", summary="test grid", **fields)
        scale = SMOKE.with_updates(
            payload_bits=104,
            turbo_iterations=3,
            num_packets=num_packets,
            num_fault_maps=num_fault_maps,
        )
        return run_scenario_grid(spec, scale, seed)

    return run
