"""Unit tests for the delay models."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.network.delays import (
    ConstantDelay,
    ExponentialDelay,
    JitteredPerReceiverDelay,
    PerLinkDelay,
    TargetedDelay,
    UniformDelay,
)


RNG = random.Random(0)


class TestSimpleModels:
    def test_constant(self):
        model = ConstantDelay(2.5)
        assert model.delay(0, 1, None, 0.0, RNG) == 2.5
        assert "2.5" in model.describe()

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantDelay(0.0)

    def test_uniform_within_bounds(self):
        model = UniformDelay(1.0, 3.0)
        for _ in range(100):
            assert 1.0 <= model.delay(0, 1, None, 0.0, RNG) <= 3.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(0.0, 1.0)

    def test_exponential_positive_and_above_minimum(self):
        model = ExponentialDelay(mean=1.0, minimum=0.2)
        for _ in range(100):
            assert model.delay(0, 1, None, 0.0, RNG) >= 0.2

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            ExponentialDelay(mean=0.0)

    def test_jittered_is_deterministic_per_receiver(self):
        model = JitteredPerReceiverDelay(base=1.0, spread=2.0)
        first = model.delay(0, "x", None, 0.0, RNG)
        second = model.delay(5, "x", None, 9.0, RNG)
        assert first == second
        assert 1.0 <= first <= 3.0

    def test_jittered_delays_do_not_depend_on_string_hashing(self):
        script = """
import json
from repro.graphs.generators import figure_1a
from repro.network.delays import JitteredPerReceiverDelay
model = JitteredPerReceiverDelay()
nodes = sorted(figure_1a().nodes)
print(json.dumps([model.delay(None, node, None, 0.0, None) for node in nodes]))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]
        assert len(set(outputs[0])) > 1


class TestCompositeModels:
    def test_per_link_overrides(self):
        model = PerLinkDelay(ConstantDelay(1.0))
        model.set_link(0, 1, ConstantDelay(9.0))
        assert model.delay(0, 1, None, 0.0, RNG) == 9.0
        assert model.delay(1, 0, None, 0.0, RNG) == 1.0
        assert "per-link" in model.describe()

    def test_targeted_delay_holds_back_slow_edges(self):
        model = TargetedDelay(slow_edges=[(0, 1)], release_time=100.0, fast_model=ConstantDelay(0.5))
        assert model.delay(0, 1, None, 0.0, RNG) >= 100.0
        assert model.delay(1, 0, None, 0.0, RNG) == 0.5

    def test_targeted_delay_relative_to_current_time(self):
        model = TargetedDelay(slow_edges=[(0, 1)], release_time=100.0)
        # Even when sent late, the message stays far in the future.
        assert model.delay(0, 1, None, 90.0, RNG) >= 100.0 - 90.0

    def test_targeted_delay_validation(self):
        with pytest.raises(ValueError):
            TargetedDelay(slow_edges=[], release_time=0.0)
