"""Sliding-window rate / ETA estimation for progress heartbeats."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr

import pytest

from repro.config import Consistency, Protocol
from repro.harness.progress import RateEstimator, format_duration
from repro.harness.runner import ExperimentRunner


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# format_duration
# ---------------------------------------------------------------------------

def test_format_duration_picks_a_sensible_unit():
    assert format_duration(0) == "0s"
    assert format_duration(42.4) == "42s"
    assert format_duration(188) == "3m08s"
    assert format_duration(2 * 3600 + 5 * 60) == "2h05m"
    assert format_duration(-3) == "0s"


# ---------------------------------------------------------------------------
# RateEstimator
# ---------------------------------------------------------------------------

def test_no_estimate_before_the_first_tick():
    estimator = RateEstimator(clock=FakeClock())
    assert estimator.rate() is None
    assert estimator.eta_seconds(10) is None
    assert estimator.suffix(10) == ""


def test_rate_and_eta_from_uniform_ticks():
    clock = FakeClock()
    estimator = RateEstimator(clock=clock)
    for _ in range(4):
        clock.now += 2.0
        estimator.tick()
    assert estimator.rate() == pytest.approx(0.5)
    assert estimator.eta_seconds(10) == pytest.approx(20.0)
    assert estimator.suffix(10) == ", 2.0s/point, eta 20s"


def test_fast_rates_render_per_second():
    clock = FakeClock()
    estimator = RateEstimator(clock=clock)
    for _ in range(5):
        clock.now += 0.25
        estimator.tick()
    assert estimator.suffix(8) == ", 4.0/s, eta 2s"


def test_window_tracks_the_recent_regime():
    clock = FakeClock()
    estimator = RateEstimator(window=4, clock=clock)
    # slow early points...
    for _ in range(6):
        clock.now += 100.0
        estimator.tick()
    # ...then a fast tail: the window must forget the slow phase
    for _ in range(4):
        clock.now += 1.0
        estimator.tick()
    assert estimator.rate() == pytest.approx(1.0)


def test_window_must_hold_two_ticks():
    with pytest.raises(ValueError):
        RateEstimator(window=1)


def test_zero_span_yields_no_estimate():
    clock = FakeClock()
    estimator = RateEstimator(clock=clock)
    estimator.tick()  # same instant as construction
    assert estimator.rate() is None
    assert estimator.suffix(3) == ""


# ---------------------------------------------------------------------------
# heartbeat integration
# ---------------------------------------------------------------------------

def test_sequential_prefetch_heartbeats_carry_eta(tmp_path):
    runner = ExperimentRunner(preset="tiny", scale=0.2, seed=7,
                              progress=True)
    points = ExperimentRunner.matrix_points(["BFS"])
    stream = io.StringIO()
    with redirect_stderr(stream):
        runner.prefetch(points)
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(points)
    # the first line has only one tick of history — no estimate yet;
    # later lines must carry one
    assert re.search(r"eta \d", lines[-1])
    assert re.search(r"(/s|s/point)", lines[-1])


def test_parallel_pool_heartbeats_carry_eta(tmp_path):
    import os
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs 2 cores for a real pool")
    runner = ExperimentRunner(jobs=2, preset="tiny", scale=0.2, seed=7,
                              progress=True)
    stream = io.StringIO()
    with redirect_stderr(stream):
        runner.prefetch(ExperimentRunner.matrix_points(["BFS", "KM"]))
    text = stream.getvalue()
    assert "worker process(es)" in text
    assert re.search(r"eta \d", text)
