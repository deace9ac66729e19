"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Machine


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "mp: test needs the parallel-mp backend (fork start method + "
        "POSIX shared memory); skipped cleanly on platforms without them",
    )


def pytest_collection_modifyitems(config, items):
    # Skip-if-unavailable idiom: the parallel-mp backend ships plans by
    # fork inheritance and rebinds leaves through POSIX shared memory,
    # so on spawn-only platforms its tests skip (cleanly, by marker)
    # rather than fail -- tier 1 stays green everywhere.
    from repro.engine.mp import mp_supported

    if mp_supported():
        return
    skip_mp = pytest.mark.skip(
        reason="parallel-mp backend unavailable: no fork start method / "
        "POSIX shared memory on this platform"
    )
    for item in items:
        if "mp" in item.keywords:
            item.add_marker(skip_mp)


@pytest.fixture(autouse=True)
def empty_plan_cache():
    """Every test starts and ends with an empty plan cache.

    ``run_qr`` on an engine backend caches its plan, and a cached plan
    keeps the lanes it was compiled with: a plan left by one test would
    replay in the next one without recompiling, which silently defeats
    ``first_execute_on_workers`` (it patches ``TWO_LANE_FLOPS`` for the
    compiles it expects).  Clearing also closes cached process pools.
    """
    from repro.engine.batch import clear_plan_cache

    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def machine4():
    return Machine(4)


@pytest.fixture
def machine8():
    return Machine(8)


@pytest.fixture
def first_execute_on_workers(monkeypatch):
    """Compile every thread-engine plan for ``workers`` lanes.

    Test-size plans are far finer than ``TWO_LANE_FLOPS``, so the engine
    would compile them for one lane: no pool, no rendezvous.  Tests of
    multi-lane behaviour (bit-identity across workers, cross-worker
    hand-offs, abort under faults) use this to keep real threads.
    Returns the lane count of every execute, in order, so a test can
    assert the coverage holds.
    """
    from repro.engine import executor

    monkeypatch.setattr(executor, "TWO_LANE_FLOPS", 0.0)
    lanes: list[int] = []
    run = executor.Engine._execute_compiled

    def spy(self, pending, timeout):
        lanes.append(self.lanes)
        return run(self, pending, timeout)

    monkeypatch.setattr(executor.Engine, "_execute_compiled", spy)
    return lanes


@pytest.fixture
def traced_machine():
    """Machine factory with tracing on, for clock-vs-DAG cross checks."""

    def make(P: int) -> Machine:
        return Machine(P, trace=True)

    return make


def assert_clocks_match_trace(machine: Machine, tol: float = 1e-9) -> None:
    """The online max-plus clocks must equal the offline DAG longest path."""
    assert machine.trace is not None, "machine must be created with trace=True"
    rep = machine.report()
    for metric in ("flops", "words", "messages"):
        offline = machine.trace.critical_path(metric)
        online = getattr(rep, f"critical_{metric}")
        assert abs(offline - online) <= tol, (
            f"{metric}: online {online} != offline {offline}"
        )
