"""Shared fixtures: the paper's running example and small random workloads.

Also registers the hypothesis profiles: the ``ci`` profile is deterministic
(``derandomize`` derives every example from the test itself — no ambient
random seed, no deadline flakes), so a property failure on CI reproduces
exactly with ``HYPOTHESIS_PROFILE=ci pytest <failing test>``.  The default
``dev`` profile keeps hypothesis's usual randomized search locally, where
finding *new* counterexamples is the point.
"""

from __future__ import annotations

import itertools
import os
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.paperdata import (
    figure2_database,
    four_cycle_cardinality_statistics,
    four_cycle_full_statistics,
)
from repro.query import (
    four_cycle_boolean,
    four_cycle_full,
    four_cycle_projected,
    path_query,
    triangle_query,
)
from repro.stats import statistics_for_query
from repro.utils import cancellation


@pytest.fixture
def four_cycle():
    return four_cycle_projected()


@pytest.fixture
def four_cycle_full_query():
    return four_cycle_full()


@pytest.fixture
def four_cycle_boolean_query():
    return four_cycle_boolean()


@pytest.fixture
def triangle():
    return triangle_query()


@pytest.fixture
def two_hop_path():
    return path_query(2, free_variables=("X1", "X3"))


@pytest.fixture
def figure2_db():
    return figure2_database()


@pytest.fixture
def s_box():
    """The paper's S□ (Eq. (23)) with N = 1000."""
    return four_cycle_cardinality_statistics(1000)


@pytest.fixture
def s_box_full():
    """The paper's S□full (Eq. (16)) with N = 1000 and C = 16."""
    return four_cycle_full_statistics(1000, 16)


@pytest.fixture
def hard_instance():
    return hard_four_cycle_instance(40)


@pytest.fixture
def random_four_cycle_db():
    return random_graph_database(four_cycle_projected(), 60, 12, seed=42)


@pytest.fixture
def triangle_stats():
    return statistics_for_query(triangle_query(), 1000)


@pytest.fixture
def stepping_clock(monkeypatch):
    """Deadline readings that advance one second each, so a sub-second
    deadline has passed by the first check after it is set: deadline tests
    trip without racing wall time."""
    monkeypatch.setattr(cancellation, "time",
                        SimpleNamespace(monotonic=itertools.count(0.0, 1.0).__next__))
