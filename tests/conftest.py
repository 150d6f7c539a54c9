"""Shared helpers: synthetic trajectories for monitor tests."""

from __future__ import annotations

import re

import numpy as np
import pytest

from neckpinch.flow import SUMMARY_DTYPE, Trajectory
from neckpinch.grid import MetricState, PeriodicGrid


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS line; mirror failures so the
    # criterion log always shows one line per criterion
    if report.when != "call" or not report.failed:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        print(f"\nACCEPTANCE {match.group(1)}: FAIL - see {report.nodeid}")


def make_trajectory(
    ts,
    a_min,
    b_min=None,
    c_max=None,
    ratio_max=None,
    ecc_bc=None,
    ecc_ac=None,
    ord_ba=None,
    ord_cb=None,
    s_min=None,
    rm_max=None,
    sup_ap=0.0,
    sup_bp=0.0,
    sup_cp=0.0,
    grid_n=64,
    stop_reason="a_min_reached",
) -> Trajectory:
    """Assemble a Trajectory from plain series; unspecified columns default to
    a round, ordered, flat-derivative profile consistent with a_min. Its
    initial state, the one snapshot, is the round unit fiber under phi = 1
    at the first t."""
    ts = np.asarray(ts, dtype=float)
    a_min = np.asarray(a_min, dtype=float)
    n = ts.size

    def col(v, default):
        if v is None:
            v = default
        return np.broadcast_to(np.asarray(v, dtype=float), (n,))

    columns = {
        "t": ts,
        "dt": np.concatenate(([0.0], np.diff(ts))),
        "a_min": a_min,
        "b_min": col(b_min, a_min),
        "c_max": col(c_max, a_min),
        "ratio_max": col(ratio_max, 1.0),
        "ecc_bc": col(ecc_bc, 0.0),
        "ecc_ac": col(ecc_ac, 0.0),
        "ord_ba_min": col(ord_ba, 0.0),
        "ord_cb_min": col(ord_cb, 0.0),
        "s_min": col(s_min, 1.0),
        "rm_max": col(rm_max, 1.0),
        "sup_ap": col(sup_ap, 0.0),
        "sup_bp": col(sup_bp, 0.0),
        "sup_cp": col(sup_cp, 0.0),
    }
    samples = np.zeros(n, SUMMARY_DTYPE)
    for name, column in columns.items():
        samples[name] = column
    grid = PeriodicGrid(grid_n)
    initial = MetricState(grid, float(ts[0]), 1.0, (1.0, 1.0, 1.0))
    return Trajectory(samples, [initial], stop_reason=stop_reason)


@pytest.fixture
def synthetic_trajectory():
    return make_trajectory
