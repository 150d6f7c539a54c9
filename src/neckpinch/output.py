"""Serialization of trajectories, reports and tables.

The series CSV column set is stable: t,dt,a_min,b_min,c_max,ratio_max,ecc_bc,
ecc_ac,s_min,rm_max, one row per recorded sample, full-precision decimals.
Identical config in, identical bytes out.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .flow import SingularityReport, Trajectory
from .monitors import MonitorReport, TypeIReport

_CSV_FIELDS = (
    "t", "dt", "a_min", "b_min", "c_max", "ratio_max", "ecc_bc", "ecc_ac", "s_min", "rm_max"
)

#: Rows formatted per write; bounds the text held in memory at once.
_ROWS_PER_WRITE = 64


def write_table(path: str | Path, names: Sequence[str], table: np.ndarray) -> None:
    """CSV of the header names, then one row per row of table, a 2-D float
    array or a record array; shortest round-trip float formatting.

    Streams _ROWS_PER_WRITE rows at a time, each value the repr of its Python
    float, so the text held in memory does not grow with the number of rows.
    """
    row = ",".join(["%r"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(table), _ROWS_PER_WRITE):
            rows = table[lo : lo + _ROWS_PER_WRITE].tolist()
            fh.write("".join([row % tuple(r) for r in rows]))


def write_series(traj: Trajectory, path: str | Path) -> None:
    """One CSV row per summary sample, the columns _CSV_FIELDS (write_table)."""
    write_table(path, _CSV_FIELDS, traj.samples[list(_CSV_FIELDS)])


def write_summary(
    traj: Trajectory,
    report: SingularityReport | None,
    monitor_reports: dict[str, MonitorReport],
    type1: TypeIReport | None,
    theorem_constants: dict | None,
    config_echo: dict,
    path: str | Path,
) -> None:
    """JSON run summary: config echo, stop condition, run counters, fit,
    monitors, Type I. Every non-finite number (an infinite t_max, the Type I
    fields of a run with no singularity detected) is written as null, so the
    file is strict JSON."""
    doc = {
        "config": config_echo,
        "stop_reason": traj.stop_reason,
        "t_estimate": report.t_estimate if report else None,
        "fit_residual": report.fit_residual if report else None,
        "fit_window": list(report.fit_window) if report else None,
        "a_min_final": traj.series("a_min")[-1].item(),
        "samples": traj.ts.size,
        "run_stats": asdict(traj.run_stats),
        "monitors": {name: asdict(rep) for name, rep in monitor_reports.items()},
        "type1": asdict(type1) if type1 else None,
        "theorem_constants": theorem_constants,
    }
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
