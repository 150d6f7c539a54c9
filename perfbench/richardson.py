"""Reference singular time of a workload by Richardson extrapolation.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/richardson.py WORKLOAD N1 N2 N3

Evolves the workload's data at grid sizes N1 < N2 = 2 N1 < N3 = 2 N2 with its
flow settings (monitors do not change T) and prints, as JSON, the three
estimates T_n, the observed order p = log2((T2 - T1) / (T3 - T2)), the
extrapolated T_ref = T3 + (T3 - T2) / (2^p - 1), and its error bar
|T_ref - T3|, the size of the correction. The ``t_ref`` entries of
``workloads.json`` for the non-exact workloads come from this script.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from neckpinch import flow
from neckpinch.config import config_from_dict
from neckpinch.grid import PeriodicGrid


def singular_time(config: dict, n: int) -> float:
    cfg = config_from_dict({**config, "grid_n": n})
    state = cfg.build_preset().build(PeriodicGrid(n))
    _, report = flow.evolve(state, cfg.flow)
    if report is None:
        raise SystemExit(f"no singular-time estimate at n={n}")
    return report.t_estimate


def main(argv: list[str]) -> int:
    name, *sizes = argv
    sizes = [int(n) for n in sizes]
    if len(sizes) != 3 or sizes[1] != 2 * sizes[0] or sizes[2] != 2 * sizes[1]:
        raise SystemExit("give three grid sizes, each twice the one before")
    workloads = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
    ts = [singular_time(workloads[name]["config"], n) for n in sizes]
    order = math.log2((ts[1] - ts[0]) / (ts[2] - ts[1]))
    t_ref = ts[2] + (ts[2] - ts[1]) / (2.0**order - 1.0)
    print(json.dumps({
        "workload": name,
        "grid_n": sizes,
        "t_estimates": ts,
        "observed_order": order,
        "t_ref": t_ref,
        "error_bar": abs(t_ref - ts[2]),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
