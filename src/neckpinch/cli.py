"""Command-line entry point.

Subcommands:
  run          evolve a preset, run monitors, write outputs
  presets      list the canonical initial data
  curvature    one-shot curvature table for a preset at t = 0
  convergence  grid/step refinement study printing measured orders

Each command computes first and makes --out only to write into it, so data that
fail leave no directory behind.

Exit codes: 0 success, 1 usage, data or output error, 2 run aborted after exhausted
step halvings (a dt that underflows to 0 ends there too), 3 monitor hard-violation
under --strict, 141 standard output closed early (a reader such as `head` exited),
the status a shell reports for SIGPIPE. The commands raise their data errors
(DataError, and MemoryError for a grid too large to allocate) and output errors
(OSError); main alone turns each into one `error:` line on stderr and exit
code 1. Any other exception is a bug and prints its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import flow, monitors
from .config import RunConfig, load_config
from .curvature import riemann_oracle, sectional_curvatures
from .grid import DataError, PeriodicGrid, rfft, z_jet
from .output import write_series, write_summary, write_table
from .presets import get_preset, presets, sphere


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="neckpinch", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve, monitor, and serialize a flow")
    run.add_argument("--preset", help="preset name (see: neckpinch presets)")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--grid-n", type=int, help="grid size override")
    run.add_argument("--out", help="output directory")
    run.add_argument("--monitors", help="comma-separated monitor names")
    run.add_argument("--strict", action="store_true", help="exit 3 on monitor violation")

    sub.add_parser("presets", help="list canonical presets")

    curv = sub.add_parser("curvature", help="curvature table for a preset at t=0")
    curv.add_argument("--preset", default="fig-a")
    curv.add_argument("--grid-n", type=int, default=256)
    curv.add_argument("--out", help="write per-point CSV table here")

    conv = sub.add_parser("convergence", help="refinement study of measured orders")
    conv.add_argument(
        "--preset",
        default="fig-a",
        help="data of the curvature-oracle study; the z-derivative study uses sin z "
        "and the cfl study the round sphere",
    )
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.preset:
        overrides.update(preset=args.preset, preset_params={})
    if args.grid_n is not None:
        overrides["grid_n"] = args.grid_n
    if args.out:
        overrides["out_dir"] = args.out
    if args.monitors:
        names = tuple(m.strip() for m in args.monitors.split(",") if m.strip())
        if not names:
            raise DataError(f"--monitors {args.monitors!r} names no monitor")
        overrides["monitors_enabled"] = names
    return replace(cfg, **overrides)


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    preset = get_preset(cfg.preset, cfg.preset_params)
    traj, report = flow.evolve(preset.build(PeriodicGrid(cfg.grid_n)), cfg.flow)
    reports = monitors.run_monitors(traj, report, cfg.monitors_enabled)
    type1 = monitors.type1_classifier(traj, report)
    lam = traj.samples["ratio_max"][0].item()
    consts = monitors.constants(lam) if lam >= 1.0 else None

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series(traj, out_dir / "series.csv")
    write_summary(traj, report, reports, type1, consts, asdict(cfg), out_dir / "summary.json")

    t_final, a_min, c_max = (traj.samples[-1][name] for name in ("t", "a_min", "c_max"))
    print(f"run: preset={preset.name} n={cfg.grid_n} stop={traj.stop_reason}")
    print(f"  t_final={t_final:.6g} a_min={a_min:.6g} c_max={c_max:.6g}")
    if report:
        print(f"  T_estimate={report.t_estimate:.6g} fit_residual={report.fit_residual:.3e}")
    print(f"  type1: {type1.classification} sup(T-t)|Rm|={type1.sup_tml_rm:.4g}")
    for name, rep in reports.items():
        status = {True: "pass", False: "FAIL", None: "n/a"}[rep.passed]
        margin = "" if rep.worst_margin is None else f" margin={rep.worst_margin:.3e}"
        print(f"  monitor {name}: {status}{margin}")

    if traj.stop_reason == flow.STOP_HALVINGS:
        return 2
    if args.strict and any(rep.passed is False for rep in reports.values()):
        return 3
    return 0


def _cmd_presets(args) -> int:
    for p in presets():
        print(f"{p.name}: phi0 = {p.phi0.formula()}, a0 = {p.a0.formula()}, "
              f"b0 = {p.b0.formula()}, c0 = {p.c0.formula()}")
        if p.description:
            print(f"    {p.description}")
    return 0


def _cmd_curvature(args) -> int:
    preset = get_preset(args.preset)
    grid = PeriodicGrid(args.grid_n)
    curv = sectional_curvatures(preset.build(grid))
    if args.out:
        path = Path(args.out) / "curvature.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_table(path, ("z", *curv._fields), np.column_stack((grid.z, *curv)))
    print(f"curvature of preset {preset.name} at t=0, n={args.grid_n}")
    for name, v in zip(curv._fields, curv):
        print(f"  {name:10s} min={v.min():+.6e} max={v.max():+.6e}")
    if args.out:
        print(f"wrote {path}")
    return 0


def _measured_orders(errors: list[float]) -> list[str]:
    """log2 of each successive error ratio to two places; "exact" where the
    finer error is 0 (the oracle's mismatch on z-constant data)."""
    return [
        "exact" if e1 == 0.0 else f"{np.log2(e0 / e1):.2f}" for e0, e1 in zip(errors, errors[1:])
    ]


def _cmd_convergence(args) -> int:
    preset = get_preset(args.preset)

    print("z-derivative (grid.z_jet, the stencil's Fourier symbol) on sin(z):")
    errs = []
    for n in (32, 64, 128):
        grid = PeriodicGrid(n)
        err = np.max(np.abs(z_jet(rfft(np.sin(grid.z)), 1.0)[1] - np.cos(grid.z)))
        errs.append(err)
        print(f"  n={n:4d} max_err={err:.3e}")
    print(f"  measured orders: {_measured_orders(errs)}")

    print(f"closed-form vs z-gauge Riemann oracle on preset {preset.name}:")
    errs = []
    for n in (32, 64, 128):
        grid = PeriodicGrid(n)
        state = preset.build(grid)
        cf = sectional_curvatures(state)
        orc = riemann_oracle(state)
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(cf.sectional(), orc))
        errs.append(err)
        print(f"  n={n:4d} max_mismatch={err:.3e}")
    print(f"  measured orders: {_measured_orders(errs)}")

    print("shrinking-sphere a_min^2 error under cfl halving (n=64):")
    errs = []
    grid = PeriodicGrid(64)
    for cfl in (0.4, 0.2, 0.1):
        cfg = flow.FlowConfig(cfl_safety=cfl, a_min_stop=0.2)
        traj, _ = flow.evolve(sphere(2.0).build(grid), cfg)
        ts, a_min = traj.samples["t"], traj.samples["a_min"]
        err = float(np.max(np.abs(a_min**2 - (4.0 - 4.0 * ts))))
        errs.append(err)
        print(f"  cfl={cfl:.2f} max_err={err:.3e}")
    print(f"  measured orders: {_measured_orders(errs)}")
    return 0


#: Exit code when standard output is closed before the command finishes.
EXIT_BROKEN_PIPE = 141


_COMMANDS = {
    "run": _cmd_run,
    "presets": _cmd_presets,
    "curvature": _cmd_curvature,
    "convergence": _cmd_convergence,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so that the flush at
        # interpreter exit does not raise a second BrokenPipeError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DataError, MemoryError, OSError) as exc:
        # Bad data, a grid too large to allocate, or an output that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
