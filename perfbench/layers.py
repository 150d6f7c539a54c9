"""Layer spans for a traced benchmark run, installed from outside the package.

Each wrapped function records calls, wall seconds, and the seconds its own
wrapped callees took (so self time = total - child), keyed also by the nearest
enclosing span. Wrappers are set on the module attribute the caller looks up:
``flow``, ``curvature`` and ``monitors`` each bind ``dz_values`` with
``from .grid import``, so wrapping ``grid.dz_values`` alone would catch
nothing. A name the package no longer defines is skipped and its metrics read
0, so renaming a function does not break the traced run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Span:
    __slots__ = ("calls", "total", "child", "errors", "by_parent")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.errors = 0
        self.by_parent = defaultdict(float)

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, int] = defaultdict(int)
        # One [name, child_seconds] frame per active span.
        self._stack: list[list] = []

    def span(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded under ``name``.

        ``on_exit(args, result)`` runs after the span closes, outside its time.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.child += frame[1]
                if parent is None:
                    stats.by_parent[""] += elapsed
                else:
                    parent[1] += elapsed
                    stats.by_parent[parent[0]] += elapsed
            if on_exit is not None:
                on_exit(args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of a ``neckpinch run``."""
    import numpy as np

    # By module path: the package namespace rebinds ``presets`` to a function.
    cli, config, curvature, flow, monitors, presets = (
        importlib.import_module(f"neckpinch.{name}")
        for name in ("cli", "config", "curvature", "flow", "monitors", "presets")
    )

    for module in (flow, curvature, monitors):
        tracer.span(module, "dz_values", "grid.dz_values")
    tracer.span(flow, "metric_state", "grid.metric_state")
    tracer.count(flow, "_flow_rhs", "flow.rhs_evals")

    def record_trajectory(_args, result):
        traj = result[0]
        tracer.counts["flow.samples"] = len(traj.samples)
        tracer.counts["flow.snapshots"] = len(traj.snapshots)

    def classify_dt(args, _result):
        # Which branch of adaptive_dt set the step, recomputed from its input.
        state = args[0]
        mesh = float(np.min(state.phi.values)) * state.grid.dz
        a_min = float(np.min(state.a.values))
        branch = "diffusion" if mesh * mesh <= a_min * a_min / 8.0 else "reaction"
        tracer.counts[f"flow.dt_{branch}"] += 1

    tracer.span(flow, "evolve", "flow.evolve", on_exit=record_trajectory)
    tracer.span(flow, "rk4_step", "flow.rk4_step")
    tracer.span(flow, "adaptive_dt", "flow.adaptive_dt", on_exit=classify_dt)
    tracer.span(flow, "summarize_state", "flow.summarize_state")
    tracer.span(flow, "estimate_singular_time", "flow.estimate_singular_time")
    for module in (flow, monitors):
        tracer.span(module, "sectional_curvatures", "curvature.sectional_curvatures")
    tracer.span(monitors, "run_monitors", "monitors.run_monitors")
    tracer.span(monitors, "type1_classifier", "monitors.type1_classifier")
    tracer.span(cli, "write_series", "output.write_series")
    tracer.span(cli, "write_summary", "output.write_summary")
    tracer.span(cli, "load_config", "config.load")
    tracer.span(cli, "config_from_dict", "config.load")
    tracer.span(config.RunConfig, "build_preset", "presets.build")
    tracer.span(presets.Preset, "build", "presets.build")


# Calling span of a dz_values call -> name of the split it is booked under.
DZ_SPLIT = {
    "flow.rk4_step": "rhs_s",
    "flow.summarize_state": "summary_s",
    "curvature.sectional_curvatures": "curvature_s",
    "monitors.run_monitors": "monitors_s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from one traced run."""
    s, c = tracer.spans, tracer.counts
    dz, rk4 = s["grid.dz_values"], s["flow.rk4_step"]
    steps = rk4.calls - rk4.errors
    adaptive = c["flow.dt_diffusion"] + c["flow.dt_reaction"]
    out = {
        "grid.dz_values.calls": dz.calls,
        "grid.dz_values.s": dz.total,
        "grid.dz_values.us_per_call": 1e6 * dz.total / max(dz.calls, 1),
    }
    for split in DZ_SPLIT.values():
        out[f"grid.dz_values.{split}"] = 0.0
    for parent, seconds in dz.by_parent.items():
        if parent in DZ_SPLIT:
            out[f"grid.dz_values.{DZ_SPLIT[parent]}"] += seconds
    out.update({
        "grid.metric_state.calls": s["grid.metric_state"].calls,
        "grid.metric_state.s": s["grid.metric_state"].total,
        "flow.evolve.s": s["flow.evolve"].total,
        "flow.rk4_step.s": rk4.total,
        "flow.rk4_step.self_s": rk4.self_time,
        "flow.steps": steps,
        "flow.rhs_evals": c["flow.rhs_evals"],
        "flow.rk4_step.calls": rk4.calls,
        "flow.rk4_step.rejected": rk4.errors,
        "flow.rk4_step.accept_ratio": steps / max(rk4.calls, 1),
        "flow.us_per_step": 1e6 * s["flow.evolve"].total / max(steps, 1),
        "flow.adaptive_dt.s": s["flow.adaptive_dt"].total,
        "flow.dt_diffusion_share": c["flow.dt_diffusion"] / max(adaptive, 1),
        "flow.summarize_state.calls": s["flow.summarize_state"].calls,
        "flow.summarize_state.s": s["flow.summarize_state"].total,
        "flow.summarize_state.self_s": s["flow.summarize_state"].self_time,
        "flow.estimate_singular_time.s": s["flow.estimate_singular_time"].total,
        "flow.samples": c["flow.samples"],
        "flow.snapshots": c["flow.snapshots"],
        "curvature.sectional_curvatures.calls": s["curvature.sectional_curvatures"].calls,
        "curvature.sectional_curvatures.s": s["curvature.sectional_curvatures"].total,
        "curvature.sectional_curvatures.self_s": s["curvature.sectional_curvatures"].self_time,
        "monitors.run_monitors.s": s["monitors.run_monitors"].total,
        "monitors.type1_classifier.s": s["monitors.type1_classifier"].total,
        "output.write_series.s": s["output.write_series"].total,
        "output.write_summary.s": s["output.write_summary"].total,
        "config.load_s": s["config.load"].total,
        "presets.build_s": s["presets.build"].total,
    })
    return out
