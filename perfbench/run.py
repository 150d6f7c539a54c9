"""neckpinch benchmark: time a run to the pinch end to end, or split it by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Every run is ``neckpinch.cli.main(["run", "--config", CONFIG, "--strict"])``
in a fresh Python process with BLAS/OpenMP threads pinned to 1. With
``--trace 0`` the benchmark times PROBES set-up-only processes and then
repeats untraced runs for S seconds (at least one), and prints the
end-to-end metrics. With ``--trace 1`` it makes one untraced and one traced
run, checks that their ``series.csv`` are byte-identical, and prints the
per-layer metrics. Every run's outputs are checked; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics. A
results file with the per-run records and the machine description is
written under ``.bench_build/perfbench/results/``.

The workloads are fixed problems with pinned reference values, so the seed
changes no input: it only names the run directory and the results file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
#: Set-up-only processes per untraced invocation, after one discarded warm-up.
PROBES = 5
#: Wall-clock budget of one invocation, below the 180 s a run may take.
DEADLINE_S = 170.0


def child(mode: str, config: dict, run_dir: Path, env: dict, timeout: float) -> dict:
    """Run perfbench/child.py once and return its result record."""
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    result_path = run_dir / "result.json"
    config_path.write_text(json.dumps({**config, "out_dir": str(run_dir / "out")}))
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(config_path), str(result_path)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "rc": None, "problems": [f"timed out after {timeout:.0f} s"]}
    record = {"mode": mode, "wall_s": time.perf_counter() - start, "rc": proc.returncode}
    try:
        record.update(json.loads(result_path.read_text()))
    except (OSError, ValueError):
        record["problems"] = [f"no result record (exit {proc.returncode})"]
        record["stderr"] = proc.stderr[-2000:]
        return record
    problems = []
    if record["rc"] != 0:
        problems.append(f"exit code {record['rc']}")
        record["stderr"] = proc.stderr[-2000:]
    if record["setup_s"] is None:
        problems.append("flow.evolve was never entered")
    if mode != "probe":
        problems += check_outputs(run_dir / "out", record)
    record["problems"] = problems
    return record


def check_outputs(out_dir: Path, record: dict) -> list[str]:
    """Correctness of one run's series.csv and summary.json."""
    try:
        series = (out_dir / "series.csv").read_bytes()
        rows = list(csv.reader(series.decode().splitlines()))
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    record["series_sha256"] = hashlib.sha256(series).hexdigest()
    record["series_bytes"] = len(series)
    record["t_estimate"] = summary.get("t_estimate")
    record["monitors"] = {
        name: {True: "pass", False: "FAIL", None: "n/a"}[rep.get("passed")]
        for name, rep in (summary.get("monitors") or {}).items()
    }
    problems = []
    if summary.get("stop_reason") != "a_min_reached":
        problems.append(f"stop_reason {summary.get('stop_reason')!r}")
    if summary.get("t_estimate") is None:
        problems.append("t_estimate is null")
    classification = (summary.get("type1") or {}).get("classification")
    if classification != "TypeI":
        problems.append(f"type1 classification {classification!r}")
    if len(rows) - 1 != summary.get("samples"):
        problems.append(f"series.csv has {len(rows) - 1} rows, summary {summary.get('samples')}")
    return problems


def environment(versions: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **versions,
        "thread_pins": THREAD_PINS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # SystemExit inside subprocess.run kills the running child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "neckpinch" / "cli.py").is_file():
        print(f"error: no neckpinch sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(src)}
    base = root / ".bench_build" / "perfbench"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    def launch(mode: str, label: str) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - start)
        return child(mode, workload["config"], work / label, env, remaining)

    probes, runs = [], []
    if args.trace:
        runs = [launch("run", "untraced"), launch("trace", "traced")]
    else:
        launch("probe", "warmup")
        probes = [launch("probe", f"probe{i}") for i in range(PROBES)]
        loop_start = time.perf_counter()
        while True:
            runs.append(launch("run", f"run{len(runs)}"))
            elapsed = time.perf_counter() - loop_start
            expected = statistics.median(r.get("wall_s", elapsed) for r in runs)
            if elapsed + expected > args.seconds:
                break
            if time.perf_counter() - start + 1.5 * expected > DEADLINE_S:
                break
    shutil.rmtree(work, ignore_errors=True)

    records = probes + runs
    failed = sum(1 for r in records if r["problems"])
    good = [r for r in runs if not r["problems"]]
    correct = failed == 0
    env_info = environment(next((r["versions"] for r in records if "versions" in r), {}))
    print(f"environment: {json.dumps(env_info, sort_keys=True)}")
    for r in records:
        print(
            f"{r['mode']}: exit={r['rc']} setup_s={r.get('setup_s')} run_s={r.get('run_s')} "
            f"problems={r['problems']}"
        )
        if r["problems"] and r.get("stderr"):
            print(r["stderr"], file=sys.stderr)
    seed_sha = workload["series_sha256"]
    if good:
        for name, verdict in good[0]["monitors"].items():
            print(f"monitor {name}: {verdict}")
        sha = good[0]["series_sha256"]
        print(f"series.csv sha256 {sha} matches_seed={sha == seed_sha}")

    if args.trace:
        untraced, traced = runs
        sha = traced.get("series_sha256")
        identical = sha is not None and sha == untraced.get("series_sha256")
        correct = correct and identical
        print(f"traced series.csv identical to untraced: {identical}")
        metrics = layers.layer_metrics(layers.Tracer())
        metrics.update(traced.get("layers", {}))
        metrics["setup.import_s"] = traced.get("import_s", 0.0)
        metrics["output.series_bytes"] = traced.get("series_bytes", 0)
        metrics["output.series_matches_seed"] = int(sha == seed_sha)
        metrics["trace.series_identical"] = int(identical)
        metrics["trace.overhead_share"] = (
            traced["run_s"] / untraced["run_s"] - 1.0 if len(good) == 2 else 0.0
        )
    else:
        setups = [r["setup_s"] for r in probes + good if not r["problems"]]
        t_ref = workload["t_ref"]
        metrics = {
            "setup_s": median_or_zero(setups),
            "run_s": median_or_zero([r["run_s"] for r in good]),
            "peak_rss_mb": median_or_zero([r["peak_rss_mb"] for r in good]),
            # With no good run the estimate reads 0, a relative error of 1.
            "t_rel_err": abs(median_or_zero([r["t_estimate"] for r in good]) - t_ref) / t_ref,
        }
        print(f"samples: setup_s n={len(setups)}, run_s n={len(good)}")
    print(f"failed_share: {failed / len(records)} (share, {failed} of {len(records)})")
    out = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
    }
    for name, m in out["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "environment": env_info,
             "records": records, "result": out},
            indent=2,
        )
    )
    print(json.dumps(out))
    return 0


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "t_rel_err": "1"}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("us_per_call", "us_per_step")):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("share", "ratio")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
