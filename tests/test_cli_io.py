import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import neckpinch
from neckpinch import flow
from neckpinch.cli import EXIT_BROKEN_PIPE, main
from neckpinch.config import ConfigError, RunConfig, config_from_dict, load_config
from neckpinch.flow import FlowConfig, StepRejected, evolve
from neckpinch.grid import PeriodicGrid
from neckpinch.monitors import constants, run_monitors, type1_classifier
from neckpinch.output import write_series, write_summary
from neckpinch.presets import Profile, biaxial, get_preset, presets, sphere


# --- presets ----------------------------------------------------------------


def test_presets_contains_canonical_names():
    names = [p.name for p in presets()]
    for required in ("fig-a", "fig-b", "fig-c", "sphere", "biaxial"):
        assert required in names


def test_fig_a_profiles():
    g = PeriodicGrid(64)
    st = get_preset("fig-a").build(g)
    assert np.allclose(st.phi, 1.0)
    assert np.allclose(st.a, np.cos(g.z) + 1.5)
    assert np.allclose(st.b, np.cos(g.z) + 2.5)
    assert np.allclose(st.c, np.cos(g.z) + 3.5)


def test_fig_b_profiles():
    g = PeriodicGrid(64)
    st = get_preset("fig-b").build(g)
    assert np.allclose(st.a, np.cos(2 * g.z) + 1.5)
    assert np.allclose(st.b, np.sin(g.z) + 4.0)
    assert np.allclose(st.c, 6.0)


def test_fig_c_profiles():
    g = PeriodicGrid(64)
    st = get_preset("fig-c").build(g)
    assert np.allclose(st.a, 0.5 * np.cos(g.z) + 1.0)
    assert np.allclose(st.b, np.cos(g.z) + 2.0)
    assert np.allclose(st.c, 2.0 * np.cos(g.z) + 4.0)


def test_sphere_preset_parameterized():
    g = PeriodicGrid(32)
    st = sphere(3.0).build(g)
    for f in (st.a, st.b, st.c):
        assert np.allclose(f, 3.0)
    st = get_preset("sphere", {"r": 2.0}).build(g)
    assert np.allclose(st.a, 2.0)


def test_biaxial_preset():
    st = biaxial(1.0, 2.0).build(PeriodicGrid(32))
    assert np.allclose(st.a, 1.0)
    assert np.array_equal(st.b, st.c)


def test_profile_samples_kind():
    g = PeriodicGrid(32)
    values = tuple(1.0 + 0.1 * np.sin(g.z))
    p = Profile(kind="samples", samples=values)
    assert np.allclose(p.evaluate(g), values)
    with pytest.raises(ValueError):
        p.evaluate(PeriodicGrid(64))


def test_profile_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Profile(kind="tanh")


# --- config ------------------------------------------------------------------


def test_config_defaults_applied():
    cfg = config_from_dict({"preset": "fig-a", "grid_n": 256})
    assert cfg.preset == "fig-a"
    assert cfg.grid_n == 256
    assert cfg.flow == FlowConfig()
    assert cfg.formats == ("csv", "json")


def test_config_rejects_odd_grid():
    with pytest.raises(ConfigError):
        config_from_dict({"grid_n": 31})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"preset": "fig-a", "grid_m": 64})
    with pytest.raises(ConfigError):
        config_from_dict({"flow": {"dt": 0.1}})


def test_config_flow_override():
    cfg = config_from_dict({"preset": "fig-a", "flow": {"a_min_stop": 0.01}})
    assert cfg.flow.a_min_stop == 0.01
    assert cfg.flow.cfl_safety == FlowConfig().cfl_safety


def test_config_rejects_a_min_stop_at_or_below_resolvable_floor():
    for a_min_stop in (1e-9, 1e-8):
        with pytest.raises(ConfigError, match="floor 1e-08"):
            config_from_dict({"flow": {"a_min_stop": a_min_stop}})
    assert config_from_dict({"flow": {"a_min_stop": 2e-8}}).flow.a_min_stop == 2e-8


def test_config_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.as_dict()))
    assert load_config(path) == cfg


def test_config_inline_profiles():
    cfg = config_from_dict(
        {
            "grid_n": 32,
            "profiles": {
                "phi0": {"kind": "const", "offset": 1.0},
                "a0": {"kind": "cos", "amplitude": 1.0, "offset": 1.5},
                "b0": {"kind": "cos", "amplitude": 1.0, "offset": 2.5},
                "c0": {"kind": "cos", "amplitude": 1.0, "offset": 3.5},
            },
        }
    )
    st = cfg.build_preset().build(PeriodicGrid(cfg.grid_n))
    g = PeriodicGrid(32)
    assert np.allclose(st.a, np.cos(g.z) + 1.5)


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


# --- serialization --------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("sphere")
    st = sphere(2.0).build(PeriodicGrid(48))
    traj, report = evolve(st, FlowConfig(cfl_safety=0.1, a_min_stop=0.05))
    return out, traj, report


def test_write_series_schema(sphere_outputs):
    out, traj, _ = sphere_outputs
    path = out / "series.csv"
    write_series(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,dt,a_min,b_min,c_max,ratio_max,ecc_bc,ecc_ac,s_min,rm_max"
    assert len(lines) - 1 == len(traj.samples)
    # spot-check the exact-solution column and the vanishing eccentricities
    row = lines[-1].split(",")
    t, a_min = float(row[0]), float(row[2])
    assert a_min**2 == pytest.approx(4.0 - 4.0 * t, rel=1e-3)
    assert float(row[6]) == 0.0 and float(row[7]) == 0.0


def test_write_series_deterministic(sphere_outputs, tmp_path):
    out, traj, _ = sphere_outputs
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series(traj, p1)
    write_series(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_series_streams_rows(synthetic_trajectory, tmp_path):
    # 20k rows of 17-digit floats are over 3 MB of text; the writer holds
    # one batch of rows at a time.
    rng = np.random.default_rng(5)
    n = 20_000
    traj = synthetic_trajectory(
        np.cumsum(rng.uniform(1e-5, 2e-5, n)),
        rng.uniform(0.5, 1.0, n),
        c_max=rng.uniform(3.0, 4.0, n),
        ratio_max=rng.uniform(1.0, 2.0, n),
        s_min=rng.uniform(0.1, 1.0, n),
        rm_max=rng.uniform(1.0, 9.0, n),
    )
    path = tmp_path / "series.csv"
    tracemalloc.start()
    try:
        write_series(traj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[1].split(",")[0] == repr(traj.ts[0].item())
    assert path.stat().st_size > 3_000_000
    assert peak < 1_000_000


def test_write_summary_keys(sphere_outputs, tmp_path):
    _, traj, report = sphere_outputs
    reports = run_monitors(traj, report)
    type1 = type1_classifier(traj, report)
    consts = constants(traj.samples[0].ratio_max)
    path = tmp_path / "summary.json"
    write_summary(traj, report, reports, type1, consts, {"preset": "sphere"}, path)
    doc = json.loads(path.read_text())
    assert doc["config"] == {"preset": "sphere"}
    assert doc["stop_reason"] == "a_min_reached"
    assert doc["t_estimate"] == pytest.approx(1.0, abs=1e-4)
    assert doc["type1"]["classification"] == "TypeI"
    assert doc["type1"]["ratio_band"][0] == pytest.approx(2.0, abs=1e-2)
    assert doc["theorem_constants"]["lambda"] == 1.0
    assert set(doc["monitors"]) == set(reports)
    assert doc["monitors"]["ordering"]["passed"] is True
    assert doc["run_stats"] == asdict(traj.run_stats)
    assert doc["run_stats"]["steps"] == doc["samples"] - 1


def test_write_summary_null_estimate_on_t_max_stop(tmp_path):
    st = sphere(2.0).build(PeriodicGrid(32))
    traj, report = evolve(st, FlowConfig(t_max=1e-5))
    assert report is None
    path = tmp_path / "summary.json"
    write_summary(traj, report, {}, None, None, {}, path)
    doc = json.loads(path.read_text())
    assert doc["t_estimate"] is None
    assert doc["stop_reason"] == "t_max_reached"


# --- CLI ----------------------------------------------------------------------


def test_cli_run_sphere(tmp_path, capsys):
    code = main(
        ["run", "--preset", "sphere", "--grid-n", "48", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "series.csv").exists()
    assert (tmp_path / "summary.json").exists()
    captured = capsys.readouterr()
    assert "stop=a_min_reached" in captured.out


def test_cli_series_fields_parse_as_floats(tmp_path):
    # both dt branches occur here: the diffusion limit early, the reaction
    # limit near the pinch
    assert main(["run", "--preset", "sphere", "--grid-n", "32", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert len(lines) > 2
    for line in lines[1:]:
        for value in line.split(","):
            float(value)


def _assert_run_config_is_one_line_error(tmp_path, cfg, message, args=()):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "neckpinch.cli", "run", "--config", str(cfg_path), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_cli_a_min_stop_below_floor_is_one_line_error(tmp_path):
    _assert_run_config_is_one_line_error(
        tmp_path, {"preset": "sphere", "grid_n": 32, "flow": {"a_min_stop": 1e-9}}, "1e-08"
    )


def test_cli_grid_n_zero_is_one_line_error(tmp_path):
    _assert_run_config_is_one_line_error(
        tmp_path, {"preset": "sphere"}, "grid_n must be >= 32", args=["--grid-n", "0"]
    )


_CONST = {"kind": "const", "offset": 1.0}


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"preset": "fig-a", "preset_params": {"r": 2.0}}, "takes no parameters"),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                                        "c0": {"kind": "const", "offset": -1.0}}},
            "profile c must be strictly positive",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                                        "c0": {"kind": "samples", "samples": [1.0] * 16}}},
            "samples profile has 16 points, grid needs 32",
        ),
        ({"preset": "sphere", "preset_params": {"r": -2.0}}, "profile a must be strictly positive"),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                                        "c0": {"kind": "samples",
                                               "samples": [1.0] * 31 + [float("nan")]}}},
            "profile c must be finite everywhere",
        ),
        ({"preset": "sphere", "grid_n": 32, "kappa": float("inf")}, "kappa must be finite"),
        ({"preset": "sphere", "grid_n": 32, "kappa": float("nan")}, "kappa must be finite"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"fixed_dt": float("nan")}},
         "unknown flow keys: ['fixed_dt']"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"t_max": float("nan")}},
         "t_max must be a number"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"monitor_stride": 1.5}},
         "monitor_stride must be an integer, got 1.5"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"monitor_stride": True}},
         "monitor_stride must be an integer, got True"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"snapshot_stride": 100}},
         "unknown flow keys: ['snapshot_stride']"),
        ({"preset": "sphere", "grid_n": 64.0}, "grid_n must be an integer, got 64.0"),
        ({"preset": "sphere", "grid_n": "64"}, "grid_n must be an integer, got '64'"),
        ({"preset": "sphere", "grid_n": 32, "kappa": True}, "kappa must be a number, got True"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"cfl_safety": True}},
         "cfl_safety must be a number, got True"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"a_min_stop": True}},
         "a_min_stop must be a number, got True"),
        ({"preset": "sphere", "grid_n": 32, "flow": 5}, "flow must be a JSON object, got 5"),
        ({"preset": "sphere", "grid_n": 32, "formats": "csv"},
         "formats must be a JSON list, got 'csv'"),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "cos", "amplitude": 1, "offset": 1.5,
                                               "frequency": 1.5}}},
            "profile frequency must be an integer, got 1.5",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "cos", "amplitude": "1", "offset": 1.5}}},
            "profile amplitude must be a number, got '1'",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                                        "c0": {"kind": "const", "offset": True}}},
            "profile offset must be a number, got True",
        ),
        ({"preset": "sphere", "grid_n": 32, "preset_params": {"r": True}},
         "preset parameter r must be a number, got True"),
        ({"preset": "biaxial", "grid_n": 32, "preset_params": {"c0": "2"}},
         "preset parameter c0 must be a number, got '2'"),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "samples", "samples": [True] * 32}}},
            "profile a0 samples must be numbers, got True",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "samples", "samples": ["x"] + [1.0] * 31}}},
            "profile a0 samples must be numbers, got 'x'",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "samples", "samples": "abc"}}},
            "profile a0 samples must be a JSON list, got 'abc'",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "const", "offset": 1.0,
                                               "samples": [5.0] * 32}}},
            "profile kind 'const' takes no samples",
        ),
        (
            {"grid_n": 32, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "cos", "amplitude": 0.5, "offset": 1.5,
                                               "samples": []}}},
            "profile kind 'cos' takes no samples",
        ),
        (
            {"grid_n": 32, "profiles": {"a0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "phi0": {"kind": "samples",
                                                 "samples": [1.0] * 5 + [50.0] + [1.0] * 26}}},
            "no equal-arclength nodes for phi",
        ),
        ({"preset": "sphere", "preset_params": {"r": 1e-9}},
         "fiber radius 1.000e-09 below resolvable floor 1e-08"),
        (
            {"grid_n": 64, "profiles": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                                        "a0": {"kind": "sin", "amplitude": 0.5, "offset": 1.0,
                                               "frequency": 32}}},
            "profile frequency 32 is at or above the Nyquist frequency 32 of 64 grid points",
        ),
        (
            {"grid_n": 64, "profiles": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                                        "c0": {"kind": "cos", "amplitude": 0.5, "offset": 2.0,
                                               "frequency": -40}}},
            "profile frequency -40 is at or above the Nyquist frequency 32",
        ),
    ],
    ids=["preset-params-on-fig-a", "nonpositive-profile", "samples-length", "negative-sphere",
         "nan-samples", "infinite-kappa", "nan-kappa", "fixed-dt-key", "nan-t-max",
         "fractional-stride", "bool-stride", "snapshot-stride", "float-grid-n",
         "string-grid-n", "bool-kappa", "bool-cfl-safety", "bool-a-min-stop",
         "non-object-flow", "string-formats",
         "fractional-frequency", "string-amplitude", "bool-offset", "bool-sphere-radius",
         "string-biaxial-radius", "bool-samples", "string-sample", "string-samples",
         "samples-on-const", "empty-samples-on-cos", "spiky-phi0", "unresolvable-sphere",
         "nyquist-sin", "aliased-cos"],
)
def test_cli_bad_data_config_is_one_line_error(tmp_path, cfg, message):
    _assert_run_config_is_one_line_error(tmp_path, cfg, message)


@pytest.mark.parametrize("command", ["run", "curvature", "convergence"])
def test_cli_unknown_preset_is_one_line_error(capsys, command):
    assert main([command, "--preset", "nope"]) == 1
    assert capsys.readouterr().err == "error: unknown preset 'nope'\n"


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig-a", "fig-b", "fig-c", "sphere", "biaxial"):
        assert name in out


def test_cli_closed_stdout_exits_quietly(tmp_path):
    # a reader that exits before the output is written, as in `neckpinch
    # presets | head -1`: no traceback and no "Exception ignored" at exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "neckpinch.cli", "presets"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert stderr == ""


def test_cli_usage_error_exit_code():
    assert main(["run", "--no-such-flag"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run", "--preset", "no-such-preset"]) == 1


def test_cli_strict_sphere_passes(tmp_path):
    code = main(
        [
            "run",
            "--preset",
            "sphere",
            "--grid-n",
            "48",
            "--out",
            str(tmp_path),
            "--strict",
        ]
    )
    assert code == 0


def test_cli_strict_fig_a_passes(tmp_path):
    code = main(
        [
            "run",
            "--preset",
            "fig-a",
            "--grid-n",
            "64",
            "--out",
            str(tmp_path),
            "--strict",
        ]
    )
    assert code == 0


def test_cli_strict_reversed_fig_a_claims_no_bound(tmp_path, capsys):
    # fig-a's radii reversed, c <= b <= a: a_min(0)^2 = 6.25 exceeds 4T, so a
    # pinch-rate bound read off a_min would fail; every ordered-data bound
    # must decline instead
    cos = {"kind": "cos", "amplitude": 1.0}
    cfg_path = tmp_path / "reversed.json"
    cfg_path.write_text(
        json.dumps(
            {
                "grid_n": 64,
                "profiles": {
                    "phi0": {"kind": "const", "offset": 1.0},
                    "a0": {**cos, "offset": 3.5},
                    "b0": {**cos, "offset": 2.5},
                    "c0": {**cos, "offset": 1.5},
                },
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg_path), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "monitor amin_bound: n/a" in out
    assert "monitor concavity: n/a" in out


def test_cli_strict_violation_exit_code(tmp_path):
    # a near-zero tolerance scale turns the benign discretization-level
    # ordering wiggle on fig-a into a hard violation
    cfg_path = tmp_path / "tight.json"
    cfg_path.write_text(
        json.dumps(
            {
                "preset": "fig-a",
                "grid_n": 64,
                "kappa": 1e-12,
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg_path), "--strict"]) == 3


def test_cli_convergence(capsys):
    assert main(["convergence"]) == 0
    out = capsys.readouterr().out
    assert out.count("measured orders") == 3


def test_cli_convergence_prints_exact_orders_on_z_constant_data(capsys):
    # the curvature oracle's mismatch is exactly 0 on the round sphere
    assert main(["convergence", "--preset", "sphere"]) == 0
    orders = [line for line in capsys.readouterr().out.splitlines() if "measured orders" in line]
    assert len(orders) == 3
    assert orders[1] == "  measured orders: ['exact', 'exact']"


@pytest.mark.parametrize(
    "command, blocked",
    [("run", None), ("run", "series.csv"), ("curvature", None), ("curvature", "curvature.csv")],
)
def test_cli_unwritable_out_is_one_line_error(tmp_path, capsys, command, blocked):
    # --out naming a file fails before any work; an output file that cannot
    # be written (here a directory of its name) fails when it is written
    out = tmp_path / "out"
    if blocked:
        (out / blocked).mkdir(parents=True)
    else:
        out.write_text("keep")
    assert main([command, "--preset", "sphere", "--grid-n", "32", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err
    if not blocked:
        assert captured.out == "" and out.read_text() == "keep"


def test_cli_curvature(tmp_path, capsys):
    code = main(
        ["curvature", "--preset", "fig-a", "--grid-n", "64", "--out", str(tmp_path)]
    )
    assert code == 0
    table = (tmp_path / "curvature.csv").read_text().splitlines()
    assert table[0].startswith("z,k01,")
    assert len(table) == 65


def test_cli_run_with_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "preset": "sphere",
                "preset_params": {"r": 2.0},
                "grid_n": 32,
                "flow": {"a_min_stop": 0.5},
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["config"]["flow"]["a_min_stop"] == 0.5


def test_cli_format_subset(tmp_path):
    code = main(
        [
            "run",
            "--preset",
            "sphere",
            "--grid-n",
            "32",
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    assert (tmp_path / "series.csv").exists()
    assert not (tmp_path / "summary.json").exists()


def test_cli_monitor_subset(tmp_path):
    code = main(
        [
            "run",
            "--preset",
            "sphere",
            "--grid-n",
            "32",
            "--out",
            str(tmp_path),
            "--monitors",
            "ordering,cmax_bound",
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(doc["monitors"]) == {"ordering", "cmax_bound"}


def test_cli_identical_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert (
            main(["run", "--preset", "sphere", "--grid-n", "32", "--out", str(out)])
            == 0
        )
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


# fig-a at n=64 with the default flow. Re-pinned when the constant-speed
# gauge replaced the arclength gauge: 1,107 steps became 451 and T moved
# from 0.8505440 to 0.8532746, toward the converged 0.85333. Re-pinned when
# ETDRK4 and the rate rule replaced classical RK4: 451 steps became 485 and
# T moved by +2.39e-7, from 0.8532745990 to 0.8532748376, toward its
# time-converged 0.85327486 (RK4 at cfl 0.05). Re-pinned when the step
# moved to Fourier space, its stages reading the radii and their derivatives
# from one irfft of the jet symbol instead of the stencil (the same operator,
# other roundoff): the 485 steps stayed and T moved by -1.3e-14, from
# 0.8532748375853980 to 0.8532748375853851. Re-pinned when the step took its
# phi-functions from a per-grid table of the diffusion symbol's powers and
# the right-hand side and summaries reused their squares (the same
# arithmetic, other roundoff): the 485 steps stayed and T moved by +3.3e-16,
# from 0.8532748375853851 to 0.8532748375853855.
FIG_A_64_SERIES_SHA256 = "05f97fe4735c381838e2c19120f7833d4a7b323676ec49e445cbfe5201924cbf"


def test_cli_fig_a_series_byte_identical_to_pinned_hash(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"preset": "fig-a", "grid_n": 64, "out_dir": str(tmp_path / "out")})
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    series = (tmp_path / "out" / "series.csv").read_bytes()
    assert hashlib.sha256(series).hexdigest() == FIG_A_64_SERIES_SHA256


# The round sphere r=2 at n=64, cfl 0.05, stopped at a_min 1e-2: the
# benchmark's sphere-exact case. Re-pinned when ETDRK4 and the rate rule
# replaced classical RK4 (on z-constant data ETDRK4 is RK4, but dt changed):
# 2,298 steps became 819 and |T - 1| fell from 1.33e-11 to 5.1e-12.
# Re-pinned with the per-grid phi-function table and the reused squares
# (fig-a above): the 819 steps stayed and T moved by +2.2e-16, from
# 0.9999999999948868 to 0.9999999999948870.
SPHERE_64_SERIES_SHA256 = "ae64b23ea831238d920d5fefc8510e61451db3c0867b31ba3de3654b32ab8d74"


def test_cli_sphere_series_byte_identical_to_pinned_hash(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "preset": "sphere",
                "preset_params": {"r": 2.0},
                "grid_n": 64,
                "flow": {"cfl_safety": 0.05, "a_min_stop": 0.01},
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    series = (tmp_path / "out" / "series.csv").read_bytes()
    assert hashlib.sha256(series).hexdigest() == SPHERE_64_SERIES_SHA256


def test_cli_exhausted_halvings_exit_code(tmp_path, monkeypatch):
    def rk4_step(*args):
        raise StepRejected("positivity lost after step")

    monkeypatch.setattr(flow, "rk4_step", rk4_step)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"preset": "sphere", "grid_n": 32, "out_dir": str(tmp_path / "out")})
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["stop_reason"] == "step_halvings_exhausted"
    assert doc["samples"] == 1
    assert doc["run_stats"] == {
        "steps": 0,
        "rejected": 21,
        "neck_resolution": 2.0 / PeriodicGrid(32).dz,
    }
