import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neckpinch
from neckpinch import flow, monitors
from neckpinch.cli import EXIT_BROKEN_PIPE, _build_parser, main
from neckpinch.config import RunConfig, config_from_dict, load_config
from neckpinch.flow import FlowConfig, StepRejected, evolve
from neckpinch.grid import DataError, PeriodicGrid, z_jet
from neckpinch.monitors import (
    DEFAULT_MONITORS,
    MONITORS,
    constants,
    run_monitors,
    type1_classifier,
)
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


def test_presets_names_the_module():
    # the package does not rebind the name of its presets module
    import neckpinch.presets as module

    assert isinstance(module, types.ModuleType)
    assert [p.name for p in module.presets()] == [
        "fig-a", "fig-b", "fig-c", "sphere", "biaxial", "mild"
    ]


# --- config ------------------------------------------------------------------


def test_config_defaults_applied():
    cfg = config_from_dict({"preset": "fig-a", "grid_n": 256})
    assert cfg.preset == "fig-a"
    assert cfg.grid_n == 256
    assert cfg.flow == FlowConfig()


def test_config_rejects_odd_grid():
    with pytest.raises(DataError):
        config_from_dict({"grid_n": 31})


def test_config_rejects_unknown_keys():
    with pytest.raises(DataError):
        config_from_dict({"preset": "fig-a", "grid_m": 64})
    with pytest.raises(DataError):
        config_from_dict({"flow": {"dt": 0.1}})


def test_config_flow_override():
    cfg = config_from_dict({"preset": "fig-a", "flow": {"a_min_stop": 0.01}})
    assert cfg.flow.a_min_stop == 0.01
    assert cfg.flow.cfl_safety == FlowConfig().cfl_safety


def test_config_rejects_a_min_stop_at_or_below_resolvable_floor():
    for a_min_stop in (1e-9, 1e-8):
        with pytest.raises(DataError, match="floor 1e-08"):
            config_from_dict({"flow": {"a_min_stop": a_min_stop}})
    assert config_from_dict({"flow": {"a_min_stop": 2e-8}}).flow.a_min_stop == 2e-8


def test_config_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(cfg)))
    assert load_config(path) == cfg


def test_config_inline_profiles():
    cfg = config_from_dict(
        {
            "grid_n": 32,
            "preset": "inline",
            "preset_params": {
                "phi0": {"kind": "const", "offset": 1.0},
                "a0": {"kind": "cos", "amplitude": 1.0, "offset": 1.5},
                "b0": {"kind": "cos", "amplitude": 1.0, "offset": 2.5},
                "c0": {"kind": "cos", "amplitude": 1.0, "offset": 3.5},
            },
        }
    )
    st = get_preset(cfg.preset, cfg.preset_params).build(PeriodicGrid(cfg.grid_n))
    g = PeriodicGrid(32)
    assert np.allclose(st.a, np.cos(g.z) + 1.5)


# 10**400 is a JSON integer too large for a float.
_SCALAR = (
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=3)
)
_JSON = _SCALAR | st.lists(_SCALAR, max_size=3) | st.dictionaries(st.text(max_size=3), _SCALAR,
                                                                  max_size=2)
_PROFILE_SPEC = st.fixed_dictionaries(
    {}, optional={k: _JSON for k in ("kind", "amplitude", "frequency", "offset", "samples")}
)
_PRESET_PARAMS = st.dictionaries(st.sampled_from(["r", "a0", "c0", "x"]), _JSON) | _JSON
_PROFILES = _JSON | st.fixed_dictionaries(
    {k: _PROFILE_SPEC | _JSON for k in ("phi0", "a0", "b0", "c0")},
    optional={"x": _PROFILE_SPEC},
)
# Any value under any key, or only a preset and its parameters, or only
# inline profiles: the last two often pass config_from_dict and reach get_preset.
_CONFIG_DOC = (
    st.fixed_dictionaries({}, optional={
        **{f.name: _JSON for f in fields(RunConfig)},
        "preset_params": _PRESET_PARAMS,
        "flow": _JSON | st.fixed_dictionaries(
            {}, optional={f.name: _JSON for f in fields(FlowConfig)}
        ),
    })
    | st.fixed_dictionaries({
        "preset": st.sampled_from(["sphere", "biaxial", "fig-a"]) | _JSON,
        "preset_params": _PRESET_PARAMS,
    })
    | st.fixed_dictionaries({"preset": st.just("inline"), "preset_params": _PROFILES})
)


def test_readme_json_configs_load_and_build():
    # every JSON block of README.md is a config whose preset builds on its grid
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    presets_named = []
    for block in re.findall(r"```json\n(.*?)```", readme, re.S):
        cfg = config_from_dict(json.loads(block))
        get_preset(cfg.preset, cfg.preset_params).build(PeriodicGrid(cfg.grid_n))
        presets_named.append(cfg.preset)
    assert "inline" in presets_named


@given(_CONFIG_DOC)
@settings(max_examples=100, deadline=None)
def test_config_of_any_json_values_builds_or_raises_data_error(doc):
    # cli.main turns a DataError into its one error line; any other
    # exception is a bug and escapes it as a traceback
    try:
        cfg = config_from_dict(doc)
        get_preset(cfg.preset, cfg.preset_params).build(PeriodicGrid(32))
    except DataError:
        pass


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
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
    assert lines[1].split(",")[0] == repr(traj.samples["t"][0].item())
    assert path.stat().st_size > 3_000_000
    assert peak < 150_000


def test_write_summary_keys(sphere_outputs, tmp_path):
    _, traj, report = sphere_outputs
    reports = run_monitors(traj, report)
    type1 = type1_classifier(traj, report)
    consts = constants(traj.samples[0]["ratio_max"])
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


def test_cli_theorem_constants_only_below_two(tmp_path):
    # fig-b starts at lambda = max c/a = 12, where the paper claims no
    # constants; mild starts below 2
    written = {}
    for preset in ("fig-b", "mild"):
        out = tmp_path / preset
        assert main(["run", "--preset", preset, "--grid-n", "64", "--out", str(out)]) == 0
        written[preset] = json.loads((out / "summary.json").read_text())["theorem_constants"]
    assert written["fig-b"] is None
    assert written["mild"]["lambda"] < 2.0 and written["mild"]["d_lower"] > 0.0


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
    # the round sphere steps on the one-point kernel, its dt set by the error
    # controller and the cap; every field of every row it writes is a float
    assert main(["run", "--preset", "sphere", "--grid-n", "32", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert len(lines) > 2
    for line in lines[1:]:
        for value in line.split(","):
            float(value)


@pytest.fixture
def one_line_error(tmp_path, monkeypatch, capsys):
    """check(argv, message, kept) runs main(argv) in tmp_path and asserts exit
    code 1, one `error:` line on stderr holding message, and no files in
    tmp_path but those named in kept; it returns (stdout, stderr). An
    exception that escapes main fails the test, as a traceback would."""
    monkeypatch.chdir(tmp_path)

    def check(argv, message, kept=()):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert left == sorted(kept)
        return out, err

    return check


def _assert_run_config_is_one_line_error(one_line_error, cfg, message, args=(), kept=()):
    Path("run.json").write_text(json.dumps(cfg))
    one_line_error(["run", "--config", "run.json", *args], message, kept=[*kept, "run.json"])


def test_cli_a_min_stop_below_floor_is_one_line_error(one_line_error):
    _assert_run_config_is_one_line_error(
        one_line_error, {"preset": "sphere", "grid_n": 32, "flow": {"a_min_stop": 1e-9}}, "1e-08"
    )


def test_cli_grid_n_zero_is_one_line_error(one_line_error):
    _assert_run_config_is_one_line_error(
        one_line_error, {"preset": "sphere"}, "grid_n must be >= 32", args=["--grid-n", "0"]
    )


_CONST = {"kind": "const", "offset": 1.0}


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"preset": "fig-a", "preset_params": {"r": 2.0}}, "takes no parameters"),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                               "c0": {"kind": "const", "offset": -1.0}}},
            "profile c must be strictly positive",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                               "c0": {"kind": "samples", "samples": [1.0] * 16}}},
            "samples profile has 16 points, grid needs 32",
        ),
        ({"preset": "sphere", "preset_params": {"r": -2.0}}, "profile a must be strictly positive"),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                               "c0": {"kind": "samples",
                                      "samples": [1.0] * 31 + [float("nan")]}}},
            "profile c must be finite everywhere",
        ),
        ({"preset": "sphere", "grid_n": 32, "kappa": float("inf")},
         "unknown config keys: ['kappa']"),
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
        ({"preset": "sphere", "grid_n": 32, "flow": {"cfl_safety": True}},
         "cfl_safety must be a number, got True"),
        ({"preset": "sphere", "grid_n": 32, "flow": {"a_min_stop": True}},
         "a_min_stop must be a number, got True"),
        ({"preset": "sphere", "grid_n": 32, "flow": 5}, "flow must be a JSON object, got 5"),
        ({"preset": "sphere", "grid_n": 32, "formats": "csv"},
         "unknown config keys: ['formats']"),
        # profiles enter only as the parameters of the inline preset
        ({"preset": "sphere", "grid_n": 32,
          "profiles": {"phi0": _CONST, "a0": _CONST, "b0": _CONST, "c0": _CONST}},
         "unknown config keys: ['profiles']"),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "cos", "amplitude": 1, "offset": 1.5,
                                      "frequency": 1.5}}},
            "profile frequency must be an integer, got 1.5",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "cos", "amplitude": "1", "offset": 1.5}}},
            "profile amplitude must be a number, got '1'",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                               "c0": {"kind": "const", "offset": True}}},
            "profile offset must be a number, got True",
        ),
        ({"preset": "sphere", "grid_n": 32, "preset_params": {"r": True}},
         "preset parameter r must be a number, got True"),
        ({"preset": "biaxial", "grid_n": 32, "preset_params": {"c0": "2"}},
         "preset parameter c0 must be a number, got '2'"),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "samples", "samples": [True] * 32}}},
            "profile a0 samples must be numbers, got True",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "samples", "samples": ["x"] + [1.0] * 31}}},
            "profile a0 samples must be numbers, got 'x'",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "samples", "samples": "abc"}}},
            "profile a0 samples must be a JSON list, got 'abc'",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "const", "offset": 1.0,
                                      "samples": [5.0] * 32}}},
            "profile kind 'const' takes no samples",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "cos", "amplitude": 0.5, "offset": 1.5,
                                      "samples": []}}},
            "profile kind 'cos' takes no samples",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"a0": _CONST, "b0": _CONST, "c0": _CONST,
                               "phi0": {"kind": "samples",
                                        "samples": [1.0] * 5 + [50.0] + [1.0] * 26}}},
            "no equal-arclength nodes for phi",
        ),
        # Preset.build checks the gauge samples before it resamples them
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"a0": _CONST, "b0": _CONST, "c0": _CONST,
                               "phi0": {"kind": "samples",
                                        "samples": [1.0] * 31 + [float("nan")]}}},
            "profile phi must be finite everywhere",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"a0": _CONST, "b0": _CONST, "c0": _CONST,
                               "phi0": {"kind": "samples",
                                        "samples": [1.0] * 5 + [-0.2] + [1.0] * 26}}},
            "phi must be strictly positive",
        ),
        (
            {"grid_n": 32, "preset": "inline",
             "preset_params": {"b0": _CONST, "c0": _CONST,
                               "phi0": {"kind": "sin", "amplitude": 0.3, "offset": 1.0},
                               "a0": {"kind": "samples",
                                      "samples": [1.0] * 5 + [-0.2] + [1.0] * 26}}},
            "profile a must be strictly positive",
        ),
        ({"preset": "sphere", "preset_params": {"r": 1e-9}},
         "fiber radius 1.000e-09 below resolvable floor 1e-08"),
        (
            {"grid_n": 64, "preset": "inline",
             "preset_params": {"phi0": _CONST, "b0": _CONST, "c0": _CONST,
                               "a0": {"kind": "sin", "amplitude": 0.5, "offset": 1.0,
                                      "frequency": 32}}},
            "profile frequency 32 is at or above the Nyquist frequency 32 of 64 grid points",
        ),
        (
            {"grid_n": 64, "preset": "inline",
             "preset_params": {"phi0": _CONST, "a0": _CONST, "b0": _CONST,
                               "c0": {"kind": "cos", "amplitude": 0.5, "offset": 2.0,
                                      "frequency": -40}}},
            "profile frequency -40 is at or above the Nyquist frequency 32",
        ),
        ({"preset": "sphere", "preset_params": 5}, "preset_params must be a JSON object, got 5"),
        ({"preset": "sphere", "preset_params": [1]},
         "preset_params must be a JSON object, got [1]"),
        ({"preset": "sphere", "preset_params": {"x": 1.0}},
         "unknown preset_params for 'sphere': ['x']"),
        ({"grid_n": 32, "preset": "inline", "preset_params": 5},
         "preset_params must be a JSON object, got 5"),
        ({"grid_n": 32, "preset": "inline",
          "preset_params": {"phi0": _CONST, "a0": _CONST, "b0": _CONST, "c0": 2.0}},
         "profile c0 must be a JSON object, got 2.0"),
        ({"preset": "sphere", "grid_n": 32, "out_dir": 5}, "out_dir must be a string, got 5"),
        ({"preset": "sphere", "grid_n": 32, "monitors_enabled": [["x"]]},
         "monitors_enabled entries must be strings, got ['x']"),
        ({"grid_n": 32, "preset": "inline",
          "preset_params": {"phi0": {"kind": "const", "offset": 1e160}, "a0": _CONST,
                            "b0": _CONST, "c0": _CONST}},
         "phi must be at most 1.341e+154"),
        # below sqrt(float min) phi^2 is subnormal: the step would overflow
        *(({"grid_n": 32, "preset": "inline",
            "preset_params": {"phi0": {"kind": "const", "offset": phi0}, "a0": _CONST,
                              "b0": _CONST, "c0": _CONST}},
           "phi must be at least 1.492e-154") for phi0 in (1e-156, 1e-160, 1e-200)),
        # fig-a's radii under phi0 = 1e-100: x''/x is about 1e200, its square
        # overflows
        (
            {"grid_n": 32, "preset": "inline", "preset_params": {
                "phi0": {"kind": "const", "offset": 1e-100},
                "a0": {"kind": "cos", "amplitude": 1.0, "offset": 1.5},
                "b0": {"kind": "cos", "amplitude": 1.0, "offset": 2.5},
                "c0": {"kind": "cos", "amplitude": 1.0, "offset": 3.5}}},
            "curvature is not finite everywhere",
        ),
        # r^2 overflows in the summary of the initial state, which runs under
        # evolve's np.errstate: no RuntimeWarning comes before the error line
        ({"preset": "sphere", "grid_n": 32, "preset_params": {"r": 1e160}},
         "curvature is not finite everywhere"),
        ({"grid_n": 32, "preset": "inline", "preset_params": {"phi0": _CONST, "a0": _CONST}},
         "preset_params of preset 'inline' must define ['b0', 'c0']"),
    ],
    ids=["preset-params-on-fig-a", "nonpositive-profile", "samples-length", "negative-sphere",
         "nan-samples", "infinite-kappa", "fixed-dt-key", "nan-t-max",
         "fractional-stride", "bool-stride", "snapshot-stride", "float-grid-n",
         "string-grid-n", "bool-cfl-safety", "bool-a-min-stop",
         "non-object-flow", "string-formats", "profiles-key",
         "fractional-frequency", "string-amplitude", "bool-offset", "bool-sphere-radius",
         "string-biaxial-radius", "bool-samples", "string-sample", "string-samples",
         "samples-on-const", "empty-samples-on-cos", "spiky-phi0", "nan-phi0-samples",
         "negative-phi0-sample", "negative-sample-under-wavy-phi0", "unresolvable-sphere",
         "nyquist-sin", "aliased-cos", "number-preset-params", "list-preset-params",
         "unknown-sphere-param", "number-profiles", "number-profile-spec", "number-out-dir",
         "list-monitor", "huge-phi0", "tiny-phi0-1e-156", "tiny-phi0-1e-160",
         "tiny-phi0-1e-200", "wavy-radii-tiny-phi0", "huge-sphere", "partial-inline"],
)
def test_cli_bad_data_config_is_one_line_error(one_line_error, cfg, message):
    _assert_run_config_is_one_line_error(one_line_error, cfg, message)


@pytest.mark.parametrize("kept", [[], ["keep"]])
def test_cli_failed_run_removes_the_out_dir_it_made(tmp_path, one_line_error, kept):
    # a failed run makes no directory: the run makes out_dir only after evolve,
    # to write into it, and keeps the directories that were there
    for name in kept:
        (tmp_path / name).mkdir()
    out_dir = "/".join(kept + ["outx", "sub"])
    cfg = {"preset": "sphere", "preset_params": {"r": 1e-9}, "out_dir": out_dir}
    _assert_run_config_is_one_line_error(one_line_error, cfg, "below resolvable floor", kept=kept)


@pytest.mark.parametrize("command", ["run", "curvature", "convergence"])
def test_cli_unknown_preset_is_one_line_error(one_line_error, command):
    _, err = one_line_error([command, "--preset", "nope"], "unknown preset 'nope'")
    assert err == "error: unknown preset 'nope'\n"


@pytest.mark.parametrize("flag", [",", " , "])
def test_cli_monitors_naming_no_monitor_is_one_line_error(one_line_error, flag):
    # run --strict would otherwise check nothing and exit 0
    _, err = one_line_error(["run", "--preset", "sphere", "--grid-n", "32", "--strict",
                             "--monitors", flag], "names no monitor")
    assert err == f"error: --monitors {flag!r} names no monitor\n"


def test_cli_empty_monitors_flag_and_config_list_still_run(tmp_path):
    # an empty --monitors means the defaults; a config's empty list runs none
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "sphere", "grid_n": 32, "monitors_enabled": []}))
    for name, argv in [("flag", ["--preset", "sphere", "--grid-n", "32", "--monitors", ""]),
                       ("config", ["--config", str(cfg)])]:
        assert main(["run", *argv, "--out", str(tmp_path / name)]) == 0
    ran = [json.loads((tmp_path / name / "summary.json").read_text())["monitors"]
           for name in ("flag", "config")]
    assert set(ran[0]) == set(DEFAULT_MONITORS) and ran[1] == {}


@pytest.mark.parametrize("command", ["run", "curvature", "convergence"])
def test_cli_inline_preset_without_params_is_one_line_error(one_line_error, command):
    # --preset passes no parameters, so the inline preset names what it misses
    message = "preset_params of preset 'inline' must define ['a0', 'b0', 'c0', 'phi0']"
    _, err = one_line_error([command, "--preset", "inline"], message)
    assert err == f"error: {message}\n"


def test_cli_curvature_bad_grid_is_one_line_error(one_line_error):
    # the grid is refused before --out is made or anything is printed
    out, _ = one_line_error(["curvature", "--grid-n", "6", "--out", "out"],
                            "grid size must be even and >= 8, got 6")
    assert out == ""


#: A grid whose one row of float64 takes 8 PiB, beyond any address space, so
#: the allocation fails at once.
UNALLOCATABLE_N = 2**50


def test_cli_run_config_grid_too_large_is_one_line_error(one_line_error):
    cfg = {"preset": "sphere", "grid_n": UNALLOCATABLE_N, "out_dir": "o"}
    _assert_run_config_is_one_line_error(one_line_error, cfg, "Unable to allocate")


@pytest.mark.parametrize("command", ["run", "curvature"])
def test_cli_grid_n_too_large_is_one_line_error(one_line_error, command):
    # no directory is made for --out
    argv = [command, "--preset", "sphere", "--grid-n", str(UNALLOCATABLE_N), "--out", "o/sub"]
    out, _ = one_line_error(argv, "Unable to allocate")
    assert out == ""


@pytest.mark.parametrize("n", [2**60, 2**62, 2**70])
@pytest.mark.parametrize("command", ["run", "curvature"])
def test_cli_grid_n_beyond_any_array_is_one_line_error(one_line_error, command, n):
    # past sys.maxsize // 72 the (3, 3, n) jet has no size NumPy can index;
    # the grid refuses n before any array is allocated
    argv = [command, "--preset", "sphere", "--grid-n", str(n), "--out", "o/sub"]
    out, _ = one_line_error(argv, f"grid size must be at most {sys.maxsize // 72}, got {n}")
    assert out == ""


def test_cli_config_not_utf8_is_one_line_error(one_line_error):
    Path("run.json").write_bytes(b"\xff\xfe\x00\x7b")
    one_line_error(["run", "--config", "run.json"], "config is not valid JSON", kept=["run.json"])


def test_cli_a_bug_escapes_main(tmp_path, monkeypatch):
    # a ValueError that is not a DataError is a fault of the program: main
    # lets it through, to print its traceback, instead of one error line
    def evolve(*args):
        raise ValueError("boom")

    monkeypatch.setattr(flow, "evolve", evolve)
    with pytest.raises(ValueError, match="boom"):
        main(["run", "--preset", "sphere", "--grid-n", "32", "--out", str(tmp_path)])


def test_cli_entry_point_bad_config_is_one_line_error(tmp_path):
    # the module's entry point in a fresh interpreter, not main alone: a data
    # error that fails the run exits 1 with one stderr line and makes no files
    (tmp_path / "run.json").write_text(
        json.dumps({"preset": "sphere", "preset_params": {"r": 1e-9}, "out_dir": "outx"})
    )
    proc = subprocess.run(
        [sys.executable, "-m", "neckpinch.cli", "run", "--config", "run.json"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "below resolvable floor" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


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
                "preset": "inline",
                "preset_params": {
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


def test_cli_strict_eccentric_biaxial_ratio_passes(tmp_path, capsys):
    # lam = c/a = 30: e^(lam^2-1) overflows a float, so the refined envelope
    # is +inf and the plain margin decides the ratio bound
    cfg = {"preset": "biaxial", "preset_params": {"a0": 0.1, "c0": 3.0}, "grid_n": 32,
           "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--strict"]) == 0
    assert "monitor ratio: pass" in capsys.readouterr().out
    ratio = json.loads((tmp_path / "summary.json").read_text())["monitors"]["ratio"]
    assert ratio["passed"] and "refined_margin=inf" in ratio["notes"]


def test_cli_strict_violation_exit_code(tmp_path, monkeypatch, capsys):
    # a near-zero tolerance turns the benign discretization-level ordering
    # wiggle on fig-a into a hard violation
    grid_tolerance = monitors.tolerance
    monkeypatch.setattr(monitors, "tolerance", lambda traj: 1e-12 * grid_tolerance(traj))
    argv = ["run", "--preset", "fig-a", "--grid-n", "64", "--out", str(tmp_path), "--strict"]
    assert main(argv) == 3
    assert "monitor ordering: FAIL" in capsys.readouterr().out
    monkeypatch.setattr(monitors, "tolerance", grid_tolerance)
    assert main(argv) == 0


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
def test_cli_unwritable_out_is_one_line_error(tmp_path, one_line_error, command, blocked):
    # --out naming a file fails before any output is written or printed; an
    # output file that cannot be written (here a directory of its name) fails
    # when it is written
    out = tmp_path / "out"
    if blocked:
        (out / blocked).mkdir(parents=True)
    else:
        out.write_text("keep")
    kept = ["out", f"out/{blocked}"] if blocked else ["out"]
    stdout, _ = one_line_error(
        [command, "--preset", "sphere", "--grid-n", "32", "--out", str(out)], str(out), kept
    )
    if not blocked:
        assert stdout == "" and out.read_text() == "keep"
        written = {"series.csv", "summary.json", "curvature.csv"}
        assert not [path for path in tmp_path.rglob("*") if path.name in written]


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


_WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text()
)
_INLINE = {
    "preset": "inline",
    "preset_params": {
        "phi0": {"kind": "sin", "amplitude": 0.3, "offset": 1.0},
        "a0": {"kind": "cos", "amplitude": 1.0, "offset": 1.5},
        "b0": {"kind": "cos", "amplitude": 1.0, "offset": 2.5},
        "c0": {"kind": "cos", "amplitude": 1.0, "offset": 3.5},
    },
    "grid_n": 64,
}


@pytest.mark.parametrize(
    "cfg, args",
    [
        *((w["config"], []) for w in _WORKLOADS.values()),
        (_INLINE, []),
        (_INLINE, ["--preset", "sphere", "--grid-n", "32", "--monitors", "ordering,cmax_bound"]),
    ],
    ids=[*_WORKLOADS, "inline", "inline-overridden"],
)
def test_cli_config_echo_reruns_the_run(tmp_path, capsys, cfg, args):
    # the config in summary.json names what ran: given a fresh out_dir, it
    # writes the same series.csv and prints the same lines
    def run(config, name, *extra):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "out_dir": str(tmp_path / name)}))
        assert main(["run", "--config", str(path), *extra]) == 0
        return capsys.readouterr().out, (tmp_path / name / "series.csv").read_bytes()

    first = run(cfg, "first", *args)
    echo = json.loads((tmp_path / "first" / "summary.json").read_text())["config"]
    assert run(echo, "again") == first


def test_cli_format_subset(tmp_path, capsys):
    # every run writes both outputs; --format is not an option
    argv = ["run", "--preset", "sphere", "--grid-n", "32", "--out", str(tmp_path)]
    assert main([*argv, "--format", "csv"]) == 1
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv", "summary.json"]


def test_cli_summary_without_singularity_is_strict_json(tmp_path):
    # a run stopped by t_max before any pinch has no Type I band: its NaNs
    # are written as null, which a strict parser accepts
    cfg_path = tmp_path / "run.json"
    cfg = {"preset": "fig-a", "grid_n": 64, "flow": {"t_max": 0.01}, "out_dir": str(tmp_path)}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0

    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in summary.json")

    doc = json.loads((tmp_path / "summary.json").read_text(), parse_constant=refuse)
    assert doc["t_estimate"] is None
    assert doc["type1"]["sup_tml_rm"] is None
    assert doc["type1"]["ratio_band"] == [None, None]
    assert doc["type1"]["classification"] == "Inconclusive"


def test_run_settings_inventory():
    # adding a setting, a config key or a run option means editing this test
    assert [f.name for f in fields(RunConfig)] == [
        "preset", "preset_params", "grid_n", "flow", "monitors_enabled", "out_dir"
    ]
    assert [f.name for f in fields(FlowConfig)] == [
        "cfl_safety", "a_min_stop", "t_max", "monitor_stride"
    ]
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [o for a in sub.choices["run"]._actions for o in a.option_strings]
    assert options == [
        "-h", "--help", "--preset", "--config", "--grid-n", "--out", "--monitors", "--strict"
    ]


def test_public_names_inventory():
    # adding a public name, or a module of the package, means editing this test
    assert neckpinch.__all__ == [
        "CurvatureField", "DataError", "FlowConfig", "MetricState", "MonitorReport",
        "PeriodicGrid", "Preset", "Profile", "RunConfig", "SingularityReport", "Trajectory",
        "TypeIReport", "amin_bound_monitor", "biaxial", "cmax_bound_monitor", "concavity_check",
        "config", "constants", "curvature", "derivative_bound_monitor", "eccentricity_monitor",
        "estimate_singular_time", "evolution_residual", "evolve", "flow", "get_preset", "grid",
        "load_config", "monitors", "ordering_monitor", "output", "presets", "ratio_monitor",
        "riemann_oracle", "rk4_step", "run_monitors", "scalar_min_monitor",
        "sectional_curvatures", "sphere", "type1_classifier", "write_series", "write_summary",
    ]


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


# Every byte pin of a run: a name maps to its run document, the flags of
# `run --config` and the sha256 of each artifact it pins, "series.csv" or
# "verdict" (see _artifact_sha256). The benchmark's three workloads run their
# own documents under --strict, as the benchmark does.
_ALL_MONITORS_64 = {"grid_n": 64, "monitors_enabled": list(MONITORS)}
PINNED_RUNS = {
    # 341 steps, T = 0.8532748531460519
    "fig-a": ({"preset": "fig-a", "grid_n": 64}, [], {
        "series.csv": "154363d3c781a18c6cd15e64f795984406821096460e5043540c9d24adb1d4af",
    }),
    # 446 steps, T = 3.344492212579588
    "fig-b": ({"preset": "fig-b", "grid_n": 64}, [], {
        "series.csv": "227fb7920208bf62b229f8adff3c0ecb5807aa1054259d9782ef0610a28af964",
    }),
    # 304 steps, T = 0.4948411030272531
    "fig-c": ({"preset": "fig-c", "grid_n": 64}, [], {
        "series.csv": "19a50431505c076a6226f8fba26f1598d4ca4433fbbc91b6fcf53e1722da77b3",
    }),
    # 245 steps, T = 0.27955513730075465
    "mild": ({"preset": "mild", "grid_n": 64}, [], {
        "series.csv": "4fb883a462de08211eb608403cdfd82840599d88136b7731ab082a7e55fa7a8c",
    }),
    # a = 1, b = c = 2, z-constant: 253 steps, T = 0.6900864982989322
    "biaxial": ({"preset": "biaxial", "grid_n": 64}, [], {
        "series.csv": "c601556914cbdce193e9d34fa3728d35952b234e81a4702d84163adf1bcf990c",
    }),
    # fig-a at n = 256: 342 steps, T = 0.8533297286729775
    "neck-fine": (_WORKLOADS["neck-fine"]["config"], ["--strict"], {
        "series.csv": "d645a41701fbd728ce25df8e673807cac5288c4b840a2c2b72fd74517f59c584",
    }),
    # fig-b, a summary every 2nd step, all 11 monitors: 446 steps, T = 3.344492211981948
    "two-neck-sampled": (_WORKLOADS["two-neck-sampled"]["config"], ["--strict"], {
        "series.csv": "d9a2782f0e53584043da3c0b8f2bb6e812f443792458740be2c2570e5096782a",
        "verdict": "9123f703820959faa32e70dc60a8986f76e3ce84951f645a61342b5631161917",
    }),
    # the round sphere r = 2, cfl 0.05, stop 1e-2: 878 steps, T = 0.9999999999960654
    "sphere-exact": (_WORKLOADS["sphere-exact"]["config"], ["--strict"], {
        "series.csv": "672ca3e3520c62e119f5cf1f5a3f64f82fdd7f14728613de3a44ce4a1cfc4001",
    }),
    # max c/a = 1.2, theorem_constants set: 245 steps, T = 0.27955513730075465
    "mild-verdict": ({"preset": "mild", **_ALL_MONITORS_64}, ["--strict"], {
        "verdict": "a8572d5edd90b4959a538ff7f23d4420a3162fe52e3357716a65ad4454b6a2f6",
    }),
    # lambda = 5, theorem_constants null: 341 steps, T = 0.8532748531460519
    "fig-a-verdict": ({"preset": "fig-a", **_ALL_MONITORS_64}, ["--strict"], {
        "verdict": "946f75c0cadee9c3e1cee176d6f966d239a29f78a25ec82159a9ad056380a5df",
    }),
}

# The byte pins of the commands that print or write a table: argv, the file
# under --out (None: stdout) and its sha256.
PINNED_TABLES = {
    "presets": (
        ["presets"], None, "cbbb1e07e892ee6bca13cce208ad9db1ffce9f861053e2c0bccd693f1e767ab1"
    ),
    "convergence-fig-a": (
        ["convergence", "--preset", "fig-a"],
        None,
        "265233dd31a7049f034d31257c2f59eb42cc34fa0316d25ae7aceba9ffbd581c",
    ),
    "curvature-fig-b-128": (
        ["curvature", "--preset", "fig-b", "--grid-n", "128"],
        "curvature.csv",
        "b9cde5c4f8f270444958b4d8cde845723f4dab21a5113052f45a44864aff69e7",
    ),
}


def _artifact_sha256(out_dir: Path, artifact: str) -> str:
    """sha256 of a run's series.csv, or of its verdict: summary.json's
    monitors, type1 and theorem_constants objects as canonical JSON (sorted
    keys, no whitespace)."""
    if artifact == "series.csv":
        return hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
    doc = json.loads((out_dir / "summary.json").read_text())
    verdict = {key: doc[key] for key in ("monitors", "type1", "theorem_constants")}
    canonical = json.dumps(verdict, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()


def _run_document(tmp_path, doc, flags=(), name="out") -> Path:
    """Run doc through `run --config` with flags, which must exit 0, into
    tmp_path / name, which it returns."""
    out_dir = tmp_path / name
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps({**doc, "out_dir": str(out_dir)}))
    assert main(["run", "--config", str(cfg_path), *flags]) == 0
    return out_dir


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_cli_run_byte_identical_to_pinned_hash(tmp_path, name):
    doc, flags, digests = PINNED_RUNS[name]
    out_dir = _run_document(tmp_path, doc, flags)
    assert {artifact: _artifact_sha256(out_dir, artifact) for artifact in digests} == digests


@pytest.mark.parametrize("name", PINNED_TABLES)
def test_cli_table_byte_identical_to_pinned_hash(tmp_path, capsys, name):
    argv, artifact, digest = PINNED_TABLES[name]
    if artifact is None:
        assert main(argv) == 0
        table = capsys.readouterr().out.encode()
    else:
        assert main([*argv, "--out", str(tmp_path)]) == 0
        table = (tmp_path / artifact).read_bytes()
    assert hashlib.sha256(table).hexdigest() == digest


def test_every_benchmark_workload_is_pinned():
    # a workload of perfbench/workloads.json cannot go unpinned in tier-1
    for name, workload in _WORKLOADS.items():
        assert name in PINNED_RUNS
        assert PINNED_RUNS[name][:2] == (workload["config"], ["--strict"])


def test_cli_run_calls_no_lapack(tmp_path, monkeypatch):
    # The singular-time fit and the Type I trend are closed-form line fits;
    # the first LAPACK call alone would add over 1 MB to a run's peak RSS.
    def lapack(*args, **kwargs):
        raise AssertionError("a run called into LAPACK")

    monkeypatch.setattr(np, "polyfit", lapack)
    for name in ("lstsq", "svd", "solve", "pinv"):
        monkeypatch.setattr(np.linalg, name, lapack)
    runs = {
        "fig-a": {**PINNED_RUNS["fig-a"][0], "monitors_enabled": list(MONITORS)},
        "sphere-exact": PINNED_RUNS["sphere-exact"][0],
    }
    for name, cfg in runs.items():
        out_dir = _run_document(tmp_path, cfg, name=name)
        assert _artifact_sha256(out_dir, "series.csv") == PINNED_RUNS[name][2]["series.csv"]
        doc = json.loads((out_dir / "summary.json").read_text())
        assert doc["t_estimate"] is not None
        assert doc["type1"]["classification"] == "TypeI"
        assert set(doc["monitors"]) == set(cfg.get("monitors_enabled", DEFAULT_MONITORS))


# NumPy routines that call BLAS or LAPACK, and np.einsum, which does when
# given `optimize` (it then routes through tensordot).
BLAS_NAMES = {
    "dot", "matmul", "tensordot", "inner", "vdot", "linalg", "polyfit", "einsum", "optimize",
}


def test_package_calls_no_blas():
    # A process's first gemm maps OpenBLAS's kernels and buffer, 0.25-0.4 MB
    # of peak RSS. No function of the package makes a matrix product.
    matmuls, uses = set(), set()
    for path in sorted(Path(neckpinch.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{top.name}" if hasattr(top, "name") else path.stem
            for node in ast.walk(top):
                match node:
                    case ast.BinOp(op=ast.MatMult()) | ast.AugAssign(op=ast.MatMult()):
                        matmuls.add(where)
                    case ast.Attribute(attr=name) | ast.Name(id=name) | ast.keyword(arg=name):
                        if name in BLAS_NAMES:
                            uses.add(f"{where}:{node.lineno} {name}")
                    case ast.alias(name=name) | ast.ImportFrom(module=str() as name):
                        if BLAS_NAMES.intersection(name.split(".")):
                            uses.add(f"{where} imports {name}")
    assert matmuls == set()
    assert uses == set()


def _dotted_names(tree):
    """Every name.attr, imported module and imported module.name in tree."""
    for node in ast.walk(tree):
        match node:
            case ast.Attribute(value=ast.Name(id=base), attr=attr):
                yield f"{base}.{attr}"
            case ast.Import(names=aliases):
                yield from (alias.name for alias in aliases)
            case ast.ImportFrom(module=str() as module, names=aliases):
                yield module
                yield from (f"{module}.{alias.name}" for alias in aliases)


def test_package_transforms_only_through_grid():
    # grid.rfft and grid.irfft are the one transform path: numpy.fft's
    # kernels without its per-call dispatch, which cost most of a call
    users = set()
    for path in sorted(Path(neckpinch.__file__).parent.glob("*.py")):
        for name in _dotted_names(ast.parse(path.read_text())):
            if name.split(".")[:2] in (["np", "fft"], ["numpy", "fft"]):
                users.add(path.stem)
    assert users == {"grid"}


def test_z_constant_run_never_loads_numpy_fft(tmp_path):
    # z-constant data step on the point kernel and take no transform, so a
    # sphere run in a fresh interpreter never imports numpy.fft, whose
    # modules would add to its peak RSS; the fig-a run after it does
    sphere = {
        "preset": "sphere",
        "preset_params": {"r": 2.0},
        "grid_n": 64,
        "flow": {"cfl_safety": 0.05, "a_min_stop": 0.01},
        "out_dir": "sphere",
    }
    (tmp_path / "sphere.json").write_text(json.dumps(sphere))
    code = (
        "import sys; import neckpinch; from neckpinch import cli; "
        "assert cli.main(['run', '--config', 'sphere.json']) == 0; "
        "loaded = ['numpy.fft' in sys.modules]; "
        "assert cli.main(['run', '--preset', 'fig-a', '--grid-n', '32', '--out', 'fig-a']) == 0; "
        "print(loaded + ['numpy.fft' in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[False, True]"


def test_presets_import_only_the_input_layer():
    # the initial data depend on grid alone, not on the dynamics in flow
    path = Path(neckpinch.__file__).parent / "presets.py"
    modules = {
        node.module
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert modules == {"grid"}


def test_cli_exhausted_halvings_exit_code(tmp_path, monkeypatch):
    def reject(*args):
        raise StepRejected("positivity lost after step")

    # z-constant data take evolve's point kernel, fig-a its grid kernel
    fig_a = get_preset("fig-a").build(PeriodicGrid(32))
    fig_a_x = z_jet(np.fft.rfft(fig_a.x), fig_a.phi)[0]
    cases = [
        ("sphere", "_point_step", 2.0 / PeriodicGrid(32).dz),
        ("fig-a", "rk4_step", float(fig_a_x[0].min() / (fig_a.phi * fig_a.grid.dz))),
    ]
    for preset, step, neck_resolution in cases:
        cfg_path, out = tmp_path / f"{preset}.json", tmp_path / preset
        cfg_path.write_text(json.dumps({"preset": preset, "grid_n": 32, "out_dir": str(out)}))
        with monkeypatch.context() as patch:
            patch.setattr(flow, step, reject)
            assert main(["run", "--config", str(cfg_path)]) == 2
        doc = json.loads((out / "summary.json").read_text())
        assert doc["stop_reason"] == "step_halvings_exhausted"
        assert doc["samples"] == 1
        assert doc["run_stats"] == {
            "steps": 0,
            "rejected": 21,
            "capped": 0,
            "neck_resolution": neck_resolution,
        }


@pytest.mark.parametrize("preset", ["sphere", "fig-a"])
def test_cli_underflowed_dt_ends_as_exhausted_halvings(tmp_path, preset):
    # under cfl_safety 1e-320 tol underflows to 0, so each dt is 0.2 times the
    # last until it is 0.0; both kernels reject that step as any other, and
    # its halvings run out
    cfg = {"preset": preset, "grid_n": 32, "flow": {"cfl_safety": 1e-320},
           "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["stop_reason"] == "step_halvings_exhausted"
    assert doc["run_stats"]["steps"] > 0 and doc["run_stats"]["rejected"] == 21


@pytest.mark.parametrize("r", [1e5, 1e20])
def test_cli_step_that_no_longer_advances_t_ends_as_exhausted_halvings(tmp_path, r):
    # the default stop a_min < 1e-3 is absolute: near the pinch of a large
    # sphere dt falls below half an ulp of t, and t + dt == t is a rejected
    # step, so no sample time repeats and T keeps the relative error of r = 2
    cfg = {"preset": "sphere", "preset_params": {"r": r}, "grid_n": 32,
           "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--strict"]) == 2
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["stop_reason"] == "step_halvings_exhausted"
    assert doc["run_stats"]["rejected"] == 21
    lines = (tmp_path / "series.csv").read_text().splitlines()
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(set(ts)) == len(ts) == doc["samples"]
    assert abs(doc["t_estimate"] - r * r / 4.0) <= 1e-8 * r * r / 4.0
