"""Run configuration: a flat JSON document with typo-safe loading.

Unknown keys are hard errors so a misspelled option can never silently fall
back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

from .flow import FlowConfig
from .grid import DataError
from .monitors import DEFAULT_MONITORS, MONITORS
from .presets import Preset, get_preset


@dataclass(frozen=True)
class RunConfig:
    preset: str = "fig-a"
    preset_params: dict = dc_field(default_factory=dict)
    grid_n: int = 256
    flow: FlowConfig = dc_field(default_factory=FlowConfig)
    monitors_enabled: tuple[str, ...] = DEFAULT_MONITORS
    out_dir: str = "."

    def __post_init__(self):
        if isinstance(self.grid_n, bool) or not isinstance(self.grid_n, int):
            raise DataError(f"grid_n must be an integer, got {self.grid_n!r}")
        if self.grid_n % 2 != 0:
            raise DataError(f"grid_n must be even, got {self.grid_n}")
        if self.grid_n < 32:
            raise DataError(f"grid_n must be >= 32 for production runs, got {self.grid_n}")
        if not isinstance(self.out_dir, str):
            raise DataError(f"out_dir must be a string, got {self.out_dir!r}")
        bad = [v for v in self.monitors_enabled if not isinstance(v, str)]
        if bad:
            raise DataError(f"monitors_enabled entries must be strings, got {bad[0]!r}")
        for name in self.monitors_enabled:
            if name not in MONITORS:
                raise DataError(f"unknown monitor {name!r}")

    def build_preset(self) -> Preset:
        """get_preset(preset, preset_params), for perfbench/richardson.py."""
        return get_preset(self.preset, self.preset_params)


# The config document's schema: the fields of RunConfig, with "flow" holding
# the fields of FlowConfig. Fields with a tuple default arrive as JSON lists.
_TOP_KEYS = {f.name for f in fields(RunConfig)}
_FLOW_KEYS = {f.name for f in fields(FlowConfig)}
_TUPLE_KEYS = {f.name for f in fields(RunConfig) if isinstance(f.default, tuple)}
_OBJECT_KEYS = {"preset_params", "flow"}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise DataError("config document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")

    for keys, kind, label in ((_TUPLE_KEYS, list, "list"), (_OBJECT_KEYS, dict, "object")):
        for k in keys & set(data):
            if data[k] is not None and not isinstance(data[k], kind):
                raise DataError(f"{k} must be a JSON {label}, got {data[k]!r}")
    kwargs = {
        k: tuple(v) if k in _TUPLE_KEYS else v
        for k, v in data.items()
        if k != "flow" and v is not None
    }

    flow_data = {} if data.get("flow") is None else data["flow"]
    bad = set(flow_data) - _FLOW_KEYS
    if bad:
        raise DataError(f"unknown flow keys: {sorted(bad)}")
    # A null value, as the echo of an infinite t_max, takes the default.
    flow_kwargs = {k: v for k, v in flow_data.items() if v is not None}
    kwargs["flow"] = FlowConfig(**flow_kwargs)
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
