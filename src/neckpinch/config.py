"""Run configuration: a flat JSON document with typo-safe loading.

Unknown keys are hard errors so a misspelled option can never silently fall
back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

from .flow import FlowConfig
from .monitors import DEFAULT_MONITORS, MONITORS
from .presets import Preset, Profile, get_preset

_KNOWN_FORMATS = ("csv", "json")

_PROFILE_KEYS = {"kind", "amplitude", "frequency", "offset", "samples"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    preset: str = "fig-a"
    preset_params: dict = dc_field(default_factory=dict)
    profiles: dict | None = None
    grid_n: int = 256
    flow: FlowConfig = dc_field(default_factory=FlowConfig)
    monitors_enabled: tuple[str, ...] = DEFAULT_MONITORS
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")
    kappa: float = 1.0

    def __post_init__(self):
        if self.grid_n % 2 != 0:
            raise ConfigError(f"grid_n must be even, got {self.grid_n}")
        if self.grid_n < 32:
            raise ConfigError(f"grid_n must be >= 32 for production runs, got {self.grid_n}")
        for fmt in self.formats:
            if fmt not in _KNOWN_FORMATS:
                raise ConfigError(f"unknown output format {fmt!r}")
        for name in self.monitors_enabled:
            if name not in MONITORS:
                raise ConfigError(f"unknown monitor {name!r}")
        if not math.isfinite(self.kappa):
            raise ConfigError(f"kappa must be finite, got {self.kappa!r}")
        if self.kappa <= 0.0:
            raise ConfigError("kappa must be positive")

    def build_preset(self) -> Preset:
        if self.profiles is not None:
            required = {"phi0", "a0", "b0", "c0"}
            unknown = set(self.profiles) - required
            if unknown:
                raise ConfigError(f"unknown profile entries: {sorted(unknown)}")
            missing = required - set(self.profiles)
            if missing:
                raise ConfigError(f"profiles must define {sorted(missing)}")
            built = {}
            for key, spec in self.profiles.items():
                bad = set(spec) - _PROFILE_KEYS
                if bad:
                    raise ConfigError(f"unknown profile keys in {key!r}: {sorted(bad)}")
                spec = dict(spec)
                if "samples" in spec and spec["samples"] is not None:
                    spec["samples"] = tuple(float(v) for v in spec["samples"])
                built[key] = Profile(**spec)
            return Preset(name="inline", description="profiles from config", **built)
        return get_preset(self.preset, self.preset_params)

    def as_dict(self) -> dict:
        """The config as a JSON document: tuples as lists, an infinite t_max
        as null."""
        doc = {k: list(v) if k in _TUPLE_KEYS else v for k, v in asdict(self).items()}
        if math.isinf(self.flow.t_max):
            doc["flow"]["t_max"] = None
        return doc


# The config document's schema: the fields of RunConfig, with "flow" holding
# the fields of FlowConfig. Fields with a tuple default arrive as JSON lists.
_TOP_KEYS = {f.name for f in fields(RunConfig)}
_FLOW_KEYS = {f.name for f in fields(FlowConfig)}
_TUPLE_KEYS = {f.name for f in fields(RunConfig) if isinstance(f.default, tuple)}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    kwargs = {
        k: tuple(v) if k in _TUPLE_KEYS else v
        for k, v in data.items()
        if k != "flow" and v is not None
    }

    flow_data = data.get("flow") or {}
    bad = set(flow_data) - _FLOW_KEYS
    if bad:
        raise ConfigError(f"unknown flow keys: {sorted(bad)}")
    flow_kwargs = {k: v for k, v in flow_data.items() if v is not None or k == "fixed_dt"}
    if flow_kwargs.get("t_max") is None:
        flow_kwargs.pop("t_max", None)
    try:
        kwargs["flow"] = FlowConfig(**flow_kwargs)
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
