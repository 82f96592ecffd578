"""Experiment configuration: YAML files mapped onto the module dataclasses.

One file describes one run (method, patient, budget, seeds, and the
nested module settings). A matrix file adds lists of methods and
patients to sweep. Every key is checked; unknown keys and out-of-range
values raise ConfigError, which the CLI turns into exit code 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .cgmetppo import TriggerConfig
from .env import EpisodeConfig, RewardConfig, is_int
from .pid import DEFAULT_KD_GRID, DEFAULT_KI_GRID, DEFAULT_KP_GRID
from .plant import PumpConfig, SensorConfig
from .ppo import HyperParams

METHODS = ("pid", "ppo", "hetppo", "cgmetppo-fixed", "cgmetppo-variable")


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class PidGrid:
    kp: tuple[float, ...] = DEFAULT_KP_GRID
    ki: tuple[float, ...] = DEFAULT_KI_GRID
    kd: tuple[float, ...] = DEFAULT_KD_GRID

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            vals = getattr(self, name)
            if len(vals) == 0:
                raise ValueError(f"pid grid {name} must be non-empty")
            if not all(0.0 <= v < math.inf for v in vals):
                raise ValueError(f"{name} must hold finite non-negative gains")


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    patient: str = "adult#001"
    episodes: int = 2000
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    r1_only: bool = False  # drop the holding bonus from the SMDP reward
    pin_events: bool = False  # hetppo only: remove the event head
    checkpoint_every: int = 0  # 0 keeps only the final checkpoint
    cohort_file: str | None = None  # None selects the packaged cohort
    hyper: HyperParams = field(default_factory=HyperParams)
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    pump: PumpConfig = field(default_factory=PumpConfig)
    pid_grid: PidGrid = field(default_factory=PidGrid)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if not is_int(self.episodes):
            raise ValueError("episodes must be an integer")
        if self.episodes < 1:
            raise ValueError("episodes must be positive")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        if not all(is_int(s) for s in self.seeds):
            raise ValueError("seeds must be integers")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be non-negative")
        if not is_int(self.checkpoint_every):
            raise ValueError("checkpoint_every must be an integer")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class MatrixConfig:
    """A sweep: every (method, patient) pair shares the base settings."""

    methods: tuple[str, ...]
    patients: tuple[str, ...]
    base: dict

    def __post_init__(self):
        if len(self.methods) == 0 or len(self.patients) == 0:
            raise ValueError("matrix needs at least one method and one patient")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} in matrix")

    def configs(self) -> list[ExperimentConfig]:
        out = []
        for method in self.methods:
            for patient in self.patients:
                out.append(config_from_dict(
                    dict(self.base, method=method, patient=patient)
                ))
        return out


_NESTED = {
    "hyper": HyperParams,
    "trigger": TriggerConfig,
    "episode": EpisodeConfig,
    "reward": RewardConfig,
    "sensor": SensorConfig,
    "pump": PumpConfig,
    "pid_grid": PidGrid,
}

_LIST_FIELDS = ("seeds",)  # top-level sequences converted to tuples


def _build(cls, mapping: dict, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if "method" not in raw:
        raise ConfigError("config must set 'method'")
    trigger = raw.get("trigger")
    if isinstance(trigger, dict) and "scheme" in trigger:
        raise ConfigError("trigger: 'scheme' is not a config key; the scheme "
                          "follows from method (cgmetppo-fixed or cgmetppo-variable)")
    prepared = dict(raw)
    for key, cls in _NESTED.items():
        if key in prepared and prepared[key] is not None:
            prepared[key] = _build(cls, prepared[key], key)
    return _build(ExperimentConfig, prepared, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    raw = _read_yaml(path)
    return config_from_dict(raw)


def load_matrix_config(path: str | Path) -> MatrixConfig:
    raw = _read_yaml(path)
    if not isinstance(raw, dict) or "matrix" not in raw:
        raise ConfigError("matrix config must have a 'matrix' section")
    section = raw["matrix"]
    if not isinstance(section, dict):
        raise ConfigError("'matrix' section must be a mapping")
    unknown = set(section) - {"methods", "patients"}
    if unknown:
        raise ConfigError(f"matrix: unknown keys {sorted(unknown)}")
    base = {k: v for k, v in raw.items() if k != "matrix"}
    base.pop("method", None)
    base.pop("patient", None)
    # Validate the base settings once with a placeholder method.
    config_from_dict(dict(base, method="ppo"))
    try:
        return MatrixConfig(
            methods=tuple(section.get("methods", ())),
            patients=tuple(section.get("patients", ())),
            base=base,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_yaml(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"config file is empty: {path}")
    return raw
