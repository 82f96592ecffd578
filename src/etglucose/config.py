"""Experiment configuration: YAML files mapped onto the module dataclasses.

One file describes one run (method, patient, budget, seeds, and the
nested module settings). Each nested section is the settings type of the
module that reads it. A matrix file adds lists of methods and patients
to sweep. Every key is checked; unknown keys and out-of-range values
raise ConfigError, which the CLI turns into exit code 1.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from numbers import Real
from pathlib import Path

import yaml

from .cgmetppo import TriggerConfig
from .env import EpisodeConfig, is_int
from .pid import PidGrid
from .plant import PumpConfig, SensorConfig
from .ppo import HyperParams

METHODS = ("pid", "ppo", "hetppo", "cgmetppo-fixed", "cgmetppo-variable")
# The methods that read each switch; any other method would ignore it.
SWITCH_READERS = {"r1_only": ("cgmetppo-fixed", "cgmetppo-variable"),
                  "pin_events": ("hetppo",)}


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


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
    sensor: SensorConfig = field(default_factory=SensorConfig)
    pump: PumpConfig = field(default_factory=PumpConfig)
    pid_grid: PidGrid = field(default_factory=PidGrid)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        for name, readers in SWITCH_READERS.items():
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")
            if getattr(self, name) and self.method not in readers:
                raise ValueError(f"{name} must be false for method {self.method!r}")
        if not isinstance(self.patient, str):
            raise ValueError("patient must be a patient name")
        if not (self.cohort_file is None or isinstance(self.cohort_file, str)):
            raise ValueError("cohort_file must be a file path or null")
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
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not is_int(self.checkpoint_every):
            raise ValueError("checkpoint_every must be an integer")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class MatrixConfig:
    """A sweep: one checked run per (method, patient) pair, methods outer."""

    runs: tuple[ExperimentConfig, ...]

    def configs(self) -> list[ExperimentConfig]:
        return list(self.runs)


# The nested sections: each field a default_factory builds, by its type.
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.default_factory is not MISSING}


def _build(cls, mapping: dict, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    defaults = {f.name: f.default for f in fields(cls) if f.init}
    unknown = set(mapping) - set(defaults)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        default, values = defaults[key], (value,)
        # A tuple default takes a list, and a float default only real numbers.
        if isinstance(default, tuple):
            if not isinstance(value, list):
                raise ConfigError(f"{context}: {key} must be a list")
            default, values = default[0], value
            value = tuple(value)
        if isinstance(default, float) and not all(
                isinstance(v, Real) and not isinstance(v, bool) for v in values):
            raise ConfigError(f"{context}: {key} must be a number")
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
    for key, cls in _SECTIONS.items():
        if key in prepared:
            prepared[key] = _build(cls, prepared[key], key)
    return _build(ExperimentConfig, prepared, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    raw = _read_yaml(path)
    return config_from_dict(raw)


def load_matrix_config(path: str | Path) -> MatrixConfig:
    """Build and check every run of a sweep before any of them starts."""
    raw = _read_yaml(path)
    if not isinstance(raw, dict) or "matrix" not in raw:
        raise ConfigError("matrix config must have a 'matrix' section")
    section = raw["matrix"]
    if not isinstance(section, dict):
        raise ConfigError("'matrix' section must be a mapping")
    unknown = set(section) - {"methods", "patients"}
    if unknown:
        raise ConfigError(f"matrix: unknown keys {sorted(unknown)}")
    if "method" in raw or "patient" in raw:
        raise ConfigError("a matrix file has no top-level method or patient; "
                          "list them under matrix: methods, patients")
    methods, patients = section.get("methods"), section.get("patients")
    if not all(isinstance(v, list) and v for v in (methods, patients)):
        raise ConfigError("matrix needs lists of at least one method and one patient")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in matrix")
    if not all(isinstance(p, str) for p in patients):
        raise ConfigError("matrix patients must be patient names")
    for name, names in (("methods", methods), ("patients", patients)):
        if len(set(names)) != len(names):
            raise ConfigError(f"matrix {name} must be distinct")
    base = {k: v for k, v in raw.items() if k != "matrix"}
    return MatrixConfig(tuple(
        config_from_dict(dict(base, method=m, patient=p))
        for m in methods for p in patients
    ))


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
