"""Event-triggered insulin control on a simulated artificial pancreas.

A self-contained library + CLI: a 13-state virtual-patient plant with a
CGM sensor and insulin pump, randomized meal scenarios, PPO trainers for
periodic, event-augmented, and CGM-threshold-triggered (SMDP) control, a
tuned PID baseline, and greedy evaluation that writes metrics and figure data.
"""

__version__ = "0.1.0"

from .cgmetppo import CgmEtppoTrainer, TriggerConfig
from .config import ConfigError, ExperimentConfig, load_config
from .env import ApEnv, EpisodeConfig
from .hetppo import HetppoTrainer
from .metrics import EpisodeRecord, aurr, ecf, tir
from .patients import build_patient, default_cohort, generate_cohort
from .pid import PidGains, PidGrid, grid_search_pid
from .plant import PatientParams, PatientState, PumpConfig, SensorConfig
from .ppo import HyperParams, PpoTrainer
from .scenario import MealScenario, default_eval_scenarios
from .seeding import RngBundle, named_stream

__all__ = [
    "ApEnv",
    "CgmEtppoTrainer",
    "ConfigError",
    "EpisodeConfig",
    "EpisodeRecord",
    "ExperimentConfig",
    "HetppoTrainer",
    "HyperParams",
    "MealScenario",
    "PatientParams",
    "PatientState",
    "PidGains",
    "PidGrid",
    "PpoTrainer",
    "PumpConfig",
    "RngBundle",
    "SensorConfig",
    "TriggerConfig",
    "aurr",
    "build_patient",
    "default_cohort",
    "default_eval_scenarios",
    "ecf",
    "generate_cohort",
    "grid_search_pid",
    "load_config",
    "named_stream",
    "tir",
    "__version__",
]
