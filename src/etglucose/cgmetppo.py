"""CGM-change-triggered PPO over a semi-Markov decision process.

A decision fixes the pump rate (and possibly the trigger threshold); the
command then holds until the CGM has moved at least the threshold away
from its value at decision time. The decision loop, the gamma^tau
advantage recursion and the update are the shared core in ppo.py; this
module adds the threshold rule, the holding bonus R2, and the variable-
and fixed-threshold trainers. With the threshold identically zero every
hold lasts one step and the trainer reduces exactly to standard PPO.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import reward_r1, reward_r2
from .ppo import (  # noqa: F401  (the SMDP core's names are re-exported)
    EpisodeStats,
    Trainer,
    smdp_gae,
    smdp_update,
    unit_clip,
)

# The range a sampled threshold is squashed into [mg/dL].
ETA_LO = 15.0
ETA_HI = 25.0


@dataclass(frozen=True)
class TriggerConfig:
    fixed_eta: float = 25.0  # mg/dL, the threshold of a one-wide action

    def __post_init__(self):
        if not 0.0 <= self.fixed_eta < math.inf:
            raise ValueError("fixed_eta must be finite and non-negative")

    def threshold(self, a_raw: np.ndarray) -> float:
        """fixed_eta for a one-wide (rate-only) action, else a[1] squashed
        into [ETA_LO, ETA_HI]; the policy's width is the threshold rule."""
        if len(a_raw) == 1:
            return self.fixed_eta
        frac = unit_clip(a_raw[1])
        return ETA_LO + (ETA_HI - ETA_LO) * frac


class CgmEtppoTrainer(Trainer):
    """Algorithm: rule-triggered insulin updates trained as an SMDP.

    The policy samples (rate, threshold), the threshold affinely squashed
    into [ETA_LO, ETA_HI]; FixedCgmEtppoTrainer samples only the rate and
    holds to fixed_eta. Reward per held step is R1 + R2; r1_only drops the
    holding bonus (used for the periodic-vs-triggered comparison).
    """

    method = "cgmetppo-variable"
    widths = (2, 2)  # a mean and a log-std for the rate and the threshold

    def __init__(self, patient, rngs, trigger: TriggerConfig = TriggerConfig(),
                 *, r1_only: bool = False, **kwargs):
        self.trigger = trigger
        self.r1_only = r1_only
        super().__init__(patient, rngs, **kwargs)

    def step_reward(self, y: float, ell: int) -> float:
        if self.r1_only:
            return reward_r1(y)
        return reward_r1(y) + reward_r2(y, ell)

    def run_episode(self, episode_idx: int = 0) -> EpisodeStats:
        return self._smdp_episode(episode_idx)


class FixedCgmEtppoTrainer(CgmEtppoTrainer):
    """The fixed-threshold trainer: a rate-only policy held to fixed_eta."""

    method = "cgmetppo-fixed"
    widths = (1, 1)
