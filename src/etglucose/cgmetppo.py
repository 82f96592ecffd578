"""CGM-change-triggered PPO over a semi-Markov decision process.

A decision fixes the pump rate (and, in the variable scheme, a trigger
threshold); the command then holds until the CGM has moved at least the
threshold away from its value at decision time. The decision loop, the
gamma^tau advantage recursion and the update are the shared core in
ppo.py; this module adds the trigger schemes, the holding bonus R2, and
the trainer. With the threshold identically zero every hold lasts one
step and the trainer reduces exactly to standard PPO.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Observation, reward_r1, reward_r2
from .neural import GaussianPolicy
from .ppo import (  # noqa: F401  (the SMDP core's names are re-exported)
    EpisodeStats,
    SmdpBuffer,
    SmdpExperience,
    Trainer,
    greedy_decide,
    smdp_gae,
    smdp_update,
    squash_rate,
)

@dataclass(frozen=True)
class TriggerConfig:
    scheme: str = "variable"  # "fixed" or "variable"; set from the method
    fixed_eta: float = 25.0  # mg/dL, used by the fixed scheme
    eta_lo: float = 15.0  # variable-scheme bounds, mg/dL
    eta_hi: float = 25.0

    def __post_init__(self):
        if self.scheme not in ("fixed", "variable"):
            raise ValueError(f"unknown trigger scheme {self.scheme!r}")
        for name in ("fixed_eta", "eta_lo", "eta_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.fixed_eta < 0:
            raise ValueError("fixed_eta must be non-negative")
        if not self.eta_lo < self.eta_hi:
            raise ValueError("need eta_lo < eta_hi")

    def threshold(self, a_raw: np.ndarray) -> float:
        """Threshold of a raw action: fixed, or a[1] squashed into [lo, hi]."""
        if self.scheme == "fixed":
            return self.fixed_eta
        frac = float(np.clip(a_raw[1], 0.0, 1.0))
        return self.eta_lo + (self.eta_hi - self.eta_lo) * frac


def smdp_delta(
    R: float, tau: int, v_next: float, v_cur: float, d: float, gamma: float
) -> float:
    """SMDP temporal-difference error with a gamma^tau bootstrap."""
    return R + gamma ** int(tau) * (1.0 - d) * v_next - v_cur


class CgmEtppoTrainer(Trainer):
    """Algorithm: rule-triggered insulin updates trained as an SMDP.

    The fixed scheme samples only the pump rate and uses a constant
    threshold; the variable scheme samples (rate, threshold) jointly, the
    threshold being affinely squashed into [eta_lo, eta_hi]. Reward per
    held step is R1 + R2 by default; r1_only drops the holding bonus
    (used for the periodic-vs-triggered comparison).
    """

    def __init__(self, patient, rngs, trigger: TriggerConfig = TriggerConfig(),
                 *, r1_only: bool = False, **kwargs):
        self.trigger = trigger
        self.r1_only = r1_only
        super().__init__(patient, rngs, **kwargs)

    method = property(
        lambda self: "cgmetppo-fixed" if self.trigger.scheme == "fixed"
        else "cgmetppo-variable"
    )

    def new_policy(self, rng: np.random.Generator) -> GaussianPolicy:
        return GaussianPolicy.create(2, 1 if self.trigger.scheme == "fixed" else 2, rng)

    def step_reward(self, y: float, ell: int) -> float:
        if self.r1_only:
            return reward_r1(y, self.reward_cfg)
        return reward_r1(y, self.reward_cfg) + reward_r2(y, ell, self.reward_cfg)

    def action_to_rate_eta(self, a_raw: np.ndarray) -> tuple[float, float]:
        return squash_rate(a_raw[0], self.pump), self.trigger.threshold(a_raw)

    def greedy_decide(self, obs: Observation):
        return greedy_decide(self.policy, obs, self.pump, self.trigger.threshold)

    def run_episode(self, episode_idx: int = 0) -> EpisodeStats:
        return self._smdp_episode(episode_idx)
