"""Event-augmented PPO: the policy decides *whether* to update the pump.

Each step the policy emits a factored action (e, u): a Bernoulli event
flag from a logit head and, only when e = 1, a fresh Gaussian insulin
command from a mean head sharing the same trunk. Between events the last
commanded value is held. The per-step reward subtracts a fixed charge,
env.ETA_E, for every event, so the agent trades regulation quality against
communication.

The clipped-surrogate objective factors the same way: a Bernoulli ratio
term over every step plus a Gaussian ratio term over the event steps
only, both driven by the same advantage estimates.

The trainer runs on the shared SMDP loop of ppo.py: each decision holds
one step (threshold 0), and a non-event decision keeps the last command.
"""
from __future__ import annotations

import math

import numpy as np

from .env import Observation, obs_vec, reward_het
from .neural import (
    GaussianPolicy,
    bernoulli_logprob_entropy,
    gaussian_logprob_entropy,
    sigmoid,
)
from .plant import PumpConfig
from .ppo import (
    C_ENT,
    CLIP_EPS,
    EpisodeStats,
    Trainer,
    clipped_surrogate,
    squash_rate,
)


def factored_sample(
    policy: GaussianPolicy, x: np.ndarray, rng: np.random.Generator
) -> tuple[int, float, float, float]:
    """Draw (e, u) for one observation; returns (e, u_raw, logp_e, logp_u).

    The policy's two outputs are the insulin mean and the event logit.
    Consumes one uniform for the event flag and one normal only when the
    flag comes up 1. On e = 0 the insulin component is not sampled;
    u_raw and logp_u are returned as 0 and must be masked downstream.
    """
    mean, logit = policy.net.forward(x[None, :]).T
    p = float(sigmoid(logit[0]))
    e = 1 if rng.random() < p else 0
    lp_e, _ = bernoulli_logprob_entropy(logit, np.asarray([float(e)]))
    if e == 0:
        return 0, 0.0, float(lp_e[0]), 0.0
    u_raw = float(mean[0] + np.exp(policy.log_std[0]) * rng.standard_normal())
    lp_u, _ = gaussian_logprob_entropy(
        mean[:, None], policy.log_std, np.asarray([[u_raw]])
    )
    return 1, u_raw, float(lp_e[0]), float(lp_u[0])


def event_decide(policy: GaussianPolicy, obs: Observation, pump: PumpConfig):
    """One greedy decision, (rate or None, None): the squashed mean when the
    event probability is at least 1/2 (logit >= 0), else None, which holds
    the last command. Each decision lasts one step."""
    mean, logit = policy.net.forward(obs_vec(obs, pump)[None, :])[0]
    return (squash_rate(mean, pump) if logit >= 0.0 else None), None


def het_policy_grads(
    policy: GaussianPolicy,
    obs: np.ndarray,
    act: np.ndarray,
    logp_old: np.ndarray,
    adv: np.ndarray,
) -> tuple[float, list[np.ndarray], dict]:
    """Factored clipped surrogate and gradients of its negation.

    The Bernoulli term averages over the whole minibatch; the Gaussian
    term averages over its event rows only (zero if there are none).
    Both heads get an entropy bonus. Shapes: act (B, 2) as [u_raw, e],
    logp_old (B, 2) as [logp_u, logp_e].
    """
    out, acts = policy.net.forward_cached(obs)
    u_mean, logit = out[:, 0], out[:, 1]
    b = len(adv)
    e = act[:, 1]

    # Event factor, every row.
    lp_e_new, ent_e = bernoulli_logprob_entropy(logit, e)
    ratio_e = np.exp(lp_e_new - logp_old[:, 1])
    j_event, dlp_e = clipped_surrogate(ratio_e, adv, CLIP_EPS, b)
    p = sigmoid(logit)
    dlogit = dlp_e * (e - p)
    # d entropy(e) / d logit = -logit * p * (1 - p)
    dlogit += C_ENT * (-logit * p * (1.0 - p)) / b

    # Insulin factor, event rows only.
    idx = np.flatnonzero(e == 1.0)
    m = len(idx)
    std = float(np.exp(policy.log_std[0]))
    ent_u = float(0.5 * (math.log(2.0 * math.pi) + 1.0) + policy.log_std[0])
    dmean = np.zeros(b)
    dlog_std = np.zeros(1)
    j_insulin = 0.0
    mean_ratio_u = 1.0
    clip_u = 0.0
    if m > 0:
        z = (act[idx, 0] - u_mean[idx]) / std
        lp_u_new = -0.5 * (z * z + math.log(2.0 * math.pi)) - policy.log_std[0]
        ratio_u = np.exp(lp_u_new - logp_old[idx, 0])
        j_insulin, dlp_u = clipped_surrogate(ratio_u, adv[idx], CLIP_EPS, m)
        dmean[idx] = dlp_u * z / std
        dlog_std[0] = float((dlp_u * (z * z - 1.0)).sum())
        mean_ratio_u = float(ratio_u.mean())
        clip_u = float((np.abs(ratio_u - 1.0) > CLIP_EPS).sum())
    dlog_std[0] += C_ENT

    entropy = ent_u + float(ent_e.mean())
    objective = j_event + j_insulin + C_ENT * entropy

    dout = np.stack([dmean, dlogit], axis=1)
    grads = policy.net.backward(acts, -dout)
    grads.append(-dlog_std)
    diag = {
        "mean_ratio": 0.5 * (float(ratio_e.mean()) + mean_ratio_u),
        "clip_frac": (float((np.abs(ratio_e - 1.0) > CLIP_EPS).sum()) + clip_u)
        / (b + max(m, 1)),
        "entropy": entropy,
    }
    return objective, grads, diag


class HetppoTrainer(Trainer):
    """Per-step trainer with a learned when-to-transmit head.

    Between events env.rollout holds the last command sent; before the
    first event of an episode that is zero insulin.
    """

    method = "hetppo"
    widths = (2, 1)  # the insulin mean, then the event logit; one log-std

    def sample_decision(self, x: np.ndarray):
        """Factored draw: act [u_raw, e] and log-prob [logp_u, logp_e].

        A non-event row stores the zero insulin slot factored_sample
        returns, and sends no rate; the objective masks that slot out.
        """
        e, u_raw, lp_e, lp_u = factored_sample(self.policy, x, self.rngs.policy)
        rate = squash_rate(u_raw, self.pump) if e else None
        return np.asarray([u_raw, float(e)]), np.asarray([lp_u, lp_e]), rate, None

    def step_reward(self, y: float, ell: int) -> float:
        return reward_het(y, ell == 0)

    def _maybe_update(self) -> None:
        super()._maybe_update(het_policy_grads)

    def run_episode(self, episode_idx: int = 0) -> EpisodeStats:
        return self._smdp_episode(episode_idx)
