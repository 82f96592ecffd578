"""An independent per-step PPO trainer: the oracle for the tau = 1 reductions.

The library runs per-step PPO through its SMDP decision loop at threshold 0
with the in-range reward. This module keeps a separate, minimal per-step
trainer with its own episode loop, rollout buffer and GAE recursion, so the
reductions are checked against code the library does not share. Only the
networks, the sampler and the minibatch engine (update_networks) come from
the library. PpoTrainer and the triggered trainer at threshold 0 with
r1_only must both match it bit for bit; record_updates captures the library
trainers' updates for that comparison, and record_episodes their training
episodes' records.

The reference loss formulas (clipped surrogate, value loss) live here too.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from etglucose import ppo
from etglucose.env import (
    STEP_MINUTES,
    ApEnv,
    EpisodeConfig,
    obs_vec,
    reward_r1,
)
from etglucose.metrics import EpisodeRecord, aurr, ecf, tir
from etglucose.neural import DEFAULT_HIDDEN, GaussianPolicy, Mlp, OptimizerState
from etglucose.plant import PumpConfig, SensorConfig
from etglucose.ppo import (
    GAMMA,
    LAM,
    EpisodeStats,
    HyperParams,
    UpdateStats,
    normalize_advantages,
    update_networks,
    values_with_bootstrap,
)
from etglucose.scenario import DEFAULT_MEAL_SPECS, generate_episode_scenario


def clipped_surrogate(
    logp_new: np.ndarray, logp_old: np.ndarray, adv: np.ndarray, clip_eps: float
) -> float:
    """Batch mean of min(ratio * A, clip(ratio) * A)."""
    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    return float(np.minimum(ratio * adv, clipped * adv).mean())


def value_loss(values_pred: np.ndarray, return_targets: np.ndarray) -> float:
    diff = np.asarray(values_pred, dtype=float) - np.asarray(return_targets, dtype=float)
    return float((diff * diff).mean())


@dataclass
class UpdateSnapshot:
    """Capture of one update: advantages, stats, parameters after it."""

    advantages: np.ndarray
    stats: UpdateStats
    params: list[np.ndarray] = field(default_factory=list)


def record_updates(monkeypatch, *trainers) -> dict:
    """Snapshot every update the given library trainers run.

    Wraps etglucose.ppo.smdp_update, the one update every trainer calls,
    and files each call under the trainer whose buffer it was given.
    Returns {trainer: [UpdateSnapshot, ...]}, filled as training runs.
    """
    real = ppo.smdp_update
    owner = {id(t.buffer): t for t in trainers}
    snaps = {t: [] for t in trainers}

    def recording(buffer, policy, vnet, *args, **kwargs):
        stats, adv = real(buffer, policy, vnet, *args, **kwargs)
        snaps[owner[id(buffer)]].append(UpdateSnapshot(
            advantages=adv, stats=stats,
            params=[p.copy() for p in policy.params() + vnet.params()],
        ))
        return stats, adv

    monkeypatch.setattr(ppo, "smdp_update", recording)
    return snaps


def record_episodes(monkeypatch) -> list:
    """Collect the EpisodeRecord of every training episode run.

    Wraps the env.rollout that ppo.Trainer's episode calls; the list fills
    as training runs.
    """
    real = ppo.rollout
    records = []

    def recording(*args, **kwargs):
        records.append(real(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(ppo, "rollout", recording)
    return records


def per_step_gae(rewards, values, dones, gamma, lam):
    """Backward-recursion GAE with done masking between episodes."""
    adv = np.empty(len(rewards))
    acc = 0.0
    for h in range(len(rewards) - 1, -1, -1):
        nonterm = 1.0 - dones[h]
        delta = rewards[h] + gamma * nonterm * values[h + 1] - values[h]
        acc = delta + gamma * lam * nonterm * acc
        adv[h] = acc
    return adv


class PerStepPpo:
    """A fresh Gaussian action every step, rewarded by the in-range indicator."""

    def __init__(self, patient, rngs, hyper=HyperParams(),
                 episode_cfg=EpisodeConfig(), sensor=SensorConfig(),
                 pump=PumpConfig()):
        self.rngs = rngs
        self.hyper = hyper
        self.pump = pump
        self.env = ApEnv(patient, episode_cfg, sensor, pump)
        self.policy = GaussianPolicy.create(2, 1, rngs.net_init)
        self.vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rngs.net_init)
        self.opt = OptimizerState()
        self.rows = []  # (obs, act, reward, done, logp) per step
        self.last_next_obs = None
        self.updates = []
        self.snapshots = []
        self.n_days = max(
            1, math.ceil(episode_cfg.horizon * STEP_MINUTES / 1440.0)
        )

    def _update(self):
        obs, act, rew, done, logp = (np.asarray(c) for c in zip(*self.rows))
        values = values_with_bootstrap(self.vnet, obs, self.last_next_obs)
        adv = per_step_gae(rew, values, done, GAMMA, LAM)
        data = {
            "obs": obs, "act": act, "logp_old": logp,
            "adv": normalize_advantages(adv),
            "vtarget": values[:-1] + adv,
        }
        stats = update_networks(self.policy, self.vnet, self.opt, data,
                                self.hyper, self.rngs.shuffle)
        self.updates.append(stats)
        self.snapshots.append(UpdateSnapshot(
            advantages=adv, stats=stats,
            params=[p.copy() for p in self.policy.params() + self.vnet.params()],
        ))
        self.rows = []

    def run_episode(self, episode_idx=0):
        env = self.env
        scenario = generate_episode_scenario(
            DEFAULT_MEAL_SPECS, self.rngs.scenario, self.n_days
        )
        obs = env.reset(scenario, self.rngs.plant_noise, self.rngs.init_state)
        ep_ret = 0.0
        while not env.done:
            x = obs_vec(obs, self.pump)
            a_raw, logp = self.policy.sample(x, self.rngs.policy)
            r = reward_r1(obs.y)
            rate = float(np.clip(a_raw[0], 0.0, 1.0)) * self.pump.u_max
            obs, done = env.step(rate, event=True)
            self.rows.append((x, a_raw, r, 1.0 if done else 0.0, logp))
            self.last_next_obs = obs_vec(obs, self.pump)
            ep_ret += r
            if len(self.rows) >= self.hyper.buffer_size:
                self._update()
        t = env.steps
        rec = EpisodeRecord(T=t, H=env.cfg.horizon, y_trace=tuple(env.y_trace),
                            K=t, update_times=tuple(range(t)))
        return EpisodeStats(episode_idx, t, t, ep_ret, ecf(rec), tir(rec), aurr(rec))

    def train(self, episodes):
        return [self.run_episode(i) for i in range(episodes)]
