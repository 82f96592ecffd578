"""PPO over a semi-Markov decision process: the core every trainer shares.

A decision sends a pump rate, or keeps the last one without an insulin
update, and fixes a CGM threshold; the command then holds until the CGM
has moved by the threshold. Each held interval is one experience with a
gamma-aggregated reward and a duration tau, and advantage estimation
discounts bootstraps by gamma^tau. A per-step MDP is the tau = 1 case
(Sutton, Precup & Singh 1999), so plain PPO is this trainer at threshold 0
with the in-range reward, and the per-step recursion compute_gae is
smdp_gae with every tau = 1.

Here live the decision buffer, the advantage recursion, the clipped
surrogate with an entropy bonus, value regression against targets
G = V_old(s) + A, the shuffled-minibatch epoch engine, the trainer
skeleton with the one training loop every trainer runs (per-step,
factored and CGM-triggered), and the greedy evaluation decision.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .env import (
    ApEnv,
    EpisodeConfig,
    Observation,
    RewardConfig,
    hold_until_trigger,
    is_int,
    obs_vec,
    reward_r1,
)
from .metrics import EpisodeRecord, aurr, ecf, tir
from .neural import (
    DivergedUpdateError,
    GaussianPolicy,
    HetPolicy,
    OptimizerState,
    ValueNet,
    adam_step,
    gaussian_logprob_entropy,
)
from .plant import PumpConfig, SensorConfig
from .scenario import DEFAULT_MEAL_SPECS, generate_episode_scenario
from .seeding import RngBundle

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HyperParams:
    gamma: float = 0.99
    lam: float = 0.95
    clip_eps: float = 0.2
    c_ent: float = 0.01
    buffer_size: int = 512
    lr: float = 3e-4
    epochs: int = 10
    minibatch: int = 128

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if not 0.0 < self.clip_eps < math.inf:
            raise ValueError("clip_eps must be positive and finite")
        if not math.isfinite(self.c_ent):
            raise ValueError("c_ent must be finite")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        for name in ("buffer_size", "epochs", "minibatch"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")


def smdp_gae(
    R: np.ndarray,
    tau: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Extended GAE: per-experience discount gamma^tau, done masking.

    values must carry one extra entry, the bootstrap value for the state
    following the last experience.
    """
    R = np.asarray(R, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    n = len(R)
    if len(values) != n + 1 or len(dones) != n or len(tau) != n:
        raise ValueError("R/tau/values/dones lengths are inconsistent")
    adv = np.empty(n)
    acc = 0.0
    for k in range(n - 1, -1, -1):
        nonterm = 1.0 - dones[k]
        gpow = gamma ** int(tau[k])
        delta = R[k] + gpow * nonterm * values[k + 1] - values[k]
        acc = delta + gpow * lam * nonterm * acc
        adv[k] = acc
    return adv


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Per-step GAE: smdp_gae with every tau = 1 (gamma ** 1 is gamma)."""
    tau = np.ones(len(rewards), dtype=np.int64)
    return smdp_gae(rewards, tau, values, dones, gamma, lam)


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


def values_with_bootstrap(
    vnet: ValueNet, obs: np.ndarray, last_next_obs: np.ndarray
) -> np.ndarray:
    """V(s) for every stored state plus V of the final next-state."""
    v = vnet.values(obs)
    v_boot = vnet.values(np.asarray(last_next_obs, dtype=float)[None, :])
    return np.concatenate([v, v_boot])


def gaussian_policy_grads(
    policy: GaussianPolicy,
    obs: np.ndarray,
    act: np.ndarray,
    logp_old: np.ndarray,
    adv: np.ndarray,
    hyper: HyperParams,
) -> tuple[float, list[np.ndarray], dict]:
    """Objective J = L_clip + c_ent * entropy and gradients of -J.

    The gradient follows the branch selected by the min: the unclipped
    surrogate when it is the smaller (or equal) term, otherwise the
    clipped branch, whose derivative is zero outside the clip interval.
    """
    mean, acts = policy.net.forward_cached(obs)
    std = np.exp(policy.log_std)
    z = (act - mean) / std
    logp_new, entropy = gaussian_logprob_entropy(mean, policy.log_std, act)
    b = len(adv)

    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - hyper.clip_eps, 1.0 + hyper.clip_eps)
    u1 = ratio * adv
    u2 = clipped * adv
    objective = float(np.minimum(u1, u2).mean()) + hyper.c_ent * entropy

    dlogp = np.where(u1 <= u2, ratio * adv, 0.0) / b
    dmean = dlogp[:, None] * z / std
    dlog_std = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0) + hyper.c_ent

    grads = policy.net.backward(acts, -dmean)
    grads.append(-dlog_std)
    diag = {
        "mean_ratio": float(ratio.mean()),
        "clip_frac": float((np.abs(ratio - 1.0) > hyper.clip_eps).mean()),
        "entropy": entropy,
    }
    return objective, grads, diag


def value_grads(
    vnet: ValueNet, obs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean-squared-error loss and its gradients."""
    pred, acts = vnet.net.forward_cached(obs)
    diff = pred[:, 0] - targets
    loss = float((diff * diff).mean())
    dout = (2.0 * diff / len(targets))[:, None]
    return loss, vnet.net.backward(acts, dout)


@dataclass
class UpdateStats:
    policy_objective: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    mean_ratio: float = 1.0
    clip_frac: float = 0.0
    minibatches: int = 0
    diverged: bool = False


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Batch standardization with a floor on the standard deviation."""
    std = float(adv.std())
    return (adv - adv.mean()) / max(std, 1e-8)


def update_networks(
    policy,
    vnet: ValueNet,
    opt_policy: OptimizerState,
    opt_value: OptimizerState,
    data: dict[str, np.ndarray],
    hyper: HyperParams,
    shuffle_rng: np.random.Generator,
    policy_grads_fn=gaussian_policy_grads,
) -> UpdateStats:
    """Epochs of shuffled minibatches: ascend J(theta), descend J(phi).

    data needs keys obs, act, logp_old, adv, vtarget (adv already
    normalized by the caller). A non-finite loss or gradient aborts the
    update and flags the stats.
    """
    n = len(data["adv"])
    stats = UpdateStats()
    sums = {"obj": 0.0, "vl": 0.0, "ent": 0.0, "ratio": 0.0, "clip": 0.0}
    for _ in range(hyper.epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, hyper.minibatch):
            idx = perm[start : start + hyper.minibatch]
            try:
                obj, pgrads, diag = policy_grads_fn(
                    policy, data["obs"][idx], data["act"][idx],
                    data["logp_old"][idx], data["adv"][idx], hyper,
                )
                vl, vgrads = value_grads(vnet, data["obs"][idx], data["vtarget"][idx])
                if not (math.isfinite(obj) and math.isfinite(vl)):
                    raise DivergedUpdateError("diverged-update: non-finite loss")
                adam_step(policy.params(), pgrads, opt_policy)
                adam_step(vnet.params(), vgrads, opt_value)
            except DivergedUpdateError as exc:
                log.error("update aborted: %s", exc)
                stats.diverged = True
                return stats
            stats.minibatches += 1
            sums["obj"] += obj
            sums["vl"] += vl
            sums["ent"] += diag["entropy"]
            sums["ratio"] += diag["mean_ratio"]
            sums["clip"] += diag["clip_frac"]
    if stats.minibatches:
        stats.policy_objective = sums["obj"] / stats.minibatches
        stats.value_loss = sums["vl"] / stats.minibatches
        stats.entropy = sums["ent"] / stats.minibatches
        stats.mean_ratio = sums["ratio"] / stats.minibatches
        stats.clip_frac = sums["clip"] / stats.minibatches
    return stats


class SmdpExperience(NamedTuple):
    s: np.ndarray  # normalized observation at the decision
    a: np.ndarray  # raw action in normalized space: (u[, eta]), or [u, e]
    logp: float | np.ndarray  # behavior log-prob; [logp_u, logp_e] if factored
    R: float  # gamma-aggregated reward over the held steps
    tau: int  # held steps, >= 1
    done: float  # 1 if the episode ended during the hold


class SmdpBuffer:
    """Fixed-capacity store of decision-epoch experiences.

    Per-step trainers store tau = 1 rows. The factored policy stores
    act rows [u_raw, e] and logp rows [logp_u, logp_e]; a non-event row
    carries the held command and a zero insulin log-prob, neither of
    which enters its objective.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.clear()

    def clear(self) -> None:
        self.exps: list[SmdpExperience] = []
        self.last_next_obs: np.ndarray | None = None

    def add(self, exp: SmdpExperience, next_obs: np.ndarray) -> None:
        if self.full:
            raise ValueError("buffer already full")
        self.exps.append(exp)
        self.last_next_obs = np.asarray(next_obs, dtype=float)

    def __len__(self) -> int:
        return len(self.exps)

    @property
    def full(self) -> bool:
        return len(self.exps) >= self.capacity

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "obs": np.stack([e.s for e in self.exps]),
            "act": np.stack([e.a for e in self.exps]),
            "logp_old": np.asarray([e.logp for e in self.exps], dtype=float),
            "R": np.asarray([e.R for e in self.exps], dtype=float),
            "tau": np.asarray([e.tau for e in self.exps], dtype=np.int64),
            "done": np.asarray([e.done for e in self.exps], dtype=float),
            "last_next_obs": self.last_next_obs,
        }


def smdp_update(
    buffer: SmdpBuffer,
    policy,
    vnet: ValueNet,
    opt_policy: OptimizerState,
    opt_value: OptimizerState,
    hyper: HyperParams,
    shuffle_rng: np.random.Generator,
    policy_grads_fn=gaussian_policy_grads,
) -> tuple[UpdateStats, np.ndarray]:
    """PPO update indexed by decision epochs; returns (stats, advantages)."""
    d = buffer.arrays()
    values = values_with_bootstrap(vnet, d["obs"], d["last_next_obs"])
    adv = smdp_gae(d["R"], d["tau"], values, d["done"], hyper.gamma, hyper.lam)
    data = {
        "obs": d["obs"],
        "act": d["act"],
        "logp_old": d["logp_old"],
        "adv": normalize_advantages(adv),
        "vtarget": values[:-1] + adv,
    }
    stats = update_networks(
        policy, vnet, opt_policy, opt_value, data, hyper, shuffle_rng,
        policy_grads_fn=policy_grads_fn,
    )
    return stats, adv


@dataclass
class EpisodeStats:
    episode: int
    steps: int
    K: int
    ret: float
    ecf: float
    tir: float
    aurr: float


@dataclass
class UpdateSnapshot:
    """Debug capture of one update, for equivalence and regression tests."""

    advantages: np.ndarray
    stats: UpdateStats
    params: list[np.ndarray] = field(default_factory=list)


def squash_rate(a_raw: float, pump: PumpConfig) -> float:
    """Raw insulin action in normalized space -> pump rate [U/min]."""
    return float(np.clip(a_raw, 0.0, 1.0)) * pump.u_max


def greedy_decide(policy, obs: Observation, pump: PumpConfig, threshold=None):
    """One greedy evaluation decision: (rate or None, threshold or None).

    The rate is the squashed Gaussian mean. A factored policy sends it only
    when its event probability is at least 1/2, and otherwise returns None,
    which holds the last command. threshold maps the mean to a trigger
    threshold; without one, each decision lasts one step. env.rollout
    runs an episode on these decisions.
    """
    x = obs_vec(obs, pump)[None, :]
    if isinstance(policy, HetPolicy):
        mean, logit = policy.heads(x)
        return (squash_rate(mean[0], pump) if logit[0] >= 0.0 else None), None
    mean = policy.net.forward(x)[0]
    return squash_rate(mean[0], pump), None if threshold is None else threshold(mean)


class Trainer:
    """The skeleton every trainer shares, and its one SMDP decision loop.

    Each decision samples an action and maps it to (pump rate or None,
    threshold). A rate is sent to the pump; None keeps the last command
    without an insulin update. The command then holds until the CGM has
    moved by the threshold, and the held interval is stored as one
    experience; a full buffer triggers an update. The defaults here,
    threshold 0 and the in-range reward R1, make every hold one step long
    and every decision an update: that is plain per-step PPO. Subclasses
    override new_policy, action_to_rate_eta or sample_decision, and
    step_reward. Each trainer class's run_episode is one call to this loop
    and none calls another's, so a wrapper on each sees every episode once.
    """

    method = ""

    def __init__(
        self,
        patient,
        rngs: RngBundle,
        hyper: HyperParams = HyperParams(),
        episode_cfg: EpisodeConfig = EpisodeConfig(),
        reward_cfg: RewardConfig = RewardConfig(),
        sensor: SensorConfig = SensorConfig(),
        pump: PumpConfig = PumpConfig(),
        meal_specs=DEFAULT_MEAL_SPECS,
        record_updates: bool = False,
    ):
        self.patient = patient
        self.rngs = rngs
        self.hyper = hyper
        self.reward_cfg = reward_cfg
        self.pump = pump
        self.meal_specs = meal_specs
        self.env = ApEnv(patient, episode_cfg, sensor, pump)
        # Net creation order (actor, then critic, both from the net-init
        # stream) is part of the seeding contract.
        self.policy = self.new_policy(rngs.net_init)
        self.vnet = ValueNet.create(2, rngs.net_init)
        self.opt_policy = OptimizerState(lr=hyper.lr)
        self.opt_value = OptimizerState(lr=hyper.lr)
        self.buffer = SmdpBuffer(hyper.buffer_size)
        self.record_updates = record_updates
        self.updates: list[UpdateStats] = []
        self.snapshots: list[UpdateSnapshot] = []
        self.n_days = max(
            1, math.ceil(episode_cfg.horizon * episode_cfg.step_minutes / 1440.0)
        )

    def new_policy(self, rng: np.random.Generator):
        return GaussianPolicy.create(2, 1, rng)

    def action_to_rate_eta(self, a_raw: np.ndarray) -> tuple[float, float]:
        """Raw action sample -> (pump rate, trigger threshold)."""
        return squash_rate(a_raw[0], self.pump), 0.0

    def sample_decision(self, x: np.ndarray):
        """(stored action, log-prob, pump rate or None, threshold) at x."""
        a_raw, logp = self.policy.sample(x, self.rngs.policy)
        return (a_raw, logp, *self.action_to_rate_eta(a_raw))

    def step_reward(self, y: float, ell: int) -> float:
        """Reward of a step from CGM y, ell steps after the last update."""
        return reward_r1(y, self.reward_cfg)

    def greedy_decide(self, obs: Observation):
        """This trainer's greedy evaluation decision (see greedy_decide)."""
        return greedy_decide(self.policy, obs, self.pump)

    def train(self, episodes: int) -> list[EpisodeStats]:
        return [self.run_episode(i) for i in range(episodes)]

    def _maybe_update(self, policy_grads_fn=gaussian_policy_grads) -> None:
        if not self.buffer.full:
            return
        stats, adv = smdp_update(
            self.buffer, self.policy, self.vnet, self.opt_policy,
            self.opt_value, self.hyper, self.rngs.shuffle, policy_grads_fn,
        )
        self.updates.append(stats)
        if self.record_updates:
            self.snapshots.append(UpdateSnapshot(
                advantages=adv,
                stats=stats,
                params=[p.copy() for p in self.policy.params() + self.vnet.params()],
            ))
        self.buffer.clear()

    def _reset(self) -> Observation:
        scenario = generate_episode_scenario(
            self.meal_specs, self.rngs.scenario, self.n_days
        )
        return self.env.reset(scenario, self.rngs.plant_noise,
                              self.rngs.init_state, training=True)

    def _smdp_episode(self, episode_idx: int) -> EpisodeStats:
        env = self.env
        obs = self._reset()
        ep_ret = 0.0
        u = 0.0  # zero insulin until the first update
        # Steps held since the last update; 0 only at an update, so holding
        # the initial zero is not an event.
        ell = 1
        update_times: list[int] = []
        done = False
        while not done:
            x = obs_vec(obs, self.pump)
            act, logp, rate, eta = self.sample_decision(x)
            if rate is not None:
                u = rate
                ell = 0
                update_times.append(env.steps)
            res = hold_until_trigger(env, u, eta, self.hyper.gamma,
                                     self.step_reward, ell)
            self.buffer.add(
                SmdpExperience(x, act, logp, res.reward, res.tau,
                               1.0 if res.done else 0.0),
                obs_vec(res.obs, self.pump),
            )
            ep_ret += res.reward
            ell += res.tau
            obs = res.obs
            done = res.done
            self._maybe_update()
        rec = EpisodeRecord(
            T=env.steps, H=env.cfg.horizon, y_trace=tuple(env.y_trace),
            K=len(update_times), update_times=tuple(update_times),
        )
        return EpisodeStats(
            episode_idx, rec.T, rec.K, ep_ret, ecf(rec), tir(rec), aurr(rec)
        )


class PpoTrainer(Trainer):
    """Plain-MDP PPO: a fresh Gaussian action every 3-minute step.

    Reward is the in-range indicator of the CGM value the action was
    chosen on. Used directly as the periodic-update baseline.
    """

    method = "ppo"

    def run_episode(self, episode_idx: int = 0) -> EpisodeStats:
        return self._smdp_episode(episode_idx)
