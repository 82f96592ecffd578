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
skeleton whose training episode every trainer runs (per-step, factored
and CGM-triggered) on env.rollout, the loop greedy evaluation runs too,
and the one map from a Gaussian action to a decision, which training
applies to a sample and greedy evaluation to the mean.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import (
    STEP_MINUTES,
    ApEnv,
    EpisodeConfig,
    Observation,
    is_int,
    obs_vec,
    reward_r1,
    rollout,
)
from .metrics import aurr, ecf, tir
from .neural import (
    DEFAULT_HIDDEN,
    DivergedUpdateError,
    GaussianPolicy,
    Mlp,
    OptimizerState,
    adam_step,
    gaussian_logprob_entropy,
)
from .plant import PumpConfig, SensorConfig
from .scenario import DEFAULT_MEAL_SPECS, generate_episode_scenario
from .seeding import RngBundle

log = logging.getLogger(__name__)


# PPO's standard learning constants (Schulman et al. 2017): discount,
# GAE lambda, clip range and entropy bonus. Adam's are in neural.py.
GAMMA = 0.99
LAM = 0.95
CLIP_EPS = 0.2
C_ENT = 0.01


@dataclass(frozen=True)
class HyperParams:
    """The batch shape of an update: rows per buffer, epochs, minibatch rows."""

    buffer_size: int = 512
    epochs: int = 10
    minibatch: int = 128

    def __post_init__(self):
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


def values_with_bootstrap(
    vnet: Mlp, obs: np.ndarray, last_next_obs: np.ndarray
) -> np.ndarray:
    """V(s) for every stored state plus V of the final next-state."""
    v = vnet.forward(obs)[:, 0]
    v_boot = vnet.forward(np.asarray(last_next_obs, dtype=float)[None, :])[:, 0]
    return np.concatenate([v, v_boot])


def clipped_surrogate(
    ratio: np.ndarray, adv: np.ndarray, eps: float, n: int
) -> tuple[float, np.ndarray]:
    """PPO's clipped term: (sum of min(ratio * A, clip(ratio) * A) / n,
    its derivative in each row's log-prob).

    The derivative follows the branch the min selects: the unclipped
    surrogate when it is the smaller (or equal) term, otherwise the clipped
    branch, whose derivative is zero outside the clip interval.
    """
    u1 = ratio * adv
    u2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    return float(np.minimum(u1, u2).sum()) / n, np.where(u1 <= u2, u1, 0.0) / n


def gaussian_policy_grads(
    policy: GaussianPolicy,
    obs: np.ndarray,
    act: np.ndarray,
    logp_old: np.ndarray,
    adv: np.ndarray,
) -> tuple[float, list[np.ndarray], dict]:
    """Objective J = L_clip + C_ENT * entropy and gradients of -J."""
    mean, acts = policy.net.forward_cached(obs)
    std = np.exp(policy.log_std)
    z = (act - mean) / std
    logp_new, entropy = gaussian_logprob_entropy(mean, policy.log_std, act)

    ratio = np.exp(logp_new - logp_old)
    j_clip, dlogp = clipped_surrogate(ratio, adv, CLIP_EPS, len(adv))
    objective = j_clip + C_ENT * entropy

    dmean = dlogp[:, None] * z / std
    dlog_std = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0) + C_ENT

    grads = policy.net.backward(acts, -dmean)
    grads.append(-dlog_std)
    diag = {
        "mean_ratio": float(ratio.mean()),
        "clip_frac": float((np.abs(ratio - 1.0) > CLIP_EPS).mean()),
        "entropy": entropy,
    }
    return objective, grads, diag


def value_grads(
    vnet: Mlp, obs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean-squared-error loss and its gradients."""
    pred, acts = vnet.forward_cached(obs)
    diff = pred[:, 0] - targets
    loss = float((diff * diff).mean())
    dout = (2.0 * diff / len(targets))[:, None]
    return loss, vnet.backward(acts, dout)


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
    vnet: Mlp,
    opt: OptimizerState,
    data: dict[str, np.ndarray],
    hyper: HyperParams,
    shuffle_rng: np.random.Generator,
    policy_grads_fn=gaussian_policy_grads,
) -> UpdateStats:
    """Epochs of shuffled minibatches: ascend J(theta), descend J(phi).

    data needs keys obs, act, logp_old, adv, vtarget (adv already
    normalized by the caller). Each minibatch is one Adam step over the
    actor's parameters, then the critic's. A non-finite loss or gradient
    aborts the update, before that minibatch moves anything, and flags the
    stats.
    """
    n = len(data["adv"])
    rows = []  # per minibatch: objective, value loss, entropy, ratio, clip
    for _ in range(hyper.epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, hyper.minibatch):
            idx = perm[start : start + hyper.minibatch]
            obs = data["obs"][idx]
            try:
                obj, pgrads, diag = policy_grads_fn(
                    policy, obs, data["act"][idx],
                    data["logp_old"][idx], data["adv"][idx],
                )
                vl, vgrads = value_grads(vnet, obs, data["vtarget"][idx])
                if not (math.isfinite(obj) and math.isfinite(vl)):
                    raise DivergedUpdateError("diverged-update: non-finite loss")
                adam_step(policy.params() + vnet.params(), pgrads + vgrads, opt)
            except DivergedUpdateError as exc:
                log.error("update aborted: %s", exc)
                return UpdateStats(minibatches=len(rows), diverged=True)
            rows.append((obj, vl, diag["entropy"], diag["mean_ratio"],
                         diag["clip_frac"]))
    # sum(col, 0.0) adds left to right, the order the pinned updates.csv has;
    # with no rows, zip yields no column and the stats keep their defaults
    return UpdateStats(*(sum(col, 0.0) / len(rows) for col in zip(*rows)),
                       minibatches=len(rows))


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
    carries a zero insulin action and log-prob, neither of which enters
    its objective.
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
    vnet: Mlp,
    opt: OptimizerState,
    hyper: HyperParams,
    shuffle_rng: np.random.Generator,
    policy_grads_fn=gaussian_policy_grads,
) -> tuple[UpdateStats, np.ndarray]:
    """PPO update indexed by decision epochs; returns (stats, advantages)."""
    d = buffer.arrays()
    values = values_with_bootstrap(vnet, d["obs"], d["last_next_obs"])
    adv = smdp_gae(d["R"], d["tau"], values, d["done"], GAMMA, LAM)
    data = {
        "obs": d["obs"],
        "act": d["act"],
        "logp_old": d["logp_old"],
        "adv": normalize_advantages(adv),
        "vtarget": values[:-1] + adv,
    }
    stats = update_networks(
        policy, vnet, opt, data, hyper, shuffle_rng,
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


def unit_clip(a: float) -> float:
    """a clipped to [0, 1] as a float: float(np.clip(a, 0.0, 1.0)) bit for
    bit (-0.0 and NaN pass through), without numpy's per-call cost."""
    a = float(a)
    return 0.0 if a < 0.0 else 1.0 if a > 1.0 else a


def squash_rate(a_raw: float, pump: PumpConfig) -> float:
    """Raw insulin action in normalized space -> pump rate [U/min]."""
    return unit_clip(a_raw) * pump.u_max


def decision(a: np.ndarray, pump: PumpConfig, trigger=None):
    """Gaussian action -> (pump rate, trigger threshold or None).

    trigger (a TriggerConfig) maps the action to the threshold the rate
    holds to; without one the decision is per-step, a hold of one step.
    """
    return squash_rate(a[0], pump), None if trigger is None else trigger.threshold(a)


def greedy_decide(policy, obs: Observation, pump: PumpConfig, trigger=None):
    """One greedy decision of a Gaussian policy, (rate, threshold or None):
    that of its mean. hetppo.event_decide is the factored policy's rule."""
    return decision(policy.net.forward(obs_vec(obs, pump)[None, :])[0], pump, trigger)


class Trainer:
    """The skeleton every trainer shares, and its SMDP episode on env.rollout.

    Each decision samples an action and maps it to (pump rate or None,
    threshold or None). A rate is sent to the pump; None keeps the last
    command without an insulin update. The command then holds until the
    CGM has moved by the threshold, or for one step without one, and the
    held interval is stored as one experience; a full buffer triggers an
    update. The defaults here, no trigger and the in-range reward R1, make
    every hold one step long and every decision an update: that is plain
    per-step PPO. Subclasses override widths, trigger or
    sample_decision, and step_reward. PpoTrainer, HetppoTrainer and
    CgmEtppoTrainer each define run_episode as one call to _smdp_episode,
    and their subclasses inherit it, so a wrapper on those three sees
    every episode once.
    """

    method = ""
    # The policy's (outputs, log-std length): its Gaussian means come first,
    # the rate and then any threshold, and hetppo adds an event logit.
    widths = (1, 1)
    trigger = None  # a TriggerConfig makes each decision hold to a threshold

    def __init__(
        self,
        patient,
        rngs: RngBundle,
        hyper: HyperParams = HyperParams(),
        episode_cfg: EpisodeConfig = EpisodeConfig(),
        sensor: SensorConfig = SensorConfig(),
        pump: PumpConfig = PumpConfig(),
    ):
        self.rngs = rngs
        self.hyper = hyper
        self.pump = pump
        self.env = ApEnv(patient, episode_cfg, sensor, pump)
        # Net creation order (actor, then critic, both from the net-init
        # stream) is part of the seeding contract.
        self.policy = GaussianPolicy.create(2, *self.widths, rngs.net_init)
        self.vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rngs.net_init)
        self.opt = OptimizerState()  # one Adam state, actor then critic
        self.buffer = SmdpBuffer(hyper.buffer_size)
        self.updates: list[UpdateStats] = []
        self.n_days = max(1, math.ceil(episode_cfg.horizon * STEP_MINUTES / 1440.0))

    def sample_decision(self, x: np.ndarray):
        """(stored action, log-prob, pump rate or None, threshold or None) at x."""
        a_raw, logp = self.policy.sample(x, self.rngs.policy)
        return (a_raw, logp, *decision(a_raw, self.pump, self.trigger))

    def step_reward(self, y: float, ell: int) -> float:
        """Reward of a step from CGM y, ell steps after the last update."""
        return reward_r1(y)

    def _maybe_update(self, policy_grads_fn=gaussian_policy_grads) -> None:
        if not self.buffer.full:
            return
        stats, _ = smdp_update(
            self.buffer, self.policy, self.vnet, self.opt, self.hyper,
            self.rngs.shuffle, policy_grads_fn,
        )
        self.updates.append(stats)
        self.buffer.clear()

    def _reset(self) -> Observation:
        scenario = generate_episode_scenario(
            DEFAULT_MEAL_SPECS, self.rngs.scenario, self.n_days
        )
        return self.env.reset(scenario, self.rngs.plant_noise, self.rngs.init_state)

    def _smdp_episode(self, episode_idx: int) -> EpisodeStats:
        pump = self.pump
        ret = 0.0
        obs = self._reset()
        # x normalizes the observation decide is next called with: keep
        # computes it once from the hold's last observation, for the buffer
        # row's next state and the next decision. row is the held decision's
        # (x, act, logp).
        x = obs_vec(obs, pump)
        row = None

        def decide(obs):
            nonlocal row
            act, logp, rate, eta = self.sample_decision(x)
            row = x, act, logp
            return rate, eta

        def keep(res):
            nonlocal ret, x
            x = obs_vec(res.obs, pump)
            s, act, logp = row
            self.buffer.add(SmdpExperience(s, act, logp, res.reward, res.tau,
                                           1.0 if res.done else 0.0), x)
            ret += res.reward
            self._maybe_update()

        rec = rollout(self.env, obs, decide, self.step_reward, GAMMA, keep)
        return EpisodeStats(
            episode_idx, rec.T, rec.K, ret, ecf(rec), tir(rec), aurr(rec)
        )


class PpoTrainer(Trainer):
    """Plain-MDP PPO: a fresh Gaussian action every 3-minute step.

    Reward is the in-range indicator of the CGM value the action was
    chosen on. Used directly as the periodic-update baseline.
    """

    method = "ppo"

    def run_episode(self, episode_idx: int = 0) -> EpisodeStats:
        return self._smdp_episode(episode_idx)
