"""Episode semantics over the plant.

Time is discretized at a 3-minute control grid; each control step holds the
commanded pump rate (zero-order hold) over three 1-minute RK4 substeps with
the scenario's carbohydrate delivery rate sampled at each substep start.
Episodes terminate at the horizon or when the CGM leaves (10, 600) mg/dL.

rollout runs one greedy evaluation episode for any controller: PID, the
per-step and factored policies, and the CGM-triggered policy.

Per-step rewards follow the convention that the reward credited to step h
is computed from the observation the controller acted on (the pre-step
CGM), so the terminal observation itself is never rewarded.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .metrics import RANGE_HI, RANGE_LO, EpisodeRecord
from .plant import (
    PatientParams,
    PatientState,
    PumpConfig,
    SensorConfig,
    cgm_read,
    pump_command,
    rk4_step,
)
from .scenario import MealScenario, meal_rate_at


class EpisodeFinishedError(RuntimeError):
    """Raised when the environment is stepped after termination."""


class Observation(NamedTuple):
    y: float  # latest CGM value [mg/dL]
    u_prev: float  # previously applied pump rate [U/min]


_new_obs = tuple.__new__  # Observation from a 2-tuple, without NamedTuple's call


def is_int(value) -> bool:
    """True for an integer that is not a bool (config counts and sizes)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EpisodeConfig:
    horizon: int = 960  # control steps (48 h at 3 min)
    step_minutes: float = 3.0
    ode_dt: float = 1.0
    hypo_threshold: float = 10.0  # terminate when y <= this [mg/dL]
    hyper_threshold: float = 600.0  # or y >= this [mg/dL]
    init_spread: float = 0.1  # training reset: sd as fraction of the mean

    def __post_init__(self):
        if not is_int(self.horizon):
            raise ValueError("horizon must be an integer")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.hypo_threshold >= self.hyper_threshold:
            raise ValueError("hypo threshold must lie below hyper threshold")
        for name in ("step_minutes", "ode_dt"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.init_spread < math.inf:
            raise ValueError("init_spread must be finite and non-negative")
        n = self.step_minutes / self.ode_dt
        if abs(n - round(n)) > 1e-12 or round(n) < 1:
            raise ValueError("step_minutes must be an integer multiple of ode_dt")

    @property
    def substeps(self) -> int:
        return int(round(self.step_minutes / self.ode_dt))


@dataclass(frozen=True)
class RewardConfig:
    """Constants of the reward terms.

    R1 pays 1 per step with CGM in [range_lo, range_hi]. R2, used by the
    trigger-based trainer, additionally pays (ell - c)/C for an in-range
    step held ell steps after the last insulin update. eta_e is the
    per-update penalty of the factored-policy trainer.
    """

    c: float = 5.0
    C: float = 10.0
    eta_e: float = 0.1
    range_lo: float = 70.0
    range_hi: float = 180.0

    def __post_init__(self):
        for name in ("c", "C", "eta_e", "range_lo", "range_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.C <= 0:
            raise ValueError("C must be positive")
        # A finite eta_e also makes reward_het(y, 0) equal reward_r1(y).
        if self.eta_e < 0:
            raise ValueError("eta_e must be non-negative")
        if self.range_lo >= self.range_hi:
            raise ValueError("range_lo must lie below range_hi")


def reward_r1(y: float, cfg: RewardConfig = RewardConfig()) -> float:
    """1 inside the target range (inclusive), else 0."""
    return 1.0 if cfg.range_lo <= y <= cfg.range_hi else 0.0


def reward_r2(y: float, ell: float, cfg: RewardConfig = RewardConfig()) -> float:
    """Holding bonus: (ell - c)/C while in range, else 0."""
    if cfg.range_lo <= y <= cfg.range_hi:
        return (ell - cfg.c) / cfg.C
    return 0.0


def reward_het(y: float, e: int, cfg: RewardConfig = RewardConfig()) -> float:
    """In-range reward minus the update penalty eta_e * e."""
    return reward_r1(y, cfg) - cfg.eta_e * e


# Observation normalization for the networks.
Y_NORM = 600.0


def obs_vec(obs: Observation, pump: PumpConfig) -> np.ndarray:
    """Map an observation into the normalized network input space."""
    return np.array([obs.y / Y_NORM, obs.u_prev / pump.u_max])


class ApEnv:
    """One artificial-pancreas episode at a time.

    The environment keeps a per-episode trace (CGM, applied rate, event
    flags) that the metrics pipeline consumes.
    """

    def __init__(
        self,
        patient: PatientParams,
        episode_cfg: EpisodeConfig = EpisodeConfig(),
        sensor: SensorConfig = SensorConfig(),
        pump: PumpConfig = PumpConfig(),
    ):
        self.patient = patient
        self.cfg = episode_cfg
        self.sensor = sensor
        self.pump = pump
        # Read once here: step runs on these locals, not on cfg.
        self._substeps = episode_cfg.substeps
        self._dt = episode_cfg.ode_dt
        self._step_minutes = episode_cfg.step_minutes
        self._horizon = episode_cfg.horizon
        self._hypo = episode_cfg.hypo_threshold
        self._hyper = episode_cfg.hyper_threshold
        self._scenario: MealScenario | None = None
        self._noise_rng: np.random.Generator | None = None
        self._done = True

    def reset(
        self,
        scenario: MealScenario,
        noise_rng: np.random.Generator,
        init_rng: np.random.Generator | None = None,
        training: bool = False,
    ) -> Observation:
        """Start a new episode; returns the first observation.

        Training resets resample the glucose states g_p, g_t, g_sc from
        N(mu, (spread*mu)^2) truncated at zero (in that draw order);
        evaluation resets use the basal state as-is.
        """
        self._scenario = scenario
        self._noise_rng = noise_rng
        state = self.patient.basal
        if training:
            if init_rng is None:
                raise ValueError("training reset needs an init-state rng")
            spread = self.cfg.init_spread
            g_p = max(0.0, init_rng.normal(state.g_p, spread * state.g_p))
            g_t = max(0.0, init_rng.normal(state.g_t, spread * state.g_t))
            g_sc = max(0.0, init_rng.normal(state.g_sc, spread * state.g_sc))
            state = state._replace(g_p=g_p, g_t=g_t, g_sc=g_sc)
        self._state = state
        self._noise = 0.0
        self._t = 0.0
        self._steps = 0
        self._done = False
        self._u_prev = 0.0
        y, self._noise = cgm_read(state, self.patient, self.sensor, self._noise, noise_rng)
        self._y = y
        # Per-episode trace. y_trace holds y_0 .. y_T; the other lists hold
        # one entry per completed step.
        self.y_trace: list[float] = [y]
        self.u_trace: list[float] = []
        self.event_trace: list[int] = []
        return Observation(y, self._u_prev)

    @property
    def y(self) -> float:
        return self._y

    @property
    def t(self) -> float:
        return self._t

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def done(self) -> bool:
        return self._done

    def observation(self) -> Observation:
        return Observation(self._y, self._u_prev)

    def step(self, u: float, event: bool = False) -> tuple[Observation, bool]:
        """Apply u for one control period; returns (observation, done).

        `event` marks steps at which the controller freshly decided the
        command; it only feeds the trace log.
        """
        if self._done:
            raise EpisodeFinishedError("episode-finished: reset before stepping again")
        u_cmd = pump_command(u, self.pump)
        state = self._state
        patient = self.patient
        scenario = self._scenario
        t = self._t
        dt = self._dt
        for j in range(self._substeps):
            d = meal_rate_at(t + j * dt, scenario)
            state = rk4_step(state, u_cmd, d, dt, patient)
        self._state = state
        self._t = t + self._step_minutes
        steps = self._steps = self._steps + 1
        y, self._noise = cgm_read(state, patient, self.sensor, self._noise, self._noise_rng)
        self._y = y
        self._u_prev = u_cmd
        done = self._done = (steps >= self._horizon
                             or not (self._hypo < y < self._hyper))
        self.y_trace.append(y)
        self.u_trace.append(u_cmd)
        self.event_trace.append(1 if event else 0)
        return _new_obs(Observation, (y, u_cmd)), done


class HoldResult(NamedTuple):
    reward: float  # R_k: gamma-discounted sum over the held steps
    tau: int  # steps the command was held (>= 1)
    obs: Observation  # observation at the next decision epoch
    done: bool


def hold_until_trigger(
    env: ApEnv,
    u: float,
    eta: float,
    gamma: float,
    reward_fn: Callable[[float, int], float],
    ell: int = 0,
) -> HoldResult:
    """Hold u until the CGM moves at least eta from its start value.

    Steps the environment with the held command, accumulating
    R_k = sum_i gamma^i * reward_fn(y_i, ell + i) over the held steps,
    where y_i is the CGM the i-th held step starts from (i = 0 at the
    decision) and ell counts the steps already held since the last insulin
    update. Only a step at ell + i = 0 is an update event. Stops after the
    first step whose fresh CGM satisfies |y - y_start| >= eta, or when the
    episode ends mid-hold.
    """
    if env.done:
        raise EpisodeFinishedError("episode-finished: reset before stepping again")
    if eta < 0:
        raise ValueError("trigger threshold must be non-negative")
    if not math.isfinite(eta):
        raise ValueError("trigger threshold must be finite")
    y_start = y = env.y
    total = 0.0
    disc = 1.0
    tau = 0
    while True:
        r = reward_fn(y, ell + tau)
        obs, done = env.step(u, event=(ell + tau == 0))
        total += disc * r
        tau += 1
        disc *= gamma
        y = obs.y
        if done or abs(y - y_start) >= eta:
            return HoldResult(total, tau, obs, done)


def _no_reward(y: float, ell: int) -> float:
    return 0.0


def rollout(
    env: ApEnv,
    scenario: MealScenario,
    noise_rng: np.random.Generator,
    decide: Callable[[Observation], tuple[float | None, float | None]],
    max_misses: int | None = None,
) -> EpisodeRecord:
    """Run one evaluation episode under a deterministic controller.

    decide(obs) returns (u, eta). u is the pump rate to send, or None to
    keep the last one without an update (zero insulin before the first).
    With eta None the decision covers one step; otherwise the rate holds
    until the CGM has moved by eta, which is recorded as its threshold.

    max_misses, for per-step controllers only, cuts the episode right
    after the step whose CGM is the (max_misses + 1)-th outside the
    metrics' target range; the record then covers the steps run.
    """
    obs = env.reset(scenario, noise_rng)
    u = 0.0
    t = 0  # steps taken
    misses = 0  # out-of-range CGM values among y_1 .. y_t
    update_times: list[int] = []
    etas: list[float] = []
    done = False
    while not done:
        cmd, eta = decide(obs)
        if cmd is not None:
            u = cmd
            update_times.append(t)
        if eta is None:
            obs, done = env.step(u, event=cmd is not None)
            t += 1
            if max_misses is not None and not RANGE_LO <= obs.y <= RANGE_HI:
                misses += 1
                if misses > max_misses:
                    break
        elif max_misses is not None:
            raise ValueError("max_misses needs a per-step controller")
        else:
            etas.append(eta)
            _, tau, obs, done = hold_until_trigger(env, u, eta, 1.0, _no_reward)
            t += tau
    return EpisodeRecord(
        T=t, H=env.cfg.horizon, y_trace=tuple(env.y_trace),
        K=len(update_times), update_times=tuple(update_times),
        thresholds=tuple(etas) if etas else None,
    )
