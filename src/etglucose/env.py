"""Episode semantics over the plant.

Time is discretized at a 3-minute control grid; each control step holds the
commanded pump rate (zero-order hold) over three 1-minute RK4 substeps with
the scenario's carbohydrate delivery rate sampled at each substep start.
Episodes terminate at the horizon or when the CGM leaves (10, 600) mg/dL.
These are the protocol's module constants; only the horizon is configured.

rollout is the one episode loop: greedy evaluation of every controller
(PID, the per-step and factored policies, the CGM-triggered policy) and
every training episode run on it, and each of its decisions holds its
command through hold_until_trigger, the only caller of ApEnv.step. A
per-step decision is a hold at threshold 0.

Per-step rewards follow the convention that the reward credited to step h
is computed from the observation the controller acted on (the pre-step
CGM), so the terminal observation itself is never rewarded.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import compress
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


# The episode protocol.
STEP_MINUTES = 3.0  # control period
ODE_DT = 1.0  # RK4 substep [min]
SUBSTEPS = round(STEP_MINUTES / ODE_DT)  # RK4 substeps per control step
HYPO_MGDL = 10.0  # terminate when y <= this
HYPER_MGDL = 600.0  # or y >= this
INIT_SPREAD = 0.1  # training reset: sd as a fraction of the basal value


@dataclass(frozen=True)
class EpisodeConfig:
    horizon: int = 960  # control steps (48 h at 3 min)
    substeps = SUBSTEPS  # a class constant, not a config key

    def __post_init__(self):
        if not is_int(self.horizon):
            raise ValueError("horizon must be an integer")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


def reward_r1(y: float) -> float:
    """R1: 1 inside [RANGE_LO, RANGE_HI], the range TIR scores, else 0."""
    return 1.0 if RANGE_LO <= y <= RANGE_HI else 0.0


# R2, the trigger-based trainer's holding bonus, pays (ell - c)/C for an
# in-range step held ell steps after the last insulin update.
R2_OFFSET = 5.0  # c
R2_SCALE = 10.0  # C
# The factored-policy trainer's charge per insulin update.
ETA_E = 0.1  # eta_e


def reward_r2(y: float, ell: float) -> float:
    """Holding bonus: (ell - c)/C while in range, else 0."""
    if RANGE_LO <= y <= RANGE_HI:
        return (ell - R2_OFFSET) / R2_SCALE
    return 0.0


def reward_het(y: float, e: int) -> float:
    """In-range reward minus the update penalty eta_e * e."""
    return reward_r1(y) - ETA_E * e


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
        self._scenario: MealScenario | None = None
        self._noise_rng: np.random.Generator | None = None
        # The latest CGM value, completed steps, and whether the episode
        # has ended; plain attributes, read on every held step.
        self.y = math.nan
        self.steps = 0
        self.done = True

    def reset(
        self,
        scenario: MealScenario,
        noise_rng: np.random.Generator,
        init_rng: np.random.Generator | None = None,
    ) -> Observation:
        """Start a new episode; returns the first observation.

        A training reset, one given init_rng, resamples the glucose states
        g_p, g_t, g_sc from N(mu, (INIT_SPREAD*mu)^2) truncated at zero (in
        that draw order); an evaluation reset uses the basal state as-is.
        """
        self._scenario = scenario
        self._noise_rng = noise_rng
        state = self.patient.basal
        if init_rng is not None:
            g_p = max(0.0, init_rng.normal(state.g_p, INIT_SPREAD * state.g_p))
            g_t = max(0.0, init_rng.normal(state.g_t, INIT_SPREAD * state.g_t))
            g_sc = max(0.0, init_rng.normal(state.g_sc, INIT_SPREAD * state.g_sc))
            state = state._replace(g_p=g_p, g_t=g_t, g_sc=g_sc)
        self._state = state
        self._noise = 0.0
        self._t = 0.0
        self.steps = 0
        self.done = False
        y, self._noise = cgm_read(state, self.patient, self.sensor, self._noise, noise_rng)
        self.y = y
        # Per-episode trace. y_trace holds y_0 .. y_T; the other lists hold
        # one entry per completed step.
        self.y_trace: list[float] = [y]
        self.u_trace: list[float] = []
        self.event_trace: list[int] = []
        return Observation(y, 0.0)

    def step(self, u: float, event: bool = False) -> tuple[Observation, bool]:
        """Apply u for one control period; returns (observation, done).

        `event` marks steps at which the controller freshly decided the
        command; event_trace keeps it, and rollout reads its update times
        from there.
        """
        if self.done:
            raise EpisodeFinishedError("episode-finished: reset before stepping again")
        u_cmd = pump_command(u, self.pump)
        state = self._state
        patient = self.patient
        scenario = self._scenario
        t = self._t
        for j in range(SUBSTEPS):
            d = meal_rate_at(t + j * ODE_DT, scenario)
            state = rk4_step(state, u_cmd, d, ODE_DT, patient)
        self._state = state
        self._t = t + STEP_MINUTES
        steps = self.steps = self.steps + 1
        y, self._noise = cgm_read(state, patient, self.sensor, self._noise, self._noise_rng)
        self.y = y
        done = self.done = (steps >= self.cfg.horizon
                             or not (HYPO_MGDL < y < HYPER_MGDL))
        self.y_trace.append(y)
        self.u_trace.append(u_cmd)
        self.event_trace.append(1 if event else 0)
        return _new_obs(Observation, (y, u_cmd)), done


class HoldResult(NamedTuple):
    reward: float  # R_k: gamma-discounted sum over the held steps
    tau: int  # steps the command was held (>= 1)
    obs: Observation  # observation at the next decision epoch
    done: bool


_new_hold = tuple.__new__  # HoldResult from a 4-tuple, without NamedTuple's call


def hold_until_trigger(
    env: ApEnv,
    u: float,
    eta: float,
    gamma: float,
    reward_fn: Callable[[float, int], float] | None,
    ell: int = 0,
) -> HoldResult:
    """Hold u until the CGM moves at least eta from its start value.

    Steps the environment with the held command, accumulating
    R_k = sum_i gamma^i * reward_fn(y_i, ell + i) over the held steps,
    where y_i is the CGM the i-th held step starts from (i = 0 at the
    decision) and ell counts the steps already held since the last insulin
    update; without a reward_fn, R_k is 0. Only a step at ell + i = 0 is
    an update event. Stops after the first step whose fresh CGM satisfies
    |y - y_start| >= eta, so threshold 0 holds one step, or when the
    episode ends mid-hold.
    """
    if env.done:
        raise EpisodeFinishedError("episode-finished: reset before stepping again")
    if not 0.0 <= eta < math.inf:
        raise ValueError("trigger threshold must be non-negative" if eta < 0
                         else "trigger threshold must be finite")
    y_start = y = env.y
    total = 0.0
    disc = 1.0
    tau = 0
    while True:
        if reward_fn is not None:
            total += disc * reward_fn(y, ell + tau)
        obs, done = env.step(u, event=(ell + tau == 0))
        tau += 1
        disc *= gamma
        y = obs.y
        if done or abs(y - y_start) >= eta:
            return _new_hold(HoldResult, (total, tau, obs, done))


def rollout(
    env: ApEnv,
    obs: Observation,
    decide: Callable[[Observation], tuple[float | None, float | None]],
    reward_fn: Callable[[float, int], float] | None = None,
    gamma: float = 1.0,
    keep: Callable[[HoldResult], None] | None = None,
    max_misses: int | None = None,
) -> EpisodeRecord:
    """Run one episode from obs, the observation env.reset returned.

    decide(obs) returns (u, eta). u is the pump rate to send, or None to
    keep the last one without an update (zero insulin before the first).
    The command then holds until the CGM has moved by eta, which is
    recorded as the update's threshold; eta None is a per-step decision,
    a hold at threshold 0 that records no threshold. Each hold accrues
    reward_fn discounted by gamma (see hold_until_trigger), and keep, if
    given, receives its HoldResult.

    max_misses, for per-step decisions only, cuts the episode right after
    the step whose CGM is the (max_misses + 1)-th outside the metrics'
    target range; the record then covers the steps run. Its update times
    are the steps env.event_trace marks as events.
    """
    u = 0.0
    # Steps held since the last update; 0 only at an update, so holding
    # the initial zero is not an event.
    ell = 1
    misses = 0  # out-of-range CGM values among y_1 .. y_T
    etas: list[float] = []
    done = False
    while not done:
        cmd, eta = decide(obs)
        if cmd is not None:
            u = cmd
            ell = 0
            if eta is not None:
                etas.append(eta)
        if eta is None:
            eta = 0.0
        elif max_misses is not None:
            raise ValueError("max_misses needs a per-step controller")
        res = hold_until_trigger(env, u, eta, gamma, reward_fn, ell)
        if keep is not None:
            keep(res)
        _, tau, obs, done = res
        ell += tau
        if max_misses is not None and not RANGE_LO <= obs.y <= RANGE_HI:
            misses += 1
            if misses > max_misses:
                break
    events = env.event_trace
    update_times = tuple(compress(range(len(events)), events))
    return EpisodeRecord(
        T=env.steps, H=env.cfg.horizon, y_trace=tuple(env.y_trace),
        K=len(update_times), update_times=update_times,
        thresholds=tuple(etas) if etas else None,
    )
