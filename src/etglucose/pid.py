"""PID insulin controller and its grid-search tuner.

The clinical baseline: u = kp*e + ki*I + kd*de/dt on the glucose error
e = y - target, commanded every step (so its event count always equals
its episode length). Anti-windup is by conditional integration: the
integral only absorbs the current error when the resulting command is
not clamped by the pump limits.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import STEP_MINUTES, ApEnv, EpisodeConfig, rollout
from .metrics import EpisodeRecord, tir
from .plant import PumpConfig, SensorConfig
from .scenario import MealScenario
from .seeding import eval_noise_stream

log = logging.getLogger(__name__)

TARGET_MGDL = 112.5


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float = 0.0
    kd: float = 0.0
    target: float = TARGET_MGDL


class PidState(NamedTuple):
    integral: float = 0.0
    prev_error: float | None = None  # None marks the first call


_new_pid_state = tuple.__new__  # PidState from a 2-tuple, without NamedTuple's call


@dataclass(frozen=True)
class PidGrid:
    """The gains grid_search_pid tries: every (kp, ki, kd) of the lists.

    U/min per (mg/dL) and friends; the defaults are chosen so the strongest
    kp alone maps a +75 mg/dL excursion to the pump ceiling.
    """

    kp: tuple[float, ...] = (0.0001, 0.0005, 0.0009, 0.0013, 0.0017)
    ki: tuple[float, ...] = (0.0, 1e-5, 1e-4)
    kd: tuple[float, ...] = (0.0, 0.001, 0.01)

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            vals = getattr(self, name)
            if len(vals) == 0:
                raise ValueError(f"pid grid {name} must be non-empty")
            if not all(0.0 <= v < math.inf for v in vals):
                raise ValueError(f"{name} must hold finite non-negative gains")


def pid_output(
    gains: PidGains,
    state: PidState,
    y: float,
    pump: PumpConfig = PumpConfig(),
) -> tuple[float, PidState]:
    """One controller evaluation over a STEP_MINUTES period; returns
    (clamped rate, next state).

    The derivative term is zero on the first call of an episode. The
    candidate integral is used for this step's command but only kept
    when the command lands inside the pump range.
    """
    error = y - gains.target
    i_cand = state.integral + error * STEP_MINUTES
    deriv = (0.0 if state.prev_error is None
             else (error - state.prev_error) / STEP_MINUTES)
    u_raw = gains.kp * error + gains.ki * i_cand + gains.kd * deriv
    u = min(max(u_raw, pump.u_min), pump.u_max)
    integral = i_cand if u_raw == u else state.integral
    return u, _new_pid_state(PidState, (integral, error))


def pid_decider(gains: PidGains, pump: PumpConfig):
    """decide(obs) for env.rollout: one PID evaluation per control step."""
    state = PidState()

    def decide(obs):
        nonlocal state
        u, state = pid_output(gains, state, obs.y, pump)
        return u, None

    return decide


def run_pid_episode(
    patient,
    gains: PidGains,
    scenario: MealScenario,
    noise_rng: np.random.Generator,
    episode_cfg: EpisodeConfig = EpisodeConfig(),
    sensor: SensorConfig = SensorConfig(),
    pump: PumpConfig = PumpConfig(),
    max_misses: int | None = None,
) -> EpisodeRecord:
    """Roll one evaluation episode under PID control.

    max_misses cuts the episode once more CGM values than that have left
    the target range (see env.rollout).
    """
    env = ApEnv(patient, episode_cfg, sensor, pump)
    return rollout(env, env.reset(scenario, noise_rng), pid_decider(gains, pump),
                   max_misses=max_misses)


def grid_search_pid(
    patient,
    scenarios: list[MealScenario],
    grid: PidGrid = PidGrid(),
    episode_cfg: EpisodeConfig = EpisodeConfig(),
    sensor: SensorConfig = SensorConfig(),
    pump: PumpConfig = PumpConfig(),
) -> tuple[PidGains, float]:
    """Exact branch-and-bound search maximizing mean time-in-range.

    Every candidate faces the same scenarios under the same fixed sensor
    noise streams, so the search is deterministic. It returns exactly what
    scoring every candidate on every scenario would: the largest mean TIR,
    ties keeping the earlier candidate (the grids iterate smallest gain
    first). Every candidate is first screened on scenario 0, then visited
    by descending screen TIR. Before each further scenario the candidate's
    mean is bounded from above by counting every scenario not yet run at
    100, which no TIR exceeds; a rounded float sum never decreases when a
    term grows, so the bound is never below the final mean. A candidate
    whose bound cannot beat the incumbent, or can only tie it from a later
    grid position, is dropped.

    The bound also reaches inside an episode. TIR divides by the horizon
    H, so an episode with m out-of-range CGM values scores at most
    100 * (H - m) / H. Each episode after the screen runs with the largest
    miss count m that still passes the drop rule with that value in place
    of 100, and is cut at its (m + 1)-th miss. A TIR at or below
    100 * (H - m - 1) / H, whether cut or not, fails the rule, so the
    candidate is dropped and that TIR enters no mean.

    A gain whose optimum is the first or last value of a grid with two or
    more values is logged as a warning: the search may be capped by its
    own grid. An optimum of 0 is not, because 0 is the gain's physical
    bound.
    """
    if not scenarios:
        raise ValueError("grid search needs at least one scenario")
    candidates = [PidGains(kp=kp, ki=ki, kd=kd)
                  for kp, ki, kd in itertools.product(grid.kp, grid.ki, grid.kd)]
    n = len(scenarios)
    horizon = episode_cfg.horizon
    episodes = steps = 0

    def score(gains: PidGains, i: int, max_misses: int | None = None) -> float:
        nonlocal episodes, steps
        rec = run_pid_episode(
            patient, gains, scenarios[i], eval_noise_stream(i),
            episode_cfg, sensor, pump, max_misses=max_misses,
        )
        episodes += 1
        steps += rec.T
        return tir(rec)

    def passes(j: int, bound: float) -> bool:
        return bound > best_score or (bound == best_score and j < best)

    tirs = [[score(gains, 0)] for gains in candidates]
    best, best_score = len(candidates), -np.inf
    for j in sorted(range(len(candidates)), key=lambda j: (-tirs[j][0], j)):
        row = tirs[j]
        for i in range(1, n):
            rest = [100.0] * (n - i - 1)

            def bound(m: int) -> float:
                return float(np.mean(row + [100.0 * (horizon - m) / horizon] + rest))

            if not passes(j, bound(0)):
                break
            lo, hi = 0, horizon  # the largest passing miss count is in [lo, hi]
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if passes(j, bound(mid)):
                    lo = mid
                else:
                    hi = mid - 1
            t = score(candidates[j], i, lo)
            if t <= 100.0 * (horizon - lo - 1) / horizon:
                break
            row.append(t)
        else:
            mean = float(np.mean(row))
            if passes(j, mean):
                best, best_score = j, mean
    best_gains = candidates[best]
    name = getattr(patient, "name", "?")
    log.info("grid search for %s: best %s mean TIR %.2f "
             "(ran %d of %d episodes, %d steps)",
             name, best_gains, best_score, episodes, len(candidates) * n, steps)
    for gain in ("kp", "ki", "kd"):
        value, values = getattr(best_gains, gain), getattr(grid, gain)
        if value == 0.0:
            continue  # 0 bounds the gain itself, not only its grid
        if len(values) >= 2 and value in (values[0], values[-1]):
            edge = "lower" if value == values[0] else "upper"
            log.warning("grid search for %s: %s optimum %g is on the %s edge "
                        "of its grid", name, gain, value, edge)
    return best_gains, best_score
