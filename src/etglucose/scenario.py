"""Randomized meal scenarios and carbohydrate delivery.

A daily scenario draws from six meal slots (three meals, three snacks).
Each slot is included with its own probability; an included meal gets a
time from a truncated normal (rejection sampled, rounded to the minute)
and an amount from a normal clipped at zero. A 48 h episode concatenates
two daily scenarios at offsets 0 and 1440 min.

Delivered carbohydrate enters the gut model at a fixed 5 g/min; meals
queue first-in-first-out, so overlapping meals extend the delivery window
instead of stacking rates.

Per meal slot the generator consumes: one uniform (inclusion), then for
included slots one normal per rejection attempt (time) and one normal
(amount). This order is fixed; reproducibility depends on it.
"""
from __future__ import annotations

import functools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .seeding import named_stream

log = logging.getLogger(__name__)

RATE_G_PER_MIN = 5.0
RATE_MG_PER_MIN = 5000.0

MINUTES_PER_DAY = 1440
MAX_TRIES = 10_000  # rejection draws per truncated-normal sample


@dataclass(frozen=True)
class MealSpec:
    """One meal slot of the daily generator. Times in minutes from 00:00."""

    name: str
    p: float  # inclusion probability
    t_lb: float  # earliest time
    t_ub: float  # latest time
    t_mu: float  # time mean
    t_sigma: float  # time standard deviation
    m_mu: float  # amount mean [g]
    m_sigma: float  # amount standard deviation [g]


DEFAULT_MEAL_SPECS: tuple[MealSpec, ...] = (
    MealSpec("breakfast", 0.95, 300.0, 540.0, 420.0, 60.0, 45.0, 10.0),
    MealSpec("snack1", 0.30, 540.0, 600.0, 570.0, 30.0, 10.0, 5.0),
    MealSpec("lunch", 0.95, 600.0, 840.0, 720.0, 60.0, 70.0, 10.0),
    MealSpec("snack2", 0.30, 840.0, 960.0, 900.0, 30.0, 10.0, 5.0),
    MealSpec("dinner", 0.95, 960.0, 1200.0, 1080.0, 60.0, 80.0, 10.0),
    MealSpec("snack3", 0.30, 1200.0, 1380.0, 1290.0, 30.0, 10.0, 5.0),
)


@dataclass(frozen=True)
class MealScenario:
    """A fixed list of meal events (t_min, carb_g), sorted by time.

    Delivery windows are precomputed: each meal occupies [start, start +
    m / 5) minutes at 5 g/min, starting when the previous meal finishes
    if it is still being delivered.
    """

    events: tuple[tuple[int, float], ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _ends: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts, ends = [], []
        cursor = -math.inf
        for t, m in self.events:
            if m < 0.0:
                raise ValueError(f"negative meal amount at t={t}")
            if m == 0.0:
                continue
            start = max(float(t), cursor)
            end = start + m / RATE_G_PER_MIN
            starts.append(start)
            ends.append(end)
            cursor = end
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_ends", tuple(ends))


def meal_rate_at(t: float, scenario: MealScenario) -> float:
    """Carbohydrate delivery rate [mg/min] at time t [min]."""
    idx = bisect_right(scenario._starts, t) - 1
    if idx >= 0 and t < scenario._ends[idx]:
        return RATE_MG_PER_MIN
    return 0.0


def sample_truncated_normal(
    mu: float,
    sigma: float,
    lb: float,
    ub: float,
    rng: np.random.Generator,
) -> int:
    """Sample N(mu, sigma^2) conditioned on [lb, ub], rounded to the minute.

    Rejection sampling; if no draw lands inside after MAX_TRIES the mean
    clamped into the interval is used and a warning is logged.
    """
    for _ in range(MAX_TRIES):
        x = mu + sigma * rng.standard_normal()
        if lb <= x <= ub:
            break
    else:
        log.warning(
            "truncated normal (mu=%g sigma=%g on [%g, %g]) hit the retry cap; "
            "falling back to the clamped mean", mu, sigma, lb, ub,
        )
        x = min(max(mu, lb), ub)
    t = round(x)
    return int(min(max(t, math.ceil(lb)), math.floor(ub)))


def generate_daily_scenario(
    specs: tuple[MealSpec, ...],
    rng: np.random.Generator,
    day_offset: int = 0,
) -> list[tuple[int, float]]:
    """Draw one day of meal events, times shifted by day_offset minutes."""
    events = []
    for spec in specs:
        include = rng.uniform() < spec.p
        if not include:
            continue
        t = sample_truncated_normal(spec.t_mu, spec.t_sigma, spec.t_lb, spec.t_ub, rng)
        m = max(0.0, spec.m_mu + spec.m_sigma * rng.standard_normal())
        events.append((t + day_offset, m))
    events.sort(key=lambda e: e[0])
    return events


def generate_episode_scenario(
    specs: tuple[MealSpec, ...],
    rng: np.random.Generator,
    n_days: int = 2,
) -> MealScenario:
    """Draw an n_days-long scenario (days at offsets 0, 1440, ...)."""
    events: list[tuple[int, float]] = []
    for day in range(n_days):
        events.extend(generate_daily_scenario(specs, rng, day * MINUTES_PER_DAY))
    events.sort(key=lambda e: e[0])
    return MealScenario(tuple(events))


EVAL_SCENARIO_SEEDS = (1000, 1001, 1002, 1003, 1004)


@functools.cache
def _default_eval_scenarios() -> tuple[MealScenario, ...]:
    return tuple(
        generate_episode_scenario(DEFAULT_MEAL_SPECS, named_stream(seed, "scenario"), 2)
        for seed in EVAL_SCENARIO_SEEDS
    )


def default_eval_scenarios() -> list[MealScenario]:
    """The five fixed evaluation scenarios: one 2-day draw from the
    "scenario" stream of each of EVAL_SCENARIO_SEEDS.

    They are drawn once per process; each call returns a fresh list of
    the same frozen scenarios.
    """
    return list(_default_eval_scenarios())
