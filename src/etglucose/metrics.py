"""Evaluation metrics: completion, time in range, update reduction.

Definitions (H = horizon in steps, T = completed steps, K = insulin-update
count, y_h = CGM after step h):

    ECF  = 100 * T / H
    TIR  = 100 * (1/H) * sum_{h=1..T} 1[70 <= y_h <= 180]
    AURR = 100 * (1 - ((H - T) + K) / H)

TIR divides by the full horizon, so early termination lowers it by
construction. AURR counts every step not survived as a spent update.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANGE_LO = 70.0
RANGE_HI = 180.0
METRICS = ("ecf", "tir", "aurr")  # each names its function below


@dataclass(frozen=True)
class EpisodeRecord:
    """What one finished episode leaves behind for the metrics.

    y_trace holds y_0 .. y_T (the initial observation plus one value per
    completed step). update_times are the step indices at which the
    controller freshly decided the command; thresholds are the trigger
    thresholds chosen at those times (None for trigger-free controllers).
    """

    T: int
    H: int
    y_trace: tuple[float, ...]
    K: int
    update_times: tuple[int, ...]
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.T <= self.H:
            raise ValueError("need 0 <= T <= H")
        if not 0 <= self.K <= self.T:
            raise ValueError("need 0 <= K <= T")
        if len(self.y_trace) < self.T + 1:
            raise ValueError("y_trace must cover y_0 .. y_T")
        if len(self.update_times) != self.K:
            raise ValueError("update_times must have K entries")
        if any(b <= a for a, b in zip(self.update_times, self.update_times[1:])):
            raise ValueError("update_times must be strictly increasing")
        if self.thresholds is not None and len(self.thresholds) != self.K:
            raise ValueError("thresholds must have one entry per update")


def ecf(record: EpisodeRecord) -> float:
    """Episode completion fraction, percent."""
    return 100.0 * record.T / record.H


def tir(record: EpisodeRecord) -> float:
    """Time in range, percent of the full horizon."""
    in_range = sum(
        1 for y in record.y_trace[1 : record.T + 1] if RANGE_LO <= y <= RANGE_HI
    )
    return 100.0 * in_range / record.H


def aurr(record: EpisodeRecord) -> float:
    """Action update reduction rate, percent."""
    return 100.0 * (1.0 - ((record.H - record.T) + record.K) / record.H)


def interval_averages(record: EpisodeRecord) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval mean CGM and threshold, one entry per update.

    Interval k spans steps [h_k, h_{k+1}) (the last one ends at T) and
    averages the y values the controller saw during it: y_trace[h_k : end].
    """
    if record.thresholds is None:
        raise ValueError("interval analysis needs a record with thresholds")
    times = list(record.update_times) + [record.T]
    y = np.asarray(record.y_trace)
    means = np.array([
        y[times[k] : times[k + 1]].mean() for k in range(record.K)
    ]) if record.K else np.empty(0)
    return means, np.asarray(record.thresholds, dtype=float)


@dataclass(frozen=True)
class AggregateResult:
    mean: dict[str, float]
    std: dict[str, float]
    n_seeds: int  # 1 makes every std 0 by construction


def aggregate(per_seed_runs: list[list[dict[str, float]]]) -> AggregateResult:
    """Scenario means per seed, then mean and population std over seeds."""
    if not per_seed_runs or any(not runs for runs in per_seed_runs):
        raise ValueError("aggregate needs at least one run per seed")
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for name in METRICS:
        seed_means = np.array([
            np.mean([run[name] for run in runs]) for runs in per_seed_runs
        ])
        means[name] = float(seed_means.mean())
        stds[name] = float(seed_means.std())  # population std (ddof = 0)
    return AggregateResult(mean=means, std=stds, n_seeds=len(per_seed_runs))
