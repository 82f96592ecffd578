"""The greedy episode loop as it was before it became env.rollout's one path.

It had two ways to step the plant: a per-step decision (eta None) called
env.step itself and counted the steps, and a threshold decision went
through hold_until_trigger. It kept its own update-time list. Kept as a
reference that the one loop must reproduce on every decider it accepted.
"""
from __future__ import annotations

from etglucose.env import hold_until_trigger
from etglucose.metrics import RANGE_HI, RANGE_LO, EpisodeRecord


def _no_reward(y: float, ell: int) -> float:
    return 0.0


def reference_rollout(env, scenario, noise_rng, decide, max_misses=None):
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
