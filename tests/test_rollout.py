"""env.rollout is the one episode loop, and only the hold steps the plant.

The loop replaced a greedy loop with two stepping paths (a per-step branch
that called env.step itself, beside hold_until_trigger) and a training
loop of its own. reference_rollout keeps the old greedy loop; on the real
plant the new loop must leave the same record and the same traces for
every decider the old one accepted.
"""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etglucose import harness
from etglucose.cgmetppo import CgmEtppoTrainer, FixedCgmEtppoTrainer
from etglucose.config import ExperimentConfig
from etglucose.env import ApEnv, EpisodeConfig, rollout
from etglucose.hetppo import HetppoTrainer
from etglucose.neural import GaussianPolicy
from etglucose.patients import default_cohort
from etglucose.pid import PidGains, run_pid_episode
from etglucose.ppo import HyperParams, PpoTrainer
from etglucose.scenario import MealScenario, default_eval_scenarios
from etglucose.seeding import RngBundle, eval_noise_stream

from reference_rollout import reference_rollout

PATIENT = default_cohort()[0]

# A decision is (rate or None, threshold or None). The old loop recorded
# the threshold of a hold that sent no rate but did not count it as an
# update, so its record check refused any such episode; None rates are
# drawn here with per-step decisions only.
RATES = st.floats(0.0, 0.2)
PER_STEP = st.one_of(st.just((None, None)), st.tuples(RATES, st.none()))
THRESHOLD = st.tuples(RATES, st.floats(0.0, 30.0))
DECISIONS = st.one_of(
    st.lists(PER_STEP, min_size=1, max_size=8),
    st.lists(THRESHOLD, min_size=1, max_size=8),
    st.lists(st.one_of(PER_STEP, THRESHOLD), min_size=1, max_size=8),
)


def scripted(decisions):
    """decide(obs) that cycles through a fixed list of decisions."""
    calls = iter(range(10**9))
    return lambda obs: decisions[next(calls) % len(decisions)]


def outcome(env, run):
    """(record or the ValueError's text, the env's y/u/event traces)."""
    try:
        rec = run(env)
    except ValueError as exc:
        rec = str(exc)
    return rec, (env.y_trace, env.u_trace, env.event_trace)


@given(
    decisions=DECISIONS,
    max_misses=st.one_of(st.none(), st.integers(0, 20)),
    horizon=st.integers(1, 120),
    meal=st.tuples(st.integers(0, 120), st.floats(0.0, 150.0)),
    noise=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_matches_the_two_branch_loop(decisions, max_misses, horizon, meal, noise):
    scenario = MealScenario(events=(meal,))
    cfg = EpisodeConfig(horizon=horizon)
    want = outcome(ApEnv(PATIENT, cfg), lambda env: reference_rollout(
        env, scenario, eval_noise_stream(noise), scripted(decisions), max_misses))
    got = outcome(ApEnv(PATIENT, cfg), lambda env: rollout(
        env, env.reset(scenario, eval_noise_stream(noise)), scripted(decisions),
        max_misses=max_misses))
    assert got == want


@pytest.mark.parametrize("decisions,cap,covers", [
    # zero insulin after a 100 g meal: cut at the fourth miss
    ([(0.0, None), (None, None)], 3,
     lambda env, rec: rec.T < 120 and not env.done),
    # threshold holds longer than one step
    ([(0.02, 5.0), (0.0, 12.0)], None,
     lambda env, rec: rec.thresholds is not None and 1 < rec.K < rec.T),
    # per-step decisions that keep the last rate
    ([(0.01, None), (None, None), (None, None)], None,
     lambda env, rec: 0 < rec.K < rec.T),
], ids=["cut", "threshold", "per-step"])
def test_matches_on_each_case(decisions, cap, covers):
    # one instance of each case the property above has to agree on
    scenario = MealScenario(events=((0, 100.0),))
    env = ApEnv(PATIENT, EpisodeConfig(horizon=120))
    rec = rollout(env, env.reset(scenario, eval_noise_stream(0)),
                  scripted(decisions), max_misses=cap)
    assert covers(env, rec)
    ref_env = ApEnv(PATIENT, EpisodeConfig(horizon=120))
    assert rec == reference_rollout(ref_env, scenario, eval_noise_stream(0),
                                    scripted(decisions), cap)
    assert env.event_trace == ref_env.event_trace


def test_hold_without_an_update_is_not_an_event():
    # the old loop marked this hold an event in the trace yet left it out
    # of the update times, and its record check then refused the episode
    scenario = default_eval_scenarios()[0]
    decisions = iter([(0.01, 10.0)] + [(None, 5.0)] * 1000)
    env = ApEnv(PATIENT, EpisodeConfig(horizon=60))
    rec = rollout(env, env.reset(scenario, eval_noise_stream(0)),
                  lambda obs: next(decisions))
    assert (rec.K, rec.update_times, rec.thresholds) == (1, (0,), (10.0,))
    assert env.event_trace == [1] + [0] * (rec.T - 1)
    assert env.u_trace == [0.01] * rec.T
    decisions = iter([(0.01, 10.0)] + [(None, 5.0)] * 1000)
    with pytest.raises(ValueError, match="one entry per update"):
        reference_rollout(ApEnv(PATIENT, EpisodeConfig(horizon=60)), scenario,
                          eval_noise_stream(0), lambda obs: next(decisions))


def test_every_plant_step_comes_from_the_hold(monkeypatch):
    """PID, greedy and training episodes all step the plant only through
    hold_until_trigger, called from env.rollout."""
    real = ApEnv.step
    callers = []

    def step(self, u, event=False):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return real(self, u, event=event)

    monkeypatch.setattr(ApEnv, "step", step)
    episode = EpisodeConfig(horizon=40)
    scenario = default_eval_scenarios()[0]
    cfg = ExperimentConfig(method="cgmetppo-variable", episode=episode)
    rng = np.random.default_rng(0)
    hyper = HyperParams(buffer_size=16, minibatch=8, epochs=1)
    runs = {
        "pid": lambda: run_pid_episode(PATIENT, PidGains(kp=0.0009), scenario,
                                       eval_noise_stream(0), episode),
        "greedy cgmetppo": lambda: harness.roll_cgmetppo(
            PATIENT, GaussianPolicy.create(2, 2, 2, rng), scenario,
            eval_noise_stream(0), cfg),
        "greedy hetppo": lambda: harness.roll_hetppo(
            PATIENT, GaussianPolicy.create(2, 2, 1, rng), scenario, eval_noise_stream(0),
            cfg),
    }
    for cls in (PpoTrainer, HetppoTrainer, CgmEtppoTrainer,
                FixedCgmEtppoTrainer):
        trainer = cls(PATIENT, RngBundle.from_master(0), hyper=hyper,
                      episode_cfg=episode)
        runs[cls.__name__] = lambda tr=trainer: tr.run_episode(0)
    for name, run in runs.items():
        callers.clear()
        run()
        assert callers, name
        assert set(callers) == {("hold_until_trigger", "rollout")}, name
