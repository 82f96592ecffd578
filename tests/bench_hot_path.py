"""Micro-benchmarks of the control path and the learner's leaves, on fixed inputs.

    PYTHONPATH=src python -m pytest tests/bench_hot_path.py

The file name does not match ``test_*.py``, so the tier-1 run never
collects it; naming it on the command line does. pytest-benchmark reports
min, median and spread per case. Each case checks its result, so the
timed call cannot be skipped or left unfinished.
"""
import numpy as np

from etglucose.cgmetppo import ETA_HI, ETA_LO, CgmEtppoTrainer
from etglucose.env import ApEnv, EpisodeConfig, Observation, obs_vec
from etglucose.neural import (
    DEFAULT_HIDDEN,
    GaussianPolicy,
    Mlp,
    OptimizerState,
    adam_step,
)
from etglucose.patients import default_cohort
from etglucose.pid import PidGains, run_pid_episode
from etglucose.plant import rhs, rk4_step
from etglucose.ppo import HyperParams, greedy_decide, smdp_gae, update_networks
from etglucose.scenario import default_eval_scenarios
from etglucose.seeding import RngBundle, eval_noise_stream

PATIENT = default_cohort()[6]  # adult#007, the pid-tune seed-0 patient
SCENARIO = default_eval_scenarios()[0]
GAINS = PidGains(kp=0.0009, ki=1e-5, kd=0.001)
N_ROWS = HyperParams().buffer_size  # one update's worth of decisions
OBS = Observation(140.0, 0.02)


# mid-meal: every compartment non-zero, so no branch is skipped
MEAL_STATE = PATIENT.basal._replace(q_sto1=20000.0, q_sto2=5000.0, q_gut=3000.0,
                                    g_p=PATIENT.basal.g_p * 1.3)


def test_rhs(benchmark):
    out = benchmark(rhs, MEAL_STATE, 0.05, 5000.0, PATIENT)
    assert len(out) == len(MEAL_STATE) and out[3] < 0.0 < out[0]


def test_rk4_step(benchmark):
    out = benchmark(rk4_step, MEAL_STATE, 0.05, 5000.0, 1.0, PATIENT)
    assert out != MEAL_STATE and min(out) > 0.0


def test_env_step(benchmark):
    # a horizon no run reaches, so every timed call is a live step
    env = ApEnv(PATIENT, EpisodeConfig(horizon=10**9))
    env.reset(SCENARIO, eval_noise_stream(0))
    obs, done = benchmark(env.step, PATIENT.u_basal)
    assert not done and obs.u_prev == PATIENT.u_basal


def test_pid_episode(benchmark):
    rec = benchmark(lambda: run_pid_episode(PATIENT, GAINS, SCENARIO,
                                            eval_noise_stream(0)))
    assert rec.T == rec.H == 960


def test_policy_sample(benchmark):
    pol = GaussianPolicy.create(2, 2, 2, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    a, logp = benchmark(pol.sample, np.array([0.25, 0.1]), rng)
    assert a.shape == (2,) and np.isfinite(logp)


def test_mlp_forward_cached(benchmark):
    net = Mlp.create((2, *DEFAULT_HIDDEN, 1), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(128, 2))
    out, acts = benchmark(net.forward_cached, x)
    assert out.shape == (128, 1) and len(acts) == 4


def test_mlp_backward(benchmark):
    net = Mlp.create((2, *DEFAULT_HIDDEN, 1), np.random.default_rng(0))
    _, acts = net.forward_cached(np.random.default_rng(1).normal(size=(128, 2)))
    grads = benchmark(net.backward, acts, np.ones((128, 1)))
    assert [g.shape for g in grads] == [p.shape for p in net.params()]


def test_adam_step(benchmark):
    # one step over a learner: actor parameters, then critic parameters
    rng = np.random.default_rng(0)
    params = (GaussianPolicy.create(2, 1, 1, rng).params()
              + Mlp.create((2, *DEFAULT_HIDDEN, 1), rng).params())
    grads = [np.full_like(p, 1e-3) for p in params]
    opt = OptimizerState()
    benchmark(adam_step, params, grads, opt)
    assert opt.t >= 1 and opt.m.size == sum(p.size for p in params)


def test_smdp_gae(benchmark):
    rng = np.random.default_rng(0)
    tau = rng.integers(1, 20, size=N_ROWS)
    dones = np.zeros(N_ROWS)
    dones[-1] = 1.0
    adv = benchmark(smdp_gae, rng.normal(size=N_ROWS), tau,
                    rng.normal(size=N_ROWS + 1), dones, 0.99, 0.95)
    assert adv.shape == (N_ROWS,) and np.all(np.isfinite(adv))


def test_update_networks(benchmark):
    rng = np.random.default_rng(0)
    pol = GaussianPolicy.create(2, 2, 2, rng)
    vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
    data = {
        "obs": rng.normal(size=(N_ROWS, 2)),
        "act": rng.normal(size=(N_ROWS, 2)),
        "logp_old": rng.normal(scale=0.1, size=N_ROWS) - 1.0,
        "adv": rng.normal(size=N_ROWS),
        "vtarget": rng.normal(size=N_ROWS),
    }
    hyper = HyperParams()
    stats = benchmark(update_networks, pol, vnet, OptimizerState(), data, hyper,
                      np.random.default_rng(1))
    assert not stats.diverged
    assert stats.minibatches == hyper.epochs * (N_ROWS // hyper.minibatch)


def test_sample_decision(benchmark):
    tr = CgmEtppoTrainer(PATIENT, RngBundle.from_master(0))
    act, logp, rate, eta = benchmark(tr.sample_decision, obs_vec(OBS, tr.pump))
    assert act.shape == (2,) and 0.0 <= rate <= tr.pump.u_max
    assert ETA_LO <= eta <= ETA_HI


def test_greedy_decide(benchmark):
    tr = CgmEtppoTrainer(PATIENT, RngBundle.from_master(0))
    rate, eta = benchmark(greedy_decide, tr.policy, OBS, tr.pump, tr.trigger)
    assert 0.0 <= rate <= tr.pump.u_max
    assert ETA_LO <= eta <= ETA_HI
