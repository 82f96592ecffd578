"""Micro-benchmarks of the per-step control path, on fixed inputs.

    PYTHONPATH=src python -m pytest tests/bench_hot_path.py

The file name does not match ``test_*.py``, so the tier-1 run never
collects it; naming it on the command line does. pytest-benchmark reports
min, median and spread per case. Each case checks its result, so the
timed call cannot be skipped or left unfinished.
"""
from etglucose.env import ApEnv, EpisodeConfig
from etglucose.patients import default_cohort
from etglucose.pid import PidGains, run_pid_episode
from etglucose.plant import rk4_step
from etglucose.scenario import default_eval_scenarios
from etglucose.seeding import eval_noise_stream

PATIENT = default_cohort()[6]  # adult#007, the pid-tune seed-0 patient
SCENARIO = default_eval_scenarios()[0]
GAINS = PidGains(kp=0.0009, ki=1e-5, kd=0.001)


def test_rk4_step(benchmark):
    # mid-meal: every compartment non-zero, so no branch is skipped
    state = PATIENT.basal._replace(q_sto1=20000.0, q_sto2=5000.0, q_gut=3000.0,
                                   g_p=PATIENT.basal.g_p * 1.3)
    out = benchmark(rk4_step, state, 0.05, 5000.0, 1.0, PATIENT)
    assert out != state and min(out) > 0.0


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
