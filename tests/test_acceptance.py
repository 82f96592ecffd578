"""Release gate: ten end-to-end checks, one test per shipped guarantee.

Checks 1-7 and 10 are exact oracle or property checks and finish in
seconds. Checks 8 and 9 run real training (about four minutes combined)
and assert the qualitative outcomes the package is sold on: triggered
control that completes episodes, saves updates, and keeps time in range
near a tuned PID, and that triggering does not hurt final completion
under the plain in-range reward.

Run with -s to see one PASS line with the measured numbers per check.
"""
import math
import time
import zlib

import numpy as np
import pytest

from etglucose.cgmetppo import FixedCgmEtppoTrainer, TriggerConfig, smdp_gae
from etglucose.config import config_from_dict
from etglucose.env import Observation, hold_until_trigger, reward_r1
from etglucose.harness import roll_cgmetppo, roll_pid, roll_ppo, run_eval, run_train
from etglucose.hetppo import het_policy_grads
from etglucose.metrics import EpisodeRecord, aurr, ecf, tir
from etglucose.neural import GaussianPolicy
from etglucose.patients import default_cohort
from etglucose.pid import grid_search_pid
from etglucose.plant import rk4_step
from etglucose.ppo import (
    HyperParams,
    PpoTrainer,
    compute_gae,
    gaussian_policy_grads,
)
from per_step_oracle import PerStepPpo, record_updates
from test_plant import rk4_update  # the generic integrator rk4_step unrolls
from etglucose.scenario import (
    DEFAULT_MEAL_SPECS,
    MealSpec,
    default_eval_scenarios,
    generate_daily_scenario,
)
from etglucose.seeding import RngBundle, eval_noise_stream


def ok(tag: str, detail: str) -> None:
    print(f"PASS {tag}: {detail}")


# ---------------------------------------------------------------------------
# 1. advantage recursion against a direct forward sum


def brute_force_gae(rewards, values, dones, gamma, lam):
    n = len(rewards)
    out = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for l in range(t, n):
            delta = rewards[l] + gamma * (1.0 - dones[l]) * values[l + 1] - values[l]
            out[t] += coef * delta
            if dones[l]:
                break
            coef *= gamma * lam
    return out


def test_01_gae_matches_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = 50
        rewards = rng.normal(size=n)
        values = rng.normal(size=n + 1)
        dones = (rng.random(n) < 0.1).astype(float)
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        got = compute_gae(rewards, values, dones, gamma, lam)
        want = brute_force_gae(rewards, values, dones, gamma, lam)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10
    ok("advantage oracle", f"100 trajectories, max abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. zero threshold plus shared seed streams reduces to the per-step baseline;
# the baseline is an independent per-step PPO loop (tests/per_step_oracle.py)


def test_02_zero_threshold_reduces_to_periodic_ppo(monkeypatch):
    patient = default_cohort()[0]
    hyper = HyperParams(buffer_size=256)
    trig = TriggerConfig(fixed_eta=0.0)
    a = FixedCgmEtppoTrainer(patient, RngBundle.from_master(11), trigger=trig,
                             hyper=hyper, r1_only=True)
    snaps = record_updates(monkeypatch, a)
    b = PerStepPpo(patient, RngBundle.from_master(11), hyper=hyper)
    for ep in range(2):
        sa = a.run_episode(ep)
        sb = b.run_episode(ep)
        assert (sa.steps, sa.K, sa.ret) == (sb.steps, sb.K, sb.ret)
        assert (sa.ecf, sa.tir, sa.aurr) == (sb.ecf, sb.tir, sb.aurr)
        assert a.env.y_trace == b.env.y_trace
        assert a.env.u_trace == b.env.u_trace
    assert len(a.updates) == len(b.updates) >= 3
    for ua, ub in zip(snaps[a], b.snapshots):
        assert np.array_equal(ua.advantages, ub.advantages)
        assert ua.stats.policy_objective == ub.stats.policy_objective
        assert ua.stats.value_loss == ub.stats.value_loss
        assert ua.stats.entropy == ub.stats.entropy
        for pa, pb in zip(ua.params, ub.params):
            assert np.array_equal(pa, pb)
    ok("zero-threshold reduction",
       f"{len(a.updates)} updates, trajectories and parameters bit-identical")


# ---------------------------------------------------------------------------
# 3. analytic gradients of all three policy objectives against central FD


def _fd_check(objective, params, grads, rel=1e-4, atol=1e-7):
    eps = 1e-6
    checked = 0
    for p, g in zip(params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + eps
            hi = objective()
            p[idx] = keep - eps
            lo = objective()
            p[idx] = keep
            fd = (hi - lo) / (2.0 * eps)
            # stored gradients descend on -J
            assert -g[idx] == pytest.approx(fd, rel=rel, abs=atol)
            checked += 1
    return checked


def test_03_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    total = 0
    for _ in range(32):  # per-step objective, scalar action
        pol = GaussianPolicy.create(2, 1, 1, rng, hidden=(4,))
        obs = rng.normal(size=(8, 2))
        act = rng.normal(scale=0.5, size=(8, 1))
        lp = rng.normal(scale=0.3, size=8)
        adv = rng.normal(size=8)
        _, grads, _ = gaussian_policy_grads(pol, obs, act, lp, adv)
        total += _fd_check(
            lambda: gaussian_policy_grads(pol, obs, act, lp, adv)[0],
            pol.params(), grads)
    for _ in range(32):  # held-action objective, (rate, threshold) action
        pol = GaussianPolicy.create(2, 2, 2, rng, hidden=(4,))
        obs = rng.normal(size=(8, 2))
        act = rng.normal(scale=0.5, size=(8, 2))
        lp = rng.normal(scale=0.3, size=8)
        adv = rng.normal(size=8)
        _, grads, _ = gaussian_policy_grads(pol, obs, act, lp, adv)
        total += _fd_check(
            lambda: gaussian_policy_grads(pol, obs, act, lp, adv)[0],
            pol.params(), grads)
    for _ in range(32):  # factored objective with non-event rows masked
        pol = GaussianPolicy.create(2, 2, 1, rng, hidden=(4,))
        obs = rng.normal(size=(8, 2))
        e = np.zeros(8)
        e[rng.permutation(8)[:4]] = 1.0
        act = np.stack([rng.normal(scale=0.5, size=8), e], axis=1)
        lp = np.stack([rng.normal(scale=0.3, size=8),
                       -np.abs(rng.normal(scale=0.5, size=8))], axis=1)
        adv = rng.normal(size=8)
        _, grads, _ = het_policy_grads(pol, obs, act, lp, adv)
        total += _fd_check(
            lambda: het_policy_grads(pol, obs, act, lp, adv)[0],
            pol.params(), grads, atol=1e-8)
    ok("gradient checks", f"3 objectives x 32 nets, {total} partials vs FD")


# ---------------------------------------------------------------------------
# 4. the hold returns the first qualifying step


class _Scripted:
    def __init__(self, ys):
        self._ys = [float(v) for v in ys]
        self._i = 0
        self.done = False
        self.y = self._ys[0]

    def step(self, u, event=False):
        self._i += 1
        self.y = self._ys[self._i]
        self.done = self._i == len(self._ys) - 1
        return Observation(self.y, u), self.done


def test_04_trigger_fires_at_minimal_step():
    rng = np.random.default_rng(321)
    r1 = lambda y, ell: reward_r1(y)
    for _ in range(10000):
        n = int(rng.integers(2, 30))
        ys = np.cumsum(rng.normal(0.0, 4.0, size=n)) + 150.0
        eta = float(rng.uniform(0.0, 20.0))
        res = hold_until_trigger(_Scripted(ys), 0.0, eta, 0.99, r1)
        fired = [i for i in range(1, n) if abs(ys[i] - ys[0]) >= eta]
        assert res.tau == (min(fired) if fired else n - 1)
        assert hold_until_trigger(_Scripted(ys), 0.0, 0.0, 0.99, r1).tau == 1
    ok("trigger minimality", "10000 scripts, tau always the first crossing")


# ---------------------------------------------------------------------------
# 5. metric formulas on constructed episodes


def test_05_metric_hand_values():
    cases = [
        # (horizon, survived steps, updates, in-range count among y_1..y_T)
        (960, 960, 960, 960), (960, 960, 0, 960), (960, 960, 34, 700),
        (960, 400, 50, 400), (960, 400, 400, 123), (960, 1, 1, 0),
        (960, 1, 0, 1), (480, 480, 48, 250), (480, 100, 3, 99),
        (100, 100, 10, 50), (100, 50, 50, 50), (100, 99, 0, 0),
        (200, 200, 200, 0), (200, 150, 75, 149), (10, 10, 2, 5),
        (10, 3, 1, 3), (1, 1, 1, 1), (1, 1, 0, 0), (2880, 2880, 288, 2000),
        (2880, 1440, 100, 1440),
    ]
    assert len(cases) == 20
    for h, t, k, n_in in cases:
        ys = (150.0,) + (100.0,) * n_in + (300.0,) * (t - n_in)
        rec = EpisodeRecord(T=t, H=h, y_trace=ys, K=k,
                            update_times=tuple(range(k)), thresholds=None)
        assert ecf(rec) == pytest.approx(100.0 * t / h, abs=1e-12)
        assert tir(rec) == pytest.approx(100.0 * n_in / h, abs=1e-12)
        assert aurr(rec) == pytest.approx(
            100.0 * (1.0 - ((h - t) + k) / h), abs=1e-12)
    # early termination worked example: 560 lost steps plus 50 updates
    rec = EpisodeRecord(T=400, H=960, y_trace=(150.0,) * 401, K=50,
                        update_times=tuple(range(50)), thresholds=None)
    assert aurr(rec) == pytest.approx(100.0 * (1.0 - 610.0 / 960.0), abs=1e-12)
    assert round(aurr(rec), 3) == 36.458
    ok("metric oracles", "20 constructed records, worked example 36.458")


# ---------------------------------------------------------------------------
# 6. daily meal draw statistics


def test_06_meal_statistics():
    n = 10000
    freqs = []
    for spec in DEFAULT_MEAL_SPECS:
        # crc32, unlike the salted str hash, seeds alike in every process
        rng = np.random.default_rng(zlib.crc32(spec.name.encode()))
        forced = MealSpec(spec.name, 1.0, spec.t_lb, spec.t_ub, spec.t_mu,
                          spec.t_sigma, spec.m_mu, spec.m_sigma)
        hits = 0
        for _ in range(n):
            events = generate_daily_scenario((spec,), rng)
            hits += bool(events)
            for t, m in events:
                assert spec.t_lb <= t <= spec.t_ub
                assert m >= 0.0
        for _ in range(200):  # forced inclusion exercises bounds every draw
            (t, m), = generate_daily_scenario((forced,), rng)
            assert spec.t_lb <= t <= spec.t_ub and m >= 0.0
        freq = hits / n
        band = 3.0 * math.sqrt(spec.p * (1.0 - spec.p) / n)
        assert abs(freq - spec.p) < band, spec.name
        freqs.append(f"{spec.name} {freq:.3f}")
    ok("meal statistics", "; ".join(freqs))


# ---------------------------------------------------------------------------
# 7. plant equilibrium and integrator order


def test_07_plant_equilibrium_and_rk4_order():
    for p in default_cohort():
        st = p.basal
        y0 = st.g_sc / p.v_g
        for _ in range(2880):  # 48 h of one-minute steps at the basal rate
            st = rk4_step(st, p.u_basal, 0.0, 1.0, p)
        assert abs(st.g_sc / p.v_g - y0) <= 1.0, p.name

    def integrate(dt):
        x = (1.0,)
        for _ in range(round(1.0 / dt)):
            x = rk4_update(lambda s: (-s[0],), x, dt)
        return abs(x[0] - math.exp(-1.0))

    ratio = integrate(0.1) / integrate(0.05)
    assert ratio >= 12.0  # fourth order halving gives about 16
    ok("plant sanity", f"10 patients hold basal 48 h; step-halving ratio {ratio:.1f}")


# ---------------------------------------------------------------------------
# 8. triggered training reaches the shipped targets on several patients


def test_08_triggered_training_reaches_targets():
    cfg = config_from_dict({"method": "cgmetppo-fixed"})
    scenarios = default_eval_scenarios()
    lines = []
    for patient in default_cohort()[:3]:
        t0 = time.time()
        trainer = FixedCgmEtppoTrainer(
            patient, RngBundle.from_master(0),
            trigger=TriggerConfig(fixed_eta=25.0),
        )
        for ep in range(300):
            trainer.run_episode(ep)
        ecfs, tirs, aurrs = [], [], []
        for i, sc in enumerate(scenarios):
            rec, _ = roll_cgmetppo(patient, trainer.policy, sc,
                                   eval_noise_stream(i), cfg)
            ecfs.append(ecf(rec))
            tirs.append(tir(rec))
            aurrs.append(aurr(rec))
        gains, _ = grid_search_pid(patient, scenarios)
        pid_tirs = [
            tir(roll_pid(patient, gains, sc, eval_noise_stream(i), cfg)[0])
            for i, sc in enumerate(scenarios)
        ]
        elapsed = time.time() - t0
        assert all(e == 100.0 for e in ecfs), (patient.name, ecfs)
        assert np.mean(aurrs) >= 90.0, (patient.name, aurrs)
        gap = float(np.mean(tirs) - np.mean(pid_tirs))
        assert abs(gap) <= 10.0, (patient.name, gap)
        assert elapsed < 30 * 60
        lines.append(f"{patient.name} aurr {np.mean(aurrs):.1f} "
                     f"tir gap {gap:+.1f} ({elapsed:.0f}s)")
    ok("training targets", "; ".join(lines))


# ---------------------------------------------------------------------------
# 9. triggering does not hurt final completion under the plain reward


def test_09_triggered_completion_at_least_periodic():
    patient = default_cohort()[0]
    cfg = config_from_dict({"method": "cgmetppo-fixed", "r1_only": True})
    scenarios = default_eval_scenarios()
    triggered, periodic = [], []
    for seed in range(4):
        a = FixedCgmEtppoTrainer(
            patient, RngBundle.from_master(seed),
            trigger=TriggerConfig(fixed_eta=25.0), r1_only=True,
        )
        for ep in range(300):
            a.run_episode(ep)
        triggered.append(np.mean([
            ecf(roll_cgmetppo(patient, a.policy, sc, eval_noise_stream(i),
                              cfg)[0])
            for i, sc in enumerate(scenarios)
        ]))
        b = PpoTrainer(patient, RngBundle.from_master(seed))
        for ep in range(300):
            b.run_episode(ep)
        periodic.append(np.mean([
            ecf(roll_ppo(patient, b.policy, sc, eval_noise_stream(i), cfg)[0])
            for i, sc in enumerate(scenarios)
        ]))
    mean_trig, mean_per = float(np.mean(triggered)), float(np.mean(periodic))
    assert mean_trig >= mean_per
    ok("completion direction",
       f"4 seeds: triggered {mean_trig:.2f} >= periodic {mean_per:.2f}")


# ---------------------------------------------------------------------------
# 10. the whole pipeline is deterministic


def test_10_rerun_is_byte_identical(tmp_path):
    cfg = config_from_dict({
        "method": "cgmetppo-fixed", "episodes": 2, "seeds": [0],
        "hyper": {"buffer_size": 64, "minibatch": 16, "epochs": 2},
        "episode": {"horizon": 240},
    })
    payloads = []
    for base in (tmp_path / "a", tmp_path / "b"):
        run_train(cfg, base)
        payloads.append(run_eval(cfg, base)[0].read_bytes())
    assert payloads[0] == payloads[1]
    ok("determinism", "train+eval rerun, metrics.csv byte-identical")
