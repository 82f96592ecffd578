"""Trigger-driven SMDP trainer tests: deltas, extended GAE, equivalences."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etglucose import ppo
from etglucose.cgmetppo import (
    ETA_HI,
    ETA_LO,
    CgmEtppoTrainer,
    FixedCgmEtppoTrainer,
    TriggerConfig,
    smdp_gae,
    smdp_update,
)
from etglucose.env import EpisodeConfig, Observation, obs_vec
from etglucose.neural import DEFAULT_HIDDEN, GaussianPolicy, Mlp, OptimizerState
from etglucose.patients import NOMINAL_ADULT, build_patient
from etglucose.plant import PumpConfig, SensorConfig
from etglucose.ppo import (
    HyperParams,
    PpoTrainer,
    SmdpBuffer,
    SmdpExperience,
    compute_gae,
    decision,
    greedy_decide,
    squash_rate,
)
from etglucose.seeding import RngBundle
from per_step_oracle import PerStepPpo, per_step_gae, record_updates


def smdp_delta(
    R: float, tau: int, v_next: float, v_cur: float, d: float, gamma: float
) -> float:
    """SMDP temporal-difference error with a gamma^tau bootstrap."""
    return R + gamma ** int(tau) * (1.0 - d) * v_next - v_cur


@pytest.fixture(scope="module")
def patient():
    return build_patient("nominal", NOMINAL_ADULT)


def brute_force_smdp_gae(R, tau, values, dones, gamma, lam):
    """A_k = sum_l (prod_j gamma^tau_j * lam) delta_{k+l}, cut at dones."""
    n = len(R)
    adv = np.zeros(n)
    for k in range(n):
        coef = 1.0
        for l in range(k, n):
            delta = smdp_delta(R[l], int(tau[l]), values[l + 1], values[l],
                               dones[l], gamma)
            adv[k] += coef * delta
            if dones[l]:
                break
            coef *= gamma ** int(tau[l]) * lam
    return adv


class TestSmdpDelta:
    def test_hand_example(self):
        got = smdp_delta(2.9701, 3, 10.0, 5.0, 0.0, 0.99)
        assert got == pytest.approx(7.67309, abs=1e-10)

    def test_terminal_drops_bootstrap(self):
        assert smdp_delta(2.9701, 3, 10.0, 5.0, 1.0, 0.99) == pytest.approx(
            2.9701 - 5.0
        )

    def test_unit_tau_is_per_step_delta(self):
        for r, vn, vc in ((1.0, 0.4, 0.2), (-0.5, 2.0, 1.0)):
            assert smdp_delta(r, 1, vn, vc, 0.0, 0.99) == pytest.approx(
                r + 0.99 * vn - vc, abs=1e-15
            )

    def test_longer_hold_discounts_more(self):
        base = smdp_delta(1.0, 1, 10.0, 0.0, 0.0, 0.99)
        for tau in (2, 5, 20):
            assert smdp_delta(1.0, tau, 10.0, 0.0, 0.0, 0.99) < base


class TestSmdpGae:
    def test_all_unit_tau_reduces_to_per_step_gae(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = 64
            r = rng.normal(size=n)
            v = rng.normal(size=n + 1)
            d = (rng.uniform(size=n) < 0.1).astype(float)
            gamma = float(rng.uniform(0.9, 0.999))
            lam = float(rng.uniform(0.0, 1.0))
            a = smdp_gae(r, np.ones(n, dtype=np.int64), v, d, gamma, lam)
            # the library's per-step entry point and an independent
            # per-step recursion: same arithmetic, bit for bit
            assert np.array_equal(a, compute_gae(r, v, d, gamma, lam))
            assert np.array_equal(a, per_step_gae(r, v, d, gamma, lam))

    def test_single_experience_is_its_delta(self):
        adv = smdp_gae(np.array([2.0]), np.array([4]), np.array([1.0, 3.0]),
                       np.array([0.0]), 0.99, 0.95)
        assert adv[0] == pytest.approx(smdp_delta(2.0, 4, 3.0, 1.0, 0.0, 0.99))

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            n = 50
            r = rng.normal(size=n)
            tau = rng.integers(1, 12, size=n)
            v = rng.normal(size=n + 1)
            d = (rng.uniform(size=n) < 0.08).astype(float)
            gamma = float(rng.uniform(0.9, 0.999))
            lam = float(rng.uniform(0.0, 1.0))
            fast = smdp_gae(r, tau, v, d, gamma, lam)
            slow = brute_force_smdp_gae(r, tau, v, d, gamma, lam)
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            smdp_gae(np.zeros(3), np.ones(2, dtype=np.int64), np.zeros(4),
                     np.zeros(3), 0.99, 0.95)


class TestSmdpBuffer:
    @staticmethod
    def _exp(i, tau=2):
        return SmdpExperience(
            s=np.array([0.1 * i, 0.0]), a=np.array([0.2]), logp=-0.5,
            R=float(i), tau=tau, done=0.0,
        )

    def test_arrays_layout(self):
        buf = SmdpBuffer(3)
        for i in range(3):
            buf.add(self._exp(i, tau=i + 1), np.array([0.9, 0.9]))
        d = buf.arrays()
        assert d["obs"].shape == (3, 2)
        assert np.array_equal(d["tau"], [1, 2, 3])
        assert np.array_equal(d["R"], [0.0, 1.0, 2.0])
        assert np.array_equal(d["last_next_obs"], [0.9, 0.9])
        assert buf.full

    def test_overfill_rejected(self):
        buf = SmdpBuffer(1)
        buf.add(self._exp(0), np.zeros(2))
        with pytest.raises(ValueError):
            buf.add(self._exp(1), np.zeros(2))

    def test_clear_empties(self):
        buf = SmdpBuffer(1)
        buf.add(self._exp(0), np.zeros(2))
        buf.clear()
        assert len(buf) == 0 and buf.last_next_obs is None

    def test_update_runs_from_buffer(self):
        rng = np.random.default_rng(12)
        pol = GaussianPolicy.create(2, 1, rng)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        buf = SmdpBuffer(32)
        for i in range(32):
            buf.add(
                SmdpExperience(rng.normal(size=2), rng.normal(size=1),
                               float(rng.normal()), float(rng.normal()),
                               int(rng.integers(1, 9)), float(i == 31)),
                rng.normal(size=2),
            )
        stats, adv = smdp_update(buf, pol, vnet, OptimizerState(), HyperParams(),
                                 np.random.default_rng(0))
        assert adv.shape == (32,)
        assert stats.minibatches == 10
        assert not stats.diverged


class TestTriggerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TriggerConfig(fixed_eta=-1.0)
        with pytest.raises(ValueError):
            TriggerConfig(fixed_eta=math.nan)

    def test_action_mapping_fixed(self, patient):
        tr = FixedCgmEtppoTrainer(patient, RngBundle.from_master(0),
                                  trigger=TriggerConfig(fixed_eta=20.0))
        for a in (-3.0, 0.0, 0.4, 1.0, 9.0):
            u, eta = decision(np.array([a]), tr.pump, tr.trigger)
            assert eta == 20.0
            assert u == pytest.approx(min(max(a, 0.0), 1.0) * 0.15)
        assert tr.method == "cgmetppo-fixed"
        assert tr.policy.n_act == 1

    def test_action_mapping_variable(self, patient):
        tr = CgmEtppoTrainer(patient, RngBundle.from_master(0))
        assert decision(np.array([0.5, -4.0]), tr.pump, tr.trigger)[1] == 15.0
        assert decision(np.array([0.5, 0.5]), tr.pump, tr.trigger)[1] == \
            pytest.approx(20.0)
        assert decision(np.array([0.5, 8.0]), tr.pump, tr.trigger)[1] == 25.0
        assert tr.method == "cgmetppo-variable"
        assert tr.policy.n_act == 2


def as_bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestClamp:
    """The action clamps equal float(np.clip(a, 0.0, 1.0)) bit for bit."""

    EDGES = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1.0)

    @staticmethod
    def check(a: float) -> None:
        pump, trig = PumpConfig(), TriggerConfig()
        frac = float(np.clip(a, 0.0, 1.0))
        for raw in (a, np.float64(a)):
            assert as_bits(squash_rate(raw, pump)) == as_bits(frac * pump.u_max)
            assert as_bits(trig.threshold(np.array([0.5, raw]))) == as_bits(
                ETA_LO + (ETA_HI - ETA_LO) * frac)

    @pytest.mark.parametrize("a", EDGES, ids=repr)
    def test_edges(self, a):
        self.check(a)

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @settings(max_examples=500, deadline=None)
    def test_any_float(self, a):
        self.check(a)


def constant_policy(n_act: int, outputs) -> GaussianPolicy:
    """Zero trunk, fixed bias outputs, near-deterministic sampling."""
    pol = GaussianPolicy.create(2, n_act, np.random.default_rng(0))
    for w in pol.net.weights:
        w[:] = 0.0
    pol.net.biases[-1][:] = outputs
    pol.log_std[:] = -30.0
    return pol


class TestTrainer:
    def test_quiet_plant_yields_sparse_updates(self, patient, monkeypatch):
        # basal command, no meals, no sensor noise: the CGM settles and the
        # trigger never fires again, so one decision covers the episode
        monkeypatch.setattr(ppo, "DEFAULT_MEAL_SPECS", ())
        tr = FixedCgmEtppoTrainer(
            patient, RngBundle.from_master(123),
            trigger=TriggerConfig(fixed_eta=25.0),
            hyper=HyperParams(buffer_size=4096),
            sensor=SensorConfig(sigma=0.0),
        )
        tr.policy = constant_policy(1, [patient.u_basal / 0.15])
        stats = tr.run_episode(0)
        assert stats.ecf == 100.0
        assert stats.K <= 3
        assert stats.aurr > 99.0

    def test_episode_accounting(self, patient):
        tr = CgmEtppoTrainer(patient, RngBundle.from_master(5),
                             hyper=HyperParams(buffer_size=4096),
                             episode_cfg=EpisodeConfig(horizon=240))
        stats = tr.run_episode(0)
        assert 1 <= stats.K <= stats.steps
        assert len(tr.buffer) == stats.K  # no update fired mid-episode
        taus = [e.tau for e in tr.buffer.exps]
        assert sum(taus) == stats.steps
        assert all(t >= 1 for t in taus)
        d = tr.buffer.arrays()
        assert float(d["done"][-1]) == 1.0
        assert not np.any(d["done"][:-1])

    def test_variable_thresholds_stay_in_bounds(self, patient):
        tr = CgmEtppoTrainer(patient, RngBundle.from_master(6),
                             hyper=HyperParams(buffer_size=4096),
                             episode_cfg=EpisodeConfig(horizon=240))
        tr.run_episode(0)
        # recompute the chosen thresholds from the stored raw actions
        for e in tr.buffer.exps:
            eta = tr.trigger.threshold(e.a)
            assert 15.0 <= eta <= 25.0

    def test_return_accumulates_hold_rewards(self, patient):
        tr = CgmEtppoTrainer(patient, RngBundle.from_master(7),
                             hyper=HyperParams(buffer_size=4096),
                             episode_cfg=EpisodeConfig(horizon=120))
        stats = tr.run_episode(0)
        assert stats.ret == pytest.approx(sum(e.R for e in tr.buffer.exps))

    def test_zero_threshold_reproduces_plain_ppo(self, patient, monkeypatch):
        seed = 31
        hyper = HyperParams(buffer_size=256)
        ref = PerStepPpo(patient, RngBundle.from_master(seed), hyper=hyper)
        smdp = FixedCgmEtppoTrainer(
            patient, RngBundle.from_master(seed),
            trigger=TriggerConfig(fixed_eta=0.0),
            hyper=hyper, r1_only=True,
        )
        snaps = record_updates(monkeypatch, smdp)
        stats_ref = ref.train(2)
        stats_smdp = [smdp.run_episode(i) for i in range(2)]
        assert [(s.steps, s.K, s.ret) for s in stats_ref] == \
               [(s.steps, s.K, s.ret) for s in stats_smdp]
        assert len(ref.snapshots) == len(snaps[smdp]) > 0
        for a, b in zip(ref.snapshots, snaps[smdp]):
            assert np.array_equal(a.advantages, b.advantages)
            assert a.stats.policy_objective == b.stats.policy_objective
            assert a.stats.value_loss == b.stats.value_loss
            for pa, pb in zip(a.params, b.params):
                assert np.array_equal(pa, pb)

    def test_r1_only_drops_holding_bonus(self, patient):
        tr = CgmEtppoTrainer(patient, RngBundle.from_master(0), r1_only=True)
        full = CgmEtppoTrainer(patient, RngBundle.from_master(0))
        assert tr.step_reward(100.0, 0) == 1.0
        assert full.step_reward(100.0, 0) == pytest.approx(0.5)  # 1 - 0.5
        assert full.step_reward(100.0, 15) == pytest.approx(2.0)  # 1 + 1
        assert full.step_reward(200.0, 15) == 0.0

    def test_greedy_uses_mean(self, patient):
        tr = FixedCgmEtppoTrainer(patient, RngBundle.from_master(0),
                                  trigger=TriggerConfig(fixed_eta=25.0))
        tr.policy = constant_policy(1, [0.4])
        u, eta = greedy_decide(tr.policy, Observation(140.0, 0.02), tr.pump,
                               tr.trigger)
        assert u == pytest.approx(0.4 * 0.15)
        assert eta == 25.0

    @pytest.mark.parametrize("cls,outputs", [
        (PpoTrainer, [0.4]), (FixedCgmEtppoTrainer, [0.4]),
        (CgmEtppoTrainer, [0.4, 0.3]), (CgmEtppoTrainer, [7.0, -4.0]),
    ])
    def test_sampled_and_greedy_decisions_agree(self, patient, cls, outputs):
        # one decision map: a near-deterministic sample decides as the mean
        tr = cls(patient, RngBundle.from_master(0))
        tr.policy = constant_policy(len(outputs), outputs)
        obs = Observation(140.0, 0.02)
        _, _, rate, eta = tr.sample_decision(obs_vec(obs, tr.pump))
        g_rate, g_eta = greedy_decide(tr.policy, obs, tr.pump, tr.trigger)
        assert rate == pytest.approx(g_rate, abs=1e-12)
        assert (eta is None) == (g_eta is None) == (cls is PpoTrainer)
        if eta is not None:
            assert eta == pytest.approx(g_eta, abs=1e-12)
