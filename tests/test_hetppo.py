"""Factored event/insulin policy tests: sampling, objective, trainer."""
import math

import numpy as np
import pytest

from etglucose import env as env_module
from etglucose.env import EpisodeConfig, Observation
from etglucose.hetppo import (
    HetppoTrainer,
    event_decide,
    factored_sample,
    het_policy_grads,
)
from etglucose.neural import (
    DEFAULT_HIDDEN,
    GaussianPolicy,
    Mlp,
    OptimizerState,
    bernoulli_logprob_entropy,
    gaussian_logprob_entropy,
    sigmoid,
)
from etglucose.patients import NOMINAL_ADULT, build_patient
from etglucose.plant import PumpConfig
from etglucose.ppo import (
    C_ENT,
    CLIP_EPS,
    HyperParams,
    SmdpBuffer,
    SmdpExperience,
    smdp_update,
)
from etglucose.seeding import RngBundle
from per_step_oracle import clipped_surrogate, record_episodes


def factored_row(obs, e, u_raw, reward, done, logp_e, logp_u) -> SmdpExperience:
    """A factored transition as the trainer stores it: act [u_raw, e],
    logp [logp_u, logp_e], one-step hold."""
    return SmdpExperience(np.asarray(obs, dtype=float), np.asarray([u_raw, float(e)]),
                          np.asarray([logp_u, logp_e]), reward, 1,
                          1.0 if done else 0.0)


@pytest.fixture(scope="module")
def patient():
    return build_patient("nominal", NOMINAL_ADULT)


def doctored_policy(mean_bias: float, logit_bias: float) -> GaussianPolicy:
    """Zero trunk, fixed head outputs: mean and logit are constants."""
    pol = GaussianPolicy.create(2, 2, 1, np.random.default_rng(0))
    for w in pol.net.weights:
        w[:] = 0.0
    pol.net.biases[-1][:] = [mean_bias, logit_bias]
    return pol


class TestFactoredSample:
    def test_no_event_skips_insulin_draw(self):
        pol = doctored_policy(0.3, -30.0)  # p(event) ~ 0
        x = np.zeros(2)
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        e, u_raw, lp_e, lp_u = factored_sample(pol, x, rng)
        assert (e, u_raw, lp_u) == (0, 0.0, 0.0)
        assert lp_e == pytest.approx(0.0, abs=1e-12)  # log(1 - p), p ~ 0
        twin.random()  # the event flag consumed exactly one uniform
        assert rng.standard_normal() == twin.standard_normal()

    def test_event_draws_insulin_and_reports_both_logps(self):
        pol = doctored_policy(0.3, 30.0)  # p(event) ~ 1
        x = np.zeros(2)
        rng = np.random.default_rng(6)
        e, u_raw, lp_e, lp_u = factored_sample(pol, x, rng)
        assert e == 1
        assert u_raw != 0.3  # noise applied around the mean
        want, _ = gaussian_logprob_entropy(
            np.array([[0.3]]), pol.log_std, np.array([[u_raw]])
        )
        assert lp_u == pytest.approx(float(want[0]), abs=1e-12)
        assert lp_e == pytest.approx(0.0, abs=1e-12)

    def test_event_frequency_tracks_logit(self):
        logit = 0.8
        pol = doctored_policy(0.0, logit)
        rng = np.random.default_rng(17)
        n = 20000
        hits = sum(factored_sample(pol, np.zeros(2), rng)[0] for _ in range(n))
        p = float(sigmoid(np.array([logit]))[0])
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 4 * se


class TestHetObjective:
    @staticmethod
    def _instance(n=10, n_events=5, seed=3):
        rng = np.random.default_rng(seed)
        pol = GaussianPolicy.create(2, 2, 1, rng, hidden=(4,))
        obs = rng.normal(size=(n, 2))
        e = np.zeros(n)
        e[rng.permutation(n)[:n_events]] = 1.0
        act = np.stack([rng.normal(scale=0.5, size=n), e], axis=1)
        logp_old = np.stack(
            [rng.normal(scale=0.3, size=n), -np.abs(rng.normal(scale=0.5, size=n))],
            axis=1,
        )
        adv = rng.normal(size=n)
        return pol, obs, act, logp_old, adv

    def test_matches_finite_differences(self):
        pol, obs, act, logp_old, adv = self._instance()
        _, grads, _ = het_policy_grads(pol, obs, act, logp_old, adv)
        eps = 1e-6
        for p, g in zip(pol.params(), grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + eps
                hi, _, _ = het_policy_grads(pol, obs, act, logp_old, adv)
                p[idx] = keep - eps
                lo, _, _ = het_policy_grads(pol, obs, act, logp_old, adv)
                p[idx] = keep
                fd = (hi - lo) / (2.0 * eps)
                assert -g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_non_event_insulin_slots_are_masked(self):
        pol, obs, act, logp_old, adv = self._instance()
        base_obj, base_grads, _ = het_policy_grads(pol, obs, act, logp_old, adv)
        # scribble on the insulin slots of non-event rows
        rng = np.random.default_rng(9)
        non = np.flatnonzero(act[:, 1] == 0.0)
        act2 = act.copy()
        act2[non, 0] = rng.normal(size=len(non)) * 10.0
        lp2 = logp_old.copy()
        lp2[non, 0] = rng.normal(size=len(non))
        obj, grads, _ = het_policy_grads(pol, obs, act2, lp2, adv)
        assert obj == base_obj
        for a, b in zip(grads, base_grads):
            assert np.array_equal(a, b)

    def test_no_events_zero_insulin_gradient(self):
        pol, obs, act, logp_old, adv = self._instance(n_events=0)
        assert not np.any(act[:, 1])
        obj, grads, _ = het_policy_grads(pol, obs, act, logp_old, adv)
        # log_std gradient carries only the entropy bonus
        assert grads[-1][0] == pytest.approx(-C_ENT, abs=1e-15)
        # and the objective has no insulin surrogate term
        lp_e_new, ent_e = bernoulli_logprob_entropy(
            pol.net.forward(obs)[:, 1], act[:, 1]
        )
        j_bern = clipped_surrogate(lp_e_new, logp_old[:, 1], adv, CLIP_EPS)
        ent_u = 0.5 * (math.log(2 * math.pi) + 1.0) + float(pol.log_std[0])
        want = j_bern + C_ENT * (ent_u + float(ent_e.mean()))
        assert obj == pytest.approx(want, abs=1e-12)

    def test_all_events_decomposes_into_both_factors(self):
        pol, obs, act, logp_old, adv = self._instance(n=8, n_events=8)
        obj, _, _ = het_policy_grads(pol, obs, act, logp_old, adv)
        u_mean, logit = pol.net.forward(obs).T
        lp_u_new, _ = gaussian_logprob_entropy(
            u_mean[:, None], pol.log_std, act[:, :1]
        )
        lp_e_new, ent_e = bernoulli_logprob_entropy(logit, act[:, 1])
        j_gauss = clipped_surrogate(lp_u_new, logp_old[:, 0], adv, CLIP_EPS)
        j_bern = clipped_surrogate(lp_e_new, logp_old[:, 1], adv, CLIP_EPS)
        ent_u = 0.5 * (math.log(2 * math.pi) + 1.0) + float(pol.log_std[0])
        want = j_bern + j_gauss + C_ENT * (ent_u + float(ent_e.mean()))
        assert obj == pytest.approx(want, abs=1e-12)

    def test_update_runs_from_buffer(self):
        rng = np.random.default_rng(21)
        pol = GaussianPolicy.create(2, 2, 1, rng)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        buf = SmdpBuffer(64)
        for i in range(64):
            e = int(rng.random() < 0.4)
            buf.add(factored_row(rng.normal(size=2), e, rng.normal(), float(i % 2),
                                 i == 63, -0.5, -0.9 if e else 0.0),
                    rng.normal(size=2))
        stats, adv = smdp_update(buf, pol, vnet, OptimizerState(), HyperParams(),
                                 np.random.default_rng(2), het_policy_grads)
        assert adv.shape == (64,)
        assert stats.minibatches == 10
        assert not stats.diverged


class TestHetBuffer:
    """Factored rows in the decision buffer: two-column act and log-prob."""

    def test_row_layout(self):
        buf = SmdpBuffer(2)
        buf.add(factored_row([0.1, 0.2], 1, 0.7, 0.9, False, -0.3, -0.8), [0.3, 0.4])
        buf.add(factored_row([0.5, 0.6], 0, 0.7, 1.0, True, -0.1, 0.0), [0.7, 0.8])
        d = buf.arrays()
        assert np.array_equal(d["act"], [[0.7, 1.0], [0.7, 0.0]])
        assert np.array_equal(d["logp_old"], [[-0.8, -0.3], [0.0, -0.1]])
        assert np.array_equal(d["done"], [0.0, 1.0])
        assert np.array_equal(d["tau"], [1, 1])

    def test_overfill_rejected(self):
        buf = SmdpBuffer(1)
        buf.add(factored_row([0.0], 0, 0.0, 0.0, False, 0.0, 0.0), [0.0])
        with pytest.raises(ValueError):
            buf.add(factored_row([0.0], 0, 0.0, 0.0, False, 0.0, 0.0), [0.0])


class TestTrainer:
    def test_zero_order_hold_between_events(self, patient):
        tr = HetppoTrainer(patient, RngBundle.from_master(2),
                           hyper=HyperParams(buffer_size=4096),
                           episode_cfg=EpisodeConfig(horizon=300))
        tr.run_episode(0)
        env = tr.env
        u, ev = env.u_trace, env.event_trace
        assert len(u) == len(ev)
        for i, flag in enumerate(ev):
            if not flag:
                prev = u[i - 1] if i > 0 else 0.0
                assert u[i] == prev

    def test_non_event_rows_store_zero_insulin(self, patient):
        # env.rollout holds the command; a non-event row keeps the zero
        # insulin slot factored_sample returns, masked out of the objective
        tr = HetppoTrainer(patient, RngBundle.from_master(4),
                           hyper=HyperParams(buffer_size=4096),
                           episode_cfg=EpisodeConfig(horizon=300))
        tr.run_episode(0)
        d = tr.buffer.arrays()
        off = d["act"][:, 1] == 0.0
        assert off.any() and not off.all()
        assert np.all(d["act"][off, 0] == 0.0)
        assert np.all(d["logp_old"][off, 0] == 0.0)
        assert np.all(d["act"][~off, 0] != 0.0)

    def test_per_step_records_carry_no_thresholds(self, patient, monkeypatch):
        records = record_episodes(monkeypatch)
        tr = HetppoTrainer(patient, RngBundle.from_master(4),
                           hyper=HyperParams(buffer_size=4096),
                           episode_cfg=EpisodeConfig(horizon=100))
        stats = tr.run_episode(0)
        assert len(records) == 1 and records[0].T == stats.steps
        assert records[0].thresholds is None

    def test_event_count_reported(self, patient):
        tr = HetppoTrainer(patient, RngBundle.from_master(6),
                           hyper=HyperParams(buffer_size=4096),
                           episode_cfg=EpisodeConfig(horizon=200))
        stats = tr.run_episode(0)
        assert stats.K == sum(tr.env.event_trace)
        assert 0 <= stats.K <= stats.steps

    def test_event_trace_matches_sampled_events(self, patient):
        # Every decision holds one step; only a sampled event is flagged.
        tr = HetppoTrainer(patient, RngBundle.from_master(5),
                           hyper=HyperParams(buffer_size=4096),
                           episode_cfg=EpisodeConfig(horizon=200))
        tr.run_episode(0)
        d = tr.buffer.arrays()
        assert list(d["tau"]) == [1] * tr.env.steps
        assert [int(e) for e in d["act"][:, 1]] == tr.env.event_trace
        assert 0 < sum(tr.env.event_trace) < tr.env.steps

    def test_event_charge_lowers_return(self, patient, monkeypatch):
        # same seed, eta_e = 0 vs eta_e large: identical trajectories until
        # the first update, so the return difference is eta_e * K
        outs = []
        for eta_e in (0.0, 0.5):
            monkeypatch.setattr(env_module, "ETA_E", eta_e)
            tr = HetppoTrainer(patient, RngBundle.from_master(8),
                               hyper=HyperParams(buffer_size=8192),
                               episode_cfg=EpisodeConfig(horizon=400))
            stats = tr.run_episode(0)
            outs.append(stats)
        base, charged = outs
        assert base.K == charged.K and base.steps == charged.steps
        assert charged.ret == pytest.approx(base.ret - 0.5 * charged.K)

    def test_smoke_training_with_updates(self, patient):
        tr = HetppoTrainer(patient, RngBundle.from_master(10),
                           hyper=HyperParams(buffer_size=128),
                           episode_cfg=EpisodeConfig(horizon=150))
        stats = [tr.run_episode(i) for i in range(2)]
        assert len(tr.updates) >= 1
        assert not any(u.diverged for u in tr.updates)
        assert all(0.0 <= s.tir <= 100.0 for s in stats)


class TestGreedy:
    """A greedy decision is (rate to send or None to hold, threshold)."""

    def test_learning_mode_threshold(self, patient):
        tr = HetppoTrainer(patient, RngBundle.from_master(0))
        tr.policy = doctored_policy(0.4, 1.0)
        obs = Observation(120.0, 0.0)
        assert event_decide(tr.policy, obs, tr.pump) == (0.4 * 0.15, None)
        tr.policy = doctored_policy(0.4, -1.0)
        assert event_decide(tr.policy, obs, tr.pump) == (None, None)

    def test_even_odds_send(self):
        # p = 1/2 exactly (logit 0) is an event; the mean is clipped to [0, 1]
        obs = Observation(120.0, 0.0)
        pump = PumpConfig()
        assert event_decide(doctored_policy(1.5, 0.0), obs, pump) == (pump.u_max, None)
