"""Advantage estimation, clipped objective, update engine, trainer tests."""
import math

import numpy as np
import pytest

from etglucose import ppo
from etglucose.env import EpisodeConfig
from etglucose.neural import DEFAULT_HIDDEN, GaussianPolicy, Mlp, OptimizerState
from etglucose.patients import NOMINAL_ADULT, build_patient
from etglucose.ppo import (
    C_ENT,
    CLIP_EPS,
    HyperParams,
    PpoTrainer,
    SmdpBuffer,
    SmdpExperience,
    compute_gae,
    decision,
    gaussian_policy_grads,
    normalize_advantages,
    smdp_update,
    update_networks,
    values_with_bootstrap,
)
from etglucose.seeding import RngBundle
from per_step_oracle import (
    PerStepPpo,
    clipped_surrogate,
    record_episodes,
    record_updates,
    value_loss,
)


def step_row(obs, act, reward, done, logp) -> SmdpExperience:
    """A per-step transition as the decision buffer stores it (tau = 1)."""
    return SmdpExperience(np.asarray(obs, dtype=float), np.asarray(act, dtype=float),
                          logp, reward, 1, 1.0 if done else 0.0)


def brute_force_gae(rewards, values, dones, gamma, lam):
    """Direct forward sum A_h = sum_l (gamma*lam)^l delta_{h+l}, cut at dones."""
    n = len(rewards)
    adv = np.zeros(n)
    for h in range(n):
        coef = 1.0
        for l in range(h, n):
            nonterm = 1.0 - dones[l]
            delta = rewards[l] + gamma * nonterm * values[l + 1] - values[l]
            adv[h] += coef * delta
            if dones[l]:
                break
            coef *= gamma * lam
    return adv


class TestGae:
    def test_single_terminal_step(self):
        adv = compute_gae(np.array([1.0]), np.array([0.0, 0.0]), np.array([1.0]),
                          0.99, 0.95)
        assert adv[0] == pytest.approx(1.0)

    def test_lambda_zero_gives_td_residuals(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=12)
        v = rng.normal(size=13)
        d = np.zeros(12)
        d[-1] = 1.0
        adv = compute_gae(r, v, d, 0.9, 0.0)
        for h in range(12):
            delta = r[h] + 0.9 * (1.0 - d[h]) * v[h + 1] - v[h]
            assert adv[h] == pytest.approx(delta, abs=1e-12)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = 50
            r = rng.normal(size=n)
            v = rng.normal(size=n + 1)
            d = (rng.uniform(size=n) < 0.08).astype(float)
            gamma = float(rng.uniform(0.9, 0.999))
            lam = float(rng.uniform(0.0, 1.0))
            fast = compute_gae(r, v, d, gamma, lam)
            slow = brute_force_gae(r, v, d, gamma, lam)
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_done_blocks_credit_flow(self):
        # a huge reward after a terminal must not leak backwards
        r = np.array([0.0, 1000.0])
        v = np.zeros(3)
        d = np.array([1.0, 1.0])
        adv = compute_gae(r, v, d, 0.99, 0.95)
        assert adv[0] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros(3), np.zeros(3), np.zeros(3), 0.99, 0.95)


class TestClippedSurrogate:
    def test_positive_advantage_clips_above(self):
        got = clipped_surrogate(np.array([math.log(1.5)]), np.array([0.0]),
                                np.array([1.0]), 0.2)
        assert got == pytest.approx(1.2)

    def test_negative_advantage_clips_below(self):
        got = clipped_surrogate(np.array([math.log(0.5)]), np.array([0.0]),
                                np.array([-1.0]), 0.2)
        assert got == pytest.approx(-0.8)

    def test_unit_ratio_passes_advantage(self):
        for a in (-2.0, 0.5, 3.0):
            got = clipped_surrogate(np.array([0.7]), np.array([0.7]),
                                    np.array([a]), 0.2)
            assert got == pytest.approx(a)

    def test_inactive_clip_equals_plain_surrogate(self):
        rng = np.random.default_rng(3)
        logp_old = rng.normal(size=40)
        # ratios confined well inside [1 - eps, 1 + eps]
        logp_new = logp_old + rng.uniform(-0.05, 0.05, size=40)
        adv = rng.normal(size=40)
        got = clipped_surrogate(logp_new, logp_old, adv, 0.2)
        want = float((np.exp(logp_new - logp_old) * adv).mean())
        assert got == pytest.approx(want, abs=1e-12)

    def test_pessimistic_bound(self):
        # the clipped objective never exceeds the unclipped surrogate
        rng = np.random.default_rng(9)
        for _ in range(50):
            logp_new = rng.normal(size=16)
            logp_old = rng.normal(size=16)
            adv = rng.normal(size=16)
            got = clipped_surrogate(logp_new, logp_old, adv, 0.2)
            plain = float((np.exp(logp_new - logp_old) * adv).mean())
            assert got <= plain + 1e-12


class TestValueLoss:
    def test_hand_example(self):
        assert value_loss(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == 5.0

    def test_quadratic_scaling(self):
        base = value_loss(np.array([0.0, 0.0]), np.array([1.0, 3.0]))
        assert value_loss(np.array([0.0, 0.0]), np.array([2.0, 6.0])) == 4 * base

    def test_perfect_fit_zero(self):
        v = np.array([1.0, -2.0, 0.5])
        assert value_loss(v, v.copy()) == 0.0


class TestNormalize:
    def test_standardizes(self):
        adv = np.random.default_rng(0).normal(3.0, 2.0, size=500)
        out = normalize_advantages(adv)
        assert abs(out.mean()) < 1e-12
        assert out.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_no_blowup(self):
        out = normalize_advantages(np.full(8, 2.5))
        assert np.all(out == 0.0)


class TestPolicyGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(32):
            pol = GaussianPolicy.create(2, 1, 1, rng, hidden=(4,))
            obs = rng.normal(size=(8, 2))
            act = rng.normal(scale=0.5, size=(8, 1))
            logp_old = rng.normal(scale=0.3, size=8)
            adv = rng.normal(size=8)

            _, grads, _ = gaussian_policy_grads(pol, obs, act, logp_old, adv)

            eps = 1e-6
            for p, g in zip(pol.params(), grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    keep = p[idx]
                    p[idx] = keep + eps
                    hi, _, _ = gaussian_policy_grads(pol, obs, act, logp_old, adv)
                    p[idx] = keep - eps
                    lo, _, _ = gaussian_policy_grads(pol, obs, act, logp_old, adv)
                    p[idx] = keep
                    fd = (hi - lo) / (2.0 * eps)
                    # grads are of -J (gradient descent direction)
                    assert -g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_zero_advantage_moves_only_log_std(self):
        rng = np.random.default_rng(13)
        pol = GaussianPolicy.create(2, 1, 1, rng)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        net_before = [p.copy() for p in pol.net.params()]
        log_std_before = pol.log_std.copy()
        data = {
            "obs": rng.normal(size=(32, 2)),
            "act": rng.normal(size=(32, 1)),
            "logp_old": rng.normal(size=32),
            "adv": np.zeros(32),
            "vtarget": rng.normal(size=32),
        }
        update_networks(pol, vnet, OptimizerState(), data,
                        HyperParams(epochs=1, minibatch=32),
                        np.random.default_rng(0))
        for before, after in zip(net_before, pol.net.params()):
            assert np.array_equal(before, after)
        # entropy bonus pushes log_std up
        assert pol.log_std[0] > log_std_before[0]

    def test_objective_reported_consistently(self):
        rng = np.random.default_rng(5)
        pol = GaussianPolicy.create(2, 1, 1, rng, hidden=(4,))
        obs = rng.normal(size=(16, 2))
        act = rng.normal(size=(16, 1))
        logp_old = rng.normal(scale=0.2, size=16)
        adv = rng.normal(size=16)
        obj, _, diag = gaussian_policy_grads(pol, obs, act, logp_old, adv)
        mean = pol.net.forward(obs)
        from etglucose.neural import gaussian_logprob_entropy
        logp_new, entropy = gaussian_logprob_entropy(mean, pol.log_std, act)
        want = clipped_surrogate(logp_new, logp_old, adv, CLIP_EPS)
        assert obj == pytest.approx(want + C_ENT * entropy, abs=1e-12)
        assert diag["entropy"] == entropy

    @pytest.mark.parametrize("n", [1, 7, 128, 1000])
    def test_clipped_term_is_the_batch_mean(self, n):
        # sum / n must equal numpy's mean bit for bit, which the golden
        # digests were recorded with
        rng = np.random.default_rng(n)
        ratio = np.exp(rng.normal(scale=0.3, size=n))
        adv = rng.normal(size=n)
        j, dlogp = ppo.clipped_surrogate(ratio, adv, 0.2, n)
        u1, u2 = ratio * adv, np.clip(ratio, 0.8, 1.2) * adv
        assert j == float(np.minimum(u1, u2).mean())
        assert j == pytest.approx(
            clipped_surrogate(np.log(ratio), np.zeros(n), adv, 0.2), abs=1e-12)
        # d/dlogp of the min: ratio * A / n on the unclipped branch, else 0
        unclipped = u1 <= u2
        assert np.array_equal(dlogp[unclipped], ratio[unclipped] * adv[unclipped] / n)
        assert np.all(dlogp[~unclipped] == 0.0)


class TestBuffer:
    """Per-step transitions in the decision buffer: one-step holds."""

    def test_fill_and_arrays(self):
        buf = SmdpBuffer(3)
        for i in range(3):
            assert not buf.full
            buf.add(step_row([i, 0.0], [0.1 * i], float(i), i == 2, -0.5),
                    [i + 1.0, 0.0])
        assert buf.full and len(buf) == 3
        d = buf.arrays()
        assert d["obs"].shape == (3, 2)
        assert d["act"].shape == (3, 1)
        assert np.array_equal(d["R"], [0.0, 1.0, 2.0])
        assert np.array_equal(d["tau"], [1, 1, 1])
        assert np.array_equal(d["done"], [0.0, 0.0, 1.0])
        assert np.array_equal(d["logp_old"], [-0.5, -0.5, -0.5])
        assert np.array_equal(d["last_next_obs"], [3.0, 0.0])

    def test_overfill_rejected(self):
        buf = SmdpBuffer(1)
        buf.add(step_row([0.0], [0.0], 0.0, False, 0.0), [0.0])
        with pytest.raises(ValueError):
            buf.add(step_row([0.0], [0.0], 0.0, False, 0.0), [0.0])

    def test_clear_empties(self):
        buf = SmdpBuffer(1)
        buf.add(step_row([0.0], [0.0], 0.0, False, 0.0), [0.0])
        buf.clear()
        assert len(buf) == 0 and not buf.full


class TestUpdateEngine:
    def test_bootstrap_values_layout(self):
        rng = np.random.default_rng(1)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        obs = rng.normal(size=(5, 2))
        last = rng.normal(size=2)
        v = values_with_bootstrap(vnet, obs, last)
        assert v.shape == (6,)
        assert v[-1] == pytest.approx(vnet.forward(last[None, :])[0, 0])
        assert np.allclose(v[:5], vnet.forward(obs)[:, 0])

    def test_minibatch_count(self):
        rng = np.random.default_rng(2)
        pol = GaussianPolicy.create(2, 1, 1, rng)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        data = {
            "obs": rng.normal(size=(64, 2)),
            "act": rng.normal(size=(64, 1)),
            "logp_old": rng.normal(scale=0.1, size=64),
            "adv": rng.normal(size=64),
            "vtarget": rng.normal(size=64),
        }
        stats = update_networks(pol, vnet, OptimizerState(), data,
                                HyperParams(epochs=3, minibatch=32),
                                np.random.default_rng(0))
        assert stats.minibatches == 3 * 2
        assert not stats.diverged

    def test_bandit_converges_and_value_fits(self):
        # one-state problem: reward -(a - 0.5)^2, best constant action 0.5
        rng = np.random.default_rng(1234)
        pol = GaussianPolicy.create(1, 1, 1, rng)
        vnet = Mlp.create((1, *DEFAULT_HIDDEN, 1), rng)
        opt = OptimizerState(lr=3e-3)
        hyper = HyperParams(epochs=10, minibatch=128)
        x = np.zeros((256, 1))
        first_vl = last_vl = None
        for it in range(150):
            mean = pol.net.forward(x)[:, 0]
            a = mean + math.exp(float(pol.log_std[0])) * rng.standard_normal(256)
            r = -((a - 0.5) ** 2)
            z = (a - mean) / math.exp(float(pol.log_std[0]))
            logp = (-0.5 * z * z - float(pol.log_std[0])
                    - 0.5 * math.log(2 * math.pi))
            adv = normalize_advantages(r - r.mean())
            data = {
                "obs": x, "act": a[:, None], "logp_old": logp, "adv": adv,
                "vtarget": r,
            }
            stats = update_networks(pol, vnet, opt, data, hyper,
                                    np.random.default_rng(it))
            if first_vl is None:
                first_vl = stats.value_loss
            last_vl = stats.value_loss
        final_mean = float(pol.net.forward(np.zeros((1, 1)))[0, 0])
        assert abs(final_mean - 0.5) < 0.1
        assert last_vl < first_vl

    def test_diverged_minibatch_moves_nothing(self, monkeypatch):
        # finite actor gradients and a finite loss, one NaN critic gradient:
        # the minibatch must not step the actor before the critic is checked
        rng = np.random.default_rng(3)
        pol = GaussianPolicy.create(2, 1, 1, rng)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        data = {
            "obs": rng.normal(size=(32, 2)),
            "act": rng.normal(size=(32, 1)),
            "logp_old": rng.normal(scale=0.1, size=32),
            "adv": rng.normal(size=32),
            "vtarget": rng.normal(size=32),
        }
        hyper = HyperParams(epochs=2, minibatch=16)
        opt = OptimizerState()
        update_networks(pol, vnet, opt, data, hyper, np.random.default_rng(0))
        params = pol.params() + vnet.params()
        before = [p.copy() for p in params]
        m, v, t = opt.m.copy(), opt.v.copy(), opt.t
        clean = ppo.value_grads

        def nan_critic_grad(*args):
            loss, grads = clean(*args)
            grads[0][0, 0] = math.nan
            return loss, grads

        monkeypatch.setattr(ppo, "value_grads", nan_critic_grad)
        stats = update_networks(pol, vnet, opt, data, hyper, np.random.default_rng(1))
        assert stats.diverged and stats.minibatches == 0
        assert opt.t == t
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        for got, want in zip(params, before):
            assert got.tobytes() == want.tobytes()

    def test_hyper_validation(self):
        for bad in ({"buffer_size": 0}, {"minibatch": 0}, {"epochs": 0},
                    {"epochs": 2.5}):
            with pytest.raises(ValueError):
                HyperParams(**bad)
        # PPO's learning constants are module constants, not fields
        for fixed in ("gamma", "lam", "clip_eps", "c_ent", "lr"):
            with pytest.raises(TypeError):
                HyperParams(**{fixed: 0.5})


@pytest.fixture(scope="module")
def patient():
    return build_patient("nominal", NOMINAL_ADULT)


class TestTrainer:
    def test_same_seed_bit_identical(self, patient):
        runs = []
        for _ in range(2):
            tr = PpoTrainer(patient, RngBundle.from_master(11),
                            hyper=HyperParams(buffer_size=256))
            stats = [tr.run_episode(i) for i in range(2)]
            runs.append((stats, [p.copy() for p in tr.policy.params()]))
        (s1, p1), (s2, p2) = runs
        assert [(s.steps, s.ret) for s in s1] == [(s.steps, s.ret) for s in s2]
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self, patient):
        t1 = PpoTrainer(patient, RngBundle.from_master(0))
        t2 = PpoTrainer(patient, RngBundle.from_master(1))
        assert not np.array_equal(t1.policy.net.weights[0], t2.policy.net.weights[0])

    def test_episode_stats_accounting(self, patient):
        tr = PpoTrainer(patient, RngBundle.from_master(3))
        stats = tr.run_episode(0)
        # every step is a decision epoch for the per-step trainer
        assert stats.K == stats.steps
        assert 0.0 <= stats.tir <= 100.0
        assert 0.0 <= stats.ecf <= 100.0
        assert stats.ret <= stats.steps

    def test_action_squash(self, patient):
        # per-step PPO is the decision loop at threshold 0
        tr = PpoTrainer(patient, RngBundle.from_master(5))
        assert tr.trigger is None
        assert decision(np.array([-3.0]), tr.pump) == (0.0, None)
        u, eta = decision(np.array([0.5]), tr.pump, tr.trigger)
        assert u == pytest.approx(0.075) and eta is None
        u, eta = decision(np.array([7.0]), tr.pump, tr.trigger)
        assert u == pytest.approx(0.15) and eta is None

    def test_per_step_records_carry_no_thresholds(self, patient, monkeypatch):
        records = record_episodes(monkeypatch)
        tr = PpoTrainer(patient, RngBundle.from_master(5),
                        episode_cfg=EpisodeConfig(horizon=60))
        stats = tr.run_episode(0)
        assert len(records) == 1
        assert records[0].K == stats.steps == 60
        assert records[0].thresholds is None

    def test_matches_per_step_oracle(self, patient, monkeypatch):
        hyper = HyperParams(buffer_size=128, minibatch=64, epochs=2)
        ref = PerStepPpo(patient, RngBundle.from_master(13), hyper=hyper)
        tr = PpoTrainer(patient, RngBundle.from_master(13), hyper=hyper)
        snaps = record_updates(monkeypatch, tr)
        assert ref.train(2) == [tr.run_episode(i) for i in range(2)]
        assert tr.env.y_trace == ref.env.y_trace
        assert tr.env.u_trace == ref.env.u_trace
        assert len(snaps[tr]) == len(ref.snapshots) >= 3
        for a, b in zip(snaps[tr], ref.snapshots):
            assert np.array_equal(a.advantages, b.advantages)
            assert a.stats == b.stats
            for pa, pb in zip(a.params, b.params):
                assert np.array_equal(pa, pb)

    def test_ppo_update_returns_advantages(self, patient):
        rng = np.random.default_rng(0)
        pol = GaussianPolicy.create(2, 1, 1, rng)
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng)
        buf = SmdpBuffer(32)
        for i in range(32):
            buf.add(step_row(rng.normal(size=2), rng.normal(size=1), float(i % 2),
                             i == 31, -0.7), rng.normal(size=2))
        stats, adv = smdp_update(buf, pol, vnet, OptimizerState(), HyperParams(),
                                 np.random.default_rng(1))
        assert adv.shape == (32,)
        assert stats.minibatches == 10  # 10 epochs x 1 minibatch
