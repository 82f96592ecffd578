"""Network, log-probability, optimizer, and checkpoint tests."""
import math
import time

import numpy as np
import pytest

from etglucose.neural import (
    CHECKPOINT_VERSION,
    DEFAULT_HIDDEN,
    DivergedUpdateError,
    GaussianPolicy,
    Mlp,
    OptimizerState,
    adam_step,
    bernoulli_logprob_entropy,
    gaussian_logprob_entropy,
    load_checkpoint,
    orthogonal_init,
    pack_mlp,
    pack_opt,
    save_checkpoint,
    sigmoid,
    softplus,
    unpack_mlp,
    unpack_opt,
)
from reference_adam import PerArrayState, per_array_adam_step


class TestMlpForward:
    def test_zeroed_params_give_zero_output(self):
        net = Mlp.create((3, 8, 8, 2), np.random.default_rng(0))
        for w in net.weights:
            w[:] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.all(net.forward(x) == 0.0)

    def test_scalar_chain_matches_closed_form(self):
        # 1-1-1-1 net with unit weights: out = tanh(tanh(x))
        net = Mlp.create((1, 1, 1, 1), np.random.default_rng(0))
        for w in net.weights:
            w[:] = 1.0
        assert net.forward(np.array([[0.0]]))[0, 0] == 0.0
        got = net.forward(np.array([[0.7]]))[0, 0]
        assert got == pytest.approx(math.tanh(math.tanh(0.7)), abs=1e-15)

    def test_bias_shifts_output(self):
        net = Mlp.create((2, 4, 1), np.random.default_rng(3))
        x = np.zeros((1, 2))
        base = net.forward(x)[0, 0]
        net.biases[-1][:] = 2.5
        assert net.forward(x)[0, 0] == pytest.approx(base + 2.5)

    def test_input_shape_validated(self):
        net = Mlp.create((3, 4, 1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="input shape"):
            net.forward(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="input shape"):
            net.forward(np.zeros(3))

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            Mlp.create((4,), np.random.default_rng(0))


class TestMlpBackward:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        net = Mlp.create((3, 5, 4, 2), rng)
        x = rng.normal(size=(6, 3))
        dout = rng.normal(size=(6, 2))

        out, acts = net.forward_cached(x)
        analytic = net.backward(acts, dout)

        eps = 1e-6
        for p, g in zip(net.params(), analytic):
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + eps
                hi = float((net.forward(x) * dout).sum())
                p[idx] = keep - eps
                lo = float((net.forward(x) * dout).sum())
                p[idx] = keep
                fd[idx] = (hi - lo) / (2.0 * eps)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_grad_order_matches_params(self):
        net = Mlp.create((2, 3, 1), np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(4, 2))
        _, acts = net.forward_cached(x)
        grads = net.backward(acts, np.ones((4, 1)))
        params = net.params()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape


class TestGaussianLogprob:
    def test_standard_normal_at_mean(self):
        logp, entropy = gaussian_logprob_entropy(
            np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1))
        )
        assert logp[0] == pytest.approx(-0.91894, abs=1e-5)
        assert entropy == pytest.approx(1.41894, abs=1e-5)

    def test_maximized_at_mean(self):
        mean = np.array([[0.3]])
        log_std = np.array([math.log(0.5)])
        at_mean, _ = gaussian_logprob_entropy(mean, log_std, mean)
        for off in (-0.2, -0.01, 0.01, 0.2):
            away, _ = gaussian_logprob_entropy(mean, log_std, mean + off)
            assert away[0] < at_mean[0]

    def test_entropy_monotone_in_log_std(self):
        ents = [
            gaussian_logprob_entropy(np.zeros((1, 1)), np.array([ls]), np.zeros((1, 1)))[1]
            for ls in (-1.0, 0.0, 1.0, 2.0)
        ]
        assert ents == sorted(ents)
        assert ents[1] - ents[0] == pytest.approx(1.0)  # slope 1 in log_std

    def test_sums_over_action_dims(self):
        mean = np.zeros((1, 2))
        a = np.array([[0.1, -0.4]])
        ls = np.array([0.0, math.log(2.0)])
        joint, _ = gaussian_logprob_entropy(mean, ls, a)
        lp0, _ = gaussian_logprob_entropy(mean[:, :1], ls[:1], a[:, :1])
        lp1, _ = gaussian_logprob_entropy(mean[:, 1:], ls[1:], a[:, 1:])
        assert joint[0] == pytest.approx(lp0[0] + lp1[0], abs=1e-12)

    def test_matches_scipy_free_formula(self):
        rng = np.random.default_rng(2)
        mean = rng.normal(size=(10, 1))
        a = rng.normal(size=(10, 1))
        ls = np.array([-0.3])
        logp, _ = gaussian_logprob_entropy(mean, ls, a)
        sd = math.exp(-0.3)
        want = -0.5 * ((a - mean)[:, 0] / sd) ** 2 - math.log(sd) - 0.5 * math.log(2 * math.pi)
        assert np.allclose(logp, want, atol=1e-12)


class TestBernoulliLogprob:
    def test_even_logit(self):
        for e in (0.0, 1.0):
            logp, _ = bernoulli_logprob_entropy(np.array([0.0]), np.array([e]))
            assert logp[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_confident_logit_penalizes_other_branch(self):
        logp, _ = bernoulli_logprob_entropy(np.array([10.0]), np.array([0.0]))
        assert logp[0] == pytest.approx(-10.0000454, abs=1e-6)
        logp1, _ = bernoulli_logprob_entropy(np.array([10.0]), np.array([1.0]))
        assert logp1[0] == pytest.approx(-4.54e-5, abs=1e-6)

    def test_entropy_nonnegative_peaked_at_zero(self):
        logits = np.linspace(-20.0, 20.0, 81)
        _, ent = bernoulli_logprob_entropy(logits, np.zeros_like(logits))
        assert np.all(ent >= 0.0)
        assert ent.max() == pytest.approx(math.log(2.0), abs=1e-12)
        assert ent.argmax() == 40  # logit 0

    def test_probabilities_normalize(self):
        logits = np.linspace(-8.0, 8.0, 17)
        lp1, _ = bernoulli_logprob_entropy(logits, np.ones_like(logits))
        lp0, _ = bernoulli_logprob_entropy(logits, np.zeros_like(logits))
        assert np.allclose(np.exp(lp0) + np.exp(lp1), 1.0, atol=1e-12)

    def test_sigmoid_softplus_stability(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert np.isfinite(softplus(np.array([800.0])))[0]
        assert softplus(np.array([-800.0]))[0] == 0.0


class TestAdam:
    def test_first_step_size(self):
        p = np.array([0.0])
        opt = OptimizerState()
        adam_step([p], [np.array([1.0])], opt)
        assert p[0] == pytest.approx(-3e-4, rel=1e-6)

    def test_zero_grad_no_motion(self):
        p = np.array([1.5])
        adam_step([p], [np.array([0.0])], OptimizerState())
        assert p[0] == 1.5

    def test_per_parameter_independence(self):
        a, b = np.array([0.0]), np.array([0.0])
        adam_step([a, b], [np.array([1.0]), np.array([0.0])], OptimizerState())
        assert a[0] != 0.0 and b[0] == 0.0

    def test_equal_grads_equal_updates(self):
        a, b = np.array([2.0]), np.array([2.0])
        g = np.array([0.37])
        adam_step([a, b], [g, g.copy()], OptimizerState())
        assert a[0] == b[0]

    def test_non_finite_grad_rejected(self):
        p = np.array([0.0])
        with pytest.raises(DivergedUpdateError):
            adam_step([p], [np.array([float("nan")])], OptimizerState())
        with pytest.raises(DivergedUpdateError):
            adam_step([p], [np.array([float("inf")])], OptimizerState())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_step([np.array([0.0])], [], OptimizerState())

    def test_step_counter_advances(self):
        opt = OptimizerState()
        p = np.array([0.0])
        for t in range(1, 4):
            adam_step([p], [np.array([1.0])], opt)
            assert opt.t == t

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fused_step_is_the_per_array_step(self, seed):
        # one state over actor then critic against the old per-network,
        # per-array states, from the lazy first step on
        rng = np.random.default_rng(seed)
        actor = (GaussianPolicy.create(2, 2, 1, rng) if seed else
                 GaussianPolicy.create(2, 2, 2, rng)).params()
        critic = Mlp.create((2, *DEFAULT_HIDDEN, 1), rng).params()
        ref_actor = [p.copy() for p in actor]
        ref_critic = [p.copy() for p in critic]
        opt = OptimizerState()
        ref_a, ref_c = PerArrayState(), PerArrayState()
        for step in range(25):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape)
                     for p in actor + critic]
            grads[step % len(grads)][...] = 0.0
            adam_step(actor + critic, grads, opt)
            per_array_adam_step(ref_actor, grads[:len(actor)], ref_a)
            per_array_adam_step(ref_critic, grads[len(actor):], ref_c)
            assert opt.t == ref_a.t == ref_c.t == step + 1
            for got, want in zip(actor + critic, ref_actor + ref_critic):
                assert got.tobytes() == want.tobytes()
            for got, want in ((opt.m, ref_a.m + ref_c.m), (opt.v, ref_a.v + ref_c.v)):
                assert got.tobytes() == np.concatenate(want, axis=None).tobytes()

    @pytest.mark.parametrize("warm", [0, 3])
    def test_non_finite_critic_grad_moves_nothing(self, warm):
        rng = np.random.default_rng(7)
        params = (GaussianPolicy.create(2, 1, 1, rng).params()
                  + Mlp.create((2, 8, 1), rng).params())
        opt = OptimizerState()
        for _ in range(warm):
            adam_step(params, [rng.normal(size=p.shape) for p in params], opt)
        before = [p.copy() for p in params]
        m, v = (None, None) if opt.m is None else (opt.m.copy(), opt.v.copy())
        grads = [rng.normal(size=p.shape) for p in params]
        grads[-2][0, 0] = float("nan")  # the critic's output weights
        with pytest.raises(DivergedUpdateError):
            adam_step(params, grads, opt)
        assert opt.t == warm
        for got, want in zip(params, before):
            assert got.tobytes() == want.tobytes()
        if warm:
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        else:
            assert opt.m is None and opt.v is None


class TestInit:
    def test_square_orthogonal_scaled(self):
        w = orthogonal_init(64, 64, math.sqrt(2.0), np.random.default_rng(0))
        assert np.allclose(w.T @ w, 2.0 * np.eye(64), atol=1e-10)

    def test_wide_rows_orthonormal(self):
        w = orthogonal_init(2, 64, 0.01, np.random.default_rng(1))
        assert w.shape == (2, 64)
        assert np.allclose(w @ w.T, 1e-4 * np.eye(2), atol=1e-12)

    def test_tall_columns_orthonormal(self):
        w = orthogonal_init(64, 2, 1.0, np.random.default_rng(2))
        assert np.allclose(w.T @ w, np.eye(2), atol=1e-10)

    def test_policy_output_layer_small(self):
        pol = GaussianPolicy.create(2, 1, 1, np.random.default_rng(9))
        assert np.abs(pol.net.weights[-1]).max() <= 0.01 + 1e-12
        assert np.all(pol.log_std == math.log(0.5))

    def test_biases_start_at_zero(self):
        net = Mlp.create((2, 64, 64, 1), np.random.default_rng(4))
        for b in net.biases:
            assert np.all(b == 0.0)


class TestPolicySampling:
    def test_sample_statistics(self):
        pol = GaussianPolicy.create(2, 1, 1, np.random.default_rng(21))
        x = np.array([0.2, 0.5])
        mean = pol.net.forward(x[None, :])[0, 0]
        rng = np.random.default_rng(100)
        n = 40000
        draws = np.array([pol.sample(x, rng)[0][0] for _ in range(n)])
        sd = 0.5
        se_mean = sd / math.sqrt(n)
        assert abs(draws.mean() - mean) < 3 * se_mean
        se_sd = sd / math.sqrt(2 * (n - 1))
        assert abs(draws.std(ddof=1) - sd) < 3 * se_sd

    def test_reported_logp_matches_recompute(self):
        pol = GaussianPolicy.create(2, 1, 1, np.random.default_rng(22))
        x = np.array([0.1, -0.3])
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, logp = pol.sample(x, rng)
            mean = pol.net.forward(x[None, :])
            want, _ = gaussian_logprob_entropy(mean, pol.log_std, a[None, :])
            assert logp == pytest.approx(float(want[0]), abs=1e-12)

    def test_het_policy_heads_split_columns(self):
        # hetppo's policy: a two-output net (the insulin mean, then the
        # event logit that hetppo reads) with one log-std
        pol = GaussianPolicy.create(2, 2, 1, np.random.default_rng(30))
        net = Mlp.create((2, *DEFAULT_HIDDEN, 2), np.random.default_rng(30),
                         out_gain=0.01)
        for got, want in zip(pol.net.params(), net.params()):
            assert got.tobytes() == want.tobytes()
        assert pol.log_std.tolist() == [math.log(0.5)]

    def test_value_net_scalar_output(self):
        # the critic is a plain Mlp with one linear output
        vnet = Mlp.create((2, *DEFAULT_HIDDEN, 1), np.random.default_rng(40))
        assert vnet.forward(np.zeros((5, 2))).shape == (5, 1)


class TestCheckpoints:
    def test_mlp_round_trip(self, tmp_path):
        net = Mlp.create((2, 8, 3), np.random.default_rng(50))
        opt = OptimizerState()
        adam_step(net.params(), [np.full_like(p, 0.1) for p in net.params()], opt)
        arrays = {**pack_mlp("policy", net), **pack_opt(opt, {"opt": net.params()})}
        path = tmp_path / "ck.npz"
        save_checkpoint(path, "ppo", arrays)
        method, data = load_checkpoint(path)
        assert method == "ppo"
        back = unpack_mlp("policy", data)
        assert back.sizes == net.sizes
        for a, b in zip(back.params(), net.params()):
            assert np.array_equal(a, b)
        opt_back = unpack_opt(data, ("opt",))
        assert opt_back.t == opt.t and opt_back.lr == opt.lr
        assert np.array_equal(opt_back.m, opt.m)
        assert np.array_equal(opt_back.v, opt.v)

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        net = Mlp.create((2, 8, 3), np.random.default_rng(51))
        arrays = {**pack_mlp("policy", net),
                  **pack_opt(OptimizerState(), {"opt": net.params()})}
        paths = []
        for year in (2001, 2031):
            clock = time.mktime((year, 6, 1, 12, 0, 0, 0, 0, -1))
            monkeypatch.setattr(time, "time", lambda: clock)
            monkeypatch.setattr(time, "localtime",
                                lambda secs=None: time.gmtime(clock))
            paths.append(tmp_path / f"ck{year}.npz")
            save_checkpoint(paths[-1], "ppo", arrays)
        monkeypatch.undo()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        method, data = load_checkpoint(paths[1])
        assert method == "ppo"
        assert sorted(data) == sorted(arrays)
        for key, want in arrays.items():
            assert np.array_equal(data[key], want)

    def test_wrong_version_refused(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(
            path,
            format_version=np.asarray(CHECKPOINT_VERSION + 1, dtype=np.int64),
            method=np.asarray("ppo"),
        )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_missing_version_refused(self, tmp_path):
        path = tmp_path / "none.npz"
        np.savez(path, method=np.asarray("ppo"))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
