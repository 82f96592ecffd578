"""Episode environment tests: resets, termination, rewards, trigger holds."""
import numpy as np
import pytest

from etglucose import env as env_module
from etglucose.env import (
    ApEnv,
    EpisodeConfig,
    EpisodeFinishedError,
    ETA_E,
    Observation,
    hold_until_trigger,
    obs_vec,
    reward_het,
    reward_r1,
    reward_r2,
)
from etglucose.patients import NOMINAL_ADULT, build_patient
from etglucose.plant import PumpConfig, SensorConfig
from etglucose.scenario import MealScenario


NO_MEALS = MealScenario(())


@pytest.fixture(scope="module")
def patient():
    return build_patient("nominal", NOMINAL_ADULT)


def quiet_env(patient, **cfg_kwargs):
    """Environment with the sensor noise turned off."""
    return ApEnv(
        patient,
        episode_cfg=EpisodeConfig(**cfg_kwargs),
        sensor=SensorConfig(sigma=0.0),
    )


class TestReset:
    def test_eval_reset_starts_at_basal(self, patient):
        env = quiet_env(patient)
        obs = env.reset(NO_MEALS, np.random.default_rng(0))
        assert obs.y == pytest.approx(patient.y_basal)
        assert obs.u_prev == 0.0
        assert env.steps == 0 and not env.done

    def test_training_reset_spread(self, patient):
        # g_sc is resampled with sd = 0.1 * mean, and with sigma = 0 the
        # first CGM reading exposes it directly: y = g_sc / v_g
        env = quiet_env(patient)
        noise = np.random.default_rng(0)
        init = np.random.default_rng(17)
        ys = np.array([
            env.reset(NO_MEALS, noise, init_rng=init).y
            for _ in range(10000)
        ])
        want_mu = patient.y_basal
        want_sd = 0.1 * patient.y_basal
        assert abs(ys.mean() - want_mu) / want_mu < 0.05
        assert abs(ys.std() - want_sd) / want_sd < 0.05

    def test_training_reset_draw_order(self, patient):
        # draws are g_p, g_t, g_sc in that order, so the third standard
        # normal of the stream determines the first CGM reading
        env = quiet_env(patient)
        obs = env.reset(
            NO_MEALS,
            np.random.default_rng(0),
            init_rng=np.random.default_rng(99),
        )
        z3 = np.random.default_rng(99).standard_normal(3)[2]
        mu = patient.basal.g_sc
        want = max(0.0, mu + 0.1 * mu * z3) / patient.v_g
        assert obs.y == pytest.approx(want, rel=1e-9)

    def test_same_seeds_same_episode(self, patient):
        ys = []
        for _ in range(2):
            env = ApEnv(patient)
            env.reset(NO_MEALS, np.random.default_rng(4),
                      init_rng=np.random.default_rng(5))
            trace = [env.step(0.03)[0].y for _ in range(20)]
            ys.append(trace)
        assert ys[0] == ys[1]


class TestStepAndTermination:
    def test_basal_command_holds_equilibrium(self, patient):
        env = quiet_env(patient)
        env.reset(NO_MEALS, np.random.default_rng(0))
        for _ in range(50):
            obs, done = env.step(patient.u_basal)
            assert abs(obs.y - patient.y_basal) <= 1e-6
            assert not done

    def test_horizon_termination(self, patient):
        env = quiet_env(patient)
        env.reset(NO_MEALS, np.random.default_rng(0))
        for h in range(960):
            obs, done = env.step(patient.u_basal)
            assert done == (h == 959)
        assert env.done and env.steps == 960
        assert len(env.y_trace) == 961
        assert len(env.u_trace) == 960

    def test_hypoglycemia_termination(self, patient, monkeypatch):
        monkeypatch.setattr(env_module, "HYPO_MGDL", 100.0)
        env = quiet_env(patient)
        env.reset(NO_MEALS, np.random.default_rng(0))
        ys = []
        done = False
        while not done:
            obs, done = env.step(0.15)
            ys.append(obs.y)
        assert ys[-1] <= 100.0
        assert all(y > 100.0 for y in ys[:-1])
        assert env.steps < 960

    def test_step_after_done_raises(self, patient):
        env = quiet_env(patient, horizon=1)
        env.reset(NO_MEALS, np.random.default_rng(0))
        env.step(patient.u_basal)
        with pytest.raises(EpisodeFinishedError):
            env.step(patient.u_basal)
        with pytest.raises(EpisodeFinishedError):
            hold_until_trigger(env, 0.0, 5.0, 0.99, lambda y, ell: 0.0)

    def test_meal_raises_cgm(self, patient):
        env = quiet_env(patient)
        env.reset(MealScenario(((0, 60.0),)), np.random.default_rng(0))
        for _ in range(20):  # one hour
            obs, _ = env.step(patient.u_basal)
        assert obs.y > patient.y_basal + 10.0

    def test_pump_clamp_applied(self, patient):
        env = quiet_env(patient)
        env.reset(NO_MEALS, np.random.default_rng(0))
        obs, _ = env.step(9.0)
        assert obs.u_prev == 0.15
        assert env.u_trace == [0.15]


class TestRewards:
    def test_in_range_indicator(self):
        assert reward_r1(100.0) == 1.0
        assert reward_r1(69.9) == 0.0
        assert reward_r1(70.0) == 1.0
        assert reward_r1(180.0) == 1.0
        assert reward_r1(180.1) == 0.0

    def test_holding_bonus(self):
        assert reward_r2(100.0, 0) == pytest.approx(-0.5)
        assert reward_r2(100.0, 15) == pytest.approx(1.0)
        assert reward_r2(200.0, 15) == 0.0

    def test_update_penalty(self, monkeypatch):
        assert ETA_E == 0.1
        assert reward_het(100.0, 1) == pytest.approx(0.9)
        monkeypatch.setattr(env_module, "ETA_E", 0.5)
        assert reward_het(100.0, 1) == pytest.approx(0.5)
        assert reward_het(100.0, 0) == reward_r1(100.0)
        monkeypatch.setattr(env_module, "ETA_E", 0.0)
        for y in (50.0, 100.0, 200.0):
            for e in (0, 1):
                assert reward_het(y, e) == reward_r1(y)

    def test_no_event_reward_is_r1_for_every_valid_charge(self, monkeypatch):
        # only an event is charged: a step without one earns exactly R1
        for eta_e in (0.0, ETA_E, 1e300):
            monkeypatch.setattr(env_module, "ETA_E", eta_e)
            for y in (50.0, 100.0, 200.0):
                r = reward_het(y, 0)
                assert r == reward_r1(y)
                assert str(r) == str(reward_r1(y))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(horizon=0)

    def test_obs_normalization(self):
        v = obs_vec(Observation(300.0, 0.075), PumpConfig())
        assert v == pytest.approx([0.5, 0.5])


class ScriptedEnv:
    """Stub with a fixed CGM script, for trigger-timing tests."""

    def __init__(self, ys):
        self._ys = [float(v) for v in ys]
        self._i = 0
        self.done = False
        self.y = self._ys[0]
        self.stepped_with = []

    def step(self, u, event=False):
        self.stepped_with.append((u, event))
        self._i += 1
        self.y = self._ys[self._i]
        self.done = self._i == len(self._ys) - 1
        return Observation(self.y, u), self.done


# reward_fn for holds takes (y, ell); the indicator ignores ell
def R1(y, ell):
    return reward_r1(y)


class TestTrigger:
    SCRIPT = [150.0, 155.0, 160.0, 168.0, 177.0, 190.0]

    def test_wide_threshold_holds_four_steps(self):
        env = ScriptedEnv(self.SCRIPT)
        res = hold_until_trigger(env, 0.02, 25.0, 1.0, R1)
        assert res.tau == 4
        assert res.obs.y == 177.0
        assert not res.done

    def test_narrow_threshold_holds_three_steps(self):
        env = ScriptedEnv(self.SCRIPT)
        res = hold_until_trigger(env, 0.02, 15.0, 1.0, R1)
        assert res.tau == 3
        assert res.obs.y == 168.0

    def test_zero_threshold_fires_every_step(self):
        env = ScriptedEnv(self.SCRIPT)
        for _ in range(len(self.SCRIPT) - 1):
            res = hold_until_trigger(env, 0.02, 0.0, 0.99, R1)
            assert res.tau == 1

    def test_rewards_use_pre_step_cgm(self):
        seen = []
        rewards = []

        def spy(y, ell):
            seen.append((y, ell))
            rewards.append(reward_r1(y))
            return rewards[-1]

        env = ScriptedEnv(self.SCRIPT)
        hold_until_trigger(env, 0.02, 25.0, 1.0, spy)
        assert seen == [(150.0, 0), (155.0, 1), (160.0, 2), (168.0, 3)]
        assert rewards == [1.0, 1.0, 1.0, 1.0]

    def test_only_first_held_step_is_an_event(self):
        env = ScriptedEnv(self.SCRIPT)
        hold_until_trigger(env, 0.02, 25.0, 1.0, R1)
        assert [e for _, e in env.stepped_with] == [True, False, False, False]
        assert all(u == 0.02 for u, _ in env.stepped_with)

    def test_hold_after_update_is_no_event(self):
        # ell steps already held since the last update: rewards see ell + i
        # and no step is an event.
        seen = []

        def spy(y, ell):
            seen.append(ell)
            return 0.0

        env = ScriptedEnv(self.SCRIPT)
        res = hold_until_trigger(env, 0.02, 15.0, 1.0, spy, ell=2)
        assert seen == [2, 3, 4] and res.tau == 3
        assert [e for _, e in env.stepped_with] == [False, False, False]

    def test_episode_end_cuts_hold_short(self):
        env = ScriptedEnv([150.0, 151.0, 152.0])
        res = hold_until_trigger(env, 0.02, 1e6, 1.0, R1)
        assert res.done and res.tau == 2

    def test_invalid_threshold_rejected(self):
        env = ScriptedEnv(self.SCRIPT)
        with pytest.raises(ValueError):
            hold_until_trigger(env, 0.02, -1.0, 1.0, R1)
        with pytest.raises(ValueError):
            hold_until_trigger(env, 0.02, float("inf"), 1.0, R1)

    def test_tau_is_minimal_over_random_scripts(self):
        rng = np.random.default_rng(31)
        for _ in range(10000):
            n = int(rng.integers(2, 30))
            ys = np.cumsum(rng.normal(0.0, 4.0, size=n)) + 150.0
            eta = float(rng.uniform(0.0, 20.0))
            env = ScriptedEnv(ys)
            res = hold_until_trigger(env, 0.0, eta, 0.99, R1)
            fired = [i for i in range(1, n) if abs(ys[i] - ys[0]) >= eta]
            want = min(fired) if fired else n - 1
            assert res.tau == want

    def test_accumulated_reward_matches_discounted_sum(self):
        rng = np.random.default_rng(8)
        gamma = 0.99
        for _ in range(200):
            n = int(rng.integers(2, 40))
            ys = np.cumsum(rng.normal(0.0, 6.0, size=n)) + 140.0
            eta = float(rng.uniform(0.0, 30.0))
            env = ScriptedEnv(ys)
            rewards = []

            def spy(y, ell):
                rewards.append(reward_r2(y, ell))
                return rewards[-1]

            res = hold_until_trigger(env, 0.0, eta, gamma, spy)
            want = sum(
                gamma**i * reward_r2(float(ys[i]), i) for i in range(res.tau)
            )
            assert res.reward == pytest.approx(want, abs=1e-12)
            assert rewards == [reward_r2(float(ys[i]), i) for i in range(res.tau)]
