"""PID controller and grid-search tuner tests."""
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etglucose import pid
from etglucose.env import EpisodeConfig, Observation, rollout
from etglucose.metrics import EpisodeRecord, aurr, ecf, tir
from etglucose.patients import NOMINAL_ADULT, build_patient
from etglucose.pid import (
    PidGains,
    PidGrid,
    PidState,
    TARGET_MGDL,
    grid_search_pid,
    pid_output,
    run_pid_episode,
)
from etglucose.plant import PumpConfig, SensorConfig
from etglucose.scenario import MealScenario, default_eval_scenarios
from etglucose.seeding import eval_noise_stream


@pytest.fixture(scope="module")
def patient():
    return build_patient("nominal", NOMINAL_ADULT)


def exhaustive(candidates, score, n):
    """Reference search: every candidate on every scenario, earliest wins ties."""
    best, best_score = None, -np.inf
    for gains in candidates:
        mean = float(np.mean([score(gains, i) for i in range(n)]))
        if mean > best_score:
            best, best_score = gains, mean
    return best, best_score


def grid(g: PidGrid):
    return [PidGains(kp=kp, ki=ki, kd=kd)
            for kp, ki, kd in itertools.product(g.kp, g.ki, g.kd)]


def counting(calls):
    """Wrap run_pid_episode so each call appends its (gains, scenario)."""
    def episode(patient, gains, scenario, *args, **kwargs):
        calls.append((gains, scenario))
        return run_pid_episode(patient, gains, scenario, *args, **kwargs)
    return episode


class ScriptedEnv:
    """Stands in for ApEnv: step h reads 100 mg/dL (in range) if flags[h-1]
    holds, else 300 mg/dL, and the episode ends after len(flags) steps."""

    def __init__(self, flags, horizon):
        self.flags = flags
        self.cfg = EpisodeConfig(horizon=horizon)

    def reset(self, scenario, noise_rng):
        self.y_trace = [100.0]
        self.event_trace = []
        self.done = False
        return Observation(100.0, 0.0)

    @property
    def y(self):
        return self.y_trace[-1]

    @property
    def steps(self):
        return len(self.event_trace)

    def step(self, u, event=False):
        h = len(self.y_trace)
        y = 100.0 if self.flags[h - 1] else 300.0
        self.y_trace.append(y)
        self.event_trace.append(int(event))
        self.done = h == len(self.flags)
        return Observation(y, u), self.done


class TestPidOutput:
    def test_zero_error_zero_command(self):
        u, _ = pid_output(PidGains(kp=0.0013), PidState(), 112.5)
        assert u == 0.0

    def test_proportional_response(self):
        # +100 mg/dL above target at kp = 0.0013 asks for 0.13 U/min
        u, _ = pid_output(PidGains(kp=0.0013), PidState(), 212.5)
        assert u == pytest.approx(0.13)

    def test_below_target_clamps_to_zero(self):
        u, _ = pid_output(PidGains(kp=0.0013), PidState(), 50.0)
        assert u == 0.0

    def test_default_target(self):
        assert PidGains(kp=1.0).target == TARGET_MGDL == 112.5

    def test_derivative_zero_on_first_call(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=1.0)
        u, state = pid_output(gains, PidState(), 140.0)
        assert u == 0.0  # no previous error to difference against
        # second call differences the errors: (33.5 - 27.5)/3 = 2, clamped
        u2, _ = pid_output(gains, state, 146.0)
        assert u2 == 0.15

    def test_derivative_tracks_slope(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=0.01)
        _, state = pid_output(gains, PidState(), 140.0)
        u, _ = pid_output(gains, state, 143.0)  # +1 mg/dL per min
        assert u == pytest.approx(0.01)

    def test_integral_accumulates(self):
        gains = PidGains(kp=0.0, ki=1e-4)
        state = PidState()
        u1, state = pid_output(gains, state, 122.5)  # e = 10
        assert u1 == pytest.approx(1e-4 * 30.0)
        u2, state = pid_output(gains, state, 122.5)
        assert u2 == pytest.approx(1e-4 * 60.0)

    def test_antiwindup_freezes_integral_when_saturated(self):
        gains = PidGains(kp=0.0, ki=1e-3)
        state = PidState()
        # wind the integral a little inside the actuation range
        u, state = pid_output(gains, state, 122.5)  # e = 10
        assert u == pytest.approx(0.03)
        assert state.integral == pytest.approx(30.0)
        # a large persistent error saturates the pump; the integral must
        # not keep absorbing it
        for _ in range(10):
            u, state = pid_output(gains, state, 412.5)  # e = 300
            assert u == 0.15
            assert state.integral == pytest.approx(30.0)
        # back inside the range the command resumes from where it left off
        u, state = pid_output(gains, state, 122.5)
        assert u == pytest.approx(1e-3 * 60.0)
        assert state.integral == pytest.approx(60.0)

    def test_negative_error_not_integrated_while_clamped_low(self):
        gains = PidGains(kp=0.0, ki=1e-3)
        state = PidState()
        for _ in range(5):
            _, state = pid_output(gains, state, 62.5)  # e = -50
        assert state.integral == 0.0  # command clamped at 0 from step one

    @given(
        kp=st.floats(1e-5, 1e-2),
        y=st.floats(20.0, 590.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_memoryless_mode_is_clamped_affine(self, kp, y):
        # with ki = kd = 0 the controller is u = clip(kp * (y - target))
        u, _ = pid_output(PidGains(kp=kp), PidState(), y)
        want = min(max(kp * (y - 112.5), 0.0), 0.15)
        assert u == pytest.approx(want, abs=1e-15)

    @given(
        kp=st.floats(0.0, 0.01),
        ki=st.floats(0.0, 1e-3),
        kd=st.floats(0.0, 0.1),
        ys=st.lists(st.floats(15.0, 595.0), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_command_always_within_pump_range(self, kp, ki, kd, ys):
        gains = PidGains(kp=kp, ki=ki, kd=kd)
        state = PidState()
        for y in ys:
            u, state = pid_output(gains, state, y)
            assert 0.0 <= u <= 0.15


class TestPidEpisode:
    def test_every_step_counts_as_update(self, patient):
        rec = run_pid_episode(
            patient, PidGains(kp=0.0013, kd=0.01), MealScenario(()),
            np.random.default_rng(0), EpisodeConfig(horizon=120),
            SensorConfig(sigma=0.0),
        )
        assert rec.K == rec.T
        assert rec.update_times == tuple(range(rec.T))
        assert rec.thresholds is None
        # full completion means zero update reduction
        if rec.T == rec.H:
            assert aurr(rec) == 0.0

    def test_controls_meal_disturbance(self, patient):
        # a tuned PID should survive a standard two-day scenario
        rec = run_pid_episode(
            patient, PidGains(kp=0.0017, kd=0.01),
            default_eval_scenarios()[0], np.random.default_rng(3),
        )
        assert ecf(rec) == 100.0
        assert tir(rec) > 60.0

    def test_same_noise_same_record(self, patient):
        recs = [
            run_pid_episode(
                patient, PidGains(kp=0.0013), default_eval_scenarios()[1],
                np.random.default_rng(42), EpisodeConfig(horizon=240),
            )
            for _ in range(2)
        ]
        assert recs[0].y_trace == recs[1].y_trace


class TestMissCap:
    @pytest.mark.parametrize("cap", [0, 1, 5, 40])
    def test_cut_record_is_a_prefix_of_the_full_episode(self, patient, cap):
        gains, scen = PidGains(kp=0.0001), default_eval_scenarios()[0]
        full = run_pid_episode(patient, gains, scen, eval_noise_stream(0))
        cut = run_pid_episode(patient, gains, scen, eval_noise_stream(0),
                              max_misses=cap)
        misses = [h for h, y in enumerate(full.y_trace[1:], 1)
                  if not 70.0 <= y <= 180.0]
        assert len(misses) > cap
        assert cut.T == misses[cap] < full.T
        assert cut.y_trace == full.y_trace[:cut.T + 1]
        assert cut.update_times == full.update_times[:cut.T] == tuple(range(cut.T))
        assert tir(cut) == 100.0 * (cut.T - cap - 1) / cut.H

    def test_uncut_episode_is_unchanged(self, patient):
        gains, scen = PidGains(kp=0.0013, kd=0.01), default_eval_scenarios()[0]
        full = run_pid_episode(patient, gains, scen, eval_noise_stream(0))
        capped = run_pid_episode(patient, gains, scen, eval_noise_stream(0),
                                 max_misses=full.H)
        assert capped == full

    def test_early_termination_is_not_a_cut(self):
        env = ScriptedEnv([True, False, True], horizon=6)
        rec = rollout(env, env.reset(None, None), lambda obs: (0.0, None),
                      max_misses=1)
        assert (rec.T, rec.H, tir(rec)) == (3, 6, 100.0 * 2 / 6)

    def test_cap_needs_per_step_decisions(self):
        env = ScriptedEnv([True] * 4, horizon=4)
        with pytest.raises(ValueError, match="per-step"):
            rollout(env, env.reset(None, None), lambda obs: (0.0, 10.0),
                    max_misses=2)


class TestGridSearch:
    def test_grid_of_one_returns_it(self, patient):
        scen = [default_eval_scenarios()[0]]
        gains, score = grid_search_pid(
            patient, scen, PidGrid((0.0013,), (0.0,), (0.01,)),
            episode_cfg=EpisodeConfig(horizon=240),
        )
        assert gains == PidGains(kp=0.0013, ki=0.0, kd=0.01)
        assert 0.0 <= score <= 100.0

    def test_search_is_deterministic(self, patient):
        scen = default_eval_scenarios()[:2]
        g = PidGrid((0.0009, 0.0013), (0.0,), (0.0, 0.01))
        out1 = grid_search_pid(patient, scen, g, EpisodeConfig(horizon=240))
        out2 = grid_search_pid(patient, scen, g, EpisodeConfig(horizon=240))
        assert out1 == out2

    def test_winner_beats_or_ties_all_candidates(self, patient):
        scen = [default_eval_scenarios()[0]]
        kp_grid = (0.0001, 0.0013)
        gains, score = grid_search_pid(
            patient, scen, PidGrid(kp_grid, (0.0,), (0.0,)),
            episode_cfg=EpisodeConfig(horizon=240),
        )
        for kp in kp_grid:
            _, cand = grid_search_pid(
                patient, scen, PidGrid((kp,), (0.0,), (0.0,)),
                episode_cfg=EpisodeConfig(horizon=240),
            )
            assert score >= cand

    def test_edge_optimum_is_logged(self, patient, caplog):
        scen = [default_eval_scenarios()[0]]
        with caplog.at_level(logging.WARNING, logger="etglucose.pid"):
            gains, _ = grid_search_pid(
                patient, scen, PidGrid((0.0001, 0.0013), (0.0,), (0.0,)),
                episode_cfg=EpisodeConfig(horizon=240),
            )
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        # a two-value grid has no interior; one-value grids are not searched
        assert len(warnings) == 1
        assert "nominal" in warnings[0] and "kp optimum" in warnings[0]
        edge = "lower" if gains.kp == 0.0001 else "upper"
        assert f"{edge} edge" in warnings[0]

    def test_zero_optimum_on_zero_edge_is_silent(self, patient, caplog):
        # 0 is the gain's own bound, not a cap set by the grid
        scen = [default_eval_scenarios()[0]]
        with caplog.at_level(logging.WARNING, logger="etglucose.pid"):
            gains, _ = grid_search_pid(
                patient, scen, PidGrid((0.0009,), (0.0, 1e-4), (0.0,)),
                episode_cfg=EpisodeConfig(horizon=240),
            )
        assert gains.ki == 0.0
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    def test_interior_optimum_is_silent(self, patient, caplog):
        scen = [default_eval_scenarios()[0]]
        cfg = EpisodeConfig(horizon=240)
        scored = sorted(
            (grid_search_pid(patient, scen, PidGrid((kp,), (0.0,), (0.0,)),
                             episode_cfg=cfg)[1], kp)
            for kp in (0.0001, 0.0009, 0.0017)
        )
        (_, worst), (_, mid), (_, best) = scored
        with caplog.at_level(logging.WARNING, logger="etglucose.pid"):
            gains, _ = grid_search_pid(
                patient, scen, PidGrid((worst, best, mid), (0.0,), (0.0,)),
                episode_cfg=cfg,
            )
        assert gains.kp == best
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    @pytest.mark.parametrize("gain", ["kp", "ki", "kd"])
    def test_empty_grid_rejected(self, gain):
        with pytest.raises(ValueError, match=f"^pid grid {gain} must be non-empty$"):
            PidGrid(**{gain: ()})

    def test_empty_scenario_list_rejected(self, patient):
        with pytest.raises(ValueError, match="scenario"):
            grid_search_pid(patient, [])

    @given(
        sizes=st.tuples(*[st.integers(1, 3)] * 3),
        n=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_exhaustive_oracle(self, sizes, n, data):
        # TIRs on a coarse lattice make equal means, and so ties, common
        pgrid = PidGrid(*(tuple(float(v) for v in range(k)) for k in sizes))
        candidates = grid(pgrid)
        flat = data.draw(st.lists(st.integers(0, 8), min_size=len(candidates) * n,
                                  max_size=len(candidates) * n))
        table = {gains: [12.5 * k for k in flat[j * n:(j + 1) * n]]
                 for j, gains in enumerate(candidates)}
        calls = []

        def fake_episode(patient, gains, scenario, *args, max_misses=None):
            # 960 steps, the in-range ones first, cut at the cap's next miss
            calls.append((gains, scenario))
            hits = round(table[gains][scenario] * 9.6)
            T = 960 if max_misses is None else min(960, hits + max_misses + 1)
            y = (100.0,) * (hits + 1) + (300.0,) * (960 - hits)
            return EpisodeRecord(T=T, H=960, y_trace=y, K=0, update_times=())

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pid, "run_pid_episode", fake_episode)
            got = grid_search_pid(None, list(range(n)), pgrid)
        want = exhaustive(candidates, lambda g, i: table[g][i], n)
        assert got == want
        assert len(calls) == len(set(calls))
        assert {(g, 0) for g in candidates} <= set(calls)

    @given(
        sizes=st.tuples(*[st.integers(1, 3)] * 3),
        n=st.integers(1, 4),
        horizon=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=1000, deadline=None)
    def test_in_episode_bound_matches_exhaustive_oracle(self, sizes, n, horizon,
                                                        data):
        # per-step in-range flags; a list shorter than the horizon is an
        # episode that terminates early
        pgrid = PidGrid(*(tuple(float(v) for v in range(k)) for k in sizes))
        candidates = grid(pgrid)
        steps = st.lists(st.booleans(), min_size=1, max_size=horizon)
        table = {(j, i): data.draw(steps)
                 for j in range(len(candidates)) for i in range(n)}
        index = {gains: j for j, gains in enumerate(candidates)}
        calls = []  # (candidate, scenario, max_misses, record) in call order

        def fake_episode(patient, gains, scenario, *args, max_misses=None):
            env = ScriptedEnv(table[index[gains], scenario], horizon)
            rec = rollout(env, env.reset(scenario, None), lambda obs: (0.0, None),
                          max_misses=max_misses)
            calls.append((index[gains], scenario, max_misses, rec))
            return rec

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pid, "run_pid_episode", fake_episode)
            got = grid_search_pid(None, list(range(n)), pgrid,
                                  episode_cfg=EpisodeConfig(horizon=horizon))
        want = exhaustive(
            candidates, lambda g, i: 100.0 * sum(table[index[g], i]) / horizon, n)
        assert got == want
        pairs = [(j, i) for j, i, _, _ in calls]
        assert len(pairs) == len(set(pairs))
        screens = [(j, m, rec) for j, i, m, rec in calls if i == 0]
        assert sorted(j for j, _, _ in screens) == list(range(len(candidates)))
        assert all(m is None and rec.T == len(table[j, 0]) for j, m, rec in screens)
        # Replay the log: the incumbent before a call is the best (mean,
        # earliest) candidate whose n-th episode came earlier.
        tirs = {}
        for j, i, m, rec in calls:
            if i > 0:
                finished = [(float(np.mean(tirs[k])), -k) for k in tirs
                            if len(tirs[k]) == n]
                best_score, neg_best = max(finished, default=(-np.inf, 0))

                def drops(misses):
                    bound = float(np.mean(
                        tirs[j] + [100.0 * (horizon - misses) / horizon]
                        + [100.0] * (n - i - 1)))
                    return bound < best_score or (bound == best_score and j > -neg_best)

                assert len(tirs[j]) == i and not drops(0)
                flags = table[j, i]
                cut = [h for h in range(1, len(flags) + 1)
                       if drops(flags[:h].count(False))]
                assert rec.T == (cut[0] if cut else len(flags))
            tirs.setdefault(j, []).append(tir(rec))

    def test_matches_exhaustive_on_the_plant(self, patient, monkeypatch):
        scen = default_eval_scenarios()[:3]
        cfg = EpisodeConfig(horizon=240)
        g = PidGrid((0.0001, 0.0009, 0.0017), (0.0,), (0.0, 0.01))
        want = exhaustive(
            grid(g),
            lambda g, i: tir(run_pid_episode(patient, g, scen[i],
                                             eval_noise_stream(i), cfg)),
            len(scen),
        )
        calls = []
        monkeypatch.setattr(pid, "run_pid_episode", counting(calls))
        got = grid_search_pid(patient, scen, g, cfg)
        assert got == want
        assert len(calls) < 6 * 3

    def test_all_tied_returns_first_candidate(self, patient, monkeypatch, caplog):
        # one step from the basal steady state stays in range for any gains
        scen = default_eval_scenarios()[:3]
        cfg = EpisodeConfig(horizon=1)
        g = PidGrid((0.0001, 0.0009, 0.0017), (0.0,), (0.0, 0.01))
        assert all(
            tir(run_pid_episode(patient, gains, sc, eval_noise_stream(i), cfg)) == 100.0
            for gains in grid(g) for i, sc in enumerate(scen)
        )
        calls = []
        monkeypatch.setattr(pid, "run_pid_episode", counting(calls))
        with caplog.at_level(logging.INFO, logger="etglucose.pid"):
            gains, score = grid_search_pid(patient, scen, g, cfg)
        screens = [c for c in calls if c[1] is scen[0]]
        assert len(screens) == 6
        assert score == 100.0
        assert gains == PidGains(kp=0.0001, ki=0.0, kd=0.0)
        # only the winner runs past the screen; the rest can at best tie it
        assert len(calls) == 6 + 2
        infos = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.INFO]
        assert len(infos) == 1 and "ran 8 of 18 episodes, 8 steps" in infos[0]
