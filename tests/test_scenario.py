"""Meal scenario generation and carbohydrate delivery tests."""
import hashlib

import numpy as np
import pytest

from etglucose.scenario import (
    DEFAULT_MEAL_SPECS,
    MINUTES_PER_DAY,
    MealScenario,
    MealSpec,
    RATE_MG_PER_MIN,
    default_eval_scenarios,
    generate_daily_scenario,
    generate_episode_scenario,
    meal_rate_at,
    sample_truncated_normal,
)


def _point_specs():
    """Degenerate slots: always included, zero-variance time and amount."""
    return tuple(
        MealSpec(s.name, 1.0, s.t_lb, s.t_ub, s.t_mu, 0.0, s.m_mu, 0.0)
        for s in DEFAULT_MEAL_SPECS
    )


class TestDailyGeneration:
    def test_breakfast_inclusion_frequency(self):
        rng = np.random.default_rng(42)
        spec = DEFAULT_MEAL_SPECS[:1]  # breakfast, p = 0.95
        hits = sum(bool(generate_daily_scenario(spec, rng)) for _ in range(10000))
        assert 0.94 <= hits / 10000 <= 0.96

    def test_times_within_slot_bounds(self):
        # force inclusion so each event maps to its slot by sort order
        rng = np.random.default_rng(5)
        specs = tuple(
            MealSpec(s.name, 1.0, s.t_lb, s.t_ub, s.t_mu, s.t_sigma, s.m_mu, s.m_sigma)
            for s in DEFAULT_MEAL_SPECS
        )
        for _ in range(300):
            events = generate_daily_scenario(specs, rng)
            assert len(events) == len(specs)
            for spec, (t, m) in zip(specs, sorted(events, key=lambda e: e[0])):
                assert spec.t_lb <= t <= spec.t_ub
                assert float(t) == int(t)

    def test_amounts_never_negative(self):
        # snack sigma is half its mean, so raw normal draws do go negative
        rng = np.random.default_rng(11)
        specs = (MealSpec("snack", 1.0, 0.0, 10.0, 5.0, 1.0, 1.0, 5.0),)
        amounts = [generate_daily_scenario(specs, rng)[0][1] for _ in range(2000)]
        assert min(amounts) >= 0.0
        assert any(a == 0.0 for a in amounts)

    def test_degenerate_specs_hit_slot_means(self):
        rng = np.random.default_rng(0)
        events = generate_daily_scenario(_point_specs(), rng)
        assert [t for t, _ in events] == [420, 570, 720, 900, 1080, 1290]
        assert [m for _, m in events] == [45.0, 10.0, 70.0, 10.0, 80.0, 10.0]

    def test_day_offset_shifts_times(self):
        rng = np.random.default_rng(0)
        events = generate_daily_scenario(_point_specs(), rng, day_offset=MINUTES_PER_DAY)
        assert [t for t, _ in events] == [1860, 2010, 2160, 2340, 2520, 2730]

    def test_two_day_episode_concatenates(self):
        rng = np.random.default_rng(0)
        scen = generate_episode_scenario(_point_specs(), rng, n_days=2)
        assert len(scen.events) == 12
        assert scen.events[0][0] == 420
        assert scen.events[6][0] == 420 + MINUTES_PER_DAY  # day-2 breakfast
        assert sum(m for _, m in scen.events) == pytest.approx(2 * (45 + 10 + 70 + 10 + 80 + 10))

    def test_same_seed_same_scenario(self):
        a = generate_episode_scenario(DEFAULT_MEAL_SPECS, np.random.default_rng(123))
        b = generate_episode_scenario(DEFAULT_MEAL_SPECS, np.random.default_rng(123))
        assert a.events == b.events


class TestTruncatedNormal:
    def test_always_inside_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(5000):
            t = sample_truncated_normal(420.0, 60.0, 300.0, 540.0, rng)
            assert 300 <= t <= 540

    def test_tiny_sigma_returns_mean(self):
        rng = np.random.default_rng(2)
        assert sample_truncated_normal(420.0, 1e-12, 300.0, 540.0, rng) == 420

    def test_mean_close_to_center(self):
        rng = np.random.default_rng(88)
        draws = [
            sample_truncated_normal(420.0, 60.0, 300.0, 540.0, rng)
            for _ in range(100000)
        ]
        assert 415.0 <= float(np.mean(draws)) <= 425.0

    def test_returns_integer_minutes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert isinstance(sample_truncated_normal(10.0, 4.0, 0.0, 20.0, rng), int)


class TestDelivery:
    def test_single_meal_window(self):
        scen = MealScenario(((420, 45.0),))
        assert meal_rate_at(419.99, scen) == 0.0
        assert meal_rate_at(420.0, scen) == RATE_MG_PER_MIN
        assert meal_rate_at(428.99, scen) == RATE_MG_PER_MIN
        assert meal_rate_at(429.0, scen) == 0.0

    def test_overlapping_meals_queue_fifo(self):
        # 10 g at t=100 occupies [100, 102); the 10 g at t=101 must wait
        # and run [102, 104) instead of doubling the rate
        scen = MealScenario(((100, 10.0), (101, 10.0)))
        assert meal_rate_at(99.0, scen) == 0.0
        for t in (100.0, 101.0, 102.0, 103.0, 103.99):
            assert meal_rate_at(t, scen) == RATE_MG_PER_MIN
        assert meal_rate_at(104.0, scen) == 0.0

    def test_delivered_mass_matches_meal_size(self):
        scen = MealScenario(((0, 37.0),))
        # integrate the rate on a fine grid
        dt = 0.001
        ts = np.arange(0.0, 20.0, dt)
        total_mg = sum(meal_rate_at(t, scen) for t in ts) * dt
        assert total_mg == pytest.approx(37.0 * 1000.0, rel=1e-3)

    def test_no_meals_zero_rate(self):
        scen = MealScenario(())
        for t in (0.0, 100.0, 1000.0, 2879.0):
            assert meal_rate_at(t, scen) == 0.0

    def test_zero_amount_meal_ignored(self):
        scen = MealScenario(((50, 0.0), (60, 5.0)))
        assert meal_rate_at(50.0, scen) == 0.0
        assert meal_rate_at(60.0, scen) == RATE_MG_PER_MIN

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError, match="negative meal amount"):
            MealScenario(((10, -1.0),))


class TestEvalScenarios:
    def test_default_eval_scenarios_digest(self):
        # One sha256 over every (minute, grams) event of the five scenarios;
        # recorded from the scenario files that the package used to ship,
        # which were the generator's output from the reserved seeds.
        scenarios = default_eval_scenarios()
        assert len(scenarios) == 5
        text = repr([sc.events for sc in scenarios])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d55204d9a0d6908f28e1f6ffdf06245d5a88ee5aa536ec789d1fb558d2942d3f")

    def test_default_eval_scenario_list_is_fresh_per_call(self):
        first = default_eval_scenarios()
        want = [sc.events for sc in first]
        first.reverse()
        first.append(None)
        assert [sc.events for sc in default_eval_scenarios()] == want
