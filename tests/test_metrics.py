"""Metric definitions, interval analyses, aggregation tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etglucose.metrics import (
    AggregateResult,
    EpisodeRecord,
    aggregate,
    aurr,
    ecf,
    interval_averages,
    tir,
)


def flat_record(t, h, y=100.0, k=None):
    """Record with constant CGM and one update per step (k defaults to t)."""
    k = t if k is None else k
    return EpisodeRecord(
        T=t, H=h, y_trace=(y,) * (t + 1), K=k,
        update_times=tuple(range(k)), thresholds=None,
    )


class TestEcf:
    def test_full_episode(self):
        assert ecf(flat_record(960, 960)) == 100.0

    def test_half_episode(self):
        assert ecf(flat_record(480, 960)) == 50.0

    def test_near_miss(self):
        assert ecf(flat_record(912, 960)) == 95.0

    def test_instant_failure(self):
        assert ecf(flat_record(0, 960)) == 0.0


class TestTir:
    def test_counts_against_full_horizon(self):
        # 480 surviving in-range steps over a 960-step horizon
        assert tir(flat_record(480, 960, y=100.0)) == 50.0

    def test_range_boundaries_inclusive(self):
        for y, want in ((70.0, 100.0), (180.0, 100.0), (69.999, 0.0), (180.001, 0.0)):
            assert tir(flat_record(10, 10, y=y)) == want

    def test_initial_observation_not_counted(self):
        # y_0 out of range, every post-step value in range
        rec = EpisodeRecord(T=4, H=4, y_trace=(300.0, 100.0, 100.0, 100.0, 100.0),
                            K=4, update_times=(0, 1, 2, 3))
        assert tir(rec) == 100.0

    def test_mixed_trace(self):
        ys = (100.0, 100.0, 250.0, 100.0, 60.0, 171.0)
        rec = EpisodeRecord(T=5, H=10, y_trace=ys, K=5, update_times=tuple(range(5)))
        # in range after steps 1, 3, 5 -> 3 of 10
        assert tir(rec) == 30.0


class TestAurr:
    def test_full_horizon_update_counts(self):
        rec = flat_record(960, 960, k=34)
        assert aurr(rec) == pytest.approx(100.0 * (1.0 - 34.0 / 960.0))
        assert aurr(rec) == pytest.approx(96.4583, abs=1e-3)

    def test_early_failure_charges_missing_steps(self):
        rec = flat_record(400, 960, k=50)
        assert aurr(rec) == pytest.approx(100.0 * (1.0 - 610.0 / 960.0))
        assert aurr(rec) == pytest.approx(36.4583, abs=1e-3)

    def test_perfect_only_without_updates(self):
        assert aurr(flat_record(960, 960, k=0)) == 100.0
        assert aurr(flat_record(960, 960, k=1)) < 100.0
        assert aurr(flat_record(959, 960, k=0)) < 100.0

    def test_per_step_controller_full_episode(self):
        # K = T = H: every update spent, nothing saved
        assert aurr(flat_record(960, 960)) == 0.0


record_strategy = st.integers(1, 200).flatmap(
    lambda h: st.integers(0, h).flatmap(
        lambda t: st.tuples(
            st.just(h),
            st.just(t),
            st.integers(0, t),
            st.lists(st.floats(20.0, 500.0), min_size=t + 1, max_size=t + 1),
        )
    )
)


class TestInvariants:
    @given(record_strategy)
    @settings(max_examples=300, deadline=None)
    def test_ordering_and_bounds(self, drawn):
        h, t, k, ys = drawn
        times = tuple(range(k))  # k <= t, so indices stay below t
        rec = EpisodeRecord(T=t, H=h, y_trace=tuple(ys), K=k, update_times=times)
        assert 0.0 <= tir(rec) <= ecf(rec) <= 100.0
        # equal up to roundoff when k = 0: both reduce to 100 * t / h
        assert 0.0 <= aurr(rec) <= ecf(rec) + 1e-9
        assert (aurr(rec) == 100.0) == (t == h and k == 0)

    def test_formula_cross_check(self):
        # independent re-derivation on a batch of randomized records
        rng = np.random.default_rng(99)
        for _ in range(50):
            h = int(rng.integers(1, 100))
            t = int(rng.integers(0, h + 1))
            k = int(rng.integers(0, t + 1))
            ys = rng.uniform(40.0, 300.0, size=t + 1)
            rec = EpisodeRecord(T=t, H=h, y_trace=tuple(ys), K=k,
                                update_times=tuple(range(k)))
            in_range = sum(1 for y in ys[1 : t + 1] if 70.0 <= y <= 180.0)
            assert ecf(rec) == pytest.approx(100.0 * t / h)
            assert tir(rec) == pytest.approx(100.0 * in_range / h)
            assert aurr(rec) == pytest.approx(100.0 * (1.0 - ((h - t) + k) / h))


class TestRecordValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            EpisodeRecord(T=11, H=10, y_trace=(0.0,) * 12, K=0, update_times=())
        with pytest.raises(ValueError):
            EpisodeRecord(T=2, H=10, y_trace=(0.0,) * 3, K=3, update_times=(0, 1, 2))

    def test_trace_length(self):
        with pytest.raises(ValueError):
            EpisodeRecord(T=3, H=10, y_trace=(0.0, 0.0), K=0, update_times=())

    def test_update_times_shape(self):
        with pytest.raises(ValueError):
            EpisodeRecord(T=3, H=10, y_trace=(0.0,) * 4, K=2, update_times=(0,))
        with pytest.raises(ValueError):
            EpisodeRecord(T=3, H=10, y_trace=(0.0,) * 4, K=2, update_times=(1, 1))

    def test_thresholds_shape(self):
        with pytest.raises(ValueError):
            EpisodeRecord(T=3, H=10, y_trace=(0.0,) * 4, K=1, update_times=(0,),
                          thresholds=(20.0, 25.0))


class TestIntervalAnalysis:
    def test_single_interval_mean(self):
        rec = EpisodeRecord(
            T=3, H=10, y_trace=(100.0, 110.0, 120.0, 125.0), K=1,
            update_times=(0,), thresholds=(20.0,),
        )
        means, etas = interval_averages(rec)
        assert means == pytest.approx([110.0])  # mean of y_0..y_2
        assert etas == pytest.approx([20.0])

    def test_intervals_partition_steps(self):
        ys = tuple(float(v) for v in range(100, 113))  # y_0..y_12
        rec = EpisodeRecord(
            T=12, H=12, y_trace=ys, K=3, update_times=(0, 5, 9),
            thresholds=(15.0, 20.0, 25.0),
        )
        means, etas = interval_averages(rec)
        assert means == pytest.approx([
            np.mean(ys[0:5]), np.mean(ys[5:9]), np.mean(ys[9:12])
        ])
        assert np.array_equal(etas, [15.0, 20.0, 25.0])

    def test_requires_thresholds(self):
        with pytest.raises(ValueError):
            interval_averages(flat_record(3, 10))

    def test_histogram_places_single_count(self):
        rec = EpisodeRecord(
            T=3, H=10, y_trace=(100.0, 110.0, 120.0, 125.0), K=1,
            update_times=(0,), thresholds=(20.0,),
        )
        c_edges = np.arange(40.0, 401.0, 20.0)
        e_edges = np.arange(15.0, 26.0, 1.0)
        counts, _, _ = np.histogram2d(*interval_averages(rec), bins=(c_edges, e_edges))
        assert counts.sum() == 1.0
        ci = np.searchsorted(c_edges, 110.0, side="right") - 1
        ei = np.searchsorted(e_edges, 20.0, side="right") - 1
        assert counts[ci, ei] == 1.0

    def test_histogram_conserves_interval_count(self):
        rng = np.random.default_rng(7)
        t = 40
        times = (0, 10, 17, 25, 33)
        rec = EpisodeRecord(
            T=t, H=40, y_trace=tuple(rng.uniform(80.0, 300.0, size=t + 1)),
            K=5, update_times=times,
            thresholds=tuple(rng.uniform(15.0, 25.0, size=5)),
        )
        counts, _, _ = np.histogram2d(
            *interval_averages(rec),
            bins=(np.arange(40.0, 401.0, 20.0), np.arange(15.0, 26.0, 1.0)),
        )
        assert counts.sum() == 5.0

    def test_empty_record_empty_histogram(self):
        rec = EpisodeRecord(T=0, H=10, y_trace=(100.0,), K=0, update_times=(),
                            thresholds=())
        means, etas = interval_averages(rec)
        assert means.size == 0 and etas.size == 0
        counts, _, _ = np.histogram2d(
            means, etas,
            bins=(np.arange(40.0, 401.0, 20.0), np.arange(15.0, 26.0, 1.0)),
        )
        assert counts.sum() == 0.0


class TestAggregate:
    def test_two_seed_example(self):
        out = aggregate([[{"ecf": 90.0, "tir": 90.0, "aurr": 90.0}],
                         [{"ecf": 100.0, "tir": 100.0, "aurr": 100.0}]])
        assert out.mean["ecf"] == pytest.approx(95.0)
        assert out.std["ecf"] == pytest.approx(5.0)
        assert out.n_seeds == 2

    def test_scenario_means_taken_first(self):
        # seed A: scenarios 80 and 100 -> 90; seed B: 100 -> mean (90+100)/2
        row = {"ecf": 100.0, "aurr": 100.0}
        out = aggregate([[{**row, "tir": 80.0}, {**row, "tir": 100.0}],
                         [{**row, "tir": 100.0}]])
        assert out.mean["tir"] == pytest.approx(95.0)

    def test_identical_seeds_zero_std(self):
        row = {"ecf": 100.0, "tir": 90.0, "aurr": 97.0}
        out = aggregate([[row], [row], [row]])
        assert out.std["aurr"] == 0.0
        assert out.n_seeds == 3

    def test_single_seed_flagged(self):
        out = aggregate([[{"ecf": 100.0, "tir": 90.0, "aurr": 95.0}]])
        assert out.n_seeds == 1
        assert out.std["ecf"] == 0.0

    def test_multiple_metrics(self):
        runs = [[{"ecf": 100.0, "tir": 90.0, "aurr": 95.0}],
                [{"ecf": 50.0, "tir": 40.0, "aurr": 35.0}]]
        out = aggregate(runs)
        assert out.mean == {"ecf": 75.0, "tir": 65.0, "aurr": 65.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
        with pytest.raises(ValueError):
            aggregate([[{"ecf": 1.0}], []])
