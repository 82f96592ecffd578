"""Plant dynamics, integrator, sensor, pump, and cohort tests."""
import configparser
import dataclasses
import hashlib
import inspect
import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etglucose import plant
from etglucose.cgmetppo import CgmEtppoTrainer
from etglucose.patients import (
    NOMINAL_ADULT,
    PERTURB_FRACTION,
    build_patient,
    default_cohort,
    generate_cohort,
    load_cohort,
)
from etglucose.plant import (
    PatientParams,
    PatientState,
    PlantDivergedError,
    PumpConfig,
    SensorConfig,
    cgm_read,
    pump_command,
    rhs,
    rk4_step,
)
from etglucose.pid import PidGains, run_pid_episode
from etglucose.scenario import default_eval_scenarios
from etglucose.seeding import RngBundle, eval_noise_stream

COHORT = default_cohort()


@pytest.fixture(scope="module")
def nominal():
    return build_patient("nominal", NOMINAL_ADULT)


@pytest.fixture(scope="module")
def cohort():
    return default_cohort()


class TestRhs:
    def test_basal_is_equilibrium(self, nominal):
        d = rhs(nominal.basal, nominal.u_basal, 0.0, nominal)
        assert max(abs(v) for v in d) < 1e-9

    def test_meal_enters_first_stomach_compartment_only(self, nominal):
        base = rhs(nominal.basal, nominal.u_basal, 0.0, nominal)
        fed = rhs(nominal.basal, nominal.u_basal, 5000.0, nominal)
        assert fed[0] - base[0] == pytest.approx(5000.0)
        assert fed[1:] == base[1:]

    def test_raised_plasma_glucose_decays(self, nominal):
        state = nominal.basal._replace(g_p=nominal.basal.g_p + 10.0)
        d = rhs(state, nominal.u_basal, 0.0, nominal)
        assert d[3] < 0.0  # g_p entry

    def test_non_finite_input_raises(self, nominal):
        bad = nominal.basal._replace(g_p=float("nan"))
        with pytest.raises(PlantDivergedError):
            rhs(bad, nominal.u_basal, 0.0, nominal)


class TestRk4:
    def test_scalar_decay_single_step(self):
        # xdot = -x, x0 = 1, dt = 1: the 4th-order expansion gives
        # 1 - 1 + 1/2 - 1/6 + 1/24 = 0.375.
        out = rk4_update(lambda x: (-x[0],), (1.0,), 1.0)
        assert out[0] == pytest.approx(0.375, abs=1e-15)

    def test_fourth_order_convergence(self):
        f = lambda x: (-x[0],)

        def end_err(dt):
            x, t = (1.0,), 0.0
            while t < 1.0 - 1e-12:
                x = rk4_update(f, x, dt)
                t += dt
            return abs(x[0] - math.exp(-1.0))

        ratio = end_err(0.1) / end_err(0.05)
        assert ratio >= 12.0

    def test_fixed_point_state_unchanged(self, nominal):
        out = rk4_step(nominal.basal, nominal.u_basal, 0.0, 1.0, nominal)
        for a, b in zip(out, nominal.basal):
            assert a == pytest.approx(b, abs=1e-9)

    def test_two_steps_compose(self, nominal):
        st = nominal.basal._replace(g_p=nominal.basal.g_p * 1.1)
        one = rk4_step(rk4_step(st, 0.05, 0.0, 1.0, nominal), 0.05, 0.0, 1.0, nominal)
        two = st
        for _ in range(2):
            two = rk4_step(two, 0.05, 0.0, 1.0, nominal)
        assert one == two

    def test_determinism(self, nominal):
        st = nominal.basal._replace(g_p=150.0)
        a = rk4_step(st, 0.01, 2000.0, 1.0, nominal)
        b = rk4_step(st, 0.01, 2000.0, 1.0, nominal)
        assert a == b

    def test_negative_concentrations_clamped(self, nominal):
        st = nominal.basal._replace(q_gut=1e-12)
        out = rk4_step(st, nominal.u_basal, 0.0, 1.0, nominal)
        assert all(v >= 0.0 for v in out)


def rk4_update(f, x, dt):
    """One classical fourth-order Runge-Kutta step of x' = f(x).

    Works on plain tuples of floats so it can integrate any small system,
    not just the plant. It is the generic reference integrator that the
    unrolled rk4_step must match bit for bit.
    """
    k1 = f(tuple(x))
    h = 0.5 * dt
    k2 = f(tuple(xi + h * ki for xi, ki in zip(x, k1)))
    k3 = f(tuple(xi + h * ki for xi, ki in zip(x, k2)))
    k4 = f(tuple(xi + dt * ki for xi, ki in zip(x, k3)))
    s = dt / 6.0
    return tuple(
        xi + s * (a + 2.0 * (b + c) + e)
        for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
    )


def reference_step(state, u, d, dt, params):
    """The plant step spelled out with the generic integrator."""
    nxt = rk4_update(lambda s: rhs(s, u, d, params), state, dt)
    return PatientState._make(v if v > 0.0 else 0.0 for v in nxt)


def hexes(values):
    return [float(v).hex() for v in values]


class TestRk4StepOracle:
    """rk4_step is the unrolled reference step, bit for bit."""

    @given(
        p=st.sampled_from(COHORT),
        xs=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=13,
                    max_size=13),
        u=st.floats(min_value=0.0, max_value=1.0),
        d=st.floats(min_value=0.0, max_value=1e4),
        dt=st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_states_match_reference(self, p, xs, u, d, dt):
        state = PatientState._make(xs)
        assert hexes(rk4_step(state, u, d, dt, p)) == hexes(
            reference_step(state, u, d, dt, p))

    def test_cohort_trajectories_match_reference(self):
        for p in COHORT:
            fast = slow = p.basal._replace(g_p=p.basal.g_p * 1.3)
            for k in range(200):
                u, d = (0.15, 5000.0) if k % 50 < 10 else (p.u_basal, 0.0)
                fast = rk4_step(fast, u, d, 1.0, p)
                slow = reference_step(slow, u, d, 1.0, p)
                assert hexes(fast) == hexes(slow), (p.name, k)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
    @pytest.mark.parametrize("field", PatientState._fields)
    def test_bad_compartment_diverges_like_reference(self, field, bad):
        p = COHORT[0]
        state = p.basal._replace(**{field: bad})
        got = outcome(rk4_step, state, p.u_basal, 0.0, p)
        assert got == outcome(reference_step, state, p.u_basal, 0.0, p)
        if not math.isfinite(bad):
            assert got == "diverged"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("which", ["u", "d"])
    def test_bad_input_diverges_like_reference(self, which, bad):
        p = COHORT[0]
        u, d = (bad, 0.0) if which == "u" else (p.u_basal, bad)
        assert outcome(rk4_step, p.basal, u, d, p) == "diverged"
        assert outcome(reference_step, p.basal, u, d, p) == "diverged"


class TestGeneratedSource:
    """The generated step and rhs show their lines like written code."""

    def test_diverging_step_traceback_shows_generated_lines(self):
        p = COHORT[0]
        # finite at the first stage; k_x * x_remote * g_p overflows, so the
        # second stage's probe fails
        state = p.basal._replace(g_p=1e200, x_remote=1e200)
        with pytest.raises(PlantDivergedError) as info:
            rk4_step(state, p.u_basal, 0.0, 1.0, p)
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.name == "rk4_step"
        assert frame.filename == plant._GENERATED_FILE
        assert frame.line == (
            'raise PlantDivergedError("plant-diverged: non-finite state or input")')
        lines = inspect.getsource(rk4_step).splitlines()
        probe = lines[frame.lineno - rk4_step.__code__.co_firstlineno - 1]
        assert probe.strip().startswith("if not isfinite(s2_q_sto1 + s2_q_sto2")

    def test_getsource_shows_every_derivative_of_the_table(self):
        step = inspect.getsource(rk4_step)
        derivs = inspect.getsource(plant.rhs)
        for name, expr in plant._DYNAMICS:
            assert f"    k1_{name} = {expr}\n" in step
            assert f"    f_{name} = {expr}\n" in derivs
        assert step.count("raise PlantDivergedError") == 4
        assert step.count("r_iu = PMOL_PER_UNIT * u / bw") == 1
        assert step.count("= params.coeffs") == 1

    def test_coeffs_table_lists_only_folded_constants(self):
        # a field the dynamics read as it is comes from PatientParams itself
        assert all(expr != f"p.{name}" for name, expr in plant._COEFFS)
        assert len(plant._COEFFS) < len(COHORT[0].coeffs)


class TestPerPatientCoefficients:
    """Each PatientParams carries the coefficient tuple of its own fields."""

    def test_replaced_params_step_with_their_own_coefficients(self):
        p = COHORT[0]
        q = dataclasses.replace(p, k_abs=p.k_abs * 1.1)
        assert q.coeffs != p.coeffs
        rebuilt = PatientParams(**{f.name: getattr(q, f.name)
                                   for f in dataclasses.fields(q) if f.init})
        assert rebuilt.coeffs == q.coeffs
        state = p.basal._replace(q_sto2=4000.0, q_gut=3000.0)
        # the gut compartment's derivative, written from the fields
        assert rhs(state, p.u_basal, 0.0, q)[2] == (
            q.k_empt * state.q_sto2 - q.k_abs * state.q_gut)
        assert rhs(state, p.u_basal, 0.0, p)[2] != rhs(state, p.u_basal, 0.0, q)[2]
        assert hexes(rk4_step(state, p.u_basal, 0.0, 1.0, q)) == hexes(
            rk4_step(state, p.u_basal, 0.0, 1.0, rebuilt))
        assert hexes(rk4_step(state, p.u_basal, 0.0, 1.0, q)) != hexes(
            rk4_step(state, p.u_basal, 0.0, 1.0, p))

    def test_alternating_patients_match_separate_runs(self):
        a, b = COHORT[0], COHORT[5]

        def inputs(k):
            return (0.15, 5000.0) if k % 40 < 8 else (0.02, 0.0)

        def alone(p):
            x, out = p.basal, []
            for k in range(120):
                x = rk4_step(x, *inputs(k), 1.0, p)
                out.append(hexes(x))
            return out

        xa, xb, ta, tb = a.basal, b.basal, [], []
        for k in range(120):
            xa = rk4_step(xa, *inputs(k), 1.0, a)
            xb = rk4_step(xb, *inputs(k), 1.0, b)
            ta.append(hexes(xa))
            tb.append(hexes(xb))
        assert ta == alone(a) and tb == alone(b)
        assert ta != tb


def outcome(step, state, u, d, params):
    try:
        return hexes(step(state, u, d, 1.0, params))
    except PlantDivergedError:
        return "diverged"


def trace_digest(trace):
    return hashlib.sha256(",".join(hexes(trace)).encode()).hexdigest()


class TestGoldenTrace:
    """Values recorded before the integrator was unrolled; they must not move."""

    def test_rhs_at_fixed_states(self):
        p = COHORT[0]
        b = p.basal
        cases = [
            ((b, p.u_basal, 0.0),
             "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-51 0x0.0p+0 "
             "0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x0.0p+0 0x0.0p+0 0x0.0p+0 "
             "0x0.0p+0 -0x0.0p+0"),
            ((b._replace(q_sto1=20000.0, q_sto2=5000.0, q_gut=3000.0,
                         g_p=b.g_p * 1.5, g_sc=b.g_sc * 1.2), 0.05, 5000.0),
             "0x1.f77b994118030p+11 0x1.80b026c0c32cfp+9 0x1.55868ae99e75ap+7 "
             "-0x1.6491de563eb6dp+3 0x1.2ad38313b7ddcp+3 0x0.0p+0 -0x0.0p+0 "
             "-0x0.0p+0 -0x0.0p+0 0x0.0p+0 0x1.1b55a73f62012p+1 0x0.0p+0 "
             "0x1.0fccdf0191331p+3"),
            ((b._replace(g_p=b.g_p * 0.6, g_t=b.g_t * 0.7, i_p=b.i_p * 3.0,
                         x_remote=b.x_remote * 2.0, i_sc1=b.i_sc1 * 4.0),
              0.15, 0.0),
             "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.ee210a24cd718p+0 "
             "-0x1.de1f381f8c960p+0 -0x1.644b8729b54ecp+2 0x1.c72d6a79a9ae8p-4 "
             "0x1.c6ac6a30c6bc5p-4 -0x0.0p+0 0x1.20fc7bfbe0de0p+2 "
             "0x1.1594407a38a80p+2 0x1.8788c358f22e8p+2 -0x1.6a667eacc1992p+3"),
        ]
        for (state, u, d), want in cases:
            assert " ".join(hexes(rhs(state, u, d, p))) == want

    def test_pid_episode_trace(self):
        rec = run_pid_episode(COHORT[0], PidGains(kp=0.0009, ki=1e-5, kd=0.001),
                              default_eval_scenarios()[0], eval_noise_stream(0))
        assert rec.T == 960
        assert trace_digest(rec.y_trace) == (
            "80788453a668b79e753149674f22ffea49c67201b26b469e44e3fca2d42e1e57")

    def test_training_reset_cgmetppo_variable_episode_trace(self):
        tr = CgmEtppoTrainer(COHORT[0], RngBundle.from_master(0))
        assert tr.method == "cgmetppo-variable"
        stats = tr.run_episode(0)
        assert (stats.steps, stats.K) == (960, 60)
        assert trace_digest(tr.env.y_trace) == (
            "20008f7652d88a9a6592b8d1a15e141e7f33a836cca0bbfa1a684ba2873b7587")


class TestEquilibriumAndResponse:
    def test_equilibrium_hold_48h_all_patients(self, cohort):
        for p in cohort:
            st = p.basal
            y0 = st.g_sc / p.v_g
            # 2880 one-minute steps at the basal rate, no meals, no noise
            for _ in range(2880):
                st = rk4_step(st, p.u_basal, 0.0, 1.0, p)
                assert abs(st.g_sc / p.v_g - y0) <= 1.0

    def test_full_insulin_monotonically_lowers_cgm(self, cohort):
        # after a transport delay the CGM must fall without rebound
        delay_min = 30
        for p in cohort:
            st = p.basal
            ys = []
            for _ in range(480):
                st = rk4_step(st, 0.15, 0.0, 1.0, p)
                ys.append(st.g_sc / p.v_g)
            tail = np.diff(ys[delay_min:])
            assert (tail <= 1e-9).all(), p.name


class TestCgm:
    def test_conversion_arithmetic(self, nominal):
        st = nominal.basal._replace(g_sc=188.0)
        params = build_patient("conv", dict(NOMINAL_ADULT, v_g=1.88))
        y, noise = cgm_read(st, params, SensorConfig(sigma=0.0), 0.0,
                            np.random.default_rng(0))
        assert y == pytest.approx(100.0)
        assert noise == 0.0

    def test_zero_sigma_is_deterministic(self, nominal):
        rng = np.random.default_rng(1)
        y1, _ = cgm_read(nominal.basal, nominal, SensorConfig(sigma=0.0), 0.0, rng)
        y2, _ = cgm_read(nominal.basal, nominal, SensorConfig(sigma=0.0), 0.0, rng)
        assert y1 == y2 == nominal.basal.g_sc / nominal.v_g

    def test_stationary_noise_std(self, nominal):
        rng = np.random.default_rng(7)
        noise = 0.0
        vals = np.empty(100000)
        sensor = SensorConfig()  # phi = 0.7, sigma = 5
        for i in range(vals.size):
            vals[i], noise = cgm_read(nominal.basal, nominal, sensor, noise, rng)
        assert 4.8 <= vals.std() <= 5.2

    def test_always_consumes_one_draw(self, nominal):
        # stream parity between sigma = 0 and sigma > 0 configurations
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        cgm_read(nominal.basal, nominal, SensorConfig(sigma=0.0), 0.0, rng1)
        cgm_read(nominal.basal, nominal, SensorConfig(sigma=5.0), 0.0, rng2)
        assert rng1.standard_normal() == rng2.standard_normal()


class TestPump:
    def test_interior_passthrough(self):
        assert pump_command(0.07, PumpConfig()) == 0.07

    def test_lower_clamp(self):
        assert pump_command(-0.5, PumpConfig()) == 0.0

    def test_upper_clamp(self):
        assert pump_command(0.3, PumpConfig()) == 0.15

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="invalid-command"):
            pump_command(float("nan"), PumpConfig())
        with pytest.raises(ValueError, match="invalid-command"):
            pump_command(float("inf"), PumpConfig())


def save_cohort(cohort, path):
    """Write a cohort as an INI file, one section per patient: the format
    load_cohort reads."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case
    for p in cohort:
        sec = p.name
        cp.add_section(sec)
        for key in NOMINAL_ADULT:
            cp.set(sec, key, repr(float(getattr(p, key))))
        cp.set(sec, "u_basal", repr(float(p.u_basal)))
        for field, value in zip(PatientState._fields, p.basal):
            cp.set(sec, "basal_" + field, repr(float(value)))
    with open(path, "w") as fh:
        fh.write("# Synthetic patient parameters. One section per patient.\n")
        fh.write("# Keys match PatientParams; basal_* fields give the\n")
        fh.write("# steady state under u_basal, verified at load time.\n")
        cp.write(fh)


class TestCohort:
    def test_ten_patients_named_and_distinct(self, cohort):
        names = [p.name for p in cohort]
        assert len(names) == 10
        assert names[0] == "adult#001"
        assert len(set(names)) == 10

    def test_parameters_within_perturbation_band(self, cohort):
        for p in cohort:
            for key, nominal_value in NOMINAL_ADULT.items():
                v = float(getattr(p, key))
                lo = nominal_value * (1.0 - PERTURB_FRACTION) - 1e-12
                hi = nominal_value * (1.0 + PERTURB_FRACTION) + 1e-12
                assert lo <= v <= hi, (p.name, key)

    def test_each_stored_basal_point_is_steady(self, cohort):
        for p in cohort:
            d = rhs(p.basal, p.u_basal, 0.0, p)
            assert max(abs(v) for v in d) < 1e-9, p.name

    def test_packaged_cohort_list_is_fresh_per_call(self):
        first = default_cohort()
        first.pop()
        first[0] = None
        again = default_cohort()
        assert len(again) == 10 and again[0].name == "adult#001"
        assert again == COHORT and again is not COHORT

    def test_packaged_cohort_is_the_generated_one(self):
        # data/adults.ini is what generate_cohort() builds: dataclass
        # equality compares every field, the basal state included
        assert default_cohort() == generate_cohort()

    def test_generation_is_deterministic(self):
        a = generate_cohort(n=3)
        b = generate_cohort(n=3)
        assert a == b

    def test_ini_round_trip(self, tmp_path, cohort):
        path = tmp_path / "cohort.ini"
        save_cohort(cohort, path)
        back = load_cohort(path)
        assert len(back) == len(cohort)
        for a, b in zip(cohort, back):
            assert a.name == b.name
            assert float(a.u_basal) == float(b.u_basal)
            for key in NOMINAL_ADULT:
                assert float(getattr(a, key)) == float(getattr(b, key))
            for va, vb in zip(a.basal, b.basal):
                assert float(va) == float(vb)

    def test_corrupted_file_refused(self, tmp_path, cohort):
        path = tmp_path / "bad.ini"
        save_cohort(cohort[:1], path)
        text = path.read_text().replace(
            f"u_basal = {float(cohort[0].u_basal)!r}", "u_basal = 0.09"
        )
        path.write_text(text)
        with pytest.raises(ValueError):
            load_cohort(path)
