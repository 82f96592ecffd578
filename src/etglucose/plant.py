"""Virtual patient: glucose-insulin dynamics, CGM sensor, insulin pump.

The plant is a 13-compartment ODE in the style of the UVA/Padova simulator:
a three-compartment oral carbohydrate chain, two glucose masses, a
five-compartment insulin subsystem (two subcutaneous depots, plasma, liver,
remote action), a two-stage delayed insulin signal acting on endogenous
glucose production, and a lagged subcutaneous glucose compartment that the
CGM samples. All dynamics are linear in the state except one bilinear
insulin-action term x_remote * g_p.

Units: q_* mg; g_p, g_t, g_sc mg/kg; insulin compartments pmol/kg;
u U/min; d mg/min; CGM output mg/dL; time minutes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np


class PlantDivergedError(RuntimeError):
    """Raised when the plant state or inputs stop being finite."""


class PatientState(NamedTuple):
    """One plant state. Field order is fixed and part of the file formats."""

    q_sto1: float  # stomach, solid phase [mg]
    q_sto2: float  # stomach, liquid phase [mg]
    q_gut: float  # gut [mg]
    g_p: float  # plasma glucose [mg/kg]
    g_t: float  # slowly-equilibrating tissue glucose [mg/kg]
    i_p: float  # plasma insulin [pmol/kg]
    x_remote: float  # remote insulin action [pmol/kg]
    i_1: float  # delayed insulin signal, stage 1 [pmol/kg]
    i_d: float  # delayed insulin signal, stage 2 [pmol/kg]
    i_l: float  # liver insulin [pmol/kg]
    i_sc1: float  # subcutaneous insulin, depot 1 [pmol/kg]
    i_sc2: float  # subcutaneous insulin, depot 2 [pmol/kg]
    g_sc: float  # subcutaneous glucose [mg/kg]


@dataclass(frozen=True, slots=True)
class PatientParams:
    """Parameter set of one synthetic patient, including its basal point.

    The basal fields describe the steady state of the ODE under constant
    u = u_basal and d = 0; loaders verify this invariant numerically.
    """

    name: str
    bw: float  # body weight [kg]
    v_g: float  # glucose distribution volume [dL/kg]
    f_abs: float  # fraction of absorbed carbohydrate reaching plasma
    u_ii: float  # insulin-independent glucose utilization [mg/kg/min]
    k_gri: float  # stomach grinding rate [1/min]
    k_empt: float  # gastric emptying rate [1/min]
    k_abs: float  # intestinal absorption rate [1/min]
    k_p1: float  # endogenous production at zero glucose/insulin [mg/kg/min]
    k_p2: float  # production sensitivity to plasma glucose [1/min]
    k_p3: float  # production sensitivity to delayed insulin [mg/kg/min per pmol/kg]
    k_x: float  # insulin-dependent utilization gain [1/min per pmol/kg]
    k_1: float  # glucose exchange plasma -> tissue [1/min]
    k_2: float  # glucose exchange tissue -> plasma [1/min]
    k_i: float  # delayed insulin signal rate [1/min]
    k_sc: float  # subcutaneous glucose equilibration rate [1/min]
    k_d: float  # subcutaneous depot 1 -> 2 transfer [1/min]
    k_a1: float  # absorption from depot 1 [1/min]
    k_a2: float  # absorption from depot 2 [1/min]
    m_1: float  # insulin flux liver -> plasma [1/min]
    m_2: float  # insulin flux plasma -> liver [1/min]
    m_3: float  # hepatic insulin degradation [1/min]
    m_4: float  # peripheral insulin degradation [1/min]
    p_2u: float  # remote insulin action rate [1/min]
    u_basal: float  # basal pump rate [U/min]
    y_basal: float  # basal CGM level [mg/dL]
    basal: PatientState
    # The parameter tuple _derivs reads, built once from the fields above.
    coeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coeffs(self))


@dataclass(frozen=True)
class SensorConfig:
    """CGM noise model: stationary AR(1) added to the true reading."""

    phi: float = 0.7  # AR(1) coefficient
    sigma: float = 5.0  # stationary standard deviation [mg/dL]
    # Standard deviation of the AR(1) innovation, sigma * sqrt(1 - phi^2).
    innovation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not abs(self.phi) < 1.0:
            raise ValueError("phi must lie strictly between -1 and 1")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
        object.__setattr__(self, "innovation",
                           self.sigma * math.sqrt(1.0 - self.phi**2))


@dataclass(frozen=True)
class PumpConfig:
    """Pump actuation limits [U/min]."""

    u_min: float = 0.0
    u_max: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.u_max < math.inf:
            raise ValueError("u_max must be finite and positive")
        if not 0.0 <= self.u_min <= self.u_max:
            raise ValueError("u_min must lie in [0, u_max]")


# 1 U of insulin = 6000 pmol.
PMOL_PER_UNIT = 6000.0

_new_state = tuple.__new__  # PatientState from a 13-tuple, without _make's checks


def _coeffs(p: PatientParams) -> tuple:
    """The parameter tuple _derivs reads, built once per PatientParams.

    Only parameter-only subexpressions that Python evaluates before any
    state term are folded in, so every derivative rounds exactly as it
    would with the parameters written inline. That includes the unary
    minus of -k * x, which Python evaluates as (-k) * x.
    """
    return (
        -p.k_gri, p.k_gri, p.k_empt, p.k_abs, p.f_abs * p.k_abs, p.bw,
        p.k_p1, p.k_p2, p.k_p3, p.u_ii, p.k_1, p.k_2, p.k_x,
        -(p.m_2 + p.m_4), p.m_1, p.m_2, p.m_1 + p.m_3,
        p.k_a1, p.k_a2, -p.p_2u, -p.k_i,
        -(p.k_d + p.k_a1), p.k_d, -p.k_sc,
    )


def _derivs(q_sto1, q_sto2, q_gut, g_p, g_t, i_p, x_remote,
            i_1, i_d, i_l, i_sc1, i_sc2, g_sc, u, d, c):
    """The plant dynamics, written once; c is PatientParams.coeffs."""
    probe = (q_sto1 + q_sto2 + q_gut + g_p + g_t + i_p + x_remote
             + i_1 + i_d + i_l + i_sc1 + i_sc2 + g_sc + u + d)
    if not math.isfinite(probe):
        raise PlantDivergedError("plant-diverged: non-finite state or input")

    (neg_kgri, k_gri, k_empt, k_abs, fk_abs, bw, k_p1, k_p2, k_p3, u_ii, k_1,
     k_2, k_x, neg_m24, m_1, m_2, m_13, k_a1, k_a2, neg_p2u, neg_ki, neg_kda1,
     k_d, neg_ksc) = c
    ra = fk_abs * q_gut / bw
    egp = k_p1 - k_p2 * g_p - k_p3 * i_d
    r_iu = PMOL_PER_UNIT * u / bw

    return (
        neg_kgri * q_sto1 + d,
        k_gri * q_sto1 - k_empt * q_sto2,
        k_empt * q_sto2 - k_abs * q_gut,
        egp + ra - u_ii - k_1 * g_p + k_2 * g_t - k_x * x_remote * g_p,
        k_1 * g_p - k_2 * g_t,
        neg_m24 * i_p + m_1 * i_l + k_a1 * i_sc1 + k_a2 * i_sc2,
        neg_p2u * (x_remote - i_p),
        neg_ki * (i_1 - i_p),
        neg_ki * (i_d - i_1),
        m_2 * i_p - m_13 * i_l,
        neg_kda1 * i_sc1 + r_iu,
        k_d * i_sc1 - k_a2 * i_sc2,
        neg_ksc * (g_sc - g_p),
    )


def rhs(state: Sequence[float], u: float, d: float, params: PatientParams) -> tuple:
    """Time derivative of the plant state.

    u is the pump rate [U/min] and d the carbohydrate delivery rate
    [mg/min], both held constant over the evaluation (zero-order hold).
    A thin wrapper over the one derivative routine that rk4_step also uses.
    """
    return _derivs(*state, u, d, params.coeffs)


def rk4_update(f: Callable[[tuple], tuple], x: Sequence[float], dt: float) -> tuple:
    """One classical fourth-order Runge-Kutta step of x' = f(x).

    Works on plain tuples of floats so it can integrate any small system,
    not just the plant. It is the generic reference integrator; the plant
    itself is stepped by rk4_step.
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


def rk4_step(
    state: PatientState, u: float, d: float, dt: float, params: PatientParams
) -> PatientState:
    """Advance the plant by dt minutes under constant (u, d).

    Compartments are clamped to be non-negative after the step; the clamp
    guards against integrator overshoot near zero, not against instability.

    The step is rk4_update over rhs, unrolled over the 13 compartments:
    the same derivative routine, the same operations in the same order and
    the same finiteness check at every stage, so its result is bit-identical
    to clamping rk4_update(lambda s: rhs(s, u, d, params), state, dt).
    """
    c = params.coeffs
    (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12) = state
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12) = _derivs(
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, u, d, c)
    h = 0.5 * dt
    (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12) = _derivs(
        x0 + h * a0, x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4,
        x5 + h * a5, x6 + h * a6, x7 + h * a7, x8 + h * a8, x9 + h * a9,
        x10 + h * a10, x11 + h * a11, x12 + h * a12, u, d, c)
    (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12) = _derivs(
        x0 + h * b0, x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4,
        x5 + h * b5, x6 + h * b6, x7 + h * b7, x8 + h * b8, x9 + h * b9,
        x10 + h * b10, x11 + h * b11, x12 + h * b12, u, d, c)
    (e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12) = _derivs(
        x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4,
        x5 + dt * c5, x6 + dt * c6, x7 + dt * c7, x8 + dt * c8, x9 + dt * c9,
        x10 + dt * c10, x11 + dt * c11, x12 + dt * c12, u, d, c)
    s = dt / 6.0
    v0 = x0 + s * (a0 + 2.0 * (b0 + c0) + e0)
    v1 = x1 + s * (a1 + 2.0 * (b1 + c1) + e1)
    v2 = x2 + s * (a2 + 2.0 * (b2 + c2) + e2)
    v3 = x3 + s * (a3 + 2.0 * (b3 + c3) + e3)
    v4 = x4 + s * (a4 + 2.0 * (b4 + c4) + e4)
    v5 = x5 + s * (a5 + 2.0 * (b5 + c5) + e5)
    v6 = x6 + s * (a6 + 2.0 * (b6 + c6) + e6)
    v7 = x7 + s * (a7 + 2.0 * (b7 + c7) + e7)
    v8 = x8 + s * (a8 + 2.0 * (b8 + c8) + e8)
    v9 = x9 + s * (a9 + 2.0 * (b9 + c9) + e9)
    v10 = x10 + s * (a10 + 2.0 * (b10 + c10) + e10)
    v11 = x11 + s * (a11 + 2.0 * (b11 + c11) + e11)
    v12 = x12 + s * (a12 + 2.0 * (b12 + c12) + e12)
    return _new_state(PatientState, (
        v0 if v0 > 0.0 else 0.0, v1 if v1 > 0.0 else 0.0,
        v2 if v2 > 0.0 else 0.0, v3 if v3 > 0.0 else 0.0,
        v4 if v4 > 0.0 else 0.0, v5 if v5 > 0.0 else 0.0,
        v6 if v6 > 0.0 else 0.0, v7 if v7 > 0.0 else 0.0,
        v8 if v8 > 0.0 else 0.0, v9 if v9 > 0.0 else 0.0,
        v10 if v10 > 0.0 else 0.0, v11 if v11 > 0.0 else 0.0,
        v12 if v12 > 0.0 else 0.0,
    ))


def cgm_read(
    state: PatientState,
    params: PatientParams,
    sensor: SensorConfig,
    noise: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Sample the CGM: y = g_sc / v_g + AR(1) noise.

    The noise state advances first and the fresh value is what the sensor
    reports, so the very first read after a reset is already noisy. One
    normal variate is consumed per read even when sigma = 0, keeping RNG
    stream consumption independent of the noise configuration.
    """
    w = rng.standard_normal() * sensor.innovation
    noise_next = sensor.phi * noise + w
    y = state.g_sc / params.v_g + noise_next
    return y, noise_next


def pump_command(u: float, pump: PumpConfig) -> float:
    """Clamp a requested rate to the pump's actuation range."""
    if not math.isfinite(u):
        raise ValueError("invalid-command: pump rate must be finite")
    return min(max(u, pump.u_min), pump.u_max)
