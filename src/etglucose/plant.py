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

import linecache
import math
import re
from dataclasses import dataclass, field, fields as dataclass_fields
from math import isfinite
from typing import NamedTuple

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
    # The folded constants of _COEFFS and the fields the dynamics read,
    # built once from the fields above.
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
    """Pump ceiling [U/min]; the floor is 0."""

    u_max: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.u_max < math.inf:
            raise ValueError("u_max must be finite and positive")


# 1 U of insulin = 6000 pmol.
PMOL_PER_UNIT = 6000.0

_new_state = tuple.__new__  # PatientState from a 13-tuple, without _make's checks


# The plant model, written once. _coeffs, rhs and rk4_step are generated
# from these four tables when the module is imported (see
# _generated_source), so the scalar step and rhs cannot drift apart.
#
# _COEFFS: the per-patient constants folded from PatientParams fields,
# each as an expression of the PatientParams p; a field the tables name
# directly is read from p as it is. Only parameter-only subexpressions
# that Python evaluates before any state term are folded in, so every
# derivative rounds exactly as it would with the parameters written
# inline. That includes the unary minus of -k * x, which Python evaluates
# as (-k) * x.
_COEFFS = (
    ("neg_k_gri", "-p.k_gri"),
    ("fk_abs", "p.f_abs * p.k_abs"),
    ("neg_m_24", "-(p.m_2 + p.m_4)"),
    ("m_13", "p.m_1 + p.m_3"),
    ("neg_p_2u", "-p.p_2u"),
    ("neg_k_i", "-p.k_i"),
    ("neg_k_da1", "-(p.k_d + p.k_a1)"),
    ("neg_k_sc", "-p.k_sc"),
)
# Terms of the inputs alone, the same at every RK4 stage: the pump rate as
# an insulin flux into the first subcutaneous depot [pmol/kg/min].
_INPUT_TERMS = (
    ("r_iu", "PMOL_PER_UNIT * u / bw"),
)
# Subexpressions of the state that several derivatives share.
_SHARED_TERMS = (
    ("ra", "fk_abs * q_gut / bw"),  # glucose appearance from the gut
    ("egp", "k_p1 - k_p2 * g_p - k_p3 * i_d"),  # endogenous production
)
# d/dt of each compartment, in PatientState order.
_DYNAMICS = (
    ("q_sto1", "neg_k_gri * q_sto1 + d"),
    ("q_sto2", "k_gri * q_sto1 - k_empt * q_sto2"),
    ("q_gut", "k_empt * q_sto2 - k_abs * q_gut"),
    ("g_p", "egp + ra - u_ii - k_1 * g_p + k_2 * g_t - k_x * x_remote * g_p"),
    ("g_t", "k_1 * g_p - k_2 * g_t"),
    ("i_p", "neg_m_24 * i_p + m_1 * i_l + k_a1 * i_sc1 + k_a2 * i_sc2"),
    ("x_remote", "neg_p_2u * (x_remote - i_p)"),
    ("i_1", "neg_k_i * (i_1 - i_p)"),
    ("i_d", "neg_k_i * (i_d - i_1)"),
    ("i_l", "m_2 * i_p - m_13 * i_l"),
    ("i_sc1", "neg_k_da1 * i_sc1 + r_iu"),
    ("i_sc2", "k_d * i_sc1 - k_a2 * i_sc2"),
    ("g_sc", "neg_k_sc * (g_sc - g_p)"),
)

_RK4_STEP_DOC = """Advance the plant by dt minutes under constant (u, d).

    Compartments are clamped to be non-negative after the step; the clamp
    guards against integrator overshoot near zero, not against instability.

    Classical fourth-order Runge-Kutta with its four stages unrolled over
    the 13 compartments, generated from plant._DYNAMICS. Each stage runs
    the same finiteness check and the same operations in the same order as
    a call of rhs, and the stages combine as the textbook update
    x + dt/6 * (k1 + 2 * (k2 + k3) + k4), so the result is bit-identical
    to the generic integrator over rhs followed by the clamp.
    """
_RHS_DOC = """Time derivative of the plant state.

    u is the pump rate [U/min] and d the carbohydrate delivery rate
    [mg/min], both held constant over the evaluation (zero-order hold).
    Generated from plant._DYNAMICS, with the same header as rk4_step.
    """
_GENERATED_FILE = "<etglucose.plant: generated from _DYNAMICS>"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _generated_source() -> str:
    """Python source of _coeffs, rhs and rk4_step, built from the tables."""
    fields = tuple(name for name, _ in _DYNAMICS)
    if fields != PatientState._fields:
        raise RuntimeError("_DYNAMICS must list the PatientState fields in order")
    # The folded constants, then each field the tables name, in field order.
    named = set(_IDENTIFIER.findall(
        " ".join(expr for _, expr in (*_INPUT_TERMS, *_SHARED_TERMS, *_DYNAMICS))))
    coeffs = _COEFFS + tuple((f.name, f"p.{f.name}")
                             for f in dataclass_fields(PatientParams) if f.name in named)
    header = [
        f"    ({', '.join(name for name, _ in coeffs)}) = params.coeffs",
        f"    ({', '.join(fields)}) = state",
        *[f"    {name} = {expr}" for name, expr in _INPUT_TERMS],
    ]

    def evaluate(x: dict, k: str) -> list[str]:
        """One evaluation of the dynamics at the state named by x.

        The probe sums every state and input, so any non-finite value, or
        an overflow of the sum, stops the step before it is used.
        """
        def at(expr):
            return _IDENTIFIER.sub(lambda m: x.get(m[0], m[0]), expr)

        probe = " + ".join(x[f] for f in fields)
        return [
            f"if not isfinite({probe} + u + d):",
            '    raise PlantDivergedError("plant-diverged: non-finite state or input")',
            *[f"{name} = {at(expr)}" for name, expr in _SHARED_TERMS],
            *[f"{k}{f} = {at(expr)}" for f, expr in _DYNAMICS],
        ]

    def body(lines):
        return [f"    {line}" for line in lines]

    plain = {f: f for f in fields}
    src = [
        "def _coeffs(p):",
        '    """PatientParams.coeffs: the _COEFFS constants, then the fields read."""',
        "    return (",
        *[f"        {expr},  # {name}" for name, expr in coeffs],
        "    )",
        "",
        "",
        "def rhs(state, u, d, params):",
        f'    """{_RHS_DOC}"""',
        *header,
        *body(evaluate(plain, "f_")),
        f"    return ({', '.join(f'f_{f}' for f in fields)})",
        "",
        "",
        "def rk4_step(state, u, d, dt, params):",
        f'    """{_RK4_STEP_DOC}"""',
        *header,
        "    # k1 = f(x)",
        *body(evaluate(plain, "k1_")),
        "    h = 0.5 * dt",
    ]
    for stage, step in ((2, "h"), (3, "h"), (4, "dt")):
        x = {f: f"s{stage}_{f}" for f in fields}
        src += [
            f"    # k{stage} = f(x + {step} * k{stage - 1})",
            *[f"    {x[f]} = {f} + {step} * k{stage - 1}_{f}" for f in fields],
            *body(evaluate(x, f"k{stage}_")),
        ]
    src += [
        "    sixth = dt / 6.0",
        *[f"    n_{f} = {f} + sixth * (k1_{f} + 2.0 * (k2_{f} + k3_{f}) + k4_{f})"
          for f in fields],
        "    return _new_state(PatientState, (",
        *[f"        n_{f} if n_{f} > 0.0 else 0.0," for f in fields],
        "    ))",
    ]
    return "\n".join(src) + "\n"


def _compile_generated() -> dict:
    """Compile the generated functions against this module's globals.

    The source is registered in linecache under _GENERATED_FILE, so
    tracebacks, inspect.getsource and profilers show its lines.
    """
    src = _generated_source()
    linecache.cache[_GENERATED_FILE] = (
        len(src), None, src.splitlines(True), _GENERATED_FILE)
    namespace: dict = {}
    exec(compile(src, _GENERATED_FILE, "exec"), globals(), namespace)
    return namespace


_generated = _compile_generated()
_coeffs = _generated["_coeffs"]
rhs = _generated["rhs"]
rk4_step = _generated["rk4_step"]
del _generated


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
    """Clamp a requested rate to the pump's actuation range [0, u_max]."""
    if not math.isfinite(u):
        raise ValueError("invalid-command: pump rate must be finite")
    return min(max(u, 0.0), pump.u_max)
