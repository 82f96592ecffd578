"""Synthetic patient cohort: nominal calibration, generation, file I/O.

Patients are generated by multiplicative +/-15% perturbation of a
hand-calibrated nominal adult. For each draw the basal operating point is
solved in closed form from the steady-state equations (the subcutaneous
insulin chain passes all infused insulin to plasma at equilibrium, which
collapses the insulin subsystem to one linear relation), then verified by
evaluating the full right-hand side. Draws that land outside the sane
operating envelope (basal rate too close to the pump limits, hypoglycemia
unreachable, zero-insulin equilibrium implausible) are rejected and
redrawn, so every shipped patient is controllable by construction.
"""
from __future__ import annotations

import configparser
import functools
import importlib.resources
import math
from pathlib import Path

import numpy as np

from .env import HYPO_MGDL
from .plant import (
    PMOL_PER_UNIT,
    PatientParams,
    PatientState,
    PumpConfig,
    rhs,
)
from .seeding import named_stream

# Hand-calibrated nominal adult. Rates per minute.
NOMINAL_ADULT: dict[str, float] = {
    "bw": 70.0,
    "v_g": 1.88,
    "f_abs": 0.55,
    "u_ii": 1.0,
    "k_gri": 0.045,
    "k_empt": 0.045,
    "k_abs": 0.012,
    "k_p1": 6.64,
    "k_p2": 0.006,
    "k_p3": 0.2,
    "k_x": 0.00196,
    "k_1": 0.065,
    "k_2": 0.079,
    "k_i": 0.01,
    "k_sc": 0.1,
    "k_d": 0.025,
    "k_a1": 0.004,
    "k_a2": 0.025,
    "m_1": 0.19,
    "m_2": 0.484,
    "m_3": 0.285,
    "m_4": 0.194,
    "p_2u": 0.025,
    "y_basal": 130.0,
}

PERTURB_FRACTION = 0.15
DEFAULT_COHORT_SEED = 7130
DEFAULT_COHORT_SIZE = 10

# Constants perturbed per patient, in fixed draw order.
_PERTURBED_KEYS = tuple(sorted(NOMINAL_ADULT))

_STATE_PREFIX = "basal_"


def _insulin_denominator(c: dict[str, float]) -> float:
    # Plasma insulin at equilibrium satisfies i_p * denom = infusion rate.
    return c["m_2"] + c["m_4"] - c["m_1"] * c["m_2"] / (c["m_1"] + c["m_3"])


def plasma_insulin_for_glucose(c: dict[str, float], g_p: float) -> float:
    """Equilibrium plasma insulin that holds plasma glucose at g_p."""
    return (c["k_p1"] - c["u_ii"] - c["k_p2"] * g_p) / (c["k_p3"] + c["k_x"] * g_p)


def pump_rate_for_glucose(c: dict[str, float], y: float) -> float:
    """Constant pump rate whose equilibrium CGM level is y."""
    i_p = plasma_insulin_for_glucose(c, y * c["v_g"])
    return i_p * _insulin_denominator(c) * c["bw"] / PMOL_PER_UNIT


def steady_state(c: dict[str, float], u_basal: float) -> PatientState:
    """Closed-form equilibrium of the plant under (u_basal, d = 0)."""
    r = PMOL_PER_UNIT * u_basal / c["bw"]
    i_sc1 = r / (c["k_d"] + c["k_a1"])
    i_sc2 = c["k_d"] * i_sc1 / c["k_a2"]
    i_p = r / _insulin_denominator(c)
    i_l = c["m_2"] * i_p / (c["m_1"] + c["m_3"])
    g_p = (c["k_p1"] - c["u_ii"] - c["k_p3"] * i_p) / (c["k_p2"] + c["k_x"] * i_p)
    g_t = c["k_1"] * g_p / c["k_2"]
    return PatientState(
        q_sto1=0.0, q_sto2=0.0, q_gut=0.0,
        g_p=g_p, g_t=g_t,
        i_p=i_p, x_remote=i_p, i_1=i_p, i_d=i_p, i_l=i_l,
        i_sc1=i_sc1, i_sc2=i_sc2,
        g_sc=g_p,
    )


def equilibrium_glucose(c: dict[str, float], u: float) -> float:
    """Equilibrium CGM level under constant pump rate u and no meals."""
    return steady_state(c, u).g_p / c["v_g"]


def build_patient(name: str, c: dict[str, float]) -> PatientParams:
    """Assemble a PatientParams from constants, solving the basal point."""
    u_basal = pump_rate_for_glucose(c, c["y_basal"])
    basal = steady_state(c, u_basal)
    params = PatientParams(
        name=name,
        u_basal=u_basal,
        basal=basal,
        **{k: c[k] for k in NOMINAL_ADULT},
    )
    check_steady_state(params)
    return params


def check_steady_state(params: PatientParams, tol: float = 1e-9) -> None:
    """Verify the stored basal point really is an equilibrium."""
    derivs = rhs(params.basal, params.u_basal, 0.0, params)
    worst = max(abs(v) for v in derivs)
    if worst > tol:
        raise ValueError(
            f"basal state of {params.name} fails steady-state check: "
            f"max |rhs| = {worst:.3e} > {tol:.1e}"
        )


def _envelope_ok(c: dict[str, float], pump: PumpConfig) -> bool:
    """Operating-envelope gates applied to each perturbation draw."""
    if any(v <= 0.0 for v in c.values()) or c["f_abs"] > 1.0:
        return False
    if _insulin_denominator(c) <= 0.0:
        return False
    u_basal = pump_rate_for_glucose(c, c["y_basal"])
    if not 0.1 * pump.u_max <= u_basal <= 0.5 * pump.u_max:
        return False
    # Hypoglycemia must be reachable with sustained insulin inside the
    # pump range, with some margin.
    if pump_rate_for_glucose(c, HYPO_MGDL) > 0.95 * pump.u_max:
        return False
    # Neglecting insulin entirely should settle high but short of the
    # hyperglycemic termination bound; meals provide the rest.
    y_zero = equilibrium_glucose(c, 0.0)
    if not 380.0 <= y_zero <= 560.0:
        return False
    return True


def generate_cohort(
    n: int = DEFAULT_COHORT_SIZE,
    seed: int = DEFAULT_COHORT_SEED,
    pump: PumpConfig | None = None,
) -> list[PatientParams]:
    """Generate n validated synthetic adults, deterministically from seed."""
    pump = pump or PumpConfig()
    rng = named_stream(seed, "cohort")
    cohort = []
    for idx in range(1, n + 1):
        for _ in range(1000):
            factors = 1.0 + rng.uniform(
                -PERTURB_FRACTION, PERTURB_FRACTION, size=len(_PERTURBED_KEYS)
            )
            c = {
                k: NOMINAL_ADULT[k] * f
                for k, f in zip(_PERTURBED_KEYS, factors)
            }
            if _envelope_ok(c, pump):
                cohort.append(build_patient(f"adult#{idx:03d}", c))
                break
        else:
            raise RuntimeError(f"no valid perturbation found for patient {idx}")
    return cohort


def load_cohort(path: str | Path) -> list[PatientParams]:
    """Load a cohort file, verifying each stored basal point."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as fh:
        cp.read_file(fh)
    cohort = []
    for sec in cp.sections():
        try:
            c = {k: float(cp.get(sec, k)) for k in NOMINAL_ADULT}
            u_basal = float(cp.get(sec, "u_basal"))
            basal = PatientState(*(
                float(cp.get(sec, _STATE_PREFIX + f)) for f in PatientState._fields
            ))
        except (configparser.NoOptionError, ValueError) as exc:
            raise ValueError(f"patient file {path}: bad section {sec}: {exc}") from exc
        params = PatientParams(name=sec, u_basal=u_basal, basal=basal,
                               **{k: c[k] for k in NOMINAL_ADULT})
        check_steady_state(params)
        cohort.append(params)
    if not cohort:
        raise ValueError(f"patient file {path} contains no patients")
    return cohort


@functools.cache
def _packaged_cohort() -> tuple[PatientParams, ...]:
    ref = importlib.resources.files("etglucose").joinpath("data/adults.ini")
    with importlib.resources.as_file(ref) as path:
        return tuple(load_cohort(path))


def default_cohort() -> list[PatientParams]:
    """The cohort shipped with the package.

    The file is parsed and verified once per process; each call returns a
    fresh list of the same frozen patients.
    """
    return list(_packaged_cohort())


def get_patient(name: str, cohort: list[PatientParams] | None = None) -> PatientParams:
    cohort = cohort if cohort is not None else default_cohort()
    for p in cohort:
        if p.name == name:
            return p
    known = ", ".join(p.name for p in cohort)
    raise KeyError(f"unknown patient {name!r}; known: {known}")
