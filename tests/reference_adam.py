"""Adam as it was before the actor and critic shared one state.

Each network had its own state, with one m and one v array per parameter,
and the step ran array by array: it checked every gradient for
finiteness, created the accumulators on the first call, then updated each
parameter in turn. Kept as the reference the fused neural.adam_step must
reproduce bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from etglucose.neural import DivergedUpdateError


@dataclass
class PerArrayState:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


def per_array_adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], opt: PerArrayState
) -> None:
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise DivergedUpdateError("diverged-update: non-finite gradient")
    if not opt.m:
        opt.m = [np.zeros_like(p) for p in params]
        opt.v = [np.zeros_like(p) for p in params]
    opt.t += 1
    bc1 = 1.0 - opt.beta1**opt.t
    bc2 = 1.0 - opt.beta2**opt.t
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
