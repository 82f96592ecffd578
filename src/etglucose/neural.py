"""Minimal differentiable stack for the trainers.

Two-hidden-layer tanh MLPs with exact reverse-mode gradients, one Gaussian
policy type with a state-independent log-std parameter, Gaussian and
Bernoulli log-probabilities, and a bias-corrected Adam optimizer.
Everything is float64 numpy; gradients are hand-derived and verified
against central finite differences in the test suite.
"""
from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_HIDDEN = (64, 64)
INIT_LOG_STD = math.log(0.5)  # normalized action space
HIDDEN_GAIN = math.sqrt(2.0)
POLICY_OUT_GAIN = 0.01
VALUE_OUT_GAIN = 1.0
# Adam's standard moment decays and denominator floor (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergedUpdateError(RuntimeError):
    """Raised when an optimizer step sees non-finite gradients."""


def orthogonal_init(n_in: int, n_out: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal-style init: QR of a Gaussian matrix, sign-fixed, scaled."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    q = q * d
    if n_in < n_out:
        q = q.T
    return gain * q[:n_in, :n_out]


@dataclass
class Mlp:
    """Fully connected net, tanh hidden layers, linear output.

    Weights are (n_in, n_out) matrices; forward takes (batch, n_in).
    """

    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(
        cls,
        sizes: tuple[int, ...],
        rng: np.random.Generator,
        out_gain: float = VALUE_OUT_GAIN,
    ) -> "Mlp":
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        weights, biases = [], []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            gain = out_gain if i == len(sizes) - 2 else HIDDEN_GAIN
            weights.append(orthogonal_init(a, b, gain, rng))
            biases.append(np.zeros(b))
        return cls(tuple(sizes), weights, biases)

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping the activations needed for backward."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(
                f"input shape {x.shape} does not match net input size {self.sizes[0]}"
            )
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.tanh(z)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Gradients of sum(dout * output) w.r.t. params(), same order."""
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        delta = np.asarray(dout, dtype=float)
        for i in range(len(self.weights) - 1, -1, -1):
            h_in = acts[i]
            grads[2 * i] = h_in.T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return grads


def gaussian_logprob_entropy(
    mean: np.ndarray, log_std: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, float]:
    """Diagonal-Gaussian log-probability (summed over dims) and entropy.

    mean, a: (batch, k); log_std: (k,). The entropy does not depend on the
    state, so a single scalar is returned.
    """
    z = (a - mean) * np.exp(-log_std)
    logp = -0.5 * (z * z).sum(axis=-1) - log_std.sum() - 0.5 * LOG_2PI * log_std.size
    entropy = float((0.5 * (LOG_2PI + 1.0) + log_std).sum())
    return logp, entropy


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def bernoulli_logprob_entropy(
    logit: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli log-probability of e under sigmoid(logit), and entropy.

    Computed in log-sigmoid form: log p = -softplus(-logit),
    log(1-p) = -softplus(logit).
    """
    e = np.asarray(e, dtype=float)
    logp = -np.where(e == 1.0, softplus(-logit), softplus(logit))
    p = sigmoid(logit)
    entropy = softplus(logit) - logit * p
    return logp, entropy


@dataclass
class OptimizerState:
    """Adam over one learner: its accumulators are flat over the actor's
    parameters, then the critic's, and are created lazily on the first step."""

    lr: float = 3e-4
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], opt: OptimizerState
) -> None:
    """One bias-corrected Adam step over all of params, updating them in place.

    Adam is elementwise, so a step over the concatenated parameters is the
    per-array step bit for bit. Non-finite gradients raise before anything
    moves.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    g = np.concatenate(grads, axis=None)
    if not np.isfinite(g).all():
        raise DivergedUpdateError("diverged-update: non-finite gradient")
    if opt.m is None:
        opt.m = np.zeros_like(g)
        opt.v = np.zeros_like(g)
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1**opt.t
    bc2 = 1.0 - ADAM_BETA2**opt.t
    m, v = opt.m, opt.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    step = opt.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    start = 0
    for p in params:
        stop = start + p.size
        p -= step[start:stop].reshape(p.shape)
        start = stop


@dataclass
class GaussianPolicy:
    """MLP means with a free per-dimension log-std, for every method.

    The net's first len(log_std) outputs are the Gaussian means; a further
    output is its method's own (hetppo's second output is its event logit).
    """

    net: Mlp
    log_std: np.ndarray

    @classmethod
    def create(
        cls,
        n_obs: int,
        n_out: int,
        n_std: int,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    ) -> "GaussianPolicy":
        net = Mlp.create((n_obs, *hidden, n_out), rng, out_gain=POLICY_OUT_GAIN)
        return cls(net, np.full(n_std, INIT_LOG_STD))

    def params(self) -> list[np.ndarray]:
        return self.net.params() + [self.log_std]

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Sample one unsquashed action for a single observation vector,
        for a policy whose every output is a mean."""
        mean = self.net.forward(x[None, :])[0]
        a = mean + np.exp(self.log_std) * rng.standard_normal(self.log_std.size)
        logp, _ = gaussian_logprob_entropy(mean[None, :], self.log_std, a[None, :])
        return a, float(logp[0])


# ---------------------------------------------------------------------------
# Checkpoints: flat .npz with a format version, a method tag, every
# parameter array, and the optimizer accumulators. Keys are documented in
# the README.

CHECKPOINT_VERSION = 1


def pack_mlp(prefix: str, mlp: Mlp) -> dict[str, np.ndarray]:
    out = {f"{prefix}_sizes": np.asarray(mlp.sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}_W{i}"] = w
        out[f"{prefix}_b{i}"] = b
    return out


def whole(data: dict, key: str, ndim: int = 0):
    """data[key] as an int (ndim 0) or a list of ints (ndim 1). Refuses,
    with a ValueError naming key, any other shape and any entry that is not
    a finite whole number."""
    arr = np.asarray(data[key])
    if (arr.ndim != ndim or arr.dtype.kind not in "iuf"
            or not np.all(np.isfinite(arr) & (arr == np.trunc(arr)))):
        kind = "an integer" if ndim == 0 else "a list of integers"
        raise ValueError(f"{key} must be {kind}, got {arr.tolist()!r}")
    return arr.astype(np.int64).tolist()


def unpack_mlp(prefix: str, data: dict) -> Mlp:
    """The Mlp pack_mlp wrote under prefix. Refuses, with a ValueError, sizes
    that are not whole numbers, sizes without an input and an output, and a
    W<i> or b<i> whose shape is not (sizes[i], sizes[i+1]) or (sizes[i+1],)."""
    sizes = tuple(whole(data, f"{prefix}_sizes", ndim=1))
    if len(sizes) < 2:
        raise ValueError(f"{prefix}_sizes {list(sizes)} needs input and output sizes")
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        for key, want, arrays in (("W", (n_in, n_out), weights),
                                  ("b", (n_out,), biases)):
            arr = np.array(data[f"{prefix}_{key}{i}"], dtype=float)
            if arr.shape != want:
                raise ValueError(f"{prefix}_{key}{i} has shape {arr.shape}, "
                                 f"expected {want}")
            arrays.append(arr)
    return Mlp(sizes, weights, biases)


def pack_opt(
    opt: OptimizerState, groups: dict[str, list[np.ndarray]]
) -> dict[str, np.ndarray]:
    """The optimizer's checkpoint arrays, one key set per parameter group.

    groups maps each prefix to its parameters, in the order the flat
    accumulators run; each prefix gets the step count, the learning rate and
    its slice of m and v, one array per parameter in that parameter's memory
    order (a transposed init leaves some weights Fortran-ordered), so the
    file bytes are those of per-array accumulators.
    """
    out = {}
    start = 0
    for prefix, params in groups.items():
        out[f"{prefix}_t"] = np.asarray(opt.t, dtype=np.int64)
        out[f"{prefix}_lr"] = np.asarray(opt.lr)
        n = 0 if opt.m is None else len(params)
        out[f"{prefix}_n"] = np.asarray(n, dtype=np.int64)
        for i, p in enumerate(params[:n]):
            stop = start + p.size
            for acc in ("m", "v"):
                arr = out[f"{prefix}_{acc}{i}"] = np.empty_like(p)
                arr[...] = getattr(opt, acc)[start:stop].reshape(p.shape)
            start = stop
    return out


def unpack_opt(data: dict, prefixes: tuple[str, ...]) -> OptimizerState:
    """One optimizer state from the key sets pack_opt wrote under prefixes.

    Refuses groups with different step counts: a checkpoint from when each
    network had its own state has them after an update that stepped the
    actor and then diverged on the critic.
    """
    ts = {int(data[f"{p}_t"]) for p in prefixes}
    ns = [int(data[f"{p}_n"]) for p in prefixes]
    if len(ts) != 1:
        raise ValueError(f"optimizer step counts {sorted(ts)} differ across groups")
    opt = OptimizerState(lr=float(data[f"{prefixes[0]}_lr"]), t=ts.pop())
    if any(ns):
        for acc in ("m", "v"):
            setattr(opt, acc, np.concatenate(
                [data[f"{p}_{acc}{i}"] for p, n in zip(prefixes, ns)
                 for i in range(n)], axis=None, dtype=float,
            ))
    return opt


def save_checkpoint(path, method: str, arrays: dict[str, np.ndarray]) -> None:
    np.savez(
        path,
        format_version=np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        method=np.asarray(method),
        **arrays,
    )


def load_checkpoint(path) -> tuple[str, dict]:
    """Returns (method, arrays). Refuses a file that is not an .npz, one
    without its version or method, one whose version is not an integer,
    and one of another version, each with a ValueError naming path."""
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError
        with npz:
            data = {k: npz[k] for k in npz.files}
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ValueError(f"{path}: not an .npz checkpoint") from None
    for key in ("format_version", "method"):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    try:
        version = whole(data, "format_version")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} not supported "
                         f"(expected {CHECKPOINT_VERSION})")
    del data["format_version"]
    return str(data.pop("method")), data
