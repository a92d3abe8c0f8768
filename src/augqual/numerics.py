"""Dense float64 numerics: activations, the binary cross-entropy, and Adam.

All operations are pure (same inputs give bit-identical outputs) and work on
scalars or numpy arrays. Parameters travel as ``dict[str, np.ndarray]`` so the
optimizer stays agnostic of model structure. ``one_blas_thread`` holds numpy's
OpenBLAS to one thread for a block of work.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf, expit

from .util import ValidationError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Open-interval clamp for sigmoid outputs: smallest positive subnormal and
# the largest double strictly below 1.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def gelu_and_cdf(x) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x) and Phi(x) from one erf evaluation, for a forward pass that
    keeps Phi for its backward pass (see gelu_grad_from_cdf)."""
    arr = np.asarray(x, dtype=np.float64)
    one_plus_erf = 1.0 + erf(arr * _INV_SQRT2)
    return arr * 0.5 * one_plus_erf, 0.5 * one_plus_erf


def gelu_grad_from_cdf(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x), given Phi(x) from gelu_and_cdf."""
    return cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))


def sigmoid(x):
    """Numerically stable logistic function, clamped to the open interval (0, 1)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.clip(expit(arr), _SIGMOID_LO, _SIGMOID_HI)
    return float(out) if np.isscalar(x) else out


def bce_with_logit(logit, label):
    """Binary cross-entropy from a raw logit, in the stable log-sum-exp form.

    Equals -label*log(sigmoid(l)) - (1-label)*log(1-sigmoid(l)) but never
    evaluates log(sigmoid) directly.
    """
    l = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    out = np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))
    return float(out) if np.isscalar(logit) else out


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators plus hyperparameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Zero-initialized moment accumulators matching the parameter shapes."""
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One bias-corrected Adam update. Pure: returns fresh params and state.

    Each key allocates its new m, v and parameter plus one scratch array; the
    arithmetic and its order are those of the textbook update
    ``p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)``, so the
    result is bit-identical to evaluating that expression directly.
    """
    if set(params) != set(grads):
        raise ValidationError("adam_step: params and grads name mismatch")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = np.asarray(grads[k], dtype=np.float64)
        if g.shape != p.shape:
            raise ValidationError(f"adam_step: shape mismatch for '{k}'")
        if not np.isfinite(g).all():
            raise ValidationError(f"adam_step: non-finite gradient for '{k}'")
        # out= keeps 0-d parameters arrays, as in-place updates need
        step = np.multiply(g, 1.0 - b1, out=np.empty(p.shape))   # (1 - b1) g
        m = np.multiply(state.m[k], b1, out=np.empty(p.shape))
        m += step
        np.multiply(g, 1.0 - b2, out=step)                       # (1 - b2) g g
        step *= g
        v = np.multiply(state.v[k], b2, out=np.empty(p.shape))
        v += step
        denom = np.divide(v, bias2, out=np.empty(p.shape))       # sqrt(v_hat) + eps
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bias1, out=step)                            # lr m_hat / denom
        step *= state.lr
        step /= denom
        new_params[k] = np.subtract(p, step, out=step)
        new_m[k] = m
        new_v[k] = v
    new_state = AdamState(lr=state.lr, beta1=b1, beta2=b2,
                          eps=state.eps, step=t, m=new_m, v=new_v)
    return new_params, new_state


# (get, set) thread-count symbols of the OpenBLAS builds numpy wheels bundle:
# scipy-openblas (numpy >= 2), 64-bit-integer and plain OpenBLAS (older).
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS in numpy.libs,
    the copy numpy itself loaded, or None when numpy brings no OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    thread count it had; without OpenBLAS, do nothing.

    The training matmuls have 32-row operands: a second BLAS thread only
    spins on them, taking a CPU that other work could use. A process forked
    inside the block inherits the setting. Results do not depend on it.
    """
    api = _openblas()
    if api is None:
        yield
        return
    get, put = api
    prior = get()
    put(1)
    try:
        yield
    finally:
        put(prior)
