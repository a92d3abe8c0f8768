"""Dense float64 numerics: activations, losses, Adam, and a finite-difference oracle.

All operations are pure (same inputs give bit-identical outputs) and work on
scalars or numpy arrays. Parameters travel as ``dict[str, np.ndarray]`` so the
optimizer stays agnostic of model structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, expit

from .util import ValidationError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Open-interval clamp for sigmoid outputs: smallest positive subnormal and
# the largest double strictly below 1.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def _maybe_scalar(x: np.ndarray, scalar: bool) -> np.ndarray | float:
    return float(x) if scalar else x


def gelu_and_cdf(x) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x) and Phi(x) from one erf evaluation, for a forward pass that
    keeps Phi for its backward pass (see gelu_grad_from_cdf)."""
    arr = np.asarray(x, dtype=np.float64)
    one_plus_erf = 1.0 + erf(arr * _INV_SQRT2)
    return arr * 0.5 * one_plus_erf, 0.5 * one_plus_erf


def gelu_grad_from_cdf(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x), given Phi(x) from gelu_and_cdf."""
    return cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))


def gelu(x):
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF."""
    out, _ = gelu_and_cdf(x)
    return _maybe_scalar(out, np.isscalar(x))


def sigmoid(x):
    """Numerically stable logistic function, clamped to the open interval (0, 1)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.clip(expit(arr), _SIGMOID_LO, _SIGMOID_HI)
    return _maybe_scalar(out, np.isscalar(x))


def bce_with_logit(logit, label):
    """Binary cross-entropy from a raw logit, in the stable log-sum-exp form.

    Equals -label*log(sigmoid(l)) - (1-label)*log(1-sigmoid(l)) but never
    evaluates log(sigmoid) directly.
    """
    l = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    out = np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))
    return _maybe_scalar(out, np.isscalar(logit))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, target: int) -> float:
    """-log softmax(logits)[target], computed with max-subtraction."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("softmax_cross_entropy expects a 1-d logit vector")
    t = int(target)
    if t < 0 or t >= arr.shape[0]:
        raise ValidationError("invalid target index")
    m = arr.max()
    lse = m + np.log(np.exp(arr - m).sum())
    return float(lse - arr[t])


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


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function: (f(x+he_j)-f(x-he_j))/2h."""
    if h <= 0:
        raise ValidationError("finite_diff_grad: h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[j] += h
        xm.flat[j] -= h
        grad.flat[j] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def flatten_arrays(arrays: dict) -> tuple[np.ndarray, list]:
    """Pack a name->array dict into one vector plus a layout for unflattening."""
    layout = [(k, arrays[k].shape) for k in sorted(arrays)]
    if not layout:
        return np.zeros(0), layout
    vec = np.concatenate([arrays[k].ravel() for k, _ in layout])
    return vec, layout


def unflatten_arrays(vec: np.ndarray, layout: list) -> dict:
    """Inverse of flatten_arrays."""
    out = {}
    pos = 0
    for k, shape in layout:
        size = int(np.prod(shape)) if shape else 1
        out[k] = vec[pos:pos + size].reshape(shape).copy()
        pos += size
    if pos != vec.size:
        raise ValidationError("unflatten_arrays: size mismatch")
    return out
