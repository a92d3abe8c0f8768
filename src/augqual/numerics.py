"""Dense float64 numerics: activations, the binary cross-entropy, and Adam.

The activations and losses are pure (same inputs give bit-identical outputs)
and work on scalars or numpy arrays. Adam is the one stateful part: it keeps
every parameter in one flat vector and every gradient in another, updates the
parameters in place, and hands the model two ``dict[str, np.ndarray]`` of
views, one into each vector, so it stays agnostic of model structure. A loss
writes its gradients straight into ``state.grad_views`` (numpy's ``out=``);
``adam_step`` then reads them from ``state.grad``, and once the second moment
is updated reuses ``state.grad`` for the update's denominator. So every loss
must overwrite every element of ``state.grad`` on every step.
``one_blas_thread`` holds numpy's OpenBLAS to one thread for a block of work.

``erf`` and ``expit`` are scipy's own ufuncs, taken from its compiled module
``scipy.special._special_ufuncs``, which is loaded on its own: importing the
``scipy.special`` package costs about 0.14 s and 19 MB per process, for two
functions. A later ``import scipy.special`` reuses the loaded module, so its
``erf`` and ``expit`` are these objects.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import ValidationError


def _special_ufuncs():
    """scipy's ``scipy.special._special_ufuncs`` extension module, loaded
    without running ``scipy/__init__.py`` or ``scipy/special/__init__.py``
    and registered under its full name so the package reuses it."""
    name = "scipy.special._special_ufuncs"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed")
    spec = importlib.machinery.PathFinder.find_spec(
        name, [str(Path(p, "special")) for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"no module named {name!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


try:
    # the module is private to scipy, so a release without it, or without
    # these names, falls back to the public package
    _ufuncs = _special_ufuncs()
    erf, expit = _ufuncs.erf, _ufuncs.expit
except (ImportError, AttributeError):
    from scipy.special import erf, expit

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Open-interval clamp for sigmoid outputs: smallest positive subnormal and
# the largest double strictly below 1.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)
# Adam's moment decay rates and denominator guard, the textbook values.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    """Bias-corrected Adam over one float64 vector ``flat``: ``params`` and
    ``grad_views`` map each name to a reshaped view of ``flat`` and ``grad``;
    ``m``, ``v`` and the ``work`` vector share that layout. ``adam_step``
    leaves the update's denominator in ``grad``, so the loss must write every
    element of ``grad`` before each step."""

    params: dict
    grad_views: dict
    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    work: np.ndarray
    lr: float
    step: int = 0


def init_adam(params: dict, lr: float) -> AdamState:
    """Copy ``params`` into one flat vector, with zero moment accumulators."""
    ends = np.cumsum([np.size(p) for p in params.values()]).tolist()
    layout = [(k, end - np.size(p), end, np.shape(p))
              for (k, p), end in zip(params.items(), ends)]
    # a block of its own: trained parameters, as views, keep only it alive
    flat = np.concatenate([np.ravel(p) for p in params.values()], dtype=np.float64)
    m, v, grad, work = np.zeros((4, flat.size))
    return AdamState(params={k: flat[a:b].reshape(s) for k, a, b, s in layout},
                     grad_views={k: grad[a:b].reshape(s) for k, a, b, s in layout},
                     flat=flat, m=m, v=v, grad=grad, work=work, lr=lr)


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of ``state.params``, in place, from the
    gradient the loss wrote into ``state.grad`` (through ``state.grad_views``).

    A non-finite gradient is refused before anything changes. The arithmetic
    and its order are those of the textbook ``p - lr * (m / (1 - b1**t)) /
    (sqrt(v / (1 - b2**t)) + eps)``, elementwise, so the result is
    bit-identical to it. Once ``v`` is updated the gradient is spent, and
    ``state.grad`` holds the denominator: the next loss overwrites it."""
    if not np.isfinite(state.grad).all():
        bad = next(k for k, g in state.grad_views.items() if not np.isfinite(g).all())
        raise ValidationError(f"adam_step: non-finite gradient for '{bad}'")
    t, b1, b2 = state.step + 1, ADAM_BETA1, ADAM_BETA2
    g, m, v, step = state.grad, state.m, state.v, state.work
    np.multiply(g, 1.0 - b1, out=step)          # m = b1 m + (1 - b1) g
    m *= b1
    m += step
    np.multiply(g, 1.0 - b2, out=step)          # v = b2 v + (1 - b2) g g
    step *= g
    v *= b2
    v += step
    denom = g                                   # sqrt(v_hat) + eps, over g
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - b1 ** t, out=step)       # lr m_hat / denom
    step *= state.lr
    step /= denom
    state.flat -= step
    state.step = t


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
