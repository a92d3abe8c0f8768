"""Weighted fine-tuning of a small surrogate sequence head.

The head stands in for a full generative task model while keeping the exact
loss structure: one GELU projection over the raw pooled features (video,
audio-or-zeros, text), then an independent linear layer per target position
(``TARGET_WIDTH`` of them) producing vocabulary logits. That output layer runs
as one BLAS matmul over the 2-D view ``(positions * vocab, hidden)`` of
``out_w``, in the forward pass and in both of its backward products. A
sample's targets are the verbal encoding of its sentiment, every position
supervised; its loss is the mean token cross-entropy over them. The batch
loss is ``(1/B) * sum(w_i * loss_i)`` with the divisor deliberately B rather
than the weight sum, so scaling every weight scales loss and gradient alike.

Sample weights come from a previously exported weight file, checked against
the corpus checksum and the weight map before training; uniform mode (no
file) is step-for-step identical to an all-ones file under the same seed.
The quality scorer is not an input here, which is the strongest form of
keeping it frozen. Training and prediction take the corpus rows they use as
an index array and run batched over the columnar features.

``train_stage1`` works out each pool row's supervision once
(``_supervision``: the target-token index and weight scale), and each step
gathers those rows of it. The step gathers its input rows straight into a
``_StepWork``, allocated once per loop, that holds every intermediate of the
forward and backward pass; the float operations and their order are those of
a step with fresh arrays (tests/test_loops.py checks the whole loop against
one bit for bit).

The head deliberately never sees the polarity condition: that bit encodes the
answer, and feeding it would collapse the task to copying. A head snapshot
is an array file (``util.snapshot_chunks``) whose header records ``d`` and
``d_t``, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import TARGET_WIDTH, Corpus, FeatureRows
from .numerics import adam_step, gelu_and_cdf, gelu_grad_from_cdf, init_adam
from .qa import WeightFile, verify_weight_file
from .util import (ValidationError, bounded, check_params, check_ranges,
                   derived_rng, derived_rngs, read_snapshot, snapshot_chunks,
                   write_atomic)
from .util import dumps_canonical  # noqa: F401 - bound for per-module tracing

_HEAD_KEYS = ("in_w", "in_b", "out_w", "out_b")


@dataclass
class HeadParams:
    """Surrogate head parameters: shared projection + per-position outputs."""

    in_w: np.ndarray    # (hidden, 2d + d_t)
    in_b: np.ndarray    # (hidden,)
    out_w: np.ndarray   # (positions, vocab, hidden)
    out_b: np.ndarray   # (positions, vocab)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _HEAD_KEYS}

    @staticmethod
    def from_dict(arrays: dict) -> "HeadParams":
        return HeadParams(**{k: arrays[k] for k in _HEAD_KEYS})

    def validate(self) -> None:
        """Shapes that agree with each other, and finite values."""
        if self.in_w.ndim != 2 or self.out_b.ndim != 2:
            raise ValidationError("head params in_w and out_b must be matrices")
        (hidden, in_dim), (positions, vocab) = self.in_w.shape, self.out_b.shape
        check_params(self.to_dict(), {
            "in_w": (hidden, in_dim), "in_b": (hidden,),
            "out_w": (positions, vocab, hidden), "out_b": (positions, vocab),
        }, "head")


@dataclass(frozen=True)
class HeadConfig:
    """Stage-1 training hyperparameters; hidden None means 2 * d."""

    hidden: int | None = bounded(None, "[1, inf)")
    lr: float = bounded(3e-3, "(0, inf)")
    steps: int = bounded(600, "[0, inf)")
    batch_size: int = bounded(32, "[1, inf)")

    def __post_init__(self):
        check_ranges(self)


@dataclass
class TrainRun:
    """Everything train_stage1 produced: head, trace, and its training pool."""

    head: HeadParams
    weight_mode: str          # "uniform" | "weighted"
    loss_trace: list
    rows: np.ndarray          # corpus rows of the training pool


def _head_matrix(features: FeatureRows, rows, out=None) -> np.ndarray:
    """Raw-feature input rows [video; audio-or-zeros; text], one per index,
    gathered into ``out`` when given."""
    d, d_t = features.V.shape[1], features.T.shape[1]
    if out is None:
        out = np.empty((len(rows), 2 * d + d_t))
    np.take(features.V, rows, axis=0, out=out[:, :d])
    np.take(features.A, rows, axis=0, out=out[:, d:2 * d])
    np.take(features.T, rows, axis=0, out=out[:, 2 * d:])
    return out


def init_head(corpus: Corpus, config: HeadConfig,
              rng: np.random.Generator) -> HeadParams:
    """A head for the corpus: it reads the header's d and d_t features and
    predicts one token of the header's vocabulary at each of the
    TARGET_WIDTH target positions."""
    h = corpus.header
    width = config.hidden if config.hidden is not None else 2 * h.d
    in_dim = 2 * h.d + h.d_t
    out_shape = (TARGET_WIDTH, h.vocab_size)
    return HeadParams(
        in_w=rng.standard_normal((width, in_dim)) / np.sqrt(in_dim),
        in_b=np.zeros(width),
        out_w=rng.standard_normal((*out_shape, width)) / np.sqrt(width),
        out_b=np.zeros(out_shape),
    )


class _Supervision:
    """What the loss reads of each row's targets and weight, one row per
    sample: ``tok`` (n, T), each position's target token as an index into
    the sample's ``(positions * vocab)`` logits; the sample ``weights``; and
    ``scale`` (n, 1, 1), the weight over (batch size * T), which multiplies
    the loss gradient of each of the sample's logits."""

    __slots__ = ("tok", "weights", "scale")

    def __init__(self, tok, weights, scale):
        self.tok, self.weights, self.scale = tok, weights, scale

    def take(self, idx) -> "_Supervision":
        return _Supervision(self.tok[idx], self.weights[idx], self.scale[idx])


def _supervision(targets: np.ndarray, weights: np.ndarray, batch: int,
                 vocab: int) -> _Supervision:
    """The supervision of rows with these targets and weights, for batches of
    ``batch`` samples; a training loop builds it once for its whole pool."""
    tok = targets + vocab * np.arange(targets.shape[1])
    scale = (weights / (batch * targets.shape[1]))[:, None, None]
    return _Supervision(tok, weights, scale)


class _ForwardWork:
    """The head forward pass's intermediates for batches of ``n`` rows: the
    hidden pre-activation, its GELU and Phi, and the logits."""

    def __init__(self, n: int, arrays: dict):
        hidden, (positions, vocab) = arrays["in_w"].shape[0], arrays["out_b"].shape
        self.pre, self.z, self.cdf = np.empty((3, n, hidden))
        self.logits = np.empty((n, positions, vocab))


class _StepWork(_ForwardWork):
    """A training step's arrays for batches of ``n`` rows: the input ``X``,
    the forward pass's intermediates, then the backward pass's softmax
    gradient ``G`` and per-position reduction ``lse``, and the flat index of
    each target token into the logits, which starts from each row's offset
    ``offsets``. The backward pass writes the GELU slope over ``z`` and the
    hidden-wide gradient over ``pre``, each once its last reader is done."""

    def __init__(self, n: int, arrays: dict):
        super().__init__(n, arrays)
        positions, vocab = arrays["out_b"].shape
        self.X = np.empty((n, arrays["in_w"].shape[1]))
        self.G = np.empty_like(self.logits)
        self.lse = np.empty((n, positions, 1))
        self.offsets = np.arange(n)[:, None] * (positions * vocab)
        self.flat = np.empty((n, positions), dtype=self.offsets.dtype)


def _batch_logits(arrays: dict, X: np.ndarray, work: _ForwardWork | None = None):
    """Logits (n, positions, vocab) plus the caches backprop needs, in the
    arrays of ``work`` (allocated for X's rows when None). Every position's
    output layer is one block of rows of the 2-D view ``(positions * vocab,
    hidden)`` of ``out_w``, so the whole layer is one BLAS matmul."""
    if work is None:
        work = _ForwardWork(X.shape[0], arrays)
    pre = np.matmul(X, arrays["in_w"].T, out=work.pre)
    pre += arrays["in_b"]
    z, cdf = gelu_and_cdf(pre, work.z, work.cdf)
    out_b, logits = arrays["out_b"], work.logits
    W2 = arrays["out_w"].reshape(out_b.size, -1)
    np.matmul(z, W2.T, out=logits.reshape(z.shape[0], -1))
    logits += out_b
    return logits, pre, z, cdf


def _loss_and_grads(arrays: dict, X: np.ndarray, sv: _Supervision, grads: dict,
                    work: _StepWork | None = None) -> float:
    """Weighted batch loss; its gradient for every head parameter is written
    into the same-named array of ``grads`` (in training,
    ``AdamState.grad_views``), through numpy's ``out=``. Every intermediate
    goes into ``work``, allocated for X's rows when None. Zero-weight samples
    contribute zero."""
    n = X.shape[0]
    if work is None:
        work = _StepWork(n, arrays)
    logits, pre, z, cdf = _batch_logits(arrays, X, work)
    lse = work.lse
    shift = np.subtract(logits, logits.max(axis=-1, keepdims=True, out=lse),
                        out=logits)
    np.sum(np.exp(shift, out=work.G), axis=-1, keepdims=True, out=lse)
    log_probs = np.subtract(shift, np.log(lse, out=lse), out=shift)
    flat = np.add(sv.tok, work.offsets, out=work.flat)     # (n, T)
    ce = -log_probs.reshape(-1)[flat]                      # (n, T)
    per_sample = np.sum(ce, axis=1) / ce.shape[1]
    loss = float(np.sum(sv.weights * per_sample) / n)

    G = np.exp(log_probs, out=work.G)
    G.reshape(-1)[flat] -= 1.0
    G *= sv.scale
    G2 = G.reshape(n, -1)                                  # (n, positions * vocab)
    W2 = arrays["out_w"].reshape(G2.shape[1], -1)
    # grads["out_w"] is contiguous, so its reshape is a view the product fills
    np.matmul(G2.T, z, out=grads["out_w"].reshape(W2.shape))
    G.sum(axis=0, out=grads["out_b"])
    slope = gelu_grad_from_cdf(pre, cdf, out=z)            # z is spent
    g_pre = np.matmul(G2, W2, out=pre)                     # and now pre
    g_pre *= slope
    np.matmul(g_pre.T, X, out=grads["in_w"])
    g_pre.sum(axis=0, out=grads["in_b"])
    return loss


def train_stage1(corpus: Corpus, weight_file: WeightFile | None,
                 config: HeadConfig, seed: int, rows=None) -> TrainRun:
    """Minibatch Adam on the weighted token loss.

    ``weight_file`` None means uniform mode (every weight 1), bit-identical
    to an all-ones file under the same seed: batch selection never depends on
    the weights. ``rows`` (corpus row indices) restricts the training pool
    (arm selection); default is the whole corpus. The targets are the
    header's verbal encoding of each pool row's sentiment, and each pool
    row's supervision is worked out once (``_supervision``); each step
    gathers its input rows from the corpus columns (no copy of the pool's
    features is kept) into a ``_StepWork`` allocated once per call, and
    writes the gradients into Adam's buffer. The step generators come from
    ``derived_rngs``. Deterministic given (corpus, inputs, config, seed).
    """
    rows = np.arange(len(corpus)) if rows is None else np.asarray(rows, dtype=np.intp)
    if not rows.size:
        raise ValidationError("stage-1 training pool is empty")
    weights = (np.ones(rows.size) if weight_file is None
               else verify_weight_file(weight_file, corpus)[rows])
    state = init_adam(init_head(corpus, config, derived_rng(
        seed, "stage1", "init")).to_dict(), lr=config.lr)
    take = min(config.batch_size, rows.size)
    h = corpus.header
    pool = _supervision(h.verbal.encode(corpus.sentiment[rows]), weights, take,
                        h.vocab_size)
    work = _StepWork(take, state.params)
    trace = []
    for rng in derived_rngs(seed, "stage1", "step", count=config.steps):
        idx = rng.choice(rows.size, size=take, replace=False)
        X = _head_matrix(corpus.features, rows[idx], out=work.X)
        trace.append(_loss_and_grads(state.params, X, pool.take(idx),
                                     state.grad_views, work))
        adam_step(state)
    return TrainRun(head=HeadParams.from_dict(state.params),
                    weight_mode="uniform" if weight_file is None else "weighted",
                    loss_trace=trace, rows=rows)


def predict_all(head: HeadParams, corpus: Corpus, rows) -> np.ndarray:
    """Decoded sentiment in [-1, 1] of each corpus row, in one batched pass;
    each position predicts its argmax token (ties go to the lowest). Pure."""
    logits, *_ = _batch_logits(head.to_dict(), _head_matrix(corpus.features, rows))
    return corpus.header.verbal.decode(np.argmax(logits, axis=-1))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def head_snapshot_chunks(head: HeadParams, d: int, d_t: int) -> list:
    """The head snapshot in pieces (``util.snapshot_chunks``); non-finite
    parameters are refused here, before any piece."""
    return snapshot_chunks({"kind": "head_snapshot", "d": d, "d_t": d_t},
                           head.to_dict())


def save_head_snapshot(head: HeadParams, d: int, d_t: int, path) -> None:
    write_atomic(head_snapshot_chunks(head, d, d_t), path)


def load_head_snapshot(path) -> tuple[HeadParams, int, int]:
    raw, arrays = read_snapshot(path, "head snapshot", "head_snapshot", ("d", "d_t"),
                                _HEAD_KEYS)
    d, d_t = raw["d"], raw["d_t"]
    if type(d) is not int or type(d_t) is not int or d < 1 or d_t < 1:
        raise ValidationError("bad head snapshot: d and d_t must be positive "
                              "integers")
    head = HeadParams.from_dict(arrays)
    head.validate()
    if head.in_w.shape[1] != 2 * d + d_t:
        raise ValidationError("snapshot params disagree with recorded dims")
    return head, d, d_t


def write_run_log(trace, path) -> None:
    """Loss trace as JSONL rows {step, loss}."""
    write_atomic((json.dumps({"step": step, "loss": loss}, separators=(",", ":"))
                  + "\n" for step, loss in enumerate(trace)), path)
