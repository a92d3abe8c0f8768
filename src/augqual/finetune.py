"""Weighted fine-tuning of a small surrogate sequence head.

The head stands in for a full generative task model while keeping the exact
loss structure: one GELU projection over the raw pooled features (video,
audio-or-zeros, text), then an independent linear layer per target position
producing vocabulary logits. Per-sample loss is the mean token cross-entropy
over supervised positions (IGNORE_INDEX marks unsupervised ones); the batch
loss is ``(1/B) * sum(w_i * loss_i)`` with the divisor deliberately B rather
than the weight sum, so scaling every weight scales loss and gradient alike.

Sample weights come from a previously exported weight file, checked against
the corpus checksum and the weight map before training; uniform mode (no
file) is step-for-step identical to an all-ones file under the same seed.
The quality scorer is not an input here, which is the strongest form of
keeping it frozen. Training and prediction take the corpus rows they use as
an index array and run batched over the columnar features.

The head deliberately never sees the polarity condition: that bit encodes the
answer, and feeding it would collapse the task to copying. A head snapshot
records ``d``, ``d_t`` and each parameter as its shape and one base64 float64
block (``util.encode_params``), so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import IGNORE_INDEX, Corpus, FeatureRows
from .numerics import adam_step, gelu_and_cdf, gelu_grad_from_cdf, init_adam
from .qa import WeightFile, verify_weight_file
from .util import (ValidationError, bounded, check_params, check_ranges,
                   decode_params, derived_rng, document_chunks, encode_params,
                   load_json_object, write_atomic)
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


def _head_matrix(features: FeatureRows, rows) -> np.ndarray:
    """Raw-feature input rows [video; audio-or-zeros; text], one per index."""
    return np.concatenate([features.V[rows], features.A[rows], features.T[rows]],
                          axis=1)


def init_head(corpus: Corpus, config: HeadConfig,
              rng: np.random.Generator) -> HeadParams:
    """A head for the corpus: it reads the header's d and d_t features and
    predicts one token of the header's vocabulary per target position."""
    h = corpus.header
    width = config.hidden if config.hidden is not None else 2 * h.d
    in_dim = 2 * h.d + h.d_t
    out_shape = (corpus.targets.shape[1], h.vocab_size)
    return HeadParams(
        in_w=rng.standard_normal((width, in_dim)) / np.sqrt(in_dim),
        in_b=np.zeros(width),
        out_w=rng.standard_normal((*out_shape, width)) / np.sqrt(width),
        out_b=np.zeros(out_shape),
    )


def _batch_logits(arrays: dict, X: np.ndarray):
    pre = X @ arrays["in_w"].T + arrays["in_b"]
    z, cdf = gelu_and_cdf(pre)
    logits = np.einsum("nh,tvh->ntv", z, arrays["out_w"]) + arrays["out_b"]
    return logits, pre, z, cdf


def _loss_and_grads(arrays: dict, X: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray, grads: dict) -> float:
    """Weighted batch loss; its gradient for every head parameter is written
    into the same-named array of ``grads`` (in training,
    ``AdamState.grad_views``), through numpy's ``out=``. Zero-weight samples
    contribute zero."""
    n = X.shape[0]
    logits, pre, z, cdf = _batch_logits(arrays, X)
    shift = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shift - np.log(np.sum(np.exp(shift), axis=-1, keepdims=True))
    sup = targets != IGNORE_INDEX                      # (n, T)
    t_counts = sup.sum(axis=1)
    t_safe = np.where(sup, targets, 0)
    rows = np.arange(n)[:, None]
    cols = np.arange(targets.shape[1])[None, :]
    ce = -log_probs[rows, cols, t_safe]                # (n, T)
    per_sample = np.sum(ce * sup, axis=1) / t_counts
    loss = float(np.sum(weights * per_sample) / n)

    scale = (weights / (n * t_counts))[:, None] * sup  # (n, T)
    G = np.exp(log_probs)
    G[rows, cols, t_safe] -= 1.0
    G *= scale[..., None]
    np.einsum("ntv,nh->tvh", G, z, out=grads["out_w"])
    G.sum(axis=0, out=grads["out_b"])
    g_z = np.einsum("ntv,tvh->nh", G, arrays["out_w"])
    g_pre = g_z * gelu_grad_from_cdf(pre, cdf)
    np.matmul(g_pre.T, X, out=grads["in_w"])
    g_pre.sum(axis=0, out=grads["in_b"])
    return loss


def train_stage1(corpus: Corpus, weight_file: WeightFile | None,
                 config: HeadConfig, seed: int, rows=None) -> TrainRun:
    """Minibatch Adam on the weighted token loss.

    ``weight_file`` None means uniform mode (every weight 1), bit-identical
    to an all-ones file under the same seed: batch selection never depends on
    the weights. ``rows`` (corpus row indices) restricts the training pool
    (arm selection); default is the whole corpus. The head has one output
    position per corpus target token (``init_head``). Each step gathers its
    input rows and targets from the corpus columns (no copy of the pool is
    kept) and writes the gradients into Adam's buffer. Deterministic given
    (corpus, inputs, config, seed).
    """
    rows = np.arange(len(corpus)) if rows is None else np.asarray(rows, dtype=np.intp)
    if not rows.size:
        raise ValidationError("stage-1 training pool is empty")
    weights = (np.ones(rows.size) if weight_file is None
               else verify_weight_file(weight_file, corpus)[rows])
    state = init_adam(init_head(corpus, config, derived_rng(
        seed, "stage1", "init")).to_dict(), lr=config.lr)
    trace = []
    for step in range(config.steps):
        rng = derived_rng(seed, "stage1", "step", step)
        take = min(config.batch_size, rows.size)
        idx = rng.choice(rows.size, size=take, replace=False)
        batch = rows[idx]
        X = _head_matrix(corpus.features, batch)
        trace.append(_loss_and_grads(state.params, X, corpus.targets[batch],
                                     weights[idx], state.grad_views))
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

def head_snapshot_chunks(head: HeadParams, d: int, d_t: int):
    """The head snapshot's text in pieces (``util.document_chunks``), each
    parameter block streamed; non-finite parameters are refused here, before
    any piece."""
    return document_chunks({
        "kind": "head_snapshot",
        "d": d,
        "d_t": d_t,
        "params": encode_params(head.to_dict()),
    })


def save_head_snapshot(head: HeadParams, d: int, d_t: int, path) -> None:
    write_atomic(head_snapshot_chunks(head, d, d_t), path)


def load_head_snapshot(path) -> tuple[HeadParams, int, int]:
    raw = load_json_object(path, "head snapshot")
    if raw.get("kind") != "head_snapshot":
        raise ValidationError("not a head snapshot file")
    d, d_t, arrays = raw.get("d"), raw.get("d_t"), raw.get("params")
    if type(d) is not int or type(d_t) is not int or d < 1 or d_t < 1:
        raise ValidationError("bad head snapshot: d and d_t must be positive "
                              "integers")
    head = HeadParams.from_dict(decode_params(arrays, _HEAD_KEYS, "head"))
    head.validate()
    if head.in_w.shape[1] != 2 * d + d_t:
        raise ValidationError("snapshot params disagree with recorded dims")
    return head, d, d_t


def write_run_log(trace, path) -> None:
    """Loss trace as JSONL rows {step, loss}."""
    write_atomic((json.dumps({"step": step, "loss": loss}, separators=(",", ":"))
                  + "\n" for step, loss in enumerate(trace)), path)
