"""Weighted fine-tuning of a small surrogate sequence head.

The head stands in for a full generative task model while keeping the exact
loss structure: one GELU projection over the raw pooled features (video,
audio-or-zeros, text), then an independent linear layer per target position
producing vocabulary logits. Per-sample loss is the mean token cross-entropy
over supervised positions (IGNORE_INDEX marks unsupervised ones); the batch
loss is ``(1/B) * sum(w_i * loss_i)`` with the divisor deliberately B rather
than the weight sum, so scaling every weight scales loss and gradient alike.

Sample weights come from a previously exported weight file, checked against
the corpus checksum before training; uniform mode (no file) is step-for-step
identical to an all-ones file under the same seed. The quality scorer is not
an input here, which is the strongest form of keeping it frozen.

The head deliberately never sees the polarity condition: that bit encodes the
answer, and feeding it would collapse the task to copying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import IGNORE_INDEX, Corpus, FeatureSample, VerbalScheme
from .numerics import (
    adam_step,
    gelu,
    gelu_and_cdf,
    gelu_grad_from_cdf,
    init_adam,
    softmax_cross_entropy,
)
from .qa import WeightFile, check_weights, verify_weight_file
from .util import ValidationError, derived_rng, dumps_canonical

_HEAD_KEYS = ("in_w", "in_b", "out_w", "out_b")


@dataclass
class HeadParams:
    """Surrogate head parameters: shared projection + per-position outputs."""

    in_w: np.ndarray    # (hidden, 2d + d_t)
    in_b: np.ndarray    # (hidden,)
    out_w: np.ndarray   # (t_max, vocab, hidden)
    out_b: np.ndarray   # (t_max, vocab)

    @property
    def hidden(self) -> int:
        return self.in_w.shape[0]

    @property
    def t_max(self) -> int:
        return self.out_w.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.out_w.shape[1]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _HEAD_KEYS}

    @staticmethod
    def from_dict(arrays: dict) -> "HeadParams":
        return HeadParams(**{k: arrays[k] for k in _HEAD_KEYS})


@dataclass(frozen=True)
class HeadConfig:
    """Stage-1 training hyperparameters; hidden None means 2 * d."""

    hidden: int | None = None
    t_max: int = 4
    lr: float = 3e-3
    steps: int = 600
    batch_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.hidden is not None and self.hidden < 1:
            raise ValidationError("head hidden width must be >= 1")
        if self.t_max < 1:
            raise ValidationError("t_max must be >= 1")
        if self.steps < 0 or self.lr <= 0 or self.batch_size < 1:
            raise ValidationError("bad head training config")


@dataclass
class TrainRun:
    """Everything train_stage1 produced: head, trace, and how it was run."""

    head: HeadParams
    config: HeadConfig
    weight_mode: str          # "uniform" | "weighted"
    loss_trace: list
    sample_ids: tuple


def head_input(sample: FeatureSample, d: int) -> np.ndarray:
    """Raw-feature input row: [video; audio-or-zeros; text]."""
    h_a = sample.h_a if sample.h_a is not None else np.zeros(d)
    return np.concatenate([sample.h_v, h_a, sample.h_t_raw])


def init_head(d: int, d_t: int, vocab_size: int, config: HeadConfig,
              rng: np.random.Generator) -> HeadParams:
    width = config.hidden if config.hidden is not None else 2 * d
    in_dim = 2 * d + d_t
    return HeadParams(
        in_w=rng.standard_normal((width, in_dim)) / np.sqrt(in_dim),
        in_b=np.zeros(width),
        out_w=rng.standard_normal((config.t_max, vocab_size, width)) / np.sqrt(width),
        out_b=np.zeros((config.t_max, vocab_size)),
    )


def head_logits(head: HeadParams, x: np.ndarray) -> np.ndarray:
    """Per-position vocabulary logits for one input row: (t_max, vocab)."""
    z = gelu(head.in_w @ x + head.in_b)
    return np.einsum("tvh,h->tv", head.out_w, z) + head.out_b


def per_sample_loss(logits: np.ndarray, targets) -> float:
    """Mean token cross-entropy over supervised positions."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValidationError("logits/targets shape mismatch")
    supervised = [t for t in range(targets.shape[0]) if targets[t] != IGNORE_INDEX]
    if not supervised:
        raise ValidationError("sample has no supervised tokens")
    return float(np.mean([softmax_cross_entropy(logits[t], int(targets[t]))
                          for t in supervised]))


def weighted_batch_loss(per_sample, weights) -> float:
    """(1/B) * sum(w_i * loss_i); divisor is B, not the weight sum."""
    ps = np.asarray(per_sample, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if ps.shape != w.shape or ps.ndim != 1:
        raise ValidationError("per-sample losses and weights differ in length")
    if ps.shape[0] == 0:
        raise ValidationError("empty batch")
    if np.any(w < 0):
        raise ValidationError("weights must be >= 0")
    return float(np.sum(w * ps) / ps.shape[0])


def _batch_logits(arrays: dict, X: np.ndarray):
    pre = X @ arrays["in_w"].T + arrays["in_b"]
    z, cdf = gelu_and_cdf(pre)
    logits = np.einsum("nh,tvh->ntv", z, arrays["out_w"]) + arrays["out_b"]
    return logits, pre, z, cdf


def _loss_and_grads(arrays: dict, X: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray):
    """Weighted batch loss and gradients; zero-weight samples contribute zero."""
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
    grads = {
        "out_w": np.einsum("ntv,nh->tvh", G, z),
        "out_b": G.sum(axis=0),
    }
    g_z = np.einsum("ntv,tvh->nh", G, arrays["out_w"])
    g_pre = g_z * gelu_grad_from_cdf(pre, cdf)
    grads["in_w"] = g_pre.T @ X
    grads["in_b"] = g_pre.sum(axis=0)
    return loss, grads


def _training_targets(samples, t_max: int) -> np.ndarray:
    out = np.full((len(samples), t_max), IGNORE_INDEX, dtype=np.int64)
    for i, s in enumerate(samples):
        toks = list(s.target_tokens)
        if len(toks) > t_max:
            raise ValidationError(
                f"sample {s.id}: {len(toks)} target tokens exceed head "
                f"positions {t_max}")
        if all(t == IGNORE_INDEX for t in toks):
            raise ValidationError("sample has no supervised tokens")
        out[i, :len(toks)] = toks
    return out


def train_stage1(corpus: Corpus, weight_file: WeightFile | None,
                 config: HeadConfig, sample_ids=None) -> TrainRun:
    """Minibatch Adam on the weighted token loss.

    ``weight_file`` None means uniform mode (every weight 1), bit-identical
    to an all-ones file under the same seed: batch selection never depends on
    the weights. ``sample_ids`` restricts the training pool (arm selection);
    default is the whole corpus. Deterministic given (corpus, inputs, config).
    """
    config.validate()
    if weight_file is not None:
        verify_weight_file(weight_file, corpus)
        check_weights(weight_file)
        wmap = weight_file.weights_by_id()
    ids = tuple(sample_ids) if sample_ids is not None else tuple(
        s.id for s in corpus.samples)
    if not ids:
        raise ValidationError("stage-1 training pool is empty")
    samples = [corpus.get(i) for i in ids]
    if weight_file is None:
        weights = np.ones(len(samples))
    else:
        missing = [i for i in ids if i not in wmap]
        if missing:
            raise ValidationError(f"no weight for sample {missing[0]}")
        weights = np.array([wmap[i] for i in ids])
    d, d_t = corpus.header.d, corpus.header.d_t
    X = np.stack([head_input(s, d) for s in samples])
    targets = _training_targets(samples, config.t_max)

    head = init_head(d, d_t, corpus.header.vocab_size, config,
                     derived_rng(config.seed, "stage1", "init"))
    arrays = head.to_dict()
    state = init_adam(arrays, lr=config.lr)
    trace = []
    for step in range(config.steps):
        rng = derived_rng(config.seed, "stage1", "step", step)
        take = min(config.batch_size, len(samples))
        idx = rng.choice(len(samples), size=take, replace=False)
        loss, grads = _loss_and_grads(arrays, X[idx], targets[idx], weights[idx])
        arrays, state = adam_step(arrays, grads, state)
        trace.append(loss)
    return TrainRun(head=HeadParams.from_dict(arrays), config=config,
                    weight_mode="uniform" if weight_file is None else "weighted",
                    loss_trace=trace, sample_ids=ids)


def predict_tokens(head: HeadParams, sample: FeatureSample, d: int) -> tuple:
    """Argmax token per position; ties resolve to the lowest token index."""
    logits = head_logits(head, head_input(sample, d))
    return tuple(int(t) for t in np.argmax(logits, axis=-1))


def predict(head: HeadParams, sample: FeatureSample, d: int,
            verbal: VerbalScheme) -> float:
    """Decoded scalar sentiment in [-1, 1] for one sample. Pure."""
    return verbal.decode(predict_tokens(head, sample, d))


def predict_all(head: HeadParams, samples, d: int,
                verbal: VerbalScheme) -> np.ndarray:
    return np.array([predict(head, s, d, verbal) for s in samples])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def serialize_head_snapshot(head: HeadParams, d: int, d_t: int) -> bytes:
    doc = {
        "kind": "head_snapshot",
        "d": d,
        "d_t": d_t,
        "params": head.to_dict(),
    }
    return (dumps_canonical(doc, indent=1) + "\n").encode("utf-8")


def save_head_snapshot(head: HeadParams, d: int, d_t: int, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_head_snapshot(head, d, d_t))


def load_head_snapshot(path) -> tuple[HeadParams, int, int]:
    with open(path, "rb") as fh:
        try:
            raw = json.loads(fh.read().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"bad head snapshot: {exc}") from exc
    if raw.get("kind") != "head_snapshot":
        raise ValidationError("not a head snapshot file")
    try:
        arrays = {k: np.asarray(raw["params"][k], dtype=np.float64)
                  for k in _HEAD_KEYS}
        d, d_t = int(raw["d"]), int(raw["d_t"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad head snapshot: {exc}") from exc
    head = HeadParams.from_dict(arrays)
    if head.in_w.shape[1] != 2 * d + d_t:
        raise ValidationError("snapshot params disagree with recorded dims")
    return head, d, d_t


def write_run_log(trace, path) -> None:
    """Loss trace as JSONL rows {step, loss}."""
    with open(path, "w", encoding="utf-8") as fh:
        for step, loss in enumerate(trace):
            fh.write(json.dumps({"step": step, "loss": loss},
                                separators=(",", ":")) + "\n")
