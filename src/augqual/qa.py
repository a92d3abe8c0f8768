"""Quality scorer: input assembly, forward pass, training, weight export.

The scorer is a two-layer MLP over the assembled input
``x = [h_v; audio-or-zeros; W_t h_t_raw + b_t; Emb(p)]`` in R^{4d}: a learned
projection brings text into the common width, a two-row embedding table turns
the polarity bit into a vector, then ``logit = out_w . GELU(hidden_w x +
hidden_b) + out_b`` and ``score = sigmoid(logit)``. Feature vectors are
constants during training - gradients stop at the assembled blocks and only
reach the projection, the embedding, and the MLP - so the corpus is
bit-identical before and after training.

Training minimizes a family-weighted binary cross-entropy: positives are
trusted samples (label 1), negatives are forged per batch (label 0), each
family's mean loss is weighted by its configured coefficient and the total is
normalized by the coefficient sum of the families actually present. As a
batch of one polarity has no mix rows, ``alpha`` must weight some other family.

``score_corpus`` runs the forward over ``SCORE_WINDOW`` rows at a time and
keeps no backprop caches, so scoring memory is bounded by the window, not the
corpus. The window heights are chosen so that every score is bit-identical to
one batched pass over the whole corpus.

Scores map to sample weights via ``w = w_min + s**gamma * (w_max - w_min)``;
Original samples always weigh 1. A ``WeightFile`` holds ids, scores, weights and
augmented flags as columns in id order; it is written as canonical JSON, one
entry per sample, with checksums binding it to the corpus and the scorer
(``qa_checksum`` hashes each parameter's shape and float64 bytes). A scorer
snapshot echoes the corpus header and stores each parameter as its shape and one
base64 float64 block (``util.encode_params``); the loader reads no other format.

All backward passes are hand-derived and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .corpus import (
    Corpus,
    CorpusHeader,
    FeatureRows,
    _freeze,
    corpus_checksum,
    header_from_dict,
)
from .forge import FAMILIES, ForgedBatch, forge_batch
from .numerics import (
    adam_step,
    bce_with_logit,
    gelu_and_cdf,
    gelu_grad_from_cdf,
    init_adam,
    sigmoid,
)
from .util import (
    ChecksumError,
    ValidationError,
    bounded,
    check_fields,
    check_params,
    check_ranges,
    config_to_dict,
    decode_params,
    derived_rng,
    document_chunks,
    dumps_canonical,  # noqa: F401 - bound for per-module tracing
    encode_params,
    load_json_object,
    write_atomic,
)

_PARAM_KEYS = ("text_proj_w", "text_proj_b", "polarity_emb",
               "hidden_w", "hidden_b", "out_w", "out_b")
_ORIGINS = ("Original", "Augmented")   # a weight-file origin by augmented flag
# A weight file's creation stamp: one fixed value, so equal inputs give equal bytes.
CREATED_AT = "1970-01-01T00:00:00Z"


@dataclass
class QaParams:
    """All learnable scorer parameters."""

    text_proj_w: np.ndarray   # (d, d_t)
    text_proj_b: np.ndarray   # (d,)
    polarity_emb: np.ndarray  # (2, d)
    hidden_w: np.ndarray      # (hidden, 4d)
    hidden_b: np.ndarray      # (hidden,)
    out_w: np.ndarray         # (hidden,)
    out_b: np.ndarray         # (1,)

    @property
    def d(self) -> int:
        return self.text_proj_w.shape[0]

    @property
    def d_t(self) -> int:
        return self.text_proj_w.shape[1]

    @property
    def hidden(self) -> int:
        return self.hidden_w.shape[0]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _PARAM_KEYS}

    @staticmethod
    def from_dict(arrays: dict) -> "QaParams":
        return QaParams(**{k: arrays[k] for k in _PARAM_KEYS})

    def validate(self) -> None:
        if self.text_proj_w.ndim != 2 or self.hidden_w.ndim != 2:
            raise ValidationError("scorer params text_proj_w and hidden_w "
                                  "must be matrices")
        d, d_t, h = self.d, self.d_t, self.hidden
        check_params(self.to_dict(), {
            "text_proj_w": (d, d_t), "text_proj_b": (d,),
            "polarity_emb": (2, d), "hidden_w": (h, 4 * d),
            "hidden_b": (h,), "out_w": (h,), "out_b": (1,),
        }, "scorer")


@dataclass(frozen=True)
class QaConfig:
    """Scorer training hyperparameters."""

    alpha: tuple[float, ...] = bounded((3.0, 2.0, 2.0, 1.0), "[0, inf)")
    rho: float = bounded(0.3, "[0, 1]")
    batch_size: int = bounded(32, "[2, inf)")
    steps: int = bounded(800, "[0, inf)")
    lr: float = bounded(3e-3, "(0, inf)")
    hidden: int = bounded(64, "[1, inf)")

    def __post_init__(self):
        check_ranges(self)
        if len(self.alpha) != len(FAMILIES) or not sum(self.alpha) > 0:
            raise ValidationError(f"QaConfig.alpha needs one weight per family, "
                                  f"not all zero, got {self.alpha}")
        if not any(a > 0 for f, a in zip(FAMILIES, self.alpha) if f != "mix"):
            raise ValidationError(f"QaConfig.alpha needs a nonzero weight besides "
                                  f"mix (a batch of one polarity has no mix rows), "
                                  f"got {self.alpha}")


def init_qa_params(d: int, d_t: int, hidden: int,
                   rng: np.random.Generator) -> QaParams:
    """Scaled-Gaussian init; biases and the output layer start at zero.

    Zero out_w/out_b make the initial logit exactly 0 (score 0.5 everywhere).
    """
    return QaParams(
        text_proj_w=rng.standard_normal((d, d_t)) / np.sqrt(d_t),
        text_proj_b=np.zeros(d),
        polarity_emb=rng.standard_normal((2, d)),
        hidden_w=rng.standard_normal((hidden, 4 * d)) / np.sqrt(4 * d),
        hidden_b=np.zeros(hidden),
        out_w=np.zeros(hidden),
        out_b=np.zeros(1),
    )


def _forward(rows: FeatureRows, params: QaParams, x_out=None):
    """Batched forward pass; returns logits plus caches for backprop. The
    assembled (n, 4d) input ``x`` is written into ``x_out`` when given."""
    h_t = rows.T @ params.text_proj_w.T + params.text_proj_b
    h_p = params.polarity_emb[rows.P]
    x = np.concatenate([rows.V, rows.A, h_t, h_p], axis=1, out=x_out)
    pre = x @ params.hidden_w.T + params.hidden_b
    act, cdf = gelu_and_cdf(pre)
    logits = act @ params.out_w + params.out_b[0]
    return logits, (x, pre, act, cdf)


def _family_coefficients(forged: ForgedBatch, alpha) -> np.ndarray:
    """Per-row loss coefficients alpha_k / (Z * n_k); Z sums present families."""
    if not forged.labels.shape[0]:
        raise ValidationError("no forged items: every family is empty")
    norm = sum(a for a, n in zip(alpha, forged.sizes) if n > 0)
    if norm <= 0:
        raise ValidationError(
            "scorer loss undefined: no weighted family has items")
    return np.repeat([a / (norm * n) if n else 0.0
                      for a, n in zip(alpha, forged.sizes)], forged.sizes)


def _polarity_sums(rows: np.ndarray, P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row sums per polarity into ``out`` (2, k), added in row order into
    zeros, as np.add.at adds."""
    out.fill(0.0)
    if rows.shape[1] == 1:     # numpy sums a single column pairwise
        np.add.at(out, P, rows)
    else:
        for p in (0, 1):
            out[p] += rows[P == p].sum(axis=0)
    return out


def qa_loss_and_grads(forged: ForgedBatch, params: QaParams, alpha, grads: dict,
                      x_out=None, g_x_out=None) -> float:
    """Loss of one forged batch; its hand-derived gradient for every scorer
    parameter is written into the same-named array of ``grads`` (in training,
    ``AdamState.grad_views``), through numpy's ``out=``.

    ``x_out`` and ``g_x_out``, when given, are (n, 4d) work arrays for the
    assembled input and its gradient, n the forged batch's height. Gradients
    flow through the text projection and polarity embedding but stop at the
    raw feature blocks, which are treated as constants.
    """
    coef = _family_coefficients(forged, alpha)
    Y = forged.labels
    logits, (x, pre, act, cdf) = _forward(forged.rows, params, x_out)
    loss = float(np.sum(coef * bce_with_logit(logits, Y)))

    d = params.d
    g_logit = coef * (sigmoid(logits) - Y)            # (n,)
    g_act = np.outer(g_logit, params.out_w)           # (n, hidden)
    g_pre = g_act * gelu_grad_from_cdf(pre, cdf)      # (n, hidden)
    g_x = np.matmul(g_pre, params.hidden_w, out=g_x_out)   # (n, 4d)
    g_ht = g_x[:, 2 * d:3 * d]
    np.matmul(g_ht.T, forged.rows.T, out=grads["text_proj_w"])
    g_ht.sum(axis=0, out=grads["text_proj_b"])
    _polarity_sums(g_x[:, 3 * d:], forged.rows.P, grads["polarity_emb"])
    np.matmul(g_pre.T, x, out=grads["hidden_w"])
    g_pre.sum(axis=0, out=grads["hidden_b"])
    np.matmul(act.T, g_logit, out=grads["out_w"])
    g_logit.sum(keepdims=True, out=grads["out_b"])
    return loss


def train_stage0(corpus: Corpus, config: QaConfig, seed: int,
                 rows=None) -> tuple[QaParams, list]:
    """Train the scorer on forged batches drawn from trusted samples.

    The positive pool is the corpus originals, the trusted samples,
    optionally restricted to the row indices ``rows`` so held-out evaluation
    stays untouched. Each step gathers its batch from the corpus columns (no
    copy of the pool is kept), writes the gradients into Adam's buffer, and
    assembles the scorer input and its gradient in two work arrays allocated
    once per call. Returns the trained parameters and the per-step loss
    trace. Deterministic for a given (corpus, config, seed).
    """
    pool = np.flatnonzero(~corpus.augmented)
    if rows is not None:
        pool = pool[np.isin(pool, rows)]
    if not pool.size:
        raise ValidationError("stage-0 training pool is empty")
    d, d_t = corpus.header.d, corpus.header.d_t
    state = init_adam(init_qa_params(d, d_t, config.hidden, derived_rng(
        seed, "stage0", "init")).to_dict(), lr=config.lr)
    params = QaParams.from_dict(state.params)
    take = min(config.batch_size, pool.size)
    # a forged batch has at most one row per family per sample
    x_work, g_x_work = np.empty((2, len(FAMILIES) * take, 4 * d))
    trace = []
    for step in range(config.steps):
        rng = derived_rng(seed, "stage0", "step", step)
        idx = rng.choice(pool.size, size=take, replace=False)
        forged = forge_batch(corpus.features.take(pool[idx]), rng, config.rho)
        n = forged.labels.shape[0]
        trace.append(qa_loss_and_grads(forged, params, config.alpha, state.grad_views,
                                       x_work[:n], g_x_work[:n]))
        adam_step(state)
    params.validate()
    return params, trace


# OpenBLAS's dgemv takes the last n % 4 rows, and short operands, through other kernels:
# full windows from row 0, then this + n % 4 rows ending at n, match one pass bitwise.
SCORE_WINDOW = 256


def score_corpus(corpus: Corpus, params: QaParams) -> np.ndarray:
    """Quality score in (0, 1) of every corpus row, scored in windows of rows.

    Windows of ``SCORE_WINDOW`` rows start at row 0, then one window of
    ``SCORE_WINDOW + n % 4`` rows ends at row n, overlapping the one before
    it; a corpus no longer than that last window is scored in one pass. Each
    window's logits go into one array and ``sigmoid`` is applied once, so
    memory is bounded by the window, not the corpus, and every score is
    bit-identical to one batched pass over all rows.
    """
    params.validate()
    if params.d != corpus.header.d or params.d_t != corpus.header.d_t:
        raise ValidationError("scorer was trained for different dimensions")
    rows, n = corpus.features, len(corpus)
    tail = max(0, n - SCORE_WINDOW - n % 4)
    windows = [(lo, lo + SCORE_WINDOW) for lo in range(0, tail, SCORE_WINDOW)]
    logits = np.empty(n)
    for lo, hi in windows + [(tail, n)]:
        logits[lo:hi] = _forward(rows.take(slice(lo, hi)), params)[0]
    return sigmoid(logits)


# ---------------------------------------------------------------------------
# Score -> weight mapping and the weight file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMapConfig:
    w_min: float = bounded(0.1, "[0, inf)")
    w_max: float = bounded(1.5, "[0, inf)")
    gamma: float = bounded(1.0, "(0, inf)")

    def __post_init__(self):
        check_ranges(self)
        if not self.w_min <= self.w_max:
            raise ValidationError(f"WeightMapConfig needs w_min <= w_max, "
                                  f"got {self.w_min} > {self.w_max}")


def map_weight(score: float, cfg: WeightMapConfig) -> float:
    """w = w_min + score**gamma * (w_max - w_min); monotone, bounded."""
    if not 0.0 < score < 1.0:
        raise ValidationError(f"score {score} outside (0, 1)")
    return cfg.w_min + score ** cfg.gamma * (cfg.w_max - cfg.w_min)


def sample_weight(origin: str, score: float, cfg: WeightMapConfig) -> float:
    """Original samples always weigh 1; augmented ones follow the map."""
    if origin == "Original":
        return 1.0
    return map_weight(score, cfg)


@dataclass(eq=False)
class WeightFile:
    """Map parameters, checksums, and one read-only column per entry field:
    ``ids`` (str, object dtype), ``scores``, ``weights`` (float64) and
    ``augmented`` (bool), kept in id order: ``export_weights`` sorts the rows
    and the serializer writes them in the order held."""

    w_min: float
    w_max: float
    gamma: float
    qa_checksum: str
    corpus_checksum: str
    created_at: str
    ids: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    augmented: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ids", object), ("scores", np.float64),
                            ("weights", np.float64), ("augmented", bool)):
            setattr(self, name, _freeze(getattr(self, name), dtype))


def qa_checksum(params: QaParams) -> str:
    """SHA-256 over each parameter in _PARAM_KEYS order: its shape as JSON
    text (``[8, 12]``), then its little-endian float64 bytes."""
    digest = hashlib.sha256()
    for arr in params.to_dict().values():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        digest.update(json.dumps(arr.shape).encode("ascii"))
        digest.update(arr)
    return digest.hexdigest()


def weight_file_chunks(wf: WeightFile):
    """The weight file's text in pieces (``util.document_chunks``)."""
    return document_chunks({
        "metadata": {
            "w_min": wf.w_min, "w_max": wf.w_max, "gamma": wf.gamma,
            "qa_checksum": wf.qa_checksum,
            "corpus_checksum": wf.corpus_checksum,
            "created_at": wf.created_at,
        },
        "entries": [{"id": i, "score": s, "weight": w, "origin": _ORIGINS[a]}
                    for i, s, w, a in zip(wf.ids.tolist(), wf.scores.tolist(),
                                          wf.weights.tolist(), wf.augmented.tolist())],
    })


def export_weights(corpus: Corpus, params: QaParams, cfg: WeightMapConfig,
                   path=None) -> WeightFile:
    """Score every sample and persist id -> weight, sorted by id.

    Weights come from the scalar ``sample_weight``, as numpy's power rounds
    some scores apart from Python's ``**``. Output bytes are deterministic for
    a given (corpus, params, cfg): canonical JSON, floats in shortest
    round-trip repr, and the fixed ``CREATED_AT`` stamp.
    """
    order = np.argsort(corpus.ids)
    scores = score_corpus(corpus, params)[order]
    augmented = corpus.augmented[order]
    wf = WeightFile(w_min=cfg.w_min, w_max=cfg.w_max, gamma=cfg.gamma,
                    qa_checksum=qa_checksum(params),
                    corpus_checksum=corpus_checksum(corpus),
                    created_at=CREATED_AT, ids=corpus.ids[order],
                    scores=scores, augmented=augmented,
                    weights=[sample_weight(_ORIGINS[a], s, cfg) for s, a
                             in zip(scores.tolist(), augmented.tolist())])
    if path is not None:
        write_atomic(weight_file_chunks(wf), path)
    return wf


# Exact JSON types of the weight file's fields; a JSON true or false is a
# bool, never a number.
_META_FIELDS = {"w_min": (int, float), "w_max": (int, float), "gamma": (int, float),
                "qa_checksum": (str,), "corpus_checksum": (str,),
                "created_at": (str,)}
_ENTRY_FIELDS = {"id": (str,), "score": (int, float), "weight": (int, float),
                 "origin": (str,)}


def load_weight_file(path) -> WeightFile:
    raw = load_json_object(path, "weight file")
    meta = check_fields(raw.get("metadata"), _META_FIELDS,
                        "bad weight file: metadata")
    entries = raw.get("entries")
    if type(entries) is not list:
        raise ValidationError("bad weight file: entries must be a list")
    for k, e in enumerate(entries):
        check_fields(e, _ENTRY_FIELDS, f"bad weight file: entry {k}")
        if e["origin"] not in _ORIGINS:
            raise ValidationError(f"bad weight file: entry {e['id']} has "
                                  f"origin {e['origin']!r}")
    try:
        wf = WeightFile(w_min=float(meta["w_min"]), w_max=float(meta["w_max"]),
                        gamma=float(meta["gamma"]),
                        qa_checksum=meta["qa_checksum"],
                        corpus_checksum=meta["corpus_checksum"],
                        created_at=meta["created_at"],
                        ids=[e["id"] for e in entries],
                        scores=[e["score"] for e in entries],
                        weights=[e["weight"] for e in entries],
                        augmented=[e["origin"] == "Augmented" for e in entries])
    except OverflowError as exc:   # an integer beyond float64
        raise ValidationError(f"bad weight file: number out of range: {exc}") from None
    check_weights(wf)
    return wf


# Tolerance, relative to w_max, between a file's weight and the map of its
# score recomputed here (map_weight can round an ulp either way); still far
# below any hand edit.
_WEIGHT_SLACK = 1e-12


def check_weights(wf: WeightFile) -> None:
    """Reject weights that training must never see, in one vectorized pass.

    Every id is listed once with a score in (0, 1). Originals must weigh
    exactly 1, augments a weight in the file's own [w_min, w_max] that equals
    ``w_min + score**gamma * (w_max - w_min)`` within _WEIGHT_SLACK, with
    w_min >= 0 and every map parameter finite. That rules out negative, NaN
    and infinite weights, and any weight edited apart from its score.
    """
    if not np.isfinite([wf.w_min, wf.w_max, wf.gamma]).all():
        raise ValidationError("weight file has a non-finite w_min, w_max or gamma")
    WeightMapConfig(w_min=wf.w_min, w_max=wf.w_max, gamma=wf.gamma)   # range check
    ids = np.sort(wf.ids)
    twice = ids[1:] == ids[:-1]
    if twice.any():
        raise ValidationError(f"weight file lists {ids[1:][twice][0]} twice")
    w, s = wf.weights, wf.scores
    scored = (s > 0.0) & (s < 1.0)
    mapped = wf.w_min + np.where(scored, s, 0.5) ** wf.gamma * (wf.w_max - wf.w_min)
    slack = _WEIGHT_SLACK * wf.w_max
    ok = scored & np.where(wf.augmented, (w >= wf.w_min) & (w <= wf.w_max + slack)
                           & (np.abs(w - mapped) <= slack), w == 1.0)
    if not ok.all():
        k = int(np.argmin(ok))
        want = (f"w_min + score**gamma * (w_max - w_min) = {float(mapped[k])!r}"
                if wf.augmented[k] else "1")
        raise ValidationError(f"weight file gives {_ORIGINS[bool(wf.augmented[k])]} "
                              f"{wf.ids[k]} weight {w[k]}, expected {want} for a "
                              f"score in (0, 1), got score {float(s[k])!r}")


def verify_weight_file(wf: WeightFile, corpus: Corpus) -> np.ndarray:
    """The file's weights in corpus row order, once ``check_weights`` passes
    and the file is bound to the corpus: its checksum, and one entry of the
    sample's origin for every corpus sample and for nothing else."""
    if wf.corpus_checksum != corpus_checksum(corpus):
        raise ChecksumError("weight file was exported for a different corpus")
    check_weights(wf)
    order = np.argsort(wf.ids)
    pos = np.searchsorted(wf.ids, corpus.ids, sorter=order)
    ok = pos < order.size
    at = order[pos[ok]]    # the file row at each in-range corpus id's sorted place
    ok[ok] = (wf.ids[at] == corpus.ids[ok]) & (wf.augmented[at] == corpus.augmented[ok])
    if not ok.all():
        row = int(np.argmin(ok))
        sid, aug = corpus.ids[row], bool(corpus.augmented[row])
        if sid not in wf.ids:
            raise ValidationError(f"no weight for sample {sid}")
        raise ValidationError(f"weight file gives {sid} origin {_ORIGINS[not aug]}, "
                              f"the corpus {_ORIGINS[aug]}")
    if order.size != len(corpus):
        raise ValidationError(f"weight file lists {order.size} samples, "
                              f"the corpus {len(corpus)}")
    return wf.weights[at]


# ---------------------------------------------------------------------------
# Scorer snapshots
# ---------------------------------------------------------------------------

def qa_snapshot_chunks(params: QaParams, header: CorpusHeader):
    """The scorer snapshot's text in pieces (``util.document_chunks``);
    non-finite parameters are refused here, before any piece."""
    return document_chunks({
        "kind": "qa_snapshot",
        "header": config_to_dict(header),
        "params": encode_params(params.to_dict()),
    })


def save_qa_snapshot(params: QaParams, header: CorpusHeader, path) -> None:
    write_atomic(qa_snapshot_chunks(params, header), path)


def load_qa_snapshot(path) -> tuple[QaParams, CorpusHeader]:
    raw = load_json_object(path, "scorer snapshot")
    if raw.get("kind") != "qa_snapshot":
        raise ValidationError("not a scorer snapshot file")
    if "header" not in raw:
        raise ValidationError("bad scorer snapshot: no header")
    header = header_from_dict(raw["header"])
    params = QaParams.from_dict(decode_params(raw.get("params"), _PARAM_KEYS, "scorer"))
    params.validate()
    if params.d != header.d or params.d_t != header.d_t:
        raise ValidationError("snapshot params disagree with echoed header")
    return params, header
