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
normalized by the coefficient sum of the families actually present.

Scores map to sample weights via ``w = w_min + s**gamma * (w_max - w_min)``;
samples of Original origin always get weight 1. The exported weight file is
canonical JSON carrying every sample id with its score, weight, and origin,
plus checksums binding it to the corpus and the scorer (``qa_checksum``, a
hash of each parameter's shape and float64 bytes). A scorer snapshot echoes
the corpus header and stores each parameter as its shape and one base64
float64 block (``util.encode_params``); the loader reads no other format.

All backward passes are hand-derived and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    Corpus,
    CorpusHeader,
    FeatureRows,
    corpus_checksum,
    header_dict,
    header_from_dict,
)
from .forge import FAMILIES, ForgeConfig, ForgedBatch, forge_batch
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
    check_fields,
    check_params,
    decode_params,
    derived_rng,
    deterministic_timestamp,
    dumps_canonical,
    encode_params,
    load_json_object,
)

_PARAM_KEYS = ("text_proj_w", "text_proj_b", "polarity_emb",
               "hidden_w", "hidden_b", "out_w", "out_b")


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

    alpha: tuple[float, float, float, float] = (3.0, 2.0, 2.0, 1.0)
    rho: float = 0.3
    batch_size: int = 32
    steps: int = 800
    lr: float = 3e-3
    seed: int = 0
    hidden: int = 64
    include_augmented: bool = False  # add augments to the positive pool

    def validate(self) -> None:
        if len(self.alpha) != len(FAMILIES):
            raise ValidationError("alpha needs one weight per family")
        if any(a < 0 for a in self.alpha):
            raise ValidationError("family weights must be non-negative")
        if sum(self.alpha) <= 0:
            raise ValidationError("family weights must not all be zero")
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError("rho must be in [0, 1]")
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2")
        if self.steps < 0 or self.lr <= 0 or self.hidden < 1:
            raise ValidationError("bad scorer training config")


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


def _forward(rows: FeatureRows, params: QaParams):
    """Batched forward pass; returns logits plus caches for backprop."""
    h_t = rows.T @ params.text_proj_w.T + params.text_proj_b
    h_p = params.polarity_emb[rows.P]
    x = np.concatenate([rows.V, rows.A, h_t, h_p], axis=1)
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


def _polarity_sums(rows: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Row sums per polarity, added in row order into zeros, as np.add.at adds."""
    out = np.zeros((2, rows.shape[1]))
    if rows.shape[1] == 1:     # numpy sums a single column pairwise
        np.add.at(out, P, rows)
    else:
        for p in (0, 1):
            out[p] += rows[P == p].sum(axis=0)
    return out


def qa_loss_and_grads(forged: ForgedBatch, params: QaParams, alpha):
    """Loss plus hand-derived gradients for every scorer parameter.

    Gradients flow through the text projection and polarity embedding but
    stop at the raw feature blocks, which are treated as constants.
    """
    coef = _family_coefficients(forged, alpha)
    Y = forged.labels
    logits, (x, pre, act, cdf) = _forward(forged.rows, params)
    loss = float(np.sum(coef * bce_with_logit(logits, Y)))

    d = params.d
    g_logit = coef * (sigmoid(logits) - Y)            # (n,)
    g_act = np.outer(g_logit, params.out_w)           # (n, hidden)
    g_pre = g_act * gelu_grad_from_cdf(pre, cdf)      # (n, hidden)
    g_x = g_pre @ params.hidden_w                     # (n, 4d)
    g_ht = g_x[:, 2 * d:3 * d]
    g_hp = g_x[:, 3 * d:]
    grads = {
        "text_proj_w": g_ht.T @ forged.rows.T,
        "text_proj_b": g_ht.sum(axis=0),
        "polarity_emb": _polarity_sums(g_hp, forged.rows.P),
        "hidden_w": g_pre.T @ x,
        "hidden_b": g_pre.sum(axis=0),
        "out_w": act.T @ g_logit,
        "out_b": np.array([g_logit.sum()]),
    }
    return loss, grads


def train_stage0(corpus: Corpus, config: QaConfig,
                 rows=None) -> tuple[QaParams, list]:
    """Train the scorer on forged batches drawn from trusted samples.

    The positive pool is the corpus originals (plus augments when configured),
    optionally restricted to the row indices ``rows`` so held-out evaluation
    stays untouched. Returns the trained parameters and the per-step loss
    trace. Deterministic for a given (corpus, config).
    """
    config.validate()
    pool = np.flatnonzero(~corpus.augmented)
    if config.include_augmented:
        pool = np.concatenate([pool, np.flatnonzero(corpus.augmented)])
    if rows is not None:
        pool = pool[np.isin(pool, rows)]
    if not pool.size:
        raise ValidationError("stage-0 training pool is empty")
    d, d_t = corpus.header.d, corpus.header.d_t
    pool_rows = corpus.features.take(pool)
    state = init_adam(init_qa_params(d, d_t, config.hidden, derived_rng(
        config.seed, "stage0", "init")).to_dict(), lr=config.lr)
    params = QaParams.from_dict(state.params)
    forge_cfg = ForgeConfig(mask_rate=config.rho)
    trace = []
    for step in range(config.steps):
        rng = derived_rng(config.seed, "stage0", "step", step)
        take = min(config.batch_size, pool.size)
        idx = rng.choice(pool.size, size=take, replace=False)
        forged = forge_batch(pool_rows.take(idx), rng, forge_cfg)
        loss, grads = qa_loss_and_grads(forged, params, config.alpha)
        adam_step(state, grads)
        trace.append(loss)
    params.validate()
    return params, trace


def score_corpus(corpus: Corpus, params: QaParams) -> np.ndarray:
    """Quality score in (0, 1) of every corpus row, in one batched pass."""
    params.validate()
    if params.d != corpus.header.d or params.d_t != corpus.header.d_t:
        raise ValidationError("scorer was trained for different dimensions")
    logits, _ = _forward(corpus.features, params)
    return sigmoid(logits)


# ---------------------------------------------------------------------------
# Score -> weight mapping and the weight file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMapConfig:
    w_min: float = 0.1
    w_max: float = 1.5
    gamma: float = 1.0

    def validate(self) -> None:
        if not 0.0 <= self.w_min <= self.w_max:
            raise ValidationError("need 0 <= w_min <= w_max")
        if self.gamma <= 0.0:
            raise ValidationError("gamma must be > 0")


def map_weight(score: float, cfg: WeightMapConfig) -> float:
    """w = w_min + score**gamma * (w_max - w_min); monotone, bounded."""
    cfg.validate()
    if not 0.0 < score < 1.0:
        raise ValidationError(f"score {score} outside (0, 1)")
    return cfg.w_min + score ** cfg.gamma * (cfg.w_max - cfg.w_min)


def sample_weight(origin: str, score: float, cfg: WeightMapConfig) -> float:
    """Original samples always weigh 1; augmented ones follow the map."""
    if origin == "Original":
        return 1.0
    return map_weight(score, cfg)


@dataclass(frozen=True)
class WeightEntry:
    id: str
    score: float
    weight: float
    origin: str


@dataclass
class WeightFile:
    w_min: float
    w_max: float
    gamma: float
    qa_checksum: str
    corpus_checksum: str
    created_at: str
    entries: list = field(default_factory=list)

    def weights_by_id(self) -> dict:
        return {e.id: e.weight for e in self.entries}


def qa_checksum(params: QaParams) -> str:
    """SHA-256 over each parameter in _PARAM_KEYS order: its shape as JSON
    text (``[8, 12]``), then its little-endian float64 bytes."""
    digest = hashlib.sha256()
    for arr in params.to_dict().values():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        digest.update(json.dumps(arr.shape).encode("ascii"))
        digest.update(arr)
    return digest.hexdigest()


def _weight_file_dict(wf: WeightFile) -> dict:
    return {
        "metadata": {
            "w_min": wf.w_min, "w_max": wf.w_max, "gamma": wf.gamma,
            "qa_checksum": wf.qa_checksum,
            "corpus_checksum": wf.corpus_checksum,
            "created_at": wf.created_at,
        },
        "entries": [{"id": e.id, "score": e.score, "weight": e.weight,
                     "origin": e.origin} for e in wf.entries],
    }


def serialize_weight_file(wf: WeightFile) -> bytes:
    return (dumps_canonical(_weight_file_dict(wf), indent=1) + "\n").encode("utf-8")


def export_weights(corpus: Corpus, params: QaParams, cfg: WeightMapConfig,
                   path=None) -> WeightFile:
    """Score every sample and persist id -> weight, sorted by id.

    Output bytes are deterministic for a given (corpus, params, cfg):
    canonical JSON, floats in shortest round-trip repr, and a timestamp taken
    from SOURCE_DATE_EPOCH (epoch 0 when unset).
    """
    cfg.validate()
    scores = score_corpus(corpus, params).tolist()
    ids = corpus.ids.tolist()
    origins = np.where(corpus.augmented, "Augmented", "Original").tolist()
    entries = [WeightEntry(id=ids[i], score=scores[i],
                           weight=sample_weight(origins[i], scores[i], cfg),
                           origin=origins[i])
               for i in sorted(range(len(ids)), key=ids.__getitem__)]
    wf = WeightFile(w_min=cfg.w_min, w_max=cfg.w_max, gamma=cfg.gamma,
                    qa_checksum=qa_checksum(params),
                    corpus_checksum=corpus_checksum(corpus),
                    created_at=deterministic_timestamp(), entries=entries)
    if path is not None:
        Path(path).write_bytes(serialize_weight_file(wf))
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
    if type(raw.get("entries")) is not list:
        raise ValidationError("bad weight file: entries must be a list")
    entries = []
    try:
        for k, e in enumerate(raw["entries"]):
            check_fields(e, _ENTRY_FIELDS, f"bad weight file: entry {k}")
            if e["origin"] not in ("Original", "Augmented"):
                raise ValidationError(f"bad weight file: entry {e['id']} has "
                                      f"origin {e['origin']!r}")
            entries.append(WeightEntry(id=e["id"], score=float(e["score"]),
                                       weight=float(e["weight"]),
                                       origin=e["origin"]))
        wf = WeightFile(w_min=float(meta["w_min"]), w_max=float(meta["w_max"]),
                        gamma=float(meta["gamma"]),
                        qa_checksum=meta["qa_checksum"],
                        corpus_checksum=meta["corpus_checksum"],
                        created_at=meta["created_at"], entries=entries)
    except OverflowError as exc:   # an integer beyond float64
        raise ValidationError(f"bad weight file: number out of range: {exc}") from None
    seen = set()
    for e in wf.entries:
        if e.id in seen:
            raise ValidationError(f"weight file lists {e.id} twice")
        seen.add(e.id)
    check_weights(wf)
    return wf


# Tolerance, relative to w_max, between a file's weight and the map of its
# score recomputed here (map_weight can round an ulp either way); still far
# below any hand edit.
_WEIGHT_SLACK = 1e-12


def check_weights(wf: WeightFile) -> None:
    """Reject weights that training must never see, in one vectorized pass.

    Every entry needs a score in (0, 1). Originals must weigh exactly 1,
    augments a weight in the file's own [w_min, w_max] that equals
    ``w_min + score**gamma * (w_max - w_min)`` within _WEIGHT_SLACK, with
    w_min >= 0 and every map parameter finite. That rules out negative, NaN
    and infinite weights, and any weight edited apart from its score.
    """
    if not np.isfinite([wf.w_min, wf.w_max, wf.gamma]).all():
        raise ValidationError("weight file has a non-finite w_min, w_max or gamma")
    WeightMapConfig(w_min=wf.w_min, w_max=wf.w_max, gamma=wf.gamma).validate()
    w = np.array([e.weight for e in wf.entries], dtype=np.float64)
    s = np.array([e.score for e in wf.entries], dtype=np.float64)
    original = np.array([e.origin == "Original" for e in wf.entries], dtype=bool)
    scored = (s > 0.0) & (s < 1.0)
    mapped = wf.w_min + np.where(scored, s, 0.5) ** wf.gamma * (wf.w_max - wf.w_min)
    slack = _WEIGHT_SLACK * wf.w_max
    ok = scored & np.where(original, w == 1.0,
                           (w >= wf.w_min) & (w <= wf.w_max + slack)
                           & (np.abs(w - mapped) <= slack))
    if not ok.all():
        k = int(np.argmin(ok))
        e = wf.entries[k]
        want = ("1" if e.origin == "Original" else
                f"w_min + score**gamma * (w_max - w_min) = {mapped[k]!r}")
        raise ValidationError(f"weight file gives {e.origin} {e.id} weight "
                              f"{e.weight}, expected {want} for a score in "
                              f"(0, 1), got score {e.score!r}")


def verify_weight_file(wf: WeightFile, corpus: Corpus) -> None:
    """Bind a weight file to the corpus it was exported from: the corpus
    checksum, and one entry of the sample's origin for every corpus sample."""
    if wf.corpus_checksum != corpus_checksum(corpus):
        raise ChecksumError("weight file was exported for a different corpus")
    origin_by_id = {e.id: e.origin for e in wf.entries}
    origins = np.where(corpus.augmented, "Augmented", "Original").tolist()
    for sid, origin in zip(corpus.ids.tolist(), origins):
        if sid not in origin_by_id:
            raise ValidationError(f"no weight for sample {sid}")
        if origin_by_id[sid] != origin:
            raise ValidationError(f"weight file gives {sid} origin "
                                  f"{origin_by_id[sid]}, the corpus {origin}")
    if len(origin_by_id) != len(origins):
        raise ValidationError(f"weight file lists {len(origin_by_id)} samples, "
                              f"the corpus {len(origins)}")


# ---------------------------------------------------------------------------
# Scorer snapshots
# ---------------------------------------------------------------------------

def serialize_qa_snapshot(params: QaParams, header: CorpusHeader) -> bytes:
    doc = {
        "kind": "qa_snapshot",
        "header": header_dict(header),
        "params": encode_params(params.to_dict()),
    }
    return (dumps_canonical(doc, indent=1) + "\n").encode("utf-8")


def save_qa_snapshot(params: QaParams, header: CorpusHeader, path) -> None:
    Path(path).write_bytes(serialize_qa_snapshot(params, header))


def load_qa_snapshot(path) -> tuple[QaParams, CorpusHeader]:
    raw = load_json_object(path, "scorer snapshot")
    if raw.get("kind") != "qa_snapshot":
        raise ValidationError("not a scorer snapshot file")
    if "header" not in raw:
        raise ValidationError("bad scorer snapshot: no header")
    header = header_from_dict(raw["header"])
    header.validate()
    params = QaParams.from_dict(decode_params(raw.get("params"), _PARAM_KEYS, "scorer"))
    params.validate()
    if params.d != header.d or params.d_t != header.d_t:
        raise ValidationError("snapshot params disagree with echoed header")
    return params, header
