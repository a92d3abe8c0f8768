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
plus checksums binding it to the corpus and the scorer snapshot.

All backward passes are hand-derived and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    AdamState,
    adam_step,
    bce_with_logit,
    gelu,
    gelu_and_cdf,
    gelu_grad_from_cdf,
    init_adam,
    sigmoid,
)
from .util import (
    ChecksumError,
    ValidationError,
    derived_rng,
    deterministic_timestamp,
    dumps_canonical,
    sha256_hex,
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
        d, d_t, h = self.d, self.d_t, self.hidden
        shapes = {
            "text_proj_w": (d, d_t), "text_proj_b": (d,),
            "polarity_emb": (2, d), "hidden_w": (h, 4 * d),
            "hidden_b": (h,), "out_w": (h,), "out_b": (1,),
        }
        for k, want in shapes.items():
            arr = getattr(self, k)
            if arr.shape != want:
                raise ValidationError(f"scorer param {k}: shape {arr.shape}, "
                                      f"expected {want}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"scorer param {k}: non-finite values")


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


def assemble_input(sample, params: QaParams) -> np.ndarray:
    """Concatenate [video; audio-or-zeros; projected text; polarity emb]."""
    d, d_t = params.d, params.d_t
    if sample.h_v.shape != (d,) or sample.h_t_raw.shape != (d_t,):
        raise ValidationError(f"sample {_sample_id(sample)}: dim mismatch")
    h_a = sample.h_a if sample.h_a is not None else np.zeros(d)
    if h_a.shape != (d,):
        raise ValidationError(f"sample {_sample_id(sample)}: dim mismatch")
    h_t = params.text_proj_w @ sample.h_t_raw + params.text_proj_b
    h_p = params.polarity_emb[sample.polarity]
    return np.concatenate([sample.h_v, h_a, h_t, h_p])


def _sample_id(sample) -> str:
    return getattr(sample, "id", None) or getattr(sample, "source_id", "?")


def qa_logit(x: np.ndarray, params: QaParams) -> float:
    """Scalar logit of one assembled input; sigmoid of it is the score."""
    if x.shape != (4 * params.d,):
        raise ValidationError("assembled input has wrong width")
    hidden = gelu(params.hidden_w @ x + params.hidden_b)
    return float(params.out_w @ hidden + params.out_b[0])


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


def qa_loss(forged: ForgedBatch, params: QaParams, alpha) -> float:
    """Family-weighted mean BCE over one forged batch."""
    coef = _family_coefficients(forged, alpha)
    logits, _ = _forward(forged.rows, params)
    return float(np.sum(coef * bce_with_logit(logits, forged.labels)))


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
    g_emb = np.zeros_like(params.polarity_emb)
    np.add.at(g_emb, forged.rows.P, g_hp)
    grads = {
        "text_proj_w": g_ht.T @ forged.rows.T,
        "text_proj_b": g_ht.sum(axis=0),
        "polarity_emb": g_emb,
        "hidden_w": g_pre.T @ x,
        "hidden_b": g_pre.sum(axis=0),
        "out_w": act.T @ g_logit,
        "out_b": np.array([g_logit.sum()]),
    }
    return loss, grads


def train_stage0(corpus: Corpus, config: QaConfig,
                 train_ids=None) -> tuple[QaParams, list]:
    """Train the scorer on forged batches drawn from trusted samples.

    The positive pool is the corpus originals (plus augments when configured),
    optionally restricted to ``train_ids`` so held-out evaluation stays
    untouched. Returns the trained parameters and the per-step loss trace.
    Deterministic for a given (corpus, config).
    """
    config.validate()
    pool = list(corpus.originals())
    if config.include_augmented:
        pool.extend(corpus.augmented())
    if train_ids is not None:
        allowed = set(train_ids)
        pool = [s for s in pool if s.id in allowed]
    if not pool:
        raise ValidationError("stage-0 training pool is empty")
    d, d_t = corpus.header.d, corpus.header.d_t
    pool_rows = FeatureRows.stack(pool, d, d_t)
    params = init_qa_params(d, d_t, config.hidden,
                            derived_rng(config.seed, "stage0", "init"))
    arrays = params.to_dict()
    state = init_adam(arrays, lr=config.lr)
    forge_cfg = ForgeConfig(mask_rate=config.rho)
    trace = []
    for step in range(config.steps):
        rng = derived_rng(config.seed, "stage0", "step", step)
        take = min(config.batch_size, len(pool))
        idx = rng.choice(len(pool), size=take, replace=False)
        forged = forge_batch(pool_rows.take(idx), rng, forge_cfg)
        loss, grads = qa_loss_and_grads(forged, QaParams.from_dict(arrays),
                                        config.alpha)
        arrays, state = adam_step(arrays, grads, state)
        trace.append(loss)
    out = QaParams.from_dict(arrays)
    out.validate()
    return out, trace


def score_corpus(corpus: Corpus, params: QaParams) -> dict:
    """Quality score in (0, 1) for every sample, keyed by id, corpus order."""
    params.validate()
    if params.d != corpus.header.d or params.d_t != corpus.header.d_t:
        raise ValidationError("scorer was trained for different dimensions")
    if not corpus.samples:
        return {}
    rows = FeatureRows.stack(corpus.samples, params.d, params.d_t)
    logits, _ = _forward(rows, params)
    scores = sigmoid(logits)
    return {s.id: float(v) for s, v in zip(corpus.samples, scores)}


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

    def scores_by_id(self) -> dict:
        return {e.id: e.score for e in self.entries}


def qa_checksum(params: QaParams) -> str:
    """Checksum of the canonical parameter serialization."""
    return sha256_hex(dumps_canonical(
        {k: v for k, v in params.to_dict().items()}).encode("utf-8"))


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
    canonical JSON, 17-significant-digit floats, and a timestamp taken from
    SOURCE_DATE_EPOCH (epoch 0 when unset).
    """
    cfg.validate()
    scores = score_corpus(corpus, params)
    entries = [WeightEntry(id=s.id, score=scores[s.id],
                           weight=sample_weight(s.origin, scores[s.id], cfg),
                           origin=s.origin)
               for s in sorted(corpus.samples, key=lambda s: s.id)]
    wf = WeightFile(w_min=cfg.w_min, w_max=cfg.w_max, gamma=cfg.gamma,
                    qa_checksum=qa_checksum(params),
                    corpus_checksum=corpus_checksum(corpus),
                    created_at=deterministic_timestamp(), entries=entries)
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(serialize_weight_file(wf))
    return wf


def load_weight_file(path) -> WeightFile:
    with open(path, "rb") as fh:
        try:
            raw = json.loads(fh.read().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"bad weight file: {exc}") from exc
    try:
        meta = raw["metadata"]
        entries = [WeightEntry(id=str(e["id"]), score=float(e["score"]),
                               weight=float(e["weight"]), origin=str(e["origin"]))
                   for e in raw["entries"]]
        wf = WeightFile(w_min=float(meta["w_min"]), w_max=float(meta["w_max"]),
                        gamma=float(meta["gamma"]),
                        qa_checksum=str(meta["qa_checksum"]),
                        corpus_checksum=str(meta["corpus_checksum"]),
                        created_at=str(meta["created_at"]), entries=entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad weight file: {exc}") from exc
    seen = set()
    for e in wf.entries:
        if e.id in seen:
            raise ValidationError(f"weight file lists {e.id} twice")
        seen.add(e.id)
    check_weights(wf)
    return wf


# map_weight rounds w_min + s**gamma * (w_max - w_min), which can land an ulp
# above w_max (never below w_min); a relative slack this small still rejects
# any hand edit.
_WEIGHT_SLACK = 1e-12


def check_weights(wf: WeightFile) -> None:
    """Reject weights that training must never see, in one vectorized pass.

    Originals must weigh exactly 1 and augments must lie in the file's own
    [w_min, w_max], with w_min >= 0 and every map parameter finite. That
    rules out negative, NaN and infinite weights.
    """
    if not np.isfinite([wf.w_min, wf.w_max, wf.gamma]).all():
        raise ValidationError("weight file has a non-finite w_min, w_max or gamma")
    WeightMapConfig(w_min=wf.w_min, w_max=wf.w_max, gamma=wf.gamma).validate()
    w = np.array([e.weight for e in wf.entries], dtype=np.float64)
    original = np.array([e.origin == "Original" for e in wf.entries], dtype=bool)
    in_range = (w >= wf.w_min) & (w <= wf.w_max * (1.0 + _WEIGHT_SLACK))
    ok = np.where(original, w == 1.0, in_range)
    if not ok.all():
        e = wf.entries[int(np.argmin(ok))]
        want = ("1" if e.origin == "Original"
                else f"a value in [{wf.w_min}, {wf.w_max}]")
        raise ValidationError(f"weight file gives {e.origin} {e.id} weight "
                              f"{e.weight}, expected {want}")


def verify_weight_file(wf: WeightFile, corpus: Corpus) -> None:
    """Bind a weight file to the corpus it was exported from."""
    if wf.corpus_checksum != corpus_checksum(corpus):
        raise ChecksumError("weight file was exported for a different corpus")


# ---------------------------------------------------------------------------
# Scorer snapshots
# ---------------------------------------------------------------------------

def serialize_qa_snapshot(params: QaParams, header: CorpusHeader) -> bytes:
    doc = {
        "kind": "qa_snapshot",
        "header": header_dict(header),
        "params": params.to_dict(),
    }
    return (dumps_canonical(doc, indent=1) + "\n").encode("utf-8")


def save_qa_snapshot(params: QaParams, header: CorpusHeader, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_qa_snapshot(params, header))


def load_qa_snapshot(path) -> tuple[QaParams, CorpusHeader]:
    with open(path, "rb") as fh:
        try:
            raw = json.loads(fh.read().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"bad scorer snapshot: {exc}") from exc
    if raw.get("kind") != "qa_snapshot":
        raise ValidationError("not a scorer snapshot file")
    header = header_from_dict(raw["header"])
    try:
        arrays = {k: np.asarray(raw["params"][k], dtype=np.float64)
                  for k in _PARAM_KEYS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad scorer snapshot: {exc}") from exc
    params = QaParams.from_dict(arrays)
    params.validate()
    if params.d != header.d or params.d_t != header.d_t:
        raise ValidationError("snapshot params disagree with echoed header")
    return params, header
