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
batch of one polarity has no mix rows, ``alpha`` must weight some other family,
and a batch has one of two size patterns, so the per-row coefficients are
built once per pattern and reused.

A training step allocates no array as wide as a layer: ``forge_batch`` writes
the batch into the video and audio columns of the scorer input ``x``, the
forward pass writes the projected text and polarity embedding into its other
columns, and every layer-wide intermediate of the forward and backward pass
goes into a ``_StepWork`` that ``train_stage0`` allocates once for its
largest batch. The
float operations and their order are those of a step with fresh arrays
(tests/test_loops.py checks the whole loop against one bit for bit).

``score_corpus`` runs the forward over ``SCORE_WINDOW`` rows at a time, into
one input array and one ``_ForwardWork`` of the window's height, so scoring
memory is bounded by the window, not the corpus. The window heights are
chosen so that every score is bit-identical to one batched pass over the
whole corpus.

Scores map to sample weights via ``w = w_min + s**gamma * (w_max - w_min)``;
Original samples always weigh 1. A ``WeightFile`` holds the map, checksums
binding it to the corpus and the scorer (``qa_checksum`` hashes each
parameter's shape and float64 bytes), and one score per corpus row, in row
order. It is written as an array file (``util.array_file_chunks``): a header
line holding the map, both checksums and the row count
(``WeightFileHeader``), then the scores' float64 bytes. No weight and no
sample id is stored: the corpus checksum and the row count bind each score to
its row, and ``verify_weight_file`` derives each weight from its score, the
map and the corpus's ``augmented`` column. A scorer
snapshot is an array file (``util.snapshot_chunks``) whose header echoes the
corpus header; a loaded scorer's parameters are read-only views of its bytes.

All backward passes are hand-derived and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import MISSING, dataclass

import numpy as np

from .corpus import (
    Corpus,
    CorpusHeader,
    _freeze,
    corpus_checksum,
    header_from_dict,
)
from .forge import FAMILIES, ForgedBatch, ForgeWork, forge_batch
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
    array_file_chunks,
    bounded,
    check_params,
    check_ranges,
    config_from_dict,
    config_to_dict,
    derived_rng,
    derived_rngs,
    dumps_canonical,  # noqa: F401 - bound for per-module tracing
    read_array_file,
    read_snapshot,
    snapshot_chunks,
    write_atomic,
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


class _ForwardWork:
    """The scorer forward pass's intermediates for up to ``n`` rows: the
    hidden pre-activation, its GELU and Phi, and the logits."""

    def __init__(self, n: int, hidden: int):
        self.pre, self.act, self.cdf = np.empty((3, n, hidden))
        self.logits = np.empty(n)


class _StepWork(_ForwardWork):
    """A training step's intermediates for up to ``n`` forged rows: the
    forward pass's, then the (n, 2d) gradient of the text and polarity
    blocks. The backward pass writes the GELU slope over ``act`` and the
    hidden-wide gradient over ``pre``, each once its last reader is done."""

    def __init__(self, n: int, d: int, hidden: int):
        super().__init__(n, hidden)
        self.g_x = np.empty((n, 2 * d))


def _forward(x: np.ndarray, T: np.ndarray, P: np.ndarray, params: QaParams,
             work: _ForwardWork):
    """Batched forward pass over the scorer input ``x`` (n, 4d), whose video
    and audio columns are set: writes its projected-text and polarity columns
    from ``T`` and ``P``, then returns the logits and the caches backprop
    needs, each the first n rows of an array of ``work``."""
    n, d = x.shape[0], params.d
    h_t = np.matmul(T, params.text_proj_w.T, out=x[:, 2 * d:3 * d])
    h_t += params.text_proj_b
    np.take(params.polarity_emb, P, axis=0, out=x[:, 3 * d:])
    pre = np.matmul(x, params.hidden_w.T, out=work.pre[:n])
    pre += params.hidden_b
    act, cdf = gelu_and_cdf(pre, work.act[:n], work.cdf[:n])
    logits = np.matmul(act, params.out_w, out=work.logits[:n])
    logits += params.out_b[0]
    return logits, pre, act, cdf


@functools.lru_cache(maxsize=16)
def _family_coefficients(sizes: tuple, alpha: tuple) -> np.ndarray:
    """Per-row loss coefficients alpha_k / (Z * n_k); Z sums present families.
    A batch has one of two size patterns, with mix rows or without, so a
    training loop builds each once; the result is read-only."""
    if not sum(sizes):
        raise ValidationError("no forged items: every family is empty")
    norm = sum(a for a, n in zip(alpha, sizes) if n > 0)
    if norm <= 0:
        raise ValidationError(
            "scorer loss undefined: no weighted family has items")
    coef = np.repeat([a / (norm * n) if n else 0.0 for a, n in zip(alpha, sizes)],
                     sizes)
    coef.setflags(write=False)
    return coef


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
                      work: _StepWork | None = None) -> float:
    """Loss of one forged batch; its hand-derived gradient for every scorer
    parameter is written into the same-named array of ``grads`` (in training,
    ``AdamState.grad_views``), through numpy's ``out=``.

    The projected-text and polarity columns of ``forged.x`` are filled here.
    Every layer-wide intermediate goes into ``work``, allocated for this
    batch when None; a training loop allocates one for its largest batch and
    reuses it. Gradients flow through the text projection and polarity
    embedding but stop at the raw feature blocks, which are treated as
    constants, so the gradient of the video and audio blocks is never
    computed.
    """
    coef = _family_coefficients(forged.sizes, tuple(alpha))
    Y, x, n, d = forged.labels, forged.x, forged.labels.shape[0], params.d
    if work is None:
        work = _StepWork(n, d, params.hidden)
    logits, pre, act, cdf = _forward(x, forged.T, forged.P, params, work)
    loss = float(np.sum(coef * bce_with_logit(logits, Y)))

    g_logit = coef * (sigmoid(logits) - Y)                   # (n,)
    np.matmul(act.T, g_logit, out=grads["out_w"])
    g_logit.sum(keepdims=True, out=grads["out_b"])
    slope = gelu_grad_from_cdf(pre, cdf, out=act)           # act is spent
    g_pre = np.outer(g_logit, params.out_w, out=pre)        # and now pre
    g_pre *= slope                                          # (n, hidden)
    # (n, 2d): the text and polarity blocks, the columns past the raw features
    g_x = np.matmul(g_pre, params.hidden_w[:, 2 * d:], out=work.g_x[:n])
    g_ht = g_x[:, :d]
    np.matmul(g_ht.T, forged.T, out=grads["text_proj_w"])
    g_ht.sum(axis=0, out=grads["text_proj_b"])
    _polarity_sums(g_x[:, d:], forged.P, grads["polarity_emb"])
    np.matmul(g_pre.T, x, out=grads["hidden_w"])
    g_pre.sum(axis=0, out=grads["hidden_b"])
    return loss


def train_stage0(corpus: Corpus, config: QaConfig, seed: int,
                 rows=None) -> tuple[QaParams, list]:
    """Train the scorer on forged batches drawn from trusted samples.

    The positive pool is the corpus originals, the trusted samples,
    optionally restricted to the row indices ``rows`` so held-out evaluation
    stays untouched. Each step forges its batch from the corpus columns (no
    copy of the pool is kept) into a ``ForgeWork``, runs the forward and
    backward pass in a ``_StepWork``, both allocated once per call, and
    writes the gradients into Adam's buffer. The step generators come from
    ``derived_rngs``. Returns the trained parameters and the per-step loss
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
    forge_work = ForgeWork(take, d, d_t)
    # a forged batch has at most one row per family per sample
    step_work = _StepWork(len(FAMILIES) * take, d, config.hidden)
    trace = []
    for rng in derived_rngs(seed, "stage0", "step", count=config.steps):
        idx = rng.choice(pool.size, size=take, replace=False)
        forged = forge_batch(corpus.features, pool[idx], rng, config.rho, forge_work)
        trace.append(qa_loss_and_grads(forged, params, config.alpha,
                                       state.grad_views, step_work))
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
    f, n, d = corpus.features, len(corpus), params.d
    tail = max(0, n - SCORE_WINDOW - n % 4)
    windows = [(lo, lo + SCORE_WINDOW) for lo in range(0, tail, SCORE_WINDOW)]
    height = max(hi - lo for lo, hi in windows + [(tail, n)])
    x, work = np.empty((height, 4 * d)), _ForwardWork(height, params.hidden)
    logits = np.empty(n)
    for lo, hi in windows + [(tail, n)]:
        xw = x[:hi - lo]
        xw[:, :d], xw[:, d:2 * d] = f.V[lo:hi], f.A[lo:hi]
        logits[lo:hi] = _forward(xw, f.T[lo:hi], f.P[lo:hi], params, work)[0]
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
    """The score map, the checksums of the scorer and the corpus the scores
    were taken from, and ``scores``, one read-only float64 per corpus row, in
    row order. Built only when every score is in (0, 1)."""

    weight_map: WeightMapConfig
    qa_checksum: str
    corpus_checksum: str
    scores: np.ndarray

    def __post_init__(self):
        self.scores = _freeze(self.scores, np.float64)
        scored = (self.scores > 0.0) & (self.scores < 1.0)
        if not scored.all():
            k = int(np.argmin(scored))
            raise ValidationError(f"weight file gives row {k} score "
                                  f"{float(self.scores[k])!r}, outside (0, 1)")


@dataclass(frozen=True)
class WeightFileHeader:
    """A weight file's header line after its ``"kind": "weight_file"``, read
    and written by the config walker; ``rows`` float64 scores follow it."""

    weight_map: WeightMapConfig
    qa_checksum: str
    corpus_checksum: str
    rows: int = bounded(MISSING, "[0, inf)")

    def __post_init__(self):
        check_ranges(self)


def qa_checksum(params: QaParams) -> str:
    """SHA-256 over each parameter in _PARAM_KEYS order: its shape as JSON
    text (``[8, 12]``), then its little-endian float64 bytes."""
    digest = hashlib.sha256()
    for arr in params.to_dict().values():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        digest.update(json.dumps(arr.shape).encode("ascii"))
        digest.update(arr)
    return digest.hexdigest()


def export_weights(corpus: Corpus, params: QaParams, cfg: WeightMapConfig,
                   path=None) -> WeightFile:
    """Score every corpus row and, given ``path``, write the weight file, an
    array file (``util.array_file_chunks``): the ``WeightFileHeader`` line,
    then the scores in corpus row order. Equal (corpus, params, cfg) give
    equal bytes."""
    wf = WeightFile(weight_map=cfg, qa_checksum=qa_checksum(params),
                    corpus_checksum=corpus_checksum(corpus),
                    scores=score_corpus(corpus, params))
    if path is not None:
        header = WeightFileHeader(cfg, wf.qa_checksum, wf.corpus_checksum,
                                  len(wf.scores))
        write_atomic(array_file_chunks({"kind": "weight_file",
                                        **config_to_dict(header)},
                                       [np.asarray(wf.scores, "<f8")]), path)
    return wf


def _layout(raw) -> tuple:
    """The header and the scores of a weight file's header line
    (``util.read_array_file``)."""
    if type(raw) is not dict or raw.pop("kind", None) != "weight_file":
        raise ValidationError("not a weight file")
    header = config_from_dict(WeightFileHeader, raw, what="weight file header")
    return header, [("scores", "<f8", (header.rows,))], f"{header.rows} float64 scores"


def load_weight_file(path) -> WeightFile:
    header, arrays, _ = read_array_file(path, "weight", _layout,
                                        rewrite="re-run augqual score to rewrite it",
                                        header_name="weight file header")
    return WeightFile(weight_map=header.weight_map, qa_checksum=header.qa_checksum,
                      corpus_checksum=header.corpus_checksum, scores=arrays["scores"])


def verify_weight_file(wf: WeightFile, corpus: Corpus) -> np.ndarray:
    """Each corpus row's weight, in row order, once the file is bound to the
    corpus by its checksum and holds one score per corpus row. A weight is
    ``sample_weight`` of the row's score under the file's map, the corpus's
    ``augmented`` column deciding which rows weigh 1; the scalar map, as
    numpy's power rounds some scores apart from Python's ``**``."""
    if wf.corpus_checksum != corpus_checksum(corpus):
        raise ChecksumError("weight file was exported for a different corpus")
    if wf.scores.shape != (len(corpus),):
        raise ValidationError(f"weight file holds {wf.scores.size} scores, "
                              f"the corpus {len(corpus)} rows")
    return np.array([sample_weight("Augmented" if a else "Original", s, wf.weight_map)
                     for a, s in zip(corpus.augmented.tolist(), wf.scores.tolist())])


# ---------------------------------------------------------------------------
# Scorer snapshots
# ---------------------------------------------------------------------------

def qa_snapshot_chunks(params: QaParams, header: CorpusHeader) -> list:
    """The scorer snapshot in pieces (``util.snapshot_chunks``); non-finite
    parameters are refused here, before any piece."""
    return snapshot_chunks({"kind": "qa_snapshot", "header": config_to_dict(header)},
                           params.to_dict())


def save_qa_snapshot(params: QaParams, header: CorpusHeader, path) -> None:
    write_atomic(qa_snapshot_chunks(params, header), path)


def load_qa_snapshot(path) -> tuple[QaParams, CorpusHeader]:
    raw, arrays = read_snapshot(path, "scorer snapshot", "qa_snapshot", ("header",),
                                _PARAM_KEYS)
    header = header_from_dict(raw["header"])
    params = QaParams.from_dict(arrays)
    params.validate()
    if params.d != header.d or params.d_t != header.d_t:
        raise ValidationError("snapshot params disagree with echoed header")
    return params, header
