"""Per-sample reference code: the oracles the library's batched paths answer to.

The library keeps a corpus as columns and computes whole batches at once.
The functions here work one sample at a time, in the textbook form of each
formula, and the tests assert that both agree. ``Sample`` is one corpus
record as separate fields; ``samples_of`` and ``corpus_from_samples``
convert between it and the columnar ``Corpus``; ``corpus_line`` writes one
record dict as a corpus file line, from the format's definition rather than
the library's writer.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from augqual.corpus import IGNORE_INDEX, Corpus, FeatureRows
from augqual.finetune import HeadParams
from augqual.forge import ForgedBatch
from augqual.numerics import bce_with_logit, gelu_and_cdf
from augqual.qa import QaParams, WeightFile, _family_coefficients, _forward
from augqual.util import ValidationError


# ---------------------------------------------------------------------------
# Records one at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One record: pooled per-modality features plus labels and lineage."""

    id: str
    h_v: np.ndarray
    h_a: np.ndarray | None
    h_t_raw: np.ndarray
    polarity: int
    sentiment: float
    origin: str  # "Original" | "Augmented"
    parent_id: str | None = None
    hidden_quality: float | None = None
    target_tokens: tuple[int, ...] = ()


def samples_of(corpus: Corpus) -> list:
    """Every row of a corpus as a Sample, in corpus order."""
    f, ids = corpus.features, corpus.ids.tolist()
    return [Sample(id=ids[i], h_v=f.V[i],
                   h_a=f.A[i] if corpus.has_audio[i] else None, h_t_raw=f.T[i],
                   polarity=int(f.P[i]), sentiment=float(corpus.sentiment[i]),
                   origin="Augmented" if corpus.augmented[i] else "Original",
                   parent_id=ids[corpus.parent[i]] if corpus.parent[i] >= 0 else None,
                   hidden_quality=(None if np.isnan(corpus.hidden_quality[i])
                                   else float(corpus.hidden_quality[i])),
                   target_tokens=tuple(corpus.targets[i].tolist()))
            for i in range(len(corpus))]


def rows_of(samples, d: int, d_t: int) -> FeatureRows:
    """The features of a sample sequence stacked into arrays."""
    samples = list(samples)
    V = np.zeros((len(samples), d))
    A = np.zeros((len(samples), d))
    T = np.zeros((len(samples), d_t))
    for i, s in enumerate(samples):
        V[i] = s.h_v
        if s.h_a is not None:
            A[i] = s.h_a
        T[i] = s.h_t_raw
    P = np.array([s.polarity for s in samples], dtype=np.intp)
    return FeatureRows(V=V, A=A, T=T, P=P)


def corpus_from_samples(header, samples) -> Corpus:
    """The columnar corpus holding these records (parents looked up by id)."""
    samples = list(samples)
    row = {s.id: i for i, s in enumerate(samples)}
    return Corpus(
        header=header, ids=np.array([s.id for s in samples], dtype=object),
        features=rows_of(samples, header.d, header.d_t),
        has_audio=[s.h_a is not None for s in samples],
        sentiment=[s.sentiment for s in samples],
        augmented=[s.origin == "Augmented" for s in samples],
        parent=[-1 if s.parent_id is None else row[s.parent_id] for s in samples],
        hidden_quality=[np.nan if s.hidden_quality is None else s.hidden_quality
                        for s in samples],
        targets=np.array([s.target_tokens for s in samples],
                         dtype=np.int64).reshape(len(samples), -1))


def feature_checksum(corpus: Corpus) -> str:
    """SHA-256 over the raw float64 bytes of every feature array, in record order."""
    h = hashlib.sha256()
    for s in samples_of(corpus):
        h.update(s.id.encode("utf-8"))
        h.update(s.h_v.tobytes())
        h.update(b"\x00" if s.h_a is None else b"\x01" + s.h_a.tobytes())
        h.update(s.h_t_raw.tobytes())
    return h.hexdigest()


FEATURE_KEYS = ("h_v", "h_a", "h_t_raw")


def feature_block(values) -> str:
    """A feature row as the corpus file holds it: padded standard base64 of
    its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def block_values(text: str) -> np.ndarray:
    """The float64 values of a well-formed feature block."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def corpus_line(record: dict) -> str:
    """One record dict as a corpus file line. A feature given as a numpy
    array is written as its block; any other value (a string, null, a JSON
    list of decimals) as it is, so a test can write damaged records."""
    return json.dumps({key: feature_block(value)
                       if key in FEATURE_KEYS and isinstance(value, np.ndarray)
                       else value for key, value in record.items()})


def scores_by_id(wf: WeightFile) -> dict:
    return {e.id: e.score for e in wf.entries}


# ---------------------------------------------------------------------------
# Forge draws one sample at a time
# ---------------------------------------------------------------------------

def mix_rows_loop(batch: FeatureRows, rng: np.random.Generator):
    """The mix family drawn one sample at a time, two scalar draws each:
    (video_from, audio_from, rows), or None when a polarity is missing."""
    by_pol = (np.flatnonzero(batch.P == 0), np.flatnonzero(batch.P == 1))
    if by_pol[0].size == 0 or by_pol[1].size == 0:
        return None
    n = len(batch)
    video_from = np.empty(n, dtype=np.intp)
    audio_from = np.empty(n, dtype=np.intp)
    for i, pol in enumerate(batch.P.tolist()):
        donors = by_pol[1 - pol]
        donor = donors[rng.integers(donors.size)]
        if rng.integers(2):
            video_from[i], audio_from[i] = i, donor
        else:
            video_from[i], audio_from[i] = donor, i
    return video_from, audio_from, FeatureRows(
        V=batch.V[video_from], A=batch.A[audio_from], T=batch.T, P=batch.P)


def polarity_sums_add_at(rows: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Sums of the rows of each polarity by unbuffered scatter-add."""
    out = np.zeros((2, rows.shape[1]))
    np.add.at(out, P, rows)
    return out


# ---------------------------------------------------------------------------
# Activations and losses
# ---------------------------------------------------------------------------

def gelu(x):
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF."""
    out, _ = gelu_and_cdf(x)
    return float(out) if np.isscalar(x) else out


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


# ---------------------------------------------------------------------------
# Scorer, one sample at a time
# ---------------------------------------------------------------------------

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


def qa_loss(forged: ForgedBatch, params: QaParams, alpha) -> float:
    """Family-weighted mean BCE over one forged batch."""
    coef = _family_coefficients(forged, alpha)
    logits, _ = _forward(forged.rows, params)
    return float(np.sum(coef * bce_with_logit(logits, forged.labels)))


# ---------------------------------------------------------------------------
# Surrogate head, one sample at a time
# ---------------------------------------------------------------------------

def head_input(sample, d: int) -> np.ndarray:
    """Raw-feature input row: [video; audio-or-zeros; text]."""
    h_a = sample.h_a if sample.h_a is not None else np.zeros(d)
    return np.concatenate([sample.h_v, h_a, sample.h_t_raw])


def head_logits(head: HeadParams, x: np.ndarray) -> np.ndarray:
    """Per-position vocabulary logits for one input row: (t_max, vocab)."""
    z = gelu(head.in_w @ x + head.in_b)
    return np.einsum("tvh,h->tv", head.out_w, z) + head.out_b


def predict_tokens(head: HeadParams, sample, d: int) -> tuple:
    """Argmax token per position; ties resolve to the lowest token index."""
    logits = head_logits(head, head_input(sample, d))
    return tuple(int(t) for t in np.argmax(logits, axis=-1))


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


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

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
