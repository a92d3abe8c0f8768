"""Per-sample reference code: the oracles the library's batched paths answer to.

The library keeps a corpus as columns and computes whole batches at once.
The functions here work one sample at a time, in the textbook form of each
formula, and the tests assert that both agree. ``Sample`` is one corpus
record as separate fields, with the polarity condition the scorer and the
forge read (a corpus derives it from the sentiment); ``samples_of`` and
``corpus_from_samples`` convert between it and the columnar ``Corpus``,
``sample_ids`` names each row as the generator lays rows out (the library
names a row by its index alone), and ``corpus_with`` copies a corpus with
some of its columns replaced.
``corpus_file`` writes a corpus as its file's bytes and ``with_header``
rewrites a file's header line, both from the format's definition rather than
the library's writer; ``snapshot_file`` and ``snapshot_doc`` write and read
a scorer or head snapshot, and ``weight_file`` and ``weight_doc`` a weight
file, which share that layout, the same way. ``json_weight_file`` writes a
weight file in one of the earlier JSON formats.
``score_one_pass`` writes out the scorer's forward over a whole corpus at
once, which windowed scoring must match bit for bit.
``sentiment_class``, ``encode`` and ``decode`` bin one sentiment value and
map it to and from target tokens, which the library does for whole columns.
``ref_qa_loss_and_grads`` and ``ref_head_loss_and_grads`` are the two batch
losses with every intermediate and each gradient a fresh array, the form the
library's losses had before they wrote into work arrays and Adam's gradient
buffer; the library's gradients must equal theirs bit for bit. The scorer
reference computes the gradient of all four input blocks and slices out the
two it needs, where the library computes only those two.
``ref_train_stage0`` and ``ref_train_stage1`` are the two training loops in
that form, step for step: each step seeds its own generator, gathers and
concatenates its batch (``take_rows`` and ``ref_forge_batch`` for the
scorer) and calls those losses; ``forged_rows`` reads a forged batch back as
feature rows. ``head_loss_and_grads`` calls the library's head loss on raw targets
and weights, building their supervision as a training loop does for a pool.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from augqual.corpus import Corpus, FeatureRows, VerbalScheme
from augqual.finetune import HeadParams, _loss_and_grads, _supervision, init_head
from augqual.forge import ForgedBatch
from augqual.numerics import adam_step, bce_with_logit, gelu_and_cdf, init_adam, sigmoid
from augqual.qa import (QaParams, _family_coefficients, _forward,
                        _ForwardWork, init_qa_params, sample_weight,
                        verify_weight_file)
from augqual.util import ValidationError, config_to_dict, derived_rng


# ---------------------------------------------------------------------------
# Records one at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One record: pooled per-modality features plus label and lineage (an
    augment has a parent_id), and the polarity condition of its features."""

    id: str
    h_v: np.ndarray
    h_a: np.ndarray | None
    h_t_raw: np.ndarray
    polarity: int
    sentiment: float
    parent_id: str | None = None
    hidden_quality: float | None = None


def sample_ids(corpus: Corpus) -> list:
    """A name for each corpus row, as ``generate_corpus`` lays rows out:
    ``o{row:05d}`` for an original, ``{parent's id}-a{k}`` for the k-th
    augment of its parent in row order."""
    ids, augments = [], {}
    for row, parent in enumerate(corpus.parent.tolist()):
        if parent < 0:
            ids.append(f"o{row:05d}")
        else:
            k = augments[parent] = augments.get(parent, -1) + 1
            ids.append(f"o{parent:05d}-a{k}")
    return ids


def samples_of(corpus: Corpus) -> list:
    """Every row of a corpus as a Sample, in corpus order, named by
    ``sample_ids``."""
    f, ids = corpus.features, sample_ids(corpus)
    return [Sample(id=ids[i], h_v=f.V[i],
                   h_a=f.A[i] if corpus.has_audio[i] else None, h_t_raw=f.T[i],
                   polarity=int(f.P[i]), sentiment=float(corpus.sentiment[i]),
                   parent_id=ids[corpus.parent[i]] if corpus.parent[i] >= 0 else None,
                   hidden_quality=(None if np.isnan(corpus.hidden_quality[i])
                                   else float(corpus.hidden_quality[i])))
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
    """The columnar corpus holding these records (parents looked up by id);
    as in a corpus file, the polarity follows from the sentiment, and the
    samples' own ids are not kept."""
    samples = list(samples)
    row = {s.id: i for i, s in enumerate(samples)}
    f = rows_of(samples, header.d, header.d_t)
    return Corpus(
        header=header,
        V=f.V, A=f.A, T=f.T, has_audio=[s.h_a is not None for s in samples],
        sentiment=[s.sentiment for s in samples],
        parent=[-1 if s.parent_id is None else row[s.parent_id] for s in samples],
        hidden_quality=[np.nan if s.hidden_quality is None else s.hidden_quality
                        for s in samples])


def corpus_with(corpus: Corpus, **columns) -> Corpus:
    """A corpus with the header and columns of ``corpus`` but the named ones
    (V, A, T, has_audio, sentiment, parent, hidden_quality) replaced; nothing
    is validated, so a test can save a corpus the loader must refuse."""
    f = corpus.features
    given = {"V": f.V, "A": f.A, "T": f.T, "has_audio": corpus.has_audio,
             "sentiment": corpus.sentiment, "parent": corpus.parent,
             "hidden_quality": corpus.hidden_quality}
    return Corpus(header=corpus.header, **{**given, **columns})


def _header_line(doc) -> bytes:
    """A header as the first line of a corpus or snapshot file: compact JSON,
    any array in it as a list, padded with spaces to a multiple of 8 bytes,
    newline included."""
    text = json.dumps(doc, separators=(",", ":"),
                      default=lambda a: a.tolist()).encode("ascii")
    return text + b" " * (-(len(text) + 1) % 8) + b"\n"


def corpus_file(corpus: Corpus) -> bytes:
    """The bytes of a corpus file: the header with its row count, then the
    columns V, A, T, sentiment, hidden_quality (float64), parent (int64) and
    has_audio (one byte), each little-endian, packed value by value."""
    n, f = len(corpus), corpus.features
    floats = [f.V.ravel(), f.A.ravel(), f.T.ravel(), corpus.sentiment,
              corpus.hidden_quality]
    return b"".join([
        _header_line({**config_to_dict(corpus.header), "rows": n}),
        *(struct.pack(f"<{len(c)}d", *c.tolist()) for c in floats),
        struct.pack(f"<{n}q", *corpus.parent.tolist()),
        struct.pack(f"<{n}B", *corpus.has_audio.tolist())])


def with_header(data: bytes, edit) -> bytes:
    """Corpus file bytes whose header object is replaced by ``edit(header)``
    and padded again; the columns are kept as they are."""
    line, rest = data.split(b"\n", 1)
    return _header_line(edit(json.loads(line))) + rest


def snapshot_file(doc) -> bytes:
    """The bytes of a snapshot whose header is ``doc``, each entry of its
    ``params`` given as ``{"shape": [...], "data": values}``: the header line
    with each entry replaced by its shape, then each entry's values packed one
    by one as little-endian float64, in the order ``params`` lists them. An
    entry without a shape is left out of the header, one without data adds no
    bytes, data given as bytes is written as it is, and any other entry, or
    ``params`` or ``doc`` of another JSON type, goes into the header as it
    is."""
    params = doc.get("params") if type(doc) is dict else None
    if type(params) is not dict:
        return _header_line(doc)
    shapes, body = {}, []
    for key, entry in params.items():
        if type(entry) is not dict:
            shapes[key] = entry
            continue
        if "shape" in entry:
            shapes[key] = entry["shape"]
        data = entry.get("data", b"")
        if not isinstance(data, bytes):
            data = struct.pack(f"<{np.size(data)}d", *np.ravel(data).tolist())
        body.append(data)
    return _header_line({**doc, "params": shapes}) + b"".join(body)


def snapshot_doc(data: bytes) -> dict:
    """A well-formed snapshot file as ``snapshot_file`` takes it: the header
    with each parameter as its shape and its float64 values."""
    line, body = data.split(b"\n", 1)
    doc, at = json.loads(line), 0
    for key, shape in doc["params"].items():
        n = int(np.prod(shape))
        values = np.array(struct.unpack(f"<{n}d", body[at:at + 8 * n])).reshape(shape)
        doc["params"][key], at = {"shape": shape, "data": values}, at + 8 * n
    return doc


def weight_file(doc) -> bytes:
    """The bytes of a weight file given as ``{"header": ..., "scores": [...]}``:
    the header line, then each score packed as a little-endian float64, or
    written as it is when given as bytes; without scores, the header line
    alone."""
    return _header_line(doc["header"]) + b"".join(
        s if isinstance(s, bytes) else struct.pack("<d", s)
        for s in doc.get("scores", ()))


def weight_doc(data: bytes) -> dict:
    """A well-formed weight file as ``weight_file`` takes it."""
    line, body = data.split(b"\n", 1)
    return {"header": json.loads(line),
            "scores": list(struct.unpack(f"<{len(body) // 8}d", body))}


def json_weight_file(corpus: Corpus, wf, former: bool = False) -> str:
    """The weight file of ``corpus`` in an earlier JSON format, as the program
    wrote it (keys sorted, one space a level, then a newline): ``metadata``
    holding the map, both checksums and a fixed creation stamp, and one
    ``{"id", "score"}`` entry per row, in ``sample_ids`` order; the ``former``
    format also gave each entry its origin and its weight."""
    entries = []
    for id_, row in sorted(zip(sample_ids(corpus), range(len(corpus)))):
        entry = {"id": id_, "score": float(wf.scores[row])}
        if former:
            origin = "Augmented" if corpus.augmented[row] else "Original"
            entry.update(origin=origin,
                         weight=sample_weight(origin, entry["score"], wf.weight_map))
        entries.append(entry)
    metadata = {**config_to_dict(wf.weight_map), "qa_checksum": wf.qa_checksum,
                "corpus_checksum": wf.corpus_checksum,
                "created_at": "1970-01-01T00:00:00Z"}
    return json.dumps({"metadata": metadata, "entries": entries}, indent=1,
                      sort_keys=True) + "\n"


def feature_checksum(corpus: Corpus) -> str:
    """SHA-256 over the raw float64 bytes of every feature array, in record order."""
    h = hashlib.sha256()
    for s in samples_of(corpus):
        h.update(s.id.encode("utf-8"))
        h.update(s.h_v.tobytes())
        h.update(b"\x00" if s.h_a is None else b"\x01" + s.h_a.tobytes())
        h.update(s.h_t_raw.tobytes())
    return h.hexdigest()


def float_block(values) -> str:
    """A float array as the earlier JSON files held it (corpus records of the
    line-oriented formats, and the snapshots before the binary ones): padded
    standard base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


# ---------------------------------------------------------------------------
# Sentiment bins and target tokens, one value at a time
# ---------------------------------------------------------------------------

def sentiment_class(y: float, k: int) -> int:
    """Equal-width bin index of y in [-1, 1] split into k classes."""
    return min(int((y + 1.0) / 2.0 * k), k - 1)


def derive_polarity(y: float) -> int:
    """Binary polarity from sentiment sign; neutral (y == 0) counts positive."""
    if not -1.0 <= y <= 1.0:
        raise ValidationError(f"sentiment {y} outside [-1, 1]")
    return 1 if y >= 0 else 0


def encode(verbal: VerbalScheme, y: float) -> tuple[int, ...]:
    """Target tokens for a sentiment value: polarity, bin, end."""
    cls = sentiment_class(y, len(verbal.class_tokens))
    return (verbal.sign_tokens[derive_polarity(y)], verbal.class_tokens[cls],
            verbal.eos_token)


def decode(verbal: VerbalScheme, tokens) -> float:
    """Scalar sentiment from predicted tokens. Total and deterministic."""
    lo = verbal.class_tokens[0]
    idx = min(max(int(tokens[1]) - lo, 0), len(verbal.class_tokens) - 1)
    base = verbal.class_values[idx]
    if base == 0.0:
        positive = int(tokens[0]) == verbal.sign_tokens[1]
        return verbal.neutral_value if positive else -verbal.neutral_value
    return base


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


def score_one_pass(corpus: Corpus, params: QaParams) -> np.ndarray:
    """Scores of every corpus row from one forward over all rows at once:
    ``sigmoid`` of the full-batch logits, clamped to the open interval (0, 1),
    in the library's order of float operations but without its windows."""
    f = corpus.features
    h_t = f.T @ params.text_proj_w.T + params.text_proj_b
    x = np.concatenate([f.V, f.A, h_t, params.polarity_emb[f.P]], axis=1)
    pre = x @ params.hidden_w.T + params.hidden_b
    act = pre * 0.5 * (1.0 + erf(pre * (1.0 / np.sqrt(2.0))))
    logits = act @ params.out_w + params.out_b[0]
    return np.clip(expit(logits), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def qa_loss(forged: ForgedBatch, params: QaParams, alpha) -> float:
    """Family-weighted mean BCE over one forged batch, from the library's
    forward pass and coefficients alone."""
    coef = _family_coefficients(forged.sizes, tuple(alpha))
    work = _ForwardWork(forged.x.shape[0], params.hidden)
    logits = _forward(forged.x, forged.T, forged.P, params, work)[0]
    return float(np.sum(coef * bce_with_logit(logits, forged.labels)))


def ref_gelu_and_cdf(x: np.ndarray):
    """gelu(x) and Phi(x) as fresh arrays, in the textbook expressions."""
    one_plus_erf = 1.0 + erf(x * (1.0 / np.sqrt(2.0)))
    return x * 0.5 * one_plus_erf, 0.5 * one_plus_erf


def ref_gelu_grad_from_cdf(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    return cdf + x * ((1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x))


def take_rows(rows: FeatureRows, idx) -> FeatureRows:
    """The rows ``idx`` of ``rows``, each array a fresh copy."""
    return FeatureRows(V=rows.V[idx], A=rows.A[idx], T=rows.T[idx], P=rows.P[idx])


def forged_rows(forged: ForgedBatch) -> FeatureRows:
    """A forged batch's features as rows of video, audio, text and polarity:
    views of its scorer input's first two blocks, its text and polarity."""
    d = forged.x.shape[1] // 4
    return FeatureRows(V=forged.x[:, :d], A=forged.x[:, d:2 * d], T=forged.T,
                       P=forged.P)


def ref_forward(rows: FeatureRows, params: QaParams):
    """The scorer's batched forward pass with every array fresh: the input
    assembled by concatenation, then logits and the backprop caches."""
    h_t = rows.T @ params.text_proj_w.T + params.text_proj_b
    h_p = params.polarity_emb[rows.P]
    x = np.concatenate([rows.V, rows.A, h_t, h_p], axis=1)
    pre = x @ params.hidden_w.T + params.hidden_b
    act, cdf = ref_gelu_and_cdf(pre)
    logits = act @ params.out_w + params.out_b[0]
    return logits, (x, pre, act, cdf)


def ref_family_coefficients(sizes, alpha) -> np.ndarray:
    """Per-row loss coefficients alpha_k / (Z * n_k); Z sums present families."""
    norm = sum(a for a, n in zip(alpha, sizes) if n > 0)
    return np.repeat([a / (norm * n) if n else 0.0 for a, n in zip(alpha, sizes)],
                     sizes)


def ref_qa_loss_and_grads(forged: ForgedBatch, params: QaParams, alpha):
    """The scorer loss, a dict of freshly allocated gradients, one per
    parameter, in the library's order of float operations, and the (n, 4d)
    gradient of the whole assembled input."""
    coef = ref_family_coefficients(forged.sizes, alpha)
    Y = forged.labels
    logits, (x, pre, act, cdf) = ref_forward(forged_rows(forged), params)
    loss = float(np.sum(coef * bce_with_logit(logits, Y)))

    d = params.d
    g_logit = coef * (sigmoid(logits) - Y)            # (n,)
    g_act = np.outer(g_logit, params.out_w)           # (n, hidden)
    g_pre = g_act * ref_gelu_grad_from_cdf(pre, cdf)  # (n, hidden)
    g_x = g_pre @ params.hidden_w                     # (n, 4d), all four blocks
    g_ht = g_x[:, 2 * d:3 * d]
    g_hp = g_x[:, 3 * d:]
    grads = {
        "text_proj_w": g_ht.T @ forged.T,
        "text_proj_b": g_ht.sum(axis=0),
        "polarity_emb": polarity_sums_add_at(g_hp, forged.P),
        "hidden_w": g_pre.T @ x,
        "hidden_b": g_pre.sum(axis=0),
        "out_w": act.T @ g_logit,
        "out_b": np.array([g_logit.sum()]),
    }
    return loss, grads, g_x


def ref_head_logits(arrays: dict, X: np.ndarray):
    """The head's logits (n, positions, vocab) and backprop caches, every
    array fresh; the output layer is one matmul over the 2-D view of out_w."""
    pre = X @ arrays["in_w"].T + arrays["in_b"]
    z, cdf = ref_gelu_and_cdf(pre)
    out_b = arrays["out_b"]
    W2 = arrays["out_w"].reshape(out_b.size, -1)
    logits = (z @ W2.T).reshape(z.shape[0], *out_b.shape) + out_b
    return logits, pre, z, cdf


def ref_head_loss_and_grads(arrays: dict, X: np.ndarray, targets: np.ndarray,
                            weights: np.ndarray):
    """The weighted token loss and a dict of freshly allocated gradients, one
    per head parameter, in the library's order of float operations."""
    n = X.shape[0]
    logits, pre, z, cdf = ref_head_logits(arrays, X)
    shift = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shift - np.log(np.sum(np.exp(shift), axis=-1, keepdims=True))
    rows = np.arange(n)[:, None]
    cols = np.arange(targets.shape[1])[None, :]
    ce = -log_probs[rows, cols, targets]               # (n, T)
    per_sample = np.sum(ce, axis=1) / targets.shape[1]
    loss = float(np.sum(weights * per_sample) / n)

    scale = weights / (n * targets.shape[1])           # (n,)
    G = np.exp(log_probs)
    G[rows, cols, targets] -= 1.0
    G *= scale[:, None, None]
    G2 = G.reshape(n, -1)                              # (n, positions * vocab)
    W2 = arrays["out_w"].reshape(G2.shape[1], -1)
    grads = {
        "out_w": (G2.T @ z).reshape(arrays["out_w"].shape),
        "out_b": G.sum(axis=0),
    }
    g_z = G2 @ W2
    g_pre = g_z * ref_gelu_grad_from_cdf(pre, cdf)
    grads["in_w"] = g_pre.T @ X
    grads["in_b"] = g_pre.sum(axis=0)
    return loss, grads


def head_loss_and_grads(arrays: dict, X: np.ndarray, targets: np.ndarray,
                        weights: np.ndarray, grads: dict) -> float:
    """The library's head loss on one batch of targets and weights, its
    gradients written into ``grads``: the batch's supervision built as
    training builds a pool's."""
    sv = _supervision(targets, weights, X.shape[0], arrays["out_b"].shape[1])
    return _loss_and_grads(arrays, X, sv, grads)


# ---------------------------------------------------------------------------
# The training loops step for step, every array fresh
# ---------------------------------------------------------------------------

def ref_forge_batch(batch: FeatureRows, rng: np.random.Generator,
                    mask_rate: float) -> ForgedBatch:
    """The array forge over an already gathered batch, each family built as
    its own rows and the four blocks concatenated: mix draws its donors and
    coins in one call, then mask one uniform per dimension."""
    P, n = batch.P, len(batch)
    n0 = int(np.count_nonzero(P == 0))
    if n0 == 0 or n0 == n:
        mix = take_rows(batch, np.zeros(0, dtype=np.intp))
    else:
        highs = np.column_stack([np.where(P == 0, n - n0, n0), np.full(n, 2)])
        pick, keep_video = rng.integers(0, highs).T
        donor = np.argsort(P, kind="stable")[np.where(P == 0, n0, 0) + pick]
        own = np.arange(n)
        mix = FeatureRows(V=batch.V[np.where(keep_video, own, donor)],
                          A=batch.A[np.where(keep_video, donor, own)], T=batch.T, P=P)
    d, d_t = batch.V.shape[1], batch.T.shape[1]
    keep = rng.random(n * (2 * d + d_t)).reshape(n, -1) >= mask_rate
    mask = FeatureRows(V=batch.V * keep[:, :d], A=batch.A * keep[:, d:2 * d],
                       T=batch.T * keep[:, 2 * d:], P=P)
    blocks = (batch, mix, mask, batch)
    sizes = (n, len(mix), n, n)
    V = np.concatenate([b.V for b in blocks])
    A = np.concatenate([b.A for b in blocks])
    labels = np.zeros(sum(sizes))
    labels[:n] = 1.0
    return ForgedBatch(
        x=np.concatenate([V, A, np.full((V.shape[0], 2 * d), np.nan)], axis=1),
        T=np.concatenate([b.T for b in blocks]),
        P=np.concatenate([P, mix.P, P, 1 - P]), labels=labels, sizes=sizes)


def ref_train_stage0(corpus: Corpus, config, seed: int, rows=None):
    """``train_stage0`` step for step with every array fresh: the trained
    parameters (name -> array), the loss trace and the final Adam state."""
    pool = np.flatnonzero(~corpus.augmented)
    if rows is not None:
        pool = pool[np.isin(pool, rows)]
    d, d_t = corpus.header.d, corpus.header.d_t
    state = init_adam(init_qa_params(d, d_t, config.hidden, derived_rng(
        seed, "stage0", "init")).to_dict(), lr=config.lr)
    trace = []
    for step in range(config.steps):
        rng = derived_rng(seed, "stage0", "step", step)
        take = min(config.batch_size, pool.size)
        idx = rng.choice(pool.size, size=take, replace=False)
        forged = ref_forge_batch(take_rows(corpus.features, pool[idx]), rng,
                                 config.rho)
        loss, grads, _ = ref_qa_loss_and_grads(
            forged, QaParams.from_dict(state.params), config.alpha)
        for k, g in grads.items():
            state.grad_views[k][...] = g
        trace.append(loss)
        adam_step(state)
    return state.params, trace, state


def ref_train_stage1(corpus: Corpus, weight_file, config, seed: int, rows=None):
    """``train_stage1`` step for step with every array fresh: the trained
    head (name -> array), the loss trace and the final Adam state."""
    rows = np.arange(len(corpus)) if rows is None else np.asarray(rows, dtype=np.intp)
    weights = (np.ones(rows.size) if weight_file is None
               else verify_weight_file(weight_file, corpus)[rows])
    state = init_adam(init_head(corpus, config, derived_rng(
        seed, "stage1", "init")).to_dict(), lr=config.lr)
    f = corpus.features
    trace = []
    for step in range(config.steps):
        rng = derived_rng(seed, "stage1", "step", step)
        take = min(config.batch_size, rows.size)
        idx = rng.choice(rows.size, size=take, replace=False)
        batch = rows[idx]
        X = np.concatenate([f.V[batch], f.A[batch], f.T[batch]], axis=1)
        targets = corpus.header.verbal.encode(corpus.sentiment[batch])
        loss, grads = ref_head_loss_and_grads(state.params, X, targets, weights[idx])
        for k, g in grads.items():
            state.grad_views[k][...] = g
        trace.append(loss)
        adam_step(state)
    return state.params, trace, state


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
    """Mean token cross-entropy over the target positions."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValidationError("logits/targets shape mismatch")
    return float(np.mean([softmax_cross_entropy(logits[t], int(targets[t]))
                          for t in range(targets.shape[0])]))


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


def empty_grads(arrays: dict) -> dict:
    """A fresh, uninitialized array for each named array: the ``grads`` a
    loss fills when its caller wants new gradients rather than Adam's."""
    return {k: np.empty_like(v) for k, v in arrays.items()}


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
