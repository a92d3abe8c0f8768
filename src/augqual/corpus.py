"""Feature-corpus data model, JSONL file format, and the synthetic generator.

A corpus file is line-oriented JSON: line 1 is the header
``{d, d_t, vocab_size, seed, generator_version, verbal}``; every further line
is one sample with fields ``id, h_v, h_a (null when missing), h_t_raw,
polarity, sentiment, origin, parent_id, hidden_quality, target_tokens``.
Each feature block (``h_v``, ``h_a``, ``h_t_raw``) is one padded
standard-alphabet base64 string of the row's little-endian float64 bytes, so
save/load round-trips are bit-exact, files are byte-reproducible from a seed,
and a float costs about 11 bytes rather than the ~20 of a decimal. The
header's ``generator_version`` names this format; the loader reads only
GENERATOR_VERSION files. Files are read and written one line at a time; the
loader checks every field's JSON type and every block's alphabet, padding and
byte length.

In memory a ``Corpus`` is columnar: one read-only array per field, row i
holding record i, with the features stacked as ``FeatureRows``. Training,
scoring, splitting and evaluation all select rows by index arrays.

The generator stands in for frozen encoders plus generative augmentation:
originals come from two polarity-conditioned Gaussian clusters per modality
(cluster means scale with the sentiment value, so the task is learnable), and
each augmented sample applies exactly one perturbation kind - benign jitter,
cross-modal swap against an opposite-polarity donor, masking degradation, or
polarity-inconsistent drift - with a hidden ground-truth quality in [0, 1]
that training code never reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .util import (ValidationError, b64_block, bounded, check_fields,
                   check_ranges, decode_block, derived_rng, sha256_hex)

GENERATOR_VERSION = "augqual-gen-2"
IGNORE_INDEX = -100
# Largest d, d_t and vocab_size a header may declare: far above any encoder
# width or token table the pipeline models, and small enough that a damaged
# file or config is refused before numpy is asked for an impossible array.
MAX_DIM = 65536
# Largest n_originals * (1 + augments_per_original) a corpus is generated
# with, far above the README's 6,000 rows, for the same reason.
MAX_ROWS = 1_000_000

# Signal geometry of the synthetic clusters. Feature = modality mean offset
# + sentiment * direction + unit Gaussian noise; scales set how separable each
# pathway is, the offset gives features the nonzero mean real pooled encoder
# outputs have (and makes degradation visible to linear probes).
_SIGNAL_SCALE = {"v": 4.0, "a": 3.5, "t": 4.5}
_MEAN_SCALE = 8.0
_FEATURE_NOISE = 1.0
# Sentiment magnitude floor: every sample carries usable polarity evidence.
_SENTIMENT_RANGE = (0.4, 1.0)
# Polarity-inconsistent drift strength: fraction of the way toward a
# resampled opposite-sentiment feature. Kept below 1 so drifted samples land
# in the ambiguous mid-region rather than on the opposite archetype; fully
# inverted features would conflict so hard with their kept label that even
# floor-weighted training cannot contain them.
_DRIFT_RANGE = (0.3, 0.6)
# Hidden-quality ceiling for corrupted samples.
_CORRUPT_Q_MAX = 0.3


def sentiment_class(y, k: int):
    """Equal-width bin index of each y in [-1, 1] split into k classes.

    ``y`` is a scalar or an array of any shape; the result is ``np.intp`` of
    the same shape. The k=2 split puts y = 0 (and -0.0) in the positive class.
    """
    return np.minimum(((np.asarray(y, dtype=np.float64) + 1.0) / 2.0 * k)
                      .astype(np.intp), k - 1)


_VERBAL_FIELDS = {"sign_tokens": (list,), "class_tokens": (list,),
                  "class_values": (list,), "neutral_value": (int, float),
                  "eos_token": (int,)}


@dataclass(frozen=True)
class VerbalScheme:
    """Token table mapping sentiment to a 3-token target sequence.

    Position 0 is the polarity token, position 1 the sentiment-bin token,
    position 2 the end token; one trailing IGNORE pads the sequence. The
    neutral bin (center 0.0) decodes to +-neutral_value using the polarity
    token, every other bin decodes to its center. ``encode`` maps an (n,)
    sentiment column to (n, 4) tokens; ``decode`` maps (n, T) predicted tokens
    to (n,) floats.
    """

    sign_tokens: tuple[int, int] = (0, 1)
    class_tokens: tuple[int, ...] = (2, 3, 4, 5, 6)
    class_values: tuple[float, ...] = (-0.8, -0.4, 0.0, 0.4, 0.8)
    neutral_value: float = 0.1
    eos_token: int = 7

    def to_dict(self) -> dict:
        return {
            "sign_tokens": list(self.sign_tokens),
            "class_tokens": list(self.class_tokens),
            "class_values": list(self.class_values),
            "neutral_value": self.neutral_value,
            "eos_token": self.eos_token,
        }

    @staticmethod
    def from_dict(raw) -> "VerbalScheme":
        """The table from its JSON object: integer tokens, number values."""
        check_fields(raw, _VERBAL_FIELDS, "bad verbal table in header")
        if (not set(map(type, raw["sign_tokens"] + raw["class_tokens"])) <= {int}
                or not set(map(type, raw["class_values"])) <= {int, float}):
            raise ValidationError("bad verbal table in header: tokens must be "
                                  "integers and class values numbers")
        return VerbalScheme(
            sign_tokens=tuple(raw["sign_tokens"]),
            class_tokens=tuple(raw["class_tokens"]),
            class_values=tuple(float(v) for v in raw["class_values"]),
            neutral_value=float(raw["neutral_value"]),
            eos_token=raw["eos_token"],
        )

    def encode(self, sentiment) -> np.ndarray:
        """(n, 4) int64 target tokens of an (n,) sentiment column: polarity
        token (y >= 0 is positive), bin token, end token, IGNORE."""
        y = np.asarray(sentiment, dtype=np.float64)
        outside = ~((y >= -1.0) & (y <= 1.0))
        if outside.any():
            raise ValidationError(f"sentiment {y[outside][0]} outside [-1, 1]")
        tokens = np.empty((y.shape[0], 4), dtype=np.int64)
        tokens[:, 0] = np.asarray(self.sign_tokens)[(y >= 0.0).astype(np.intp)]
        tokens[:, 1] = np.asarray(self.class_tokens)[
            sentiment_class(y, len(self.class_tokens))]
        tokens[:, 2:] = (self.eos_token, IGNORE_INDEX)
        return tokens

    def decode(self, tokens) -> np.ndarray:
        """(n,) float sentiment of (n, T) predicted tokens, T >= 2. Total and
        deterministic: class tokens outside the table clamp to its ends."""
        t = np.asarray(tokens)
        idx = np.clip(t[:, 1] - self.class_tokens[0], 0, len(self.class_tokens) - 1)
        base = np.asarray(self.class_values, dtype=np.float64)[idx]
        neutral = np.where(t[:, 0] == self.sign_tokens[1],
                           self.neutral_value, -self.neutral_value)
        return np.where(base == 0.0, neutral, base)


@dataclass(frozen=True)
class CorpusHeader:
    d: int
    d_t: int
    vocab_size: int
    seed: int
    generator_version: str = GENERATOR_VERSION
    verbal: VerbalScheme = field(default_factory=VerbalScheme)

    def validate(self) -> None:
        for name in ("d", "d_t", "vocab_size"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_DIM:
                raise ValidationError(f"{name} must be in [1, {MAX_DIM}], got {value}")
        v = self.verbal
        if (len(v.sign_tokens) != 2 or not v.class_tokens
                or len(v.class_tokens) != len(v.class_values)):
            raise ValidationError("verbal table needs 2 sign tokens and one "
                                  "value per class token")
        toks = (*v.sign_tokens, *v.class_tokens, v.eos_token)
        if any(t < 0 or t >= self.vocab_size for t in toks):
            raise ValidationError("verbal tokens exceed vocab_size")


@dataclass(frozen=True)
class CorruptionProfile:
    """Mutually exclusive per-sample corruption kinds and their rates."""

    sigma_benign: float = bounded(0.05, "[0, inf)")
    p_swap: float = bounded(0.0, "[0, 1]")
    p_degrade: float = bounded(0.0, "[0, 1]")
    degrade_mask_rate: float = bounded(0.5, "[0, 1]")
    p_label_noise: float = bounded(0.0, "[0, 1]")

    def __post_init__(self):
        check_ranges(self)
        total = self.p_swap + self.p_degrade + self.p_label_noise
        if total > 1.0 + 1e-12:
            raise ValidationError(
                f"corruption probabilities sum to {total} > 1; kinds are exclusive")


# Default profile: a moderate mix of all corruption kinds.
DEFAULT_PROFILE = CorruptionProfile(
    sigma_benign=0.05, p_swap=0.15, p_degrade=0.15,
    degrade_mask_rate=0.5, p_label_noise=0.15)


@dataclass(frozen=True)
class FeatureRows:
    """Features of a sequence of records stacked into arrays, one row each.

    ``A`` holds zeros where a record has no audio, the same zero vector the
    scorer and the head use for missing audio.
    """

    V: np.ndarray   # (n, d)
    A: np.ndarray   # (n, d)
    T: np.ndarray   # (n, d_t)
    P: np.ndarray   # (n,) polarity, intp

    def __len__(self) -> int:
        return self.P.shape[0]

    def take(self, idx) -> "FeatureRows":
        return FeatureRows(V=self.V[idx], A=self.A[idx], T=self.T[idx],
                           P=self.P[idx])


def _freeze(arr, dtype) -> np.ndarray:
    arr = np.asarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(eq=False)
class Corpus:
    """Header plus one read-only column per record field; row i is record i.

    ``parent`` is the row of an augment's parent (-1 for originals) and
    ``hidden_quality`` is NaN where a record has none. As the columns cannot
    be written, the file checksum is computed once and kept (corpus_checksum).
    """

    header: CorpusHeader
    ids: np.ndarray             # (n,) str, object dtype
    features: FeatureRows
    has_audio: np.ndarray       # (n,) bool
    sentiment: np.ndarray       # (n,) float64
    augmented: np.ndarray       # (n,) bool
    parent: np.ndarray          # (n,) intp
    hidden_quality: np.ndarray  # (n,) float64
    targets: np.ndarray         # (n, L) int64 target tokens
    _checksum: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        f = self.features
        self.features = FeatureRows(*map(_freeze, (f.V, f.A, f.T, f.P),
                                         (np.float64,) * 3 + (np.intp,)))
        for name, dtype in (("ids", object), ("has_audio", bool),
                            ("sentiment", np.float64), ("augmented", bool),
                            ("parent", np.intp), ("hidden_quality", np.float64),
                            ("targets", np.int64)):
            setattr(self, name, _freeze(getattr(self, name), dtype))

    def __len__(self) -> int:
        return self.ids.shape[0]


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def validate_corpus(corpus: Corpus) -> None:
    """Structural validation in one vectorized pass over the columns.

    Checks column shapes against the header, then per record: a unique
    id, finite features, lineage (originals have no parent, every augment's
    parent is an original), polarity against sentiment, the hidden-quality
    and token ranges, and at least one supervised token. Every range check
    is written so that NaN fails it. The error names the first bad record.
    """
    h, f, n = corpus.header, corpus.features, len(corpus)
    h.validate()
    s, p, aug, hq, toks = (corpus.sentiment, corpus.parent, corpus.augmented,
                           corpus.hidden_quality, corpus.targets)
    if (f.V.shape != (n, h.d) or f.A.shape != (n, h.d) or f.T.shape != (n, h.d_t)
            or {c.shape for c in (f.P, corpus.has_audio, s, aug, p, hq)} != {(n,)}
            or toks.ndim != 2 or toks.shape[0] != n):
        raise ValidationError("corpus columns disagree with the header or each other")
    ids = corpus.ids
    first_use = np.zeros(n, dtype=bool)
    first_use[np.unique(ids, return_index=True)[1]] = True
    has_parent = (p >= 0) & (p < n)
    tok_ok = (toks == IGNORE_INDEX) | ((toks >= 0) & (toks < h.vocab_size))
    checks = (
        (first_use, lambda i: "duplicate id"),
        (np.isfinite(f.V).all(1) & np.isfinite(f.A).all(1) & np.isfinite(f.T).all(1),
         lambda i: "non-finite feature"),
        (corpus.has_audio | ~f.A.any(1), lambda i: "audio features but no audio"),
        (aug | (p == -1), lambda i: "Original with parent_id"),
        (~aug | has_parent, lambda i: "Augmented without parent_id"),
        (~aug | ~aug[np.where(has_parent, p, 0)],
         lambda i: f"parent_id {ids[p[i]]} is not an Original"),
        ((s >= -1.0) & (s <= 1.0), lambda i: f"sentiment {s[i]} outside [-1, 1]"),
        (f.P == (s >= 0.0), lambda i: "polarity inconsistent with sentiment"),
        (np.isnan(hq) | ((hq >= 0.0) & (hq <= 1.0)),
         lambda i: "hidden_quality outside [0, 1]"),
        (tok_ok.all(1),
         lambda i: f"target token {toks[i][~tok_ok[i]][0]} out of range"),
        ((toks != IGNORE_INDEX).any(1), lambda i: "no supervised target token"),
    )
    ok = np.stack([c for c, _ in checks])
    if not ok.all():
        row = int(np.argmin(ok.all(axis=0)))
        message = checks[int(np.argmin(ok[:, row]))][1](row)
        raise ValidationError(f"record {ids[row]}: {message}")


def generation_header(n_originals: int, augments_per_original: int,
                      profile: CorruptionProfile, d: int, d_t: int,
                      vocab_size: int, seed: int = 0) -> CorpusHeader:
    """The header generate_corpus writes for these arguments, once they pass
    every check it makes before generating; ValidationError otherwise."""
    if n_originals < 2:
        raise ValidationError(f"cannot generate corpus: need both polarities "
                              f"(n_originals >= 2), got n_originals {n_originals}")
    if augments_per_original < 0:
        raise ValidationError(f"augments_per_original must be >= 0, "
                              f"got {augments_per_original}")
    if d < 4 or d_t < 4:
        raise ValidationError("feature dimensions d and d_t must be >= 4")
    if n_originals * (1 + augments_per_original) > MAX_ROWS:
        raise ValidationError(f"n_originals * (1 + augments_per_original) "
                              f"must be <= MAX_ROWS = {MAX_ROWS}")
    header = CorpusHeader(d=d, d_t=d_t, vocab_size=vocab_size, seed=seed)
    header.validate()
    return header


def generate_corpus(n_originals: int, augments_per_original: int,
                    profile: CorruptionProfile, seed: int,
                    d: int = 64, d_t: int = 96, vocab_size: int = 8) -> Corpus:
    """Deterministic synthetic corpus from a single root seed.

    Originals alternate polarity (so 2k originals give k per class) and come
    first; then each original's augments, in order. Each augmented sample is
    its parent under exactly one perturbation kind chosen by the profile,
    with hidden_quality 1.0 for benign jitter and a graded value in [0, 0.3]
    for the corrupted kinds. Per-sample RNG streams are derived from (seed,
    purpose, index), so output is order-independent.
    """
    header = generation_header(n_originals, augments_per_original, profile,
                               d, d_t, vocab_size, seed)
    dims = {"v": d, "a": d, "t": d_t}
    dir_rng = derived_rng(seed, "directions")
    axis = {m: _SIGNAL_SCALE[m] * _unit_direction(dir_rng, dims[m])
            for m in ("v", "a", "t")}
    offset = {m: _MEAN_SCALE * _unit_direction(dir_rng, dims[m])
              for m in ("v", "a", "t")}

    n = n_originals * (1 + augments_per_original)
    cols = {m: np.empty((n, dims[m])) for m in ("v", "a", "t")}
    sentiment = np.empty(n)
    parent = np.full(n, -1, dtype=np.intp)
    quality = np.full(n, np.nan)
    for i in range(n_originals):
        rng = derived_rng(seed, "orig", i)
        magnitude = rng.uniform(*_SENTIMENT_RANGE)
        y = magnitude if i % 2 == 0 else -magnitude
        sentiment[i] = y
        for m in ("v", "a", "t"):
            cols[m][i] = (offset[m] + y * axis[m]
                          + _FEATURE_NOISE * rng.standard_normal(dims[m]))

    polarity = sentiment[:n_originals] >= 0.0
    by_polarity = (np.flatnonzero(~polarity), np.flatnonzero(polarity))
    p_cut = (profile.p_swap,
             profile.p_swap + profile.p_degrade,
             profile.p_swap + profile.p_degrade + profile.p_label_noise)
    row = n_originals
    for i in range(n_originals):
        y = sentiment[i]
        for k in range(augments_per_original):
            rng = derived_rng(seed, "aug", i, k)
            r = rng.random()
            feats = {m: cols[m][i] for m in ("v", "a", "t")}
            if r < p_cut[0]:
                donors = by_polarity[1 - polarity[i]]
                donor = donors[rng.integers(len(donors))]
                swapped = "a" if rng.integers(2) else "v"
                feats[swapped] = cols[swapped][donor]
                q = _CORRUPT_Q_MAX * (1.0 - abs(y - sentiment[donor]) / 2.0)
            elif r < p_cut[1]:
                rate = profile.degrade_mask_rate
                feats = {m: feats[m] * (rng.random(dims[m]) >= rate)
                         for m in ("v", "a", "t")}
                q = _CORRUPT_Q_MAX * (1.0 - rate)
            elif r < p_cut[2]:
                lam = rng.uniform(*_DRIFT_RANGE)
                feats = {m: (1.0 - lam) * feats[m]
                         + lam * (offset[m] - y * axis[m]
                                  + _FEATURE_NOISE * rng.standard_normal(dims[m]))
                         for m in ("v", "a", "t")}
                q = max(0.0, _CORRUPT_Q_MAX * (1.0 - lam))
            else:
                sb = profile.sigma_benign
                feats = {m: feats[m] + sb * rng.standard_normal(dims[m])
                         for m in ("v", "a", "t")}
                q = 1.0
            for m in ("v", "a", "t"):
                cols[m][row] = feats[m]
            sentiment[row], parent[row], quality[row] = y, i, q
            row += 1

    ids = [f"o{i:05d}" for i in range(n_originals)]
    ids += [f"{ids[i]}-a{k}" for i in range(n_originals)
            for k in range(augments_per_original)]
    corpus = Corpus(
        header=header, ids=np.array(ids, dtype=object),
        features=FeatureRows(V=cols["v"], A=cols["a"], T=cols["t"],
                             P=sentiment >= 0.0),
        has_audio=np.ones(n, dtype=bool), sentiment=sentiment,
        augmented=parent >= 0, parent=parent, hidden_quality=quality,
        targets=header.verbal.encode(sentiment))
    validate_corpus(corpus)
    return corpus


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def header_dict(header: CorpusHeader) -> dict:
    """Header as a JSON-ready dict in canonical field order."""
    return {
        "d": header.d,
        "d_t": header.d_t,
        "vocab_size": header.vocab_size,
        "seed": header.seed,
        "generator_version": header.generator_version,
        "verbal": header.verbal.to_dict(),
    }


_HEADER_FIELDS = {"d": (int,), "d_t": (int,), "vocab_size": (int,), "seed": (int,),
                  "generator_version": (str,), "verbal": (dict,)}


def header_from_dict(raw) -> CorpusHeader:
    """A header from its JSON object, each field of its exact JSON type."""
    check_fields(raw, _HEADER_FIELDS, "bad corpus header")
    if raw["generator_version"] != GENERATOR_VERSION:
        raise ValidationError(
            f"corpus format {raw['generator_version']!r}: this build reads only "
            f"{GENERATOR_VERSION!r} files; regenerate the corpus with gen-corpus")
    try:
        return CorpusHeader(
            d=raw["d"], d_t=raw["d_t"], vocab_size=raw["vocab_size"],
            seed=raw["seed"], generator_version=raw["generator_version"],
            verbal=VerbalScheme.from_dict(raw["verbal"]),
        )
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"bad corpus header: {exc}") from exc


def _file_lines(corpus: Corpus):
    """The corpus file, one line at a time (header first), each with its newline."""
    f = corpus.features
    ids = corpus.ids.tolist()
    yield json.dumps(header_dict(corpus.header), separators=(",", ":")) + "\n"
    for i, (pol, y, aug, p, q, audio) in enumerate(zip(
            f.P.tolist(), corpus.sentiment.tolist(), corpus.augmented.tolist(),
            corpus.parent.tolist(), corpus.hidden_quality.tolist(),
            corpus.has_audio.tolist())):
        yield json.dumps({
            "id": ids[i], "h_v": b64_block(f.V[i]),
            "h_a": b64_block(f.A[i]) if audio else None, "h_t_raw": b64_block(f.T[i]),
            "polarity": pol, "sentiment": y,
            "origin": "Augmented" if aug else "Original",
            "parent_id": ids[p] if p >= 0 else None,
            "hidden_quality": None if q != q else q,
            "target_tokens": corpus.targets[i].tolist()}, separators=(",", ":")) + "\n"


def serialize_corpus(corpus: Corpus) -> bytes:
    """Corpus file bytes; deterministic for a given corpus."""
    return "".join(_file_lines(corpus)).encode("utf-8")


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus file and keep its checksum, taken from those bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in _file_lines(corpus):
            data = line.encode("utf-8")
            fh.write(data)
            digest.update(data)
    corpus._checksum = digest.hexdigest()


# Exact JSON types of the record fields; a JSON true or false is a bool,
# never a number. A feature block is a base64 string (util.b64_block).
_FIELDS = {"id": (str,), "h_v": (str,), "h_a": (str, type(None)),
           "h_t_raw": (str,), "polarity": (int,), "sentiment": (int, float),
           "origin": (str,), "parent_id": (str, type(None)),
           "hidden_quality": (int, float, type(None)), "target_tokens": (list,)}


def _parse_record(raw, header: CorpusHeader, line_no: int, columns) -> tuple:
    """One record line's fields, each checked for its exact JSON type. Once
    every check passes, the decoded feature blocks are appended to
    ``columns`` (video, audio, text bytearrays; the zero row for missing
    audio) and the other fields returned, with has_audio second."""
    if type(raw) is not dict or not set(_FIELDS) <= set(raw):
        raise ValidationError(f"line {line_no}: malformed record: need an object "
                              f"with fields {', '.join(_FIELDS)}")
    where = f"record {raw['id']}" if type(raw["id"]) is str else f"line {line_no}"
    for key, kinds in _FIELDS.items():
        if type(raw[key]) not in kinds:
            raise ValidationError(f"{where}: field {key} has type "
                                  f"{type(raw[key]).__name__}")
    blocks = [None if raw[key] is None else decode_block(raw[key], width, where, key)
              for key, width in (("h_v", header.d), ("h_a", header.d),
                                 ("h_t_raw", header.d_t))]
    if not set(map(type, raw["target_tokens"])) <= {int}:
        raise ValidationError(f"{where}: target tokens must be integers")
    if raw["origin"] not in ("Original", "Augmented"):
        raise ValidationError(f"{where}: bad origin {raw['origin']!r}")
    if raw["polarity"] not in (0, 1):
        raise ValidationError(f"{where}: polarity must be 0 or 1")
    quality = raw["hidden_quality"]
    if quality != quality:
        raise ValidationError(f"{where}: hidden_quality is NaN (null means absent)")
    try:
        fields = (raw["id"], raw["h_a"] is not None,
                  raw["polarity"], float(raw["sentiment"]), raw["origin"] == "Augmented",
                  raw["parent_id"], np.nan if quality is None else float(quality),
                  np.array(raw["target_tokens"], dtype=np.int64))
    except OverflowError as exc:   # an integer beyond float64 or int64
        raise ValidationError(f"{where}: number out of range: {exc}") from None
    for column, block in zip(columns, blocks):
        column += bytes(8 * header.d) if block is None else block
    return fields


def load_corpus(path) -> Corpus:
    """Parse a corpus file line by line and fully validate it.

    Each record's feature blocks are decoded straight onto the end of its
    column's buffer, one bytearray per column, which becomes the column as
    little-endian float64 without a copy; no per-record block is kept. The
    corpus checksum is the SHA-256 of the bytes read.
    """
    digest = hashlib.sha256()
    columns = (bytearray(), bytearray(), bytearray())
    records = []
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise ValidationError("empty corpus file: missing header")
        digest.update(first)
        try:
            header = header_from_dict(json.loads(first))
        except ValueError as exc:   # bad JSON or bad UTF-8
            raise ValidationError(f"bad corpus header: {exc}") from exc
        header.validate()
        for line_no, line in enumerate(fh, start=2):
            digest.update(line)
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except ValueError as exc:
                raise ValidationError(f"line {line_no}: bad JSON: {exc}") from exc
            records.append(_parse_record(raw, header, line_no, columns))
    n = len(records)
    ids, has_audio, P, S, aug, parent_ids, Q, toks = (
        zip(*records) if records else [()] * 8)
    del records
    width = len(toks[0]) if toks else 0
    bad = next((i for i, t in enumerate(toks) if len(t) != width), None)
    if bad is not None:
        raise ValidationError(f"record {ids[bad]}: {len(toks[bad])} target "
                              f"tokens, record {ids[0]} has {width}")
    index = {sid: row for row, sid in enumerate(ids)}
    parent = [-1 if pid is None else index.get(pid, -2) for pid in parent_ids]
    if -2 in parent:
        row = parent.index(-2)
        raise ValidationError(f"record {ids[row]}: unresolvable parent_id "
                              f"{parent_ids[row]}")
    V, A, T = (np.frombuffer(column, "<f8").reshape(n, dim) for column, dim
               in zip(columns, (header.d, header.d, header.d_t)))
    corpus = Corpus(
        header=header, ids=np.array(ids, dtype=object),
        features=FeatureRows(V=V, A=A, T=T, P=P),
        has_audio=has_audio, sentiment=S, augmented=aug,
        parent=parent, hidden_quality=Q,
        targets=np.array(toks, dtype=np.int64).reshape(n, width))
    validate_corpus(corpus)
    corpus._checksum = digest.hexdigest()
    return corpus


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 of the corpus file: the bytes last saved or loaded, or else of
    the canonical serialization, computed once per corpus."""
    if corpus._checksum is None:
        corpus._checksum = sha256_hex(serialize_corpus(corpus))
    return corpus._checksum


# ---------------------------------------------------------------------------
# Train / eval splitting
# ---------------------------------------------------------------------------

POOLS = ("all", "original", "augmented")


@dataclass(frozen=True, eq=False)
class Split:
    """Row indices of a train/eval split, each part in corpus order."""

    train_originals: np.ndarray
    train_augments: np.ndarray
    eval_originals: np.ndarray

    def pool(self, which: str) -> np.ndarray:
        """Training rows of one of POOLS; "all" is originals, then augments."""
        parts = {"all": (self.train_originals, self.train_augments),
                 "original": (self.train_originals,),
                 "augmented": (self.train_augments,)}
        return np.concatenate(parts[which])


def check_split_fractions(eval_fraction: float, label_fraction: float) -> None:
    """The fraction checks train_eval_split makes before splitting."""
    if not 0.0 <= eval_fraction < 1.0:
        raise ValidationError(f"eval_fraction must be in [0, 1), got {eval_fraction}")
    if not 0.0 < label_fraction <= 1.0:
        raise ValidationError(f"label_fraction must be in (0, 1], got {label_fraction}")


def train_eval_split(corpus: Corpus, eval_fraction: float,
                     label_fraction: float = 1.0) -> Split:
    """Deterministic split over polarity pairs of originals.

    The i-th positive original is paired with the i-th negative one, in file
    order, and the last ``eval_fraction`` of pairs become the held-out set,
    so both sides are polarity-balanced whatever the row order.
    ``label_fraction`` then keeps only the leading fraction of training pairs
    (data-efficiency runs). Originals without a partner (the surplus of the
    larger polarity) train only when ``eval_fraction`` is 0. Augments follow
    their parents; augments of held-out parents belong to neither side.
    """
    check_split_fractions(eval_fraction, label_fraction)
    originals = np.flatnonzero(~corpus.augmented)
    pos, neg = (originals[corpus.features.P[originals] == k] for k in (1, 0))
    n_pairs = min(pos.size, neg.size)
    if eval_fraction > 0.0 and n_pairs < 2:
        raise ValidationError("too few originals to split")
    n_eval = (0 if eval_fraction == 0.0
              else min(max(int(round(eval_fraction * n_pairs)), 1), n_pairs - 1))
    n_train_pairs = n_pairs - n_eval
    n_kept = min(n_train_pairs, max(1, int(round(label_fraction * n_train_pairs))))
    train = [pos[:n_kept], neg[:n_kept]]
    if n_eval == 0:
        train += [pos[n_pairs:], neg[n_pairs:]]
    train = np.sort(np.concatenate(train))
    augments = np.flatnonzero(corpus.augmented)
    return Split(
        train_originals=train,
        train_augments=augments[np.isin(corpus.parent[augments], train)],
        eval_originals=np.sort(np.concatenate([pos[n_train_pairs:n_pairs],
                                               neg[n_train_pairs:n_pairs]])))
