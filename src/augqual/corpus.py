"""Feature-corpus data model, binary file format, and the synthetic generator.

A corpus file is a columnar array file (``util.read_array_file``): its
padded header line holds ``{d, d_t, vocab_size, seed, generator_version,
verbal, rows}``, then come the raw little-endian columns, each ``rows``
long: ``V``, ``A`` (zeros where a row has no audio) and ``T`` (float64 rows
of ``d``, ``d`` and ``d_t``), ``sentiment`` and ``hidden_quality`` (float64,
NaN when absent), ``parent`` (int64: the row of an augment's parent, -1 for
an original) and ``has_audio`` (one byte, 0 or 1). Nothing a row determines
is stored: its polarity (``sentiment >= 0``), whether it is an augment
(``parent >= 0``) and its target tokens (the header's verbal encoding of the
sentiment) are derived, so a file cannot contradict itself. A row has no id
but its index, which the weight file's scores follow. The header's
``generator_version`` names this format; the loader reads only
GENERATOR_VERSION files.

The header is read and written by the config walker (``util.config_from_dict``,
``util.config_to_dict``) from the fields of ``CorpusHeader`` and its
``VerbalScheme``, which check their ranges and rules when built, so an
invalid header cannot exist.

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
import math
from dataclasses import MISSING, InitVar, dataclass, field

import numpy as np

from .util import (ValidationError, array_file_chunks, bounded, check_ranges,
                   config_from_dict, config_to_dict, derived_rng, read_array_file,
                   write_atomic)

GENERATOR_VERSION = "augqual-gen-4"
# Target tokens per sample: polarity, sentiment bin, end (VerbalScheme.encode).
TARGET_WIDTH = 3
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


# Tokens index a vocabulary of at most MAX_DIM entries.
_TOKEN = f"[0, {MAX_DIM})"


@dataclass(frozen=True)
class VerbalScheme:
    """Token table mapping sentiment to a 3-token target sequence.

    Position 0 is the polarity token, position 1 the sentiment-bin token,
    position 2 the end token; every position is supervised. The neutral bin
    (center 0.0) decodes to +-neutral_value using the polarity token, every
    other bin decodes to its center. ``encode`` maps an (n,) sentiment column
    to (n, TARGET_WIDTH) tokens; ``decode`` maps (n, T) predicted tokens to
    (n,) floats. As ``decode`` indexes the table by ``token -
    class_tokens[0]``, the class tokens are consecutive ascending integers,
    one per class value; the two sign tokens differ.
    """

    sign_tokens: tuple[int, int] = bounded((0, 1), _TOKEN)
    class_tokens: tuple[int, ...] = bounded((2, 3, 4, 5, 6), _TOKEN)
    class_values: tuple[float, ...] = bounded((-0.8, -0.4, 0.0, 0.4, 0.8), "[-1, 1]")
    neutral_value: float = bounded(0.1, "[-1, 1]")
    eos_token: int = bounded(7, _TOKEN)

    def __post_init__(self):
        check_ranges(self)
        sign, cls = self.sign_tokens, self.class_tokens
        if len(sign) != 2 or sign[0] == sign[1]:
            raise ValidationError(f"verbal table needs 2 distinct sign tokens, "
                                  f"got {list(sign)}")
        if not cls or len(self.class_values) != len(cls):
            raise ValidationError("verbal table needs one value per class token")
        if any(b - a != 1 for a, b in zip(cls, cls[1:])):
            raise ValidationError(f"verbal class tokens must be consecutive "
                                  f"ascending integers, got {list(cls)}")

    @property
    def min_vocab(self) -> int:
        """The smallest vocab_size that holds every token of the table."""
        return max(*self.sign_tokens, *self.class_tokens, self.eos_token) + 1

    def check_vocab(self, vocab_size: int) -> None:
        """ValidationError unless every token of the table is below vocab_size."""
        if self.min_vocab > vocab_size:
            raise ValidationError("verbal tokens exceed vocab_size")

    def encode(self, sentiment) -> np.ndarray:
        """(n, TARGET_WIDTH) int64 target tokens of an (n,) sentiment column:
        polarity token (y >= 0 is positive), bin token, end token."""
        y = np.asarray(sentiment, dtype=np.float64)
        outside = ~((y >= -1.0) & (y <= 1.0))
        if outside.any():
            raise ValidationError(f"sentiment {y[outside][0]} outside [-1, 1]")
        tokens = np.empty((y.shape[0], TARGET_WIDTH), dtype=np.int64)
        tokens[:, 0] = np.asarray(self.sign_tokens)[(y >= 0.0).astype(np.intp)]
        tokens[:, 1] = np.asarray(self.class_tokens)[
            sentiment_class(y, len(self.class_tokens))]
        tokens[:, 2] = self.eos_token
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
    """Line 1 of a corpus file, also echoed in every scorer snapshot; its
    fields, in order, are the header's keys on disk."""

    d: int = bounded(MISSING, f"[1, {MAX_DIM}]")
    d_t: int = bounded(MISSING, f"[1, {MAX_DIM}]")
    vocab_size: int = bounded(MISSING, f"[1, {MAX_DIM}]")
    seed: int
    generator_version: str = GENERATOR_VERSION
    verbal: VerbalScheme = field(default_factory=VerbalScheme)

    def __post_init__(self):
        check_ranges(self)
        self.verbal.check_vocab(self.vocab_size)


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
class CorpusConfig:
    """What generate_corpus generates from a seed: its sizes and profile."""

    n_originals: int = bounded(200, "[2, inf)")   # both polarities
    augments_per_original: int = bounded(2, "[0, inf)")
    d: int = bounded(64, f"[4, {MAX_DIM}]")
    d_t: int = bounded(96, f"[4, {MAX_DIM}]")
    profile: CorruptionProfile = CorruptionProfile()

    def __post_init__(self):
        check_ranges(self)
        if self.n_originals * (1 + self.augments_per_original) > MAX_ROWS:
            raise ValidationError(f"n_originals * (1 + augments_per_original) "
                                  f"must be <= MAX_ROWS = {MAX_ROWS}")


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


def _freeze(arr, dtype) -> np.ndarray:
    arr = np.asarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(eq=False)
class Corpus:
    """Header plus one read-only column per column of the file; row i is
    record i.

    It is built from the stored columns alone: the features ``V``, ``A``
    (zeros where ``has_audio`` is false) and ``T``, stacked as ``features``,
    and ``parent``, the row of an augment's parent (-1 for originals).
    ``hidden_quality`` is NaN where a record has none. What a record
    determines is derived here, so it cannot disagree with the record: the
    polarity ``features.P`` is ``sentiment >= 0``, ``augmented`` is
    ``parent >= 0``; the target tokens are ``header.verbal.encode(sentiment)``
    (``finetune`` encodes its pool's). A row is named by its index. As the
    columns cannot be written, the file checksum is computed once, when first
    read, and kept (corpus_checksum); a loaded corpus keeps the buffer it was
    read into, which its columns view.
    """

    header: CorpusHeader
    V: InitVar[np.ndarray]      # (n, d)
    A: InitVar[np.ndarray]      # (n, d)
    T: InitVar[np.ndarray]      # (n, d_t)
    has_audio: np.ndarray       # (n,) bool
    sentiment: np.ndarray       # (n,) float64
    parent: np.ndarray          # (n,) intp
    hidden_quality: np.ndarray  # (n,) float64
    features: FeatureRows = field(init=False)
    augmented: np.ndarray = field(init=False)   # (n,) bool
    _checksum: str | None = field(default=None, init=False, repr=False)
    _file: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, V, A, T):
        for name, dtype in (("has_audio", bool), ("sentiment", np.float64),
                            ("parent", np.intp), ("hidden_quality", np.float64)):
            setattr(self, name, _freeze(getattr(self, name), dtype))
        self.features = FeatureRows(*map(_freeze, (V, A, T, self.sentiment >= 0.0),
                                         (np.float64,) * 3 + (np.intp,)))
        self.augmented = _freeze(self.parent >= 0, bool)

    def __len__(self) -> int:
        return self.parent.shape[0]


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def validate_corpus(corpus: Corpus) -> None:
    """Structural validation in one vectorized pass over the columns.

    Checks column shapes against the header and every parent against the
    row range, then per record: finite features, no audio features where the
    audio is missing, an augment's parent that is an original, and the
    sentiment and hidden-quality ranges. Every range check is written so that
    NaN fails it. The error names the first bad row. Polarity, origin and
    target tokens are derived from these columns (``Corpus``), so they need no
    check.
    """
    h, f, n = corpus.header, corpus.features, len(corpus)
    s, p, aug, hq = (corpus.sentiment, corpus.parent, corpus.augmented,
                     corpus.hidden_quality)
    if (f.V.shape != (n, h.d) or f.A.shape != (n, h.d) or f.T.shape != (n, h.d_t)
            or {c.shape for c in (corpus.has_audio, s, p, hq)} != {(n,)}):
        raise ValidationError("corpus columns disagree with the header or each other")
    outside = (p < -1) | (p >= n)
    if outside.any():
        row = int(np.argmax(outside))
        raise ValidationError(f"row {row}: parent {p[row]} outside [-1, {n})")
    checks = (
        (np.isfinite(f.V).all(1) & np.isfinite(f.A).all(1) & np.isfinite(f.T).all(1),
         lambda i: "non-finite feature"),
        (corpus.has_audio | ~f.A.any(1), lambda i: "audio features but no audio"),
        # an original's parent is -1, so aug[p] reads the last row, unused
        (~aug | ~aug[p], lambda i: f"parent {p[i]} is not an Original"),
        ((s >= -1.0) & (s <= 1.0), lambda i: f"sentiment {s[i]} outside [-1, 1]"),
        (np.isnan(hq) | ((hq >= 0.0) & (hq <= 1.0)),
         lambda i: "hidden_quality outside [0, 1]"),
    )
    ok = np.stack([c for c, _ in checks])
    if not ok.all():
        row = int(np.argmin(ok.all(axis=0)))
        message = checks[int(np.argmin(ok[:, row]))][1](row)
        raise ValidationError(f"row {row}: {message}")


def generate_corpus(n_originals: int, augments_per_original: int,
                    profile: CorruptionProfile, seed: int,
                    d: int = CorpusConfig.d, d_t: int = CorpusConfig.d_t) -> Corpus:
    """Deterministic synthetic corpus from a single root seed.

    Originals alternate polarity (so 2k originals give k per class) and come
    first; then each original's augments, in order. Each augmented sample is
    its parent under exactly one perturbation kind chosen by the profile,
    with hidden_quality 1.0 for benign jitter and a graded value in [0, 0.3]
    for the corrupted kinds. Per-sample RNG streams are derived from (seed,
    purpose, index), so output is order-independent. The header's vocab_size
    is the verbal table's ``min_vocab``.
    """
    CorpusConfig(n_originals=n_originals,
                 augments_per_original=augments_per_original, d=d, d_t=d_t,
                 profile=profile)
    header = CorpusHeader(d=d, d_t=d_t, vocab_size=VerbalScheme().min_vocab,
                          seed=seed)
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

    corpus = Corpus(
        header=header, V=cols["v"], A=cols["a"], T=cols["t"],
        has_audio=np.ones(n, dtype=bool),
        sentiment=sentiment, parent=parent, hidden_quality=quality)
    validate_corpus(corpus)
    return corpus


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def header_from_dict(raw) -> CorpusHeader:
    """A header from its JSON object: a file of another format version is told
    to regenerate; otherwise every key of CorpusHeader, no other, each of its
    exact JSON type (``util.config_from_dict``), and the header's own checks."""
    version = raw.get("generator_version") if type(raw) is dict else None
    if type(version) is str and version != GENERATOR_VERSION:
        raise ValidationError(
            f"corpus format {version!r}: this build reads only "
            f"{GENERATOR_VERSION!r} files; regenerate the corpus with gen-corpus")
    try:
        return config_from_dict(CorpusHeader, raw, what="header")
    except ValidationError as exc:
        raise ValidationError(f"bad corpus header: {exc}") from None


# The stored columns in file order: (name, dtype on disk, the header field
# that gives a feature column's width, None for one value per row).
_COLUMNS = (("V", "<f8", "d"), ("A", "<f8", "d"), ("T", "<f8", "d_t"),
            ("sentiment", "<f8", None), ("hidden_quality", "<f8", None),
            ("parent", "<i8", None), ("has_audio", "u1", None))


def _file_chunks(corpus: Corpus) -> list:
    """The corpus file in pieces (``util.array_file_chunks``)."""
    f = corpus.features
    stored = (f.V, f.A, f.T, corpus.sentiment, corpus.hidden_quality, corpus.parent,
              corpus.has_audio)   # in _COLUMNS order
    arrays = [np.asarray(c, dtype) for c, (_, dtype, _) in zip(stored, _COLUMNS)]
    return array_file_chunks({**config_to_dict(corpus.header), "rows": len(corpus)}, arrays)


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus file (``util.write_atomic``) and keep its checksum,
    taken from those bytes."""
    digest = hashlib.sha256()

    def hashed_chunks():
        for chunk in _file_chunks(corpus):
            digest.update(chunk)
            yield chunk
    write_atomic(hashed_chunks(), path)
    corpus._checksum = digest.hexdigest()


def _layout(raw) -> tuple:
    """The corpus header and columns of a header line (``util.read_array_file``)."""
    rows = raw.pop("rows", None) if type(raw) is dict else None
    header = header_from_dict(raw)
    if type(rows) is not int or rows < 0:
        raise ValidationError(f"bad corpus header: rows must be a non-negative "
                              f"integer, got {rows!r}")
    specs = [(name, dtype, (rows, getattr(header, key)) if key else (rows,))
             for name, dtype, key in _COLUMNS]
    row_bytes = sum(np.dtype(dtype).itemsize * math.prod(shape[1:])
                    for _, dtype, shape in specs)
    return header, specs, f"{rows} rows of {row_bytes} bytes"


def load_corpus(path) -> Corpus:
    """Read a corpus file and fully validate it.

    Each column is a read-only view of the one buffer the file is read into
    (``util.read_array_file``), which holds the header and ``rows`` whole
    rows; every parent must be a row or -1 and every ``has_audio`` byte 0 or
    1. The corpus checksum is the SHA-256 of the bytes read, taken when
    corpus_checksum is first called.
    """
    header, columns, buf = read_array_file(path, "corpus", _layout)
    has_audio = columns.pop("has_audio")
    if (has_audio > 1).any():
        row = int(np.argmax(has_audio > 1))
        raise ValidationError(f"row {row}: has_audio byte {has_audio[row]} is not "
                              f"0 or 1")
    corpus = Corpus(header=header, has_audio=has_audio.view(bool), **columns)
    validate_corpus(corpus)
    corpus._file = buf
    return corpus


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 of the corpus file: the bytes last saved or loaded, or else of
    the file ``save_corpus`` would write, hashed once per corpus."""
    if corpus._checksum is None:
        digest = hashlib.sha256()
        for chunk in _file_chunks(corpus) if corpus._file is None else [corpus._file]:
            digest.update(chunk)
        corpus._checksum = digest.hexdigest()
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


@dataclass(frozen=True)
class SplitConfig:
    """train_eval_split's fractions."""

    eval_fraction: float = bounded(0.25, "[0, 1)")
    label_fraction: float = bounded(1.0, "(0, 1]")

    def __post_init__(self):
        check_ranges(self)


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
    SplitConfig(eval_fraction=eval_fraction, label_fraction=label_fraction)
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
