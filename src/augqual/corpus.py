"""Feature-corpus data model, JSONL file format, and the synthetic generator.

A corpus file is line-oriented JSON: line 1 is the header
``{d, d_t, vocab_size, seed, generator_version, verbal}``; every further line
is one sample with fields ``id, h_v, h_a (null when missing), h_t_raw,
polarity, sentiment, origin, parent_id, hidden_quality, target_tokens``.
Floats are written as shortest round-trip decimals, so save/load round-trips
are bit-exact and files are byte-reproducible from a seed.

The generator stands in for frozen encoders plus generative augmentation:
originals come from two polarity-conditioned Gaussian clusters per modality
(cluster means scale with the sentiment value, so the task is learnable), and
each augmented sample applies exactly one perturbation kind - benign jitter,
cross-modal swap against an opposite-polarity donor, masking degradation, or
polarity-inconsistent drift - with a hidden ground-truth quality in [0, 1]
that training code never reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .util import ValidationError, derived_rng, sha256_hex

GENERATOR_VERSION = "augqual-gen-1"
IGNORE_INDEX = -100

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


def derive_polarity(y: float) -> int:
    """Binary polarity from sentiment sign; neutral (y == 0) counts positive."""
    if not -1.0 <= y <= 1.0:
        raise ValidationError(f"sentiment {y} outside [-1, 1]")
    return 1 if y >= 0 else 0


def sentiment_class(y: float, k: int) -> int:
    """Equal-width bin index of y in [-1, 1] split into k classes."""
    return min(int((y + 1.0) / 2.0 * k), k - 1)


@dataclass(frozen=True)
class VerbalScheme:
    """Token table mapping sentiment to a 3-token target sequence.

    Position 0 is the polarity token, position 1 the sentiment-bin token,
    position 2 the end token; one trailing IGNORE pads the sequence. The
    neutral bin (center 0.0) decodes to +-neutral_value using the polarity
    token, every other bin decodes to its center.
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
    def from_dict(raw: dict) -> "VerbalScheme":
        try:
            return VerbalScheme(
                sign_tokens=tuple(int(t) for t in raw["sign_tokens"]),
                class_tokens=tuple(int(t) for t in raw["class_tokens"]),
                class_values=tuple(float(v) for v in raw["class_values"]),
                neutral_value=float(raw["neutral_value"]),
                eos_token=int(raw["eos_token"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad verbal table in header: {exc}") from exc

    def encode(self, y: float) -> tuple[int, ...]:
        """Target tokens for a sentiment value (length 4, last is IGNORE)."""
        cls = sentiment_class(y, len(self.class_tokens))
        return (self.sign_tokens[derive_polarity(y)], self.class_tokens[cls],
                self.eos_token, IGNORE_INDEX)

    def decode(self, tokens) -> float:
        """Scalar sentiment from predicted tokens. Total and deterministic."""
        lo = self.class_tokens[0]
        idx = min(max(int(tokens[1]) - lo, 0), len(self.class_tokens) - 1)
        base = self.class_values[idx]
        if base == 0.0:
            positive = int(tokens[0]) == self.sign_tokens[1]
            return self.neutral_value if positive else -self.neutral_value
        return base


@dataclass(frozen=True)
class CorpusHeader:
    d: int
    d_t: int
    vocab_size: int
    seed: int
    generator_version: str = GENERATOR_VERSION
    verbal: VerbalScheme = field(default_factory=VerbalScheme)

    def validate(self) -> None:
        if self.d < 1 or self.d_t < 1 or self.vocab_size < 1:
            raise ValidationError("header dimensions must be >= 1")
        toks = (*self.verbal.sign_tokens, *self.verbal.class_tokens,
                self.verbal.eos_token)
        if any(t < 0 or t >= self.vocab_size for t in toks):
            raise ValidationError("verbal tokens exceed vocab_size")


@dataclass(frozen=True)
class FeatureSample:
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


@dataclass(frozen=True)
class CorruptionProfile:
    """Mutually exclusive per-sample corruption kinds and their rates."""

    sigma_benign: float = 0.05
    p_swap: float = 0.0
    p_degrade: float = 0.0
    degrade_mask_rate: float = 0.5
    p_label_noise: float = 0.0

    def validate(self) -> None:
        for name in ("p_swap", "p_degrade", "p_label_noise", "degrade_mask_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.sigma_benign < 0.0:
            raise ValidationError("sigma_benign must be >= 0")
        total = self.p_swap + self.p_degrade + self.p_label_noise
        if total > 1.0 + 1e-12:
            raise ValidationError(
                f"corruption probabilities sum to {total} > 1; kinds are exclusive")

    def to_dict(self) -> dict:
        return {
            "sigma_benign": self.sigma_benign,
            "p_swap": self.p_swap,
            "p_degrade": self.p_degrade,
            "degrade_mask_rate": self.degrade_mask_rate,
            "p_label_noise": self.p_label_noise,
        }


# Default profile: a moderate mix of all corruption kinds.
DEFAULT_PROFILE = CorruptionProfile(
    sigma_benign=0.05, p_swap=0.15, p_degrade=0.15,
    degrade_mask_rate=0.5, p_label_noise=0.15)


@dataclass
class Corpus:
    """Header plus samples. The sample sequence is stored as a tuple and the
    samples are frozen, so the file checksum is computed once and kept (as the
    hex digest, see corpus_checksum)."""

    header: CorpusHeader
    samples: tuple
    _index: dict = field(init=False, repr=False)
    _checksum: str | None = field(init=False, repr=False, compare=False,
                                  default=None)

    def __post_init__(self):
        self.samples = tuple(self.samples)
        self._index = {}
        for s in self.samples:
            if s.id in self._index:
                raise ValidationError(f"duplicate id: {s.id}")
            self._index[s.id] = s

    def __len__(self) -> int:
        return len(self.samples)

    def get(self, sample_id: str) -> FeatureSample:
        try:
            return self._index[sample_id]
        except KeyError:
            raise ValidationError(f"unknown sample id: {sample_id}") from None

    def originals(self) -> list:
        return [s for s in self.samples if s.origin == "Original"]

    def augmented(self) -> list:
        return [s for s in self.samples if s.origin == "Augmented"]


@dataclass(frozen=True)
class FeatureRows:
    """Features of a sample sequence stacked into arrays, one row per sample.

    ``A`` holds zeros where a sample has no audio, the same zero vector the
    scorer and the head use for missing audio.
    """

    V: np.ndarray   # (n, d)
    A: np.ndarray   # (n, d)
    T: np.ndarray   # (n, d_t)
    P: np.ndarray   # (n,) polarity, intp

    @staticmethod
    def stack(samples, d: int, d_t: int) -> "FeatureRows":
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

    def __len__(self) -> int:
        return self.P.shape[0]

    def take(self, idx) -> "FeatureRows":
        return FeatureRows(V=self.V[idx], A=self.A[idx], T=self.T[idx],
                           P=self.P[idx])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _validate_sample(s: FeatureSample, header: CorpusHeader) -> None:
    if s.h_v.shape != (header.d,) or s.h_t_raw.shape != (header.d_t,):
        raise ValidationError(f"record {s.id}: dim mismatch")
    if s.h_a is not None and s.h_a.shape != (header.d,):
        raise ValidationError(f"record {s.id}: dim mismatch")
    for arr in (s.h_v, s.h_a, s.h_t_raw):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValidationError(f"record {s.id}: non-finite feature")
    if s.origin not in ("Original", "Augmented"):
        raise ValidationError(f"record {s.id}: bad origin {s.origin!r}")
    if s.origin == "Original" and s.parent_id is not None:
        raise ValidationError(f"record {s.id}: Original with parent_id")
    if s.origin == "Augmented" and s.parent_id is None:
        raise ValidationError(f"record {s.id}: Augmented without parent_id")
    if s.polarity != derive_polarity(s.sentiment):
        raise ValidationError(f"record {s.id}: polarity inconsistent with sentiment")
    if s.hidden_quality is not None and not 0.0 <= s.hidden_quality <= 1.0:
        raise ValidationError(f"record {s.id}: hidden_quality outside [0, 1]")
    for t in s.target_tokens:
        if t != IGNORE_INDEX and not 0 <= t < header.vocab_size:
            raise ValidationError(f"record {s.id}: target token {t} out of range")


def validate_corpus(corpus: Corpus) -> None:
    """Full structural validation: dims, origins, parent links, label ranges."""
    corpus.header.validate()
    for s in corpus.samples:
        _validate_sample(s, corpus.header)
        if s.parent_id is not None and s.parent_id not in corpus._index:
            raise ValidationError(
                f"record {s.id}: unresolvable parent_id {s.parent_id}")


def generate_corpus(n_originals: int, augments_per_original: int,
                    profile: CorruptionProfile, seed: int,
                    d: int = 64, d_t: int = 96, vocab_size: int = 8) -> Corpus:
    """Deterministic synthetic corpus from a single root seed.

    Originals alternate polarity (so 2k originals give k per class). Each
    augmented sample is its parent under exactly one perturbation kind chosen
    by the profile, with hidden_quality 1.0 for benign jitter and a graded
    value in [0, 0.3] for the corrupted kinds. Per-sample RNG streams are
    derived from (seed, purpose, index), so output is order-independent.
    """
    profile.validate()
    if n_originals < 2:
        raise ValidationError("cannot generate corpus: need both polarities")
    if augments_per_original < 0:
        raise ValidationError("augments_per_original must be >= 0")
    if d < 4 or d_t < 4:
        raise ValidationError("feature dimensions must be >= 4")
    verbal = VerbalScheme()
    header = CorpusHeader(d=d, d_t=d_t, vocab_size=vocab_size, seed=seed,
                          verbal=verbal)
    header.validate()

    dims = {"v": d, "a": d, "t": d_t}
    dir_rng = derived_rng(seed, "directions")
    axis = {m: _SIGNAL_SCALE[m] * _unit_direction(dir_rng, dims[m])
            for m in ("v", "a", "t")}
    offset = {m: _MEAN_SCALE * _unit_direction(dir_rng, dims[m])
              for m in ("v", "a", "t")}

    originals = []
    sentiments = np.empty(n_originals)
    for i in range(n_originals):
        rng = derived_rng(seed, "orig", i)
        magnitude = rng.uniform(*_SENTIMENT_RANGE)
        y = magnitude if i % 2 == 0 else -magnitude
        sentiments[i] = y
        feats = {m: _freeze(offset[m] + y * axis[m]
                            + _FEATURE_NOISE * rng.standard_normal(dims[m]))
                 for m in ("v", "a", "t")}
        originals.append(FeatureSample(
            id=f"o{i:05d}", h_v=feats["v"], h_a=feats["a"], h_t_raw=feats["t"],
            polarity=derive_polarity(y), sentiment=y, origin="Original",
            target_tokens=verbal.encode(y)))

    by_polarity = {0: [i for i in range(n_originals) if originals[i].polarity == 0],
                   1: [i for i in range(n_originals) if originals[i].polarity == 1]}
    if not by_polarity[0] or not by_polarity[1]:
        raise ValidationError("cannot generate corpus: need both polarities")

    samples = list(originals)
    p_cut = (profile.p_swap,
             profile.p_swap + profile.p_degrade,
             profile.p_swap + profile.p_degrade + profile.p_label_noise)
    for i in range(n_originals):
        parent = originals[i]
        y = sentiments[i]
        for k in range(augments_per_original):
            rng = derived_rng(seed, "aug", i, k)
            r = rng.random()
            feats = {"v": parent.h_v, "a": parent.h_a, "t": parent.h_t_raw}
            if r < p_cut[0]:
                donors = by_polarity[1 - parent.polarity]
                donor = originals[donors[rng.integers(len(donors))]]
                swap_audio = bool(rng.integers(2))
                if swap_audio:
                    feats["a"] = donor.h_a
                else:
                    feats["v"] = donor.h_v
                quality = _CORRUPT_Q_MAX * (1.0 - abs(y - donor.sentiment) / 2.0)
            elif r < p_cut[1]:
                rate = profile.degrade_mask_rate
                feats = {m: _freeze(feats[m] * (rng.random(dims[m]) >= rate))
                         for m in ("v", "a", "t")}
                quality = _CORRUPT_Q_MAX * (1.0 - rate)
            elif r < p_cut[2]:
                lam = rng.uniform(*_DRIFT_RANGE)
                feats = {m: _freeze((1.0 - lam) * feats[m]
                                    + lam * (offset[m] - y * axis[m]
                                             + _FEATURE_NOISE * rng.standard_normal(dims[m])))
                         for m in ("v", "a", "t")}
                quality = max(0.0, _CORRUPT_Q_MAX * (1.0 - lam))
            else:
                sb = profile.sigma_benign
                feats = {m: _freeze(feats[m] + sb * rng.standard_normal(dims[m]))
                         for m in ("v", "a", "t")}
                quality = 1.0
            samples.append(FeatureSample(
                id=f"{parent.id}-a{k}", h_v=feats["v"], h_a=feats["a"],
                h_t_raw=feats["t"], polarity=parent.polarity, sentiment=y,
                origin="Augmented", parent_id=parent.id, hidden_quality=quality,
                target_tokens=verbal.encode(y)))

    corpus = Corpus(header=header, samples=samples)
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


def header_from_dict(raw: dict) -> CorpusHeader:
    try:
        return CorpusHeader(
            d=int(raw["d"]), d_t=int(raw["d_t"]),
            vocab_size=int(raw["vocab_size"]), seed=int(raw["seed"]),
            generator_version=str(raw["generator_version"]),
            verbal=VerbalScheme.from_dict(raw["verbal"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad corpus header: {exc}") from exc


def _record_dict(s: FeatureSample) -> dict:
    return {
        "id": s.id,
        "h_v": s.h_v.tolist(),
        "h_a": None if s.h_a is None else s.h_a.tolist(),
        "h_t_raw": s.h_t_raw.tolist(),
        "polarity": s.polarity,
        "sentiment": s.sentiment,
        "origin": s.origin,
        "parent_id": s.parent_id,
        "hidden_quality": s.hidden_quality,
        "target_tokens": list(s.target_tokens),
    }


def serialize_corpus(corpus: Corpus) -> bytes:
    """Corpus file bytes; deterministic for a given corpus."""
    lines = [json.dumps(header_dict(corpus.header), separators=(",", ":"))]
    lines.extend(json.dumps(_record_dict(s), separators=(",", ":"))
                 for s in corpus.samples)
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus file and keep its checksum, taken from those bytes."""
    data = serialize_corpus(corpus)
    with open(path, "wb") as fh:
        fh.write(data)
    corpus._checksum = sha256_hex(data)


def _parse_record(raw: dict, header: CorpusHeader, line_no: int) -> FeatureSample:
    try:
        sid = raw["id"]
        h_a = raw["h_a"]
        sample = FeatureSample(
            id=sid,
            h_v=_freeze(np.asarray(raw["h_v"], dtype=np.float64)),
            h_a=None if h_a is None else _freeze(np.asarray(h_a, dtype=np.float64)),
            h_t_raw=_freeze(np.asarray(raw["h_t_raw"], dtype=np.float64)),
            polarity=int(raw["polarity"]),
            sentiment=float(raw["sentiment"]),
            origin=raw["origin"],
            parent_id=raw["parent_id"],
            hidden_quality=(None if raw["hidden_quality"] is None
                            else float(raw["hidden_quality"])),
            target_tokens=tuple(int(t) for t in raw["target_tokens"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"line {line_no}: malformed record: {exc}") from exc
    return sample


def load_corpus(path) -> Corpus:
    """Parse and fully validate a corpus file."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty corpus file: missing header")
    try:
        head_raw = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad corpus header: {exc}") from exc
    header = header_from_dict(head_raw)
    samples = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {n}: bad JSON: {exc}") from exc
        samples.append(_parse_record(raw, header, n))
    corpus = Corpus(header=header, samples=samples)
    validate_corpus(corpus)
    return corpus


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 of the canonical file serialization, computed once per corpus."""
    if corpus._checksum is None:
        corpus._checksum = sha256_hex(serialize_corpus(corpus))
    return corpus._checksum


def feature_checksum(corpus: Corpus) -> str:
    """SHA-256 over the raw float64 bytes of every feature array, in record order."""
    import hashlib

    h = hashlib.sha256()
    for s in corpus.samples:
        h.update(s.id.encode("utf-8"))
        h.update(s.h_v.tobytes())
        h.update(b"\x00" if s.h_a is None else b"\x01" + s.h_a.tobytes())
        h.update(s.h_t_raw.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Train / eval splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitIds:
    train_originals: tuple[str, ...]
    train_augments: tuple[str, ...]
    eval_originals: tuple[str, ...]


def train_eval_split(corpus: Corpus, eval_fraction: float,
                     label_fraction: float = 1.0) -> SplitIds:
    """Deterministic split over consecutive polarity pairs of originals.

    Originals are grouped in file order into (even, odd) index pairs - one
    sample per polarity under the generator's alternating layout - and the
    last ``eval_fraction`` of pairs become the held-out set, keeping both
    splits polarity-balanced. ``label_fraction`` then keeps only the leading
    fraction of training pairs (data-efficiency runs). Augments follow their
    parents; augments of held-out parents belong to neither side.
    """
    if not 0.0 <= eval_fraction < 1.0:
        raise ValidationError("eval_fraction must be in [0, 1)")
    if not 0.0 < label_fraction <= 1.0:
        raise ValidationError("label_fraction must be in (0, 1]")
    originals = corpus.originals()
    n_pairs = len(originals) // 2
    if eval_fraction > 0.0 and n_pairs < 2:
        raise ValidationError("too few originals to split")
    n_eval = min(int(round(eval_fraction * n_pairs)), n_pairs - 1)
    if eval_fraction > 0.0:
        n_eval = max(n_eval, 1)
    n_train_pairs = n_pairs - n_eval
    n_kept = max(1, int(round(label_fraction * n_train_pairs)))
    train_orig = [s.id for s in originals[:2 * n_kept]]
    # a trailing unpaired original always trains
    leftover = [originals[-1].id] if len(originals) % 2 == 1 and n_eval == 0 else []
    eval_orig = [s.id for s in originals[2 * n_train_pairs:2 * n_pairs]]
    train_set = set(train_orig) | set(leftover)
    train_aug = [s.id for s in corpus.augmented() if s.parent_id in train_set]
    return SplitIds(train_originals=tuple(train_orig + leftover),
                    train_augments=tuple(train_aug),
                    eval_originals=tuple(eval_orig))
