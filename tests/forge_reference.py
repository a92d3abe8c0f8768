"""Per-item reference forge, the oracle for the array-backed ``forge_batch``.

This is the forge written one sample at a time: every forged example is a
``ForgedItem`` with its own feature vectors, family and source id. The
library forges whole batches as stacked arrays; tests assert the two agree
bit for bit, and oracle tests that reason about single examples build their
batches here and convert them with ``forged_batch_from_items``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from augqual.corpus import FeatureRows, FeatureSample
from augqual.forge import FAMILIES, ForgedBatch
from augqual.util import ValidationError


@dataclass(frozen=True)
class ForgedItem:
    """One scorer training example: pre-projection features plus a label."""

    h_v: np.ndarray
    h_a: np.ndarray      # zero vector when the source had no audio
    h_t_raw: np.ndarray
    polarity: int
    label: int           # 1 = trusted positive, 0 = forged negative
    family: str
    source_id: str


def audio_or_zero(sample: FeatureSample, d: int) -> np.ndarray:
    return sample.h_a if sample.h_a is not None else np.zeros(d)


def positives(samples, d: int) -> list:
    return [ForgedItem(h_v=s.h_v, h_a=audio_or_zero(s, d), h_t_raw=s.h_t_raw,
                       polarity=s.polarity, label=1, family="pos", source_id=s.id)
            for s in samples]


def mix_negatives(samples, d: int, rng: np.random.Generator) -> list:
    """Pathway swaps against opposite-polarity donors within the batch."""
    by_pol = {0: [s for s in samples if s.polarity == 0],
              1: [s for s in samples if s.polarity == 1]}
    out = []
    for s in samples:
        donors = by_pol[1 - s.polarity]
        if not donors:
            continue
        donor = donors[rng.integers(len(donors))]
        keep_video = bool(rng.integers(2))
        if keep_video:
            h_v, h_a = s.h_v, audio_or_zero(donor, d)
        else:
            h_v, h_a = donor.h_v, audio_or_zero(s, d)
        out.append(ForgedItem(h_v=h_v, h_a=h_a, h_t_raw=s.h_t_raw,
                              polarity=s.polarity, label=0, family="mix",
                              source_id=s.id))
    return out


def mask_negatives(samples, d: int, rng: np.random.Generator,
                   mask_rate: float) -> list:
    """Zero a Bernoulli(mask_rate) subset of dims in each pathway."""
    if not 0.0 <= mask_rate <= 1.0:
        raise ValidationError("mask_rate must be in [0, 1]")
    out = []
    for s in samples:
        h_v = s.h_v * (rng.random(d) >= mask_rate)
        h_a = audio_or_zero(s, d) * (rng.random(d) >= mask_rate)
        h_t = s.h_t_raw * (rng.random(s.h_t_raw.shape[0]) >= mask_rate)
        out.append(ForgedItem(h_v=h_v, h_a=h_a, h_t_raw=h_t,
                              polarity=s.polarity, label=0, family="mask",
                              source_id=s.id))
    return out


def flip_negatives(samples, d: int) -> list:
    """Bit-identical features, inverted polarity input."""
    return [ForgedItem(h_v=s.h_v, h_a=audio_or_zero(s, d), h_t_raw=s.h_t_raw,
                       polarity=1 - s.polarity, label=0, family="flip",
                       source_id=s.id)
            for s in samples]


def forge_items(samples, d: int, rng: np.random.Generator,
                mask_rate: float = 0.3) -> list:
    """Positives plus one negative per sample per family, mix drawn first."""
    samples = list(samples)
    return (positives(samples, d) + mix_negatives(samples, d, rng)
            + mask_negatives(samples, d, rng, mask_rate)
            + flip_negatives(samples, d))


def by_family(items) -> dict:
    groups = {f: [] for f in FAMILIES}
    for it in items:
        groups[it.family].append(it)
    return groups


def forged_batch_from_items(items, d: int, d_t: int) -> ForgedBatch:
    """The array batch holding these items, grouped into family blocks."""
    groups = by_family(items)
    ordered = [it for f in FAMILIES for it in groups[f]]
    rows = FeatureRows(
        V=np.array([it.h_v for it in ordered]).reshape(-1, d),
        A=np.array([it.h_a for it in ordered]).reshape(-1, d),
        T=np.array([it.h_t_raw for it in ordered]).reshape(-1, d_t),
        P=np.array([it.polarity for it in ordered], dtype=np.intp))
    labels = np.array([it.label for it in ordered], dtype=np.float64)
    return ForgedBatch(rows=rows, labels=labels,
                       sizes=tuple(len(groups[f]) for f in FAMILIES))


def family_items(fb: ForgedBatch, samples) -> dict:
    """The rows of an array batch as ForgedItems, keyed by family.

    Every family block holds one row per sample in batch order (mix may be
    empty), which gives each row its source id.
    """
    ids = [s.id for s in samples]
    out, start = {}, 0
    for family, size in zip(FAMILIES, fb.sizes):
        out[family] = [
            ForgedItem(h_v=fb.rows.V[r], h_a=fb.rows.A[r], h_t_raw=fb.rows.T[r],
                       polarity=int(fb.rows.P[r]), label=int(fb.labels[r]),
                       family=family, source_id=ids[r - start])
            for r in range(start, start + size)]
        start += size
    return out
