"""Synthetic negatives for scorer training, forged from trusted samples.

Three constructions, each breaking a different consistency property while
staying on the real feature manifold:

* ``mix``: swap exactly one of the video/audio pathways with an
  opposite-polarity donor from the same batch (coin flip picks which),
  keeping text - breaks cross-modal agreement.
* ``mask``: zero out a Bernoulli subset of dimensions in every pathway -
  mimics degraded or dropped content.
* ``flip``: identical features with the polarity input inverted - breaks
  feature/polarity agreement and is the only family that teaches the scorer
  to read its polarity input at all.

Positives are the trusted samples themselves. Missing audio is represented
by a zero vector throughout, matching how the scorer assembles its input.

A forged batch is array-backed: the rows of every family are stacked in
``FAMILIES`` order (pos, mix, mask, flip), and ``sizes`` gives each family's
block length. Every family but mix has one row per batch sample, in batch
order. Mix has one row per sample too, or none when the batch holds a single
polarity and no sample has a donor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FeatureRows
from .util import ValidationError, bounded, check_ranges

FAMILIES = ("pos", "mix", "mask", "flip")


@dataclass(frozen=True)
class ForgedBatch:
    """Scorer training rows: features, label (1 = trusted positive, 0 = forged
    negative) and the block size of each family, in ``FAMILIES`` order."""

    rows: FeatureRows
    labels: np.ndarray             # (n,) float64
    sizes: tuple[int, int, int, int]


@dataclass(frozen=True)
class ForgeConfig:
    mask_rate: float = bounded(0.3, "[0, 1]")

    def __post_init__(self):
        check_ranges(self)


def _mix_rows(batch: FeatureRows, rng: np.random.Generator) -> FeatureRows:
    """Pathway swaps against opposite-polarity donors within the batch.

    Two draws per sample, in batch order: the donor among the opposite
    polarity's samples, then the coin (1 keeps video and takes the donor's
    audio, 0 keeps audio and takes the donor's video).
    """
    P, n = batch.P, len(batch)
    n0 = int(np.count_nonzero(P == 0))
    if n0 == 0 or n0 == n:
        return batch.take(np.zeros(0, dtype=np.intp))
    # one call draws what two scalar calls per sample would; donors sorted by polarity
    highs = np.column_stack([np.where(P == 0, n - n0, n0), np.full(n, 2)])
    pick, keep_video = rng.integers(0, highs).T
    donor = np.argsort(P, kind="stable")[np.where(P == 0, n0, 0) + pick]
    own = np.arange(n)
    return FeatureRows(V=batch.V[np.where(keep_video, own, donor)],
                       A=batch.A[np.where(keep_video, donor, own)], T=batch.T, P=P)


def _mask_rows(batch: FeatureRows, rng: np.random.Generator,
               mask_rate: float) -> FeatureRows:
    """Zero a Bernoulli(mask_rate) subset of dims in each pathway.

    One uniform draw per dimension, sample after sample, each sample's
    draws in video, audio, text order. Rate 0 is a feature-preserving
    identity (the rows still carry label 0).
    """
    n, d, d_t = len(batch), batch.V.shape[1], batch.T.shape[1]
    keep = rng.random(n * (2 * d + d_t)).reshape(n, -1) >= mask_rate
    return FeatureRows(V=batch.V * keep[:, :d], A=batch.A * keep[:, d:2 * d],
                       T=batch.T * keep[:, 2 * d:], P=batch.P)


def forge_batch(batch: FeatureRows, rng: np.random.Generator,
                config: ForgeConfig | None = None) -> ForgedBatch:
    """Positives plus one negative per sample per family.

    Draw order is fixed (mix first, then mask), so results are reproducible
    for a given generator state.
    """
    config = config or ForgeConfig()
    n = len(batch)
    if n == 0:
        raise ValidationError("cannot forge from an empty batch")
    mix = _mix_rows(batch, rng)
    mask = _mask_rows(batch, rng, config.mask_rate)
    blocks = (batch, mix, mask, batch)
    sizes = (n, len(mix), n, n)
    rows = FeatureRows(
        V=np.concatenate([b.V for b in blocks]),
        A=np.concatenate([b.A for b in blocks]),
        T=np.concatenate([b.T for b in blocks]),
        P=np.concatenate([batch.P, mix.P, batch.P, 1 - batch.P]))
    labels = np.zeros(sum(sizes))
    labels[:n] = 1.0
    return ForgedBatch(rows=rows, labels=labels, sizes=sizes)
