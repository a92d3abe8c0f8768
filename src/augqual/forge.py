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

A forged batch is array-backed and laid out as the scorer's input: the rows
of every family are stacked in ``FAMILIES`` order (pos, mix, mask, flip), the
video and audio features of row i in the first ``2d`` columns of row i of the
scorer input ``x`` (n, 4d), its text in ``T`` and its polarity in ``P``;
``sizes`` gives each family's block length. Every family but mix has one row
per batch sample, in batch order. Mix has one row per sample too, or none when
the batch holds a single polarity and no sample has a donor.

``forge_batch`` gathers the batch from the corpus columns and writes every
family block straight into those arrays, the ``ForgeWork`` a training loop
allocates once and reuses each step; the scorer fills the last ``2d`` columns
of ``x`` itself (``qa._forward``), so nothing is concatenated or copied again.
Labels, 1 for the positives and 0 for the rest, are one read-only column of
the work, sliced to the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FeatureRows
from .util import ValidationError

FAMILIES = ("pos", "mix", "mask", "flip")


@dataclass(frozen=True)
class ForgedBatch:
    """Scorer training rows: the scorer input ``x`` whose video and audio
    columns hold the forged features, text ``T``, polarity ``P``, label (1 =
    trusted positive, 0 = forged negative) and the block size of each family,
    in ``FAMILIES`` order. The fields are views of a ``ForgeWork``."""

    x: np.ndarray                  # (n, 4d) float64; forge writes [:, :2d]
    T: np.ndarray                  # (n, d_t) float64
    P: np.ndarray                  # (n,) intp
    labels: np.ndarray             # (n,) float64, read-only
    sizes: tuple[int, int, int, int]


class ForgeWork:
    """The arrays ``forge_batch`` writes a batch of ``n`` samples into, for
    every family: the scorer input ``x``, text ``t`` and polarity ``p``, one
    row per forged row, plus the mask family's draws and the labels."""

    def __init__(self, n: int, d: int, d_t: int):
        rows = len(FAMILIES) * n
        self.d = d
        self.x = np.empty((rows, 4 * d))
        self.t = np.empty((rows, d_t))
        self.p = np.empty(rows, dtype=np.intp)
        self.draws = np.empty((n, 2 * d + d_t))
        self.keep = np.empty((n, 2 * d + d_t), dtype=bool)
        self.labels = np.zeros(rows)
        self.labels[:n] = 1.0
        self.labels.setflags(write=False)


def _mix_rows(P: np.ndarray, rng: np.random.Generator):
    """Pathway swaps against opposite-polarity donors within the batch: the
    batch rows each mix row takes its video and its audio from, or None when
    the batch holds one polarity.

    Two draws per sample, in batch order: the donor among the opposite
    polarity's samples, then the coin (1 keeps video and takes the donor's
    audio, 0 keeps audio and takes the donor's video).
    """
    n, zero = P.shape[0], P == 0
    n0 = int(np.count_nonzero(zero))
    if n0 == 0 or n0 == n:
        return None
    # one call draws what two scalar calls per sample would; donors sorted by polarity
    highs = np.column_stack([np.where(zero, n - n0, n0), np.full(n, 2)])
    pick, keep_video = rng.integers(0, highs).T
    donor = np.argsort(P, kind="stable")[np.where(zero, n0, 0) + pick]
    own = np.arange(n)
    return np.where(keep_video, own, donor), np.where(keep_video, donor, own)


def forge_batch(features: FeatureRows, rows: np.ndarray, rng: np.random.Generator,
                mask_rate: float, work: ForgeWork | None = None) -> ForgedBatch:
    """Positives, the batch of ``features`` at ``rows``, plus one negative per
    sample per family, written into ``work``, a ``ForgeWork`` for
    ``len(rows)`` samples (allocated here when None); ``mask_rate`` in
    [0, 1] is the mask family's Bernoulli rate (``QaConfig.rho``).

    Draw order is fixed (mix first, then mask), so results are reproducible
    for a given generator state. The mask family takes one uniform draw per
    dimension, sample after sample, each sample's draws in video, audio,
    text order; a dimension is zeroed where its draw is below the rate, so
    rate 0 is a feature-preserving identity (the rows still carry label 0).
    """
    n = len(rows)
    if n == 0:
        raise ValidationError("cannot forge from an empty batch")
    if work is None:
        work = ForgeWork(n, features.V.shape[1], features.T.shape[1])
    d, x, t, p = work.d, work.x, work.t, work.p
    va = x[:, :2 * d]                  # the video and audio columns, side by side
    np.take(features.V, rows, axis=0, out=x[:n, :d])
    np.take(features.A, rows, axis=0, out=x[:n, d:2 * d])
    np.take(features.T, rows, axis=0, out=t[:n])
    P = np.take(features.P, rows, out=p[:n])

    mix = _mix_rows(P, rng)
    at = n                             # the first row of the next family block
    if mix is not None:
        video_from, audio_from = mix
        np.take(x[:n, :d], video_from, axis=0, out=x[n:2 * n, :d])
        np.take(x[:n, d:2 * d], audio_from, axis=0, out=x[n:2 * n, d:2 * d])
        t[n:2 * n] = t[:n]
        p[n:2 * n] = P
        at = 2 * n

    keep = np.greater_equal(rng.random(out=work.draws), mask_rate, out=work.keep)
    np.multiply(va[:n], keep[:, :2 * d], out=va[at:at + n])
    np.multiply(t[:n], keep[:, 2 * d:], out=t[at:at + n])
    p[at:at + n] = P

    at += n
    va[at:at + n] = va[:n]
    t[at:at + n] = t[:n]
    np.subtract(1, P, out=p[at:at + n])
    end = at + n
    return ForgedBatch(x=x[:end], T=t[:end], P=p[:end], labels=work.labels[:end],
                       sizes=(n, 0 if mix is None else n, n, n))
