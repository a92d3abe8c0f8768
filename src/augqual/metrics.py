"""Evaluation metrics over scalar sentiment predictions in [-1, 1].

Accuracy metrics bin the continuous range into k equal-width classes with
``corpus.sentiment_class``, the binning the target tokens use; the k=2 split
puts y = 0 in the positive class. Weighted precision and F1 average
per-class values weighted by gold support (a class absent from gold weighs
nothing), read off one confusion matrix of the two class arrays.

No weighted-recall or multiclass-accuracy key is reported: a support-weighted
recall is plain accuracy by construction, and both equal ``acc5`` to the bit,
so the report gives that number once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import sentiment_class
from .util import ValidationError


def _as_pair(pred, gold):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if p.ndim != 1 or g.ndim != 1:
        raise ValidationError("metric inputs must be 1-d")
    if p.shape != g.shape:
        raise ValidationError(f"length mismatch: {p.shape[0]} vs {g.shape[0]}")
    if p.shape[0] == 0:
        raise ValidationError("metric inputs must be nonempty")
    return p, g


def _classes(p, g, k: int):
    """k-way sentiment classes of both sides; NaN fails the range check."""
    for arr in (p, g):
        if not np.all((arr >= -1.0) & (arr <= 1.0)):
            raise ValidationError("sentiment values outside [-1, 1]")
    return sentiment_class(p, k), sentiment_class(g, k)


def acc_k(pred, gold, k: int) -> float:
    """Fraction of samples whose k-way sentiment bins agree."""
    if k < 2:
        raise ValidationError("k must be >= 2")
    pc, gc = _classes(*_as_pair(pred, gold), k)
    return float(np.mean(pc == gc))


def _class_table(pred_classes, gold_classes):
    """Support, precision and F1 of every label, ascending, from one confusion
    matrix; the labels are any integers. A label only predicted has support
    0, so it weighs nothing in a support-weighted mean."""
    p = np.asarray(pred_classes)
    g = np.asarray(gold_classes)
    if p.shape != g.shape or p.ndim != 1:
        raise ValidationError("class arrays must be 1-d and equal length")
    if p.shape[0] == 0:
        raise ValidationError("metric inputs must be nonempty")
    labels, index = np.unique(np.concatenate([g, p]), return_inverse=True)
    m, n = labels.shape[0], g.shape[0]
    confusion = np.bincount(index[:n] * m + index[n:], minlength=m * m).reshape(m, m)
    tp = np.diag(confusion)
    support = confusion.sum(axis=1)                     # rows gold, columns predicted
    prec = tp / np.maximum(confusion.sum(axis=0), 1)    # 0 for a label never predicted
    rec = tp / np.maximum(support, 1)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(m), where=prec + rec > 0)
    return support, prec, f1


def _support_weighted(support, values) -> float:
    # the built-in sum in ascending class order, as the per-class formula
    # reads, so every value matches that formula to the bit
    return sum((support * values).tolist()) / int(support.sum())


def mae(pred, gold) -> float:
    p, g = _as_pair(pred, gold)
    return float(np.mean(np.abs(p - g)))


def pearson_corr(pred, gold) -> float:
    p, g = _as_pair(pred, gold)
    # constancy checked on the raw values: mean subtraction of a constant
    # vector leaves rounding dust, not an exact zero denominator
    if np.all(p == p[0]) or np.all(g == g[0]):
        raise ValidationError("correlation undefined")
    pc = p - p.mean()
    gc = g - g.mean()
    denom = np.sqrt(np.sum(pc * pc) * np.sum(gc * gc))
    if denom == 0.0:
        raise ValidationError("correlation undefined")
    return float(np.sum(pc * gc) / denom)


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-d array; tied values share their average rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.shape[0]]
    group_rank = (starts + 1 + ends) / 2.0      # mean of ranks starts+1 .. ends
    ranks = np.empty(v.shape[0])
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Rank-statistic AUC; ties get average ranks. Needs both classes."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.shape[0] == 0:
        raise ValidationError("roc_auc inputs must be 1-d and equal length")
    pos = y == 1
    n_pos = int(np.sum(pos))
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc needs both classes")
    ranks = average_ranks(s)
    u = np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def compute_metrics(pred, gold) -> dict:
    """Full metric dict for one evaluation: binned accuracies, support-weighted
    5-class precision and F1, MAE, and Pearson correlation.

    A constant prediction vector has no defined correlation; that case is
    reported as None rather than aborting the run.
    """
    p, g = _as_pair(pred, gold)
    pc, gc = _classes(p, g, 5)
    support, prec, f1 = _class_table(pc, gc)
    try:
        corr = pearson_corr(p, g)
    except ValidationError:
        corr = None
    return {
        "n": int(p.shape[0]),
        "acc2": acc_k(p, g, 2),
        "acc5": float(np.mean(pc == gc)),
        "f1_weighted": _support_weighted(support, f1),
        "mae": mae(p, g),
        "corr": corr,
        "wprec": _support_weighted(support, prec),
    }


@dataclass(frozen=True)
class MetricsReport:
    """Per-seed metric rows plus their arithmetic mean."""

    seeds: tuple[int, ...]
    per_seed: dict
    mean: dict

    @staticmethod
    def aggregate(rows: dict) -> "MetricsReport":
        """rows: seed -> metric dict, all sharing the same keys.

        Every mean entry is the arithmetic mean of the per-seed values
        (None rows are skipped per key); n included.
        """
        if not rows:
            raise ValidationError("no metric rows to aggregate")
        seeds = tuple(sorted(rows))
        keys = list(rows[seeds[0]])
        mean = {}
        for key in keys:
            present = [rows[s][key] for s in seeds if rows[s][key] is not None]
            mean[key] = float(np.mean(present)) if present else None
        return MetricsReport(seeds=seeds, per_seed={s: dict(rows[s]) for s in seeds},
                             mean=mean)

    def to_dict(self) -> dict:
        return {"seeds": list(self.seeds),
                "per_seed": {str(s): self.per_seed[s] for s in self.seeds},
                "mean": self.mean}
