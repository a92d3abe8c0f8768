"""Evaluation metrics over scalar sentiment predictions in [-1, 1].

Accuracy metrics bin the continuous range into k equal-width classes; the
k=2 split puts y = 0 in the positive class, agreeing with derive_polarity
everywhere. Weighted precision/recall/F1 average per-class values weighted
by gold support (classes absent from gold are excluded), which makes the
weighted recall equal to plain accuracy by construction.
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


def _bin(values: np.ndarray, k: int) -> np.ndarray:
    return np.array([sentiment_class(float(v), k) for v in values], dtype=np.intp)


def acc_k(pred, gold, k: int) -> float:
    """Fraction of samples whose k-way sentiment bins agree."""
    if k < 2:
        raise ValidationError("k must be >= 2")
    p, g = _as_pair(pred, gold)
    for arr in (p, g):
        if np.any(arr < -1.0) or np.any(arr > 1.0):
            raise ValidationError("sentiment values outside [-1, 1]")
    return float(np.mean(_bin(p, k) == _bin(g, k)))


def _class_stats(pred_classes, gold_classes):
    p = np.asarray(pred_classes)
    g = np.asarray(gold_classes)
    if p.shape != g.shape or p.ndim != 1:
        raise ValidationError("class arrays must be 1-d and equal length")
    if p.shape[0] == 0:
        raise ValidationError("metric inputs must be nonempty")
    stats = []
    for c in sorted(set(g.tolist())):
        tp = int(np.sum((p == c) & (g == c)))
        fp = int(np.sum((p == c) & (g != c)))
        fn = int(np.sum((p != c) & (g == c)))
        support = tp + fn
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / support
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        stats.append((support, prec, rec, f1))
    total = sum(s[0] for s in stats)
    return stats, total


def weighted_precision(pred_classes, gold_classes) -> float:
    stats, total = _class_stats(pred_classes, gold_classes)
    return sum(s * p for s, p, _, _ in stats) / total


def weighted_recall(pred_classes, gold_classes) -> float:
    stats, total = _class_stats(pred_classes, gold_classes)
    return sum(s * r for s, _, r, _ in stats) / total


def weighted_f1(pred_classes, gold_classes) -> float:
    stats, total = _class_stats(pred_classes, gold_classes)
    return sum(s * f for s, _, _, f in stats) / total


def weighted_accuracy(pred_classes, gold_classes) -> float:
    """Plain multiclass accuracy (the support-weighted family's wAcc)."""
    p = np.asarray(pred_classes)
    g = np.asarray(gold_classes)
    if p.shape != g.shape or p.shape[0] == 0:
        raise ValidationError("class arrays must be nonempty and equal length")
    return float(np.mean(p == g))


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


def compute_metrics(pred, gold, k_major: int = 5) -> dict:
    """Full metric dict for one evaluation: binned accuracies, support-weighted
    class metrics at ``k_major``, MAE, and Pearson correlation.

    A constant prediction vector has no defined correlation; that case is
    reported as None rather than aborting the run.
    """
    p, g = _as_pair(pred, gold)
    pc = _bin(p, k_major)
    gc = _bin(g, k_major)
    try:
        corr = pearson_corr(p, g)
    except ValidationError:
        corr = None
    return {
        "n": int(p.shape[0]),
        "acc2": acc_k(p, g, 2),
        "acc5": acc_k(p, g, 5),
        "f1_weighted": weighted_f1(pc, gc),
        "mae": mae(p, g),
        "corr": corr,
        "wacc": weighted_accuracy(pc, gc),
        "wf1": weighted_f1(pc, gc),
        "wprec": weighted_precision(pc, gc),
        "wrec": weighted_recall(pc, gc),
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
