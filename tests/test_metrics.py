"""Metric implementations vs independent brute-force oracles."""

import math

import numpy as np
import pytest

from augqual.metrics import (
    MetricsReport,
    acc_k,
    average_ranks,
    compute_metrics,
    mae,
    pearson_corr,
    roc_auc,
    weighted_f1,
    weighted_precision,
)
from augqual.util import ValidationError
from oracles import derive_polarity


# ---------------------------------------------------------------------------
# Brute-force oracles, pure python
# ---------------------------------------------------------------------------

def _brute_bin(y, k):
    idx = int(math.floor((y + 1.0) / 2.0 * k))
    return min(idx, k - 1)


def _brute_acc_k(pred, gold, k):
    hits = sum(1 for p, g in zip(pred, gold)
               if _brute_bin(p, k) == _brute_bin(g, k))
    return hits / len(pred)


def _brute_class_table(pred_c, gold_c):
    table = {}
    for c in set(gold_c):
        tp = sum(1 for p, g in zip(pred_c, gold_c) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred_c, gold_c) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred_c, gold_c) if p != c and g == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn)
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        table[c] = (tp + fn, prec, rec, f1)
    return table


def _brute_weighted(pred_c, gold_c, which):
    table = _brute_class_table(pred_c, gold_c)
    total = sum(v[0] for v in table.values())
    return sum(v[0] * v[which] for v in table.values()) / total


def _brute_mae(pred, gold):
    return sum(abs(p - g) for p, g in zip(pred, gold)) / len(pred)


def _brute_pearson(pred, gold):
    n = len(pred)
    mp = sum(pred) / n
    mg = sum(gold) / n
    num = sum((p - mp) * (g - mg) for p, g in zip(pred, gold))
    dp = sum((p - mp) ** 2 for p in pred)
    dg = sum((g - mg) ** 2 for g in gold)
    return num / math.sqrt(dp * dg)


def _brute_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y != 1]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _draw(rng, n):
    pred = rng.uniform(-1, 1, n)
    gold = rng.uniform(-1, 1, n)
    if rng.random() < 0.3:
        # inject exact ties and bin-edge values
        pred = np.round(pred, 1)
        gold = np.round(gold, 1)
    return pred, gold


class TestBinnedAccuracy:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(400):
            n = int(rng.integers(1, 50))
            pred, gold = _draw(rng, n)
            k = int(rng.integers(2, 8))
            assert acc_k(pred, gold, k) == pytest.approx(
                _brute_acc_k(pred, gold, k), abs=1e-12)

    def test_k2_agrees_with_polarity(self):
        rng = np.random.default_rng(11)
        pred, gold = _draw(rng, 200)
        want = float(np.mean([derive_polarity(p) == derive_polarity(g)
                              for p, g in zip(pred, gold)]))
        assert acc_k(pred, gold, 2) == want

    def test_zero_lands_positive_side(self):
        assert acc_k([0.0], [0.5], 2) == 1.0
        assert acc_k([0.0], [-0.5], 2) == 0.0

    def test_identical_inputs_are_perfect(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(-1, 1, 100)
        for k in (2, 3, 5):
            assert acc_k(vals, vals, k) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="k must be >= 2"):
            acc_k([0.1], [0.1], 1)
        with pytest.raises(ValidationError, match="length mismatch"):
            acc_k([0.1, 0.2], [0.1], 2)
        with pytest.raises(ValidationError, match="nonempty"):
            acc_k([], [], 2)
        with pytest.raises(ValidationError, match="outside"):
            acc_k([1.2], [0.0], 2)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=r"outside \[-1, 1\]"):
                acc_k([bad, 0.5], [0.5, 0.2], 2)
            with pytest.raises(ValidationError, match=r"outside \[-1, 1\]"):
                acc_k([0.5, 0.2], [0.5, bad], 5)
            with pytest.raises(ValidationError, match=r"outside \[-1, 1\]"):
                compute_metrics([0.5, bad], [0.5, 0.2])
            with pytest.raises(ValidationError, match=r"outside \[-1, 1\]"):
                compute_metrics([0.5, 0.2], [bad, 0.2])


class TestWeightedClassMetrics:
    def _classes(self, rng, n, k=5):
        return (rng.integers(0, k, n).tolist(), rng.integers(0, k, n).tolist())

    def test_match_brute_force(self):
        rng = np.random.default_rng(13)
        labels = np.array([-7, 0, 3, 42, 10**9])      # any integers are classes
        for _ in range(400):
            n = int(rng.integers(1, 60))
            pred_c, gold_c = self._classes(rng, n, int(rng.integers(2, 6)))
            if rng.random() < 0.5:
                pred_c, gold_c = labels[pred_c].tolist(), labels[gold_c].tolist()
            assert weighted_precision(pred_c, gold_c) == pytest.approx(
                _brute_weighted(pred_c, gold_c, 1), abs=1e-12)
            assert weighted_f1(pred_c, gold_c) == pytest.approx(
                _brute_weighted(pred_c, gold_c, 3), abs=1e-12)

    def test_weighted_recall_is_accuracy(self):
        # the support-weighted recall of the 5-way bins is acc5, which is why
        # no weighted-recall metric exists
        rng = np.random.default_rng(14)
        for _ in range(100):
            pred, gold = _draw(rng, int(rng.integers(1, 60)))
            pred_c = [_brute_bin(p, 5) for p in pred]
            gold_c = [_brute_bin(g, 5) for g in gold]
            assert acc_k(pred, gold, 5) == pytest.approx(
                _brute_weighted(pred_c, gold_c, 2), abs=1e-12)

    def test_classes_absent_from_gold_excluded(self):
        # predictions hit class 3 which never appears in gold; only gold
        # classes weigh in
        pred_c = [3, 3, 0, 1]
        gold_c = [0, 0, 0, 1]
        assert weighted_precision(pred_c, gold_c) == 1.0
        assert weighted_f1(pred_c, gold_c) == pytest.approx(
            (3 * 0.5 + 1 * 1.0) / 4, abs=1e-12)
        # the same bins as sentiment values: recall (3 * (1/3) + 1 * 1) / 4
        assert acc_k([0.4, 0.4, -0.8, -0.4], [-0.8, -0.8, -0.8, -0.4], 5) == 0.5

    def test_perfect_prediction_identities(self):
        rng = np.random.default_rng(15)
        gold_c = rng.integers(0, 5, 80).tolist()
        for fn in (weighted_precision, weighted_f1):
            assert fn(gold_c, gold_c) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            weighted_f1([0, 1], [0])
        with pytest.raises(ValidationError):
            weighted_precision([], [])


class TestScalarMetrics:
    def test_mae_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            pred, gold = _draw(rng, int(rng.integers(1, 50)))
            assert mae(pred, gold) == pytest.approx(
                _brute_mae(list(pred), list(gold)), abs=1e-12)

    def test_mae_perfect_is_zero(self):
        vals = np.linspace(-1, 1, 50)
        assert mae(vals, vals) == 0.0

    def test_pearson_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            pred, gold = _draw(rng, n)
            if np.all(pred == pred[0]) or np.all(gold == gold[0]):
                continue
            assert pearson_corr(pred, gold) == pytest.approx(
                _brute_pearson(list(pred), list(gold)), abs=1e-12)

    def test_pearson_identities(self):
        vals = np.linspace(-0.9, 0.9, 40)
        assert pearson_corr(vals, vals) == pytest.approx(1.0, abs=1e-12)
        assert pearson_corr(vals, -vals) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_undefined_on_constant(self):
        with pytest.raises(ValidationError, match="correlation undefined"):
            pearson_corr([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])


class TestRocAuc:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.random(n)
            if rng.random() < 0.4:
                scores = np.round(scores, 1)
            assert roc_auc(scores, labels) == pytest.approx(
                _brute_auc(list(scores), list(labels)), abs=1e-12)

    def test_perfect_and_inverted_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels) == 1.0
        assert roc_auc(scores, 1 - labels) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_needs_both_classes(self):
        with pytest.raises(ValidationError, match="roc_auc needs both classes"):
            roc_auc([0.1, 0.2], [1, 1])


class TestAverageRanks:
    def test_matches_brute_force_average_ranks(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            values = rng.integers(0, 6, n).astype(float)
            if rng.random() < 0.5:
                values = rng.random(n)
            want = [1.0 + sum(w < v for w in values)
                    + (sum(w == v for w in values) - 1) / 2.0 for v in values]
            np.testing.assert_array_equal(average_ranks(values), want)


class TestComputeMetrics:
    KEYS = ("n", "acc2", "acc5", "f1_weighted", "mae", "corr", "wprec")

    def test_keys_and_values(self):
        rng = np.random.default_rng(19)
        pred, gold = _draw(rng, 120)
        out = compute_metrics(pred, gold)
        assert tuple(out) == self.KEYS
        assert out["n"] == 120
        assert out["acc2"] == acc_k(pred, gold, 2)
        assert out["acc5"] == acc_k(pred, gold, 5)
        assert out["mae"] == mae(pred, gold)
        assert out["corr"] == pearson_corr(pred, gold)
        pred_c = [_brute_bin(p, 5) for p in pred]
        gold_c = [_brute_bin(g, 5) for g in gold]
        assert out["f1_weighted"] == weighted_f1(pred_c, gold_c)
        assert out["wprec"] == weighted_precision(pred_c, gold_c)
        # plain Python numbers: the canonical JSON writer refuses numpy ones
        assert {type(v) for v in out.values()} == {int, float}

    def test_perfect_prediction(self):
        vals = np.linspace(-0.95, 0.95, 60)
        out = compute_metrics(vals, vals)
        assert out["acc2"] == out["acc5"] == 1.0
        assert out["f1_weighted"] == out["wprec"] == 1.0
        assert out["mae"] == 0.0
        assert out["corr"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_prediction_reports_none_corr(self):
        out = compute_metrics([0.3] * 10, np.linspace(-1, 1, 10))
        assert out["corr"] is None
        assert out["mae"] > 0


class TestMetricsReport:
    def test_mean_is_arithmetic(self):
        rows = {
            1: {"acc2": 0.8, "mae": 0.2, "corr": 0.9},
            2: {"acc2": 0.6, "mae": 0.4, "corr": 0.7},
            3: {"acc2": 0.7, "mae": 0.3, "corr": 0.8},
        }
        rep = MetricsReport.aggregate(rows)
        assert rep.seeds == (1, 2, 3)
        assert rep.mean["acc2"] == pytest.approx(0.7, abs=1e-12)
        assert rep.mean["mae"] == pytest.approx(0.3, abs=1e-12)
        assert rep.mean["corr"] == pytest.approx(0.8, abs=1e-12)

    def test_none_rows_skipped_per_key(self):
        rows = {
            1: {"corr": None, "acc2": 1.0},
            2: {"corr": 0.5, "acc2": 0.0},
        }
        rep = MetricsReport.aggregate(rows)
        assert rep.mean["corr"] == 0.5
        assert rep.mean["acc2"] == 0.5

    def test_all_none_stays_none(self):
        rep = MetricsReport.aggregate({1: {"corr": None}, 2: {"corr": None}})
        assert rep.mean["corr"] is None

    def test_per_seed_preserved_and_dict_shape(self):
        rows = {7: {"acc2": 0.5}, 3: {"acc2": 1.0}}
        rep = MetricsReport.aggregate(rows)
        d = rep.to_dict()
        assert d["seeds"] == [3, 7]
        assert d["per_seed"]["3"] == {"acc2": 1.0}
        assert d["per_seed"]["7"] == {"acc2": 0.5}
        assert d["mean"]["acc2"] == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no metric rows"):
            MetricsReport.aggregate({})
