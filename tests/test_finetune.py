"""Surrogate head: loss oracles, hand gradients, weighted training."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from augqual.corpus import (
    IGNORE_INDEX,
    CorruptionProfile,
    corpus_checksum,
    generate_corpus,
)
from augqual.finetune import (
    HeadConfig,
    HeadParams,
    _head_matrix,
    _loss_and_grads,
    head_snapshot_chunks,
    init_head,
    load_head_snapshot,
    predict_all,
    save_head_snapshot,
    train_stage1,
    write_run_log,
)
from augqual.metrics import acc_k
from augqual.numerics import init_adam
from augqual.qa import WeightFile, WeightMapConfig, map_weight
from augqual.util import ChecksumError, ValidationError, derived_rng
from oracles import (
    corpus_from_samples,
    decode,
    empty_grads,
    finite_diff_grad,
    flatten_arrays,
    head_input,
    head_logits,
    per_sample_loss,
    predict_tokens,
    ref_head_loss_and_grads,
    samples_of,
    softmax_cross_entropy,
    unflatten_arrays,
    weighted_batch_loss,
)

CLEAN = CorruptionProfile(0.0, 0.0, 0.0, 0.0, 0.0)


def _brute_ce(logits_row, target):
    # independent cross-entropy: log-sum-exp minus target logit, pure python
    mx = max(logits_row)
    lse = mx + math.log(sum(math.exp(v - mx) for v in logits_row))
    return lse - logits_row[target]


def _rand_head(rng, hidden, in_dim, t_max, vocab):
    return {
        "in_w": rng.standard_normal((hidden, in_dim)),
        "in_b": rng.standard_normal(hidden),
        "out_w": rng.standard_normal((t_max, vocab, hidden)),
        "out_b": rng.standard_normal((t_max, vocab)),
    }


class TestPerSampleLoss:
    def test_single_position_is_plain_cross_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.standard_normal((1, 8))
            tok = int(rng.integers(8))
            assert per_sample_loss(logits, [tok]) == pytest.approx(
                softmax_cross_entropy(logits[0], tok), abs=1e-12)

    def test_ignored_tail_does_not_touch_loss(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 8))
        targets = [1, 4, 7, IGNORE_INDEX]
        base = per_sample_loss(logits, targets)
        logits2 = logits.copy()
        logits2[3] = 1e6
        assert per_sample_loss(logits2, targets) == base

    def test_three_position_hand_case(self):
        logits = np.array([[0.5, -1.0, 2.0],
                           [3.0, 3.0, 3.0],
                           [-0.5, 0.0, 1.5]])
        targets = [0, IGNORE_INDEX, 2]
        want = (_brute_ce([0.5, -1.0, 2.0], 0) + _brute_ce([-0.5, 0.0, 1.5], 2)) / 2
        assert per_sample_loss(logits, targets) == pytest.approx(want, abs=1e-12)

    def test_mean_over_supervised_positions(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            T = int(rng.integers(1, 6))
            vocab = int(rng.integers(2, 9))
            logits = rng.standard_normal((T, vocab))
            targets = [int(rng.integers(vocab)) if rng.random() < 0.7
                       else IGNORE_INDEX for _ in range(T)]
            if all(t == IGNORE_INDEX for t in targets):
                targets[0] = 0
            sup = [t for t in range(T) if targets[t] != IGNORE_INDEX]
            want = sum(_brute_ce(list(logits[t]), targets[t]) for t in sup) / len(sup)
            assert per_sample_loss(logits, targets) == pytest.approx(want, abs=1e-12)

    def test_all_ignored_rejected(self):
        logits = np.zeros((3, 4))
        with pytest.raises(ValidationError,
                           match="sample has no supervised tokens"):
            per_sample_loss(logits, [IGNORE_INDEX] * 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            per_sample_loss(np.zeros((3, 4)), [0, 1])


class TestWeightedBatchLoss:
    def test_frozen_example(self):
        # (1.5 * 0.5 + 0.1 * 1.0) / 2
        assert weighted_batch_loss([0.5, 1.0], [1.5, 0.1]) == pytest.approx(
            0.425, abs=1e-12)

    def test_all_zero_weights_give_zero(self):
        assert weighted_batch_loss([0.3, 2.0, 0.9], [0.0, 0.0, 0.0]) == 0.0

    def test_divisor_is_batch_size_not_weight_sum(self):
        # doubling every weight doubles the loss; a weight-sum divisor
        # would leave it unchanged
        ps = [0.4, 1.2, 0.7]
        w = [0.5, 1.5, 1.0]
        assert weighted_batch_loss(ps, [2 * x for x in w]) == pytest.approx(
            2 * weighted_batch_loss(ps, w), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            ps = rng.random(n) * 3
            w = rng.random(n) * 2
            want = sum(float(a) * float(b) for a, b in zip(w, ps)) / n
            assert weighted_batch_loss(ps, w) == pytest.approx(want, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError, match="differ in length"):
            weighted_batch_loss([0.5, 1.0], [1.0])
        with pytest.raises(ValidationError, match=">= 0"):
            weighted_batch_loss([0.5], [-0.1])
        with pytest.raises(ValidationError, match="empty batch"):
            weighted_batch_loss([], [])


class TestBatchedPath:
    """The vectorized training step must agree with the public scalar ops."""

    def test_loss_matches_public_ops(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n, hidden, in_dim, t_max, vocab = 5, 6, 7, 3, 5
            arrays = _rand_head(rng, hidden, in_dim, t_max, vocab)
            X = rng.standard_normal((n, in_dim))
            targets = rng.integers(0, vocab, size=(n, t_max))
            targets[rng.random((n, t_max)) < 0.3] = IGNORE_INDEX
            targets[:, 0] = rng.integers(0, vocab, size=n)
            w = rng.random(n) * 2
            loss = _loss_and_grads(arrays, X, targets.astype(np.int64), w,
                                   empty_grads(arrays))
            head = HeadParams.from_dict(arrays)
            ps = [per_sample_loss(head_logits(head, X[i]), targets[i])
                  for i in range(n)]
            assert loss == pytest.approx(weighted_batch_loss(ps, w), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            n, hidden, in_dim, t_max, vocab = 4, 5, 6, 3, 5
            arrays = _rand_head(rng, hidden, in_dim, t_max, vocab)
            X = rng.standard_normal((n, in_dim))
            targets = rng.integers(0, vocab, size=(n, t_max)).astype(np.int64)
            targets[0, 2] = IGNORE_INDEX
            targets[2, 1:] = IGNORE_INDEX
            w = np.array([1.5, 0.0, 0.7, 1.0])
            grads = empty_grads(arrays)
            _loss_and_grads(arrays, X, targets, w, grads)
            vec, layout = flatten_arrays(arrays)

            def f(v, _layout=layout, _X=X, _t=targets, _w=w):
                return _loss_and_grads(unflatten_arrays(v, _layout), _X, _t, _w,
                                       empty_grads(arrays))

            fd = finite_diff_grad(f, vec)
            an, _ = flatten_arrays(grads)
            rel = np.abs(an - fd) / np.maximum.reduce(
                [np.abs(an), np.abs(fd), np.full_like(an, 1e-6)])
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_zero_weight_sample_contributes_no_gradient(self):
        rng = np.random.default_rng(5)
        n, hidden, in_dim, t_max, vocab = 4, 5, 6, 3, 5
        arrays = _rand_head(rng, hidden, in_dim, t_max, vocab)
        X = rng.standard_normal((n, in_dim))
        targets = rng.integers(0, vocab, size=(n, t_max)).astype(np.int64)
        w = np.array([1.0, 0.0, 1.0, 0.5])
        grads_a, grads_b = empty_grads(arrays), empty_grads(arrays)
        loss_a = _loss_and_grads(arrays, X, targets, w, grads_a)
        flipped = targets.copy()
        flipped[1] = (flipped[1] + 1) % vocab
        loss_b = _loss_and_grads(arrays, X, flipped, w, grads_b)
        assert loss_a == loss_b
        for k in grads_a:
            assert np.array_equal(grads_a[k], grads_b[k])

    @pytest.mark.parametrize("d, d_t, hidden", [(64, 96, 128), (4, 5, 3)],
                             ids=["default widths", "narrow"])
    def test_grads_written_into_adam_buffer_match_reference(self, d, d_t, hidden):
        """Every gradient lands in its view of Adam's gradient vector, bit
        for bit the reference's fresh arrays, over seeded batches with
        ignored positions and zero weights."""
        corpus = generate_corpus(40, 1, CLEAN, seed=12, d=d, d_t=d_t)
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            arrays = init_head(corpus, HeadConfig(hidden=hidden), rng)
            arrays = {k: v + rng.standard_normal(v.shape)
                      for k, v in arrays.to_dict().items()}
            rows = rng.choice(len(corpus), size=32, replace=False)
            X = _head_matrix(corpus.features, rows)
            targets = corpus.targets[rows].copy()
            targets[rng.random(targets.shape) < 0.2] = IGNORE_INDEX
            targets[:, 0] = corpus.targets[rows, 0]
            w = rng.random(32) * (rng.random(32) > 0.2)
            want_loss, want = ref_head_loss_and_grads(arrays, X, targets, w)
            state = init_adam(arrays, lr=1e-3)
            state.grad[:] = np.nan                 # every entry must be written
            assert _loss_and_grads(arrays, X, targets, w, state.grad_views) == want_loss
            assert not np.isnan(state.grad).any()   # adam_step reuses it
            for k, g in state.grad_views.items():
                assert np.shares_memory(g, state.grad)
                assert g.tobytes() == want[k].tobytes(), (seed, k)

    def test_output_layer_never_calls_einsum(self, monkeypatch):
        """The output layer runs on BLAS matmul: with numpy's einsum made to
        raise, training and prediction still run."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called on the head's path")

        corpus = generate_corpus(20, 1, CLEAN, seed=3, d=6, d_t=8)
        monkeypatch.setattr(np, "einsum", refuse)
        run = train_stage1(corpus, None, HeadConfig(steps=5), 0)
        preds = predict_all(run.head, corpus, np.arange(len(corpus)))
        assert preds.shape == (len(corpus),) and np.isfinite(run.loss_trace).all()

    def test_positions_are_independent_heads(self):
        rng = np.random.default_rng(6)
        arrays = _rand_head(rng, 5, 6, 3, 4)
        head = HeadParams.from_dict({k: v.copy() for k, v in arrays.items()})
        x = rng.standard_normal(6)
        base = head_logits(head, x)
        head.out_b[1] += 2.5
        bumped = head_logits(head, x)
        assert np.array_equal(bumped[0], base[0])
        assert np.array_equal(bumped[2], base[2])
        assert not np.array_equal(bumped[1], base[1])


def _all_ones_weight_file(corpus, w_min=1.0, w_max=1.0, score=0.5):
    """Every augment scored ``score``; with w_min = w_max = 1 it weighs 1."""
    cfg = WeightMapConfig(w_min=w_min, w_max=w_max)
    order = np.argsort(corpus.ids)
    augmented = corpus.augmented[order]
    return WeightFile(w_min=w_min, w_max=w_max, gamma=1.0, qa_checksum="0" * 64,
                      corpus_checksum=corpus_checksum(corpus),
                      created_at="1970-01-01T00:00:00Z", ids=corpus.ids[order],
                      scores=np.full(len(corpus), score),
                      weights=np.where(augmented, map_weight(score, cfg), 1.0),
                      augmented=augmented)


def _take(wf, rows):
    """The weight file holding only the entries at ``rows``, in that order."""
    return dataclasses.replace(wf, ids=wf.ids[rows], scores=wf.scores[rows],
                               weights=wf.weights[rows], augmented=wf.augmented[rows])


class TestTrainStage1:
    def _corpus(self, n=40, seed=11, d=12, d_t=18):
        return generate_corpus(n, 1, CLEAN, seed=seed, d=d, d_t=d_t)

    def test_deterministic_given_seed(self):
        corpus = self._corpus()
        cfg = HeadConfig(steps=20)
        a = train_stage1(corpus, None, cfg, 3)
        b = train_stage1(corpus, None, cfg, 3)
        assert a.loss_trace == b.loss_trace
        assert "".join(head_snapshot_chunks(a.head, 12, 18)) == \
            "".join(head_snapshot_chunks(b.head, 12, 18))

    def test_seed_changes_run(self):
        corpus = self._corpus()
        a = train_stage1(corpus, None, HeadConfig(steps=20), 3)
        b = train_stage1(corpus, None, HeadConfig(steps=20), 4)
        assert a.loss_trace != b.loss_trace

    def test_uniform_equals_all_ones_weight_file(self):
        corpus = self._corpus()
        cfg = HeadConfig(steps=25)
        uniform = train_stage1(corpus, None, cfg, 7)
        ones = train_stage1(corpus, _all_ones_weight_file(corpus), cfg, 7)
        assert uniform.loss_trace == ones.loss_trace
        for k, v in uniform.head.to_dict().items():
            assert np.array_equal(v, ones.head.to_dict()[k])
        assert uniform.weight_mode == "uniform"
        assert ones.weight_mode == "weighted"

    def test_weights_change_training(self):
        corpus = self._corpus()
        cfg = HeadConfig(steps=25)
        wf = _all_ones_weight_file(corpus, w_min=0.1, w_max=1.5, score=1e-9)
        assert set(wf.weights.tolist()) == {1.0, map_weight(1e-9, WeightMapConfig())}
        down = train_stage1(corpus, wf, cfg, 7)
        uniform = train_stage1(corpus, None, cfg, 7)
        assert down.loss_trace != uniform.loss_trace

    def test_batch_selection_ignores_weights(self):
        # same seed, different weights: the loss differs but the order of
        # first-step batch losses under weight scaling stays proportional
        corpus = self._corpus()
        cfg = HeadConfig(steps=1)
        wf = _all_ones_weight_file(corpus)
        doubled = dataclasses.replace(wf, weights=np.ones(len(wf.ids)))
        # halve Originals is illegal (must be 1), so scale augmented only
        run_a = train_stage1(corpus, wf, cfg, 9)
        run_b = train_stage1(corpus, doubled, cfg, 9)
        assert run_a.loss_trace == run_b.loss_trace

    def test_wrong_corpus_checksum_rejected(self):
        corpus = self._corpus()
        other = self._corpus(seed=99)
        wf = _all_ones_weight_file(other)
        with pytest.raises(ChecksumError,
                           match="exported for a different corpus"):
            train_stage1(corpus, wf, HeadConfig(steps=1), 0)

    def test_missing_weight_for_pool_member(self):
        corpus = self._corpus()
        wf = _all_ones_weight_file(corpus)
        dropped = _take(wf, slice(1, None))
        with pytest.raises(ValidationError,
                           match=f"no weight for sample {wf.ids[0]}"):
            train_stage1(corpus, dropped, HeadConfig(steps=1), 0)
        with pytest.raises(ValidationError,
                           match=f"no weight for sample {corpus.ids[0]}"):
            train_stage1(corpus, _take(wf, slice(0, 0)), HeadConfig(steps=1), 0)

    def test_sample_listed_twice_rejected(self):
        corpus = self._corpus()
        wf = _all_ones_weight_file(corpus)
        k = int(np.flatnonzero(wf.augmented)[0])
        twice = _take(wf, np.append(np.arange(len(wf.ids)), k))
        with pytest.raises(ValidationError,
                           match=f"^weight file lists {wf.ids[k]} twice$"):
            train_stage1(corpus, twice, HeadConfig(steps=1), 0)

    @pytest.mark.parametrize("bad", (-5.0, 1e300, float("nan")))
    def test_bad_augment_weight_rejected_before_training(self, bad):
        corpus = self._corpus()
        wf = _all_ones_weight_file(corpus)
        k = int(np.flatnonzero(wf.augmented)[0])
        weights = wf.weights.copy()
        weights[k] = bad
        with pytest.raises(ValidationError, match=wf.ids[k]):
            train_stage1(corpus, dataclasses.replace(wf, weights=weights),
                         HeadConfig(steps=1), 0)

    def test_empty_pool_rejected(self):
        corpus = self._corpus()
        with pytest.raises(ValidationError, match="training pool is empty"):
            train_stage1(corpus, None, HeadConfig(steps=1), 0, rows=[])

    def test_pool_restriction_trains_on_subset_only(self):
        corpus = self._corpus()
        rows = np.flatnonzero(~corpus.augmented)[:10]
        run = train_stage1(corpus, None, HeadConfig(steps=5), 2, rows=rows)
        np.testing.assert_array_equal(run.rows, rows)
        full = train_stage1(corpus, None, HeadConfig(steps=5), 2)
        assert run.loss_trace != full.loss_trace

    def test_memory_holds_no_copy_of_the_pool(self):
        """Each step gathers its batch from the corpus: a pool three times
        the size costs its row indices, weights and targets, not a copy of
        its features (1,792 bytes a row at these widths)."""
        corpus = generate_corpus(675, 1, CLEAN, seed=13, d=64, d_t=96)   # 1,350 rows
        wf = _all_ones_weight_file(corpus)

        def traced_peak(rows):
            tracemalloc.start()
            try:
                train_stage1(corpus, wf, HeadConfig(steps=3), 0, rows=rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        small, big = np.arange(450), np.arange(1350)
        assert traced_peak(big) <= traced_peak(small) + 256 * (big.size - small.size)

    def test_learns_polarity_on_clean_data(self):
        corpus = generate_corpus(80, 0, CLEAN, seed=21, d=16, d_t=24)
        run = train_stage1(corpus, None, HeadConfig(steps=300), 5)
        early = float(np.mean(run.loss_trace[:10]))
        late = float(np.mean(run.loss_trace[-10:]))
        assert late < early * 0.5
        rows = np.flatnonzero(~corpus.augmented)
        preds = predict_all(run.head, corpus, rows)
        assert acc_k(preds, corpus.sentiment[rows], 2) >= 0.95

    def test_zero_steps_returns_init(self):
        corpus = self._corpus()
        cfg = HeadConfig(steps=0)
        run = train_stage1(corpus, None, cfg, 5)
        want = init_head(corpus, cfg, derived_rng(5, "stage1", "init"))
        for k, v in run.head.to_dict().items():
            assert np.array_equal(v, want.to_dict()[k])
        assert run.loss_trace == []

    def test_head_positions_follow_the_targets(self):
        """The head has one output position per corpus target token, so no
        width can be configured that the targets do not fit."""
        corpus = self._corpus()
        for width in (4, 2):
            narrow = dataclasses.replace(corpus, targets=corpus.targets[:, :width])
            head = train_stage1(narrow, None, HeadConfig(steps=2), 0).head
            assert head.out_w.shape[:2] == head.out_b.shape == (width, 8)

    def test_config_validated(self):
        corpus = self._corpus()
        with pytest.raises(ValidationError):
            train_stage1(corpus, None, HeadConfig(steps=-1), 0)
        with pytest.raises(ValidationError):
            train_stage1(corpus, None, HeadConfig(lr=0.0), 0)


class TestPredict:
    def test_tie_breaks_to_lowest_token(self):
        head = HeadParams(in_w=np.zeros((3, 14)), in_b=np.zeros(3),
                          out_w=np.zeros((4, 8, 3)), out_b=np.zeros((4, 8)))
        corpus = generate_corpus(4, 0, CLEAN, seed=1, d=4, d_t=6)
        assert predict_tokens(head, samples_of(corpus)[0], 4) == (0, 0, 0, 0)
        want = decode(corpus.header.verbal, (0, 0, 0, 0))
        assert predict_all(head, corpus, [0, 1]).tolist() == [want, want]

    def test_batched_tokens_equal_per_sample_path(self):
        corpus = generate_corpus(60, 2, CorruptionProfile(p_swap=0.3), seed=8,
                                 d=12, d_t=18)
        run = train_stage1(corpus, None, HeadConfig(steps=100), 1)
        samples = samples_of(corpus)
        verbal = corpus.header.verbal
        want = [decode(verbal, predict_tokens(run.head, s, 12)) for s in samples]
        rows = np.arange(len(corpus))
        assert predict_all(run.head, corpus, rows).tolist() == want

    def test_decode_round_trip_on_trained_head(self):
        corpus = generate_corpus(30, 0, CLEAN, seed=8, d=12, d_t=18)
        run = train_stage1(corpus, None, HeadConfig(steps=200), 1)
        val = run.head  # smoke: decoded prediction stays in label range
        pred = predict_all(val, corpus, [0])[0]
        assert -1.0 <= pred <= 1.0


class TestHeadPersistence:
    def test_snapshot_round_trip(self, tmp_path):
        corpus = generate_corpus(10, 0, CLEAN, seed=2, d=8, d_t=10)
        run = train_stage1(corpus, None, HeadConfig(steps=5), 2)
        path = tmp_path / "head.json"
        save_head_snapshot(run.head, 8, 10, path)
        loaded, d, d_t = load_head_snapshot(path)
        assert (d, d_t) == (8, 10)
        for k, v in run.head.to_dict().items():
            assert np.array_equal(v, loaded.to_dict()[k])
        assert "".join(head_snapshot_chunks(loaded, d, d_t)).encode() == path.read_bytes()

    def test_save_streams_the_blocks(self, tmp_path):
        """At the criterion-5 widths (hidden 256 over a 448-wide input, 123,168
        parameters) the snapshot's text is 1.3 MB; saving holds a few
        pieces of it at a time, never the whole."""
        corpus = generate_corpus(2, 0, CLEAN, seed=0, d=128, d_t=192)
        head = init_head(corpus, HeadConfig(hidden=256), np.random.default_rng(0))
        path = tmp_path / "head.json"
        tracemalloc.start()
        try:
            save_head_snapshot(head, 128, 192, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 1_300_000
        assert peak < 256 * 1024
        loaded, *_ = load_head_snapshot(path)
        assert all(np.array_equal(v, loaded.to_dict()[k])
                   for k, v in head.to_dict().items())

    def test_foreign_document_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind":"qa_snapshot"}')
        with pytest.raises(ValidationError, match="not a head snapshot"):
            load_head_snapshot(path)

    def test_dim_disagreement_rejected(self, tmp_path):
        corpus = generate_corpus(10, 0, CLEAN, seed=2, d=8, d_t=10)
        run = train_stage1(corpus, None, HeadConfig(steps=1), 2)
        path = tmp_path / "head.json"
        save_head_snapshot(run.head, 8, 10, path)
        doc = json.loads(path.read_text())
        doc["d"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="disagree with recorded dims"):
            load_head_snapshot(path)

    def test_run_log_jsonl(self, tmp_path):
        trace = [1.5, 0.9, 0.4]
        path = tmp_path / "run.jsonl"
        write_run_log(trace, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"step": 0, "loss": 1.5}, {"step": 1, "loss": 0.9},
                        {"step": 2, "loss": 0.4}]


class TestHeadInput:
    def test_layout_and_missing_audio(self):
        generated = generate_corpus(10, 0, CLEAN, seed=3, d=6, d_t=9)
        samples = samples_of(generated)
        samples[1] = dataclasses.replace(samples[1], h_a=None)
        corpus = corpus_from_samples(generated.header, samples)
        X = _head_matrix(corpus.features, [0, 1, 2])
        assert X.shape == (3, 21)
        with_audio = samples[0]
        assert np.array_equal(X[0, :6], with_audio.h_v)
        assert np.array_equal(X[0, 6:12], with_audio.h_a)
        assert np.array_equal(X[0, 12:], with_audio.h_t_raw)
        assert np.array_equal(X[1, 6:12], np.zeros(6))
        for row, s in enumerate(samples[:3]):
            assert np.array_equal(X[row], head_input(s, 6))
