"""Quality-scorer tests: assembly, forward/backward, training, weight export."""

import ctypes
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from augqual import qa
from augqual.corpus import (
    CorruptionProfile,
    corpus_checksum,
    generate_corpus,
    load_corpus,
    train_eval_split,
)
from augqual.finetune import load_head_snapshot
from augqual.forge import forge_batch
from augqual.metrics import roc_auc
from augqual.numerics import bce_with_logit, init_adam, one_blas_thread
from augqual.qa import (
    QaConfig,
    QaParams,
    WeightMapConfig,
    _polarity_sums,
    export_weights,
    init_qa_params,
    load_qa_snapshot,
    load_weight_file,
    map_weight,
    qa_checksum,
    qa_loss_and_grads,
    qa_snapshot_chunks,
    sample_weight,
    save_qa_snapshot,
    score_corpus,
    train_stage0,
    verify_weight_file,
)
from augqual.util import ChecksumError, ValidationError, derived_rng
from forge_reference import family_items, forge_items, forged_batch_from_items
from oracles import (
    Sample,
    assemble_input,
    empty_grads,
    feature_checksum,
    finite_diff_grad,
    flatten_arrays,
    polarity_sums_add_at,
    qa_logit,
    qa_loss,
    ref_qa_loss_and_grads,
    rows_of,
    samples_of,
    score_one_pass,
    unflatten_arrays,
    weight_doc,
    weight_file,
)

PROFILE = CorruptionProfile(sigma_benign=0.05, p_swap=0.15, p_degrade=0.15,
                            degrade_mask_rate=0.5, p_label_noise=0.15)

# OPENBLAS_CORETYPE value -> the core name the library reports once it loads it
KERNEL_CORES = {"SkylakeX": "SkylakeX", "Haswell": "Haswell",
                "SandyBridge": "Sandybridge", "Nehalem": "Nehalem",
                "Prescott": "Katmai"}


def _sample(idx, sentiment, d, d_t, audio=True):
    rng = np.random.default_rng(5000 + idx)
    return Sample(
        id=f"q{idx}", h_v=rng.standard_normal(d),
        h_a=rng.standard_normal(d) if audio else None,
        h_t_raw=rng.standard_normal(d_t),
        polarity=1 if sentiment >= 0 else 0, sentiment=sentiment)


def _params(d, d_t, hidden, seed=0, trained_shape=True):
    p = init_qa_params(d, d_t, hidden, derived_rng(seed, "test-params"))
    if trained_shape:
        # give the zero-initialized output layer some spread so logits vary
        rng = derived_rng(seed, "test-params", "out")
        p.out_w = rng.standard_normal(hidden) / np.sqrt(hidden)
        p.out_b = rng.standard_normal(1)
    return p


class TestAssemble:
    def test_layout_and_missing_audio(self):
        d, d_t = 6, 4
        params = _params(d, d_t, 5)
        s = _sample(0, 0.4, d, d_t, audio=False)
        x = assemble_input(s, params)
        assert x.shape == (4 * d,)
        np.testing.assert_array_equal(x[:d], s.h_v)
        np.testing.assert_array_equal(x[d:2 * d], np.zeros(d))
        np.testing.assert_array_equal(
            x[2 * d:3 * d], params.text_proj_w @ s.h_t_raw + params.text_proj_b)
        np.testing.assert_array_equal(x[3 * d:], params.polarity_emb[1])

    def test_zero_projection_blanks_text_slot(self):
        d, d_t = 6, 4
        params = _params(d, d_t, 5)
        params.text_proj_w = np.zeros((d, d_t))
        params.text_proj_b = np.zeros(d)
        x = assemble_input(_sample(1, -0.4, d, d_t), params)
        np.testing.assert_array_equal(x[2 * d:3 * d], np.zeros(d))

    def test_polarity_changes_only_last_block(self):
        d, d_t = 6, 4
        params = _params(d, d_t, 5)
        s = _sample(2, 0.4, d, d_t)
        flipped = Sample(id=s.id, h_v=s.h_v, h_a=s.h_a,
                         h_t_raw=s.h_t_raw, polarity=0,
                         sentiment=s.sentiment)
        xa, xb = assemble_input(s, params), assemble_input(flipped, params)
        np.testing.assert_array_equal(xa[:3 * d], xb[:3 * d])
        assert not np.array_equal(xa[3 * d:], xb[3 * d:])

    def test_dim_mismatch(self):
        params = _params(6, 4, 5)
        with pytest.raises(ValidationError, match="dim mismatch"):
            assemble_input(_sample(3, 0.4, 7, 4), params)


class TestLogit:
    def test_zero_hidden_layer_passes_bias_through(self):
        d, d_t, h = 6, 4, 5
        params = _params(d, d_t, h)
        params.hidden_w = np.zeros((h, 4 * d))
        params.hidden_b = np.zeros(h)
        params.out_b = np.array([2.5])
        x = assemble_input(_sample(4, 0.4, d, d_t), params)
        assert qa_logit(x, params) == pytest.approx(2.5, abs=1e-15)

    def test_rescaling_layers_is_not_an_invariance(self):
        d, d_t, h = 6, 4, 5
        params = _params(d, d_t, h)
        x = assemble_input(_sample(5, 0.4, d, d_t), params)
        before = qa_logit(x, params)
        params.out_w = params.out_w * 2.0
        params.hidden_w = params.hidden_w / 2.0
        params.hidden_b = params.hidden_b / 2.0
        assert qa_logit(x, params) != pytest.approx(before, abs=1e-9)

    def test_wrong_width_rejected(self):
        params = _params(6, 4, 5)
        with pytest.raises(ValidationError):
            qa_logit(np.zeros(10), params)


def _brute_loss(items, params, alpha):
    """Independent reimplementation: pure python loops and math functions."""
    fams = {}
    d, d_t, width = params.d, params.d_t, params.hidden
    for it in items:
        ha = it.h_a if it.h_a is not None else np.zeros(d)
        ht = [sum(params.text_proj_w[r][c] * it.h_t_raw[c] for c in range(d_t))
              + params.text_proj_b[r] for r in range(d)]
        x = list(it.h_v) + list(ha) + ht + list(params.polarity_emb[it.polarity])
        pre = [sum(params.hidden_w[r][c] * x[c] for c in range(4 * d))
               + params.hidden_b[r] for r in range(width)]
        act = [0.5 * z * (1.0 + math.erf(z / math.sqrt(2.0))) for z in pre]
        logit = sum(params.out_w[r] * act[r] for r in range(width)) + params.out_b[0]
        bce = max(logit, 0.0) - logit * it.label + math.log1p(math.exp(-abs(logit)))
        fams.setdefault(it.family, []).append(bce)
    weight = dict(zip(("pos", "mix", "mask", "flip"), alpha))
    norm = sum(weight[f] for f in fams)
    return sum(weight[f] * (sum(v) / len(v)) for f, v in fams.items()) / norm


def _forge(batch, d, rng):
    """The library's forged batch plus its rows as per-sample items by family."""
    fb = forge_batch(rows_of(batch, d, batch[0].h_t_raw.shape[0]),
                     np.arange(len(batch)), rng, QaConfig().rho)
    return fb, family_items(fb, batch)


def _all_items(groups):
    return [it for items in groups.values() for it in items]


class TestQaLoss:
    def _forged(self, seed, n=5, d=4, d_t=3):
        sents = [0.8, -0.6, 0.3, -0.9, 0.5, -0.2, 0.7][:n]
        batch = [_sample(100 + seed * 10 + i, y, d, d_t) for i, y in enumerate(sents)]
        return _forge(batch, d, derived_rng(seed, "loss-test"))

    def test_equal_alpha_is_mean_of_family_means(self):
        d, d_t = 4, 3
        params = _params(d, d_t, 4, seed=1)
        fb, groups = self._forged(0, d=d, d_t=d_t)
        fam_means = []
        for fam, items in groups.items():
            vals = [bce_with_logit(qa_logit(assemble_input(i, params), params),
                                   float(i.label)) for i in items]
            fam_means.append(np.mean(vals))
        got = qa_loss(fb, params, (1.0, 1.0, 1.0, 1.0))
        assert got == pytest.approx(np.mean(fam_means), abs=1e-12)

    def test_single_alpha_selects_one_family(self):
        d, d_t = 4, 3
        params = _params(d, d_t, 4, seed=2)
        fb, groups = self._forged(1, d=d, d_t=d_t)
        pos = groups["pos"]
        expect = np.mean([bce_with_logit(qa_logit(assemble_input(i, params), params),
                                         1.0) for i in pos])
        got = qa_loss(fb, params, (1.0, 0.0, 0.0, 0.0))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_brute_force(self):
        for seed in range(30):
            d, d_t = 4, 3
            params = _params(d, d_t, 4, seed=seed)
            alpha_rng = derived_rng(seed, "alpha")
            alpha = tuple(alpha_rng.uniform(0.1, 2.0, size=4))
            fb, groups = self._forged(seed, n=4, d=d, d_t=d_t)
            got = qa_loss(fb, params, alpha)
            want = _brute_loss(_all_items(groups), params, alpha)
            assert got == pytest.approx(want, abs=1e-12)

    def test_empty_family_drops_out_of_normalizer(self):
        d, d_t = 4, 3
        params = _params(d, d_t, 4, seed=3)
        single_pol = [_sample(200 + i, y, d, d_t) for i, y in enumerate((0.2, 0.8))]
        fb, groups = _forge(single_pol, d, derived_rng(3, "loss-test"))
        assert groups["mix"] == []
        got = qa_loss(fb, params, (1.0, 5.0, 1.0, 1.0))
        want = _brute_loss(_all_items(groups), params, (1.0, 5.0, 1.0, 1.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_all_empty_errors(self):
        params = _params(4, 3, 4)
        with pytest.raises(ValidationError, match="every family is empty"):
            qa_loss(forged_batch_from_items([], 4, 3), params,
                    (1.0, 1.0, 1.0, 1.0))

    def test_zero_weight_on_every_present_family_errors(self):
        d, d_t = 4, 3
        params = _params(d, d_t, 4)
        fb, _ = self._forged(4, d=d, d_t=d_t)
        with pytest.raises(ValidationError, match="no weighted family"):
            qa_loss(fb, params, (0.0, 0.0, 0.0, 0.0))


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        worst = 0.0
        for seed in range(12):
            d, d_t, h = 5, 4, 3
            params = _params(d, d_t, h, seed=seed)
            sents = [0.7, -0.5, 0.2, -0.8]
            batch = [_sample(300 + seed * 10 + i, y, d, d_t, audio=(i % 2 == 0))
                     for i, y in enumerate(sents)]
            fb, _ = _forge(batch, d, derived_rng(seed, "grad-test"))
            alpha = (1.0, 0.7, 1.3, 0.5)
            grads = empty_grads(params.to_dict())
            qa_loss_and_grads(fb, params, alpha, grads)
            vec, layout = flatten_arrays(params.to_dict())

            def f(v, _fb=fb, _layout=layout, _alpha=alpha):
                return qa_loss(_fb, QaParams.from_dict(unflatten_arrays(v, _layout)),
                               _alpha)

            fd = finite_diff_grad(f, vec)
            an, _ = flatten_arrays(grads)
            rel = np.abs(an - fd) / np.maximum.reduce(
                [np.abs(an), np.abs(fd), np.full_like(an, 1e-6)])
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_polarity_sums_match_add_at_bitwise(self):
        """The embedding gradient's two row sums equal np.add.at's bits:
        -0.0 rows, magnitudes that cancel or overflow, one polarity only."""
        pick = np.random.default_rng(41)
        for trial in range(600):
            n, k = int(pick.integers(1, 100)), int(pick.integers(1, 40))
            # a column slice, like the gradient block the scorer sums
            wide = pick.standard_normal((n, k + 3)) * 10.0 ** pick.integers(
                -300, 308, size=(n, 1))
            wide[pick.random(n) < 0.2] = -0.0
            rows = wide[:, 3:]
            P = pick.integers(0, 2, n).astype(np.intp)
            if trial % 3:
                P[:] = trial % 3 - 1            # all 0, or all 1
            got = _polarity_sums(rows, P, np.full((2, k), np.nan))
            want = polarity_sums_add_at(rows, P)
            assert got.shape == want.shape == (2, k)
            assert got.tobytes() == want.tobytes(), trial

    def test_loss_value_agrees_with_grad_entry_point(self):
        d, d_t = 4, 3
        params = _params(d, d_t, 4, seed=9)
        batch = [_sample(400 + i, y, d, d_t) for i, y in enumerate((0.5, -0.5))]
        fb, _ = _forge(batch, d, derived_rng(9, "grad-test"))
        a = qa_loss(fb, params, (1, 1, 1, 1))
        b = qa_loss_and_grads(fb, params, (1, 1, 1, 1), empty_grads(params.to_dict()))
        assert a == b

    @pytest.mark.parametrize("d, d_t, hidden", [(64, 96, 64), (5, 4, 3)],
                             ids=["default widths", "narrow"])
    def test_grads_written_into_adam_buffer_match_reference(self, d, d_t, hidden):
        check_grads_against_reference(d, d_t, hidden)

    @pytest.mark.parametrize("kernel, core", KERNEL_CORES.items(),
                             ids=list(KERNEL_CORES))
    def test_trimmed_input_gradient_under_each_kernel(self, kernel, core):
        """The default-widths check above, in a process whose OpenBLAS runs
        the named kernel: the trimmed input gradient must equal the full
        product's columns under each, not only the host's own."""
        src = Path(qa.__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
               "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(src)])}
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import test_qa; test_qa.check_under_core({core!r}, 64, 96, 64)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.strip()
        if loaded != core:
            pytest.skip(f"OPENBLAS_CORETYPE={kernel}: the library reports core "
                        f"{loaded}, not {core}, on this host; nothing checked")


def check_grads_against_reference(d, d_t, hidden):
    """Every gradient lands in its view of Adam's gradient vector, bit for
    bit the reference's fresh arrays, with the step's work arrays allocated
    for the batch and with a taller, NaN-filled work used from its first
    rows, over seeded batches; the (n, 2d) input-gradient work array holds
    exactly the text and polarity columns of the reference's full (n, 4d)
    product. The last two batches hold one polarity, so their mix family is
    empty, and the last has an odd row count."""
    corpus = generate_corpus(40, 1, PROFILE, seed=70, d=d, d_t=d_t)
    positives = np.flatnonzero(corpus.features.P)
    negatives = np.flatnonzero(corpus.features.P == 0)
    batches = [derived_rng(70, "batch", i).choice(len(corpus), 16, replace=False)
               for i in range(4)] + [positives[:8], negatives[:7]]
    alpha = (3.0, 2.0, 2.0, 1.0)
    for i, idx in enumerate(batches):
        params = _params(d, d_t, hidden, seed=i)
        fb = forge_batch(corpus.features, idx, derived_rng(70, "forge", i),
                         QaConfig().rho)
        assert (fb.sizes[1] == 0) == (i >= 4)
        want_loss, want, want_g_x = ref_qa_loss_and_grads(fb, params, alpha)
        n = fb.labels.shape[0]
        assert n % 2 == (i == len(batches) - 1)
        tall = qa._StepWork(n + 3, d, hidden)
        for arr in vars(tall).values():
            arr[...] = np.nan
        for work in (None, tall):
            state = init_adam(params.to_dict(), lr=1e-3)
            state.grad[:] = np.nan             # every entry must be written
            loss = qa_loss_and_grads(fb, params, alpha, state.grad_views, work)
            assert loss == want_loss
            assert not np.isnan(state.grad).any()   # adam_step reuses it
            for k, g in state.grad_views.items():
                assert np.shares_memory(g, state.grad)
                assert g.tobytes() == want[k].tobytes(), (i, k)
            if work is not None:
                assert work.g_x[:n].tobytes() == want_g_x[:, 2 * d:].tobytes(), i


def _loaded_core():
    """The name of the core the OpenBLAS in numpy.libs loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_",
                           None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def check_under_core(core, d, d_t, hidden):
    """Print the loaded core's name; run the reference check only when it is
    ``core``. Runs in the subprocess of the kernel sweep."""
    loaded = _loaded_core()
    print(loaded)
    if loaded == core:
        check_grads_against_reference(d, d_t, hidden)


class TestTrainStage0:
    def _corpus(self, n=80, d=12, d_t=16, seed=101, profile=PROFILE, m=2):
        return generate_corpus(n, m, profile, seed=seed, d=d, d_t=d_t)

    def test_zero_steps_returns_init(self):
        c = self._corpus()
        cfg = QaConfig(steps=0, hidden=8)
        params, trace = train_stage0(c, cfg, 5)
        want = init_qa_params(c.header.d, c.header.d_t, 8,
                              derived_rng(5, "stage0", "init"))
        for k, arr in params.to_dict().items():
            np.testing.assert_array_equal(arr, want.to_dict()[k])
        assert trace == []

    def test_same_seed_bit_identical(self):
        c = self._corpus()
        cfg = QaConfig(steps=30, hidden=8)
        p1, t1 = train_stage0(c, cfg, 6)
        p2, t2 = train_stage0(c, cfg, 6)
        assert t1 == t2
        for k in p1.to_dict():
            np.testing.assert_array_equal(p1.to_dict()[k], p2.to_dict()[k])

    def test_corpus_features_untouched(self):
        c = self._corpus()
        before = feature_checksum(c)
        train_stage0(c, QaConfig(steps=25, hidden=8), 7)
        assert feature_checksum(c) == before

    def test_memory_flat_in_steps_and_pool(self):
        """Each step forges its batch from the corpus into work arrays it
        reuses: more steps cost only their losses, a pool three times the
        size only its row indices, not a copy of its features (1,792 bytes
        a row at these widths)."""
        corpus = generate_corpus(1350, 0, PROFILE, seed=62)

        def traced_peak(steps, n_rows):
            tracemalloc.start()
            try:
                train_stage0(corpus, QaConfig(steps=steps), 0, rows=np.arange(n_rows))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        base = traced_peak(4, 450)
        assert traced_peak(40, 450) <= base + 64 * 36
        assert traced_peak(4, 1350) <= base + 64 * 900

    def test_loss_decreases(self):
        c = self._corpus()
        _, trace = train_stage0(c, QaConfig(steps=120, hidden=16), 8)
        assert np.mean(trace[-20:]) < 0.5 * np.mean(trace[:20])

    def test_heldout_auc_clean_vs_forged(self):
        c = self._corpus(n=400, d=64, d_t=96, seed=202)
        split = train_eval_split(c, eval_fraction=0.25)
        params, _ = train_stage0(c, QaConfig(), 9,
                                 rows=split.train_originals)
        samples = samples_of(c)
        held = [samples[i] for i in split.eval_originals]
        scores, labels = [], []
        # a few forge rounds keep the AUC estimate stable
        for r in range(3):
            forged = forge_items(held, c.header.d,
                                 derived_rng(99, "auc-negatives", r))
            for it in forged:
                x = assemble_input(it, params)
                scores.append(1.0 / (1.0 + math.exp(-qa_logit(x, params))))
                labels.append(it.label)
        assert roc_auc(scores, labels) >= 0.95

    def test_train_ids_restriction_changes_result(self):
        c = self._corpus()
        half = np.flatnonzero(~c.augmented)[:40]
        cfg = QaConfig(steps=20, hidden=8)
        full, _ = train_stage0(c, cfg, 10)
        sub, _ = train_stage0(c, cfg, 10, rows=half)
        assert any(not np.array_equal(full.to_dict()[k], sub.to_dict()[k])
                   for k in full.to_dict())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            QaConfig(alpha=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            QaConfig(alpha=(-1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            QaConfig(batch_size=1)
        with pytest.raises(ValidationError):
            QaConfig(rho=1.2)


class TestScoreCorpus:
    def test_fresh_init_scores_half_everywhere(self):
        c = generate_corpus(6, 1, PROFILE, seed=55, d=8, d_t=8)
        params = init_qa_params(8, 8, 4, derived_rng(0, "init"))
        scores = score_corpus(c, params)
        assert scores.shape == (len(c),)
        assert all(v == 0.5 for v in scores)

    def test_purity_duplicate_features_same_score(self):
        c = generate_corpus(6, 1, CorruptionProfile(sigma_benign=0.0),
                            seed=56, d=8, d_t=8)
        params, _ = train_stage0(c, QaConfig(steps=40, hidden=8), 11)
        scores = score_corpus(c, params)
        for a in np.flatnonzero(c.augmented):
            # clean-profile augments are bitwise copies of their parents
            assert scores[a] == scores[c.parent[a]]

    def test_scores_open_interval(self):
        c = generate_corpus(10, 2, PROFILE, seed=57, d=8, d_t=8)
        params, _ = train_stage0(c, QaConfig(steps=60, hidden=8), 12)
        assert all(0.0 < v < 1.0 for v in score_corpus(c, params))

    def test_dimension_guard(self):
        c = generate_corpus(4, 0, PROFILE, seed=58, d=8, d_t=8)
        params = init_qa_params(6, 8, 4, derived_rng(0, "init"))
        with pytest.raises(ValidationError, match="different dimensions"):
            score_corpus(c, params)


def _first_rows(corpus, n):
    """The corpus cut to its first n rows; every column a view."""
    cols = {f.name: getattr(corpus, f.name)[:n] for f in fields(corpus)
            if f.init and f.name != "header"}
    f = corpus.features
    return replace(corpus, V=f.V[:n], A=f.A[:n], T=f.T[:n], **cols)


def _drawn_scorer(d, d_t, seed):
    """A scorer whose biases and output layer are drawn too, so scores spread."""
    rng = derived_rng(seed, "window-test")
    params = init_qa_params(d, d_t, 64, rng)
    params.hidden_b[:] = rng.standard_normal(64)
    params.out_w[:] = rng.standard_normal(64) / 8
    params.out_b[:] = rng.standard_normal(1)
    return params


W = qa.SCORE_WINDOW
# Every height up to two windows and a tail, and heights of every n % 4
# around three windows.
WINDOW_HEIGHTS = [*range(1, 2 * W + 9), *range(3 * W - 1, 3 * W + 4)]


class TestScoreWindows:
    """score_corpus scores fixed-height windows; the result must not show it."""

    @pytest.mark.parametrize("blas", ["default threads", "one thread"])
    @pytest.mark.parametrize("d, d_t", [(64, 96), (128, 192)],
                             ids=["default widths", "trend widths"])
    def test_bitwise_equal_to_one_pass(self, d, d_t, blas):
        corpus = generate_corpus(W + 4, 2, PROFILE, seed=60, d=d, d_t=d_t)
        assert len(corpus) >= WINDOW_HEIGHTS[-1]      # 3 rows per original
        params = _drawn_scorer(d, d_t, seed=1)
        threads = one_blas_thread() if blas == "one thread" else nullcontext()
        differ = []
        with threads:
            for n in WINDOW_HEIGHTS:
                sub = _first_rows(corpus, n)
                if not np.array_equal(score_corpus(sub, params),
                                      score_one_pass(sub, params)):
                    differ.append(n)
        assert not differ, f"windowed scores differ from one pass at n = {differ}"

    def test_memory_bounded_by_the_window(self):
        big = generate_corpus(2000, 2, PROFILE, seed=61)      # 6,000 rows
        small = _first_rows(big, 1800)
        params = _drawn_scorer(big.header.d, big.header.d_t, seed=2)

        def traced_peak(corpus):
            tracemalloc.start()
            try:
                score_corpus(corpus, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the extra rows pay only for the logits and the sigmoid's result
        extra = 16 * (len(big) - len(small))
        assert traced_peak(big) <= traced_peak(small) + extra


class TestWeightMap:
    def test_frozen_default_example(self):
        assert map_weight(0.9, WeightMapConfig()) == pytest.approx(1.36, abs=1e-12)

    def test_limits(self):
        cfg = WeightMapConfig(w_min=0.2, w_max=1.8, gamma=2.0)
        assert map_weight(1e-12, cfg) == pytest.approx(0.2, abs=1e-9)
        assert map_weight(1.0 - 1e-12, cfg) == pytest.approx(1.8, abs=1e-9)

    def test_linear_midpoint(self):
        assert map_weight(0.5, WeightMapConfig(w_min=0.0, w_max=2.0, gamma=1.0)) == 1.0

    def test_monotone_and_bounded(self):
        rng = derived_rng(0, "map-test")
        for _ in range(200):
            w_min = rng.uniform(0.0, 1.0)
            w_max = w_min + rng.uniform(0.0, 2.0)
            gamma = rng.uniform(0.05, 5.0)
            cfg = WeightMapConfig(w_min=w_min, w_max=w_max, gamma=gamma)
            grid = np.sort(rng.uniform(1e-9, 1.0 - 1e-9, size=16))
            ws = [map_weight(float(s), cfg) for s in grid]
            assert all(a <= b + 1e-15 for a, b in zip(ws, ws[1:]))
            assert all(w_min - 1e-12 <= w <= w_max + 1e-12 for w in ws)

    def test_origin_rule(self):
        cfg = WeightMapConfig()
        assert sample_weight("Original", 0.123, cfg) == 1.0
        assert sample_weight("Augmented", 0.9, cfg) == pytest.approx(1.36)

    def test_config_and_score_validation(self):
        with pytest.raises(ValidationError):
            map_weight(0.5, WeightMapConfig(w_min=2.0, w_max=1.0))
        with pytest.raises(ValidationError):
            map_weight(0.5, WeightMapConfig(gamma=0.0))
        with pytest.raises(ValidationError):
            map_weight(0.0, WeightMapConfig())
        with pytest.raises(ValidationError):
            map_weight(1.0, WeightMapConfig())


class TestWeightFile:
    def _trained(self, n=12, m=2, profile=PROFILE, seed=60):
        c = generate_corpus(n, m, profile, seed=seed, d=8, d_t=8)
        params, _ = train_stage0(c, QaConfig(steps=40, hidden=8), 13)
        return c, params

    def test_all_original_corpus_all_weights_one(self):
        c = generate_corpus(8, 0, PROFILE, seed=61, d=8, d_t=8)
        params, _ = train_stage0(c, QaConfig(steps=10, hidden=8), 14)
        wf = export_weights(c, params, WeightMapConfig())
        assert len(wf.scores) == 8
        assert (verify_weight_file(wf, c) == 1.0).all()

    def test_written_in_pieces(self, tmp_path, monkeypatch):
        """The weight file is an array file written in two pieces, never
        joined: its padded header line, then the scores' own buffer, their
        float64 bytes in corpus row order."""
        c, params = self._trained()
        written, write_atomic = [], qa.write_atomic

        def recording(chunks, path):
            written.append(chunks)
            write_atomic(chunks, path)
        monkeypatch.setattr(qa, "write_atomic", recording)
        path = tmp_path / "w.bin"
        wf = export_weights(c, params, WeightMapConfig(), path)
        (line, body), = written
        assert np.shares_memory(np.frombuffer(body, np.float64), wf.scores)
        assert len(line) % 8 == 0 and line.endswith(b"\n")
        assert path.read_bytes() == line + score_corpus(c, params).astype("<f8").tobytes()
        assert weight_doc(path.read_bytes())["header"] == {
            "kind": "weight_file", "weight_map": {"w_min": 0.1, "w_max": 1.5, "gamma": 1.0},
            "qa_checksum": qa_checksum(params), "corpus_checksum": corpus_checksum(c),
            "rows": len(c)}

    def test_reexport_byte_identical(self, tmp_path):
        c, params = self._trained()
        p1, p2 = tmp_path / "w1.bin", tmp_path / "w2.bin"
        export_weights(c, params, WeightMapConfig(), p1)
        export_weights(c, params, WeightMapConfig(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        array_file_chunks = qa.array_file_chunks

        def failing(header, arrays):
            yield array_file_chunks(header, arrays)[0]
            raise ValidationError("cannot write the scores")
        monkeypatch.setattr(qa, "array_file_chunks", failing)
        c, params = self._trained()
        path = tmp_path / "w.bin"
        with pytest.raises(ValidationError, match="cannot write the scores"):
            export_weights(c, params, WeightMapConfig(), path)
        assert not path.exists()

    def test_entries_sorted_and_complete(self):
        """One score per corpus row, in row order: the scores ``score_corpus``
        gives the corpus, bit for bit."""
        c, params = self._trained()
        wf = export_weights(c, params, WeightMapConfig())
        assert wf.scores.shape == (len(c),)
        assert wf.scores.tobytes() == score_corpus(c, params).tobytes()

    def test_score_weight_rank_agreement(self):
        c, params = self._trained(n=20, m=3)
        wf = export_weights(c, params, WeightMapConfig(gamma=2.5))
        scores = score_corpus(c, params)[c.augmented]
        by_score = np.argsort(scores, kind="stable")
        by_weight = np.argsort(verify_weight_file(wf, c)[c.augmented], kind="stable")
        np.testing.assert_array_equal(by_score, by_weight)

    def test_round_trip(self, tmp_path):
        c, params = self._trained()
        path = tmp_path / "w.bin"
        wf = export_weights(c, params, WeightMapConfig(), path)
        back = load_weight_file(path)
        assert back.corpus_checksum == wf.corpus_checksum
        assert back.qa_checksum == qa_checksum(params)
        assert back.weight_map == wf.weight_map
        assert back.scores.tobytes() == wf.scores.tobytes()
        assert not back.scores.flags.writeable
        np.testing.assert_array_equal(verify_weight_file(back, c),
                                      verify_weight_file(wf, c))

    def test_verify_binds_to_corpus(self, tmp_path):
        c, params = self._trained()
        wf = export_weights(c, params, WeightMapConfig())
        verify_weight_file(wf, c)
        other = generate_corpus(12, 2, PROFILE, seed=62, d=8, d_t=8)
        with pytest.raises(ChecksumError,
                           match="exported for a different corpus"):
            verify_weight_file(wf, other)

    def test_binding_messages_name_the_first_fault_in_corpus_order(self, tmp_path):
        """A file is bound to its corpus by the checksum first, then by
        holding one score per corpus row: with another corpus's checksum it
        is refused for that, whatever its length; with this corpus's, one
        score short or long, or empty, it is refused naming both counts."""
        c, params = self._trained()
        path = tmp_path / "w.bin"
        export_weights(c, params, WeightMapConfig(), path)
        clean, n = weight_doc(path.read_bytes()), len(c)
        for k, scores in enumerate((clean["scores"][:-1], clean["scores"] + [0.5], [])):
            edited = tmp_path / f"w{k}.bin"
            edited.write_bytes(weight_file({"header": {**clean["header"],
                                                       "rows": len(scores)},
                                            "scores": scores}))
            wf = load_weight_file(edited)
            with pytest.raises(ValidationError, match=f"^weight file holds {len(scores)} "
                                                      f"scores, the corpus {n} rows$"):
                verify_weight_file(wf, c)
            with pytest.raises(ChecksumError, match="exported for a different corpus"):
                verify_weight_file(replace(wf, corpus_checksum="0" * 64), c)

    def _exported(self, tmp_path):
        """A weight file's path and its parts as ``oracles.weight_doc`` reads
        them, its corpus, and the row of the corpus's first augment."""
        c, params = self._trained()
        path = tmp_path / "w.bin"
        export_weights(c, params, WeightMapConfig(), path)
        return path, weight_doc(path.read_bytes()), c, int(np.flatnonzero(c.augmented)[0])

    def test_load_rejects_tampered_original_weight(self, tmp_path):
        """An original weighs 1 whatever its score, and the file holds no
        weight to tamper with: an original's score edited inside (0, 1)
        leaves its weight 1, and one edited to 1 is refused as any score is."""
        path, doc, c, _ = self._exported(tmp_path)
        assert not c.augmented[0]
        doc["scores"][0] = 0.7
        path.write_bytes(weight_file(doc))
        assert verify_weight_file(load_weight_file(path), c)[0] == 1.0
        doc["scores"][0] = 1.0
        path.write_bytes(weight_file(doc))
        with pytest.raises(ValidationError, match=r"^weight file gives row 0 score 1\.0, "):
            load_weight_file(path)

    @pytest.mark.parametrize("bad", (-5.0, 1e300, float("nan"), float("inf"),
                                     0.05, 1.6))
    def test_load_rejects_out_of_range_augment_weight(self, tmp_path, bad):
        """A weight is derived, never read, so the bytes an augment's weight
        could be written into are its score's: a value outside (0, 1) is
        refused, and one inside maps to a weight in [w_min, w_max]."""
        path, doc, c, k = self._exported(tmp_path)
        doc["scores"][k] = bad
        path.write_bytes(weight_file(doc))
        if 0.0 < bad < 1.0:
            weight = verify_weight_file(load_weight_file(path), c)[k]
            assert weight == map_weight(bad, WeightMapConfig()) and 0.1 <= weight <= 1.5
        else:
            with pytest.raises(ValidationError, match=f"^weight file gives row {k} score "):
                load_weight_file(path)

    def test_load_rejects_weight_edited_apart_from_its_score(self, tmp_path):
        """A weight cannot be edited apart from its score: a column of
        weights written after the scores makes the file longer than its
        header says and is refused, and an edited score moves its weight."""
        path, doc, c, k = self._exported(tmp_path)
        weights = verify_weight_file(load_weight_file(path), c)
        path.write_bytes(weight_file(doc) + weights.astype("<f8").tobytes())
        with pytest.raises(ValidationError, match=rf"^weight file holds \d+ bytes, not the "
                                                  rf"\d+-byte header plus {len(c)} "
                                                  rf"float64 scores$"):
            load_weight_file(path)
        doc["scores"][k] = 0.9
        path.write_bytes(weight_file(doc))
        assert verify_weight_file(load_weight_file(path), c)[k] == map_weight(
            0.9, WeightMapConfig())

    @pytest.mark.parametrize("where", ("metadata", "top level"))
    def test_load_rejects_unknown_key(self, tmp_path, where):
        """A key the header does not have, in its map (which the JSON
        format's metadata held) or beside it, is refused by name."""
        path, doc, _, _ = self._exported(tmp_path)
        if where == "metadata":
            doc["header"]["weight_map"]["bogus"] = 1
            message = "^unknown weight file header key: weight_map.bogus$"
        else:
            doc["header"]["extra"] = [1]
            message = "^unknown weight file header key: extra$"
        path.write_bytes(weight_file(doc))
        with pytest.raises(ValidationError, match=message):
            load_weight_file(path)

    @pytest.mark.parametrize("bad", (0.0, 1.0, -0.2, float("nan")))
    def test_load_rejects_augment_score_outside_open_interval(self, tmp_path, bad):
        path, doc, _, k = self._exported(tmp_path)
        doc["scores"][k] = bad
        path.write_bytes(weight_file(doc))
        with pytest.raises(ValidationError, match=re.escape(
                f"weight file gives row {k} score {bad!r}, outside (0, 1)")):
            load_weight_file(path)

    def test_load_rejects_non_finite_map_bounds(self, tmp_path):
        path, doc, _, _ = self._exported(tmp_path)
        doc["header"]["weight_map"]["w_max"] = float("inf")
        path.write_bytes(weight_file(doc))
        with pytest.raises(ValidationError, match=re.escape(
                "weight file header key weight_map.w_max must be a finite number")):
            load_weight_file(path)

    @pytest.mark.parametrize("case", ("duplicate id", "score 0", "score 1", "score nan",
                                      "w_max inf"))
    def test_bad_file_refused_in_memory_and_on_load(self, tmp_path, case):
        """A file built in memory and one loaded from disk are refused alike
        by the time they are bound to the corpus: a score outside (0, 1) when
        the file is built, a row listed twice (a score more than the corpus
        has rows) when it is bound, and an infinite map bound by the map's
        checks in memory and by the header's on load, each naming w_max."""
        c, params = self._trained()
        wf = export_weights(c, params, WeightMapConfig())
        scores, meta, k = wf.scores.tolist(), {"w_min": 0.1, "w_max": 1.5, "gamma": 1.0}, 3
        if case == "duplicate id":
            scores.insert(k + 1, scores[k])
            memory = load = f"^weight file holds {len(c) + 1} scores, the corpus {len(c)} rows$"
        elif case == "w_max inf":
            meta["w_max"] = float("inf")
            memory = re.escape("WeightMapConfig.w_max must be in [0, inf), got inf")
            load = re.escape("weight file header key weight_map.w_max must be a finite number")
        else:
            scores[k] = float(case.split()[1])
            memory = load = (f"^weight file gives row {k} score {scores[k]!r}, "
                             f"outside \\(0, 1\\)$")
        checksums = {"qa_checksum": wf.qa_checksum, "corpus_checksum": wf.corpus_checksum}
        with pytest.raises(ValidationError, match=memory):
            verify_weight_file(qa.WeightFile(weight_map=WeightMapConfig(**meta),
                                             scores=scores, **checksums), c)
        path = tmp_path / "w.bin"
        path.write_bytes(weight_file({"header": {"kind": "weight_file", "weight_map": meta,
                                                 **checksums, "rows": len(scores)},
                                      "scores": scores}))
        with pytest.raises(ValidationError, match=load):
            verify_weight_file(load_weight_file(path), c)

    def test_exported_extreme_scores_stay_loadable(self, tmp_path):
        # each derived weight is sample_weight of its score, bit for bit, at
        # the ends of the map too: numpy's vectorized power rounds some
        # scores differently at gamma != 1
        _, params = self._trained()
        c = generate_corpus(100, 3, PROFILE, seed=63, d=8, d_t=8)
        scores = score_corpus(c, params).tolist()
        origins = np.where(c.augmented, "Augmented", "Original").tolist()
        for gamma in (0.05, 1.0, 2.5, 20.0):
            path = tmp_path / f"w{gamma}.bin"
            cfg = WeightMapConfig(w_min=0.3, w_max=0.7, gamma=gamma)
            want = np.array([sample_weight(o, s, cfg) for o, s in zip(origins, scores)])
            for wf in (export_weights(c, params, cfg, path), load_weight_file(path)):
                assert verify_weight_file(wf, c).tobytes() == want.tobytes()


    @pytest.mark.parametrize("load, noun, header", [
        (load_weight_file, "weight", "weight file header"),
        (load_corpus, "corpus", "corpus header"),
        (load_qa_snapshot, "scorer snapshot", "scorer snapshot header"),
        (load_head_snapshot, "head snapshot", "head snapshot header")],
        ids=["weight file", "corpus", "scorer snapshot", "head snapshot"])
    def test_header_line_refusals_name_the_file(self, tmp_path, load, noun, header):
        """A weight file's header line is refused as the ``weight file
        header``, the name the header walker gives it; a corpus's and a
        snapshot's keep their names."""
        path = tmp_path / "f.bin"
        for data, message in ((b"", f"empty {noun} file: missing header$"),
                              (b'{"kind": 1', f"bad {header}: no newline ends the "
                                              f"header line$"),
                              (b"{x}    \n", f"bad {header}: Expecting property name")):
            path.write_bytes(data)
            with pytest.raises(ValidationError, match="^" + message):
                load(path)

class TestSnapshots:
    def test_round_trip(self, tmp_path):
        c = generate_corpus(6, 1, PROFILE, seed=70, d=8, d_t=12)
        params, _ = train_stage0(c, QaConfig(steps=15, hidden=8), 15)
        path = tmp_path / "qa.bin"
        save_qa_snapshot(params, c.header, path)
        back, header = load_qa_snapshot(path)
        assert header == c.header
        for k in params.to_dict():
            np.testing.assert_array_equal(back.to_dict()[k], params.to_dict()[k])
        assert qa_checksum(back) == qa_checksum(params)

    def test_serialization_deterministic(self):
        c = generate_corpus(4, 0, PROFILE, seed=71, d=8, d_t=8)
        params, _ = train_stage0(c, QaConfig(steps=5, hidden=4), 16)
        assert (b"".join(qa_snapshot_chunks(params, c.header))
                == b"".join(qa_snapshot_chunks(params, c.header)))

    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_text('{"kind": "other"}     \n')
        with pytest.raises(ValidationError, match="not a scorer snapshot"):
            load_qa_snapshot(path)
        path.write_text("{broken")
        with pytest.raises(ValidationError, match="bad scorer snapshot"):
            load_qa_snapshot(path)
