"""End-to-end acceptance checks for the qualification pipeline.

Ten numbered criteria, one test each. Every test records a single PASS/FAIL
verdict line (printed in the terminal summary by conftest) and then asserts,
so a full run always ends with one visible line per criterion.

Oracles here are deliberately independent: brute-force reference values are
computed in pure Python from the documented formulas, never by calling back
into the library's vectorized code paths.
"""

import hashlib
import math
import time

import numpy as np

from augqual.corpus import (
    DEFAULT_PROFILE,
    CorpusConfig,
    CorruptionProfile,
    SplitConfig,
    generate_corpus,
    train_eval_split,
)
from augqual.finetune import HeadConfig, train_stage1
from augqual.forge import FAMILIES
from augqual.metrics import (
    acc_k,
    compute_metrics,
    mae,
    pearson_corr,
    roc_auc,
)
from augqual.pipeline import PipelineConfig, run_pipeline
from augqual.qa import (
    QaConfig,
    QaParams,
    WeightMapConfig,
    export_weights,
    map_weight,
    qa_loss_and_grads,
    qa_snapshot_chunks,
    sample_weight,
    score_corpus,
    train_stage0,
)
from forge_reference import ForgedItem, forged_batch_from_items
from oracles import (
    corpus_file,
    empty_grads,
    feature_checksum,
    finite_diff_grad,
    flatten_arrays,
    head_loss_and_grads,
    per_sample_loss,
    qa_loss,
    unflatten_arrays,
    weighted_batch_loss,
)

# Corruption mix used by the trend and data-efficiency scenarios: 30% of
# augments corrupted (swap/drift/label-noise), the rest benign jitter.
_CORRUPT30 = CorruptionProfile(sigma_benign=0.05, p_swap=0.10, p_degrade=0.05,
                               degrade_mask_rate=0.5, p_label_noise=0.15)
# Benign-only profile: every augment is a near-copy of its parent.
_CLEAN = CorruptionProfile(sigma_benign=0.05, p_swap=0.0, p_degrade=0.0,
                           degrade_mask_rate=0.5, p_label_noise=0.0)


# ---------------------------------------------------------------------------
# Pure-python reference implementations (independent oracles)
# ---------------------------------------------------------------------------

def _brute_gelu(v: float) -> float:
    return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))


def _brute_bce(logit: float, label: float) -> float:
    return max(logit, 0.0) - logit * label + math.log1p(math.exp(-abs(logit)))


def _brute_scorer_loss(items, params: QaParams, alpha) -> float:
    """Family-weighted mean BCE, computed with python lists and math only."""
    w_t = params.text_proj_w.tolist()
    b_t = params.text_proj_b.tolist()
    emb = params.polarity_emb.tolist()
    hw = params.hidden_w.tolist()
    hb = params.hidden_b.tolist()
    ow = params.out_w.tolist()
    ob = float(params.out_b[0])
    fam_mean = {}
    for fam in FAMILIES:
        group = [it for it in items if it.family == fam]
        if not group:
            continue
        losses = []
        for it in group:
            t_raw = it.h_t_raw.tolist()
            proj = [sum(w_t[i][j] * t_raw[j] for j in range(len(t_raw))) + b_t[i]
                    for i in range(len(b_t))]
            x = it.h_v.tolist() + it.h_a.tolist() + proj + emb[it.polarity]
            act = [_brute_gelu(sum(hw[r][c] * x[c] for c in range(len(x))) + hb[r])
                   for r in range(len(hb))]
            logit = sum(ow[r] * act[r] for r in range(len(act))) + ob
            losses.append(_brute_bce(logit, float(it.label)))
        fam_mean[fam] = sum(losses) / len(losses)
    z = sum(alpha[FAMILIES.index(f)] for f in fam_mean)
    return sum(alpha[FAMILIES.index(f)] * fam_mean[f] for f in fam_mean) / z


def _brute_token_ce(logits_row, target: int) -> float:
    m = max(logits_row)
    lse = m + math.log(sum(math.exp(v - m) for v in logits_row))
    return lse - logits_row[target]


def _brute_sample_loss(logits, targets) -> float:
    per = [_brute_token_ce(logits[t].tolist(), int(targets[t]))
           for t in range(len(targets))]
    return sum(per) / len(per)


def _brute_bin(v: float, k: int) -> int:
    return min(int((v + 1.0) / 2.0 * k), k - 1)


def _brute_acc_k(pred, gold, k: int) -> float:
    hits = sum(1 for a, b in zip(pred, gold)
               if _brute_bin(a, k) == _brute_bin(b, k))
    return hits / len(pred)


def _brute_class_table(pred_cls, gold_cls):
    table = []
    for c in sorted(set(gold_cls)):
        tp = sum(1 for p, g in zip(pred_cls, gold_cls) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred_cls, gold_cls) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred_cls, gold_cls) if p != c and g == c)
        support = tp + fn
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / support
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        table.append((support, prec, rec, f1))
    total = sum(row[0] for row in table)
    return table, total


def _brute_weighted(pred_cls, gold_cls, col: int) -> float:
    table, total = _brute_class_table(pred_cls, gold_cls)
    return sum(row[0] * row[col] for row in table) / total


def _brute_mae(pred, gold) -> float:
    return sum(abs(a - b) for a, b in zip(pred, gold)) / len(pred)


def _brute_pearson(pred, gold) -> float:
    n = len(pred)
    mp = sum(pred) / n
    mg = sum(gold) / n
    dp = [a - mp for a in pred]
    dg = [b - mg for b in gold]
    denom = math.sqrt(sum(a * a for a in dp) * sum(b * b for b in dg))
    return sum(a * b for a, b in zip(dp, dg)) / denom


# ---------------------------------------------------------------------------
# Random-instance builders
# ---------------------------------------------------------------------------

def _rand_qa_params(rng, d, d_t, hidden, scale=0.6) -> QaParams:
    return QaParams(
        text_proj_w=rng.standard_normal((d, d_t)) * scale,
        text_proj_b=rng.standard_normal(d) * scale,
        polarity_emb=rng.standard_normal((2, d)) * scale,
        hidden_w=rng.standard_normal((hidden, 4 * d)) * scale,
        hidden_b=rng.standard_normal(hidden) * scale,
        out_w=rng.standard_normal(hidden) * scale,
        out_b=rng.standard_normal(1) * scale,
    )


def _rand_forged_items(rng, d, d_t, n_items, tag) -> list:
    items = []
    for j in range(n_items):
        h_a = (np.zeros(d) if rng.random() < 0.3
               else rng.standard_normal(d))
        items.append(ForgedItem(
            h_v=rng.standard_normal(d),
            h_a=h_a,
            h_t_raw=rng.standard_normal(d_t),
            polarity=int(rng.integers(2)),
            label=int(rng.integers(2)),
            family=FAMILIES[int(rng.integers(len(FAMILIES)))],
            source_id=f"{tag}.{j}",
        ))
    return items


def _rand_targets(rng, n_rows, t_max, vocab):
    """Targets of n_rows samples, every one of the t_max positions supervised."""
    return rng.integers(0, vocab, size=(n_rows, t_max), dtype=np.int64)


def _rel_grad_err(analytic: dict, fd: np.ndarray) -> float:
    an, _ = flatten_arrays(analytic)
    rel = np.abs(an - fd) / np.maximum.reduce(
        [np.abs(an), np.abs(fd), np.full_like(an, 1e-6)])
    return float(rel.max())


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_01_gradients_match_finite_differences(criterion):
    t0 = time.monotonic()
    worst = 0.0
    n_instances = 0

    # scorer loss: gradients over every scorer parameter
    for i in range(60):
        rng = np.random.default_rng(9100 + i)
        d = int(rng.integers(4, 7))
        d_t = int(rng.integers(3, 6))
        hidden = int(rng.integers(3, 5))
        params = _rand_qa_params(rng, d, d_t, hidden)
        fb = forged_batch_from_items(
            _rand_forged_items(rng, d, d_t, int(rng.integers(2, 5)), f"g{i}"),
            d, d_t)
        alpha = tuple(float(a) for a in rng.uniform(0.2, 3.0, size=4))
        grads = empty_grads(params.to_dict())
        qa_loss_and_grads(fb, params, alpha, grads)
        vec, layout = flatten_arrays(params.to_dict())

        def f(v, fb=fb, layout=layout, alpha=alpha):
            return qa_loss(fb, QaParams.from_dict(unflatten_arrays(v, layout)),
                           alpha)

        worst = max(worst, _rel_grad_err(grads, finite_diff_grad(f, vec)))
        n_instances += 1

    # weighted token loss: gradients over every head parameter
    for i in range(60):
        rng = np.random.default_rng(9200 + i)
        d = int(rng.integers(2, 5))
        d_t = int(rng.integers(3, 9))
        in_dim = 2 * d + d_t
        hidden = int(rng.integers(3, 6))
        t_max = int(rng.integers(1, 4))
        vocab = int(rng.integers(3, 6))
        batch = int(rng.integers(1, 5))
        arrays = {
            "in_w": rng.standard_normal((hidden, in_dim)) * 0.7,
            "in_b": rng.standard_normal(hidden) * 0.7,
            "out_w": rng.standard_normal((t_max, vocab, hidden)) * 0.7,
            "out_b": rng.standard_normal((t_max, vocab)) * 0.7,
        }
        X = rng.standard_normal((batch, in_dim))
        targets = _rand_targets(rng, batch, t_max, vocab)
        weights = rng.uniform(0.0, 2.0, size=batch)
        if rng.random() < 0.3:
            weights[int(rng.integers(batch))] = 0.0
        grads = empty_grads(arrays)
        head_loss_and_grads(arrays, X, targets, weights, grads)
        vec, layout = flatten_arrays(arrays)

        def f(v, X=X, targets=targets, weights=weights, layout=layout):
            return head_loss_and_grads(unflatten_arrays(v, layout), X, targets,
                                   weights, empty_grads(arrays))

        worst = max(worst, _rel_grad_err(grads, finite_diff_grad(f, vec)))
        n_instances += 1

    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and n_instances >= 100 and elapsed < 30.0
    criterion(1, ok, f"max relative gradient error {worst:.2e} over "
                     f"{n_instances} instances in {elapsed:.1f}s "
                     f"(need < 1e-4, >= 100, < 30s)")
    assert ok, f"worst={worst:.3e} n={n_instances} elapsed={elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: both training losses match independent brute-force oracles
# ---------------------------------------------------------------------------

def test_criterion_02_losses_match_brute_force_oracles(criterion):
    worst_scorer = 0.0
    for i in range(1000):
        rng = np.random.default_rng(9300 + i)
        d = int(rng.integers(2, 5))
        d_t = int(rng.integers(2, 5))
        hidden = int(rng.integers(2, 4))
        params = _rand_qa_params(rng, d, d_t, hidden, scale=0.8)
        items = _rand_forged_items(rng, d, d_t, int(rng.integers(2, 5)), f"o{i}")
        alpha = tuple(float(a) for a in rng.uniform(0.1, 3.0, size=4))
        lib = qa_loss(forged_batch_from_items(items, d, d_t), params, alpha)
        ref = _brute_scorer_loss(items, params, alpha)
        worst_scorer = max(worst_scorer, abs(lib - ref))

    worst_task = 0.0
    for i in range(1000):
        rng = np.random.default_rng(9400 + i)
        batch = int(rng.integers(1, 5))
        t_max = int(rng.integers(1, 5))
        vocab = int(rng.integers(2, 7))
        logits = rng.standard_normal((batch, t_max, vocab)) * 3.0
        targets = _rand_targets(rng, batch, t_max, vocab)
        weights = rng.uniform(0.0, 2.0, size=batch)
        per_lib = [per_sample_loss(logits[b], targets[b]) for b in range(batch)]
        per_ref = [_brute_sample_loss(logits[b], targets[b])
                   for b in range(batch)]
        worst_task = max(worst_task,
                         max(abs(a - b) for a, b in zip(per_lib, per_ref)))
        lib_batch = weighted_batch_loss(per_lib, weights)
        ref_batch = sum(w * ls for w, ls in zip(weights, per_ref)) / batch
        worst_task = max(worst_task, abs(lib_batch - ref_batch))

    ok = worst_scorer <= 1e-12 and worst_task <= 1e-12
    criterion(2, ok, f"loss vs oracle: scorer max dev {worst_scorer:.1e}, "
                     f"token loss max dev {worst_task:.1e} over 1000+1000 "
                     f"instances (need <= 1e-12)")
    assert ok, f"scorer={worst_scorer:.2e} task={worst_task:.2e}"


# ---------------------------------------------------------------------------
# Criterion 3: trained scorer separates clean from corrupted augments
# ---------------------------------------------------------------------------

def test_criterion_03_scorer_separates_clean_from_corrupted(criterion):
    t0 = time.monotonic()
    corpus = generate_corpus(400, 2, DEFAULT_PROFILE, seed=42)
    split = train_eval_split(corpus, 0.25)
    params, _ = train_stage0(corpus, QaConfig(), 42,
                             rows=split.train_originals)
    scores = score_corpus(corpus, params)

    held_out = corpus.augmented & np.isin(corpus.parent, split.eval_originals)
    arr = scores[held_out]
    is_clean = (corpus.hidden_quality[held_out] == 1.0).astype(int)
    auc = roc_auc(arr, is_clean)
    clean_mean = float(arr[is_clean == 1].mean())
    corrupt_mean = float(arr[is_clean == 0].mean())
    elapsed = time.monotonic() - t0

    ok = auc >= 0.95 and clean_mean > corrupt_mean and elapsed < 120.0
    criterion(3, ok, f"held-out AUC {auc:.4f} (need >= 0.95), score means "
                     f"clean {clean_mean:.3f} > corrupted {corrupt_mean:.3f}, "
                     f"{elapsed:.0f}s")
    assert ok, f"auc={auc:.4f} clean={clean_mean:.3f} corrupt={corrupt_mean:.3f}"


# ---------------------------------------------------------------------------
# Criterion 4: score-to-weight map follows the stated law exactly
# ---------------------------------------------------------------------------

def test_criterion_04_weight_map_law(criterion):
    rng = np.random.default_rng(77)
    violations = 0
    n_draws = 10_000
    for _ in range(n_draws):
        w_min = float(rng.uniform(0.0, 2.0))
        w_max = w_min + float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(0.1, 4.0))
        cfg = WeightMapConfig(w_min=w_min, w_max=w_max, gamma=gamma)
        s_lo, s_hi = sorted(rng.uniform(1e-9, 1.0 - 1e-9, size=2).tolist())
        w_lo = map_weight(s_lo, cfg)
        w_hi = map_weight(s_hi, cfg)
        if w_lo != w_min + s_lo ** gamma * (w_max - w_min):
            violations += 1
        if not w_lo <= w_hi:
            violations += 1
        if not (w_min <= w_lo <= w_max and w_min <= w_hi <= w_max):
            violations += 1
        if sample_weight("Original", s_lo, cfg) != 1.0:
            violations += 1
        if sample_weight("Augmented", s_hi, cfg) != w_hi:
            violations += 1

    ok = violations == 0
    criterion(4, ok, f"weight map: {violations} violations over {n_draws} "
                     f"random configurations (exact formula, monotone, "
                     f"bounded, originals pinned to 1)")
    assert ok, f"{violations} violations"


# ---------------------------------------------------------------------------
# Criterion 5: under corruption, weighted mixing beats uniform mixing,
# which in turn beats discarding the augments
# ---------------------------------------------------------------------------

def test_criterion_05_weighted_beats_uniform_under_corruption(criterion,
                                                              tmp_path):
    t0 = time.monotonic()
    cfg = PipelineConfig(
        corpus=CorpusConfig(n_originals=128, augments_per_original=4, d=128,
                            d_t=192, profile=_CORRUPT30),
        split=SplitConfig(eval_fraction=60 / 64), seeds=(1, 2, 3, 4, 5),
        arms=("weighted", "uniform", "original_only"),
        qa=QaConfig(steps=400), head=HeadConfig(steps=300))
    result = run_pipeline(cfg, tmp_path / "trend")
    acc = {arm: result.arm_reports[arm].mean["acc2"] for arm in cfg.arms}
    gap_wu = acc["weighted"] - acc["uniform"]
    gap_uo = acc["uniform"] - acc["original_only"]
    elapsed = time.monotonic() - t0

    ok = gap_wu >= 0.02 and gap_uo > 0.0 and elapsed < 300.0
    criterion(5, ok, f"acc2 weighted {acc['weighted']:.4f} > uniform "
                     f"{acc['uniform']:.4f} (gap {gap_wu:+.4f}, need >= 0.02) "
                     f"> original-only {acc['original_only']:.4f} "
                     f"(gap {gap_uo:+.4f}, need > 0), 5 seeds, {elapsed:.0f}s")
    assert ok, f"acc={acc} gaps=({gap_wu:+.4f}, {gap_uo:+.4f})"


# ---------------------------------------------------------------------------
# Criterion 6: with no injected corruption the weighting is inert
# ---------------------------------------------------------------------------

def test_criterion_06_no_spurious_gap_on_clean_data(criterion, tmp_path):
    cfg = PipelineConfig(
        corpus=CorpusConfig(n_originals=160, augments_per_original=2, d=64,
                            d_t=96, profile=_CLEAN),
        split=SplitConfig(eval_fraction=0.5), seeds=(1, 2, 3),
        arms=("weighted", "uniform"),
        qa=QaConfig(steps=400), head=HeadConfig(steps=300))
    result = run_pipeline(cfg, tmp_path / "clean")
    acc_w = result.arm_reports["weighted"].mean["acc2"]
    acc_u = result.arm_reports["uniform"].mean["acc2"]
    gap = abs(acc_w - acc_u)

    ok = gap <= 0.01
    criterion(6, ok, f"clean-data acc2 weighted {acc_w:.4f} vs uniform "
                     f"{acc_u:.4f}, |gap| {gap:.4f} (need <= 0.01)")
    assert ok, f"weighted={acc_w:.4f} uniform={acc_u:.4f} gap={gap:.4f}"


# ---------------------------------------------------------------------------
# Criterion 7: weighted augments recover a 10x smaller labeled budget
# ---------------------------------------------------------------------------

def test_criterion_07_weighted_low_label_budget_holds_up(criterion, tmp_path):
    base = dict(corpus=CorpusConfig(n_originals=280, augments_per_original=4,
                                     d=32, d_t=48, profile=_CORRUPT30),
                seeds=(1, 2, 3), qa=QaConfig(steps=400), head=HeadConfig(steps=300))
    full = PipelineConfig(split=SplitConfig(eval_fraction=0.3, label_fraction=1.0),
                          arms=("original_only",), **base)
    low = PipelineConfig(split=SplitConfig(eval_fraction=0.3, label_fraction=0.1),
                         arms=("weighted",), **base)
    res_full = run_pipeline(full, tmp_path / "full_budget")
    res_low = run_pipeline(low, tmp_path / "low_budget")
    acc_full = res_full.arm_reports["original_only"].mean["acc2"]
    acc_low = res_low.arm_reports["weighted"].mean["acc2"]
    margin = acc_low - (acc_full - 0.02)

    ok = acc_low >= acc_full - 0.02
    criterion(7, ok, f"acc2 weighted at 10% labels {acc_low:.4f} vs "
                     f"original-only at 100% {acc_full:.4f} "
                     f"(margin {margin:+.4f} above the -0.02 line)")
    assert ok, f"low={acc_low:.4f} full={acc_full:.4f}"


# ---------------------------------------------------------------------------
# Criterion 8: identical configs produce byte-identical artifacts
# ---------------------------------------------------------------------------

def test_criterion_08_artifacts_byte_identical_across_runs(criterion,
                                                           tmp_path):
    cfg = PipelineConfig(
        corpus=CorpusConfig(n_originals=24, augments_per_original=1, d=8, d_t=12,
                            profile=CorruptionProfile(0.05, 0.1, 0.1, 0.5, 0.1)),
        seeds=(1, 2),
        qa=QaConfig(steps=30, hidden=16), head=HeadConfig(steps=30))
    res_a = run_pipeline(cfg, tmp_path / "run_a")
    res_b = run_pipeline(cfg, tmp_path / "run_b")

    same_files = sorted(res_a.paths) == sorted(res_b.paths)
    n_equal = sum(1 for key in res_a.paths
                  if res_a.paths[key].read_bytes() ==
                  res_b.paths[key].read_bytes())
    n_total = len(res_a.paths)

    ok = same_files and n_equal == n_total
    criterion(8, ok, f"repeat run: {n_equal}/{n_total} artifacts "
                     f"byte-identical (corpora, scorer and head snapshots, "
                     f"weight files, run logs, report)")
    assert ok, f"{n_equal}/{n_total} identical, same_files={same_files}"


# ---------------------------------------------------------------------------
# Criterion 9: upstream stages stay frozen while downstream stages train
# ---------------------------------------------------------------------------

def _file_sha256(corpus) -> str:
    return hashlib.sha256(corpus_file(corpus)).hexdigest()


def test_criterion_09_upstream_stages_stay_frozen(criterion):
    corpus = generate_corpus(60, 2, DEFAULT_PROFILE, seed=5, d=8, d_t=12)
    features_before = feature_checksum(corpus)
    # recomputed from fresh bytes: corpus_checksum caches its digest
    corpus_before = _file_sha256(corpus)

    params, _ = train_stage0(corpus, QaConfig(steps=60, hidden=16,
                                              batch_size=16), 5)
    features_ok_s0 = (feature_checksum(corpus) == features_before
                      and _file_sha256(corpus) == corpus_before)

    scorer_before = b"".join(qa_snapshot_chunks(params, corpus.header))
    weight_file = export_weights(corpus, params, WeightMapConfig())
    train_stage1(corpus, weight_file, HeadConfig(steps=40), 5)
    scorer_ok_s1 = b"".join(qa_snapshot_chunks(params, corpus.header)) == scorer_before
    features_ok_s1 = feature_checksum(corpus) == features_before

    ok = features_ok_s0 and scorer_ok_s1 and features_ok_s1
    criterion(9, ok, f"features unchanged by scorer training: "
                     f"{features_ok_s0}; scorer snapshot and features "
                     f"unchanged by head training: {scorer_ok_s1}, "
                     f"{features_ok_s1}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: evaluation metrics match brute-force reference values
# ---------------------------------------------------------------------------

def test_criterion_10_metrics_match_brute_force(criterion):
    worst = 0.0
    n_instances = 1000
    for i in range(n_instances):
        rng = np.random.default_rng(9500 + i)
        n = int(rng.integers(2, 41))
        pred = rng.uniform(-1.0, 1.0, size=n)
        gold = rng.uniform(-1.0, 1.0, size=n)
        if rng.random() < 0.5:   # inject ties and repeated bins
            pred = np.round(pred, 1)
            gold = np.round(gold, 1)
        while np.all(pred == pred[0]):
            pred[0] = float(rng.uniform(-1.0, 1.0))
        while np.all(gold == gold[0]):
            gold[0] = float(rng.uniform(-1.0, 1.0))
        p_list = pred.tolist()
        g_list = gold.tolist()
        pc = [_brute_bin(v, 5) for v in p_list]
        gc = [_brute_bin(v, 5) for v in g_list]
        reported = compute_metrics(pred, gold)

        devs = [
            abs(acc_k(pred, gold, 2) - _brute_acc_k(p_list, g_list, 2)),
            abs(acc_k(pred, gold, 5) - _brute_acc_k(p_list, g_list, 5)),
            abs(reported["wprec"] - _brute_weighted(pc, gc, 1)),
            # support-weighted recall is acc5 by construction
            abs(acc_k(pred, gold, 5) - _brute_weighted(pc, gc, 2)),
            abs(reported["f1_weighted"] - _brute_weighted(pc, gc, 3)),
            abs(mae(pred, gold) - _brute_mae(p_list, g_list)),
            abs(pearson_corr(pred, gold) - _brute_pearson(p_list, g_list)),
        ]
        worst = max(worst, max(devs))

    rng = np.random.default_rng(4242)
    perfect = rng.uniform(-1.0, 1.0, size=50)
    reported = compute_metrics(perfect, perfect)
    identities = (
        acc_k(perfect, perfect, 2) == 1.0
        and acc_k(perfect, perfect, 5) == 1.0
        and reported["wprec"] == 1.0
        and reported["f1_weighted"] == 1.0
        and mae(perfect, perfect) == 0.0
        and abs(pearson_corr(perfect, perfect) - 1.0) <= 1e-12
    )

    ok = worst <= 1e-12 and identities
    criterion(10, ok, f"7 metrics x {n_instances} instances, max deviation "
                      f"from brute force {worst:.1e} (need <= 1e-12); "
                      f"perfect-prediction identities hold: {identities}")
    assert ok, f"worst={worst:.2e} identities={identities}"
