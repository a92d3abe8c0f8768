"""Pipeline orchestration: strict config, arm wiring, deterministic reports."""

import ast
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pickle
import re
import signal
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from augqual.corpus import (CorpusConfig, CorruptionProfile, Split, SplitConfig,
                            corpus_checksum, generate_corpus, train_eval_split)
from augqual.finetune import (HeadConfig, save_head_snapshot, train_stage1,
                              write_run_log)
from augqual import numerics, pipeline
from augqual.metrics import MetricsReport
from augqual.pipeline import (
    ARM_POOLS,
    ARMS,
    PipelineConfig,
    format_report_table,
    pipeline_config_from_dict,
    report_csv,
    run_pipeline,
)
from augqual.qa import (QaConfig, WeightMapConfig, export_weights,
                        save_qa_snapshot, train_stage0, verify_weight_file)
from augqual.util import (PipelineError, ValidationError, config_fields,
                          derived_rng, dumps_canonical)

FAST_CORPUS = CorpusConfig(n_originals=24, augments_per_original=1, d=8, d_t=12,
                           profile=CorruptionProfile(0.05, 0.1, 0.1, 0.5, 0.1))
FAST = dict(
    corpus=FAST_CORPUS,
    seeds=(1, 2), qa=QaConfig(steps=30, hidden=16),
    head=HeadConfig(steps=30),
)


class TestConfigParsing:
    def test_empty_document_gives_defaults(self):
        cfg = pipeline_config_from_dict({})
        assert cfg == PipelineConfig()

    def test_round_trips_through_to_dict(self):
        cfg = PipelineConfig(**FAST)
        assert pipeline_config_from_dict(cfg.to_dict()) == cfg

    def test_nested_overrides(self):
        cfg = pipeline_config_from_dict({
            "corpus": {"n_originals": 50,
                       "profile": {"p_swap": 0.2}},
            "qa": {"alpha": [1, 1, 1, 1], "steps": 10},
            "weight_map": {"gamma": 2.0},
            "head": {"lr": 0.01},
            "split": {"eval_fraction": 0.5},
            "seeds": [7],
            "arms": ["weighted", "uniform"],
        })
        assert cfg.corpus.n_originals == 50
        assert cfg.corpus.profile.p_swap == 0.2
        assert cfg.corpus.profile.p_degrade == 0.15   # untouched default
        assert cfg.qa.alpha == (1, 1, 1, 1)
        assert cfg.weight_map.gamma == 2.0
        assert cfg.head.lr == 0.01
        assert cfg.split.eval_fraction == 0.5
        assert cfg.seeds == (7,)
        assert cfg.arms == ("weighted", "uniform")

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown config key: bogus"):
            pipeline_config_from_dict({"bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ValidationError, match="unknown config key: qa.momentum"):
            pipeline_config_from_dict({"qa": {"momentum": 0.9}})

    def test_unknown_profile_key(self):
        with pytest.raises(ValidationError,
                           match="unknown config key: corpus.profile.p_spam"):
            pipeline_config_from_dict({"corpus": {"profile": {"p_spam": 0.1}}})

    def test_seed_not_configurable_per_stage(self):
        with pytest.raises(ValidationError, match="unknown config key: qa.seed"):
            pipeline_config_from_dict({"qa": {"seed": 5}})
        with pytest.raises(ValidationError, match="unknown config key: head.seed"):
            pipeline_config_from_dict({"head": {"seed": 5}})

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            pipeline_config_from_dict({"seeds": ["x"]})
        with pytest.raises(ValidationError, match="unknown arm"):
            pipeline_config_from_dict({"arms": ["weighted", "turbo"]})
        with pytest.raises(ValidationError, match="distinct"):
            pipeline_config_from_dict({"seeds": [1, 1]})
        with pytest.raises(ValidationError, match="at least one seed"):
            pipeline_config_from_dict({"seeds": []})
        with pytest.raises(ValidationError):
            pipeline_config_from_dict({"corpus": {"profile": {"p_swap": 1.5}}})
        with pytest.raises(ValidationError, match="must be an object"):
            pipeline_config_from_dict({"qa": [1, 2]})
        with pytest.raises(ValidationError, match="must be a JSON object"):
            pipeline_config_from_dict([1])


# A config document setting every key to a valid value other than its
# default.
FULL_CONFIG = {
    "corpus": {"n_originals": 37, "augments_per_original": 3, "d": 10,
               "d_t": 14,
               "profile": {"sigma_benign": 0.07, "p_swap": 0.11,
                           "p_degrade": 0.12, "degrade_mask_rate": 0.4,
                           "p_label_noise": 0.13}},
    "split": {"eval_fraction": 0.3, "label_fraction": 0.8},
    "qa": {"alpha": [2.5, 1.0, 0.5, 1.5], "rho": 0.2, "batch_size": 16,
           "steps": 50, "lr": 0.002, "hidden": 24},
    "weight_map": {"w_min": 0.2, "w_max": 1.25, "gamma": 2.0},
    "head": {"hidden": 40, "lr": 0.005, "steps": 70,
             "batch_size": 12},
    "seeds": [4, 9],
    "arms": ["uniform", "weighted"],
}


def _leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


class TestConfigDocument:
    # sha256 of dumps_canonical(pipeline_config_from_dict(doc).to_dict()),
    # taken from the hand-written to_dict and parser the table replaced
    # ("full" from the table's first version, once vocab_size became valid);
    # re-pinned when floats moved from 17-digit to shortest repr text, the
    # parsed documents unchanged; re-pinned when corpus.vocab_size,
    # qa.include_augmented and head.t_max left the document, to the digest
    # of the earlier text with those three keys deleted
    DIGESTS = {
        "empty": "6054f7be2605d782da31de503e759a474e03285b96c06bc61edf8d2ddc510347",
        "full": "1acc2986be43f8b180161575b8605f206e81b01e4fdf0a511aab36f8dd4ac1e2",
    }

    @pytest.mark.parametrize("name, doc", [("empty", {}), ("full", FULL_CONFIG)])
    def test_to_dict_bytes_pinned(self, name, doc):
        text = dumps_canonical(pipeline_config_from_dict(doc).to_dict())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[name]

    def test_full_document_sets_every_key(self):
        full = dict(_leaves(pipeline_config_from_dict(FULL_CONFIG).to_dict()))
        default = dict(_leaves(PipelineConfig().to_dict()))
        assert full.keys() == default.keys()
        assert [k for k in full if full[k] == default[k]] == []
        assert full == dict(_leaves(FULL_CONFIG))

    def test_full_document_runs(self, tmp_path):
        """With every key set, the run reports both seeds of both arms: the
        head's positions are the corpus target width, so no accepted document
        fails at stage 1 once the corpus, scorer and weights are written."""
        report = run_pipeline(pipeline_config_from_dict(FULL_CONFIG), tmp_path).report
        assert list(report["arms"]) == FULL_CONFIG["arms"]
        for rep in report["arms"].values():
            assert rep["seeds"] == FULL_CONFIG["seeds"]
            assert sorted(rep["per_seed"]) == ["4", "9"]

    def test_numbers_are_stored_as_floats(self):
        cfg = pipeline_config_from_dict({"qa": {"lr": 1, "alpha": [3, 2, 2, 1]},
                                         "corpus": {"profile": {"p_swap": 0}}})
        assert type(cfg.qa.lr) is float and type(cfg.corpus.profile.p_swap) is float
        assert [type(a) for a in cfg.qa.alpha] == [float] * 4
        assert '"lr":1.0' in dumps_canonical(cfg.to_dict())


class TestHiddenQualityIsEvaluationOnly:
    def test_permuted_tags_change_no_trained_value(self):
        """Permuting hidden_quality among the augments leaves the scorer, its
        scores, the weights and both heads equal. Values are compared, not
        bytes: the corpus file, and so its checksum, holds the tags."""
        corpus = generate_corpus(24, 2, FAST_CORPUS.profile, seed=3, d=8, d_t=12)
        aug = np.flatnonzero(corpus.augmented)
        quality = corpus.hidden_quality.copy()
        quality[aug] = derived_rng(3, "permute").permutation(quality[aug])
        assert not np.array_equal(quality, corpus.hidden_quality)
        f = corpus.features
        permuted = dataclasses.replace(corpus, V=f.V, A=f.A, T=f.T, hidden_quality=quality)
        assert corpus_checksum(permuted) != corpus_checksum(corpus)

        def trained(c):
            rows = train_eval_split(c, 0.25).pool("all")
            params, trace = train_stage0(c, QaConfig(steps=30, hidden=8), 3, rows=rows)
            wf = export_weights(c, params, WeightMapConfig())
            heads = [train_stage1(c, weights, HeadConfig(steps=30), 3, rows=rows).head
                     for weights in (wf, None)]
            return [*params.to_dict().values(), np.array(trace), wf.scores,
                    verify_weight_file(wf, c),
                    *(a for h in heads for a in h.to_dict().values())]

        for want, got in zip(trained(corpus), trained(permuted), strict=True):
            assert np.array_equal(want, got)


class TestArmWiring:
    SPLIT = Split(train_originals=np.array([1, 2]),
                  train_augments=np.array([5, 6, 7]),
                  eval_originals=np.array([9]))

    def test_pools(self):
        def pool(arm):
            return self.SPLIT.pool(ARM_POOLS[arm]).tolist()
        assert pool("weighted") == [1, 2, 5, 6, 7]
        assert pool("uniform") == [1, 2, 5, 6, 7]
        assert pool("original_only") == [1, 2]
        assert pool("augmented_only") == [5, 6, 7]

    def test_all_arms_covered(self):
        assert set(ARMS) == {"weighted", "uniform", "original_only",
                             "augmented_only"}


class TestRunPipeline:
    def test_artifacts_and_report_shape(self, tmp_path):
        cfg = PipelineConfig(**FAST)
        res = run_pipeline(cfg, tmp_path)
        for seed in (1, 2):
            assert (tmp_path / f"corpus_s{seed}.bin").exists()
            assert (tmp_path / f"qa_s{seed}.bin").exists()
            assert (tmp_path / f"weights_s{seed}.bin").exists()
            for arm in ARMS:
                assert (tmp_path / f"head_s{seed}_{arm}.bin").exists()
                assert (tmp_path / f"runlog_s{seed}_{arm}.jsonl").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kind"] == "pipeline_report"
        assert set(report["versions"]) == {"package", "generator"}
        assert set(report["arms"]) == set(ARMS)
        assert report == res.report
        assert set(report["corpus_checksums"]) == {"corpus_s1", "corpus_s2"}

    def test_mean_is_arithmetic_over_seeds(self, tmp_path):
        cfg = PipelineConfig(**FAST)
        res = run_pipeline(cfg, tmp_path)
        for arm, rep in res.arm_reports.items():
            vals = [rep.per_seed[s]["acc2"] for s in rep.seeds]
            assert rep.mean["acc2"] == pytest.approx(float(np.mean(vals)),
                                                     abs=1e-12)

    def test_byte_deterministic_report(self, tmp_path):
        cfg = PipelineConfig(**FAST)
        run_pipeline(cfg, tmp_path / "a")
        run_pipeline(cfg, tmp_path / "b")
        for name in ("report.json", "report.txt", "corpus_s1.bin",
                     "weights_s1.bin", "qa_s1.bin", "head_s1_weighted.bin"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_weighted_and_uniform_share_pool_not_weights(self, tmp_path):
        cfg = PipelineConfig(**FAST, arms=("weighted", "uniform"))
        run_pipeline(cfg, tmp_path)
        logs = {}
        for arm in ("weighted", "uniform"):
            lines = (tmp_path / f"runlog_s1_{arm}.jsonl").read_text().splitlines()
            logs[arm] = [json.loads(x)["loss"] for x in lines]
        assert logs["weighted"] != logs["uniform"]

    def test_augmented_only_without_augments_fails_as_stage_error(self, tmp_path):
        cfg = PipelineConfig(**{**FAST, "corpus": replace(FAST_CORPUS,
                                                          augments_per_original=0)})
        with pytest.raises(PipelineError,
                           match="stage stage1:augmented_only failed"):
            run_pipeline(cfg, tmp_path)

    def test_empty_eval_set_refused_before_writing(self, tmp_path):
        with pytest.raises(ValidationError, match="need eval_fraction > 0"):
            run_pipeline(PipelineConfig(**FAST, split=SplitConfig(eval_fraction=0.0)),
                         tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_arm_subset_runs_only_those(self, tmp_path):
        cfg = PipelineConfig(**FAST, arms=("original_only",))
        res = run_pipeline(cfg, tmp_path)
        assert list(res.arm_reports) == ["original_only"]
        assert not (tmp_path / "head_s1_weighted.bin").exists()

    def test_failed_report_write_leaves_no_file(self, tmp_path, monkeypatch):
        real = pipeline.dumps_canonical
        monkeypatch.setattr(pipeline, "dumps_canonical", lambda doc, indent:
                            real({**doc, "bad": float("nan")}, indent=indent))
        cfg = PipelineConfig(**{**FAST, "seeds": (1,)}, arms=("original_only",))
        with pytest.raises(PipelineError, match="^stage report failed: non-finite"):
            run_pipeline(cfg, tmp_path)
        assert (tmp_path / "qa_s1.bin").exists()
        assert not (tmp_path / "report.json").exists()



    def test_seed_frees_its_corpus_before_the_next(self, tmp_path, monkeypatch):
        """Everything a seed built is freed before the next seed's corpus is
        generated: on entering generate_corpus the traced live memory stays
        small, not the ~3 MB of a trend-width corpus, split and scorer."""
        cfg = PipelineConfig(
            corpus=CorpusConfig(n_originals=128, augments_per_original=4, d=128,
                                d_t=192, profile=FAST_CORPUS.profile),
            split=SplitConfig(eval_fraction=60 / 64), seeds=(1, 2),
            qa=QaConfig(steps=3), head=HeadConfig(steps=3))
        live = []
        real = pipeline.generate_corpus

        def traced(*args, **kw):
            live.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kw)

        monkeypatch.setattr(pipeline, "generate_corpus", traced)
        tracemalloc.start()
        try:
            run_pipeline(cfg, tmp_path)
        finally:
            tracemalloc.stop()
        assert len(live) == 2 and live[1] < 0.5 * 2 ** 20, live


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _unpicklable():
    class Unpicklable(Exception):   # pickle cannot name a local class
        pass
    return Unpicklable("boom")


class TestArmWorker:
    """The arms that do not read the scorer train in a worker forked for each
    seed while this process runs stage 0, with BLAS held to one thread for
    the run."""

    CFG = PipelineConfig(**{**FAST, "seeds": (1,)}, arms=("weighted", "uniform"))
    TWO_SEEDS = PipelineConfig(**FAST, arms=("weighted", "uniform"))

    def test_failure_in_the_second_seed_names_its_stage(self, tmp_path, monkeypatch):
        real = pipeline.train_stage1

        def fail_uniform_s2(corpus, weight_file, config, seed, *args, **kw):
            if weight_file is None and seed == 2:
                raise ValidationError(f"boom in process {os.getpid()}")
            return real(corpus, weight_file, config, seed, *args, **kw)

        monkeypatch.setattr(pipeline, "train_stage1", fail_uniform_s2)
        with pytest.raises(PipelineError) as info:
            run_pipeline(self.TWO_SEEDS, tmp_path)
        match = re.fullmatch(r"stage stage1:uniform failed: boom in process (\d+)",
                             str(info.value))
        assert match and int(match.group(1)) != os.getpid()
        assert (tmp_path / "head_s1_uniform.bin").exists()
        assert not (tmp_path / "head_s2_uniform.bin").exists()
        _no_child_left()

    def test_killed_worker_is_a_stage_failure(self, tmp_path, monkeypatch):
        real = pipeline.train_stage1

        def die_in_worker(corpus, weight_file, *args, **kw):
            if weight_file is None:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(corpus, weight_file, *args, **kw)

        monkeypatch.setattr(pipeline, "train_stage1", die_in_worker)
        with pytest.raises(PipelineError, match="^stage stage1:uniform failed: "
                           f"worker ended by signal {int(signal.SIGKILL)}$"):
            run_pipeline(self.CFG, tmp_path)
        _no_child_left()

    def test_parent_pickles_no_corpus(self, tmp_path, monkeypatch):
        """The worker takes its inputs through the fork: all that crosses
        the pipe is its arms' metrics, not the corpus."""
        received = []
        real = pickle.loads

        def loads(data):
            payload = real(data)
            received.append((len(data), payload))
            return payload

        monkeypatch.setattr(pipeline.pickle, "loads", loads)
        run_pipeline(self.TWO_SEEDS, tmp_path)
        assert len(received) == 2
        for size, (ok, metrics) in received:
            assert ok and set(metrics) == {"uniform"} and size < 4096

    def test_worker_arm_failure_names_its_stage(self, tmp_path, monkeypatch):
        real = pipeline.train_stage1

        def fail_uniform(corpus, weight_file, *args, **kw):
            if weight_file is None:
                raise ValidationError(f"boom in process {os.getpid()}")
            return real(corpus, weight_file, *args, **kw)

        monkeypatch.setattr(pipeline, "train_stage1", fail_uniform)
        with pytest.raises(PipelineError) as info:
            run_pipeline(self.CFG, tmp_path)
        match = re.fullmatch(r"stage stage1:uniform failed: boom in process (\d+)",
                             str(info.value))
        assert match and int(match.group(1)) != os.getpid()
        _no_child_left()

    @pytest.mark.parametrize("raise_in_worker, cause", [
        (lambda: RuntimeError("boom"), "RuntimeError: boom"),
        (_unpicklable, "Unpicklable: boom"),
        (KeyboardInterrupt, "worker exit status 1")],
        ids=["RuntimeError", "unpicklable", "KeyboardInterrupt"])
    def test_child_exits(self, tmp_path, monkeypatch, raise_in_worker, cause):
        """Whatever a worker arm raises, the child leaves through os._exit:
        an exception reaches this process as a PipelineError naming the
        arm's stage, an interrupt as the child's exit status; no child and
        no pipe end is left, and this process is still the test's."""
        real = pipeline.train_stage1

        def fail_uniform(corpus, weight_file, *args, **kw):
            if weight_file is None:
                raise raise_in_worker()
            return real(corpus, weight_file, *args, **kw)

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(_unpicklable())
        monkeypatch.setattr(pipeline, "train_stage1", fail_uniform)
        pid, fds = os.getpid(), sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(PipelineError) as info:
            run_pipeline(self.CFG, tmp_path)
        assert str(info.value) == f"stage stage1:uniform failed: {cause}"
        assert os.getpid() == pid
        assert sorted(os.listdir("/proc/self/fd")) == fds
        _no_child_left()

    def test_stage0_failure_stops_the_worker_at_once(self, tmp_path, monkeypatch):
        def slow_arm(*args, **kw):
            time.sleep(60)

        def no_scorer(*args, **kw):
            raise ValidationError("no scorer")

        monkeypatch.setattr(pipeline, "train_stage1", slow_arm)
        monkeypatch.setattr(pipeline, "train_stage0", no_scorer)
        t0 = time.monotonic()
        with pytest.raises(PipelineError, match="^stage stage0 failed: no scorer$"):
            run_pipeline(self.CFG, tmp_path)
        assert time.monotonic() - t0 < 30
        _no_child_left()

    def test_worker_starts_before_the_corpus_save(self, tmp_path, monkeypatch):
        """The worker's arms read neither the corpus file nor its checksum, so
        the worker is forked before the corpus is saved; a save failure
        stops it at once and names the gen-corpus stage."""
        children = []

        def slow_arm(*args, **kw):
            time.sleep(60)

        def failed_save(corpus, path):
            children.append(os.waitpid(-1, os.WNOHANG))   # (0, 0): one runs
            raise ValidationError("disk full")

        monkeypatch.setattr(pipeline, "train_stage1", slow_arm)
        monkeypatch.setattr(pipeline, "save_corpus", failed_save)
        t0 = time.monotonic()
        with pytest.raises(PipelineError, match="^stage gen-corpus failed: disk full$"):
            run_pipeline(self.CFG, tmp_path)
        assert time.monotonic() - t0 < 30
        assert children == [(0, 0)]
        _no_child_left()

    def test_blas_held_to_one_thread_for_the_run(self, tmp_path, monkeypatch):
        api = numerics._openblas()
        count = (lambda: api[0]()) if api else (lambda: None)
        seen = []
        real0, real1 = pipeline.train_stage0, pipeline.train_stage1

        def stage0(*args, **kw):
            seen.append(count())
            return real0(*args, **kw)

        def stage1(corpus, weight_file, *args, **kw):
            if weight_file is None:    # in the worker
                (tmp_path / "worker_threads").write_text(str(count()))
            return real1(corpus, weight_file, *args, **kw)

        monkeypatch.setattr(pipeline, "train_stage0", stage0)
        monkeypatch.setattr(pipeline, "train_stage1", stage1)
        prior = count()
        if api:
            api[1](2)      # a prior count that one thread must replace
        try:
            run_pipeline(self.CFG, tmp_path / "run")
            after = count()
        finally:
            if api:
                api[1](prior)
        assert seen == [1 if api else None]
        assert (tmp_path / "worker_threads").read_text() == str(1 if api else None)
        assert after == (2 if api else None)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """Stage 0, the weight export and a stage 1 arm run at two BLAS
        threads write the bytes that the pipeline, at one, writes."""
        cfg = PipelineConfig(
            corpus=CorpusConfig(profile=FAST_CORPUS.profile),
            seeds=(4,), arms=("weighted",), qa=QaConfig(steps=20),
            head=HeadConfig(steps=20))
        res = run_pipeline(cfg, tmp_path / "pipe")
        c = cfg.corpus
        corpus = generate_corpus(c.n_originals, c.augments_per_original, c.profile,
                                 seed=4, d=c.d, d_t=c.d_t)
        rows = train_eval_split(corpus, cfg.split.eval_fraction,
                                cfg.split.label_fraction).pool("all")
        api = numerics._openblas()
        prior = api[0]() if api else None
        if api:
            api[1](2)
        try:
            params, _ = train_stage0(corpus, cfg.qa, 4, rows=rows)
            save_qa_snapshot(params, corpus.header, tmp_path / "qa.bin")
            weights = export_weights(corpus, params, cfg.weight_map,
                                     tmp_path / "weights.bin")
            run = train_stage1(corpus, weights, cfg.head, 4, rows=rows)
            threads = api[0]() if api else None
        finally:
            if api:
                api[1](prior)
        save_head_snapshot(run.head, c.d, c.d_t, tmp_path / "head.bin")
        write_run_log(run.loss_trace, tmp_path / "runlog.jsonl")
        assert threads == (2 if api else None)
        for name, key in (("qa.bin", "qa_s4"), ("weights.bin", "weights_s4"),
                          ("head.bin", "head_s4_weighted"),
                          ("runlog.jsonl", "runlog_s4_weighted")):
            assert (tmp_path / name).read_bytes() == res.paths[key].read_bytes(), name


class TestReportRendering:
    def _report(self, tmp_path):
        cfg = PipelineConfig(**FAST, arms=("weighted", "uniform"))
        return run_pipeline(cfg, tmp_path).report

    def test_table_lists_arms_and_seeds(self, tmp_path):
        text = format_report_table(self._report(tmp_path))
        assert "seeds: 1, 2" in text
        assert "weighted" in text and "uniform" in text
        assert "acc2" in text and "mae" in text

    def test_none_mean_renders_na(self):
        report = {
            "config": {"seeds": [1]},
            "arms": {"uniform": {"mean": {"acc2": 0.5, "acc5": 0.25,
                                          "f1_weighted": 0.3, "mae": 0.2,
                                          "corr": None}}},
        }
        assert "n/a" in format_report_table(report)

    def test_csv_has_one_row_per_arm_seed(self, tmp_path):
        text = report_csv(self._report(tmp_path))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:2] == ["arm", "seed"]
        assert "acc2" in rows[0]
        assert len(rows) == 1 + 2 * 2
        assert {r[0] for r in rows[1:]} == {"weighted", "uniform"}


def _bounded_fields(cls, section=""):
    """(dotted document key, declared interval) of each bounded field of the
    config dataclass cls and of the sections nested in it."""
    intervals = {f.name: f.metadata.get("interval") for f in dataclasses.fields(cls)}
    for name, hint in config_fields(cls):
        if dataclasses.is_dataclass(hint):
            yield from _bounded_fields(hint, f"{section}{name}.")
        elif intervals[name] is not None:
            yield f"{section}{name}", intervals[name]


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_interval_table_lists_every_bounded_key(self):
        """The README table of config intervals names exactly the bounded
        fields of the document's config classes, each with its interval."""
        table = self.README.read_text().split("| section | key | interval |\n")[1]
        listed = []
        for line in table.splitlines()[1:]:
            if not line.startswith("|"):
                break
            section, keys, interval = line.split("|")[1:4]
            listed += [(f"{section.strip(' `')}.{key}", interval.strip(" `"))
                       for key in re.findall(r"`(\w+)`", keys) if key != "null"]
        assert sorted(listed) == sorted(_bounded_fields(PipelineConfig))

    def test_python_flow_prints_the_pipeline_row(self, tmp_path):
        readme = self.README.read_text()
        section = readme[readme.index("The same flow in Python"):]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed = ast.literal_eval(out.getvalue().strip().splitlines()[-1])
        res = run_pipeline(PipelineConfig(seeds=(7,), arms=("weighted",)), tmp_path)
        assert printed == res.report["arms"]["weighted"]["per_seed"]["7"]
