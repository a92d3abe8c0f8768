"""End-to-end experiment driver: corpus -> scorer -> weights -> arms -> report.

One pipeline run executes, for each seed: generate a corpus, split it, train
the quality scorer on training originals, export sample weights, then train
one surrogate head per arm and evaluate every arm on the held-out originals.
Arms under the same seed share the corpus, the weight file, and the head
seed, so comparisons are paired; arms differ only in their training pool and
weights:

  weighted        originals + augments, weight-file weights
  uniform         originals + augments, every weight 1
  original_only   originals alone
  augmented_only  augments alone

The stage subcommands of the CLI use the same split, the same pools
(``Split.pool``, named per arm in ARM_POOLS) and the same ``evaluate``, so a
hand-run flow writes the pipeline's artifacts byte for byte.

Only the weighted arm reads the scorer. So once a seed is split, one forked
worker process trains, saves and evaluates every other arm while this
process runs stage 0, exports the weights and trains the weighted arm; BLAS
is held to one thread for the run, leaving the second CPU to the worker.
Both sides call the same per-arm code on the same inputs, and results are
gathered in config order, so no artifact byte depends on scheduling or on
the BLAS thread count. The CLI stage-by-stage test, which runs at default
BLAS threads, checks that.

Per-seed metric rows are aggregated arm-wise into arithmetic means and
written as a canonical-JSON report (byte-deterministic for a given config),
a plain-text table, and optionally a per-seed CSV. Any stage failure is
rethrown as PipelineError("stage <name> failed: <cause>"); a failure in this
process stops the worker at once.
"""

from __future__ import annotations

import contextlib
import csv
import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .corpus import (
    GENERATOR_VERSION,
    Corpus,
    CorruptionProfile,
    DEFAULT_PROFILE,
    Split,
    corpus_checksum,
    generate_corpus,
    save_corpus,
    train_eval_split,
)
from .finetune import (HeadConfig, HeadParams, predict_all, save_head_snapshot,
                       train_stage1, write_run_log)
from .metrics import MetricsReport, compute_metrics
from .numerics import one_blas_thread
from .qa import (
    QaConfig,
    WeightMapConfig,
    export_weights,
    save_qa_snapshot,
    train_stage0,
)
from .util import AugqualError, PipelineError, ValidationError, dumps_canonical

# Each arm's training pool, named as in Split.pool.
ARM_POOLS = {"weighted": "all", "uniform": "all", "original_only": "original",
             "augmented_only": "augmented"}
ARMS = tuple(ARM_POOLS)


@dataclass(frozen=True)
class PipelineConfig:
    n_originals: int = 200
    augments_per_original: int = 2
    d: int = 64
    d_t: int = 96
    vocab_size: int = 8
    profile: CorruptionProfile = DEFAULT_PROFILE
    eval_fraction: float = 0.25
    label_fraction: float = 1.0
    seeds: tuple = (1, 2, 3)
    arms: tuple = ARMS
    qa: QaConfig = field(default_factory=QaConfig)
    weight_map: WeightMapConfig = field(default_factory=WeightMapConfig)
    head: HeadConfig = field(default_factory=HeadConfig)

    def validate(self) -> None:
        self.profile.validate()
        self.qa.validate()
        self.weight_map.validate()
        self.head.validate()
        if not self.seeds:
            raise ValidationError("pipeline needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("pipeline seeds must be distinct")
        if not self.arms:
            raise ValidationError("pipeline needs at least one arm")
        for arm in self.arms:
            if arm not in ARMS:
                raise ValidationError(f"unknown arm: {arm}")
        if len(set(self.arms)) != len(self.arms):
            raise ValidationError("pipeline arms must be distinct")

    def to_dict(self) -> dict:
        return {
            "corpus": {
                "n_originals": self.n_originals,
                "augments_per_original": self.augments_per_original,
                "d": self.d,
                "d_t": self.d_t,
                "vocab_size": self.vocab_size,
                "profile": self.profile.to_dict(),
            },
            "split": {
                "eval_fraction": self.eval_fraction,
                "label_fraction": self.label_fraction,
            },
            "qa": {
                "alpha": list(self.qa.alpha),
                "rho": self.qa.rho,
                "batch_size": self.qa.batch_size,
                "steps": self.qa.steps,
                "lr": self.qa.lr,
                "hidden": self.qa.hidden,
                "include_augmented": self.qa.include_augmented,
            },
            "weight_map": {
                "w_min": self.weight_map.w_min,
                "w_max": self.weight_map.w_max,
                "gamma": self.weight_map.gamma,
            },
            "head": {
                "hidden": self.head.hidden,
                "t_max": self.head.t_max,
                "lr": self.head.lr,
                "steps": self.head.steps,
                "batch_size": self.head.batch_size,
            },
            "seeds": list(self.seeds),
            "arms": list(self.arms),
        }


def _take_section(doc: dict, name: str, allowed) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name} must be an object")
    for key in section:
        if key not in allowed:
            raise ValidationError(f"unknown config key: {name}.{key}")
    return section


def pipeline_config_from_dict(doc: dict) -> PipelineConfig:
    """Strict config parsing: any unknown key at any level is an error.

    The qa and head seeds are not configurable here; each run derives them
    from the pipeline seed so arms stay paired.
    """
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    top_allowed = ("corpus", "split", "qa", "weight_map", "head", "seeds", "arms")
    for key in doc:
        if key not in top_allowed:
            raise ValidationError(f"unknown config key: {key}")

    corpus_sec = _take_section(doc, "corpus", (
        "n_originals", "augments_per_original", "d", "d_t", "vocab_size",
        "profile"))
    profile_doc = corpus_sec.get("profile", {})
    if not isinstance(profile_doc, dict):
        raise ValidationError("config section corpus.profile must be an object")
    for key in profile_doc:
        if key not in ("sigma_benign", "p_swap", "p_degrade",
                       "degrade_mask_rate", "p_label_noise"):
            raise ValidationError(f"unknown config key: corpus.profile.{key}")
    split_sec = _take_section(doc, "split", ("eval_fraction", "label_fraction"))
    qa_sec = _take_section(doc, "qa", (
        "alpha", "rho", "batch_size", "steps", "lr", "hidden",
        "include_augmented"))
    map_sec = _take_section(doc, "weight_map", ("w_min", "w_max", "gamma"))
    head_sec = _take_section(doc, "head", (
        "hidden", "t_max", "lr", "steps", "batch_size"))

    base = PipelineConfig()
    try:
        profile = replace(DEFAULT_PROFILE, **profile_doc)
        qa = replace(QaConfig(), **{k: tuple(v) if k == "alpha" else v
                                    for k, v in qa_sec.items()})
        weight_map = replace(WeightMapConfig(), **map_sec)
        head = replace(HeadConfig(), **head_sec)
        cfg = PipelineConfig(
            n_originals=int(corpus_sec.get("n_originals", base.n_originals)),
            augments_per_original=int(corpus_sec.get(
                "augments_per_original", base.augments_per_original)),
            d=int(corpus_sec.get("d", base.d)),
            d_t=int(corpus_sec.get("d_t", base.d_t)),
            vocab_size=int(corpus_sec.get("vocab_size", base.vocab_size)),
            profile=profile,
            eval_fraction=float(split_sec.get("eval_fraction", base.eval_fraction)),
            label_fraction=float(split_sec.get(
                "label_fraction", base.label_fraction)),
            seeds=tuple(int(s) for s in doc.get("seeds", base.seeds)),
            arms=tuple(str(a) for a in doc.get("arms", base.arms)),
            qa=qa,
            weight_map=weight_map,
            head=head,
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad config value: {exc}") from exc
    cfg.validate()
    return cfg


@dataclass
class PipelineResult:
    config: PipelineConfig
    arm_reports: dict       # arm -> MetricsReport
    report: dict            # the full report document
    paths: dict             # logical name -> Path of artifacts written


def evaluate(head: HeadParams, corpus: Corpus, split: Split) -> dict:
    """Metrics of the head's predictions on the split's held-out originals."""
    rows = split.eval_originals
    if not rows.size:
        raise ValidationError("empty held-out set; raise eval_fraction")
    return compute_metrics(predict_all(head, corpus, rows), corpus.sentiment[rows])


@contextlib.contextmanager
def _stage(name: str):
    """Context manager tagging any failure with the stage that raised it."""
    try:
        yield
    except (AugqualError, OSError) as exc:
        raise PipelineError(f"stage {name} failed: {exc}") from exc


@contextlib.contextmanager
def _arm_worker():
    """A pool of one forked worker for the arms that do not read the scorer.

    Fork, not spawn: the worker starts from this process's imported modules
    in milliseconds, and OpenBLAS stops its own threads around a fork. When
    the block fails, the worker is stopped at once rather than left to finish
    arms whose results nobody will read.
    """
    pool = ProcessPoolExecutor(max_workers=1,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BaseException:
        # ProcessPoolExecutor gains terminate_workers() only in Python 3.14
        for proc in list(pool._processes.values()):
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _train_arms(arms, corpus: Corpus, split: Split, weight_file,
                config: PipelineConfig, seed: int, out: Path) -> dict:
    """Train, save and evaluate each arm in order; arm -> held-out metrics."""
    metrics = {}
    for arm in arms:
        with _stage(f"stage1:{arm}"):
            run = train_stage1(
                corpus, weight_file if arm == "weighted" else None,
                replace(config.head, seed=seed),
                rows=split.pool(ARM_POOLS[arm]))
            save_head_snapshot(run.head, config.d, config.d_t,
                               out / f"head_s{seed}_{arm}.json")
            write_run_log(run.loss_trace, out / f"runlog_s{seed}_{arm}.jsonl")
        with _stage(f"eval:{arm}"):
            metrics[arm] = evaluate(run.head, corpus, split)
    return metrics


def run_pipeline(config: PipelineConfig, out_dir) -> PipelineResult:
    """Run every (seed, arm) cell and write all artifacts under out_dir."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    rows = {arm: {} for arm in config.arms}   # arm -> seed -> metrics
    checksums = {}
    parent_arms = tuple(arm for arm in config.arms if arm == "weighted")
    worker_arms = tuple(arm for arm in config.arms if arm != "weighted")

    with one_blas_thread(), _arm_worker() as pool:
        for seed in config.seeds:
            with _stage("gen-corpus"):
                corpus = generate_corpus(
                    config.n_originals, config.augments_per_original,
                    config.profile, seed=seed, d=config.d, d_t=config.d_t,
                    vocab_size=config.vocab_size)
                corpus_path = out / f"corpus_s{seed}.jsonl"
                save_corpus(corpus, corpus_path)
                paths[f"corpus_s{seed}"] = corpus_path
                checksums[f"corpus_s{seed}"] = corpus_checksum(corpus)

            with _stage("split"):
                split = train_eval_split(corpus, config.eval_fraction,
                                         config.label_fraction)
                if not split.eval_originals.size:
                    raise ValidationError("empty held-out set; raise eval_fraction")

            pending = (pool.submit(_train_arms, worker_arms, corpus, split, None,
                                   config, seed, out) if worker_arms else None)

            with _stage("stage0"):
                params, _ = train_stage0(corpus, replace(config.qa, seed=seed),
                                         rows=split.pool("all"))
                qa_path = out / f"qa_s{seed}.json"
                save_qa_snapshot(params, corpus.header, qa_path)
                paths[f"qa_s{seed}"] = qa_path

            with _stage("export-weights"):
                weights_path = out / f"weights_s{seed}.json"
                weight_file = export_weights(corpus, params, config.weight_map,
                                             weights_path)
                paths[f"weights_s{seed}"] = weights_path

            metrics = _train_arms(parent_arms, corpus, split, weight_file,
                                  config, seed, out)
            if pending is not None:
                try:
                    metrics.update(pending.result())
                except BrokenProcessPool as exc:
                    raise PipelineError(f"stage stage1:{','.join(worker_arms)} "
                                        f"failed: {exc}") from exc
            for arm in config.arms:
                paths[f"head_s{seed}_{arm}"] = out / f"head_s{seed}_{arm}.json"
                paths[f"runlog_s{seed}_{arm}"] = out / f"runlog_s{seed}_{arm}.jsonl"
                rows[arm][seed] = metrics[arm]

    with _stage("report"):
        arm_reports = {arm: MetricsReport.aggregate(rows[arm])
                       for arm in config.arms}
        report = {
            "kind": "pipeline_report",
            "versions": {"package": __version__,
                         "generator": GENERATOR_VERSION},
            "config": config.to_dict(),
            "corpus_checksums": checksums,
            "arms": {arm: arm_reports[arm].to_dict() for arm in config.arms},
        }
        report_path = out / "report.json"
        with open(report_path, "wb") as fh:
            fh.write((dumps_canonical(report, indent=1) + "\n").encode("utf-8"))
        paths["report"] = report_path
        text_path = out / "report.txt"
        text_path.write_text(format_report_table(report), encoding="utf-8")
        paths["report_txt"] = text_path

    return PipelineResult(config=config, arm_reports=arm_reports,
                          report=report, paths=paths)


_TABLE_KEYS = ("acc2", "acc5", "f1_weighted", "mae", "corr")


def format_report_table(report: dict) -> str:
    """Fixed-width mean-metric table, one row per arm."""
    lines = [f"seeds: {', '.join(str(s) for s in report['config']['seeds'])}",
             ""]
    header = f"{'arm':<16}" + "".join(f"{k:>13}" for k in _TABLE_KEYS)
    lines.append(header)
    lines.append("-" * len(header))
    for arm, rep in report["arms"].items():
        cells = []
        for key in _TABLE_KEYS:
            v = rep["mean"].get(key)
            cells.append(f"{'n/a':>13}" if v is None else f"{v:>13.4f}")
        lines.append(f"{arm:<16}" + "".join(cells))
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    """Per-seed rows: arm, seed, then every metric column."""
    first_arm = next(iter(report["arms"].values()))
    seeds = [str(s) for s in first_arm["seeds"]]
    metric_keys = list(first_arm["per_seed"][seeds[0]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["arm", "seed"] + metric_keys)
    for arm, rep in report["arms"].items():
        for seed in seeds:
            row = rep["per_seed"][seed]
            writer.writerow([arm, seed] + [("" if row[k] is None else row[k])
                                           for k in metric_keys])
    return buf.getvalue()
