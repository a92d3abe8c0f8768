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
(``Split.pool``, named per arm in ARM_POOLS), the same ``evaluate`` and the
config dataclasses' defaults, so a hand-run flow writes the pipeline's
artifacts byte for byte. A config document is read, and written back by
``PipelineConfig.to_dict``, through one table (_SECTIONS) giving each key its
exact JSON type; an unknown key or a value of another type is refused.

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
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .corpus import (GENERATOR_VERSION, DEFAULT_PROFILE, Corpus,
                     CorruptionProfile, Split, check_split_fractions,
                     corpus_checksum, generate_corpus, generation_header,
                     save_corpus, train_eval_split)
from .finetune import (HeadConfig, HeadParams, predict_all, save_head_snapshot,
                       train_stage1, write_run_log)
from .metrics import MetricsReport, compute_metrics
from .numerics import one_blas_thread
from .qa import (QaConfig, WeightMapConfig, export_weights, save_qa_snapshot,
                 train_stage0)
from .util import (AugqualError, PipelineError, ValidationError, check_fields,
                   dumps_canonical)

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
        """The argument checks of the corpus generator, the split and every
        training config, so a value out of range fails before anything is
        written."""
        generation_header(self.n_originals, self.augments_per_original,
                          self.profile, self.d, self.d_t, self.vocab_size)
        check_split_fractions(self.eval_fraction, self.label_fraction)
        if self.eval_fraction == 0.0 or self.n_originals < 4:
            raise ValidationError("arms are evaluated on held-out originals: "
                                  "need eval_fraction > 0 and n_originals >= 4")
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
        """The config as the document pipeline_config_from_dict reads."""
        doc = {}
        for name, (part, kinds) in _SECTIONS.items():
            at = doc
            for key in filter(None, name.split(".")):
                at = at.setdefault(key, {})
            obj = getattr(self, part) if part else self
            for key, kind in kinds.items():
                value = getattr(obj, key)
                at[key] = list(value) if type(kind) is list else value
        return doc


# The config document, one entry per section (dotted, "" for the top level,
# parents before their subsections): the part of PipelineConfig it fills
# ("" for PipelineConfig's own fields), and each key's exact JSON type, as
# the Python types json.load gives (true and false are never numbers), or
# [type] for an array of it. Each key names a field of its part; numbers are
# stored as floats, arrays as tuples.
_INT, _NUMBER, _BOOL, _STR = (int,), (int, float), (bool,), (str,)
_INT_OR_NULL = (int, type(None))
_SECTIONS = {
    "": ("", {"seeds": [_INT], "arms": [_STR]}),
    "corpus": ("", {"n_originals": _INT, "augments_per_original": _INT,
                    "d": _INT, "d_t": _INT, "vocab_size": _INT}),
    "corpus.profile": ("profile", {
        "sigma_benign": _NUMBER, "p_swap": _NUMBER, "p_degrade": _NUMBER,
        "degrade_mask_rate": _NUMBER, "p_label_noise": _NUMBER}),
    "split": ("", {"eval_fraction": _NUMBER, "label_fraction": _NUMBER}),
    "qa": ("qa", {"alpha": [_NUMBER], "rho": _NUMBER, "batch_size": _INT,
                  "steps": _INT, "lr": _NUMBER, "hidden": _INT,
                  "include_augmented": _BOOL}),
    "weight_map": ("weight_map", {"w_min": _NUMBER, "w_max": _NUMBER,
                                  "gamma": _NUMBER}),
    "head": ("head", {"hidden": _INT_OR_NULL, "t_max": _INT, "lr": _NUMBER,
                      "steps": _INT, "batch_size": _INT}),
}
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "an integer", float: "a float",
               type(None): "null"}


def _parse_value(value, kind, key: str):
    """value, checked to have the JSON type ``kind`` of _SECTIONS."""
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    if type(kind) is list:
        if type(value) is not list:
            raise ValidationError(f"config key {key} must be an array, got {got}")
        return tuple(_parse_value(v, kind[0], f"{key}[{i}]")
                     for i, v in enumerate(value))
    if type(value) not in kind:
        want = " or ".join(_JSON_NAMES[t] for t in kind)
        raise ValidationError(f"config key {key} must be {want}, got {got}")
    if kind is not _NUMBER:
        return value
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"config key {key} must be a finite number")
    return float(value)


def pipeline_config_from_dict(doc) -> PipelineConfig:
    """Strict config parsing against _SECTIONS: an unknown key, or a value
    not of its key's JSON type, at any level is an error naming the key.

    The qa and head seeds are not configurable here; each run derives them
    from the pipeline seed so arms stay paired.
    """
    sections, parts = {}, {}
    for name, (part, kinds) in _SECTIONS.items():
        parent, _, key = name.rpartition(".")
        section = sections[parent].get(key, {}) if name else doc
        if type(section) is not dict:
            raise ValidationError(f"config section {name} must be an object"
                                  if name else "config must be a JSON object")
        for key, value in section.items():
            dotted = f"{name}.{key}" if name else key
            if key in kinds:
                parts.setdefault(part, {})[key] = _parse_value(
                    value, kinds[key], dotted)
            elif not key or dotted not in _SECTIONS:   # else a subsection
                raise ValidationError(f"unknown config key: {dotted}")
        sections[name] = section
    base = PipelineConfig()
    cfg = replace(base, **parts.pop("", {}), **{
        part: replace(getattr(base, part), **values)
        for part, values in parts.items()})
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
        report_path.write_bytes(
            (dumps_canonical(report, indent=1) + "\n").encode("utf-8"))
        paths["report"] = report_path
        text_path = out / "report.txt"
        text_path.write_text(format_report_table(report), encoding="utf-8")
        paths["report_txt"] = text_path

    return PipelineResult(config=config, arm_reports=arm_reports,
                          report=report, paths=paths)


_TABLE_KEYS = ("acc2", "acc5", "f1_weighted", "mae", "corr")


def format_report_table(report: dict) -> str:
    """Fixed-width mean-metric table, one row per arm."""
    header = f"{'arm':<16}" + "".join(f"{k:>13}" for k in _TABLE_KEYS)
    lines = [f"seeds: {', '.join(str(s) for s in report['config']['seeds'])}",
             "", header, "-" * len(header)]
    for arm, rep in report["arms"].items():
        means = (rep["mean"].get(key) for key in _TABLE_KEYS)
        lines.append(f"{arm:<16}" + "".join(
            f"{'n/a':>13}" if v is None else f"{v:>13.4f}" for v in means))
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


_METRIC = (int, float, type(None))


def check_report(report, where: str) -> dict:
    """report, when it is a pipeline report holding every field that
    format_report_table and report_csv read, with the JSON type they need;
    ValidationError naming ``where`` otherwise."""
    if type(report) is not dict or report.get("kind") != "pipeline_report":
        raise ValidationError(f"{where} is not a pipeline report")
    check_fields(report, {"config": (dict,), "arms": (dict,)}, where)
    check_fields(report["config"], {"seeds": (list,)}, f"{where} config")
    if not report["arms"]:
        raise ValidationError(f"{where} lists no arms")
    metrics = seeds = None      # the first arm's, which report_csv reads for all
    for arm, rep in report["arms"].items():
        at = f"{where} arm {arm}"
        check_fields(rep, {"seeds": (list,), "per_seed": (dict,),
                           "mean": (dict,)}, at)
        check_fields(rep["mean"], dict.fromkeys(rep["mean"], _METRIC), f"{at} mean")
        if seeds is None:
            seeds = [str(s) for s in rep["seeds"]]
            row = rep["per_seed"].get(seeds[0]) if seeds else None
            if type(row) is not dict:
                raise ValidationError(f"{at} has no row for its first seed")
            metrics = dict.fromkeys(row, _METRIC)
        for seed in seeds:
            check_fields(rep["per_seed"].get(seed), metrics, f"{at} seed {seed}")
    return report
