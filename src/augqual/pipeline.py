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
artifacts byte for byte. A config document nests as PipelineConfig does, one
section per config dataclass, and is read, and written back by
``PipelineConfig.to_dict``, by walking those fields and their annotations
(``util.config_fields``), which give each key its exact JSON type; an unknown
key or a value of another type is refused, as is a value outside the
interval its config field declares (``util.bounded``), named
``<Class>.<field> must be in <interval>`` when that config is built.

Only the weighted arm reads the scorer, and no arm reads the corpus file.
So once a seed is split, a child forked for that seed trains, saves and
evaluates every other arm while this process saves the corpus, runs stage 0,
exports the weights and trains the weighted arm; BLAS is held to one thread
for the run, leaving the second CPU to the child. The child takes the seed's
corpus, split and config through the fork; only its metrics come back,
pickled, through a pipe. Both sides call the same per-arm code on the same
inputs, and results are gathered in config order, so no artifact byte
depends on scheduling or on the BLAS thread count. The CLI stage-by-stage
test checks the first; as the stage commands also hold BLAS to one thread, a
test that runs the stages at two BLAS threads checks the second.

Each seed runs in one call that returns only its corpus checksum and
metrics, so a seed's corpus, split, scorer and weights are freed before the
next seed's corpus is generated. Per-seed metric rows are aggregated
arm-wise into arithmetic means and written as a canonical-JSON report
(byte-deterministic for a given config), a plain-text table, and optionally
a per-seed CSV. Every artifact is written through ``util.write_atomic``, so
none is ever left truncated. Any stage failure is rethrown as
PipelineError("stage <name> failed: <cause>"), a child that dies as a
failure of the stages it ran; a failure in this process stops the child at
once, and no child outlives the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .corpus import (GENERATOR_VERSION, DEFAULT_PROFILE, Corpus, CorpusConfig,
                     Split, SplitConfig, corpus_checksum, generate_corpus,
                     save_corpus, train_eval_split)
from .finetune import (HeadConfig, HeadParams, predict_all, save_head_snapshot,
                       train_stage1, write_run_log)
from .metrics import MetricsReport, compute_metrics
from .numerics import one_blas_thread
from .qa import (QaConfig, WeightMapConfig, export_weights, save_qa_snapshot,
                 train_stage0)
from .util import (AugqualError, PipelineError, ValidationError, check_fields,
                   config_from_dict, config_to_dict, dumps_canonical, write_atomic)

# Each arm's training pool, named as in Split.pool.
ARM_POOLS = {"weighted": "all", "uniform": "all", "original_only": "original",
             "augmented_only": "augmented"}
ARMS = tuple(ARM_POOLS)


@dataclass(frozen=True)
class PipelineConfig:
    """The config document: one field per section, as ``to_dict`` writes it.
    Each section checks its own ranges when built; building this checks the
    rules that span sections, so a bad config fails before anything is
    written."""

    corpus: CorpusConfig = CorpusConfig(profile=DEFAULT_PROFILE)
    split: SplitConfig = SplitConfig()
    qa: QaConfig = QaConfig()
    weight_map: WeightMapConfig = WeightMapConfig()
    head: HeadConfig = HeadConfig()
    seeds: tuple[int, ...] = (1, 2, 3)
    arms: tuple[str, ...] = ARMS

    def __post_init__(self):
        if self.split.eval_fraction == 0.0 or self.corpus.n_originals < 4:
            raise ValidationError("arms are evaluated on held-out originals: "
                                  "need eval_fraction > 0 and n_originals >= 4")
        for arm in self.arms:
            if arm not in ARMS:
                raise ValidationError(f"unknown arm: {arm}")
        for name, values in (("seed", self.seeds), ("arm", self.arms)):
            if not values:
                raise ValidationError(f"pipeline needs at least one {name}")
            if len(set(values)) != len(values):
                raise ValidationError(f"pipeline {name}s must be distinct")

    def to_dict(self) -> dict:
        """The config as the document pipeline_config_from_dict reads."""
        return config_to_dict(self)


def pipeline_config_from_dict(doc) -> PipelineConfig:
    """Strict config parsing: an unknown key, or a value not of its key's
    JSON type, at any level is an error naming the key; a key left out keeps
    the value of PipelineConfig().

    The qa and head configs hold no seed: each run trains its scorer and
    every arm's head under the pipeline seed, so arms stay paired.
    """
    return config_from_dict(PipelineConfig(), doc)


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
def _arm_worker(arms, corpus: Corpus, split: Split, config: PipelineConfig,
                seed: int, files: dict):
    """A function returning the metrics of ``_train_arms(arms, corpus, split,
    None, config, seed, files)``, run in a child forked for this seed, or {}
    at once when ``arms`` is empty.

    The child takes its inputs through the fork, writes one pickled ``(ok,
    metrics or PipelineError)`` to a pipe (any other exception restated as a
    PipelineError naming the stage) and leaves only through ``os._exit``. The
    function reads the pipe to its end, then reaps the child; no payload is a
    PipelineError naming how the child ended. A block that fails first stops
    the child with SIGTERM and reaps it, rather than wait for unread arms.
    """
    if not arms:
        yield dict
        return
    stage = f"stage stage1:{','.join(arms)} failed"
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
        pid = os.fork()
        if not pid:
            try:
                reader.close()
                try:
                    payload = (True, _train_arms(arms, corpus, split, None,
                                                 config, seed, files))
                except Exception as exc:
                    payload = (False, exc if isinstance(exc, PipelineError) else
                               PipelineError(f"{stage}: {type(exc).__name__}: {exc}"))
                writer.write(pickle.dumps(payload))
                writer.close()
                os._exit(0)
            finally:
                os._exit(1)
        writer.close()
        status = None

        def metrics() -> dict:
            nonlocal status
            data = reader.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            try:
                ok, value = pickle.loads(data)
            except Exception:
                how = (f"ended by signal {-status}" if status < 0
                       else f"exit status {status}")
                raise PipelineError(f"{stage}: worker {how}") from None
            if not ok:
                raise value
            return value

        try:
            yield metrics
        finally:
            if status is None:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)


def _seed_files(out: Path, seed: int, arms) -> dict:
    """(kind, arm) -> path of each artifact one seed writes, arm None for the
    corpus, scorer and weights; in ``PipelineResult.paths`` order, where each
    is named by its file's stem."""
    files = {("corpus", None): out / f"corpus_s{seed}.bin",
             ("qa", None): out / f"qa_s{seed}.bin",
             ("weights", None): out / f"weights_s{seed}.bin"}
    for arm in arms:
        files["head", arm] = out / f"head_s{seed}_{arm}.bin"
        files["runlog", arm] = out / f"runlog_s{seed}_{arm}.jsonl"
    return files


def _train_arms(arms, corpus: Corpus, split: Split, weight_file,
                config: PipelineConfig, seed: int, files: dict) -> dict:
    """Train, save and evaluate each arm in order, into its ``files``; arm ->
    held-out metrics."""
    metrics = {}
    for arm in arms:
        with _stage(f"stage1:{arm}"):
            run = train_stage1(
                corpus, weight_file if arm == "weighted" else None, config.head,
                seed, rows=split.pool(ARM_POOLS[arm]))
            save_head_snapshot(run.head, config.corpus.d, config.corpus.d_t,
                               files["head", arm])
            write_run_log(run.loss_trace, files["runlog", arm])
        with _stage(f"eval:{arm}"):
            metrics[arm] = evaluate(run.head, corpus, split)
    return metrics


def _run_seed(config: PipelineConfig, seed: int, files: dict) -> tuple[str, dict]:
    """Generate and split one seed's corpus, fork the worker for every arm
    but ``weighted``, then save the corpus, train and save the scorer and
    weights and train, save and evaluate ``weighted``, each into its
    ``_seed_files`` path; the corpus checksum and arm -> held-out metrics.
    The worker's arms never read the corpus file or its checksum, so it
    starts before the save. What the seed built is freed when this returns,
    before the next seed's corpus is generated."""
    with _stage("gen-corpus"):
        c = config.corpus
        corpus = generate_corpus(
            c.n_originals, c.augments_per_original, c.profile,
            seed=seed, d=c.d, d_t=c.d_t)

    with _stage("split"):
        split = train_eval_split(corpus, config.split.eval_fraction,
                                 config.split.label_fraction)

    parent_arms = tuple(arm for arm in config.arms if arm == "weighted")
    worker_arms = tuple(arm for arm in config.arms if arm != "weighted")
    with _arm_worker(worker_arms, corpus, split, config, seed,
                     files) as worker_metrics:
        with _stage("gen-corpus"):
            save_corpus(corpus, files["corpus", None])
            checksum = corpus_checksum(corpus)

        with _stage("stage0"):
            params, _ = train_stage0(corpus, config.qa, seed, rows=split.pool("all"))
            save_qa_snapshot(params, corpus.header, files["qa", None])

        with _stage("export-weights"):
            weight_file = export_weights(corpus, params, config.weight_map,
                                         files["weights", None])
        del params   # saved, and read by nothing after the export

        metrics = _train_arms(parent_arms, corpus, split, weight_file, config,
                              seed, files)
        metrics.update(worker_metrics())
    return checksum, metrics


def run_pipeline(config: PipelineConfig, out_dir) -> PipelineResult:
    """Run every (seed, arm) cell and write all artifacts under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    rows = {arm: {} for arm in config.arms}   # arm -> seed -> metrics
    checksums = {}

    with one_blas_thread():
        for seed in config.seeds:
            files = _seed_files(out, seed, config.arms)
            checksum, metrics = _run_seed(config, seed, files)
            checksums[files["corpus", None].stem] = checksum
            paths.update((path.stem, path) for path in files.values())
            for arm in config.arms:
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
        write_atomic([dumps_canonical(report, indent=1), "\n"], report_path)
        paths["report"] = report_path
        text_path = out / "report.txt"
        write_atomic([format_report_table(report)], text_path)
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
