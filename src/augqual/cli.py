"""Command-line front end.

Subcommands mirror the pipeline stages: gen-corpus, stage0 (scorer), score
(weight export), stage1 (head fine-tuning), eval, report, and pipeline (the
whole experiment). Stochastic stages require an explicit --seed; nothing
falls back to wall-clock entropy. Exit codes: 0 success, 1 bad input or
usage, 2 runtime failure (checksum mismatch, missing file, stage error).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .corpus import (
    POOLS,
    CorruptionProfile,
    check_split_fractions,
    corpus_checksum,
    generate_corpus,
    load_corpus,
    save_corpus,
    train_eval_split,
)
from .finetune import (
    HeadConfig,
    load_head_snapshot,
    predict_all,  # noqa: F401 - called in evaluate; bound for per-module tracing
    save_head_snapshot,
    train_stage1,
    write_run_log,
)
from .metrics import compute_metrics  # noqa: F401 - as predict_all
from .pipeline import (
    PipelineConfig,
    check_report,
    evaluate,
    format_report_table,
    pipeline_config_from_dict,
    report_csv,
    run_pipeline,
)
from .qa import (
    QaConfig,
    WeightMapConfig,
    export_weights,
    load_qa_snapshot,
    load_weight_file,
    qa_checksum,
    save_qa_snapshot,
    train_stage0,
)
from .util import AugqualError, ValidationError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=1, sort_keys=True))


def _load_json_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:   # bad JSON or bad UTF-8
        raise ValidationError(f"bad JSON in {path}: {exc}") from exc


def _add_config_flags(p: argparse.ArgumentParser, config, **extra) -> None:
    """One flag per field of the config dataclass instance ``config`` but its
    seed: --field-name, typed as the field's value and defaulting to it (a
    False field is a switch); ``extra`` overrides add_argument keywords."""
    for f in fields(config):
        if f.name == "seed":
            continue
        default = getattr(config, f.name)
        kw = ({"action": "store_true"} if default is False
              else {"type": type(default), "default": default})
        p.add_argument("--" + f.name.replace("_", "-"),
                       **{**kw, **extra.get(f.name, {})})


def _config_from_flags(cls, args):
    """A cls built from the flags _add_config_flags gave it (and --seed)."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_gen_corpus(args) -> int:
    corpus = generate_corpus(
        args.n_originals, args.augments,
        _config_from_flags(CorruptionProfile, args), seed=args.seed, d=args.d,
        d_t=args.d_t, vocab_size=args.vocab_size)
    save_corpus(corpus, args.out)
    doc = {"path": str(args.out), "n_samples": len(corpus),
           "n_originals": int((~corpus.augmented).sum()),
           "checksum": corpus_checksum(corpus)}
    if args.json:
        _print_json(doc)
    else:
        print(f"wrote {doc['n_samples']} samples to {doc['path']} "
              f"(checksum {doc['checksum'][:12]})")
    return 0


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _cmd_stage0(args) -> int:
    config = _config_from_flags(QaConfig, args)
    check_split_fractions(args.eval_fraction, args.label_fraction)
    corpus = load_corpus(args.corpus)
    train = train_eval_split(corpus, args.eval_fraction,
                             label_fraction=args.label_fraction).pool("all")
    params, trace = train_stage0(corpus, config, rows=train)
    save_qa_snapshot(params, corpus.header, args.out)
    doc = {"snapshot": str(args.out), "qa_checksum": qa_checksum(params),
           "steps": len(trace),
           "final_loss": trace[-1] if trace else None}
    if args.json:
        _print_json(doc)
    else:
        loss = "n/a" if doc["final_loss"] is None else f"{doc['final_loss']:.4f}"
        print(f"scorer -> {doc['snapshot']} (final loss {loss})")
    return 0


def _cmd_score(args) -> int:
    config = _config_from_flags(WeightMapConfig, args)
    corpus = load_corpus(args.corpus)
    params, _ = load_qa_snapshot(args.qa)
    wf = export_weights(corpus, params, config, args.out)
    doc = {"path": str(args.out), "n_entries": len(wf.ids),
           "qa_checksum": wf.qa_checksum,
           "corpus_checksum": wf.corpus_checksum}
    if args.json:
        _print_json(doc)
    else:
        print(f"wrote {doc['n_entries']} weights to {doc['path']}")
    return 0


def _cmd_stage1(args) -> int:
    config = _config_from_flags(HeadConfig, args)
    check_split_fractions(args.eval_fraction, args.label_fraction)
    corpus = load_corpus(args.corpus)
    weight_file = None if args.weights is None else load_weight_file(args.weights)
    pool = train_eval_split(corpus, args.eval_fraction,
                            label_fraction=args.label_fraction).pool(args.pool)
    run = train_stage1(corpus, weight_file, config, rows=pool)
    save_head_snapshot(run.head, corpus.header.d, corpus.header.d_t, args.out)
    if args.run_log is not None:
        write_run_log(run.loss_trace, args.run_log)
    doc = {"head": str(args.out), "weight_mode": run.weight_mode,
           "pool_size": len(run.rows),
           "final_loss": run.loss_trace[-1] if run.loss_trace else None}
    if args.json:
        _print_json(doc)
    else:
        print(f"head -> {doc['head']} ({doc['weight_mode']}, "
              f"{doc['pool_size']} samples)")
    return 0


def _cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    head, d, d_t = load_head_snapshot(args.head)
    if (d, d_t) != (corpus.header.d, corpus.header.d_t):
        raise ValidationError("head was trained for different dimensions")
    t_max, vocab = head.out_b.shape
    if vocab != corpus.header.vocab_size or t_max < corpus.targets.shape[1]:
        raise ValidationError(f"head predicts {t_max} positions over {vocab} "
                              f"tokens; the corpus needs "
                              f"{corpus.targets.shape[1]} over "
                              f"{corpus.header.vocab_size}")
    metrics = evaluate(head, corpus, train_eval_split(corpus, args.eval_fraction))
    if args.json:
        _print_json(metrics)
    else:
        for key, value in metrics.items():
            print(f"{key:12s} {'n/a' if value is None else value}")
    return 0


def _cmd_report(args) -> int:
    report_path = Path(args.results) / "report.json"
    report = check_report(_load_json_file(report_path), str(report_path))
    if args.dump_csv is not None:
        Path(args.dump_csv).write_text(report_csv(report), encoding="utf-8")
    if args.json:
        _print_json(report)
    else:
        print(format_report_table(report), end="")
    return 0


def _cmd_pipeline(args) -> int:
    if args.config is not None:
        cfg = pipeline_config_from_dict(_load_json_file(args.config))
    else:
        cfg = PipelineConfig()
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad --seeds: {exc}") from exc
        cfg = replace(cfg, seeds=seeds)
        cfg.validate()
    result = run_pipeline(cfg, args.out)
    if args.dump_csv is not None:
        Path(args.dump_csv).write_text(report_csv(result.report),
                                       encoding="utf-8")
    if args.json:
        _print_json(result.report)
    else:
        print(format_report_table(result.report), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="augqual",
                     description="Quality-weighted training over augmented "
                                 "multimodal feature corpora.")
    parser.add_argument("--version", action="version",
                        version=f"augqual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    base = PipelineConfig()

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-originals", type=int, default=base.n_originals)
    p.add_argument("--augments", type=int, default=base.augments_per_original)
    p.add_argument("--d", type=int, default=base.d)
    p.add_argument("--d-t", type=int, default=base.d_t)
    p.add_argument("--vocab-size", type=int, default=base.vocab_size)
    _add_config_flags(p, CorruptionProfile())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("stage0", help="train the quality scorer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_config_flags(p, QaConfig(), alpha={
        "type": _float_list, "help": "family loss weights: pos,mix,mask,flip"})
    p.add_argument("--eval-fraction", type=float, default=base.eval_fraction,
                   help="held-out originals the scorer never sees")
    p.add_argument("--label-fraction", type=float, default=base.label_fraction,
                   help="leading share of training pairs kept")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stage0)

    p = sub.add_parser("score", help="export per-sample weights")
    p.add_argument("--corpus", required=True)
    p.add_argument("--qa", required=True, help="scorer snapshot path")
    p.add_argument("--out", required=True)
    _add_config_flags(p, WeightMapConfig())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("stage1", help="fine-tune the surrogate head")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", help="weight file; omit for uniform")
    p.add_argument("--pool", choices=POOLS, default="all")
    p.add_argument("--eval-fraction", type=float, default=base.eval_fraction)
    p.add_argument("--label-fraction", type=float, default=base.label_fraction,
                   help="leading share of training pairs kept")
    _add_config_flags(p, HeadConfig(), hidden={"type": int})
    p.add_argument("--run-log", help="write per-step losses as JSONL")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stage1)

    p = sub.add_parser("eval", help="evaluate a head on held-out originals")
    p.add_argument("--corpus", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--eval-fraction", type=float, default=base.eval_fraction)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="render a pipeline report")
    p.add_argument("--results", required=True, help="pipeline output directory")
    p.add_argument("--dump-csv", help="also write per-seed rows as CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="run the full experiment")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--seeds", help="comma-separated override, e.g. 1,2,3")
    p.add_argument("--dump-csv", help="also write per-seed rows as CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AugqualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
