"""Command-line front end.

Subcommands mirror the pipeline stages: gen-corpus, stage0 (scorer), score
(weight export), stage1 (head fine-tuning), eval, report, and pipeline (the
whole experiment). Stochastic stages require an explicit --seed; nothing
falls back to wall-clock entropy. Exit codes: 0 success, 1 bad input or
usage, 2 runtime failure (checksum mismatch, missing file, stage error).

A process imports only what its subcommand runs. The parser gives the
chosen subcommand its flags and imports its stage modules (``_COMMANDS``);
every other subcommand keeps just its help line. So ``--version``,
``--help`` and a command line naming no subcommand load no numpy and no
stage module, ``gen-corpus`` loads neither the scorer nor the head, and only
eval, report and pipeline load ``augqual.pipeline``. For the same reason the
standard-library modules only a command uses (json, dataclasses, pathlib)
are imported where they are used.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys

from . import AugqualError, ValidationError, __version__

# The names each stage module lends this one. ``_bind`` imports a module and
# binds its names as globals here once a command that runs it is chosen.
_STAGE_NAMES = {
    "util": ("config_fields", "flag_type", "load_json_object", "write_atomic"),
    "numerics": ("one_blas_thread",),
    "corpus": ("POOLS", "TARGET_WIDTH", "CorpusConfig", "SplitConfig",
               "corpus_checksum", "generate_corpus", "load_corpus", "save_corpus",
               "train_eval_split"),
    "qa": ("QaConfig", "WeightMapConfig", "export_weights", "load_qa_snapshot",
           "load_weight_file", "qa_checksum", "save_qa_snapshot", "train_stage0"),
    # predict_all and compute_metrics run inside evaluate; they are bound
    # here only for the span hooks (see __getattr__)
    "finetune": ("HeadConfig", "load_head_snapshot", "predict_all",
                 "save_head_snapshot", "train_stage1", "write_run_log"),
    "metrics": ("compute_metrics",),
    "pipeline": ("PipelineConfig", "check_report", "evaluate", "format_report_table",
                 "pipeline_config_from_dict", "report_csv", "run_pipeline"),
}


def _bind(modules) -> None:
    """Import each stage module named and bind the names it lends as globals
    of this module. A name already bound is kept: a wrapper put there
    before ``main`` ran stays in place."""
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _STAGE_NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    """A stage name looked up on this module from outside (PEP 562) binds
    every stage name first, so ``getattr`` and ``setattr`` by the span hooks
    of ``benchmarks/spans.py`` or by a test's monkeypatch see the names as a
    module that imported them all would. This path exists for the span
    hooks; once the program owns its timings (ROADMAP item 2), it can go."""
    if any(name in names for names in _STAGE_NAMES.values()):
        _bind(_STAGE_NAMES)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _print_json(doc: dict) -> None:
    import json
    print(json.dumps(doc, indent=1, sort_keys=True))


def _add_config_flags(p: argparse.ArgumentParser, config, **names) -> None:
    """One flag per field of the config dataclass instance ``config`` and of
    each config nested in it (util.config_fields):
    --field-name, or the flag ``names`` gives the field (None for none),
    typed as the field (util.flag_type) and defaulting to its value in
    ``config``. Text a flag's type refuses raises ValidationError out of
    parse_args, and main reports it."""
    from dataclasses import is_dataclass
    for name, hint in config_fields(type(config)):
        value = getattr(config, name)
        flag = names.get(name, "--" + name.replace("_", "-"))
        if is_dataclass(hint):
            _add_config_flags(p, value, **names)
        elif flag is None:
            continue
        else:
            p.add_argument(flag, dest=name, type=flag_type(hint, flag),
                           default=value)


def _config_from_flags(cls, args):
    """A cls built from the flags _add_config_flags gave it; a field with no
    flag keeps its default."""
    from dataclasses import is_dataclass
    given = {}
    for name, hint in config_fields(cls):
        if is_dataclass(hint):
            given[name] = _config_from_flags(hint, args)
        elif hasattr(args, name):
            given[name] = getattr(args, name)
    return cls(**given)


def _cmd_gen_corpus(args) -> int:
    config = _config_from_flags(CorpusConfig, args)
    corpus = generate_corpus(
        config.n_originals, config.augments_per_original, config.profile,
        seed=args.seed, d=config.d, d_t=config.d_t)
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


def _cmd_stage0(args) -> int:
    config = _config_from_flags(QaConfig, args)
    split = _config_from_flags(SplitConfig, args)
    corpus = load_corpus(args.corpus)
    train = train_eval_split(corpus, split.eval_fraction,
                             label_fraction=split.label_fraction).pool("all")
    params, trace = train_stage0(corpus, config, args.seed, rows=train)
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
    doc = {"path": str(args.out), "rows": len(wf.scores),
           "qa_checksum": wf.qa_checksum,
           "corpus_checksum": wf.corpus_checksum}
    if args.json:
        _print_json(doc)
    else:
        print(f"wrote {doc['rows']} scores to {doc['path']}")
    return 0


def _cmd_stage1(args) -> int:
    config = _config_from_flags(HeadConfig, args)
    split = _config_from_flags(SplitConfig, args)
    corpus = load_corpus(args.corpus)
    weight_file = None if args.weights is None else load_weight_file(args.weights)
    pool = train_eval_split(corpus, split.eval_fraction,
                            label_fraction=split.label_fraction).pool(args.pool)
    run = train_stage1(corpus, weight_file, config, args.seed, rows=pool)
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
    split = _config_from_flags(SplitConfig, args)
    corpus = load_corpus(args.corpus)
    head, d, d_t = load_head_snapshot(args.head)
    if (d, d_t) != (corpus.header.d, corpus.header.d_t):
        raise ValidationError("head was trained for different dimensions")
    positions, vocab = head.out_b.shape
    if (positions, vocab) != (TARGET_WIDTH, corpus.header.vocab_size):
        raise ValidationError(f"head predicts {positions} positions over {vocab} "
                              f"tokens; the corpus needs {TARGET_WIDTH} over "
                              f"{corpus.header.vocab_size}")
    metrics = evaluate(head, corpus, train_eval_split(corpus, split.eval_fraction))
    if args.json:
        _print_json(metrics)
    else:
        for key, value in metrics.items():
            print(f"{key:12s} {'n/a' if value is None else value}")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path
    report_path = Path(args.results) / "report.json"
    report = check_report(load_json_object(report_path, f"JSON in {report_path}"),
                          str(report_path))
    if args.dump_csv is not None:
        write_atomic([report_csv(report)], args.dump_csv)
    if args.json:
        _print_json(report)
    else:
        print(format_report_table(report), end="")
    return 0


def _cmd_pipeline(args) -> int:
    from dataclasses import replace
    if args.config is not None:
        cfg = pipeline_config_from_dict(load_json_object(args.config,
                                                         f"JSON in {args.config}"))
    else:
        cfg = PipelineConfig()
    if args.seeds is not None:
        cfg = replace(cfg, seeds=args.seeds)
    result = run_pipeline(cfg, args.out)
    if args.dump_csv is not None:
        write_atomic([report_csv(result.report)], args.dump_csv)
    if args.json:
        _print_json(result.report)
    else:
        print(format_report_table(result.report), end="")
    return 0


def _gen_corpus_flags(p) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=flag_type(int, "--seed"), required=True)
    _add_config_flags(p, CorpusConfig(), augments_per_original="--augments")


def _stage0_flags(p) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=flag_type(int, "--seed"), required=True)
    _add_config_flags(p, QaConfig())
    _add_config_flags(p, SplitConfig())


def _score_flags(p) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--qa", required=True, help="scorer snapshot path")
    p.add_argument("--out", required=True)
    _add_config_flags(p, WeightMapConfig())


def _stage1_flags(p) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=flag_type(int, "--seed"), required=True)
    p.add_argument("--weights", help="weight file; omit for uniform")
    p.add_argument("--pool", choices=POOLS, default="all")
    _add_config_flags(p, SplitConfig())
    _add_config_flags(p, HeadConfig())
    p.add_argument("--run-log", help="write per-step losses as JSONL")


def _eval_flags(p) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--head", required=True)
    # the held-out set does not depend on the label fraction
    _add_config_flags(p, SplitConfig(), label_fraction=None)


def _report_flags(p) -> None:
    p.add_argument("--results", required=True, help="pipeline output directory")
    p.add_argument("--dump-csv", help="also write per-seed rows as CSV")


def _pipeline_flags(p) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--seeds", help="comma-separated override, e.g. 1,2,3",
                   type=flag_type(dict(config_fields(PipelineConfig))["seeds"],
                                  "--seeds"))
    p.add_argument("--dump-csv", help="also write per-seed rows as CSV")


# name -> (help line, stage modules it runs besides util and numerics,
#          adds its flags but --json, runs it), in the order the help lists them
_COMMANDS = {
    "gen-corpus": ("generate a synthetic corpus", ("corpus",),
                   _gen_corpus_flags, _cmd_gen_corpus),
    "stage0": ("train the quality scorer", ("corpus", "qa"),
               _stage0_flags, _cmd_stage0),
    "score": ("export per-sample quality scores", ("corpus", "qa"),
              _score_flags, _cmd_score),
    "stage1": ("fine-tune the surrogate head", ("corpus", "qa", "finetune"),
               _stage1_flags, _cmd_stage1),
    "eval": ("evaluate a head on held-out originals",
             ("corpus", "finetune", "pipeline"), _eval_flags, _cmd_eval),
    "report": ("render a pipeline report", ("pipeline",),
               _report_flags, _cmd_report),
    "pipeline": ("run the full experiment", ("pipeline",),
                 _pipeline_flags, _cmd_pipeline),
}


def build_parser(command=None) -> _Parser:
    """The parser, with the flags of ``command`` alone: every other
    subcommand has just its help line, which is all ``augqual --help`` and
    a usage error print. Building it imports the stage modules ``command``
    runs and binds their names (``_bind``); for no command, it imports
    none."""
    parser = _Parser(prog="augqual",
                     description="Quality-weighted training over augmented "
                                 "multimodal feature corpora.")
    parser.add_argument("--version", action="version",
                        version=f"augqual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, modules, add_flags, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            _bind(("util", "numerics", *modules))
            add_flags(p)
            p.add_argument("--json", action="store_true")
            p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its exit code. The subcommand runs with BLAS held
    to one thread, as ``run_pipeline`` runs: its matmuls have 32-row
    operands, on which a second thread only spins."""
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first positional argument as the command, and no
    # top-level option takes a value, so the first argument that names a
    # command is the one argparse runs, if any
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
        with one_blas_thread():
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AugqualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def exit_main() -> None:
    """The ``augqual`` command: main(), then exit with its code.

    Everything the process built is moved out of the collector's reach
    first (``gc.freeze``), so exiting skips a garbage-collection pass over
    every object the imports made; memory is the operating system's to
    reclaim. The freeze also runs when argparse exits (--help, --version).
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    exit_main()
