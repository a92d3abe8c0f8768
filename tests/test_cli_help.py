"""The text the command line prints before it runs a stage: ``--help`` for
the program and for each subcommand, and the first line of each usage
error, pinned byte for byte.

The parser gives flags only to the subcommand a command line names and
leaves every other subcommand its help line (``cli.build_parser``); these
texts are those the parser printed when it built every subcommand's flags.
"""

import os
import subprocess
import sys

import pytest

from augqual.cli import main

# subcommand (None for the program) -> its --help text at 80 columns
HELP = {
    None: """\
usage: augqual [-h] [--version]
               {gen-corpus,stage0,score,stage1,eval,report,pipeline} ...

Quality-weighted training over augmented multimodal feature corpora.

positional arguments:
  {gen-corpus,stage0,score,stage1,eval,report,pipeline}
    gen-corpus          generate a synthetic corpus
    stage0              train the quality scorer
    score               export per-sample quality scores
    stage1              fine-tune the surrogate head
    eval                evaluate a head on held-out originals
    report              render a pipeline report
    pipeline            run the full experiment

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    'gen-corpus': """\
usage: augqual gen-corpus [-h] --out OUT --seed SEED
                          [--n-originals N_ORIGINALS]
                          [--augments AUGMENTS_PER_ORIGINAL] [--d D]
                          [--d-t D_T] [--sigma-benign SIGMA_BENIGN]
                          [--p-swap P_SWAP] [--p-degrade P_DEGRADE]
                          [--degrade-mask-rate DEGRADE_MASK_RATE]
                          [--p-label-noise P_LABEL_NOISE] [--json]

options:
  -h, --help            show this help message and exit
  --out OUT
  --seed SEED
  --n-originals N_ORIGINALS
  --augments AUGMENTS_PER_ORIGINAL
  --d D
  --d-t D_T
  --sigma-benign SIGMA_BENIGN
  --p-swap P_SWAP
  --p-degrade P_DEGRADE
  --degrade-mask-rate DEGRADE_MASK_RATE
  --p-label-noise P_LABEL_NOISE
  --json
""",
    'stage0': """\
usage: augqual stage0 [-h] --corpus CORPUS --out OUT --seed SEED
                      [--alpha ALPHA] [--rho RHO] [--batch-size BATCH_SIZE]
                      [--steps STEPS] [--lr LR] [--hidden HIDDEN]
                      [--eval-fraction EVAL_FRACTION]
                      [--label-fraction LABEL_FRACTION] [--json]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --out OUT
  --seed SEED
  --alpha ALPHA
  --rho RHO
  --batch-size BATCH_SIZE
  --steps STEPS
  --lr LR
  --hidden HIDDEN
  --eval-fraction EVAL_FRACTION
  --label-fraction LABEL_FRACTION
  --json
""",
    'score': """\
usage: augqual score [-h] --corpus CORPUS --qa QA --out OUT [--w-min W_MIN]
                     [--w-max W_MAX] [--gamma GAMMA] [--json]

options:
  -h, --help       show this help message and exit
  --corpus CORPUS
  --qa QA          scorer snapshot path
  --out OUT
  --w-min W_MIN
  --w-max W_MAX
  --gamma GAMMA
  --json
""",
    'stage1': """\
usage: augqual stage1 [-h] --corpus CORPUS --out OUT --seed SEED
                      [--weights WEIGHTS] [--pool {all,original,augmented}]
                      [--eval-fraction EVAL_FRACTION]
                      [--label-fraction LABEL_FRACTION] [--hidden HIDDEN]
                      [--lr LR] [--steps STEPS] [--batch-size BATCH_SIZE]
                      [--run-log RUN_LOG] [--json]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --out OUT
  --seed SEED
  --weights WEIGHTS     weight file; omit for uniform
  --pool {all,original,augmented}
  --eval-fraction EVAL_FRACTION
  --label-fraction LABEL_FRACTION
  --hidden HIDDEN
  --lr LR
  --steps STEPS
  --batch-size BATCH_SIZE
  --run-log RUN_LOG     write per-step losses as JSONL
  --json
""",
    'eval': """\
usage: augqual eval [-h] --corpus CORPUS --head HEAD
                    [--eval-fraction EVAL_FRACTION] [--json]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --head HEAD
  --eval-fraction EVAL_FRACTION
  --json
""",
    'report': """\
usage: augqual report [-h] --results RESULTS [--dump-csv DUMP_CSV] [--json]

options:
  -h, --help           show this help message and exit
  --results RESULTS    pipeline output directory
  --dump-csv DUMP_CSV  also write per-seed rows as CSV
  --json
""",
    'pipeline': """\
usage: augqual pipeline [-h] --out OUT [--config CONFIG] [--seeds SEEDS]
                        [--dump-csv DUMP_CSV] [--json]

options:
  -h, --help           show this help message and exit
  --out OUT
  --config CONFIG      JSON config document
  --seeds SEEDS        comma-separated override, e.g. 1,2,3
  --dump-csv DUMP_CSV  also write per-seed rows as CSV
  --json
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=[str(c) for c in HELP])
def test_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    printed = capsys.readouterr()
    assert printed.out == HELP[command] and printed.err == ""


USAGE = ("usage: augqual [-h] [--version]\n"
         "               {gen-corpus,stage0,score,stage1,eval,report,pipeline} ...\n")


@pytest.mark.parametrize("argv, first_line", [
    ([], "usage error: the following arguments are required: command"),
    (["bogus"], "usage error: argument command: invalid choice: 'bogus' (choose "
                "from 'gen-corpus', 'stage0', 'score', 'stage1', 'eval', 'report', "
                "'pipeline')"),
    (["stage0"], "usage error: the following arguments are required: --corpus, "
                 "--out, --seed")], ids=["no command", "bogus", "stage0"])
def test_usage_error(argv, first_line):
    proc = subprocess.run([sys.executable, "-m", "augqual.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == first_line + "\n" + USAGE
