"""Golden digest of a weight file scored in more than one window.

The corpora of ``test_golden.py`` have 48 rows, fewer than one scoring window
(``qa.SCORE_WINDOW``), so they never reach the windowed path of
``score_corpus``. This pins the weight file of the stage-by-stage flow at the
benchmark's ``cli_flow`` size instead: 600 originals with 2 augments each
(1,800 rows, eight windows), taken before scoring was windowed, taken
again when the corpus file became binary, which moved only the corpus
checksum the weight file records, again when weight-file entries became
``{"id", "score"}``, dropping each entry's origin and weight (207,759 ->
110,972 bytes; every score unchanged), and again when the weight file became
an array file, a padded header line and then one float64 score per corpus
row, in row order, with no ids (110,972 -> 14,656 bytes; every score
unchanged).
"""

import hashlib

import numpy as np

from augqual import qa
from augqual.cli import main

SEED = "13"
N_ORIGINALS = 600   # 2 augments each: 1,800 rows
WEIGHTS_SHA256 = "5f7afc33afb2069cfeb0088d0a1e341b99f2fcf2fe910e01099899f70763ed36"


def test_cli_flow_weight_file_digest(tmp_path, monkeypatch, capsys):
    corpus, scorer, weights = (tmp_path / name for name in
                               ("corpus.bin", "qa.bin", "weights.bin"))
    for argv in (["gen-corpus", "--out", str(corpus), "--seed", SEED,
                  "--n-originals", str(N_ORIGINALS), "--augments", "2",
                  "--p-swap", "0.15", "--p-degrade", "0.15",
                  "--p-label-noise", "0.15"],
                 ["stage0", "--corpus", str(corpus), "--out", str(scorer),
                  "--seed", SEED, "--steps", "100"],
                 ["score", "--corpus", str(corpus), "--qa", str(scorer),
                  "--out", str(weights)]):
        assert main(argv) == 0, capsys.readouterr().err
    assert 3 * N_ORIGINALS > 2 * qa.SCORE_WINDOW, "the flow must span windows"
    got = hashlib.sha256(weights.read_bytes()).hexdigest()
    assert got == WEIGHTS_SHA256, (
        f"weight file differs from its golden digest (numpy {np.__version__})")
