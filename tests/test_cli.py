"""CLI contract: subcommands, exit codes, --json, byte determinism."""

import argparse
import ast
import copy
import csv
import hashlib
import json
import math
import struct
import subprocess
import sys
import typing
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from augqual import cli, numerics
from augqual import corpus as corpus_module
from augqual.cli import main
from augqual.corpus import (DEFAULT_PROFILE, MAX_DIM, CorpusConfig, CorruptionProfile,
                            SplitConfig, VerbalScheme, load_corpus, save_corpus)
from augqual.finetune import HeadConfig
from augqual.pipeline import PipelineConfig, run_pipeline
from augqual.qa import QaConfig, WeightMapConfig, load_weight_file
from augqual.util import config_to_dict
from oracles import (corpus_file, corpus_with, encode, float_block, json_weight_file,
                     samples_of, snapshot_doc, snapshot_file, weight_doc, weight_file,
                     with_header)

CLI = [sys.executable, "-m", "augqual.cli"]

GEN = ["gen-corpus", "--n-originals", "24", "--augments", "1",
       "--d", "8", "--d-t", "12",
       "--p-swap", "0.1", "--p-degrade", "0.1", "--p-label-noise", "0.1"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def _gen(tmp_path, name="c.bin", seed="5"):
    path = tmp_path / name
    proc = run(*GEN, "--out", str(path), "--seed", seed)
    assert proc.returncode == 0, proc.stderr
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        proc = run("gen-corpus", "--out", str(tmp_path / "x"), "--seed", "1",
                   "--frobnicate")
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    def test_unknown_command_is_usage_error(self):
        proc = run("make-it-so")
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    @pytest.mark.parametrize("argv, flag", [
        ("gen-corpus --seed 1", "--vocab-size 8"),
        ("stage0 --corpus c --seed 1", "--include-augmented"),
        ("stage1 --corpus c --seed 1", "--t-max 4")],
        ids=["--vocab-size", "--include-augmented", "--t-max"])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        """The vocabulary and the head's positions come from the corpus, and
        the scorer trains on originals alone: none of them is a flag."""
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([*argv.split(), "--out", str(out), *flag.split()])
        printed = capsys.readouterr()
        assert rc == 1
        assert printed.err.startswith(f"usage error: unrecognized arguments: {flag}\n")
        assert printed.out == "" and not out.exists()

    def test_missing_required_seed(self, tmp_path):
        proc = run("gen-corpus", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1

    def test_invalid_profile_value(self, tmp_path):
        proc = run("gen-corpus", "--out", str(tmp_path / "x"), "--seed", "1",
                   "--p-swap", "2.0")
        assert proc.returncode == 1
        assert "p_swap" in proc.stderr

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        proc = run("stage0", "--corpus", str(tmp_path / "absent.bin"),
                   "--out", str(tmp_path / "qa.json"), "--seed", "1")
        assert proc.returncode == 2

    def test_weight_corpus_mismatch_is_runtime_error(self, tmp_path):
        a = _gen(tmp_path, "a.bin", "5")
        b = _gen(tmp_path, "b.bin", "6")
        qa = tmp_path / "qa.json"
        w = tmp_path / "w.bin"
        assert run("stage0", "--corpus", str(a), "--out", str(qa),
                   "--seed", "1", "--steps", "5", "--hidden", "8",
                   "--batch-size", "8").returncode == 0
        assert run("score", "--corpus", str(a), "--qa", str(qa),
                   "--out", str(w)).returncode == 0
        proc = run("stage1", "--corpus", str(b), "--weights", str(w),
                   "--out", str(tmp_path / "h.json"), "--seed", "1",
                   "--steps", "1")
        assert proc.returncode == 2
        assert "different corpus" in proc.stderr

    def test_import_leaves_scipy_stats_out(self):
        # nor any scipy package: numerics loads only the ufunc extension; nor
        # the process pool modules (next test)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, augqual.cli, augqual.pipeline; "
             "print(sorted({'scipy', 'scipy.special', 'scipy.stats', "
             "'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # run first, through the console script's function: reports, as the
    # interpreter exits, the numpy, scipy and package modules the process loaded
    LOADED = ("import atexit, sys; atexit.register(lambda: print(sorted("
              "m for m in sys.modules if m.split('.')[0] in "
              "('numpy', 'scipy', 'augqual')), file=sys.stderr)); "
              "from augqual.cli import exit_main; exit_main()")

    @classmethod
    def _loaded(cls, *argv):
        proc = subprocess.run([sys.executable, "-c", cls.LOADED, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(ast.literal_eval(proc.stderr.splitlines()[-1]))

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_load_no_numpy_and_no_stage(self, flag):
        assert self._loaded(flag) == {"augqual", "augqual.cli"}

    @pytest.mark.parametrize("command, unloaded", [
        ("gen-corpus", ("qa", "forge", "finetune", "metrics", "pipeline")),
        ("stage0", ("finetune", "metrics", "pipeline")),
        ("score", ("finetune", "metrics", "pipeline")),
        ("stage1", ("metrics", "pipeline"))])
    def test_command_loads_only_its_stages(self, clean_artifacts, tmp_path, command,
                                           unloaded):
        corpus, paths = clean_artifacts
        c, out = ["--corpus", str(corpus)], ["--out", str(tmp_path / "out.bin")]
        argv = {"gen-corpus": [*GEN, *out, "--seed", "5"],
                "stage0": ["stage0", *c, *out, "--seed", "5", "--steps", "2"],
                "score": ["score", *c, "--qa", str(paths["scorer"]), *out],
                "stage1": ["stage1", *c, "--weights", str(paths["weights"]), *out,
                           "--seed", "5", "--steps", "2"]}[command]
        loaded = self._loaded(*argv)
        assert (tmp_path / "out.bin").exists()
        assert "numpy" in loaded
        assert not loaded & {f"augqual.{m}" for m in unloaded}

    def test_pipeline_run_imports_no_process_pool(self, tmp_path):
        """A pipeline run forks its arm worker with os.fork and a pipe, so a
        whole run loads neither multiprocessing nor concurrent.futures."""
        doc = {"corpus": {"n_originals": 24, "d": 8, "d_t": 12},
               "qa": {"steps": 5}, "head": {"steps": 5}, "seeds": [1],
               "arms": ["weighted", "uniform"]}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from augqual.pipeline import pipeline_config_from_dict, run_pipeline\n"
             f"run_pipeline(pipeline_config_from_dict({doc!r}), {str(tmp_path)!r})\n"
             "print(sorted({'multiprocessing', 'concurrent.futures'} "
             "& set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "head_s1_uniform.bin").exists()
        assert proc.stdout.strip() == "[]"

    def test_version_exits_zero(self):
        proc = run("--version")
        assert proc.returncode == 0
        assert "augqual" in proc.stdout


class TestGenCorpus:
    def test_byte_deterministic(self, tmp_path):
        a = _gen(tmp_path, "a.bin")
        b = _gen(tmp_path, "b.bin")
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path):
        path = tmp_path / "c.bin"
        proc = run(*GEN, "--out", str(path), "--seed", "5", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["n_samples"] == 48
        assert doc["n_originals"] == 24
        assert len(doc["checksum"]) == 64


class TestStageCommands:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("stages")
        corpus = _gen(tmp_path)
        qa = tmp_path / "qa.json"
        w = tmp_path / "w.bin"
        head = tmp_path / "head.json"
        for cmd in (
            ["stage0", "--corpus", str(corpus), "--out", str(qa),
             "--seed", "5", "--steps", "30", "--hidden", "8",
             "--batch-size", "8"],
            ["score", "--corpus", str(corpus), "--qa", str(qa), "--out", str(w)],
            ["stage1", "--corpus", str(corpus), "--weights", str(w),
             "--out", str(head), "--seed", "5", "--steps", "30"],
        ):
            proc = run(*cmd)
            assert proc.returncode == 0, proc.stderr
        return corpus, qa, w, head

    def test_eval_fraction_zero_still_trains(self, artifacts, tmp_path):
        """Only the pipeline needs a held-out set: the stage commands train
        on every original with --eval-fraction 0."""
        corpus, _, w, _ = artifacts
        for out, cmd in ((tmp_path / "qa.json", ["stage0", "--hidden", "8"]),
                         (tmp_path / "head.json", ["stage1", "--weights", str(w)])):
            assert main([*cmd, "--corpus", str(corpus), "--out", str(out),
                         "--steps", "3", "--seed", "5", "--eval-fraction", "0"]) == 0
            assert out.exists()

    def test_eval_json_parses(self, artifacts):
        corpus, _, _, head = artifacts
        proc = run("eval", "--corpus", str(corpus), "--head", str(head),
                   "--json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert set(doc) >= {"n", "acc2", "acc5", "mae", "corr"}
        assert doc["n"] == 6   # 25% of 24 originals

    def test_stage1_uniform_without_weights(self, artifacts, tmp_path):
        corpus, _, _, _ = artifacts
        proc = run("stage1", "--corpus", str(corpus),
                   "--out", str(tmp_path / "u.json"), "--seed", "5",
                   "--steps", "5", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["weight_mode"] == "uniform"

    def _stage1_refuses(self, corpus, data, tmp_path):
        """stage1's stderr for the weight file bytes or text ``data``, which
        it must refuse with exit 1 and no head written."""
        edited = tmp_path / "edited.bin"
        edited.write_bytes(data if isinstance(data, bytes) else data.encode())
        head = tmp_path / "h_bad.bin"
        proc = run("stage1", "--corpus", str(corpus), "--weights", str(edited),
                   "--out", str(head), "--seed", "5", "--steps", "5")
        assert proc.returncode == 1, proc.stderr
        assert not head.exists()
        return proc.stderr

    @pytest.mark.parametrize("bad", (-5.0, 1e300, float("nan")),
                             ids=("negative", "huge", "nan"))
    def test_hand_edited_weight_rejected(self, artifacts, tmp_path, bad):
        # the file holds no weight: a value written over an augment's score
        # is refused, as it is no score in (0, 1)
        corpus, _, w, _ = artifacts
        doc = weight_doc(w.read_bytes())
        k = int(np.flatnonzero(load_corpus(corpus).augmented)[0])
        doc["scores"][k] = bad
        assert self._stage1_refuses(corpus, weight_file(doc), tmp_path) == (
            f"error: weight file gives row {k} score {bad!r}, outside (0, 1)\n")

    def test_weight_edited_apart_from_its_score_rejected(self, artifacts, tmp_path):
        # a column of weights written after the scores is refused for the
        # file's size
        corpus, _, w, _ = artifacts
        err = self._stage1_refuses(corpus, w.read_bytes() + np.full(48, 0.9).tobytes(),
                                   tmp_path)
        assert err.startswith("error: weight file holds ")
        assert err.endswith("-byte header plus 48 float64 scores\n")

    def test_weight_file_in_the_former_format_rejected(self, artifacts, tmp_path):
        """A weight file in either earlier JSON format as the program wrote
        it, one ``{"id", "score"}`` entry a row or, before that, entries that
        also stored an origin and a weight, is refused by a ``stage1
        --weights`` process, naming an earlier format and the way to a new
        file."""
        corpus, _, w, _ = artifacts
        c, wf = load_corpus(corpus), load_weight_file(w)
        for former in (False, True):
            assert self._stage1_refuses(corpus, json_weight_file(c, wf, former),
                                        tmp_path) == (
                "error: weight file holds indented JSON, an earlier format: this "
                "build reads only binary files; re-run augqual score to rewrite it\n")

    def test_only_score_and_weighted_stage1_hash_the_corpus(self, artifacts, tmp_path,
                                                            monkeypatch, capsys):
        """A loaded corpus is hashed when its checksum is first read, so
        stage0, stage1 without --weights and eval make no SHA-256 call over
        it; score prints the file's SHA-256 and stage1 --weights checks it."""
        corpus, qa, w, head = artifacts
        calls = []

        def sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(corpus_module, "hashlib", SimpleNamespace(sha256=sha256))
        given = ["--corpus", str(corpus), "--seed", "5", "--steps", "3"]
        for argv in (["stage0", *given, "--hidden", "8", "--out", str(tmp_path / "q")],
                     ["stage1", *given, "--out", str(tmp_path / "u")],
                     ["eval", "--corpus", str(corpus), "--head", str(head)]):
            assert main(argv) == 0 and calls == [], argv
        capsys.readouterr()
        assert main(["score", "--corpus", str(corpus), "--qa", str(qa),
                     "--out", str(tmp_path / "w"), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)["corpus_checksum"]
        assert printed == hashlib.sha256(corpus.read_bytes()).hexdigest()
        assert len(calls) == 1
        assert main(["stage1", *given, "--weights", str(w),
                     "--out", str(tmp_path / "h")]) == 0
        assert len(calls) == 2

    def test_score_reports_one_entry_per_corpus_row(self, artifacts, tmp_path, capsys):
        corpus, qa, _, _ = artifacts
        w = tmp_path / "w_json.bin"
        assert main(["score", "--corpus", str(corpus), "--qa", str(qa),
                     "--out", str(w), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        header = weight_doc(w.read_bytes())["header"]
        digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
        assert doc == {"path": str(w), "rows": 48,
                       "qa_checksum": header["qa_checksum"], "corpus_checksum": digest}
        assert header["corpus_checksum"] == digest and header["rows"] == 48
        assert main(["score", "--corpus", str(corpus), "--qa", str(qa),
                     "--out", str(w)]) == 0
        assert capsys.readouterr().out == f"wrote 48 scores to {w}\n"

    def test_checksum_of_file_with_trailing_blank_line(self, artifacts, tmp_path):
        """A trailing newline is a byte past the last row, so the file is
        refused; a header padded with 8 more spaces than the writer puts is
        a whole file, and its checksum is that of its bytes."""
        corpus, qa, _, _ = artifacts
        trailing = tmp_path / "trailing.bin"
        trailing.write_bytes(corpus.read_bytes() + b"\n")
        proc = run("score", "--corpus", str(trailing), "--qa", str(qa),
                   "--out", str(tmp_path / "w_trailing.bin"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: corpus file holds ")
        padded = tmp_path / "padded.bin"
        padded.write_bytes(corpus.read_bytes().replace(b"\n", b"        \n", 1))
        w = tmp_path / "w_padded.bin"
        proc = run("score", "--corpus", str(padded), "--qa", str(qa),
                   "--out", str(w), "--json")
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(padded.read_bytes()).hexdigest()
        assert json.loads(proc.stdout)["corpus_checksum"] == digest
        proc = run("stage1", "--corpus", str(padded), "--weights", str(w),
                   "--out", str(tmp_path / "h_padded.json"), "--seed", "5",
                   "--steps", "5")
        assert proc.returncode == 0, proc.stderr

    def test_run_log_written(self, artifacts, tmp_path):
        corpus, _, w, _ = artifacts
        log = tmp_path / "run.jsonl"
        proc = run("stage1", "--corpus", str(corpus), "--weights", str(w),
                   "--out", str(tmp_path / "h2.json"), "--seed", "5",
                   "--steps", "7", "--run-log", str(log))
        assert proc.returncode == 0
        rows = [json.loads(x) for x in log.read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(7))


class TestStageByStageMatchesPipeline:
    @pytest.mark.parametrize("label_fraction", ["1.0", "0.5"])
    def test_readme_flow_reproduces_pipeline(self, tmp_path, label_fraction):
        seed = "3"
        gen = ["gen-corpus", "--n-originals", "24", "--augments", "2",
               "--d", "8", "--d-t", "12", "--p-swap", "0.15",
               "--p-degrade", "0.15", "--p-label-noise", "0.15"]
        c = ["--corpus", str(tmp_path / "corpus.bin")]
        labels = ["--label-fraction", label_fraction]
        for cmd in (
            [*gen, "--out", str(tmp_path / "corpus.bin"), "--seed", seed],
            ["stage0", *c, "--out", str(tmp_path / "qa.json"), "--seed", seed,
             "--steps", "40", *labels],
            ["score", *c, "--qa", str(tmp_path / "qa.json"),
             "--out", str(tmp_path / "weights.bin")],
            ["stage1", *c, "--weights", str(tmp_path / "weights.bin"),
             "--out", str(tmp_path / "head.json"), "--seed", seed,
             "--steps", "30", "--run-log", str(tmp_path / "trace.jsonl"), *labels],
            ["stage1", *c, "--out", str(tmp_path / "head_uniform.json"),
             "--seed", seed, "--steps", "30", *labels],
        ):
            proc = run(*cmd)
            assert proc.returncode == 0, proc.stderr
        res = run_pipeline(PipelineConfig(
            corpus=CorpusConfig(n_originals=24, d=8, d_t=12, profile=DEFAULT_PROFILE),
            seeds=(3,), arms=("weighted", "uniform"),
            split=SplitConfig(label_fraction=float(label_fraction)),
            qa=QaConfig(steps=40), head=HeadConfig(steps=30)), tmp_path / "pipe")
        pairs = {"corpus.bin": "corpus_s3", "qa.json": "qa_s3",
                 "weights.bin": "weights_s3", "head.json": "head_s3_weighted",
                 "trace.jsonl": "runlog_s3_weighted",
                 "head_uniform.json": "head_s3_uniform"}
        for name, key in pairs.items():
            assert (tmp_path / name).read_bytes() == res.paths[key].read_bytes(), name
        for head, arm in (("head.json", "weighted"), ("head_uniform.json", "uniform")):
            proc = run("eval", *c, "--head", str(tmp_path / head), "--json")
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == res.report["arms"][arm]["per_seed"]["3"]


def _mutants():
    """(case, edit) pairs; edit(corpus, rng) damages a clean corpus at a row
    the seeded rng picks and returns the damaged corpus, saved with
    save_corpus, or the damaged file bytes."""
    def column(name, fn):
        """Replace a seeded row's value of the column by fn(row value, rng)."""
        def edit(c, rng):
            values = np.array(getattr(c.features, name) if name in ("V", "A", "T")
                              else getattr(c, name))
            k = rng.integers(len(c))
            values[k] = fn(values[k], rng)
            return corpus_with(c, **{name: values})
        return edit

    def augment(fn):
        """Give a seeded augment the parent fn(its row, augment rows)."""
        def edit(c, rng):
            augs = np.flatnonzero(c.augmented)
            parent = np.array(c.parent)
            k = augs[rng.integers(len(augs))]
            parent[k] = fn(k, augs, len(c))
            return corpus_with(c, parent=parent)
        return edit

    def verbal(**changes):
        """The file with the header's verbal table, from which every row's
        target tokens are derived, given the changes."""
        return lambda c, rng: with_header(corpus_file(c), lambda h: {
            **h, "verbal": {**h["verbal"], **changes}})

    def no_text_column(c, rng):
        """The file without the T column's bytes."""
        data, f = corpus_file(c), c.features
        start = data.index(b"\n") + 1 + f.V.nbytes + f.A.nbytes
        return data[:start] + data[start + f.T.nbytes:]

    return [
        # beyond float64, a value can only be stored as infinity
        ("sentiment 1e400", column("sentiment", lambda v, rng: np.inf)),
        ("hidden_quality 1e400", column("hidden_quality", lambda v, rng: np.inf)),
        ("unresolvable parent", augment(lambda k, augs, n: n + 5)),
        ("parent is an augment",
         augment(lambda k, augs, n: next(b for b in augs if b != k))),
        ("NaN feature", column("V", lambda v, rng: _poke(v, rng, np.nan))),
        ("inf feature", column("T", lambda v, rng: _poke(v, rng, np.inf))),
        ("feature block a byte long", lambda c, rng: corpus_file(c) + b"\0"),
        ("hidden_quality 2", column("hidden_quality", lambda v, rng: 2.0)),
        ("NaN sentiment", column("sentiment", lambda v, rng: np.nan)),
        ("missing field", lambda c, rng: corpus_file(c)[:-len(c)]),
        ("parent -2", augment(lambda k, augs, n: -2)),
        ("has_audio byte 2", lambda c, rng: corpus_file(c)[:-1] + b"\2"),
        ("audio features without audio",
         lambda c, rng: corpus_with(c, has_audio=np.arange(len(c)) != 3)),
        ("a row more than the header says", lambda c, rng: with_header(
            corpus_file(c), lambda h: {**h, "rows": h["rows"] - 1})),
        ("h_t_raw=None", no_text_column),
        # target tokens outside the vocabulary or the token range, or a
        # table one bin token short, come only from the header's table
        ("token 9 of vocab 8", verbal(eos_token=9)),
        ("token -1", verbal(class_tokens=[-1, 0, 1, 2, 3])),
        ("token 0.5", verbal(class_tokens=[2, 0.5, 4, 5, 6])),
        ("token 1e30", verbal(eos_token=10 ** 30)),
        ("short target list", verbal(class_tokens=[2, 3, 4, 5])),
    ]


@pytest.fixture(scope="module")
def clean_artifacts(tmp_path_factory):
    """A clean corpus and the scorer, weight file and head built from it."""
    tmp = tmp_path_factory.mktemp("artifacts")
    paths = {name: tmp / f"{name}.bin" for name in ("scorer", "weights", "head")}
    corpus = tmp / "c.bin"
    c = ["--corpus", str(corpus)]
    for cmd in (
        [*GEN, "--out", str(corpus), "--seed", "5"],
        ["stage0", *c, "--out", str(paths["scorer"]), "--seed", "5",
         "--steps", "5", "--hidden", "8", "--batch-size", "8"],
        ["score", *c, "--qa", str(paths["scorer"]), "--out", str(paths["weights"])],
        ["stage1", *c, "--weights", str(paths["weights"]),
         "--out", str(paths["head"]), "--seed", "5", "--steps", "5"],
    ):
        assert main(cmd) == 0
    return corpus, paths


def _locate(doc, path, rng):
    """The container holding the last key of path, and that key; a "*" key
    is an entry the seeded rng picks."""
    def pick(at, key):
        return int(rng.integers(len(at))) if key == "*" else key
    for key in path[:-1]:
        doc = doc[pick(doc, key)]
    return doc, pick(doc, path[-1])


def _put(*path, value):
    def edit(doc, rng):
        at, key = _locate(doc, path, rng)
        at[key] = value
        return doc
    return edit


def _drop(*path):
    def edit(doc, rng):
        at, key = _locate(doc, path, rng)
        del at[key]
        return doc
    return edit


def _change(*path, fn):
    """Replace the value at path with fn(value, rng)."""
    def edit(doc, rng):
        at, key = _locate(doc, path, rng)
        at[key] = fn(at[key], rng)
        return doc
    return edit


def _poke(value, rng, new):
    """A number replaced by new, or a nested list or an array with one
    seeded element replaced by new."""
    if not isinstance(value, (list, np.ndarray)):
        return new
    arr = np.array(value, dtype=object if isinstance(value, list) else None)
    arr.flat[rng.integers(arr.size)] = new
    return arr.tolist() if isinstance(value, list) else arr


def _header_mutants():
    """(case, edit) pairs; edit(header, rng) returns the damaged parsed header."""
    return [
        ("header is a list", lambda h, rng: [h]),
        ("d='8'", _put("d", value="8")),
        ("d=8.0", _put("d", value=8.0)),
        ("vocab_size=True", _put("vocab_size", value=True)),
        ("generator_version=1", _put("generator_version", value=1)),
        ("verbal missing", _drop("verbal")),
        ("verbal is a list", _put("verbal", value=[])),
        ("string sign token", _put("verbal", "sign_tokens", 0, value="1")),
        ("bool eos token", _put("verbal", "eos_token", value=True)),
        ("string class value", _put("verbal", "class_values", 0, value="x")),
        ("one sign token", _drop("verbal", "sign_tokens", 1)),
        ("class values short", _drop("verbal", "class_values", -1)),
    ]


class TestCorruptCorpusMutations:
    """Every damaged corpus makes stage0 exit 1 with an error line: never a
    traceback, never a trained scorer."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("clean") / "c.bin"
        assert main([*GEN, "--out", str(path), "--seed", "5"]) == 0
        return load_corpus(path)

    def _stage0(self, tmp_path, capsys, damaged):
        path = tmp_path / "bad.bin"
        if isinstance(damaged, bytes):
            path.write_bytes(damaged)
        else:
            save_corpus(damaged, path)
        capsys.readouterr()
        rc = main(["stage0", "--corpus", str(path), "--out",
                   str(tmp_path / "qa.json"), "--seed", "1", "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "qa.json").exists()
        return err

    @pytest.mark.parametrize("case, edit", _mutants(), ids=[c for c, _ in _mutants()])
    def test_mutant_rejected(self, clean, tmp_path, capsys, case, edit):
        self._stage0(tmp_path, capsys, edit(clean, np.random.default_rng(sum(map(ord, case)))))

    @pytest.mark.parametrize("case, edit", _header_mutants(),
                             ids=[c for c, _ in _header_mutants()])
    def test_header_mutant_rejected(self, clean, tmp_path, capsys, case, edit):
        self._stage0(tmp_path, capsys,
                     with_header(corpus_file(clean), lambda h: edit(h, None)))

    @pytest.mark.parametrize("seed", range(3))
    def test_truncated_line_rejected(self, clean, tmp_path, capsys, seed):
        """The file cut at a seeded byte: inside the header line for seed 0,
        inside the columns otherwise."""
        rng = np.random.default_rng(seed)
        data = corpus_file(clean)
        end = data.index(b"\n") + 1
        cut = int(rng.integers(1, end) if seed == 0 else rng.integers(end, len(data)))
        err = self._stage0(tmp_path, capsys, data[:cut])
        assert ("bad corpus header" if seed == 0 else "corpus file holds") in err

    def test_defects_exit_cleanly_as_a_process(self, clean, tmp_path):
        # defects that would index past the rows or read a byte as a bool
        # if the loader let them through
        parent = np.array(clean.parent)
        parent[-1] = len(clean)
        data = corpus_file(clean)
        for damaged in (corpus_file(corpus_with(clean, parent=parent)),
                        data[:-1] + b"\x07", data[:len(data) // 2]):
            path = tmp_path / "bad.bin"
            path.write_bytes(damaged)
            proc = run("stage0", "--corpus", str(path), "--out",
                       str(tmp_path / "qa.json"), "--seed", "1", "--steps", "2")
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr


# JSON values of every type but the one a field holds; an int field also
# refuses 1.5, a number field accepts it. An array holds numbers.
_WRONG = {"text": "x", "float": 1.5, "bool": True, "null": None, "list": [],
          "object": {}}
_KEEPS = {"int": (), "num": ("float",), "str": ("text",), "obj": ("object",),
          "list": ("list",), "block": ()}
# (field path, kind) of every field the snapshot loaders read
_ARTIFACT_FIELDS = {
    "scorer": [(("kind",), "str"), (("header",), "obj"), (("params",), "obj"),
               *((("header", k), "int") for k in ("d", "d_t", "vocab_size", "seed")),
               (("header", "generator_version"), "str"), (("header", "verbal"), "obj"),
               *((("params", k), "block") for k in (
                   "text_proj_w", "text_proj_b", "polarity_emb", "hidden_w",
                   "hidden_b", "out_w", "out_b"))],
    "head": [(("kind",), "str"), (("d",), "int"), (("d_t",), "int"),
             (("params",), "obj"),
             *((("params", k), "block") for k in ("in_w", "in_b", "out_w", "out_b"))],
}


def _field_mutants(fields):
    """(case, edit) pairs damaging each (name, path, kind) of ``fields``: the
    field missing, of each JSON type it does not take, and a number
    non-finite."""
    cases = []
    for name, path, kind in fields:
        if path[-1] != "*":
            cases.append((f"{name} missing", _drop(*path)))
        cases += [(f"{name}={label}", _put(*path, value=value))
                  for label, value in _WRONG.items() if label not in _KEEPS[kind]]
        if kind == "num":
            cases += [(f"{name} {bad}", _change(*path, fn=lambda v, rng, b=bad:
                                                 _poke(v, rng, float(b))))
                      for bad in ("nan", "inf", "-inf")]
    return cases


def _artifact_mutants():
    """(artifact, case, edit, expected) tuples; edit(doc, rng) returns the
    damaged parsed document (a snapshot as ``oracles.snapshot_doc`` reads
    it, a weight file as ``oracles.weight_doc`` does), or the damaged file's
    text or bytes when it returns a str or bytes, and the refusal holds the
    text ``expected``."""
    def truncate(doc, rng):
        data = snapshot_file(doc)
        return data[:int(rng.integers(1, len(data) - 2))]

    cases = []
    for artifact, fields in _ARTIFACT_FIELDS.items():
        def add(case, edit):
            cases.append((artifact, f"{artifact} {case}", edit, "error: "))
        add("file holds a list", lambda doc, rng: [doc])
        add("file holds a number", lambda doc, rng: 3)
        add("file holds null", lambda doc, rng: None)
        for cut in range(3):
            add(f"truncated {cut}", truncate)
        for path, kind in fields:
            name = "/".join(path)
            for case, edit in _field_mutants([(name, path, kind)]):
                add(case, edit)
            if kind == "block":
                for case, fn in _block_mutants():
                    add(f"{name} {case}", _change(*path, fn=fn))
                add(f"{name} non-alphabet character", _non_text_in_shape(path[-1]))
    return cases + [("weights", f"weights {case}", edit, expected)
                    for case, edit, expected in _weight_mutants()]


def _score_bytes(value) -> bytes:
    """A JSON value put where the JSON weight file held a score, as the bytes
    the array file holds in a score's place instead: a number as its float64
    (true as 1.0), null as NaN, any other value as its JSON text."""
    if value is None or isinstance(value, (bool, int, float)):
        return struct.pack("<d", math.nan if value is None else value)
    return json.dumps(value).encode()


def _weight_mutants():
    """(case, edit, expected) of the weight file. Each case keeps the name it
    had when the weight file was JSON, ``{"metadata": {map, checksums,
    created_at}, "entries": [{"id", "score"}, ...]}``, and makes that damage
    to the array file: "metadata" is the header's weight_map, or the header
    itself for a checksum; an entry's id is the header's rows, which binds
    each score to its row as the ids did; "entries" are the scores after the
    header, an entry a seeded score, and a value put there is written as
    ``_score_bytes`` gives it. Damage to created_at, or to the origin and
    weight each entry stored in the format before, is made to the file in
    that earlier format (``oracles.json_weight_file``), which is refused as
    one. Cases the JSON file had no name for follow."""
    header = {"metadata": ("header", "weight_map"),
              **{f"metadata/{k}": ("header", "weight_map", k)
                 for k in ("w_min", "w_max", "gamma")},
              **{f"metadata/{k}": ("header", k) for k in ("qa_checksum", "corpus_checksum")},
              "entries/*/id": ("header", "rows"), "kind": ("header", "kind")}
    kinds = {"metadata": "obj", "metadata/qa_checksum": "str",
             "metadata/corpus_checksum": "str", "entries/*/id": "int", "kind": "str"}
    cases = [(case, edit, "error: ") for case, edit in _field_mutants(
        [(name, path, kinds.get(name, "num")) for name, path in header.items()])]

    def put_score(value):
        return _put("scores", "*", value=value)
    for entry, kind in (("entries/*", "obj"), ("entries/*/score", "num")):
        cases += [(f"{entry}={label}", put_score(_score_bytes(value)), "error: ")
                  for label, value in _WRONG.items() if label not in _KEEPS[kind]]
    cases += [(f"entries/*/score {bad}", put_score(float(bad)), "error: ")
              for bad in ("nan", "inf", "-inf")]
    cases += [("entries/*/score missing", _drop("scores", "*"), "error: "),
              ("entries missing", _drop("scores"), "error: "),
              *((f"entries={label}", _put("scores", value=[_score_bytes(value)]), "error: ")
                for label, value in _WRONG.items() if label != "list"),
              ("entries string element", put_score(b'"0.5"'), "error: "),
              ("entries last row dropped", _change("scores", fn=lambda v, rng: v[:-1]),
               "error: "),
              ("entries extra axis", _change("header", "rows", fn=lambda v, rng: [v]),
               "error: ")]

    def earlier(edit, former=False):
        """The edit made to the file in the earlier JSON format; ``former``
        first gives each entry the origin and weight that format stored."""
        def text(doc, rng):
            old = doc["json"]
            if former:
                for e in old["entries"]:
                    origin = "Augmented" if "-a" in e["id"] else "Original"
                    e.update(origin=origin, weight=1.0)
            return json.dumps(edit(old, rng), indent=1, sort_keys=True) + "\n"
        return text

    def relabel(doc, rng):
        augs = [e for e in doc["entries"] if e["origin"] == "Augmented"]
        augs[rng.integers(len(augs))].update(origin="Original", weight=1.0)
        return doc
    stored = [("metadata/created_at", ("metadata", "created_at"), "str", False),
              ("entries/*/origin", ("entries", "*", "origin"), "str", True),
              ("entries/*/weight", ("entries", "*", "weight"), "num", True)]
    cases += [(case, earlier(edit, former), "an earlier format")
              for name, path, kind, former in stored
              for case, edit in _field_mutants([(name, path, kind)])]
    cases.append(("augment relabelled Original at weight 1",
                  earlier(relabel, former=True), "an earlier format"))

    def truncate(doc, rng):
        data = weight_file(doc)
        return data[:int(rng.integers(1, len(data) - 2))]
    cases += [
        ("metadata/bogus", _put("header", "weight_map", "bogus", value=1),
         "error: unknown weight file header key: weight_map.bogus\n"),
        ("extra", _put("header", "extra", value=[1]),
         "error: unknown weight file header key: extra\n"),
        ("file holds a list", _change("header", fn=lambda v, rng: [v]),
         "error: not a weight file\n"),
        *((f"file holds {what}", _put("header", value=value),
           "error: not a weight file\n") for what, value in (("a number", 3), ("null", None))),
        *((f"truncated {cut}", truncate, "error: ") for cut in range(3)),
        ("rows -1", _put("header", "rows", value=-1),
         "error: WeightFileHeader.rows must be in [0, inf), got -1\n"),
        ("rows one less, its score dropped", lambda doc, rng: {
            **doc, "header": {**doc["header"], "rows": doc["header"]["rows"] - 1},
            "scores": doc["scores"][:-1]},
         "error: weight file holds 47 scores, the corpus 48 rows\n"),
        ("one score long", _change("scores", fn=lambda v, rng: v + [0.5]),
         "error: weight file holds "),
        *((f"score {bad}", put_score(bad), "outside (0, 1)\n") for bad in (0.0, 1.0)),
    ]
    return cases


def _non_text_in_shape(key):
    """An edit giving the snapshot file with a byte that is not UTF-8 put
    inside the shape its header line gives parameter ``key``."""
    def edit(doc, rng):
        data = snapshot_file(doc)
        at = data.index(f'"{key}":['.encode()) + len(key) + 4
        return data[:at] + b"\xe9" + data[at:]
    return edit


def _block_mutants():
    """(case, fn) pairs; fn(entry, rng) returns a damaged snapshot parameter,
    given the clean ``{"shape": [...], "data": values}`` that
    ``oracles.snapshot_file`` writes as the shape in the header line and the
    float64 bytes in the body. Each case restates on the binary format the
    damage it once did to a parameter's base64 block: a block cut short of
    whole base64 quanta ("bad padding") is a body cut short of whole floats,
    data given as a number is the number's text in the body, and a missing
    shape or missing data leaves the parameter out of the header or the
    body."""
    def poke(new):
        def fn(e, rng):
            v = e["data"].copy()
            v.flat[rng.integers(v.size)] = new
            return {**e, "data": v}
        return fn

    def shape(fn):
        return lambda e, rng: {**e, "shape": fn(list(e["shape"]), rng)}

    def dim(new):
        def fn(s, rng):
            s[rng.integers(len(s))] = new
            return s
        return shape(fn)

    def data(fn):
        return lambda e, rng: {**e, "data": fn(e["data"], rng)}

    return [
        ("nan", poke(np.nan)), ("inf", poke(np.inf)), ("-inf", poke(-np.inf)),
        ("string element", dim("1")),
        ("last row dropped", lambda e, rng: {"shape": [len(e["data"]) - 1,
                                                       *e["shape"][1:]],
                                             "data": e["data"][:-1]}),
        ("extra axis", shape(lambda s, rng: [1, *s])),
        ("bad padding", data(lambda v, rng: v.astype("<f8").tobytes()[:-1])),
        ("one float short", data(lambda v, rng: v.ravel()[:-1])),
        ("one float long", data(lambda v, rng: np.append(v, 0.5))),
        ("shape disagrees with byte count", shape(lambda s, rng: [s[0] + 1, *s[1:]])),
        ("data a number", data(lambda v, rng: b"5.0")),
        ("shape entry a float", dim(1.0)),
        ("shape entry a bool", dim(True)),
        ("negative shape entry", dim(-1)),
        ("shape missing", lambda e, rng: {"data": e["data"]}),
        ("data missing", lambda e, rng: {"shape": e["shape"]}),
        ("decimal list", lambda e, rng: e["data"].tolist()),
    ]


def _format_mutants():
    """(case, edit) pairs; edit(corpus, rng) returns the bytes of a clean
    corpus's file with a feature column of the wrong length or a bad value at
    a seeded place, a header line that is not padded or not text, or in
    another format version."""
    def feature(name, fn):
        def edit(c, rng):
            values = np.array(getattr(c.features, name))
            values.flat[rng.integers(values.size)] = fn
            return corpus_file(corpus_with(c, **{name: values}))
        return edit

    def column(name, fn):
        """The file with the bytes of the feature column V or A, rows x d
        floats, given as fn(column bytes)."""
        def edit(c, rng):
            data = corpus_file(c)
            start = data.index(b"\n") + 1 + (c.features.V.nbytes if name == "A" else 0)
            end = start + getattr(c.features, name).nbytes
            return data[:start] + fn(data[start:end]) + data[end:]
        return edit

    def header_line(fn):
        """The file with the header line, newline excluded, given as
        fn(line, rng)."""
        def edit(c, rng):
            line, rest = corpus_file(c).split(b"\n", 1)
            return fn(line, rng) + b"\n" + rest
        return edit

    def non_text(line, rng):
        """The line with a byte that is not UTF-8 put at a seeded place."""
        i = int(rng.integers(len(line)))
        return line[:i] + b"\xe9" + line[i + 1:]

    return [
        ("block one float short", column("V", lambda v: v[:-8])),
        ("block one float long", column("V", lambda v: v + struct.pack("<d", 0.5))),
        ("h_a a number", column("A", lambda a: struct.pack("<d", 5.0))),
        ("NaN payload", feature("A", np.nan)),
        ("inf payload", feature("T", -np.inf)),
        ("bad padding", header_line(lambda line, rng: line + b" ")),
        ("non-alphabet character", header_line(non_text)),
        ("generator_version augqual-gen-1", lambda c, rng: with_header(
            corpus_file(c), lambda h: {**h, "generator_version": "augqual-gen-1"})),
        ("v1 record with decimal lists",
         lambda c, rng: _jsonl_file(c, "augqual-gen-1").encode()),
    ]


def _corpus_commands(corpus, artifacts, out):
    """Every command that loads a corpus, reading ``corpus`` and writing
    ``out`` (eval prints instead), with clean artifacts for its other inputs."""
    c = ["--corpus", str(corpus)]
    return {"stage0": ["stage0", *c, "--out", str(out), "--seed", "1", "--steps", "2"],
            "score": ["score", *c, "--qa", str(artifacts["scorer"]), "--out", str(out)],
            "stage1": ["stage1", *c, "--weights", str(artifacts["weights"]),
                       "--out", str(out), "--seed", "5", "--steps", "2"],
            "eval": ["eval", *c, "--head", str(artifacts["head"]), "--json"]}


def _jsonl_file(corpus, version: str) -> str:
    """The corpus as a file of an earlier, line-oriented format: a header
    line, then one JSON record a row with base64 feature blocks; the second
    format's records also stored their polarity, origin and padded target
    tokens, and the first format's held features as decimal lists."""
    header = {**config_to_dict(corpus.header), "generator_version": version}
    block = (lambda v: v.tolist()) if version == "augqual-gen-1" else float_block
    lines = [json.dumps(header)]
    for s in samples_of(corpus):
        rec = {"id": s.id, "h_v": block(s.h_v),
               "h_a": None if s.h_a is None else block(s.h_a),
               "h_t_raw": block(s.h_t_raw), "sentiment": s.sentiment,
               "parent_id": s.parent_id, "hidden_quality": s.hidden_quality}
        if version == "augqual-gen-2":
            rec.update(polarity=int(s.sentiment >= 0),
                       origin="Original" if s.parent_id is None else "Augmented",
                       target_tokens=[*encode(VerbalScheme(), s.sentiment), -100])
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


class TestCorpusFormatMutations:
    """Every corpus file with a feature column of the wrong length or a
    non-finite value, a header line not padded to 8 bytes or not UTF-8, or in
    another format version, makes each command that
    loads a corpus (stage0, score, stage1 --weights, eval) exit 1 with an
    error line: never a traceback, never an output."""

    @pytest.mark.parametrize("command", ("stage0", "score", "stage1", "eval"))
    @pytest.mark.parametrize("case, edit", _format_mutants(),
                             ids=[c for c, _ in _format_mutants()])
    def test_mutant_rejected(self, clean_artifacts, tmp_path, capsys, case, edit,
                             command):
        corpus, artifacts = clean_artifacts
        bad, out = tmp_path / "bad.bin", tmp_path / "out.json"
        bad.write_bytes(edit(load_corpus(corpus),
                             np.random.default_rng(sum(map(ord, case)))))
        capsys.readouterr()
        rc = main(_corpus_commands(bad, artifacts, out)[command])
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith("error: ") and "Traceback" not in printed.err
        assert printed.out == "" and not out.exists()

    def test_defects_exit_cleanly_as_a_process(self, clean_artifacts, tmp_path):
        # a file of each earlier, line-oriented format, and a header whose d
        # once ended stage0 and eval in numpy's "Maximum allowed dimension
        # exceeded" traceback
        corpus, artifacts = clean_artifacts
        clean = load_corpus(corpus)
        huge = with_header(corpus.read_bytes(), lambda h: {**h, "d": 10 ** 20})
        every = ("stage0", "score", "stage1", "eval")
        for data, commands, message in (
                (_jsonl_file(clean, "augqual-gen-1").encode(), every,
                 "regenerate the corpus with gen-corpus"),
                (_jsonl_file(clean, "augqual-gen-2").encode(), every,
                 "'augqual-gen-2': this build reads only 'augqual-gen-4' files; "
                 "regenerate the corpus with gen-corpus"),
                (_jsonl_file(clean, "augqual-gen-3").encode(), every,
                 "'augqual-gen-3': this build reads only 'augqual-gen-4' files; "
                 "regenerate the corpus with gen-corpus"),
                (huge, ("stage0", "eval"), f"d must be in [1, {MAX_DIM}]")):
            bad, out = tmp_path / "bad.bin", tmp_path / "out.json"
            bad.write_bytes(data)
            for command in commands:
                proc = run(*_corpus_commands(bad, artifacts, out)[command])
                assert proc.returncode == 1, proc.stderr
                assert proc.stderr.startswith("error: ") and message in proc.stderr
                assert "Traceback" not in proc.stderr
                assert proc.stdout == "" and not out.exists()


def _verbal(**changes):
    return lambda h: {**h, "verbal": {**h["verbal"], **changes}}


# Corpus headers that every earlier check let through, each refused now: a
# key the header does not have, and verbal tables that decode wrongly.
_HEADER_EDITS = {
    "unknown key": lambda h: {**h, "comment": "made by hand"},
    "class tokens apart": lambda h: _verbal(class_tokens=[2, 4, 6, 8, 10])(
        {**h, "vocab_size": 11}),
    "class tokens descending": _verbal(class_tokens=[6, 5, 4, 3, 2]),
    "class value 5": _verbal(class_values=[-0.8, -0.4, 0.0, 0.4, 5.0]),
    "neutral value nan": _verbal(neutral_value=float("nan")),
}


class TestHeaderChecks:
    """A corpus header, or a scorer snapshot's echo of it, holding an unknown
    key or a verbal table that breaks decoding makes each command that reads
    it exit 1 with a ``bad corpus header`` line, before any output."""

    @pytest.mark.parametrize("command", ("stage1", "eval"))
    @pytest.mark.parametrize("case", _HEADER_EDITS)
    def test_corpus_header_refused(self, clean_artifacts, tmp_path, capsys, case,
                                   command):
        corpus, artifacts = clean_artifacts
        bad, out = tmp_path / "bad.bin", tmp_path / "head.json"
        bad.write_bytes(with_header(corpus.read_bytes(), _HEADER_EDITS[case]))
        argv = (["stage1", "--corpus", str(bad), "--out", str(out), "--seed", "5",
                 "--steps", "2"] if command == "stage1"
                else _corpus_commands(bad, artifacts, out)["eval"])
        capsys.readouterr()
        rc = main(argv)
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith("error: bad corpus header: ")
        assert printed.out == "" and not out.exists()

    def test_scorer_snapshot_header_refused(self, clean_artifacts, tmp_path, capsys):
        corpus, artifacts = clean_artifacts
        bad, out = tmp_path / "qa.bin", tmp_path / "weights.bin"
        bad.write_bytes(with_header(artifacts["scorer"].read_bytes(), lambda h: {
            **h, "header": {**h["header"], "comment": "made by hand"}}))
        capsys.readouterr()
        rc = main(["score", "--corpus", str(corpus), "--qa", str(bad),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: bad corpus header: unknown header key: comment\n"
        assert not out.exists()


def _json_snapshot(doc, block) -> str:
    """A snapshot in an earlier JSON format, as the program wrote it (keys
    sorted, one space a level): the header of ``doc`` with each parameter as
    ``block(values)``, a decimal list in the first format and a base64 block
    with its shape in the second."""
    return json.dumps({**doc, "params": {k: block(e["data"])
                                         for k, e in doc["params"].items()}},
                      indent=1, sort_keys=True) + "\n"


_EARLIER_FORMATS = {
    "first": lambda v: v.tolist(),
    "second": lambda v: {"shape": list(v.shape), "data": float_block(v)},
}


class TestCorruptArtifactMutations:
    """Every damaged scorer snapshot (through ``score``), head snapshot
    (through ``eval``) and weight file (through ``stage1 --weights``) exits 1
    with an error line: never a traceback, never an output."""

    @pytest.fixture(scope="class")
    def clean(self, clean_artifacts):
        corpus, paths = clean_artifacts
        weights = weight_doc(paths["weights"].read_bytes())
        weights["json"] = json.loads(json_weight_file(load_corpus(corpus),
                                                      load_weight_file(paths["weights"])))
        return corpus, {"scorer": snapshot_doc(paths["scorer"].read_bytes()),
                        "head": snapshot_doc(paths["head"].read_bytes()),
                        "weights": weights}

    @staticmethod
    def _command(artifact, corpus, bad, out):
        c = ["--corpus", str(corpus)]
        return {"scorer": ["score", *c, "--qa", str(bad), "--out", str(out)],
                "head": ["eval", *c, "--head", str(bad), "--json"],
                "weights": ["stage1", *c, "--weights", str(bad), "--out", str(out),
                            "--seed", "5", "--steps", "2"]}[artifact]

    @staticmethod
    def _write(path, artifact, damaged):
        if isinstance(damaged, str):
            path.write_text(damaged)
        elif isinstance(damaged, bytes):
            path.write_bytes(damaged)
        elif artifact == "weights":
            path.write_bytes(weight_file(damaged))
        else:
            path.write_bytes(snapshot_file(damaged))

    @pytest.mark.parametrize("artifact, case, edit, expected", _artifact_mutants(),
                             ids=[case for _, case, _, _ in _artifact_mutants()])
    def test_mutant_rejected(self, clean, tmp_path, capsys, artifact, case, edit,
                             expected):
        corpus, docs = clean
        damaged = edit(copy.deepcopy(docs[artifact]),
                       np.random.default_rng(sum(map(ord, case))))
        bad, out = tmp_path / "bad.bin", tmp_path / "out.json"
        self._write(bad, artifact, damaged)
        capsys.readouterr()
        rc = main(self._command(artifact, corpus, bad, out))
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith("error: ") and "Traceback" not in printed.err
        assert expected in printed.err
        assert printed.out == "" and not out.exists()

    @pytest.mark.parametrize("artifact", ("scorer", "head"))
    @pytest.mark.parametrize("fmt", _EARLIER_FORMATS)
    def test_earlier_json_format_rejected(self, clean, clean_artifacts, tmp_path,
                                          capsys, artifact, fmt):
        """A snapshot the program wrote as JSON, with decimal lists or with
        base64 blocks, is refused as an earlier format, the clean binary
        snapshot beside it being loadable."""
        corpus, docs = clean
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text(_json_snapshot(docs[artifact], _EARLIER_FORMATS[fmt]))
        capsys.readouterr()
        rc = main(self._command(artifact, corpus, bad, out))
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err == (f"error: {artifact} snapshot file holds indented JSON, an "
                               "earlier format: this build reads only binary files; "
                               "write it again\n")
        assert printed.out == "" and not out.exists()
        assert main(self._command(artifact, corpus, clean_artifacts[1][artifact],
                                  out)) == 0

    def test_defects_exit_cleanly_as_a_process(self, clean, tmp_path):
        # the defects once seen as a traceback or as metrics from NaN logits,
        # a snapshot in either earlier JSON format, and a head with the
        # fourth, padding position of the second corpus format's targets
        corpus, docs = clean
        scorer, head = docs["scorer"], docs["head"]

        def param(doc, key, values):
            values = np.asarray(values, dtype=np.float64)
            return {**doc, "params": {**doc["params"], key: {
                "shape": list(values.shape), "data": values}}}
        out_w, out_b = (head["params"][k]["data"] for k in ("out_w", "out_b"))
        four = param(param(head, "out_w", np.concatenate([out_w, out_w[-1:]])),
                     "out_b", np.concatenate([out_b, out_b[-1:]]))
        cases = (("scorer", snapshot_file([scorer]), "not a scorer snapshot file"),
                 ("scorer", snapshot_file({k: v for k, v in scorer.items()
                                           if k != "header"}),
                  "not kind, header, params"),
                 ("head", snapshot_file(param(head, "out_w", out_w[:-1])),
                  "param out_w"),
                 ("head", snapshot_file(param(head, "in_b", np.full(
                     head["params"]["in_b"]["shape"], np.nan))), "non-finite"),
                 *((artifact, _json_snapshot(docs[artifact], block).encode(),
                    "holds indented JSON, an earlier format")
                   for artifact in ("scorer", "head")
                   for block in _EARLIER_FORMATS.values()),
                 ("head", snapshot_file(four),
                  "error: head predicts 4 positions over 8 tokens; "
                  "the corpus needs 3 over 8\n"))
        for artifact, data, message in cases:
            bad, out = tmp_path / "bad.bin", tmp_path / "out.json"
            bad.write_bytes(data)
            proc = run(*self._command(artifact, corpus, bad, out))
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: ") and message in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == "" and not out.exists()


class TestTargetsMatchSentiment:
    def test_contradicting_record_refused_by_stage1(self, clean_artifacts, tmp_path):
        """A row's target tokens are derived from its sentiment, so a file
        cannot state others: one that carries a token column after its own
        columns is refused for its size, not trained on."""
        corpus, _ = clean_artifacts
        clean = load_corpus(corpus)
        tokens = np.tile([0, 2, 7], (len(clean), 1)).astype("<i8")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(corpus.read_bytes() + tokens.tobytes())
        head = tmp_path / "head.json"
        proc = run("stage1", "--corpus", str(bad), "--out", str(head),
                   "--seed", "5", "--steps", "5")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: corpus file holds "
                                      f"{bad.stat().st_size} bytes, not the ")
        assert not head.exists()


class TestBlasScope:
    """A stage command runs with BLAS held to one thread and leaves the
    thread count it found, also when it fails."""

    def test_one_thread_while_training(self, clean_artifacts, tmp_path, monkeypatch):
        corpus, _ = clean_artifacts
        threads, puts, seen = [3], [], []

        def put(n):
            puts.append(n)
            threads[0] = n

        monkeypatch.setattr(numerics, "_openblas", lambda: (lambda: threads[0], put))
        real = cli.train_stage1

        def train(*args, **kw):
            seen.append(threads[0])
            return real(*args, **kw)

        monkeypatch.setattr(cli, "train_stage1", train)
        argv = ["stage1", "--out", str(tmp_path / "head.json"), "--seed", "5",
                "--steps", "3"]
        assert main([*argv, "--corpus", str(corpus)]) == 0
        assert seen == [1] and puts == [1, 3] and threads == [3]
        bad = tmp_path / "bad.bin"
        clean = load_corpus(corpus)
        save_corpus(corpus_with(clean, sentiment=np.full(len(clean), np.nan)), bad)
        assert main([*argv, "--corpus", str(bad)]) == 1
        assert seen == [1] and puts == [1, 3, 1, 3] and threads == [3]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestExitPath:
    """``python -m augqual.cli`` and the ``augqual`` console script both
    exit through one function: main's exit code, stdout written in full
    down a pipe, and the collector frozen before the interpreter exits."""

    # run first: reports, as the interpreter exits, whether gc.freeze ran
    PROBE = ("import atexit, gc, sys; atexit.register(lambda: print("
             "f'frozen {gc.get_freeze_count() > 0}', file=sys.stderr)); ")

    @staticmethod
    def _launcher(kind):
        if kind == "-m":
            return "import runpy; runpy.run_module('augqual.cli', run_name='__main__')"
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
        module, func = scripts["augqual"].split(":")
        return f"from {module} import {func}; {func}()"

    @pytest.mark.parametrize("kind", ["-m", "console script"])
    def test_exit_codes_and_piped_stdout(self, clean_artifacts, tmp_path, capsys,
                                         kind):
        corpus, paths = clean_artifacts
        code = self.PROBE + self._launcher(kind)
        evaluate = ["eval", "--corpus", str(corpus), "--head", str(paths["head"]),
                    "--json"]
        cases = (
            (["--version"], 0),
            (["make-it-so"], 1),
            (["stage0", "--corpus", str(tmp_path / "absent.bin"),
              "--out", str(tmp_path / "qa.json"), "--seed", "1"], 2),
            (evaluate, 0),
        )
        for argv, want in cases:
            proc = subprocess.run([sys.executable, "-c", code, *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == want, (argv, proc.stderr)
            assert proc.stderr.splitlines()[-1] == "frozen True", argv
        assert not (tmp_path / "qa.json").exists()
        capsys.readouterr()
        assert main(evaluate) == 0
        assert proc.stdout == capsys.readouterr().out
        assert set(json.loads(proc.stdout)) >= {"n", "acc2", "acc5", "mae", "corr"}


CONFIG = {
    "corpus": {"n_originals": 24, "augments_per_original": 1, "d": 8,
               "d_t": 12, "profile": {"p_swap": 0.1, "p_degrade": 0.1,
                                      "p_label_noise": 0.1}},
    "qa": {"steps": 20, "hidden": 8, "batch_size": 8},
    "head": {"steps": 20},
    "seeds": [1, 2],
}


class TestPipelineCommand:
    def test_pipeline_and_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        out = tmp_path / "results"
        proc = run("pipeline", "--out", str(out), "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert "weighted" in proc.stdout
        proc = run("report", "--results", str(out), "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "pipeline_report"

    def test_dump_csv(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        out = tmp_path / "results"
        assert run("pipeline", "--out", str(out), "--config",
                   str(cfg)).returncode == 0
        csv_path = tmp_path / "rows.csv"
        proc = run("report", "--results", str(out), "--dump-csv", str(csv_path))
        assert proc.returncode == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["arm", "seed"]
        assert len(rows) == 1 + 4 * 2

    def test_seeds_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "arms": ["original_only"]}))
        out = tmp_path / "results"
        proc = run("pipeline", "--out", str(out), "--config", str(cfg),
                   "--seeds", "9", "--json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["seeds"] == [9]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "turbo": True}))
        proc = run("pipeline", "--out", str(tmp_path / "r"), "--config",
                   str(cfg))
        assert proc.returncode == 1
        assert "unknown config key: turbo" in proc.stderr

    def test_malformed_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        proc = run("pipeline", "--out", str(tmp_path / "r"), "--config",
                   str(cfg))
        assert proc.returncode == 1
        assert "bad JSON" in proc.stderr

    def test_report_on_non_report_dir(self, tmp_path):
        (tmp_path / "report.json").write_text('{"kind": "other"}')
        proc = run("report", "--results", str(tmp_path))
        assert proc.returncode == 1
        assert "not a pipeline report" in proc.stderr

    @pytest.mark.parametrize("command, content, code", (
        ("pipeline", None, 2), ("pipeline", b"[1, 2]", 1), ("pipeline", b"\xff{}", 1),
        ("report", None, 2), ("report", b"{not json", 1), ("report", b"\xff{}", 1)),
        ids=("config missing", "config a list", "config not UTF-8", "report missing",
             "report bad JSON", "report not UTF-8"))
    def test_json_input_exit_codes(self, tmp_path, capsys, command, content, code):
        """``pipeline --config`` and ``report --results`` read their JSON
        through util.load_json_object: a missing file exits 2, and a file
        that is not UTF-8 JSON or holds no object exits 1, each with an error
        line naming the file and nothing written."""
        path = tmp_path / ("cfg.json" if command == "pipeline" else "report.json")
        if content is not None:
            path.write_bytes(content)
        argv = (["pipeline", "--out", str(tmp_path / "r"), "--config", str(path)]
                if command == "pipeline" else ["report", "--results", str(tmp_path)])
        capsys.readouterr()
        assert main(argv) == code
        printed = capsys.readouterr()
        assert printed.err.startswith("error: ") and str(path) in printed.err
        assert printed.out == "" and not (tmp_path / "r").exists()

    def test_report_holding_a_list(self, tmp_path):
        (tmp_path / "report.json").write_text('[1, 2]')
        proc = run("report", "--results", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "holds a JSON list, not an object" in proc.stderr


# Every config key and the JSON types it takes: "int" is never a bool,
# "number" is an int or a float; "[...]" is an array of that.
CONFIG_KEYS = {
    "corpus.n_originals": "int", "corpus.augments_per_original": "int",
    "corpus.d": "int", "corpus.d_t": "int",
    "corpus.profile.sigma_benign": "number", "corpus.profile.p_swap": "number",
    "corpus.profile.p_degrade": "number",
    "corpus.profile.degrade_mask_rate": "number",
    "corpus.profile.p_label_noise": "number",
    "split.eval_fraction": "number", "split.label_fraction": "number",
    "qa.alpha": "[number]", "qa.rho": "number", "qa.batch_size": "int",
    "qa.steps": "int", "qa.lr": "number", "qa.hidden": "int",
    "weight_map.w_min": "number", "weight_map.w_max": "number",
    "weight_map.gamma": "number",
    "head.hidden": "int or null", "head.lr": "number",
    "head.steps": "int", "head.batch_size": "int",
    "seeds": "[int]", "arms": "[str]",
}
# One value of each JSON type, and the kinds that accept it.
JSON_VALUES = {"string": ("7", {"str"}), "bool": (True, {"bool"}),
               "float": (1.5, {"number"}), "null": (None, {"int or null"}),
               "array": ([1], set()), "object": ({"k": 1}, set()),
               "int": (7, {"int", "number", "int or null"}),
               "NaN": (float("nan"), set()), "inf": (float("inf"), set())}
# A valid array for each array key, whose middle element the sweep replaces.
VALID_ARRAYS = {"qa.alpha": [1.0, 2.0, 1.0], "seeds": [1, 2, 3],
                "arms": ["weighted", "uniform", "original_only"]}


# Keys of earlier versions: the vocabulary and the head's positions are read
# off the corpus, and the scorer trains on originals alone. A document setting
# one is refused as unknown, whatever the value.
REMOVED_KEYS = ("corpus.vocab_size", "qa.include_augmented", "head.t_max")


def _config_mutants():
    cases = [(f"{key}={name}", key, value) for key in REMOVED_KEYS
             for name, (value, _) in JSON_VALUES.items()]
    for key, kind in CONFIG_KEYS.items():
        for name, (value, takes) in JSON_VALUES.items():
            if kind.startswith("["):
                if name != "array":
                    cases.append((f"{key}={name}", key, value))
                if kind.strip("[]") not in takes:
                    arr = list(VALID_ARRAYS[key])
                    arr[1] = value
                    cases.append((f"{key}[1]={name}", key, arr))
            elif kind not in takes:
                cases.append((f"{key}={name}", key, value))
    return cases


def _set(doc, key, value):
    """doc, a copy, with the dotted key set to value."""
    doc = copy.deepcopy(doc)
    *sections, last = key.split(".")
    at = doc
    for name in sections:
        at = at.setdefault(name, {})
    at[last] = value
    return doc


# The documents once accepted (converted by int(), float() or tuple()) or
# ended in a traceback, some only after the corpus and scorer were written.
MOTIVATING = [
    ("corpus.n_originals", 200.7), ("corpus.n_originals", True),
    ("seeds", "12"), ("seeds", [1.9, 2]), ("qa.include_augmented", "yes"),
    ("split.eval_fraction", "0.5"), ("qa.steps", "800"),
    ("weight_map.gamma", "1"), ("corpus.profile.p_swap", "0.1"),
    ("head.steps", 1.5), ("head.hidden", 64.5),
]


class TestConfigMutations:
    """Every config key given a value of a JSON type it does not take, and
    every removed key given any value, makes ``pipeline --config`` exit 1
    naming the key, before anything is written."""

    def test_table_covers_every_key(self):
        def leaves(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key
        assert set(leaves(PipelineConfig().to_dict())) == set(CONFIG_KEYS)

    @pytest.mark.parametrize("case, key, value", _config_mutants(),
                             ids=[case for case, _, _ in _config_mutants()])
    def test_mutant_rejected(self, tmp_path, capsys, case, key, value):
        cfg, out = tmp_path / "cfg.json", tmp_path / "results"
        cfg.write_text(json.dumps(_set(CONFIG, key, value)))
        capsys.readouterr()
        rc = main(["pipeline", "--out", str(out), "--config", str(cfg)])
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith(f"error: unknown config key: {key}\n"
                                      if key in REMOVED_KEYS else "error: config key ")
        assert key in printed.err and "Traceback" not in printed.err
        assert printed.out == "" and not out.exists()

    def test_motivating_documents_exit_cleanly_as_a_process(self, tmp_path):
        for key, value in MOTIVATING:
            cfg, out = tmp_path / "cfg.json", tmp_path / "results"
            cfg.write_text(json.dumps(_set(CONFIG, key, value)))
            proc = run("pipeline", "--out", str(out), "--config", str(cfg))
            assert proc.returncode == 1, (key, value, proc.stderr)
            assert proc.stderr.startswith("error: ") and key in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == "" and not out.exists()


# Documents of the right JSON types with values out of range. The first
# seven once passed the parser, created --out and only then failed in
# gen-corpus or split (the huge d in a traceback); the rest sit at the edges
# of the same checks. corpus.vocab_size is now refused as an unknown key.
OUT_OF_RANGE = [
    ("corpus.d", 0), ("corpus.n_originals", -4), ("corpus.vocab_size", 1),
    ("corpus.augments_per_original", -1), ("split.eval_fraction", 1.5),
    ("split.label_fraction", 0), ("corpus.d", 10 ** 20),
    ("corpus.d_t", MAX_DIM + 1), ("corpus.vocab_size", 10 ** 20),
    ("corpus.d", 3), ("corpus.n_originals", 1),
]


# Documents of valid values that once created --out and then failed: a row
# count numpy cannot allocate (a traceback in gen-corpus), an empty held-out
# set and too few originals to hold any out (exit 2 in split).
LATE_FAILURES = [("corpus.n_originals", 10 ** 20), ("split.eval_fraction", 0),
                 ("corpus.n_originals", 3)]


class TestConfigRanges:
    """A config value out of range makes ``pipeline --config`` exit 1 naming
    the key before anything is written."""

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE + LATE_FAILURES,
                             ids=[f"{k}={v}" for k, v in OUT_OF_RANGE + LATE_FAILURES])
    def test_out_of_range_rejected(self, tmp_path, capsys, key, value):
        cfg, out = tmp_path / "cfg.json", tmp_path / "results"
        cfg.write_text(json.dumps(_set(CONFIG, key, value)))
        capsys.readouterr()
        rc = main(["pipeline", "--out", str(out), "--config", str(cfg)])
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith("error: ") and "Traceback" not in printed.err
        assert key.rsplit(".", 1)[1] in printed.err
        assert printed.out == "" and not out.exists()

    def test_motivating_documents_exit_cleanly_as_a_process(self, tmp_path):
        for key, value in OUT_OF_RANGE[:7]:
            cfg, out = tmp_path / "cfg.json", tmp_path / "results"
            cfg.write_text(json.dumps(_set(CONFIG, key, value)))
            proc = run("pipeline", "--out", str(out), "--config", str(cfg))
            assert proc.returncode == 1, (key, value, proc.stderr)
            assert proc.stderr.startswith("error: ")
            assert key.rsplit(".", 1)[1] in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == "" and not out.exists()

    def test_late_failures_exit_before_writing_as_a_process(self, tmp_path):
        for (key, value), bound in zip(LATE_FAILURES, ("MAX_ROWS = 1000000",
                                                      "need eval_fraction > 0",
                                                      "n_originals >= 4")):
            cfg, out = tmp_path / "cfg.json", tmp_path / "results"
            cfg.write_text(json.dumps(_set(CONFIG, key, value)))
            proc = run("pipeline", "--out", str(out), "--config", str(cfg))
            assert proc.returncode == 1, (key, value, proc.stderr)
            assert proc.stderr.startswith("error: ") and bound in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == "" and not out.exists()


def _bounded_keys(config=PipelineConfig(), section=""):
    """(dotted key, Class.field, interval, value just outside) for every bounded
    field of the document's dataclass sections, read from the field metadata
    and annotations; a value at an open end, or one ulp past a closed one."""
    cases = []
    hints = typing.get_type_hints(type(config))
    for f in dataclass_fields(config):
        key, hint = f"{section}{f.name}", hints[f.name]
        if is_dataclass(hint):
            cases += _bounded_keys(getattr(config, f.name), f"{key}.")
        interval = f.metadata.get("interval")
        if interval is None:
            continue
        step = 1 if hint in (int, int | None) else None
        lo, hi = (float(x) for x in interval[1:-1].split(","))
        ends = [(lo, interval[0] == "[", -1)] + (
            [(hi, interval[-1] == "]", 1)] if math.isfinite(hi) else [])
        for end, closed, sign in ends:
            value = end if not closed else (
                int(end) + sign * step if step else
                math.nextafter(end, sign * math.inf))
            if hint == tuple[float, ...]:   # an array: one bad element
                value = [1.0, value, 1.0, 1.0]
            cases.append((key, f"{type(config).__name__}.{f.name}", interval, value))
    return cases


# The removed keys just outside the intervals they last declared
# (corpus.vocab_size [1, 65536], head.t_max [1, inf)).
REMOVED_OUTSIDE = [("corpus.vocab_size", None, None, 0),
                   ("corpus.vocab_size", None, None, 65537),
                   ("head.t_max", None, None, 0)]


class TestConfigDocumentRanges:
    """Every bounded key of a config document, given a value just outside its
    field's declared interval, makes ``pipeline --config`` exit 1 naming the
    field, before anything is written; a removed key at a value its old
    interval refused exits 1 the same way, as an unknown key."""

    def test_every_bounded_key_covered(self):
        assert {key for key, *_ in _bounded_keys()} == {
            key for key in CONFIG_KEYS if "." in key}

    @pytest.mark.parametrize("key, name, interval, value",
                             _bounded_keys() + REMOVED_OUTSIDE,
                             ids=[f"{k}={v}" for k, _, _, v in
                                  _bounded_keys() + REMOVED_OUTSIDE])
    def test_just_outside_rejected(self, tmp_path, capsys, key, name, interval,
                                   value):
        cfg, out = tmp_path / "cfg.json", tmp_path / "results"
        cfg.write_text(json.dumps(_set(CONFIG, key, value)))
        capsys.readouterr()
        rc = main(["pipeline", "--out", str(out), "--config", str(cfg)])
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith(f"error: unknown config key: {key}\n"
                                      if key in REMOVED_KEYS else
                                      f"error: {name} must be in {interval}, got ")
        assert "Traceback" not in printed.err
        assert printed.out == "" and not out.exists()


MIX_ONLY = ("error: QaConfig.alpha needs a nonzero weight besides mix (a batch of "
            "one polarity has no mix rows), got (0.0, 1.0, 0.0, 0.0)\n")


class TestMixOnlyAlpha:
    """An alpha whose only nonzero entry is mix, the one family a batch can
    lack, exits 1 before anything is written: it once wrote the corpus and
    then failed mid-training with exit 2 on a batch of one polarity."""

    def test_config_document(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "results"
        doc = _set(_set(CONFIG, "qa.alpha", [0, 1, 0, 0]), "qa.batch_size", 2)
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["pipeline", "--out", str(out), "--config", str(cfg)])
        printed = capsys.readouterr()
        assert rc == 1 and printed.err == MIX_ONLY
        assert printed.out == "" and not out.exists()

    def test_stage0_flag(self, clean_artifacts, tmp_path, capsys):
        corpus, _ = clean_artifacts
        out = tmp_path / "qa.json"
        capsys.readouterr()
        rc = main(["stage0", "--corpus", str(corpus), "--out", str(out),
                   "--seed", "1", "--batch-size", "2", "--alpha", "0,1,0,0"])
        printed = capsys.readouterr()
        assert rc == 1 and printed.err == MIX_ONLY
        assert printed.out == "" and not out.exists()


# Flags argparse reads as floats, NaN and infinities included, that once ran
# until a late, misleading failure; each is now refused by its config. The
# eval row once read the corpus and the head first (exit 2, "No such file").
NON_FINITE_FLAGS = [
    ("gen-corpus", "--sigma-benign", "nan", "CorruptionProfile.sigma_benign"),
    ("stage0", "--lr", "nan", "QaConfig.lr"),
    ("stage1", "--lr", "nan", "HeadConfig.lr"),
    ("score", "--gamma", "nan", "WeightMapConfig.gamma"),
    ("score", "--w-max", "inf", "WeightMapConfig.w_max"),
    ("stage0", "--rho", "-inf", "QaConfig.rho"),
    ("stage1", "--steps", "-1", "HeadConfig.steps"),
    ("stage0", "--label-fraction", "nan", "SplitConfig.label_fraction"),
    ("stage1", "--label-fraction", "0", "SplitConfig.label_fraction"),
    ("eval", "--eval-fraction", "nan", "SplitConfig.eval_fraction"),
]


class TestFlagRanges:
    """A stage flag outside its config field's interval exits 1 naming the
    field, before the command reads an input or writes its --out."""

    @pytest.mark.parametrize("command, flag, value, name", NON_FINITE_FLAGS,
                             ids=[f"{c}{f}={v}" for c, f, v, _ in NON_FINITE_FLAGS])
    def test_refused_before_any_work(self, clean_artifacts, tmp_path, capsys,
                                     monkeypatch, command, flag, value, name):
        corpus, paths = clean_artifacts
        out = tmp_path / "out"

        def no_work(*args, **kwargs):
            raise AssertionError("input read before the config was checked")
        for loader in ("generate_corpus", "load_corpus", "load_qa_snapshot",
                       "load_head_snapshot"):
            monkeypatch.setattr(cli, loader, no_work)
        to = ["--out", str(out)]
        argv = {"gen-corpus": ["gen-corpus", "--seed", "1", *to],
                "stage0": ["stage0", "--corpus", str(corpus), "--seed", "1", *to],
                "stage1": ["stage1", "--corpus", str(corpus), "--seed", "1", *to],
                "score": ["score", "--corpus", str(corpus),
                          "--qa", str(paths["scorer"]), *to],
                "eval": ["eval", "--corpus", str(corpus),
                         "--head", str(paths["head"])]}[command]
        capsys.readouterr()
        rc = main([*argv, f"{flag}={value}"])
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith(f"error: {name} must be in ")
        assert printed.out == "" and not out.exists()

    def test_refused_as_a_process(self, tmp_path):
        out = tmp_path / "c.bin"
        proc = run("gen-corpus", "--out", str(out), "--seed", "1",
                   "--sigma-benign", "nan")
        assert proc.returncode == 1
        assert proc.stderr == ("error: CorruptionProfile.sigma_benign must be "
                               "in [0, inf), got nan\n")
        assert proc.stdout == "" and not out.exists()


BAD_DECIMALS = [("--seeds", "1_0,2"), ("--seeds", " 1,2"), ("--seeds", "1,2.0"),
                ("--seeds", "1,,2"), ("--seeds", ""), ("--alpha", "1_0,1,1,1"),
                ("--alpha", "1,1,1,0x1"), ("--alpha", "1,1,1, 1"),
                ("--seed", "1_0"), ("--steps", " 5"), ("--lr", "1_0.5")]


class TestDecimalFlags:
    """Number flags, and the comma lists --seeds and --alpha, take only plain
    decimal literals, as a config document takes only JSON numbers: int()
    and float() once let ``1_0`` through as 10 and `` 1`` as 1."""

    @pytest.mark.parametrize("flag, value", BAD_DECIMALS,
                             ids=[f"{f}={v}" for f, v in BAD_DECIMALS])
    def test_bad_literal_refused(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        argv = {"--seeds": ["pipeline"], "--seed": ["gen-corpus"]}.get(
            flag, ["stage0", "--corpus", "c", "--seed", "1"])
        capsys.readouterr()
        rc = main([*argv, "--out", str(out), flag, value])
        printed = capsys.readouterr()
        assert rc == 1, printed.err
        assert printed.err.startswith(f"error: bad {flag}: ")
        assert printed.out == "" and not out.exists()

    def test_lists_parsed(self, monkeypatch):
        calls = TestStageDefaults._calls(
            monkeypatch, ["stage0", "--corpus", "c", "--out", "q", "--seed", "5",
                          "--alpha", "1.5,-0,2e0,.5"], "train_stage0")
        assert calls["train_stage0"][0][1].alpha == (1.5, 0.0, 2.0, 0.5)
        calls = TestStageDefaults._calls(
            monkeypatch, ["pipeline", "--out", "r", "--seeds", "10,-2"],
            "run_pipeline")
        assert calls["run_pipeline"][0][0].seeds == (10, -2)


# The flags of each stage command that set no config field.
_OWN_FLAGS = {
    "gen-corpus": {"--out", "--seed", "--json"},
    "stage0": {"--corpus", "--out", "--seed", "--json"},
    "score": {"--corpus", "--qa", "--out", "--json"},
    "stage1": {"--corpus", "--out", "--seed", "--weights", "--pool",
               "--run-log", "--json"},
}


def _field_flags(*classes):
    """--field-name for each field of classes and of the configs nested in
    them, but seed; --augments stands for augments_per_original."""
    flags = set()
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for f in dataclass_fields(cls):
            if is_dataclass(hints[f.name]):
                flags |= _field_flags(hints[f.name])
            elif f.name != "seed":
                flags.add("--augments" if f.name == "augments_per_original"
                          else "--" + f.name.replace("_", "-"))
    return flags


class TestDerivedFlags:
    """Each stage command has one flag per field of the configs it builds."""

    @pytest.mark.parametrize("command, classes", [
        ("gen-corpus", (CorpusConfig,)), ("stage0", (QaConfig, SplitConfig)),
        ("score", (WeightMapConfig,)), ("stage1", (HeadConfig, SplitConfig))],
        ids=["gen-corpus", "stage0", "score", "stage1"])
    def test_flags_are_the_config_fields(self, command, classes):
        sub = next(a for a in cli.build_parser(command)._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        flags = {opt for a in sub._actions for opt in a.option_strings
                 if opt not in ("-h", "--help")}
        assert flags - _OWN_FLAGS[command] == _field_flags(*classes)


class _Stop(Exception):
    pass


# Stand-ins for what the stage commands load, enough to reach the library call.
_CORPUS = SimpleNamespace(header=SimpleNamespace(d=8, d_t=12, vocab_size=8))
_LOADED = {"load_corpus": _CORPUS,
           "train_eval_split": SimpleNamespace(pool=lambda name: np.arange(2)),
           "load_qa_snapshot": (None, None),
           "load_head_snapshot": (SimpleNamespace(out_b=np.zeros((3, 8))), 8, 12)}


class TestStageDefaults:
    """Each stage command given only its required flags hands the library
    the config dataclasses' defaults, which the pipeline uses (seed aside):
    the README stage-by-stage flow relies on it."""

    @staticmethod
    def _calls(monkeypatch, argv, stop_at):
        """The library calls of argv, with loaders stubbed, up to and
        including stop_at: name -> (args, kwargs)."""
        calls = {}

        def fake(name):
            def fn(*args, **kwargs):
                calls[name] = (args, kwargs)
                if name == stop_at:
                    raise _Stop
                return _LOADED[name]
            return fn
        for name in {*_LOADED, stop_at}:
            monkeypatch.setattr(cli, name, fake(name))
        with pytest.raises(_Stop):
            main(argv)
        return calls

    def test_gen_corpus(self, monkeypatch):
        calls = self._calls(monkeypatch, ["gen-corpus", "--out", "c", "--seed", "5"],
                            "generate_corpus")
        base = PipelineConfig().corpus
        assert calls["generate_corpus"] == (
            (base.n_originals, base.augments_per_original, CorruptionProfile()),
            {"seed": 5, "d": base.d, "d_t": base.d_t})

    def test_stage0(self, monkeypatch):
        calls = self._calls(monkeypatch, ["stage0", "--corpus", "c", "--out", "q",
                                          "--seed", "5"], "train_stage0")
        assert calls["train_stage0"][0][1:] == (QaConfig(), 5)
        assert calls["train_eval_split"] == (
            (_CORPUS, PipelineConfig().split.eval_fraction),
            {"label_fraction": PipelineConfig().split.label_fraction})

    def test_score(self, monkeypatch):
        calls = self._calls(monkeypatch, ["score", "--corpus", "c", "--qa", "q",
                                          "--out", "w"], "export_weights")
        assert calls["export_weights"][0][2] == WeightMapConfig()

    def test_stage1(self, monkeypatch):
        calls = self._calls(monkeypatch, ["stage1", "--corpus", "c", "--out", "h",
                                          "--seed", "5"], "train_stage1")
        assert calls["train_stage1"][0][2:] == (HeadConfig(), 5)
        assert calls["train_eval_split"] == (
            (_CORPUS, PipelineConfig().split.eval_fraction),
            {"label_fraction": PipelineConfig().split.label_fraction})

    def test_eval(self, monkeypatch):
        calls = self._calls(monkeypatch, ["eval", "--corpus", "c", "--head", "h"],
                            "train_eval_split")
        assert calls["train_eval_split"][0] == (_CORPUS,
                                                PipelineConfig().split.eval_fraction)


# A well-formed report as format_report_table and report_csv read it.
REPORT = {
    "kind": "pipeline_report",
    "config": {"seeds": [1, 2]},
    "arms": {arm: {"seeds": [1, 2],
                   "per_seed": {"1": {"acc2": 0.5, "corr": None},
                                "2": {"acc2": 0.75, "corr": 0.1}},
                   "mean": {"acc2": 0.625, "corr": 0.1}}
             for arm in ("weighted", "uniform")},
}


def _report_mutants():
    """(case, edit) pairs; edit(doc) damages the report in place or returns
    the damaged one."""
    def without(*path):
        def edit(doc):
            at = doc
            for key in path[:-1]:
                at = at[key]
            del at[path[-1]]
        return edit

    def put(value, *path):
        def edit(doc):
            at = doc
            for key in path[:-1]:
                at = at[key]
            at[path[-1]] = value
        return edit

    w = ("arms", "weighted")
    return [
        ("kind only", lambda doc: {"kind": "pipeline_report"}),
        ("arm is a number", put(3, *w)),
        ("no config", without("config")),
        ("config a list", put([1, 2], "config")),
        ("no config seeds", without("config", "seeds")),
        ("config seeds a string", put("12", "config", "seeds")),
        ("no arms", without("arms")),
        ("arms empty", put({}, "arms")),
        ("arms a list", put(["weighted"], "arms")),
        ("arm without per_seed", without(*w, "per_seed")),
        ("arm without mean", without(*w, "mean")),
        ("arm seeds an object", put({"1": 1}, *w, "seeds")),
        ("mean a list", put([0.5], *w, "mean")),
        ("mean metric a string", put("0.6", *w, "mean", "acc2")),
        ("mean metric a bool", put(True, *w, "mean", "corr")),
        ("first arm no seeds", put([], *w, "seeds")),
        ("row for first seed missing", without(*w, "per_seed", "1")),
        ("row a list", put([0.5], "arms", "uniform", "per_seed", "2")),
        ("other arm lacks a seed", without("arms", "uniform", "per_seed", "2")),
        ("row lacks a metric", without("arms", "uniform", "per_seed", "1", "corr")),
        ("row metric a string", put("x", *w, "per_seed", "2", "acc2")),
        ("row metric an object", put({}, "arms", "uniform", "per_seed", "1", "corr")),
    ]


class TestReportChecks:
    """``report`` on a report.json missing a field the table or the CSV reads,
    or holding it with another JSON type, exits 1 with an error line and
    renders and writes nothing."""

    def test_well_formed_report_renders(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text(json.dumps(REPORT))
        rows = tmp_path / "rows.csv"
        assert main(["report", "--results", str(tmp_path), "--dump-csv", str(rows)]) == 0
        assert "weighted" in capsys.readouterr().out
        assert len(rows.read_text().splitlines()) == 1 + 2 * 2

    def test_older_report_with_duplicate_keys_renders(self, tmp_path, capsys):
        # reports written before wacc, wf1 and wrec were dropped still load
        old = {"n": 12, "acc2": 0.75, "acc5": 0.5, "f1_weighted": 0.25,
               "mae": 0.125, "corr": None, "wacc": 0.5, "wf1": 0.25,
               "wprec": 0.375, "wrec": 0.5}
        doc = {"kind": "pipeline_report", "config": {"seeds": [1]},
               "arms": {"weighted": {"seeds": [1], "per_seed": {"1": old},
                                     "mean": old}}}
        (tmp_path / "report.json").write_text(json.dumps(doc))
        rows = tmp_path / "rows.csv"
        assert main(["report", "--results", str(tmp_path), "--dump-csv", str(rows)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[-1].split() == ["weighted", "0.7500", "0.5000", "0.2500",
                                     "0.1250", "n/a"]
        assert list(csv.reader(rows.read_text().splitlines())) == [
            ["arm", "seed", *old],
            ["weighted", "1", "12", "0.75", "0.5", "0.25", "0.125", "", "0.5",
             "0.25", "0.375", "0.5"]]

    @pytest.mark.parametrize("case, edit", _report_mutants(),
                             ids=[case for case, _ in _report_mutants()])
    def test_mutant_rejected(self, tmp_path, capsys, case, edit):
        doc = copy.deepcopy(REPORT)
        doc = edit(doc) or doc
        (tmp_path / "report.json").write_text(json.dumps(doc))
        rows = tmp_path / "rows.csv"
        for json_flag in ([], ["--json"]):
            capsys.readouterr()
            rc = main(["report", "--results", str(tmp_path),
                       "--dump-csv", str(rows), *json_flag])
            printed = capsys.readouterr()
            assert rc == 1, printed.err
            assert printed.err.startswith("error: ") and "report.json" in printed.err
            assert printed.out == "" and not rows.exists()

    def test_defects_exit_cleanly_as_a_process(self, tmp_path):
        # the reports once ending `report` in a KeyError and a TypeError
        for doc in ({"kind": "pipeline_report"},
                    {**REPORT, "arms": {"weighted": 3}}):
            (tmp_path / "report.json").write_text(json.dumps(doc))
            rows = tmp_path / "rows.csv"
            proc = run("report", "--results", str(tmp_path), "--dump-csv", str(rows))
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr
            assert proc.stdout == "" and not rows.exists()
