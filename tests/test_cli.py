"""CLI contract: subcommands, exit codes, --json, byte determinism."""

import csv
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "augqual.cli"]

GEN = ["gen-corpus", "--n-originals", "24", "--augments", "1",
       "--d", "8", "--d-t", "12",
       "--p-swap", "0.1", "--p-degrade", "0.1", "--p-label-noise", "0.1"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def _gen(tmp_path, name="c.jsonl", seed="5"):
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

    def test_missing_required_seed(self, tmp_path):
        proc = run("gen-corpus", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1

    def test_invalid_profile_value(self, tmp_path):
        proc = run("gen-corpus", "--out", str(tmp_path / "x"), "--seed", "1",
                   "--p-swap", "2.0")
        assert proc.returncode == 1
        assert "p_swap" in proc.stderr

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        proc = run("stage0", "--corpus", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "qa.json"), "--seed", "1")
        assert proc.returncode == 2

    def test_weight_corpus_mismatch_is_runtime_error(self, tmp_path):
        a = _gen(tmp_path, "a.jsonl", "5")
        b = _gen(tmp_path, "b.jsonl", "6")
        qa = tmp_path / "qa.json"
        w = tmp_path / "w.json"
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
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, augqual.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_version_exits_zero(self):
        proc = run("--version")
        assert proc.returncode == 0
        assert "augqual" in proc.stdout


class TestGenCorpus:
    def test_byte_deterministic(self, tmp_path):
        a = _gen(tmp_path, "a.jsonl")
        b = _gen(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path):
        path = tmp_path / "c.jsonl"
        proc = run(*GEN, "--out", str(path), "--seed", "5", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["n_samples"] == 48
        assert doc["n_originals"] == 24
        assert len(doc["checksum"]) == 64


class TestStageCommands:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        corpus = _gen(tmp_path)
        qa = tmp_path / "qa.json"
        w = tmp_path / "w.json"
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

    @pytest.mark.parametrize("bad", (-5.0, 1e300, float("nan")),
                             ids=("negative", "huge", "nan"))
    def test_hand_edited_weight_rejected(self, artifacts, tmp_path, bad):
        corpus, _, w, _ = artifacts
        doc = json.loads(w.read_text())
        entry = next(e for e in doc["entries"] if e["origin"] == "Augmented")
        entry["weight"] = bad
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))       # NaN is written as NaN
        head = tmp_path / "h_bad.json"
        proc = run("stage1", "--corpus", str(corpus), "--weights", str(edited),
                   "--out", str(head), "--seed", "5", "--steps", "5")
        assert proc.returncode == 1, proc.stderr
        assert entry["id"] in proc.stderr
        assert not head.exists()

    def test_run_log_written(self, artifacts, tmp_path):
        corpus, _, w, _ = artifacts
        log = tmp_path / "run.jsonl"
        proc = run("stage1", "--corpus", str(corpus), "--weights", str(w),
                   "--out", str(tmp_path / "h2.json"), "--seed", "5",
                   "--steps", "7", "--run-log", str(log))
        assert proc.returncode == 0
        rows = [json.loads(x) for x in log.read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(7))


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
