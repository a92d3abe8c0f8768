"""augqual benchmark: three workloads, end-to-end metrics, traced per-layer metrics.

    python3 benchmarks/run.py --workload {default,trend,cli_flow} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is the unmodified package under
``src/``; every step runs in a fresh interpreter with ``PYTHONPATH=src``.
Inputs are generated by the program from ``--seed`` (the pipeline seed, or
the CLI ``--seed``); the program sees nothing else from the benchmark.

One run repeats passes of the workload with the same seed until
``--seconds`` is used up (at least MIN_PASSES) and reports medians over
passes. ``setup_s`` is the median start-up of the pass processes (pipelines)
or of CLI_SETUP_PROBES extra ``augqual --version`` processes (``cli_flow``). ``--trace 1``
alternates untraced and traced passes: traced passes give the per-layer
metrics, and their wall time minus the untraced one is the tracing
overhead. Every pass checks its outputs: exit codes, artifact paths, the
checksums the program prints, and that every artifact is byte-identical
across all passes of the run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are those in
``BENCHMARK.json``. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import METRICS, layer_metrics, nesting_errors, span_counts  # noqa: E402

CLI_SETUP_PROBES = 3
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0          # a run must end within 180 s

# Criterion-5 corruption profile (tests/test_acceptance.py, _CORRUPT30).
_CORRUPT30 = {"sigma_benign": 0.05, "p_swap": 0.10, "p_degrade": 0.05,
              "degrade_mask_rate": 0.5, "p_label_noise": 0.15}

# Pipeline workloads, as documents for augqual.pipeline.pipeline_config_from_dict.
# Each pass runs one pipeline seed; the rest is the named scenario unchanged.
PIPELINES = {
    # README quickstart: PipelineConfig() defaults.
    "default": {},
    # Acceptance criterion 5.
    "trend": {
        "corpus": {"n_originals": 128, "augments_per_original": 4,
                   "d": 128, "d_t": 192, "profile": _CORRUPT30},
        "split": {"eval_fraction": 60 / 64},
        "arms": ["weighted", "uniform", "original_only"],
        "qa": {"steps": 400},
        "head": {"steps": 300},
    },
}
PIPELINE_SMOKE = {"corpus": {"n_originals": 24, "d": 8, "d_t": 12},
                  "qa": {"steps": 5}, "head": {"steps": 5}}

# README "Stage by stage" flow at a larger corpus, one process per command.
CLI_FLOW = {"n_originals": 600, "stage0_steps": 100, "stage1_steps": 600}
CLI_SMOKE = {"n_originals": 24, "stage0_steps": 5, "stage1_steps": 5}

WORKLOADS = ("default", "trend", "cli_flow")

# Per-layer metrics that only some workloads exercise, and why.
STRUCTURAL_ABSENCE = {
    "pipeline": {
        "corpus.load": "run_pipeline keeps the corpus in memory and never loads it",
        "qa.snapshot_load": "run_pipeline keeps the scorer in memory",
        "qa.weights_load": "run_pipeline keeps the weight file in memory",
        "finetune.snapshot_load": "run_pipeline keeps each head in memory",
    },
    "cli": {
        "pipeline.run": "no command of the stage-by-stage flow calls run_pipeline",
    },
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Runner:
    """Spawns program processes with PYTHONPATH=src and a run-wide deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv, out_path: Path) -> dict:
        """Run argv to completion; stdout goes to out_path, stderr next to it.

        Returns exit code, wall time, CPU time (user + system) and peak RSS of
        that one process, from wait4.
        """
        err_path = out_path.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started_at = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + list(argv), stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.time_left(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall, "started_at": started_at,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stderr": err_path.read_text(errors="replace")[-2000:]}


def _exit_op(label: str, proc: dict) -> dict:
    return {"op": label, "ok": proc["rc"] == 0,
            "why": f"exit {proc['rc']}: {proc['stderr'].strip()[-300:]}"}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = (_merge(out.get(key, {}), value)
                    if isinstance(value, dict) else value)
    return out


# ---------------------------------------------------------------------------
# Workloads: set-up probe and one pass each
# ---------------------------------------------------------------------------

class PipelineWorkload:
    """One ``run_pipeline`` call per pass, in a fresh interpreter."""

    kind = "pipeline"
    setup_probes = 0

    def __init__(self, name: str, seed: int, smoke: bool):
        doc = PIPELINES[name]
        if smoke:
            doc = _merge(doc, PIPELINE_SMOKE)
        self.config = dict(doc, seeds=[seed])
        self.config_json = json.dumps(self.config, sort_keys=True)

    def run_pass(self, runner: Runner, pass_dir: Path, pass_id: str,
                 traced: bool) -> dict:
        result_path = pass_dir / "result.json"
        proc = runner.spawn([str(HERE / "child.py"), "pipeline", self.config_json,
                             str(pass_dir / "out"), str(result_path), pass_id,
                             "1" if traced else "0"],
                            pass_dir / "child.out")
        op = _exit_op("run_pipeline", proc)
        res = {"processes": [proc], "ops": [op], "digests": {}, "dumps": [],
               "wall_s": proc["wall_s"], "producer": {}}
        if not op["ok"]:
            return res
        doc = json.loads(result_path.read_text())
        res["wall_s"] = doc["wall_s"]
        # time.monotonic is CLOCK_MONOTONIC, shared by all processes on Linux.
        res["setup_s"] = doc["ready_at"] - proc["started_at"]
        res["acc2"] = doc["acc2"]
        res["expected_counts"] = self.expected_counts(doc["config"])
        if doc["trace"] is not None:
            res["dumps"].append(doc["trace"])
        missing = [name for name, path in doc["paths"].items()
                   if not Path(path).is_file()]
        if missing:
            op.update(ok=False, why=f"PipelineResult.paths not written: {missing}")
        for name, path in sorted(doc["paths"].items()):
            if Path(path).is_file():
                res["digests"][name] = _sha256(Path(path))
                res["producer"][name] = 0
        return res

    @staticmethod
    def expected_counts(config: dict) -> dict:
        """From the config the program parsed (``PipelineConfig.to_dict``)."""
        n_seeds = len(config["seeds"])
        qa_steps, head_steps = config["qa"]["steps"], config["head"]["steps"]
        return {
            "corpus.checksum_calls": 3 * n_seeds,
            "forge.batch_calls": qa_steps * n_seeds,
            "numerics.adam_calls": (qa_steps + head_steps * len(config["arms"])) * n_seeds,
        }


class CliWorkload:
    """The README stage-by-stage flow, one fresh process per command."""

    kind = "cli"
    setup_probes = CLI_SETUP_PROBES

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.sizes = CLI_SMOKE if smoke else CLI_FLOW

    def setup_argv(self):
        return ["-m", "augqual.cli", "--version"]

    def commands(self, d: Path):
        """(label, argv, artifacts it writes); stdout of eval is its artifact."""
        s, z = str(self.seed), self.sizes
        corpus = ["--corpus", str(d / "corpus.jsonl")]
        return [
            ("gen-corpus", ["gen-corpus", "--out", str(d / "corpus.jsonl"),
                            "--seed", s, "--n-originals", str(z["n_originals"]),
                            "--augments", "2", "--p-swap", "0.15",
                            "--p-degrade", "0.15", "--p-label-noise", "0.15",
                            "--json"], ["corpus.jsonl"]),
            ("stage0", ["stage0", *corpus, "--out", str(d / "qa.json"),
                        "--seed", s, "--steps", str(z["stage0_steps"])],
             ["qa.json"]),
            ("score", ["score", *corpus, "--qa", str(d / "qa.json"),
                       "--out", str(d / "weights.json"), "--json"],
             ["weights.json"]),
            ("stage1-weighted", ["stage1", *corpus, "--weights",
                                 str(d / "weights.json"), "--out",
                                 str(d / "head.json"), "--seed", s, "--steps",
                                 str(z["stage1_steps"]), "--run-log",
                                 str(d / "trace.jsonl")],
             ["head.json", "trace.jsonl"]),
            ("stage1-uniform", ["stage1", *corpus, "--out",
                                str(d / "head_uniform.json"), "--seed", s,
                                "--steps", str(z["stage1_steps"])],
             ["head_uniform.json"]),
            ("eval-weighted", ["eval", *corpus, "--head", str(d / "head.json"),
                               "--json"], ["eval-weighted.out"]),
            ("eval-uniform", ["eval", *corpus, "--head",
                              str(d / "head_uniform.json"), "--json"],
             ["eval-uniform.out"]),
        ]

    def run_pass(self, runner: Runner, pass_dir: Path, pass_id: str,
                 traced: bool) -> dict:
        res = {"processes": [], "ops": [], "digests": {}, "dumps": [],
               "producer": {}, "acc2": {}}
        for k, (label, argv, artifacts) in enumerate(self.commands(pass_dir)):
            out = pass_dir / f"{label}.out"
            result_path = pass_dir / f"{label}.trace.json"
            if traced:
                launch = [str(HERE / "child.py"), "cli", str(result_path),
                          pass_id, "--", *argv]
            else:
                launch = ["-m", "augqual.cli", *argv]
            proc = runner.spawn(launch, out)
            res["processes"].append(proc)
            if traced and result_path.is_file():
                res["dumps"].append(json.loads(result_path.read_text())["trace"])
            op = _exit_op(label, proc)
            if op["ok"]:
                try:
                    op["why"] = self._check(label, out, pass_dir, artifacts, res)
                except (ValueError, KeyError, TypeError) as exc:
                    op["why"] = f"unreadable output: {exc!r}"
                op["ok"] = not op["why"]
            res["ops"].append(op)
            for name in artifacts:
                if (pass_dir / name).is_file():
                    res["digests"][name] = _sha256(pass_dir / name)
                    res["producer"][name] = k
            if not op["ok"]:
                break
        res["expected_counts"] = self.expected_counts()
        res["wall_s"] = sum(p["wall_s"] for p in res["processes"])
        return res

    @staticmethod
    def _check(label, out: Path, d: Path, artifacts, res) -> str:
        """Why the command's output is wrong, or "" when it passes."""
        missing = [a for a in artifacts if not (d / a).is_file()
                   or (d / a).stat().st_size == 0]
        if missing:
            return f"did not write {missing}"
        if label in ("gen-corpus", "score"):
            doc = json.loads(out.read_text())
            printed = doc["checksum" if label == "gen-corpus" else "corpus_checksum"]
            actual = _sha256(d / "corpus.jsonl")
            if printed != actual:
                return f"printed corpus checksum {printed} != sha256 {actual}"
        if label.startswith("eval-"):
            acc2 = json.loads(out.read_text())["acc2"]
            if not isinstance(acc2, float) or not 0.0 <= acc2 <= 1.0:
                return f"eval printed acc2 {acc2!r}"
            res["acc2"][label[len("eval-"):]] = acc2
        return ""

    def expected_counts(self) -> dict:
        z = self.sizes
        return {
            "corpus.checksum_calls": 3,   # gen-corpus, score, stage1 --weights
            "corpus.load_calls": 6,       # every command after gen-corpus
            "forge.batch_calls": z["stage0_steps"],
            "numerics.adam_calls": z["stage0_steps"] + 2 * z["stage1_steps"],
        }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    if name.endswith("_bytes"):
        return "B"
    if "_calls" in name or name.endswith(".items"):
        return "count"
    return "s"


def measure(workload, seconds: float, trace: bool, work: Path, runner: Runner) -> dict:
    ops = []
    setup = []
    for k in range(workload.setup_probes):
        proc = runner.spawn(workload.setup_argv(), work / f"setup{k}.out")
        ops.append(_exit_op("setup", proc))
        if proc["rc"] == 0:
            setup.append(proc["wall_s"])

    passes = []
    t0 = time.perf_counter()
    while True:
        k = len(passes)
        pass_dir = work / f"pass{k}"
        pass_dir.mkdir()
        start = time.perf_counter()
        p = workload.run_pass(runner, pass_dir, f"{workload.kind}-{os.getpid()}-{k}",
                              traced=trace and k % 2 == 1)
        p["traced"] = trace and k % 2 == 1
        p["span_s"] = time.perf_counter() - start
        shutil.rmtree(pass_dir)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(q["span_s"] for q in passes)
        if any(not op["ok"] for op in p["ops"]) or runner.time_left() < 2 * typical:
            break
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break

    # Every artifact must be byte-identical across all passes of the run.
    first = passes[0]["digests"]
    for k, p in enumerate(passes[1:], start=1):
        for name in sorted(set(first) | set(p["digests"])):
            if first.get(name) != p["digests"].get(name) and name in p["producer"]:
                op = p["ops"][p["producer"][name]]
                op["ok"] = False
                op["why"] = f"{name} differs from pass 0"
    for p in passes:
        ops.extend(p["ops"])
        if "setup_s" in p and not p["traced"]:
            setup.append(p["setup_s"])
    return {"setup": setup, "passes": passes, "ops": ops}


def end_to_end(m: dict) -> dict:
    plain = [p for p in m["passes"] if not p["traced"] and all(o["ok"] for o in p["ops"])]
    plain = plain or [p for p in m["passes"] if not p["traced"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(m["setup"]) if m["setup"] else 0.0,
        "peak_rss_mb": statistics.median(max(q["rss_mb"] for q in p["processes"])
                                         for p in plain),
    }


def per_layer(m: dict, workload) -> tuple:
    """Median per-layer metrics over traced passes, absences and count checks."""
    traced = [p for p in m["passes"] if p["traced"]]
    plain = [p for p in m["passes"] if not p["traced"]]
    per_pass = ([layer_metrics(p["dumps"], p["processes"]) for p in traced]
                or [layer_metrics([], [])])
    layers = {name: statistics.median(v[name] for v in per_pass) for name in METRICS}
    layers["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)) if traced else 0.0

    absent_hooks = {}
    for p in traced:
        for d in p["dumps"]:
            absent_hooks.update(d["absent_hooks"])
    counts = span_counts([d for p in traced for d in p["dumps"]])
    absent = {}
    for name, (span, _) in METRICS.items():
        if counts.get(span):
            continue
        gone = [hook for hook, hooked in absent_hooks.items() if hooked == span]
        absent[name] = (STRUCTURAL_ABSENCE[workload.kind].get(span)
                        or (f"{', '.join(gone)} no longer exists, so nothing is traced"
                            if gone else f"no {span} call was recorded"))
    absent.update({f"hook {hook}": f"no longer exists (span {span})"
                   for hook, span in absent_hooks.items()})

    checks = {}
    for p, values in zip(traced, per_pass):
        for name, want in p.get("expected_counts", {}).items():
            check = checks.setdefault(name, {"expected": want, "observed": []})
            check["observed"].append(values[name])
    for check in checks.values():
        check["match"] = set(check["observed"]) == {check["expected"]}
    errors = [e for p in traced for e in nesting_errors(p["dumps"])]
    return layers, absent, checks, errors


def environment() -> dict:
    import ctypes
    import importlib.metadata as md

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_vars = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
                if k in os.environ}
    threads, source = None, "library"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads, source = fn(), f"{Path(lib).name}:{sym}"
                    break
            if threads is not None:
                break
    except OSError:
        pass
    if threads is None:
        first = next(iter(env_vars.values()), None)
        threads = int(first) if first else len(os.sched_getaffinity(0))
        source = "environment" if first else "one per usable CPU (OpenBLAS default)"
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.split()
    except (OSError, ValueError, subprocess.CalledProcessError):
        top = None
    if top is None or Path(top).resolve() != ROOT:
        commit = "unknown (not a git checkout)"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "git_commit": commit,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads, "threads_from": source,
                 "thread_env": env_vars},
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configs, for the benchmark's own self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Without the program there is nothing to measure: exit non-zero, no result.
    if not (ROOT / "src" / "augqual" / "__init__.py").is_file():
        print(f"benchmark cannot run: no program at {ROOT / 'src' / 'augqual'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.perf_counter() + RUN_DEADLINE_S
    runner = Runner(deadline)
    workload = (CliWorkload(args.seed, args.smoke) if args.workload == "cli_flow"
                else PipelineWorkload(args.workload, args.seed, args.smoke))
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        m = measure(workload, args.seconds, bool(args.trace), work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layers, absent, checks, errors = per_layer(m, workload)
        m["ops"].append({"op": "span nesting", "ok": not errors,
                         "why": f"{len(errors)} errors; first: {errors[:1]}"})
    failed = [o for o in m["ops"] if not o["ok"]]
    e2e = end_to_end(m)
    passes = m["passes"]
    plain = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(plain)} untraced)")
    print(f"  wall_s       {e2e['wall_s']:.4f} s   untraced passes: "
          + " ".join(f"{p['wall_s']:.3f}" for p in plain))
    print(f"  setup_s      {e2e['setup_s']:.4f} s   start-ups: "
          + " ".join(f"{v:.3f}" for v in m["setup"]))
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_ops   {len(failed)}/{len(m['ops'])} "
          f"(ratio {len(failed) / len(m['ops']):.3f})")
    for o in failed:
        print(f"    FAILED {o['op']}: {o['why']}")
    acc2 = passes[0].get("acc2") or {}
    if workload.kind == "pipeline" and {"weighted", "uniform"} <= set(acc2):
        print(f"  acc2_gap     {acc2['weighted'] - acc2['uniform']:+.4f} "
              f"(weighted {acc2['weighted']:.4f} - uniform {acc2['uniform']:.4f}, "
              f"pipeline seed {args.seed})")
    elif acc2:
        print("  acc2_gap     n/a on cli_flow (CLI stage0 trains on held-out "
              "originals); eval acc2: "
              + ", ".join(f"{k} {v:.4f}" for k, v in sorted(acc2.items())))
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("digests " + json.dumps(passes[0]["digests"], sort_keys=True))

    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(
            [d for p in passes if p["traced"] for d in p["dumps"]]))
        print(f"traced per-layer metrics (median over "
              f"{len(passes) - len(plain)} traced passes; spans in "
              f"{spans_path.relative_to(ROOT)})")
        for name in sorted(layers):
            note = f"   absent: {absent[name]}" if name in absent else ""
            print(f"  {name:28s} {layers[name]:14.6f} {unit_of(name)}{note}")
        for hook in sorted(k for k in absent if k.startswith("hook ")):
            print(f"  {hook} {absent[hook]}")
        print(f"  tracing overhead: traced wall_s - untraced wall_s = "
              f"{layers['trace.overhead_s']:+.4f} s")
        for name, c in checks.items():
            print(f"  count {name}: expected {c['expected']}, observed "
                  f"{sorted(set(c['observed']))} -> {'match' if c['match'] else 'DIFFERS'}")
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e

    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
               for w in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(m["ops"]),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
