"""One fresh-interpreter step of a benchmark pass.

    child.py pipeline CONFIG_JSON OUT_DIR RESULT_JSON PASS_ID TRACE
    child.py cli      RESULT_JSON PASS_ID -- ARGV...

``pipeline`` imports the program, builds the config, runs ``run_pipeline``
once and writes to RESULT_JSON when it was ready for that first stage call
(``time.monotonic``), the call's wall time, the artifact paths and per-arm
acc2. ``cli`` is the traced launcher for one CLI command: it
installs the tracer and calls ``augqual.cli.main(argv)``, then exits with
its return code. Untraced CLI commands run as ``python -m augqual.cli``
and never come here. With TRACE 1 the spans are kept in memory and written
to RESULT_JSON when the process ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _import_program(module: str, tracer: Tracer | None):
    with _span(tracer, "cli.import"):
        mod = importlib.import_module(module)
    if SRC not in Path(mod.__file__).resolve().parents:
        raise SystemExit(f"{module} was imported from {mod.__file__}, not from {SRC}")
    return mod


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def run_pipeline(config_json: str, out_dir: str, result_path: str,
                 pass_id: str, trace: str) -> None:
    tracer = Tracer(pass_id) if trace == "1" else None
    pipeline = _import_program("augqual.pipeline", tracer)
    cfg = pipeline.pipeline_config_from_dict(json.loads(config_json))
    ready_at = time.monotonic()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    with _span(tracer, "cli.command"):
        result = pipeline.run_pipeline(cfg, out_dir)
    wall_s = time.perf_counter() - t0
    _write(result_path, {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "paths": {name: str(path) for name, path in result.paths.items()},
        "acc2": {arm: rep.mean["acc2"] for arm, rep in result.arm_reports.items()},
        "config": cfg.to_dict(),
        "trace": tracer.dump() if tracer is not None else None,
    })


def run_cli(result_path: str, pass_id: str, argv: list) -> int:
    tracer = Tracer(pass_id)
    cli = _import_program("augqual.cli", tracer)
    tracer.install()
    try:
        with tracer.span("cli.command"):
            return cli.main(argv)
    finally:
        _write(result_path, {"trace": tracer.dump()})


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "pipeline":
        run_pipeline(*argv[1:6])
        return 0
    if mode == "cli" and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    raise SystemExit(f"usage: {__doc__}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
