"""The benchmark's span hooks still name functions the program binds.

``benchmarks/spans.py`` wraps each hooked function at the name its calling
module binds, and records a hook it cannot find as absent, so its per-layer
metric reads zero. Renaming a hooked function must fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import augqual.cli  # noqa: F401  (the tracer wraps the modules this imports)
from augqual import qa
from augqual.corpus import CorruptionProfile, generate_corpus
from augqual.util import derived_rng

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_every_hook_resolves_to_a_callable():
    hooks = _hooks()
    assert hooks
    unbound = [f"{module}.{name}" for module, name, *_ in hooks
               if not callable(getattr(sys.modules.get(module), name, None))]
    assert not unbound, f"benchmark hooks name no callable: {unbound}"


def test_export_weights_scores_through_the_hooked_global(monkeypatch):
    """The ``qa.score`` span wraps ``augqual.qa.score_corpus``; a weight export
    that scored through another name would leave that span reading zero."""
    calls = []
    score_corpus = qa.score_corpus

    def counting(*args, **kwargs):
        calls.append(args)
        return score_corpus(*args, **kwargs)
    monkeypatch.setattr(qa, "score_corpus", counting)
    corpus = generate_corpus(200, 2, CorruptionProfile(), seed=3, d=8, d_t=8)
    params = qa.init_qa_params(8, 8, 4, derived_rng(0, "init"))
    qa.export_weights(corpus, params, qa.WeightMapConfig())
    assert len(calls) == 1
