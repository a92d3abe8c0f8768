"""The benchmark's span hooks still name functions the program binds.

``benchmarks/spans.py`` wraps each hooked function at the name its calling
module binds, and records a hook it cannot find as absent, so its per-layer
metric reads zero. Renaming a hooked function must fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import augqual.cli  # noqa: F401  (the tracer wraps the modules this imports)
from augqual import finetune, pipeline, qa
from augqual.corpus import CorruptionProfile, generate_corpus, train_eval_split
from augqual.finetune import HeadConfig, train_stage1
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


def test_evaluate_predicts_and_scores_through_the_hooked_globals(monkeypatch):
    """The ``finetune.predict`` and ``metrics.compute`` spans wrap
    ``augqual.pipeline.predict_all`` and ``augqual.pipeline.compute_metrics``;
    an evaluation that decoded or scored inline would leave them reading zero."""
    calls = {"predict_all": 0, "compute_metrics": 0}

    def counting(name):
        wrapped = getattr(pipeline, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        return call
    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    corpus = generate_corpus(40, 1, CorruptionProfile(), seed=3, d=8, d_t=8)
    head = train_stage1(corpus, None, HeadConfig(steps=2), 0).head
    pipeline.evaluate(head, corpus, train_eval_split(corpus, 0.25))
    assert calls == {"predict_all": 1, "compute_metrics": 1}


def test_training_steps_call_through_the_hooked_globals(monkeypatch):
    """The ``forge.batch``, ``qa.grad`` and ``numerics.adam`` spans wrap
    ``forge_batch``, ``qa_loss_and_grads`` and ``adam_step`` where
    ``augqual.qa`` and ``augqual.finetune`` bind them; a training step that
    called them by another name would leave their counts reading zero."""
    hooked = [(qa, "forge_batch"), (qa, "qa_loss_and_grads"), (qa, "adam_step"),
              (finetune, "adam_step")]
    calls = {f"{module.__name__}.{name}": 0 for module, name in hooked}

    def counting(module, name):
        wrapped, key = getattr(module, name), f"{module.__name__}.{name}"

        def call(*args, **kwargs):
            calls[key] += 1
            return wrapped(*args, **kwargs)
        return call
    for module, name in hooked:
        monkeypatch.setattr(module, name, counting(module, name))
    corpus = generate_corpus(40, 1, CorruptionProfile(), seed=3, d=8, d_t=8)
    qa.train_stage0(corpus, qa.QaConfig(steps=5, hidden=4), 0)
    train_stage1(corpus, None, HeadConfig(steps=3), 0)
    assert calls == {"augqual.qa.forge_batch": 5, "augqual.qa.qa_loss_and_grads": 5,
                     "augqual.qa.adam_step": 5, "augqual.finetune.adam_step": 3}



def test_report_is_written_through_the_hooked_global(monkeypatch, tmp_path):
    """The ``util.dumps`` span wraps ``dumps_canonical`` where
    ``augqual.pipeline`` binds it; a report written by another encoder
    would leave that span timing nothing."""
    calls = []
    dumps_canonical = pipeline.dumps_canonical

    def counting(doc, **kwargs):
        calls.append(sorted(doc))
        return dumps_canonical(doc, **kwargs)
    monkeypatch.setattr(pipeline, "dumps_canonical", counting)
    cfg = pipeline.PipelineConfig(
        corpus=pipeline.CorpusConfig(n_originals=8, augments_per_original=1, d=4,
                                     d_t=4),
        seeds=(1,), arms=("original_only",), qa=qa.QaConfig(steps=2, hidden=4),
        head=HeadConfig(steps=2))
    report = pipeline.run_pipeline(cfg, tmp_path).report
    assert calls == [["arms", "config", "corpus_checksums", "kind", "versions"]]
    assert (tmp_path / "report.json").read_text() == (
        dumps_canonical(report, indent=1) + "\n")
