"""The training loops against their step-for-step references.

``train_stage0`` and ``train_stage1`` forge into work arrays, reuse one set
of intermediates for every step, work out each pool row's supervision once
and take their step generators from ``derived_rngs``. ``ref_train_stage0``
and ``ref_train_stage1`` (tests/oracles.py) are the same loops with every
array fresh and one ``derived_rng`` per step. Both must give the same
parameters, Adam moments and loss traces bit for bit. As the loops' matmuls
write into views of work arrays, the default-widths cases also run under
each OpenBLAS kernel, one subprocess each.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from augqual import finetune, qa
from augqual.corpus import CorruptionProfile, generate_corpus, train_eval_split
from augqual.finetune import HeadConfig, train_stage1
from augqual.qa import QaConfig, WeightMapConfig, export_weights, train_stage0
from augqual.util import RNG_BLOCK
from oracles import ref_train_stage0, ref_train_stage1
from test_qa import KERNEL_CORES, _loaded_core

PROFILE = CorruptionProfile(sigma_benign=0.05, p_swap=0.15, p_degrade=0.15,
                            degrade_mask_rate=0.5, p_label_noise=0.15)
SEEDS = (0, 1, 7)
STEPS = 2 * RNG_BLOCK + 5       # crosses two block boundaries, ends mid-block


@contextlib.contextmanager
def _adam_states(module):
    """The AdamState each training loop of ``module`` makes, in order."""
    states, real = [], module.init_adam

    def recording(*args, **kwargs):
        states.append(real(*args, **kwargs))
        return states[-1]
    module.init_adam = recording
    try:
        yield states
    finally:
        module.init_adam = real


def _assert_same_bits(got: tuple, want: tuple, case: str) -> None:
    """(params, trace, Adam state) of the loop equal the reference's bit for bit."""
    (params, trace, state), (want_params, want_trace, want_state) = got, want
    assert np.array(trace).tobytes() == np.array(want_trace).tobytes(), case
    assert params.keys() == want_params.keys()
    for k, arr in params.items():
        assert arr.tobytes() == want_params[k].tobytes(), (case, k)
    assert state.step == want_state.step == len(trace), case
    for name in ("flat", "m", "v"):
        assert (getattr(state, name).tobytes()
                == getattr(want_state, name).tobytes()), (case, name)


def _corpus(d=64, d_t=96, seed=5):
    return generate_corpus(60, 2, PROFILE, seed=seed, d=d, d_t=d_t)


def stage0_cases(corpus) -> dict:
    """case -> (config, rows) of every stage-0 case."""
    originals = np.flatnonzero(~corpus.augmented)
    positives = originals[corpus.features.P[originals] == 1]
    return {
        "default widths": (QaConfig(steps=STEPS), None),
        "one polarity, no mix rows": (QaConfig(steps=STEPS), positives),
        "pool below batch_size": (QaConfig(steps=STEPS), originals[:8]),
        "one block of steps": (QaConfig(steps=RNG_BLOCK), None),
        "steps 0": (QaConfig(steps=0), None),
    }


def stage1_cases(corpus, weight_file) -> dict:
    """case -> (weight file, config, rows) of every stage-1 case."""
    split = train_eval_split(corpus, 0.25)
    return {
        "default widths": (None, HeadConfig(steps=STEPS), None),
        "weighted": (weight_file, HeadConfig(steps=STEPS), split.pool("all")),
        "augmented pool": (weight_file, HeadConfig(steps=STEPS),
                           split.pool("augmented")),
        "pool below batch_size": (weight_file, HeadConfig(steps=STEPS),
                                  split.pool("augmented")[:7]),
        "batch_size 1": (weight_file, HeadConfig(steps=STEPS, batch_size=1), None),
        "one block of steps": (None, HeadConfig(steps=RNG_BLOCK), None),
        "steps 0": (weight_file, HeadConfig(steps=0), None),
    }


def check_stage0(corpus, seed, cases) -> None:
    for case, (config, rows) in cases.items():
        with _adam_states(qa) as states:
            params, trace = train_stage0(corpus, config, seed, rows=rows)
        want = ref_train_stage0(corpus, config, seed, rows=rows)
        _assert_same_bits((params.to_dict(), trace, states[0]), want, (case, seed))


def check_stage1(corpus, seed, cases) -> None:
    for case, (weight_file, config, rows) in cases.items():
        with _adam_states(finetune) as states:
            run = train_stage1(corpus, weight_file, config, seed, rows=rows)
        want = ref_train_stage1(corpus, weight_file, config, seed, rows=rows)
        _assert_same_bits((run.head.to_dict(), run.loss_trace, states[0]), want,
                          (case, seed))


def _weight_file(corpus):
    """A weight file from a briefly trained scorer, so augment weights vary."""
    params, _ = train_stage0(corpus, QaConfig(steps=40), 3)
    return export_weights(corpus, params, WeightMapConfig())


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.mark.parametrize("seed", SEEDS)
def test_stage0_matches_reference(corpus, seed):
    check_stage0(corpus, seed, stage0_cases(corpus))


@pytest.mark.parametrize("seed", SEEDS)
def test_stage1_matches_reference(corpus, seed):
    check_stage1(corpus, seed, stage1_cases(corpus, _weight_file(corpus)))


def test_narrow_widths_match_reference():
    """Widths far from the defaults: 5-wide features, a 3-unit scorer."""
    narrow = _corpus(d=5, d_t=7, seed=9)
    cases = stage0_cases(narrow)
    check_stage0(narrow, 2, {case: (QaConfig(**{**vars(config), "hidden": 3}), rows)
                             for case, (config, rows) in cases.items()})
    check_stage1(narrow, 2, stage1_cases(narrow, _weight_file(narrow)))


def check_under_core(core) -> None:
    """Print the loaded core's name; run the default-widths cases of both
    loops when it is ``core``. Runs in the subprocess of the kernel sweep."""
    loaded = _loaded_core()
    print(loaded)
    if loaded == core:
        corpus = _corpus()
        check_stage0(corpus, 1, stage0_cases(corpus))
        check_stage1(corpus, 1, stage1_cases(corpus, _weight_file(corpus)))


@pytest.mark.parametrize("kernel, core", KERNEL_CORES.items(), ids=list(KERNEL_CORES))
def test_loops_match_reference_under_each_kernel(kernel, core):
    """The default-widths cases in a process whose OpenBLAS runs the named
    kernel: writing a matmul into a view of a work array must give the
    fresh array's bits under each kernel, not only the host's own."""
    src = Path(qa.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(src)])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_loops; test_loops.check_under_core({core!r})"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    if loaded != core:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel}: the library reports core "
                    f"{loaded}, not {core}, on this host; nothing checked")
