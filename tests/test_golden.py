"""Golden digests: the tiny fixed pipeline below must reproduce these bytes.

The digests pin every artifact in ``PipelineResult.paths`` (corpora, scorer
and head snapshots, weight files, run logs, reports). A change that alters
numerics on purpose updates them here and says why in CHANGES.md; a speed-up
must leave them untouched. Float64 results can differ across numpy builds and
BLAS libraries, so a mismatch reports both.
"""

import hashlib

import numpy as np

from augqual.finetune import HeadConfig
from augqual.pipeline import ARMS, PipelineConfig, run_pipeline
from augqual.qa import QaConfig

GOLDEN_CONFIG = PipelineConfig(n_originals=24, d=8, d_t=12, seeds=(1, 2),
                               arms=ARMS, qa=QaConfig(steps=40),
                               head=HeadConfig(steps=30))

GOLDEN_SHA256 = {
    "corpus_s1": "5e3e5e710689f028939f490fcebec1f7a305335276bd66491d54d8568302c450",
    "corpus_s2": "fd82708a2ad9c915ef30993138498086be9222177bad430df27215dde82e5b74",
    "head_s1_augmented_only": "2488ca1e288c0438f3d5118a92600c567ad592d85651d631f3776b3768e3a3a0",
    "head_s1_original_only": "21b88d94d34a256e279308311b7f9e65dc31bac926c8a2899feca55142d0ec46",
    "head_s1_uniform": "15109b48625db807085d61407fb48cd8f2a52ba9ad230506b254932278667fb8",
    "head_s1_weighted": "56f655dc0e9023f678b3dd4e5b81ea61257473cb9e7d3471b570e27b8ce2e7ad",
    "head_s2_augmented_only": "f1b912798e5dde0c02acb5c72acc320d7075565eef9de61e849513317c026aa9",
    "head_s2_original_only": "4c415133415cece2d0b7214736c26e4b4bc5987d20538359a83e7a2dc54424cc",
    "head_s2_uniform": "9d86e594947e7129adddcac147eff846666f0226628a977652d85f01804be316",
    "head_s2_weighted": "14f85ceded227b975889f717547be05b636e31303cd38cdd1d3a06da3fa00e76",
    "qa_s1": "7d601b21943386f0e5fcf716c60354a98876ccc23a56cce8c0f8eb729b2a17fb",
    "qa_s2": "333665e56c8443fd2f76832fc8b9109b5f02429d3d99e9c294009b81cddb26b9",
    "report": "24a9a2ebec40ff7194f17a22e669fe158331b0e4c1acf0fa6f1096f3ab24c979",
    "report_txt": "2b83d8f60d58e5fe4812e029078dad489eb9e069651a4940c4becadd1bf9e221",
    "runlog_s1_augmented_only": "2952f5dcafe904f0ad360ae69a5bd761b67feb102acfea5b99c798cefc9777b7",
    "runlog_s1_original_only": "4d4d165003bc0d64cf1579c251098810d321d1133aa1bc15420c35466c907f82",
    "runlog_s1_uniform": "a72ccb7194a83c2c78b05d0c120e78d66ffcae5034b2c5810b560ce656f73c76",
    "runlog_s1_weighted": "d43630504424f9e0051b48287d2ab20166b8334c1c5b17393c68784f7350bc11",
    "runlog_s2_augmented_only": "9647d3aa52413f6c98ec6f215ef5bbb04adeedac9cb5125ab887feca00c847ff",
    "runlog_s2_original_only": "9c399d46c4bc1ff716100f938d63ffe5521cfd9db9187b2d2332de6392255c92",
    "runlog_s2_uniform": "970c3c9d00938045e29063d55005a3ccb4ff53f2dd659fe0ce4a2e3679f58a5c",
    "runlog_s2_weighted": "6e6f37c89050040cdff3386598de24165339eef40fada671065d5c3918ae3506",
    "weights_s1": "28ac9cef559b1ddba8fbf3ddee4b9fd3e727e5208c994e26fa8ee19dd737b64b",
    "weights_s2": "8bc6e0e1aeb778bbd11efefda9badb520b1771e203e5632cfab8dce3593efdf8",
}


def _blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("name"))
    except Exception:  # older numpy has no dict mode
        return "unknown"


def test_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    result = run_pipeline(GOLDEN_CONFIG, tmp_path)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in result.paths.items()}
    assert sorted(got) == sorted(GOLDEN_SHA256)
    changed = sorted(name for name in got if got[name] != GOLDEN_SHA256[name])
    assert not changed, (
        f"artifacts differ from the golden digests: {changed} "
        f"(numpy {np.__version__}, BLAS {_blas_name()})")
