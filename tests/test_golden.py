"""Golden digests: the tiny fixed pipeline below must reproduce these bytes.

The file digests pin every artifact in ``PipelineResult.paths`` (corpora,
scorer and head snapshots, weight files, run logs, reports). The numerics
digests pin, apart from any file encoding, the float64 parameters each scorer
and head snapshot decodes to. A change of file format re-pins the file
digests it moves and says so in CHANGES.md, while the numerics digests stay
fixed; only a change that alters numerics on purpose updates those, and says
why. Float64 results can differ across numpy builds and BLAS libraries, so a
mismatch reports both.
"""

import hashlib

import numpy as np
import pytest

from augqual.corpus import DEFAULT_PROFILE, CorpusConfig
from augqual.finetune import HeadConfig, load_head_snapshot
from augqual.pipeline import ARMS, PipelineConfig, run_pipeline
from augqual.qa import QaConfig, load_qa_snapshot

GOLDEN_CONFIG = PipelineConfig(corpus=CorpusConfig(n_originals=24, d=8, d_t=12,
                                                   profile=DEFAULT_PROFILE),
                               seeds=(1, 2), arms=ARMS, qa=QaConfig(steps=40),
                               head=HeadConfig(steps=30))

GOLDEN_SHA256 = {
    # the head_* and qa_* entries were taken again when both snapshots became
    # binary files laid out as the corpus file is (a padded header line, then
    # raw float64 bytes); GOLDEN_PARAMS_SHA256 shows their parameters kept
    # every bit
    "corpus_s1": "f520c6617cff3b30c8c405e6bffe5a934d18e7324dc71e0188a1760813869a25",
    "corpus_s2": "f8c9d3b7694d956d0474699ed0b74b4b96598d41b477d80021b8757dd1fb6040",
    "head_s1_augmented_only": "826723a3ff09cf0ffa6be090855d613477adabfb02ad8c68cc95712f94f2ea50",
    "head_s1_original_only": "fbf9a75170c58762069f6d2b548f027d09feb6b715e15ce853fe222a97e7d9af",
    "head_s1_uniform": "8e3887ed0279bd64b1dd38dd3b06acf00a488f4cc34423a800e8c9e37d650181",
    "head_s1_weighted": "2d8b8c51ac40578a29f6fa2b2356e7046f83708e7d26ec835d1b676f055b5cb7",
    "head_s2_augmented_only": "c0976de96e4d6e364044ce22e82c74b0790f7c55dc6f8a8fe90fe413af2736ae",
    "head_s2_original_only": "b5e2439c2d5db5c80b749f9b7d0cdb904f3bc66455eb34c77d15a8edb91ac4ed",
    "head_s2_uniform": "64f0d7cf6df7a4d92fc44d28c73224c398deb5ae819cf415ed654c60b446901a",
    "head_s2_weighted": "0e6abfa1dfc22775fd1e41d5e573200712d85191e4ac77e5e2fc3c53d31a9e23",
    "qa_s1": "d1a9b7ceca085c362e6094a94cbd13d4fee91f61a0e52ca0a855e8163a66f1a0",
    "qa_s2": "3f6429828233695c882c8345f60ceee6c8620aa74f1cc0e8f5967f7b7ac5ec9c",
    "report": "f857bb561e519c8c84b9519f04ad6cc0f408214b6b55cb2f2bf0e70a642accda",
    "report_txt": "2b83d8f60d58e5fe4812e029078dad489eb9e069651a4940c4becadd1bf9e221",
    "runlog_s1_augmented_only": "7158f545a71c7151f0765b36ecfb93976c6136f07b692a65f15a009e5aeed402",
    "runlog_s1_original_only": "f658fb8f7007e8e6bbe29fd06622d6173d0afe57cd2e4e19ed1e982020159c5a",
    "runlog_s1_uniform": "24e06100f129d87ca8efa9b36fd095a98f32c7295827947ba189051f38933dc8",
    "runlog_s1_weighted": "cface8618f821057d4c4a57bed67c21d4c3e9a1fc9009e3383d354b868bd5320",
    "runlog_s2_augmented_only": "acd7e862237c3872e53b461e5fa774d91ab4ad6666311d0a5d6af0ee90bbdecc",
    "runlog_s2_original_only": "fdcd8c335487754bd1ae09b7d87815549dfc94fa6ad717544f5221a1eda15d20",
    "runlog_s2_uniform": "d6155d640ef5999f0f2214de5b0c35846659d39f1145a2a08e06a2fa45044a2d",
    "runlog_s2_weighted": "22a5bec3c76842bbf08c8b763ef60a10f2f23f3b5dd4cd7520410262be926829",
    # taken again when the weight file became an array file: a padded header
    # line, then one float64 score per corpus row in row order, no ids
    # (832 bytes each); every score kept its bits
    "weights_s1": "d4aff7b4bb082c90bcab5ae31af72547c745b9e1d243cb324463d63c4d0eb011",
    "weights_s2": "65e5c61f06fa2921308e14ac52e68c6fd75077450651203eb6df8f6545c980a0",
}


# sha256 of each snapshot's decoded parameters: the little-endian float64
# bytes of every array, concatenated in the class's field order. The qa_*
# entries were taken from the decimal-list snapshots of the commit before the
# base64 snapshot format. The head_* entries were taken again when the head's
# output layer moved from einsum to one BLAS matmul, which changed the order of
# its float sums, and again when the targets lost their unsupervised padding
# position: each head then lost its fourth output position, and every other
# parameter kept its bits.
GOLDEN_PARAMS_SHA256 = {
    "head_s1_augmented_only": "0899e309e2057d66037fa64978ad80f9a066f40169ab58b4df0d0d0ce98382d8",
    "head_s1_original_only": "ab92db4effa1c89b7faed41a33e9d9f191d045f20584012c999a91fea259bd56",
    "head_s1_uniform": "784efebec01488d4de08d3757ed3f3d08bed12abe43fd92f9040530a3ff8c9d3",
    "head_s1_weighted": "748c2460584766b2390be5a0f941d291fd6ccf5e3600734300d0f6cc9cbd9550",
    "head_s2_augmented_only": "6624c0dec687d29f0fc8f6368ccd9df3dcadbd5171e0d3b06f3c5c7c8f4c5ead",
    "head_s2_original_only": "ef7239568226252e19f4b01180646ce20c195f5e277b643b06f4b2fbf6060316",
    "head_s2_uniform": "e984610a3306d7d5b10d5f5537899bf239405b047e3ccbb017ca5c42ad2db3dd",
    "head_s2_weighted": "a3fdabc49671e29a4046f202044b837bce001ebf61ac0325f1cfb1c40e28afe2",
    "qa_s1": "957681a9211580e980d7504fa0f644517871b48e3a8e30aa98dc65bf7e84aa6f",
    "qa_s2": "4c6a851cfbae55bc97bccd8e353fe32253489bd64f46342f30f8c0783830edd6",
}


def _blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("name"))
    except Exception:  # older numpy has no dict mode
        return "unknown"


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory):
    return run_pipeline(GOLDEN_CONFIG, tmp_path_factory.mktemp("golden")).paths


def test_golden_digests(golden_paths):
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in golden_paths.items()}
    assert sorted(got) == sorted(GOLDEN_SHA256)
    changed = sorted(name for name in got if got[name] != GOLDEN_SHA256[name])
    assert not changed, (
        f"artifacts differ from the golden digests: {changed} "
        f"(numpy {np.__version__}, BLAS {_blas_name()})")


def _params_sha256(path) -> str:
    loader = load_qa_snapshot if path.name.startswith("qa_") else load_head_snapshot
    digest = hashlib.sha256()
    for arr in loader(path)[0].to_dict().values():
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_golden_snapshot_numerics(golden_paths):
    got = {name: _params_sha256(path) for name, path in golden_paths.items()
           if name in GOLDEN_PARAMS_SHA256}
    assert sorted(got) == sorted(GOLDEN_PARAMS_SHA256)
    changed = sorted(name for name in got if got[name] != GOLDEN_PARAMS_SHA256[name])
    assert not changed, (
        f"snapshot parameters differ from the golden digests: {changed} "
        f"(numpy {np.__version__}, BLAS {_blas_name()})")
