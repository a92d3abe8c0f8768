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

from augqual.finetune import HeadConfig, load_head_snapshot
from augqual.pipeline import ARMS, PipelineConfig, run_pipeline
from augqual.qa import QaConfig, load_qa_snapshot

GOLDEN_CONFIG = PipelineConfig(n_originals=24, d=8, d_t=12, seeds=(1, 2),
                               arms=ARMS, qa=QaConfig(steps=40),
                               head=HeadConfig(steps=30))

GOLDEN_SHA256 = {
    "corpus_s1": "43bbd03ecd65d8e95eec483f71b72e3236ad1ab1ad5b126ca7633b6e5a651d68",
    "corpus_s2": "f39348d5b11631c77718e436368398463626c0dd7119e15b477c5c7fa5adeff9",
    "head_s1_augmented_only": "823c714443dff0d3d2d17723e52f0a0b7983f25cfbf809467828ef5428e25c79",
    "head_s1_original_only": "299acbfa9054f5d8169635b884c417b38d2cf30f54255e5f460022b3dabd796d",
    "head_s1_uniform": "9db993477da5ad7f621c1b218e6cc828f759838a025a76db13c532f2a50b3a1b",
    "head_s1_weighted": "e53ed684fff0075e8441ca5744d8b99fa5926be9adfcab6a4cd8588231d142c5",
    "head_s2_augmented_only": "b2a1249dc795e55b1757f69d5eb63839902262673e057906dc9d89b5184c9b95",
    "head_s2_original_only": "0fda3bc05c5d776c13829aae984cd71e014ceb197d48a60e8fbd9c1d25517288",
    "head_s2_uniform": "e48dfbd3600cde477c0874389f31578b667f749815c3ba7912d1c4e9cdadbf0c",
    "head_s2_weighted": "faabe7cf51209e864ed925a2d2d3f42d25e6c6216a84fdfdc66abca260f5884f",
    "qa_s1": "4c1d21d52eb4220e8d363d317096cf8d0d159f14581347ad490eeaf0bbb0d44f",
    "qa_s2": "2329ab2e69f8a2c2808c3643fff7e41a330891fea5b26409605835c5926776d5",
    "report": "6ee78b3a5ef7ba743d328facd7fdb4b18b0bac4d7e9f79bf7fe7b5e8b1335127",
    "report_txt": "2b83d8f60d58e5fe4812e029078dad489eb9e069651a4940c4becadd1bf9e221",
    "runlog_s1_augmented_only": "2952f5dcafe904f0ad360ae69a5bd761b67feb102acfea5b99c798cefc9777b7",
    "runlog_s1_original_only": "4d4d165003bc0d64cf1579c251098810d321d1133aa1bc15420c35466c907f82",
    "runlog_s1_uniform": "a72ccb7194a83c2c78b05d0c120e78d66ffcae5034b2c5810b560ce656f73c76",
    "runlog_s1_weighted": "d43630504424f9e0051b48287d2ab20166b8334c1c5b17393c68784f7350bc11",
    "runlog_s2_augmented_only": "9647d3aa52413f6c98ec6f215ef5bbb04adeedac9cb5125ab887feca00c847ff",
    "runlog_s2_original_only": "9c399d46c4bc1ff716100f938d63ffe5521cfd9db9187b2d2332de6392255c92",
    "runlog_s2_uniform": "970c3c9d00938045e29063d55005a3ccb4ff53f2dd659fe0ce4a2e3679f58a5c",
    "runlog_s2_weighted": "6e6f37c89050040cdff3386598de24165339eef40fada671065d5c3918ae3506",
    "weights_s1": "d09f8aa5be9cbb222a734875a6d7b83646797884e5e6a0809630b3889db10ee5",
    "weights_s2": "0be5a81c1c1695cdcd924e342c235e35de7476f94fc36d9535e3a29d034eb453",
}


# sha256 of each snapshot's decoded parameters: the little-endian float64
# bytes of every array, concatenated in the class's field order. Taken from
# the decimal-list snapshots of the commit before the base64 snapshot format.
GOLDEN_PARAMS_SHA256 = {
    "head_s1_augmented_only": "04f8c1b2bdc190ec161d14175fe65ca4006c719996f671b8d17af27048590f34",
    "head_s1_original_only": "569a8afbe9c7a4c88415eed8c186df254beccf9d01a4c7abf51c399a61294d16",
    "head_s1_uniform": "3d4203416cee5adc1806d514aa204b9b0913c6b78d0096b9b5376a2920c96d53",
    "head_s1_weighted": "139797fd2ea2ac087df98bba375a4b6985ebef2e5b9b4f4c23275c055f6a0507",
    "head_s2_augmented_only": "dab8cf2d3645c43a30d9ef52a41224a5cbdce748f4663c952a6d18b7aba5bbd0",
    "head_s2_original_only": "564a42e20d4fcfc16e49679c16f192e96a5a17958432a6e750487bdf5d6ef0c7",
    "head_s2_uniform": "c0d65f6f02cab096470e8cdd5f3eae68ab8240fa8639261e47034c8fad049736",
    "head_s2_weighted": "28417059488a4e99f3904527e0bc575d99f74e55af781b0685b3999df3486f03",
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
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SOURCE_DATE_EPOCH", raising=False)
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
