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
    "corpus_s1": "43bbd03ecd65d8e95eec483f71b72e3236ad1ab1ad5b126ca7633b6e5a651d68",
    "corpus_s2": "f39348d5b11631c77718e436368398463626c0dd7119e15b477c5c7fa5adeff9",
    "head_s1_augmented_only": "74ef34346c9d5cdf7862c248213abb17a8d115ffd44488b68ec57476677ad364",
    "head_s1_original_only": "e139c77121f4acd825dba2ebfc00826cceec78dd684c93e37cf5cf3931e29104",
    "head_s1_uniform": "a83a7a5adb69b491aabae7baa6322a4e2d75c97a29860ac69f52e0d3dc9fee43",
    "head_s1_weighted": "f2681bfc30ce6020670185b39a8b37f773f78bec717ce1f89626dc9bec8d2a16",
    "head_s2_augmented_only": "bf84c2c450d02d3e030fc32df3b7e5b39f583b099b641b527feafdefc28bc327",
    "head_s2_original_only": "d0d80596fa39056f20d932b51aa903997d99d721bb09b8dba5a3e75d0b03c1c8",
    "head_s2_uniform": "d1498f2b3d53f9043ae6a184a9b1f2fe8ecbdf64ce1b003705ea61be8899bae8",
    "head_s2_weighted": "bff6433eae03d344c9ce89611cac970286911433280f4d63900f22ec1d1464e7",
    "qa_s1": "4c1d21d52eb4220e8d363d317096cf8d0d159f14581347ad490eeaf0bbb0d44f",
    "qa_s2": "2329ab2e69f8a2c2808c3643fff7e41a330891fea5b26409605835c5926776d5",
    "report": "60ce22452c16283aa122a7661eea7fc93daff5fccb499634245cdd9e7daaa2b6",
    "report_txt": "2b83d8f60d58e5fe4812e029078dad489eb9e069651a4940c4becadd1bf9e221",
    "runlog_s1_augmented_only": "7158f545a71c7151f0765b36ecfb93976c6136f07b692a65f15a009e5aeed402",
    "runlog_s1_original_only": "f658fb8f7007e8e6bbe29fd06622d6173d0afe57cd2e4e19ed1e982020159c5a",
    "runlog_s1_uniform": "24e06100f129d87ca8efa9b36fd095a98f32c7295827947ba189051f38933dc8",
    "runlog_s1_weighted": "cface8618f821057d4c4a57bed67c21d4c3e9a1fc9009e3383d354b868bd5320",
    "runlog_s2_augmented_only": "acd7e862237c3872e53b461e5fa774d91ab4ad6666311d0a5d6af0ee90bbdecc",
    "runlog_s2_original_only": "fdcd8c335487754bd1ae09b7d87815549dfc94fa6ad717544f5221a1eda15d20",
    "runlog_s2_uniform": "d6155d640ef5999f0f2214de5b0c35846659d39f1145a2a08e06a2fa45044a2d",
    "runlog_s2_weighted": "22a5bec3c76842bbf08c8b763ef60a10f2f23f3b5dd4cd7520410262be926829",
    "weights_s1": "d09f8aa5be9cbb222a734875a6d7b83646797884e5e6a0809630b3889db10ee5",
    "weights_s2": "0be5a81c1c1695cdcd924e342c235e35de7476f94fc36d9535e3a29d034eb453",
}


# sha256 of each snapshot's decoded parameters: the little-endian float64
# bytes of every array, concatenated in the class's field order. The qa_*
# entries were taken from the decimal-list snapshots of the commit before the
# base64 snapshot format; the head_* entries were taken again when the head's
# output layer moved from einsum to one BLAS matmul, which changed the order of
# its float sums.
GOLDEN_PARAMS_SHA256 = {
    "head_s1_augmented_only": "4b28630d83ecdd3923ee837e5b4bd3384a74b957caa21ba417f597eb2602e46a",
    "head_s1_original_only": "a4d8ba2bd29838f712d181ab819c45522c5118af3ac1870b204fc166c020a64f",
    "head_s1_uniform": "09fee7e5b2473f9145e1e1d6fda9a2a7c45e1f939b10a43c98fd5d662af3e16b",
    "head_s1_weighted": "ff0ceda515352c1bb394c3f4a4e3cabfba92736f624ebcf9bcbd8cf279063dfc",
    "head_s2_augmented_only": "f0267703aaa34ee6fe334d24b5172c50b4fc9186faf9861c63341b2ffd50cea3",
    "head_s2_original_only": "5fbd63e3b0685fd04a1d83f6ba3938081acb18dc71cf47d16ceef48efec3c22d",
    "head_s2_uniform": "db0f35ca4e487cd0172e490700c91a14045f5b247fd60f0aa5dd888cd8b28aeb",
    "head_s2_weighted": "645138b372ac00f08b5211b2030142c4a0518b78909c29dab7e5a48cb7a07bc9",
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
