"""Canonical JSON and the float64 block codec of snapshot parameters.

Scalars are written one value at a time as 17-significant-digit decimals;
the vectorized formatter in ``oracles`` must give the same text. Snapshot
parameters are base64 float64 blocks: a save/load round trip returns every
bit, and the first, decimal-list snapshot format is refused by name.
"""

import hashlib
import json

import numpy as np
import pytest

from augqual.corpus import DEFAULT_PROFILE, generate_corpus
from augqual.finetune import (HeadConfig, HeadParams, init_head, load_head_snapshot,
                              save_head_snapshot, serialize_head_snapshot)
from augqual.qa import (QaParams, init_qa_params, load_qa_snapshot, qa_checksum,
                        save_qa_snapshot, serialize_qa_snapshot)
from augqual.util import ValidationError, dumps_canonical
from oracles import dumps_float_array

# signed zero, integer values on both sides of the 1e16 cut, a value with no
# short decimal, a subnormal and a huge magnitude
EDGE_VALUES = [-0.0, 3.0, 1e16 - 2, 1e16, 0.1, 1e-310, 1e300]


class TestFloatArrays:
    @pytest.mark.parametrize("indent", (0, 1, 2))
    def test_array_path_equals_recursive_path(self, indent):
        arr = np.array(EDGE_VALUES)
        assert dumps_float_array(arr, indent) == \
            dumps_canonical(list(EDGE_VALUES), indent=indent)
        assert dumps_float_array(-arr, indent) == \
            dumps_canonical([-v for v in EDGE_VALUES], indent=indent)

    def test_edge_value_text(self):
        text = ("[-0.0,3.0,9999999999999998.0,10000000000000000,"
                "0.10000000000000001,9.9999999999999694e-311,"
                "1.0000000000000001e+300]")
        assert dumps_canonical(EDGE_VALUES) == text
        assert dumps_float_array(np.array(EDGE_VALUES)) == text

    @pytest.mark.parametrize("indent", (0, 1))
    def test_nested_arrays_in_documents(self, indent):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((3, 2, 4)) * 10.0 ** rng.integers(-5, 5, (3, 2, 4))
        block[0, 0, :2] = (7.0, -0.0)
        for level in range(3):
            assert dumps_float_array(block, indent, level) == \
                dumps_canonical(block.tolist(), indent=indent, _level=level)
        doc = dumps_canonical({"w": block.tolist(), "nest": [block[1].tolist()]},
                              indent=indent)
        assert dumps_float_array(block, indent, 1) in doc
        assert dumps_float_array(block[1], indent, 2) in doc

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_float_array(np.array([1.0, bad]))
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_canonical([1.0, bad])


# -0.0, the smallest subnormal, both largest magnitudes and a negative subnormal
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -1e-310]
D, D_T, VOCAB = 4, 6, 8


def _scorer(rng):
    return init_qa_params(D, D_T, 5, rng)


def _head(rng):
    return init_head(D, D_T, VOCAB, HeadConfig(hidden=5, t_max=3), rng)


def _with_bits(params, seed):
    """params with every entry replaced: EXTREMES first, then random finite
    float64 bit patterns."""
    rng = np.random.default_rng(seed)
    out = {}
    for k, arr in params.to_dict().items():
        bits = rng.integers(0, 2 ** 64, size=arr.shape, dtype=np.uint64)
        exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
        bits[exponent == 0x7FF] ^= np.uint64(1) << np.uint64(62)   # NaN, inf -> finite
        vals = bits.view(np.float64)
        vals.flat[:len(EXTREMES)] = EXTREMES[:vals.size]
        out[k] = vals
    return type(params).from_dict(out)


def _header():
    return generate_corpus(4, 0, DEFAULT_PROFILE, seed=3, d=D, d_t=D_T).header


def _save_load(kind, params, path):
    if kind == "scorer":
        save_qa_snapshot(params, _header(), path)
        return load_qa_snapshot(path)[0]
    save_head_snapshot(params, D, D_T, path)
    return load_head_snapshot(path)[0]


@pytest.mark.parametrize("kind, make", (("scorer", _scorer), ("head", _head)))
class TestSnapshotBlocks:
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_is_bit_exact(self, tmp_path, kind, make, seed):
        params = _with_bits(make(np.random.default_rng(seed)), seed)
        back = _save_load(kind, params, tmp_path / "snap.json")
        assert type(back) is (QaParams if kind == "scorer" else HeadParams)
        for k, arr in params.to_dict().items():
            got = back.to_dict()[k]
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got.view(np.uint64), arr.view(np.uint64))
        first = (tmp_path / "snap.json").read_bytes()
        _save_load(kind, back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == first

    def test_decimal_list_snapshot_refused(self, tmp_path, kind, make):
        path = tmp_path / "snap.json"
        params = make(np.random.default_rng(0))
        _save_load(kind, params, path)
        doc = json.loads(path.read_text())
        doc["params"] = {k: v.tolist() for k, v in params.to_dict().items()}
        path.write_text(json.dumps(doc))
        load = load_qa_snapshot if kind == "scorer" else load_head_snapshot
        with pytest.raises(ValidationError, match=f"bad {kind} snapshot: param .* "
                           "is a decimal list, the first snapshot format"):
            load(path)

    @pytest.mark.parametrize("edit, message", (
        (lambda e: {**e, "data": e["data"][:-1]}, "field data is not base64"),
        (lambda e: {**e, "data": e["data"][:4] + "-" + e["data"][4:]},
         "field data is not base64"),
        (lambda e: {**e, "shape": [e["shape"][0] + 1, *e["shape"][1:]]},
         "dim mismatch: field data holds"),
        (lambda e: {**e, "shape": [10 ** 12]}, "dim mismatch: field data holds"),
        (lambda e: {**e, "shape": [0, 10 ** 30], "data": ""}, "dimension"),
        (lambda e: {**e, "shape": [-1, *e["shape"][1:]]}, "non-negative integers"),
        (lambda e: {**e, "data": None}, "field data has type NoneType"),
    ))
    def test_damaged_block_named(self, tmp_path, kind, make, edit, message):
        path = tmp_path / "snap.json"
        _save_load(kind, make(np.random.default_rng(0)), path)
        doc = json.loads(path.read_text())
        key = sorted(doc["params"])[0]
        doc["params"][key] = edit(doc["params"][key])
        path.write_text(json.dumps(doc))
        load = load_qa_snapshot if kind == "scorer" else load_head_snapshot
        with pytest.raises(ValidationError, match=f"bad {kind} snapshot: param {key}.*"
                           + message):
            load(path)

    def test_non_finite_params_not_serialized(self, kind, make):
        params = make(np.random.default_rng(0))
        next(iter(params.to_dict().values())).flat[0] = np.nan
        with pytest.raises(ValidationError, match="non-finite float cannot be serialized"):
            if kind == "scorer":
                serialize_qa_snapshot(params, _header())
            else:
                serialize_head_snapshot(params, D, D_T)


def test_qa_checksum_hashes_shapes_and_bytes():
    params = _with_bits(_scorer(np.random.default_rng(1)), 1)
    digest = hashlib.sha256()
    for k in ("text_proj_w", "text_proj_b", "polarity_emb", "hidden_w",
              "hidden_b", "out_w", "out_b"):
        arr = getattr(params, k)
        digest.update(json.dumps(list(arr.shape)).encode() + arr.astype("<f8").tobytes())
    assert qa_checksum(params) == digest.hexdigest()
