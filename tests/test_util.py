"""Canonical JSON and the float64 block codec of snapshot parameters.

``dumps_canonical`` writes scalar floats in Python's shortest round-trip repr:
every finite float64 parses back bit for bit, key order never shows, and a
value JSON cannot hold is refused. Snapshot parameters are base64 float64
blocks: a save/load round trip returns every bit, a parameter set that cannot
be written leaves no file, and the first, decimal-list snapshot format is
refused by name.
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

# signed zero, integer values on both sides of the 1e16 cut, a value with no
# short decimal, a subnormal and a huge magnitude
EDGE_VALUES = [-0.0, 3.0, 1e16 - 2, 1e16, 0.1, 1e-310, 1e300]
# -0.0, the smallest subnormal, both largest magnitudes and a negative subnormal
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -1e-310]


def _finite_bits(rng, shape):
    """Random float64 bit patterns, each NaN or infinity flipped to a finite value."""
    bits = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    bits[exponent == 0x7FF] ^= np.uint64(1) << np.uint64(62)
    return bits.view(np.float64)


class TestDumpsCanonical:
    def test_edge_values_in_repr_form(self):
        text = "[-0.0,3.0,9999999999999998.0,1e+16,0.1,1e-310,1e+300]"
        assert dumps_canonical(EDGE_VALUES) == text
        assert dumps_canonical(EDGE_VALUES) == "[" + ",".join(map(repr, EDGE_VALUES)) + "]"

    @pytest.mark.parametrize("indent", (0, 1))
    def test_floats_round_trip_bit_exact(self, indent):
        values = np.concatenate([EXTREMES, _finite_bits(np.random.default_rng(7), 10_000)])
        doc = {"extremes": EXTREMES, "values": values.tolist(),
               "nest": [{"x": v} for v in values[:50].tolist()]}
        back = json.loads(dumps_canonical(doc, indent=indent))
        for got, want in ((back["values"], values), (back["extremes"], EXTREMES),
                          ([e["x"] for e in back["nest"]], values[:50])):
            np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                          np.array(want).view(np.uint64))

    @pytest.mark.parametrize("indent", (0, 1))
    def test_key_order_does_not_matter(self, indent):
        items = [("b", 1.5), ("a", [1, {"z": None, "y": True}]), ("é", "ü")]
        texts = {dumps_canonical(dict(order), indent=indent)
                 for order in (items, items[::-1], items[1:] + items[:1])}
        assert len(texts) == 1

    def test_layout(self):
        doc = {"b": [], "a": {"x": [0.5, "é"]}}
        assert dumps_canonical(doc) == '{"a":{"x":[0.5,"é"]},"b":[]}'
        assert dumps_canonical(doc, indent=1) == (
            '{\n "a": {\n  "x": [\n   0.5,\n   "é"\n  ]\n },\n "b": []\n}')

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("indent", (0, 1))
    def test_non_finite_refused(self, bad, indent):
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_canonical({"w": [1.0, float(bad)]}, indent=indent)

    @pytest.mark.parametrize("bad, name", ((np.int64(3), "int64"), ({1, 2}, "set")))
    def test_value_without_json_form_refused(self, bad, name):
        with pytest.raises(ValidationError, match=f"cannot serialize: .*{name}"):
            dumps_canonical({"w": [bad]})


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
        vals = _finite_bits(rng, arr.shape)
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

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_failed_save_leaves_no_file(self, tmp_path, kind, make, bad):
        params = make(np.random.default_rng(0))
        list(params.to_dict().values())[-1].flat[-1] = bad
        path = tmp_path / "snap.json"
        with pytest.raises(ValidationError, match="non-finite float cannot be serialized"):
            _save_load(kind, params, path)
        assert not path.exists()


def test_qa_checksum_hashes_shapes_and_bytes():
    params = _with_bits(_scorer(np.random.default_rng(1)), 1)
    digest = hashlib.sha256()
    for k in ("text_proj_w", "text_proj_b", "polarity_emb", "hidden_w",
              "hidden_b", "out_w", "out_b"):
        arr = getattr(params, k)
        digest.update(json.dumps(list(arr.shape)).encode() + arr.astype("<f8").tobytes())
    assert qa_checksum(params) == digest.hexdigest()
