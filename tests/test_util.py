"""Canonical JSON, the array file of both snapshots, and the atomic
artifact writer.

``dumps_canonical`` writes scalar floats in Python's shortest round-trip repr:
every finite float64 parses back bit for bit, key order never shows, and a
value JSON cannot hold is refused. A snapshot is an array file, its
parameters raw float64 bytes after a padded header line: a save/load round
trip returns every bit, the loaded parameters are read-only views of one
buffer, a parameter set that cannot be written leaves no file, and a snapshot
in either earlier JSON format is refused as such. No module imports base64.
Every artifact goes through ``write_atomic``, text and bytes chunks alike: a
write that fails at any chunk leaves no temporary file, and the target as it
was.
``derived_rngs`` yields ``derived_rng``'s streams, seeded in blocks.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from augqual import cli, corpus, finetune, pipeline, qa, util
from augqual.corpus import DEFAULT_PROFILE, CorpusConfig, generate_corpus, save_corpus
from augqual.finetune import (HeadConfig, HeadParams, head_snapshot_chunks, init_head,
                              load_head_snapshot, save_head_snapshot)
from augqual.qa import (QaParams, WeightMapConfig, export_weights, init_qa_params,
                        load_qa_snapshot, qa_checksum, qa_snapshot_chunks,
                        save_qa_snapshot)
from augqual.util import (RNG_BLOCK, ValidationError, config_to_dict, derived_rng,
                          derived_rngs, dumps_canonical, write_atomic)
from oracles import snapshot_doc, snapshot_file

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

    @pytest.mark.parametrize("indent", (0, 1, 2))
    def test_text_is_that_of_json_dumps(self, indent):
        doc = {"z": [1, -2, 2 ** 70, True, False, None, [], {}, [[]], [{}]],
               "a": {"s": 'q"\\\n\x00é\u2028', "t": (0.5, -0.0, 5e-324, 1e300),
                     "n": {"m": {"o": [[], {}, [1]]}}}, "": "", "é": 1.5}
        want = json.dumps(doc, sort_keys=True, ensure_ascii=False, allow_nan=False,
                          indent=indent or None,
                          separators=(",", ": ") if indent else (",", ":"))
        assert dumps_canonical(doc, indent=indent) == want

    def test_non_string_key_refused(self):
        """A key JSON cannot hold, and keys of types that do not sort
        together, are refused; an int key alone is written as its decimal
        string, as json.dumps writes it."""
        with pytest.raises(ValidationError, match="cannot serialize: keys must be "
                                                  "str, int, float, bool or None, not tuple"):
            dumps_canonical({"a": {(1, 2): 2.0}})
        with pytest.raises(ValidationError, match="cannot serialize: '<' not supported"):
            dumps_canonical({"a": {1: 2.0, "b": 3.0}})
        assert dumps_canonical({"a": {1: 2.0}}) == '{"a":{"1":2.0}}'


def test_no_module_imports_base64():
    """No module of the package imports base64, and with base64 made
    unimportable every module still imports and both snapshots save and
    load (numpy.random, which the generators load, imports it itself)."""
    for path in sorted(Path(util.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not {name for name in imported if name.split(".")[0] == "base64"}, path
    code = ("import sys, tempfile, numpy as np\n"
            "sys.modules['base64'] = None\n"
            "from augqual import cli, finetune, pipeline, qa\n"
            "from augqual.corpus import CorpusHeader\n"
            "d = tempfile.mkdtemp()\n"
            "p = qa.QaParams(np.ones((2, 3)), np.ones(2), np.ones((2, 2)),\n"
            "                np.ones((4, 8)), np.ones(4), np.ones(4), np.ones(1))\n"
            "qa.save_qa_snapshot(p, CorpusHeader(d=2, d_t=3, vocab_size=8, seed=0),\n"
            "                    d + '/qa.bin')\n"
            "h = finetune.HeadParams(np.ones((4, 7)), np.ones(4), np.ones((3, 8, 4)),\n"
            "                        np.ones((3, 8)))\n"
            "finetune.save_head_snapshot(h, 2, 3, d + '/head.bin')\n"
            "qa.load_qa_snapshot(d + '/qa.bin')\n"
            "finetune.load_head_snapshot(d + '/head.bin')\n"
            "print(sorted(m for m in sys.modules if m.startswith('augqual')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "'augqual.util'" in proc.stdout


D, D_T = 4, 6


def _scorer(rng):
    return init_qa_params(D, D_T, 5, rng)


def _head(rng):
    corpus = generate_corpus(2, 0, DEFAULT_PROFILE, seed=0, d=D, d_t=D_T)
    return init_head(corpus, HeadConfig(hidden=5), rng)


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
        back = _save_load(kind, params, tmp_path / "snap.bin")
        assert type(back) is (QaParams if kind == "scorer" else HeadParams)
        for k, arr in params.to_dict().items():
            got = back.to_dict()[k]
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got.view(np.uint64), arr.view(np.uint64))
        first = (tmp_path / "snap.bin").read_bytes()
        _save_load(kind, back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == first

    def test_loaded_params_are_read_only_views_of_one_buffer(self, tmp_path, kind,
                                                             make):
        path = tmp_path / "snap.bin"
        back = _save_load(kind, make(np.random.default_rng(0)), path)
        roots = set()
        for arr in back.to_dict().values():
            assert not arr.flags.writeable and not arr.flags.owndata
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            roots.add(id(arr))
            assert arr.nbytes == path.stat().st_size
        assert len(roots) == 1

    def test_decimal_list_snapshot_refused(self, tmp_path, kind, make):
        """A snapshot in the first JSON format, each parameter a decimal
        list, is refused as an earlier format."""
        path = tmp_path / "snap.json"
        params = make(np.random.default_rng(0))
        path.write_text(json.dumps({
            **({"kind": "qa_snapshot", "header": config_to_dict(_header())}
               if kind == "scorer" else {"kind": "head_snapshot", "d": D, "d_t": D_T}),
            "params": {k: v.tolist() for k, v in params.to_dict().items()}},
            indent=1, sort_keys=True) + "\n")
        load = load_qa_snapshot if kind == "scorer" else load_head_snapshot
        with pytest.raises(ValidationError, match=f"^{kind} snapshot file holds "
                           "indented JSON, an earlier format"):
            load(path)

    @pytest.mark.parametrize("edit, message", (
        (lambda e: {**e, "shape": [e["shape"][0] + 1, *e["shape"][1:]]},
         "file holds .* bytes, not the"),
        (lambda e: {**e, "shape": [10 ** 12]}, "file holds .* bytes, not the"),
        (lambda e: {**e, "shape": [0, 10 ** 30], "data": b""}, "dimension"),
        (lambda e: {**e, "shape": [-1, *e["shape"][1:]]}, "non-negative integers"),
    ))
    def test_damaged_block_named(self, tmp_path, kind, make, edit, message):
        path = tmp_path / "snap.bin"
        _save_load(kind, make(np.random.default_rng(0)), path)
        doc = snapshot_doc(path.read_bytes())
        key = sorted(doc["params"])[0]
        doc["params"][key] = edit(doc["params"][key])
        path.write_bytes(snapshot_file(doc))
        load = load_qa_snapshot if kind == "scorer" else load_head_snapshot
        with pytest.raises(ValidationError, match=f"{kind} snapshot.*" + message):
            load(path)

    def test_non_finite_params_not_serialized(self, kind, make):
        params = make(np.random.default_rng(0))
        next(iter(params.to_dict().values())).flat[0] = np.nan
        with pytest.raises(ValidationError, match="non-finite float cannot be serialized"):
            if kind == "scorer":
                qa_snapshot_chunks(params, _header())
            else:
                head_snapshot_chunks(params, D, D_T)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_failed_save_leaves_no_file(self, tmp_path, kind, make, bad):
        params = make(np.random.default_rng(0))
        list(params.to_dict().values())[-1].flat[-1] = bad
        path = tmp_path / "snap.bin"
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


# ---------------------------------------------------------------------------
# Interrupted artifact writes
# ---------------------------------------------------------------------------

class _Injected(Exception):
    """A write failure the tests inject."""


def _fail_at(chunks, k):
    for i, chunk in enumerate(chunks):
        if i == k:
            raise _Injected(f"write failed at chunk {k}")
        yield chunk


def _listing(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


class _EveryChunkFails:
    """Stands in for a module's ``write_atomic`` binding: each write is first
    tried once per chunk, failing at that chunk, and each try must leave the
    directory as it was; then the write is made in full."""

    def __init__(self):
        self.chunks = {}      # file name -> number of chunks written

    def __call__(self, chunks, path):
        chunks, path = list(chunks), Path(path)
        before = _listing(path.parent)
        for k in range(len(chunks)):
            with pytest.raises(_Injected):
                write_atomic(_fail_at(chunks, k), path)
            assert _listing(path.parent) == before, (path.name, k)
        write_atomic(chunks, path)
        self.chunks[path.name] = len(chunks)


def _small_corpus():
    return generate_corpus(8, 1, DEFAULT_PROFILE, seed=4, d=D, d_t=D_T)


def _run_small_pipeline(out: Path):
    small = CorpusConfig(n_originals=8, augments_per_original=1, d=D, d_t=D_T,
                         profile=DEFAULT_PROFILE)
    cfg = pipeline.PipelineConfig(corpus=small, seeds=(1,), arms=("original_only",),
                                  qa=qa.QaConfig(steps=2, hidden=4),
                                  head=HeadConfig(steps=2))
    pipeline.run_pipeline(cfg, out)


# artifact -> (module whose write_atomic binding writes it, file names, how to
# write them into a directory)
ARTIFACTS = {
    "corpus": (corpus, ["corpus.bin"],
               lambda d: save_corpus(_small_corpus(), d / "corpus.bin")),
    "run log": (finetune, ["runlog.jsonl"],
                lambda d: finetune.write_run_log([0.5, 0.25, 0.125], d / "runlog.jsonl")),
    "scorer snapshot": (qa, ["qa.bin"], lambda d: save_qa_snapshot(
        _scorer(np.random.default_rng(1)), _header(), d / "qa.bin")),
    "head snapshot": (finetune, ["head.bin"], lambda d: save_head_snapshot(
        _head(np.random.default_rng(1)), D, D_T, d / "head.bin")),
    "weight file": (qa, ["weights.bin"], lambda d: export_weights(
        _small_corpus(), _scorer(np.random.default_rng(1)), WeightMapConfig(),
        d / "weights.bin")),
    "report": (pipeline, ["report.json", "report.txt"], _run_small_pipeline),
    "CSV dump": (cli, ["rows.csv"], lambda d: cli.main(
        ["report", "--results", str(d / "run"), "--dump-csv", str(d / "rows.csv")])),
}


@pytest.mark.parametrize("old", (None, b"old bytes\n"), ids=("absent", "present"))
@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_write_failing_at_any_chunk_leaves_the_target_as_it_was(
        tmp_path, monkeypatch, artifact, old):
    module, names, write = ARTIFACTS[artifact]
    if artifact == "CSV dump":
        _run_small_pipeline(tmp_path / "run")
    if old is not None:
        for name in names:
            (tmp_path / name).write_bytes(old)
    tries = _EveryChunkFails()
    monkeypatch.setattr(module, "write_atomic", tries)
    write(tmp_path)
    assert set(tries.chunks) == set(names)
    assert not any(p.name.endswith(".tmp") for p in tmp_path.rglob("*"))
    assert all((tmp_path / name).read_bytes() != old for name in names)


def test_failed_rename_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "head.bin"
    path.write_bytes(b"old bytes\n")

    def no_rename(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="rename refused"):
        save_head_snapshot(_head(np.random.default_rng(1)), D, D_T, path)
    assert _listing(tmp_path) == {"head.bin": b"old bytes\n"}


def test_text_and_bytes_chunks_written_in_order(tmp_path):
    path = tmp_path / "mixed.bin"
    column = np.array([1.5, -0.0])
    write_atomic(["h\u00e9ader ", b"\x00\x01", memoryview(column).cast("B"), "end\n"],
                 path)
    assert path.read_bytes() == ("h\u00e9ader ".encode() + b"\x00\x01"
                                 + column.tobytes() + b"end\n")


def test_unopenable_target_is_named_and_writes_nothing(tmp_path):
    path = tmp_path / "missing" / "x.json"
    with pytest.raises(FileNotFoundError, match=f"No such file or directory: '{path}'"):
        write_atomic(["text"], path)
    assert list(tmp_path.iterdir()) == []


class TestDerivedRngs:
    """``derived_rngs`` yields the streams ``derived_rng`` derives, seeded a
    block of ``RNG_BLOCK`` at a time and never a block ahead."""

    @pytest.mark.parametrize("count", [0, 1, RNG_BLOCK, 2 * RNG_BLOCK + 3])
    def test_same_streams_across_block_boundaries(self, count):
        got = list(derived_rngs(7, "stage0", "step", count=count))
        assert len(got) == count
        for k, rng in enumerate(got):
            want = derived_rng(7, "stage0", "step", k)
            assert rng.bit_generator.state == want.bit_generator.state, k
            assert rng.random(5).tobytes() == want.random(5).tobytes(), k

    def test_never_builds_a_block_past_the_one_in_use(self, monkeypatch):
        seeded = []
        real = util._stream_seed

        def counting(seed, tags):
            seeded.append(tags[-1])
            return real(seed, tags)
        monkeypatch.setattr(util, "_stream_seed", counting)
        count = 2 * RNG_BLOCK + 3
        streams = derived_rngs(3, "stage1", "step", count=count)
        assert seeded == []
        for used in range(1, count + 1):
            next(streams)
            in_use = min(count, -(-used // RNG_BLOCK) * RNG_BLOCK)
            assert seeded == list(range(in_use)), used
        assert next(streams, None) is None
        assert len(seeded) == count
