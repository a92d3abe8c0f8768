"""Shared plumbing: error types, seeded stream derivation, canonical JSON,
checksums, the schema walker that reads and writes config documents and
corpus headers, the float64 array codec of the JSON artifacts, and the one
writer every artifact goes through.

A JSON artifact writes each float array as a ``B64Block``, padded
standard-alphabet base64 of its little-endian float64 bytes, with its shape
(``encode_params`` / ``decode_params``), so a round trip is bit-exact; the
corpus file holds its columns as raw bytes instead (``corpus``).
``dumps_canonical`` writes every scalar float in Python's shortest round-trip
repr; ``document_chunks`` yields the same text in pieces, from the same
encoder, streaming each ``B64Block`` so that no piece holds a whole
parameter's text.

``write_atomic`` writes an artifact's chunks, text or bytes, into a temporary
file beside the target and renames it into place with ``os.replace``; on any
failure the temporary file is removed. So a run that fails or is killed
mid-write never leaves a truncated artifact at the target path.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import field, fields, is_dataclass, replace
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np


class AugqualError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AugqualError):
    """Bad inputs: shapes, ranges, config values, malformed files."""


class ChecksumError(AugqualError):
    """An artifact does not match the inputs it claims to be derived from."""


class PipelineError(AugqualError):
    """A pipeline stage failed; message carries the stage name and cause."""


def _stream_seed(seed: int, tags: tuple) -> int:
    """The 128-bit PCG64 seed of the stream keyed by (seed, tags): the first
    16 bytes of SHA-256 over ``seed:tag:tag...``, little-endian."""
    msg = ":".join([str(int(seed))] + [str(t) for t in tags]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(msg).digest()[:16], "little")


def derived_rng(seed: int, *tags: object) -> np.random.Generator:
    """Independent PCG64 stream keyed by (seed, tags) via SHA-256.

    Streams for distinct tag tuples are statistically independent, so
    per-sample generation does not depend on iteration order.
    """
    return np.random.Generator(np.random.PCG64(_stream_seed(seed, tags)))


class _StateWords:
    """A seed sequence whose one answer, the four uint64 words ``PCG64``
    seeds itself from, was generated in advance by a ``SeedSequence``;
    ``derived_rngs`` registers it as a numpy ``ISeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"state words hold {self.words.size} "
                             f"{self.words.dtype}, not {n_words} {np.dtype(dtype)}")
        return self.words


# Streams derived_rngs seeds back to back: their SeedSequence work then runs
# warm, not cold between a training step's BLAS, erf and Adam calls.
RNG_BLOCK = 32


def derived_rngs(seed: int, *tags: object, count: int) -> Iterator[np.random.Generator]:
    """``derived_rng(seed, *tags, k)`` for k in ``range(count)``: the same
    streams, in order. The SeedSequence of each stream, which hashes its seed
    into PCG64's four state words, runs ``RNG_BLOCK`` streams at a time, when
    the first of a block is asked for; only those words are kept (32 bytes a
    stream), so no block past the one in use is ever built, and each
    generator is made from its words when it is yielded."""
    # numpy.random loads on first use, as for derived_rng, not at import
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_StateWords)
    for start in range(0, count, RNG_BLOCK):
        words = np.empty((min(RNG_BLOCK, count - start), 4), dtype=np.uint64)
        for i in range(words.shape[0]):
            words[i] = np.random.SeedSequence(_stream_seed(
                seed, (*tags, start + i))).generate_state(4, np.uint64)
        for row in words:
            yield np.random.Generator(np.random.PCG64(_StateWords(row)))


def load_json_object(path, what: str) -> dict:
    """The JSON object a file holds; ValidationError naming ``what`` when the
    file is not UTF-8 JSON or holds another JSON value."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError as exc:   # bad JSON or bad UTF-8
        raise ValidationError(f"bad {what}: {exc}") from exc
    if type(raw) is not dict:
        raise ValidationError(f"bad {what}: holds a JSON {type(raw).__name__}, "
                              "not an object")
    return raw


def check_fields(obj, fields: dict, where: str) -> dict:
    """obj, when it is a JSON object holding every field of ``fields`` with one
    of the exact JSON types listed for it (true and false are bools, never
    numbers); ValidationError starting with ``where`` otherwise."""
    if type(obj) is not dict or not set(fields) <= set(obj):
        raise ValidationError(f"{where} needs an object with fields "
                              f"{', '.join(fields)}")
    for key, kinds in fields.items():
        if type(obj[key]) not in kinds:
            raise ValidationError(f"{where}: field {key} has type "
                                  f"{type(obj[key]).__name__}")
    return obj


def bounded(default, interval: str):
    """A dataclass field defaulting to ``default`` (none when it is
    ``dataclasses.MISSING``) whose value ``check_ranges`` keeps in
    ``interval``, written ``"[lo, hi)"``: a bracket closes an end and a
    parenthesis opens it; ``inf`` is always an open end."""
    return field(default=default, metadata={"interval": interval})


def check_ranges(obj) -> None:
    """ValidationError ``<Class>.<field> must be in <interval>, got <value>``
    for the first ``bounded`` field of the dataclass instance ``obj`` outside
    its interval. Each element of a tuple is checked and None passes;
    every comparison is written so that NaN fails it."""
    for f in filter(lambda f: "interval" in f.metadata, fields(obj)):
        interval = f.metadata["interval"]
        lo, hi = (float(x) for x in interval[1:-1].split(","))
        value = getattr(obj, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if v is not None and not ((lo <= v if interval[0] == "[" else lo < v)
                                      and (v <= hi if interval[-1] == "]" else v < hi)):
                raise ValidationError(f"{type(obj).__name__}.{f.name} must be in "
                                      f"{interval}, got {v}")


# The name of each type json.load gives, as config errors print it.
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "an integer", float: "a float",
               type(None): "null"}
# The text a stage flag takes for an int and a float field; nan and inf
# pass here so that the field's interval refuses them by name.
_FLAG_TEXT = {int: re.compile(r"-?[0-9]+"),
              float: re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?"
                                r"|-?inf|nan")}


def config_fields(cls) -> list:
    """(name, type from its annotation) of each field of the config dataclass
    ``cls``: one document key and one stage flag each. A dataclass type is a
    nested section; ``int`` is never a bool; ``float`` is any finite number,
    stored as a float; ``int | None`` also takes null; ``tuple[X, ...]`` is an
    array of X."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def config_to_dict(config) -> dict:
    """The config dataclass instance ``config`` as its document, keys in
    field order."""
    doc = {}
    for name, hint in config_fields(type(config)):
        value = getattr(config, name)
        doc[name] = (config_to_dict(value) if is_dataclass(hint)
                     else list(value) if get_origin(hint) is tuple
                     else value)
    return doc


def config_from_dict(base, doc, section: str = "", what: str = "config"):
    """The config dataclass instance ``base`` with the keys the ``what``
    document ``doc`` sets; a key left out, in a nested section too, keeps
    base's value. When ``base`` is a dataclass type, ``doc`` must set every
    key of it and of its sections. An unknown or missing key, or a value not
    of its field's JSON type, is refused naming the dotted key; building each
    dataclass checks the rest."""
    cls = base if isinstance(base, type) else type(base)
    if type(doc) is not dict:
        raise ValidationError(f"{what} section {section} must be an object"
                              if section else f"{what} must be a JSON object")
    hints = dict(config_fields(cls))
    values = {}
    for key, value in doc.items():
        dotted = f"{section}.{key}" if section else key
        if key not in hints:
            raise ValidationError(f"unknown {what} key: {dotted}")
        values[key] = (config_from_dict(hints[key] if base is cls else getattr(base, key),
                                        value, dotted, what)
                       if is_dataclass(hints[key])
                       else _json_value(value, hints[key], dotted, what))
    if base is not cls:
        return replace(base, **values)
    missing = [key for key in hints if key not in values]
    if missing:
        key = f"{section}.{missing[0]}" if section else missing[0]
        raise ValidationError(f"missing {what} key: {key}")
    return cls(**values)


def _json_value(value, hint, key: str, what: str):
    """value, checked to be of a JSON type that the field type ``hint`` takes."""
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    if get_origin(hint) is tuple:
        if type(value) is not list:
            raise ValidationError(f"{what} key {key} must be an array, got {got}")
        return tuple(_json_value(v, get_args(hint)[0], f"{key}[{i}]", what)
                     for i, v in enumerate(value))
    kinds = [k for t in get_args(hint) or (hint,)
             for k in ((int, float) if t is float else (t,))]
    if type(value) not in kinds:
        want = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise ValidationError(f"{what} key {key} must be {want}, got {got}")
    if hint is not float:
        return value
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{what} key {key} must be a finite number")
    return float(value)


def flag_type(hint, flag: str):
    """The argparse type of stage flag ``flag`` for a field of type ``hint``:
    a tuple takes a comma list of its element type, an int a plain decimal
    integer, a float a decimal number. Other text raises ValidationError
    ``bad <flag>: ...``, which argparse passes on to its caller."""
    if get_origin(hint) is tuple:
        item = flag_type(get_args(hint)[0], flag)
        return lambda text: tuple(map(item, text.split(",")))
    kind = float if hint is float else int    # int | None takes an int

    def parse(text: str):
        if not _FLAG_TEXT[kind].fullmatch(text):
            raise ValidationError(f"bad {flag}: {text!r} is not a decimal "
                                  f"{'number' if kind is float else 'integer'}")
        return kind(text)
    return parse


def check_params(arrays: dict, shapes: dict, what: str) -> None:
    """Each named parameter array has its expected shape and finite values."""
    for k, want in shapes.items():
        arr = arrays[k]
        if arr.shape != want:
            raise ValidationError(f"{what} param {k}: shape {arr.shape}, "
                                  f"expected {want}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} param {k}: non-finite values")


# Raw bytes per streamed piece of a B64Block: a multiple of 3, so every piece
# but the last encodes without padding and the pieces join to one block.
_B64_PIECE = 3 * 4096


class B64Block:
    """A float64 array that canonical JSON writes as one string, the padded
    base64 of its little-endian float64 bytes, encoded ``_B64_PIECE`` bytes
    at a time."""

    __slots__ = ("data",)

    def __init__(self, arr):
        self.data = np.ascontiguousarray(arr, dtype="<f8")

    def pieces(self) -> Iterator[str]:
        raw = memoryview(self.data).cast("B")
        for lo in range(0, len(raw), _B64_PIECE):
            yield base64.b64encode(raw[lo:lo + _B64_PIECE]).decode("ascii")


def encode_params(arrays: dict) -> dict:
    """Each named finite array as ``{"shape": [...], "data": B64Block}``."""
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise ValidationError("non-finite float cannot be serialized")
    return {k: {"shape": list(a.shape), "data": B64Block(a)}
            for k, a in arrays.items()}


def decode_params(raw, keys, what: str) -> dict:
    """The float64 arrays ``keys`` of a snapshot's params object, each read
    from its block of exactly 8 x prod(shape) bytes; ValidationError naming
    the ``what`` snapshot otherwise, and for the first, decimal-list format."""
    if type(raw) is not dict or not set(keys) <= set(raw):
        raise ValidationError(f"bad {what} snapshot: params needs {', '.join(keys)}")
    arrays = {}
    for k in keys:
        where = f"bad {what} snapshot: param {k}"
        if type(raw[k]) is list:
            raise ValidationError(f"{where} is a decimal list, the first snapshot "
                                  "format: this build reads only base64 float64 blocks")
        shape = check_fields(raw[k], {"shape": (list,), "data": (str,)}, where)["shape"]
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValidationError(f"{where}: shape must list non-negative integers")
        try:
            data = base64.b64decode(raw[k]["data"], validate=True)
        except ValueError as exc:   # bad padding, a non-alphabet or non-ASCII character
            raise ValidationError(f"{where}: field data is not base64: {exc}") from None
        n = math.prod(shape)
        if len(data) != 8 * n:
            raise ValidationError(f"{where}: dim mismatch: field data holds "
                                  f"{len(data)} bytes, not 8 x {n}")
        try:
            arrays[k] = np.frombuffer(data, "<f8").reshape(shape)
        except ValueError as exc:   # an empty block with a dimension numpy refuses
            raise ValidationError(f"{where}: {exc}") from None
    return arrays


def dumps_canonical(obj: Any, *, indent: int = 0) -> str:
    """JSON text with sorted keys, ``indent`` spaces per nesting level (compact
    when 0), and every float in Python's shortest round-trip repr, as
    ``json.dumps`` writes corpus lines and run logs; a ``B64Block`` is its
    base64 string.

    Byte-deterministic: equal structures give equal text, and every float
    parses back bit for bit. The text is ``json.dumps(obj, sort_keys=True,
    ensure_ascii=False, allow_nan=False, indent=indent or None)`` with
    ``(",", ": ")`` separators when indented and ``(",", ":")`` when compact,
    for documents whose keys are all strings; a non-string key is refused."""
    return "".join(_encode(obj, indent, 0))


def document_chunks(doc) -> Iterator[str]:
    """The text of a JSON artifact in pieces: ``dumps_canonical(doc,
    indent=1)`` and a newline."""
    yield from _encode(doc, 1, 0)
    yield "\n"


def _scalar(obj) -> str | None:
    """The JSON text of a string, number, bool or null; None otherwise."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError("non-finite float cannot be serialized")
        return float.__repr__(obj)
    return None


def _encode(obj, indent: int, level: int) -> Iterator[str]:
    """The canonical JSON text of ``obj`` in pieces: one per scalar with the
    separator and key before it, and each B64Block in its own pieces."""
    text = _scalar(obj)
    if text is not None:
        yield text
        return
    if isinstance(obj, B64Block):
        yield '"'
        yield from obj.pieces()
        yield '"'
        return
    if not isinstance(obj, (dict, list, tuple)):
        raise ValidationError(f"cannot serialize: Object of type "
                              f"{type(obj).__name__} is not JSON serializable")
    is_dict = isinstance(obj, dict)
    opener, closer = "{}" if is_dict else "[]"
    if not obj:
        yield opener + closer
        return
    if is_dict:
        if not all(isinstance(k, str) for k in obj):
            raise ValidationError("cannot serialize: a key is not a string")
        colon = ": " if indent else ":"
        items = ((encode_basestring(k) + colon, obj[k]) for k in sorted(obj))
    else:
        items = (("", item) for item in obj)
    inner = "\n" + " " * (indent * (level + 1)) if indent else ""
    sep = opener + inner
    for key, value in items:
        text = _scalar(value)
        if text is not None:
            yield sep + key + text
        else:
            yield sep + key
            yield from _encode(value, indent, level + 1)
        sep = "," + inner
    yield ("\n" + " " * (indent * level) if indent else "") + closer


def write_atomic(chunks: Iterable, path) -> None:
    """Write ``chunks`` to ``path``, each a str (written as UTF-8) or a
    bytes-like object (written as it is), through a temporary file beside it
    that ``os.replace`` renames into place once every chunk is written. On
    any failure, the chunks' own included, the temporary file is removed and
    ``path`` keeps what it held before, or stays absent."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:   # a missing or unwritable directory: name the target
        exc.filename = str(path)
        raise
    try:
        with fh:
            for chunk in chunks:
                if isinstance(chunk, str):
                    fh.write(chunk)
                else:   # the text written so far goes first
                    fh.flush()
                    fh.buffer.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
