"""Shared plumbing: seeded stream derivation, canonical JSON, the schema
walker that reads and writes config documents and the corpus and weight-file
headers, the array file, and the one writer every artifact goes through. The
error types are the package's (``augqual/__init__.py``), imported here.

A JSON document (the report) is one ``json.dumps`` text with sorted keys
(``dumps_canonical``). The corpus, both snapshots and the weight file are
array files: a first line holding the header as compact JSON, padded with
spaces to a multiple of 8 bytes, then the raw bytes of each array the header
lays out, so every float array is 8-byte aligned and a round trip is
bit-exact. ``read_array_file`` reads one with one ``readinto`` into one
buffer, each array a read-only view of it; a snapshot's header gives each
parameter's shape and its body holds the parameters' little-endian float64
bytes (``snapshot_chunks``, ``read_snapshot``).

``write_atomic`` writes an artifact's chunks, text or bytes, into a temporary
file beside the target and renames it into place with ``os.replace``; on any
failure the temporary file is removed. So a run that fails or is killed
mid-write never leaves a truncated artifact at the target path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from dataclasses import field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from . import (  # noqa: F401 - re-exported for the stage modules
    AugqualError, ChecksumError, PipelineError, ValidationError)


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
    data = Path(path).read_bytes()
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


def dumps_canonical(obj: Any, *, indent: int = 0) -> str:
    """The canonical JSON text of ``obj``, ``json.dumps``'s: keys sorted,
    ``indent`` spaces per nesting level (compact when 0), non-ASCII text kept
    and every float in Python's shortest round-trip repr, so equal structures
    give equal text and every float parses back bit for bit. NaN, an infinity
    or a value JSON cannot hold raises ValidationError."""
    try:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False,
                          indent=indent or None,
                          separators=(",", ": ") if indent else (",", ":"))
    except ValueError:   # allow_nan refuses NaN and the infinities
        raise ValidationError("non-finite float cannot be serialized") from None
    except TypeError as exc:   # a value or key JSON cannot hold
        raise ValidationError(f"cannot serialize: {exc}") from None


_NEWLINE = re.compile(b"\n")


def array_file_chunks(header: dict, arrays) -> list:
    """An array file in pieces: the header line, then each array's own buffer,
    not a copy, in its dtype on disk."""
    text = json.dumps(header, separators=(",", ":"))
    line = (text + " " * (-(len(text) + 1) % 8) + "\n").encode("ascii")
    return [line, *(memoryview(np.ascontiguousarray(a)).cast("B") for a in arrays)]


def read_array_file(path, what: str, layout, rewrite="write it again",
                    header_name=None) -> tuple:
    """``(value, arrays, buffer)`` of the ``what`` file at ``path``, each array
    a read-only view of the buffer. ``layout(header)`` refuses a parsed header
    line it cannot lay out, or returns ``(value, [(name, dtype, shape), ...],
    body)``, body saying what the arrays hold. The header line must be padded
    and the file hold it and the arrays' bytes, nothing more. A file of
    indented JSON, as earlier formats were, is refused with the advice
    ``rewrite``. Refusals of the header line call it ``header_name``, by
    default ``<what> header``."""
    header_name = header_name or f"{what} header"
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        if fh.readinto(buf) != buf.size:
            raise ValidationError(f"{what} file changed while it was read")
    if not buf.size:
        raise ValidationError(f"empty {what} file: missing header")
    if bytes(buf[:2]) == b"{\n":   # never a compact header line
        raise ValidationError(f"{what} file holds indented JSON, an earlier format: "
                              f"this build reads only binary files; {rewrite}")
    newline = _NEWLINE.search(buf)
    if newline is None:
        raise ValidationError(f"bad {header_name}: no newline ends the header line")
    offset = newline.end()
    try:
        raw = json.loads(bytes(buf[:offset]))
    except ValueError as exc:   # bad JSON or bad UTF-8
        raise ValidationError(f"bad {header_name}: {exc}") from exc
    value, specs, body = layout(raw)
    if offset % 8:
        raise ValidationError(f"bad {header_name}: its line of {offset} bytes is "
                              f"not padded to a multiple of 8")
    counts = [math.prod(shape) for _, _, shape in specs]
    need = sum(n * np.dtype(dtype).itemsize for n, (_, dtype, _) in zip(counts, specs))
    if buf.size != offset + need:
        raise ValidationError(f"{what} file holds {buf.size} bytes, not the "
                              f"{offset}-byte header plus {body}")
    buf.setflags(write=False)
    arrays = {}
    for n, (name, dtype, shape) in zip(counts, specs):
        try:
            arrays[name] = np.frombuffer(buf, dtype, n, offset).reshape(shape)
        except ValueError as exc:   # an empty array with a dimension numpy refuses
            raise ValidationError(f"bad {what}: {name}: {exc}") from None
        offset += arrays[name].nbytes
    return value, arrays, buf


def snapshot_chunks(header: dict, params: dict) -> list:
    """A snapshot file in pieces: ``header`` plus each parameter's shape under
    ``params``, then their float64 bytes; non-finite values are refused."""
    if not all(np.isfinite(a).all() for a in params.values()):
        raise ValidationError("non-finite float cannot be serialized")
    return array_file_chunks({**header, "params": {k: list(a.shape)
                                                   for k, a in params.items()}},
                             [np.asarray(a, "<f8") for a in params.values()])


def read_snapshot(path, what: str, kind: str, fields, keys) -> tuple[dict, dict]:
    """The header and the float64 parameters ``keys`` of the ``what``
    snapshot file at ``path`` (``read_array_file``). Its header must hold
    ``kind`` under "kind", the keys ``fields``, which the caller checks, and
    under "params" the shape of each parameter ``keys`` names, and nothing
    else."""
    def layout(raw):
        if type(raw) is not dict or raw.get("kind") != kind:
            raise ValidationError(f"not a {what} file")
        if set(raw) != {"kind", *fields, "params"}:
            raise ValidationError(f"bad {what}: header keys {', '.join(raw)}, not "
                                  f"kind, {', '.join(fields)}, params")
        shapes = raw["params"]
        if type(shapes) is not dict or sorted(shapes) != sorted(keys):
            raise ValidationError(f"bad {what}: params must give the shapes of "
                                  f"{', '.join(keys)} and no other")
        for k in keys:
            if type(shapes[k]) is not list or not all(type(n) is int and n >= 0
                                                      for n in shapes[k]):
                raise ValidationError(f"bad {what}: param {k}: shape must list "
                                      f"non-negative integers")
        n = sum(math.prod(shapes[k]) for k in keys)
        return raw, [(k, "<f8", shapes[k]) for k in keys], f"{n} float64 values"
    return read_array_file(path, what, layout)[:2]


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
