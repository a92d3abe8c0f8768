"""Shared plumbing: error types, seeded stream derivation, canonical JSON,
checksums, and the one float64 array codec every artifact uses.

Every float array is written as ``b64_block``, padded standard-alphabet base64
of its little-endian float64 bytes, so a round trip is bit-exact: corpus rows
as bare blocks, snapshot parameters with their shape (``encode_params`` /
``decode_params``). ``dumps_canonical`` writes every scalar float in Python's
shortest round-trip repr.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import time
from typing import Any

import numpy as np


class AugqualError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AugqualError):
    """Bad inputs: shapes, ranges, config values, malformed files."""


class ChecksumError(AugqualError):
    """An artifact does not match the inputs it claims to be derived from."""


class PipelineError(AugqualError):
    """A pipeline stage failed; message carries the stage name and cause."""


def derived_rng(seed: int, *tags: object) -> np.random.Generator:
    """Independent PCG64 stream keyed by (seed, tags) via SHA-256.

    Streams for distinct tag tuples are statistically independent, so
    per-sample generation does not depend on iteration order.
    """
    msg = ":".join([str(int(seed))] + [str(t) for t in tags]).encode("utf-8")
    digest = hashlib.sha256(msg).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def check_params(arrays: dict, shapes: dict, what: str) -> None:
    """Each named parameter array has its expected shape and finite values."""
    for k, want in shapes.items():
        arr = arrays[k]
        if arr.shape != want:
            raise ValidationError(f"{what} param {k}: shape {arr.shape}, "
                                  f"expected {want}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} param {k}: non-finite values")


def b64_block(arr: np.ndarray) -> str:
    """An array as padded base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")).decode("ascii")


def decode_block(text: str, n_floats: int, where: str, key: str) -> bytes:
    """The float64 bytes of block ``text``, which must hold ``n_floats``."""
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:   # bad padding, a non-alphabet or non-ASCII character
        raise ValidationError(f"{where}: field {key} is not base64: {exc}") from None
    if len(data) != 8 * n_floats:
        raise ValidationError(f"{where}: dim mismatch: field {key} holds "
                              f"{len(data)} bytes, not 8 x {n_floats}")
    return data


def encode_params(arrays: dict) -> dict:
    """Each named finite array as ``{"shape": [...], "data": b64_block}``."""
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise ValidationError("non-finite float cannot be serialized")
    return {k: {"shape": list(a.shape), "data": b64_block(a)}
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
        data = decode_block(raw[k]["data"], math.prod(shape), where, "data")
        try:
            arrays[k] = np.frombuffer(data, "<f8").reshape(shape)
        except ValueError as exc:   # an empty block with a dimension numpy refuses
            raise ValidationError(f"{where}: {exc}") from None
    return arrays


def dumps_canonical(obj: Any, *, indent: int = 0) -> str:
    """JSON text with sorted keys, ``indent`` spaces per nesting level (compact
    when 0), and every float in Python's shortest round-trip repr, as
    ``json.dumps`` writes corpus lines and run logs.

    Byte-deterministic: equal structures give equal text, and every float
    parses back bit for bit."""
    try:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False,
                          indent=indent or None,
                          separators=(",", ": ") if indent else (",", ":"))
    except ValueError:   # allow_nan=False refused a NaN or an infinity
        raise ValidationError("non-finite float cannot be serialized") from None
    except TypeError as exc:   # a value or dict key JSON has no form for
        raise ValidationError(f"cannot serialize: {exc}") from None


def deterministic_timestamp() -> str:
    """ISO-8601 creation stamp that is reproducible by default.

    Honors SOURCE_DATE_EPOCH (reproducible-build convention); otherwise pins
    the Unix epoch so identical inputs yield byte-identical artifacts.
    """
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))
