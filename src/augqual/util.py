"""Shared plumbing: error types, seeded stream derivation, canonical JSON, checksums."""

from __future__ import annotations

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


def float_array(value, what: str) -> np.ndarray:
    """A parsed JSON array of numbers, nested to any depth, as float64.

    Strings, booleans, nulls, objects, ragged nesting and integers beyond
    int64 raise ValidationError naming ``what``.
    """
    try:
        arr = np.array(value)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if arr.dtype.kind not in "if":
        raise ValidationError(f"{what}: not an array of numbers")
    return arr.astype(np.float64, copy=False)


def check_params(arrays: dict, shapes: dict, what: str) -> None:
    """Each named parameter array has its expected shape and finite values."""
    for k, want in shapes.items():
        arr = arrays[k]
        if arr.shape != want:
            raise ValidationError(f"{what} param {k}: shape {arr.shape}, "
                                  f"expected {want}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} param {k}: non-finite values")


def _format_float(x: float) -> str:
    # 17 significant digits: enough for exact float64 round-trips, and a
    # fixed width so re-serialization is byte-stable.
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("non-finite float cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _dumps_float_array(arr: np.ndarray, indent: int, level: int) -> str:
    """The text dumps_canonical gives ``arr.tolist()``, in one %-format pass.

    The template holds _format_float's choice per entry: "%.1f" for integer
    values below 1e16, "%.17g" for the rest.
    """
    if not np.isfinite(arr).all():
        raise ValidationError("non-finite float cannot be serialized")
    whole = (arr == np.trunc(arr)) & (np.abs(arr) < 1e16)
    template = _list_template(np.where(whole, "%.1f", "%.17g").tolist(),
                              indent, level)
    return template % tuple(arr.ravel().tolist())


def _list_template(specs: list, indent: int, level: int) -> str:
    """dumps_canonical's list layout around nested lists of format specs."""
    pad = " " * (indent * (level + 1)) if indent else ""
    end_pad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    if isinstance(specs[0], list):
        specs = [_list_template(row, indent, level + 1) for row in specs]
    return "[" + nl + ("," + nl).join(pad + it for it in specs) + nl + end_pad + "]"


def dumps_canonical(obj: Any, *, indent: int = 0, _level: int = 0) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats.

    Byte-deterministic: the same structure always produces the same text.
    """
    pad = " " * (indent * (_level + 1)) if indent else ""
    end_pad = " " * (indent * _level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim > 0 and obj.size > 0:
            return _dumps_float_array(obj, indent, _level)
        return dumps_canonical(obj.tolist(), indent=indent, _level=_level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent=indent, _level=_level + 1) for v in obj]
        return "[" + nl + sep.join(pad + it for it in items) + nl + end_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise ValidationError(f"non-string JSON key: {k!r}")
            v = dumps_canonical(obj[k], indent=indent, _level=_level + 1)
            colon = ": " if indent else ":"
            items.append(pad + dumps_canonical(k) + colon + v)
        return "{" + nl + sep.join(items) + nl + end_pad + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def deterministic_timestamp() -> str:
    """ISO-8601 creation stamp that is reproducible by default.

    Honors SOURCE_DATE_EPOCH (reproducible-build convention); otherwise pins
    the Unix epoch so identical inputs yield byte-identical artifacts.
    """
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))
