"""Small shared helpers: argument checks, JSON parsing, canonical JSON emission
and the one codec of numbers and complex arrays.

All structured output uses 17-significant-digit floats and a stable key
order so that serialization is deterministic and parse -> serialize is
byte-for-byte idempotent once the data has been normalized.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInput


def check_max_iter(max_iter: int) -> None:
    """Reject a negative iteration cap (0 means: evaluate the start only)."""
    if max_iter < 0:
        raise InvalidInput(f"iteration cap must be >= 0, got {max_iter}")


def check_tol(name: str, value: float) -> None:
    """Reject a tolerance or a time that is negative, infinite or NaN (0 is allowed)."""
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidInput(f"{name} must be finite and >= 0, got {value}")


def fmt_float(x) -> str:
    """Format a real number with 17 significant digits (exact round-trip)."""
    x = float(x)
    if not np.isfinite(x):
        raise InvalidInput(f"non-finite number in output: {x!r}")
    if x == 0.0:  # normalize -0.0 so serialization is canonical
        x = 0.0
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Serialize nested dicts/lists/numbers/strings deterministically.

    Dict keys keep insertion order; floats go through :func:`fmt_float`.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": {canonical_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [canonical_json(v, indent + 1) for v in seq]
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat and sum(len(p) for p in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


# The smallest integer that rounds to infinity as a float; every finite float is below it.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def parse_json(text: str):
    """The one JSON parser of the package: a syntax error is an input error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"invalid JSON: {exc}") from exc


def _number_mask(cells: np.ndarray) -> np.ndarray:
    """Where an object array holds a number: a JSON int or float, not a bool, finite as a float."""
    flat = cells.reshape(-1)
    kinds = np.fromiter(map(type, flat), dtype=object, count=flat.size)
    mask = (kinds == int) | (kinds == float)
    with np.errstate(invalid="ignore"):  # NaN compares false
        mask[mask] = np.abs(flat[mask]) < _FLOAT_OVERFLOW
    return mask.reshape(cells.shape)


def _first_fault(obj, shape: tuple, index: tuple = ()):
    """Index and value of the first entry of nested lists that breaks ``shape`` or is no number."""
    if not shape:
        cell = np.empty((), dtype=object)
        cell[()] = obj
        return None if _number_mask(cell) else (index, obj)
    if not isinstance(obj, list) or len(obj) != shape[0]:
        return index, obj
    for i, item in enumerate(obj):
        fault = _first_fault(item, shape[1:], index + (i,))
        if fault is not None:
            return fault
    return None


def read_numbers(obj: list, shape: tuple, name: str) -> np.ndarray:
    """``shape[0]`` nested JSON lists as a float array of exactly ``shape``, checked in bulk.

    With a trailing 2 (``[re, im]`` pairs), ``.view(complex)[..., 0]`` is the complex array.
    A fault in entry i is named ``name.format(i)`` followed by its inner indices.
    """
    cells = np.array(obj, dtype=object)  # a ragged list leaves another shape
    if cells.shape == shape and _number_mask(cells).all():
        return cells.astype(float)
    index, value = _first_fault(obj, shape)
    where = name.format(index[0]) + "".join(f"[{i}]" for i in index[1:])
    expected = "a finite number" if len(index) == len(shape) else f"a list of {shape[len(index)]} numbers"
    raise InvalidInput(f"{where} must be {expected}, got {json.dumps(value)}")


def to_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs."""
    return np.stack([a.real, a.imag], -1).tolist()
