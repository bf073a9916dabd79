"""Small shared helpers: argument checks, canonical JSON emission and complex
(de)serialization.

All structured output uses 17-significant-digit floats and a stable key
order so that serialization is deterministic and parse -> serialize is
byte-for-byte idempotent once the data has been normalized.
"""

from __future__ import annotations

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


def complex_to_pair(z) -> list[float]:
    """Complex scalar -> [re, im] pair."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    """[re, im] pair -> complex scalar, validating shape and finiteness."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InvalidInput(f"expected [re, im] pair, got {pair!r}")
    re, im = pair
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise InvalidInput(f"expected numeric [re, im] pair, got {pair!r}")
    z = complex(float(re), float(im))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInput(f"non-finite complex entry: {pair!r}")
    return z


def matrix_to_pairs(a: np.ndarray) -> list:
    """Complex matrix -> nested lists of [re, im] pairs."""
    return [[complex_to_pair(v) for v in row] for row in np.asarray(a, dtype=complex)]


def pairs_to_matrix(rows) -> np.ndarray:
    """Nested [re, im] pair lists -> complex matrix, validating rectangularity."""
    if not isinstance(rows, list) or not rows:
        raise InvalidInput("expected a non-empty list of matrix rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise InvalidInput("matrix rows must be non-empty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InvalidInput("matrix rows have inconsistent lengths")
        out.append([pair_to_complex(v) for v in row])
    return np.array(out, dtype=complex)
