"""JSON wire formats for matrices and channels.

Matrix:  {"dim": n, "entries": [[re, im], ...]}   row-major, doubles.
Channel: {"dim_in": n, "dim_out": m, "kraus": [kraus, ...]},
         kraus = {"dim_out": m, "dim_in": n, "entries": [[re, im], ...]}.

Readers raise InvalidOperator unless the file is UTF-8 JSON, the document
an object with those fields, "kraus" a list, the dimensions positive
integers and the entries dim**2 [re, im] pairs of numbers (dim_out * dim_in
for a Kraus operator, whose own dim fields are not read).  A number is an
int or a float; a string or a bool is none.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidOperator

if TYPE_CHECKING:
    from .channels import KrausChannel


def matrix_to_json(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {A.shape}")
    return {"dim": int(A.shape[0]), "entries": _entries_json(A)}


def _entries_json(A) -> list:
    """A's row-major [re, im] pairs, the layout that _entries reads."""
    return [[float(z.real), float(z.imag)] for z in A.ravel()]


def _entries(obj, rows, cols) -> np.ndarray:
    """The rows x cols matrix of obj's row-major [re, im] 'entries'."""
    if any(type(n) is not int or n < 1 for n in (rows, cols)):
        raise InvalidOperator(f"dimensions {rows!r}, {cols!r} are not positive ints")
    try:
        entries = obj["entries"]
        pairs = np.array(entries, dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidOperator(f"malformed matrix JSON: {exc}") from exc
    if pairs.shape != (rows * cols, 2):
        raise InvalidOperator(
            f"entries of shape {pairs.shape} are not {rows}x{cols} [re, im] pairs")
    # numpy reads "1" and true as numbers too
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for pair in entries for v in pair):
        raise InvalidOperator("an entry's re or im is not a JSON number")
    return pairs.view(complex).reshape(rows, cols)


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise InvalidOperator("matrix JSON needs 'dim' and 'entries' fields")
    return _entries(obj, obj["dim"], obj["dim"])


def channel_to_json(ch: KrausChannel) -> dict:
    kraus = [{"dim_out": ch.dim_out, "dim_in": ch.dim_in,
              "entries": _entries_json(K)} for K in ch.kraus]
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": kraus}


def channel_from_json(obj) -> KrausChannel:
    from .channels import KrausChannel
    if (not isinstance(obj, dict) or not isinstance(obj.get("kraus"), list)
            or "dim_in" not in obj or "dim_out" not in obj):
        raise InvalidOperator("channel JSON needs dim_in, dim_out and a kraus list")
    ops = [_entries(k, obj["dim_out"], obj["dim_in"]) for k in obj["kraus"]]
    return KrausChannel(ops)


def _load(path: str):
    """The JSON document in a file; InvalidOperator unless it is UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # UnicodeDecodeError or JSONDecodeError
            raise InvalidOperator(f"{path} is not a UTF-8 JSON document: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(_load(path))


def load_channel(path: str) -> KrausChannel:
    return channel_from_json(_load(path))


def _finite(obj):
    """obj with each non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def dumps(obj) -> str:
    """obj as the indented, key-sorted JSON that qfdiv prints, a non-finite
    float written as null: strict JSON has no Infinity or NaN."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)


def save_matrix(path: str, A) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(A), fh)
