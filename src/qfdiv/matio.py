"""JSON wire formats for matrices and channels.

Matrix:  {"dim": n, "entries": [[re, im], ...]}   row-major, doubles.
Channel: {"dim_in": n, "dim_out": m, "kraus": [kraus, ...]},
         kraus = {"dim_out": m, "dim_in": n, "entries": [[re, im], ...]}.

Readers raise InvalidOperator unless the dimensions are positive integers
and the entries are dim**2 [re, im] pairs of numbers (dim_out * dim_in for
a Kraus operator, whose own dim fields are not read).
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, kraus_channel
from .errors import InvalidOperator


def matrix_to_json(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {A.shape}")
    entries = [[float(z.real), float(z.imag)] for z in A.ravel()]
    return {"dim": int(A.shape[0]), "entries": entries}


def _entries(obj, rows, cols) -> np.ndarray:
    """The rows x cols matrix of obj's row-major [re, im] 'entries'."""
    try:
        rows, cols = int(rows), int(cols)
        pairs = np.array(obj["entries"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidOperator(f"malformed matrix JSON: {exc}") from exc
    if min(rows, cols) < 1 or pairs.shape != (rows * cols, 2):
        raise InvalidOperator(
            f"entries of shape {pairs.shape} are not {rows}x{cols} [re, im] pairs")
    return pairs.view(complex).reshape(rows, cols)


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise InvalidOperator("matrix JSON needs 'dim' and 'entries' fields")
    return _entries(obj, obj["dim"], obj["dim"])


def channel_to_json(ch: KrausChannel) -> dict:
    kraus = [{"dim_out": ch.dim_out, "dim_in": ch.dim_in,
              "entries": [[float(z.real), float(z.imag)] for z in K.ravel()]}
             for K in ch.kraus]
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": kraus}


def channel_from_json(obj) -> KrausChannel:
    for field in ("dim_in", "dim_out", "kraus"):
        if field not in obj:
            raise InvalidOperator(f"channel JSON is missing {field!r}")
    ops = [_entries(k, obj["dim_out"], obj["dim_in"]) for k in obj["kraus"]]
    return kraus_channel(ops)


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def load_channel(path: str) -> KrausChannel:
    with open(path) as fh:
        return channel_from_json(json.load(fh))


def save_matrix(path: str, A) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(A), fh)
