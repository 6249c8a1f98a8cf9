"""JSON wire formats for matrices and channels.

Matrix:  {"dim": n, "entries": [[re, im], ...]}   row-major, doubles.
Channel: {"dim_in": n, "dim_out": m, "kraus": [kraus, ...]},
         kraus = {"dim_out": m, "dim_in": n, "entries": [[re, im], ...]}.

Readers reject entry lists whose length differs from dim**2 (dim_out *
dim_in for a Kraus operator, whose own dim fields are not read).
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


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise InvalidOperator("matrix JSON needs 'dim' and 'entries' fields")
    dim = int(obj["dim"])
    entries = obj["entries"]
    if dim < 1:
        raise InvalidOperator(f"matrix dimension must be positive, got {dim}")
    if len(entries) != dim * dim:
        raise InvalidOperator(
            f"entries length {len(entries)} does not equal dim^2 = {dim * dim}")
    flat = np.empty(dim * dim, dtype=complex)
    for k, pair in enumerate(entries):
        if len(pair) != 2:
            raise InvalidOperator(f"entry {k} is not a [re, im] pair")
        flat[k] = complex(float(pair[0]), float(pair[1]))
    return flat.reshape(dim, dim)


def channel_to_json(ch: KrausChannel) -> dict:
    kraus = [{"dim_out": ch.dim_out, "dim_in": ch.dim_in,
              "entries": [[float(z.real), float(z.imag)] for z in K.ravel()]}
             for K in ch.kraus]
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": kraus}


def _rect_from_json(obj, rows: int, cols: int) -> np.ndarray:
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise InvalidOperator(
            f"Kraus entries length {len(entries)} does not equal "
            f"{rows}x{cols}")
    flat = np.array([complex(float(e[0]), float(e[1])) for e in entries])
    return flat.reshape(rows, cols)


def channel_from_json(obj) -> KrausChannel:
    for field in ("dim_in", "dim_out", "kraus"):
        if field not in obj:
            raise InvalidOperator(f"channel JSON is missing {field!r}")
    dim_in = int(obj["dim_in"])
    dim_out = int(obj["dim_out"])
    ops = [_rect_from_json(k, dim_out, dim_in) for k in obj["kraus"]]
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
