"""JSON/CSV interchange helpers shared by the library and the command line.

Conventions: complex matrices travel as row-major nested lists of ``[re, im]``
pairs; outcome labels as strings or numbers (tuples become lists); digests are
SHA-256 over a canonical JSON rendering with floats rounded to 12 significant
digits.  Every CSV artifact is written by ``csv_text`` (the bi-probability
table streams its own rows, ``BiProbTable.write_csv``, in the same format):
floats as ``%.17g``, so they read back bit for bit, labels as ``csv_cell``
fields, any other field with ``str``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

import numpy as np

__all__ = [
    "canonical_digest",
    "csv_cell",
    "csv_text",
    "label_to_json",
    "label_from_json",
    "matrix_from_json",
    "matrix_to_json",
]


def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: not a rectangular array of [re, im] pairs: {exc}") from None
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"{what}: expected rows of [re, im] pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def label_to_json(label) -> Any:
    if isinstance(label, tuple):
        return [label_to_json(x) for x in label]
    if isinstance(label, (str, bool)):
        return label
    if isinstance(label, (int, np.integer)):
        return int(label)
    if isinstance(label, (float, np.floating)):
        return float(label)
    return str(label)


def label_from_json(value) -> Any:
    if isinstance(value, list):
        return tuple(label_from_json(x) for x in value)
    return value


def csv_cell(label) -> str:
    """One CSV field holding a label's JSON text, quoted when it has a comma, quote or newline."""
    text = str(label_to_json(label))
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_field(x) -> str:
    return "%.17g" % x if isinstance(x, (float, np.floating)) else str(x)


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    """A header line and a line per row; floats as ``%.17g``, other fields by ``str``."""
    return "\n".join([header, *(",".join(map(_csv_field, row)) for row in rows)]) + "\n"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, complex):
        return [_round_floats(obj.real), _round_floats(obj.imag)]
    return obj


def canonical_digest(payload) -> str:
    """Stable SHA-256 hex digest of a JSON-serializable description."""
    text = json.dumps(_round_floats(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
