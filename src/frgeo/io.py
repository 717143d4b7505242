"""File formats: JSON measure files, path exports and CSV tables.

Measure schema (field names are fixed)::

    { "dim": d, "support": ["p1", ...],
      "atoms": [ { "point": "p1", "matrix": [[[re, im], ...], ...] }, ... ] }

Reference schema::

    { "dim": d, "support": ["p1", ...], "weights": [...] }

Floats are emitted with 17 significant digits so files round-trip
bit-identically through the loaders.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

import numpy as np

from .exceptions import MeasureFormatError, NotHermitianError
from .measures import MatrixMeasure, ReferenceMeasure, Support


def _emit(obj) -> str:
    """Serialize a JSON document, formatting floats with 17 significant digits."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise MeasureFormatError(f"cannot serialize non-finite value {x!r}")
        text = format(x, ".17g")
        # Keep a decimal marker so the value parses back as a float
        # (plain "-0" would round-trip through an int and drop the sign).
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        return text
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_texts(atoms: np.ndarray) -> list[str]:
    """The ``_emit`` text of each atom's ``[[[re, im], ...], ...]`` matrix,
    formatted from one ``tolist()`` of the whole ``(n, d, d)`` stack."""
    parts = np.stack([atoms.real, atoms.imag], axis=-1)
    finite = np.isfinite(parts).ravel()
    if not finite.all():
        value = float(parts.ravel()[np.argmin(finite)])
        raise MeasureFormatError(f"cannot serialize non-finite value {value!r}")
    d = atoms.shape[-1]
    # The text after each number of one matrix; the last one opens the next.
    after = ([", ", "], ["] * (d - 1) + [", ", "]], [["]) * d
    after[-1] = "]]]\n[[["
    # %.17g prints an integral value below 1e17 without a decimal point;
    # %.1f prints the same digits with the ".0" that keeps it a float.
    integral = (parts == np.round(parts)) & (np.abs(parts) < 1e17)
    specs = np.where(integral, "%.1f", "%.17g").ravel().tolist()
    template = "".join(map(str.__add__, specs, after * len(atoms)))
    return ("[[[" + template % tuple(parts.ravel().tolist()))[:-4].split("\n")


def _measure_text(g: MatrixMeasure) -> str:
    """``_emit(measure_to_doc(g))``, byte for byte."""
    ids = g.support.point_ids
    atoms = ", ".join(
        f'{{"point": {json.dumps(pid)}, "matrix": {m}}}' for pid, m in zip(ids, _matrix_texts(g.atoms))
    )
    support = ", ".join(json.dumps(pid) for pid in ids)
    return f'{{"dim": {g.dim}, "support": [{support}], "atoms": [{atoms}]}}'


def _pairs_to_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise MeasureFormatError(f"{where}: matrix must have {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise MeasureFormatError(f"{where}: row {r} must have {dim} entries")
        for c, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)
            ):
                raise MeasureFormatError(f"{where}: entry ({r}, {c}) must be an [re, im] pair")
            out[r, c] = complex(float(pair[0]), float(pair[1]))
    return out


def measure_to_doc(g: MatrixMeasure) -> dict:
    pairs = np.stack([g.atoms.real, g.atoms.imag], axis=-1).tolist()
    return {
        "dim": g.dim,
        "support": list(g.support.point_ids),
        "atoms": [{"point": pid, "matrix": pairs[i]} for i, pid in enumerate(g.support.point_ids)],
    }


def measure_from_doc(doc: dict) -> MatrixMeasure:
    if not isinstance(doc, dict):
        raise MeasureFormatError("measure document must be a JSON object")
    try:
        dim = int(doc["dim"])
        support_ids = [str(p) for p in doc["support"]]
        atom_entries = doc["atoms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureFormatError(f"measure document missing or malformed field: {exc}") from exc
    if dim <= 0:
        raise MeasureFormatError(f"dim must be positive, got {dim}")
    support = Support(tuple(support_ids))
    if not isinstance(atom_entries, list) or len(atom_entries) != support.n:
        raise MeasureFormatError(
            f"expected {support.n} atoms (one per support point), got {len(atom_entries) if isinstance(atom_entries, list) else type(atom_entries)}"
        )
    by_point: dict[str, np.ndarray] = {}
    for entry in atom_entries:
        if not isinstance(entry, dict) or "point" not in entry or "matrix" not in entry:
            raise MeasureFormatError("each atom must be an object with 'point' and 'matrix'")
        pid = str(entry["point"])
        if pid not in support_ids:
            raise MeasureFormatError(f"atom point '{pid}' is not in the support")
        if pid in by_point:
            raise MeasureFormatError(f"duplicate atom for point '{pid}'")
        by_point[pid] = _pairs_to_matrix(entry["matrix"], dim, where=f"atom at point '{pid}'")
    atoms = np.stack([by_point[pid] for pid in support_ids])
    try:
        return MatrixMeasure(support, atoms)
    except NotHermitianError as exc:
        raise MeasureFormatError(str(exc)) from exc


def reference_to_doc(lam: ReferenceMeasure) -> dict:
    return {
        "dim": lam.dim,
        "support": list(lam.support.point_ids),
        "weights": [float(w) for w in lam.weights],
    }


def reference_from_doc(doc: dict) -> ReferenceMeasure:
    if not isinstance(doc, dict):
        raise MeasureFormatError("reference document must be a JSON object")
    try:
        dim = int(doc["dim"])
        support = Support(tuple(str(p) for p in doc["support"]))
        weights = [float(w) for w in doc["weights"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureFormatError(f"reference document missing or malformed field: {exc}") from exc
    try:
        return ReferenceMeasure(support, dim, np.asarray(weights))
    except Exception as exc:
        raise MeasureFormatError(str(exc)) from exc


def save_measure(path: str, g: MatrixMeasure) -> None:
    _write_line(path, _measure_text(g))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"{path}: invalid JSON: {exc}") from exc


def _write_line(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
        f.write("\n")


def load_measure(path: str) -> MatrixMeasure:
    return measure_from_doc(_read_json(path))


def save_reference(path: str, lam: ReferenceMeasure) -> None:
    _write_line(path, _emit(reference_to_doc(lam)))


def load_reference(path: str) -> ReferenceMeasure:
    return reference_from_doc(_read_json(path))


def path_to_doc(times: Sequence[float], slices: Sequence[MatrixMeasure]) -> list:
    """A path as a JSON array of measure documents keyed by time."""
    return [
        {"time": float(t), "measure": measure_to_doc(g)}
        for t, g in zip(times, slices, strict=True)
    ]


def save_measure_path(path: str, times: Sequence[float], slices: Sequence[MatrixMeasure]) -> None:
    """Write ``_emit(path_to_doc(times, slices))``, built slice by slice."""
    text = ", ".join(
        f'{{"time": {_emit(float(t))}, "measure": {_measure_text(g)}}}'
        for t, g in zip(times, slices, strict=True)
    )
    _write_line(path, f"[{text}]")


def load_measure_path(path: str) -> tuple[list[float], list[MatrixMeasure]]:
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise MeasureFormatError("path document must be a JSON array")
    times, slices = [], []
    for entry in doc:
        if not isinstance(entry, dict) or "time" not in entry or "measure" not in entry:
            raise MeasureFormatError("each path entry must carry 'time' and 'measure'")
        times.append(float(entry["time"]))
        slices.append(measure_from_doc(entry["measure"]))
    return times, slices


def format_csv_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: str, header: Iterable[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format_csv_value(v) for v in row) + "\n")


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
