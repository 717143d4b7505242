"""File formats: JSON measure files, path exports and CSV tables.

Measure schema (field names are fixed)::

    { "dim": d, "support": ["p1", ...],
      "atoms": [ { "point": "p1", "matrix": [[[re, im], ...], ...] }, ... ] }

Reference schema::

    { "dim": d, "support": ["p1", ...], "weights": [...] }

Path schema: a JSON array of ``{ "time": t, "measure": {...} }`` entries.

``dim`` is a JSON integer of at least 1, ``support`` a list of strings and
each atom's ``point`` a string of the support, looked up in a hash set so a
measure loads in time linear in ``n``. Every other number goes through
:func:`_float_array`, which admits only finite JSON numbers, and comes out
through the % specs of :func:`_float_values`, whose 17 significant digits
round-trip bit-identically. Path files are written and read one entry at a
time: the writer checks every row, refusing what the loader refuses, then
writes each slice in turn; the loader converts each measure as it closes.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .exceptions import FRGeoError, MeasureFormatError, NotHermitianError
from .measures import MatrixMeasure, ReferenceMeasure, Support


def _float_values(values) -> tuple[tuple, np.ndarray]:
    """The floats in ``values`` (flattened) and their % specs: ``%.17g``,
    whose 17 significant digits round-trip bit-identically, or ``%.1f`` for
    an integral value; :class:`MeasureFormatError` on a non-finite value."""
    x = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(x)
    if not finite.all():
        raise MeasureFormatError(f"cannot serialize non-finite value {float(x[np.argmin(finite)])!r}")
    # %.17g prints an integral value below 1e17 without a decimal point;
    # %.1f prints the same digits with the ".0" that keeps it a float (plain
    # "-0" would round-trip through an int and drop the sign).
    return tuple(x.tolist()), np.where((x == np.round(x)) & (np.abs(x) < 1e17), "%.1f", "%.17g")


def _float_text(values) -> str:
    """The floats in ``values`` (flattened) as JSON text joined by ", "."""
    x, specs = _float_values(values)
    return ", ".join(specs.tolist()) % x


def _float_array(value, shape: tuple, where: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, by one untyped ``np.array``
    conversion. :class:`MeasureFormatError` naming ``where`` on ragged nesting,
    an entry that is not a JSON number, a wrong shape or a non-finite value."""
    try:
        arr = np.array(value)
    except ValueError as exc:
        raise MeasureFormatError(f"{where} must have shape {shape}, got ragged nesting") from exc
    # An untyped conversion keeps strings and null out of the float kinds
    # (dtype=float would parse "1.0"); booleans count as 0 and 1.
    if arr.dtype.kind not in "biuf":
        raise MeasureFormatError(f"{where} must hold only JSON numbers")
    if arr.shape != shape:
        raise MeasureFormatError(f"{where} must have shape {shape}, got {arr.shape}")
    arr = arr.astype(float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise MeasureFormatError(f"{where} holds non-finite value {float(arr.ravel()[np.argmin(finite)])!r}")
    return arr


def _parse_int(text: str) -> int | float:
    """JSON integers too long for int64 parse as floats (a 400-digit one as
    ``inf``), so that numpy never holds a number as a Python object."""
    return int(text) if len(text) < 19 else float(text)


def _header(doc, kind: str, field: str) -> tuple[int, Support]:
    """The checked ``dim`` and ``support`` of a measure or reference document
    that must also carry ``field``."""
    if not isinstance(doc, dict):
        raise MeasureFormatError(f"{kind} document must be a JSON object")
    for key in ("dim", "support", field):
        if key not in doc:
            raise MeasureFormatError(f"{kind} document missing field '{key}'")
    dim, ids = doc["dim"], doc["support"]
    if type(dim) is not int or dim < 1:
        raise MeasureFormatError(f"dim must be a JSON integer of at least 1, got {dim!r}")
    if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
        raise MeasureFormatError(f"support must be a list of strings, got {ids!r}")
    try:
        return dim, Support(tuple(ids))
    except FRGeoError as exc:
        raise MeasureFormatError(str(exc)) from exc


def _header_text(dim: int, support: Support) -> str:
    ids = ", ".join(json.dumps(pid) for pid in support.point_ids)
    return f'"dim": {int(dim)}, "support": [{ids}]'


def _measure_template(d: int, support: Support, specs: np.ndarray) -> str:
    """The measure document on ``support`` with the % ``specs`` of
    :func:`_float_values` in place of the ``[re, im]`` numbers of its atoms;
    every ``%`` of the header and the ids is doubled."""
    # The text after each number of one matrix; the last one opens the next.
    after = ([", ", "], ["] * (d - 1) + [", ", "]], [["]) * d
    after[-1] = "]]]\n[[["
    matrices = ("[[[" + "".join(map(str.__add__, specs.tolist(), after * support.n)))[:-4].split("\n")
    ids = [json.dumps(pid).replace("%", "%%") for pid in support.point_ids]
    atoms = ", ".join(f'{{"point": {pid}, "matrix": {m}}}' for pid, m in zip(ids, matrices))
    return f'{{{_header_text(d, support).replace("%", "%%")}, "atoms": [{atoms}]}}'


def measure_from_doc(doc: dict) -> MatrixMeasure:
    dim, support = _header(doc, "measure", "atoms")
    entries = doc["atoms"]
    if not isinstance(entries, list) or len(entries) != support.n:
        got = len(entries) if isinstance(entries, list) else type(entries)
        raise MeasureFormatError(f"expected {support.n} atoms (one per support point), got {got}")
    known, by_point = set(support.point_ids), {}
    for entry in entries:
        if not isinstance(entry, dict) or "point" not in entry or "matrix" not in entry:
            raise MeasureFormatError("each atom must be an object with 'point' and 'matrix'")
        pid = entry["point"]
        if not isinstance(pid, str):
            raise MeasureFormatError(f"atom point must be a JSON string, got {json.dumps(pid)}")
        if pid not in known:
            raise MeasureFormatError(f"atom point '{pid}' is not in the support")
        if pid in by_point:
            raise MeasureFormatError(f"duplicate atom for point '{pid}'")
        by_point[pid] = entry["matrix"]
    matrices = [by_point[pid] for pid in support.point_ids]
    shape = (support.n, dim, dim, 2)
    try:
        pairs = _float_array(matrices, shape, "atom stack")
    except MeasureFormatError:
        # Name the first bad atom; the whole-stack error stands if none is.
        for pid, m in zip(support.point_ids, matrices):
            _float_array(m, shape[1:], f"atom at point '{pid}' ([re, im] pairs)")
        raise
    try:
        # A complex view of the pairs keeps every bit, signed zeros included.
        return MatrixMeasure(support, pairs.view(complex)[..., 0])
    except NotHermitianError as exc:
        raise MeasureFormatError(str(exc)) from exc


def reference_from_doc(doc: dict) -> ReferenceMeasure:
    dim, support = _header(doc, "reference", "weights")
    weights = _float_array(doc["weights"], (support.n,), "weights")
    try:
        return ReferenceMeasure(support, dim, weights)
    except FRGeoError as exc:
        raise MeasureFormatError(str(exc)) from exc


def _read_json(path: str, object_hook=None):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f, parse_int=_parse_int, object_hook=object_hook)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"{path}: invalid JSON: {exc}") from exc


def _write_line(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
        f.write("\n")


def save_measure(path: str, g: MatrixMeasure) -> None:
    x, specs = _float_values(np.asarray(g.atoms, dtype=complex).ravel().view(float))
    _write_line(path, _measure_template(g.dim, g.support, specs) % x)


def load_measure(path: str) -> MatrixMeasure:
    return measure_from_doc(_read_json(path))


def save_reference(path: str, lam: ReferenceMeasure) -> None:
    _write_line(path, f'{{{_header_text(lam.dim, lam.support)}, "weights": [{_float_text(lam.weights)}]}}')


def load_reference(path: str) -> ReferenceMeasure:
    return reference_from_doc(_read_json(path))


def _path_row(t, g: MatrixMeasure) -> np.ndarray:
    """The time and the ``[re, im]`` atom values of one path slice, flattened."""
    return np.concatenate([[t], np.asarray(g.atoms, dtype=complex).ravel().view(float)])


def _check_path_entry(k: int, t: float, g: MatrixMeasure, first: MatrixMeasure, before: float | None) -> None:
    """Refuse path entry ``k`` off the support or ``dim`` of entry 0, or not after the time ``before``."""
    if g.support != first.support:
        raise MeasureFormatError(f"path entry {k} lives on another support than entry 0")
    if g.dim != first.dim:
        raise MeasureFormatError(f"path entry {k} has dim {g.dim}, entry 0 has dim {first.dim}")
    if before is not None and not t > before:
        raise MeasureFormatError(f"path entry {k} has time {t!r}, not after the time {before!r} of entry {k - 1}")


def save_measure_path(path: str, times: Sequence[float], slices: Sequence[MatrixMeasure]) -> None:
    """A path as a JSON array of measure documents keyed by time, written
    one slice at a time.

    Every row is checked before the file is opened, so a length mismatch, a
    non-finite value or an entry the loader refuses leaves an existing file
    untouched. The template of :func:`_measure_template` is built once per
    support and pattern of integral atom values, so each slice costs one %
    format of its time and atom values.
    """
    rows = list(zip(times, slices, strict=True))
    for k, (t, g) in enumerate(rows):
        if not np.isfinite(_path_row(t, g)).all():
            _float_values(_path_row(t, g))  # raises, naming the value
        _check_path_entry(k, float(t), g, rows[0][1], float(rows[k - 1][0]) if k else None)
    templates = {}
    with open(path, "w", encoding="utf-8") as f:
        f.write("[")
        for k, (t, g) in enumerate(rows):
            x, specs = _float_values(_path_row(t, g))
            key = (g.support, g.dim, specs[1:].tobytes())
            if key not in templates:
                templates[key] = _measure_template(g.dim, g.support, specs[1:])
            f.write(", " if k else "")
            f.write(f'{{"time": {specs[0]}, "measure": {templates[key]}}}' % x)
        f.write("]\n")


def _path_entry(obj: dict) -> dict:
    """JSON object hook of :func:`load_measure_path`: the measure of an object
    carrying both ``time`` and ``measure`` becomes a :class:`MatrixMeasure`
    as the parser closes it, so its nested lists are freed at once."""
    if "time" in obj and "measure" in obj:
        obj["measure"] = measure_from_doc(obj["measure"])
    return obj


def load_measure_path(path: str) -> tuple[list[float], list[MatrixMeasure]]:
    """The times and measures of a path file, each measure converted as soon
    as its entry is parsed (:func:`_path_entry`). Every entry must share the
    support and ``dim`` of entry 0, and the times must strictly increase;
    :class:`MeasureFormatError` names the first entry that breaks this."""
    doc = _read_json(path, _path_entry)
    if not isinstance(doc, list):
        raise MeasureFormatError("path document must be a JSON array")
    times = []
    for k, entry in enumerate(doc):
        if not isinstance(entry, dict) or "time" not in entry or "measure" not in entry:
            raise MeasureFormatError("each path entry must carry 'time' and 'measure'")
        times.append(float(_float_array(entry["time"], (), f"time of path entry {k}")))
        _check_path_entry(k, times[-1], entry["measure"], doc[0]["measure"], times[-2] if k else None)
    return times, [entry["measure"] for entry in doc]


def write_csv(path: str, header: Iterable[str], rows: Iterable[Sequence]) -> None:
    """A CSV table whose cells are floats, each with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format(float(v), ".17g") for v in row) + "\n")
