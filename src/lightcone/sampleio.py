"""JSON formats for sample sets, ground-truth sidecars, and fit reports.

Files carry the metric (n and the invariant speed c) explicitly in a
header so the convention always travels with the data.  One rule, ``_json``,
makes every record JSON: a dataclass becomes an object of its fields, arrays
and tuples become lists, and a non-finite number becomes null, so every file
is strict JSON (written with ``allow_nan=False``).  Numbers are written through
Python's shortest round-trip float repr, so reloading reproduces the exact
binary values, and writing is byte-deterministic: every file is
``json.dumps(payload, sort_keys=True)`` with json's default separators, on one
line with a trailing newline.  ``python -m json.tool FILE`` shows one
indented.  Files in the older ``indent=2`` layout load as they did.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from itertools import chain

import numpy as np

from . import __version__
from .boost import AffineLorentzMap
from .minkowski import Metric
from .recover import AxisGrid, FitReport, SampleSet

FORMAT = "lightcone-samples-v1"
REPORT_FORMAT = "lightcone-report-v1"


class SampleFormatError(ValueError):
    """The file is not a well-formed sample file."""


#: rows of ``pairs`` per ``json.dumps`` call in ``save_samples``.  The C encoder
#: holds every piece of its text and the joined text at once, so one call per
#: file would raise the writer's peak; a block of 64 rows holds about 0.1 MB
#: and writes as fast as larger ones
_BLOCK = 64


def _json(value):
    """The JSON value of a record: a dataclass is an object of its fields, a tuple,
    list or array a list, a NaN or an infinity null, and anything else itself."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in fields(value)}
    return value


def _dump(path: str, payload: dict) -> None:
    # json.dumps, not json.dump: only the one-shot call takes json's C encoder
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_samples(path: str, s: SampleSet, seed=None, kind=None) -> None:
    markers = {"collinear": s.collinear, "parallel": s.parallel}
    if s.axis_grid is not None:
        markers["axis_grid"] = s.axis_grid
    payload = _json({"format": FORMAT, "tool": f"lightcone {__version__}", "metric": s.metric,
                     "seed": seed, "kind": kind, "markers": markers})
    # the bytes of _dump with "pairs" in place, its rows encoded a block at a time
    head = json.dumps({k: v for k, v in payload.items() if k < "pairs"},
                      sort_keys=True, allow_nan=False)
    tail = json.dumps({k: v for k, v in payload.items() if k > "pairs"},
                      sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "pairs": [')
        for i in range(0, len(s.x), _BLOCK):
            rows = zip(s.x[i:i + _BLOCK].tolist(), s.y[i:i + _BLOCK].tolist())
            block = json.dumps([{"x": x, "y": y} for x, y in rows], allow_nan=False)
            fh.write((", " if i else "") + block[1:-1])
        fh.write("], " + tail[1:] + "\n")


def _number(value, what: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):  # not a bool, str, 1e400
        raise SampleFormatError(f"{what} must be a finite JSON number, got {value!r}")
    return float(value)


def _indices(t, arity: int | None, what: str) -> tuple[int, ...]:
    # one marker: a list of JSON integers, of the marker's arity if it has one
    if type(t) is not list or len(t) != (arity or len(t)) or any(type(i) is not int for i in t):
        count = arity or "any number of"
        raise SampleFormatError(f"{what} {t!r} is not a list of {count} integer indices")
    return tuple(t)


def load_samples(path: str) -> tuple[SampleSet, dict]:
    """Read a sample file; returns the SampleSet and a metadata dict with
    ``seed`` and ``kind``.  Raises SampleFormatError on malformed input, a
    marker whose domain fact does not hold (SampleSet) included.
    Other marker keys, such as the null-pair markers of older files, are
    ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            # an integer of 300 digits or more reads as a float (inf past the float range)
            payload = json.load(fh, parse_int=lambda s: int(s) if len(s) < 300 else float(s))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SampleFormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        if not isinstance(payload, dict):
            raise SampleFormatError(f"top level is a JSON {type(payload).__name__}, not an object")
        if payload.get("format") != FORMAT:
            raise SampleFormatError(
                f"unknown format {payload.get('format')!r}, expected {FORMAT!r}"
            )
        n = payload["metric"]["n"]
        if type(n) is not int:
            raise SampleFormatError(f"metric n must be a JSON integer, got {n!r}")
        metric = Metric(n, _number(payload["metric"]["c"], "metric c"))
        rows = [[p[key] for p in payload["pairs"]] for key in "xy"]
        # JSON numbers only: np.array alone would read "1" and true as 1.0
        if not set(map(type, chain.from_iterable(chain(*rows)))) <= {int, float}:
            raise SampleFormatError("coordinates must be JSON numbers")
        x, y = (np.array(r, dtype=float) if r else np.empty((0, n)) for r in rows)
        markers = payload.get("markers", {})
        if not isinstance(markers, dict):
            raise SampleFormatError("markers must be a JSON object")
        axis_grid = None
        if "axis_grid" in markers:
            g = markers["axis_grid"]
            axis_grid = AxisGrid(
                axis=np.array([_number(v, "axis-grid axis") for v in g["axis"]]),
                values=tuple(_number(v, "axis-grid value") for v in g["values"]),
                indices=_indices(g["indices"], None, "axis-grid indices"),
            )
        tuples = {
            key: [_indices(t, arity, f"{key} marker") for t in markers.get(key, [])]
            for key, arity in (("collinear", 3), ("parallel", 4))
        }
        samples = SampleSet(metric=metric, x=x, y=y, axis_grid=axis_grid, **tuples)
    except (KeyError, TypeError, ValueError) as exc:
        raise SampleFormatError(f"{path}: malformed sample file ({exc})") from exc
    return samples, {"seed": payload.get("seed"), "kind": payload.get("kind")}


def save_truth(path: str, truth: dict) -> None:
    _dump(path, _json({"format": "lightcone-truth-v1", "tool": f"lightcone {__version__}", **truth}))


def load_truth(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def map_from_dict(d: dict) -> AffineLorentzMap:
    return AffineLorentzMap(float(d["alpha"]), np.asarray(d["L"]), np.asarray(d["a"]))


def report_to_dict(report: FitReport, s: SampleSet, input_path=None) -> dict:
    body = _json(report)
    body["cone_preservation"] = body.pop("cone")
    body["total_violations"] = report.total_violations
    return {"format": REPORT_FORMAT, "tool": f"lightcone {__version__}", "input": input_path,
            "metric": _json(s.metric), "report": body}


def save_report(path: str, report: FitReport, s: SampleSet, input_path=None) -> None:
    _dump(path, report_to_dict(report, s, input_path))
