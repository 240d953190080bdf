"""The file layout: every file is ``json.dumps(payload, sort_keys=True)``
and a newline, and strict JSON.  Sample files encode their pairs a block of
rows at a time, which must not change a byte; files in the older
``indent=2`` layout load as they did."""

import dataclasses
import json
import math

import numpy as np
import pytest

from lightcone import Metric, __version__
from lightcone.generate import KINDS, GenerateConfig, make_samples
from lightcone.recover import AxisGrid, FitReport, SampleSet, recover_lorentz
from lightcone.sampleio import (FORMAT, load_samples, load_truth, save_report, save_samples,
                                save_truth)


def _samples(N: int) -> SampleSet:
    # coordinates over many binades, with the values whose repr is easiest to get wrong
    rng = np.random.default_rng(N)
    x, y = (rng.standard_normal((N, 4)) * 10.0 ** rng.integers(-300, 60, (N, 4)) for _ in "xy")
    x.flat[:4] = (-0.0, 5e-324, 1e60, 0.1)[: x.size]
    if N < 5:
        return SampleSet(Metric(4, 2.5), x, y)
    # the markers on rows that hold them: 0, 1 and 2 times x[0] at three random rows
    i, j, k = rng.choice(np.arange(1, N), 3, replace=False).tolist()
    x[i], x[j], x[k] = 0.0 * x[0], x[0], 2.0 * x[0]
    grid = AxisGrid(axis=x[0].copy(), values=(0.0, 1.0, 2.0), indices=(i, j, k))
    return SampleSet(Metric(4, 2.5), x, y, collinear=[(i, j, k)], parallel=[(i, j, j, k)],
                     axis_grid=grid)


def _payload(s: SampleSet, seed, kind) -> dict:
    # the whole file as one object, its rows as numpy scalars
    markers = {"collinear": [list(t) for t in s.collinear],
               "parallel": [list(t) for t in s.parallel]}
    if s.axis_grid is not None:
        g = s.axis_grid
        markers["axis_grid"] = {"axis": list(g.axis), "values": list(g.values),
                                "indices": list(g.indices)}
    return {"format": FORMAT, "tool": f"lightcone {__version__}",
            "metric": {"n": s.metric.n, "c": s.metric.c}, "seed": seed, "kind": kind,
            "pairs": [{"x": list(x), "y": list(y)} for x, y in zip(s.x, s.y)],
            "markers": markers}


def _equal_text(got: str, want: str) -> None:
    # pytest's diff of two long texts takes minutes: name the first difference instead
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ from offset {at}: {got[at:at + 40]!r} vs {want[at:at + 40]!r}")


def _same(a: SampleSet, b: SampleSet) -> None:
    # bit for bit, signed zeros included
    assert a.metric == b.metric
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert (a.collinear, a.parallel) == (b.collinear, b.parallel)
    assert (a.axis_grid is None) == (b.axis_grid is None)
    if a.axis_grid is not None:
        assert a.axis_grid.axis.tobytes() == b.axis_grid.axis.tobytes()
        assert (a.axis_grid.values, a.axis_grid.indices) == (b.axis_grid.values,
                                                             b.axis_grid.indices)


@pytest.mark.parametrize("N", [0, 1, 255, 256, 257, 2000])
def test_blockwise_samples_are_the_one_shot_encoding(tmp_path, N):
    s = _samples(N)
    path = tmp_path / "s.json"
    save_samples(str(path), s, seed=N, kind="lorentz")
    want = json.dumps(_payload(s, N, "lorentz"), sort_keys=True) + "\n"
    _equal_text(path.read_text(), want)
    loaded, meta = load_samples(str(path))
    _same(loaded, s)
    assert loaded.x.shape == loaded.y.shape == s.x.shape
    assert meta == {"seed": N, "kind": "lorentz"}


@pytest.mark.parametrize("kind", KINDS)
def test_load_then_save_is_byte_identical(tmp_path, kind):
    s, truth = make_samples(GenerateConfig(kind=kind, c=343.0, num_samples=300, seed=2))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_samples(str(first), s, seed=2, kind=kind)
    loaded, meta = load_samples(str(first))
    save_samples(str(second), loaded, **meta)
    _equal_text(second.read_text(), first.read_text())
    save_truth(str(first), truth)
    text = first.read_text()
    _equal_text(text, json.dumps(load_truth(str(first)), sort_keys=True) + "\n")
    assert text.count("\n") == 1


@pytest.mark.parametrize("N", [1, 257])
def test_indented_layout_still_loads(tmp_path, N):
    s = _samples(N)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save_samples(str(new), s, seed=None, kind=None)
    with open(old, "w") as fh:  # the layout files were written in before
        json.dump(_payload(s, None, None), fh, indent=2, sort_keys=True)
        fh.write("\n")
    (a, meta_a), (b, meta_b) = load_samples(str(new)), load_samples(str(old))
    _same(a, b)
    _same(a, s)
    assert meta_a == meta_b == {"seed": None, "kind": None}


@pytest.mark.parametrize("null_pairs", [[[0, 1], [2, 3]], [[0.5]], "not a list"])
def test_older_files_with_null_pairs_still_load(tmp_path, null_pairs):
    # files used to carry null-pair markers, which nothing read: the key is ignored
    s, _ = make_samples(GenerateConfig(kind="lorentz", num_samples=60, seed=2))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save_samples(str(new), s, seed=2, kind="lorentz")
    payload = json.loads(new.read_text())
    payload["markers"]["null_pairs"] = null_pairs
    old.write_text(json.dumps(payload))
    (a, meta_a), (b, meta_b) = load_samples(str(old)), load_samples(str(new))
    _same(a, b)
    _same(a, s)
    assert meta_a == meta_b


def test_a_report_is_its_fit_report_with_every_non_finite_number_null(tmp_path):
    s, _ = make_samples(GenerateConfig(kind="lorentz", num_samples=60, seed=2))
    report = recover_lorentz(s)
    cone = dataclasses.replace(report.cone, worst_excess=-math.inf)
    odd = dataclasses.replace(report, cone=cone, max_residual=math.nan, fit_threshold=math.inf)
    path = tmp_path / "r.json"
    save_report(str(path), odd, s, input_path="s.json")

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    body = json.loads(path.read_text(), parse_constant=refuse)["report"]
    names = {f.name for f in dataclasses.fields(FitReport)} - {"cone"}
    assert set(body) == names | {"cone_preservation", "total_violations"}
    assert body["max_residual"] is body["fit_threshold"] is None
    assert body["cone_preservation"]["worst_excess"] is None
    assert body["total_violations"] == report.total_violations == 0
    assert body["recovered"]["L"] == report.recovered.L.tolist()
