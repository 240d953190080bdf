"""The file layout: every file is ``json.dumps(payload, sort_keys=True)``
and a newline.  Sample files encode their pairs a block of rows at a time,
which must not change a byte; files in the older ``indent=2`` layout load
as they did."""

import json

import numpy as np
import pytest

from lightcone import Metric, __version__
from lightcone.generate import KINDS, GenerateConfig, make_samples
from lightcone.recover import AxisGrid, SampleSet
from lightcone.sampleio import FORMAT, load_samples, load_truth, save_samples, save_truth


def _samples(N: int) -> SampleSet:
    # coordinates over many binades, with the values whose repr is easiest to get wrong
    rng = np.random.default_rng(N)
    x, y = (rng.standard_normal((N, 4)) * 10.0 ** rng.integers(-300, 60, (N, 4)) for _ in "xy")
    x.flat[:4] = (-0.0, 5e-324, 1e60, 0.1)[: x.size]
    if N < 4:
        return SampleSet(Metric(4, 2.5), x, y)
    grid = AxisGrid(axis=x[0].copy(), values=(0.0, 1.0), indices=(2, 3))
    return SampleSet(Metric(4, 2.5), x, y, collinear=[(0, 1, 2)], parallel=[(0, 1, 2, 3)],
                     null_pairs=[(1, 3)], axis_grid=grid)


def _payload(s: SampleSet, seed, kind) -> dict:
    # the whole file as one object, its rows as numpy scalars
    markers = {"collinear": [list(t) for t in s.collinear],
               "parallel": [list(t) for t in s.parallel],
               "null_pairs": [list(t) for t in s.null_pairs]}
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
    assert (a.collinear, a.parallel, a.null_pairs) == (b.collinear, b.parallel, b.null_pairs)
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
