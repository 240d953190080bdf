"""Golden digests of the generator and of the reports on its samples.

Each case pins the sha256 of the bytes that ``save_samples`` and
``save_truth`` write for one seeded configuration.  The row layout and the
draw order of ``lightcone.generate`` are a contract (see its module
docstring): a change to either, or to any drawn number, changes these files.
Each case also pins the bytes that ``save_report`` writes for
``recover_lorentz`` on that sample, with the input named ``s.json``.

The images of the affine kinds go through a BLAS matrix product, and the fit
through LAPACK, whose last bits can depend on the build.  The digests in
``generate_digests.json`` and ``report_digests.json`` were recorded with
numpy 2.4 on OpenBLAS 0.3 (x86-64).  After a deliberate change to the
generator or to the report, record them again with::

    PYTHONPATH=src python tests/test_generate.py > tests/generate_digests.json
    PYTHONPATH=src python tests/test_generate.py reports > tests/report_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lightcone import Metric
from lightcone.generate import KINDS, GenerateConfig, make_samples, permute_images
from lightcone.recover import SampleSet, recover_lorentz
from lightcone.sampleio import save_report, save_samples, save_truth

SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)
DIGESTS = Path(__file__).with_name("generate_digests.json")
REPORT_DIGESTS = Path(__file__).with_name("report_digests.json")


def _case(kind, c=1.0, num_samples=50, seed=0, n=4, permute=None):
    cfg = GenerateConfig(kind=kind, n=n, c=c, v=0.6 * c, num_samples=num_samples, seed=seed,
                         noise=1e-3 if kind == "noisy-lorentz" else 0.0)
    tag = f"{kind}-n{n}-c{c!r}-N{num_samples}-s{seed}" + ("" if permute is None else f"-perm{permute}")
    return pytest.param(cfg, permute, id=tag)


CASES = [
    *(_case(kind, c, num_samples, seed)
      for kind in KINDS for c in SPEEDS for num_samples in (50, 200) for seed in range(3)),
    _case("lorentz", num_samples=2000, seed=1),
    _case("cubing", num_samples=2000, seed=1),
    *(_case("lorentz", num_samples=200, seed=4, permute=p) for p in (0, 1)),
    *(_case(kind, n=n) for kind in ("translation", "cubing", "shear") for n in (3, 5)),
    *(_case(kind, c=c) for kind in ("lorentz", "shear") for c in (1e-3, 1e10)),
]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _samples(cfg: GenerateConfig, permute: int | None):
    samples, truth = make_samples(cfg)
    if permute is not None:
        samples = permute_images(samples, permute)
    return samples, truth


def _digests(cfg: GenerateConfig, permute: int | None, where: Path) -> dict:
    samples, truth = _samples(cfg, permute)
    path = str(where / "s.json")
    save_samples(path, samples, seed=cfg.seed, kind=cfg.kind)
    save_truth(path + ".truth.json", truth)
    return {name: _sha256(p) for name, p in (("samples", path), ("truth", path + ".truth.json"))}


def _report_digest(cfg: GenerateConfig, permute: int | None, where: Path) -> str:
    samples, _ = _samples(cfg, permute)
    path = where / "r.json"
    save_report(str(path), recover_lorentz(samples), samples, input_path="s.json")
    return _sha256(path)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def recorded_reports() -> dict:
    return json.loads(REPORT_DIGESTS.read_text())


@pytest.mark.parametrize(("cfg", "permute"), CASES)
def test_generated_files_are_byte_identical(cfg, permute, recorded, tmp_path, request):
    assert _digests(cfg, permute, tmp_path) == recorded[request.node.callspec.id]


@pytest.mark.parametrize(("cfg", "permute"), CASES)
def test_reports_are_byte_identical(cfg, permute, recorded_reports, tmp_path, request):
    assert _report_digest(cfg, permute, tmp_path) == recorded_reports[request.node.callspec.id]


def test_every_recorded_case_is_run(recorded, recorded_reports):
    assert sorted(recorded) == sorted(recorded_reports) == sorted(p.id for p in CASES)


def test_permute_images_refuses_a_single_pair():
    one = SampleSet(Metric(4, 1.0), np.zeros((1, 4)), np.zeros((1, 4)))
    with pytest.raises(ValueError, match="a single pair has no derangement"):
        permute_images(one)
    empty = SampleSet(Metric(4, 1.0), np.zeros((0, 4)), np.zeros((0, 4)))
    assert len(permute_images(empty)) == 0


if __name__ == "__main__":
    digest = _report_digest if sys.argv[1:] == ["reports"] else _digests
    with tempfile.TemporaryDirectory() as d:
        table = {p.id: digest(*p.values, Path(d)) for p in CASES}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
