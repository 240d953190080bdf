import json
import subprocess
import sys

import numpy as np
import pytest

from lightcone import Metric, is_isometry
from lightcone.sampleio import load_samples, load_truth, map_from_dict


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lightcone", *map(str, args)],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_generate_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        r = run_cli("generate", "--kind", "lorentz", "--v", 0.6, "--c", 1,
                    "--num-samples", 50, "--seed", 7, "--out", f)
        assert r.returncode == 0, r.stderr
    assert f1.read_bytes() == f2.read_bytes()
    assert (tmp_path / "a.json.truth.json").read_bytes() == (tmp_path / "b.json.truth.json").read_bytes()
    samples, meta = load_samples(str(f1))
    assert meta == {"seed": 7, "kind": "lorentz"}
    assert len(samples) == 50  # num-samples counts every pair, markers included
    assert samples.collinear and samples.parallel and samples.axis_grid is not None


def test_generate_translation_kind(tmp_path):
    f = tmp_path / "t.json"
    r = run_cli("generate", "--kind", "translation", "--a", "1,2,3,4", "--seed", 1, "--out", f)
    assert r.returncode == 0, r.stderr
    s, _ = load_samples(str(f))
    np.testing.assert_allclose(s.y, s.x + np.array([1.0, 2.0, 3.0, 4.0]), atol=0)


def test_generate_cubing_includes_broken_null_pair(tmp_path):
    f = tmp_path / "cube.json"
    assert run_cli("generate", "--kind", "cubing", "--seed", 3, "--out", f).returncode == 0
    s, _ = load_samples(str(f))
    m = s.metric
    assert s.null_pairs
    broken = 0
    for i, j in s.null_pairs:
        dx = s.x[i] - s.x[j]
        dy = s.y[i] - s.y[j]
        ix = float(np.dot(dx[:-1], dx[:-1]) - m.c ** 2 * dx[-1] ** 2)
        iy = float(np.dot(dy[:-1], dy[:-1]) - m.c ** 2 * dy[-1] ** 2)
        assert abs(ix) <= 1e-9 * max(1.0, float(np.dot(dx, dx)))
        if abs(iy) > 1e-7 * max(1.0, float(np.dot(dy, dy))):
            broken += 1
    assert broken >= 1


def test_generate_rejects_bad_params(tmp_path):
    r = run_cli("generate", "--kind", "lorentz", "--v", 2, "--c", 1,
                "--out", tmp_path / "x.json")
    assert r.returncode == 2
    assert "degenerate velocity" in r.stderr


def test_verify_roundtrip_exit_zero(tmp_path):
    f, rep = tmp_path / "s.json", tmp_path / "rep.json"
    run_cli("generate", "--kind", "lorentz", "--v", 0.6, "--alpha", 2,
            "--seed", 7, "--out", f)
    r = run_cli("verify", f, "--out", rep)
    assert r.returncode == 0, r.stdout + r.stderr
    truth = load_truth(str(f) + ".truth.json")
    body = json.loads(rep.read_text())
    assert body["report"]["total_violations"] == 0
    rec = body["report"]["recovered"]
    assert abs(rec["alpha"] - truth["alpha"]) <= 1e-8
    assert np.max(np.abs(np.array(rec["L"]) - np.array(truth["L"]))) <= 1e-8
    assert np.max(np.abs(np.array(rec["a"]) - np.array(truth["a"]))) <= 1e-8
    # reloaded maps pass the isometry check
    m = map_from_dict(rec)
    assert is_isometry(m.L, Metric(4, body["metric"]["c"]))


def test_verify_negative_kinds_exit_two(tmp_path):
    for kind in ("cubing", "shear"):
        f, rep = tmp_path / f"{kind}.json", tmp_path / f"{kind}-rep.json"
        run_cli("generate", "--kind", kind, "--seed", 11, "--out", f)
        r = run_cli("verify", f, "--out", rep)
        assert r.returncode == 2, f"{kind}: {r.stdout}"
        body = json.loads(rep.read_text())["report"]
        assert body["recovered"] is None
        assert body["total_violations"] >= 1 or body["failure"]


def test_verify_noisy_small_noise_accepted(tmp_path):
    f = tmp_path / "noisy.json"
    run_cli("generate", "--kind", "noisy-lorentz", "--v", 0.3, "--noise", 1e-9,
            "--seed", 13, "--out", f)
    assert run_cli("verify", f).returncode == 0


def test_verify_translation_accepted(tmp_path):
    f = tmp_path / "trans.json"
    run_cli("generate", "--kind", "translation", "--seed", 5, "--out", f)
    assert run_cli("verify", f).returncode == 0


def test_verify_truncated_file_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "lightcone-samples-v1", "pairs": [')
    r = run_cli("verify", bad)
    assert r.returncode == 1
    assert "error" in r.stderr


def test_verify_missing_file_exit_one(tmp_path):
    r = run_cli("verify", tmp_path / "nope.json")
    assert r.returncode == 1


def test_verify_wrong_schema_exit_one(tmp_path):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps({"format": "something-else", "pairs": []}))
    assert run_cli("verify", bad).returncode == 1


def test_boost_prints_matrix():
    r = run_cli("boost", "--v", 0.6, "--c", 1)
    assert r.returncode == 0
    rows = r.stdout.strip().splitlines()
    assert rows[0].split() == ["1.25", "0", "0", "-0.75"]
    assert rows[1].split() == ["0", "1", "0", "0"]
    assert rows[3].split() == ["-0.75", "0", "0", "1.25"]


def test_boost_identity_rows():
    r = run_cli("boost", "--v", 0)
    assert [row.split() for row in r.stdout.strip().splitlines()] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]


def test_boost_superluminal_exit_two():
    r = run_cli("boost", "--v", 1, "--c", 1)
    assert r.returncode == 2


def test_boost_full_precision():
    r = run_cli("boost", "--v", 0.1234, "--c", 1)
    val = float(r.stdout.split()[0])
    assert val == 1.0 / np.sqrt(1 - 0.1234 ** 2)  # round-trips exactly


def test_radar_rest_frame_csv():
    r = run_cli("radar", "--v", 0, "--c", 1, "--delta-xbar", 1)
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "event,t_K,x_K,t_Kprime,x_Kprime"
    t_K = [line.split(",")[1] for line in lines[1:]]
    assert t_K == ["0", "1", "2"]


def test_radar_moving_csv(tmp_path):
    out = tmp_path / "tl.csv"
    r = run_cli("radar", "--v", 0.5, "--c", 1, "--delta-xbar", 1, "--out", out)
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["emit", "reflect", "return"]
    t_K = [float(row[1]) for row in rows]
    assert t_K == [0.0, 2.0, pytest.approx(8.0 / 3.0, rel=1e-15)]
    tp = [float(row[3]) for row in rows]
    assert tp[1] == pytest.approx(0.5 * (tp[0] + tp[2]), rel=1e-12)


def test_radar_bad_scenario_exit_two():
    assert run_cli("radar", "--v", 2, "--c", 1).returncode == 2
    assert run_cli("radar", "--v", 0.5, "--delta-xbar", -1).returncode == 2


def test_classify_outputs():
    assert run_cli("classify", "0,0,0,0", "1,0,0,1").stdout.startswith("lightlike")
    assert run_cli("classify", "0,0,0,0", "1,0,0,0").stdout.startswith("spacelike")
    assert run_cli("classify", "0,0,0,0", "0,0,0,1").stdout.startswith("timelike")
    assert run_cli("classify", "--c", 343, "0,0,343", "0,1,343").stdout.startswith("spacelike")
    assert run_cli("classify", "--c", 0.001, "0,0,0,0", "0,0,0,0.01").stdout.startswith("timelike")


def test_classify_dimension_mismatch_exit_two():
    assert run_cli("classify", "0,0,0", "1,0,0,1").returncode == 2
