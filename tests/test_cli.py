import functools
import hashlib
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone import GenerateConfig, Metric, cli, is_isometry, make_samples
from lightcone.generate import KINDS
from lightcone.recover import SampleSet
from lightcone.sampleio import load_samples, load_truth, map_from_dict, save_samples


def run_cli(*args, **kwargs):
    # warnings as errors, as in the CI smoke step: a numpy warning fails the command
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "lightcone", *map(str, args)],
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
    # the ground truth names a pair of the sample that is null and whose image is not
    f = tmp_path / "cube.json"
    assert run_cli("generate", "--kind", "cubing", "--seed", 3, "--out", f).returncode == 0
    s, _ = load_samples(str(f))
    m = s.metric
    i, j = load_truth(str(f) + ".truth.json")["witness_pair"]
    dx = s.x[i] - s.x[j]
    dy = s.y[i] - s.y[j]
    ix = float(np.dot(dx[:-1], dx[:-1]) - m.c ** 2 * dx[-1] ** 2)
    iy = float(np.dot(dy[:-1], dy[:-1]) - m.c ** 2 * dy[-1] ** 2)
    assert abs(ix) <= 1e-9 * max(1.0, float(np.dot(dx, dx)))
    assert abs(iy) > 1e-7 * max(1.0, float(np.dot(dy, dy)))


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


def test_verify_empty_sample_file_exit_two(tmp_path):
    # a file with no pairs loads as (0, n) samples, and verify refuses them as a domain error
    f = tmp_path / "empty.json"
    save_samples(str(f), SampleSet(Metric(4, 2.0), np.empty((0, 4)), np.empty((0, 4))))
    r = run_cli("verify", f)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize("flags, message", [
    (("--kind", "lorentz", "--alpha", "nan"), "samples contain non-finite values"),
    (("--kind", "lorentz", "--a", "nan,0,0,0"), "samples contain non-finite values"),
    (("--kind", "noisy-lorentz", "--noise", "inf"), "samples contain non-finite values"),
    (("--kind", "lorentz", "--alpha", "inf"), "samples contain non-finite values"),
    # images that overflow to inf are refused without numpy's overflow warning
    (("--kind", "lorentz", "--alpha", "1e308"), "samples contain non-finite values"),
    (("--kind", "noisy-lorentz", "--noise", "1e308"), "samples contain non-finite values"),
])
def test_generate_non_finite_or_overflowing_parameters_exit_two(tmp_path, flags, message):
    out = tmp_path / "s.json"
    r = run_cli("generate", *flags, "--out", out)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith(f"error: {message}") and "Traceback" not in r.stderr, r.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--kind", "cubing", "--a", "1,2,3"), "cubing is not affine and takes no translation"),
    (("--kind", "shear", "--a", "1,2,3,4"), "shear is not affine and takes no translation"),
    (("--kind", "lorentz", "--noise", "5"), "lorentz takes no noise"),
    (("--kind", "translation", "--noise", "5"), "translation takes no noise"),
    # the ground truth of both boost kinds is the 4 x 4 boost_x
    (("--kind", "noisy-lorentz", "--n", "3", "--noise", "1e-9"),
     "boost ground truths are four-dimensional"),
    (("--kind", "noisy-lorentz", "--n", "5"), "boost ground truths are four-dimensional"),
])
def test_generate_refuses_a_parameter_its_kind_does_not_take(tmp_path, flags, message):
    out = tmp_path / "s.json"
    r = run_cli("generate", *flags, "--out", out)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith(f"error: {message}") and "Traceback" not in r.stderr, r.stderr
    assert not out.exists()


def _strict_json(path: Path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("verify_flags", [(), ("--tol", "1e308"), ("--cone-tol", "0")])
def test_every_written_file_is_strict_json(tmp_path, kind, verify_flags):
    # a fit threshold of inf (--tol 1e308) is written as null, as every non-finite number is
    f, rep = tmp_path / "s.json", tmp_path / "r.json"
    assert cli.main(["generate", "--kind", kind, "--seed", "3", "--out", str(f)]) == 0
    assert cli.main(["verify", str(f), "--out", str(rep), *verify_flags]) in (0, 2)
    for path in (f, tmp_path / "s.json.truth.json", rep):
        _strict_json(path)
    if verify_flags[:1] == ("--tol",):
        assert _strict_json(rep)["report"]["fit_threshold"] is None


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


SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)
RADAR_DIGESTS = Path(__file__).with_name("radar_digests.json")
RADAR_CASES = [(v_over_c, c, delta_xbar, t0) for v_over_c in (0.0, 0.3, -0.3, 0.5, 0.9)
               for c in SPEEDS for delta_xbar in (1.0, 1.5) for t0 in (0.0, 0.25)]


def _radar_case(v_over_c, c, delta_xbar, t0) -> str:
    return f"v={v_over_c!r}c,c={c!r},dx={delta_xbar!r},t0={t0!r}"


def _radar_csv_sha256(v_over_c, c, delta_xbar, t0) -> str:
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "radar.csv"
        args = ("--v", v_over_c * c, "--c", c, "--delta-xbar", delta_xbar, "--t0", t0, "--out", out)
        assert cli.main(["radar", *map(str, args)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", RADAR_CASES, ids=[_radar_case(*case) for case in RADAR_CASES])
def test_radar_csv_bytes_are_pinned(case):
    # the CSV bytes, "\r\n" line ends included, recorded when the command ran the
    # light clock twice and evaluated x' itself; it now prints the record's own fields
    assert _radar_csv_sha256(*case) == json.loads(RADAR_DIGESTS.read_text())[_radar_case(*case)]


def test_radar_bad_scenario_exit_two():
    assert run_cli("radar", "--v", 2, "--c", 1).returncode == 2
    assert run_cli("radar", "--v", 0.5, "--delta-xbar", -1).returncode == 2


def test_classify_outputs():
    assert run_cli("classify", "0,0,0,0", "1,0,0,1").stdout.startswith("lightlike")
    assert run_cli("classify", "0,0,0,0", "1,0,0,0").stdout.startswith("spacelike")
    assert run_cli("classify", "0,0,0,0", "0,0,0,1").stdout.startswith("timelike")
    assert run_cli("classify", "--c", 343, "0,0,343", "0,1,343").stdout.startswith("spacelike")
    assert run_cli("classify", "--c", 0.001, "0,0,0,0", "0,0,0,0.01").stdout.startswith("timelike")


def test_classify_a_separation_whose_square_overflows():
    # its squared length overflows to inf, which the null band once read as lightlike
    r = run_cli("classify", "0,0,0,0", "1e200,0,0,0")
    assert (r.returncode, r.stdout, r.stderr) == (0, "spacelike (interval = inf)\n", "")


def test_classify_dimension_mismatch_exit_two():
    assert run_cli("classify", "0,0,0", "1,0,0,1").returncode == 2


def test_classify_takes_its_dimension_from_the_events():
    # --n could only refuse a dimension that disagreed with the events; it is gone
    r = run_cli("classify", "0,0,0,0", "1,0,0,1", "--n", 4)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "unrecognized arguments: --n 4" in r.stderr and "Traceback" not in r.stderr, r.stderr


def test_classify_speed_with_an_overflowing_square_exit_two():
    r = run_cli("classify", "1,0,0,0", "0,0,0,0", "--c", 1e200)
    assert r.returncode == 2
    assert r.stderr.startswith("error: invariant speed must have c^2 in the normal float range")


@pytest.fixture(scope="module")
def valid_sample_text(tmp_path_factory):
    f = tmp_path_factory.mktemp("valid") / "lorentz.json"
    r = run_cli("generate", "--kind", "lorentz", "--num-samples", 40, "--seed", 0, "--out", f)
    assert r.returncode == 0, r.stderr
    return f.read_text()


def _edited(*keys, value):
    # the valid file with payload[keys[0]]...[keys[-1]] replaced by value(old)
    def mutate(text):
        payload = json.loads(text)
        target = payload
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value(target[keys[-1]])
        return json.dumps(payload).encode()
    return mutate


def _scaled(k, ky=None):
    # the valid file with every coordinate and the axis-grid axis times k (y times ky if given)
    def mutate(text):
        payload = json.loads(text)
        for pair in payload["pairs"]:
            pair["x"], pair["y"] = ([s * v for v in pair[key]] for s, key in ((k, "x"), (ky or k, "y")))
        grid = payload["markers"]["axis_grid"]
        grid["axis"] = [k * v for v in grid["axis"]]
        return json.dumps(payload).encode()
    return mutate


FILE_FAULTS = {
    "top-level-list": lambda text: f"[{text}]".encode(),
    "non-utf-8": lambda text: text.encode().replace(b'"lorentz"', b'"lor\xffentz"'),
    "collinear-two-indices": _edited("markers", "collinear", 0, value=lambda t: t[:2]),
    "c-string": _edited("metric", "c", value=lambda c: str(c)),
    "n-fractional": _edited("metric", "n", value=lambda n: n + 0.5),
    "c-beyond-float": _edited("metric", "c", value=lambda c: 10 ** 400),
    "x-coordinate-string": _edited("pairs", 0, "x", 0, value=lambda v: "1"),
    "y-coordinate-true": _edited("pairs", 1, "y", 1, value=lambda v: True),
    "coordinate-beyond-float": _edited("pairs", 2, "x", 3, value=lambda v: -10 ** 400),
    "c-too-long-to-parse": lambda text: text.replace('"c": 1.0', '"c": ' + "9" * 5000).encode(),
    "axis-value-beyond-float": _edited("markers", "axis_grid", "values", 0, value=lambda v: 10 ** 400),
    "axis-component-infinite": _edited("markers", "axis_grid", "axis", 0, value=lambda v: math.inf),
    # a marker whose domain fact does not hold
    "collinear-degenerate": _edited("markers", "collinear", 0, 1, value=lambda i: 5),
    "collinear-off-line": _edited("markers", "collinear", 0, 2, value=lambda i: i + 1),
    "parallel-zero-segment": _edited("markers", "parallel", 0, 1, value=lambda i: i - 1),
    "parallel-index-changed": _edited("markers", "parallel", 0, 3, value=lambda i: i + 1),
    "grid-index-wrong-row": _edited("markers", "axis_grid", "indices", 0, value=lambda i: i + 1),
    "grid-axis-huge": _edited("markers", "axis_grid", "axis", 0, value=lambda v: 1e308),
}


@pytest.mark.parametrize("fault", FILE_FAULTS)
def test_verify_file_fault_exit_one(tmp_path, valid_sample_text, fault):
    bad = tmp_path / "bad.json"
    bad.write_bytes(FILE_FAULTS[fault](valid_sample_text))
    r = run_cli("verify", bad)
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_refuses_a_bad_fit_tolerance(tmp_path, valid_sample_text, tol):
    f = tmp_path / "valid.json"
    f.write_text(valid_sample_text)
    r = run_cli("verify", f, f"--tol={tol}")
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr == f"error: tolerance must be finite and >= 0, got {float(tol)}\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["classify --tol", "verify --cone-tol"])
def test_a_bad_tolerance_exits_two(tmp_path, valid_sample_text, flag, tol):
    # every tolerance flag has the fit tolerance's rule and message; classify answered nan and inf
    f = tmp_path / "valid.json"
    f.write_text(valid_sample_text)
    command, flag = flag.split()
    operands = ("0,0,0,0", "0,0,0,0") if command == "classify" else (f,)
    r = run_cli(command, *operands, f"{flag}={tol}")
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr == f"error: tolerance must be finite and >= 0, got {float(tol)}\n"


def test_verify_at_cone_tol_zero_writes_a_report(tmp_path, valid_sample_text):
    # the markers' domain facts are checked at GEOMETRY_TOL when the file loads, so
    # --cone-tol reaches only the image: at 0 it refuses, with a report
    f, rep = tmp_path / "valid.json", tmp_path / "rep.json"
    f.write_text(valid_sample_text)
    r = run_cli("verify", f, "--cone-tol", 0, "--out", rep)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr == "" and "recovered: none" in r.stdout
    body = json.loads(rep.read_text())["report"]
    assert body["recovered"] is None
    assert body["collinearity"]["checked"] == 4 and body["parallelism"]["checked"] == 3


@pytest.mark.parametrize("k", [1e-170, 1e200])
def test_verify_a_rescaled_valid_file_exits_zero(tmp_path, valid_sample_text, k):
    # every coordinate and the grid's axis times k: each side is checked at its power of
    # two, so a segment of length 1e-170 is measured and no squared distance overflows
    f = tmp_path / "scaled.json"
    f.write_bytes(_scaled(k)(valid_sample_text))
    r = run_cli("verify", f)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stderr == ""


def test_verify_at_c_1e150_holds_at_a_power_of_two(tmp_path):
    # the side's power of two is taken for its c: at c = 1e150 the file times 2^-100 kept
    # k = 0, and the time column's squares underflowed in the fit ("underdetermined")
    f = tmp_path / "c-1e150.json"
    r = run_cli("generate", "--kind", "lorentz", "--c", "1e150", "--v", "6e149", "--seed", 1,
                "--num-samples", 200, "--out", f)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    reports = []
    for k, name in ((1.0, "unscaled"), (2.0 ** -100, "scaled")):
        g = tmp_path / f"{name}.json"
        g.write_bytes(_scaled(k)(f.read_text()))
        r = run_cli("verify", g)
        assert r.returncode == 0 and r.stderr == "", r.stdout + r.stderr
        reports.append(r.stdout.split("max residual")[0])
    assert reports[0] == reports[1]  # every count and field-map error


def test_generate_and_verify_at_alpha_1e300(tmp_path):
    f = tmp_path / "s.json"
    r = run_cli("generate", "--kind", "lorentz", "--alpha", "1e300", "--out", f)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    r = run_cli("verify", f)
    assert r.returncode == 0 and r.stderr == "", r.stdout + r.stderr
    alpha = float(r.stdout.split("recovered: alpha = ")[1].split()[0])
    assert alpha == pytest.approx(1e300, rel=1e-15)


def test_verify_overflowing_samples_exit_two_without_warning(tmp_path, valid_sample_text):
    # beside 1e308 the other points' differences fall to subnormals at that side's scale:
    # the checks refuse the map, with no warning and no traceback
    bad = tmp_path / "huge.json"
    bad.write_bytes(_edited("pairs", 0, "x", 0, value=lambda v: 1e308)(valid_sample_text))
    r = run_cli("verify", bad)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr == "" and "recovered: none" in r.stdout, r.stdout + r.stderr


def test_verify_a_map_beyond_the_float_range_exits_two(tmp_path, valid_sample_text):
    # x times 1e-300 and y times 1e300 is a map of alpha near 1e600, which no float holds
    f = tmp_path / "beyond.json"
    f.write_bytes(_scaled(1e-300, 1e300)(valid_sample_text))
    r = run_cli("verify", f)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr == "" and "recovered: none" in r.stdout, r.stdout + r.stderr
    assert "failure: unrepresentable: alpha must be nonzero and finite, got inf" in r.stdout


@functools.lru_cache(maxsize=None)
def _valid_text():
    # the file of `generate --kind lorentz --num-samples 40 --seed 0`, written in process
    s, _ = make_samples(GenerateConfig(kind="lorentz", num_samples=40, seed=0))
    with tempfile.TemporaryDirectory() as d:
        save_samples(f"{d}/lorentz.json", s, seed=0, kind="lorentz")
        return Path(f"{d}/lorentz.json").read_text()


def _nodes(node, path=()):
    # (path, value) of every key and item below node, depth first
    if not isinstance(node, (dict, list)):
        return
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


@functools.lru_cache(maxsize=None)
def _paths():
    # every path of the valid file, and those of its JSON numbers
    nodes = list(_nodes(json.loads(_valid_text())))
    return [p for p, _ in nodes], [p for p, v in nodes if type(v) in (int, float)]


def _mutations():
    # one edit of the valid file: a number set to an extreme or another integer, any value
    # swapped for one of another type, a key or item deleted, or the text truncated
    paths = st.deferred(lambda: st.sampled_from(_paths()[0]))
    numbers = st.deferred(lambda: st.sampled_from(_paths()[1]))
    extremes = st.sampled_from([1e308, -1e308, 1e200, 1e-200, 5e-324, 0, -1]) | st.integers(-3, 80)
    swaps = st.sampled_from(["1", True, None, [], {}, 1.5])
    return st.one_of(
        st.tuples(st.just("set"), numbers, extremes),
        st.tuples(st.just("set"), paths, swaps),
        st.tuples(st.just("delete"), paths),
        st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    )


def _mutated(text, mutation):
    action, *args = mutation
    if action == "truncate":
        return text[: int(args[0] * len(text))]
    payload = json.loads(text)
    *keys, last = args[0]
    target = payload
    for key in keys:
        target = target[key]
    if action == "delete":
        del target[last]
    else:
        target[last] = args[1]
    return json.dumps(payload)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=300, deadline=None)
@given(mutation=_mutations())
@example(mutation=("set", ("markers", "axis_grid", "axis", 0), 1e308))
@example(mutation=("set", ("metric", "c"), 1e-200))
@example(mutation=("set", ("markers", "parallel", 0, 3), 23))
@example(mutation=("set", ("markers", "axis_grid", "indices", 0), 32))
@example(mutation=("set", ("pairs", 0, "x", 0), 1e200))
@example(mutation=("set", ("pairs", 1, "y", 3), -1e308))
@example(mutation=("set", ("pairs", 1, "y", 3), 5e-324))
def test_verify_of_a_mutated_file_exits_with_a_code(mutation_dir, mutation):
    # one field of a valid file changed: verify exits 0, 1 or 2, with no exception and
    # no warning (here an exception), and a changed marker is a file fault or harmless,
    # never a refusal of the map; the examples are an axis-grid axis too large for its
    # rows, a c whose square underflows, a parallel index naming a point of the next
    # quadruple and a grid index naming the wrong row
    f = mutation_dir / "mutated.json"
    f.write_text(_mutated(_valid_text(), mutation))
    action, *args = mutation
    markers = action != "truncate" and args[0][0] == "markers"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(f)]) in ((0, 1) if markers else (0, 1, 2))


if __name__ == "__main__":
    # after a deliberate change to the radar CSV, record its digests again with
    #     PYTHONPATH=src python tests/test_cli.py > tests/radar_digests.json
    print(json.dumps({_radar_case(*case): _radar_csv_sha256(*case) for case in RADAR_CASES},
                     indent=1))
