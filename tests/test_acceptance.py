"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Matrix comparisons are entrywise, relative to the magnitude of each entry
(and of the products forming it): at c ~ 3e8 the boost entries span ~17
orders of magnitude, so absolute thresholds would be meaningless.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lightcone import (
    BoostParams,
    GenerateConfig,
    Metric,
    boost_x,
    compose,
    derive_map,
    is_isometry,
    light_clock,
    make_samples,
    on_null_cone,
    on_null_plane_by_characterization,
    permute_images,
    line_through,
    recover_lorentz,
    scale_constraint_check,
    scale_factor,
    transform_line,
    RadarScenario,
    CausalClass,
)
from lightcone.boost import AffineLorentzMap
from lightcone.minkowski import abs_inner, inner, interval
from lightcone.sampleio import save_samples

SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def random_vc(rng):
    c = float(rng.choice(SPEEDS))
    return rng.uniform(-0.99, 0.99) * c, c


def test_criterion_1_isometry_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = all(
        is_isometry(boost_x(BoostParams(v, c)).L, Metric(4, c), tol=1e-9)
        for v, c in (random_vc(rng) for _ in range(1000))
    )
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0,
           f"1000 boosts satisfy L^T eta L = eta at 1e-9 relative ({elapsed:.2f} s)")


def test_criterion_2_composition_identity():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        v, c = random_vc(rng)
        L1 = boost_x(BoostParams(v, c)).L
        L2 = boost_x(BoostParams(-v, c)).L
        scale = np.maximum(1.0, np.abs(L1) @ np.abs(L2))
        ok &= bool(np.all(np.abs(L1 @ L2 - np.eye(4)) <= 1e-10 * scale))
    report(2, ok, "L(v) L(-v) = identity at 1e-10 per entry")


def test_criterion_3_scale_factor_law():
    # closed form: alpha(v) alpha(-v) = sqrt(1 - v^2/c^2)^2 = 1 - v^2/c^2,
    # verified symbolically and then numerically at 1e-12
    sympy = pytest.importorskip("sympy")
    v, c = sympy.symbols("v c", positive=True)
    alpha = sympy.sqrt(1 - v ** 2 / c ** 2)
    exact = sympy.simplify(alpha * alpha.subs(v, -v) - (1 - v ** 2 / c ** 2)) == 0

    rng = np.random.default_rng(103)
    numeric = True
    for _ in range(500):
        vv, cc = random_vc(rng)
        p = BoostParams(vv, cc)
        numeric &= scale_constraint_check(
            scale_factor(vv, cc), scale_factor(-vv, cc), p, tol=1e-12
        )
    report(3, exact and numeric, "alpha(v) alpha(-v) = 1 - v^2/c^2 exactly and at 1e-12")


def test_criterion_4_independent_derivations_agree():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        v, c = random_vc(rng)
        D = derive_map(v, c).L
        B = boost_x(BoostParams(v, c)).L
        scale = np.maximum(1.0, np.maximum(np.abs(D), np.abs(B)))
        ok &= bool(np.all(np.abs(D - B) <= 1e-12 * scale))
    report(4, ok, "radar-derived map equals the boost matrix at 1e-12 per entry")


def test_criterion_5_synchronization_convention():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        c = float(rng.choice(SPEEDS))
        sc = RadarScenario(
            v=rng.uniform(-0.9, 0.9) * c,
            c=c,
            delta_xbar=float(rng.uniform(0.1, 10.0)),
            t0=float(rng.uniform(-5.0, 5.0)),
        )
        tl = light_clock(sc)
        mid = 0.5 * (tl.tprime0 + tl.tprime2)
        scale = max(abs(tl.tprime0), abs(tl.tprime1), abs(tl.tprime2), 1e-300)
        ok &= abs(tl.tprime1 - mid) <= 1e-10 * scale
    report(5, ok, "reflection time is the mean of emission and return at 1e-10 relative")


def test_criterion_6_recovery_soundness():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    ok = True
    for trial in range(20):
        cfg = GenerateConfig(
            kind="lorentz",
            v=float(rng.uniform(-0.9, 0.9)),
            alpha=float(rng.uniform(0.5, 3.0)),
            seed=1000 + trial,
            num_samples=50,
        )
        s, truth = make_samples(cfg)
        rep = recover_lorentz(s)
        ok &= rep.total_violations == 0 and rep.recovered is not None
        if rep.recovered is not None:
            ok &= abs(rep.recovered.alpha - truth["alpha"]) <= 1e-8
            ok &= float(np.max(np.abs(rep.recovered.L - np.array(truth["L"])))) <= 1e-8
            ok &= float(np.max(np.abs(rep.recovered.a - np.array(truth["a"])))) <= 1e-8
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 5.0,
           f"20 ground-truth maps recovered to 1e-8 per entry ({elapsed:.2f} s)")


def run_cli(*args):
    return subprocess.run(  # warnings as errors, as in the CI smoke step
        [sys.executable, "-W", "error", "-m", "lightcone", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_7_recovery_completeness(tmp_path):
    ok = True
    for kind in ("cubing", "shear"):
        f = tmp_path / f"{kind}.json"
        rep_path = tmp_path / f"{kind}-report.json"
        assert run_cli("generate", "--kind", kind, "--seed", 17, "--out", f).returncode == 0
        r = run_cli("verify", f, "--out", rep_path)
        body = json.loads(rep_path.read_text())["report"]
        ok &= r.returncode == 2
        ok &= body["recovered"] is None
        ok &= body["total_violations"] >= 1 or bool(body["failure"])

    s, _ = make_samples(GenerateConfig(kind="lorentz", v=0.6, alpha=2.0, seed=18))
    permuted = permute_images(s, seed=4)
    f = tmp_path / "permuted.json"
    rep_path = tmp_path / "permuted-report.json"
    save_samples(str(f), permuted, seed=18, kind="permutation")
    r = run_cli("verify", f, "--out", rep_path)
    body = json.loads(rep_path.read_text())["report"]
    ok &= r.returncode == 2 and body["recovered"] is None
    ok &= body["total_violations"] >= 1 or bool(body["failure"])
    report(7, ok, "cubing / shear / permuted samples all refused with exit code 2")


def test_criterion_8_characterization_equivalence():
    # off the null plane of l (beyond 10 bands of B = inner(p - l.point, d)) the
    # characterization answers False, and the cone it says exists does: p lies on
    # the null cone of the vertex l.at(Q / (2 B)), Q = interval(p, l.point)
    rng = np.random.default_rng(108)
    failures = 0
    total = 0
    for c in SPEEDS:
        m = Metric(3, c)
        balanced = np.array([1.0, 1.0, 1.0 / c])
        for _ in range(3):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            l = line_through(rng.uniform(-2, 2, 3) * balanced, np.append(c * u, 1.0), m)
            for p in rng.uniform(-10, 10, (2_500, 3)) * balanced:
                b = inner(p - l.point, l.direction, m)
                if abs(b) <= 10 * 1e-9 * abs_inner(p - l.point, l.direction, m):
                    continue  # on the plane, or too near it to tell
                total += 1
                vertex = l.at(interval(p, l.point, m) / (2 * b))
                if on_null_plane_by_characterization(p, l, m) or not on_null_cone(p, vertex, m):
                    failures += 1
    report(8, failures == 0 and total > 29_000,
           f"off the null plane, the cone of vertex l.at(Q / 2B) reaches p ({total} points)")


def test_criterion_9_causal_class_preservation():
    rng = np.random.default_rng(109)
    expected = {
        "light": CausalClass.LIGHTLIKE,
        "space": CausalClass.SPACELIKE,
        "time": CausalClass.TIMELIKE,
    }
    ok = True
    for cls, target in expected.items():
        for _ in range(1000):
            c = float(rng.choice(SPEEDS))
            m = Metric(4, c)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            dt = rng.uniform(0.2, 1.0)
            k = {"light": 1.0, "space": rng.uniform(1.5, 4.0), "time": rng.uniform(0.1, 0.7)}[cls]
            l = line_through(
                rng.uniform(-1, 1, 4) * np.array([1, 1, 1, 1 / c]),
                np.concatenate([k * c * dt * u, [dt]]),
                m,
            )
            mp = AffineLorentzMap(
                rng.uniform(0.5, 2.0),
                compose(
                    boost_x(BoostParams(rng.uniform(-0.9, 0.9) * c, c)),
                    boost_x(BoostParams(rng.uniform(-0.9, 0.9) * c, c)),
                ).L,
                rng.uniform(-1, 1, 4) * np.array([1, 1, 1, 1 / c]),
            )
            ok &= l.causal_class is target
            ok &= transform_line(mp, l, m).causal_class is target
    report(9, ok, "3 x 1000 random lines keep their causal class under random boosts")


def test_criterion_10_field_map_identity():
    rng = np.random.default_rng(110)
    ok = True
    for trial in range(10):
        cfg = GenerateConfig(
            kind="lorentz",
            v=float(rng.uniform(-0.9, 0.9)),
            alpha=float(rng.uniform(0.5, 3.0)),
            seed=2000 + trial,
        )
        s, _ = make_samples(cfg)
        rep = recover_lorentz(s)
        fm = rep.field_map
        ok &= fm is not None and fm.line_preserved
        ok &= fm.additivity_error <= 1e-10
        ok &= fm.multiplicativity_error <= 1e-10
        ok &= fm.identity_error <= 1e-10
        ok &= fm.monotone
    report(10, ok, "induced scalar map is additive, multiplicative, and the identity at 1e-10")
