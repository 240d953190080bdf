"""Expected results built outside the library, and the checks that compare
the program's outputs with them.

Maps are compared in the metric-balanced frame ``D = diag(1, ..., 1, c)``:
``D L D^-1`` keeps boost entries of order gamma at every invariant speed,
whereas raw entries span seventeen orders of magnitude at c = 3e8 and a
ratio against ``max(1, |L|)`` hides errors in the small ones.
"""

from __future__ import annotations

import math

import numpy as np

#: Largest accepted relative error of a recovered (alpha, L, a).  Over the
#: benchmark's inputs the fits are within 2e-14 in the balanced frame; a
#: wrong map is off by O(1).
MAP_TOL = 1e-8


def boost_matrix(v: float, c: float) -> np.ndarray:
    """The x-boost of velocity v at invariant speed c, from the textbook
    formulas x' = g (x - v t), t' = g (t - v x / c^2)."""
    g = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
    return np.array([
        [g, 0.0, 0.0, -v * g],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [-v * g / c ** 2, 0.0, 0.0, g],
    ])


def expected_map(kind: str, n: int, v: float, c: float, alpha: float):
    """The (alpha, L) a positive sample kind was generated from."""
    if kind == "translation":
        return 1.0, np.eye(n)
    return alpha, boost_matrix(v, c)


def balanced(L, c: float) -> np.ndarray:
    d = np.ones(len(L))
    d[-1] = c
    return (d[:, None] * np.asarray(L, dtype=float)) / d[None, :]


def map_error(alpha, L, a, alpha_ref, L_ref, a_ref, c: float) -> float:
    """Largest relative error of (alpha, L, a) against the reference, in the
    balanced frame (the time component of a is measured as c * t)."""
    Lb, Lb_ref = balanced(L, c), balanced(L_ref, c)
    err_alpha = abs(alpha - alpha_ref) / abs(alpha_ref)
    err_L = float(np.max(np.abs(Lb - Lb_ref))) / max(1.0, float(np.max(np.abs(Lb_ref))))
    d = np.ones(len(a_ref))
    d[-1] = c
    ab, ab_ref = d * np.asarray(a, dtype=float), d * np.asarray(a_ref, dtype=float)
    err_a = float(np.linalg.norm(ab - ab_ref)) / max(1.0, float(np.linalg.norm(ab_ref)))
    return max(err_alpha, err_L, err_a)


def check_truth(truth: dict, kind: str, v: float, c: float, alpha: float) -> str | None:
    """A generator's ground-truth record must state the map it was asked for."""
    alpha_ref, L_ref = expected_map(kind, truth["n"], v, c, alpha)
    # the translation is drawn from the seed, so only (alpha, L) are compared
    err = map_error(truth["alpha"], truth["L"], truth["a"], alpha_ref, L_ref, truth["a"], c)
    if not err <= MAP_TOL:
        return f"ground truth differs from the requested map by {err:.3g}"
    return None


def check_accept(result, report: dict | None, truth: dict, c: float) -> str | None:
    """An accepted verify of an input generated at invariant speed ``c``:
    exit 0, a report at that c, a recovered map equal to the ground truth in
    the balanced frame, and a reloaded L that is an isometry."""
    from lightcone import Metric, is_isometry

    if result.exit_code != 0:
        return f"exit {result.exit_code}, expected 0"
    rec = (report or {}).get("report", {}).get("recovered")
    if rec is None:
        return "report has no recovered map"
    if report["metric"]["c"] != c:
        return f"report states c = {report['metric']['c']!r}, the input has c = {c!r}"
    err = map_error(rec["alpha"], rec["L"], rec["a"], truth["alpha"], truth["L"], truth["a"], c)
    if not err <= MAP_TOL:
        return f"recovered map differs from the ground truth by {err:.3g}"
    if not is_isometry(np.asarray(rec["L"]), Metric(report["metric"]["n"], c)):
        return "reloaded L is not an isometry"
    return None


def check_refuse(result, report: dict | None) -> str | None:
    """A refused verify: exit 2, ``recovered: null``, and a named reason."""
    if result.exit_code != 2:
        return f"exit {result.exit_code}, expected 2"
    body = (report or {}).get("report")
    if body is None:
        return "no report written"
    if body.get("recovered") is not None:
        return "refusal carries a recovered map"
    if not (body.get("total_violations", 0) > 0 or body.get("failure")):
        return "refusal names no violation and no failure"
    return None
