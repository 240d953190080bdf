"""Hypothesis checks and affine recovery for sampled cone-preserving maps.

Given pairs (x_i, y_i) from an unknown bijection of R^n (n >= 3), the
checks test what a cone-preserving map must do -- send zero intervals to
zero intervals in both directions, lines onto lines, parallels onto
parallels, and scale along a line through the origin by the identity on
the reals -- and the fitter solves the affine model y = M x + a by least
squares, splitting M into a positive scale and a metric isometry.  When
every hypothesis holds and the fit is tight, the report carries the
recovered map (alpha, L, a); otherwise it carries the violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boost import AffineLorentzMap, NotConformalError, decompose_conformal
from .minkowski import Metric

#: Relative geometric tolerance shared by the pairwise and marker checks.
GEOMETRY_TOL = 1e-9

#: Fit acceptance: max residual <= FIT_TOL * sample diameter.
FIT_TOL = 1e-6

#: Rank decisions use singular values above this times the largest column norm.
RANK_RTOL = 1e-12

# Rows per block of the pairwise cone check.  At N = 2000 its time is flat
# at about 0.06 s from 8 to 64 rows and grows beyond (0.08 s at 128, 0.12 s
# at 512), on 2 vCPUs.
_CONE_BLOCK = 64


class UnderdeterminedError(ValueError):
    """The sample does not affinely span R^n; the fit has no unique solution."""


@dataclass(frozen=True)
class AxisGrid:
    """Bookkeeping for samples of the form value * axis: ``indices[k]`` is
    the row of ``values[k] * axis`` in the sample arrays.  Values must
    include 0 and 1."""

    axis: np.ndarray
    values: tuple[float, ...]
    indices: tuple[int, ...]


@dataclass
class SampleSet:
    """Sampled pairs y_i = f(x_i) of an unknown map, with optional markers
    laid down at generation time: collinear triples, parallel quadruples
    (two segments each), deliberately null pairs, and an axis grid."""

    metric: Metric
    x: np.ndarray
    y: np.ndarray
    collinear: list[tuple[int, int, int]] = field(default_factory=list)
    parallel: list[tuple[int, int, int, int]] = field(default_factory=list)
    null_pairs: list[tuple[int, int]] = field(default_factory=list)
    axis_grid: AxisGrid | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        n = self.metric.n
        if self.x.ndim != 2 or self.x.shape[1] != n:
            raise ValueError(f"x has shape {self.x.shape}, expected (N, {n})")
        if self.y.shape != self.x.shape:
            raise ValueError(f"y has shape {self.y.shape}, expected {self.x.shape}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("samples contain non-finite values")
        for marker in (*self.collinear, *self.parallel, *self.null_pairs):
            for i in marker:
                if not 0 <= i < len(self.x):
                    raise ValueError(f"marker index {i} out of range")
        if self.axis_grid is not None:
            for i in self.axis_grid.indices:
                if not 0 <= i < len(self.x):
                    raise ValueError(f"axis-grid index {i} out of range")

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class ConeCheck:
    """Pairwise zero-interval preservation over the pairs i < j:
    ``violations`` counts pairs null on exactly one side, pairs inside 10x
    the null band on either side are skipped as ``indeterminate``.  Exactly
    repeated rows count against bijectivity.  The pairs are computed in
    blocks of B rows, one coordinate at a time on (B, N) arrays, in O(B * N)
    memory rather than O(N^2 * n).  Each interval is summed over the
    coordinates in the order of the definition, so the counts, the worst
    pair and the bits of ``worst_excess`` are those of a per-pair loop."""

    violations: int
    worst_pair: tuple[int, int] | None
    worst_excess: float
    indeterminate: int
    bijectivity_violations: int


@dataclass
class MarkerCheck:
    checked: int
    violations: int
    worst_residual: float


@dataclass
class FieldMapCheck:
    """Errors of the scalar map zeta induced on a line through the origin:
    zeta(g) is the coordinate of the image of g * axis along the image
    line, normalized so zeta(1) = 1.  For the identity automorphism all
    three errors vanish and zeta is monotone."""

    additivity_error: float
    multiplicativity_error: float
    identity_error: float
    monotone: bool
    line_preserved: bool


@dataclass
class FitReport:
    cone: ConeCheck
    collinearity: MarkerCheck
    parallelism: MarkerCheck
    max_residual: float
    fit_threshold: float
    recovered: AffineLorentzMap | None
    failure: str | None
    single_cone_vertex: int
    single_cone_counterexamples: int
    field_map: FieldMapCheck | None
    num_samples: int

    @property
    def total_violations(self) -> int:
        return (
            self.cone.violations
            + self.cone.bijectivity_violations
            + self.collinearity.violations
            + self.parallelism.violations
        )


class _Side(NamedTuple):
    abs_iv: np.ndarray  # |squared interval| of each separation
    band: np.ndarray  # null-band half-width tol * max(1, |d|^2)
    null: np.ndarray
    coincident: np.ndarray  # |d|^2 == 0


def _side(rows: np.ndarray, cols: np.ndarray, c2: float, tol: float) -> _Side:
    # separations rows[:, i] - cols[:, j] of coordinate-major (n, R) and
    # (n, C) arrays, squared and summed one coordinate at a time in the
    # definition's order: space = d_0^2 + ... + d_{n-2}^2, then the time term
    d = np.subtract(rows[0][:, None], cols[0])
    space = d * d
    for k in range(1, len(rows) - 1):
        np.subtract(rows[k][:, None], cols[k], out=d)
        space += np.multiply(d, d, out=d)
    np.subtract(rows[-1][:, None], cols[-1], out=d)
    t2 = np.multiply(d, d, out=d)
    euclid = space + t2
    t2 *= c2
    abs_iv = np.abs(np.subtract(space, t2, out=space), out=space)
    band = np.maximum(euclid, 1.0, out=d)  # the time term is spent; reuse it
    band *= tol
    return _Side(abs_iv, band, abs_iv <= band, euclid == 0.0)


def _cone_masks(
    rows, cols, m: Metric, tol: float
) -> tuple[_Side, _Side, np.ndarray, np.ndarray]:
    """The pairwise masks of "null before iff null after".

    ``rows`` and ``cols`` each hold the domain side and then the image
    side, coordinate-major: arrays of shape (n, R) and (n, C), one row per
    coordinate, so each pass works on 2-D arrays.  The masks are (R, C),
    over the separations ``rows[:, i] - cols[:, j]``.  The squared
    interval and the Euclidean norm are summed over the coordinates in the
    order of the definition, sum_{k<n-1} d_k^2 and then the time term, so
    every mask and ratio has the bits of the per-pair formula.  Returns
    both sides, the ``indet`` mask of pairs inside 10x the null band on
    either side, and the ``mismatch`` mask of pairs null on exactly one
    side and determinate on both.
    """
    x, y = (_side(r, q, m.c ** 2, tol) for r, q in zip(rows, cols))
    indet = (~x.null & (x.abs_iv <= 10 * x.band)) | (~y.null & (y.abs_iv <= 10 * y.band))
    return x, y, indet, (x.null != y.null) & ~indet


def check_cone_preservation(s: SampleSet, tol: float = GEOMETRY_TOL) -> ConeCheck:
    """Test the biconditional "null before iff null after" on every pair.

    Both sides are transposed once to coordinate-major (n, N) arrays.
    Only the pairs i < j are visited, in blocks of ``_CONE_BLOCK`` rows
    against every later column, so memory is O(B * N) for B rows per
    block rather than O(N^2 * n).  The worst pair is the first maximum in
    row-major order, as over the whole upper triangle at once.
    """
    n_pts = len(s)
    if n_pts < 2:
        raise ValueError("need at least two samples")
    sides = (np.ascontiguousarray(s.x.T), np.ascontiguousarray(s.y.T))
    violations = indeterminate = duplicates = 0
    worst_pair = None
    worst_excess = 0.0
    for i0 in range(0, n_pts - 1, _CONE_BLOCK):
        i1 = min(i0 + _CONE_BLOCK, n_pts)
        x, y, indet, mismatch = _cone_masks(
            [p[:, i0:i1] for p in sides], [p[:, i0:] for p in sides], s.metric, tol
        )
        upper = np.arange(i0, n_pts) > np.arange(i0, i1)[:, None]  # j > i
        viol_mask = mismatch & upper
        block_violations = int(np.count_nonzero(viol_mask))
        violations += block_violations
        indeterminate += int(np.count_nonzero(indet & upper))
        duplicates += int(np.count_nonzero(x.coincident & upper))
        duplicates += int(np.count_nonzero(y.coincident & upper))
        if block_violations:
            # size of the nonzero interval on the violating side, in band units
            excess = np.where(x.null, y.abs_iv / y.band, x.abs_iv / x.band)
            excess = np.where(viol_mask, excess, -np.inf)
            r, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
            if worst_pair is None or excess[r, k] > worst_excess:
                worst_pair = (i0 + int(r), i0 + int(k))
                worst_excess = float(excess[r, k])

    return ConeCheck(
        violations=violations,
        worst_pair=worst_pair,
        worst_excess=worst_excess,
        indeterminate=indeterminate,
        bijectivity_violations=duplicates,
    )


def _line_residual(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    # Euclidean distance from p to the affine line through a and b
    d = b - a
    t = float(np.dot(p - a, d) / np.dot(d, d))
    return float(np.linalg.norm(p - a - t * d))


def check_collinearity(s: SampleSet, tol: float = GEOMETRY_TOL) -> MarkerCheck:
    """Images of marked collinear triples must be collinear."""
    violations = 0
    worst = 0.0
    for (i, j, k) in s.collinear:
        xi, xj, xk = s.x[i], s.x[j], s.x[k]
        if np.array_equal(xi, xj):
            raise ValueError(f"degenerate collinear marker ({i}, {j}, {k}): x_i = x_j")
        scale_x = max(1.0, *(float(np.linalg.norm(b - a)) for a, b in
                             ((xi, xj), (xi, xk), (xj, xk))))
        if _line_residual(xk, xi, xj) > tol * scale_x:
            raise ValueError(f"marked triple ({i}, {j}, {k}) is not collinear in the domain")
        yi, yj, yk = s.y[i], s.y[j], s.y[k]
        if np.array_equal(yi, yj):
            violations += 1  # collapsed image segment: no line to project onto
            worst = max(worst, float(np.linalg.norm(yk - yi)))
            continue
        scale_y = max(1.0, *(float(np.linalg.norm(b - a)) for a, b in
                             ((yi, yj), (yi, yk), (yj, yk))))
        resid = _line_residual(yk, yi, yj) / scale_y
        worst = max(worst, resid)
        if resid > tol:
            violations += 1
    return MarkerCheck(checked=len(s.collinear), violations=violations, worst_residual=worst)


def check_parallelism(s: SampleSet, tol: float = GEOMETRY_TOL) -> MarkerCheck:
    """Image directions of marked parallel segment pairs must stay parallel
    (sine of the angle within tol)."""
    violations = 0
    worst = 0.0
    for (i, j, k, l) in s.parallel:
        u = s.y[j] - s.y[i]
        w = s.y[l] - s.y[k]
        nu, nw = float(np.linalg.norm(u)), float(np.linalg.norm(w))
        if nu == 0.0 or nw == 0.0:
            raise ValueError(f"zero-length image direction in marker ({i}, {j}, {k}, {l})")
        u, w = u / nu, w / nw
        sin_angle = float(np.linalg.norm(u - float(np.dot(u, w)) * w))
        worst = max(worst, sin_angle)
        if sin_angle > tol:
            violations += 1
    return MarkerCheck(checked=len(s.parallel), violations=violations, worst_residual=worst)


def fit_affine(s: SampleSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares affine model y = M x + a via the normal equations on
    homogeneous coordinates, columns equilibrated for conditioning.

    Raises UnderdeterminedError when the samples do not affinely span R^n
    (rank decided against RANK_RTOL times the largest column norm).
    """
    n = s.metric.n
    if len(s) < n + 1:
        raise UnderdeterminedError(f"need at least {n + 1} samples, got {len(s)}")
    X = np.hstack([s.x, np.ones((len(s), 1))])
    col_norms = np.linalg.norm(X, axis=0)
    sv = np.linalg.svd(X, compute_uv=False)
    if int(np.sum(sv > RANK_RTOL * float(col_norms.max()))) < n + 1:
        raise UnderdeterminedError("samples do not affinely span R^n")
    d = np.where(col_norms > 0, col_norms, 1.0)
    Xs = X / d
    theta = np.linalg.solve(Xs.T @ Xs, Xs.T @ s.y) / d[:, None]
    M = theta[:n].T
    a = theta[n]
    max_residual = float(np.max(np.linalg.norm(s.x @ M.T + a - s.y, axis=1)))
    return M, a, max_residual


def induced_field_map_check(
    s: SampleSet, axis, grid, tol: float = GEOMETRY_TOL
) -> FieldMapCheck:
    """Extract the scalar map zeta from the images of grid * axis and test
    that it is the identity automorphism on the grid.

    zeta(g) solves image(g * axis) - image(0) = zeta(g) * (image(axis) -
    image(0)) in the least-squares sense along the image line.  Additivity
    and multiplicativity are checked on all grid pairs whose sum / product
    is again a grid value; the identity check is |zeta(g) - g| (valid
    because zeta(1) = 1 by construction).  If the image points are not
    collinear the errors are NaN and ``line_preserved`` is False.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (s.metric.n,) or not np.any(axis != 0):
        raise ValueError("axis must be a nonzero vector of the sample dimension")
    grid = [float(g) for g in grid]
    if 0.0 not in grid or 1.0 not in grid:
        raise ValueError("grid must contain 0 and 1")

    rows = {}
    for g in grid:
        target = g * axis
        scale = max(1.0, float(np.linalg.norm(target)))
        dist = np.linalg.norm(s.x - target, axis=1)
        i = int(np.argmin(dist))
        if dist[i] > 1e-9 * scale:
            raise ValueError(f"grid point {g} * axis is missing from the sample")
        rows[g] = i

    y0 = s.y[rows[0.0]]
    e = s.y[rows[1.0]] - y0
    ee = float(np.dot(e, e))
    if ee == 0.0:
        return FieldMapCheck(math.nan, math.nan, math.nan, False, False)

    zeta = {}
    line_preserved = True
    for g in grid:
        w = s.y[rows[g]] - y0
        z = float(np.dot(w, e)) / ee
        resid = float(np.linalg.norm(w - z * e))
        if resid > tol * max(1.0, float(np.linalg.norm(w)), math.sqrt(ee)):
            line_preserved = False
        zeta[g] = z
    if not line_preserved:
        return FieldMapCheck(math.nan, math.nan, math.nan, False, False)

    add_err = 0.0
    mul_err = 0.0
    for g in grid:
        for h in grid:
            if (g + h) in zeta:
                add_err = max(add_err, abs(zeta[g + h] - zeta[g] - zeta[h]))
            if (g * h) in zeta:
                mul_err = max(mul_err, abs(zeta[g * h] - zeta[g] * zeta[h]))
    ident_err = max(abs(zeta[g] - g) for g in grid)
    ordered = sorted(grid)
    monotone = all(zeta[a] < zeta[b] for a, b in zip(ordered, ordered[1:]))
    return FieldMapCheck(add_err, mul_err, ident_err, monotone, True)


def _single_cone_audit(s: SampleSet, cone: ConeCheck, tol: float) -> int:
    """Count pairs violating cone preservation while every pair against
    vertex 0 is clean: for a linear map, preserving the single cone at the
    vertex forces preservation of all of them, so any counterexample
    witnesses non-linearity.  The masks are symmetric with a false
    diagonal, so a clean vertex row puts every violation among the other
    pairs and only that row needs checking."""
    if cone.violations == 0:
        return 0
    sides = (s.x.T, s.y.T)
    *_, mismatch = _cone_masks([p[:, :1] for p in sides], sides, s.metric, tol)
    return 0 if np.any(mismatch) else cone.violations


def recover_lorentz(
    s: SampleSet,
    tol: float = FIT_TOL,
    geometry_tol: float = GEOMETRY_TOL,
) -> FitReport:
    """Run every hypothesis check, fit the affine model, and decompose it.

    The recovered map is reported iff all violation counts are zero, the
    fit residual is within ``tol`` times the sample diameter, and the
    fitted matrix splits into a positive scale and a metric isometry.
    """
    cone = check_cone_preservation(s, geometry_tol)
    coll = check_collinearity(s, geometry_tol)
    par = check_parallelism(s, geometry_tol)

    failure = None
    M = a = None
    max_residual = math.inf
    try:
        M, a, max_residual = fit_affine(s)
    except UnderdeterminedError as exc:
        failure = f"underdetermined: {exc}"

    alpha = L = None
    if M is not None:
        try:
            alpha, L = decompose_conformal(M, s.metric, geometry_tol)
        except NotConformalError as exc:
            failure = f"not-conformal: {exc}"

    diam = 0.0
    for pts in (s.x, s.y):
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        diam = max(diam, float(np.linalg.norm(hi - lo)))
    threshold = tol * diam if diam > 0 else tol

    counterexamples = _single_cone_audit(s, cone, geometry_tol)

    field_map = None
    if s.axis_grid is not None:
        field_map = induced_field_map_check(
            s, s.axis_grid.axis, s.axis_grid.values, geometry_tol
        )

    report = FitReport(
        cone=cone,
        collinearity=coll,
        parallelism=par,
        max_residual=max_residual,
        fit_threshold=threshold,
        recovered=None,
        failure=failure,
        single_cone_vertex=0,
        single_cone_counterexamples=counterexamples,
        field_map=field_map,
        num_samples=len(s),
    )
    if failure is None and report.total_violations == 0 and max_residual <= threshold:
        report.recovered = AffineLorentzMap(alpha, L, a)
    return report
