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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .boost import AffineLorentzMap, NotConformalError, decompose_conformal
from .minkowski import (DEFAULT_TOL, Metric, _at_pow2, _frame, _ldexp, _line_distance, _minus,
                        _sine, _within)

#: Relative geometric tolerance shared by the pairwise and marker checks.
GEOMETRY_TOL = DEFAULT_TOL

#: Fit acceptance: max residual <= FIT_TOL * image diameter, both in the balanced frame.
FIT_TOL = 1e-6

#: Rank decisions count singular values of the equilibrated design above this times the largest.
RANK_RTOL = 1e-12

# Rows per block of the cone check.  Median seconds for 8/16/32/64/128 rows, 2 vCPUs:
# 0.015/0.011/0.009/0.010/0.021 at N = 2000, 0.25/0.27/0.29/0.40/0.39 at N = 10^4;
# the traced peak at N = 2000 is 1.3 MiB at 16 rows, 2.9 MiB at 64.
_CONE_BLOCK = 16


class UnderdeterminedError(ValueError):
    """The sample does not affinely span R^n; the fit has no unique solution."""


@dataclass(frozen=True)
class AxisGrid:
    """Row ``indices[k]`` holds ``values[k] * axis``, within GEOMETRY_TOL
    max(1, |values[k]|) |axis| in the balanced frame; ``axis`` is nonzero and
    finite, ``values`` holds 0 and 1, one index each (SampleSet checks)."""

    axis: np.ndarray
    values: tuple[float, ...]
    indices: tuple[int, ...]


@dataclass(frozen=True)
class SampleSet:
    """Sampled pairs y_i = f(x_i) of an unknown map, with optional markers: facts
    about the domain that the checks test on the image.  A frozen value holding read-only
    float copies of x, y and the grid's axis, and the markers as tuples.  Construction refuses
    (ValueError) a collinear triple (i, j, k) with x_i = x_j or x_k off their line,
    a parallel quadruple (i, j, k, l) whose segments x_i x_j, x_k x_l are zero or not
    parallel (each beyond GEOMETRY_TOL in the balanced frame), and a broken AxisGrid."""

    metric: Metric
    x: np.ndarray
    y: np.ndarray
    collinear: tuple[tuple[int, int, int], ...] = ()
    parallel: tuple[tuple[int, int, int, int], ...] = ()
    axis_grid: AxisGrid | None = None

    def __post_init__(self):
        x, y = (np.array(p, dtype=float) for p in (self.x, self.y))
        x.flags.writeable = y.flags.writeable = False
        vars(self).update(x=x, y=y, collinear=tuple(map(tuple, self.collinear)),
                          parallel=tuple(map(tuple, self.parallel)))
        n, c = self.metric.n, self.metric.c
        if self.x.ndim != 2 or self.x.shape[1] != n:
            raise ValueError(f"x has shape {self.x.shape}, expected (N, {n})")
        if self.y.shape != self.x.shape:
            raise ValueError(f"y has shape {self.y.shape}, expected {self.x.shape}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("samples contain non-finite values")
        grid = self.axis_grid
        for i in chain(*self.collinear, *self.parallel, grid.indices if grid else ()):
            if not 0 <= i < len(self.x):
                raise ValueError(f"marker index {i} out of range")
        for marker in (*self.collinear, *self.parallel):
            kind = "collinear" if len(marker) == 3 else "parallel"
            residual = _marker_residual(self.x, marker, c)
            if residual is None:
                raise ValueError(f"degenerate {kind} marker {marker}: a segment too short to measure")
            if residual > GEOMETRY_TOL:
                raise ValueError(f"{kind} marker {marker} is not {kind} in the domain")
        if grid is None:
            return
        # the grid's facts in the balanced frame, in Python floats, and a read-only axis
        values, axis = [float(g) for g in grid.values], np.array(grid.axis, dtype=float)
        axis.flags.writeable = False
        vars(self)["axis_grid"] = replace(grid, axis=axis)
        axis = _frame(axis.tolist(), c) if axis.shape == (n,) else [0.0]
        norm = math.hypot(*axis)
        if not 0 < norm < math.inf:
            raise ValueError("axis must be a nonzero vector of the sample dimension, of finite length")
        if 0.0 not in values or 1.0 not in values:
            raise ValueError("grid must contain 0 and 1")
        if len(values) != len(grid.indices):
            raise ValueError(f"axis grid has {len(values)} values but {len(grid.indices)} indices")
        for g, i in zip(values, grid.indices):  # both sides over w = max(1, |g|): neither overflows
            w = max(1.0, abs(g))
            row = [v / w for v in _frame(self.x[i].tolist(), c)]
            if not math.hypot(*_minus(row, axis, g / w)) <= GEOMETRY_TOL * norm:  # a NaN is refused
                raise ValueError(f"axis-grid row {i} does not hold the grid point {g} * axis")

    def __len__(self) -> int:
        return len(self.x)

    @cached_property
    def _units(self) -> tuple:  # ((x 2^kx, kx), (y 2^ky, ky)): the sides the checks and fit read
        return _at_pow2(self.x, self.metric.c), _at_pow2(self.y, self.metric.c)

    @cached_property
    def _fit(self) -> tuple:  # fit_affine's M, a and residual before they are scaled back
        (x, _), (y, _) = self._units
        n = self.metric.n
        if len(x) < n + 1:
            raise UnderdeterminedError(f"need at least {n + 1} samples, got {len(x)}")
        X = np.hstack([x, np.ones((len(x), 1))])
        col_norms = np.sqrt(np.einsum("ij,ij->j", X, X))
        d = np.where(col_norms > 0, col_norms, 1.0)
        theta, _, rank, _ = np.linalg.lstsq(X / d, y, rcond=RANK_RTOL)
        if rank < n + 1:
            raise UnderdeterminedError("samples do not affinely span R^n")
        theta /= d[:, None]
        M, a = theta[:n].T, theta[n]
        r = _frame(x @ M.T + a - y, self.metric.c)
        return M, a, math.sqrt(float(np.max(np.einsum("ij,ij->i", r, r))))


def _trusted_samples(metric: Metric, x: np.ndarray, y: np.ndarray, collinear: tuple,
                     parallel: tuple, axis_grid: AxisGrid | None) -> SampleSet:
    # a sample whose points are checked and whose markers hold by construction: checking
    # them would add about half to an N = 50 make_samples
    s = SampleSet(metric, x, y)
    if axis_grid is not None:
        axis_grid.axis.flags.writeable = False
    vars(s).update(collinear=collinear, parallel=parallel, axis_grid=axis_grid)
    return s


@dataclass(frozen=True)
class ConeCheck:
    """Pairwise zero-interval preservation over the pairs i < j:
    ``violations`` counts pairs null on exactly one side, pairs inside 10x
    the null band of ``lightcone.minkowski`` on either side are skipped as
    ``indeterminate``.  Exactly repeated rows count against bijectivity.
    A matmul screen keeps every pair that can count, in O(B * N) memory, and
    only those go through the per-pair definition, so the counts, the worst
    pair and the bits of ``worst_excess`` are those of a per-pair loop."""

    violations: int
    worst_pair: tuple[int, int] | None
    worst_excess: float
    indeterminate: int
    bijectivity_violations: int


@dataclass(frozen=True)
class MarkerCheck:
    checked: int
    violations: int
    worst_residual: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        return _total_violations(self.cone, self.collinearity, self.parallelism)


def _total_violations(cone: ConeCheck, coll: MarkerCheck, par: MarkerCheck) -> int:
    return cone.violations + cone.bijectivity_violations + coll.violations + par.violations


def _screens(s: SampleSet, tol: float) -> list:
    # per side, the (rows, cols) operands of the matmuls L and R of check_cone_preservation
    out = []
    for p, _ in s._units:
        q = _frame(p - p[:1], s.metric.c)  # about the first row, balanced: eta = diag(1, ..., 1, -1)
        S = np.einsum("ij,ij->i", q, q)
        Q = S - 2 * q[:, -1] ** 2
        t10 = 10 * tol
        slack = 8 * (p.shape[1] + 4) * (1 + t10)
        R = (t10 + slack * 2.0 ** -53) * S
        one = np.ones((len(q), 1))
        cols = [np.ascontiguousarray(np.hstack([q, one, v[:, None]]).T) for v in (Q, R)]
        rows = [np.hstack([-2 * q[:, :-1], 2 * q[:, -1:], Q[:, None], one]),
                np.hstack([-2 * t10 * q, (R + slack * 2.0 ** -1022)[:, None], one])]
        out.append(tuple(zip(rows, cols)))
    return out


def _pair_side(p: np.ndarray, i: np.ndarray, j: np.ndarray, c2: float, tol: float):
    # the definition (lightcone.minkowski) on the pairs (i[k], j[k]) of one side: the squares
    # d_0^2 + ... + d_{n-2}^2 in coordinate order, then c^2 d_t^2; |interval|, band, scale == 0
    d = p[i, 0] - p[j, 0]
    space = d * d
    for k in range(1, p.shape[1] - 1):
        d = p[i, k] - p[j, k]
        space += d * d
    d = p[i, -1] - p[j, -1]
    t2 = d * d * c2
    scale = space + t2
    return np.abs(space - t2), tol * scale, scale == 0.0


def _near(screens: list, i0: int, i1: int) -> np.ndarray:
    # the screen over rows i0:i1 and columns i0:, False only where |L| > R on
    # both sides (a NaN keeps its pair)
    far_x, far_y = (
        np.abs(a[i0:i1] @ b[:, i0:]) > ra[i0:i1] @ rb[:, i0:] for (a, b), (ra, rb) in screens
    )
    far_x &= far_y
    return ~far_x


def _pair_verdicts(s: SampleSet, i: np.ndarray, j: np.ndarray, tol: float):
    # the definition on the pairs (i[k], j[k]): the violating ones, their excess, two counts
    c2 = s.metric.c ** 2
    (ax, bx, cx), (ay, by, cy) = (_pair_side(p, i, j, c2, tol) for p, _ in s._units)
    null_x, null_y = ax <= bx, ay <= by
    indet = (~null_x & (ax <= 10 * bx)) | (~null_y & (ay <= 10 * by))
    viol = (null_x != null_y) & ~indet
    with np.errstate(divide="ignore"):  # inf where the band is 0: tol = 0, or it underflows
        excess = np.where(null_x, ay, ax)[viol] / np.where(null_x, by, bx)[viol]
    duplicates = np.count_nonzero(cx) + np.count_nonzero(cy)
    return i[viol], j[viol], excess, int(np.count_nonzero(indet)), int(duplicates)


def check_cone_preservation(s: SampleSet, tol: float = GEOMETRY_TOL) -> ConeCheck:
    """Test the biconditional "null before iff null after" on every pair.

    Only a pair with |interval| <= 10 bands on one side can count.  Blocks
    of ``_CONE_BLOCK`` rows against every later column screen for them in
    O(B * N) memory.  With q = (p - p_0) diag(1, ..., 1, c), S_i = |q_i|^2 and
    eta = diag(1, ..., 1, -1), two (B, n + 2) @ (n + 2, C) matmuls per side
    give L = q_i eta q_i + q_j eta q_j - 2 q_i eta q_j, the interval, and
    R = 10 tol |q_i - q_j|^2 + K (1 + 10 tol) (u (S_i + S_j) + tiny); a pair
    is dropped only where |L| > R on both sides.  Rounding, with u = 2^-53,
    in any summation order, with FMA or not: the definition's interval is
    within (n + 4) u of its scale and its band within (n + 6) u; centring
    and balancing move both by at most 8 u (S_i + S_j); L errs by at most
    (3n + 7) u (S_i + S_j), and R falls short by at most 10 tol (3n + 10)
    u (S_i + S_j).  So every pair the definition counts has |L| <= 10 tol
    |q_i - q_j|^2 + ((5n + 23) + 10 tol (5n + 30)) u (S_i + S_j), and
    K = 8 (n + 4) keeps it, tol = 0 included; K tiny (tiny = 2^-1022) covers
    underflow, gradual or flushed.  Each side is taken at its exact power of
    two (``minkowski._at_pow2``), where no sum can overflow; a NaN keeps its pair.  As
    |interval| <= its scale, rounded too, a band of tol >= 1 holds every pair: the check
    runs at min(tol, 1), where no product of tol overflows.  The kept pairs go through the
    definition itself (``_pair_side``) in row-major order, so the counts, the worst pair
    (the first maximum) and the bits of ``worst_excess`` do not depend on the BLAS.
    """
    n_pts = len(s)
    if n_pts < 2:
        raise ValueError("need at least two samples")
    _within(0.0, 0.0, tol)
    tol = min(tol, 1.0)
    screens = _screens(s, tol)
    violations = indeterminate = duplicates = 0
    worst_pair, worst_excess = None, 0.0
    for i0 in range(0, n_pts - 1, _CONE_BLOCK):  # the pairs i0 <= i < i1, i < j, the screen keeps
        i1 = min(i0 + _CONE_BLOCK, n_pts)
        near = _near(screens, i0, i1)
        near[:, : i1 - i0] &= np.arange(i0, i1) > np.arange(i0, i1)[:, None]  # j > i
        i, j = np.divmod(np.flatnonzero(near), near.shape[1])  # row-major
        if not len(i):  # most blocks: the definition's numpy calls cost ~50 us even when empty
            continue
        i, j, excess, indet, dup = _pair_verdicts(s, i + i0, j + i0, tol)
        violations += len(excess)
        indeterminate += indet
        duplicates += dup
        if len(excess):
            k = int(np.argmax(excess))
            if worst_pair is None or excess[k] > worst_excess:
                worst_pair, worst_excess = (int(i[k]), int(j[k])), float(excess[k])

    return ConeCheck(
        violations=violations,
        worst_pair=worst_pair,
        worst_excess=worst_excess,
        indeterminate=indeterminate,
        bijectivity_violations=duplicates,
    )


def _marker_residual(p: np.ndarray, marker: tuple, c: float) -> float | None:
    # a triple's line distance, or the sine of a quadruple's two segments, in the balanced
    # frame at the rows' own 2^k; None where a segment has zero squared length in floats
    q = _frame(_at_pow2(p[list(marker)], c)[0], c)
    u = q[1] - q[0]
    if len(marker) == 3:
        return _line_distance(q[2] - q[0], u) if u.dot(u) else None
    w = q[3] - q[2]
    return _sine(u, w) if u.dot(u) and w.dot(w) else None


def _image_check(s: SampleSet, markers: tuple, tol: float) -> MarkerCheck:
    # a collapsed image has no line or direction: the whole side is off it, residual 1
    _within(0.0, 0.0, tol)
    violations, worst = 0, 0.0
    for marker in markers:
        residual = _marker_residual(s.y, marker, s.metric.c)
        worst = max(worst, 1.0 if residual is None else residual)
        if residual is None or residual > tol:
            violations += 1
    return MarkerCheck(checked=len(markers), violations=violations, worst_residual=worst)


def check_collinearity(s: SampleSet, tol: float = GEOMETRY_TOL) -> MarkerCheck:
    """Images of marked collinear triples must be collinear: the third
    point's line distance from the first two, in the balanced frame.  The
    triples are collinear in the domain (SampleSet checks them)."""
    return _image_check(s, s.collinear, tol)


def check_parallelism(s: SampleSet, tol: float = GEOMETRY_TOL) -> MarkerCheck:
    """Image directions of marked parallel segment pairs must stay parallel
    (sine of the angle within tol, in the balanced frame).  The segments are
    parallel in the domain (SampleSet checks them)."""
    return _image_check(s, s.parallel, tol)


def fit_affine(s: SampleSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares affine model y = M x + a on homogeneous coordinates,
    columns equilibrated; the residual is the largest balanced |M x_i + a - y_i|.
    Fitted on each side at its 2^k and scaled back (inf past the float range).

    Raises UnderdeterminedError when the samples do not affinely span R^n
    (rank decided on the unit-free equilibrated columns, against RANK_RTOL).
    """
    (_, kx), (_, ky) = s._units
    M, a, max_residual = s._fit
    return _ldexp(M, kx - ky), _ldexp(a, -ky), float(_ldexp(max_residual, -ky))


def induced_field_map_check(s: SampleSet, tol: float = GEOMETRY_TOL) -> FieldMapCheck:
    """Extract the scalar map zeta from the images of the sample's axis grid
    and test that it is the identity automorphism on the grid.

    The grid is read, not searched: row ``indices[k]`` holds ``values[k] *
    axis`` (SampleSet checks it).  zeta(g) solves image(g * axis) -
    image(0) = zeta(g) * (image(axis) - image(0)) in the least-squares sense
    along the image line.  Additivity and multiplicativity are checked on all
    grid pairs whose sum / product is again a grid value; the identity check
    is |zeta(g) - g| (valid because zeta(1) = 1 by construction).  If the
    image points are not collinear the errors are NaN and ``line_preserved``
    is False.  ValueError if the sample has no grid.
    """
    _within(0.0, 0.0, tol)
    if s.axis_grid is None:
        raise ValueError("the sample has no axis grid")
    grid = [float(g) for g in s.axis_grid.values]
    y = dict(zip(grid, _frame(s._units[1][0][list(s.axis_grid.indices)], s.metric.c)))
    y0 = y[0.0]
    e = y[1.0] - y0
    ee = float(np.dot(e, e))
    if ee == 0.0:
        return FieldMapCheck(math.nan, math.nan, math.nan, False, False)

    zeta = {}
    line_preserved = True
    for g in grid:
        w = y[g] - y0
        if _line_distance(w, e) > tol:
            line_preserved = False
        zeta[g] = float(np.dot(w, e)) / ee
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
    witnesses non-linearity.  The definition is symmetric in (i, j), so a
    clean vertex row puts every violation among the other pairs, and only
    that row, the pairs (0, j), goes through the definition (unscreened: the
    screen keeps every violation, so the verdict is the cone check's)."""
    if cone.violations == 0:
        return 0
    j = np.arange(1, len(s))
    return 0 if len(_pair_verdicts(s, np.zeros_like(j), j, tol)[2]) else cone.violations


def recover_lorentz(
    s: SampleSet,
    tol: float = FIT_TOL,
    geometry_tol: float = GEOMETRY_TOL,
) -> FitReport:
    """Run every hypothesis check, fit the affine model, and decompose it.

    The recovered map is reported iff all violation counts are zero, the
    fit residual is within ``tol`` times the image diameter, and the
    fitted matrix splits into a positive scale and a metric isometry
    whose scale and translation are floats in the file's units.
    ValueError, before any check runs, if ``tol`` is not in [0, inf).
    """
    _within(0.0, 0.0, tol)
    cone = check_cone_preservation(s, geometry_tol)
    coll = check_collinearity(s, geometry_tol)
    par = check_parallelism(s, geometry_tol)

    failure, max_residual = None, math.inf
    (_, kx), (y, ky) = s._units
    try:  # M decomposed as fitted, at the checks' scale (s._fit), and alpha scaled back
        _, a, max_residual = fit_affine(s)
        alpha, L = decompose_conformal(s._fit[0], s.metric, geometry_tol)
        fitted = AffineLorentzMap(float(_ldexp(alpha, kx - ky)), L, a)
    except UnderdeterminedError as exc:
        failure = f"underdetermined: {exc}"
    except NotConformalError as exc:
        failure = f"not-conformal: {exc}"
    except ValueError as exc:  # alpha or a beyond the float range in the file's units
        failure = f"unrepresentable: {exc}"

    # the residual is in image units, so is its scale: the image diameter
    diam = float(_ldexp(np.linalg.norm(_frame(y.max(axis=0) - y.min(axis=0), s.metric.c)), -ky))
    threshold = tol * diam if diam > 0 else tol

    counterexamples = _single_cone_audit(s, cone, geometry_tol)

    field_map = None
    if s.axis_grid is not None:
        field_map = induced_field_map_check(s, geometry_tol)

    recovered = None
    if failure is None and _total_violations(cone, coll, par) == 0 and max_residual <= threshold:
        recovered = fitted
    return FitReport(
        cone=cone,
        collinearity=coll,
        parallelism=par,
        max_residual=max_residual,
        fit_threshold=threshold,
        recovered=recovered,
        failure=failure,
        single_cone_vertex=0,
        single_cone_counterexamples=counterexamples,
        field_map=field_map,
        num_samples=len(s),
    )
