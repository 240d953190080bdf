"""Constructive null-cone geometry.

Every line and plane here is built from null cones alone: null lines as
intersections of tangent cones, null planes as the metric-orthogonal
complements of their null line, spacelike lines as intersections of null
planes, and timelike planes/lines from intersecting line pairs.  The
explicit plane constructions live in three dimensions (two space + time);
the classifiers work in any dimension >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import (
    DEFAULT_TOL,
    CausalClass,
    Metric,
    abs_inner,
    as_event,
    classify,
    inner,
    interval,
)


@dataclass(frozen=True)
class Line:
    """Affine line point + t * direction with the causal class of its
    direction vector."""

    point: np.ndarray
    direction: np.ndarray
    causal_class: CausalClass

    def at(self, t: float) -> np.ndarray:
        return self.point + t * self.direction


@dataclass(frozen=True)
class Plane:
    """Affine plane point + s*u + t*v.  A LIGHTLIKE (null) plane is one on
    which the metric restricted to the span is degenerate."""

    point: np.ndarray
    span: tuple[np.ndarray, np.ndarray]
    causal_class: CausalClass


def line_through(point, direction, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    point = as_event(point, m)
    direction = as_event(direction, m)
    if not np.any(direction != 0):
        raise ValueError("line direction must be nonzero")
    cls = classify(direction, np.zeros(m.n), m, tol)
    return Line(point, direction, cls)


def classify_span(u, v, m: Metric, tol: float = DEFAULT_TOL) -> CausalClass:
    """Causal class of the plane spanned by u and v via the sign of the
    Gram determinant: zero -> null, negative -> timelike, positive ->
    spacelike."""
    u = as_event(u, m)
    v = as_event(v, m)
    # independence is a Euclidean question, not a metric one: a null plane
    # has zero metric Gram determinant with a perfectly independent span
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0 or abs(float(np.dot(u, v))) >= nu * nv * (1.0 - 1e-12):
        raise ValueError("span vectors are linearly dependent")
    guu, gvv, guv = inner(u, u, m), inner(v, v, m), inner(u, v, m)
    det = guu * gvv - guv * guv
    scale = abs_inner(u, u, m) * abs_inner(v, v, m) + abs_inner(u, v, m) ** 2
    if abs(det) <= tol * scale:
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if det < 0 else CausalClass.SPACELIKE


def plane_through(point, u, v, m: Metric, tol: float = DEFAULT_TOL) -> Plane:
    point = as_event(point, m)
    cls = classify_span(u, v, m, tol)
    return Plane(point, (as_event(u, m), as_event(v, m)), cls)


def classify_plane(p: Plane, m: Metric, tol: float = DEFAULT_TOL) -> CausalClass:
    return classify_span(p.span[0], p.span[1], m, tol)


def point_on_line(p, l: Line, tol: float = DEFAULT_TOL) -> bool:
    """Euclidean distance from p to the line is within tol, relative to
    the offset and direction magnitudes."""
    p = np.asarray(p, dtype=float)
    w = p - l.point
    d = l.direction
    t = float(np.dot(w, d) / np.dot(d, d))
    resid = float(np.linalg.norm(w - t * d))
    scale = max(1.0, float(np.linalg.norm(w)), float(np.linalg.norm(d)))
    return resid <= tol * scale


def same_line(l1: Line, l2: Line, tol: float = 1e-9) -> bool:
    """Equality as point sets: probe each line at parameters {-1, 0, +1}
    of its unit direction and require the probes to lie on the other."""
    for a, b in ((l1, l2), (l2, l1)):
        d = b.direction / np.linalg.norm(b.direction)
        for t in (-1.0, 0.0, 1.0):
            if not point_on_line(b.point + t * d, a, tol):
                return False
    return True


def tangent_cone_intersection(a, b, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """The null line through two lightlike-separated events.

    The cones C(a) and C(b) are tangent exactly when interval(a, b) = 0,
    and then they intersect in the single line through a with direction
    b - a.
    """
    a = as_event(a, m)
    b = as_event(b, m)
    if np.array_equal(a, b):
        raise ValueError("degenerate: the two vertices coincide")
    if classify(a, b, m, tol) is not CausalClass.LIGHTLIKE:
        raise ValueError(
            f"cones are not tangent: interval(a, b) = {interval(a, b, m):.6g} != 0"
        )
    return Line(a, b - a, CausalClass.LIGHTLIKE)


def null_plane_through(l: Line, m: Metric) -> Plane:
    """The null plane tangent to every cone with vertex on the null line l:
    {p : inner(p - l.point, l.direction) = 0}.

    It contains l itself because the direction is null.  Three dimensions
    only; the second span vector is the spatial rotation (-d2, d1, 0) of
    the direction, which is automatically metric-orthogonal to it.
    """
    if m.n != 3:
        raise ValueError("null-plane construction is implemented for n = 3")
    if l.causal_class is not CausalClass.LIGHTLIKE:
        raise ValueError("line is not null")
    d = l.direction
    u = np.array([-d[1], d[0], 0.0])
    return Plane(l.point, (d.copy(), u), CausalClass.LIGHTLIKE)


def on_null_plane_algebraic(p, l: Line, m: Metric, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the null plane of l by the linear equation
    inner(p - l.point, l.direction) = 0."""
    if l.causal_class is not CausalClass.LIGHTLIKE:
        raise ValueError("line is not null")
    w = as_event(p, m) - l.point
    b = inner(w, l.direction, m)
    return abs(b) <= tol * abs_inner(w, l.direction, m)


def on_null_plane_by_characterization(
    p, l: Line, m: Metric, tol: float = DEFAULT_TOL
) -> bool:
    """Membership in the null plane of l, decided by cones alone: p is on
    the plane iff it lies on l itself or on *no* null cone with vertex on
    l.

    With w = p - l.point, Q = inner(w, w) and B = inner(w, d), the interval
    from p to the point of l at parameter t is Q - 2 t B (the t^2 term
    vanishes because d is null).  A vertex through p therefore exists iff
    B != 0, at t = Q / (2 B).
    """
    if l.causal_class is not CausalClass.LIGHTLIKE:
        raise ValueError("line is not null")
    w = as_event(p, m) - l.point
    d = l.direction
    q = inner(w, w, m)
    b = inner(w, d, m)
    if abs(b) > tol * abs_inner(w, d, m):
        # some cone with vertex l.at(q / (2 b)) passes through p
        return False
    if abs(q) <= tol * abs_inner(w, w, m):
        # w is null and orthogonal to the null direction, hence parallel
        # to it: p lies on l
        return True
    # Q - 2 t B = Q != 0 for every t: no cone with vertex on l reaches p
    return True


def _euclid_normal(p: Plane) -> np.ndarray:
    if p.point.shape != (3,):
        raise ValueError("plane intersection is implemented for n = 3")
    nvec = np.cross(p.span[0], p.span[1])
    return nvec


def intersect_planes(p1: Plane, p2: Plane, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """Intersection line of two distinct, non-parallel planes in R^3."""
    n1 = _euclid_normal(p1)
    n2 = _euclid_normal(p2)
    d = np.cross(n1, n2)
    scale = float(np.linalg.norm(n1) * np.linalg.norm(n2))
    if np.linalg.norm(d) <= tol * max(1.0, scale):
        raise ValueError("planes are parallel or identical: no unique line")
    A = np.vstack([n1, n2])
    rhs = np.array([float(np.dot(n1, p1.point)), float(np.dot(n2, p2.point))])
    point = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return line_through(point, d, m, tol)


def intersect_null_planes(
    p1: Plane, p2: Plane, m: Metric, tol: float = DEFAULT_TOL
) -> Line:
    """Intersection of two null planes; for the two tangent planes touching
    opposite sheets of a cone this is a spacelike line."""
    if p1.causal_class is not CausalClass.LIGHTLIKE:
        raise ValueError("first plane is not null")
    if p2.causal_class is not CausalClass.LIGHTLIKE:
        raise ValueError("second plane is not null")
    return intersect_planes(p1, p2, m, tol)


def plane_through_lines(l1: Line, l2: Line, m: Metric, tol: float = DEFAULT_TOL) -> Plane:
    """The unique plane containing two lines that intersect in exactly one
    point.  Rebuilds timelike planes out of null / spacelike line pairs."""
    d1, d2 = l1.direction, l2.direction
    n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
    u1, u2 = d1 / n1, d2 / n2
    sin_angle = float(np.linalg.norm(u1 - float(np.dot(u1, u2)) * u2))
    if sin_angle <= tol:
        raise ValueError("lines are parallel or collinear: no unique plane")
    A = np.stack([d1, -d2], axis=1)
    rhs = l2.point - l1.point
    ts, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    meet = l1.at(float(ts[0]))
    resid = float(np.linalg.norm(A @ ts - rhs))
    if resid > tol * max(1.0, float(np.linalg.norm(rhs)), n1, n2):
        raise ValueError("lines do not intersect (skew)")
    return plane_through(meet, d1, d2, m, tol)


def transform_line(mp, l: Line, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """Image of a line under an affine map: transform the point, push the
    direction through the linear part, reclassify."""
    point = mp.alpha * (mp.L @ l.point) + mp.a
    direction = mp.alpha * (mp.L @ l.direction)
    return line_through(point, direction, m, tol)
