"""Constructive null-cone geometry.

Every line and plane here is built from null cones alone: null lines as
intersections of tangent cones, null planes as the metric-orthogonal
complements of their null line, spacelike lines as intersections of null
planes, and timelike planes/lines from intersecting line pairs.  The
explicit plane constructions live in three dimensions (two space + time);
the classifiers work in any dimension >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from sys import float_info

import numpy as np

from .boost import apply
from .minkowski import (_LIGHTLIKE, _SPACELIKE, _TIMELIKE, _TINY, DEFAULT_TOL, CausalClass,
                        Metric, _abs_inner, _at_pow2, _classify, _dot, _event, _frame, _inner,
                        _ldexp, _line_distance, _minus, _pow2, _within, as_event)

_EPS = float_info.epsilon


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


def _cross(a, b) -> list:
    # np.cross's formula in Python floats: its IEEE operations without its ~20 us of dispatch
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _direction(d, m: Metric) -> tuple[np.ndarray, list]:
    # the event check, and a line needs a nonzero direction
    d, dl = _event(d, m)
    if not any(dl):
        raise ValueError("line direction must be nonzero")
    return d, dl


def line_through(point, direction, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    point, (d, dl) = _event(point, m)[0], _direction(direction, m)
    return Line(point, d, _classify(dl, m.c, tol))


def classify_span(u, v, m: Metric, tol: float = DEFAULT_TOL) -> CausalClass:
    """Causal class of the plane spanned by u and v via the sign of the
    Gram determinant: zero -> null, negative -> timelike, positive ->
    spacelike."""
    return _span_class(*_span(_event(u, m)[1], _event(v, m)[1], m.c)[:3], tol)


def _span(u, v, c: float) -> tuple:
    # one walk sums what _sine(_frame(u, c), _frame(v, c)) and _inner, _abs_inner of (u, u),
    # (v, v), (u, v) sum, in order, of u 2^ku, v 2^kv (k = 0 unless a square left the range).
    # Returns that sine, the Gram determinant, its scale, fu, fv, fv.fv, r = fu - fv's part, ku, kv
    us, ut, vs, vt = u[:-1], u[-1], v[:-1], v[-1]
    uu = vv = uv = auv = 0.0
    for a, b in zip(us, vs):
        ab = a * b
        uu += a * a
        vv += b * b
        uv += ab
        auv += abs(ab)
    tu, tv, c2 = ut * c, vt * c, c ** 2
    fuu, fvv = uu + tu * tu, vv + tv * tv
    fu, fv, r, sine = [*us, tu], [*vs, tv], None, 0.0
    if fuu and fvv:
        t = (uv + tu * tv) / fvv
        r = [a - t * b for a, b in zip(fu, fv)]  # _minus(fu, fv, t)
        sine = math.hypot(*r) / math.sqrt(fuu)
    guv = uv - c2 * (ut * vt)
    det = (uu - c2 * (ut * ut)) * (vv - c2 * (vt * vt)) - guv * guv
    auv += c2 * abs(ut * vt)  # _abs_inner(u, v), squared as a product: ** 2 can raise
    scale = (uu + c2 * (ut * ut)) * (vv + c2 * (vt * vt)) + auv * auv
    if not (fuu >= _TINY * (1.0 + c2) <= fvv and _TINY <= scale < math.inf):
        (u, ku), (v, kv) = _at_pow2(u, c), _at_pow2(v, c)
        if ku or kv:
            return (*_span(u, v, c)[:7], ku, kv)
    return sine, det, scale, fu, fv, fvv, r, 0, 0


def _span_class(sine: float, det: float, scale: float, tol: float) -> CausalClass:
    # independence is a Euclidean question, not a metric one: a null plane
    # has zero metric Gram determinant with a perfectly independent span
    if sine <= 1e-6:
        raise ValueError("span vectors are linearly dependent")
    if _within(det, scale, tol):
        return _LIGHTLIKE
    return _TIMELIKE if det < 0 else _SPACELIKE


def plane_through(point, u, v, m: Metric, tol: float = DEFAULT_TOL) -> Plane:
    point, (u, ul), (v, vl) = as_event(point, m), _event(u, m), _event(v, m)
    return Plane(point, (u, v), _span_class(*_span(ul, vl, m.c)[:3], tol))


def classify_plane(p: Plane, m: Metric, tol: float = DEFAULT_TOL) -> CausalClass:
    return classify_span(p.span[0], p.span[1], m, tol)


def _line_parts(l: Line) -> tuple[np.ndarray, np.ndarray]:
    # a line carries no metric: its point and direction must agree in shape, which
    # gives the dimension, then each gets the event check and the direction its refusal
    point, d = np.asarray(l.point, dtype=float), np.asarray(l.direction, dtype=float)
    if point.ndim != 1 or point.shape != d.shape:
        raise ValueError(f"line has point shape {point.shape} and direction shape {d.shape}, "
                         "expected one shape (n,)")
    m = Metric(point.size)  # only its n is read
    return as_event(point, m), _direction(d, m)[0]


def _on_line(p, point, d, tol: float) -> bool:
    return _within(_line_distance(p - point, d), 1.0, tol)


def point_on_line(p, l: Line, tol: float = DEFAULT_TOL) -> bool:
    """Euclidean distance from p to the line is within tol, relative to the
    largest side of the triangle (l.point, l.point + l.direction, p).  A line
    carries no metric, so the coordinates are taken as they are, and the probe
    gets the event check of the line's dimension."""
    point, d = _line_parts(l)
    return _on_line(as_event(p, Metric(point.size)), point, d, tol)


def same_line(l1: Line, l2: Line, tol: float = DEFAULT_TOL) -> bool:
    """Equality as point sets: probe each line at parameters {-1, 0, +1}
    of its unit direction and require the probes to lie on the other."""
    a, b = _line_parts(l1), _line_parts(l2)
    as_event(b[0], Metric(a[0].size))  # both lines in one dimension
    for (point, d), (on_point, on_d) in ((b, a), (a, b)):
        d = d / np.linalg.norm(d)
        for t in (-1.0, 0.0, 1.0):
            if not _on_line(point + t * d, on_point, on_d, tol):
                return False
    return True


def tangent_cone_intersection(a, b, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """The null line through two lightlike-separated events.

    The cones C(a) and C(b) are tangent exactly when interval(a, b) = 0,
    and then they intersect in the single line through a with direction
    b - a.
    """
    (a, al), bl = _event(a, m), _event(b, m)[1]
    if al == bl:
        raise ValueError("degenerate: the two vertices coincide")
    d = list(map(sub, bl, al))  # exactly -(a - b), so its class and interval are those of (a, b)
    if _classify(d, m.c, tol) is not _LIGHTLIKE:
        raise ValueError(
            f"cones are not tangent: interval(a, b) = {_inner(d, d, m.c):.6g} != 0"
        )
    return Line(a, np.array(d), _LIGHTLIKE)


def null_plane_through(l: Line, m: Metric) -> Plane:
    """The null plane tangent to every cone with vertex on the null line l:
    {p : inner(p - l.point, l.direction) = 0}.

    It contains l itself because the direction is null.  Three dimensions
    only; the second span vector is the spatial rotation (-d2, d1, 0) of
    the direction, which is automatically metric-orthogonal to it.
    """
    if m.n != 3:
        raise ValueError("null-plane construction is implemented for n = 3")
    point, (d, dl) = as_event(l.point, m), _direction(l.direction, m)
    if _classify(dl, m.c, DEFAULT_TOL) is not _LIGHTLIKE:  # the direction decides, not the label
        raise ValueError("line is not null")
    return Plane(point, (d.copy(), np.array([-dl[1], dl[0], 0.0])), _LIGHTLIKE)


def on_null_plane_algebraic(p, l: Line, m: Metric, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the null plane of l by the linear equation
    inner(p - l.point, l.direction) = 0."""
    p, point, d = _event(p, m)[1], _event(l.point, m)[1], _direction(l.direction, m)[1]
    if _classify(d, m.c, tol) is not _LIGHTLIKE:
        raise ValueError("line is not null")
    w = list(map(sub, p, point))
    return _within(_inner(w, d, m.c), _abs_inner(w, d, m.c), tol)


def on_null_plane_by_characterization(p, l: Line, m: Metric, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the null plane of l, decided by cones alone: p is on
    the plane iff it lies on l itself or on *no* null cone with vertex on
    l.

    With w = p - l.point, Q = inner(w, w) and B = inner(w, d), the interval
    from p to the point of l at parameter t is Q - 2 t B (the t^2 term
    vanishes because d is null).  A vertex through p therefore exists iff
    B != 0, at t = Q / (2 B).  If B = 0 = Q, w is null and orthogonal to d, so
    p is on l; if B = 0 != Q, no such cone reaches p.  So it is B = 0, the
    linear equation of ``on_null_plane_algebraic``.
    """
    return on_null_plane_algebraic(p, l, m, tol)


def _euclid_normal(p: Plane, m: Metric) -> list:
    if m.n != 3 or p.point.shape != (3,):
        raise ValueError("plane intersection is implemented for n = 3")
    return _cross(_event(p.span[0], m)[1], _event(p.span[1], m)[1])


def intersect_planes(p1: Plane, p2: Plane, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """Intersection line of two distinct, non-parallel planes in R^3.  The
    parallel test and the point are taken in the balanced frame, where the
    plane n . x = h has the normal a = n D^-1: the point is the least-squares
    one of minimum norm, ((h1 a2 - h2 a1) x (a1 x a2)) / |a1 x a2|^2."""
    n1, n2, ic = _euclid_normal(p1, m), _euclid_normal(p2, m), 1 / m.c
    sine, _, _, a1, a2, _, _, k1, k2 = _span(n1, n2, ic)  # a = n D^-1 is the frame of 1 / c
    if k1 or k2 or not sine > 0:  # a normal left the range: of its span vectors at their 2^k
        n1, n2 = (_cross(*(_at_pow2(_event(w, m)[1], m.c)[0] for w in p.span)) for p in (p1, p2))
        sine, _, _, a1, a2, _, _, k1, k2 = _span(n1, n2, ic)
        n1, n2 = _ldexp(n1, k1).tolist(), _ldexp(n2, k2).tolist()  # at the 2^k of a, as is h
    if _within(sine, 1.0, tol):
        raise ValueError("planes are parallel or identical: no unique line")
    q1, q2, kq = p1.point.tolist(), p2.point.tolist(), 0
    h1, h2 = _dot(n1, q1), _dot(n2, q2)
    if not float_info.min <= abs(h1) + abs(h2) < math.inf and (h1 or h2):  # points at one 2^kq
        (q1, q2), kq = _at_pow2([q1, q2], m.c)
        h1, h2 = _dot(n1, q1), _dot(n2, q2)
    x, y, z = _cross(a1, a2)  # n, by components
    k = math.hypot(x, y, z)  # |n|, divided by twice: |n|^2 underflows for spans below ~1e-37
    n = [x / k, y / k, z / k]
    x, y, z = _cross([h1 * b - h2 * a for a, b in zip(a1, a2)], n)
    s = abs(x) + abs(y) + abs(z)  # the balanced point is (x, y, z) / k
    if not _TINY <= s / k < math.inf and s:  # it left the range: h1, h2 at its 2^kp
        h1, h2 = _ldexp([h1, h2], kp := _pow2(s, 0.0, m.c) - _pow2(k, 0.0, 1.0)).tolist()
        x, y, z, kq = *_cross([h1 * b - h2 * a for a, b in zip(a1, a2)], n), kq + kp
    point = [x / k, y / k, z / k * ic]
    return line_through(_ldexp(point, -kq) if kq else point, _cross(n1, n2), m, tol)


def intersect_null_planes(p1: Plane, p2: Plane, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """Intersection of two null planes; for the two tangent planes touching
    opposite sheets of a cone this is a spacelike line."""
    if p1.causal_class is not _LIGHTLIKE:
        raise ValueError("first plane is not null")
    if p2.causal_class is not _LIGHTLIKE:
        raise ValueError("second plane is not null")
    return intersect_planes(p1, p2, m, tol)


def plane_through_lines(l1: Line, l2: Line, m: Metric, tol: float = DEFAULT_TOL) -> Plane:
    """The unique plane containing two lines that intersect in exactly one
    point.  Rebuilds timelike planes out of null / spacelike line pairs.
    The sine, the meeting point and its distance from l2 are taken in the
    balanced frame, the point by a two-column Gram-Schmidt: t is the
    coefficient of d1 once d2 is projected out of d1 and of the offset w.
    The distance is relative to |t d1| and |w|, so neither the length of
    either direction nor where the origin lies changes the outcome, beyond
    an absolute allowance of 4 eps of the larger point for the rounding the
    given points were built with."""
    (u, ul), (v, vl) = _event(l1.direction, m), _event(l2.direction, m)
    sine, det, scale, d1, d2, dd, r1, ku, _ = _span(ul, vl, m.c)
    if _within(sine, 1.0, tol):
        raise ValueError("lines are parallel or collinear: no unique plane")
    causal_class = _span_class(sine, det, scale, tol)  # sine > 1e-6 from here on
    (p1, q1), q2 = _event(l1.point, m), _event(l2.point, m)[1]
    (q1, q2), kq = _at_pow2([q1, q2], m.c) if ku else ((q1, q2), 0)  # t of d1 2^ku is t 2^(kq-ku)
    w = _frame(list(map(sub, q2, q1)), m.c)
    rw = _minus(w, d2, _dot(w, d2) / dd)  # r1 is d1 less its part along d2, from _span
    t = _dot(r1, rw) / _dot(r1, r1)
    # the miss t d1 - w off the line along d2 is t r1 - rw.  It carries the rounding of
    # t d1 and of w, whatever the length of d2, and that of the points as they were
    # built, which is absolute: a floor that tol does not multiply
    miss = math.hypot(*_minus(rw, r1, t))
    floor = 4 * _EPS * max(math.hypot(*_frame(q1, m.c)), math.hypot(*_frame(q2, m.c)))
    if not _within(max(miss - floor, 0.0), max(abs(t) * math.hypot(*d1), math.hypot(*w)), tol):
        raise ValueError("lines do not intersect (skew)")
    t = float(_ldexp(t, ku - kq)) if ku else t
    if abs(t) <= 1.0 or abs(t) * max(map(abs, ul)) < math.inf:  # else t u overflows, p1 + t u not
        return Plane(p1 + t * u, (u, v), causal_class)
    return Plane(2 * (p1 / 2 + t * (u / 2)), (u, v), causal_class)


def transform_line(mp, l: Line, m: Metric, tol: float = DEFAULT_TOL) -> Line:
    """Image of a line under an affine map: the checked point through ``apply``,
    the direction through the linear part, reclassified by ``line_through``."""
    point, d = _line_parts(l)
    point = apply(mp, point)
    with np.errstate(over="ignore", invalid="ignore"):  # line_through refuses a non-finite one
        direction = mp.alpha * mp.L.dot(d)
    return line_through(point, direction, m, tol)
