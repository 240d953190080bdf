"""The one-pass kernels of ``cones`` against the compositions they replaced.

``_span`` walks the spatial coordinates of a span once and forms from four
sums what ``_sine(_frame(u), _frame(v))``, three ``_inner`` and three
``_abs_inner`` formed in ten walks; ``plane_through_lines`` and
``intersect_planes`` reuse its dots, frames and crosses.  Every sum keeps
its order, so each class, refusal and point is the old one bit for bit.  The
old compositions are kept here as the reference.

The bits are compared where ``sum()`` adds floats left to right, as the one
pass does: CPython 3.12 made ``sum()`` compensated, and there the two agree
only to rounding.  Classes and refusals are compared everywhere.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightcone.cones import (Line, Plane, _cross, _euclid_normal, _span, classify_span,
                             intersect_planes, line_through, plane_through_lines)
from lightcone.minkowski import (CausalClass, Metric, _abs_inner, _dot, _frame, _inner, _minus,
                                 _sine, _within, as_event)

SI = 2.99792458e8
SPEEDS = (0.1, 1.0, 343.0, SI)
_EPS = np.finfo(float).eps

#: whether ``sum()`` adds left to right, the order the one pass keeps
PLAIN_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def _old_span(u, v, c):
    sine = _sine(_frame(u, c), _frame(v, c))
    guu, gvv, guv = _inner(u, u, c), _inner(v, v, c), _inner(u, v, c)
    det = guu * gvv - guv * guv
    scale = _abs_inner(u, u, c) * _abs_inner(v, v, c) + _abs_inner(u, v, c) ** 2
    return sine, det, scale


def _old_classify_span(u, v, c, tol):
    sine, det, scale = _old_span(u, v, c)
    if sine <= 1e-6:
        raise ValueError("span vectors are linearly dependent")
    if _within(det, scale, tol):
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if det < 0 else CausalClass.SPACELIKE


def _old_plane_through_lines(l1, l2, m, tol=1e-9):
    u, v = as_event(l1.direction, m), as_event(l2.direction, m)
    d1, d2 = _frame(u.tolist(), m.c), _frame(v.tolist(), m.c)
    if _within(_sine(d1, d2), 1.0, tol):
        raise ValueError("lines are parallel or collinear: no unique plane")
    causal_class = _old_classify_span(u.tolist(), v.tolist(), m.c, tol)
    p1, p2 = as_event(l1.point, m), as_event(l2.point, m)
    w = _frame((p2 - p1).tolist(), m.c)
    r1, rw = (_minus(x, d2, _dot(x, d2) / _dot(d2, d2)) for x in (d1, w))
    t = _dot(r1, rw) / _dot(r1, r1)
    miss = math.hypot(*_minus(rw, r1, t))
    floor = 4 * _EPS * max(math.hypot(*_frame(p.tolist(), m.c)) for p in (p1, p2))
    if not _within(max(miss - floor, 0.0), max(abs(t) * math.hypot(*d1), math.hypot(*w)), tol):
        raise ValueError("lines do not intersect (skew)")
    return Plane(p1 + t * u, (u, v), causal_class)


def _old_intersect_planes(p1, p2, m, tol=1e-9):
    n1, n2 = _euclid_normal(p1, m), _euclid_normal(p2, m)
    a1, a2 = _frame(n1, 1 / m.c), _frame(n2, 1 / m.c)
    if _within(_sine(a1, a2), 1.0, tol):
        raise ValueError("planes are parallel or identical: no unique line")
    h1, h2 = _dot(n1, p1.point.tolist()), _dot(n2, p2.point.tolist())
    n = _cross(a1, a2)
    k = math.hypot(*n)
    point = _cross([h1 * b - h2 * a for a, b in zip(a1, a2)], [x / k for x in n])
    return line_through(_frame([x / k for x in point], 1 / m.c), _cross(n1, n2), m, tol)


def _outcome(fn, *args):
    # the result, or the refusal's message
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _bits(*values):
    return [float(x).hex() for v in values for x in np.ravel(v)]


def _same(got, want):
    # classes and messages alike; lines and planes by class and the bits of every field
    assert type(got) is type(want)
    if isinstance(got, (Line, Plane)):
        assert got.causal_class is want.causal_class
        if PLAIN_SUM:
            fields = ("point", "direction") if isinstance(got, Line) else ("point", "span")
            for f in fields:
                assert _bits(getattr(got, f)) == _bits(getattr(want, f)), f
    else:
        assert got == want


_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _spans(draw):
    """(u, v, c) as float lists in raw coordinates, drawn in the balanced frame:
    any span, a null plane (a null u and a spatial v orthogonal to it) or a
    dependent one (v along u), each moved off by eps times another vector."""
    n = draw(st.integers(min_value=2, max_value=6))
    c = 10.0 ** draw(st.floats(min_value=-3.0, max_value=9.0))
    u, v, e = (np.array(draw(st.lists(_coord, min_size=n, max_size=n))) for _ in "uve")
    kind = draw(st.sampled_from(["any", "null", "dependent"]))
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5]))
    if kind == "null" and n >= 3:
        s = u[:-1]
        assume(s @ s > 0)
        u = np.append(s, draw(st.sampled_from([-1.0, 1.0])) * np.linalg.norm(s))
        v = np.append(v[:-1] - (v[:-1] @ s) / (s @ s) * s, 0.0) + eps * e
    elif kind == "dependent":
        v = draw(_coord) * u + eps * e
    return _frame(u, 1 / c).tolist(), _frame(v, 1 / c).tolist(), c


@given(span=_spans(), tol=st.sampled_from([0.0, 1e-9, 1e-6]))
@settings(max_examples=1000, deadline=None)
@example(span=([1.0, 0.0, 1 / SI], [0.0, 1.0, 0.0], SI), tol=1e-9)  # a null plane
@example(span=([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], SI), tol=1e-9)  # (UX, UT): timelike
@example(span=([1.0, 0.0, 1 / SI], [2.0, 1e-7, 2 / SI], SI), tol=1e-9)  # dependent
@example(span=([3.0, 4.0, 0.0, 5 / SI], [0.0, 0.0, 1.0, 0.0], SI), tol=1e-9)
def test_one_pass_span_is_the_composition(span, tol):
    u, v, c = span
    if PLAIN_SUM:
        assert _bits(*_span(u, v, c)[:3]) == _bits(*_old_span(u, v, c))
    got = _outcome(classify_span, u, v, Metric(len(u), c), tol)
    assert got == _outcome(_old_classify_span, u, v, c, tol)


_vec3 = st.tuples(_coord, _coord, _coord).map(np.array)


@given(c=st.sampled_from(SPEEDS), q=_vec3, d1=_vec3, d2=_vec3, t1=_coord, t2=_coord,
       skew=st.sampled_from([0.0, 1e-9, 0.01]), parallel=st.booleans())
@settings(max_examples=500, deadline=None)
def test_one_pass_plane_through_lines_is_the_composition(c, q, d1, d2, t1, t2, skew, parallel):
    # lines through q in the balanced frame, l2 moved off by skew along e1 and, if
    # parallel, along d1
    if parallel:
        d2 = t2 * d1 + 1e-9 * d2
    p1, p2 = q - t1 * d1, q - t2 * d2 + np.array([skew, 0.0, 0.0])
    l1, l2 = (Line(_frame(p, 1 / c), _frame(d, 1 / c), CausalClass.SPACELIKE)
              for p, d in ((p1, d1), (p2, d2)))
    m = Metric(3, c)
    _same(_outcome(plane_through_lines, l1, l2, m), _outcome(_old_plane_through_lines, l1, l2, m))


@given(c=st.sampled_from(SPEEDS), vs=st.lists(_vec3, min_size=6, max_size=6),
       parallel=st.booleans())
@settings(max_examples=500, deadline=None)
@example(c=SI, vs=[np.array([0.5, -0.25, 0.75]), np.array([0.0, 2.0, 1.0]),
                   np.array([-2.0, 0.0, 0.0]), np.array([0.5, -0.25, 0.75]),
                   np.array([0.0, -2.0, 1.0]), np.array([2.0, 0.0, 0.0])], parallel=False)
def test_one_pass_intersect_planes_is_the_composition(c, vs, parallel):
    p1, u1, v1, p2, u2, v2 = (_frame(x, 1 / c) for x in vs)
    if parallel:
        u2, v2 = u1, v1 + 1e-9 * v2
    P1 = Plane(p1, (u1, v1), CausalClass.LIGHTLIKE)
    P2 = Plane(p2, (u2, v2), CausalClass.LIGHTLIKE)
    m = Metric(3, c)
    _same(_outcome(intersect_planes, P1, P2, m), _outcome(_old_intersect_planes, P1, P2, m))
