"""The one-pass kernels of ``cones`` against the compositions they replaced.

``_span`` walks the spatial coordinates of a span once and forms from four
sums what ``_sine(_frame(u), _frame(v))``, three ``_inner`` and three
``_abs_inner`` formed in ten walks; ``plane_through_lines`` and
``intersect_planes`` reuse its dots, frames and crosses.  Every sum keeps
its order, so each class, refusal and point is the old one bit for bit.  The
old compositions are kept here as the reference, evaluated at the inputs times
the kernels' powers of two: each kernel takes its vectors (and
``plane_through_lines`` and ``intersect_planes`` their two points) at the 2^k
of ``minkowski._at_pow2`` where a square or product leaves the normal float
range, and k = 0 everywhere else; ``intersect_planes`` also takes its offsets
h at a 2^kp where its point leaves that range.

The bits are compared where ``sum()`` adds floats left to right, as the one
pass does: CPython 3.12 made ``sum()`` compensated, and there the two agree
only to rounding.  Classes and refusals are compared everywhere.
"""

import math
import sys

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightcone.cones import (Line, Plane, _cross, _euclid_normal, _span, classify_span,
                             intersect_planes, line_through, plane_through_lines)
from lightcone.minkowski import (CausalClass, Metric, _abs_inner, _dot, _frame, _inner, _minus,
                                 _at_pow2, _pow2, _sine, _within, as_event)

SI = 2.99792458e8
SPEEDS = (0.1, 1.0, 343.0, SI)
_EPS = np.finfo(float).eps

#: whether ``sum()`` adds left to right, the order the one pass keeps
PLAIN_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def _old_span(u, v, c):
    sine = _sine(_frame(u, c), _frame(v, c))
    guu, gvv, guv = _inner(u, u, c), _inner(v, v, c), _inner(u, v, c)
    det = guu * gvv - guv * guv
    a = _abs_inner(u, v, c)  # squared as a product, as _span does: ** 2 raised OverflowError
    scale = _abs_inner(u, u, c) * _abs_inner(v, v, c) + a * a
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


def _times(d, k):
    return np.ldexp(d, k).tolist() if k else d


def _old_intersect_planes(p1, p2, m, tol=1e-9, normals=None, k1=0, k2=0):
    # of the given normals (those of the span vectors as they are by default) at 2^k1 and
    # 2^k2, of both points at their one 2^kq where an h leaves the normal range, and of
    # h1, h2 at a 2^kp where the balanced point leaves it
    n1, n2 = normals or (_euclid_normal(p1, m), _euclid_normal(p2, m))
    n1, n2 = _times(n1, k1), _times(n2, k2)
    a1, a2 = _frame(n1, 1 / m.c), _frame(n2, 1 / m.c)
    if _within(_sine(a1, a2), 1.0, tol):
        raise ValueError("planes are parallel or identical: no unique line")
    (q1, q2), kq = (p1.point, p2.point), 0
    h1, h2 = _dot(n1, q1.tolist()), _dot(n2, q2.tolist())
    if not sys.float_info.min <= abs(h1) + abs(h2) < math.inf and (h1 or h2):
        (q1, q2), kq = _at_pow2(np.array([q1, q2]), m.c)
        h1, h2 = _dot(n1, q1.tolist()), _dot(n2, q2.tolist())
    n = _cross(a1, a2)
    k = math.hypot(*n)
    point = _cross([h1 * b - h2 * a for a, b in zip(a1, a2)], [x / k for x in n])
    s = max(map(abs, point))
    if not 2.0 ** -900 <= s / k < math.inf and s:
        kp = _pow2(s, 0.0, m.c) - _pow2(k, 0.0, 1.0)
        h1, h2, kq = math.ldexp(h1, kp), math.ldexp(h2, kp), kq + kp
        point = _cross([h1 * b - h2 * a for a, b in zip(a1, a2)], [x / k for x in n])
    point = _frame([x / k for x in point], 1 / m.c)
    return line_through(np.ldexp(point, -kq) if kq else point, _cross(n1, n2), m, tol)


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
    *got, ku, kv = _span(u, v, c)
    u2, v2 = _times(u, ku), _times(v, kv)
    if PLAIN_SUM:
        assert _bits(*got[:3]) == _bits(*_old_span(u2, v2, c))
    got = _outcome(classify_span, u, v, Metric(len(u), c), tol)
    assert got == _outcome(_old_classify_span, u2, v2, c, tol)


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
    # the composition of d1 at 2^ku, d2 at 2^kv and, where ku is not 0, both points at their
    # one 2^kq: the kernel's powers
    ku, kv = _span(l1.direction.tolist(), l2.direction.tolist(), c)[-2:]
    kq = _at_pow2([l1.point.tolist(), l2.point.tolist()], c)[1] if ku else 0
    got = _outcome(plane_through_lines, l1, l2, m)
    if isinstance(got, Plane):
        got = Plane(np.ldexp(got.point, kq), (np.ldexp(got.span[0], ku), np.ldexp(got.span[1], kv)),
                    got.causal_class)
    l1, l2 = (Line(np.ldexp(l.point, kq), np.ldexp(l.direction, k), l.causal_class)
              for l, k in ((l1, ku), (l2, kv)))
    _same(got, _outcome(_old_plane_through_lines, l1, l2, m))


@given(c=st.sampled_from(SPEEDS), vs=st.lists(_vec3, min_size=6, max_size=6),
       parallel=st.booleans())
@settings(max_examples=500, deadline=None)
@example(c=SI, vs=[np.array([0.5, -0.25, 0.75]), np.array([0.0, 2.0, 1.0]),
                   np.array([-2.0, 0.0, 0.0]), np.array([0.5, -0.25, 0.75]),
                   np.array([0.0, -2.0, 1.0]), np.array([2.0, 0.0, 0.0])], parallel=False)
@example(c=1.0, vs=[np.array([1e-300, -2e-300, 3e-300]), np.array([0.0, 2.0, 1.0]),
                    np.array([-2.0, 0.0, 0.0]), np.array([2e-300, 1e-300, 0.0]),
                    np.array([0.0, -2.0, 1.0]), np.array([2.0, 0.0, 0.0])], parallel=False)
def test_one_pass_intersect_planes_is_the_composition(c, vs, parallel):
    p1, u1, v1, p2, u2, v2 = (_frame(x, 1 / c) for x in vs)
    if parallel:
        u2, v2 = u1, v1 + 1e-9 * v2
    P1 = Plane(p1, (u1, v1), CausalClass.LIGHTLIKE)
    P2 = Plane(p2, (u2, v2), CausalClass.LIGHTLIKE)
    m = Metric(3, c)
    # the kernel's powers of two: of each normal (_span), which it takes again of its span
    # vectors at theirs where a normal leaves the normal range
    normals = _euclid_normal(P1, m), _euclid_normal(P2, m)
    sine, *_, k1, k2 = _span(*normals, 1 / c)
    if k1 or k2 or not sine > 0:
        normals = [_cross(*(_at_pow2(w, c)[0] for w in map(list, P.span))) for P in (P1, P2)]
        k1, k2 = _span(*normals, 1 / c)[-2:]
    want = _outcome(_old_intersect_planes, P1, P2, m, 1e-9, normals, k1, k2)
    _same(_outcome(intersect_planes, P1, P2, m), want)
