import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightcone import (
    BoostParams,
    CausalClass,
    Metric,
    boost_x,
    classify_plane,
    classify_span,
    compose,
    intersect_null_planes,
    intersect_planes,
    line_through,
    null_plane_through,
    on_null_cone,
    on_null_plane_algebraic,
    on_null_plane_by_characterization,
    plane_through,
    plane_through_lines,
    point_on_line,
    same_line,
    tangent_cone_intersection,
    transform_line,
)
from lightcone import inner, interval
from lightcone.boost import AffineLorentzMap
from lightcone.cones import Line, Plane
from lightcone.minkowski import _frame, _sine

M3 = Metric(3, 1.0)
M4 = Metric(4, 1.0)
ZERO3 = np.zeros(3)
SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)


def null_line(direction, point=ZERO3, m=M3):
    return line_through(point, direction, m)


# ------------------------------------------------------- step (i)


def test_tangent_cone_intersection_basic():
    l = tangent_cone_intersection([0, 0, 0], [1, 0, 1], M3)
    assert l.causal_class is CausalClass.LIGHTLIKE
    np.testing.assert_array_equal(l.point, ZERO3)
    np.testing.assert_array_equal(l.direction, [1, 0, 1])


def test_tangent_cone_line_points_on_both_cones():
    a, b = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 1.0])
    l = tangent_cone_intersection(a, b, M3)
    assert point_on_line([2, 0, 2], l)
    for t in (-3.0, -1.0, 0.5, 2.0):
        p = l.at(t)
        assert on_null_cone(p, a, M3)
        assert on_null_cone(p, b, M3)


def test_tangent_cone_rejects_nonnull_pair():
    with pytest.raises(ValueError, match="not tangent"):
        tangent_cone_intersection([0, 0, 0], [1, 0, 0], M3)
    with pytest.raises(ValueError, match="degenerate"):
        tangent_cone_intersection([1, 0, 1], [1, 0, 1], M3)


# ------------------------------------------------------- step (ii)


def test_line_through_a_direction_whose_square_overflows():
    assert line_through(ZERO3, [1e200, 0, 0], M3).causal_class is CausalClass.SPACELIKE


def test_null_plane_is_p1_equals_p3():
    # inner((p1,p2,p3), (1,0,1)) = p1 - p3, so the plane is {p1 = p3}
    pl = null_plane_through(null_line([1, 0, 1]), M3)
    assert pl.causal_class is CausalClass.LIGHTLIKE
    normal = np.cross(pl.span[0], pl.span[1])
    normal = normal / np.linalg.norm(normal)
    expected = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(normal, expected) or np.allclose(normal, -expected)


def test_null_plane_contains_its_line():
    l = null_line([1, 0, 1], point=np.array([2.0, -1.0, 2.0]))
    pl = null_plane_through(l, M3)
    np.testing.assert_array_equal(pl.point, l.point)
    for t in (-1.0, 0.0, 1.0, 2.5):
        assert on_null_plane_algebraic(l.at(t), l, M3)


def test_null_plane_membership_examples():
    l = null_line([1, 0, 1])
    assert on_null_plane_algebraic([0, 5, 0], l, M3)
    assert not on_null_plane_algebraic([0, 0, 1], l, M3)


def test_null_plane_rejects_nonnull_line():
    spacelike = line_through(ZERO3, [1, 0, 0], M3)
    with pytest.raises(ValueError, match="not null"):
        null_plane_through(spacelike, M3)


@pytest.mark.parametrize("c", SPEEDS)
@pytest.mark.parametrize("label", [CausalClass.SPACELIKE, CausalClass.TIMELIKE])
def test_a_null_line_is_null_whatever_its_label(c, label):
    # the direction decides, not the label: a null line labelled otherwise gives the null
    # line's plane and the null line's answers
    m = Metric(3, c)
    null = line_through([0.5, -0.25, 0.75 / c], [3 * c, 4 * c, 5.0], m)
    assert null.causal_class is CausalClass.LIGHTLIKE
    mislabelled = dataclasses.replace(null, causal_class=label)
    want, got = null_plane_through(null, m), null_plane_through(mislabelled, m)
    assert got.causal_class is want.causal_class is CausalClass.LIGHTLIKE
    assert [v.tobytes() for v in (got.point, *got.span)] == [
        v.tobytes() for v in (want.point, *want.span)]
    on, off = null.point + 2 * want.span[1], null.point + [0.0, 0.0, 1.0]
    for test in (on_null_plane_algebraic, on_null_plane_by_characterization):
        assert test(on, mislabelled, m) is test(on, null, m) is True
        assert test(off, mislabelled, m) is test(off, null, m) is False


def test_characterization_point_on_line():
    l = null_line([1, 0, 1])
    assert on_null_plane_by_characterization(l.at(2.0), l, M3)


def test_characterization_no_vertex_case():
    # w = (0,5,0): Q = 25, B = 0 -> no cone with vertex on l reaches p
    l = null_line([1, 0, 1])
    assert on_null_plane_by_characterization([0, 5, 0], l, M3)


def test_characterization_vertex_exists_case():
    # w = (0,0,1): B = -1 != 0, the vertex at t = Q/(2B) works
    l = null_line([1, 0, 1])
    p = np.array([0.0, 0.0, 1.0])
    assert not on_null_plane_by_characterization(p, l, M3)
    # the solved vertex really does put p on a cone centered on the line
    q = interval(p, l.point, M3)
    b = inner(p - l.point, l.direction, M3)
    vertex = l.at(q / (2 * b))
    assert on_null_cone(p, vertex, M3)


# ------------------------------------------------------- step (iii)


def test_intersect_null_planes_spacelike():
    p1 = null_plane_through(null_line([1, 0, 1]), M3)   # {p1 = p3}
    p2 = null_plane_through(null_line([-1, 0, 1]), M3)  # {p1 = -p3}
    l = intersect_null_planes(p1, p2, M3)
    assert l.causal_class is CausalClass.SPACELIKE
    assert same_line(l, line_through(ZERO3, [0, 1, 0], M3))


def test_intersect_null_planes_identical_rejected():
    p1 = null_plane_through(null_line([1, 0, 1]), M3)
    with pytest.raises(ValueError, match="parallel or identical"):
        intersect_null_planes(p1, p1, M3)


def test_intersect_null_planes_oblique():
    # planes {p1 = p3} and {p2 = p3} meet along direction (1, 1, 1),
    # interval 1 + 1 - 1 = 1 > 0
    p1 = null_plane_through(null_line([1, 0, 1]), M3)
    p2 = null_plane_through(null_line([0, 1, 1]), M3)
    l = intersect_null_planes(p1, p2, M3)
    assert l.causal_class is CausalClass.SPACELIKE
    assert same_line(l, line_through(ZERO3, [1, 1, 1], M3))


def test_intersect_null_planes_requires_null():
    spacelike_plane = plane_through(ZERO3, [1, 0, 0], [0, 1, 0], M3)
    null_plane = null_plane_through(null_line([1, 0, 1]), M3)
    with pytest.raises(ValueError, match="not null"):
        intersect_null_planes(spacelike_plane, null_plane, M3)


# ------------------------------------------------------- steps (iv), (v)


def test_plane_through_coordinate_axes_timelike():
    x_axis = line_through(ZERO3, [1, 0, 0], M3)
    t_axis = line_through(ZERO3, [0, 0, 1], M3)
    pl = plane_through_lines(x_axis, t_axis, M3)
    assert pl.causal_class is CausalClass.TIMELIKE


def test_plane_through_collinear_lines_rejected():
    l1 = line_through(ZERO3, [1, 0, 0], M3)
    l2 = line_through(np.array([2.0, 0.0, 0.0]), [2, 0, 0], M3)
    with pytest.raises(ValueError, match="parallel or collinear"):
        plane_through_lines(l1, l2, M3)


def test_plane_through_two_null_lines():
    # span (1,0,1), (1,0,-1): Gram det = 0*0 - 2^2 < 0, timelike
    l1 = null_line([1, 0, 1])
    l2 = null_line([1, 0, -1])
    pl = plane_through_lines(l1, l2, M3)
    assert pl.causal_class is CausalClass.TIMELIKE


def test_plane_through_skew_lines_rejected():
    l1 = line_through(ZERO3, [1, 0, 0], M3)
    l2 = line_through(np.array([0.0, 1.0, 5.0]), [0, 1, 0], M3)
    with pytest.raises(ValueError, match="skew"):
        plane_through_lines(l1, l2, M3)


def test_intersect_planes_coordinate():
    xt = plane_through(ZERO3, [1, 0, 0], [0, 0, 1], M3)
    yt = plane_through(ZERO3, [0, 1, 0], [0, 0, 1], M3)
    l = intersect_planes(xt, yt, M3)
    assert l.causal_class is CausalClass.TIMELIKE
    assert same_line(l, line_through(ZERO3, [0, 0, 1], M3))


def test_intersect_planes_parallel_rejected():
    p1 = plane_through(ZERO3, [1, 0, 0], [0, 1, 0], M3)
    p2 = plane_through(np.array([0.0, 0.0, 1.0]), [1, 0, 0], [0, 1, 0], M3)
    with pytest.raises(ValueError, match="parallel"):
        intersect_planes(p1, p2, M3)


def test_intersect_null_with_timelike_plane():
    null = null_plane_through(null_line([1, 0, 1]), M3)  # {p1 = p3}
    xt = plane_through(ZERO3, [1, 0, 0], [0, 0, 1], M3)  # {p2 = 0}
    l = intersect_planes(null, xt, M3)
    assert l.causal_class is CausalClass.LIGHTLIKE
    assert same_line(l, null_line([1, 0, 1]))


# ------------------------------------------------------- classification


def test_classify_plane_examples():
    xy = plane_through(ZERO3, [1, 0, 0], [0, 1, 0], M3)
    assert xy.causal_class is CausalClass.SPACELIKE
    xt = plane_through(ZERO3, [1, 0, 0], [0, 0, 1], M3)
    assert xt.causal_class is CausalClass.TIMELIKE
    assert classify_span([1, 0, 1], [0, 1, 0], M3) is CausalClass.LIGHTLIKE
    assert classify_plane(xy, M3) is CausalClass.SPACELIKE


def test_classify_span_rejects_dependent():
    with pytest.raises(ValueError, match="dependent"):
        classify_span([1, 0, 0], [2, 0, 0], M3)
    with pytest.raises(ValueError, match="dependent"):
        classify_span([1, 1, 0], [0, 0, 0], M3)


# ------------------------------------------------------- properties


def test_round_trip_line_plane():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        dt = rng.uniform(0.2, 2.0)
        a = rng.uniform(-3, 3, 3)
        b = a + np.concatenate([dt * u, [dt]])
        l = tangent_cone_intersection(a, b, M3)
        # a second point of l recreates the same line
        l2 = tangent_cone_intersection(l.at(1.7), l.at(-0.4), M3)
        assert same_line(l, l2)
        # and the null plane through l contains l
        pl = null_plane_through(l, M3)
        for t in (-1.0, 0.5, 2.0):
            assert on_null_plane_algebraic(l.at(t), l, M3)
        assert pl.causal_class is CausalClass.LIGHTLIKE


def _random_boost_map(rng, c):
    v1, v2 = rng.uniform(-0.9, 0.9, 2) * c
    composed = compose(boost_x(BoostParams(v1, c)), boost_x(BoostParams(v2, c)))
    return AffineLorentzMap(
        rng.uniform(0.5, 2.0), composed.L, rng.uniform(-1, 1, 4) * np.array([1, 1, 1, 1 / c])
    )


def _random_line_of_class(rng, cls, m):
    c = m.c
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    dt = rng.uniform(0.2, 1.0)
    k = {"light": 1.0, "space": rng.uniform(1.5, 4.0), "time": rng.uniform(0.1, 0.7)}[cls]
    direction = np.concatenate([k * c * dt * u, [dt]])
    point = rng.uniform(-1, 1, 4) * np.array([1, 1, 1, 1 / c])
    return line_through(point, direction, m)


def test_line_class_preserved_under_boosts():
    rng = np.random.default_rng(13)
    expected = {
        "light": CausalClass.LIGHTLIKE,
        "space": CausalClass.SPACELIKE,
        "time": CausalClass.TIMELIKE,
    }
    for c in (0.1, 1.0, 343.0):
        m = Metric(4, c)
        for cls in ("light", "space", "time"):
            for _ in range(60):
                l = _random_line_of_class(rng, cls, m)
                assert l.causal_class is expected[cls]
                img = transform_line(_random_boost_map(rng, c), l, m)
                assert img.causal_class is expected[cls]


def test_plane_class_invariant_under_boosts():
    # the span Gram determinant scales by a positive factor, so the sign
    # and with it the class survives any conformal isometry
    rng = np.random.default_rng(14)
    m = Metric(4, 1.0)
    for _ in range(100):
        u, w = rng.uniform(-2, 2, (2, 4))
        try:
            before = classify_span(u, w, m)
        except ValueError:
            continue
        mp = _random_boost_map(rng, 1.0)
        after = classify_span(mp.alpha * (mp.L @ u), mp.alpha * (mp.L @ w), m)
        assert after is before


_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False)
_vec3 = st.tuples(_coord, _coord, _coord).map(np.array)


def _close_to_lstsq(got, want, sine, *scale):
    # relative to the largest vector of the problem, all in the balanced frame
    size = max(float(np.linalg.norm(x)) for x in (want, *scale))
    assert np.linalg.norm(got - want) <= 1e-12 / sine * size


@given(c=st.sampled_from(SPEEDS), p1=_vec3, u1=_vec3, v1=_vec3, p2=_vec3, u2=_vec3, v2=_vec3)
@settings(max_examples=300, deadline=None)
def test_intersect_planes_point_matches_lstsq(c, p1, u1, v1, p2, u2, v2):
    # the closed-form point is numpy's least-squares point of minimum norm in the
    # balanced frame; the vectors are drawn there and taken back to raw coordinates.
    # Each row of the reference is scaled to unit norm, which leaves its solution
    # as it is and spares it an error ~eps |a1| / |a2| the cross products do not make
    m = Metric(3, c)
    raw = [_frame(x, 1 / c) for x in (p1, u1, v1, p2, u2, v2)]
    P1, P2 = Plane(raw[0], (raw[1], raw[2]), CausalClass.SPACELIKE), Plane(
        raw[3], (raw[4], raw[5]), CausalClass.SPACELIKE)
    n1, n2 = np.cross(raw[1], raw[2]), np.cross(raw[4], raw[5])
    A = _frame(np.vstack([n1, n2]), 1 / c)
    sine = _sine(A[0], A[1])
    assume(np.linalg.norm(A[0]) > 1e-6 and np.linalg.norm(A[1]) > 1e-6 and sine > 1e-6)
    norms = np.linalg.norm(A, axis=1)
    want = np.linalg.lstsq(A / norms[:, None], [n1 @ raw[0], n2 @ raw[3]] / norms, rcond=None)[0]
    got = _frame(intersect_planes(P1, P2, m).point, c)
    _close_to_lstsq(got, want, sine, p1, p2)


@given(c=st.sampled_from(SPEEDS), q=_vec3, d1=_vec3, d2=_vec3, t1=_coord, t2=_coord)
@settings(max_examples=300, deadline=None)
# a short d2: the miss t d1 - w is rounding of the size of w, and was once measured
# against |d2|, so these intersecting lines were refused as skew
@example(c=0.1, q=np.zeros(3), d1=np.array([0.0, 0.0, 1.7583998467465296]),
         d2=np.array([1e-6, 9.473442411961124e-07, 0.0]), t1=9.0, t2=0.0)
def test_plane_through_lines_meeting_point_matches_lstsq(c, q, d1, d2, t1, t2):
    # two lines through q, drawn in the balanced frame: the Gram-Schmidt meeting
    # point against numpy's least-squares solve of [d1, -d2] (t, s) = w there
    m = Metric(3, c)
    sine = _sine(d1, d2)
    assume(np.linalg.norm(d1) > 1e-6 and np.linalg.norm(d2) > 1e-6 and sine > 1e-6)
    l1 = Line(_frame(q - t1 * d1, 1 / c), _frame(d1, 1 / c), CausalClass.SPACELIKE)
    l2 = Line(_frame(q - t2 * d2, 1 / c), _frame(d2, 1 / c), CausalClass.SPACELIKE)
    w = _frame(l2.point - l1.point, c)
    ts = np.linalg.lstsq(np.stack([d1, -d2], axis=1), w, rcond=None)[0]
    want = _frame(l1.at(float(ts[0])), c)
    got = _frame(plane_through_lines(l1, l2, m).point, c)
    _close_to_lstsq(got, want, sine, _frame(l1.point, c), _frame(l2.point, c))


def _through_lines(l1, l2, m):
    # the class of the plane, or the refusal's message
    try:
        return plane_through_lines(l1, l2, m).causal_class
    except ValueError as exc:
        return str(exc)


def _line_pair(c, q, d1, d2, t1, t2, skew, shift=np.zeros(3)):
    # two lines through q, or l2 moved off l1 along their common normal by `skew`
    # times the size of the problem, both moved by `shift`; drawn in the balanced
    # frame and taken back to raw coordinates.  Returns the lines and the size
    normal = np.cross(d1, d2) / np.linalg.norm(np.cross(d1, d2))
    size = max(1.0, np.linalg.norm(t1 * d1), np.linalg.norm(t2 * d2))
    p1, p2 = q - t1 * d1, q - t2 * d2 + skew * size * normal
    lines = [Line(_frame(p + shift, 1 / c), _frame(d, 1 / c), CausalClass.SPACELIKE)
             for p, d in ((p1, d1), (p2, d2))]
    return lines, size


_pair = dict(c=st.sampled_from(SPEEDS), q=_vec3, d1=_vec3, d2=_vec3, t1=_coord, t2=_coord,
             skew=st.sampled_from([0.0, 0.01, 1.0]))


@given(**_pair, which=st.sampled_from([0, 1]), k=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=300, deadline=None)
@example(c=0.1, q=np.zeros(3), d1=np.array([0.0, 0.0, 1.7583998467465296]),
         d2=np.array([1.0, 0.9473442411961124, 0.0]), t1=9.0, t2=0.0, skew=0.0, which=1, k=1e-6)
def test_plane_through_lines_ignores_direction_lengths(c, q, d1, d2, t1, t2, skew, which, k):
    # rescaling either direction by k keeps the class, the refusal and the meeting point
    m = Metric(3, c)
    assume(np.linalg.norm(d1) > 1e-6 and np.linalg.norm(d2) > 1e-6 and _sine(d1, d2) > 1e-5)
    lines, size = _line_pair(c, q, d1, d2, t1, t2, skew)
    scaled = list(lines)
    scaled[which] = Line(lines[which].point, k * lines[which].direction, CausalClass.SPACELIKE)
    want = _through_lines(*lines, m)
    assert _through_lines(*scaled, m) == want
    assert (want == "lines do not intersect (skew)") == (skew > 0)
    if skew == 0:
        got = _frame(plane_through_lines(*scaled, m).point, c)
        np.testing.assert_allclose(got, q, rtol=0, atol=1e-12 / _sine(d1, d2) * 4 * size)


_far = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)


@given(**_pair, shift=st.tuples(_far, _far, _far).map(np.array))
@settings(max_examples=300, deadline=None)
def test_plane_through_lines_ignores_the_origin(c, q, d1, d2, t1, t2, skew, shift):
    # moving both lines by up to 1e6 in the balanced frame keeps the class, the
    # refusal and the meeting point: the skew test is not relative to the points' size
    m = Metric(3, c)
    assume(np.linalg.norm(d1) > 1e-6 and np.linalg.norm(d2) > 1e-6 and _sine(d1, d2) > 1e-5)
    want = _through_lines(*_line_pair(c, q, d1, d2, t1, t2, skew)[0], m)
    lines, size = _line_pair(c, q, d1, d2, t1, t2, skew, shift)
    assert _through_lines(*lines, m) == want
    assert (want == "lines do not intersect (skew)") == (skew > 0)
    if skew == 0:
        got = _frame(plane_through_lines(*lines, m).point, c) - shift
        atol = 1e-12 / _sine(d1, d2) * 4 * (size + np.linalg.norm(shift))
        np.testing.assert_allclose(got, q, rtol=0, atol=atol)


@pytest.mark.parametrize("c, p1, d1, p2, d2", [
    # 0.2 m apart at t = 1 s with SI c: about 3e8 m from the origin in the balanced frame
    (2.99792458e8, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.2, 1.0], [0.0, 0.0, 1e-8]),
    # 0.01 apart, 1e6 from the origin
    (1.0, [1e6, 1e6, 1e6], [1.0, 0.0, 0.0], [1e6, 1e6 + 0.01, 1e6], [0.0, 0.0, 1.0]),
])
def test_plane_through_lines_refuses_skew_pairs_far_from_the_origin(c, p1, d1, p2, d2):
    l1 = Line(np.array(p1), np.array(d1), CausalClass.SPACELIKE)
    l2 = Line(np.array(p2), np.array(d2), CausalClass.TIMELIKE)
    with pytest.raises(ValueError, match="skew"):
        plane_through_lines(l1, l2, Metric(3, c))
