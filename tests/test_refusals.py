"""Refusal parity of the scalar geometry kernel.

Each public function checks its arguments once, at its boundary, and then
runs private kernels that trust them.  This table pins what every such
boundary does with a bad argument: wrong shape, NaN and +-inf in each
position, hand-built lines and planes with bad fields, negative tolerances
and out-of-range scalars.  Each row must raise the exception type and
message (or return the value) recorded in ``EXPECTED``, which was taken
from the kernel before its checks moved to the boundary, with two
deliberate changes: a non-finite or misshapen span vector or line direction
of ``intersect_planes``, ``intersect_null_planes`` and
``plane_through_lines`` gets the event check's own message (it reached
numpy's least-squares solver before, whose errors leaked), and every
function of ``cones`` refuses a negative tolerance.  The rows of
``null_plane_through``, ``point_on_line`` and ``same_line`` came later:
those functions returned a plane with NaN, misshapen or zero spans, or
False, for a bad line or probe, and now give the event check's message or
the zero-direction refusal of ``line_through``.  A line passed without a
metric (to ``point_on_line`` and ``same_line``) whose point and direction
differ in shape is refused with both shapes named, since neither fixes the
dimension.  ``plane_through_lines[line{0,1}-point-shape]`` read numpy's
broadcast error until the offset of the two points was taken from the
checked points; they now read the event check's message.  The
``not-null-direction`` rows came with the check of a line's direction by
``null_plane_through`` and the null-plane membership tests, which trusted a
LIGHTLIKE label before.  ``decompose_conformal[shear-1e-5]`` and ``[rank-1]``
came with its entry scale max(S, |lam|): under the old floor of 1 the small
shear was accepted, and without the floor a zero column must not divide
0 by 0 in the message.  The null-plane membership tests give the line's point
the event check of their metric, as ``null_plane_through`` does, and refuse a
zero direction: ``[line-point-shape]`` read numpy's broadcast error, and a
(1,) or 0-d point was broadcast (``[line-point-len1]``, ``[line-point-0d]``).
``boost`` came under the same rule later: every tolerance refuses tol < 0,
``gamma`` and ``scale_factor`` check the velocity, every velocity check refuses
a c whose square is not a normal float (it raised ZeroDivisionError or
OverflowError further in), and a map refuses non-finite entries, also where
``compose`` or ``inverse`` overflows.  ``Metric`` shares that speed check
(``Metric[c=1e+200]`` and ``[c=1e-200]``; it accepted them, and ``c ** 2``
raised OverflowError further in), and ``boost.apply`` gives a non-finite event
the event check's message (``apply[nan]`` returned NaN, ``[+inf]`` warned).
``recover_lorentz`` refuses a fit tolerance outside [0, inf) before any check
runs (``[tol=nan]`` and ``[tol=-1.0]`` refused the map with a NaN or negative
threshold and no reason, ``[tol=inf]`` accepted any residual).

Every tolerance of ``minkowski``, ``boost``, ``cones`` and ``recover`` is now
refused by one rule, ``minkowski._within``'s, with one message: a tolerance
must be finite and >= 0.  The rule refused tol < 0 only, so each ``[tol]`` row
got ``[tol=nan]`` and ``[tol=inf]`` siblings (NaN answered as no band at all,
inf as a band holding everything), recover's own "fit tolerance" and "cone
tolerance" messages became the one message, and ``same_line``,
``transform_line`` and the four checks of ``recover`` got rows at -1, nan and
inf (the marker and field-map checks never checked a tolerance: at -1 every
marker was violated, at NaN none).  A span vector of ``intersect_planes`` and
``intersect_null_planes`` gets the event check of its plane's dimension, which
replaced numpy's cross product message (``[plane{0,1}-{0,1}-shape]``).
``transform_line`` maps its line's point through ``boost.apply``: a line of
another dimension than the map (``[map-dims]``) read numpy's matmul message,
and an image that overflows (``[overflow]``) warned, then got the event check's
non-finite message from ``line_through``.

The scale rows came with the one scale rule, ``minkowski._pow2``: each kernel
takes its vectors, or its matrix before and after balancing, at an exact power
of two where a square leaves the normal float range.  Before it,
``classify_span[1e-170]`` called orthogonal vectors dependent,
``[dependent-1e200]`` called dependent ones SPACELIKE and ``[square-overflow]``
raised OverflowError; ``plane_through_lines[1e200]`` and
``intersect_planes[1e200]`` were refused; ``decompose_conformal[1e-200]`` found a
factor of 0, ``[balanced-overflow]`` a NaN deviation (D M D^-1 overflowed, with
a warning), and ``is_isometry[1e200]`` was True.  ``is_isometry[null-rank-1-2^700]``
warned as its Gram overflowed; taken at its 2^k, that Gram is 0, and so is 2^2k, a
factor no isometry has there.

The Python float forms that replaced numpy calls on 3-vectors and a few
ratios (``cones._cross``, ``boost._median``) must equal those calls bit
for bit.
"""

import dataclasses
import enum
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone import GenerateConfig, boost, cones, make_samples, minkowski, radar, recover
from lightcone.boost import AffineLorentzMap, BoostParams, NotConformalError
from lightcone.cones import Line, Plane
from lightcone.minkowski import CausalClass, Metric

C = 2.0
M3, M4 = Metric(3, C), Metric(4, C)
CC = CausalClass

R4 = np.array([1.0, 2.0, 3.0, 4.0])
S4 = np.array([0.5, -1.0, 2.0, 0.25])
O3 = np.array([0.5, -0.25, 0.75])
DN = np.array([2.0, 0.0, 1.0])  # null at c = 2: 2^2 = c^2 * 1^2
UX, UY, UT = np.eye(3)
NULL_LINE = Line(O3, DN, CC.LIGHTLIKE)
SPACE_LINE = Line(O3 + np.array([0.0, 2.5, 0.0]), UY, CC.SPACELIKE)
MISLABELLED = Line(np.zeros(3), UX, CC.LIGHTLIKE)  # labelled null, spacelike by its direction
D1, D2 = np.array([0.0, 2.0, 1.0]), np.array([0.0, -2.0, 1.0])
P1 = Plane(O3, (D1, np.array([-2.0, 0.0, 0.0])), CC.LIGHTLIKE)
P2 = Plane(O3, (D2, np.array([2.0, 0.0, 0.0])), CC.LIGHTLIKE)
B = boost.boost_x(BoostParams(0.6 * C, C)).L
MAP = AffineLorentzMap(1.5, B, R4)
MAP3 = AffineLorentzMap(1.5, np.eye(3), O3)
HUGE3 = AffineLorentzMap(1e300, np.eye(3), O3)
FAR_LINE = Line(np.array([1e10, 0.0, 0.0]), UX, CC.SPACELIKE)  # its image under HUGE3 overflows
FAULTS = ("shape", "nan", "+inf", "-inf")


def _bad(e, fault):
    e = np.array(e, dtype=float)
    if fault == "shape":
        return np.append(e, 0.0)
    e.flat[-1] = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}[fault]
    return e


def _line(l, field, fault):
    return dataclasses.replace(l, **{field: _bad(getattr(l, field), fault)})


def _plane(p, field, fault):
    if field == "point":
        return dataclasses.replace(p, point=_bad(p.point, fault))
    span = list(p.span)
    span[field] = _bad(span[field], fault)
    return dataclasses.replace(p, span=tuple(span))


def _rows():
    rows = {}

    def events(name, fn, args, tail=()):
        # each event argument in turn replaced by each fault
        for i in range(len(args)):
            for fault in FAULTS:
                bad = list(args)
                bad[i] = _bad(args[i], fault)
                rows[f"{name}[arg{i}-{fault}]"] = (fn, (*bad, *tail))

    for name in ("inner", "abs_inner", "interval", "classify", "on_null_cone"):
        events(f"minkowski.{name}", getattr(minkowski, name), (R4, S4), (M4,))
    rows["minkowski.classify[tol]"] = (minkowski.classify, (R4, S4, M4, -1e-9))
    rows["minkowski.on_null_cone[tol]"] = (minkowski.on_null_cone, (R4, S4, M4, -1e-9))
    # two faults at once: classify refuses the tol first, line_through the zero direction
    rows["minkowski.classify[tol-and-shape]"] = (minkowski.classify, (np.ones(3), S4, M4, -1e-9))
    rows["minkowski.as_event[list-shape]"] = (minkowski.as_event, ([1, 2, 3], M4))
    for c in (0.0, -1.0, math.nan, math.inf, 1e200, 1e-200):
        rows[f"minkowski.Metric[c={c}]"] = (Metric, (4, c))
    for n in (1, 2.5):
        rows[f"minkowski.Metric[n={n}]"] = (Metric, (n, 1.0))

    events("cones.line_through", cones.line_through, (O3, DN), (M3,))
    rows["cones.line_through[zero]"] = (cones.line_through, (O3, np.zeros(3), M3))
    rows["cones.line_through[tol]"] = (cones.line_through, (O3, DN, M3, -1e-9))
    rows["cones.line_through[tol-and-zero]"] = (cones.line_through, (O3, np.zeros(3), M3, -1e-9))
    events("cones.classify_span", cones.classify_span, (UX, UT), (M3,))
    rows["cones.classify_span[dependent]"] = (cones.classify_span, (UX, 2 * UX, M3))
    rows["cones.classify_span[zero]"] = (cones.classify_span, (UX, np.zeros(3), M3))
    rows["cones.classify_span[tol]"] = (cones.classify_span, (UX, UT, M3, -1e-9))
    events("cones.plane_through", cones.plane_through, (O3, UX, UT), (M3,))
    rows["cones.plane_through[tol]"] = (cones.plane_through, (O3, UX, UT, M3, -1e-9))
    timelike = Plane(O3, (UX, UT), CC.TIMELIKE)
    for field in (0, 1):
        for fault in FAULTS:
            rows[f"cones.classify_plane[span{field}-{fault}]"] = (
                cones.classify_plane, (_plane(timelike, field, fault), M3))
    rows["cones.classify_plane[tol]"] = (cones.classify_plane, (timelike, M3, -1e-9))
    events("cones.tangent_cone_intersection", cones.tangent_cone_intersection, (O3, O3 + DN), (M3,))
    rows["cones.tangent_cone_intersection[same]"] = (cones.tangent_cone_intersection, (O3, O3, M3))
    rows["cones.tangent_cone_intersection[not-null]"] = (
        cones.tangent_cone_intersection, (O3, O3 + UX, M3))
    rows["cones.tangent_cone_intersection[tol]"] = (
        cones.tangent_cone_intersection, (O3, O3 + DN, M3, -1e-9))

    for field in ("point", "direction"):
        for fault in FAULTS:
            rows[f"cones.null_plane_through[line-{field}-{fault}]"] = (
                cones.null_plane_through, (_line(NULL_LINE, field, fault), M3))
            rows[f"cones.point_on_line[line-{field}-{fault}]"] = (
                cones.point_on_line, (O3 + DN, _line(NULL_LINE, field, fault)))
            for which in (0, 1):
                lines = [NULL_LINE, NULL_LINE]
                lines[which] = _line(NULL_LINE, field, fault)
                rows[f"cones.same_line[line{which}-{field}-{fault}]"] = (cones.same_line, lines)
    zero = Line(O3, np.zeros(3), CC.LIGHTLIKE)
    rows["cones.null_plane_through[zero]"] = (cones.null_plane_through, (zero, M3))
    rows["cones.null_plane_through[not-null-direction]"] = (
        cones.null_plane_through, (MISLABELLED, M3))
    rows["cones.point_on_line[zero]"] = (cones.point_on_line, (O3 + DN, zero))
    rows["cones.same_line[zero]"] = (cones.same_line, (NULL_LINE, zero))
    for fault in FAULTS:
        rows[f"cones.point_on_line[p-{fault}]"] = (
            cones.point_on_line, (_bad(O3 + DN, fault), NULL_LINE))
    rows["cones.point_on_line[tol]"] = (cones.point_on_line, (O3 + DN, NULL_LINE, -1e-9))
    scalar_point = dataclasses.replace(NULL_LINE, point=np.float64(1.0))
    rows["cones.point_on_line[line-point-0d]"] = (cones.point_on_line, (O3 + DN, scalar_point))
    rows["cones.same_line[line1-point-0d]"] = (cones.same_line, (NULL_LINE, scalar_point))
    rows["cones.same_line[dimensions]"] = (
        cones.same_line, (NULL_LINE, Line(R4, S4, CC.SPACELIKE)))

    on_plane = O3 + DN + 3.0 * UY
    for name in ("on_null_plane_algebraic", "on_null_plane_by_characterization"):
        fn = getattr(cones, name)
        for fault in FAULTS:
            rows[f"cones.{name}[p-{fault}]"] = (fn, (_bad(on_plane, fault), NULL_LINE, M3))
            for field in ("point", "direction"):
                rows[f"cones.{name}[line-{field}-{fault}]"] = (
                    fn, (on_plane, _line(NULL_LINE, field, fault), M3))
        rows[f"cones.{name}[not-null]"] = (fn, (on_plane, SPACE_LINE, M3))
        rows[f"cones.{name}[not-null-direction]"] = (fn, (UY, MISLABELLED, M3))
        # a point numpy would broadcast: at c = 2 the (1,) point put p on the plane
        for shape, point in (("len1", np.array([0.5])), ("0d", np.float64(0.5))):
            rows[f"cones.{name}[line-point-{shape}]"] = (
                fn, (np.array([0.5, 3.0, 0.5]), dataclasses.replace(NULL_LINE, point=point), M3))
        rows[f"cones.{name}[zero]"] = (
            fn, (on_plane, dataclasses.replace(NULL_LINE, direction=np.zeros(3)), M3))
        rows[f"cones.{name}[tol]"] = (fn, (on_plane, NULL_LINE, M3, -1e-9))

    for name in ("intersect_planes", "intersect_null_planes"):
        fn = getattr(cones, name)
        for which in (0, 1):
            for field in ("point", 0, 1):
                for fault in FAULTS:
                    planes = [P1, P2]
                    planes[which] = _plane(planes[which], field, fault)
                    rows[f"cones.{name}[plane{which}-{field}-{fault}]"] = (fn, (*planes, M3))
        rows[f"cones.{name}[parallel]"] = (fn, (P1, P1, M3))
        rows[f"cones.{name}[tol]"] = (fn, (P1, P2, M3, -1e-9))
    rows["cones.intersect_null_planes[timelike]"] = (
        cones.intersect_null_planes, (P1, Plane(O3, (UX, UT), CC.TIMELIKE), M3))

    for which in (0, 1):
        for field in ("point", "direction"):
            for fault in FAULTS:
                lines = [NULL_LINE, SPACE_LINE]
                lines[which] = _line(lines[which], field, fault)
                rows[f"cones.plane_through_lines[line{which}-{field}-{fault}]"] = (
                    cones.plane_through_lines, (*lines, M3))
    rows["cones.plane_through_lines[parallel]"] = (
        cones.plane_through_lines, (NULL_LINE, Line(O3 + UY, 2 * DN, CC.LIGHTLIKE), M3))
    rows["cones.plane_through_lines[skew]"] = (
        cones.plane_through_lines, (NULL_LINE, Line(O3 + UT, UY, CC.SPACELIKE), M3))
    rows["cones.plane_through_lines[tol]"] = (
        cones.plane_through_lines, (NULL_LINE, SPACE_LINE, M3, -1e-9))

    for shape, bad in (("3x3", np.eye(3)), ("4", np.ones(4)), ("4x5", np.ones((4, 5)))):
        rows[f"boost.is_isometry[shape-{shape}]"] = (boost.is_isometry, (bad, M4))
        rows[f"boost.decompose_conformal[shape-{shape}]"] = (boost.decompose_conformal, (bad, M4))
    for fault in FAULTS[1:]:
        for at in ((0, 0), (3, 3), (0, 3), (3, 0)):
            bad = 1.5 * B
            bad[at] = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}[fault]
            rows[f"boost.decompose_conformal[{fault}@{at[0]},{at[1]}]"] = (
                boost.decompose_conformal, (bad, M4))
            rows[f"boost.is_isometry[{fault}@{at[0]},{at[1]}]"] = (boost.is_isometry, (bad, M4))
    shear = np.eye(4)
    shear[0, 1] = 0.5
    rows["boost.decompose_conformal[shear]"] = (boost.decompose_conformal, (shear, M4))
    rows["boost.decompose_conformal[shear-1e-5]"] = (boost.decompose_conformal, (1e-5 * shear, M4))
    rows["boost.decompose_conformal[rank-1]"] = (
        boost.decompose_conformal, (np.diag([1.0, 0.0, 0.0, 0.0]), M4))
    rows["boost.is_isometry[tol]"] = (boost.is_isometry, (B, M4, -1.0))
    # the scale rows: each kernel takes its vectors or matrix at minkowski._pow2's 2^k
    corner = np.eye(4)
    corner[3, 0] = 1e300  # times c = 1e10 in D M D^-1
    rows["boost.decompose_conformal[balanced-overflow]"] = (
        boost.decompose_conformal, (corner, Metric(4, 1e10)))
    rows["boost.is_isometry[balanced-overflow]"] = (boost.is_isometry, (corner, Metric(4, 1e10)))
    rows["boost.decompose_conformal[1e-200]"] = (boost.decompose_conformal, (1e-200 * B, M4))
    rows["boost.is_isometry[1e200]"] = (boost.is_isometry, (1e200 * np.eye(4), M4))
    null_column = np.outer([1.0, 0.0, 0.0, 1.0], [2.0 ** 700, 0.0, 0.0, 0.0])  # rank 1
    rows["boost.is_isometry[null-rank-1-2^700]"] = (boost.is_isometry, (null_column, Metric(4, 1.0)))
    rows["cones.classify_span[dependent-1e200]"] = (cones.classify_span, (1e200 * UX, 2e200 * UX, M3))
    rows["cones.classify_span[square-overflow]"] = (
        cones.classify_span, (1e100 * UX, 1e100 * (2 * UX + UY), M3))
    rows["cones.classify_span[1e-170]"] = (cones.classify_span, (1e-170 * UX, 1e-170 * UY, M3))
    rows["cones.plane_through_lines[1e200]"] = (
        cones.plane_through_lines,
        tuple(Line(1e200 * l.point, 1e200 * l.direction, l.causal_class) for l in (
            NULL_LINE, Line(O3 + DN, UY, CC.SPACELIKE))) + (M3,))
    rows["cones.intersect_planes[1e200]"] = (
        cones.intersect_planes,
        tuple(Plane(1e200 * p.point, tuple(1e200 * u for u in p.span), p.causal_class)
              for p in (P1, P2)) + (M3,))
    rows["boost.decompose_conformal[tol]"] = (boost.decompose_conformal, (B, M4, -1.0))
    rows["boost.scale_constraint_check[tol]"] = (
        boost.scale_constraint_check, (0.8, 0.8, BoostParams(0.6, 1.0), -1.0))
    for row, (fn, args) in list(rows.items()):  # each [tol] row, its tolerance not finite
        if row.endswith("[tol]"):
            for tol in (math.nan, math.inf):
                rows[f"{row[:-4]}tol={tol}]"] = (fn, (*args[:-1], tol))
    for alpha in (0.0, math.nan, math.inf, -math.inf):
        rows[f"boost.AffineLorentzMap[alpha={alpha}]"] = (AffineLorentzMap, (alpha, B, R4))
        rows[f"boost.general_boost[alpha={alpha}]"] = (
            boost.general_boost, (BoostParams(0.6 * C, C), alpha))
    rows["boost.AffineLorentzMap[L-shape]"] = (AffineLorentzMap, (1.0, np.ones((4, 3)), R4))
    rows["boost.AffineLorentzMap[a-shape]"] = (AffineLorentzMap, (1.0, B, np.ones(3)))
    for fault in FAULTS[1:]:
        rows[f"boost.AffineLorentzMap[L-{fault}]"] = (AffineLorentzMap, (1.0, _bad(B, fault), R4))
        rows[f"boost.AffineLorentzMap[a-{fault}]"] = (AffineLorentzMap, (1.0, B, _bad(R4, fault)))
    huge, big = (AffineLorentzMap(alpha, 1e200 * np.eye(4), R4) for alpha in (1e200, 1.0))
    rows["boost.compose[alpha-overflow]"] = (boost.compose, (huge, huge))
    rows["boost.compose[overflow]"] = (boost.compose, (big, big))
    rows["boost.inverse[overflow]"] = (
        boost.inverse, (AffineLorentzMap(1.0, np.diag([1.0, 1.0, 1.0, 1e-320]), R4),))
    rows["boost.inverse[alpha-overflow]"] = (boost.inverse, (AffineLorentzMap(1e-320, B, R4),))
    rows["boost.apply[shape]"] = (boost.apply, (MAP, np.ones(3)))
    for fault in FAULTS[1:]:
        rows[f"boost.apply[{fault}]"] = (boost.apply, (MAP, _bad(R4, fault)))
    rows["boost.compose[dims]"] = (boost.compose, (MAP, boost.identity_map(3)))
    singular = AffineLorentzMap(1.0, np.zeros((4, 4)), R4)
    rows["boost.inverse[singular]"] = (boost.inverse, (singular,))

    for v, c in ((C, C), (-C, C), (math.nan, C), (math.inf, C), (0.5, 0.0), (0.5, math.nan),
                 (0.5, math.inf), (0.5, -1.0), (0.5e-300, 1e-300), (0.5, 1e200)):
        rows[f"boost.BoostParams[v={v},c={c}]"] = (BoostParams, (v, c))
        rows[f"boost.gamma[v={v},c={c}]"] = (boost.gamma, (v, c))
        rows[f"boost.scale_factor[v={v},c={c}]"] = (boost.scale_factor, (v, c))
        rows[f"radar.derive_map[v={v},c={c}]"] = (radar.derive_map, (v, c))
        rows[f"radar.RadarScenario[v={v},c={c}]"] = (radar.RadarScenario, (v, c))
        rows[f"radar.tprime[v={v},c={c}]"] = (radar.tprime, (1.0, 2.0, v, c))
        rows[f"radar.xprime[v={v},c={c}]"] = (radar.xprime, (1.0, v, c))
        rows[f"radar.yzprime[v={v},c={c}]"] = (radar.yzprime, (1.0, v, c))
    for dx in (0.0, -1.0, math.nan, math.inf):
        rows[f"radar.RadarScenario[delta_xbar={dx}]"] = (radar.RadarScenario, (0.5, 1.0, dx))
    identity = recover.SampleSet(M4, np.eye(5, 4), np.eye(5, 4))
    cubing = make_samples(GenerateConfig(kind="cubing", num_samples=34, seed=0))[0]
    rows["cones.transform_line[map-dims]"] = (cones.transform_line, (MAP3, Line(R4, S4, CC.SPACELIKE), M4))
    rows["cones.transform_line[overflow]"] = (cones.transform_line, (HUGE3, FAR_LINE, M3))
    for tol in (math.nan, -1.0, math.inf):
        rows[f"recover.recover_lorentz[tol={tol}]"] = (recover.recover_lorentz, (identity, tol))
        rows[f"cones.same_line[tol={tol}]"] = (cones.same_line, (NULL_LINE, NULL_LINE, tol))
        rows[f"cones.transform_line[tol={tol}]"] = (cones.transform_line, (MAP3, NULL_LINE, M3, tol))
        for name in ("check_cone_preservation", "check_collinearity", "check_parallelism",
                     "induced_field_map_check"):
            rows[f"recover.{name}[tol={tol}]"] = (getattr(recover, name), (cubing, tol))
    return rows


ROWS = _rows()


def _outcome(fn, args):
    """("raises", type, message), or ("returns", value) for a bool, class or
    float result and ("returns", None) for any other.

    numpy's floating-point warnings are off: the contract is the exception.
    (Python float arithmetic, as in ``cones._cross``, raises no such warning
    where numpy's does on an infinite span.)"""
    with np.errstate(all="ignore"):
        try:
            got = fn(*args)
        except Exception as exc:
            return ("raises", type(exc).__name__, str(exc))
    if isinstance(got, (bool, float)):
        return ("returns", repr(got))
    if isinstance(got, enum.Enum):
        return ("returns", got.name)
    return ("returns", None)


NON_FINITE = ('raises', 'ValueError', 'event has non-finite components')
SHAPE_4_NOT_3 = ('raises', 'ValueError', 'event has shape (4,), expected (3,)')
SHAPE_5_NOT_4 = ('raises', 'ValueError', 'event has shape (5,), expected (4,)')
NOT_CONFORMAL_NAN = (
    'raises', 'NotConformalError', 'M^T eta M is not proportional to eta (worst relative deviation nan)')


def _bad_tol(tol):
    return ('raises', 'ValueError', f'tolerance must be finite and >= 0, got {tol}')


NEGATIVE_TOL = _bad_tol(-1e-09)
NON_FINITE_MAP = ('raises', 'ValueError', 'map has non-finite entries')
ALPHA_INF = ('raises', 'ValueError', 'alpha must be nonzero and finite, got inf')
C2_RANGE = ("raises", "ValueError", "invariant speed must have c^2 in the normal float range "
            "[2.2250738585072014e-308, 1.7976931348623157e+308], got c = {}")
V_IS_C = ('raises', 'ValueError', 'degenerate velocity: |v|=2.0 must be < c=2.0')
FALSE = ('returns', 'False')
ZERO_DIRECTION = ('raises', 'ValueError', 'line direction must be nonzero')
NOT_NULL = ('raises', 'ValueError', 'line is not null')
LONG_POINT = ('raises', 'ValueError',
              'line has point shape (4,) and direction shape (3,), expected one shape (n,)')
LONG_DIRECTION = ('raises', 'ValueError',
                  'line has point shape (3,) and direction shape (4,), expected one shape (n,)')

#: Each row's outcome, taken by _outcome (see the module docstring).
EXPECTED = {
    'boost.AffineLorentzMap[L-+inf]': NON_FINITE_MAP,
    'boost.AffineLorentzMap[L--inf]': NON_FINITE_MAP,
    'boost.AffineLorentzMap[L-nan]': NON_FINITE_MAP,
    'boost.AffineLorentzMap[L-shape]':
        ('raises', 'ValueError', 'L must be square, got shape (4, 3)'),
    'boost.AffineLorentzMap[a-+inf]': NON_FINITE_MAP,
    'boost.AffineLorentzMap[a--inf]': NON_FINITE_MAP,
    'boost.AffineLorentzMap[a-nan]': NON_FINITE_MAP,
    'boost.AffineLorentzMap[a-shape]':
        ('raises', 'ValueError', 'translation has shape (3,), expected (4,)'),
    'boost.AffineLorentzMap[alpha=-inf]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got -inf'),
    'boost.AffineLorentzMap[alpha=0.0]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got 0.0'),
    'boost.AffineLorentzMap[alpha=inf]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got inf'),
    'boost.AffineLorentzMap[alpha=nan]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got nan'),
    'boost.BoostParams[v=-2.0,c=2.0]': V_IS_C,
    'boost.BoostParams[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'boost.BoostParams[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'boost.BoostParams[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'boost.BoostParams[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'boost.BoostParams[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'boost.BoostParams[v=2.0,c=2.0]': V_IS_C,
    'boost.BoostParams[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'boost.BoostParams[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'boost.BoostParams[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'boost.apply[+inf]': NON_FINITE,
    'boost.apply[-inf]': NON_FINITE,
    'boost.apply[nan]': NON_FINITE,
    'boost.apply[shape]': ('raises', 'ValueError', 'event has shape (3,), expected (4,)'),
    'boost.compose[alpha-overflow]': ALPHA_INF,
    'boost.compose[dims]': ('raises', 'ValueError', 'dimension mismatch: 4 vs 3'),
    'boost.compose[overflow]': NON_FINITE_MAP,
    'boost.decompose_conformal[+inf@0,0]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[+inf@0,3]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[+inf@3,0]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[+inf@3,3]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[-inf@0,0]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[-inf@0,3]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[-inf@3,0]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[-inf@3,3]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[1e-200]': ('returns', None),
    'boost.decompose_conformal[balanced-overflow]':
        ('raises', 'NotConformalError', 'M^T eta M is not proportional to eta (worst relative deviation 1.000e+00)'),
    'boost.decompose_conformal[nan@0,0]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[nan@0,3]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[nan@3,0]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[nan@3,3]': NOT_CONFORMAL_NAN,
    'boost.decompose_conformal[rank-1]':
        ('raises', 'NotConformalError', 'M^T eta M is not proportional to eta (worst relative deviation 1.000e+00)'),
    'boost.decompose_conformal[shape-3x3]':
        ('raises', 'ValueError', 'matrix has shape (3, 3), expected (4, 4)'),
    'boost.decompose_conformal[shape-4]':
        ('raises', 'ValueError', 'matrix has shape (4,), expected (4, 4)'),
    'boost.decompose_conformal[shape-4x5]':
        ('raises', 'ValueError', 'matrix has shape (4, 5), expected (4, 4)'),
    'boost.decompose_conformal[shear]':
        ('raises', 'NotConformalError', 'M^T eta M is not proportional to eta (worst relative deviation 5.000e-01)'),
    'boost.decompose_conformal[shear-1e-5]':
        ('raises', 'NotConformalError', 'M^T eta M is not proportional to eta (worst relative deviation 5.000e-01)'),
    'boost.decompose_conformal[tol]': _bad_tol(-1.0),
    'boost.gamma[v=-2.0,c=2.0]': V_IS_C,
    'boost.gamma[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'boost.gamma[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'boost.gamma[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'boost.gamma[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'boost.gamma[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'boost.gamma[v=2.0,c=2.0]': V_IS_C,
    'boost.gamma[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'boost.gamma[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'boost.gamma[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'boost.general_boost[alpha=-inf]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got -inf'),
    'boost.general_boost[alpha=0.0]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got 0.0'),
    'boost.general_boost[alpha=inf]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got inf'),
    'boost.general_boost[alpha=nan]':
        ('raises', 'ValueError', 'alpha must be nonzero and finite, got nan'),
    'boost.inverse[alpha-overflow]': ALPHA_INF,
    'boost.inverse[overflow]': NON_FINITE_MAP,
    'boost.inverse[singular]':
        ('raises', 'ValueError', 'singular linear part; map is not invertible'),
    'boost.is_isometry[+inf@0,0]': FALSE,
    'boost.is_isometry[+inf@0,3]': FALSE,
    'boost.is_isometry[+inf@3,0]': FALSE,
    'boost.is_isometry[+inf@3,3]': FALSE,
    'boost.is_isometry[-inf@0,0]': FALSE,
    'boost.is_isometry[-inf@0,3]': FALSE,
    'boost.is_isometry[-inf@3,0]': FALSE,
    'boost.is_isometry[-inf@3,3]': FALSE,
    'boost.is_isometry[1e200]': FALSE,
    'boost.is_isometry[balanced-overflow]': FALSE,
    'boost.is_isometry[null-rank-1-2^700]': FALSE,
    'boost.is_isometry[nan@0,0]': FALSE,
    'boost.is_isometry[nan@0,3]': FALSE,
    'boost.is_isometry[nan@3,0]': FALSE,
    'boost.is_isometry[nan@3,3]': FALSE,
    'boost.is_isometry[shape-3x3]':
        ('raises', 'ValueError', 'matrix has shape (3, 3), expected (4, 4)'),
    'boost.is_isometry[shape-4]':
        ('raises', 'ValueError', 'matrix has shape (4,), expected (4, 4)'),
    'boost.is_isometry[shape-4x5]':
        ('raises', 'ValueError', 'matrix has shape (4, 5), expected (4, 4)'),
    'boost.is_isometry[tol]': _bad_tol(-1.0),
    'boost.scale_constraint_check[tol]': _bad_tol(-1.0),
    'boost.scale_factor[v=-2.0,c=2.0]': V_IS_C,
    'boost.scale_factor[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'boost.scale_factor[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'boost.scale_factor[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'boost.scale_factor[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'boost.scale_factor[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'boost.scale_factor[v=2.0,c=2.0]': V_IS_C,
    'boost.scale_factor[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'boost.scale_factor[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'boost.scale_factor[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'cones.classify_plane[span0-+inf]': NON_FINITE,
    'cones.classify_plane[span0--inf]': NON_FINITE,
    'cones.classify_plane[span0-nan]': NON_FINITE,
    'cones.classify_plane[span0-shape]': SHAPE_4_NOT_3,
    'cones.classify_plane[span1-+inf]': NON_FINITE,
    'cones.classify_plane[span1--inf]': NON_FINITE,
    'cones.classify_plane[span1-nan]': NON_FINITE,
    'cones.classify_plane[span1-shape]': SHAPE_4_NOT_3,
    'cones.classify_plane[tol]': NEGATIVE_TOL,
    'cones.classify_span[arg0-+inf]': NON_FINITE,
    'cones.classify_span[arg0--inf]': NON_FINITE,
    'cones.classify_span[arg0-nan]': NON_FINITE,
    'cones.classify_span[arg0-shape]': SHAPE_4_NOT_3,
    'cones.classify_span[arg1-+inf]': NON_FINITE,
    'cones.classify_span[arg1--inf]': NON_FINITE,
    'cones.classify_span[arg1-nan]': NON_FINITE,
    'cones.classify_span[arg1-shape]': SHAPE_4_NOT_3,
    'cones.classify_span[1e-170]': ('returns', 'SPACELIKE'),
    'cones.classify_span[dependent]':
        ('raises', 'ValueError', 'span vectors are linearly dependent'),
    'cones.classify_span[dependent-1e200]':
        ('raises', 'ValueError', 'span vectors are linearly dependent'),
    'cones.classify_span[square-overflow]': ('returns', 'SPACELIKE'),
    'cones.classify_span[tol]': NEGATIVE_TOL,
    'cones.classify_span[zero]': ('raises', 'ValueError', 'span vectors are linearly dependent'),
    'cones.intersect_null_planes[parallel]':
        ('raises', 'ValueError', 'planes are parallel or identical: no unique line'),
    'cones.intersect_null_planes[plane0-0-+inf]': NON_FINITE,
    'cones.intersect_null_planes[plane0-0--inf]': NON_FINITE,
    'cones.intersect_null_planes[plane0-0-nan]': NON_FINITE,
    'cones.intersect_null_planes[plane0-0-shape]': SHAPE_4_NOT_3,
    'cones.intersect_null_planes[plane0-1-+inf]': NON_FINITE,
    'cones.intersect_null_planes[plane0-1--inf]': NON_FINITE,
    'cones.intersect_null_planes[plane0-1-nan]': NON_FINITE,
    'cones.intersect_null_planes[plane0-1-shape]': SHAPE_4_NOT_3,
    'cones.intersect_null_planes[plane0-point-+inf]': NON_FINITE,
    'cones.intersect_null_planes[plane0-point--inf]': NON_FINITE,
    'cones.intersect_null_planes[plane0-point-nan]': NON_FINITE,
    'cones.intersect_null_planes[plane0-point-shape]':
        ('raises', 'ValueError', 'plane intersection is implemented for n = 3'),
    'cones.intersect_null_planes[plane1-0-+inf]': NON_FINITE,
    'cones.intersect_null_planes[plane1-0--inf]': NON_FINITE,
    'cones.intersect_null_planes[plane1-0-nan]': NON_FINITE,
    'cones.intersect_null_planes[plane1-0-shape]': SHAPE_4_NOT_3,
    'cones.intersect_null_planes[plane1-1-+inf]': NON_FINITE,
    'cones.intersect_null_planes[plane1-1--inf]': NON_FINITE,
    'cones.intersect_null_planes[plane1-1-nan]': NON_FINITE,
    'cones.intersect_null_planes[plane1-1-shape]': SHAPE_4_NOT_3,
    'cones.intersect_null_planes[plane1-point-+inf]': NON_FINITE,
    'cones.intersect_null_planes[plane1-point--inf]': NON_FINITE,
    'cones.intersect_null_planes[plane1-point-nan]': NON_FINITE,
    'cones.intersect_null_planes[plane1-point-shape]':
        ('raises', 'ValueError', 'plane intersection is implemented for n = 3'),
    'cones.intersect_null_planes[timelike]': ('raises', 'ValueError', 'second plane is not null'),
    'cones.intersect_null_planes[tol]': NEGATIVE_TOL,
    'cones.intersect_planes[1e200]': ('returns', None),
    'cones.intersect_planes[parallel]':
        ('raises', 'ValueError', 'planes are parallel or identical: no unique line'),
    'cones.intersect_planes[plane0-0-+inf]': NON_FINITE,
    'cones.intersect_planes[plane0-0--inf]': NON_FINITE,
    'cones.intersect_planes[plane0-0-nan]': NON_FINITE,
    'cones.intersect_planes[plane0-0-shape]': SHAPE_4_NOT_3,
    'cones.intersect_planes[plane0-1-+inf]': NON_FINITE,
    'cones.intersect_planes[plane0-1--inf]': NON_FINITE,
    'cones.intersect_planes[plane0-1-nan]': NON_FINITE,
    'cones.intersect_planes[plane0-1-shape]': SHAPE_4_NOT_3,
    'cones.intersect_planes[plane0-point-+inf]': NON_FINITE,
    'cones.intersect_planes[plane0-point--inf]': NON_FINITE,
    'cones.intersect_planes[plane0-point-nan]': NON_FINITE,
    'cones.intersect_planes[plane0-point-shape]':
        ('raises', 'ValueError', 'plane intersection is implemented for n = 3'),
    'cones.intersect_planes[plane1-0-+inf]': NON_FINITE,
    'cones.intersect_planes[plane1-0--inf]': NON_FINITE,
    'cones.intersect_planes[plane1-0-nan]': NON_FINITE,
    'cones.intersect_planes[plane1-0-shape]': SHAPE_4_NOT_3,
    'cones.intersect_planes[plane1-1-+inf]': NON_FINITE,
    'cones.intersect_planes[plane1-1--inf]': NON_FINITE,
    'cones.intersect_planes[plane1-1-nan]': NON_FINITE,
    'cones.intersect_planes[plane1-1-shape]': SHAPE_4_NOT_3,
    'cones.intersect_planes[plane1-point-+inf]': NON_FINITE,
    'cones.intersect_planes[plane1-point--inf]': NON_FINITE,
    'cones.intersect_planes[plane1-point-nan]': NON_FINITE,
    'cones.intersect_planes[plane1-point-shape]':
        ('raises', 'ValueError', 'plane intersection is implemented for n = 3'),
    'cones.intersect_planes[tol]': NEGATIVE_TOL,
    'cones.line_through[arg0-+inf]': NON_FINITE,
    'cones.line_through[arg0--inf]': NON_FINITE,
    'cones.line_through[arg0-nan]': NON_FINITE,
    'cones.line_through[arg0-shape]': SHAPE_4_NOT_3,
    'cones.line_through[arg1-+inf]': NON_FINITE,
    'cones.line_through[arg1--inf]': NON_FINITE,
    'cones.line_through[arg1-nan]': NON_FINITE,
    'cones.line_through[arg1-shape]': SHAPE_4_NOT_3,
    'cones.line_through[tol]': NEGATIVE_TOL,
    'cones.line_through[tol-and-zero]': ('raises', 'ValueError', 'line direction must be nonzero'),
    'cones.line_through[zero]': ('raises', 'ValueError', 'line direction must be nonzero'),
    'cones.null_plane_through[line-direction-+inf]': NON_FINITE,
    'cones.null_plane_through[line-direction--inf]': NON_FINITE,
    'cones.null_plane_through[line-direction-nan]': NON_FINITE,
    'cones.null_plane_through[line-direction-shape]': SHAPE_4_NOT_3,
    'cones.null_plane_through[line-point-+inf]': NON_FINITE,
    'cones.null_plane_through[line-point--inf]': NON_FINITE,
    'cones.null_plane_through[line-point-nan]': NON_FINITE,
    'cones.null_plane_through[line-point-shape]': SHAPE_4_NOT_3,
    'cones.null_plane_through[not-null-direction]': NOT_NULL,
    'cones.null_plane_through[zero]': ZERO_DIRECTION,
    'cones.on_null_plane_algebraic[line-direction-+inf]': NON_FINITE,
    'cones.on_null_plane_algebraic[line-direction--inf]': NON_FINITE,
    'cones.on_null_plane_algebraic[line-direction-nan]': NON_FINITE,
    'cones.on_null_plane_algebraic[line-direction-shape]': SHAPE_4_NOT_3,
    'cones.on_null_plane_algebraic[line-point-+inf]': NON_FINITE,
    'cones.on_null_plane_algebraic[line-point--inf]': NON_FINITE,
    'cones.on_null_plane_algebraic[line-point-0d]':
        ('raises', 'ValueError', 'event has shape (), expected (3,)'),
    'cones.on_null_plane_algebraic[line-point-len1]':
        ('raises', 'ValueError', 'event has shape (1,), expected (3,)'),
    'cones.on_null_plane_algebraic[line-point-nan]': NON_FINITE,
    'cones.on_null_plane_algebraic[line-point-shape]': SHAPE_4_NOT_3,
    'cones.on_null_plane_algebraic[not-null]': NOT_NULL,
    'cones.on_null_plane_algebraic[not-null-direction]': NOT_NULL,
    'cones.on_null_plane_algebraic[p-+inf]': NON_FINITE,
    'cones.on_null_plane_algebraic[p--inf]': NON_FINITE,
    'cones.on_null_plane_algebraic[p-nan]': NON_FINITE,
    'cones.on_null_plane_algebraic[p-shape]': SHAPE_4_NOT_3,
    'cones.on_null_plane_algebraic[tol]': NEGATIVE_TOL,
    'cones.on_null_plane_algebraic[zero]': ZERO_DIRECTION,
    'cones.on_null_plane_by_characterization[line-direction-+inf]': NON_FINITE,
    'cones.on_null_plane_by_characterization[line-direction--inf]': NON_FINITE,
    'cones.on_null_plane_by_characterization[line-direction-nan]': NON_FINITE,
    'cones.on_null_plane_by_characterization[line-direction-shape]': SHAPE_4_NOT_3,
    'cones.on_null_plane_by_characterization[line-point-+inf]': NON_FINITE,
    'cones.on_null_plane_by_characterization[line-point--inf]': NON_FINITE,
    'cones.on_null_plane_by_characterization[line-point-0d]':
        ('raises', 'ValueError', 'event has shape (), expected (3,)'),
    'cones.on_null_plane_by_characterization[line-point-len1]':
        ('raises', 'ValueError', 'event has shape (1,), expected (3,)'),
    'cones.on_null_plane_by_characterization[line-point-nan]': NON_FINITE,
    'cones.on_null_plane_by_characterization[line-point-shape]': SHAPE_4_NOT_3,
    'cones.on_null_plane_by_characterization[not-null]': NOT_NULL,
    'cones.on_null_plane_by_characterization[not-null-direction]': NOT_NULL,
    'cones.on_null_plane_by_characterization[p-+inf]': NON_FINITE,
    'cones.on_null_plane_by_characterization[p--inf]': NON_FINITE,
    'cones.on_null_plane_by_characterization[p-nan]': NON_FINITE,
    'cones.on_null_plane_by_characterization[p-shape]': SHAPE_4_NOT_3,
    'cones.on_null_plane_by_characterization[tol]': NEGATIVE_TOL,
    'cones.on_null_plane_by_characterization[zero]': ZERO_DIRECTION,
    'cones.plane_through[arg0-+inf]': NON_FINITE,
    'cones.plane_through[arg0--inf]': NON_FINITE,
    'cones.plane_through[arg0-nan]': NON_FINITE,
    'cones.plane_through[arg0-shape]': SHAPE_4_NOT_3,
    'cones.plane_through[arg1-+inf]': NON_FINITE,
    'cones.plane_through[arg1--inf]': NON_FINITE,
    'cones.plane_through[arg1-nan]': NON_FINITE,
    'cones.plane_through[arg1-shape]': SHAPE_4_NOT_3,
    'cones.plane_through[arg2-+inf]': NON_FINITE,
    'cones.plane_through[arg2--inf]': NON_FINITE,
    'cones.plane_through[arg2-nan]': NON_FINITE,
    'cones.plane_through[arg2-shape]': SHAPE_4_NOT_3,
    'cones.plane_through[tol]': NEGATIVE_TOL,
    'cones.plane_through_lines[line0-direction-+inf]': NON_FINITE,
    'cones.plane_through_lines[line0-direction--inf]': NON_FINITE,
    'cones.plane_through_lines[line0-direction-nan]': NON_FINITE,
    'cones.plane_through_lines[line0-direction-shape]': SHAPE_4_NOT_3,
    'cones.plane_through_lines[line0-point-+inf]': NON_FINITE,
    'cones.plane_through_lines[line0-point--inf]': NON_FINITE,
    'cones.plane_through_lines[line0-point-nan]': NON_FINITE,
    'cones.plane_through_lines[line0-point-shape]': SHAPE_4_NOT_3,
    'cones.plane_through_lines[line1-direction-+inf]': NON_FINITE,
    'cones.plane_through_lines[line1-direction--inf]': NON_FINITE,
    'cones.plane_through_lines[line1-direction-nan]': NON_FINITE,
    'cones.plane_through_lines[line1-direction-shape]': SHAPE_4_NOT_3,
    'cones.plane_through_lines[line1-point-+inf]': NON_FINITE,
    'cones.plane_through_lines[line1-point--inf]': NON_FINITE,
    'cones.plane_through_lines[line1-point-nan]': NON_FINITE,
    'cones.plane_through_lines[line1-point-shape]': SHAPE_4_NOT_3,
    'cones.plane_through_lines[1e200]': ('returns', None),
    'cones.plane_through_lines[parallel]':
        ('raises', 'ValueError', 'lines are parallel or collinear: no unique plane'),
    'cones.plane_through_lines[skew]': ('raises', 'ValueError', 'lines do not intersect (skew)'),
    'cones.plane_through_lines[tol]': NEGATIVE_TOL,
    'cones.point_on_line[line-direction-+inf]': NON_FINITE,
    'cones.point_on_line[line-direction--inf]': NON_FINITE,
    'cones.point_on_line[line-direction-nan]': NON_FINITE,
    'cones.point_on_line[line-direction-shape]': LONG_DIRECTION,
    'cones.point_on_line[line-point-+inf]': NON_FINITE,
    'cones.point_on_line[line-point--inf]': NON_FINITE,
    'cones.point_on_line[line-point-nan]': NON_FINITE,
    'cones.point_on_line[line-point-0d]':
        ('raises', 'ValueError', 'line has point shape () and direction shape (3,), expected one shape (n,)'),
    'cones.point_on_line[line-point-shape]': LONG_POINT,
    'cones.point_on_line[p-+inf]': NON_FINITE,
    'cones.point_on_line[p--inf]': NON_FINITE,
    'cones.point_on_line[p-nan]': NON_FINITE,
    'cones.point_on_line[p-shape]': SHAPE_4_NOT_3,
    'cones.point_on_line[tol]': NEGATIVE_TOL,
    'cones.point_on_line[zero]': ZERO_DIRECTION,
    'cones.same_line[line0-direction-+inf]': NON_FINITE,
    'cones.same_line[line0-direction--inf]': NON_FINITE,
    'cones.same_line[line0-direction-nan]': NON_FINITE,
    'cones.same_line[line0-direction-shape]': LONG_DIRECTION,
    'cones.same_line[line0-point-+inf]': NON_FINITE,
    'cones.same_line[line0-point--inf]': NON_FINITE,
    'cones.same_line[line0-point-nan]': NON_FINITE,
    'cones.same_line[line0-point-shape]': LONG_POINT,
    'cones.same_line[line1-direction-+inf]': NON_FINITE,
    'cones.same_line[line1-direction--inf]': NON_FINITE,
    'cones.same_line[line1-direction-nan]': NON_FINITE,
    'cones.same_line[line1-direction-shape]': LONG_DIRECTION,
    'cones.same_line[line1-point-+inf]': NON_FINITE,
    'cones.same_line[line1-point--inf]': NON_FINITE,
    'cones.same_line[line1-point-nan]': NON_FINITE,
    'cones.same_line[line1-point-0d]':
        ('raises', 'ValueError', 'line has point shape () and direction shape (3,), expected one shape (n,)'),
    'cones.same_line[line1-point-shape]': LONG_POINT,
    'cones.same_line[dimensions]': SHAPE_4_NOT_3,
    'cones.same_line[zero]': ZERO_DIRECTION,
    'cones.tangent_cone_intersection[arg0-+inf]': NON_FINITE,
    'cones.tangent_cone_intersection[arg0--inf]': NON_FINITE,
    'cones.tangent_cone_intersection[arg0-nan]': NON_FINITE,
    'cones.tangent_cone_intersection[arg0-shape]': SHAPE_4_NOT_3,
    'cones.tangent_cone_intersection[arg1-+inf]': NON_FINITE,
    'cones.tangent_cone_intersection[arg1--inf]': NON_FINITE,
    'cones.tangent_cone_intersection[arg1-nan]': NON_FINITE,
    'cones.tangent_cone_intersection[arg1-shape]': SHAPE_4_NOT_3,
    'cones.tangent_cone_intersection[not-null]':
        ('raises', 'ValueError', 'cones are not tangent: interval(a, b) = 1 != 0'),
    'cones.tangent_cone_intersection[same]':
        ('raises', 'ValueError', 'degenerate: the two vertices coincide'),
    'cones.tangent_cone_intersection[tol]': NEGATIVE_TOL,
    'cones.transform_line[map-dims]': SHAPE_4_NOT_3,
    'cones.transform_line[overflow]': ('raises', 'ValueError', 'the image of the event overflows'),
    'minkowski.Metric[c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'minkowski.Metric[c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'minkowski.Metric[c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'minkowski.Metric[c=1e-200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-200')),
    'minkowski.Metric[c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'minkowski.Metric[c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'minkowski.Metric[n=1]': ('raises', 'ValueError', 'dimension must be an integer >= 2, got 1'),
    'minkowski.Metric[n=2.5]':
        ('raises', 'ValueError', 'dimension must be an integer >= 2, got 2.5'),
    'minkowski.abs_inner[arg0-+inf]': NON_FINITE,
    'minkowski.abs_inner[arg0--inf]': NON_FINITE,
    'minkowski.abs_inner[arg0-nan]': NON_FINITE,
    'minkowski.abs_inner[arg0-shape]': SHAPE_5_NOT_4,
    'minkowski.abs_inner[arg1-+inf]': NON_FINITE,
    'minkowski.abs_inner[arg1--inf]': NON_FINITE,
    'minkowski.abs_inner[arg1-nan]': NON_FINITE,
    'minkowski.abs_inner[arg1-shape]': SHAPE_5_NOT_4,
    'minkowski.as_event[list-shape]':
        ('raises', 'ValueError', 'event has shape (3,), expected (4,)'),
    'minkowski.classify[arg0-+inf]': NON_FINITE,
    'minkowski.classify[arg0--inf]': NON_FINITE,
    'minkowski.classify[arg0-nan]': NON_FINITE,
    'minkowski.classify[arg0-shape]': SHAPE_5_NOT_4,
    'minkowski.classify[arg1-+inf]': NON_FINITE,
    'minkowski.classify[arg1--inf]': NON_FINITE,
    'minkowski.classify[arg1-nan]': NON_FINITE,
    'minkowski.classify[arg1-shape]': SHAPE_5_NOT_4,
    'minkowski.classify[tol]': NEGATIVE_TOL,
    'minkowski.classify[tol-and-shape]': NEGATIVE_TOL,
    'minkowski.inner[arg0-+inf]': NON_FINITE,
    'minkowski.inner[arg0--inf]': NON_FINITE,
    'minkowski.inner[arg0-nan]': NON_FINITE,
    'minkowski.inner[arg0-shape]': SHAPE_5_NOT_4,
    'minkowski.inner[arg1-+inf]': NON_FINITE,
    'minkowski.inner[arg1--inf]': NON_FINITE,
    'minkowski.inner[arg1-nan]': NON_FINITE,
    'minkowski.inner[arg1-shape]': SHAPE_5_NOT_4,
    'minkowski.interval[arg0-+inf]': NON_FINITE,
    'minkowski.interval[arg0--inf]': NON_FINITE,
    'minkowski.interval[arg0-nan]': NON_FINITE,
    'minkowski.interval[arg0-shape]': SHAPE_5_NOT_4,
    'minkowski.interval[arg1-+inf]': NON_FINITE,
    'minkowski.interval[arg1--inf]': NON_FINITE,
    'minkowski.interval[arg1-nan]': NON_FINITE,
    'minkowski.interval[arg1-shape]': SHAPE_5_NOT_4,
    'minkowski.on_null_cone[arg0-+inf]': NON_FINITE,
    'minkowski.on_null_cone[arg0--inf]': NON_FINITE,
    'minkowski.on_null_cone[arg0-nan]': NON_FINITE,
    'minkowski.on_null_cone[arg0-shape]': SHAPE_5_NOT_4,
    'minkowski.on_null_cone[arg1-+inf]': NON_FINITE,
    'minkowski.on_null_cone[arg1--inf]': NON_FINITE,
    'minkowski.on_null_cone[arg1-nan]': NON_FINITE,
    'minkowski.on_null_cone[arg1-shape]': SHAPE_5_NOT_4,
    'minkowski.on_null_cone[tol]': NEGATIVE_TOL,
    'radar.RadarScenario[delta_xbar=-1.0]':
        ('raises', 'ValueError', 'mirror separation must be positive, got -1.0'),
    'radar.RadarScenario[delta_xbar=0.0]':
        ('raises', 'ValueError', 'mirror separation must be positive, got 0.0'),
    'radar.RadarScenario[delta_xbar=inf]':
        ('raises', 'ValueError', 'mirror separation must be positive, got inf'),
    'radar.RadarScenario[delta_xbar=nan]':
        ('raises', 'ValueError', 'mirror separation must be positive, got nan'),
    'radar.RadarScenario[v=-2.0,c=2.0]': V_IS_C,
    'radar.RadarScenario[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'radar.RadarScenario[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'radar.RadarScenario[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'radar.RadarScenario[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'radar.RadarScenario[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'radar.RadarScenario[v=2.0,c=2.0]': V_IS_C,
    'radar.RadarScenario[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'radar.RadarScenario[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'radar.RadarScenario[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'radar.derive_map[v=-2.0,c=2.0]': V_IS_C,
    'radar.derive_map[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'radar.derive_map[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'radar.derive_map[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'radar.derive_map[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'radar.derive_map[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'radar.derive_map[v=2.0,c=2.0]': V_IS_C,
    'radar.derive_map[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'radar.derive_map[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'radar.derive_map[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'radar.tprime[v=-2.0,c=2.0]': V_IS_C,
    'radar.tprime[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'radar.tprime[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'radar.tprime[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'radar.tprime[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'radar.tprime[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'radar.tprime[v=2.0,c=2.0]': V_IS_C,
    'radar.tprime[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'radar.tprime[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'radar.tprime[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'radar.xprime[v=-2.0,c=2.0]': V_IS_C,
    'radar.xprime[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'radar.xprime[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'radar.xprime[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'radar.xprime[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'radar.xprime[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'radar.xprime[v=2.0,c=2.0]': V_IS_C,
    'radar.xprime[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'radar.xprime[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'radar.xprime[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
    'radar.yzprime[v=-2.0,c=2.0]': V_IS_C,
    'radar.yzprime[v=0.5,c=-1.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got -1.0'),
    'radar.yzprime[v=0.5,c=0.0]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got 0.0'),
    'radar.yzprime[v=0.5,c=1e+200]': (*C2_RANGE[:2], C2_RANGE[2].format('1e+200')),
    'radar.yzprime[v=0.5,c=inf]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got inf'),
    'radar.yzprime[v=0.5,c=nan]':
        ('raises', 'ValueError', 'invariant speed must be positive and finite, got nan'),
    'radar.yzprime[v=2.0,c=2.0]': V_IS_C,
    'radar.yzprime[v=5e-301,c=1e-300]': (*C2_RANGE[:2], C2_RANGE[2].format('1e-300')),
    'radar.yzprime[v=inf,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=inf must be < c=2.0'),
    'radar.yzprime[v=nan,c=2.0]':
        ('raises', 'ValueError', 'degenerate velocity: |v|=nan must be < c=2.0'),
}
# the nan and inf siblings of each [tol] row, and the rows of every tolerance at -1, nan and inf
EXPECTED.update({f"{row[:-4]}tol={tol}]": _bad_tol(tol)
                 for row in list(EXPECTED) if row.endswith("[tol]") for tol in (math.nan, math.inf)})
EXPECTED.update({f"{name}[tol={tol}]": _bad_tol(tol)
                 for name in ("cones.same_line", "cones.transform_line", "recover.recover_lorentz",
                              "recover.check_cone_preservation", "recover.check_collinearity",
                              "recover.check_parallelism", "recover.induced_field_map_check")
                 for tol in (-1.0, math.nan, math.inf)})


@pytest.mark.parametrize("row", sorted(ROWS))
def test_refusal_parity(row):
    fn, args = ROWS[row]
    assert _outcome(fn, args) == EXPECTED[row]


def _bits(values):
    # bit patterns, with every NaN alike
    return [float(v).hex() for v in np.ravel(values)]


_floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=500, deadline=None)
@given(st.lists(_floats, min_size=6, max_size=6))
@example([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
@example([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0])
@example([1e200, 1e200, 1e200, -1e200, 1e200, 1e200])
def test_cross_is_np_cross_bit_for_bit(xs):
    a, b = np.array(xs[:3]), np.array(xs[3:])
    with np.errstate(all="ignore"):
        assert _bits(cones._cross(a, b)) == _bits(np.cross(a, b))


@settings(max_examples=500, deadline=None)
@given(st.lists(_floats, min_size=1, max_size=6))
@example([-0.0])
@example([-0.0, -0.0])
@example([-0.0, 0.0, -0.0])
@example([2.0, 2.0, 1.0, 2.0])
@example([math.inf, -math.inf])
@example([1e308, 1e308])
@example([1.0, math.nan, 2.0, 3.0])
def test_median_is_np_median_bit_for_bit(xs):
    with np.errstate(all="ignore"):
        assert _bits(boost._median(list(xs))) == _bits(np.median(np.array(xs)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decompose_refuses_every_non_finite_entry(value):
    # a NaN ratio must reach the conformal test, not be sorted past; with numpy's
    # warnings as errors (the suite's filter), neither call may warn on the way
    for i in range(4):
        for j in range(4):
            bad = 1.5 * B
            bad[i, j] = value
            with pytest.raises(NotConformalError):
                boost.decompose_conformal(bad, M4)
            bad = B.copy()
            bad[i, j] = value
            assert boost.is_isometry(bad, M4) is False


def test_a_balanced_matrix_that_overflows_is_refused_without_a_warning():
    # D M D^-1 of this finite M overflows at c = 1e10; the suite turns numpy's
    # RuntimeWarning into an error
    corner = np.eye(4)
    corner[3, 0] = 1e300
    with pytest.raises(NotConformalError, match=r"deviation 1\.000e\+00\)$"):
        boost.decompose_conformal(corner, Metric(4, 1e10))
    assert boost.is_isometry(corner, Metric(4, 1e10)) is False


def test_transform_line_refuses_an_overflowing_image_without_a_warning():
    # the suite turns a RuntimeWarning into an error, so numpy may not warn on the way
    with pytest.raises(ValueError, match="^the image of the event overflows$"):
        cones.transform_line(HUGE3, FAR_LINE, M3)
