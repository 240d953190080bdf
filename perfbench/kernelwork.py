"""The ``geometry-kernel`` workload: an in-process loop over a fixed mix of
scalar calls into ``minkowski``, ``boost``, ``cones`` and ``radar``.

The verify path never calls these layers, and each call takes tens of
microseconds, most of it Python-level validation, so this is the workload
on which they do the work.  The mix is the same in every run -- the same
calls in the same order at each c in ``SPEEDS`` -- and only the values
drawn from the seed change.  About a fifth of the calls are refusals: inputs
each function must reject with its documented ``ValueError`` (a velocity
at or above c, cones that are not tangent, a non-null plane, ...).

Every expected result is built here, independently of the library, and is
checked outside the timed call.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass

import numpy as np

import oracle
from common import SPEEDS, SetupSampler, median, metric, tail
from spans import Tracer


#: Independent draws of every call per invariant speed.
VARIANTS = 4

#: Relative accuracy asked of every accepted result.
REL_TOL = 1e-9

#: Accepted calls, by span name and invariant speed, that the library gets
#: wrong.  At c = 3e8 its Euclidean tests in R^3 cannot tell a null direction
#: (the sine of its angle to space is ~1/c) from a spatial one:
#: intersect_null_planes classes a spacelike line as lightlike, and
#: plane_through_lines refuses a null/spacelike pair as dependent.  A
#: benchmark run may hold no failing operation, so these calls are kept out
#: of the timed mix; every geometry-kernel run checks them once, untimed,
#: and reports each that is still wrong.  Remove an entry once it is fixed.
KNOWN_DEFECTS = frozenset({
    ("cones.intersect_null_planes", 2.99792458e8),
    ("cones.plane_through_lines", 2.99792458e8),
})


@dataclass
class Call:
    name: str  # layer.function, the span name
    fn: object
    args: tuple
    refuse: bool
    check: object  # result -> True when correct; unused for refusals
    c: float

    @property
    def known_defect(self) -> bool:
        return not self.refuse and (self.name, self.c) in KNOWN_DEFECTS


def _own_inner(r, s, c):
    return math.fsum(float(a) * float(b) for a, b in zip(r[:-1], s[:-1])) - c ** 2 * (
        float(r[-1]) * float(s[-1]))


def _own_abs_inner(r, s, c):
    return float(np.dot(np.abs(r[:-1]), np.abs(s[:-1]))) + c ** 2 * abs(float(r[-1]) * float(s[-1]))


def _close(got, want, scale=1.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= REL_TOL * max(scale, float(np.max(np.abs(want))), 1e-300)))


def _offset(rng, n, c, ratio):
    """Offset with spatial length ``ratio * c * |dt|``: ratio 1 is null,
    below 1 timelike, above 1 spacelike; c * dt is between 1 and 10."""
    u = rng.standard_normal(n - 1)
    u /= np.linalg.norm(u)
    dt = rng.uniform(1.0, 10.0) / c
    return np.concatenate([ratio * c * dt * u, [dt]])


def _event(rng, n, c):
    scales = np.full(n, 5.0)
    scales[-1] = 5.0 / c
    return rng.uniform(-1.0, 1.0, n) * scales


def _balanced_close(L, L_ref, c):
    return _close(oracle.balanced(L, c), oracle.balanced(L_ref, c))


def _boost(v, c):
    from lightcone.boost import BoostParams, boost_x

    return boost_x(BoostParams(v, c))


class KernelWorkload:
    def __init__(self, seed: int, variants: int = VARIANTS):
        self.seed = seed
        self.variants = variants
        self.mix: list[Call] = []
        self.defects: list[Call] = []
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        calls = [
            call
            for _ in range(self.variants)
            for c in SPEEDS
            for call in self._calls(rng, c)
        ]
        self.mix = [call for call in calls if not call.known_defect]
        self.defects = [call for call in calls if call.known_defect]

    def _calls(self, rng, c: float) -> list[Call]:
        from lightcone import boost, cones, minkowski, radar

        CC = minkowski.CausalClass
        m4, m3 = minkowski.Metric(4, c), minkowski.Metric(3, c)
        calls: list[Call] = []

        def ok(name, fn, args, check):
            calls.append(Call(name, fn, args, False, check, c))

        def refuse(name, fn, args):
            calls.append(Call(name, fn, args, True, None, c))

        # minkowski: events well outside the null band, classes known by construction
        r = _event(rng, 4, c)
        for ratio, cls in ((3.0, CC.SPACELIKE), (1.0 / 3.0, CC.TIMELIKE), (1.0, CC.LIGHTLIKE)):
            ok("minkowski.classify", minkowski.classify, (r, r + _offset(rng, 4, c, ratio), m4),
               lambda got, cls=cls: got is cls)
        s = _event(rng, 4, c)
        ok("minkowski.inner", minkowski.inner, (r, s, m4),
           lambda got, r=r, s=s: _close(got, _own_inner(r, s, c), _own_abs_inner(r, s, c)))
        ok("minkowski.interval", minkowski.interval, (r, s, m4),
           lambda got, d=r - s: _close(got, _own_inner(d, d, c), _own_abs_inner(d, d, c)))
        ok("minkowski.on_null_cone", minkowski.on_null_cone, (s + _offset(rng, 4, c, 1.0), s, m4),
           lambda got: got is True)
        ok("minkowski.on_null_cone", minkowski.on_null_cone, (s + _offset(rng, 4, c, 0.3), s, m4),
           lambda got: got is False)

        # boost: matrices against the textbook formulas
        v = c * rng.uniform(-0.9, 0.9)
        B = oracle.boost_matrix(v, c)
        ok("boost.boost_x", _boost, (v, c),
           lambda got: got.alpha == 1.0 and _balanced_close(got.L, B, c) and not np.any(got.a))
        refuse("boost.boost_x", _boost, (c * rng.uniform(1.0, 1.5) * rng.choice([-1.0, 1.0]), c))
        ok("boost.is_isometry", boost.is_isometry, (B, m4), lambda got: got is True)
        ok("boost.is_isometry", boost.is_isometry, (1.5 * B, m4), lambda got: got is False)
        k = rng.uniform(0.5, 2.0)
        ok("boost.decompose_conformal", boost.decompose_conformal, (k * B, m4),
           lambda got, k=k: _close(got[0], k) and _balanced_close(got[1], B, c))
        shear = np.eye(4)
        shear[0, 1] = rng.uniform(0.3, 1.0)
        refuse("boost.decompose_conformal", boost.decompose_conformal, (shear, m4))

        B2 = oracle.boost_matrix(c * rng.uniform(-0.9, 0.9), c)
        k1, k2 = rng.uniform(0.5, 2.0, 2)
        a1, a2 = _event(rng, 4, c), _event(rng, 4, c)
        m1 = boost.AffineLorentzMap(k1, B, a1)
        m2 = boost.AffineLorentzMap(k2, B2, a2)
        e = _event(rng, 4, c)
        d = np.ones(4)
        d[-1] = c

        def by_hand(kk, L, a, x):
            return kk * (L @ x) + a

        def same_event(got, want):
            return _close(d * got, d * want, float(np.linalg.norm(d * want)))

        ok("boost.compose", boost.compose, (m1, m2),
           lambda got: same_event(by_hand(got.alpha, got.L, got.a, e),
                                  by_hand(k1, B, a1, by_hand(k2, B2, a2, e))))
        ok("boost.inverse", boost.inverse, (m1,),
           lambda got: same_event(by_hand(got.alpha, got.L, got.a, by_hand(k1, B, a1, e)), e))
        ok("boost.apply", boost.apply, (m1, e), lambda got: same_event(got, by_hand(k1, B, a1, e)))

        # cones, in three dimensions
        d3 = np.array([1.0, 1.0, c])
        o = _event(rng, 3, c)
        dn = _offset(rng, 3, c, 1.0)
        uhat = np.append(dn[:2] / np.linalg.norm(dn[:2]), 0.0)
        uperp = np.array([-uhat[1], uhat[0], 0.0])
        ok("cones.tangent_cone_intersection", cones.tangent_cone_intersection, (o, o + dn, m3),
           lambda got: got.causal_class is CC.LIGHTLIKE and np.array_equal(got.point, o)
           and _close(got.direction, dn))
        refuse("cones.tangent_cone_intersection", cones.tangent_cone_intersection,
               (o, o + _offset(rng, 3, c, 0.3), m3))

        null_line = cones.Line(o, dn, CC.LIGHTLIKE)
        ok("cones.null_plane_through", cones.null_plane_through, (null_line, m3),
           lambda got: got.causal_class is CC.LIGHTLIKE and np.array_equal(got.point, o)
           and all(abs(_own_inner(w, dn, c)) <= REL_TOL * _own_abs_inner(w, dn, c) for w in got.span)
           and abs(np.dot(got.span[0], got.span[1])) < np.linalg.norm(got.span[0]) * np.linalg.norm(got.span[1]))
        s1, s2 = rng.uniform(0.5, 2.0, 2)
        ok("cones.on_null_plane_by_characterization", cones.on_null_plane_by_characterization,
           (o + s1 * dn + s2 * 3.0 * uperp, null_line, m3), lambda got: got is True)
        ok("cones.on_null_plane_by_characterization", cones.on_null_plane_by_characterization,
           (o + _offset(rng, 3, c, 0.3), null_line, m3), lambda got: got is False)

        # two null planes through o, tangent to its cone along opposite spatial directions
        d1 = np.append(c * uhat[:2], 1.0) * rng.uniform(1.0, 3.0) / c
        d2 = np.append(-c * uhat[:2], 1.0) * rng.uniform(1.0, 3.0) / c
        P1 = cones.Plane(o, (d1, np.array([-d1[1], d1[0], 0.0])), CC.LIGHTLIKE)
        P2 = cones.Plane(o, (d2, np.array([-d2[1], d2[0], 0.0])), CC.LIGHTLIKE)

        def on_both(got):
            w = got.point - o
            return got.causal_class is CC.SPACELIKE and all(
                abs(_own_inner(x, dd, c)) <= REL_TOL * max(1.0, _own_abs_inner(x, dd, c))
                for dd in (d1, d2) for x in (w, got.direction))

        # at c = 3e8 the accepted call of this and of plane_through_lines below
        # are known defects, checked outside the timed mix (see KNOWN_DEFECTS)
        ok("cones.intersect_null_planes", cones.intersect_null_planes, (P1, P2, m3), on_both)
        timelike_plane = cones.Plane(o, (uhat, np.array([0.0, 0.0, 1.0 / c])), CC.TIMELIKE)
        refuse("cones.intersect_null_planes", cones.intersect_null_planes, (P1, timelike_plane, m3))

        space_line = cones.Line(o + 2.5 * uhat, uhat, CC.SPACELIKE)
        ok("cones.plane_through_lines", cones.plane_through_lines, (null_line, space_line, m3),
           lambda got: got.causal_class is CC.TIMELIKE
           and _close(d3 * got.point, d3 * o, float(np.linalg.norm(d3 * o)) + 1.0))
        refuse("cones.plane_through_lines", cones.plane_through_lines,
               (null_line, cones.Line(o + uperp, 2.0 * dn, CC.LIGHTLIKE), m3))
        for span, cls in (
            ((uhat, np.array([0.0, 0.0, 1.0 / c])), CC.TIMELIKE),
            ((uhat, uperp), CC.SPACELIKE),
            ((dn, uperp), CC.LIGHTLIKE),
        ):
            ok("cones.classify_plane", cones.classify_plane, (cones.Plane(o, span, cls), m3),
               lambda got, cls=cls: got is cls)

        # radar: the light clock and the map it derives
        vr = c * rng.uniform(-0.9, 0.9)
        dx, t0 = rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0) / c
        t1 = t0 + dx / (c - vr)
        t2 = t1 + dx / (c + vr)

        def clock_ok(got):
            return (_close(got.t1, t1) and _close(got.t2, t2)
                    and _close(got.tprime1, 0.5 * (got.tprime0 + got.tprime2),
                               abs(got.tprime0) + abs(got.tprime2)))

        ok("radar.light_clock", radar.light_clock, (radar.RadarScenario(vr, c, dx, t0),), clock_ok)
        ok("radar.derive_map", radar.derive_map, (vr, c),
           lambda got, B=oracle.boost_matrix(vr, c): _balanced_close(got.L, B, c))
        refuse("radar.derive_map", radar.derive_map, (c * rng.uniform(1.0, 1.5), c))
        return calls

    # -- runs ---------------------------------------------------------------

    def _error(self, call: Call, result, exc) -> str | None:
        if call.refuse:
            return None if isinstance(exc, ValueError) else f"expected a ValueError, got {exc!r}"
        if exc is not None:
            return f"raised {exc!r}"
        try:
            return None if call.check(result) else f"wrong result {result!r}"
        except Exception as check_exc:  # a malformed result is a failed call
            return f"result failed the check: {check_exc!r}"

    def _record(self, call: Call, result, exc) -> None:
        self.attempted += 1
        err = self._error(call, result, exc)
        if err:
            self.failures.append(f"{call.name} at c={call.c:g}: {err}")

    def known_defects(self) -> list[tuple[str, str | None]]:
        """Each known defect of the built mix, called once and untimed:
        ``(call, error)``, where error is None once the library gets it right."""
        out = []
        for call in self.defects:
            _, result, exc = self._timed(call.fn, call.args)
            out.append((f"{call.name} at c={call.c:g}", self._error(call, result, exc)))
        return out

    def _timed(self, fn, args):
        start = time.perf_counter()
        try:
            result, exc = fn(*args), None
        except Exception as e:
            result, exc = None, e
        return time.perf_counter() - start, result, exc

    def untraced(self, seconds: float) -> dict:
        """Passes over the mix for ``seconds``.  Each call of the mix is
        summarized by its fastest timing over the passes: on a shared
        machine contention slows most timings by a varying amount, and the
        fastest is the steadiest figure of what the call costs.  The medians,
        the tail and the throughput are taken over those per-call figures."""
        setups = SetupSampler(self.setup, seconds)
        # only the running minimum is kept, so memory does not grow with the run
        per_call = [float("inf")] * len(self.mix)
        passes = 0
        start = time.perf_counter()
        while True:
            for i, call in enumerate(self.mix):
                wall, result, exc = self._timed(call.fn, call.args)
                per_call[i] = min(per_call[i], wall)
                self._record(call, result, exc)
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
            setups.poll()
        accept = [t for call, t in zip(self.mix, per_call) if not call.refuse]
        refuse = [t for call, t in zip(self.mix, per_call) if call.refuse]
        tail_value, tail_pct, tail_n = tail(per_call)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "metrics": {
                "accept_s": metric(median(accept), "s"),
                "refuse_s": metric(median(refuse), "s"),
                "tail_s": metric(tail_value, "s"),
                # calls per second through one pass of the mix
                "throughput_per_s": metric(len(per_call) / sum(per_call), "1/s"),
                "peak_rss_mb": metric(rss, "MB"),
                "setup_s": metric(setups.median(), "s"),
            },
            "notes": {
                "tail": f"p{tail_pct:.1f} of {tail_n} calls in the mix",
                "passes": passes,
                "set-ups timed": len(setups.walls),
            },
        }

    def traced(self, seconds: float) -> dict:
        """Each call plain and through a span, the first of the two
        alternating between passes.  A layer's figure is the median, over
        the mix's accepted calls of that function, of each call's fastest
        span."""
        self.setup()
        tracer = Tracer()
        wrapped = [tracer.wrap(call.fn, call.name) for call in self.mix]
        walls = {False: 0.0, True: 0.0}  # by traced
        start = time.perf_counter()
        passes = 0
        while True:
            order = (False, True) if passes % 2 == 0 else (True, False)
            for call, fn in zip(self.mix, wrapped):
                for traced in order:
                    wall, result, exc = self._timed(fn if traced else call.fn, call.args)
                    walls[traced] += wall
                    self._record(call, result, exc)
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
        by_name: dict[str, list[float]] = {}
        for i, call in enumerate(self.mix):
            if not call.refuse:
                fastest = min(s["end"] - s["start"] for s in tracer.spans[i::len(self.mix)])
                by_name.setdefault(call.name, []).append(fastest)
        metrics = {f"{name}_us": metric(1e6 * median(d), "us") for name, d in by_name.items()}
        metrics["trace.overhead_frac"] = metric(walls[True] / walls[False] - 1.0, "ratio")
        return {"metrics": metrics, "spans": {"timed": tracer.exported()}}
