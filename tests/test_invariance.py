"""A change of units changes no causal class, no check's count and no
recovery verdict: rescaling every event by k, or measuring time in a unit
lambda times larger while c becomes lambda * c, leaves every null test, and
every Euclidean test of the balanced frame, where it was."""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightcone import (
    AxisGrid,
    CausalClass,
    GenerateConfig,
    Metric,
    SampleSet,
    check_cone_preservation,
    classify,
    make_samples,
    permute_images,
    recover_lorentz,
)

SPEEDS = (1e-3, 0.1, 1.0, 343.0, 2.99792458e8)
FOUR_SPEEDS = SPEEDS[1:]
KINDS = ("lorentz", "translation", "cubing", "shear", "permuted", "time-perturbed")


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _pairs(draw):
    """(r, s, c, class) with s - r of spatial length ratio * c * |dt|: ratio
    exactly 1 is null, 1 - delta timelike and 1 + delta spacelike, with
    delta >= 1e-6, so at least 1000 band widths from null.  Both events have
    the size of the offset."""
    n = draw(st.integers(2, 5))
    c = draw(_log_uniform(1e-3, 3e8))
    size = draw(_log_uniform(1e-6, 1e6))  # c * |dt|
    ratio, cls = draw(st.one_of(
        st.just((1.0, CausalClass.LIGHTLIKE)),
        _log_uniform(1e-6, 1.0).map(lambda q: (1.0 - q, CausalClass.TIMELIKE)),
        _log_uniform(1e-6, 10.0).map(lambda q: (1.0 + q, CausalClass.SPACELIKE)),
    ))
    unit = st.floats(-1.0, 1.0)
    u = np.array(draw(st.lists(unit, min_size=n - 1, max_size=n - 1).filter(
        lambda v: math.hypot(*v) > 0.1)))
    offset = np.append(ratio * size * u / np.linalg.norm(u), draw(st.sampled_from((-1.0, 1.0))) * size / c)
    r = size * np.array(draw(st.lists(unit, min_size=n, max_size=n))) / ((1.0,) * (n - 1) + (c,))
    return r, r + offset, c, cls


@settings(max_examples=200, deadline=None)
@given(pair=_pairs(), k=_log_uniform(1e-6, 1e6))
def test_classify_unchanged_by_rescaling(pair, k):
    r, s, c, cls = pair
    m = Metric(len(r), c)
    assert classify(k * r, k * s, m) is classify(r, s, m) is cls


@settings(max_examples=200, deadline=None)
@given(pair=_pairs(), c_new=_log_uniform(1e-3, 3e8))
def test_classify_unchanged_by_the_unit_of_time(pair, c_new):
    # t -> t / lam and c -> lam * c leave c * t, hence every interval, as it was
    r, s, c, cls = pair
    lam = c_new / c
    r_new, s_new = r.copy(), s.copy()
    r_new[-1] /= lam
    s_new[-1] /= lam
    assert classify(r_new, s_new, Metric(len(r), c_new)) is classify(r, s, Metric(len(r), c)) is cls


def _samples(kind, c, seed, num_samples=40):
    """A generated sample, ``noisy-lorentz`` at noise 1e-6; ``permuted`` scrambles a
    lorentz sample's images and ``time-perturbed`` adds to its image times noise of
    1 % of their spread."""
    own = kind not in ("permuted", "time-perturbed")
    cfg = GenerateConfig(kind=kind if own else "lorentz", c=c, v=0.6 * c,
                         num_samples=num_samples, seed=seed,
                         noise=1e-6 if kind == "noisy-lorentz" else 0.0)
    s, _ = make_samples(cfg)
    if kind == "permuted":
        return permute_images(s, seed)
    if kind == "time-perturbed":
        y = s.y.copy()
        t = y[:, -1]
        t += 0.01 * np.ptp(t) * np.random.default_rng(seed).standard_normal(len(t))
        return dataclasses.replace(s, y=y)
    return s


def _transformed(s, scale, c):
    # every event, the axis grid's axis included, times the vector scale, at speed c
    grid = s.axis_grid
    return SampleSet(
        metric=Metric(s.metric.n, c), x=scale * s.x, y=scale * s.y, collinear=s.collinear,
        parallel=s.parallel,
        axis_grid=AxisGrid(scale * grid.axis, grid.values, grid.indices),
    )


def _rescaled(s, k):
    return _transformed(s, np.full(s.metric.n, k), s.metric.c)


def _retimed(s, lam):
    # t -> t / lam, c -> lam * c
    return _transformed(s, np.append(np.ones(s.metric.n - 1), 1.0 / lam), lam * s.metric.c)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(("lorentz", "translation", "cubing", "shear", "permuted")),
       c=st.sampled_from(SPEEDS), seed=st.integers(0, 3), k=_log_uniform(1e-6, 1e6))
def test_cone_check_counts_unchanged_by_rescaling(kind, c, seed, k):
    s = _samples(kind, c, seed)

    def counts(res):
        return res.violations, res.indeterminate, res.bijectivity_violations

    assert counts(check_cone_preservation(_rescaled(s, k))) == counts(check_cone_preservation(s))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(("lorentz", "translation", "cubing", "shear")),
       c=st.sampled_from(SPEEDS), seed=st.integers(0, 3), k=_log_uniform(1e-6, 1e6))
@example(kind="lorentz", c=2.99792458e8, seed=0, k=1e-6)
@example(kind="translation", c=2.99792458e8, seed=0, k=2.0 ** -20)
def test_recovery_verdict_unchanged_by_rescaling(kind, c, seed, k):
    # the time column of the fit is ~1/c of the others; its rank must not
    # depend on the unit of length
    s = _samples(kind, c, seed)
    accepted = recover_lorentz(s).recovered is not None
    assert accepted is (kind in ("lorentz", "translation"))
    assert (recover_lorentz(_rescaled(s, k)).recovered is not None) is accepted


def _gate_outcomes(s):
    # what the cone and marker checks, the field-map line test, the fit gate and the
    # decomposition decide: counts, bools and the failure kind before its ":"
    rep = recover_lorentz(s)
    cone, failure = rep.cone, rep.failure and rep.failure.split(":")[0]
    return (cone.violations, cone.indeterminate, cone.bijectivity_violations,
            rep.collinearity.violations, rep.parallelism.violations,
            rep.field_map.line_preserved, rep.max_residual > rep.fit_threshold, failure)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), c=st.sampled_from(SPEEDS), seed=st.integers(0, 3),
       k=_log_uniform(1e-6, 1e6), lam=_log_uniform(1e-4, 1e4))
@example(kind="time-perturbed", c=1.0, seed=0, k=1.0, lam=2.99792458e8)
def test_marker_checks_and_fit_gate_unchanged_by_units(kind, c, seed, k, lam):
    s = _samples(kind, c, seed)
    want = _gate_outcomes(s)
    assert _gate_outcomes(_rescaled(s, k)) == want
    assert _gate_outcomes(_retimed(s, lam)) == want


def _one_side_scaled(s, k, side):
    # y -> k y, or x -> k x with the axis grid's axis: a conformal factor of k or 1 / k
    if side == "y":
        return dataclasses.replace(s, y=k * s.y)
    grid = dataclasses.replace(s.axis_grid, axis=k * s.axis_grid.axis)
    return dataclasses.replace(s, x=k * s.x, axis_grid=grid)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), c=st.sampled_from(FOUR_SPEEDS), seed=st.integers(0, 3),
       k=_log_uniform(1e-6, 1e6), side=st.sampled_from(("x", "y")))
@example(kind="permuted", c=1.0, seed=0, k=1e-6, side="y")
@example(kind="shear", c=2.99792458e8, seed=0, k=1e6, side="x")
def test_gate_outcomes_unchanged_by_the_conformal_factor(kind, c, seed, k, side):
    # cone preservation fixes a map only up to a positive factor, so no gate may see it;
    # the fit threshold is taken from the image, in the residual's units
    s = _samples(kind, c, seed)
    assert _gate_outcomes(_one_side_scaled(s, k, side)) == _gate_outcomes(s)


@pytest.mark.parametrize("c", FOUR_SPEEDS)
def test_time_perturbation_refused_at_every_speed(c):
    # 1 % of the image time spread moves every marker off its line and direction
    # and the fit off the model, at every c alike
    rep = recover_lorentz(_samples("time-perturbed", c, seed=0, num_samples=200))
    assert rep.collinearity.violations == rep.collinearity.checked == 4
    assert rep.parallelism.violations == rep.parallelism.checked == 3
    assert rep.max_residual > rep.fit_threshold
    assert rep.recovered is None


@functools.lru_cache(maxsize=None)
def _sample_and_report(kind, c, seed):
    s = _samples(kind, c, seed)
    return s, recover_lorentz(s)


def _exactly_scaled(s, ex, ey):
    # x and the grid's axis times 2^ex, y times 2^ey; None where a product is not exact
    grid = s.axis_grid
    with np.errstate(over="ignore"):
        x, axis, y = (np.ldexp(p, e) for p, e in ((s.x, ex), (grid.axis, ex), (s.y, ey)))
    if not all(np.array_equal(np.ldexp(q, -e), p)
               for q, p, e in ((x, s.x, ex), (axis, grid.axis, ex), (y, s.y, ey))):
        return None
    return SampleSet(s.metric, x, y, s.collinear, s.parallel,
                     AxisGrid(axis, grid.values, grid.indices))


def _ratios(rep):
    # what a report states that is a ratio or a count: every bit of it is scale-free
    L = None if rep.recovered is None else rep.recovered.L.tobytes()
    return repr((rep.cone, rep.collinearity, rep.parallelism, rep.field_map, rep.failure,
                 rep.single_cone_counterexamples)), L


def _normal_equal(got, want):
    # equal wherever the value is a normal float: a subnormal one has lost bits
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    normal = ~(np.abs(want) < sys.float_info.min)
    return np.array_equal(got[normal], want[normal])


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("lorentz", "translation", "cubing", "shear", "noisy-lorentz",
                             "permuted")),
       c=st.sampled_from(FOUR_SPEEDS), seed=st.integers(0, 1), e=st.integers(-1000, 1000),
       sides=st.sampled_from(("xy", "x", "y")))
@example(kind="lorentz", c=1.0, seed=0, e=700, sides="xy")
@example(kind="lorentz", c=343.0, seed=1, e=-1000, sides="xy")
@example(kind="lorentz", c=1.0, seed=0, e=900, sides="y")
@example(kind="translation", c=2.99792458e8, seed=0, e=-900, sides="x")
def test_report_unchanged_by_a_power_of_two_at_every_scale(kind, c, seed, e, sides):
    # each side is checked at its own power of two, so an exact rescaling by 2^e anywhere in
    # the float range changes no bit of any count, residual ratio, field map or L, and
    # scales alpha, a, the residual and the fit threshold by exactly the powers it implies
    s, want = _sample_and_report(kind, c, seed)
    ex, ey = e * ("x" in sides), e * ("y" in sides)
    scaled = _exactly_scaled(s, ex, ey)
    assume(scaled is not None)
    got = recover_lorentz(scaled)
    assert _ratios(got) == _ratios(want)
    with np.errstate(over="ignore"):
        assert _normal_equal(got.max_residual, np.ldexp(want.max_residual, ey))
        assert _normal_equal(got.fit_threshold, np.ldexp(want.fit_threshold, ey))
        if want.recovered is not None:
            assert _normal_equal(got.recovered.alpha, np.ldexp(want.recovered.alpha, ey - ex))
            assert _normal_equal(got.recovered.a, np.ldexp(want.recovered.a, ey))
