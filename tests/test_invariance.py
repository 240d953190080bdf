"""A change of units changes no causal class, no cone-check count and no
recovery verdict: rescaling every event by k, or measuring time in a unit
lambda times larger while c becomes lambda * c, leaves every null test where
it was."""

import math

import numpy as np
from hypothesis import example, given, settings
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


def _samples(kind, c, seed):
    cfg = GenerateConfig(kind="lorentz" if kind == "permuted" else kind, c=c, v=0.6 * c,
                         num_samples=40, seed=seed)
    s, _ = make_samples(cfg)
    return permute_images(s, seed) if kind == "permuted" else s


def _rescaled(s, k):
    grid = s.axis_grid
    return SampleSet(
        metric=s.metric, x=k * s.x, y=k * s.y, collinear=s.collinear, parallel=s.parallel,
        null_pairs=s.null_pairs, axis_grid=AxisGrid(k * grid.axis, grid.values, grid.indices),
    )


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
