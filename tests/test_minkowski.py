import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone import CausalClass, Metric, classify, inner, interval, on_null_cone
from lightcone.minkowski import abs_inner, as_event

M4 = Metric(4, 1.0)


def test_inner_single_spatial_axis():
    assert inner([1, 0, 0, 0], [1, 0, 0, 0], M4) == 1.0


def test_inner_pure_time():
    assert inner([0, 0, 0, 1], [0, 0, 0, 1], M4) == -1.0


def test_inner_pure_time_scales_with_c_squared():
    # time term carries -c^2: a unit time step weighs c^2 spatial units
    assert inner([0, 0, 0, 1], [0, 0, 0, 1], Metric(4, 2.0)) == -4.0
    assert inner([0, 0, 0, 1], [0, 0, 0, 1], Metric(4, 0.5)) == -0.25


def test_interval_zero_vector():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert interval(r, r, M4) == 0.0


def test_interval_null_separation():
    assert interval([1, 0, 0, 1], [0, 0, 0, 0], M4) == 0.0


def test_interval_hand_arithmetic():
    # 3^2 - 5^2 evaluated by hand
    assert interval([3, 0, 0, 5], [0, 0, 0, 0], M4) == 9 - 25


def test_classify_examples():
    zero = [0, 0, 0, 0]
    assert classify([1, 0, 0, 1], zero, M4, 1e-12) is CausalClass.LIGHTLIKE
    assert classify([1, 0, 0, 0], zero, M4) is CausalClass.SPACELIKE
    assert classify([0, 0, 0, 1], zero, M4) is CausalClass.TIMELIKE
    # the band has no absolute floor: a short offset, and an event at rest
    # 0.01 later with c = 1e-3
    assert classify([1e-5, 0, 0, 0], zero, M4) is CausalClass.SPACELIKE
    assert classify([0, 0, 0, 0.01], zero, Metric(4, 1e-3)) is CausalClass.TIMELIKE


def test_on_null_cone():
    zero = np.zeros(4)
    assert on_null_cone(zero, zero, M4)  # vertex on its own cone
    assert on_null_cone([1, 0, 0, 1], zero, M4)
    assert not on_null_cone([1, 0, 0, 2], zero, M4)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="shape"):
        inner([1, 0, 0], [1, 0, 0, 0], M4)
    with pytest.raises(ValueError, match="shape"):
        interval([1, 0, 0, 0, 0], [0, 0, 0, 0], M4)


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric(1, 1.0)
    with pytest.raises(ValueError):
        Metric(4, 0.0)
    with pytest.raises(ValueError):
        Metric(4, -1.0)
    with pytest.raises(ValueError):
        Metric(4, float("inf"))


def test_metric_matrix_signature():
    for n in (2, 3, 4, 6):
        for c in (0.1, 1.0, 343.0):
            eta = Metric(n, c).matrix()
            assert eta.shape == (n, n)
            for k in range(n - 1):
                assert eta[k, k] == 1.0
            assert eta[-1, -1] == -c ** 2
            assert inner(np.eye(n)[k], np.eye(n)[k], Metric(n, c)) == 1.0
            assert inner(np.eye(n)[-1], np.eye(n)[-1], Metric(n, c)) == -c ** 2


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
vec4 = st.tuples(finite, finite, finite, finite)


@given(a=finite, b=finite, r=vec4, s=vec4, t=vec4)
@example(a=42.999999999999986, b=-43.0, r=(3.0, 0, 0, 0), s=(3.0, 0, 0, 0), t=(50.0, 0, 0, 0))
@settings(max_examples=200)
def test_inner_bilinear(a, b, r, s, t):
    # rounding scales with the terms that cancel, not with the result; in
    # the subnormal range it is absolute, far below the smallest normal float
    r, s, t = np.array(r), np.array(s), np.array(t)
    lhs = inner(a * r + b * s, t, M4)
    rhs = a * inner(r, t, M4) + b * inner(s, t, M4)
    scale = abs(a) * abs_inner(r, t, M4) + abs(b) * abs_inner(s, t, M4)
    assert abs(lhs - rhs) <= 1e-12 * scale + np.finfo(float).tiny


@given(r=vec4, s=vec4)
@settings(max_examples=200)
def test_inner_symmetric_exactly(r, s):
    assert inner(r, s, M4) == inner(s, r, M4)
    assert inner(r, s, Metric(4, 343.0)) == inner(s, r, Metric(4, 343.0))


@given(lam=st.floats(min_value=0.01, max_value=1000.0), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=100)
def test_classify_scale_covariant(lam, sign):
    # separations safely outside the band keep their class under rescaling
    zero = np.zeros(4)
    for d, expected in [
        (np.array([1.0, 0, 0, 1.0]), CausalClass.LIGHTLIKE),
        (np.array([1.0, 2.0, 0, 0.5]), CausalClass.SPACELIKE),
        (np.array([0.3, 0, 0.1, 2.0]), CausalClass.TIMELIKE),
    ]:
        assert classify(sign * lam * d, zero, M4) is expected


def test_as_event_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_event([1.0, 2.0, np.nan, 0.0], M4)
