import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightcone import (
    BoostParams,
    RadarScenario,
    boost_x,
    comoving,
    derive_map,
    light_clock,
    scale_factor,
    tprime,
    xprime,
    yzprime,
)
from lightcone import radar
from lightcone.boost import apply, check_velocity

SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)


def test_comoving():
    assert comoving(0.8 * 2.0, 2.0, 0.8) == 0.0  # x = v t is at rest
    assert comoving(3.0, 2.0, 1.0) == 1.0
    assert comoving(7.5, 2.0, 0.0) == 7.5


def test_light_clock_rest_frame():
    tl = light_clock(RadarScenario(v=0.0, c=1.0, delta_xbar=1.0, t0=0.0))
    assert (tl.t0, tl.t1, tl.t2) == (0.0, 1.0, 2.0)


def test_light_clock_chasing_the_mirror():
    # outbound 1/(1-0.5) = 2, return 1/(1+0.5) = 2/3
    tl = light_clock(RadarScenario(v=0.5, c=1.0, delta_xbar=1.0, t0=0.0))
    assert tl.t1 == 2.0
    assert tl.t2 == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-15)


def test_light_clock_sound_convention():
    tl = light_clock(RadarScenario(v=0.5, c=343.0, delta_xbar=343.0, t0=0.0))
    assert tl.t1 == pytest.approx(343.0 / 342.5, rel=1e-15)


def test_light_clock_rejects_bad_scenarios():
    with pytest.raises(ValueError):
        RadarScenario(v=1.0, c=1.0)
    with pytest.raises(ValueError):
        RadarScenario(v=0.5, c=1.0, delta_xbar=0.0)
    with pytest.raises(ValueError):
        RadarScenario(v=0.5, c=-1.0)


@settings(max_examples=500, deadline=None)
@given(beta=st.floats(-1.0, 1.0), c=st.floats(1e-160, 1e160),
       delta_xbar=st.floats(0.0, allow_infinity=False), t0=st.floats(allow_nan=False, allow_infinity=False))
@example(beta=0.6, c=1e100, delta_xbar=1.0, t0=1e300)  # x = v t0 overflows
@example(beta=0.5, c=1.0, delta_xbar=1e308, t0=0.0)  # t1 = delta_xbar / (c - v) overflows
def test_an_admitted_scenario_has_a_finite_record_or_is_refused(beta, c, delta_xbar, t0):
    # every finite scenario the check admits is refused by the clock, or its record is finite
    try:
        sc = RadarScenario(v=beta * c, c=c, delta_xbar=delta_xbar, t0=t0)
    except ValueError:
        assume(False)
    try:
        tl = light_clock(sc)
    except ValueError:
        return
    record = (tl.t0, tl.t1, tl.t2, tl.tprime0, tl.tprime1, tl.tprime2, *tl.x, *tl.xprime)
    assert all(map(math.isfinite, record)), record


def test_radar_shares_the_boost_velocity_margin():
    # a speed a hair below c is degenerate for every entry point, not just BoostParams
    v = 1.0 - 1e-14
    for build in (
        BoostParams,
        RadarScenario,
        derive_map,
        lambda v: tprime(0.0, 1.0, v),
        lambda v: xprime(1.0, v),
        lambda v: yzprime(1.0, v),
    ):
        with pytest.raises(ValueError, match="degenerate velocity"):
            build(v)


def test_tprime_comoving_clock():
    assert tprime(0.0, 3.5, 0.6, 1.0, 0.8) == 0.8 * 3.5


def test_tprime_no_motion():
    for xbar in (0.0, 5.0, -2.0):
        assert tprime(xbar, 3.5, 0.0, 1.0, 1.0) == 3.5


def test_tprime_hand_value_and_boost_cross_check():
    # 0.8 * (0 - 0.6/0.64) = -0.75, and the boost applied to the event
    # (x = xbar + v t = 1, t = 0) gives the same moving-frame time
    val = tprime(1.0, 0.0, 0.6, 1.0, 0.8)
    assert val == pytest.approx(0.8 * (-0.6 / 0.64), rel=1e-15)
    assert val == pytest.approx(-0.75, rel=1e-15)
    image = apply(boost_x(BoostParams(0.6, 1.0)), [1.0, 0.0, 0.0, 0.0])
    assert val == pytest.approx(image[3], rel=1e-14)


def test_xprime_values():
    assert xprime(0.0, 0.6, 1.0, 0.8) == 0.0
    assert xprime(4.2, 0.0, 1.0, 1.0) == 4.2
    # 0.8 / 0.64 = 1.25 = gamma * xbar, matching the boost entry
    assert xprime(1.0, 0.6, 1.0, 0.8) == pytest.approx(1.25, rel=1e-15)
    assert xprime(1.0, 0.6, 1.0, 0.8) == pytest.approx(
        boost_x(BoostParams(0.6, 1.0)).L[0, 0], rel=1e-14
    )


def test_yzprime_values():
    v, c = 0.6, 1.0
    # with the normalized scale the transverse coordinates are untouched
    assert yzprime(3.3, v, c, scale_factor(v, c)) == pytest.approx(3.3, rel=1e-15)
    assert yzprime(0.0, v, c, 1.0) == 0.0
    assert yzprime(1.0, v, c, 1.0) == pytest.approx(1.0 / math.sqrt(0.64), rel=1e-15)
    assert yzprime(1.0, v, c, 1.0) == pytest.approx(1.25, rel=1e-15)


def test_derive_map_rest_frame_is_identity():
    np.testing.assert_allclose(derive_map(0.0, 1.0).L, np.eye(4), atol=0)


def test_derive_map_matches_boost():
    D = derive_map(0.6, 1.0).L
    B = boost_x(BoostParams(0.6, 1.0)).L
    np.testing.assert_allclose(D, B, rtol=0, atol=1e-15)


def test_derive_map_validates_once(monkeypatch):
    calls = []

    def counting(v, c):
        calls.append((v, c))
        return check_velocity(v, c)

    monkeypatch.setattr(radar, "check_velocity", counting)
    derive_map(0.6, 1.0)
    assert len(calls) == 1


def test_derive_map_equals_the_checked_closed_forms():
    # the unchecked bodies evaluate exactly what the public closed forms do
    rng = np.random.default_rng(24)
    for _ in range(2000):
        c = float(10.0 ** rng.uniform(-3, 9))
        v = float(rng.uniform(-0.999, 0.999)) * c
        alpha = scale_factor(v, c)
        L = np.zeros((4, 4))
        for j in range(4):
            x, y, z, t = np.eye(4)[j]
            xbar = comoving(x, t, v)
            L[:, j] = (xprime(xbar, v, c, alpha), yzprime(y, v, c, alpha),
                       yzprime(z, v, c, alpha), tprime(xbar, t, v, c, alpha))
        assert np.array_equal(derive_map(v, c).L, L)


def test_light_clock_validates_once(monkeypatch):
    # the scenario checks its velocity at construction; the clock runs unchecked
    sc = RadarScenario(v=0.6, c=1.0, delta_xbar=2.0, t0=0.5)
    calls = []

    def counting(v, c):
        calls.append((v, c))
        return check_velocity(v, c)

    monkeypatch.setattr(radar, "check_velocity", counting)
    light_clock(sc)
    assert calls == []


def test_light_clock_equals_the_checked_closed_forms():
    rng = np.random.default_rng(25)
    for _ in range(2000):
        c = float(10.0 ** rng.uniform(-3, 9))
        v = float(rng.uniform(-0.999, 0.999)) * c
        sc = RadarScenario(v=v, c=c, delta_xbar=float(rng.uniform(0.1, 10.0)),
                           t0=float(rng.uniform(-5.0, 5.0)))
        tl = light_clock(sc)
        alpha = scale_factor(v, c)
        expected = (tprime(0.0, tl.t0, v, c, alpha),
                    tprime(sc.delta_xbar, tl.t1, v, c, alpha),
                    tprime(0.0, tl.t2, v, c, alpha))
        got = (tl.tprime0, tl.tprime1, tl.tprime2)
        assert [x.hex() for x in map(float, got)] == [x.hex() for x in map(float, expected)]
        # each event's x in both frames: the mirror at xbar = delta_xbar, the source at 0
        expected = tuple(xprime(xbar, v, c, alpha) for xbar in (0.0, sc.delta_xbar, 0.0))
        assert [x.hex() for x in tl.xprime] == [x.hex() for x in expected]
        expected = (v * tl.t0, sc.delta_xbar + v * tl.t1, v * tl.t2)
        assert [x.hex() for x in tl.x] == [x.hex() for x in expected]


def test_derive_map_velocity_reversal_inverts():
    P = derive_map(0.6, 1.0).L @ derive_map(-0.6, 1.0).L
    np.testing.assert_allclose(P, np.eye(4), atol=1e-14)


def test_synchronization_convention_sweep():
    # the reflection time is the arithmetic mean of emission and return
    rng = np.random.default_rng(21)
    for _ in range(100):
        c = rng.choice(SPEEDS)
        sc = RadarScenario(
            v=rng.uniform(-0.9, 0.9) * c,
            c=c,
            delta_xbar=rng.uniform(0.1, 10.0),
            t0=rng.uniform(-5.0, 5.0),
        )
        tl = light_clock(sc)
        assert tl.t0 < tl.t1 < tl.t2
        mid = 0.5 * (tl.tprime0 + tl.tprime2)
        scale = max(abs(tl.tprime0), abs(tl.tprime1), abs(tl.tprime2), 1e-300)
        assert abs(tl.tprime1 - mid) <= 1e-10 * scale


def test_outbound_return_asymmetry():
    rng = np.random.default_rng(22)
    for _ in range(100):
        c = rng.choice(SPEEDS)
        v = rng.uniform(-0.9, 0.9) * c
        sc = RadarScenario(v=v, c=c, delta_xbar=rng.uniform(0.1, 10.0), t0=0.0)
        tl = light_clock(sc)
        ratio = (tl.t1 - tl.t0) / (tl.t2 - tl.t1)
        assert ratio == pytest.approx((c + v) / (c - v), rel=1e-12)


def test_convention_invariance_of_structure():
    # identical spectrum of identities for every choice of the speed
    rng = np.random.default_rng(23)
    for c in SPEEDS:
        for _ in range(25):
            v = rng.uniform(-0.99, 0.99) * c
            D = derive_map(v, c).L
            B = boost_x(BoostParams(v, c)).L
            scale = np.maximum(1.0, np.abs(B))
            assert np.all(np.abs(D - B) <= 1e-12 * scale)
            tl = light_clock(RadarScenario(v=v, c=c, delta_xbar=1.0, t0=0.0))
            mid = 0.5 * (tl.tprime0 + tl.tprime2)
            scale_t = max(abs(tl.tprime1), abs(tl.tprime2), 1e-300)
            assert abs(tl.tprime1 - mid) <= 1e-10 * scale_t
