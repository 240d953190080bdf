import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightcone import (
    AffineLorentzMap,
    BoostParams,
    Metric,
    NotConformalError,
    SignatureError,
    apply,
    boost_x,
    compose,
    decompose_conformal,
    gamma,
    general_boost,
    identity_map,
    interval,
    inverse,
    is_isometry,
    scale_constraint_check,
    scale_factor,
)

from lightcone.boost import _balanced_gram
from lightcone.minkowski import _balanced, _frame

M4 = Metric(4, 1.0)

#: the speeds used as conventions throughout the suite
SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)


def rel_close(A, B, tol):
    A, B = np.asarray(A, float), np.asarray(B, float)
    scale = np.maximum(1.0, np.maximum(np.abs(A), np.abs(B)))
    return bool(np.all(np.abs(A - B) <= tol * scale))


def test_boost_zero_velocity_is_identity():
    np.testing.assert_array_equal(boost_x(BoostParams(0.0)).L, np.eye(4))


def test_boost_entries_hand_evaluated():
    # gamma = 1/sqrt(1 - 0.36) = 1.25 by scalar arithmetic
    g = 1.0 / math.sqrt(1.0 - 0.6 ** 2)
    assert g == 1.25
    b = boost_x(BoostParams(0.6, 1.0))
    assert b.alpha == 1.0
    assert np.all(b.a == 0.0)
    assert b.L[0, 0] == 1.25 and b.L[3, 3] == 1.25
    assert b.L[0, 3] == -0.75 and b.L[3, 0] == -0.75
    np.testing.assert_array_equal(b.L[1:3, :], np.eye(4)[1:3, :])


def test_boost_sound_speed_convention():
    # gamma for v=0.5, c=343 evaluated in closed form
    b = boost_x(BoostParams(0.5, 343.0))
    expected = 1.0 / math.sqrt(1.0 - (0.5 / 343.0) ** 2)
    assert b.L[0, 0] == expected
    assert b.L[3, 3] == expected
    assert b.L[0, 3] == -0.5 * expected
    assert b.L[3, 0] == pytest.approx(-0.5 * expected / 343.0 ** 2, rel=1e-15)


def test_degenerate_velocity_rejected():
    for v, c in [(1.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (343.0, 343.0)]:
        with pytest.raises(ValueError, match="degenerate velocity"):
            boost_x(BoostParams(v, c))


def test_general_boost_normalized_scale_recovers_boost():
    for v, c in [(0.6, 1.0), (-0.3, 1.0), (100.0, 343.0)]:
        p = BoostParams(v, c)
        np.testing.assert_allclose(
            general_boost(p, scale_factor(v, c)), boost_x(p).L, rtol=1e-15, atol=0
        )


def test_general_boost_rest_frame():
    np.testing.assert_array_equal(general_boost(BoostParams(0.0), 2.0), 2.0 * np.eye(4))


def test_general_boost_unit_scale_gamma_squared():
    # alpha=1 leaves the overall gamma unabsorbed: entry (0,0) is gamma^2
    G = general_boost(BoostParams(0.6, 1.0), 1.0)
    assert G[0, 0] == pytest.approx(1.0 / (1.0 - 0.36), rel=1e-15)
    assert G[0, 0] == pytest.approx(1.5625, rel=1e-15)


def test_scale_constraint():
    for v, c in [(0.6, 1.0), (0.99, 1.0), (300.0, 343.0)]:
        p = BoostParams(v, c)
        a = scale_factor(v, c)
        assert scale_constraint_check(a, scale_factor(-v, c), p)
    assert scale_constraint_check(1.0, 1.0, BoostParams(0.0))
    # product 1 != 0.64
    assert not scale_constraint_check(1.0, 1.0, BoostParams(0.6, 1.0))


def test_apply_identity_and_translation():
    e = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(apply(identity_map(4), e), e)
    t = AffineLorentzMap(1.0, np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(apply(t, np.zeros(4)), [1.0, 2.0, 3.0, 4.0])


def test_apply_boost_hand_product():
    # matrix-vector product by hand: row picks (L14, 0, 0, L44)
    out = apply(boost_x(BoostParams(0.6, 1.0)), [0, 0, 0, 1])
    np.testing.assert_array_equal(out, [-0.75, 0.0, 0.0, 1.25])


def test_compose_boost_with_inverse_velocity():
    for v in (0.1, 0.6, 0.95):
        m = compose(boost_x(BoostParams(v)), boost_x(BoostParams(-v)))
        assert abs(m.alpha - 1.0) < 1e-15
        np.testing.assert_allclose(m.L, np.eye(4), atol=1e-12)


def test_compose_identity_neutral():
    b = boost_x(BoostParams(0.4))
    m = compose(b, identity_map(4))
    assert m.alpha == b.alpha
    np.testing.assert_array_equal(m.L, b.L)
    np.testing.assert_array_equal(m.a, b.a)


def test_compose_translations_add():
    t1 = AffineLorentzMap(1.0, np.eye(4), np.array([1.0, 0, 0, 2.0]))
    t2 = AffineLorentzMap(1.0, np.eye(4), np.array([0.5, 3.0, 0, -1.0]))
    np.testing.assert_array_equal(compose(t1, t2).a, [1.5, 3.0, 0.0, 1.0])


def test_inverse_examples():
    ident = identity_map(4)
    inv = inverse(ident)
    np.testing.assert_array_equal(inv.L, np.eye(4))
    assert inv.alpha == 1.0

    b = boost_x(BoostParams(0.6))
    np.testing.assert_allclose(inverse(b).L, boost_x(BoostParams(-0.6)).L, atol=1e-15)

    t = AffineLorentzMap(1.0, np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(inverse(t).a, [-1.0, -2.0, -3.0, -4.0])

    singular = AffineLorentzMap(1.0, np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros(4))
    with pytest.raises(ValueError, match="singular"):
        inverse(singular)


def test_overflowing_products_are_refused_without_a_warning():
    # the suite turns RuntimeWarning into an error, so numpy's overflow warning would fail here
    big = AffineLorentzMap(1.0, 1e200 * np.eye(4), np.zeros(4))
    with pytest.raises(ValueError, match="map has non-finite entries"):
        compose(big, big)
    with pytest.raises(ValueError, match="map has non-finite entries"):
        inverse(AffineLorentzMap(1e-300, np.eye(4), np.full(4, 1e300)))
    with pytest.raises(ValueError, match="the image of the event overflows"):
        apply(AffineLorentzMap(1e300, np.eye(4), np.zeros(4)), [1e10, 0, 0, 0])


def test_is_isometry_examples():
    assert is_isometry(np.eye(4), M4)
    assert is_isometry(boost_x(BoostParams(0.6, 1.0)).L, M4)
    assert not is_isometry(2.0 * np.eye(4), M4)


def test_decompose_scaled_identity():
    alpha, L = decompose_conformal(3.0 * np.eye(4), M4)
    assert alpha == pytest.approx(3.0, rel=1e-15)
    np.testing.assert_allclose(L, np.eye(4), atol=1e-15)


def test_decompose_scaled_boost():
    b = boost_x(BoostParams(0.6, 1.0)).L
    alpha, L = decompose_conformal(2.0 * b, M4)
    assert alpha == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(L, b, atol=1e-12)


def test_decompose_rejects_nonconformal():
    with pytest.raises(NotConformalError):
        decompose_conformal(np.diag([1.0, 2.0, 3.0, 4.0]), M4)


def test_decompose_rejects_flipped_signature():
    # in the plane (one space + time, c=1) swapping the axes scales the
    # metric by exactly -1; Sylvester's law forbids this for n >= 3
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SignatureError):
        decompose_conformal(M, Metric(2, 1.0))


def _decomposed(M, m):
    # ("accepted", alpha, L in the balanced frame), or the refusal's type
    try:
        alpha, L = decompose_conformal(M, m)
    except NotConformalError as exc:
        return (type(exc).__name__,)
    return "accepted", alpha, _balanced(L, m.c)


@given(c=st.sampled_from(SPEEDS), beta=st.floats(min_value=-0.9, max_value=0.9),
       shear=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3),
                                            st.floats(min_value=0.1, max_value=1.0))),
       e=st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=500, deadline=None)
@example(c=1.0, beta=0.0, shear=(0, 1, 0.5), e=-5.0)  # accepted under an absolute floor of 1
def test_decompose_outcome_ignores_the_scale(c, beta, shear, e):
    # a boost, or a shear of the balanced frame, scaled by k = 10^e: the outcome at
    # k = 1, with alpha times k and the same L
    m = Metric(4, c)
    M = boost_x(BoostParams(beta * c, c)).L
    if shear is not None:
        i, j, s = shear
        assume(i != j)
        Sb = np.eye(4)
        Sb[i, j] = s
        M = _balanced(Sb, 1 / c)  # D^-1 Sb D, the shear in raw coordinates
    k = 10.0 ** e
    want, got = _decomposed(M, m), _decomposed(k * M, m)
    assert got[0] == want[0] == ("accepted" if shear is None else "NotConformalError")
    if shear is None:
        assert got[1] == pytest.approx(k * want[1], rel=1e-12)
        assert rel_close(got[2], want[2], 1e-12)


def test_negative_alpha_folds_into_linear_part():
    m = AffineLorentzMap(-2.0, np.eye(4), np.zeros(4))
    assert m.alpha == 2.0
    np.testing.assert_array_equal(m.L, -np.eye(4))


# ---------------------------------------------------------------- sweeps


def _speed_sweep(count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = rng.choice(SPEEDS)
        v = rng.uniform(-0.99, 0.99) * c
        yield v, c


def test_isometry_sweep():
    for v, c in _speed_sweep(1000, seed=1):
        assert is_isometry(boost_x(BoostParams(v, c)).L, Metric(4, c), tol=1e-9)


def test_composition_sweep():
    for v, c in _speed_sweep(1000, seed=2):
        P = compose(boost_x(BoostParams(v, c)), boost_x(BoostParams(-v, c)))
        assert abs(P.alpha - 1.0) <= 1e-12
        L1, L2 = boost_x(BoostParams(v, c)).L, boost_x(BoostParams(-v, c)).L
        scale = np.maximum(1.0, np.abs(L1) @ np.abs(L2))
        assert np.all(np.abs(P.L - np.eye(4)) <= 1e-10 * scale)


def test_interval_preservation_sweep():
    rng = np.random.default_rng(3)
    for v, c in _speed_sweep(200, seed=4):
        m = Metric(4, c)
        b = boost_x(BoostParams(v, c))
        span = np.array([1.0, 1.0, 1.0, 1.0 / c])
        r = rng.uniform(-1, 1, 4) * span
        s = rng.uniform(-1, 1, 4) * span
        before = interval(r, s, m)
        after = interval(apply(b, r), apply(b, s), m)
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_decompose_roundtrip_sweep():
    rng = np.random.default_rng(5)
    for v, c in _speed_sweep(200, seed=6):
        alpha = rng.uniform(0.1, 10.0)
        L = boost_x(BoostParams(v, c)).L
        alpha_hat, L_hat = decompose_conformal(alpha * L, Metric(4, c))
        assert abs(alpha_hat - alpha) <= 1e-10 * max(1.0, alpha)
        assert rel_close(L_hat, L, 1e-10)


def test_zero_interval_preserved_both_directions():
    rng = np.random.default_rng(7)
    for v, c in _speed_sweep(100, seed=8):
        m = Metric(4, c)
        mp = AffineLorentzMap(
            rng.uniform(0.5, 2.0),
            boost_x(BoostParams(v, c)).L,
            rng.uniform(-1, 1, 4) * np.array([1, 1, 1, 1 / c]),
        )
        r = rng.uniform(-1, 1, 4) * np.array([1, 1, 1, 1 / c])
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        dt = rng.uniform(0.1, 1.0) / c
        s = r + np.concatenate([c * dt * u, [dt]])  # exactly null offset
        assert abs(interval(r, s, m)) <= 1e-12 * max(1.0, float(np.dot(s - r, s - r)))
        fwd = interval(apply(mp, r), apply(mp, s), m)
        assert abs(fwd) <= 1e-9 * max(1.0, float(np.dot(apply(mp, s) - apply(mp, r),
                                                        apply(mp, s) - apply(mp, r))))
        # and back through the inverse map
        back = interval(apply(inverse(mp), apply(mp, r)), apply(inverse(mp), apply(mp, s)), m)
        assert abs(back) <= 1e-9 * max(1.0, float(np.dot(s - r, s - r)))


maps = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(seed=maps)
@settings(max_examples=50, deadline=None)
def test_compose_is_application_composition(seed):
    rng = np.random.default_rng(seed)
    def rand_map():
        return AffineLorentzMap(
            rng.uniform(0.2, 3.0),
            boost_x(BoostParams(rng.uniform(-0.9, 0.9))).L,
            rng.uniform(-2, 2, 4),
        )
    m1, m2 = rand_map(), rand_map()
    e = rng.uniform(-2, 2, 4)
    lhs = apply(compose(m1, m2), e)
    rhs = apply(m1, apply(m2, e))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@given(seed=maps)
@settings(max_examples=50, deadline=None)
def test_inverse_roundtrip(seed):
    rng = np.random.default_rng(seed)
    mp = AffineLorentzMap(
        rng.uniform(0.2, 3.0),
        boost_x(BoostParams(rng.uniform(-0.9, 0.9))).L,
        rng.uniform(-2, 2, 4),
    )
    r = compose(mp, inverse(mp))
    assert abs(r.alpha - 1.0) <= 1e-12
    np.testing.assert_allclose(r.L, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(r.a, np.zeros(4), atol=1e-10)


_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@given(entries=st.lists(_entry, min_size=16, max_size=16), c=st.sampled_from(SPEEDS))
@settings(max_examples=500, deadline=None)
def test_balanced_gram_is_the_matmul_form_bit_for_bit(entries, c):
    # D M D^-1 scaled in place, G = Mb^T (eta1 Mb) and S by ndarray.dot are the
    # bits of the double-transposed frame and of Mb^T eta1 Mb and |Mb|^T |Mb| by
    # matmul, so decompose_conformal and every verify report keep theirs.  A zero
    # is compared without its sign (an underflowed product can carry either), which
    # no caller reads: each takes |G - lam eta1|, and _median adds 0.0.
    M = np.array(entries).reshape(4, 4)
    Mb = _frame(_frame(M.T, c).T, 1 / c)
    eta1 = np.diag([1.0, 1.0, 1.0, -1.0])
    _, G, S, eta = _balanced_gram(M, Metric(4, c))

    def bits(xs):
        return [(float(x) + 0.0).hex() for x in np.ravel(xs)]

    assert bits(_balanced(M, c)) == bits(Mb)
    assert bits(G) == bits(Mb.T @ eta1 @ Mb)
    assert bits(S) == bits(np.abs(Mb).T @ np.abs(Mb))
    assert eta == eta1.ravel().tolist()
