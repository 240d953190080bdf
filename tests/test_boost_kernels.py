"""The validate-once kernels of ``boost`` and ``radar`` against the
compositions they replaced.

``boost_x`` and ``radar.derive_map`` build L from one flat float list (the
radar map evaluates only its six entries that are not identically zero), and
they, ``compose`` and ``inverse`` return their maps through the trusted
constructor ``boost._map``.  ``is_isometry`` and ``decompose_conformal`` test
their entries in one loop.  G and S stay ``ndarray.dot`` products.  So every
map, boolean, factor and refusal message is the old one bit for bit; the old
compositions are kept here as the reference.  Three outcomes change on purpose,
and the reference says where: a map with a non-finite entry is refused, also
when ``compose`` or ``inverse`` overflows; ``apply`` refuses an image that
overflows; and a velocity check refuses an invariant speed whose square is not
a normal float.
"""

import math
from sys import float_info

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone import boost, radar
from lightcone.boost import AffineLorentzMap, BoostParams
from lightcone.minkowski import Metric, _balanced
from lightcone.radar import _tprime, _xprime, _yzprime, comoving

SI = 2.99792458e8
SPEEDS = (0.1, 1.0, 343.0, SI)


# -- the parent's compositions ---------------------------------------------

def _old_boost_x(v, c):
    g = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
    L = np.eye(4)
    L[0, 0] = g
    L[0, 3] = -v * g
    L[3, 0] = -v * g / c ** 2
    L[3, 3] = g
    return 1.0, L, np.zeros(4)


def _old_derive_map(v, c):
    alpha = math.sqrt(1.0 - (v / c) ** 2)
    columns = []
    for x, y, z, t in np.eye(4).tolist():
        xbar = comoving(x, t, v)
        columns.append((_xprime(xbar, v, c, alpha), _yzprime(y, v, c, alpha),
                        _yzprime(z, v, c, alpha), _tprime(xbar, t, v, c, alpha)))
    return 1.0, np.array(list(zip(*columns))), np.zeros(4)


def _old_map(alpha, L, a):
    # the parent constructor's alpha check, then the entry check this change adds
    if not math.isfinite(alpha) or alpha == 0:
        raise ValueError(f"alpha must be nonzero and finite, got {alpha}")
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(a))):
        raise ValueError("map has non-finite entries")
    return alpha, L, a


def _old_compose(m1, m2):
    return _old_map(m1.alpha * m2.alpha, m1.L @ m2.L, m1.alpha * (m1.L @ m2.a) + m1.a)


def _old_inverse(m):
    try:
        Linv = np.linalg.inv(m.L)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular linear part; map is not invertible") from exc
    alpha_inv = 1.0 / m.alpha
    return _old_map(alpha_inv, Linv, -alpha_inv * (Linv @ m.a))


def _old_apply(m, e):
    # the parent's product, then the refusal of an image that overflows this change adds
    image = m.alpha * (m.L @ e) + m.a
    if not np.all(np.isfinite(image)):
        raise ValueError("the image of the event overflows")
    return image


def _old_gram(M, m):
    Mb = _balanced(M, m.c)
    if not all(map(math.isfinite, Mb.ravel().tolist())):
        Mb[:] = math.nan
    H = Mb.copy()
    H[-1] *= -1.0
    A = np.abs(Mb)
    eta1 = ([1.0] + [0.0] * m.n) * (m.n - 1) + [-1.0]
    return Mb.T.dot(H).ravel().tolist(), A.T.dot(A).ravel().tolist(), eta1


def _old_median(xs):
    xs, k = sorted(xs), len(xs) // 2
    mid = 0.0 + xs[k] if len(xs) % 2 else (0.0 + xs[k - 1] + xs[k]) / 2
    return math.nan if any(x != x for x in xs) else mid


def _old_is_isometry(L, m, tol, k=0):
    # of L 2^k, whose Gram is 2^2k eta for an isometry L; a 2^2k that is 0 or inf is
    # refused, as no floor of 0 may pass a null matrix
    G, S, eta1 = _old_gram(np.ldexp(L, k), m)
    lam = math.ldexp(1.0, 2 * k) if 2 * k < 1024 else math.inf
    return 0 < lam < math.inf and all(abs(g - lam * e) <= tol * (s if s > lam else lam) for g, e, s in zip(G, eta1, S))


def _old_decompose_conformal(M, m, tol, k=0):
    # of M 2^k, the factor scaled back
    G, S, eta1 = _old_gram(np.ldexp(M, k), m)
    lam = _old_median([g / e for g, e in zip(G[::m.n + 1], eta1[::m.n + 1])])
    floor = abs(lam)
    if not all(abs(g - lam * e) <= tol * (s if s > floor else floor)
               for g, e, s in zip(G, eta1, S)):
        scaled = ((abs(g - lam * e), s if s > floor else floor) for g, e, s in zip(G, eta1, S))
        worst = [d / s for d, s in scaled if not d <= tol * s]
        raise boost.NotConformalError(
            "M^T eta M is not proportional to eta (worst relative deviation "
            f"{math.nan if any(w != w for w in worst) else max(worst):.3e})")
    if lam <= 0:
        raise boost.SignatureError(f"conformal factor is non-positive ({np.ldexp(lam, -2 * k):.6g})")
    alpha = math.ldexp(math.sqrt(lam), -k)
    return alpha, M / alpha


# -- comparison -------------------------------------------------------------

def _bits(values):
    # float.hex keeps the sign of zero; every NaN alike
    return [float(x).hex() for x in np.ravel(values)]


def _outcome(fn, *args):
    """("raises", type, message), or the bits of the result: a map's alpha, L
    (with its strides, which a later BLAS product reads) and a, a boolean, or
    an (alpha, L) pair.  numpy's warnings on overflow are off."""
    with np.errstate(all="ignore"):
        try:
            got = fn(*args)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return ("raises", type(exc).__name__, str(exc))
    if isinstance(got, AffineLorentzMap):
        got = (got.alpha, got.L, got.a)
    if isinstance(got, bool):
        return ("returns", got)
    if isinstance(got, tuple):
        parts = [(_bits(x), np.shape(x), getattr(x, "strides", None)) for x in got]
        return ("returns", type(got[0]).__name__, parts)
    return ("returns", _bits(got))


def _same(new, old, *args):
    assert _outcome(new, *args) == _outcome(old, *args)


# -- draws ------------------------------------------------------------------

_speed = st.sampled_from(SPEEDS)
_beta = st.one_of(st.sampled_from([0.0, -0.0, 0.6, -0.6, 1 - 2e-12, -(1 - 2e-12)]),
                  st.floats(min_value=-0.999999, max_value=0.999999))
_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200]),
                   st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
_tol = st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])


@st.composite
def _matrices(draw):
    """(M, Metric(4, c)): a boost scaled by k, a shear of the balanced frame,
    any matrix, or a boost with one entry NaN or infinite."""
    c = draw(_speed)
    B = _old_boost_x(draw(_beta) * c, c)[1]
    kind = draw(st.sampled_from(["boost", "shear", "any", "non-finite"]))
    k = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    if kind == "boost":
        M = k * B
    elif kind == "shear":
        Sb = np.eye(4)
        Sb[draw(st.integers(0, 3)), draw(st.integers(0, 3))] += draw(st.floats(-1.0, 1.0))
        M = k * _balanced(Sb, 1 / c)
    elif kind == "any":
        M = np.array(draw(st.lists(_entry, min_size=16, max_size=16))).reshape(4, 4)
    else:
        M = B.copy()
        M[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return M, Metric(4, c)


@st.composite
def _maps(draw, c):
    alpha = draw(st.one_of(st.sampled_from([1.0, 1e-320, 1e200]),
                           st.floats(min_value=0.1, max_value=10.0)))
    kind = draw(st.sampled_from(["boost", "any", "near-singular"]))
    if kind == "boost":
        L = _old_boost_x(draw(_beta) * c, c)[1]
    elif kind == "any":
        L = np.array(draw(st.lists(_entry, min_size=16, max_size=16))).reshape(4, 4)
    else:
        L = np.diag([1.0, 1.0, 1.0, draw(st.sampled_from([1e-320, 1e-300, 0.0]))])
    a = np.array(draw(st.lists(_entry, min_size=4, max_size=4)))
    return AffineLorentzMap(alpha, L, a)


# -- properties ---------------------------------------------------------------

@given(c=_speed, beta=_beta)
@settings(max_examples=500, deadline=None)
@example(c=SI, beta=0.6)
def test_boost_x_and_derive_map_are_the_old_maps(c, beta):
    v = beta * c
    _same(lambda: boost.boost_x(BoostParams(v, c)), lambda: _old_boost_x(v, c))
    _same(lambda: radar.derive_map(v, c), lambda: _old_derive_map(v, c))
    _same(lambda: boost.gamma(v, c), lambda: 1.0 / math.sqrt(1.0 - (v / c) ** 2))
    _same(lambda: boost.scale_factor(v, c), lambda: math.sqrt(1.0 - (v / c) ** 2))
    a = math.sqrt(1.0 - (v / c) ** 2)
    _same(lambda: boost.scale_constraint_check(a, a, BoostParams(v, c)),
          lambda: abs(a * a - (1.0 - (v / c) ** 2)) <= 1e-12)


@given(c=_speed, data=st.data())
@settings(max_examples=500, deadline=None)
def test_compose_inverse_apply_are_the_old_maps(c, data):
    m1, m2 = data.draw(_maps(c)), data.draw(_maps(c))
    e = np.array(data.draw(st.lists(_entry, min_size=4, max_size=4)))
    _same(boost.compose, _old_compose, m1, m2)
    _same(boost.inverse, _old_inverse, m1)
    _same(boost.apply, _old_apply, m1, e)


@given(Mm=_matrices(), tol=_tol)
@settings(max_examples=1000, deadline=None)
@example(Mm=(np.diag([1.0, 0.0, 0.0, 0.0]), Metric(4, 1.0)), tol=1e-9)
@example(Mm=(np.zeros((4, 4)), Metric(4, SI)), tol=1e-9)
@example(Mm=(np.array([[0.0, 1.0], [1.0, 0.0]]), Metric(2, 1.0)), tol=1e-9)
@example(Mm=(np.outer([1.0, 0.0, 0.0, 1.0], [2.0 ** 700, 0.0, 0.0, 0.0]), Metric(4, 1.0)), tol=1e-9)
def test_isometry_and_decomposition_are_the_old_ones(Mm, tol):
    # the old functions of M 2^k, k the kernel's power of two (0 unless a square of
    # D M D^-1 may leave the normal range)
    M, m = Mm
    k = boost._balanced_gram(M, m)[-1]
    _same(lambda: boost.is_isometry(M, m, tol), lambda: _old_is_isometry(M, m, tol, k))
    _same(lambda: boost.decompose_conformal(M, m, tol),
          lambda: _old_decompose_conformal(M, m, tol, k))


@given(e=st.floats(min_value=-160.0, max_value=160.0), beta=_beta)
@settings(max_examples=500, deadline=None)
@example(e=-300.0, beta=0.5)
@example(e=200.0, beta=0.5)
@example(e=math.log10(math.sqrt(float_info.min)), beta=0.5)
@example(e=math.log10(math.sqrt(float_info.max)), beta=0.5)
def test_speeds_with_a_normal_square_keep_their_bits(e, beta):
    # inside the range nothing changes; outside it the velocity check refuses
    c = 10.0 ** e
    v = beta * c
    got = _outcome(lambda: boost.boost_x(BoostParams(v, c)))
    if float_info.min <= c * c <= float_info.max:
        assert got == _outcome(lambda: _old_boost_x(v, c))
        assert _outcome(radar.derive_map, v, c) == _outcome(lambda: _old_derive_map(v, c))
    else:
        assert got[:2] == ("raises", "ValueError") and "normal float range" in got[2]


def test_inverse_refuses_an_overflow_without_a_warning():
    # the translation is formed with numpy's overflow and invalid warnings off, and
    # _check_map then refuses L^-1 and a together; the suite turns numpy's
    # RuntimeWarning into an error
    m = AffineLorentzMap(1.0, np.diag([1.0, 1.0, 1.0, 1e-320]), np.zeros(4))
    with pytest.raises(ValueError, match="map has non-finite entries"):
        boost.inverse(m)
