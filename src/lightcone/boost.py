"""Velocity boosts along the x-axis and the algebra of affine conformal
isometries x -> alpha * L x + a.

``boost_x`` builds the standard matrix

    [  gamma     0  0  -v*gamma      ]
    [  0         1  0   0            ]
    [  0         0  1   0            ]
    [ -v*gamma/c^2  0  0   gamma     ]

with gamma = 1/sqrt(1 - v^2/c^2), acting on (x, y, z, t).  It is an exact
isometry of diag(1, 1, 1, -c^2) for every invariant speed c.

``decompose_conformal`` undoes the scaling: a matrix M with
M^T eta M = lam * eta (lam > 0) splits uniquely into alpha = sqrt(lam) > 0
and the isometry L = M / alpha, any sign being folded into L.

Maps follow the validate-once rule of :mod:`lightcone.minkowski`: public names check
(``check_velocity``, the map constructor, a tolerance by ``_within``), private kernels trust.
``boost_x``, ``compose``, ``inverse`` and ``radar.derive_map`` return maps through
the trusted ``_map``; compose and inverse first refuse an overflowed product, and
apply an overflowed image, each with a ValueError and no numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minkowski import DEFAULT_TOL, Metric, _balanced, _check_speed, _event, _finite, _within

#: Velocities with |v| >= c * (1 - VELOCITY_MARGIN) are rejected: gamma diverges.
VELOCITY_MARGIN = 1e-12


class NotConformalError(ValueError):
    """M^T eta M is not proportional to eta within tolerance."""


class SignatureError(NotConformalError):
    """M^T eta M is proportional to eta but with a non-positive factor."""


def check_velocity(v: float, c: float) -> None:
    """Raise ValueError unless c is positive and finite, c^2 is a normal float
    and |v| < c * (1 - VELOCITY_MARGIN)."""
    _check_speed(c)
    if not math.isfinite(v) or abs(v) >= c * (1.0 - VELOCITY_MARGIN):
        raise ValueError(f"degenerate velocity: |v|={abs(v)} must be < c={c}")


@dataclass(frozen=True)
class BoostParams:
    """Relative frame velocity v along the x-axis, |v| strictly below c."""

    v: float
    c: float = 1.0

    def __post_init__(self):
        check_velocity(self.v, self.c)


@dataclass
class AffineLorentzMap:
    """The map x -> alpha * L x + a, with L square and alpha, L and a finite.

    alpha is canonicalized to be positive (a negative sign is folded into
    L), which makes the (alpha, L) pair unique and round-trippable through
    ``decompose_conformal``.
    """

    alpha: float
    L: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise ValueError(f"L must be square, got shape {self.L.shape}")
        if self.a.shape != (self.L.shape[0],):
            raise ValueError(
                f"translation has shape {self.a.shape}, expected ({self.L.shape[0]},)"
            )
        _check_map(self.alpha, self.L.ravel().tolist() + self.a.tolist())
        if self.alpha < 0:
            self.alpha = -self.alpha
            self.L = -self.L

    @property
    def n(self) -> int:
        return self.L.shape[0]


def _check_map(alpha, entries: list) -> None:
    # the constructor's check of alpha and the entries of L and a, also run on the
    # products of compose and inverse, which can overflow
    if not math.isfinite(alpha) or alpha == 0:
        raise ValueError(f"alpha must be nonzero and finite, got {alpha}")
    if not _finite(entries):
        raise ValueError("map has non-finite entries")


def _map(alpha: float, L: np.ndarray, a: np.ndarray) -> AffineLorentzMap:
    # the trusted constructor: alpha > 0, a square float L and its translation, all finite
    m = object.__new__(AffineLorentzMap)
    m.alpha, m.L, m.a = alpha, L, a
    return m


def identity_map(n: int = 4) -> AffineLorentzMap:
    return AffineLorentzMap(1.0, np.eye(n), np.zeros(n))


def gamma(v: float, c: float = 1.0) -> float:
    """Lorentz factor 1/sqrt(1 - v^2/c^2)."""
    return 1.0 / scale_factor(v, c)


def scale_factor(v: float, c: float = 1.0) -> float:
    """The normalized conformal factor alpha(v) = sqrt(1 - v^2/c^2).

    This is the unique positive solution of
    alpha(v) * alpha(-v) = 1 - v^2/c^2 that depends on |v| only.
    """
    check_velocity(v, c)
    return _scale_factor(v, c)


def _scale_factor(v: float, c: float) -> float:
    # without the velocity check, for callers that ran it once; gamma is its reciprocal
    return math.sqrt(1.0 - (v / c) ** 2)


def boost_x(p: BoostParams) -> AffineLorentzMap:
    """Normalized boost along the x-axis for n = 4, as an affine map with
    alpha = 1 and zero translation."""
    g = 1.0 / _scale_factor(p.v, p.c)
    vg = -p.v * g
    L = [g, 0.0, 0.0, vg, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, vg / p.c ** 2, 0.0, 0.0, g]
    return _map(1.0, np.array(L).reshape(4, 4), np.zeros(4))


def general_boost(p: BoostParams, alpha: float) -> np.ndarray:
    """Boost matrix before the scale factor is pinned down:
    alpha * gamma * (boost core).  ``alpha = scale_factor(v, c)`` recovers
    the normalized boost."""
    _check_map(alpha, [])
    return alpha * (1.0 / _scale_factor(p.v, p.c)) * boost_x(p).L


def scale_constraint_check(
    alpha_of_v: float, alpha_of_minus_v: float, p: BoostParams, tol: float = 1e-12
) -> bool:
    """True iff alpha(v) * alpha(-v) = 1 - v^2/c^2 within tol.

    The constraint is what forcing boost(v) followed by boost(-v) to be the
    identity imposes on the free scale factor.
    """
    return _within(alpha_of_v * alpha_of_minus_v - (1.0 - (p.v / p.c) ** 2), 1.0, tol)


def apply(m: AffineLorentzMap, e) -> np.ndarray:
    """Evaluate alpha * L @ e + a."""
    e = _event(e, m)[0]  # as_event's check, which reads only the length m.n
    with np.errstate(over="ignore", invalid="ignore"):
        image = m.alpha * m.L.dot(e) + m.a
    if not _finite(image.tolist()):
        raise ValueError("the image of the event overflows")
    return image


def compose(m1: AffineLorentzMap, m2: AffineLorentzMap) -> AffineLorentzMap:
    """The map applying m2 first, then m1."""
    if m1.n != m2.n:
        raise ValueError(f"dimension mismatch: {m1.n} vs {m2.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # _check_map refuses an overflow
        alpha, L, a = m1.alpha * m2.alpha, m1.L.dot(m2.L), m1.alpha * m1.L.dot(m2.a) + m1.a
    _check_map(alpha, L.ravel().tolist() + a.tolist())
    return _map(alpha, L, a)


def inverse(m: AffineLorentzMap) -> AffineLorentzMap:
    """The inverse map; raises on singular L."""
    try:
        Linv = np.linalg.inv(m.L)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular linear part; map is not invertible") from exc
    alpha_inv = 1.0 / m.alpha
    with np.errstate(over="ignore", invalid="ignore"):  # _check_map refuses an overflow
        a = -alpha_inv * Linv.dot(m.a)
    _check_map(alpha_inv, Linv.ravel().tolist() + a.tolist())
    return _map(alpha_inv, Linv, a)


def _balanced_gram(M: np.ndarray, m: Metric):
    # M^T eta M = lam eta is exactly G = Mb^T eta1 Mb = lam eta1, Mb = D M D^-1: O(gamma) for
    # boosts, with no c^2 amplified noise.  Returns M and flat G, S = |Mb|^T |Mb| and eta1.
    M = np.asarray(M, dtype=float)  # the one check of a public matrix argument
    if M.shape != (m.n, m.n):
        raise ValueError(f"matrix has shape {M.shape}, expected ({m.n}, {m.n})")
    Mb = _balanced(M, m.c)
    if not _finite(Mb.ravel().tolist()):  # NaN is refused quietly, inf * 0 warns
        Mb[:] = math.nan
    H = Mb.copy()
    time_row = H[-1]
    time_row *= -1.0  # H = eta1 Mb, in place like minkowski._balanced
    A = np.abs(Mb)
    eta1 = ([1.0] + [0.0] * m.n) * (m.n - 1) + [-1.0]  # diag(1, ..., 1, -1), flat
    return M, Mb.T.dot(H).ravel().tolist(), A.T.dot(A).ravel().tolist(), eta1


def _median(xs: list) -> float:
    # np.median by sorting, the same IEEE operations: NaN if any is NaN, else the
    # mean of the middle one or two, which numpy sums from 0.0 (-0.0 becomes 0.0)
    xs, k = sorted(xs), len(xs) // 2
    mid = 0.0 + xs[k] if len(xs) % 2 else (0.0 + xs[k - 1] + xs[k]) / 2
    return math.nan if any(map(math.isnan, xs)) else mid


def is_isometry(L, m: Metric, tol: float = DEFAULT_TOL) -> bool:
    """True iff L^T eta L = eta entrywise, relative to the magnitude of the
    products forming each entry (evaluated in the metric-balanced frame)."""
    _within(0.0, 0.0, tol)  # refuses a bad tol before the matrix is checked
    _, G, S, eta1 = _balanced_gram(L, m)
    return not _off_band(G, S, eta1, 1.0, tol)


def _off_band(G: list, S: list, eta1: list, lam: float, tol: float) -> list:
    # the entrywise conformal test: each |G - lam eta1| out of tol times its scale max(S, |lam|)
    floor, worst = abs(lam), []
    for g, e, s in zip(G, eta1, S):
        d, s = abs(g - lam * e), (s if s > floor else floor)
        if not d <= tol * s:
            worst.append(d / s)  # out of the band, so s > 0
    return worst


def decompose_conformal(M, m: Metric, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Split M = alpha * L with alpha > 0 and L an isometry of the metric.

    The factor is estimated as the median of the diagonal ratios of
    M^T eta M against eta, which is robust to entrywise floating-point
    noise.  Raises NotConformalError when the Gram matrix is not
    proportional to eta, SignatureError when the factor is non-positive.
    """
    _within(0.0, 0.0, tol)  # refuses a bad tol before the matrix is checked
    M, G, S, eta1 = _balanced_gram(M, m)
    lam = _median([*G[:-1:m.n + 1], -G[-1]])  # the diagonal of G over that of eta1
    worst = _off_band(G, S, eta1, lam, tol)
    if worst:
        raise NotConformalError("M^T eta M is not proportional to eta (worst relative deviation "
                                f"{math.nan if any(map(math.isnan, worst)) else max(worst):.3e})")
    if lam <= 0:
        raise SignatureError(f"conformal factor is non-positive ({lam:.6g})")
    alpha = math.sqrt(lam)
    return alpha, M / alpha
