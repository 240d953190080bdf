"""Indefinite inner product and causal classification over R^n.

Events are plain float vectors of length ``n`` whose *last* component is
time.  The inner product carries the signature ``diag(+, ..., +, -c^2)``
with a configurable invariant speed ``c``: two events are lightlike
separated exactly when a signal moving at speed ``c`` connects them
(spatial offset of Euclidean length ``c * |time offset|``).  With this
normalization the velocity-``v`` boosts of :mod:`lightcone.boost` are exact
isometries for *every* ``c``, which is the whole point of keeping ``c`` a
runtime parameter instead of a unit convention.

The exact trichotomy (zero / positive / negative squared interval) is
replaced by the one null band of the package: a metric product
``q = inner(r, s)`` is null iff ``|q| <= tol * abs_inner(r, s)``.  For a
separation d the scale is ``|d_space|^2 + c^2 d_t^2``, with no floor: an exact
zero (a vertex on its own cone) is null as 0 <= 0, and neither rescaling the
events nor trading the time unit against ``c`` changes a class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

#: Default width of the null band, relative to ``abs_inner`` (see the module docstring).
DEFAULT_TOL = 1e-9


class CausalClass(enum.Enum):
    """Sign class of a squared interval.  LIGHTLIKE doubles as the
    degenerate ("null") class for planes."""

    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"


@dataclass(frozen=True)
class Metric:
    """Spacetime dimension and invariant signal speed.

    The associated bilinear form is
    ``inner(r, s) = sum_{k<n} r_k s_k - c^2 * r_n s_n``.
    """

    n: int = 4
    c: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError(f"invariant speed must be positive and finite, got {self.c}")

    def matrix(self) -> np.ndarray:
        """Gram matrix diag(1, ..., 1, -c^2) of the inner product."""
        eta = np.eye(self.n)
        eta[-1, -1] = -self.c ** 2
        return eta


def as_event(e, m: Metric) -> np.ndarray:
    """Coerce ``e`` to a finite float vector of length ``m.n``."""
    arr = np.asarray(e, dtype=float)
    if arr.shape != (m.n,):
        raise ValueError(f"event has shape {arr.shape}, expected ({m.n},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("event has non-finite components")
    return arr


def inner(r, s, m: Metric) -> float:
    """Indefinite inner product of two vectors.

    Bilinear and symmetric; the time product is formed before scaling by
    c^2 so that the result is bitwise symmetric in (r, s).
    """
    r = as_event(r, m)
    s = as_event(s, m)
    return float(np.dot(r[:-1], s[:-1]) - m.c ** 2 * (r[-1] * s[-1]))


def abs_inner(r, s, m: Metric) -> float:
    """Magnitude scale of the products entering ``inner(r, s)``.

    Used to turn "equals zero" into a relative predicate: cancellation in
    the inner product can only be trusted down to roughly
    ``eps * abs_inner``.
    """
    r = np.abs(as_event(r, m))
    s = np.abs(as_event(s, m))
    return float(np.dot(r[:-1], s[:-1]) + m.c ** 2 * (r[-1] * s[-1]))


def interval(r, s, m: Metric) -> float:
    """Squared interval inner(r - s, r - s) of the separation."""
    d = as_event(r, m) - as_event(s, m)
    return float(np.dot(d[:-1], d[:-1]) - m.c ** 2 * (d[-1] * d[-1]))


def classify(r, s, m: Metric, tol: float = DEFAULT_TOL) -> CausalClass:
    """Causal class of the pair (r, s): the sign of ``interval(r, s)``,
    with the null band of the module docstring."""
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    d = as_event(r, m) - as_event(s, m)
    space, time = float(np.dot(d[:-1], d[:-1])), m.c ** 2 * float(d[-1] * d[-1])
    iv = space - time
    if abs(iv) <= tol * (space + time):
        return CausalClass.LIGHTLIKE
    return CausalClass.SPACELIKE if iv > 0 else CausalClass.TIMELIKE


def on_null_cone(p, vertex, m: Metric, tol: float = DEFAULT_TOL) -> bool:
    """True iff p lies on the null cone with the given vertex."""
    return classify(p, vertex, m, tol) is CausalClass.LIGHTLIKE
