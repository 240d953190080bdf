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
separation d the scale is ``|d_space|^2 + c^2 d_t^2``, with no floor: an exact zero is null
as 0 <= 0.  Rescaling the events to any float (each kernel takes its vectors at the exact power
of two of ``_pow2``, the one scale rule) or trading the time unit against ``c`` changes no class.

Every Euclidean test is taken in the one balanced frame ``x D`` (``_frame``;
``_balanced`` is D M D^-1), D = diag(1, ..., 1, c), where the form is
diag(1, ..., 1, -1) at every c, with no floor either: ``_sine``,
``_line_distance`` relative to the largest side, and lengths.

Public names check, private kernels trust: each public function checks every
argument once (events with ``_event``, the check of :func:`as_event`, which also
returns the Python floats it checked), on which ``_inner``, ``_abs_inner``,
``_classify`` (the form, its scale, the null band) and ``_within`` (every test against a
tolerance, and the package's one refusal of a tolerance outside [0, inf)) do plain float
arithmetic, several times cheaper than numpy's dispatch on 3- and 4-vectors.  One pass,
same summation order: a kernel needing several sums of the same vectors (``cones._span``)
takes them in one walk, each added in these helpers' order (left to right, as
``sum()`` adds before CPython 3.12), so no result changes by a bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import frexp, inf, isfinite
from operator import mul, sub
from sys import float_info

import numpy as np

#: Default width of the null band, relative to ``abs_inner`` (see the module docstring).
DEFAULT_TOL = 1e-9
_TINY = 2.0 ** -900  # the least scale of a separation whose every square that counts is normal


class CausalClass(enum.Enum):
    """Sign class of a squared interval.  LIGHTLIKE doubles as the
    degenerate ("null") class for planes."""

    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"


# the members as module names: on CPython 3.11 an Enum member lookup costs five global ones
_LIGHTLIKE, _SPACELIKE, _TIMELIKE = CausalClass


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
        _check_speed(self.c)

    def matrix(self) -> np.ndarray:
        """Gram matrix diag(1, ..., 1, -c^2) of the inner product."""
        eta = np.eye(self.n)
        eta[-1, -1] = -self.c ** 2
        return eta


def _check_speed(c: float) -> None:
    # the one speed check: c positive and finite, and c^2 a normal float
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"invariant speed must be positive and finite, got {c}")
    if not float_info.min <= c * c <= float_info.max:  # c^2 neither underflows nor overflows
        raise ValueError(f"invariant speed must have c^2 in the normal float range "
                         f"[{float_info.min}, {float_info.max}], got c = {c}")


def as_event(e, m: Metric) -> np.ndarray:
    """Coerce ``e`` to a finite float vector of length ``m.n``: the one event
    check, made by public names; the private kernels trust its result."""
    return _event(e, m)[0]


def _event(e, m: Metric) -> tuple[np.ndarray, list]:
    # as_event's check, returning the array and the float list it checked
    arr = np.asarray(e, float)
    if arr.shape != (m.n,):
        raise ValueError(f"event has shape {arr.shape}, expected ({m.n},)")
    xs = arr.tolist()
    if not isfinite(sum(xs)) and not all(map(isfinite, xs)):  # _finite, inline on this hot path
        raise ValueError("event has non-finite components")
    return arr, xs


def _finite(xs: list) -> bool:
    return isfinite(sum(xs)) or all(map(isfinite, xs))  # a finite sum has finite terms


def _inner(r, s, c: float) -> float:
    return sum(map(mul, r[:-1], s[:-1])) - c ** 2 * (r[-1] * s[-1])


def _abs_inner(r, s, c: float) -> float:
    return sum(map(abs, map(mul, r[:-1], s[:-1]))) + c ** 2 * abs(r[-1] * s[-1])


def _within(q: float, scale: float, tol: float) -> bool:
    # |q| <= tol * scale, the null band of a product q of magnitude scale among them
    if not 0 <= tol < inf:  # a NaN fails the comparison
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return abs(q) <= tol * scale


def _frame(x, c: float):
    # x times D = diag(1, ..., 1, c) along its last axis: a copy, of any shape, or a list
    if isinstance(x, list):
        return [*x[:-1], x[-1] * c]
    x = np.array(x, dtype=float)
    x.T[-1] *= c
    return x


def _balanced(M, c: float) -> np.ndarray:
    # D M D^-1, the square matrix M acting in the balanced frame: a copy
    Mb = np.array(M, dtype=float)
    row, column = Mb[-1], Mb[:, -1]  # views: scaled in place, with no write-back copy
    row *= c
    column *= 1 / c
    return Mb


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _dots(u, w) -> tuple:
    # (u.w, u.u, w.w) and u, w as lists; numpy dots arrays, as recover's reports were made
    if isinstance(u, np.ndarray):
        return float(u.dot(w)), float(u.dot(u)), float(w.dot(w)), u.tolist(), w.tolist()
    return _dot(u, w), _dot(u, u), _dot(w, w), u, w


def _minus(u, w, t: float) -> list:
    return [a - t * b for a, b in zip(u, w)]


def _sine(u, w) -> float:
    # sine of the angle of u and w, 0 if either is zero
    uw, uu, ww, u, w = _dots(u, w)
    return math.hypot(*_minus(u, w, uw / ww)) / math.sqrt(uu) if uu and ww else 0.0


def _line_distance(w, d) -> float:
    # distance of w from the line along d (nonzero), relative to the largest side of (0, d, w)
    wd, ww, dd, w, d = _dots(w, d)
    side = math.hypot(*_minus(w, d, 1.0))
    return math.hypot(*_minus(w, d, wd / dd)) / max(math.sqrt(ww), math.sqrt(dd), side)


def _pow2(s: float, t: float, c: float) -> int:
    # the one scale rule: k puts max(s, c t), s and t the largest |space| and |time|, at
    # 2^(ec // 4), c in [2^(ec-1), 2^ec), where every square and product of two is normal for
    # each c _check_speed admits; c t is never formed.  A vector times 2^e lands on its own bits
    ec = frexp(c)[1]
    k = ec // 4 - max(frexp(s)[1] if s else -inf, frexp(t)[1] + ec if t else -inf)
    return k if abs(k) < inf and isfinite(s) and isfinite(t) else 0


def _ldexp(v, k: int):
    with np.errstate(over="ignore"):  # v 2^k, inf past the float range, without a warning
        return np.ldexp(v, k)


def _at_pow2(p, c: float) -> tuple:
    # (p 2^k, k), k = _pow2 of p's largest |space| and |t|, p a list or rows
    *space, t = np.abs(np.atleast_2d(p)).max(axis=0, initial=0.0).tolist()
    k = _pow2(max(space), t, c)
    q = np.ldexp(p, k) if k else p
    return (q.tolist() if k and isinstance(p, list) else q), k


def _classify(d, c: float, tol: float) -> CausalClass:
    c2 = c ** 2
    space, time = sum(map(mul, d[:-1], d[:-1])), c2 * (d[-1] * d[-1])
    if not _TINY * (1.0 + c2) <= space + time < inf and any(d):
        d = _at_pow2(d, c)[0]  # a square left the normal range
        space, time = sum(map(mul, d[:-1], d[:-1])), c2 * (d[-1] * d[-1])
    iv = space - time
    if _within(iv, space + time, tol):
        return _LIGHTLIKE
    return _SPACELIKE if iv > 0 else _TIMELIKE


def inner(r, s, m: Metric) -> float:
    """Indefinite inner product of two vectors.

    Bilinear and symmetric; the time product is formed before scaling by
    c^2 so that the result is bitwise symmetric in (r, s).
    """
    return _inner(_event(r, m)[1], _event(s, m)[1], m.c)


def abs_inner(r, s, m: Metric) -> float:
    """Magnitude scale of the products entering ``inner(r, s)``.

    Used to turn "equals zero" into a relative predicate: cancellation in
    the inner product can only be trusted down to roughly
    ``eps * abs_inner``.
    """
    return _abs_inner(_event(r, m)[1], _event(s, m)[1], m.c)


def interval(r, s, m: Metric) -> float:
    """Squared interval inner(r - s, r - s) of the separation."""
    d = list(map(sub, _event(r, m)[1], _event(s, m)[1]))
    return _inner(d, d, m.c)


def classify(r, s, m: Metric, tol: float = DEFAULT_TOL) -> CausalClass:
    """Causal class of the pair (r, s): the sign of ``interval(r, s)``,
    with the null band of the module docstring."""
    _within(0.0, 0.0, tol)  # refuses a bad tol before the events are checked
    return _classify(list(map(sub, _event(r, m)[1], _event(s, m)[1])), m.c, tol)


def on_null_cone(p, vertex, m: Metric, tol: float = DEFAULT_TOL) -> bool:
    """True iff p lies on the null cone with the given vertex."""
    return classify(p, vertex, m, tol) is _LIGHTLIKE
