"""Radar coordinates from a light clock.

A signal of speed ``c`` leaves the comoving origin ``xbar = x - v t = 0``
at time ``t0``, reaches a mirror at comoving distance ``delta_xbar``, and
returns.  Chasing the mirror costs ``delta_xbar / (c - v)``, the return
leg takes ``delta_xbar / (c + v)``; the denominators are speeds, never
``c^2 -+ v^2``, which would not even carry the units of a speed.  The
moving-frame time is *defined* by the midpoint convention: the reflection
happens at the arithmetic mean of emission and return times.

That convention, plus the requirement that the signal also moves at speed
``c`` in the moving frame, forces the closed forms

    t'(xbar, t) = alpha(v) * (t - v * xbar / (c^2 - v^2))
    x'(xbar)    = alpha(v) * xbar / (1 - v^2/c^2)
    y', z'      = alpha(v) * y / sqrt(1 - v^2/c^2)

with a free scale alpha(v).  Fixing alpha(v) = sqrt(1 - v^2/c^2) (so that
the v and -v maps invert each other) assembles exactly the boost matrix of
:func:`lightcone.boost.boost_x` -- by a completely independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import AffineLorentzMap, check_velocity, scale_factor


@dataclass(frozen=True)
class RadarScenario:
    """One light-clock run: frame velocity, signal speed, mirror distance
    in the comoving coordinate, and emission time."""

    v: float
    c: float = 1.0
    delta_xbar: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        check_velocity(self.v, self.c)
        if not (np.isfinite(self.delta_xbar) and self.delta_xbar > 0):
            raise ValueError(f"mirror separation must be positive, got {self.delta_xbar}")


@dataclass(frozen=True)
class RadarTimeline:
    """Emission / reflection / return times in the rest frame (t0, t1, t2)
    and in the moving frame (tprime0, tprime1, tprime2)."""

    t0: float
    t1: float
    t2: float
    tprime0: float
    tprime1: float
    tprime2: float


def comoving(x: float, t: float, v: float) -> float:
    """Comoving coordinate xbar = x - v t, constant for points at rest in
    the moving frame."""
    return x - v * t


def tprime(xbar: float, t: float, v: float, c: float = 1.0, alpha: float = 1.0) -> float:
    """Moving-frame time t' = alpha * (t - v * xbar / (c^2 - v^2))."""
    check_velocity(v, c)
    return _tprime(xbar, t, v, c, alpha)


def xprime(xbar: float, v: float, c: float = 1.0, alpha: float = 1.0) -> float:
    """Moving-frame longitudinal coordinate x' = alpha * xbar / (1 - v^2/c^2)."""
    check_velocity(v, c)
    return _xprime(xbar, v, c, alpha)


def yzprime(y_or_z: float, v: float, c: float = 1.0, alpha: float = 1.0) -> float:
    """Moving-frame transverse coordinate y' = alpha * y / sqrt(1 - v^2/c^2).

    The transverse signal speed in the rest frame is sqrt(c^2 - v^2), so a
    ray along the moving y'-axis needs t = y / sqrt(c^2 - v^2) and
    y' = c t' evaluates to the formula above.  With the normalized alpha
    the transverse coordinates are unchanged.
    """
    check_velocity(v, c)
    return _yzprime(y_or_z, v, c, alpha)


# The closed forms without the velocity check, for callers that ran it once.
def _tprime(xbar, t, v, c, alpha):
    return alpha * (t - v * xbar / (c ** 2 - v ** 2))


def _xprime(xbar, v, c, alpha):
    return alpha * xbar / (1.0 - (v / c) ** 2)


def _yzprime(y_or_z, v, c, alpha):
    return alpha * y_or_z / np.sqrt(1.0 - (v / c) ** 2)


def light_clock(sc: RadarScenario) -> RadarTimeline:
    """Run the clock and report both frames' times.

    Rest-frame: t1 = t0 + delta_xbar / (c - v), t2 = t1 + delta_xbar / (c + v).
    Moving-frame times come from the derived closed forms and satisfy the
    midpoint convention tprime1 = (tprime0 + tprime2) / 2 identically.
    """
    t1 = sc.t0 + sc.delta_xbar / (sc.c - sc.v)
    t2 = t1 + sc.delta_xbar / (sc.c + sc.v)
    alpha = scale_factor(sc.v, sc.c)
    return RadarTimeline(
        t0=sc.t0,
        t1=t1,
        t2=t2,
        tprime0=tprime(0.0, sc.t0, sc.v, sc.c, alpha),
        tprime1=tprime(sc.delta_xbar, t1, sc.v, sc.c, alpha),
        tprime2=tprime(0.0, t2, sc.v, sc.c, alpha),
    )


def rest_frame_positions(sc: RadarScenario) -> tuple[float, float, float]:
    """x-coordinates of emission, reflection, and return in the rest frame
    (the source sits at xbar = 0, the mirror at xbar = delta_xbar)."""
    tl = light_clock(sc)
    return (
        sc.v * tl.t0,
        sc.delta_xbar + sc.v * tl.t1,
        sc.v * tl.t2,
    )


def derive_map(v: float, c: float = 1.0) -> AffineLorentzMap:
    """Assemble the 4x4 moving-frame map by evaluating the radar closed
    forms on basis events, with the normalized scale factor.

    This shares no matrix-entry formulas with :func:`lightcone.boost.boost_x`
    yet agrees with it entrywise.  The velocity is validated once, here.
    """
    check_velocity(v, c)
    alpha = scale_factor(v, c)
    L = np.zeros((4, 4))
    for j in range(4):
        x, y, z, t = np.eye(4)[j]
        xbar = comoving(x, t, v)
        L[0, j] = _xprime(xbar, v, c, alpha)
        L[1, j] = _yzprime(y, v, c, alpha)
        L[2, j] = _yzprime(z, v, c, alpha)
        L[3, j] = _tprime(xbar, t, v, c, alpha)
    return AffineLorentzMap(1.0, L, np.zeros(4))
