"""Seeded factories for synthetic sample sets.

Positive kinds (``lorentz``, ``translation``, ``noisy-lorentz``) come from
a known affine map whose parameters go into a ground-truth record for
round-trip tests.  Negative kinds (``cubing``, ``shear``) break the
cone-preservation hypotheses on purpose; the cubing factory records in the
ground truth, as ``witness_pair``, the first placed null pair whose image pair
is demonstrably non-null (ValueError if there is none).

A cloud of N = ``num_samples`` points in dimension n is one (N, n) array.  Its
rows, and the draws from ``default_rng(seed)`` that fill them, come in this order:

1. B = N - STRUCTURED_POINTS base points: one ``uniform(-1, 1, (B, n))`` draw;
2. 4 null partners x_i + (c dt u, dt), row B + i for base point i, each from a unit
   u (``standard_normal(n - 1)``, normalised) and a time step dt (``uniform(0.2, 1)``);
3. 4 collinear third points x_i + lam (x_j - x_i), each from base points i, j
   (``choice(B, 2, replace=False)``) and lam (``uniform(0.3, 1.8)``);
4. 3 parallel quadruples b1, b1 + d, b2, b2 + d, from one ``uniform(-1, 1, (3, 3, n))``
   draw holding d, b1, b2 of each;
5. the axis grid, rows g * axis for g in AXIS_GRID_VALUES, the axis from
   ``uniform(0.2, 1, n)`` and the signs ``integers(0, 2, n)``;

then the translation of an affine kind, ``uniform(-1, 1, n)``, unless one is given;
``noisy-lorentz`` draws its noise from ``default_rng([seed, 0x5EED])``.  Uniform
coordinates are scaled by SPREAD in space and ``SPREAD * min(1, 30 / c)`` in time, so
clouds stay numerically informative at any invariant speed.  This layout and draw
order are a contract that ``tests/test_generate.py`` pins byte for byte.

The markers hold by construction, so ``make_samples`` and ``permute_images``
build their samples through the trusted constructor of :mod:`lightcone.recover`,
which checks the points and skips only the marker checks of ``SampleSet``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boost import BoostParams, boost_x
from .minkowski import DEFAULT_TOL, CausalClass, Metric, classify
from .recover import AxisGrid, SampleSet, _trusted_samples

KINDS = ("lorentz", "translation", "cubing", "shear", "noisy-lorentz")

#: half-width of each coordinate's uniform draw (time: SPREAD * min(1, 30 / c))
SPREAD = 5.0

AXIS_GRID_VALUES = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0)

#: marker rows after the base points: null partners, collinear thirds, parallels, grid
STRUCTURED_POINTS = 4 + 4 + 4 * 3 + len(AXIS_GRID_VALUES)


@dataclass(frozen=True)
class GenerateConfig:
    kind: str
    n: int = 4
    c: float = 1.0
    v: float = 0.6
    alpha: float = 1.0
    translation: tuple[float, ...] | None = None
    num_samples: int = 50
    seed: int = 0
    noise: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if self.n < 3:
            raise ValueError("recovery samples need dimension n >= 3")
        floor = STRUCTURED_POINTS + self.n + 1
        if self.num_samples < floor:
            raise ValueError(f"num_samples counts all pairs including the {STRUCTURED_POINTS} "
                             f"marker points; need at least {floor}")
        if self.noise < 0:
            raise ValueError("noise level must be >= 0")
        if self.noise != 0 and self.kind != "noisy-lorentz":
            raise ValueError(f"{self.kind} takes no noise; only noisy-lorentz does")
        if self.translation is not None and self.kind in ("cubing", "shear"):
            raise ValueError(f"{self.kind} is not affine and takes no translation")
        if self.kind in ("lorentz", "noisy-lorentz") and self.n != 4:
            raise ValueError("boost ground truths are four-dimensional")


def _scales(cfg: GenerateConfig) -> np.ndarray:
    s = np.full(cfg.n, SPREAD)
    s[-1] = SPREAD * min(1.0, 30.0 / cfg.c)
    return s


def _domain_cloud(cfg: GenerateConfig, scales: np.ndarray, rng: np.random.Generator):
    """The points and markers, in the layout and draw order of the module docstring."""
    n, base = cfg.n, cfg.num_samples - STRUCTURED_POINTS
    x = np.empty((cfg.num_samples, n))
    x[:base] = rng.uniform(-1.0, 1.0, (base, n)) * scales

    step = np.empty((4, n))  # row base + i: base point i plus a null step (c dt u, dt)
    for i in range(4):
        u = rng.standard_normal(n - 1)
        u /= math.sqrt(u.dot(u))  # np.linalg.norm(u), without its dispatch
        dt = rng.uniform(0.2, 1.0) * scales[-1]
        step[i, :-1], step[i, -1] = cfg.c * dt * u, dt
    x[base:base + 4] = x[:4] + step

    ends, lam = np.empty((2, 4), dtype=int), np.empty((4, 1))
    for k in range(4):  # third point base + 4 + k on the line through base points i, j
        ends[:, k] = rng.choice(base, size=2, replace=False)
        lam[k] = rng.uniform(0.3, 1.8)
    i, j = ends
    x[base + 4:base + 8] = x[i] + lam * (x[j] - x[i])
    collinear = tuple(zip(i.tolist(), j.tolist(), range(base + 4, base + 8)))

    # quadruple q: rows b1, b1 + d, b2, b2 + d from the draws d, b1, b2 = dbb[q]
    dbb = rng.uniform(-1.0, 1.0, (3, 3, n)) * scales
    quads = x[base + 8:base + 20].reshape(3, 4, n)
    quads[:, 0::2] = dbb[:, 1:]
    quads[:, 1::2] = dbb[:, 1:] + dbb[:, :1]
    parallel = tuple(tuple(range(base + 8 + 4 * q, base + 12 + 4 * q)) for q in range(3))

    axis = rng.uniform(0.2, 1.0, n) * np.array([-1.0, 1.0])[rng.integers(0, 2, n)] * scales
    x[base + 20:] = np.multiply.outer(AXIS_GRID_VALUES, axis)
    axis_grid = AxisGrid(axis, AXIS_GRID_VALUES, tuple(range(base + 20, cfg.num_samples)))
    return x, collinear, parallel, axis_grid


def _ground_truth_map(cfg: GenerateConfig, scales: np.ndarray, rng: np.random.Generator):
    alpha, L = ((1.0, np.eye(cfg.n)) if cfg.kind == "translation"
                else (cfg.alpha, boost_x(BoostParams(cfg.v, cfg.c)).L))
    if cfg.translation is None:
        return alpha, L, rng.uniform(-1.0, 1.0, cfg.n) * scales
    a = np.asarray(cfg.translation, dtype=float)
    if a.shape != (cfg.n,):
        raise ValueError(f"translation has shape {a.shape}, expected ({cfg.n},)")
    return alpha, L, a


def make_samples(cfg: GenerateConfig) -> tuple[SampleSet, dict]:
    """Build a SampleSet for the configured kind plus its ground-truth
    record (the exact map for affine kinds, the defining formula otherwise).
    Deterministic for a fixed seed, in the row layout and draw order of the module
    docstring.  The points, images and markers are built first, and the sample once,
    its points checked and its markers unchecked: they hold by construction."""
    rng = np.random.default_rng(cfg.seed)
    metric = Metric(cfg.n, cfg.c)
    scales = _scales(cfg)
    x, collinear, parallel, axis_grid = _domain_cloud(cfg, scales, rng)

    truth: dict = {"kind": cfg.kind, "seed": cfg.seed, "n": cfg.n, "c": cfg.c}
    if cfg.kind in ("lorentz", "translation", "noisy-lorentz"):
        alpha, L, a = _ground_truth_map(cfg, scales, rng)
        # an overflowing image is refused by SampleSet ("non-finite values"), unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            y = alpha * (x @ L.T) + a
            if cfg.kind == "noisy-lorentz":
                # one fixed unit draw times the level: residuals are monotone in it
                noise_rng = np.random.default_rng([cfg.seed, 0x5EED])
                y = y + cfg.noise * noise_rng.standard_normal(y.shape)
        truth.update(alpha=alpha, L=L.tolist(), a=a.tolist(),
                     v=cfg.v if cfg.kind != "translation" else 0.0,
                     noise=cfg.noise if cfg.kind == "noisy-lorentz" else 0.0)
    elif cfg.kind == "cubing":
        y = x ** 3
        truth["formula"] = "y_k = x_k^3"
        truth["witness_pair"] = list(_nonnull_image_witness(metric, y))
    elif cfg.kind == "shear":
        y = x.copy()
        y[:, 0] = y[:, 0] + x[:, 0] ** 2
        truth["formula"] = "y_1 = x_1 + x_1^2"
    else:  # pragma: no cover - guarded by GenerateConfig
        raise ValueError(cfg.kind)

    return _trusted_samples(metric, x, y, collinear, parallel, axis_grid), truth


def _nonnull_image_witness(metric: Metric, y: np.ndarray) -> tuple[int, int]:
    """The first placed null pair whose image is not null at 100 * DEFAULT_TOL, or ValueError."""
    base = len(y) - STRUCTURED_POINTS
    for i, j in ((i, base + i) for i in range(4)):
        if classify(y[i], y[j], metric, 100 * DEFAULT_TOL) is not CausalClass.LIGHTLIKE:
            return i, j
    raise ValueError("no placed null pair has a non-null image under cubing")


def permute_images(s: SampleSet, seed: int = 0) -> SampleSet:
    """Scramble which image belongs to which point (a derangement), keeping
    everything else; the result generically violates cone preservation.  A single
    pair has no derangement (ValueError); an empty sample is its own."""
    rng = np.random.default_rng(seed)
    n = len(s)
    if n == 1:
        raise ValueError("a single pair has no derangement")
    perm = np.arange(n)
    while np.any(perm == np.arange(n)):
        perm = rng.permutation(n)
    return _trusted_samples(s.metric, s.x, s.y[perm], s.collinear, s.parallel, s.axis_grid)
