"""Seeded factories for synthetic sample sets.

Positive kinds (``lorentz``, ``translation``, ``noisy-lorentz``) come from
a known affine map whose parameters go into a ground-truth record for
round-trip tests.  Negative kinds (``cubing``, ``shear``) break the
cone-preservation hypotheses on purpose; the cubing factory records in the
ground truth, as ``witness_pair``, the first placed null pair whose image pair
is demonstrably non-null (ValueError if there is none).

Every sample cloud holds null partners of four points, which the pairwise
cone check tests with every other pair, and carries markers for the
downstream checks: collinear triples, parallel segment pairs, and a grid of
multiples of one axis vector for the induced-scalar-map check.  The time
coordinate is drawn with spread ``SPREAD * min(1, 30 / c)`` so that clouds
stay numerically informative at any invariant speed: wider would drown the
small boost entries, narrower would leave the time column of the fit
under-resolved.

The markers hold by construction, so ``make_samples`` and ``permute_images``
build their samples, x, y and markers complete, through the trusted constructor
of :mod:`lightcone.recover`, which skips only the marker checks of ``SampleSet``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import BoostParams, boost_x
from .minkowski import DEFAULT_TOL, CausalClass, Metric, classify
from .recover import AxisGrid, SampleSet, _trusted_samples

KINDS = ("lorentz", "translation", "cubing", "shear", "noisy-lorentz")

#: half-width of each coordinate's uniform draw (time: SPREAD * min(1, 30 / c))
SPREAD = 5.0

AXIS_GRID_VALUES = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0)

#: points added on top of the generic cloud: 4 null partners, 4 collinear
#: third points, 3 parallel quadruples, and the axis grid
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
            raise ValueError(
                f"num_samples counts all pairs including the {STRUCTURED_POINTS} "
                f"marker points; need at least {floor}"
            )
        if self.noise < 0:
            raise ValueError("noise level must be >= 0")
        if self.kind == "lorentz" and self.n != 4:
            raise ValueError("boost ground truths are four-dimensional")


def _scales(cfg: GenerateConfig) -> np.ndarray:
    s = np.full(cfg.n, SPREAD)
    s[-1] = SPREAD * min(1.0, 30.0 / cfg.c)
    return s


def _domain_cloud(cfg: GenerateConfig, rng: np.random.Generator):
    """Random base points plus marked structures, ``num_samples`` in total."""
    scales = _scales(cfg)
    base = cfg.num_samples - STRUCTURED_POINTS
    pts = list(rng.uniform(-1.0, 1.0, (base, cfg.n)) * scales)

    null_partners = []
    for i in range(4):
        anchor = pts[i % base]
        u = rng.standard_normal(cfg.n - 1)
        u /= np.linalg.norm(u)
        dt = rng.uniform(0.2, 1.0) * scales[-1]
        partner = anchor + np.concatenate([cfg.c * dt * u, [dt]])
        pts.append(partner)
        null_partners.append((i % base, len(pts) - 1))

    collinear = []
    for _ in range(4):
        i, j = rng.choice(base, size=2, replace=False)
        lam = rng.uniform(0.3, 1.8)
        pts.append(pts[i] + lam * (pts[j] - pts[i]))
        collinear.append((int(i), int(j), len(pts) - 1))

    parallel = []
    for _ in range(3):
        d = rng.uniform(-1.0, 1.0, cfg.n) * scales
        b1 = rng.uniform(-1.0, 1.0, cfg.n) * scales
        b2 = rng.uniform(-1.0, 1.0, cfg.n) * scales
        start = len(pts)
        pts.extend([b1, b1 + d, b2, b2 + d])
        parallel.append((start, start + 1, start + 2, start + 3))

    axis = rng.uniform(0.2, 1.0, cfg.n) * rng.choice([-1.0, 1.0], cfg.n) * scales
    grid_base = len(pts)
    pts.extend(g * axis for g in AXIS_GRID_VALUES)
    axis_grid = AxisGrid(
        axis=axis,
        values=AXIS_GRID_VALUES,
        indices=tuple(range(grid_base, grid_base + len(AXIS_GRID_VALUES))),
    )
    return np.array(pts), collinear, parallel, null_partners, axis_grid


def _ground_truth_map(cfg: GenerateConfig, rng: np.random.Generator):
    if cfg.kind == "translation":
        alpha, L = 1.0, np.eye(cfg.n)
    else:
        alpha, L = cfg.alpha, boost_x(BoostParams(cfg.v, cfg.c)).L
    if cfg.translation is not None:
        a = np.asarray(cfg.translation, dtype=float)
        if a.shape != (cfg.n,):
            raise ValueError(f"translation has shape {a.shape}, expected ({cfg.n},)")
    else:
        a = rng.uniform(-1.0, 1.0, cfg.n) * _scales(cfg)
    return alpha, L, a


def make_samples(cfg: GenerateConfig) -> tuple[SampleSet, dict]:
    """Build a SampleSet for the configured kind plus its ground-truth
    record (the exact map for affine kinds, the defining formula otherwise).
    Deterministic for a fixed seed.  The points, images and markers are built
    first, and the sample once, its markers unchecked: they hold by construction."""
    rng = np.random.default_rng(cfg.seed)
    metric = Metric(cfg.n, cfg.c)
    x, collinear, parallel, null_partners, axis_grid = _domain_cloud(cfg, rng)

    truth: dict = {"kind": cfg.kind, "seed": cfg.seed, "n": cfg.n, "c": cfg.c}
    if cfg.kind in ("lorentz", "translation", "noisy-lorentz"):
        alpha, L, a = _ground_truth_map(cfg, rng)
        y = alpha * (x @ L.T) + a
        truth.update(
            alpha=alpha,
            L=L.tolist(),
            a=a.tolist(),
            v=cfg.v if cfg.kind != "translation" else 0.0,
            noise=cfg.noise if cfg.kind == "noisy-lorentz" else 0.0,
        )
        if cfg.kind == "noisy-lorentz":
            # one fixed unit draw scaled by the level, so residuals are
            # monotone in the level for a fixed seed
            noise_rng = np.random.default_rng([cfg.seed, 0x5EED])
            y = y + cfg.noise * noise_rng.standard_normal(y.shape)
    elif cfg.kind == "cubing":
        y = x ** 3
        truth["formula"] = "y_k = x_k^3"
        truth["witness_pair"] = list(_nonnull_image_witness(metric, y, null_partners))
    elif cfg.kind == "shear":
        y = x.copy()
        y[:, 0] = y[:, 0] + x[:, 0] ** 2
        truth["formula"] = "y_1 = x_1 + x_1^2"
    else:  # pragma: no cover - guarded by GenerateConfig
        raise ValueError(cfg.kind)

    return _trusted_samples(metric, x, y, tuple(collinear), tuple(parallel), axis_grid), truth


def _nonnull_image_witness(metric: Metric, y: np.ndarray, null_partners: list) -> tuple[int, int]:
    """The first placed null pair whose image is not null at 100 * DEFAULT_TOL, or ValueError."""
    for i, j in null_partners:
        if classify(y[i], y[j], metric, 100 * DEFAULT_TOL) is not CausalClass.LIGHTLIKE:
            return i, j
    raise ValueError("no placed null pair has a non-null image under cubing")


def permute_images(s: SampleSet, seed: int = 0) -> SampleSet:
    """Scramble which image belongs to which point (a derangement), keeping
    everything else; the result generically violates cone preservation."""
    rng = np.random.default_rng(seed)
    n = len(s)
    perm = np.arange(n)
    while np.any(perm == np.arange(n)):
        perm = rng.permutation(n)
    return _trusted_samples(s.metric, s.x, s.y[perm], s.collinear, s.parallel, s.axis_grid)
