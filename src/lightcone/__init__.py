"""Cone-preserving maps over an arbitrary invariant speed.

A geometry kernel for R^n with the indefinite inner product
diag(+, ..., +, -c^2), explicit velocity boosts and their conformal
decomposition, the constructive steps that rebuild lines and planes out of
null cones, a recoverer that extracts (alpha, L, a) from a sampled
cone-preserving bijection, and a radar-coordinate light clock that derives
the same boost matrix from a synchronization convention.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .minkowski import (
    DEFAULT_TOL,
    CausalClass,
    Metric,
    classify,
    inner,
    interval,
    on_null_cone,
)
from .boost import (
    AffineLorentzMap,
    BoostParams,
    NotConformalError,
    SignatureError,
    apply,
    boost_x,
    compose,
    decompose_conformal,
    gamma,
    general_boost,
    identity_map,
    inverse,
    is_isometry,
    scale_constraint_check,
    scale_factor,
)
from .cones import (
    Line,
    Plane,
    classify_plane,
    classify_span,
    intersect_null_planes,
    intersect_planes,
    line_through,
    null_plane_through,
    on_null_plane_algebraic,
    on_null_plane_by_characterization,
    plane_through,
    plane_through_lines,
    point_on_line,
    same_line,
    tangent_cone_intersection,
    transform_line,
)
from .radar import (
    RadarScenario,
    RadarTimeline,
    comoving,
    derive_map,
    light_clock,
    tprime,
    xprime,
    yzprime,
)
from .recover import (
    AxisGrid,
    FitReport,
    SampleSet,
    UnderdeterminedError,
    check_collinearity,
    check_cone_preservation,
    check_parallelism,
    fit_affine,
    induced_field_map_check,
    recover_lorentz,
)
from .generate import GenerateConfig, make_samples, permute_images

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
