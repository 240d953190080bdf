import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lightcone import (
    AffineLorentzMap,
    AxisGrid,
    BoostParams,
    GenerateConfig,
    Metric,
    SampleSet,
    UnderdeterminedError,
    boost_x,
    check_collinearity,
    check_cone_preservation,
    check_parallelism,
    fit_affine,
    induced_field_map_check,
    make_samples,
    permute_images,
    recover_lorentz,
)
from lightcone import recover
from lightcone.boost import apply

M4 = Metric(4, 1.0)


def affine_samples(x, alpha, L, a):
    x = np.asarray(x, dtype=float)
    return SampleSet(metric=Metric(x.shape[1], 1.0), x=x, y=alpha * (x @ np.asarray(L).T) + a)


def lorentz_set(seed=7, **kwargs):
    cfg = GenerateConfig(kind="lorentz", v=0.6, alpha=2.0, seed=seed, **kwargs)
    return make_samples(cfg)


# ---------------------------------------------------- cone preservation


def test_cone_check_clean_for_boost_samples():
    s, _ = lorentz_set()
    res = check_cone_preservation(s)
    assert res.violations == 0
    assert res.bijectivity_violations == 0


def test_cone_check_flags_duplicate_images():
    x = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0, 1, 0, 0], [0.0, 0, 1, 0], [0.0, 0, 0, 1]])
    y = x.copy()
    y[1] = y[0]  # two distinct points, equal images
    res = check_cone_preservation(SampleSet(metric=M4, x=x, y=y))
    assert res.bijectivity_violations >= 1


def test_cone_check_catches_cubing_on_null_pair():
    # (0,0,0,0) and (1,1,1,sqrt(3)) are null; their cubes have interval
    # 3 - 27 = -24, evaluated directly
    a = np.zeros(4)
    b = np.array([1.0, 1.0, 1.0, math.sqrt(3.0)])
    d = b ** 3 - a ** 3
    assert abs(np.dot(b[:3], b[:3]) - b[3] ** 2) < 1e-12
    assert np.dot(d[:3], d[:3]) - d[3] ** 2 == pytest.approx(3 - 27, rel=1e-12)
    x = np.vstack([a, b, np.eye(4) * 0.3])
    res = check_cone_preservation(SampleSet(metric=M4, x=x, y=x ** 3))
    assert res.violations >= 1
    assert res.worst_pair is not None


# ---------------------------------------------------- marker checks


def test_collinearity_clean_for_affine():
    x = np.array([[0.0, 0, 0, 0], [1.0, 2, 0, 1], [2.0, 4, 0, 2], [3.0, 1, 1, 0], [0, 0, 1, 0]])
    s = affine_samples(x, 2.0, boost_x(BoostParams(0.3)).L, np.array([1.0, 2, 3, 4]))
    s.collinear = [(0, 1, 2)]
    assert check_collinearity(s).violations == 0


def test_collinearity_catches_cubing():
    x = np.array([[1.0, 1, 0, 0.2], [2.0, 1.5, 0, 0.4], [3.0, 2.0, 0, 0.6], [0, 0, 1, 0], [0, 0, 0, 1]])
    s = SampleSet(metric=M4, x=x, y=x ** 3, collinear=[(0, 1, 2)])
    assert check_collinearity(s).violations == 1


def test_collinearity_rejects_degenerate_marker():
    x = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    s = SampleSet(metric=M4, x=np.vstack([x, np.eye(4)[1:]]), y=np.vstack([x, np.eye(4)[1:]]),
                  collinear=[(0, 1, 2)])
    with pytest.raises(ValueError, match="degenerate"):
        check_collinearity(s)


def test_collinearity_rejects_noncollinear_marker():
    x = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    s = SampleSet(metric=M4, x=x, y=x, collinear=[(0, 1, 2)])
    with pytest.raises(ValueError, match="not collinear"):
        check_collinearity(s)


def _parallel_segments_sample(f):
    # two parallel segments with direction (1, 1, 0, 0), offset in x_1
    pts = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [3.0, 0.0, 0.0, 0.0],
        [4.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return SampleSet(metric=M4, x=pts, y=np.apply_along_axis(f, 1, pts),
                     parallel=[(0, 1, 2, 3)])


def test_parallelism_clean_for_affine_and_translation():
    L = boost_x(BoostParams(0.5)).L
    s = _parallel_segments_sample(lambda p: 1.5 * (L @ p) + np.array([1.0, 2, 3, 4]))
    assert check_parallelism(s).violations == 0
    s = _parallel_segments_sample(lambda p: p + np.array([9.0, -1, 0, 2]))
    assert check_parallelism(s).violations == 0


def test_parallelism_catches_quadratic_shear():
    # adding x_1^2 to x_1 turns offset parallels into non-parallels
    s = _parallel_segments_sample(lambda p: p + np.array([p[0] ** 2, 0, 0, 0]))
    assert check_parallelism(s).violations == 1


def test_parallelism_rejects_collapsed_image():
    s = _parallel_segments_sample(lambda p: np.zeros(4))
    with pytest.raises(ValueError, match="zero-length"):
        check_parallelism(s)


# ---------------------------------------------------- affine fit


def test_fit_pure_translation():
    rng = np.random.default_rng(31)
    x = rng.uniform(-2, 2, (12, 4))
    a0 = np.array([1.0, -2.0, 0.5, 3.0])
    s = SampleSet(metric=M4, x=x, y=x + a0)
    M, a, resid = fit_affine(s)
    np.testing.assert_allclose(M, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(a, a0, atol=1e-13)
    assert resid <= 1e-12


def test_fit_scaled_boost_with_translation():
    rng = np.random.default_rng(32)
    x = rng.uniform(-3, 3, (50, 4))
    L = boost_x(BoostParams(0.6)).L
    a0 = np.array([1.0, 2.0, 3.0, 4.0])
    s = SampleSet(metric=M4, x=x, y=2.0 * (x @ L.T) + a0)
    M, a, resid = fit_affine(s)
    np.testing.assert_allclose(M, 2.0 * L, atol=1e-12)
    np.testing.assert_allclose(a, a0, atol=1e-12)
    assert resid < 1e-10


def test_fit_underdetermined_on_coplanar_samples():
    # five points confined to a plane cannot pin down a map of R^4
    rng = np.random.default_rng(33)
    u, w = rng.uniform(-1, 1, (2, 4))
    coeffs = rng.uniform(-2, 2, (5, 2))
    x = coeffs @ np.vstack([u, w])
    s = SampleSet(metric=M4, x=x, y=x)
    with pytest.raises(UnderdeterminedError):
        fit_affine(s)


def test_fit_needs_enough_samples():
    with pytest.raises(UnderdeterminedError):
        fit_affine(SampleSet(metric=M4, x=np.eye(4)[:3], y=np.eye(4)[:3]))


# ---------------------------------------------------- recovery


def test_recover_roundtrip():
    s, truth = lorentz_set()
    rep = recover_lorentz(s)
    assert rep.total_violations == 0
    assert rep.recovered is not None
    assert abs(rep.recovered.alpha - truth["alpha"]) <= 1e-8
    assert np.max(np.abs(rep.recovered.L - np.array(truth["L"]))) <= 1e-8
    assert np.max(np.abs(rep.recovered.a - np.array(truth["a"]))) <= 1e-8
    assert rep.single_cone_counterexamples == 0


def test_recover_identity_samples():
    rng = np.random.default_rng(34)
    x = rng.uniform(-2, 2, (20, 4))
    rep = recover_lorentz(SampleSet(metric=M4, x=x, y=x.copy()))
    assert rep.recovered is not None
    assert rep.max_residual <= 1e-12
    assert abs(rep.recovered.alpha - 1.0) <= 1e-12
    np.testing.assert_allclose(rep.recovered.L, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(rep.recovered.a, np.zeros(4), atol=1e-12)


def test_recover_rejects_nonconformal_linear_map():
    rng = np.random.default_rng(35)
    x = rng.uniform(-2, 2, (30, 4))
    D = np.diag([1.0, 2.0, 3.0, 4.0])
    rep = recover_lorentz(SampleSet(metric=M4, x=x, y=x @ D.T))
    assert rep.recovered is None
    assert rep.failure is not None and "not-conformal" in rep.failure


def test_recover_reports_underdetermined():
    rng = np.random.default_rng(36)
    u, w = rng.uniform(-1, 1, (2, 4))
    coeffs = rng.uniform(-2, 2, (8, 2))
    x = coeffs @ np.vstack([u, w])
    rep = recover_lorentz(SampleSet(metric=M4, x=x, y=x))
    assert rep.recovered is None
    assert "underdetermined" in rep.failure


def test_recovered_map_reproduces_samples():
    s, _ = lorentz_set(seed=9)
    rep = recover_lorentz(s)
    slack = rep.max_residual + 1e-12
    for xi, yi in zip(s.x, s.y):
        assert np.linalg.norm(apply(rep.recovered, xi) - yi) <= slack


# ---------------------------------------------------- field map


def _axis_sample(f, axis, values, n=4):
    values = tuple(float(v) for v in values)
    pts = [v * axis for v in values]
    # pad with generic points so the sample is nondegenerate elsewhere
    rng = np.random.default_rng(40)
    pts.extend(rng.uniform(-1, 1, (6, n)))
    x = np.array(pts)
    y = np.apply_along_axis(f, 1, x)
    grid = AxisGrid(axis=np.asarray(axis, float), values=values,
                    indices=tuple(range(len(values))))
    return SampleSet(metric=Metric(n, 1.0), x=x, y=y, axis_grid=grid)


def test_field_map_identity_for_affine():
    L = boost_x(BoostParams(0.4)).L
    a = np.array([0.3, -1.0, 2.0, 0.1])
    axis = np.array([1.0, 0.5, -0.25, 0.75])
    s = _axis_sample(lambda p: 1.7 * (L @ p) + a, axis, (-2, -1, 0, 0.5, 1, 2, 3))
    fm = induced_field_map_check(s, axis, (-2, -1, 0, 0.5, 1, 2, 3))
    assert fm.line_preserved
    assert fm.additivity_error <= 1e-10
    assert fm.multiplicativity_error <= 1e-10
    assert fm.identity_error <= 1e-10
    assert fm.monotone


def test_field_map_trivial_grid():
    axis = np.array([1.0, 0.0, 0.0, 0.0])
    s = _axis_sample(lambda p: 2.0 * p, axis, (0, 1))
    fm = induced_field_map_check(s, axis, (0, 1))
    # zeta(0) = 0 and zeta(1) = 1 hold by construction
    assert fm.identity_error == 0.0


def test_field_map_cubing_multiplicative_not_additive():
    # cubing the axis coordinate: zeta(x) = x^3 multiplies but 1 + 8 != 27
    axis = np.array([1.0, 0.0, 0.0, 0.0])
    values = (0.0, 1.0, 2.0, 3.0, 6.0)
    s = _axis_sample(lambda p: p ** 3, axis, values)
    fm = induced_field_map_check(s, axis, values)
    assert fm.line_preserved
    assert fm.multiplicativity_error <= 1e-10  # zeta(6) = 216 = 8 * 27
    assert fm.additivity_error >= 27 - 9 - 1e-9  # zeta(3) vs zeta(1) + zeta(2)


def test_field_map_reports_broken_line():
    axis = np.array([1.0, 1.0, 0.0, 0.0])
    s = _axis_sample(lambda p: p + np.array([p[0] ** 2, 0, 0, 0]), axis, (0, 1, 2))
    fm = induced_field_map_check(s, axis, (0, 1, 2))
    assert not fm.line_preserved
    assert math.isnan(fm.additivity_error)


def test_field_map_requires_grid_many():
    axis = np.array([1.0, 0.0, 0.0, 0.0])
    s = _axis_sample(lambda p: p, axis, (0, 1))
    with pytest.raises(ValueError, match="0 and 1"):
        induced_field_map_check(s, axis, (0.5, 2.0))
    with pytest.raises(ValueError, match="missing"):
        induced_field_map_check(s, axis, (0.0, 1.0, 7.0))


# ---------------------------------------------------- end-to-end properties


def test_soundness_sweep():
    # 2(n+1) = 10 generic points on top of the structured markers
    from lightcone.generate import STRUCTURED_POINTS

    rng = np.random.default_rng(41)
    for trial in range(8):
        cfg = GenerateConfig(
            kind="lorentz",
            v=float(rng.uniform(-0.9, 0.9)),
            alpha=float(rng.uniform(0.5, 3.0)),
            seed=100 + trial,
            num_samples=STRUCTURED_POINTS + 2 * 5,
        )
        s, truth = make_samples(cfg)
        rep = recover_lorentz(s)
        assert rep.total_violations == 0
        assert rep.recovered is not None
        assert abs(rep.recovered.alpha - truth["alpha"]) <= 1e-8
        assert np.max(np.abs(rep.recovered.L - np.array(truth["L"]))) <= 1e-8
        assert np.max(np.abs(rep.recovered.a - np.array(truth["a"]))) <= 1e-8


def test_soundness_across_conventions():
    # same pipeline, any invariant speed; errors relative to entry size
    rng = np.random.default_rng(42)
    for c in (0.1, 1.0, 343.0, 2.99792458e8):
        cfg = GenerateConfig(
            kind="lorentz",
            c=c,
            v=float(rng.uniform(-0.9, 0.9)) * c,
            alpha=float(rng.uniform(0.5, 3.0)),
            seed=55,
        )
        s, truth = make_samples(cfg)
        rep = recover_lorentz(s)
        assert rep.total_violations == 0
        assert rep.recovered is not None
        L_true = np.array(truth["L"])
        assert np.max(np.abs(rep.recovered.L - L_true) / np.maximum(1, np.abs(L_true))) <= 1e-8
        a_true = np.array(truth["a"])
        assert np.max(np.abs(rep.recovered.a - a_true) / np.maximum(1, np.abs(a_true))) <= 1e-8


def test_completeness_negative_controls():
    for kind in ("cubing", "shear"):
        s, _ = make_samples(GenerateConfig(kind=kind, seed=77))
        rep = recover_lorentz(s)
        assert rep.recovered is None
        assert rep.total_violations >= 1 or rep.max_residual > rep.fit_threshold

    s, _ = lorentz_set(seed=78)
    rep = recover_lorentz(permute_images(s, seed=5))
    assert rep.recovered is None
    assert rep.total_violations >= 1 or rep.max_residual > rep.fit_threshold


def test_noise_degrades_monotonically():
    residuals = []
    for eps in (0.0, 1e-9, 1e-6, 1e-3):
        cfg = GenerateConfig(kind="noisy-lorentz", v=0.5, alpha=1.5, seed=91, noise=eps)
        s, _ = make_samples(cfg)
        residuals.append(recover_lorentz(s).max_residual)
    assert all(a <= b for a, b in zip(residuals, residuals[1:]))


def test_sampleset_validates_markers():
    with pytest.raises(ValueError, match="out of range"):
        SampleSet(metric=M4, x=np.eye(4), y=np.eye(4), collinear=[(0, 1, 99)])


# ------------------------------------------- cone check against a pair loop


def _reference_cone_check(s, tol):
    # the pairwise definition written out one pair at a time
    def side(p, q):
        d = p - q
        iv = float(np.sum(d[:-1] ** 2) - s.metric.c ** 2 * d[-1] ** 2)
        scale = float(np.sum(d[:-1] ** 2)) + float(s.metric.c ** 2 * d[-1] ** 2)
        return abs(iv), tol * scale, scale == 0.0

    violations = indeterminate = duplicates = 0
    worst_pair, worst_excess = None, 0.0
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            (ax, bx, dx), (ay, by, dy) = side(s.x[i], s.x[j]), side(s.y[i], s.y[j])
            duplicates += dx + dy
            null_x, null_y = ax <= bx, ay <= by
            if (not null_x and ax <= 10 * bx) or (not null_y and ay <= 10 * by):
                indeterminate += 1
            elif null_x != null_y:
                violations += 1
                num, band = (ay, by) if null_x else (ax, bx)
                excess = num / band if band else math.inf  # band 0: tol = 0, or tol * scale underflows
                if excess > worst_excess or worst_pair is None:
                    worst_pair, worst_excess = (i, j), excess
    return violations, indeterminate, duplicates, worst_pair


def _repeat_rows(s):
    # an exactly repeated pair, and a distinct point with a repeated image
    s.x = np.vstack([s.x, s.x[0], s.x[1] + s.x[2]])
    s.y = np.vstack([s.y, s.y[0], s.y[5]])
    return s


def _reference_corpus():
    for c in (0.1, 1.0, 343.0, 2.99792458e8):
        for kind in ("lorentz", "cubing", "permuted"):
            cfg = GenerateConfig(kind="cubing" if kind == "cubing" else "lorentz",
                                 c=c, v=0.6 * c, num_samples=60, seed=3)
            s, _ = make_samples(cfg)
            if kind == "permuted":
                s = permute_images(s, 3)
            yield f"{kind}-c{c:g}", _repeat_rows(s)


def _assert_matches_pair_loop(corpus):
    totals = np.zeros(3, dtype=int)
    for name, s in corpus:
        for tol in (1e-9, 1e-3):
            res = check_cone_preservation(s, tol)
            violations, indeterminate, duplicates, worst_pair = _reference_cone_check(s, tol)
            got = (res.violations, res.indeterminate, res.bijectivity_violations, res.worst_pair)
            assert got == (violations, indeterminate, duplicates, worst_pair), (name, tol)
            totals += (violations > 0, indeterminate > 0, duplicates > 0)
    assert np.all(totals > 0)  # every branch of the definition is exercised


def test_cone_check_matches_pair_loop():
    _assert_matches_pair_loop(_reference_corpus())


@pytest.mark.parametrize("block", [7, 61])
def test_cone_check_matches_pair_loop_across_blocks(monkeypatch, block):
    # 7 leaves a partial last block of the 62 rows; 61 leaves the last row,
    # which has no later partner, outside every block
    monkeypatch.setattr(recover, "_CONE_BLOCK", block)
    corpus = list(_reference_corpus())
    assert all(len(s) == 62 for _, s in corpus)
    _assert_matches_pair_loop(corpus)


def _dimension_corpus():
    # the coordinate loop of the kernel depends on n; lorentz samples are 4-D only
    for n in (3, 5):
        for c in (0.1, 1.0, 343.0, 2.99792458e8):
            for kind in ("cubing", "translation", "shear"):
                cfg = GenerateConfig(kind=kind, n=n, c=c, v=0.6 * c, num_samples=60, seed=4)
                yield f"{kind}-n{n}-c{c:g}", _repeat_rows(make_samples(cfg)[0])
    # n = 2: one spatial term, so the kernel's inner coordinate loop is empty
    rng = np.random.default_rng(43)
    for c in (1.0, 343.0):
        x = rng.uniform(-2, 2, (40, 2)) / (1.0, c)
        x[20:30] = x[:10] + rng.choice((-1.0, 1.0), (10, 1)) * (c, 1.0)  # null pairs
        yield f"hand-n2-c{c:g}", _repeat_rows(SampleSet(metric=Metric(2, c), x=x, y=x ** 3))


def test_cone_check_matches_pair_loop_in_other_dimensions():
    _assert_matches_pair_loop(_dimension_corpus())


def test_cone_check_matches_pair_loop_in_other_dimensions_across_blocks(monkeypatch):
    monkeypatch.setattr(recover, "_CONE_BLOCK", 7)
    _assert_matches_pair_loop(_dimension_corpus())


@st.composite
def _small_cone_samples(draw):
    n = draw(st.integers(2, 5))
    size = draw(st.integers(2, 24))
    c = draw(st.sampled_from((1e-3, 1.0, 343.0, 2.99792458e8)))
    index = st.integers(0, size - 1)
    x, y = (
        draw(arrays(np.float64, (size, n), elements=st.floats(-10, 10))) / ((1.0,) * (n - 1) + (c,))
        for _ in range(2)
    )
    for _ in range(draw(st.integers(0, 3))):
        p = draw(st.sampled_from((x, y)))
        p[draw(index)] = p[draw(index)]
    for _ in range(draw(st.integers(0, 3))):
        # p_j - p_i = k (c, 0, ..., 0, 1): null on the chosen sides
        i, j, k = draw(index), draw(index), draw(st.sampled_from((-2.0, 1.0, 3.0)))
        for p in draw(st.sampled_from(((x,), (y,), (x, y)))):
            p[j] = p[i]
            p[j, 0] += k * c
            p[j, -1] += k
    return SampleSet(metric=Metric(n, c), x=x, y=y)


@settings(max_examples=200, deadline=None)
@given(s=_small_cone_samples(), block=st.sampled_from((1, 3, 64)),
       tol=st.sampled_from((1e-9, 1e-3)))
def test_cone_check_matches_pair_loop_property(s, block, tol):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recover, "_CONE_BLOCK", block)
        res = check_cone_preservation(s, tol)
    got = (res.violations, res.indeterminate, res.bijectivity_violations, res.worst_pair)
    assert got == _reference_cone_check(s, tol)


def test_cone_check_worst_pair_tie_across_blocks():
    # rows repeating the worst violating pair give later pairs, in later
    # blocks, of exactly the same excess; the earliest pair must win
    s, _ = make_samples(GenerateConfig(kind="cubing", num_samples=80, seed=3))
    first = check_cone_preservation(s)
    assert first.worst_pair is not None and first.worst_pair[1] < recover._CONE_BLOCK
    i, j = first.worst_pair
    s.x = np.vstack([s.x, s.x[i], s.x[j]])
    s.y = np.vstack([s.y, s.y[i], s.y[j]])
    res = check_cone_preservation(s)
    *_, worst_pair = _reference_cone_check(s, recover.GEOMETRY_TOL)
    assert res.worst_pair == worst_pair == (i, j)
    assert res.worst_excess == first.worst_excess
    # the repeated rows form the same separation, so the tie is exact
    n = len(s)
    tail = SampleSet(metric=s.metric, x=s.x[n - 2:], y=s.y[n - 2:])
    assert check_cone_preservation(tail).worst_excess == first.worst_excess


def test_cone_check_memory_is_row_blocked():
    # the full N x N x n tensors took 343 MiB traced at N = 2000
    s, _ = lorentz_set(num_samples=2000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = check_cone_preservation(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.violations == 0
    assert peak <= 34 * 2 ** 20


def test_single_cone_audit_counts_counterexamples():
    # stretching the image time leg of one marked null pair breaks that pair
    # alone, far outside the band; the vertex row is clean, so the one
    # violating pair is a counterexample
    for c in (0.1, 1.0, 343.0, 2.99792458e8):
        s, _ = make_samples(GenerateConfig(kind="lorentz", c=c, v=0.6 * c, num_samples=60, seed=0))
        assert (1, 32) in s.null_pairs
        s.y[32, -1] = s.y[1, -1] + (s.y[32, -1] - s.y[1, -1]) * (1 + 1e-6)
        rep = recover_lorentz(s)
        assert rep.cone.violations == 1, c
        assert rep.cone.worst_pair == (1, 32), c
        assert rep.single_cone_vertex == 0
        assert rep.single_cone_counterexamples == 1, c
