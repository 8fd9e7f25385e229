"""Dense descriptors, PCA, the GMM codebook, and Fisher encoding."""

import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fusedet import modelio
from fusedet.features.ifv import (
    GmmModel,
    PcaModel,
    dense_descriptors,
    descriptor_count,
    fisher_encode,
    fisher_length,
    gmm_fit,
    gmm_posteriors,
    logsumexp,
    pca_apply,
    pca_fit,
)
from fusedet.images import Image, float_pixels, to_grayscale


def _gray(arr):
    """Grayscale plane of an 8-bit image."""
    return to_grayscale(float_pixels(Image.from_array(arr.astype(np.uint8))))


# ---------------------------------------------------------------- descriptors


def test_dense_descriptor_grid_counts():
    rng = np.random.default_rng(3)
    plane = _gray(rng.integers(0, 256, size=(64, 64)))
    assert dense_descriptors(plane[:32, :32], stride=16, patch=16).shape == (4, 512)
    assert dense_descriptors(plane[:48, :48], stride=8, patch=16).shape == (25, 512)


def test_dense_descriptors_empty_when_window_smaller_than_patch():
    plane = _gray(np.zeros((32, 32)))
    out = dense_descriptors(plane[:10, :10], stride=8, patch=16)
    assert out.shape == (0, 512)


def test_dense_descriptors_uniform_window_all_zero():
    plane = _gray(np.full((40, 40), 90))
    out = dense_descriptors(plane, stride=8, patch=16)
    assert out.shape[0] == 16
    assert np.all(out == 0.0)


def test_dense_descriptors_rows_are_unit_norm():
    rng = np.random.default_rng(5)
    plane = _gray(rng.integers(0, 256, size=(48, 48)))
    out = dense_descriptors(plane, stride=16, patch=16)
    norms = np.sqrt((out**2).sum(axis=1))
    assert np.allclose(norms, 1.0, atol=1e-9)


@pytest.mark.parametrize("stride", [4, 16])
def test_dense_descriptors_on_a_plane_one_patch_wide(stride):
    # each window row is then one contiguous block of the gradient array
    rng = np.random.default_rng(11)
    plane = _gray(rng.integers(0, 256, size=(40, 16)))
    out = dense_descriptors(plane, stride=stride, patch=16)
    gy, gx = np.gradient(plane)
    ys = range(0, 40 - 16 + 1, stride)
    assert out.shape == (len(ys), 512)
    for row, y0 in zip(out, ys):
        d = np.stack([gx[y0 : y0 + 16], gy[y0 : y0 + 16]], axis=-1).ravel()
        assert np.array_equal(row, d / np.sqrt(d @ d))
    stack = dense_descriptors(np.stack([plane, plane[::-1]]), stride=stride, patch=16)
    assert np.array_equal(stack[0], out)


@settings(max_examples=60, deadline=None)
@given(height=st.integers(1, 40), width=st.integers(1, 40), stride=st.integers(1, 12), patch=st.integers(2, 18))
def test_descriptor_count_is_the_row_count_of_dense_descriptors(height, width, stride, patch):
    plane = np.zeros((height, width))
    assert descriptor_count(height, width, stride, patch) == len(dense_descriptors(plane, stride, patch))


def test_dense_descriptors_validate_arguments():
    plane = _gray(np.zeros((32, 32)))
    with pytest.raises(ValueError):
        dense_descriptors(plane, stride=0, patch=16)
    with pytest.raises(ValueError):
        dense_descriptors(plane, stride=8, patch=1)


# ------------------------------------------------------------------------ pca


def test_pca_exact_subspace_reconstruction():
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.normal(size=(10, 3)))[0]
    X = rng.normal(size=(200, 3)) @ basis.T + rng.normal(size=10)
    model = pca_fit(X, 3)
    Z = pca_apply(model, X.copy())
    recon = Z @ model.basis.T + model.mean
    assert np.allclose(recon, X, atol=1e-8)


def test_pca_projected_mean_is_zero():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 6))
    model = pca_fit(X, 4)
    assert np.allclose(pca_apply(model, X.mean(axis=0)), 0.0, atol=1e-9)


def test_pca_basis_is_orthonormal():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(80, 7))
    model = pca_fit(X, 5)
    gram = model.basis.T @ model.basis
    assert np.allclose(gram, np.eye(5), atol=1e-6)


def _top_eigenvalues_power_iteration(cov, k, iters=5000, seed=0):
    """Independent spectral oracle: power iteration with deflation."""
    rng = np.random.default_rng(seed)
    A = cov.copy()
    values = []
    for _ in range(k):
        v = rng.normal(size=A.shape[0])
        v /= np.sqrt(v @ v)
        for _ in range(iters):
            v = A @ v
            v /= np.sqrt(v @ v)
        lam = float(v @ A @ v)
        values.append(lam)
        A = A - lam * np.outer(v, v)
    return values


def test_pca_component_variances_match_power_iteration():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(300, 5)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5])
    model = pca_fit(X, 3)
    Z = pca_apply(model, X.copy())
    got = Z.var(axis=0)  # biased, matching the 1/n covariance
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / X.shape[0]
    expect = _top_eigenvalues_power_iteration(cov, 3)
    assert np.allclose(got, expect, rtol=1e-6)


def test_pca_preserves_inner_products_in_subspace():
    rng = np.random.default_rng(19)
    basis = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    X = rng.normal(size=(60, 3)) @ basis.T
    model = pca_fit(X, 3)
    Z = pca_apply(model, X.copy())
    centered = X - X.mean(axis=0)
    assert np.allclose(Z @ Z.T, centered @ centered.T, atol=1e-6)


def test_pca_rank_deficiency_error_names_achievable_rank():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 6))
    with pytest.raises(ValueError, match="rank is 2"):
        pca_fit(X, 3)


@pytest.mark.parametrize("count", [1, 2, 49])
def test_pca_apply_stack_equals_each_set_alone(count):
    rng = np.random.default_rng(count)
    model = pca_fit(rng.normal(size=(600, 512)), 5)
    stack = rng.normal(size=(8, count, 512))
    Z = pca_apply(model, stack.copy())
    assert Z.shape == (8, count, 5)
    for p in range(8):
        assert np.array_equal(Z[p], pca_apply(model, stack[p]))


def test_pca_fit_that_may_overwrite_centres_in_place():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(300, 40)) * rng.uniform(0.5, 3.0, size=40) + rng.normal(size=40)
    model = pca_fit(X, 6)
    pool = X.copy()
    centred = pca_fit(pool, 6, overwrite_descriptors=True)
    assert centred.mean.tobytes() == model.mean.tobytes()
    assert centred.basis.tobytes() == model.basis.tobytes()
    assert pool.tobytes() == (X - model.mean).tobytes()
    assert (pool @ model.basis).tobytes() == pca_apply(model, X.copy()).tobytes()
    # a fit that may not overwrite leaves its input alone
    before = X.copy()
    pca_fit(X, 6)
    assert X.tobytes() == before.tobytes()


def test_pca_apply_checks_dimension():
    rng = np.random.default_rng(29)
    model = pca_fit(rng.normal(size=(30, 4)), 2)
    with pytest.raises(ValueError):
        pca_apply(model, np.zeros(7))


# ------------------------------------------------------------------------ gmm


def test_gmm_single_component_equals_closed_form_mle():
    rng = np.random.default_rng(31)
    X = rng.normal(loc=2.0, scale=3.0, size=(500, 4))
    gmm = gmm_fit(X, k=1, max_iters=10, tol=1e-12, seed=0)
    assert np.allclose(gmm.weights, [1.0], atol=1e-9)
    assert np.allclose(gmm.means[0], X.mean(axis=0), atol=1e-9)
    assert np.allclose(gmm.variances[0], X.var(axis=0), atol=1e-9)


def test_gmm_two_separated_clusters_recovers_centroids():
    rng = np.random.default_rng(37)
    a = rng.normal(size=(150, 3)) * 0.05 + np.array([5.0, 0.0, 0.0])
    b = rng.normal(size=(150, 3)) * 0.05 - np.array([5.0, 0.0, 0.0])
    X = np.concatenate([a, b])
    gmm = gmm_fit(X, k=2, max_iters=100, tol=1e-12, seed=1)
    means = gmm.means[np.argsort(gmm.means[:, 0])]
    assert np.allclose(means[0], b.mean(axis=0), atol=1e-3)
    assert np.allclose(means[1], a.mean(axis=0), atol=1e-3)
    assert np.allclose(gmm.weights.sum(), 1.0, atol=1e-9)
    assert np.all(gmm.weights > 0)


def test_gmm_duplicated_data_gives_same_model():
    # sufficient statistics are scale invariant; on a well separated problem
    # both fits land on the same stationary point
    rng = np.random.default_rng(41)
    a = rng.normal(size=(80, 2)) * 0.1 + 4.0
    b = rng.normal(size=(80, 2)) * 0.1 - 4.0
    X = np.concatenate([a, b])
    g1 = gmm_fit(X, k=2, max_iters=200, tol=1e-13, seed=3)
    g2 = gmm_fit(np.concatenate([X, X]), k=2, max_iters=200, tol=1e-13, seed=3)
    o1 = np.argsort(g1.means[:, 0])
    o2 = np.argsort(g2.means[:, 0])
    assert np.allclose(g1.means[o1], g2.means[o2], atol=1e-6)
    assert np.allclose(g1.variances[o1], g2.variances[o2], atol=1e-6)
    assert np.allclose(g1.weights[o1], g2.weights[o2], atol=1e-6)


def test_gmm_rejects_fewer_samples_than_components():
    rng = np.random.default_rng(43)
    with pytest.raises(ValueError):
        gmm_fit(rng.normal(size=(3, 2)), k=4, max_iters=5, tol=1e-6, seed=0)


def test_gmm_applies_variance_floor():
    X = np.zeros((20, 2))
    X[:10, 0] = 1e-9  # essentially degenerate spread
    gmm = gmm_fit(X, k=1, max_iters=5, tol=1e-9, seed=0, variance_floor=1e-4)
    assert np.all(gmm.variances >= 1e-4)


def test_gmm_log_likelihood_never_decreases():
    rng = np.random.default_rng(47)
    for trial in range(20):
        n = int(rng.integers(30, 80))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        gmm = gmm_fit(X, k=k, max_iters=30, tol=1e-12, seed=trial)
        lls = gmm.log_likelihoods
        assert len(lls) >= 1
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))


def test_gmm_fit_is_deterministic():
    rng = np.random.default_rng(53)
    X = rng.normal(size=(60, 3))
    g1 = gmm_fit(X, k=3, max_iters=20, tol=1e-10, seed=9)
    g2 = gmm_fit(X, k=3, max_iters=20, tol=1e-10, seed=9)
    assert np.array_equal(g1.means, g2.means)
    assert np.array_equal(g1.variances, g2.variances)
    assert np.array_equal(g1.weights, g2.weights)


def test_gmm_posteriors_rows_sum_to_one():
    rng = np.random.default_rng(59)
    X = rng.normal(size=(40, 3))
    gmm = gmm_fit(X, k=3, max_iters=15, tol=1e-9, seed=2)
    gamma = gmm_posteriors(gmm, X)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(gamma >= 0)


# ------------------------------------------------------------------ logsumexp


@st.composite
def _lse_inputs(draw):
    """(n, k) or (P, T, K) arrays of reals, small integers and -inf; some
    rows are all -inf and some all small integers, so maxima tie."""
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 30), st.integers(1, 20)),
            st.tuples(st.integers(1, 4), st.integers(1, 10), st.integers(1, 20)),
        )
    )
    entries = st.one_of(
        st.floats(-1e300, 1e300, allow_nan=False),
        st.integers(-3, 3).map(float),
        st.just(-np.inf),
    )
    a = draw(hnp.arrays(np.float64, shape, elements=entries))
    ints = draw(hnp.arrays(np.int8, shape, elements=st.integers(-3, 3)))
    kind = draw(hnp.arrays(np.int8, shape[:-1], elements=st.integers(0, 2)))[..., None]
    return np.where(kind == 1, -np.inf, np.where(kind == 2, ints, a))


@settings(max_examples=400, deadline=None)
@given(a=_lse_inputs(), keepdims=st.booleans())
@example(a=np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 2.0], [-np.inf, -np.inf, -np.inf], [-np.inf, 0.5, 0.5]]), keepdims=False)
@example(a=np.full((2, 3, 4), -np.inf), keepdims=True)
@example(a=np.array([[[3.0], [-np.inf]]]), keepdims=False)
def test_logsumexp_has_the_bits_of_scipy(a, keepdims):
    # pins the numpy form to scipy's algorithm: a scipy that changes it
    # fails here before it changes a codebook byte
    got = logsumexp(a, keepdims=keepdims)
    want = scipy.special.logsumexp(a, axis=-1, keepdims=keepdims)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------ the EM it replaced


def _old_kmeans_pp(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            raise ValueError(f"fewer than {k} distinct descriptors")
        idx = int(rng.choice(n, p=d2 / total))
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _old_log_densities(gmm, X):
    inv_var = 1.0 / gmm.variances
    quad = (
        (X**2) @ inv_var.T
        - 2.0 * X @ (gmm.means * inv_var).T
        + ((gmm.means**2) * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def _old_gmm_fit(X, k, max_iters, tol, seed, variance_floor=1e-4):
    """EM as written with scipy's logsumexp, X**2 squared in every
    iteration and the (n, k, D) difference cube for the first assignment."""
    n, dim = X.shape
    rng = np.random.default_rng(seed)
    centers = _old_kmeans_pp(X, k, rng)
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    weights = np.bincount(assign, minlength=k).astype(np.float64) / n
    means = centers.copy()
    variances = np.full((k, dim), 1.0)
    for j in range(k):
        members = X[assign == j]
        if len(members):
            means[j] = members.mean(axis=0)
            variances[j] = members.var(axis=0)
    gmm = GmmModel(weights=weights, means=means, variances=np.maximum(variances, variance_floor))
    lls = []
    for _ in range(max_iters):
        logp = _old_log_densities(gmm, X)
        log_marginal = scipy.special.logsumexp(logp, axis=1)
        ll = float(log_marginal.mean())
        converged = bool(lls) and ll - lls[-1] < tol
        lls.append(ll)
        if converged:
            break
        gamma = np.exp(logp - log_marginal[:, None])
        nk = gamma.sum(axis=0)
        gmm.weights = nk / n
        gmm.means = (gamma.T @ X) / nk[:, None]
        second = (gamma.T @ (X**2)) / nk[:, None]
        gmm.variances = np.maximum(second - gmm.means**2, variance_floor)
    gmm.log_likelihoods = lls
    return gmm


def _em_points(seed, n, d, copies, step):
    """n points in d dims from a few blobs of different spreads, rounded to
    multiples of step if it is set (so distances to centres tie); each
    point repeated copies times, the repeats shuffled in."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=4.0, size=(4, d))
    X = centres[rng.integers(4, size=n)] + rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0, size=(n, 1))
    if step:
        X = np.round(X / step) * step
    return rng.permutation(np.repeat(X, copies, axis=0))


@pytest.mark.parametrize(
    "seed, n, d, k, copies, step, iters, tol",
    [
        (0, 300, 2, 3, 1, 0, 60, 1e-12),
        (1, 500, 8, 5, 1, 0, 40, 1e-12),
        (2, 400, 64, 16, 1, 0, 30, 1e-12),
        (3, 200, 3, 1, 1, 0, 10, 1e-12),
        (4, 120, 5, 4, 3, 0, 50, 1e-12),
        (5, 60, 1, 6, 5, 0, 50, 1e-12),
        (6, 800, 16, 8, 1, 0, 100, 1e-4),
        (7, 40, 4, 40, 1, 0, 5, 1e-12),
        (8, 300, 3, 6, 2, 0.1, 30, 1e-12),
        (9, 400, 2, 8, 1, 0.3, 30, 1e-12),
    ],
)
def test_gmm_fit_has_the_bits_of_the_em_it_replaced(seed, n, d, k, copies, step, iters, tol):
    X = _em_points(seed, n, d, copies, step)
    new = gmm_fit(X, k, iters, tol, seed + 100)
    old = _old_gmm_fit(X, k, iters, tol, seed + 100)
    for name in ("weights", "means", "variances"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    assert new.log_likelihoods == old.log_likelihoods


def test_gmm_posteriors_of_a_stack_have_the_bits_of_the_old_softmax():
    rng = np.random.default_rng(67)
    X = rng.normal(size=(5, 49, 6))
    gmm = gmm_fit(rng.normal(size=(300, 6)), 7, 10, 1e-12, 3)
    logp = _old_log_densities(gmm, X)
    want = np.exp(logp - scipy.special.logsumexp(logp, axis=-1, keepdims=True))
    assert gmm_posteriors(gmm, X).tobytes() == want.tobytes()
    assert gmm_posteriors(gmm, X, X**2).tobytes() == want.tobytes()


def test_gmm_fit_memory_follows_the_pool_not_the_cube():
    # the (n, k, D) difference cube of the first assignment alone is
    # 4000 * 16 * 64 * 8 bytes = 32.8 MB; the pool itself is 2 MB
    X = np.random.default_rng(71).normal(size=(4000, 64))
    tracemalloc.start()
    try:
        gmm_fit(X, 16, 3, 1e-12, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# --------------------------------------------------------------------- fisher


def _random_gmm(rng, k, d):
    w = rng.uniform(0.2, 1.0, size=k)
    return GmmModel(
        weights=w / w.sum(),
        means=rng.normal(size=(k, d)),
        variances=rng.uniform(0.5, 1.5, size=(k, d)),
    )


def test_fisher_length_formula_and_output_shape():
    assert fisher_length(64, 16) == 2064
    rng = np.random.default_rng(61)
    gmm = _random_gmm(rng, 16, 64)
    out = fisher_encode(rng.normal(size=(20, 64)), gmm)
    assert out.shape == (2064,)
    assert np.all(np.isfinite(out))


def test_fisher_output_is_unit_norm():
    rng = np.random.default_rng(67)
    for _ in range(10):
        gmm = _random_gmm(rng, 4, 6)
        out = fisher_encode(rng.normal(size=(15, 6)), gmm)
        assert abs(float(out @ out) - 1.0) <= 1e-6


def test_fisher_is_order_invariant():
    rng = np.random.default_rng(71)
    gmm = _random_gmm(rng, 5, 8)
    X = rng.normal(size=(30, 8))
    base = fisher_encode(X, gmm)
    for _ in range(5):
        perm = rng.permutation(30)
        assert np.allclose(fisher_encode(X[perm], gmm), base, atol=1e-10)


def test_fisher_mean_block_vanishes_at_component_mean():
    # descriptors pinned to one component of a far separated mixture: the
    # (x - mu) factor cancels that component's mean-gradient block
    d = 3
    gmm = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.stack([np.full(d, 50.0), np.full(d, -50.0)]),
        variances=np.ones((2, d)),
    )
    X = np.tile(gmm.means[0], (8, 1))
    out = fisher_encode(X, gmm)
    mean_block_comp0 = out[2 : 2 + d]  # layout: weights (K), then means (K*D)
    assert np.all(np.abs(mean_block_comp0) <= 1e-9)


def test_fisher_rejects_empty_and_identically_zero():
    gmm = GmmModel(
        weights=np.array([1.0]),
        means=np.zeros((1, 1)),
        variances=np.full((1, 1), 4.0),
    )
    with pytest.raises(ValueError, match="at least one"):
        fisher_encode(np.zeros((0, 1)), gmm)
    # symmetric +/-c points with var = c^2 zero out all three gradient blocks
    with pytest.raises(ValueError, match="identically zero"):
        fisher_encode(np.array([[2.0], [-2.0]]), gmm)
    # in a batch every set is checked, not only the first
    with pytest.raises(ValueError, match="identically zero"):
        fisher_encode(np.array([[[1.0], [3.0]], [[2.0], [-2.0]]]), gmm)


def test_fisher_checks_descriptor_dimension():
    rng = np.random.default_rng(73)
    gmm = _random_gmm(rng, 3, 5)
    with pytest.raises(ValueError, match="dim"):
        fisher_encode(rng.normal(size=(4, 7)), gmm)


# ------------------------------------------------------------ codebook files


@pytest.mark.parametrize(
    "kind, arrays, why",
    [
        ("pca", {"basis": np.eye(2)}, "no 'mean' array"),
        ("pca", {"mean": np.zeros((1, 2))}, "no 'basis' array"),
        ("pca", {"mean": np.zeros((1, 3)), "basis": np.eye(2)}, "mean (1, 3) does not fit basis (2, 2)"),
        ("gmm", {"weights": np.ones((1, 2)), "variances": np.ones((2, 3))}, "no 'means' array"),
        (
            "gmm",
            {"weights": np.ones((1, 2)), "means": np.zeros((2, 3)), "variances": np.ones((2, 4))},
            "weights (1, 2), means (2, 3) and variances (2, 4) disagree",
        ),
        (
            "gmm",
            {"weights": np.ones((1, 3)), "means": np.zeros((2, 3)), "variances": np.ones((2, 3))},
            "weights (1, 3), means (2, 3) and variances (2, 3) disagree",
        ),
        ("pca", {"mean": np.full((1, 2), np.nan), "basis": np.eye(2)}, "non-finite mean"),
        (
            "gmm",
            {"weights": np.full((1, 2), 0.5), "means": np.zeros((2, 3)), "variances": -np.ones((2, 3))},
            "non-positive variances",
        ),
    ],
    ids=[
        "pca-no-mean",
        "pca-no-basis",
        "pca-mean-width",
        "gmm-no-means",
        "gmm-variance-width",
        "gmm-weight-count",
        "pca-nan-mean",
        "gmm-negative-variance",
    ],
)
def test_malformed_codebook_files_name_themselves(tmp_path, kind, arrays, why):
    path = tmp_path / f"{kind}.model"
    modelio.write_model(path, kind, {}, arrays)
    load = PcaModel.load if kind == "pca" else GmmModel.load
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == f"{path}: not a valid codebook: {why}"
