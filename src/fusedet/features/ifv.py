"""Fisher vector channel: dense gradient-patch descriptors, PCA reduction,
a diagonal-covariance Gaussian mixture codebook trained with EM, and the
normalized gradient encoding.

The encoding concatenates the per-component gradients with respect to the
mixture weights (K values), means (K*D) and variances (K*D), scaled by the
descriptor count and 1/sqrt(weight) terms, then applies signed square-root
power normalization and global L2 normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import logsumexp

from .. import modelio

_EPS = 1e-12
DEFAULT_VARIANCE_FLOOR = 1e-4


@dataclass
class PcaModel:
    mean: np.ndarray  # (raw_dim,)
    basis: np.ndarray  # (raw_dim, D), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def save(self, path) -> None:
        modelio.write_model(path, "pca", {}, {"mean": self.mean[None, :], "basis": self.basis})

    @classmethod
    def load(cls, path) -> "PcaModel":
        _, arrays = modelio.read_model(path, "pca")
        return cls(mean=arrays["mean"][0], basis=arrays["basis"])


@dataclass
class GmmModel:
    weights: np.ndarray  # (K,), positive, sums to 1
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K, D), floored diagonal covariances
    log_likelihoods: List[float] = field(default_factory=list, repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def save(self, path) -> None:
        modelio.write_model(
            path,
            "gmm",
            {"k": str(self.k), "dim": str(self.dim)},
            {"weights": self.weights[None, :], "means": self.means, "variances": self.variances},
        )

    @classmethod
    def load(cls, path) -> "GmmModel":
        _, arrays = modelio.read_model(path, "gmm")
        return cls(
            weights=arrays["weights"][0],
            means=arrays["means"],
            variances=arrays["variances"],
        )


def dense_descriptors(planes: np.ndarray, stride: int, patch: int) -> np.ndarray:
    """Raw local descriptors on a regular grid over grayscale planes.

    Each descriptor concatenates the per-pixel (dx, dy) gradients of a
    patch-by-patch square, contrast-normalized to unit L2 norm (all-zero
    patches stay zero). planes is one (h, w) plane, giving an array of shape
    (count, patch*patch*2), or a (P, h, w) stack of equal-size planes, giving
    (P, count, patch*patch*2) in one pass; count is zero when a plane is
    smaller than the patch.
    """
    if stride < 1 or patch < 2:
        raise ValueError(f"need stride >= 1 and patch >= 2, got {stride}, {patch}")
    single = planes.ndim == 2
    stack = planes[None] if single else planes
    n, h, w = stack.shape
    length = patch * patch * 2
    if w < patch or h < patch:
        out = np.zeros((n, 0, length))
    else:
        gy, gx = np.gradient(stack, axis=(1, 2))
        grads = np.stack([gx, gy], axis=-1)  # (n, h, w, 2)
        squares = sliding_window_view(grads, (patch, patch, 2), axis=(1, 2, 3))
        out = squares[:, ::stride, ::stride, 0].reshape(n, -1, length)
        norms = np.sqrt(np.vecdot(out, out))
        # out of place: when each window row is one contiguous block of
        # grads, out is still the read-only view
        out = out / np.where(norms > _EPS, norms, 1.0)[..., None]
    return out[0] if single else out


def pca_fit(descriptors: np.ndarray, target_dim: int) -> PcaModel:
    """Top-eigenvector projection of the sample covariance.

    The decomposition is deterministic. Raises when the data cannot support
    target_dim components, naming the achievable rank.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-d array with at least 2 samples")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / X.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    rank_tol = max(eigvals[0], 0.0) * 1e-10
    rank = int((eigvals > rank_tol).sum())
    if rank < target_dim:
        raise ValueError(
            f"cannot extract {target_dim} components: sample covariance rank is {rank}"
        )
    basis = eigvecs[:, :target_dim].copy()
    # fix an overall sign per component so refits are reproducible
    for j in range(target_dim):
        pivot = np.argmax(np.abs(basis[:, j]))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    return PcaModel(mean=mean, basis=basis)


def pca_apply(model: PcaModel, descriptors: np.ndarray) -> np.ndarray:
    """Projects a (T, raw_dim) descriptor set to (T, dim), or a (P, T, raw_dim)
    stack to (P, T, dim) in one call.

    A stack is multiplied one (T, raw_dim) matrix at a time, so each set gets
    exactly the values it gets on its own; one flattened (P*T, raw_dim)
    product can differ in the last ulp.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.shape[-1] != model.mean.shape[0]:
        raise ValueError(f"descriptor dim {X.shape[-1]} does not match model {model.mean.shape[0]}")
    return (X - model.mean) @ model.basis


def _kmeans_pp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; requires at least k distinct points."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            raise ValueError(f"fewer than {k} distinct descriptors")
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _log_densities(gmm: GmmModel, X: np.ndarray) -> np.ndarray:
    """log(w_k * N(x | mu_k, diag var_k)) for every descriptor/component.

    X is (T, D) or a (P, T, D) stack; a stack is multiplied one (T, D) matrix
    at a time, so each set gets exactly the values it gets on its own.
    """
    inv_var = 1.0 / gmm.variances
    quad = (
        (X**2) @ inv_var.T
        - 2.0 * X @ (gmm.means * inv_var).T
        + ((gmm.means**2) * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (
        gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1)
    )
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def gmm_posteriors(gmm: GmmModel, X: np.ndarray) -> np.ndarray:
    """Soft assignments of (T, D) or (P, T, D) descriptors; rows sum to 1."""
    logp = _log_densities(gmm, X)
    return np.exp(logp - logsumexp(logp, axis=-1, keepdims=True))


def gmm_fit(
    descriptors: np.ndarray,
    k: int,
    max_iters: int,
    tol: float,
    seed: int,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> GmmModel:
    """Fit a diagonal-covariance Gaussian mixture with EM.

    Initialization is k-means++ driven by seed. Iteration stops at max_iters
    or when the mean log-likelihood improves by less than tol. The mean
    log-likelihood sequence (recorded on the returned model) is checked to
    be non-decreasing each iteration; the variance floor keeps components
    from collapsing and preserves that guarantee because the constrained
    M-step still maximizes the EM lower bound over the feasible set.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("descriptors must be a 2-d array")
    n, dim = X.shape
    if n < k:
        raise ValueError(f"need at least {k} descriptors to fit {k} components, got {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(X, k, rng)
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    weights = counts / n
    means = centers.copy()
    variances = np.full((k, dim), 1.0)
    for j in range(k):
        members = X[assign == j]
        if len(members):
            means[j] = members.mean(axis=0)
            variances[j] = members.var(axis=0)
    variances = np.maximum(variances, variance_floor)
    gmm = GmmModel(weights=weights, means=means, variances=variances)

    lls: List[float] = []
    for _ in range(max_iters):
        logp = _log_densities(gmm, X)
        log_marginal = logsumexp(logp, axis=1)
        ll = float(log_marginal.mean())
        if lls:
            slack = 1e-9 * max(1.0, abs(lls[-1]))
            if ll < lls[-1] - slack:
                raise RuntimeError(
                    f"EM log-likelihood decreased: {lls[-1]} -> {ll}"
                )
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


def fisher_length(dim: int, k: int) -> int:
    return (2 * dim + 1) * k


def fisher_encode(descriptors: np.ndarray, gmm: GmmModel) -> np.ndarray:
    """Improved Fisher vectors of descriptor sets under a mixture codebook.

    descriptors is one (T, D) set, giving a fisher_length(D, K) vector, or a
    (P, T, D) stack of equal-size sets, giving a (P, fisher_length) array
    computed in one pass. Raises on an empty descriptor set and on any set
    whose raw gradient vector is identically zero (it cannot be
    L2-normalized).
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-2] == 0:
        raise ValueError("need at least one descriptor")
    if X.shape[-1] != gmm.dim:
        raise ValueError(f"descriptor dim {X.shape[-1]} does not match codebook {gmm.dim}")
    single = X.ndim == 2
    if single:
        X = X[None]
    n, t, _ = X.shape
    gamma = gmm_posteriors(gmm, X)  # (P, T, K)

    # per-set statistics, one (K, T) @ (T, D) product per set
    s0 = gamma.sum(axis=1)  # (P, K)
    gamma_t = gamma.transpose(0, 2, 1)
    s1 = gamma_t @ X  # (P, K, D)
    s2 = gamma_t @ (X**2)  # (P, K, D)

    w = gmm.weights
    mu = gmm.means
    var = gmm.variances
    sigma = np.sqrt(var)

    g_weight = (s0 - t * w) / (t * np.sqrt(w))
    g_mean = (s1 - mu * s0[:, :, None]) / (t * np.sqrt(w)[:, None] * sigma)
    g_var = (s2 - 2.0 * mu * s1 + (mu**2 - var) * s0[:, :, None]) / (
        t * np.sqrt(2.0 * w)[:, None] * var
    )

    raw = np.concatenate([g_weight, g_mean.reshape(n, -1), g_var.reshape(n, -1)], axis=1)
    raw = np.sign(raw) * np.sqrt(np.abs(raw))
    norms = np.sqrt(np.vecdot(raw, raw))
    if np.any(norms <= _EPS):
        raise ValueError("raw Fisher vector is identically zero")
    raw /= norms[:, None]
    return raw[0] if single else raw
