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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import modelio

_EPS = 1e-12
DEFAULT_VARIANCE_FLOOR = 1e-4


def _codebook_arrays(path, kind: str, names: Sequence[str]) -> Tuple[Dict[str, str], List[np.ndarray]]:
    """The meta lines and the named arrays of a codebook file of this kind;
    ValueError naming the file if an array is missing."""
    meta, arrays = modelio.read_model(path, kind)
    for name in names:
        if name not in arrays:
            raise ValueError(f"{path}: not a valid codebook: no {name!r} array")
    return meta, [arrays[name] for name in names]


def _check_values(path, **arrays) -> None:
    """ValueError naming the file unless every named array is finite and,
    where its flag is set, positive."""
    for name, (values, positive) in arrays.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: not a valid codebook: non-finite {name}")
        if positive and not np.all(values > 0):
            raise ValueError(f"{path}: not a valid codebook: non-positive {name}")


@dataclass
class PcaModel:
    mean: np.ndarray  # (raw_dim,)
    basis: np.ndarray  # (raw_dim, D), orthonormal columns
    # meta lines saved with the model: what the caller records it was fit from
    provenance: Dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def save(self, path) -> None:
        modelio.write_model(path, "pca", self.provenance, {"mean": self.mean[None, :], "basis": self.basis})

    @classmethod
    def load(cls, path) -> "PcaModel":
        """The PCA saved at path; ValueError naming the file if it holds none."""
        meta, (mean, basis) = _codebook_arrays(path, "pca", ("mean", "basis"))
        if mean.shape != (1, basis.shape[0]):
            raise ValueError(f"{path}: not a valid codebook: mean {mean.shape} does not fit basis {basis.shape}")
        _check_values(path, mean=(mean, False), basis=(basis, False))
        return cls(mean=mean[0], basis=basis, provenance=meta)


@dataclass
class GmmModel:
    weights: np.ndarray  # (K,), positive, sums to 1
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K, D), floored diagonal covariances
    log_likelihoods: List[float] = field(default_factory=list, repr=False, compare=False)
    # meta lines saved after k and dim, as PcaModel.provenance
    provenance: Dict[str, str] = field(default_factory=dict, repr=False, compare=False)

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
            {"k": str(self.k), "dim": str(self.dim), **self.provenance},
            {"weights": self.weights[None, :], "means": self.means, "variances": self.variances},
        )

    @classmethod
    def load(cls, path) -> "GmmModel":
        """The mixture saved at path; ValueError naming the file if it holds none."""
        meta, (weights, means, variances) = _codebook_arrays(path, "gmm", ("weights", "means", "variances"))
        if weights.shape[0] != 1 or means.shape != variances.shape or len(means) != weights.shape[1]:
            raise ValueError(
                f"{path}: not a valid codebook: weights {weights.shape}, means {means.shape} "
                f"and variances {variances.shape} disagree"
            )
        _check_values(path, weights=(weights, True), means=(means, False), variances=(variances, True))
        provenance = {key: value for key, value in meta.items() if key not in ("k", "dim")}
        return cls(weights=weights[0], means=means, variances=variances, provenance=provenance)


def dense_descriptors(planes: np.ndarray, stride: int, patch: int) -> np.ndarray:
    """Raw local descriptors on a regular grid over grayscale planes.

    Each descriptor concatenates the per-pixel (dx, dy) gradients of a
    patch-by-patch square, contrast-normalized to unit L2 norm (all-zero
    patches stay zero). planes is one (h, w) plane, giving an array of shape
    (count, patch*patch*2), or a (P, h, w) stack of equal-size planes, giving
    (P, count, patch*patch*2) in one pass; count is zero when a plane is
    smaller than the patch. The gradients are np.gradient's, bit for bit.
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
        # np.gradient's differences along x, then y: central ones inside,
        # one-sided at the edges. Each axis's central ones are formed along
        # the flattened stack, where they are contiguous, then its edges are
        # overwritten, and the lot is written into its half of the (dx, dy)
        # pairs
        flat = np.ascontiguousarray(stack, dtype=np.float64).reshape(-1)
        grads = np.empty((n, h, w, 2))
        diff = np.empty((n, h, w))
        for axis, pair, step in ((2, 0, 1), (1, 1, w)):
            inner = diff.reshape(-1)[step:-step]
            np.subtract(flat[2 * step :], flat[: -2 * step], out=inner)
            inner *= 0.5  # the same bits as np.gradient's / 2.0
            f = np.moveaxis(flat.reshape(n, h, w), axis, 0)
            d = np.moveaxis(diff, axis, 0)
            np.subtract(f[1], f[0], out=d[0])
            np.subtract(f[-1], f[-2], out=d[-1])
            grads[..., pair] = diff
        squares = sliding_window_view(grads, (patch, patch, 2), axis=(1, 2, 3))
        out = squares[:, ::stride, ::stride, 0].reshape(n, -1, length)
        if np.may_share_memory(out, grads):
            # the reshape kept a view (a plane one patch wide), whose rows
            # may overlap; normalize a copy
            out = out.copy()
        norms = np.sqrt(np.vecdot(out, out))
        out /= np.where(norms > _EPS, norms, 1.0)[..., None]
    return out[0] if single else out


def descriptor_count(height: int, width: int, stride: int, patch: int) -> int:
    """How many descriptors dense_descriptors cuts from one (height, width)
    plane: one per stride-th patch position along each axis."""
    if width < patch or height < patch:
        return 0
    return -(-(height - patch + 1) // stride) * -(-(width - patch + 1) // stride)


def pca_fit(descriptors: np.ndarray, target_dim: int, overwrite_descriptors: bool = False) -> PcaModel:
    """Top-eigenvector projection of the sample covariance.

    The decomposition is deterministic. Raises when the data cannot support
    target_dim components, naming the achievable rank.

    With overwrite_descriptors, a float64 descriptors array is centred in
    place instead of copied: it then holds descriptors - mean, so
    descriptors @ basis has the bits pca_apply gives for the original rows.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-d array with at least 2 samples")
    mean = X.mean(axis=0)
    centered = X if overwrite_descriptors else X.copy()
    centered -= mean
    cov = centered.T @ centered / X.shape[0]
    del centered
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

    A float64 descriptors array is centred in place: its values are
    overwritten, and a caller that needs them again passes a copy. Other
    dtypes are converted to a new array first.

    A stack is multiplied one (T, raw_dim) matrix at a time, so each set gets
    exactly the values it gets on its own; one flattened (P*T, raw_dim)
    product can differ in the last ulp.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.shape[-1] != model.mean.shape[0]:
        raise ValueError(f"descriptor dim {X.shape[-1]} does not match model {model.mean.shape[0]}")
    X -= model.mean
    return X @ model.basis


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


def logsumexp(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, with the bits of scipy 1.17.1's
    scipy.special.logsumexp on real input without NaN.

    The terms equal to the row maximum are left out of the sum s of
    exp(a - max) and counted instead (m); the result is
    log1p(s / m) + log(m) + max. A row whose maximum is not finite is
    shifted by 0, so a row of -inf gives -inf. The maximum is taken one
    column at a time, which for a short last axis is faster than a.max.
    """
    top = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(top, a[..., j], out=top)
    top = top[..., None]
    is_max = a == top
    terms = a - np.where(np.isfinite(top), top, 0.0)
    np.exp(terms, out=terms)
    np.putmask(terms, is_max, 0.0)
    s = terms.sum(axis=-1, keepdims=True)
    m = is_max.sum(axis=-1, keepdims=True, dtype=np.float64)
    out = np.log1p(s / m) + np.log(m) + top
    return out if keepdims else out[..., 0]


def _log_densities(gmm: GmmModel, X_sq: np.ndarray, X_twice: np.ndarray) -> np.ndarray:
    """log(w_k * N(x | mu_k, diag var_k)) for every descriptor/component,
    from X**2 and 2.0*X of the descriptors X.

    X is (T, D) or a (P, T, D) stack; a stack is multiplied one (T, D) matrix
    at a time, so each set gets exactly the values it gets on its own.
    """
    inv_var = 1.0 / gmm.variances
    quad = (
        X_sq @ inv_var.T
        - X_twice @ (gmm.means * inv_var).T
        + ((gmm.means**2) * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (
        gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1)
    )
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def gmm_posteriors(gmm: GmmModel, X: np.ndarray, X_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Soft assignments of (T, D) or (P, T, D) descriptors; rows sum to 1.
    X_sq is X**2 where the caller has it already."""
    logp = _log_densities(gmm, X**2 if X_sq is None else X_sq, 2.0 * X)
    return np.exp(logp - logsumexp(logp, keepdims=True))


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
    # one (n,) distance column per centre, so no (n, k, D) array is built
    d2 = np.stack([((X - c) ** 2).sum(axis=1) for c in centers], axis=1)
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

    X_sq, X_twice = X**2, 2.0 * X
    lls: List[float] = []
    for _ in range(max_iters):
        logp = _log_densities(gmm, X_sq, X_twice)
        log_marginal = logsumexp(logp)
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
        second = (gamma.T @ X_sq) / nk[:, None]
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
    X_sq = X**2
    gamma = gmm_posteriors(gmm, X, X_sq)  # (P, T, K)

    # per-set statistics, one (K, T) @ (T, D) product per set
    s0 = gamma.sum(axis=1)  # (P, K)
    gamma_t = gamma.transpose(0, 2, 1)
    s1 = gamma_t @ X  # (P, K, D)
    s2 = gamma_t @ X_sq  # (P, K, D)

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
