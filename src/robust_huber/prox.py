"""Proximal operators, projections, and dual norms for l1 and nuclear penalties."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaxNormBall",
    "prox_l1",
    "prox_nuclear",
    "project_maxnorm",
    "dual_norm_linf",
    "dual_norm_spectral",
    "nuclear_norm",
]

# singular values below this fraction of the largest are treated as zero
SV_ZERO_REL_TOL = 1e-12
# prox_nuclear takes the Gram-matrix route only while sigma_1 <= this multiple
# of the threshold: eigh(M^T M) squares the condition number, so the singular
# values that survive the threshold lose accuracy as sigma_1/threshold grows
GRAM_MAX_SV_RATIO = 1e3


@dataclass(frozen=True)
class MaxNormBall:
    """Entrywise box {M : max_ij |M_ij| <= radius}."""

    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"max-norm radius must be positive, got {self.radius!r}")

    def contains(self, M) -> bool:
        return bool(np.max(np.abs(M)) <= self.radius * (1 + 1e-12) + 1e-12)


def _finite_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def prox_l1(v, threshold: float):
    """Soft threshold: argmin_u  ||u - v||^2/2 + threshold*||u||_1."""
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    v = _finite_array(v, "v")
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def prox_nuclear(M, threshold: float):
    """Singular value soft threshold: argmin_L ||L - M||_F^2/2 + threshold*||L||_nuc.

    Computed from one symmetric eigendecomposition of the smaller Gram matrix,
    A^T A = V diag(sigma^2) V^T with A = M or M^T: the result is
    (A V_k) diag((sigma - threshold)/sigma) V_k^T over the k singular values
    above the threshold.  A zero threshold, or sigma_1 above
    GRAM_MAX_SV_RATIO * threshold, takes the full SVD instead.
    """
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    M = _finite_array(M, "M")
    if M.ndim != 2:
        raise ValueError(f"M must be a matrix, got shape {M.shape}")
    if threshold == 0 or M.size == 0:
        return _prox_nuclear_svd(M, threshold)
    wide = M.shape[0] < M.shape[1]
    A = M.T if wide else M
    try:
        w, V = np.linalg.eigh(A.T @ A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise np.linalg.LinAlgError(
            f"eigh failed in prox_nuclear: shape={M.shape}, fro={np.linalg.norm(M):.6g}: {exc}"
        ) from exc
    if w[-1] > (GRAM_MAX_SV_RATIO * threshold) ** 2:
        return _prox_nuclear_svd(M, threshold)
    keep = w > threshold * threshold
    V = V[:, keep]
    s = np.sqrt(w[keep])
    shrunk = s - threshold
    if shrunk.size:
        shrunk[shrunk <= SV_ZERO_REL_TOL * shrunk[-1]] = 0.0
    out = ((A @ V) * (shrunk / s)) @ V.T
    return out.T if wide else out


def _prox_nuclear_svd(M, threshold: float):
    """prox_nuclear from a full SVD of a checked matrix M."""
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise np.linalg.LinAlgError(
            f"SVD failed in prox_nuclear: shape={M.shape}, fro={np.linalg.norm(M):.6g}: {exc}"
        ) from exc
    s = np.maximum(s - threshold, 0.0)
    if s.size and s[0] > 0:
        s[s <= SV_ZERO_REL_TOL * s[0]] = 0.0
    return (U * s) @ Vt


def project_maxnorm(M, ball: MaxNormBall):
    """Entrywise clamp onto the box; identity on interior points."""
    M = _finite_array(M, "M")
    return np.clip(M, -ball.radius, ball.radius)


def dual_norm_linf(v) -> float:
    """Dual of l1: the largest absolute entry; zero for empty input."""
    v = _finite_array(v, "v")
    return 0.0 if v.size == 0 else float(np.max(np.abs(v)))


def dual_norm_spectral(M) -> float:
    """Dual of nuclear: the largest singular value."""
    M = _finite_array(M, "M")
    if M.ndim != 2:
        raise ValueError(f"M must be a matrix, got shape {M.shape}")
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    M = _finite_array(M, "M")
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))
