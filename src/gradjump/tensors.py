"""Small dense m x d matrix algebra: Frobenius pairing, rank-one
decomposition of gradient jumps, and deterministic sphere grids.

Matrices are plain numpy arrays of shape (m, d); vectors are 1-D arrays.
Scalar problems (m = 1 or d = 1) are first-class citizens.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePairError, DimensionError, IncompatiblePairError

_SIGN_EPS = 1e-12


def as_matrix(x, m: int | None = None, d: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a float (m, d) matrix, checking the shape if given."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {a.shape}")
    if m is not None and a.shape[0] != m:
        raise DimensionError(f"expected {m} rows, got {a.shape[0]}")
    if d is not None and a.shape[1] != d:
        raise DimensionError(f"expected {d} columns, got {a.shape[1]}")
    return a


def as_vector(x, dim: int | None = None) -> np.ndarray:
    a = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got {a.shape[0]}")
    return a


def as_unit_vector(x, dim: int | None = None, tol: float = 1e-12) -> np.ndarray:
    v = as_vector(x, dim)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise DimensionError(f"expected a unit vector, |v| = {nrm}")
    return v


def frobenius(a, b) -> float:
    """Frobenius inner product sum_ij A_ij B_ij of two same-shape matrices."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
    return float(np.sum(am * bm))


def outer(u, v) -> np.ndarray:
    """Rank-one matrix u (x) v with u in R^m, v in R^d."""
    return np.outer(as_vector(u), as_vector(v))


def row_sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared row norms |x_i|^2 of an (N, k) array, summed column by column.

    For so few columns this is what np.linalg.norm's reduction adds, in the
    same order, without its strided inner loop; each row's value does not
    depend on the rows evaluated with it.
    """
    out = x[:, 0] * x[:, 0]
    for k in range(1, x.shape[1]):
        out += x[:, k] * x[:, k]
    return out


def _fix_sign(a: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip (a, n) jointly so the first nonzero component of n is positive."""
    for comp in n:
        if abs(comp) > _SIGN_EPS:
            if comp < 0.0:
                return -a, -n
            return a, n
    return a, n


def rank_one_decompose(fp, fm, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Split a gradient jump F+ - F- into a (x) n with |n| = 1.

    The jump must be rank one within the relative tolerance ``tol``:
    the second singular value may not exceed tol times the first.  The
    sign ambiguity of (a, n) is fixed by making the first nonzero
    component of n positive.

    Raises
    ------
    DegeneratePairError
        if the jump vanishes.
    IncompatiblePairError
        if the jump has numerical rank greater than one.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    fpm = as_matrix(fp)
    fmm = as_matrix(fm)
    if fpm.shape != fmm.shape:
        raise DimensionError(f"shape mismatch {fpm.shape} vs {fmm.shape}")
    jump = fpm - fmm
    scale = max(float(np.linalg.norm(fpm)), float(np.linalg.norm(fmm)), 1.0)
    jnorm = float(np.linalg.norm(jump))
    if jnorm <= 1e-15 * scale:
        raise DegeneratePairError("gradient jump is zero; pair is degenerate")
    u, s, vt = np.linalg.svd(jump)
    if min(jump.shape) > 1 and s[1] > tol * s[0]:
        raise IncompatiblePairError(
            f"jump is not rank one: singular values {s[0]:.3e}, {s[1]:.3e}"
        )
    a = s[0] * u[:, 0]
    n = vt[0, :]
    return _fix_sign(a, n)


def perp_unit(n) -> np.ndarray:
    """Deterministic unit vector orthogonal to n (d = 2 or 3).

    The sign is normalized so the first nonzero component is positive.
    """
    nv = as_unit_vector(n)
    d = nv.shape[0]
    if d == 2:
        tang = np.array([-nv[1], nv[0]])
    elif d == 3:
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(nv)))] = 1.0
        tang = np.cross(nv, axis)
        tang /= np.linalg.norm(tang)
    else:
        raise DimensionError(f"no tangent convention for d = {d}")
    _, tang = _fix_sign(tang, tang)
    return tang


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in R^k (k = 0 gives 1)."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def sphere_grid(dim: int, resolution: int) -> np.ndarray:
    """Deterministic quasi-uniform covering of the unit sphere S^{dim-1}.

    dim = 1 returns {+1, -1}; dim = 2 returns ``resolution`` equally
    spaced directions starting at (1, 0); dim = 3 returns a Fibonacci
    lattice of resolution**2 points.  For dim = 2 the grids are nested
    under doubling of the resolution.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        npts = resolution * resolution
        i = np.arange(npts, dtype=float)
        # golden-angle spiral; z stratified to avoid clustering at the poles
        z = 1.0 - (2.0 * i + 1.0) / npts
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    raise DimensionError(f"sphere_grid supports dim in {{1, 2, 3}}, got {dim}")
