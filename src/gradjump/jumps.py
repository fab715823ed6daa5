"""Algebraic interface quantities for a kinematically compatible pair.

Given an energy W and a pair (F+, F-) with F+ - F- = a (x) n, this module
computes the Maxwell driving force p* = [W] - ({P}, [F]), the interchange
driving force N = ([P], [F]), the traction and roughening residuals [P] n
and [P]^T a, a grid scan of the excess over rank-one increments, and the
bundled pass/fail diagnostics.  The scan evaluates the excess through the
model's rank-one kernel ``EnergyModel.rank_one_excess`` (a closed form for
the quadratic, min-of-quadratics and isotropic kinds, the (N, m, d) stack
form otherwise), one batch of directions and radii per direction u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energies import EnergyModel
from .errors import DimensionError
from .tensors import (
    as_matrix,
    as_unit_vector,
    as_vector,
    frobenius,
    outer,
    rank_one_decompose,
    sphere_grid,
)


@dataclass(frozen=True)
class InterfacePair:
    """Compatible pair (F+, F-) with shear vector a and unit normal n."""

    fp: np.ndarray
    fm: np.ndarray
    a: np.ndarray
    n: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        fp = as_matrix(self.fp)
        fm = as_matrix(self.fm, *fp.shape)
        a = as_vector(self.a, fp.shape[0])
        n = as_unit_vector(self.n, fp.shape[1])
        object.__setattr__(self, "fp", fp)
        object.__setattr__(self, "fm", fm)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)
        jump = fp - fm
        resid = float(np.linalg.norm(jump - np.outer(a, n)))
        if resid > self.tol * max(float(np.linalg.norm(jump)), 1e-300):
            raise DimensionError(
                f"(F+ - F-) - a(x)n residual {resid:.3e} exceeds tolerance"
            )

    @property
    def m(self) -> int:
        return self.fp.shape[0]

    @property
    def d(self) -> int:
        return self.fp.shape[1]

    @property
    def jump(self) -> np.ndarray:
        return self.fp - self.fm

    @classmethod
    def from_gradients(cls, fp, fm, tol: float = 1e-9) -> "InterfacePair":
        """Decompose the jump of two gradients; fails if it is not rank one."""
        a, n = rank_one_decompose(fp, fm, tol)
        return cls(as_matrix(fp), as_matrix(fm), a, n, tol)

    @classmethod
    def from_jump(cls, fm, a, n, tol: float = 1e-9) -> "InterfacePair":
        """Build the pair F+ = F- + a (x) n from the minus side."""
        fm = as_matrix(fm)
        a = as_vector(a, fm.shape[0])
        n = as_unit_vector(n, fm.shape[1])
        return cls(fm + np.outer(a, n), fm, a, n, tol)


def _stresses(model: EnergyModel, pair: InterfacePair):
    return model.gradient(pair.fp), model.gradient(pair.fm)


def interchange_force(model: EnergyModel, pair: InterfacePair) -> float:
    """Interchange driving force ([P], [F]); zero is the normality condition."""
    pp, pm = _stresses(model, pair)
    return frobenius(pp - pm, pair.jump)


def maxwell_force(model: EnergyModel, pair: InterfacePair) -> float:
    """Maxwell driving force [W] - ({P}, [F]) with {P} the stress average."""
    pp, pm = _stresses(model, pair)
    dw = model.value(pair.fp) - model.value(pair.fm)
    return dw - frobenius(0.5 * (pp + pm), pair.jump)


def traction_residual(model: EnergyModel, pair: InterfacePair) -> np.ndarray:
    """[P] n, the equilibrium (traction continuity) residual in R^m."""
    pp, pm = _stresses(model, pair)
    return (pp - pm) @ pair.n


def roughening_residual(model: EnergyModel, pair: InterfacePair) -> np.ndarray:
    """[P]^T a, the interface roughening residual in R^d."""
    pp, pm = _stresses(model, pair)
    return (pp - pm).T @ pair.a


def normality_gap(model: EnergyModel, pair: InterfacePair) -> float:
    """N - 2 |p*|; nonnegative whenever both endpoints are stable.

    The raw value is returned regardless of sign so callers can flag
    violations instead of erroring on them.
    """
    return interchange_force(model, pair) - 2.0 * abs(maxwell_force(model, pair))


def taylor_residual(model: EnergyModel, pair: InterfacePair, xi, eta, side: int = +1):
    """Exact vs first-order excess at a perturbed rank-one increment.

    For side = +1 the left side is the excess at F+ with increment
    -(a + xi) (x) (n + eta); for side = -1 it is the excess at F- with the
    opposite sign.  The right side is the first-order expansion

        -/+ p* + N/2 + ([P] n, xi) + ([P]^T a, eta).

    Returns (lhs, rhs); the difference decays quadratically in |xi| + |eta|.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    xi = as_vector(xi, pair.m)
    eta = as_vector(eta, pair.d)
    incr = outer(pair.a + xi, pair.n + eta)
    if side == +1:
        lhs = model.excess(pair.fp, -incr)
    else:
        lhs = model.excess(pair.fm, incr)
    p_star = maxwell_force(model, pair)
    frak_n = interchange_force(model, pair)
    rhs = (
        -side * p_star
        + 0.5 * frak_n
        + float(traction_residual(model, pair) @ xi)
        + float(roughening_residual(model, pair) @ eta)
    )
    return lhs, rhs


@dataclass(frozen=True)
class ScanResult:
    """Minimum of the excess over a grid of rank-one increments r u (x) v."""

    min_value: float
    u: np.ndarray
    v: np.ndarray
    r: float

    def to_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "u": self.u.tolist(),
            "v": self.v.tolist(),
            "r": self.r,
        }


def default_radii(scale: float, num: int = 41, lo: float = 1e-3, hi: float = 10.0) -> np.ndarray:
    """Logarithmic radius grid [lo, hi] * scale (includes scale when num = 4k+1)."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return np.geomspace(lo * scale, hi * scale, num)


def weierstrass_scan(
    model: EnergyModel, f, radii, resolution: int = 32
) -> ScanResult:
    """Scan the excess at F over rank-one increments r u (x) v.

    The scan covers sphere_grid(m) x sphere_grid(d) x radii and returns
    the smallest value with its argmin.  Grids are deterministic, so a
    negative minimum is reproducible without seeds; ties resolve to the
    lexicographically first grid entry.  This is a necessary check only:
    it certifies the rank-one (Weierstrass) condition on a finite grid,
    not full quasiconvexity.
    """
    f = as_matrix(f, model.m, model.d)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if radii.size == 0:
        raise ValueError("radii grid is empty")
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    us = sphere_grid(model.m, resolution)
    vs = sphere_grid(model.d, resolution)
    excess = model.rank_one_excess(f[None])
    # row j * len(radii) + k holds radii[k] * vs[j]; one batch per u
    world = (radii[None, :, None] * vs[:, None, :]).reshape(-1, model.d)

    best = (np.inf, 0, 0, 0)
    for iu, u in enumerate(us):
        vals = excess(u, world, 1.0)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), iu, i // radii.size, i % radii.size)
    val, iu, j, k = best
    return ScanResult(val, us[iu], vs[j], float(radii[k]))


@dataclass(frozen=True)
class JumpDiagnostics:
    """All scalar/vector jump quantities with verdicts at a stated tolerance."""

    p_star: float
    frak_n: float
    traction_residual: np.ndarray
    roughening_residual: np.ndarray
    weierstrass_min_plus: float
    weierstrass_min_minus: float
    tol_abs: float
    tol_rel: float
    stress_scale: float
    jump_norm: float
    maxwell_ok: bool
    traction_ok: bool
    roughening_ok: bool
    interchange_ok: bool
    weierstrass_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.maxwell_ok
            and self.traction_ok
            and self.roughening_ok
            and self.interchange_ok
            and self.weierstrass_ok
        )

    def to_dict(self) -> dict:
        return {
            "p_star": self.p_star,
            "frak_n": self.frak_n,
            "traction_residual": self.traction_residual.tolist(),
            "roughening_residual": self.roughening_residual.tolist(),
            "weierstrass_min_plus": self.weierstrass_min_plus,
            "weierstrass_min_minus": self.weierstrass_min_minus,
            "tolerances": {
                "tol_abs": self.tol_abs,
                "tol_rel": self.tol_rel,
                "stress_scale": self.stress_scale,
            },
            "verdicts": {
                "maxwell_ok": self.maxwell_ok,
                "traction_ok": self.traction_ok,
                "roughening_ok": self.roughening_ok,
                "interchange_ok": self.interchange_ok,
                "weierstrass_ok": self.weierstrass_ok,
                "all_ok": self.all_ok,
            },
        }


def diagnose(
    model: EnergyModel,
    pair: InterfacePair,
    tol_abs: float = 1e-9,
    tol_rel: float = 1e-9,
    scan_radii=None,
    scan_resolution: int = 32,
) -> JumpDiagnostics:
    """Bundle every interface check into one report.

    Residuals are compared against tol_abs + tol_rel * s where s is the
    characteristic stress scale |P+| + |P-| (force-like quantities are
    additionally scaled by the jump magnitude).
    """
    pp, pm = _stresses(model, pair)
    scale = float(np.linalg.norm(pp) + np.linalg.norm(pm))
    jnorm = float(np.linalg.norm(pair.jump))
    tol = tol_abs + tol_rel * scale
    tol_force = tol_abs + tol_rel * scale * max(jnorm, 1.0)

    p_star = maxwell_force(model, pair)
    frak_n = interchange_force(model, pair)
    tr = traction_residual(model, pair)
    rr = roughening_residual(model, pair)
    if scan_radii is None:
        scan_radii = default_radii(jnorm if jnorm > 0 else 1.0)
    scan_p = weierstrass_scan(model, pair.fp, scan_radii, scan_resolution)
    scan_m = weierstrass_scan(model, pair.fm, scan_radii, scan_resolution)

    return JumpDiagnostics(
        p_star=p_star,
        frak_n=frak_n,
        traction_residual=tr,
        roughening_residual=rr,
        weierstrass_min_plus=scan_p.min_value,
        weierstrass_min_minus=scan_m.min_value,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        stress_scale=scale,
        jump_norm=jnorm,
        maxwell_ok=abs(p_star) <= tol_force,
        traction_ok=float(np.linalg.norm(tr)) <= tol,
        roughening_ok=float(np.linalg.norm(rr)) <= tol * max(jnorm, 1.0),
        interchange_ok=abs(frak_n) <= tol_force,
        weierstrass_ok=scan_p.min_value >= -tol_force and scan_m.min_value >= -tol_force,
    )
