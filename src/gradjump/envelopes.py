"""Rank-one envelope machinery, simple laminates, and the anti-plane example.

One-dimensional restrictions W(t F+ + (1-t) F-) are convexified with a
monotone-chain lower hull; affine stretches of the hull are the signature
of laminate-supported relaxation.  The scalar two-well (anti-plane shear)
energy admits closed forms for the relaxed envelope, the two-phase region,
the optimal laminate, and the yield-circle geometry in stress space, all
implemented here and cross-checked numerically in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import AntiplaneParams, EnergyModel
from .errors import LaminateError, NonconvergenceError, OutOfRegionError
from .jumps import InterfacePair, _interchange, _maxwell, _stresses
from .tensors import as_matrix, frobenius

#: relative slope tolerance for merging hull edges into affine runs
SLOPE_RTOL = 1e-8


def lower_convex_hull(x: np.ndarray, y: np.ndarray):
    """Lower convex hull of the graph points (x_i, y_i), x strictly increasing.

    Returns (vertex_indices, hull_values) where hull_values is the hull
    evaluated back on the full grid.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("x must be strictly increasing")
    verts: list[int] = []
    for i in range(x.size):
        while len(verts) >= 2:
            i0, i1 = verts[-2], verts[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (x[i] - x[i0]) * (y[i1] - y[i0])
            if cross <= 0.0:  # middle point on or above the chord: drop it
                verts.pop()
            else:
                break
        verts.append(i)
    vidx = np.array(verts, dtype=int)
    hull = np.interp(x, x[vidx], y[vidx])
    return vidx, hull


@dataclass(frozen=True)
class EnvelopeCurve:
    """Sampled 1-D restriction of W with its lower hull and affine runs.

    ``affine_segments`` lists maximal (t_start, t_end, slope) runs where the
    hull is a straight line spanning more than one grid interval.
    """

    t_grid: np.ndarray
    w_values: np.ndarray
    hull_values: np.ndarray
    affine_segments: tuple

    def max_hull_gap(self) -> float:
        return float(np.max(self.w_values - self.hull_values))


def _affine_runs(t: np.ndarray, vidx: np.ndarray, y: np.ndarray) -> tuple:
    if vidx.size < 2:
        return ()
    xs, ys = t[vidx], y[vidx]
    slopes = np.diff(ys) / np.diff(xs)
    runs = []
    start = 0
    for j in range(1, slopes.size + 1):
        if j < slopes.size and abs(slopes[j] - slopes[start]) <= SLOPE_RTOL * (
            1.0 + abs(slopes[start])
        ):
            continue
        # run of hull edges [start, j) with a common slope
        i_lo, i_hi = vidx[start], vidx[j]
        if i_hi - i_lo >= 2:  # spans more than one grid interval
            seg_slope = (y[i_hi] - y[i_lo]) / (t[i_hi] - t[i_lo])
            runs.append((float(t[i_lo]), float(t[i_hi]), float(seg_slope)))
        start = j
    return tuple(runs)


def _restricted_energy(model: EnergyModel, pair: InterfacePair, t: np.ndarray) -> np.ndarray:
    segment = t[:, None, None] * pair.fp[None] + (1.0 - t)[:, None, None] * pair.fm[None]
    return model.value_many(segment)


def rank_one_restriction(model: EnergyModel, pair: InterfacePair, t_grid) -> EnvelopeCurve:
    """Evaluate W along t F+ + (1-t) F- and convexify the sampled graph."""
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if t.size < 3:
        raise ValueError("t_grid needs at least 3 points")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    w = _restricted_energy(model, pair, t)
    vidx, hull = lower_convex_hull(t, w)
    return EnvelopeCurve(t, w, hull, _affine_runs(t, vidx, w))


def directional_derivative(
    model: EnergyModel,
    pair: InterfacePair,
    at: int,
    rtol: float = 1e-7,
    base_points: int = 64,
    max_levels: int = 14,
) -> float:
    """One-sided slope of the convexified restriction at t = 0 or t = 1.

    On a grid the hull's first edge has the least chord slope from t = 0,
    min_j (W_j - W_0) / t_j, and its last the greatest into t = 1,
    max_j (W_N - W_j) / (1 - t_j); these are Richardson-extrapolated under
    grid doubling until two successive extrapolants agree to ``rtol``.  At a
    marginally stable endpoint the value is the endpoint stress paired with the jump.
    """
    if at not in (0, 1):
        raise ValueError("at must be 0 or 1")
    prev_q = None
    prev_rich = None
    for level in range(max_levels):
        t = np.linspace(0.0, 1.0, base_points * 2**level + 1)
        w = _restricted_energy(model, pair, t)
        if at == 0:
            quotient = np.min((w[1:] - w[0]) / t[1:])
        else:
            quotient = np.max((w[-1] - w[:-1]) / (1.0 - t[:-1]))
        if prev_q is not None:
            rich = 2.0 * quotient - prev_q
            if prev_rich is not None and abs(rich - prev_rich) <= rtol * (1.0 + abs(rich)):
                return float(rich)
            prev_rich = rich
        prev_q = quotient
    raise NonconvergenceError("hull slope did not converge under grid refinement")


@dataclass(frozen=True)
class AffineFormulaReport:
    """Deviation of the hull (of ``curve``) from the affine interpolation of well energies."""

    max_deviation: float
    tol: float
    passed: bool
    p_star: float
    frak_n: float
    curve: EnvelopeCurve


def check_affine_formula(
    model: EnergyModel, pair: InterfacePair, tol: float = 1e-10, grid_size: int = 201
) -> AffineFormulaReport:
    """Compare hull(t) with t W(F+) + (1-t) W(F-) on the rank-one segment.

    Equality characterizes a relaxed (laminate-supported) segment; a pair
    violating the Maxwell condition fails by an O(|p*|) margin.  This
    certifies the restriction to the segment only, not the full envelope.
    """
    t = np.linspace(0.0, 1.0, grid_size)
    curve = rank_one_restriction(model, pair, t)
    chord = t * model.value(pair.fp) + (1.0 - t) * model.value(pair.fm)
    dev = float(np.max(np.abs(curve.hull_values - chord)))
    pp, pm = _stresses(model, pair)
    return AffineFormulaReport(
        max_deviation=dev,
        tol=tol,
        passed=dev <= tol,
        p_star=_maxwell(model, pair, pp, pm),
        frak_n=_interchange(pair, pp, pm),
        curve=curve,
    )


# -- anti-plane shear closed forms -------------------------------------------


@dataclass(frozen=True)
class AntiplaneAnalysis:
    """Closed-form relaxation data of the scalar two-well energy.

    eps_plus < eps_minus bound the two-phase annulus; between them the
    relaxed energy is the affine-in-|F| branch sigma_star |F| + offset and
    the total stress magnitude locks at yield_radius (= sigma_star).  The
    labels are canonical: "inner" is the phase active at small |F|.
    """

    params: AntiplaneParams
    eps_plus: float
    eps_minus: float
    yield_radius: float
    sigma_star: float
    offset: float
    mu_inner: float
    w_inner: float
    mu_outer: float
    w_outer: float

    def qw_radial(self, r):
        """Relaxed energy as a function of |F| (vectorized)."""
        r = np.asarray(r, dtype=float)
        inner = 0.5 * self.mu_inner * r**2 + self.w_inner
        outer_ = 0.5 * self.mu_outer * r**2 + self.w_outer
        middle = self.sigma_star * r + self.offset
        return np.where(r <= self.eps_plus, inner, np.where(r >= self.eps_minus, outer_, middle))

    def in_binodal(self, r: float) -> bool:
        return self.eps_plus <= r <= self.eps_minus

    def stress(self, f) -> np.ndarray:
        """Gradient of the relaxed energy (total stress) at a 1 x d gradient."""
        f = as_matrix(f, 1)
        r = float(np.linalg.norm(f))
        if r <= self.eps_plus:
            return self.mu_inner * f
        if r >= self.eps_minus:
            return self.mu_outer * f
        return (self.sigma_star / r) * f

    def to_dict(self) -> dict:
        return {
            "eps_plus": self.eps_plus,
            "eps_minus": self.eps_minus,
            "yield_radius": self.yield_radius,
            "sigma_star": self.sigma_star,
            "offset": self.offset,
            "inner_phase": {"mu": self.mu_inner, "w": self.w_inner},
            "outer_phase": {"mu": self.mu_outer, "w": self.w_outer},
        }


def _root_of_ratio(numerator, denominator):
    """sqrt(prod(numerator) / prod(denominator)), each product taken left to
    right, on the factors' mantissas with their exponents (``math.frexp``)
    added apart: the ratio cannot under- or overflow where its root is a
    double, and wherever each step of the direct form is a normal double the
    two agree bit for bit, as scaling by a power of 2 is exact there."""

    def split(factors):
        parts = [math.frexp(factor) for factor in factors]
        return math.prod(m for m, _ in parts), sum(e for _, e in parts)

    (m_num, e_num), (m_den, e_den) = split(numerator), split(denominator)
    exponent = e_num - e_den
    ratio = m_num / m_den * (2.0 if exponent % 2 else 1.0)
    return np.ldexp(math.sqrt(ratio), exponent // 2)


def antiplane_analyze(params: AntiplaneParams) -> AntiplaneAnalysis:
    """Binodal radii, relaxed envelope, and yield radius of the two-well energy.

    Raises EmptyBinodalError when the wells cannot exchange stability.
    """
    params.require_binodal()
    # numpy scalars: a denominator that underflows to 0 gives inf, not ZeroDivisionError
    jw, jmu = np.float64(params.jump_w), np.float64(params.jump_mu)
    # each ratio can under- or overflow where its root is a double
    eps_p = _root_of_ratio((-2.0 * jw, params.mu_minus), (jmu, params.mu_plus))
    eps_m = _root_of_ratio((-2.0 * jw, params.mu_plus), (jmu, params.mu_minus))
    sigma_star = float(_root_of_ratio((-2.0 * jw, params.mu_plus, params.mu_minus), (jmu,)))
    offset = (params.mu_plus * params.w_plus - params.mu_minus * params.w_minus) / jmu
    if eps_p < eps_m:
        inner = (params.mu_plus, params.w_plus)
        outer_ = (params.mu_minus, params.w_minus)
    else:
        eps_p, eps_m = eps_m, eps_p
        inner = (params.mu_minus, params.w_minus)
        outer_ = (params.mu_plus, params.w_plus)
    yield_radius = 2.0 * (inner[1] - outer_[1]) / (eps_p - eps_m)
    return AntiplaneAnalysis(
        params=params,
        eps_plus=float(eps_p),
        eps_minus=float(eps_m),
        yield_radius=float(yield_radius),
        sigma_star=sigma_star,
        offset=float(offset),
        mu_inner=inner[0],
        w_inner=inner[1],
        mu_outer=outer_[0],
        w_outer=outer_[1],
    )


@dataclass(frozen=True)
class LaminateState:
    """Two-phase mixture attaining the relaxed energy at a macroscopic F."""

    theta: float
    fp: np.ndarray
    fm: np.ndarray
    f_macro: np.ndarray
    energy: float

    def __post_init__(self):
        mix = self.theta * self.fp + (1.0 - self.theta) * self.fm
        if float(np.max(np.abs(mix - self.f_macro))) > 1e-12 * (
            1.0 + float(np.max(np.abs(self.f_macro)))
        ):
            raise LaminateError("volume fractions do not reproduce the macroscopic gradient")


def laminate_from_macro(analysis: AntiplaneAnalysis, f0) -> LaminateState:
    """Optimal simple laminate for a macroscopic gradient inside the binodal.

    theta = (|F0| - eps_minus) / (eps_plus - eps_minus) and the phase
    gradients are the radial projections of F0 onto the binodal circles.
    """
    f0 = as_matrix(f0, 1)
    r = float(np.linalg.norm(f0))
    if not analysis.in_binodal(r):
        raise OutOfRegionError(
            f"|F0| = {r:.6g} outside the binodal [{analysis.eps_plus:.6g}, "
            f"{analysis.eps_minus:.6g}]"
        )
    theta = (r - analysis.eps_minus) / (analysis.eps_plus - analysis.eps_minus)
    fp = (analysis.eps_plus / r) * f0
    fm = (analysis.eps_minus / r) * f0
    w_p = 0.5 * analysis.mu_inner * analysis.eps_plus**2 + analysis.w_inner
    w_m = 0.5 * analysis.mu_outer * analysis.eps_minus**2 + analysis.w_outer
    energy = theta * w_p + (1.0 - theta) * w_m
    return LaminateState(float(theta), fp, fm, f0, float(energy))


@dataclass(frozen=True)
class PlasticMechanism:
    """Hyperplane (P, [F]) = [W] in stress space attached to a laminate pair.

    gap_plus/minus are the signed residuals (P+-, [F]) - [W]; they coincide
    exactly when the interchange force vanishes (the normality geometry).
    """

    pair: InterfacePair
    yield_normal: np.ndarray
    yield_offset: float
    gap_plus: float
    gap_minus: float
    normality_ok: bool

    def origin_distance(self) -> float:
        return abs(self.yield_offset) / float(np.linalg.norm(self.yield_normal))


def yield_plane(model: EnergyModel, pair: InterfacePair, tol: float = 1e-9) -> PlasticMechanism:
    """Yield hyperplane of the mechanism (F+, F-) with its normality check."""
    normal = pair.jump
    offset = model.value(pair.fp) - model.value(pair.fm)
    gap_p = frobenius(model.gradient(pair.fp), normal) - offset
    gap_m = frobenius(model.gradient(pair.fm), normal) - offset
    scale = 1.0 + abs(gap_p) + abs(gap_m)
    return PlasticMechanism(
        pair=pair,
        yield_normal=normal,
        yield_offset=float(offset),
        gap_plus=float(gap_p),
        gap_minus=float(gap_m),
        normality_ok=abs(gap_p - gap_m) <= tol * scale,
    )


def mechanism_pair(analysis: AntiplaneAnalysis, direction) -> InterfacePair:
    """Laminating pair with F+ on the inner binodal circle along ``direction``."""
    direction = np.asarray(direction, dtype=float).reshape(-1)
    direction = direction / np.linalg.norm(direction)
    fp = analysis.eps_plus * direction[None, :]
    fm = analysis.eps_minus * direction[None, :]
    return InterfacePair.from_gradients(fp, fm)


def tangency_gap(analysis: AntiplaneAnalysis, mechanism: PlasticMechanism) -> float:
    """Distance defect between the yield plane and the stress circle."""
    return abs(mechanism.origin_distance() - analysis.yield_radius)


def strain_rate_split(state: LaminateState, dtheta: float, dfp, dfm):
    """Split a laminate strain rate into elastic and mixture (plastic) parts.

    elastic = theta dF+ + (1-theta) dF-, plastic = dtheta (F+ - F-);
    their sum is the total macroscopic rate.
    """
    dfp = as_matrix(dfp, *state.fp.shape)
    dfm = as_matrix(dfm, *state.fm.shape)
    elastic = state.theta * dfp + (1.0 - state.theta) * dfm
    plastic = dtheta * (state.fp - state.fm)
    return elastic, plastic


@dataclass(frozen=True)
class LoadingStep:
    """Quasistatic response at one point of a loading path."""

    index: int
    f: np.ndarray
    f_norm: float
    theta: float
    p_total: np.ndarray
    on_yield: bool


def loading_program(analysis: AntiplaneAnalysis, path) -> list:
    """Trace stress and phase fraction along a path of macroscopic gradients.

    Inside the binodal the response is the optimal laminate: the total
    stress has magnitude yield_radius and follows the loading direction
    (the stress plateau).  Outside, the single active phase responds
    elastically.  The trace is history-free by construction; the scalar
    problem keeps the phase stresses equal, which is exactly the regime
    where this quasistatic picture is valid.
    """
    steps = []
    for i, f in enumerate(path):
        f = as_matrix(f, 1)
        r = float(np.linalg.norm(f))
        on_yield = analysis.in_binodal(r)
        if on_yield:
            theta = laminate_from_macro(analysis, f).theta
        else:
            theta = 1.0 if r < analysis.eps_plus else 0.0
        steps.append(
            LoadingStep(i, f, r, float(theta), analysis.stress(f), bool(on_yield))
        )
    return steps
