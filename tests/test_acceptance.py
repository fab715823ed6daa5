"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere; every expected
number is either exact algebra or an independently computed oracle.
"""

import time

import numpy as np
import pytest

import gradjump as gj

from conftest import REF_PARAMS

ANTIPLANE = gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS))
EQ_PAIR = gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]])
NONEQ_PAIR = gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.2, 0.0]])
PINNED_H_GRID = [0.1, 0.05, 0.025, 0.0125]
OMEGA_1 = gj.unit_ball_volume(1)  # = 2


def report(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_interchange_limit():
    # a deterministic rule: 35,312 integrand evaluations per h, with the
    # 64-node rule only on the two pieces where the wells switch
    params = gj.InterchangeParams(h=0.1, quad=gj.QuadratureConfig(seed=0))
    start = time.perf_counter()
    sweep = gj.limit_sweep(ANTIPLANE, NONEQ_PAIR, params, PINNED_H_GRID)
    elapsed = time.perf_counter() - start
    target = gj.interchange_limit_target(ANTIPLANE, NONEQ_PAIR)
    assert target == pytest.approx(-0.24)
    n_evals = sweep.n_evals // len(PINNED_H_GRID)
    gap = abs(sweep.limit - target) / abs(target)
    ok = gap <= 0.05 and 0.3 <= sweep.rate <= 0.7 and elapsed <= 60.0
    report(
        1,
        "interchange limit",
        ok,
        f"L={sweep.limit:+.5f}+-{sweep.limit_error:.5f} vs {target:+.2f} "
        f"(gap {100 * gap:.2f}%), rate={sweep.rate:.3f}, "
        f"{elapsed:.1f}s at {n_evals} evals/h",
    )


def test_criterion_2_equilibrium_nullity():
    p_star = gj.maxwell_force(ANTIPLANE, EQ_PAIR)
    frak_n = gj.interchange_force(ANTIPLANE, EQ_PAIR)
    traction = float(np.linalg.norm(gj.traction_residual(ANTIPLANE, EQ_PAIR)))
    roughening = float(np.linalg.norm(gj.roughening_residual(ANTIPLANE, EQ_PAIR)))
    params = gj.InterchangeParams(h=0.02, quad=gj.QuadratureConfig(seed=0))
    sweep = gj.limit_sweep(ANTIPLANE, EQ_PAIR, params, [0.02, 0.01, 0.005, 0.0025])
    ok = (
        max(abs(p_star), abs(frak_n), traction, roughening) <= 1e-12
        and abs(sweep.limit) <= 2.0 * sweep.limit_error
    )
    report(
        2,
        "equilibrium nullity",
        ok,
        f"max residual={max(abs(p_star), abs(frak_n), traction, roughening):.2e}, "
        f"|L|={abs(sweep.limit):.2e} <= 2x{sweep.limit_error:.2e}",
    )


def test_criterion_3_normality_inequality():
    rng = np.random.default_rng(420)
    tie = np.sqrt(2.0)
    kept = 0
    violations = 0
    worst = np.inf
    while kept < 1000:
        fm = rng.uniform(0.0, 3.0) * _unit(rng)
        a = rng.uniform(-2.0, 2.0, size=1)
        if abs(a[0]) < 1e-3:
            continue
        pair_fm = fm[None, :]
        pair = gj.InterfacePair.from_jump(pair_fm, a, _unit(rng))
        # stay off the branch-tie circle where the stress is undefined
        if min(abs(np.linalg.norm(pair.fp) - tie), abs(np.linalg.norm(pair.fm) - tie)) < 1e-6:
            continue
        radii = gj.default_radii(max(float(np.linalg.norm(pair.jump)), 0.1))
        if (
            gj.weierstrass_scan(ANTIPLANE, pair.fp, radii, 64).min_value < -1e-12
            or gj.weierstrass_scan(ANTIPLANE, pair.fm, radii, 64).min_value < -1e-12
        ):
            continue
        gap = gj.normality_gap(ANTIPLANE, pair)
        worst = min(worst, gap)
        if gap < -1e-8:
            violations += 1
        kept += 1
    ok = violations == 0
    report(
        3,
        "normality inequality",
        ok,
        f"{kept} stable pairs, {violations} violations, worst gap={worst:.3e}",
    )


def _unit(rng):
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(angle), np.sin(angle)])


def test_criterion_4_envelope_formula():
    analysis = gj.antiplane_analyze(gj.AntiplaneParams(**REF_PARAMS))
    assert analysis.eps_plus == pytest.approx(1.0)
    assert analysis.eps_minus == pytest.approx(2.0)
    assert analysis.qw_radial(1.5) == pytest.approx(2.0)  # middle branch 2|F| - 1

    rs = np.linspace(0.0, 3.0, 30001)
    w = ANTIPLANE.value_many(np.stack([rs, np.zeros_like(rs)], axis=1)[:, None, :])
    _, hull = gj.lower_convex_hull(rs, w)
    envelope_dev = float(np.max(np.abs(hull - analysis.qw_radial(rs))))

    affine = gj.check_affine_formula(ANTIPLANE, EQ_PAIR, tol=1e-10, grid_size=201)
    ok = envelope_dev <= 1e-8 and affine.max_deviation <= 1e-10
    report(
        4,
        "envelope formula",
        ok,
        f"dense convexification gap={envelope_dev:.2e}, "
        f"chord deviation={affine.max_deviation:.2e}",
    )


def test_criterion_5_directional_derivatives():
    d0 = gj.directional_derivative(ANTIPLANE, EQ_PAIR, at=0)
    d1 = gj.directional_derivative(ANTIPLANE, EQ_PAIR, at=1)
    p_minus = gj.frobenius(ANTIPLANE.gradient(EQ_PAIR.fm), EQ_PAIR.jump)
    p_plus = gj.frobenius(ANTIPLANE.gradient(EQ_PAIR.fp), EQ_PAIR.jump)
    assert p_minus == pytest.approx(-2.0) and p_plus == pytest.approx(-2.0)
    ok = abs(d0 - (-2.0)) <= 1e-4 and abs(d1 - (-2.0)) <= 1e-4
    report(5, "directional derivatives", ok, f"slope(0)={d0:+.6f}, slope(1)={d1:+.6f}")


def test_criterion_6_interpolation_landscape():
    params = gj.IsotropicParams(d=1, mu=0.0, f_coeffs=(1, 0, -2, 0, 1))
    ts = np.linspace(0.0, 1.0, 1001)
    d_vals = gj.d_path_isotropic(params, 1.0, -1.0, ts)
    closed = 32.0 * ts**2 * (1.0 - ts) ** 2
    dev = float(np.max(np.abs(d_vals - closed)))
    mid = gj.d_path_isotropic(params, 1.0, -1.0, [0.5])[0]
    ok = (
        dev <= 1e-10
        and d_vals[0] == 0.0
        and abs(d_vals[-1]) <= 1e-12
        and mid == pytest.approx(2.0, abs=1e-12)
        and abs(ts[int(np.argmax(d_vals))] - 0.5) <= 1e-3
    )
    report(
        6,
        "interpolation landscape",
        ok,
        f"max |D - 32 t^2(1-t)^2| = {dev:.2e}, D(1/2)={mid:.12f}",
    )


def test_criterion_7_region_geometry():
    # the measures are sums of the cubature's weights, exact to rounding:
    # R+- against its closed form, int_0^h sqrt((1 - sqrt(h))^2 - s^2) ds
    # - h^{3/2}, then the decay exponents of its distance to the leading
    # order h omega_1 / 2 and of the tangential and corner regions
    hs = np.array([0.04, 0.02, 0.01, 0.005])
    measures = [gj.estimate_region_measures(EQ_PAIR, gj.InterchangeParams(h=float(h)))
                for h in hs]
    worst = 0.0
    for h, m in zip(hs, measures):
        r1 = 1.0 - np.sqrt(h)
        exact = 0.5 * (h * np.sqrt(r1 * r1 - h * h) + r1 * r1 * np.arcsin(h / r1)) - h**1.5
        for key in ("R_plus", "R_minus"):
            worst = max(worst, abs(m[key][0] - exact) / exact)
    slab_gap = [abs(m["R_plus"][0] - h * OMEGA_1 / 2.0) for h, m in zip(hs, measures)]
    alpha_r = np.polyfit(np.log(hs), np.log(slab_gap), 1)[0]
    alpha_q = np.polyfit(np.log(hs), np.log([m["Q"][0] for m in measures]), 1)[0]
    alpha_qp = np.polyfit(np.log(hs), np.log([m["Q_prime"][0] for m in measures]), 1)[0]
    ok = (
        worst <= 1e-12
        and abs(alpha_r - 1.5) <= 0.2
        and abs(alpha_q - 0.5) <= 0.15
        and abs(alpha_qp - 1.5) <= 0.2
    )
    report(
        7,
        "region geometry",
        ok,
        f"R+-={measures[2]['R_plus'][0]:.4f} at h=0.01, closed form to {worst:.1e}; "
        f"exponents |R+- - h w/2|={alpha_r:.3f}, Q={alpha_q:.3f}, Q'={alpha_qp:.3f}",
    )


def test_criterion_8_yield_geometry():
    analysis = gj.antiplane_analyze(gj.AntiplaneParams(**REF_PARAMS))
    radius_ok = analysis.yield_radius == pytest.approx(2.0, abs=1e-14)

    gaps = []
    for angle in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
        pair = gj.mechanism_pair(analysis, [np.cos(angle), np.sin(angle)])
        gaps.append(gj.tangency_gap(analysis, gj.yield_plane(ANTIPLANE, pair)))
    tangency_ok = max(gaps) <= 1e-10

    rs = np.linspace(0.5, 2.5, 81)
    angles = np.linspace(0.0, np.pi, 81)
    path = [[[r * np.cos(a), r * np.sin(a)]] for r, a in zip(rs, angles)]
    stress_dev = 0.0
    for step in gj.loading_program(analysis, path):
        if step.on_yield:
            stress_dev = max(stress_dev, abs(np.linalg.norm(step.p_total) - 2.0))
    ok = radius_ok and tangency_ok and stress_dev <= 1e-10
    report(
        8,
        "yield geometry",
        ok,
        f"radius={analysis.yield_radius}, max tangency gap={max(gaps):.2e}, "
        f"stress plateau deviation={stress_dev:.2e}",
    )


def test_criterion_9_limit_commutation():
    frak_n = gj.interchange_force(ANTIPLANE, NONEQ_PAIR)
    target = -OMEGA_1 * frak_n  # both iterated limits of dE/(t h)
    quad = gj.QuadratureConfig(seed=5, samples_bulk=8192, samples_slab=65536)

    # h -> 0 first: extrapolated limit of dE(t, h)/h for fixed t, then t -> 0
    ts = np.array([0.2, 0.1, 0.05])
    k_vals, k_errs = [], []
    for t in ts:
        params = gj.InterchangeParams(h=0.1, t=float(t), quad=quad)
        sweep = gj.limit_sweep(ANTIPLANE, NONEQ_PAIR, params, PINNED_H_GRID)
        k_vals.append(sweep.limit / t)
        k_errs.append(sweep.limit_error / t)
    w = 1.0 / np.array(k_errs) ** 2
    design = np.column_stack([np.ones_like(ts), ts])
    cov_a = np.linalg.inv(design.T @ (w[:, None] * design))
    coef_a = cov_a @ (design.T @ (w * np.array(k_vals)))
    route_a, err_a = float(coef_a[0]), float(np.sqrt(cov_a[0, 0]))

    # t -> 0 first: two-point Richardson in t, then the h sweep of the slopes
    hs = np.array(PINNED_H_GRID)
    slopes, slope_errs = [], []
    for h in hs:
        vals = {}
        for t in (0.02, 0.01):
            params = gj.InterchangeParams(h=float(h), t=t, quad=quad)
            res = gj.energy_increment(ANTIPLANE, NONEQ_PAIR, params)
            vals[t] = (res.delta_e / t, res.mc_error / t)
        slopes.append(2.0 * vals[0.01][0] - vals[0.02][0])
        slope_errs.append(np.hypot(2.0 * vals[0.01][1], vals[0.02][1]))
    y = np.array(slopes) / hs
    sig = np.maximum(np.array(slope_errs) / hs, 1e-12)
    s = np.sqrt(hs)
    design_b = np.column_stack([np.ones_like(s), s, s * s])
    w_b = 1.0 / sig**2
    cov_b = np.linalg.inv(design_b.T @ (w_b[:, None] * design_b))
    coef_b = cov_b @ (design_b.T @ (w_b * y))
    route_b, err_b = float(coef_b[0]), float(np.sqrt(cov_b[0, 0]))

    combined = float(np.hypot(err_a, err_b))
    agree = abs(route_a - route_b) <= 3.0 * combined + 0.01 * abs(target)
    near_a = abs(route_a - target) <= max(3.0 * err_a, 0.05 * abs(target))
    near_b = abs(route_b - target) <= max(3.0 * err_b, 0.05 * abs(target))
    ok = agree and near_a and near_b
    report(
        9,
        "limit commutation",
        ok,
        f"h-then-t {route_a:+.4f}+-{err_a:.4f}, t-then-h {route_b:+.4f}+-{err_b:.4f}, "
        f"target {target:+.4f}",
    )
