"""The stratified, antithetic RQMC estimator that gradjump once used for
the interchange energy increment, kept as the tests' oracle for the
cubature.

It samples a mixture of uniform proposals over the unit ball: the whole
ball, the slab |z.n| <= h, the strip |z.nu| <= sqrt(h), their corner
overlap and the shell |z| >= 1 - sqrt(h), as the config's stratification
enables them.  Each stratum draws N_SCRAMBLES batches of scrambled Sobol
points (scipy's ``qmc.Sobol``) from streams keyed (seed, stratum id,
scramble id), a power of two of pairs per batch near its budget.  Each
pair (z, -z) adds 0.5 (f(z) + f(-z)) / q(z), with q the mixture density,
and a stratum's error bar is the spread of its batch means.
"""

import math

import numpy as np
from scipy.stats import qmc

import gradjump as gj
from gradjump import quadrature
from gradjump.interchange import InterchangeField, classify_codes

#: independent scrambles per stratum
N_SCRAMBLES = 8

STRATUM_IDS = {"bulk": 0, "slab": 1, "strip": 2, "corner": 3, "shell": 4}


def _stream(seed, *spawn_key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _box(half_widths):
    """(measure, map from [0, 1)^d, membership) of the box |z_k| <= half_widths[k]."""
    return (float(np.prod(2.0 * half_widths)), lambda u: (2.0 * u - 1.0) * half_widths,
            lambda z, r: np.all(np.abs(z) <= half_widths, axis=1))


def _ball(d, r_lo=0.0):
    """(measure, map from [0, 1)^d, membership) of the shell r_lo <= |z| <= 1."""

    def to_ball(u):
        radius = (r_lo**d + u[:, 0] * (1.0 - r_lo**d)) ** (1.0 / d)
        if d == 2:
            angle = 2.0 * math.pi * u[:, 1]
            return radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        cos_pol = 1.0 - 2.0 * u[:, 1]
        sin_pol = np.sqrt(np.maximum(0.0, 1.0 - cos_pol**2))
        azim = 2.0 * math.pi * u[:, 2]
        return radius[:, None] * np.column_stack(
            [sin_pol * np.cos(azim), sin_pol * np.sin(azim), cos_pol])

    return (gj.unit_ball_volume(d) * (1.0 - r_lo**d), to_ball,
            lambda z, r: (r <= 1.0) & (r >= r_lo))


def estimate(h, d, quad, pair_values):
    """(means, errors, evaluations) of the integrals over the ball whose
    pair values 0.5 (f(z) + f(-z)) ``pair_values(coords)`` returns, (N, k)."""
    sh, ones = math.sqrt(h), np.ones(d)
    shapes = {
        "bulk": _ball(d),
        "slab": _box(np.concatenate([[h], ones[1:]])),
        "strip": _box(np.concatenate([[1.0], [sh], ones[2:]])),
        "corner": _box(np.concatenate([[h], [sh], ones[2:]])),
        "shell": _ball(d, 1.0 - sh),
    }
    names = ["bulk"] + [s for s in STRATUM_IDS if s != "bulk" and s in quad.stratification]
    pairs = []
    for name in names:
        budget = quad.samples_bulk if name == "bulk" else quad.samples_slab
        pairs.append(2 ** round(math.log2(max(budget // (2 * N_SCRAMBLES), 64))))
    weights = np.array(pairs, dtype=float) / sum(pairs)

    def pdf(coords):
        r = np.linalg.norm(coords, axis=1)
        return sum(c / shapes[n][0] * shapes[n][2](coords, r) for n, c in zip(names, weights))

    mean = var = 0.0
    for name, n_pairs, c in zip(names, pairs, weights):
        to_ball = shapes[name][1]
        means = []
        for j in range(N_SCRAMBLES):
            u = qmc.Sobol(d, scramble=True, seed=_stream(quad.seed, STRATUM_IDS[name], j))
            coords = to_ball(u.random(n_pairs))
            means.append((pair_values(coords) / pdf(coords)[:, None]).mean(axis=0))
        mean = mean + c * np.mean(means, axis=0)
        var = var + c * c * np.var(means, axis=0, ddof=1) / N_SCRAMBLES
    return mean, np.sqrt(var), 2 * N_SCRAMBLES * sum(pairs)


def energy_increment(model, pair, params):
    """(Delta E, error bar, evaluations) at params.h, params.t: the sampled
    excess plus the interface term, taken exactly as gradjump takes it."""
    fld = InterchangeField(pair, params)
    h, t = params.h, params.t
    integrand = quadrature._excess_integrand(model, pair, fld, t)

    def pair_values(coords):
        # each pair folded onto s_n >= 0, where the integrand takes its rows
        _, g = fld.scalar_gradient(coords)
        g *= np.where(coords[:, :1] < 0.0, -1.0, 1.0)
        return 0.5 * np.add(*integrand(g.T))[:, None]

    (mean,), (error,), n_evals = estimate(h, pair.d, params.quad, pair_values)
    exact = -gj.interchange_force(model, pair) * h * quadrature.interface_profile(h, pair.d)
    return t * exact + mean, error, n_evals


def region_measures(pair, params):
    """{region: (measure, error bar)}, keyed by quadrature.REGION_KEYS: the
    regions of -z are those of z with R_plus and R_minus swapped."""
    InterchangeField(pair, params)
    h = params.h

    def pair_values(coords):
        codes = classify_codes(coords, h)
        flips = 0.5 * ((codes == 1) | (codes == 2))
        return np.column_stack([flips, flips, codes == 3, codes == 4]).astype(float)

    mean, error, _ = estimate(h, pair.d, params.quad, pair_values)
    return {k: (float(m), float(e)) for k, m, e in zip(quadrature.REGION_KEYS, mean, error)}
