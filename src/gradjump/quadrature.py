"""Stratified Monte Carlo for the interchange energy increment.

The increment Delta E(t, h) = int_B [ W(Fbar + t grad Phi) - W(Fbar) ] dz is
split into the interface-linear part, which integrates exactly to
-t N int_Pi Phi dS by the divergence theorem (the two-sided stress is
piecewise constant and Phi vanishes on the sphere), plus a pointwise-excess
remainder estimated stochastically.  The remainder integrand is supported on
thin sets, so sampling uses a deterministic mixture of uniform proposals:
the whole ball, an |z.n| <= h slab, an |z.nu| <= sqrt(h) strip, their corner
overlap, and the |z| >= 1 - sqrt(h) shell.  Mirrored (antithetic) pairs
cancel the leading fluctuations.

Each pair (z, -z) is evaluated in one pass that rests on two exact mirror
identities of the field: the frame gradient is odd, g(-z) = -g(z) bit for
bit, and the regions of -z are those of z with R_plus and R_minus swapped.
So the radius, the gradient and the mixture pdf (q(-z) = q(z)) are
computed once per pair; only the energy is evaluated on both sides, with
the world-space step negated for the mirror point.  The energy pass
evaluates the pdf and the energy only on the rows where the field moves
(g != 0).  That is exact because the excess integrand vanishes where
g = 0: its step t a (x) g and its linear term are then both zero.  It
evaluates the gradient itself only on the rows that can move, a cheap
superset of g != 0 read off the coordinates and the radius
(``interchange._moving_candidates``), and keeps those of them where
g != 0.  The gradient comes from one evaluation of the + term at
sign-folded coordinates (``interchange._mirrored_gradient``), and the
excess from the model's rank-one kernel ``EnergyModel.rank_one_excess``,
a closed form in a.G, (F^T a).G and |G|^2 for the quadratic,
min-of-quadratics and isotropic kinds and the (N, m, d) stack form for the
rest; each is exactly 0 where g = 0.  One kernel call returns both sides
of a block (its ``mirror`` index), so the closed forms compute the parts
that do not depend on the sign of the step once.  Region codes are
computed only by ``estimate_region_measures``, which draws the same points
from the same streams.

Each stratum draws N_SCRAMBLES batches, either scrambled Sobol points
(default; the independent scrambles give an unbiased estimate with an
honest error bar) or consecutive blocks of one pseudo-random stream, from
streams keyed by (seed, stratum id, scramble id).  Totals are reproducible
bit for bit regardless of evaluation order.

The Sobol sampler is this module's own (``_sobol``), for d <= 3: Joe and
Kuo's direction numbers, a random linear matrix scramble plus digital
shift drawn from the child stream keyed (seed, stratum id, scramble id, 0),
and the points in gray-code order as one running xor.  Its output is bit
for bit that of scipy's ``qmc.Sobol(d, scramble=True)`` seeded with the
(seed, stratum id, scramble id) stream, which the tests check; scipy is
not imported at run time (only the rate fit's rarely taken fallback loads
``scipy.optimize``).  The scramble does not depend on h or on the number
of points, so it is built once per (d, seed, stratum id, scramble id) and
kept in a small cache (``_sobol_scramble``, read-only arrays); each
process of a sweep builds each one at its first h and reuses it at its
others.  A batch is evaluated in row blocks of _BLOCK_ROWS pairs, so the
estimator's temporaries stay small enough for the allocator to reuse them
instead of mapping fresh pages on every call.  rqmc carries each batch's
row-order sum from block to block and mc writes every block into one
array per stratum, so the totals do not depend on the block size.

A sweep runs on two processes: ``limit_sweep`` forks one child
(``forking._fork_stream``) that estimates every other h of the grid,
grid[1::2], in grid order and sends each result back through a pipe as
soon as it has it, while this process estimates grid[0::2].  The parent
still calls ``energy_increment`` once per h, in grid order; at an h the
child owns it hands over the stream (the keyword-only ``_stream``) and
gets the child's result back, checked against that h, with no fork, exit
or wait per h.  Each estimate is computed whole by one process, with the
same code and summation order, so the results are bit for bit the same
whatever the CPU count; with fewer than two usable CPUs, no ``os.fork``
or a failed fork the sweep runs serially.  On an early exit (an error,
an error cap, an interrupt) the parent kills the child without waiting
for its current h and reaps it.  An estimate outside a sweep
(``energy_increment`` alone, ``estimate_region_measures``) runs in the
calling process.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energies import EnergyModel
from .errors import GradJumpError, NonconvergenceError, QuadratureError
from .forking import _ForkStream, _fork_stream
from .interchange import (
    InterchangeField,
    InterchangeParams,
    QuadratureConfig,
    _mirrored_gradient,
    _moving_candidates,
    _region_codes,
)
from .jumps import InterfacePair, interchange_force
from .tensors import frobenius, row_sq_norms, unit_ball_volume

REGION_KEYS = ("R_plus", "R_minus", "Q", "Q_prime")

_STRATUM_IDS = {"bulk": 0, "slab": 1, "strip": 2, "corner": 3, "shell": 4}
_CANONICAL = ("bulk", "slab", "strip", "corner", "shell")

#: independent scrambles per stratum (error bar comes from their spread)
N_SCRAMBLES = 8

#: pairs per call of a pass's pair estimator; at d <= 3 each (rows, d)
#: temporary of a block stays under 128 KiB, glibc's default mmap threshold
_BLOCK_ROWS = 4096

#: Sobol direction numbers of dimensions 1-3 at 30 bits (Joe and Kuo,
#: "Constructing Sobol sequences with better two-dimensional projections",
#: SIAM J. Sci. Comput. 30, 2008), as scipy.stats.qmc.Sobol tabulates them
_SOBOL_BITS = 30
_SOBOL_V = np.array([
    [
        0x20000000, 0x10000000, 0x08000000, 0x04000000, 0x02000000, 0x01000000,
        0x00800000, 0x00400000, 0x00200000, 0x00100000, 0x00080000, 0x00040000,
        0x00020000, 0x00010000, 0x00008000, 0x00004000, 0x00002000, 0x00001000,
        0x00000800, 0x00000400, 0x00000200, 0x00000100, 0x00000080, 0x00000040,
        0x00000020, 0x00000010, 0x00000008, 0x00000004, 0x00000002, 0x00000001,
    ],
    [
        0x20000000, 0x30000000, 0x28000000, 0x3C000000, 0x22000000, 0x33000000,
        0x2A800000, 0x3FC00000, 0x20200000, 0x30300000, 0x28280000, 0x3C3C0000,
        0x22220000, 0x33330000, 0x2AAA8000, 0x3FFFC000, 0x20002000, 0x30003000,
        0x28002800, 0x3C003C00, 0x22002200, 0x33003300, 0x2A802A80, 0x3FC03FC0,
        0x20202020, 0x30303030, 0x28282828, 0x3C3C3C3C, 0x22222222, 0x33333333,
    ],
    [
        0x20000000, 0x30000000, 0x18000000, 0x24000000, 0x3A000000, 0x17000000,
        0x23800000, 0x31400000, 0x1A200000, 0x27300000, 0x3B980000, 0x15640000,
        0x201A0000, 0x30270000, 0x183B8000, 0x24154000, 0x3A202000, 0x17303000,
        0x23981800, 0x31642400, 0x1A1A3A00, 0x27271700, 0x3BBBA380, 0x15557140,
        0x20003A20, 0x30001730, 0x18002398, 0x24003164, 0x3A001A1A, 0x17002727,
    ],
], dtype=np.uint32)
#: the bits of each direction number, most significant first: (3, bits, bits)
_SOBOL_V_BITS = (
    (_SOBOL_V[:, None, :] >> np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)[:, None]) & 1
).astype(float)


def interface_profile(h: float, d: int) -> float:
    """Exact interface integral of the scalar field profile, divided by h.

    On the plane z.n = 0 the mirrored profile is min(|z.nu|/sqrt(h), 1)
    times the radial cutoff; for d = 2 the integral is 2 (1 - sqrt(h)) in
    closed form, for d = 3 it reduces to a 1-D radial integral, taken by a
    32-point Gauss-Legendre rule on the pieces between 0, sqrt(h),
    1 - sqrt(h) and 1.  Above r = sqrt(h) the angular factor has a
    square-root kink, which the substitution r = sqrt(h) + u^2 removes, so
    the rule is accurate to ~1e-12 relative for h >= 1e-8.  Tends to the
    unit-ball volume of the interface disk as h -> 0.
    """
    sh = math.sqrt(h)
    big_r = 1.0 - sh
    if d == 2:
        return 2.0 * big_r
    if d == 3:
        nodes, weights = _gauss_legendre()
        lo, hi = sorted((sh, big_r))
        total = 0.0
        for a, b in ((0.0, lo), (lo, hi), (hi, 1.0)):
            if a < sh:
                r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
                jacobian = 0.5 * (b - a)
                angular = 4.0 * r / sh
            else:
                ua, ub = math.sqrt(a - sh), math.sqrt(b - sh)
                u = 0.5 * (ub - ua) * nodes + 0.5 * (ua + ub)
                r = sh + u * u
                jacobian = (ub - ua) * u
                # 4 (theta + (r / sh) (1 - sin theta)) with cos theta = sh / r
                angular = 4.0 * (np.arccos(sh / r) + sh / (r + np.sqrt(r * r - h)))
            zeta = np.minimum(1.0, (1.0 - r) / sh)
            total += float(weights @ (jacobian * zeta * angular * r))
        return total
    raise ValueError("interface profile supports d = 2 or 3")


@functools.lru_cache(maxsize=1)
def _gauss_legendre():
    """32-point Gauss-Legendre nodes and weights on [-1, 1], built on first
    use: numpy.polynomial costs a few ms to import."""
    return np.polynomial.legendre.leggauss(32)


class _BoxStratum:
    def __init__(self, name: str, half_widths: np.ndarray):
        self.name = name
        self.hw = half_widths
        self.measure = float(np.prod(2.0 * half_widths))
        # every sampled point lies in [-1, 1]^d, so full-width axes never reject
        self.narrowed = [(k, w) for k, w in enumerate(half_widths) if w < 1.0]

    def map_unit(self, u: np.ndarray) -> np.ndarray:
        return (2.0 * u - 1.0) * self.hw

    def contains(self, abs_coords: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Membership of sampled points (inside [-1, 1]^d) from |coords| and radii r."""
        (k, w), *rest = self.narrowed  # h < 1, so the slab axis or the strip axis is narrowed
        inside = abs_coords[:, k] <= w
        for k, w in rest:
            inside &= abs_coords[:, k] <= w
        return inside


class _BallStratum:
    def __init__(self, name: str, d: int, r_lo: float = 0.0):
        self.name = name
        self.d = d
        self.r_lo = r_lo
        self.measure = unit_ball_volume(d) * (1.0 - r_lo**d)

    def map_unit(self, u: np.ndarray) -> np.ndarray:
        d = self.d
        radius = (self.r_lo**d + u[:, 0] * (1.0 - self.r_lo**d)) ** (1.0 / d)
        if d == 2:
            angle = 2.0 * math.pi * u[:, 1]
            direction = np.column_stack([np.cos(angle), np.sin(angle)])
        else:
            cos_pol = 1.0 - 2.0 * u[:, 1]
            sin_pol = np.sqrt(np.maximum(0.0, 1.0 - cos_pol**2))
            azim = 2.0 * math.pi * u[:, 2]
            direction = np.column_stack(
                [sin_pol * np.cos(azim), sin_pol * np.sin(azim), cos_pol]
            )
        return radius[:, None] * direction

    def contains(self, abs_coords: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Membership of points with radii r = |coords|."""
        inside = r <= 1.0
        if self.r_lo > 0.0:
            inside &= r >= self.r_lo
        return inside


def _build_strata(h: float, d: int, quad: QuadratureConfig):
    sh = math.sqrt(h)
    ones = np.ones(d)
    shapes = {
        "bulk": _BallStratum("bulk", d),
        "slab": _BoxStratum("slab", np.concatenate([[h], ones[1:]])),
        "strip": _BoxStratum("strip", np.concatenate([[1.0], [sh], ones[2:]])),
        "corner": _BoxStratum("corner", np.concatenate([[h], [sh], ones[2:]])),
        "shell": _BallStratum("shell", d, r_lo=1.0 - sh),
    }
    # the strata an estimate draws from, in canonical order
    enabled = ["bulk"] + [s for s in _CANONICAL[1:] if s in quad.stratification]
    strata = [shapes[name] for name in enabled]
    budgets = [quad.samples_bulk if n == "bulk" else quad.samples_slab for n in enabled]
    return strata, budgets


def _pairs_per_scramble(budget_evals: int) -> int:
    """Antithetic pairs per scramble, rounded to the nearest power of two."""
    per = max(budget_evals // (2 * N_SCRAMBLES), 64)
    return 2 ** int(round(math.log2(per)))


@dataclass(frozen=True)
class VariationResult:
    """Monte Carlo estimate of the energy increment."""

    delta_e: float
    mc_error: float
    h: float
    t: float
    n_evals: int

    def to_dict(self) -> dict:
        return {
            "delta_e": self.delta_e,
            "mc_error": self.mc_error,
            "h": self.h,
            "t": self.t,
            "n_evals": self.n_evals,
        }


def _radius(coords: np.ndarray) -> np.ndarray:
    """Row norms |z|, bitwise equal to np.linalg.norm(coords, axis=1) for d = 2, 3."""
    return np.sqrt(row_sq_norms(coords))


def _row_order_sum(blocks):
    """Sum over axis 0 of the rows of every block, added in order.

    np.sum adds a 1-D array pairwise but the rows of a 2-D array in order;
    summing in row order for both keeps an estimate's bits independent of
    how many outputs its pass returns and of how its rows are split into
    blocks.  Each block's first row takes the running sum carried in and
    np.cumsum accumulates in place, so the blocks are overwritten.
    """
    total = None
    for block in blocks:
        if total is not None:
            block[0] += total
        total = np.cumsum(block, axis=0, out=block)[-1].copy()
    return total


def _mean_var(vals: np.ndarray):
    """Row-order mean and unbiased variance over axis 0, as np.mean/np.var
    compute them for the rows of a 2-D array.

    The values, the deviations and their squares go through one buffer of
    at most _BLOCK_ROWS rows, chunk by chunk.
    """
    n = vals.shape[0]
    buf = np.empty((min(n, _BLOCK_ROWS),) + vals.shape[1:])

    def chunks(fill):
        """buf filled by fill(rows, out) from each chunk of vals in turn."""
        for i in range(0, n, _BLOCK_ROWS):
            chunk = buf[:min(_BLOCK_ROWS, n - i)]
            fill(vals[i:i + _BLOCK_ROWS], chunk)
            yield chunk

    def squares(rows, out):
        np.subtract(rows, mean, out=out)
        np.multiply(out, out, out=out)

    mean = _row_order_sum(chunks(lambda rows, out: np.copyto(out, rows))) / n
    return mean, _row_order_sum(chunks(squares)) / (n - 1)


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(seq))


@functools.lru_cache(maxsize=8)
def _ruler(n: int) -> np.ndarray:
    """ctz(i) for i = 1 .. n-1: the direction number gray-code point i flips."""
    i = np.arange(1, n)
    out = (np.frexp(i & -i)[1] - 1).astype(np.intp)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=128)
def _sobol_scramble(d: int, seed: int, sid: int, j: int):
    """Digital shift (d,) and scrambled direction numbers (bits, d) of
    scramble j of stratum sid, as read-only uint32 arrays.

    scipy's engine draws from the first spawned child of the stream
    _stream(seed, sid, j), keyed (sid, j, 0), a digital shift and then
    lower unit-triangular matrices L, one per dimension, and scrambles each
    direction number v, as its bit vector most significant bit first, to
    L v mod 2.  The matrix products are exact in floating point (every
    entry is an integer <= 30).  The result does not depend on the number
    of points, so every h of a sweep reuses it.  A sweep needs 40; the 128
    entries kept take under 100 KB (about 770 bytes each at d = 3).
    """
    rng = _stream(seed, sid, j, 0)
    bits = _SOBOL_BITS
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ (
        2 ** np.arange(bits, dtype=np.uint32)
    )
    lms = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32), -1) + np.eye(bits)
    scrambled = lms @ _SOBOL_V_BITS[:d]  # (dimension, bit, direction number)
    np.fmod(scrambled, 2.0, out=scrambled)
    msb_first = 2.0 ** np.arange(bits - 1, -1, -1)
    directions = np.ascontiguousarray((scrambled.transpose(0, 2, 1) @ msb_first).T, np.uint32)
    shift.setflags(write=False)
    directions.setflags(write=False)
    return shift, directions


def _sobol(d: int, n: int, seed: int, sid: int, j: int) -> np.ndarray:
    """n scrambled Sobol points in [0, 1)^d, d <= 3, for scramble j of stratum sid.

    Bit for bit ``qmc.Sobol(d, scramble=True, seed=_stream(seed, sid, j))
    .random(n)`` of scipy 1.17, from the cached scramble of
    ``_sobol_scramble``: point 0 is the shift and point i that of i - 1
    xor direction number ctz(i).
    """
    shift, directions = _sobol_scramble(d, seed, sid, j)
    points = np.empty((n, d), dtype=np.uint32)
    points[0] = shift
    np.take(directions, _ruler(n), axis=0, out=points[1:])
    np.bitwise_xor.accumulate(points, axis=0, out=points)
    return points * 2.0**-_SOBOL_BITS


class _Estimate:
    """One antithetic mixture-sampling estimate over all strata: their
    mixture density, the per-stratum estimator and the total.

    ``pair_estimates(coords, pdf)`` returns 0.5 (f(z) + f(-z)) / q(z) for
    each drawn pair (z, -z), as an (N,) or (N, k) array, and is called on
    row blocks of at most _BLOCK_ROWS pairs; ``pdf(coords, r)`` is the
    mixture density q at points with radii r, and q(-z) = q(z).
    Each stratum is drawn in N_SCRAMBLES batches of power-of-two pairs.
    With rqmc every batch is an independent Sobol scramble and the error
    bar is the spread of the batch means; with mc the batches continue one
    pseudo-random stream and the error bar is the classical per-pair one.
    Raises QuadratureError when h is too small for every stratum to have a
    positive measure in floating point.
    """

    def __init__(self, fld: InterchangeField, quad: QuadratureConfig, pair_estimates):
        self.h, self.d, self.quad, self.pair_estimates = fld.h, fld.pair.d, quad, pair_estimates
        self.strata, budgets = _build_strata(fld.h, self.d, quad)
        for stratum in self.strata:
            if not (math.isfinite(stratum.measure) and stratum.measure > 0.0):
                raise QuadratureError(
                    f"the {stratum.name} stratum has measure {stratum.measure!r} at "
                    f"h = {fld.h!r}: h is too small for double precision"
                )
        self.per_scramble = [_pairs_per_scramble(b) for b in budgets]
        pair_counts = np.array([N_SCRAMBLES * p for p in self.per_scramble], dtype=float)
        self.weights = pair_counts / pair_counts.sum()
        self.densities = [c / s.measure for s, c in zip(self.strata, self.weights)]

    def pdf(self, coords: np.ndarray, r: np.ndarray) -> np.ndarray:
        abs_coords = np.abs(coords)
        q = np.zeros(coords.shape[0])
        for stratum, density in zip(self.strata, self.densities):
            q += density * stratum.contains(abs_coords, r)
        return q

    def _blocks(self, stratum, u):
        """(first row, pair estimates) of each row block of the batch u."""
        for i in range(0, u.shape[0], _BLOCK_ROWS):
            yield i, self.pair_estimates(stratum.map_unit(u[i:i + _BLOCK_ROWS]), self.pdf)

    def stratum(self, stratum, pairs: int):
        """Row-order mean and variance of the stratum's per-scramble means
        (rqmc) or per-pair values (mc), with ``pairs`` pairs per scramble."""
        quad, d = self.quad, self.d
        sid = _STRATUM_IDS[stratum.name]
        if quad.sampler == "rqmc":
            means = []
            for j in range(N_SCRAMBLES):
                blocks = self._blocks(stratum, _sobol(d, pairs, quad.seed, sid, j))
                means.append(_row_order_sum(vals for _, vals in blocks) / pairs)
            return _mean_var(np.array(means))
        # mc keeps every per-pair value of the stratum's one stream
        stream = _stream(quad.seed, sid, 0)
        values = None
        for j in range(N_SCRAMBLES):
            for i, vals in self._blocks(stratum, stream.random((pairs, d))):
                if values is None:
                    values = np.empty((N_SCRAMBLES * pairs,) + vals.shape[1:])
                start = j * pairs + i
                values[start:start + len(vals)] = vals
        return _mean_var(values)

    def total(self):
        """The estimate over all strata: (means, errors, n_evals), n_evals
        counting two per pair.  The per-stratum means and variances are
        added in stratum order.  Raises QuadratureError on a non-finite
        total.
        """
        rqmc = self.quad.sampler == "rqmc"
        total_mean = total_var = 0.0
        n_evals = 0
        for stratum, pairs, c in zip(self.strata, self.per_scramble, self.weights):
            mean, var = self.stratum(stratum, pairs)
            n_evals += 2 * N_SCRAMBLES * pairs
            total_var += c * c * var / (N_SCRAMBLES if rqmc else N_SCRAMBLES * pairs)
            total_mean += c * mean
        if not (np.all(np.isfinite(total_mean)) and np.all(np.isfinite(total_var))):
            raise QuadratureError(f"the estimate at h = {self.h!r} is not finite")
        return total_mean, np.sqrt(total_var), n_evals


def _energy_estimate(fld: InterchangeField, quad: QuadratureConfig, integrand) -> _Estimate:
    """The estimate of the energy pass: the sampled integral of a residual
    over the ball.

    ``integrand(coords, g)`` returns the pair (f(z), f(-z)) of residual
    values for frame coordinates z with frame gradient g; the gradient at
    -z is exactly -g.  Contract: the integrand vanishes wherever g = 0.
    The excess integrand meets it exactly, since its step t a (x) g and its
    linear term are then both zero.  So the integrand and the mixture pdf
    are evaluated only on the rows where the field moves (g != 0), and
    every other pair contributes an exact zero.  The gradient is evaluated
    only on the rows that can move (``_moving_candidates``); a second
    compaction drops any of them where g = 0 after all.
    """
    h, d = fld.h, fld.pair.d

    def pair_estimates(coords: np.ndarray, pdf) -> np.ndarray:
        r = _radius(coords)
        # take() gathers rows several times faster than fancy indexing
        rows = np.flatnonzero(_moving_candidates(coords, r, h))
        z, r_z = coords.take(rows, axis=0), r.take(rows)
        g = _mirrored_gradient(z, r_z, h)
        moved = g[:, 0] != 0.0
        for k in range(1, d):
            moved |= g[:, k] != 0.0
        if not moved.all():  # rare: a candidate whose gradient rounds to 0
            keep = np.flatnonzero(moved)
            rows, r_z = rows.take(keep), r_z.take(keep)
            z, g = z.take(keep, axis=0), g.take(keep, axis=0)
        f_z, f_mirror = integrand(z, g)
        out = np.zeros(coords.shape[0])
        out[rows] = 0.5 * (f_z + f_mirror) / pdf(z, r_z)
        return out

    return _Estimate(fld, quad, pair_estimates)


def estimate_region_measures(pair: InterfacePair, params: InterchangeParams) -> dict:
    """Monte Carlo measures of the four gradient-support regions.

    Draws the same points from the same streams as the energy increment;
    with stratification=() and sampler="mc" this degenerates to plain
    uniform sampling over the ball, the right oracle for leading-order
    checks whose error bars must dominate the O(h^{3/2}) corrections.
    """
    fld = InterchangeField(pair, params)
    h = params.h

    def pair_estimates(coords: np.ndarray, pdf) -> np.ndarray:
        """Region indicators of z and -z: the regions of -z are those of z
        with R_plus and R_minus swapped."""
        r = _radius(coords)
        codes = _region_codes(coords[:, 0], coords[:, 1], r, h)
        flips = (codes == 1) | (codes == 2)
        out = np.empty((coords.shape[0], len(REGION_KEYS)))
        out[:, 0] = flips  # R_plus at z or at -z
        out[:, 1] = flips
        out[:, 2] = 2.0 * (codes == 3)
        out[:, 3] = 2.0 * (codes == 4)
        out *= 0.5
        out /= pdf(coords, r)[:, None]
        return out

    mean, err, _ = _Estimate(fld, params.quad, pair_estimates).total()
    return {k: (float(mean[j]), float(err[j])) for j, k in enumerate(REGION_KEYS)}


def _excess_integrand(model, pair, fld, t):
    """Pointwise excess W(Fbar + t grad Phi) - W(Fbar) - t (P(Fbar), grad Phi)
    at z and -z from the frame gradient g at z.

    Returns ``excess(coords, g) -> (f(z), f(-z))``.  grad Phi = a (x) G with
    the world vector G = frame^T g, so both values come from one two-sided
    call of the model's rank-one kernel on the bases (F-, F+).  The mirror
    point sits on the other side of the interface (s_n < 0 means -z is on
    the + side) and its gradient is -g, so its step is negated, not
    recomputed.
    """
    # index 1 selects the + side, 0 the - side
    kernel = model.rank_one_excess(np.stack([pair.fm, pair.fp]))

    def excess(coords: np.ndarray, g: np.ndarray):
        s_n = coords[:, 0].copy()  # two compares on a contiguous copy beat two strided ones
        plus, mirror_plus = (s_n > 0.0).astype(np.intp), (s_n < 0.0).astype(np.intp)
        return kernel(g @ fld.frame)(pair.a, t, plus, mirror=mirror_plus)

    return excess


def energy_increment(
    model: EnergyModel, pair: InterfacePair, params: InterchangeParams,
    *, _stream: _ForkStream | None = None,
) -> VariationResult:
    """Estimate Delta E(t, h) for the interchange field of ``pair``.

    The interface-linear term is integrated exactly and used as a control
    variate; the stochastic part only carries the pointwise excess, which
    vanishes where the field gradient does.  Deterministic for a fixed
    seed.  Raises QuadratureError if a configured error cap is exceeded.
    ``_stream`` is the child of ``limit_sweep``: when it is given, the
    estimate is the stream's next result, which the child computed whole.
    """
    if _stream is not None:
        res = _stream.take()
        if res.h != params.h:
            raise GradJumpError(f"the sweep's child sent h = {res.h!r} for h = {params.h!r}")
        return res
    fld = InterchangeField(pair, params)
    h, t = params.h, params.t
    frak_n = frobenius(model.gradient(pair.fp) - model.gradient(pair.fm), np.outer(pair.a, pair.n))
    ff_exact = -frak_n * h * interface_profile(h, pair.d)

    est = _energy_estimate(fld, params.quad, _excess_integrand(model, pair, fld, t))
    mean, mc_error, n_evals = est.total()
    delta_e, mc_error = t * ff_exact + float(mean), float(mc_error)
    if params.quad.max_error is not None and mc_error > params.quad.max_error:
        raise QuadratureError(
            f"mc_error {mc_error:.3e} exceeds cap {params.quad.max_error:.3e}"
        )
    return VariationResult(delta_e, mc_error, h, t, n_evals)


@dataclass(frozen=True)
class SweepResult:
    """Extrapolation of Delta E(h) / h to h = 0 over a decreasing grid."""

    h_grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    limit: float
    limit_error: float
    slope: float
    curvature: float
    rate: float | None  # None when no remainder stands clear of the noise
    rate_error: float | None
    chi2_red: float
    fit_order: int
    n_evals: int  # integrand evaluations over the whole grid

    def rows(self):
        return list(zip(self.h_grid, self.values, self.errors))

    def to_dict(self) -> dict:
        return {
            "h_grid": self.h_grid.tolist(),
            "dE_over_h": self.values.tolist(),
            "mc_errors": self.errors.tolist(),
            "limit": self.limit,
            "limit_error": self.limit_error,
            "slope": self.slope,
            "curvature": self.curvature,
            "rate": self.rate,
            "rate_error": self.rate_error,
            "chi2_red": self.chi2_red,
            "fit_order": self.fit_order,
            "n_evals": self.n_evals,
        }


def _weighted_poly_fit(x, y, sigma, order):
    w = 1.0 / sigma**2
    design = np.vander(x, order, increasing=True)
    gram = design.T @ (w[:, None] * design)
    rhs = design.T @ (w * y)
    cov = np.linalg.inv(gram)
    coef = cov @ rhs
    resid = y - design @ coef
    chi2 = float(np.sum(w * resid**2))
    return coef, cov, chi2


def _rate_fit(h_grid, values, sigma, limit, slope_guess):
    """Measured decay exponent of the remainder values - limit.

    Fits log |values - limit| against log h where the remainder stands
    clear of the noise; falls back to a three-parameter power-law fit when
    too few points qualify.  Returns (None, None) when none does (t = 0, a
    zero jump): there is no remainder to take a rate from.
    """
    resid = values - limit
    mask = np.abs(resid) > 3.0 * sigma
    if not mask.any():
        return None, None
    if int(mask.sum()) >= 3:
        x = np.log(h_grid[mask])
        y = np.log(np.abs(resid[mask]))
        s = sigma[mask] / np.abs(resid[mask])
        coef, cov, chi2 = _weighted_poly_fit(x, y, s, 2)
        dof = max(1, int(mask.sum()) - 2)
        inflate = max(1.0, math.sqrt(chi2 / dof))
        return float(coef[1]), float(np.sqrt(cov[1, 1])) * inflate
    from scipy import optimize  # ~1 s to import; this branch is rarely taken

    try:
        with warnings.catch_warnings():
            # curve_fit warns when its covariance comes out NaN and reports
            # it as inf, which the rate error then carries
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, pcov = optimize.curve_fit(
                lambda hh, l0, c0, p0: l0 + c0 * hh**p0,
                h_grid,
                values,
                sigma=sigma,
                absolute_sigma=True,
                p0=(limit, slope_guess, 0.5),
                bounds=((-np.inf, -np.inf, 0.05), (np.inf, np.inf, 1.5)),
                maxfev=20000,
            )
        return float(popt[2]), float(np.sqrt(max(pcov[2, 2], 0.0)))
    except RuntimeError as exc:
        raise NonconvergenceError(f"rate fit failed: {exc}") from None


def limit_sweep(
    model: EnergyModel,
    pair: InterfacePair,
    params: InterchangeParams,
    h_grid,
    chi2_cap: float = 25.0,
) -> SweepResult:
    """Extrapolate Delta E(h)/h to h = 0 over a decreasing grid.

    The remainder of the increment is O(h^{3/2}) in absolute terms, so
    Delta E(h)/h is a series in sqrt(h).  The fit starts from
    L + C sqrt(h) + C2 h (a pure sqrt(h) model is grossly inadequate on
    practical grids) and escalates to the cubic term when the residuals
    demand it; the reported rate exponent comes from a separate
    three-parameter fit L + C h^p and should sit near 1/2 (it is None,
    with its error, when no remainder stands clear of the noise).

    Raises NonconvergenceError when the fit residual exceeds ``chi2_cap``
    or the rate fit fails.
    """
    h_grid = np.asarray(h_grid, dtype=float).reshape(-1)
    if h_grid.size < 4:
        raise ValueError("h_grid needs at least 4 points")
    if np.any(np.diff(h_grid) >= 0.0):
        raise ValueError("h_grid must be strictly decreasing")

    values = np.empty_like(h_grid)
    errors = np.empty_like(h_grid)
    n_evals = 0
    grid = [params.with_h(float(h)) for h in h_grid]
    # one child estimates grid[1::2] while this process estimates
    # grid[0::2]; energy_increment is called at each h, in grid order
    stream = _fork_stream(functools.partial(energy_increment, model, pair), grid[1::2])
    try:
        for i, (h, params_h) in enumerate(zip(h_grid, grid)):
            res = energy_increment(model, pair, params_h, _stream=stream if i % 2 else None)
            values[i] = res.delta_e / h
            errors[i] = res.mc_error / h
            n_evals += res.n_evals
    finally:
        if stream is not None:
            stream.close()
    scale = 1.0 + float(np.max(np.abs(values)))
    sigma = np.maximum(errors, 1e-14 * scale)

    def series_fit(order):
        coef, cov, chi2 = _weighted_poly_fit(np.sqrt(h_grid), values, sigma, order)
        dof = h_grid.size - order
        return coef, cov, (chi2 / dof if dof > 0 else 0.0), dof

    order = 3
    coef, cov, chi2_red, dof = series_fit(order)
    if chi2_red > 2.0:
        order = 4
        coef, cov, chi2_red, dof = series_fit(order)
    if dof > 0 and chi2_red > chi2_cap:
        raise NonconvergenceError(
            f"sqrt(h)-series fit does not describe the data: chi2/dof = {chi2_red:.2f}"
        )
    inflate = max(1.0, math.sqrt(chi2_red))
    limit = float(coef[0])
    limit_error = float(np.sqrt(cov[0, 0])) * inflate

    rate, rate_error = _rate_fit(h_grid, values, sigma, limit, float(coef[1]))

    return SweepResult(
        h_grid, values, errors, limit, limit_error,
        float(coef[1]), float(coef[2]), rate, rate_error, chi2_red, order, n_evals,
    )


def interchange_limit_target(model: EnergyModel, pair: InterfacePair) -> float:
    """The predicted limit -omega_{d-1} N / 2 of Delta E(h)/h at t = 1."""
    return -0.5 * unit_ball_volume(pair.d - 1) * interchange_force(model, pair)
