"""Cubature and stratified Monte Carlo for the interchange energy increment.

The increment Delta E(t, h) = int_B [ W(Fbar + t grad Phi) - W(Fbar) ] dz is
split into the interface-linear part, which integrates exactly to
-t N int_Pi Phi dS by the divergence theorem (the two-sided stress is
piecewise constant and Phi vanishes on the sphere), plus a pointwise-excess
remainder.

For the isotropic kind, and for every model in d = 2
(``_takes_cubature``), the remainder is integrated by a deterministic
piecewise product Gauss rule: f(z) + f(-z) over the half ball s_n > 0,
with the pieces split where the cutoffs kink (``_half_disk_layout``, once
per h) and sine substitutions at the square-root ends of the pieces
(``_half_disk_pieces``, for any set of pieces at any node count).  A flat
piece, where the field gradient is constant, takes one row.

Every piece takes its own node count and its own error bar
(``_piecewise_cubature``).  One pass integrates every piece at the two
coarse node counts of _PIECE_RULES[d]; a piece whose two values differ by
more than _ESCALATION_TOL of its own value takes the finer ones in one
further pass.  In d = 2 those are the pieces where the two-well kinds
switch wells and the rule converges only algebraically: the corner
0 < s_nu < sqrt(h), 0 < s_n < h and the slab ring by the unit circle on
the criterion-1 pair.  The estimate is the sum of each piece's finest
value and the bar the sum of each piece's own: the larger distance to its
coarser values where it took the finer ones, else the distance between
its two coarse values.  The rule forms only the rows it evaluates
(``_half_disk_rows``), and none of weight 0.

In d = 3 (the isotropic kind, whose excess is a polynomial in the field
gradient and smooth on every piece) each node (s_n, s_nu) gives a row at
w = 0 for the core |z| < 1 - sqrt(h), where the field does not depend on
w, weighted by the core's chord through it, and the shell's rows in
w = rho sinh(u) (``_shell_blocks``).  Seed, sampler and budgets play no
part in the rule; every other model (non-isotropic, d = 3) is sampled.

One formula in ``interchange`` gives the field's frame gradient to both
the rule and the sampler: the factors of a point's fold side sign(s_nu)
and of whether the rho ramp acts (``_fold_factors``), then the radial
cutoff and the radial part at its radius (``_radial_gradient``).  The
rule forms no row's coordinates in w.  Each piece carries its fold side
and ramp flag (``_Layout``), so a row at w = 0 takes them from its piece
and its radius from its node (``_node_gradient``), and a shell line takes
the factors once per node and the radial part once per pair of rows at
+-w (``_shell_blocks``).

The sampled remainder integrand is supported on thin sets, so sampling
uses a deterministic mixture of uniform proposals: the whole ball, an
|z.n| <= h slab, an |z.nu| <= sqrt(h) strip, their corner overlap, and
the |z| >= 1 - sqrt(h) shell.  Mirrored (antithetic) pairs cancel the
leading fluctuations.

Each pair (z, -z) is evaluated in one pass that rests on two exact mirror
identities of the field: the frame gradient is odd, g(-z) = -g(z) bit for
bit, and the regions of -z are those of z with R_plus and R_minus swapped.
So the radius, the gradient and the mixture pdf (q(-z) = q(z)) are
computed once per pair; only the energy is evaluated on both sides, with
the world-space step negated for the mirror point.  The energy pass
evaluates the pdf and the energy only on the rows where the field moves
(g != 0).  That is exact because the excess integrand vanishes where
g = 0: its step t a (x) g and its linear term are then both zero.  It
takes the gradient on every row and keeps the rows where g != 0 in one
compaction.  The sampler's gradient comes from the same formula, each
point's fold side and ramp flag read off its coordinates
(``interchange._mirrored_gradient``), and the excess from the model's
rank-one kernel ``EnergyModel.rank_one_excess``, a closed form in a.G,
(F^T a).G and |G|^2 for the quadratic, min-of-quadratics and isotropic
kinds and the (N, m, d) stack form for the rest; each is exactly 0 where
g = 0.  Both paths hand the kernel G = frame^T g for a component-major
block g.  One kernel call returns both sides of a block, z at step +t
from F+ and -z at -t from F-, so the closed forms compute the parts that
do not depend on the sign of the step once.  Every row of the cubature
lies at s_n >= 0, and the sampler folds each pair onto that side,
passing -z and -g for a row at s_n < 0 (the pair's two values only
swap).  So every block is one kernel call.  Region codes are computed
only by ``estimate_region_measures``, which draws the same points from
the same streams.

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
(seed, stratum id, scramble id) stream, which the tests check; numpy is
the only run-time dependency, and scipy serves the tests alone.  The
scramble does not depend on h or on the number of points, so it is built
once per (d, seed, stratum id, scramble id) and kept in a small cache
(``_sobol_scramble``, read-only arrays); a sweep builds each one at its
first h and reuses it at its others.  A batch is evaluated in row blocks
of _BLOCK_ROWS pairs, so the estimator's temporaries stay small enough
for the allocator to reuse them instead of mapping fresh pages on every
call.  rqmc carries each batch's row-order sum from block to block and mc
writes every block into one array per stratum, so the totals do not
depend on the block size.

Every estimate, and every sweep of them, runs in the calling process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energies import EnergyModel, IsotropicThetaEnergy
from .errors import NonconvergenceError, QuadratureError
from .interchange import (
    InterchangeField,
    InterchangeParams,
    QuadratureConfig,
    _fold_factors,
    _mirrored_gradient,
    _radial_gradient,
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

#: sine-Gauss nodes per axis (s_n and s_nu) of the cubature in each d: every
#: piece takes the first two, and a piece whose two values differ by more
#: than _ESCALATION_TOL of its own value takes the rest.  Where the two-well
#: kinds switch wells (d = 2) a piece converges only algebraically, and the
#: distance to one coarser rule can understate its error, so such a piece's
#: bar is the larger distance to two
_PIECE_RULES = {2: ((16, 12), (64, 48, 32)), 3: ((12, 8), (16, 12))}

#: Gauss nodes in u per part of each shell line w = rho sinh(u), d = 3
_SHELL_NODES = 6

#: relative distance between a piece's two coarse values above which it
#: takes the finer rules; on the Maxwell and criterion-1 pairs the smooth
#: pieces sit below 4e-8 and the pieces where the wells switch above 3e-3
_ESCALATION_TOL = 1e-6

#: largest chi2/dof of a sampled sweep's series fit; above it the fit does
#: not describe the data
_CHI2_CAP = 25.0

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
        nodes, weights = _gauss_legendre(32)
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
                # 4 (theta + (r / sh) (1 - sin theta)) with cos theta = sh / r;
                # r^2 - h factored, as r * r - h can round below 0 near r = sh
                root = np.sqrt(np.maximum((r - sh) * (r + sh), 0.0))
                angular = 4.0 * (np.arccos(sh / r) + sh / (r + root))
            zeta = np.minimum(1.0, (1.0 - r) / sh)
            total += float(weights @ (jacobian * zeta * angular * r))
        return total
    raise ValueError("interface profile supports d = 2 or 3")


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], as read-only
    arrays built on first use: numpy.polynomial costs a few ms to import.
    A process that runs both cubatures keeps 7: sine-Gauss 8, 12, 16, 32, 48
    and 64, and 6 in u (32 is also the interface profile's)."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


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
    """Estimate of the energy increment, by the cubature or by sampling
    (``method``), with its error bar ``mc_error``."""

    delta_e: float
    mc_error: float
    h: float
    t: float
    n_evals: int
    method: str  # "cubature", "rqmc" or "mc"

    def to_dict(self) -> dict:
        return {
            "delta_e": self.delta_e,
            "mc_error": self.mc_error,
            "h": self.h,
            "t": self.t,
            "n_evals": self.n_evals,
            "method": self.method,
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

    def __init__(self, h: float, d: int, quad: QuadratureConfig, pair_estimates):
        self.h, self.d, self.quad, self.pair_estimates = h, d, quad, pair_estimates
        self.strata, budgets = _build_strata(h, d, quad)
        for stratum in self.strata:
            if not (math.isfinite(stratum.measure) and stratum.measure > 0.0):
                raise QuadratureError(
                    f"the {stratum.name} stratum has measure {stratum.measure!r} at "
                    f"h = {h!r}: h is too small for double precision"
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


def _energy_estimate(h: float, d: int, quad: QuadratureConfig, integrand) -> _Estimate:
    """The estimate of the energy pass at slab width h in d dimensions: the
    sampled integral of a residual over the ball.

    ``integrand(g)`` returns the pair (f(z), f(-z)) of residual values for
    rows z at s_n >= 0 with frame gradient g (d, N), component-major, by
    the sign fold (``interchange._mirrored_gradient``); the gradient at -z
    is exactly -g.  Each pair is folded onto the + side before the call,
    and the folded z reaches the mixture pdf: a row with s_n < 0 passes -z
    and -g, which is exact, since 0.5 (f(z) + f(-z)) / q(z) is symmetric in
    z <-> -z, the gradient is odd bit for bit and q reads only |z|.
    Contract: the integrand vanishes wherever g = 0.  The excess integrand
    meets it exactly, since its step t a (x) g and its linear term are then
    both zero.  So the gradient is taken on every row, and the integrand
    and the mixture pdf only on the rows where the field moves (g != 0),
    gathered in one compaction; every other pair contributes an exact zero.
    """

    def pair_estimates(coords: np.ndarray, pdf) -> np.ndarray:
        r = _radius(coords)
        g, _ = _mirrored_gradient(coords, r, h)
        moved = g[:, 0] != 0.0
        for k in range(1, d):
            moved |= g[:, k] != 0.0
        # take() gathers rows several times faster than fancy indexing
        rows = np.flatnonzero(moved)
        z, g, r_z = coords.take(rows, axis=0), g.take(rows, axis=0), r.take(rows)
        below = (z[:, 0] < 0.0)[:, None]
        np.negative(z, out=z, where=below)
        np.negative(g, out=g, where=below)
        f_z, f_mirror = integrand(g.T)
        out = np.zeros(coords.shape[0])
        out[rows] = 0.5 * (f_z + f_mirror) / pdf(z, r_z)
        return out

    return _Estimate(h, d, quad, pair_estimates)


@functools.lru_cache(maxsize=8)
def _sine_gauss(n: int):
    """The n-point Gauss rule on [-1, 1] after the substitution
    x = sin(pi u / 2): read-only nodes and weights for an integrand with
    square-root ends, which the substitution makes smooth.  The cubature
    uses the node counts of _PIECE_RULES, 6 over both d, at every h."""
    t, w = _gauss_legendre(n)
    theta = 0.5 * math.pi * t
    rule = np.sin(theta), 0.5 * math.pi * w * np.cos(theta)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _chord(radius: float, x):
    """sqrt(radius^2 - x^2), factored against cancellation near |x| = radius;
    a float for a float x, by math.sqrt, which rounds as np.sqrt does."""
    ax = abs(x)
    square = (radius - ax) * (radius + ax)
    return math.sqrt(square) if isinstance(square, float) else np.sqrt(square)


class _Layout(NamedTuple):
    """The pieces of the half-disk rule at one h (``_half_disk_layout``):
    each piece's s_nu segment [a, b], the knots at its s_n ends (0: s_n = 0,
    1: rho = 1, 2: rho = 1 - sqrt(h), 3: s_n = h) and its kinematics: its
    fold side ``sigma``, the sign of s_nu, and whether the rho ramp acts
    (``ramp``, |s_nu| < sqrt(h)).  ``interchange._fold_factors`` takes both
    for the frame gradient of each of the piece's rows (``_node_gradient``,
    ``_shell_blocks``), where the sampler reads them off each point's
    coordinates.  ``flat`` marks a piece of the core rho < 1 - sqrt(h) off
    the corner, where one row stands for all."""

    h: float
    a: np.ndarray
    b: np.ndarray
    lo_knot: np.ndarray
    hi_knot: np.ndarray
    sigma: np.ndarray
    ramp: np.ndarray
    flat: np.ndarray


def _half_disk_layout(h: float) -> _Layout:
    """The pieces of a piecewise product rule over the part of the half disk
    s_n > 0, s_n^2 + s_nu^2 < 1 where the field can move, which do not
    depend on the number of nodes.

    For s_nu > 0 (the fold keeps z) the field moves only in the slab
    s_n < h, where phi kinks at s_n = h; for s_nu < 0 (the fold mirrors z)
    phi is 1 and does not kink.  So s_n splits at h on the s_nu > 0 side,
    which it also tops, and on both sides at the circle rho = 1 - sqrt(h),
    where zeta kinks; its top is the circle rho = 1.  s_nu splits at 0, at
    +-sqrt(h), where rho kinks, at +-(1 - sqrt(h)) and +-1, where the
    circles meet s_n = 0, and for s_nu > 0 where they meet s_n = h.  Within
    a piece the s_n knots keep their order, and each square-root end, where
    a circle meets an axis, is an end of a piece.

    ``flat`` marks the pieces in the core rho < 1 - sqrt(h) off the corner
    0 < s_nu < sqrt(h).  On them the frame gradient of the field is one
    constant: (-1, 0) for s_nu > sqrt(h), (0, -sqrt(h)) for
    -sqrt(h) < s_nu < 0 and 0 for s_nu < -sqrt(h).

    Which knots bound each piece, and its kinematics, are decided on Python
    scalars at the middle of its s_nu segment.
    """
    sh = math.sqrt(h)
    r1 = 1.0 - sh
    both_sides = (sh, r1, 1.0)
    slab_side = [_chord(1.0, h)] + ([_chord(r1, h)] if h < r1 else [])
    edges = sorted({0.0, *both_sides, *(-c for c in both_sides), *slab_side})
    segments, lo_knot, hi_knot, ring = [], [], [], []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        top = _chord(1.0, mid)
        knots = [(0.0, 0), (top, 1)]
        core_top = -1.0  # below every knot where the segment misses the core
        if abs(mid) < r1:
            core_top = _chord(r1, mid)
            knots.append((core_top, 2))
        if mid > 0.0:
            knots.append((h, 3))
            top = min(h, top)
        ends = [(at_mid, k) for at_mid, k in sorted(knots, key=lambda k: k[0]) if at_mid <= top]
        for (_, lo), (at_mid, hi) in zip(ends, ends[1:]):
            segments.append((a, b))
            lo_knot.append(lo)
            hi_knot.append(hi)
            ring.append(at_mid > core_top)
    a, b = np.array(segments).T
    mid, ring = 0.5 * (a + b), np.array(ring)
    sigma, ramp = np.where(mid > 0.0, 1.0, -1.0), np.abs(mid) < sh
    flat = ~ring & ~(ramp & (mid > 0.0))
    return _Layout(h, a, b, np.array(lo_knot), np.array(hi_knot), sigma, ramp, flat)


def _half_disk_pieces(layout: _Layout, n: int, pieces: np.ndarray):
    """(nu, centre, half_n, weight_nu) of the chosen pieces of ``layout``
    with n sine-substituted Gauss nodes x, wx (``_sine_gauss``) per axis,
    formed in one broadcast.

    Each array has shape (len(pieces), n), indexed by piece and s_nu node:
    the s_nu nodes, and at each of them the centre and half length of the
    piece's s_n interval and the s_nu weight times that half length.  Node
    (i, j) of a piece lies at s_nu = nu_i, s_n = centre_i + half_n_i x_j,
    with weight weight_nu_i wx_j.
    """
    h, r1 = layout.h, 1.0 - math.sqrt(layout.h)
    x, wx = _sine_gauss(n)
    a, b = layout.a[pieces], layout.b[pieces]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nu = mid[:, None] + half[:, None] * x
    # every knot at every s_nu node; rho = 1 - sqrt(h) only where it is one
    knot_at = np.zeros((4,) + nu.shape)
    knot_at[1] = _chord(1.0, nu)
    inner = np.abs(mid) < r1
    knot_at[2, inner] = _chord(r1, nu[inner])
    knot_at[3] = h
    rows = np.arange(nu.shape[0])
    lo, hi = knot_at[layout.lo_knot[pieces], rows], knot_at[layout.hi_knot[pieces], rows]
    half_n = 0.5 * (hi - lo)
    return nu, 0.5 * (lo + hi), half_n, half[:, None] * wx * half_n


def _half_disk_rows(layout: _Layout, n: int, pieces: np.ndarray, d: int = 2):
    """(coords, weights, piece, shell): the rows at w = 0 that the cubature
    evaluates for the chosen pieces of ``layout`` at n nodes per axis in s_n
    and s_nu, coords (rows, 2) column-major, their (s_n, s_nu), and
    ``piece`` each row's position in ``pieces``, and in d = 3 ``shell``,
    (s_n, s_nu, weight, piece) of every node that carries weight, for
    ``_shell_blocks`` (None in d = 2).

    A piece that is not flat gives each of its n x n nodes, s_nu node by
    s_nu node, but those at an s_nu node where its s_n interval has length
    0 (one that rounds onto a circle, h = 1e-6 at n >= 16 say).  In d = 3 a
    row at w = 0 stands for the chord through its node of the core
    |z| < 1 - sqrt(h), where the field does not depend on w: its weight
    takes the chord's length, and a node outside the core gives no row.  A
    flat piece, where the integrand is one value at every w = 0 node, gives
    one row: its middle node (n // 2, n // 2) with the piece's summed
    weight.  The pieces that are not flat come first, in the order of
    ``pieces``, then the flat ones.
    """
    nu, centre, half_n, weight_nu = _half_disk_pieces(layout, n, pieces)
    x, wx = _sine_gauss(n)
    flat, mid = layout.flat[pieces], n // 2
    r1 = 1.0 - math.sqrt(layout.h)

    def nodes(chosen):
        """(s_n, s_nu, weight, piece) of the nodes of the chosen pieces at
        the s_nu nodes where their s_n interval has a length."""
        at = chosen[:, None] & (half_n > 0.0)
        s_n = half_n[at][:, None] * x + centre[at][:, None]
        return (s_n.ravel(), np.repeat(nu[at], n), (weight_nu[at][:, None] * wx).ravel(),
                np.repeat(np.nonzero(at)[0], n))

    def times_chord(weight, s_n, s_nu):
        """weight times the length of the core's chord through (s_n, s_nu)."""
        return weight * 2.0 * np.sqrt(np.maximum(r1 * r1 - (s_n * s_n + s_nu * s_nu), 0.0))

    s_n, s_nu, weights, piece = nodes(~flat)
    flat_weights = weight_nu[flat][:, :, None] * wx  # at every node of each flat piece
    shell = None
    if d == 3:
        shell = tuple(map(np.concatenate, zip((s_n, s_nu, weights, piece), nodes(flat))))
        weights = times_chord(weights, s_n, s_nu)
        kept = weights > 0.0
        s_n, s_nu, weights, piece = (a[kept] for a in (s_n, s_nu, weights, piece))
        flat_s_n = half_n[flat][:, :, None] * x + centre[flat][:, :, None]
        flat_weights = times_chord(flat_weights, flat_s_n, nu[flat][:, :, None])
    size = weights.size
    columns = np.empty((2, size + int(np.count_nonzero(flat))))
    columns[0, :size] = s_n
    columns[1, :size] = s_nu
    columns[0, size:] = half_n[flat, mid] * x[mid] + centre[flat, mid]
    columns[1, size:] = nu[flat, mid]
    weights = np.concatenate([weights, flat_weights.sum(axis=(1, 2))])
    return columns.T, weights, np.concatenate([piece, np.flatnonzero(flat)]), shell


def _node_gradient(layout: _Layout, piece, s_n, s_nu, d: int) -> np.ndarray:
    """The frame gradient (d, rows), component-major, at the rows
    (s_n, s_nu) at w = 0 of the pieces ``piece`` of ``layout``, from each
    piece's kinematics (``interchange._fold_factors``) and the row's radius
    (``interchange._radial_gradient``).  Every row lies at s_n > 0, so
    r > 0.
    """
    h = layout.h
    factors = _fold_factors(h, layout.sigma[piece], layout.ramp[piece], s_n, s_nu)
    r = np.sqrt(s_n * s_n + s_nu * s_nu)
    return np.stack(_radial_gradient(h, factors, s_n, s_nu, r, 0.0)[:d])


def _shell_blocks(layout: _Layout, s_n, s_nu, weight, piece, n_w: int):
    """(nodes, g, weights) of the shell rows of the given nodes, d = 3, in
    blocks of whole nodes and at most _BLOCK_ROWS rows: the nodes' slice,
    the frame gradient of their rows (3, rows), component-major, and the
    rows' weights (nodes, rows per node).  ``piece`` is each node's piece
    of ``layout``.

    At a node, at rho = |(s_n, s_nu)|, the shell runs on either side of
    w = 0 from the core's chord, |w| = sqrt((1 - sqrt(h))^2 - rho^2) (0
    outside the core), to the sphere, |w| = sqrt(1 - rho^2), factored
    against cancellation.  It takes n_w Gauss nodes in u, w = rho sinh(u),
    on each of equal parts of length <= 1 of the u interval, which keeps the
    branch points of |z| at w = +-i rho a distance pi/2 from the real axis.
    The longest interval, arccosh(1 / (1 - sqrt(h))) at rho = 1 - sqrt(h),
    sets the parts of every node's (one for h below about 0.12).  Each node
    gives its rows at w > 0, then those at w < 0.

    No row's coordinates are formed.  The gradient comes from each node's
    fold factors (``_fold_factors``, once per node) and, once per pair of
    rows at +-w, from r, the radial cutoff and the radial part
    (``_radial_gradient``); the row at -w takes the pair's g_n and g_nu and
    the negated g_w.  Every block's g is a view of one buffer, which the
    next block overwrites and the last fills only in part.
    """
    h = layout.h
    r1 = 1.0 - math.sqrt(h)
    parts = max(1, math.ceil(math.acosh(1.0 / r1)))
    t, wt = _gauss_legendre(n_w)
    u_unit = ((np.arange(parts)[:, None] + 0.5 * (1.0 + t)) / parts).ravel()
    u_weights = np.tile(0.5 * wt / parts, parts)
    k = u_unit.size
    rho2 = s_n * s_n + s_nu * s_nu
    rho = np.sqrt(rho2)
    sphere = _chord(1.0, s_nu)
    u_lo = np.arcsinh(np.sqrt(np.maximum(r1 * r1 - rho2, 0.0)) / rho)
    u_span = np.arcsinh(np.sqrt(np.maximum((sphere - s_n) * (sphere + s_n), 0.0)) / rho) - u_lo
    shell = weight * u_span * rho  # dw = rho cosh(u) du
    factors = _fold_factors(h, layout.sigma[piece], layout.ramp[piece], s_n, s_nu)
    step = _BLOCK_ROWS // (2 * k)
    buffer = np.empty(3 * 2 * k * min(step, s_n.size))
    for i in range(0, s_n.size, step):
        part = slice(i, i + step)
        u = u_lo[part, None] + u_span[part, None] * u_unit
        w = rho[part, None] * np.sinh(u)
        g = buffer[:6 * w.size].reshape(3, -1, 2, k)
        g_n, g_nu, g_w, _ = _radial_gradient(
            h, (f[part, None] for f in factors), s_n[part, None], s_nu[part, None],
            np.sqrt(rho2[part, None] + w * w), w)
        g[0] = g_n[:, None]
        g[1] = g_nu[:, None]
        g[2, :, 0] = g_w
        np.negative(g_w, out=g[2, :, 1])
        wts = np.tile(shell[part, None] * u_weights * np.cosh(u), 2)
        yield part, g.reshape(3, -1), wts


def _rows_of(arrays, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the concatenation of ``arrays``, from their slices."""
    parts, offset = [], 0
    for a in arrays:
        parts.append(a[max(start - offset, 0):max(stop - offset, 0)])
        offset += a.size
    return np.concatenate(parts)


def _piece_integrals(d: int, integrand, layout: _Layout, nodes, pieces, n_w: int = _SHELL_NODES):
    """(integrals, evaluations): the excess over each chosen piece of
    ``layout`` at each node count of ``nodes`` (and in d = 3 n_w nodes per
    part in u), as an array (len(nodes), len(pieces)), from one pass over
    all their rows in blocks of at most _BLOCK_ROWS: the rows at w = 0
    (``_half_disk_rows``, their gradients from ``_node_gradient``), then in
    d = 3 the shell rows (``_shell_blocks``).

    ``integrand`` is ``_excess_integrand``'s: f(z) and f(-z) from the frame
    gradient at z, (d, rows) component-major, formed from the pieces
    (``_Layout``).  Their sum over the half ball s_n > 0 is the integral
    over the ball.  Every row has s_n > 0, so each block is one kernel call
    with z on F+ and -z on F-.
    """
    rules = [_half_disk_rows(layout, n, pieces, d) for n in nodes]
    s_n, s_nu = np.concatenate([coords.T for coords, *_ in rules], axis=1)
    weights = np.concatenate([w for _, w, _, _ in rules])
    positions = [piece for _, _, piece, _ in rules]
    labels = [k * len(pieces) + piece for k, piece in enumerate(positions)]
    values = np.empty(weights.size)
    for i in range(0, weights.size, _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        # each row's piece, block by block: with one int64 array of every
        # row's alive through the loop, glibc trimmed the heap and faulted
        # it back at every h (about 240 minor faults per sweep_2d sweep)
        piece = pieces.take(_rows_of(positions, i, i + _BLOCK_ROWS))
        values[rows] = np.add(*integrand(_node_gradient(layout, piece, s_n[rows], s_nu[rows], d)))
    values *= weights
    rows, sums = weights.size, [values]
    if d == 3:
        # each shell node's sum over its rows, added after the rows at w = 0,
        # so a piece's value does not depend on the other pieces of the pass
        s_n, s_nu, weight, piece = (np.concatenate(a) for a in zip(*(s for *_, s in rules)))
        shell = np.empty(s_n.size)
        for part, g, wts in _shell_blocks(layout, s_n, s_nu, weight, pieces[piece], n_w):
            shell[part] = (wts * np.add(*integrand(g)).reshape(wts.shape)).sum(axis=1)
            rows += wts.size
        sums.append(shell)
        labels += [k * len(pieces) + s[3] for k, (*_, s) in enumerate(rules)]
    integrals = np.bincount(np.concatenate(labels), weights=np.concatenate(sums),
                            minlength=len(nodes) * len(pieces))
    return integrals.reshape(len(nodes), len(pieces)), 2 * rows


def _piecewise_cubature(h: float, d: int, integrand):
    """(integral, error bar, evaluations) of the excess over the ball at
    slab width h in d dimensions.

    Every piece of the rule is integrated at both node counts of the first
    rule of _PIECE_RULES[d] in one pass; the pieces whose two values differ
    by more than _ESCALATION_TOL of the first one are integrated again at
    every node count of the second, in one further pass.  The integral is
    the sum of each piece's finest value and the bar the sum of each
    piece's own: the larger distance from its finest value to its coarser
    ones where it took the finer rules, else the distance between its two
    values.
    """
    coarse, fine = _PIECE_RULES[d]
    layout = _half_disk_layout(h)
    (value, coarser), n_evals = _piece_integrals(
        d, integrand, layout, coarse, np.arange(layout.flat.size))
    bar = np.abs(value - coarser)
    switch = np.flatnonzero(bar > _ESCALATION_TOL * np.abs(value))
    if switch.size:
        integrals, more = _piece_integrals(d, integrand, layout, fine, switch)
        value[switch] = integrals[0]
        bar[switch] = np.abs(integrals[0] - integrals[1:]).max(axis=0)
        n_evals += more
    return float(value.sum()), float(bar.sum()), n_evals


def estimate_region_measures(pair: InterfacePair, params: InterchangeParams) -> dict:
    """Monte Carlo measures of the four gradient-support regions.

    Draws the same points from the same streams as the energy increment;
    with stratification=() and sampler="mc" this degenerates to plain
    uniform sampling over the ball, the right oracle for leading-order
    checks whose error bars must dominate the O(h^{3/2}) corrections.
    """
    InterchangeField(pair, params)  # refuses a d other than 2 or 3, and a nu off the plane
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

    mean, err, _ = _Estimate(h, pair.d, params.quad, pair_estimates).total()
    return {k: (float(mean[j]), float(err[j])) for j, k in enumerate(REGION_KEYS)}


def _takes_cubature(model: EnergyModel) -> bool:
    """Whether energy_increment integrates the model's excess by the
    deterministic rule instead of sampling it.

    It does for the isotropic kind, whose excess is a polynomial in the
    field gradient and so smooth on every piece of the rule, and for every
    model in d = 2, whatever its rank-one kernel.  Where the two-well
    kinds switch wells a piece converges only algebraically, but at the
    finer sizes of ``_PIECE_RULES``, which only those pieces take, its
    error stays below the default sampler's error bars at about a
    thirtieth of the evaluations (35,312 against 1,081,344 per h on the
    criterion-1 pair at t = 1).  Only the non-isotropic models in d = 3
    are sampled."""
    return model.d == 2 or isinstance(model, IsotropicThetaEnergy)


def _excess_integrand(model, pair, fld, t):
    """Pointwise excess W(Fbar + t grad Phi) - W(Fbar) - t (P(Fbar), grad Phi)
    at z and -z from the frame gradient g at z, for rows at s_n >= 0.

    Returns ``excess(g) -> (f(z), f(-z))`` for g (d, N), component-major.
    grad Phi = a (x) G with the world vector G = frame^T g, so both values
    come from one call of the model's rank-one kernel on (frame^T g)^T: z
    on F+ at step +t and -z, whose gradient is -g, on F- at step -t.  No
    coordinate plays a part: the caller passes only rows at s_n >= 0, as
    the cubature's rows are and as the sampler folds its pairs.  A row at
    s_n = 0 thus takes F+ for z and F- for -z.  Both callers form the
    gradients by one formula (``interchange._fold_factors`` and
    ``interchange._radial_gradient``): the cubature from its pieces'
    kinematics (``_node_gradient``, ``_shell_blocks``), the sampler from
    each point's coordinates (``interchange._mirrored_gradient``).
    """
    kernel = model.rank_one_excess(pair.fp, pair.fm, pair.a, t)
    frame_t = fld.frame.T

    def excess(g: np.ndarray):
        return kernel((frame_t @ g).T)

    return excess


class _PairWork:
    """What ``energy_increment`` needs of a pair at every h: the field's
    frame (``InterchangeField``), the excess integrand with its rank-one
    kernel (``_excess_integrand``) and the interface force.  ``limit_sweep``
    builds one for its whole grid."""

    def __init__(self, model: EnergyModel, pair: InterfacePair, params: InterchangeParams):
        self.model, self.pair, self.t = model, pair, params.t
        self.nu = None if params.nu is None else params.nu.tobytes()
        self.fld = InterchangeField(pair, params)
        self.frak_n = frobenius(
            model.gradient(pair.fp) - model.gradient(pair.fm), np.outer(pair.a, pair.n))
        self.integrand = _excess_integrand(model, pair, self.fld, params.t)

    def serves(self, model: EnergyModel, pair: InterfacePair, params: InterchangeParams) -> bool:
        """Whether this is the work of (model, pair) at the t and nu of params."""
        nu = None if params.nu is None else params.nu.tobytes()
        return model is self.model and pair is self.pair and params.t == self.t and nu == self.nu


#: the per-pair work of the ``limit_sweep`` in progress, which each of its
#: ``energy_increment`` calls reuses; None outside a sweep.  The calls keep
#: the signature through which the bench tracer and the tests watch them
_sweep_work: _PairWork | None = None


def energy_increment(
    model: EnergyModel, pair: InterfacePair, params: InterchangeParams
) -> VariationResult:
    """Estimate Delta E(t, h) for the interchange field of ``pair``.

    The interface-linear term is integrated exactly and used as a control
    variate; the rest only carries the pointwise excess, which vanishes
    where the field gradient does.  For the isotropic kind and every model
    in d = 2 (``_takes_cubature``) the excess is integrated by a
    deterministic rule and the quadrature config's seed, sampler and
    budgets play no part.  Each piece of the rule takes its own node count
    and its own bar, and ``mc_error`` is the sum of the bars
    (``_piecewise_cubature``).  A non-isotropic model in d = 3 is
    sampled, deterministically for a fixed seed.  ``method`` says which:
    "cubature", "rqmc" or "mc".  The estimate runs in the calling process;
    within ``limit_sweep`` it takes the sweep's frame, kernel and interface
    force, with the same bits.
    Raises QuadratureError if a configured error cap is exceeded, if h is
    too small for double precision or if the estimate is not finite.
    """
    work = _sweep_work
    if work is None or not work.serves(model, pair, params):
        work = _PairWork(model, pair, params)
    integrand, h, t, d = work.integrand, params.h, params.t, pair.d
    ff_exact = -work.frak_n * h * interface_profile(h, d)

    if _takes_cubature(model):
        if not 1.0 - math.sqrt(h) < 1.0:
            raise QuadratureError(
                f"the shell 1 - sqrt(h) < |z| < 1 is empty at h = {h!r}: "
                "h is too small for double precision"
            )
        mean, mc_error, n_evals = _piecewise_cubature(h, d, integrand)
        method = "cubature"
        if not (math.isfinite(mean) and math.isfinite(mc_error)):
            raise QuadratureError(f"the estimate at h = {h!r} is not finite")
    else:
        mean, mc_error, n_evals = _energy_estimate(h, d, params.quad, integrand).total()
        method = params.quad.sampler
    delta_e, mc_error = t * ff_exact + float(mean), float(mc_error)
    if params.quad.max_error is not None and mc_error > params.quad.max_error:
        raise QuadratureError(
            f"mc_error {mc_error:.3e} exceeds cap {params.quad.max_error:.3e}"
        )
    return VariationResult(delta_e, mc_error, h, t, n_evals, method)


@dataclass(frozen=True)
class SweepResult:
    """Extrapolation of Delta E(h) / h to h = 0 over a decreasing grid."""

    h_grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    limit: float
    limit_error: float  # statistical: from the estimates' error bars
    limit_model_error: float  # truncation: |L_k - L_(k-1)| for the fit order k
    slope: float
    curvature: float
    rate: float | None  # None when no remainder stands clear of the noise
    rate_error: float | None
    chi2_red: float
    fit_order: int
    n_evals: int  # integrand evaluations over the whole grid
    method: str  # how each estimate was taken: "cubature", "rqmc" or "mc"

    @property
    def limit_total_error(self) -> float:
        return math.hypot(self.limit_error, self.limit_model_error)

    def rows(self):
        return list(zip(self.h_grid, self.values, self.errors))

    def to_dict(self) -> dict:
        return {
            "h_grid": self.h_grid.tolist(),
            "dE_over_h": self.values.tolist(),
            "mc_errors": self.errors.tolist(),
            "limit": self.limit,
            "limit_error": self.limit_error,
            "limit_model_error": self.limit_model_error,
            "limit_total_error": self.limit_total_error,
            "slope": self.slope,
            "curvature": self.curvature,
            "rate": self.rate,
            "rate_error": self.rate_error,
            "chi2_red": self.chi2_red,
            "fit_order": self.fit_order,
            "n_evals": self.n_evals,
            "method": self.method,
        }


def _weighted_poly_fit(x, y, sigma, order):
    """(coefficients, covariance, chi2) of the weighted least-squares
    polynomial of ``order`` coefficients, ascending.

    The design A is weighted by 1 / sigma, its columns are scaled to unit
    norm, and it is solved by QR.  The Gram matrix A^T A of a sqrt(h)
    series has a condition number of 1e7 to 1e9, the square of A's, and
    inverting it would lose that many digits where QR loses A's.  The
    covariance (A^T A)^-1 is R^-1 R^-T, with the scaling undone.
    """
    w = 1.0 / sigma**2
    design = np.vander(x, order, increasing=True)
    weighted = design / sigma[:, None]
    scale = np.linalg.norm(weighted, axis=0)
    q, r = np.linalg.qr(weighted / scale)
    r_inv = np.linalg.inv(r)
    coef = r_inv @ (q.T @ (y / sigma)) / scale
    cov = (r_inv @ r_inv.T) / np.outer(scale, scale)
    resid = y - design @ coef
    chi2 = float(np.sum(w * resid**2))
    return coef, cov, chi2


def _rate_fit(h_grid, values, sigma, limit):
    """Measured decay exponent of the remainder values - limit.

    Fits log |values - limit| against log h where the remainder stands
    clear of the noise (beyond 3 sigma).  Returns (None, None) when fewer
    than two points do (t = 0, a zero jump): there is no remainder to take
    a rate from.
    """
    resid = values - limit
    mask = np.abs(resid) > 3.0 * sigma
    if int(mask.sum()) < 2:
        return None, None
    x = np.log(h_grid[mask])
    y = np.log(np.abs(resid[mask]))
    s = sigma[mask] / np.abs(resid[mask])
    coef, cov, chi2 = _weighted_poly_fit(x, y, s, 2)
    dof = max(1, int(mask.sum()) - 2)
    inflate = max(1.0, math.sqrt(chi2 / dof))
    return float(coef[1]), float(np.sqrt(cov[1, 1])) * inflate


def limit_sweep(
    model: EnergyModel,
    pair: InterfacePair,
    params: InterchangeParams,
    h_grid,
) -> SweepResult:
    """Extrapolate Delta E(h)/h to h = 0 over a decreasing grid.

    The remainder of the increment is O(h^{3/2}) in absolute terms, so
    Delta E(h)/h is a series in sqrt(h).  The fit starts from
    L + C sqrt(h) + C2 h (a pure sqrt(h) model is grossly inadequate on
    practical grids) and escalates to the cubic term when the residuals
    demand it; the reported rate exponent is the slope of
    log |Delta E(h)/h - L| against log h and should sit near 1/2 (it is
    None, with its error, when fewer than two remainders stand clear of
    the noise).

    ``limit_model_error`` is the truncation estimate |L_k - L_(k-1)|, the
    shift of the limit between the chosen fit order k and the one below
    it; ``limit_error`` carries only the estimates' error bars.

    The estimates are taken in this process, one ``energy_increment``
    call per h in grid order, which all reuse one ``_PairWork``: the field's
    frame, the rank-one kernel and the interface force are built once for
    the grid.

    Raises NonconvergenceError when the fit's chi2/dof exceeds
    ``_CHI2_CAP``.  The cap tests the fit against the sampling noise, so
    it applies to sampled sweeps only: a cubature's values carry almost
    none, and their residual is truncation, which ``limit_model_error``
    reports.
    """
    h_grid = np.asarray(h_grid, dtype=float).reshape(-1)
    if h_grid.size < 4:
        raise ValueError("h_grid needs at least 4 points")
    if np.any(np.diff(h_grid) >= 0.0):
        raise ValueError("h_grid must be strictly decreasing")

    values = np.empty_like(h_grid)
    errors = np.empty_like(h_grid)
    n_evals = 0
    global _sweep_work
    outer, _sweep_work = _sweep_work, _PairWork(model, pair, params)
    try:
        for i, h in enumerate(h_grid):
            res = energy_increment(model, pair, params.with_h(float(h)))
            values[i] = res.delta_e / h
            errors[i] = res.mc_error / h
            n_evals += res.n_evals
    finally:
        _sweep_work = outer
    # the fits take values / 2^k, whose largest magnitude lies below 2, so
    # that the squares of their residuals and weights stay finite at any
    # magnitude; a power of 2 scales exactly, and k = 0 below 2
    k = max(0, math.frexp(float(np.max(np.abs(values))))[1] - 1)
    scaled = np.ldexp(values, -k)
    scale = 1.0 + float(np.max(np.abs(scaled)))
    sigma = np.maximum(np.ldexp(errors, -k), 1e-14 * scale)

    def series_fit(order):
        coef, cov, chi2 = _weighted_poly_fit(np.sqrt(h_grid), scaled, sigma, order)
        dof = h_grid.size - order
        return coef, cov, (chi2 / dof if dof > 0 else 0.0), dof

    fits = {order: series_fit(order) for order in (2, 3)}
    order = 4 if fits[3][2] > 2.0 else 3
    if order == 4:
        fits[4] = series_fit(4)
    coef, cov, chi2_red, dof = fits[order]
    if res.method != "cubature" and dof > 0 and chi2_red > _CHI2_CAP:
        raise NonconvergenceError(
            f"sqrt(h)-series fit does not describe the data: chi2/dof = {chi2_red:.2f}"
        )
    inflate = max(1.0, math.sqrt(chi2_red))
    limit_error = float(np.sqrt(cov[0, 0])) * inflate
    model_error = abs(float(coef[0]) - float(fits[order - 1][0][0]))

    rate, rate_error = _rate_fit(h_grid, scaled, sigma, float(coef[0]))

    # scaled back by a float product, which overflows to inf, not to an error
    limit, limit_error, model_error, slope, curvature = (
        float(x) * 2.0**k for x in (coef[0], limit_error, model_error, coef[1], coef[2]))
    return SweepResult(
        h_grid, values, errors, limit, limit_error, model_error, slope, curvature,
        rate, rate_error, chi2_red, order, n_evals, res.method,
    )


def interchange_limit_target(model: EnergyModel, pair: InterfacePair) -> float:
    """The predicted limit -omega_{d-1} N / 2 of Delta E(h)/h at t = 1."""
    return -0.5 * unit_ball_volume(pair.d - 1) * interchange_force(model, pair)
