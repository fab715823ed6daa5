"""Cubature of the interchange energy increment.

The increment Delta E(t, h) = int_B [ W(Fbar + t grad Phi) - W(Fbar) ] dz is
split into the interface-linear part, which integrates exactly to
-t N int_Pi Phi dS by the divergence theorem (the two-sided stress is
piecewise constant and Phi vanishes on the sphere), plus a pointwise-excess
remainder.

For every model the remainder is integrated by a deterministic piecewise
product Gauss rule: f(z) + f(-z) over the half ball s_n > 0, with the
pieces split where the cutoffs kink (``_half_disk_layout``, once per h)
and sine substitutions at the square-root ends of the pieces
(``_half_disk_pieces``, for any set of pieces at any node count).  A flat
piece, where the field gradient is constant, takes one row.

Every piece takes its own rule and its own error bar
(``_piecewise_cubature``).  One pass integrates every piece by the two
coarse rules of _PIECE_RULES[d]; a piece whose two values differ by more
than _ESCALATION_TOL of its own value takes the finer ones in one further
pass.  Those are the pieces where the two-well kinds switch wells and the
rule converges only algebraically: the corner 0 < s_nu < sqrt(h),
0 < s_n < h and the slab ring by the unit circle on the criterion-1 pair.
In d = 3 they converge only algebraically in the shell's nodes in u too,
so the finer rules refine those along with the nodes in s_n and s_nu.
The estimate is the sum of each piece's finest value and the bar the sum
of each piece's own: the larger distance to its coarser values where it
took the finer ones, else the distance between its two coarse values.
The rule forms only the rows it evaluates (``_half_disk_rows``), and none
of weight 0.

In d = 3 each node (s_n, s_nu) gives a row at w = 0 for the core
|z| < 1 - sqrt(h), where the field does not depend on w, weighted by the
core's chord through it, and the shell's rows in w = rho sinh(u)
(``_shell_blocks``).

One formula in ``interchange`` gives the field's frame gradient: the
factors of a point's fold side sign(s_nu) and of whether the rho ramp acts
(``_fold_factors``), then the radial cutoff and the radial part at its
radius (``_radial_gradient``).  The rule forms no row's coordinates in w.
Each piece carries its fold side and ramp flag (``_Layout``), so a row at
w = 0 takes them from its piece and its radius from its node
(``_node_gradient``), and a shell line takes the factors once per node and
the radial part once per pair of rows at +-w (``_shell_blocks``).

The excess comes from the model's rank-one kernel
``EnergyModel.rank_one_excess``, a closed form in a.G, (F^T a).G and
|G|^2 for the quadratic, min-of-quadratics and isotropic kinds and the
(N, m, d) stack form for the rest, handed G = frame^T g for a
component-major block g.  Every row lies at s_n > 0, so one kernel call
returns both sides of a block, z at step +t from F+ and -z at -t from F-,
and the closed forms compute the parts that do not depend on the sign of
the step once.  Rows are evaluated in blocks of _BLOCK_ROWS, so the
temporaries stay small enough for the allocator to reuse them.

The measures of the four gradient-support regions
(``estimate_region_measures``) are sums of the same rule's weights, with
no integrand.  The quadrature config's seed, sampler, budgets and
stratification act on nothing; the config accepts and validates them.
Every estimate, and every sweep of them, runs in the calling process.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energies import EnergyModel
from .errors import QuadratureError
from .interchange import (
    InterchangeField,
    InterchangeParams,
    _fold_factors,
    _radial_gradient,
)
from .jumps import InterfacePair, interchange_force
from .tensors import frobenius, unit_ball_volume

REGION_KEYS = ("R_plus", "R_minus", "Q", "Q_prime")

#: rows per block of a pass; at d <= 3 each (rows, d) temporary of a block
#: stays under 128 KiB, glibc's default mmap threshold
_BLOCK_ROWS = 4096

#: the rules of the cubature in each d, each (n, n_w): n sine-Gauss nodes
#: per axis in s_n and s_nu and, in d = 3, n_w Gauss nodes in u per part of
#: each shell line.  Every piece takes the two coarse rules, and a piece
#: whose two values differ by more than _ESCALATION_TOL of its own value
#: takes the finer ones.  Where the two-well kinds switch wells a piece
#: converges only algebraically, in n and in d = 3 in n_w as well, and the
#: distance to one coarser rule can understate its error, so such a piece's
#: bar is the larger distance to two, and in d = 3 every finer rule refines
#: n_w along with n
_PIECE_RULES = {
    2: (((16, 0), (12, 0)), ((64, 0), (48, 0), (32, 0))),
    3: (((12, 6), (8, 6)), ((32, 24), (24, 16), (16, 12))),
}

#: relative distance between a piece's two coarse values above which it
#: takes the finer rules; on the Maxwell and criterion-1 pairs the smooth
#: pieces sit below 4e-8 and the pieces where the wells switch above 3e-3
_ESCALATION_TOL = 1e-6


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
    The rules of _PIECE_RULES in both d keep 8: sine-Gauss 8, 12, 16, 24,
    32, 48 and 64, and 6, 12, 16 and 24 in u (32 is also the interface
    profile's)."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


@dataclass(frozen=True)
class VariationResult:
    """Estimate of the energy increment by the cubature (``method``), with
    its error bar ``mc_error``."""

    delta_e: float
    mc_error: float
    h: float
    t: float
    n_evals: int
    method: str  # always "cubature"

    def to_dict(self) -> dict:
        return {
            "delta_e": self.delta_e,
            "mc_error": self.mc_error,
            "h": self.h,
            "t": self.t,
            "n_evals": self.n_evals,
            "method": self.method,
        }


@functools.lru_cache(maxsize=8)
def _sine_gauss(n: int):
    """The n-point Gauss rule on [-1, 1] after the substitution
    x = sin(pi u / 2): read-only nodes and weights for an integrand with
    square-root ends, which the substitution makes smooth.  The cubature
    uses the node counts of _PIECE_RULES, 7 over both d, at every h."""
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
    ``_shell_blocks``).  ``flat`` marks a piece of the core rho < 1 - sqrt(h) off
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
    scalars at the middle of its s_nu segment.  Raises QuadratureError
    where the shell 1 - sqrt(h) < rho < 1 rounds to nothing.
    """
    sh = math.sqrt(h)
    r1 = 1.0 - sh
    if not r1 < 1.0:
        raise QuadratureError(
            f"the shell 1 - sqrt(h) < |z| < 1 is empty at h = {h!r}: "
            "h is too small for double precision"
        )
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


def _piece_integrals(d: int, integrand, layout: _Layout, rules, pieces):
    """(integrals, evaluations): the excess over each chosen piece of
    ``layout`` by each (n, n_w) rule of ``rules`` (_PIECE_RULES), as an
    array (len(rules), len(pieces)), from one pass over all their rows in
    blocks of at most _BLOCK_ROWS: the rows at w = 0 (``_half_disk_rows``,
    their gradients from ``_node_gradient``), then in d = 3 the shell rows
    (``_shell_blocks``), one call for each run of rules that share n_w.

    ``integrand`` is ``_excess_integrand``'s: f(z) and f(-z) from the frame
    gradient at z, (d, rows) component-major, formed from the pieces
    (``_Layout``).  Their sum over the half ball s_n > 0 is the integral
    over the ball.  Every row has s_n > 0, so each block is one kernel call
    with z on F+ and -z on F-.
    """
    at_w0 = [_half_disk_rows(layout, n, pieces, d) for n, _ in rules]
    s_n, s_nu = np.concatenate([coords.T for coords, *_ in at_w0], axis=1)
    weights = np.concatenate([w for _, w, _, _ in at_w0])
    positions = [piece for _, _, piece, _ in at_w0]
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
        shells = [s for *_, s in at_w0]
        for n_w, run in itertools.groupby(zip(rules, shells), key=lambda rule: rule[0][1]):
            s_n, s_nu, weight, piece = (np.concatenate(a) for a in zip(*(s for _, s in run)))
            shell = np.empty(s_n.size)
            for part, g, wts in _shell_blocks(layout, s_n, s_nu, weight, pieces[piece], n_w):
                shell[part] = (wts * np.add(*integrand(g)).reshape(wts.shape)).sum(axis=1)
                rows += wts.size
            sums.append(shell)
        labels += [k * len(pieces) + s[3] for k, s in enumerate(shells)]
    integrals = np.bincount(np.concatenate(labels), weights=np.concatenate(sums),
                            minlength=len(rules) * len(pieces))
    return integrals.reshape(len(rules), len(pieces)), 2 * rows


def _piecewise_cubature(h: float, d: int, integrand):
    """(integral, error bar, evaluations) of the excess over the ball at
    slab width h in d dimensions.

    Every piece of the rule is integrated by both coarse rules of
    _PIECE_RULES[d] in one pass; the pieces whose two values differ by more
    than _ESCALATION_TOL of the first one are integrated again by every
    finer rule, in one further pass.  The integral is the sum of each
    piece's finest value and the bar the sum of each piece's own: the
    larger distance from its finest value to its coarser ones where it took
    the finer rules, else the distance between its two values.
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


def _region_sums(layout: _Layout, n: int, d: int):
    """(R_plus, R_minus, Q, Q_prime): the regions' measures by the weights
    of the rule with n nodes per axis in s_n and s_nu.

    Each piece's measure splits into its core |z| < 1 - sqrt(h) and its
    shell.  In d = 3 the core is the sum of the weights of the piece's rows
    at w = 0, which take the core's chord, and a node's shell is
    2 weight (sqrt(1 - rho^2) - sqrt(max((1 - sqrt(h))^2 - rho^2, 0))).  In
    d = 2 a flat piece lies in the core, and every other piece counts as
    shell: it lies in the ring, or in the corner 0 < s_nu < sqrt(h), which
    Q' takes whole.  On the half ball s_n > 0, R_plus is the core of the
    flat pieces at s_nu > 0, Q the shell at s_nu < 0 with the core where
    the rho ramp acts there, and Q' the same at s_nu > 0; R_minus, Q and Q'
    take as much again on the mirror half s_n < 0, where R_plus has none.
    """
    every = np.arange(layout.flat.size)
    _, weights, piece, shell = _half_disk_rows(layout, n, every, d)
    core = np.bincount(piece, weights=weights, minlength=every.size)
    if d == 2:
        core, shell = np.where(layout.flat, core, 0.0), np.where(layout.flat, 0.0, core)
    else:
        s_n, s_nu, weight, node_piece = shell
        r1 = 1.0 - math.sqrt(layout.h)
        sphere = _chord(1.0, s_nu)
        extent = (np.sqrt(np.maximum((sphere - s_n) * (sphere + s_n), 0.0))
                  - np.sqrt(np.maximum(r1 * r1 - (s_n * s_n + s_nu * s_nu), 0.0)))
        shell = np.bincount(node_piece, weights=2.0 * weight * extent, minlength=every.size)
    plus, ramp = layout.sigma > 0.0, layout.ramp
    r_plus = core[plus & layout.flat].sum()
    q = 2.0 * (shell[~plus].sum() + core[~plus & ramp].sum())
    q_prime = 2.0 * (shell[plus].sum() + core[plus & ramp].sum())
    return r_plus, r_plus, q, q_prime


def estimate_region_measures(pair: InterfacePair, params: InterchangeParams) -> dict:
    """The measures of the four gradient-support regions, each with its
    error bar, keyed by REGION_KEYS.

    Every region boundary (s_n = +-h, s_nu = +-sqrt(h), |z| = 1 - sqrt(h),
    |z| = 1) bounds a piece of the cubature's rule, or in d = 3 a piece's
    core or shell, so each measure is a sum of the rule's weights, with no
    integrand (``_region_sums``).  The value is the finest rule's of
    _PIECE_RULES[d] and the bar its distance to the next one.  The
    quadrature config plays no part.
    """
    InterchangeField(pair, params)  # refuses a d other than 2 or 3, and a nu off the plane
    layout = _half_disk_layout(params.h)
    (finest, _), (finer, _) = _PIECE_RULES[pair.d][1][:2]
    values, other = (_region_sums(layout, n, pair.d) for n in (finest, finer))
    return {k: (float(v), float(abs(v - w))) for k, v, w in zip(REGION_KEYS, values, other)}


def _excess_integrand(model, pair, fld, t):
    """Pointwise excess W(Fbar + t grad Phi) - W(Fbar) - t (P(Fbar), grad Phi)
    at z and -z from the frame gradient g at z, for rows at s_n >= 0.

    Returns ``excess(g) -> (f(z), f(-z))`` for g (d, N), component-major.
    grad Phi = a (x) G with the world vector G = frame^T g, so both values
    come from one call of the model's rank-one kernel on (frame^T g)^T: z
    on F+ at step +t and -z, whose gradient is -g, on F- at step -t.  No
    coordinate plays a part: the caller passes only rows at s_n >= 0, as
    the cubature's rows are; a row at s_n = 0 would take F+ for z and F-
    for -z.  The cubature forms the gradients from its pieces' kinematics
    (``_node_gradient``, ``_shell_blocks``).
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
    where the field gradient does.  For every model the excess is
    integrated by a deterministic rule, and of the quadrature config only
    max_error plays a part.  Each piece of the rule takes its own rules and
    its own bar, and ``mc_error`` is the sum of the bars
    (``_piecewise_cubature``); ``method`` is "cubature".  The estimate runs
    in the calling process; within ``limit_sweep`` it takes the sweep's
    frame, kernel and interface force, with the same bits.
    Raises QuadratureError if a configured error cap is exceeded, if h is
    too small for double precision or if the estimate is not finite.
    """
    work = _sweep_work
    if work is None or not work.serves(model, pair, params):
        work = _PairWork(model, pair, params)
    integrand, h, t, d = work.integrand, params.h, params.t, pair.d
    ff_exact = -work.frak_n * h * interface_profile(h, d)

    mean, mc_error, n_evals = _piecewise_cubature(h, d, integrand)
    if not (math.isfinite(mean) and math.isfinite(mc_error)):
        raise QuadratureError(f"the estimate at h = {h!r} is not finite")
    delta_e = t * ff_exact + mean
    if params.quad.max_error is not None and mc_error > params.quad.max_error:
        raise QuadratureError(
            f"mc_error {mc_error:.3e} exceeds cap {params.quad.max_error:.3e}"
        )
    return VariationResult(delta_e, mc_error, h, t, n_evals, "cubature")


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
    method: str  # how each estimate was taken: always "cubature"

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
    the grid.  The fit's chi2/dof is reported and never refused: the
    cubature's values carry almost no noise, and their residual is
    truncation, which ``limit_model_error`` reports.
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
        return coef, cov, (chi2 / dof if dof > 0 else 0.0)

    fits = {order: series_fit(order) for order in (2, 3)}
    order = 4 if fits[3][2] > 2.0 else 3
    if order == 4:
        fits[4] = series_fit(4)
    coef, cov, chi2_red = fits[order]
    inflate = max(1.0, math.sqrt(chi2_red))
    limit_error = float(np.sqrt(cov[0, 0])) * inflate
    model_error = abs(float(coef[0]) - float(fits[order - 1][0][0]))

    rate, rate_error = _rate_fit(h_grid, scaled, sigma, float(coef[0]))

    # scaled back by a float product, which overflows to inf, not to an error
    limit, limit_error, model_error, slope, curvature = (
        float(x) * 2.0**k for x in (coef[0], limit_error, model_error, coef[1], coef[2]))
    return SweepResult(
        h_grid, values, errors, limit, limit_error, model_error, slope, curvature,
        rate, rate_error, chi2_red, order, n_evals, "cubature",
    )


def interchange_limit_target(model: EnergyModel, pair: InterfacePair) -> float:
    """The predicted limit -omega_{d-1} N / 2 of Delta E(h)/h at t = 1."""
    return -0.5 * unit_ball_volume(pair.d - 1) * interchange_force(model, pair)
