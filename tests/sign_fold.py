"""The interchange field's kinematics as the cutoff formulas read, kept as
the tests' oracle.

The + term of the field is h phi(s_n / h) rho(s_nu / sqrt(h)) zeta_h(r) a
and its mirror image is the + term at -z.  Here each term is evaluated
cutoff by cutoff (``plus_value``, ``plus_parts``), the mirrored field as
the sum of both terms (``two_term_profile``, ``two_term_gradient``) and
the mirrored gradient by one evaluation of the + term at the sign-folded
point sign(s_nu) (s_n, s_nu) (``sign_fold_gradient``).  ``gradjump`` forms
the same numbers from fold factors (``interchange._fold_factors`` and
``interchange._radial_gradient``), which the tests compare with these.
"""

import numpy as np


def plus_factors(s_n, s_nu, r, h):
    """The cutoffs phi(s_n), rho(s_nu), zeta(r) of the + term."""
    sh = np.sqrt(h)
    phi = (1.0 - s_n / h).clip(0.0, 1.0)
    rho = (s_nu / sh).clip(0.0, 1.0)
    zeta = ((1.0 - r) / sh).clip(0.0, 1.0)
    return phi, rho, zeta


def plus_value(s_n, s_nu, r, h):
    """Scalar value h phi rho zeta of the + term."""
    phi, rho, zeta = plus_factors(s_n, s_nu, r, h)
    return h * phi * rho * zeta


def plus_parts(s_n, s_nu, r, h):
    """(g_n, g_nu, c_r): the gradient of the + term is
    a (x) (g_n n + g_nu nu + c_r z/|z|), with one-sided derivatives at the
    kink sets."""
    sh = np.sqrt(h)
    phi, rho, zeta = plus_factors(s_n, s_nu, r, h)
    dphi = np.where((s_n > 0.0) & (s_n < h), -1.0, 0.0)
    drho = np.where((s_nu > 0.0) & (s_nu < sh), 1.0, 0.0)
    dzeta = np.where((r > 1.0 - sh) & (r < 1.0), -1.0 / sh, 0.0)
    g_n = dphi * rho * zeta
    g_nu = sh * phi * drho * zeta
    c_r = h * phi * rho * dzeta
    return g_n, g_nu, c_r


def sign_fold_gradient(coords, r, h):
    """The frame gradient (N, d) of the mirrored field at radii r = |coords|:
    sigma = sign(s_nu) times the + term's tangential parts at the folded
    point sigma (s_n, s_nu), plus its radial part, which is even."""
    s_n = coords[:, 0]
    s_nu = coords[:, 1]
    sigma = np.sign(s_nu)
    g_n, g_nu, c_r = plus_parts(sigma * s_n, sigma * s_nu, r, h)
    radial = np.divide(c_r, r, out=np.zeros_like(r), where=r > 0.0)
    g = radial[:, None] * coords
    g[:, 0] += sigma * g_n
    g[:, 1] += sigma * g_nu
    return g


def two_term_profile(coords, r, h):
    """The mirrored field's scalar profile: the + term plus its mirror image."""
    s_n, s_nu = coords[:, 0], coords[:, 1]
    return plus_value(s_n, s_nu, r, h) + plus_value(-s_n, -s_nu, r, h)


def two_term_gradient(coords, r, h):
    """The mirrored gradient as the sum of the + term and its mirror image."""
    s_n, s_nu = coords[:, 0], coords[:, 1]
    gn_p, gnu_p, cr_p = plus_parts(s_n, s_nu, r, h)
    gn_m, gnu_m, cr_m = plus_parts(-s_n, -s_nu, r, h)
    g = np.zeros_like(coords)
    g[:, 0] = gn_p - gn_m
    g[:, 1] = gnu_p - gnu_m
    radial = np.divide(cr_p + cr_m, r, out=np.zeros_like(r), where=r > 0.0)
    return g + radial[:, None] * coords
