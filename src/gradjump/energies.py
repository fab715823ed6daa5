"""Energy densities W(F) on m x d gradients with values and stress gradients.

The built-in kinds are a single isotropic quadratic, a minimum of isotropic
quadratic branches (multi-well), an isotropic model f(tr F) + mu |dev sym F|^2,
and a tabulated energy for exploratory use.  Analytic gradients are provided
where available; a central-difference fallback covers the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptyBinodalError, NonsmoothPointError
from .tensors import as_matrix, frobenius

#: default central-difference step
FD_STEP = 1e-5

#: relative gap below which two branch values count as tied
TIE_RTOL = 1e-10


def fd_gradient(value_fn, f: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    f = as_matrix(f)
    grad = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        bump = np.zeros_like(f)
        bump[idx] = step
        grad[idx] = (value_fn(f + bump) - value_fn(f - bump)) / (2.0 * step)
    return grad


class EnergyModel:
    """Base class: subclasses set kind/m/d and implement value()."""

    kind = "abstract"

    def __init__(self, m: int, d: int, fd_step: float | None = None):
        if m < 1 or d < 1:
            raise DimensionError("m and d must be at least 1")
        self.m = int(m)
        self.d = int(d)
        self.fd_step = fd_step  # None means analytic where available

    # -- values ------------------------------------------------------------

    def value(self, f) -> float:
        raise NotImplementedError

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        """Vectorized value on a (..., m, d) stack; subclasses override for speed."""
        fs = np.asarray(fs, dtype=float)
        lead = fs.shape[:-2]
        flat = fs.reshape(-1, *fs.shape[-2:])
        return np.array([self.value(fi) for fi in flat]).reshape(lead)

    # -- gradients -----------------------------------------------------------

    def analytic_gradient(self, f) -> np.ndarray | None:
        """Return W_F(F) or None when no closed form exists."""
        return None

    def gradient(self, f) -> np.ndarray:
        """First Piola stress W_F(F); falls back to central differences."""
        f = self._check(f)
        if self.fd_step is None:
            g = self.analytic_gradient(f)
            if g is not None:
                return g
        return fd_gradient(self.value, f, self.fd_step or FD_STEP)

    def excess(self, f, h) -> float:
        """Pointwise excess W(F+H) - W(F) - (W_F(F), H)."""
        f = self._check(f)
        h = self._check(h)
        return self.value(f + h) - self.value(f) - frobenius(self.gradient(f), h)

    def _check(self, f) -> np.ndarray:
        return as_matrix(f, self.m, self.d)


class QuadraticEnergy(EnergyModel):
    """W(F) = mu/2 |F|^2 (convex reference model)."""

    kind = "quadratic"

    def __init__(self, m: int, d: int, mu: float = 1.0, fd_step: float | None = None):
        super().__init__(m, d, fd_step)
        if mu <= 0.0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)

    def value(self, f) -> float:
        f = self._check(f)
        return 0.5 * self.mu * float(np.sum(f * f))

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        return 0.5 * self.mu * np.sum(fs * fs, axis=(-2, -1))

    def analytic_gradient(self, f) -> np.ndarray:
        return self.mu * self._check(f)


class MinQuadraticsEnergy(EnergyModel):
    """W(F) = min_k ( mu_k/2 |F|^2 + w_k ), the multi-well prototype.

    The energy is C^1 away from branch ties; ``gradient`` refuses to
    differentiate on the tie set and raises NonsmoothPointError carrying
    every competing branch gradient.
    """

    kind = "min_of_quadratics"

    def __init__(self, m: int, d: int, branches, fd_step: float | None = None):
        super().__init__(m, d, fd_step)
        br = [(float(mu), float(w)) for mu, w in branches]
        if len(br) < 1:
            raise ValueError("need at least one branch")
        if any(mu <= 0.0 for mu, _ in br):
            raise ValueError("branch moduli must be positive")
        self.branches = tuple(br)
        self._mus = np.array([mu for mu, _ in br])
        self._ws = np.array([w for _, w in br])

    def branch_values(self, f) -> np.ndarray:
        f = self._check(f)
        s = float(np.sum(f * f))
        return 0.5 * self._mus * s + self._ws

    def active_branch(self, f) -> int:
        """Index of the minimizing branch (lowest index wins a tie)."""
        return int(np.argmin(self.branch_values(f)))

    def value(self, f) -> float:
        return float(np.min(self.branch_values(f)))

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        s = np.sum(fs * fs, axis=(-2, -1))
        # fold np.minimum over the branches: np.min over a short trailing axis is slow
        vals = 0.5 * (s * self._mus[0]) + self._ws[0]
        for mu, w in zip(self._mus[1:], self._ws[1:]):
            vals = np.minimum(vals, 0.5 * (s * mu) + w)
        return vals

    def analytic_gradient(self, f) -> np.ndarray:
        f = self._check(f)
        vals = self.branch_values(f)
        order = np.argsort(vals)
        best = order[0]
        if len(vals) > 1:
            tie_tol = TIE_RTOL * (1.0 + abs(vals[best]))
            if vals[order[1]] - vals[best] < tie_tol:
                tied = [k for k in range(len(vals)) if vals[k] - vals[best] < tie_tol]
                raise NonsmoothPointError(
                    f"branch tie at |F|^2 = {float(np.sum(f * f)):.6g}: "
                    f"branches {tied} are within {tie_tol:.1e}",
                    branch_values=vals[tied],
                    branch_gradients=[self._mus[k] * f for k in tied],
                )
        return self._mus[best] * f


@dataclass(frozen=True)
class AntiplaneParams:
    """Two isotropic wells mu/2 |F|^2 + w for a scalar (m = 1) problem."""

    mu_plus: float
    mu_minus: float
    w_plus: float
    w_minus: float

    def __post_init__(self):
        if self.mu_plus <= 0.0 or self.mu_minus <= 0.0:
            raise ValueError("shear moduli must be positive")
        if self.mu_plus == self.mu_minus:
            raise ValueError("phases must have distinct moduli")

    @property
    def jump_w(self) -> float:
        return self.w_plus - self.w_minus

    @property
    def jump_mu(self) -> float:
        return self.mu_plus - self.mu_minus

    def require_binodal(self):
        """The two-phase region is nonempty iff [w] and [mu] have opposite signs."""
        if self.jump_w * self.jump_mu >= 0.0:
            raise EmptyBinodalError(
                "sign condition failed: (w+ - w-) (mu+ - mu-) must be negative"
            )


class AntiplaneDoubleWell(MinQuadraticsEnergy):
    """Scalar two-well energy min( mu+/2 |F|^2 + w+, mu-/2 |F|^2 + w- )."""

    kind = "antiplane_double_well"

    def __init__(self, params: AntiplaneParams, d: int = 2, fd_step: float | None = None):
        super().__init__(
            1,
            d,
            [(params.mu_plus, params.w_plus), (params.mu_minus, params.w_minus)],
            fd_step,
        )
        self.params = params


@dataclass(frozen=True)
class IsotropicParams:
    """Volumetric double well f(theta) plus a deviatoric quadratic penalty."""

    d: int
    mu: float
    f_coeffs: tuple  # ascending polynomial coefficients of f(theta)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        object.__setattr__(self, "f_coeffs", tuple(float(c) for c in self.f_coeffs))

    def f(self, theta):
        return np.polynomial.polynomial.polyval(theta, self.f_coeffs)

    def f_prime(self, theta):
        dcoef = np.polynomial.polynomial.polyder(self.f_coeffs)
        return np.polynomial.polynomial.polyval(theta, dcoef)


class IsotropicThetaEnergy(EnergyModel):
    """W(F) = f(tr F) + mu |sym F - (tr F / d) I|^2 on square gradients.

    The stress is f'(theta) I + 2 mu dev(sym F).
    """

    kind = "isotropic_theta_model"

    def __init__(self, params: IsotropicParams, fd_step: float | None = None):
        super().__init__(params.d, params.d, fd_step)
        self.params = params

    def _theta_dev(self, f: np.ndarray):
        theta = float(np.trace(f))
        sym = 0.5 * (f + f.T)
        dev = sym - (theta / self.d) * np.eye(self.d)
        return theta, dev

    def value(self, f) -> float:
        f = self._check(f)
        theta, dev = self._theta_dev(f)
        return float(self.params.f(theta)) + self.params.mu * float(np.sum(dev * dev))

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        theta = np.trace(fs, axis1=-2, axis2=-1)
        sym = 0.5 * (fs + np.swapaxes(fs, -2, -1))
        eye = np.eye(self.d)
        dev = sym - (theta[..., None, None] / self.d) * eye
        return self.params.f(theta) + self.params.mu * np.sum(dev * dev, axis=(-2, -1))

    def analytic_gradient(self, f) -> np.ndarray:
        f = self._check(f)
        theta, dev = self._theta_dev(f)
        return float(self.params.f_prime(theta)) * np.eye(self.d) + 2.0 * self.params.mu * dev


class TabulatedEnergy(EnergyModel):
    """Linearly interpolated energy on a rectilinear grid of entries.

    Exploratory only: limited to m*d <= 2 and excluded from acceptance
    checks, since interpolation error would pollute the sharp limits.
    Gradients always use central differences.
    """

    kind = "custom_tabulated"

    def __init__(self, m: int, d: int, axes, values, fd_step: float | None = None):
        super().__init__(m, d, fd_step)
        if self.m * self.d > 2:
            raise DimensionError("custom_tabulated supports at most 2 entries")
        from scipy.interpolate import RegularGridInterpolator

        axes = [np.asarray(ax, dtype=float) for ax in axes]
        values = np.asarray(values, dtype=float)
        if len(axes) != self.m * self.d:
            raise DimensionError("one grid axis per matrix entry required")
        self._interp = RegularGridInterpolator(axes, values, method="linear")
        self.fd_step = fd_step or FD_STEP

    def value(self, f) -> float:
        f = self._check(f)
        return float(self._interp(f.reshape(1, -1))[0])

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        lead = fs.shape[:-2]
        return self._interp(fs.reshape(-1, self.m * self.d)).reshape(lead)


# -- JSON config ------------------------------------------------------------

_KIND_KEYS = {
    "quadratic": {"mu"},
    "min_of_quadratics": {"branches"},
    "antiplane_double_well": {"mu_plus", "mu_minus", "w_plus", "w_minus"},
    "isotropic_theta_model": {"mu", "f_coeffs"},
    "custom_tabulated": {"axes", "values"},
}


def _reject_unknown(d: dict, allowed: set, ctx: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(unknown)}")


def model_from_config(cfg: dict) -> EnergyModel:
    """Build an energy model from its JSON description.

    Expected shape::

        {"kind": "...", "m": 1, "d": 2, "params": {...},
         "gradient_mode": "analytic" | {"fd_step": 1e-5}}
    """
    if not isinstance(cfg, dict):
        raise ConfigError("model config must be an object")
    _reject_unknown(cfg, {"kind", "m", "d", "params", "gradient_mode"}, "model")
    try:
        kind = cfg["kind"]
    except KeyError:
        raise ConfigError("model config requires a 'kind'") from None
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model params must be an object")
    _reject_unknown(params, _KIND_KEYS[kind], f"{kind} params")

    mode = cfg.get("gradient_mode", "analytic")
    if mode == "analytic":
        fd_step = None
    elif isinstance(mode, dict) and set(mode) == {"fd_step"}:
        fd_step = float(mode["fd_step"])
        if fd_step <= 0.0:
            raise ConfigError("fd_step must be positive")
    else:
        raise ConfigError("gradient_mode must be 'analytic' or {'fd_step': ...}")

    m = int(cfg.get("m", 1))
    d = int(cfg.get("d", 2))
    try:
        if kind == "quadratic":
            return QuadraticEnergy(m, d, float(params.get("mu", 1.0)), fd_step)
        if kind == "min_of_quadratics":
            return MinQuadraticsEnergy(m, d, params["branches"], fd_step)
        if kind == "antiplane_double_well":
            ap = AntiplaneParams(
                float(params["mu_plus"]),
                float(params["mu_minus"]),
                float(params["w_plus"]),
                float(params["w_minus"]),
            )
            return AntiplaneDoubleWell(ap, d, fd_step)
        if kind == "isotropic_theta_model":
            ip = IsotropicParams(d, float(params["mu"]), tuple(params["f_coeffs"]))
            return IsotropicThetaEnergy(ip, fd_step)
        return TabulatedEnergy(m, d, params["axes"], params["values"], fd_step)
    except KeyError as exc:
        raise ConfigError(f"missing required parameter {exc} for kind {kind!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model parameters: {exc}") from None
