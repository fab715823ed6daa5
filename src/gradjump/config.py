"""Strict JSON run configurations: the whole schema of the command line.

Every command reads one JSON object.  Unknown keys are rejected anywhere in
the tree so that typos fail loudly instead of silently running defaults.
Matrices are row-major arrays of arrays, vectors are flat arrays.  Every
value is read through ``_check_keys`` and the typed readers ``_count``,
``_number`` and ``_floats``; the errors the model and parameter classes
raise on a bad value are mapped to ``ConfigError`` by ``_parsing``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energies import (
    AntiplaneDoubleWell,
    AntiplaneParams,
    EnergyModel,
    IsotropicParams,
    IsotropicThetaEnergy,
    MinQuadraticsEnergy,
    QuadraticEnergy,
)
from .errors import ConfigError, DimensionError
from .interchange import InterchangeField, InterchangeParams, QuadratureConfig
from .jumps import InterfacePair

COMMANDS = ("check", "sweep-h", "path-dt", "envelope", "antiplane", "scan")

#: the allowed and the required top-level keys of each command
_TOP_KEYS = {
    "check": ({"model", "pair", "seed", "tolerances", "scan"}, ("model", "pair")),
    "sweep-h": (
        {"model", "pair", "seed", "h_grid", "t", "nu", "quadrature"},
        ("model", "pair", "h_grid"),
    ),
    "path-dt": ({"model", "pair", "isotropic", "t_grid", "seed"}, ()),
    "envelope": ({"model", "pair", "grid_size", "tol", "seed"}, ("model", "pair")),
    "antiplane": ({"params", "envelope", "path", "mechanisms", "seed"}, ("params",)),
    "scan": ({"model", "points", "radii", "resolution", "seed"}, ("model", "points")),
}

_ANTIPLANE_KEYS = ("mu_plus", "mu_minus", "w_plus", "w_minus")

#: the allowed and the required params of each model kind
_KIND_KEYS = {
    "quadratic": ({"mu"}, ()),
    "min_of_quadratics": ({"branches"}, ("branches",)),
    "antiplane_double_well": (_ANTIPLANE_KEYS, _ANTIPLANE_KEYS),
    "isotropic_theta_model": ({"mu", "f_coeffs"}, ("mu", "f_coeffs")),
}

#: caps on counts, checked before anything is allocated: sample budgets per
#: stratum, scan resolutions (d = 3 scans resolution**2 directions), the
#: rows of a scan's grid (directions v x radii; the default 41 radii at
#: MAX_RESOLUTION in d = 3 make 2,686,976) and other grids
MAX_SAMPLES = 2**24
MAX_RESOLUTION = 256
MAX_SCAN_ROWS = 2**22
MAX_COUNT = 2**20
MAX_SEED = 2**64 - 1


def _check_scan_rows(d: int, resolution: int, n_radii: int):
    """Raise ConfigError when a scan's grid, the directions v of
    ``tensors.sphere_grid(d, resolution)`` times the radii, has more than
    MAX_SCAN_ROWS rows."""
    rows = (2 if d == 1 else resolution ** (d - 1)) * n_radii
    if rows > MAX_SCAN_ROWS:
        raise ConfigError(
            f"the scan grid has {rows} rows (directions x radii), more than "
            f"{MAX_SCAN_ROWS}: lower resolution or the number of radii"
        )


def _check_keys(raw, ctx: str, allowed, required=()) -> dict:
    """``raw`` itself, once it is a JSON object with no key outside
    ``allowed`` and every key in ``required``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r} in {ctx}")
    return raw


def _count(raw: dict, key: str, default, minimum: int, maximum: int) -> int:
    """A JSON integer in [minimum, maximum] (not a bool, a float or a numeric string)."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        raise ConfigError(f"{key} must be an integer in [{minimum}, {maximum}]")
    return value


def _number(raw: dict, key: str, default, minimum=-math.inf, strict=False) -> float:
    """A finite JSON number >= minimum, or > minimum when ``strict``."""
    value = raw.get(key, default)
    ok = not isinstance(value, bool) and isinstance(value, (int, float))
    if ok:
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        ok = math.isfinite(value) and (value > minimum if strict else value >= minimum)
    if not ok:
        bound = "" if minimum == -math.inf else f" {'>' if strict else '>='} {minimum:g}"
        raise ConfigError(f"{key} must be a finite number{bound}")
    return value


def _floats(raw: dict, key: str, default, shape: tuple) -> np.ndarray:
    """A float array of JSON numbers, all finite, of ``shape``.

    ``None`` in ``shape`` matches any length >= 1; a flat list is read as
    the one row of a matrix.
    """
    # object cells: ragged or too-deep nesting gives list cells, not an exception
    cells = np.array(raw.get(key, default), dtype=object)
    if cells.ndim == 1 and len(shape) == 2:
        cells = cells[None, :]
    arr = None
    if (
        cells.ndim == len(shape)
        and cells.size > 0
        and all(k in (None, n) for n, k in zip(cells.shape, shape))
        and all(type(c) in (int, float) for c in cells.flat)
    ):
        try:
            arr = cells.astype(float)
        except OverflowError:  # an integer beyond the float range
            pass
    if arr is None or not np.all(np.isfinite(arr)):
        dims = ", ".join("n" if k is None else str(k) for k in shape)
        raise ConfigError(f"{key} must be a list of numbers of shape ({dims}), all finite")
    return arr


def _nonempty_list(raw: dict, key: str) -> list:
    value = raw.get(key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a nonempty list")
    return value


@contextmanager
def _parsing(ctx: str):
    """Map the errors a constructor raises on a bad config value to ConfigError."""
    try:
        yield
    except (TypeError, ValueError, DimensionError) as exc:
        raise ConfigError(f"bad {ctx}: {exc}") from None


def _antiplane_params(raw: dict) -> AntiplaneParams:
    with _parsing("two-well parameters"):
        return AntiplaneParams(*(_number(raw, key, None) for key in _ANTIPLANE_KEYS))


def _isotropic_params(raw: dict, d: int) -> IsotropicParams:
    with _parsing("isotropic parameters"):
        mu = _number(raw, "mu", None, 0.0)
        return IsotropicParams(d, mu, tuple(_floats(raw, "f_coeffs", None, (None,))))


def model_from_config(cfg) -> EnergyModel:
    """Build an energy model from its JSON description.

    Expected shape::

        {"kind": "...", "m": 1, "d": 2, "params": {...}}
    """
    raw = _check_keys(cfg, "model", {"kind", "m", "d", "params"}, ("kind",))
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    params = _check_keys(raw.get("params", {}), f"{kind} params", *_KIND_KEYS[kind])

    d = _count(raw, "d", 2, 1, 3)
    fixed_m = {"antiplane_double_well": 1, "isotropic_theta_model": d}.get(kind)
    m = _count(raw, "m", fixed_m or 1, 1, 3)
    if fixed_m not in (None, m):
        raise ConfigError(f"kind {kind!r} with d = {d} needs m = {fixed_m}, got m = {m}")
    with _parsing("model parameters"):
        if kind == "quadratic":
            return QuadraticEnergy(m, d, _number(params, "mu", 1.0, 0.0, strict=True))
        if kind == "min_of_quadratics":
            return MinQuadraticsEnergy(m, d, _floats(params, "branches", None, (None, 2)))
        if kind == "antiplane_double_well":
            return AntiplaneDoubleWell(_antiplane_params(params), d)
        return IsotropicThetaEnergy(_isotropic_params(params, d))


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too-long integer or too-deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return data


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one command invocation."""

    command: str
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        _check_keys(self.data, f"{self.command} config", *_TOP_KEYS[self.command])
        self.seed  # read here so that a bad seed fails whatever the command

    @classmethod
    def from_file(cls, command: str, path) -> "RunConfig":
        return cls(command, load_json(path))

    # -- shared pieces -------------------------------------------------------

    @property
    def seed(self) -> int:
        return _count(self.data, "seed", 0, 0, MAX_SEED)

    def with_seed(self, seed: int | None) -> "RunConfig":
        if seed is None:
            return self
        return RunConfig(self.command, {**self.data, "seed": seed})

    def model(self) -> EnergyModel:
        return model_from_config(self.data.get("model"))

    def pair(self, model: EnergyModel) -> InterfacePair:
        """The interface pair, read at the model's shape (m, d)."""
        raw = self.data.get("pair")
        jump_form = isinstance(raw, dict) and ("a" in raw or "n" in raw)
        sides = ("f_minus", "a", "n") if jump_form else ("f_minus", "f_plus")
        _check_keys(raw, "pair", {"tol", *sides}, sides)
        tol = _number(raw, "tol", 1e-9, 0.0, strict=True)
        shape = (model.m, model.d)
        fm = _floats(raw, "f_minus", None, shape)
        with _parsing("pair"):
            if jump_form:
                a = _floats(raw, "a", None, shape[:1])
                return InterfacePair.from_jump(fm, a, _floats(raw, "n", None, shape[1:]), tol)
            return InterfacePair.from_gradients(_floats(raw, "f_plus", None, shape), fm, tol)

    def quadrature(self) -> QuadratureConfig:
        raw = _check_keys(
            self.data.get("quadrature", {}),
            "quadrature",
            {"samples_bulk", "samples_slab", "stratification", "sampler", "max_error"},
        )
        strata = raw.get("stratification", ["slab", "strip", "corner", "shell"])
        if not isinstance(strata, list) or not all(isinstance(s, str) for s in strata):
            raise ConfigError("stratification must be a list of stratum names")
        max_error = None
        if "max_error" in raw:
            max_error = _number(raw, "max_error", None, 0.0, strict=True)
        with _parsing("quadrature config"):
            return QuadratureConfig(
                seed=self.seed,
                samples_bulk=_count(raw, "samples_bulk", 32_768, 1000, MAX_SAMPLES),
                samples_slab=_count(raw, "samples_slab", 262_144, 1000, MAX_SAMPLES),
                stratification=tuple(strata),
                sampler=raw.get("sampler", "rqmc"),
                max_error=max_error,
            )

    # -- per-command payloads --------------------------------------------------

    def tolerances(self) -> tuple[float, float]:
        raw = _check_keys(self.data.get("tolerances", {}), "tolerances", {"tol_abs", "tol_rel"})
        return _number(raw, "tol_abs", 1e-9, 0.0), _number(raw, "tol_rel", 1e-9, 0.0)

    def envelope_tol(self) -> float:
        """Tolerance of the envelope's affine-formula check."""
        return _number(self.data, "tol", 1e-10, 0.0, strict=True)

    def scan_settings(self, d: int) -> tuple:
        """Resolution and radii (None for the default grid) of the rank-one
        scan of a model with d columns: top-level keys of the scan command,
        the "scan" object of check."""
        raw = self.data
        if self.command != "scan":
            raw = _check_keys(raw.get("scan", {}), "scan settings", {"resolution", "radii"})
        resolution = _count(raw, "resolution", 32, 2, MAX_RESOLUTION)
        if "radii" not in raw:
            return resolution, None
        radii = raw["radii"]
        if isinstance(radii, dict):
            _check_keys(radii, "radii", {"lo", "hi", "num"}, ("lo", "hi", "num"))
            lo = _number(radii, "lo", None, 0.0, strict=True)
            hi = _number(radii, "hi", None, lo)
            num = _count(radii, "num", None, 1, MAX_COUNT)
            _check_scan_rows(d, resolution, num)
            return resolution, np.geomspace(lo, hi, num)
        radii = _floats(raw, "radii", None, (None,))
        if np.any(radii <= 0.0):
            raise ConfigError("radii must be positive")
        _check_scan_rows(d, resolution, radii.size)
        return resolution, radii

    def h_grid(self) -> np.ndarray:
        grid = _floats(self.data, "h_grid", None, (None,))
        if grid.size < 4:
            raise ConfigError("h_grid needs at least 4 points")
        if np.any((grid <= 0.0) | (grid >= 1.0)):
            raise ConfigError("h_grid entries must lie in (0, 1)")
        if np.any(np.diff(grid) >= 0.0):
            raise ConfigError("h_grid must be strictly decreasing")
        return grid

    def interchange_params(self, pair: InterfacePair) -> InterchangeParams:
        """Estimator parameters; ``nu`` is read at the pair's d and checked
        against its normal by building the test field once."""
        nu = _floats(self.data, "nu", None, (pair.d,)) if "nu" in self.data else None
        with _parsing("interchange parameters"):
            params = InterchangeParams(
                h=float(self.h_grid()[0]),
                t=_number(self.data, "t", 1.0, 0.0),
                nu=nu,
                quad=self.quadrature(),
            )
        with _parsing("interchange field (nu, d)"):
            InterchangeField(pair, params)
        return params

    def t_grid(self) -> np.ndarray:
        if "t_grid" not in self.data:
            return np.linspace(0.0, 1.0, 101)
        grid = _floats(self.data, "t_grid", None, (None,))
        if np.any((grid < 0.0) | (grid > 1.0)):
            raise ConfigError("t_grid entries must lie in [0, 1]")
        return grid

    def grid_size(self) -> int:
        """Points of the envelope's t grid; the hull needs at least three."""
        return _count(self.data, "grid_size", 201, 3, MAX_COUNT)

    def mechanisms(self) -> int:
        """Number of plastic mechanisms the antiplane command samples."""
        return _count(self.data, "mechanisms", 16, 1, MAX_COUNT)

    def isotropic(self):
        """(params, theta_plus, theta_minus) of the closed-form path, or None
        when the config names a model and a pair instead."""
        if "isotropic" not in self.data:
            _check_keys(self.data, "path-dt config", _TOP_KEYS["path-dt"][0], ("model", "pair"))
            return None
        if "model" in self.data or "pair" in self.data:
            raise ConfigError("give either 'isotropic' or 'model'+'pair', not both")
        required = ("mu", "f_coeffs", "theta_plus", "theta_minus")
        raw = _check_keys(self.data["isotropic"], "isotropic", {"d", *required}, required)
        params = _isotropic_params(raw, _count(raw, "d", 2, 1, 3))
        return params, _number(raw, "theta_plus", None), _number(raw, "theta_minus", None)

    def antiplane_params(self) -> AntiplaneParams:
        raw = _check_keys(self.data.get("params"), "params", _ANTIPLANE_KEYS, _ANTIPLANE_KEYS)
        return _antiplane_params(raw)

    def envelope_grid(self) -> np.ndarray:
        raw = _check_keys(self.data.get("envelope", {}), "envelope", {"r_max", "num"})
        r_max = _number(raw, "r_max", 3.0, 0.0, strict=True)
        return np.linspace(0.0, r_max, _count(raw, "num", 301, 2, MAX_COUNT))

    def path(self):
        """The antiplane loading path, each entry a 1 x 2 gradient, or None."""
        if "path" not in self.data:
            return None
        named = {f"path entry {i}": p for i, p in enumerate(_nonempty_list(self.data, "path"))}
        return [_floats(named, name, None, (1, 2)) for name in named]

    def scan_points(self, shape: tuple) -> list:
        """The scan's points, each a finite matrix of the model's shape (m, d)."""
        named = {f"point {i}": p for i, p in enumerate(_nonempty_list(self.data, "points"))}
        return [_floats(named, name, None, shape) for name in named]
