"""Strict JSON run configurations for the command-line front door.

Every command reads one JSON object.  Unknown keys are rejected anywhere in
the tree so that typos fail loudly instead of silently running defaults.
Matrices are row-major arrays of arrays, vectors are flat arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energies import AntiplaneParams, EnergyModel, IsotropicParams, model_from_config
from .errors import ConfigError
from .interchange import InterchangeParams, QuadratureConfig
from .jumps import InterfacePair

COMMANDS = ("check", "sweep-h", "path-dt", "envelope", "antiplane", "scan")

_TOP_KEYS = {
    "check": {"model", "pair", "seed", "tolerances", "scan"},
    "sweep-h": {"model", "pair", "seed", "h_grid", "t", "nu", "quadrature"},
    "path-dt": {"model", "pair", "isotropic", "t_grid", "seed"},
    "envelope": {"model", "pair", "grid_size", "tol", "seed"},
    "antiplane": {"params", "envelope", "path", "mechanisms", "seed"},
    "scan": {"model", "points", "radii", "resolution", "seed"},
}


def _require(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r} in {ctx}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, ctx: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(unknown)}")


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
        _check_keys(self.data, _TOP_KEYS[self.command], f"{self.command} config")

    @classmethod
    def from_file(cls, command: str, path) -> "RunConfig":
        return cls(command, load_json(path))

    def to_dict(self) -> dict:
        return {"command": self.command, "data": self.data}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _check_keys(d, {"command", "data"}, "run config")
        return cls(_require(d, "command", "run config"), d.get("data", {}))

    # -- shared pieces -------------------------------------------------------

    @property
    def seed(self) -> int:
        return int(self.data.get("seed", 0))

    def with_seed(self, seed: int | None) -> "RunConfig":
        if seed is None:
            return self
        return RunConfig(self.command, {**self.data, "seed": int(seed)})

    def model(self) -> EnergyModel:
        return model_from_config(_require(self.data, "model", "config"))

    def pair(self) -> InterfacePair:
        raw = _require(self.data, "pair", "config")
        _check_keys(raw, {"f_plus", "f_minus", "a", "n", "tol"}, "pair")
        tol = float(raw.get("tol", 1e-9))
        try:
            if "a" in raw and "n" in raw:
                return InterfacePair.from_jump(raw["f_minus"], raw["a"], raw["n"], tol)
            return InterfacePair.from_gradients(
                _require(raw, "f_plus", "pair"), _require(raw, "f_minus", "pair"), tol
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad pair: {exc}") from None

    def quadrature(self) -> QuadratureConfig:
        raw = self.data.get("quadrature", {})
        _check_keys(
            raw,
            {"samples_bulk", "samples_slab", "stratification", "sampler", "max_error"},
            "quadrature",
        )
        try:
            return QuadratureConfig(
                seed=self.seed,
                samples_bulk=int(raw.get("samples_bulk", 32_768)),
                samples_slab=int(raw.get("samples_slab", 262_144)),
                stratification=tuple(
                    raw.get("stratification", ("slab", "strip", "corner", "shell"))
                ),
                sampler=raw.get("sampler", "rqmc"),
                max_error=raw.get("max_error"),
            )
        except ValueError as exc:
            raise ConfigError(f"bad quadrature config: {exc}") from None

    # -- per-command payloads --------------------------------------------------

    def tolerances(self) -> tuple[float, float]:
        raw = self.data.get("tolerances", {})
        _check_keys(raw, {"tol_abs", "tol_rel"}, "tolerances")
        return float(raw.get("tol_abs", 1e-9)), float(raw.get("tol_rel", 1e-9))

    def scan_settings(self) -> tuple:
        raw = self.data.get("scan", {})
        _check_keys(raw, {"resolution", "radii"}, "scan settings")
        return int(raw.get("resolution", 32)), self._radii(raw.get("radii"))

    def scan_command_settings(self) -> tuple:
        return int(self.data.get("resolution", 32)), self._radii(self.data.get("radii"))

    def _radii(self, raw):
        if raw is None:
            return None
        if isinstance(raw, dict):
            _check_keys(raw, {"lo", "hi", "num"}, "radii")
            lo = float(_require(raw, "lo", "radii"))
            hi = float(_require(raw, "hi", "radii"))
            num = int(_require(raw, "num", "radii"))
            if num < 1 or lo <= 0 or hi < lo:
                raise ConfigError("radii must satisfy 0 < lo <= hi, num >= 1")
            return np.geomspace(lo, hi, num)
        radii = np.asarray(raw, dtype=float).reshape(-1)
        if radii.size == 0:
            raise ConfigError("radii grid is empty")
        if np.any(radii <= 0.0):
            raise ConfigError("radii must be positive")
        return radii

    def h_grid(self) -> np.ndarray:
        raw = _require(self.data, "h_grid", "sweep config")
        try:
            grid = np.asarray(raw, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ConfigError("h_grid must be a list of numbers") from None
        if grid.size < 4:
            raise ConfigError("h_grid needs at least 4 points")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("h_grid entries must be finite")
        if np.any((grid <= 0.0) | (grid >= 1.0)):
            raise ConfigError("h_grid entries must lie in (0, 1)")
        if np.any(np.diff(grid) >= 0.0):
            raise ConfigError("h_grid must be strictly decreasing")
        return grid

    def interchange_params(self) -> InterchangeParams:
        nu = self.data.get("nu")
        try:
            return InterchangeParams(
                h=float(self.h_grid()[0]),
                t=float(self.data.get("t", 1.0)),
                nu=None if nu is None else np.asarray(nu, dtype=float),
                quad=self.quadrature(),
            )
        except ValueError as exc:
            raise ConfigError(f"bad interchange parameters: {exc}") from None

    def t_grid(self) -> np.ndarray:
        raw = self.data.get("t_grid")
        if raw is None:
            return np.linspace(0.0, 1.0, 101)
        try:
            grid = np.asarray(raw, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ConfigError("t_grid must be a list of numbers") from None
        if grid.size == 0:
            raise ConfigError("t_grid is empty")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("t_grid entries must be finite")
        if np.any((grid < 0.0) | (grid > 1.0)):
            raise ConfigError("t_grid entries must lie in [0, 1]")
        return grid

    def _count(self, key: str, default: int, minimum: int) -> int:
        raw = self.data.get(key, default)
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < minimum:
            raise ConfigError(f"{key} must be an integer >= {minimum}")
        return raw

    def grid_size(self) -> int:
        """Points of the envelope's t grid; the hull needs at least three."""
        return self._count("grid_size", 201, 3)

    def mechanisms(self) -> int:
        """Number of plastic mechanisms the antiplane command samples."""
        return self._count("mechanisms", 16, 1)

    def isotropic(self):
        raw = self.data.get("isotropic")
        if raw is None:
            return None
        _check_keys(raw, {"d", "mu", "f_coeffs", "theta_plus", "theta_minus"}, "isotropic")
        try:
            params = IsotropicParams(
                d=int(raw.get("d", 2)),
                mu=float(_require(raw, "mu", "isotropic")),
                f_coeffs=tuple(_require(raw, "f_coeffs", "isotropic")),
            )
        except ValueError as exc:
            raise ConfigError(f"bad isotropic parameters: {exc}") from None
        return (
            params,
            float(_require(raw, "theta_plus", "isotropic")),
            float(_require(raw, "theta_minus", "isotropic")),
        )

    def antiplane_params(self) -> AntiplaneParams:
        raw = _require(self.data, "params", "antiplane config")
        _check_keys(raw, {"mu_plus", "mu_minus", "w_plus", "w_minus"}, "params")
        try:
            return AntiplaneParams(
                float(_require(raw, "mu_plus", "params")),
                float(_require(raw, "mu_minus", "params")),
                float(_require(raw, "w_plus", "params")),
                float(_require(raw, "w_minus", "params")),
            )
        except ValueError as exc:
            raise ConfigError(f"bad two-well parameters: {exc}") from None

    def envelope_grid(self) -> np.ndarray:
        raw = self.data.get("envelope", {})
        _check_keys(raw, {"r_max", "num"}, "envelope")
        r_max = float(raw.get("r_max", 3.0))
        num = int(raw.get("num", 301))
        if r_max <= 0 or num < 2:
            raise ConfigError("envelope needs r_max > 0 and num >= 2")
        return np.linspace(0.0, r_max, num)

    def path(self):
        raw = self.data.get("path")
        if raw is None:
            return None
        path = [np.atleast_2d(np.asarray(p, dtype=float)) for p in raw]
        if not path:
            raise ConfigError("path is empty")
        return path

    def scan_points(self) -> list:
        raw = _require(self.data, "points", "scan config")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("points must be a nonempty list of matrices")
        return [np.atleast_2d(np.asarray(p, dtype=float)) for p in raw]
