"""Command-line front door: run analyses from JSON configs, emit JSON/CSV.

Usage: gradjump <command> --config FILE [--seed N] [--out DIR] [--format json|csv],
with the options before or after the command, which is one of check |
sweep-h | path-dt | envelope | antiplane | scan.
Exit codes: 0 pass, 1 analysis-level failure (failed verdict, instability
found, nonconvergence), 2 config, usage or --out error.  All randomness is
seeded, so rerunning a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import COMMANDS, RunConfig
from .energies import AntiplaneDoubleWell
from .envelopes import (
    antiplane_analyze,
    check_affine_formula,
    directional_derivative,
    loading_program,
    mechanism_pair,
    tangency_gap,
    yield_plane,
)
from .errors import ConfigError, GradJumpError
from .interchange import d_path, d_path_isotropic
from .jumps import default_radii, diagnose, weierstrass_scan
from .quadrature import interchange_limit_target, limit_sweep

_FLOAT_FMT = ".17g"


def _fmt(x) -> str:
    return format(float(x), _FLOAT_FMT)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])
    return buf.getvalue()


def _json_text(payload) -> str:
    """Strict JSON: raises ValueError on a NaN or an infinity."""
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _render(command: str, fmt: str, summary, tables):
    """Texts of the artifact files and of stdout, all rendered before any is written.

    The summary is the JSON artifact, named after the command; each
    ``(csv_name, header, rows)`` table is a CSV artifact.  Under ``csv`` stdout
    is the first table, if the command has one.
    """
    summary_text = _json_text(summary)
    files = [(name, _csv_text(header, rows)) for name, header, rows in tables]
    stdout = files[0][1] if fmt == "csv" and files else summary_text
    return files + [(f"{command.replace('-', '_')}.json", summary_text)], stdout


# -- commands -----------------------------------------------------------------


def cmd_check(cfg: RunConfig):
    model = cfg.model()
    pair = cfg.pair(model)
    tol_abs, tol_rel = cfg.tolerances()
    resolution, radii = cfg.scan_settings()
    diag = diagnose(model, pair, tol_abs, tol_rel, radii, resolution)
    return (0 if diag.all_ok else 1), diag.to_dict(), []


#: glibc's mallopt parameter for the least free space at the top of the
#: heap that it returns to the system
_M_TRIM_THRESHOLD = -1


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep up to 32 MiB of freed heap instead of returning it,
    once per process.

    Each h of a sweep frees about a megabyte of blocks at the top of the
    heap.  With glibc's default trim threshold of 128 KiB that memory went
    back to the system at every h and was faulted in again at the next:
    300 to 1,900 minor faults per sweep of the bench's configs, which made
    a sweep up to 1.8 times slower.  Without glibc nothing changes.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def cmd_sweep_h(cfg: RunConfig):
    _keep_freed_heap()
    model = cfg.model()
    pair = cfg.pair(model)
    params = cfg.interchange_params(pair)
    sweep = limit_sweep(model, pair, params, cfg.h_grid())
    target = interchange_limit_target(model, pair) * params.t
    summary = sweep.to_dict()
    summary.update(
        {
            "target": target,
            "relative_gap": abs(sweep.limit - target) / abs(target) if target else None,
            "seed": cfg.seed,
            "t": params.t,
        }
    )
    return 0, summary, [("sweep_h.csv", ("h", "dE_over_h", "mc_error"), sweep.rows())]


def cmd_path_dt(cfg: RunConfig):
    ts = cfg.t_grid()
    iso = cfg.isotropic()
    # a violated compatibility condition is a warning: record it in the summary
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        if iso is not None:
            params, theta_plus, theta_minus = iso
            values = d_path_isotropic(params, theta_plus, theta_minus, ts)
        else:
            model = cfg.model()
            values = d_path(model, cfg.pair(model), ts)
    rows = list(zip(ts, values))
    summary = {
        "n_points": len(rows),
        "d_first": float(values[0]),
        "d_last": float(values[-1]),
        "d_max": float(np.max(values)),
        "t_argmax": float(ts[int(np.argmax(values))]),
        "warnings": [str(w.message) for w in caught],
    }
    return 0, summary, [("path_dt.csv", ("t", "D"), rows)]


def cmd_envelope(cfg: RunConfig):
    model = cfg.model()
    pair = cfg.pair(model)
    grid_size = cfg.grid_size()
    report = check_affine_formula(model, pair, cfg.envelope_tol(), grid_size)
    curve = report.curve
    summary = {
        "affine_segments": [list(seg) for seg in curve.affine_segments],
        "max_hull_gap": curve.max_hull_gap(),
        "affine_formula": {
            "max_deviation": report.max_deviation,
            "tol": report.tol,
            "passed": report.passed,
            "p_star": report.p_star,
            "frak_n": report.frak_n,
        },
        "slope_at_0": directional_derivative(model, pair, at=0),
        "slope_at_1": directional_derivative(model, pair, at=1),
    }
    rows = list(zip(curve.t_grid, curve.w_values, curve.hull_values))
    return 0, summary, [("envelope.csv", ("t", "W", "hull"), rows)]


def cmd_antiplane(cfg: RunConfig):
    params = cfg.antiplane_params()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        analysis = antiplane_analyze(params)
    binodal = {
        key: getattr(analysis, key)
        for key in ("eps_plus", "eps_minus", "sigma_star", "yield_radius", "offset")
    }
    # the mechanism pairs take |F|^2 at the outer radius: above ~1.3e154 it overflows
    if not all(np.isfinite([*binodal.values(), analysis.eps_minus * analysis.eps_minus])):
        raise ConfigError(f"the two-well parameters overflow double precision: {binodal}")
    model = AntiplaneDoubleWell(params)
    rs = cfg.envelope_grid()
    fs = np.stack([rs, np.zeros_like(rs)], axis=1)[:, None, :]
    n_mech = cfg.mechanisms()
    gaps = []
    # mu/2 |F|^2 can overflow, on the grid or at a binodal radius, for
    # moduli near 1e154 and beyond; a non-finite value never ships (see
    # _render)
    with np.errstate(over="ignore", invalid="ignore"):
        w_vals = model.value_many(fs)
        qw_vals = analysis.qw_radial(rs)
        for angle in np.linspace(0.0, 2.0 * np.pi, n_mech, endpoint=False):
            pair = mechanism_pair(analysis, [np.cos(angle), np.sin(angle)])
            gaps.append(tangency_gap(analysis, yield_plane(model, pair)))
    summary = dict(analysis.to_dict())
    summary.update({"n_mechanisms": n_mech, "max_tangency_gap": float(np.max(gaps))})

    tables = [("antiplane_envelope.csv", ("f_norm", "W", "QW"), list(zip(rs, w_vals, qw_vals)))]
    path = cfg.path()
    if path is not None:
        steps = loading_program(analysis, path)
        rows = [
            (s.index, s.f_norm, s.theta, s.p_total[0, 0], s.p_total[0, 1], int(s.on_yield))
            for s in steps
        ]
        tables.append(
            ("antiplane_loading.csv", ("step", "f_norm", "theta", "p_x", "p_y", "on_yield"), rows)
        )
        summary["n_path_steps"] = len(rows)
    return 0, summary, tables


def cmd_scan(cfg: RunConfig):
    model = cfg.model()
    points = cfg.scan_points((model.m, model.d))
    resolution, radii = cfg.scan_settings()
    results = []
    any_unstable = False
    for i, point in enumerate(points):
        with np.errstate(over="ignore", invalid="ignore"):
            energy = model.value(point)
        if not np.isfinite(energy):
            raise ConfigError(f"point {i}: the energy there is not finite ({energy})")
        grid = radii
        if grid is None:
            grid = default_radii(1.0 + float(np.linalg.norm(point)))
        scan = weierstrass_scan(model, point, grid, resolution)
        stable = scan.min_value >= -1e-12 * (1.0 + abs(energy))
        any_unstable |= not stable
        results.append(
            {"point": point.tolist(), "stable": stable, **scan.to_dict()}
        )
    summary = {"n_points": len(results), "all_stable": not any_unstable, "results": results}
    return (1 if any_unstable else 0), summary, []


_DISPATCH = {
    "check": cmd_check,
    "sweep-h": cmd_sweep_h,
    "path-dt": cmd_path_dt,
    "envelope": cmd_envelope,
    "antiplane": cmd_antiplane,
    "scan": cmd_scan,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors end as config errors, with exit 2 and one JSON error line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command and its four options, in any order."""
    parser = _Parser(
        prog="gradjump",
        description="Interface stability diagnostics for gradient discontinuities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "command", choices=COMMANDS, metavar="|".join(COMMANDS), help="the analysis to run"
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=None, help="directory for JSON/CSV artifacts")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="what to print on stdout (csv prints the primary table)",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig.from_file(args.command, args.config).with_seed(args.seed)
        code, summary, tables = _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except GradJumpError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1

    try:
        files, stdout = _render(args.command, args.format, summary, tables)
    except ValueError as exc:
        # a NaN or an infinity never ships as "valid" JSON
        print(json.dumps({"error": f"non-finite value in output: {exc}"}), file=sys.stderr)
        return 1

    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            # refuse before writing anything, so a failed run leaves no partial set
            for name, _ in files:
                target = args.out / name
                if target.exists() and not target.is_file():
                    raise FileExistsError(f"{target} exists and is not a regular file")
            for name, text in files:
                # newline="" keeps the CRLF row terminators of the CSV tables verbatim
                with (args.out / name).open("w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
        except OSError as exc:
            print(json.dumps({"error": f"cannot write artifacts: {exc}"}), file=sys.stderr)
            return 2
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
