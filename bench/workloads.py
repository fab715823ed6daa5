"""The benchmark's four workloads: CLI operations, references and output checks.

Every operation is one ``gradjump.cli.main`` invocation on a pinned JSON
config from ``configs/``.  The reference values below are worked out by hand
from the model definitions; none of them calls the function under test.

Models (both from the README's model kinds):

* antiplane double well ``W(F) = min(|F|^2, |F|^2 / 2 + 1)`` on 1 x 2
  gradients (mu+ = 2, mu- = 1, w+ = 0, w- = 1).  The stiff well is active
  for ``|F| <= sqrt(2)``, its stress is ``2F``; the soft well's is ``F``.
* isotropic theta model ``W(F) = f(tr F) + |dev sym F|^2`` on 3 x 3
  gradients with ``f(t) = 1 - 2 t^2 + t^4``, stress
  ``f'(tr F) I + 2 dev sym F``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIGS = Path(__file__).resolve().parent / "configs"

#: acceptance-suite tolerances for an extrapolated sweep (criterion 1)
SWEEP_MAX_GAP = 0.05
SWEEP_RATE_RANGE = (0.3, 0.7)
#: tolerance on exact (closed-form) quantities
EXACT_TOL = 1e-9


def _antiplane_w(r):
    return min(r * r, 0.5 * r * r + 1.0)


def _antiplane_qw(r):
    """Relaxed two-well energy: the common tangent 2|F| - 1 joins the wells
    between the binodal radii 1 and 2 (slope 2 = stress of both wells there)."""
    if r <= 1.0:
        return r * r
    if r >= 2.0:
        return 0.5 * r * r + 1.0
    return 2.0 * r - 1.0


def _iso3_forces():
    """(N, p*) of the 3-D pair F- = 0.1 I, [F] = J = a (x) e1, a = (0.5, 0.2, 0.1).

    With dev sym F- = 0 and theta = tr F:  N = [f'] tr J + 2 dev(sym J) : J and
    p* = [f] + |dev sym J|^2 - {f'} tr J - dev(sym J) : J, where for this J
    sym J : J = |sym J|^2 = (|a|^2 + a1^2) / 2.
    """
    a = (0.5, 0.2, 0.1)
    f = lambda t: 1.0 - 2.0 * t**2 + t**4
    df = lambda t: -4.0 * t + 4.0 * t**3
    th_m = 0.3
    th_p = th_m + a[0]
    tr_j = a[0]
    dev_jj = 0.5 * (sum(x * x for x in a) + a[0] ** 2) - tr_j**2 / 3.0
    frak_n = (df(th_p) - df(th_m)) * tr_j + 2.0 * dev_jj
    p_star = (f(th_p) + dev_jj - f(th_m)) - 0.5 * (df(th_p) + df(th_m)) * tr_j - dev_jj
    return frak_n, p_star


_N_ISO3, _P_ISO3 = _iso3_forces()

#: Every reference the checks compare against.  The self-test perturbs these
#: to prove that a wrong reference is reported as a failure.
REFERENCES = {
    # 2-D sweep pair F+ = (1, 0), F- = (2.2, 0): [P].[F] = (2 - 2.2)(1 - 2.2) = 0.24
    # and omega_1 = 2, so the limit -omega_1 N / 2 is -0.24
    "sweep-2d": {"target": -0.24},
    # omega_2 = pi
    "sweep-3d": {"target": -math.pi * _N_ISO3 / 2.0},
    "scan-3d": {"frak_n": _N_ISO3, "p_star": _P_ISO3},
    # Maxwell pair (1, 0) / (2, 0): both stresses are (2, 0) and [W] = -2 = {P}.[F]
    "cli-exact": {"frak_n": 0.0, "p_star": 0.0, "eps_plus": 1.0, "eps_minus": 2.0,
                  "yield_radius": 2.0, "d_half": 2.0},
}


def _close(x, ref, tol=EXACT_TOL):
    return abs(float(x) - ref) <= tol * max(1.0, abs(ref))


def _csv_rows(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


@dataclass
class Op:
    """One CLI command: its config, expected exit code and output check."""

    command: str
    config: Path
    expected_exit: int
    check: Callable[[dict, Path, dict], list]
    write_out: bool = False

    def argv(self, seed: int, out: Path) -> list:
        """Arguments for ``cli.main``; ``out`` is this op's artifact directory."""
        argv = [self.command, "--config", str(self.config), "--seed", str(seed)]
        if self.write_out:
            argv += ["--out", str(out)]
        return argv


@dataclass
class Workload:
    name: str
    ops: list
    refs: dict
    #: stated accuracy of the limit for quadrature.time_to_tol_s (sweeps only)
    tol: float | None = None

    def pass_ops(self, rng: random.Random) -> list:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops


# -- checks --------------------------------------------------------------------


def _check_sweep(summary, out, refs):
    problems = []
    target = refs["target"]
    if not _close(summary["target"], target):
        problems.append(f"target {summary['target']} != {target}")
    gap = abs(summary["limit"] - target) / abs(target)
    if gap > SWEEP_MAX_GAP:
        problems.append(f"limit {summary['limit']} misses {target} by {gap:.2%}")
    lo, hi = SWEEP_RATE_RANGE
    if not lo <= summary["rate"] <= hi:
        problems.append(f"rate {summary['rate']} outside [{lo}, {hi}]")
    rows = _csv_rows(out / "sweep_h.csv")
    if [r[0] for r in rows] != summary["h_grid"]:
        problems.append("sweep_h.csv h column differs from the summary")
    return problems


def _check_forces(summary, refs, expect_ok):
    problems = []
    for key in ("frak_n", "p_star"):
        if not _close(summary[key], refs[key]):
            problems.append(f"{key} {summary[key]} != {refs[key]}")
    verdicts = summary["verdicts"]
    for key in ("maxwell_ok", "interchange_ok"):
        if verdicts[key] is not expect_ok:
            problems.append(f"verdict {key} is {verdicts[key]}, expected {expect_ok}")
    return problems


def _check_scan3d(summary, out, refs):
    return _check_forces(summary, refs, expect_ok=False)


def _check_maxwell(summary, out, refs):
    problems = _check_forces(summary, refs, expect_ok=True)
    if not summary["verdicts"]["all_ok"]:
        problems.append("Maxwell pair fails a verdict")
    return problems


def _check_path_dt(summary, out, refs):
    # symmetric double well theta = +-1: D(t) = 32 t^2 (1 - t)^2, D(1/2) = 2
    problems = []
    for t, d in _csv_rows(out / "path_dt.csv"):
        if not _close(d, 32.0 * t * t * (1.0 - t) ** 2):
            problems.append(f"D({t}) = {d}")
    if not _close(summary["d_max"], refs["d_half"]) or summary["t_argmax"] != 0.5:
        problems.append(f"max D = {summary['d_max']} at t = {summary['t_argmax']}")
    return problems


def _check_envelope(summary, out, refs):
    # along t F+ + (1 - t) F- the radius is 2 - t, inside the binodal [1, 2]
    problems = []
    for t, w, hull in _csv_rows(out / "envelope.csv"):
        r = 2.0 - t
        if not (_close(w, _antiplane_w(r)) and _close(hull, _antiplane_qw(r))):
            problems.append(f"envelope row t={t}: W={w}, hull={hull}")
    report = summary["affine_formula"]
    if not report["passed"]:
        problems.append("affine interpolation identity fails")
    for key in ("frak_n", "p_star"):
        if not _close(report[key], refs[key]):
            problems.append(f"envelope {key} {report[key]} != {refs[key]}")
    return problems


def _check_antiplane(summary, out, refs):
    problems = []
    for key in ("eps_plus", "eps_minus", "yield_radius"):
        if not _close(summary[key], refs[key]):
            problems.append(f"{key} {summary[key]} != {refs[key]}")
    if summary["max_tangency_gap"] > EXACT_TOL:
        problems.append(f"tangency gap {summary['max_tangency_gap']}")
    for r, w, qw in _csv_rows(out / "antiplane_envelope.csv"):
        if not (_close(w, _antiplane_w(r)) and _close(qw, _antiplane_qw(r))):
            problems.append(f"envelope row r={r}: W={w}, QW={qw}")
    eps_p, eps_m, yield_r = refs["eps_plus"], refs["eps_minus"], refs["yield_radius"]
    for _, r, _, px, py, on_yield in _csv_rows(out / "antiplane_loading.csv"):
        # on the plateau the stress has the yield magnitude; off it, the well's own
        inside = eps_p <= r <= eps_m
        scale = yield_r / r if inside else (2.0 if r < eps_p else 1.0)
        if bool(on_yield) != inside or not _close(math.hypot(px, py), scale * r):
            problems.append(f"loading step at |F|={r}: P=({px}, {py}), on_yield={on_yield}")
    return problems


def _check_scan2d(summary, out, refs):
    # a point strictly inside one well is stable and its smallest excess is
    # mu/2 r_min^2 at the smallest default radius r_min = 1e-3 (1 + |F|)
    problems = []
    if not summary["all_stable"]:
        problems.append("a stable point was reported unstable")
    for res in summary["results"]:
        r_f = math.hypot(*res["point"][0])
        mu = 2.0 if r_f < 1.0 else 1.0
        expected = 0.5 * mu * (1e-3 * (1.0 + r_f)) ** 2
        if not _close(res["min_value"], expected, tol=1e-6):
            problems.append(f"scan min at {res['point']}: {res['min_value']} != {expected}")
    return problems


# -- workloads -----------------------------------------------------------------


def build(name: str) -> Workload:
    refs = REFERENCES[name]
    if name == "sweep-2d":
        op = Op("sweep-h", CONFIGS / "sweep_2d.json", 0, _check_sweep, True)
        return Workload(name, [op], refs, tol=1.5e-3)
    if name == "sweep-3d":
        op = Op("sweep-h", CONFIGS / "sweep_3d.json", 0, _check_sweep, True)
        return Workload(name, [op], refs, tol=7.5e-3)
    if name == "scan-3d":
        # N and p* are nonzero, so the verdicts fail: exit 1 is the right answer
        op = Op("check", CONFIGS / "scan_3d.json", 1, _check_scan3d)
        return Workload(name, [op], refs)
    if name == "cli-exact":
        ops = [
            Op("check", CONFIGS / "check_maxwell.json", 0, _check_maxwell),
            Op("path-dt", CONFIGS / "path_dt.json", 0, _check_path_dt, True),
            Op("envelope", CONFIGS / "envelope.json", 0, _check_envelope, True),
            Op("antiplane", CONFIGS / "antiplane.json", 0, _check_antiplane, True),
            Op("scan", CONFIGS / "scan_2d.json", 0, _check_scan2d),
        ]
        return Workload(name, ops, refs)
    raise KeyError(name)


NAMES = ("sweep-2d", "sweep-3d", "scan-3d", "cli-exact")

#: config overrides that shrink each workload for the self-test
TINY = {
    "sweep-2d": {"quadrature": {"samples_bulk": 8192, "samples_slab": 65536}},
    "sweep-3d": {"quadrature": {"samples_bulk": 8192, "samples_slab": 65536}},
    "scan-3d": {"scan": {"resolution": 6}},
    "cli-exact": {},
}


def shrink(workload: Workload, out: Path) -> Workload:
    """Point every op at a copy of its config with the TINY overrides applied."""
    for op in workload.ops:
        data = json.loads(op.config.read_text(encoding="utf-8"))
        for key, value in TINY[workload.name].items():
            data[key] = {**data.get(key, {}), **value}
        tiny = out / f"tiny_{op.config.name}"
        tiny.write_text(json.dumps(data), encoding="utf-8")
        op.config = tiny
    return workload
