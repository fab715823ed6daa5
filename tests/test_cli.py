import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradjump import forking
from gradjump.cli import main
from gradjump.config import RunConfig
import gradjump as gj

from conftest import REF_PARAMS

MODEL = {"kind": "antiplane_double_well", "m": 1, "d": 2, "params": REF_PARAMS}
EQ_PAIR = {"f_plus": [[1.0, 0.0]], "f_minus": [[2.0, 0.0]]}
NONEQ_PAIR = {"f_plus": [[1.0, 0.0]], "f_minus": [[2.2, 0.0]]}

SMALL_QUAD = {"samples_bulk": 2048, "samples_slab": 8192}
SWEEP = {
    "model": MODEL,
    "pair": NONEQ_PAIR,
    "h_grid": [0.1, 0.05, 0.025, 0.0125],
    "quadrature": SMALL_QUAD,
}
BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"
ISOTROPIC = {
    "d": 1,
    "mu": 0.0,
    "f_coeffs": [1, 0, -2, 0, 1],
    "theta_plus": 1.0,
    "theta_minus": -1.0,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_line(err: str) -> str:
    """The message of the single JSON error line a failed command prints."""
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


class TestCheck:
    def test_equilibrium_pair_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR})
        code, out, _ = run(capsys, "check", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["all_ok"] is True
        assert abs(payload["p_star"]) < 1e-12

    def test_off_equilibrium_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": NONEQ_PAIR})
        code, out, _ = run(capsys, "check", "--config", cfg)
        assert code == 1
        payload = json.loads(out)
        assert payload["verdicts"]["maxwell_ok"] is False
        assert payload["p_star"] == pytest.approx(0.10)

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "--config", str(path))
        assert code == 2
        assert "error" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR, "wat": 1})
        code, _, err = run(capsys, "check", "--config", cfg)
        assert code == 2
        assert "wat" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "check", "--config", "/nonexistent/config.json")
        assert code == 2

    def test_artifact_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR})
        out = tmp_path / "artifacts"
        code, _, _ = run(capsys, "check", "--config", cfg, "--out", str(out))
        assert code == 0
        assert json.loads((out / "check.json").read_text())["verdicts"]["all_ok"]


class TestSweepH:
    def payload(self):
        return {
            "model": MODEL,
            "pair": NONEQ_PAIR,
            "h_grid": [0.1, 0.05, 0.025, 0.0125],
            "seed": 3,
            "quadrature": SMALL_QUAD,
        }

    def test_summary_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.payload())
        out = tmp_path / "runs"
        code, stdout, _ = run(capsys, "sweep-h", "--config", cfg, "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["target"] == pytest.approx(-0.24)
        assert abs(summary["limit"] - summary["target"]) < 0.1
        text = (out / "sweep_h.csv").read_bytes().decode()
        lines = text.split("\r\n")
        assert lines[0] == "h,dE_over_h,mc_error"
        assert len(lines) == 6  # header + 4 rows + trailing newline

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.payload())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "sweep-h", "--config", cfg, "--out", str(out1))
        run(capsys, "sweep-h", "--config", cfg, "--out", str(out2))
        assert (out1 / "sweep_h.csv").read_bytes() == (out2 / "sweep_h.csv").read_bytes()

    def test_seed_override_changes_samples(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.payload())
        _, s1, _ = run(capsys, "sweep-h", "--config", cfg)
        _, s2, _ = run(capsys, "sweep-h", "--config", cfg, "--seed", "99")
        assert json.loads(s1)["dE_over_h"] != json.loads(s2)["dE_over_h"]

    def test_csv_stdout_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.payload())
        code, stdout, _ = run(capsys, "sweep-h", "--config", cfg, "--format", "csv")
        assert code == 0
        assert stdout.startswith("h,dE_over_h,mc_error\r\n")

    def test_short_grid_is_config_error(self, tmp_path, capsys):
        payload = self.payload()
        payload["h_grid"] = [0.1, 0.05]
        cfg = write_config(tmp_path, payload)
        code, _, _ = run(capsys, "sweep-h", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([0.0125, 0.025, 0.05, 0.1], "strictly decreasing"),
            ([0.1, 0.05, float("nan"), 0.0125], "finite"),
            ([0.1, 0.05, 0.025, float("inf")], "finite"),
            ([1.5, 0.05, 0.025, 0.0125], "(0, 1)"),
            ([0.1, 0.05, 0.025, -0.0125], "(0, 1)"),
            (["a", 0.05, 0.025, 0.0125], "list of numbers"),
        ],
    )
    def test_bad_grid_is_config_error(self, tmp_path, capsys, grid, message):
        payload = self.payload()
        payload["h_grid"] = grid
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, "sweep-h", "--config", cfg)
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert message in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("name", ["sweep_2d", "sweep_3d"])  # rqmc, mc
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_forked_and_serial_outputs_byte_identical(self, tmp_path, capsys, monkeypatch,
                                                      name, fmt):
        payload = json.loads((BENCH_CONFIGS / f"{name}.json").read_text())
        payload["quadrature"].update(SMALL_QUAD)
        cfg = write_config(tmp_path, payload)
        outputs = []
        for cpus in (2, 1):
            monkeypatch.setattr(forking, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            code, stdout, _ = run(capsys, "sweep-h", "--config", cfg, "--format", fmt,
                                  "--out", str(out))
            artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs.append((code, stdout, artifacts))
        assert outputs[0][0] == 0 and outputs[0][2]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "change", [{"t": 0}, {"pair": {"f_minus": [[2.2, 0.0]], "a": [0.0], "n": [1.0, 0.0]}}]
    )
    def test_no_rate_without_a_remainder(self, tmp_path, capsys, change):
        # t = 0 and a zero jump leave no remainder to take a decay rate from
        cfg = write_config(tmp_path, {**self.payload(), **change})
        code, stdout, _ = run(capsys, "sweep-h", "--config", cfg)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["rate"] is None and summary["rate_error"] is None
        assert summary["relative_gap"] is None

    def test_too_small_h_is_one_error_line(self, tmp_path, capsys):
        # the shell stratum's measure 1 - (1 - sqrt(h))^d rounds to 0 here
        payload = self.payload()
        payload["h_grid"] = [1e-100, 5e-101, 2.5e-101, 1.25e-101]
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, "sweep-h", "--config", cfg)
        assert code == 1
        assert stdout == ""
        assert "too small" in error_line(err)


class TestPathDt:
    def test_isotropic_closed_form(self, tmp_path, capsys):
        payload = {
            "isotropic": {
                "d": 1,
                "mu": 0.0,
                "f_coeffs": [1, 0, -2, 0, 1],
                "theta_plus": 1.0,
                "theta_minus": -1.0,
            },
            "t_grid": list(np.linspace(0, 1, 41)),
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "path-dt", "--config", cfg, "--out", str(out))
        assert code == 0
        rows = (out / "path_dt.csv").read_bytes().decode().strip().split("\r\n")[1:]
        for row in rows:
            t, d = (float(x) for x in row.split(","))
            assert d == pytest.approx(32 * t**2 * (1 - t) ** 2, abs=1e-10)
        summary = json.loads(stdout)
        assert summary["d_first"] == 0.0
        assert summary["warnings"] == []

    def test_incompatible_wells_warn_in_summary(self, tmp_path, capsys):
        # d = 2, mu = 1: [Phi'][theta] = 4 > 0, so no compatible normal pair exists
        cfg = write_config(tmp_path, {"isotropic": {**ISOTROPIC, "d": 2, "mu": 1.0}})
        code, stdout, err = run(capsys, "path-dt", "--config", cfg)
        assert code == 0
        assert err == ""
        (warning,) = json.loads(stdout)["warnings"]
        assert "no compatible normal pair" in warning

    def test_pair_route_equilibrium(self, tmp_path, capsys):
        payload = {"model": MODEL, "pair": EQ_PAIR, "t_grid": [0.0, 0.5, 1.0]}
        cfg = write_config(tmp_path, payload)
        code, stdout, _ = run(capsys, "path-dt", "--config", cfg)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["d_first"] == 0.0
        assert summary["d_last"] == pytest.approx(0.0, abs=1e-12)

    def test_ambiguous_config_rejected(self, tmp_path, capsys):
        payload = {
            "model": MODEL,
            "pair": EQ_PAIR,
            "isotropic": {
                "d": 1,
                "mu": 0.0,
                "f_coeffs": [1, 0, -2, 0, 1],
                "theta_plus": 1.0,
                "theta_minus": -1.0,
            },
        }
        cfg = write_config(tmp_path, payload)
        code, _, err = run(capsys, "path-dt", "--config", cfg)
        assert code == 2
        assert "not both" in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["NaN", 2.0], "finite"),
            ([0.0, float("inf")], "finite"),
            ([0.0, 0.5, 2.0], "[0, 1]"),
            ([-0.1, 0.5], "[0, 1]"),
            (["a", 0.5], "list of numbers"),
        ],
    )
    def test_bad_t_grid_is_config_error(self, tmp_path, capsys, grid, message):
        payload = {"model": MODEL, "pair": EQ_PAIR, "t_grid": grid}
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, "path-dt", "--config", cfg)
        assert code == 2
        assert stdout == ""
        assert message in error_line(err)

    def test_non_finite_output_is_analysis_failure(self, tmp_path, capsys):
        # f overflows to inf on both wells, so D(t) = inf - inf is NaN
        payload = {
            "isotropic": {
                "d": 1,
                "mu": 0.0,
                "f_coeffs": [0.0, 0.0, 1e308],
                "theta_plus": 10.0,
                "theta_minus": -10.0,
            },
            "t_grid": [0.0, 0.5, 1.0],
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code, stdout, err = run(capsys, "path-dt", "--config", cfg, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert "non-finite" in error_line(err)
        assert not out.exists()


class TestEnvelope:
    def test_equilibrium_segment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR})
        out = tmp_path / "env"
        code, stdout, _ = run(capsys, "envelope", "--config", cfg, "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["affine_formula"]["passed"] is True
        assert summary["slope_at_0"] == pytest.approx(-2.0, abs=1e-5)
        assert summary["slope_at_1"] == pytest.approx(-2.0, abs=1e-5)
        lines = (out / "envelope.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "t,W,hull"
        t, w, hull = (float(x) for x in lines[1 + 100].split(","))
        assert t == pytest.approx(0.5) and hull == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("size", [2, 0, "many", 20.5])
    def test_bad_grid_size_is_config_error(self, tmp_path, capsys, size):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR, "grid_size": size})
        code, stdout, err = run(capsys, "envelope", "--config", cfg)
        assert code == 2
        assert stdout == ""
        assert "grid_size" in error_line(err)


class TestAntiplane:
    def test_reference_parameters(self, tmp_path, capsys):
        payload = {
            "params": REF_PARAMS,
            "envelope": {"r_max": 3.0, "num": 301},
            "path": [[[r, 0.0]] for r in np.linspace(0.5, 2.5, 21)],
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "ap"
        code, stdout, _ = run(capsys, "antiplane", "--config", cfg, "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["eps_plus"] == pytest.approx(1.0)
        assert summary["eps_minus"] == pytest.approx(2.0)
        assert summary["yield_radius"] == pytest.approx(2.0)
        assert summary["max_tangency_gap"] <= 1e-10

        env = (out / "antiplane_envelope.csv").read_bytes().decode().strip().split("\r\n")
        qw = np.array([float(r.split(",")[2]) for r in env[1:]])
        assert np.all(np.diff(qw) >= -1e-12)  # monotone in |F|
        assert np.min(np.diff(qw, 2)) >= -1e-9  # convex in |F|

        load = (out / "antiplane_loading.csv").read_bytes().decode().strip().split("\r\n")
        assert load[0] == "step,f_norm,theta,p_x,p_y,on_yield"
        for row in load[1:]:
            vals = row.split(",")
            f_norm, p_x, p_y, flag = float(vals[1]), float(vals[3]), float(vals[4]), int(vals[5])
            if 1.0 <= f_norm <= 2.0:
                assert flag == 1
                assert np.hypot(p_x, p_y) == pytest.approx(2.0, abs=1e-12)

    def test_empty_binodal_is_analysis_failure(self, tmp_path, capsys):
        payload = {"params": {"mu_plus": 2.0, "mu_minus": 1.0, "w_plus": 1.0, "w_minus": 0.0}}
        cfg = write_config(tmp_path, payload)
        code, _, err = run(capsys, "antiplane", "--config", cfg)
        assert code == 1
        assert "sign condition" in err

    @pytest.mark.parametrize("count", [0, -3, "16"])
    def test_bad_mechanisms_is_config_error(self, tmp_path, capsys, count):
        cfg = write_config(tmp_path, {"params": REF_PARAMS, "mechanisms": count})
        code, stdout, err = run(capsys, "antiplane", "--config", cfg)
        assert code == 2
        assert stdout == ""
        assert "mechanisms" in error_line(err)


class TestScan:
    def test_stable_and_unstable_points(self, tmp_path, capsys):
        payload = {
            "model": MODEL,
            "points": [[[0.5, 0.0]], [[1.5, 0.0]]],
            "resolution": 32,
        }
        cfg = write_config(tmp_path, payload)
        code, stdout, _ = run(capsys, "scan", "--config", cfg)
        assert code == 1  # the binodal point is unstable
        summary = json.loads(stdout)
        assert summary["results"][0]["stable"] is True
        assert summary["results"][1]["stable"] is False
        assert summary["results"][1]["min_value"] < -0.1

    def test_all_stable_exit_zero(self, tmp_path, capsys):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]]], "resolution": 16}
        cfg = write_config(tmp_path, payload)
        code, _, _ = run(capsys, "scan", "--config", cfg)
        assert code == 0

    def test_empty_radii_rejected(self, tmp_path, capsys):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]]], "radii": []}
        cfg = write_config(tmp_path, payload)
        code, _, _ = run(capsys, "scan", "--config", cfg)
        assert code == 2


class TestNumericFrontDoor:
    """Malformed numbers give exit 2 and one JSON error line naming the key."""

    @staticmethod
    def rejected(tmp_path, capsys, command, payload, key, *argv):
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, command, "--config", cfg, *argv)
        assert code == 2
        assert stdout == ""
        assert key in error_line(err)

    @pytest.mark.parametrize("tol", ["abc", 0, -1e-10, float("nan"), float("inf"), True, None])
    def test_envelope_tol(self, tmp_path, capsys, tol):
        payload = {"model": MODEL, "pair": EQ_PAIR, "tol": tol}
        self.rejected(tmp_path, capsys, "envelope", payload, "tol")

    @pytest.mark.parametrize(
        "key, value",
        [("tol_abs", "x"), ("tol_abs", -1.0), ("tol_abs", float("nan")),
         ("tol_rel", "1e-9"), ("tol_rel", float("inf")), ("tol_rel", False)],
    )
    def test_check_tolerances(self, tmp_path, capsys, key, value):
        payload = {"model": MODEL, "pair": EQ_PAIR, "tolerances": {key: value}}
        self.rejected(tmp_path, capsys, "check", payload, key)

    @pytest.mark.parametrize("resolution", [0, -3, 1, True, "abc", 2.5, None])
    def test_check_scan_resolution(self, tmp_path, capsys, resolution):
        payload = {"model": MODEL, "pair": EQ_PAIR, "scan": {"resolution": resolution}}
        self.rejected(tmp_path, capsys, "check", payload, "resolution")

    @pytest.mark.parametrize("resolution", [0, -3, 1, True, "abc", 2.5])
    def test_scan_resolution(self, tmp_path, capsys, resolution):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]]], "resolution": resolution}
        self.rejected(tmp_path, capsys, "scan", payload, "resolution")

    @pytest.mark.parametrize(
        "radii, key",
        [
            ({"lo": "abc", "hi": 1.0, "num": 5}, "lo"),
            ({"lo": float("nan"), "hi": 1.0, "num": 5}, "lo"),
            ({"lo": 0.1, "hi": float("inf"), "num": 5}, "hi"),
            ({"lo": 0.1, "hi": 1.0, "num": 2.5}, "num"),
            ({"lo": 0.1, "hi": 1.0, "num": True}, "num"),
            (["a", 1.0], "radii"),
            ([0.5, float("nan")], "radii"),
        ],
    )
    def test_radii(self, tmp_path, capsys, radii, key):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]]], "radii": radii}
        self.rejected(tmp_path, capsys, "scan", payload, key)
        check = {"model": MODEL, "pair": EQ_PAIR, "scan": {"radii": radii}}
        self.rejected(tmp_path, capsys, "check", check, key)

    @pytest.mark.parametrize(
        "point", [[[0.5, 0.0, 1.0]], [[0.5], [0.0]], [[0.5], [0.0, 1.0]], [["a", 0.0]],
                  [[float("nan"), 0.0]]],
    )
    def test_scan_point_shape(self, tmp_path, capsys, point):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]], point]}
        self.rejected(tmp_path, capsys, "scan", payload, "point 1")

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("sweep-h", {**SWEEP, "seed": -1}, "seed"),
            ("sweep-h", {**SWEEP, "seed": 1.5}, "seed"),
            ("sweep-h", {**SWEEP, "t": [1]}, "t"),
            ("sweep-h", {**SWEEP, "quadrature": {**SMALL_QUAD, "max_error": "x"}}, "max_error"),
            ("sweep-h", {**SWEEP, "quadrature": {**SMALL_QUAD, "stratification": [["slab"]]}},
             "stratification"),
            ("sweep-h", {**SWEEP, "quadrature": {**SMALL_QUAD, "samples_bulk": 2048.9}},
             "samples_bulk"),
            ("check", {"model": MODEL, "pair": {**EQ_PAIR, "tol": "abc"}}, "tol"),
            ("check", {"model": MODEL, "pair": {**EQ_PAIR, "tol": float("nan")}}, "tol"),
            ("check", {"model": {**MODEL, "m": "x"}, "pair": EQ_PAIR}, "m"),
            ("check", {"model": {**MODEL, "m": 2}, "pair": EQ_PAIR}, "m"),
            ("check", {"model": {**MODEL, "d": 4}, "pair": EQ_PAIR}, "d"),
            ("check", {"model": {**MODEL, "gradient_mode": {"fd_step": 1e-5}}, "pair": EQ_PAIR},
             "gradient_mode"),
            ("check", {"model": {"kind": "quadratic", "params": {"mu": -1.0}}, "pair": EQ_PAIR},
             "mu"),
            ("path-dt", {"isotropic": {**ISOTROPIC, "theta_plus": "x"}}, "theta_plus"),
            # nested deeper than numpy iterates (32 dimensions)
            ("path-dt", {"isotropic": ISOTROPIC, "t_grid": json.loads("[" * 40 + "0.5" + "]" * 40)},
             "t_grid"),
            ("antiplane", {"params": {**REF_PARAMS, "mu_plus": [2.0]}}, "mu_plus"),
            ("antiplane", {"params": REF_PARAMS, "envelope": {"r_max": "x"}}, "r_max"),
            ("antiplane", {"params": REF_PARAMS, "envelope": {"num": 3.7}}, "num"),
            ("antiplane", {"params": REF_PARAMS, "path": [[["a", 0.0]]]}, "path"),
            ("antiplane", {"params": REF_PARAMS, "path": 5}, "path"),
        ],
    )
    def test_malformed_value(self, tmp_path, capsys, command, payload, key):
        self.rejected(tmp_path, capsys, command, payload, key)

    def test_negative_seed_flag(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, "sweep-h", SWEEP, "seed", "--seed", "-1")

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            # a d = 3 model with a 1 x 2 pair
            ("check", {"model": {"kind": "quadratic", "m": 1, "d": 3}, "pair": EQ_PAIR},
             "f_minus"),
            # nu of length 3 in d = 2
            ("sweep-h", {**SWEEP, "nu": [0.0, 1.0, 0.0]}, "nu"),
            # nu not a unit vector, or not orthogonal to the normal
            ("sweep-h", {**SWEEP, "nu": [0.0, 2.0]}, "nu"),
            ("sweep-h", {**SWEEP, "nu": [1.0, 0.0]}, "nu"),
            # the interchange field needs d = 2 or 3
            ("sweep-h", {**SWEEP, "model": {"kind": "quadratic", "d": 1},
                         "pair": {"f_plus": [[1.0]], "f_minus": [[2.0]]}}, "d = 2 or 3"),
            # a path entry of two rows
            ("antiplane", {"params": REF_PARAMS, "path": [[[0.5, 0.0], [1.0, 0.0]]]}, "path"),
        ],
    )
    def test_shape_mismatch(self, tmp_path, capsys, command, payload, key):
        self.rejected(tmp_path, capsys, command, payload, key)

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("sweep-h", {**SWEEP, "quadrature": {**SMALL_QUAD, "samples_bulk": 2**24 + 1}},
             "samples_bulk"),
            ("sweep-h", {**SWEEP, "quadrature": {**SMALL_QUAD, "samples_slab": 2**24 + 1}},
             "samples_slab"),
            ("check", {"model": MODEL, "pair": EQ_PAIR, "scan": {"resolution": 257}},
             "resolution"),
            ("scan", {"model": MODEL, "points": [[[0.5, 0.0]]], "resolution": 257},
             "resolution"),
            ("envelope", {"model": MODEL, "pair": EQ_PAIR, "grid_size": 2**20 + 1}, "grid_size"),
            ("antiplane", {"params": REF_PARAMS, "envelope": {"num": 2**20 + 1}}, "num"),
            ("antiplane", {"params": REF_PARAMS, "mechanisms": 2**20 + 1}, "mechanisms"),
            ("scan",
             {"model": MODEL, "points": [[[0.5, 0.0]]],
              "radii": {"lo": 0.1, "hi": 1.0, "num": 2**20 + 1}},
             "num"),
        ],
    )
    def test_count_above_cap(self, tmp_path, capsys, command, payload, key):
        self.rejected(tmp_path, capsys, command, payload, key)


class TestScanGridCap:
    """A scan grid of more than MAX_SCAN_ROWS rows (directions v x radii)
    is a config error, found before the grid is allocated."""

    HUGE_RADII = {"lo": 0.001, "hi": 10.0, "num": 2**20}
    ISOTROPIC_3D = {"kind": "isotropic_theta_model", "d": 3,
                    "params": {"mu": 1.0, "f_coeffs": [1, 0, -2, 0, 1]}}

    @pytest.fixture
    def address_space_cap(self):
        """This process's address space capped 1 GiB above its present size,
        so that a grid the check lets through fails at once instead of
        paging in memory."""
        resource = pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm to read the process size")
        with open("/proc/self/statm") as statm:
            size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = size + 2**30
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        yield
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    @pytest.mark.parametrize(
        "command, payload",
        [
            # 256^2 directions x 2^20 radii: 1.5 TiB of world grid
            ("scan", {"model": ISOTROPIC_3D, "points": [np.eye(3).tolist()],
                      "resolution": 256, "radii": HUGE_RADII}),
            ("check", {"model": MODEL, "pair": EQ_PAIR,
                       "scan": {"resolution": 256, "radii": HUGE_RADII}}),
        ],
    )
    def test_too_many_rows(self, tmp_path, capsys, address_space_cap, command, payload):
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert stdout == ""
        assert "rows" in error_line(err)

    @pytest.mark.parametrize(
        "d, resolution, radii, ok",
        [
            (2, 4, {"lo": 0.1, "hi": 1.0, "num": 2**20}, True),
            (2, 5, {"lo": 0.1, "hi": 1.0, "num": 2**20}, False),
            (3, 256, {"lo": 0.1, "hi": 1.0, "num": 64}, True),
            (3, 256, {"lo": 0.1, "hi": 1.0, "num": 65}, False),
            (3, 256, [1.0] * 64, True),
            (3, 256, [1.0] * 65, False),
            (1, 256, {"lo": 0.1, "hi": 1.0, "num": 2**20}, True),
        ],
    )
    def test_the_cap_is_inclusive(self, d, resolution, radii, ok):
        from gradjump.config import MAX_SCAN_ROWS

        assert MAX_SCAN_ROWS == 2**22
        cfg = RunConfig("scan", {"model": MODEL, "points": [[[0.5, 0.0]]],
                                 "resolution": resolution, "radii": radii})
        if ok:
            assert cfg.scan_settings(d)[0] == resolution
        else:
            with pytest.raises(gj.ConfigError, match="rows"):
                cfg.scan_settings(d)


class TestUsageErrors:
    """Usage and --out errors give exit 2, one JSON error line and no artifacts."""

    @staticmethod
    def rejected(capsys, argv, key):
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert key in error_line(err)

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["check", "--config", "{cfg}", "--seed", "abc"], "--seed"),
            (["check", "--config", "{cfg}", "--format", "xml"], "--format"),
            (["check", "--config", "{cfg}", "--bogus"], "--bogus"),
            (["frobnicate", "--config", "{cfg}"], "frobnicate"),
            (["check"], "--config"),
        ],
    )
    def test_argparse_error(self, tmp_path, capsys, argv, key):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR})
        out = tmp_path / "artifacts"
        argv = [arg.format(cfg=cfg) for arg in argv] + ["--out", str(out)]
        self.rejected(capsys, argv, key)
        assert not out.exists()

    def test_out_is_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR})
        target = tmp_path / "taken"
        target.write_text("keep")
        self.rejected(capsys, ["check", "--config", cfg, "--out", str(target)], "taken")
        assert target.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize(
        "command, blocked", [("check", "check.json"), ("path-dt", "path_dt.json")]
    )
    def test_artifact_path_is_a_directory(self, tmp_path, capsys, command, blocked):
        # path-dt writes path_dt.csv too: nothing may be written before the refusal
        cfg = write_config(tmp_path, {"model": MODEL, "pair": EQ_PAIR})
        out = tmp_path / "artifacts"
        (out / blocked).mkdir(parents=True)
        self.rejected(capsys, [command, "--config", cfg, "--out", str(out)], blocked)
        assert [p.name for p in out.iterdir()] == [blocked]
        assert not any((out / blocked).iterdir())


class TestRunConfig:
    def test_unknown_command(self):
        with pytest.raises(gj.ConfigError):
            RunConfig("frobnicate", {})

    def test_pair_from_jump_form(self):
        cfg = RunConfig(
            "check",
            {"model": MODEL, "pair": {"f_minus": [[2.0, 0.0]], "a": [-1.0], "n": [1.0, 0.0]}},
        )
        pair = cfg.pair(cfg.model())
        np.testing.assert_allclose(pair.fp, [[1.0, 0.0]])


#: a fresh interpreter reports the scipy modules, and the process-pool modules
#: a forking estimator does without, that it holds after importing the CLI and
#: after each sweep-h run given on its command line
SCIPY_PROBE = """
import contextlib, io, json, sys
roots = ("scipy", "multiprocessing", "concurrent")
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] in roots)
from gradjump.cli import main
report = {"import": loaded()}
for config in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep-h", "--config", config, "--seed", "0"])
    report[config] = (code, loaded())
print(json.dumps(report))
"""


class TestScipyFreeRuntime:
    def test_no_scipy_module_after_import_and_sweeps(self):
        sweeps = [str(BENCH_CONFIGS / "sweep_2d.json"), str(BENCH_CONFIGS / "sweep_3d.json")]
        src = str(Path(gj.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, *sweeps],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report == {"import": [], **{c: [0, []] for c in sweeps}}
