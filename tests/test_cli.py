import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gradjump.cli import main
from gradjump.config import COMMANDS, RunConfig
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
#: the criterion-1 pair in d = 3
TWO_WELL_3D = {"model": dict(MODEL, d=3),
               "pair": {"f_plus": [[1.0, 0.0, 0.0]], "f_minus": [[2.2, 0.0, 0.0]]}}
BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"
TOOLS_CONFIGS = Path(__file__).resolve().parent.parent / "tools" / "configs"
ISOTROPIC_3D = {"kind": "isotropic_theta_model", "d": 3,
                "params": {"mu": 1.0, "f_coeffs": [1, 0, -2, 0, 1]}}
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
        assert payload["weierstrass_method"] == "exact"

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_seed_sampler_and_budgets_change_nothing(self, tmp_path, capsys, d):
        # the two-well pair takes the cubature in either d: only the
        # summary's "seed" field can tell the runs apart, whether the seed
        # comes from the config or from --seed
        payload = self.payload() if d == 2 else dict(self.payload(), **TWO_WELL_3D)
        mc = {"samples_bulk": 4096, "samples_slab": 16384, "stratification": ["slab"],
              "sampler": "mc"}
        outputs = []
        for seed, quad, argv in ((3, SMALL_QUAD, []), (99, mc, []),
                                 (7, SMALL_QUAD, ["--seed", "7"])):
            cfg = write_config(tmp_path, dict(payload, seed=3 if argv else seed, quadrature=quad))
            out = tmp_path / f"seed{seed}"
            code, stdout, err = run(capsys, "sweep-h", "--config", cfg, "--out", str(out), *argv)
            summary = json.loads(stdout)
            assert code == 0 and err == "" and summary.pop("seed") == seed
            outputs.append((summary, (out / "sweep_h.csv").read_bytes()))
        assert outputs[0][0]["method"] == "cubature"
        assert repr(outputs[1]) == repr(outputs[0]) == repr(outputs[2])

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

    def test_two_well_3d_with_h_near_1(self, tmp_path, capsys):
        # the interface profile is finite for h within rounding of 1
        payload = dict(self.payload(), h_grid=[0.9999999999999999, 0.9, 0.5, 0.1],
                       **TWO_WELL_3D)
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "sweep-h", "--config", cfg)
        assert (code, err) == (0, "")
        assert json.loads(stdout)["method"] == "cubature"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap")
    def test_repeated_sweeps_keep_their_heap(self, tmp_path):
        # each h frees about a megabyte at the top of the heap, which glibc
        # gave back to the system and the next h faulted in again: with the
        # bytecode cached, 1,300 to 1,900 minor faults per sweep of the
        # bench's configs.  A fresh interpreter writes the bytecode, a second
        # one reads it and counts the faults of five sweeps after two
        src = str(Path(gj.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp_path))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for config in ("sweep_2d.json", "sweep_3d.json"):
            argv = [sys.executable, "-c", HEAP_PROBE, str(BENCH_CONFIGS / config)]
            for _ in range(2):
                proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            assert float(proc.stdout) < 50, config

    def test_too_small_h_is_one_error_line(self, tmp_path, capsys):
        # the shell 1 - sqrt(h) < |z| < 1 rounds to nothing here
        payload = self.payload()
        payload["h_grid"] = [1e-100, 5e-101, 2.5e-101, 1.25e-101]
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, "sweep-h", "--config", cfg)
        assert code == 1
        assert stdout == ""
        assert "too small" in error_line(err)

    @staticmethod
    def quadratic_sweep(tmp_path, capsys, a):
        """(code, stdout, stderr) of sweep-h on the quadratic pair with jump
        a e1 (x) e1, whose increments scale as a^2, with every warning an
        error."""
        cfg = write_config(tmp_path, {
            "model": {"kind": "quadratic", "d": 2},
            "pair": {"f_minus": [[0, 0]], "a": [a], "n": [1, 0]},
            "h_grid": [0.1, 0.05, 0.025, 0.0125]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, "sweep-h", "--config", cfg)

    @pytest.mark.parametrize("a", [1e60, 1e80, 1e100, 1e150, 2.0**100])
    def test_fit_is_scale_free(self, tmp_path, capsys, a):
        # the fit takes the values over a power of 2, so squares of values
        # near 1e300 do not overflow and the relative gap keeps its value
        # at a = 1; a power of 2 moves no bit of it
        code, stdout, _ = self.quadratic_sweep(tmp_path, capsys, 1.0)
        assert code == 0
        gap = json.loads(stdout)["relative_gap"]
        code, stdout, err = self.quadratic_sweep(tmp_path, capsys, a)
        assert (code, err) == (0, "")
        scaled_gap = json.loads(stdout)["relative_gap"]
        if a == 2.0**100:
            assert scaled_gap == gap
        assert abs(scaled_gap - gap) <= 1e-9

    def test_slope_past_the_largest_double_is_one_error_line(self, tmp_path, capsys):
        code, stdout, err = self.quadratic_sweep(tmp_path, capsys, 1e154)
        assert (code, stdout) == (1, "")
        assert "non-finite" in error_line(err)


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

    def test_small_jumps_pass_the_sign_condition(self, tmp_path, capsys):
        # [w] [mu] = -1e-400 underflowed to -0.0 and failed the sign
        # condition.  The binodal is now found, and the mechanism pairs stop
        # at the branch tie test instead: its absolute floor of 1e-10 counts
        # the two wells at |F| = 1, 1e-200 and 1.5e-200, as tied
        params = {"mu_plus": 2e-200, "mu_minus": 1e-200, "w_plus": 0.0, "w_minus": 1e-200}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "antiplane", "--config",
                                    write_config(tmp_path, {"params": params}))
        assert (code, stdout) == (1, "")
        assert error_line(err).startswith("branch tie at |F|^2 = 1:")

    @pytest.mark.parametrize(
        "params",
        [
            # [w] overflows: the binodal radii are inf and the yield radius NaN
            {"mu_plus": 2, "mu_minus": 1, "w_plus": -1e308, "w_minus": 1e308},
            # the outer radius 1.4e300 is a double, but not its square
            {"mu_plus": 1e-300, "mu_minus": 1, "w_plus": 1e300, "w_minus": 0},
            # mu+ is subnormal, and the square of the outer radius 1.4e160
            # overflows
            {"mu_plus": 1e-320, "mu_minus": 1e-154, "w_plus": 1e-154, "w_minus": -1.0},
        ],
    )
    def test_binodal_data_that_overflow_are_config_errors(self, tmp_path, capsys, params):
        cfg = write_config(tmp_path, {"params": params})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "antiplane", "--config", cfg)
        assert (code, stdout) == (2, "")
        assert error_line(err).startswith("the two-well parameters overflow double precision")

    @pytest.mark.parametrize(
        "params, path, message",
        [
            # the outer phase's volume fraction 3.5e-78 is lost where
            # theta = 1 - 3.5e-78 rounds to 1, so no laminate reproduces
            # |F| = 0.5: this ended in a ValueError traceback
            ({"mu_plus": 1e-154, "mu_minus": 1e154, "w_plus": 1e-154, "w_minus": -1.0},
             [[[0.5, 0.0]]], "volume fractions do not reproduce the macroscopic gradient"),
            # mu+ r^2 / 2 overflows on the envelope grid, and the wells tie
            # at F = 0: this printed RuntimeWarnings before its error line
            ({"mu_plus": 1e308, "mu_minus": 1e-154, "w_plus": 0.0, "w_minus": 1e-154},
             None, "branch tie at |F|^2 = 0"),
        ],
    )
    def test_extreme_moduli_are_analysis_failures(self, tmp_path, capsys, params, path, message):
        payload = {"params": params} if path is None else {"params": params, "path": path}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "antiplane", "--config", write_config(tmp_path, payload))
        assert (code, stdout) == (1, "")
        assert error_line(err).startswith(message)

    def test_a_radius_whose_ratio_underflows_is_reported(self, tmp_path, capsys):
        # the ratio under the inner root, 2e-462, underflows to 0, where the
        # root 1.4e-231 is a double
        params = {"mu_plus": 1e-154, "mu_minus": 1e154, "w_plus": 1e-154, "w_minus": -1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, _ = run(capsys, "antiplane", "--config",
                                  write_config(tmp_path, {"params": params}))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["eps_plus"] == pytest.approx(math.sqrt(2.0) * 1e-231, rel=1e-15)
        assert summary["eps_minus"] == pytest.approx(math.sqrt(2.0) * 1e77, rel=1e-15)

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

    def test_bench_points_sit_at_the_smallest_radius(self, capsys):
        # each point lies inside one well, whose excess mu/2 r^2 is least at
        # the smallest default radius 1e-3 (1 + |F|), with u = e_1, v = e_1
        code, stdout, _ = run(capsys, "scan", "--config", str(BENCH_CONFIGS / "scan_2d.json"))
        assert code == 0
        for res in json.loads(stdout)["results"]:
            norm = float(np.linalg.norm(res["point"]))
            mu = 2.0 if norm < 1.0 else 1.0
            r_lo = float(gj.default_radii(1.0 + norm)[0])
            assert (res["method"], res["r"], res["u"], res["v"]) == ("exact", r_lo, [1.0],
                                                                     [1.0, 0.0])
            assert res["min_value"] == 0.5 * mu * r_lo * r_lo

    def test_empty_radii_rejected(self, tmp_path, capsys):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]]], "radii": []}
        cfg = write_config(tmp_path, payload)
        code, _, _ = run(capsys, "scan", "--config", cfg)
        assert code == 2

    def test_point_whose_energy_overflows(self, tmp_path, capsys):
        # a finite point whose energy is not: no overflow warning, and no
        # threshold of -inf that would call the point stable
        payload = {"model": ISOTROPIC_3D, "points": [np.diag([1e153, 0.0, 0.0]).tolist()]}
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "scan", "--config", cfg)
        assert code == 2
        assert stdout == ""
        assert "point 0" in error_line(err)


    @pytest.mark.parametrize("branches", [[[1e300, 0.0], [1.0, 0.5]], [[1.0, 0.5], [1e300, 0.0]]])
    def test_point_where_one_branch_overflows(self, tmp_path, capsys, branches):
        # W = 5e19 on the finite branch, whose excess 0.5 r^2 at the smallest
        # default radius decides in either order
        payload = {"model": {"kind": "min_of_quadratics", "m": 2, "d": 2,
                             "params": {"branches": branches}},
                   "points": [[[1e10, 0.0], [0.0, 0.0]]]}
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "scan", "--config", cfg)
        assert (code, err) == (0, "")
        res = json.loads(stdout)["results"][0]
        r_lo = float(gj.default_radii(1.0 + 1e10)[0])
        assert (res["r"], res["min_value"]) == (r_lo, 0.5 * r_lo * r_lo)


class TestIsotropicCoefficients:
    """Trailing zeros of f_coeffs change no output, and a polynomial whose
    Taylor coefficients f^(j) / j! overflow is a config error."""

    @staticmethod
    def payload(command):
        if command == "scan":
            return {"model": ISOTROPIC_3D,
                    "points": [(0.1 * np.eye(3)).tolist(), (0.3 * np.eye(3)).tolist()]}
        name = "sweep_3d.json" if command == "sweep-h" else "scan_3d.json"
        return json.loads((BENCH_CONFIGS / name).read_text())

    @staticmethod
    def with_coeffs(payload, coeffs):
        model = dict(payload["model"], params=dict(payload["model"]["params"], f_coeffs=coeffs))
        return dict(payload, model=model)

    @pytest.mark.parametrize("command", ["sweep-h", "scan", "check"])
    def test_trailing_zeros_change_nothing(self, tmp_path, capsys, command):
        payload = self.payload(command)
        coeffs = payload["model"]["params"]["f_coeffs"]
        outputs = []
        for zeros in (0, 180):
            cfg = write_config(tmp_path, self.with_coeffs(payload, coeffs + [0.0] * zeros))
            outputs.append(run(capsys, command, "--config", cfg))
        assert outputs[0][1] and outputs[0][2] == ""
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("command", ["sweep-h", "scan", "check"])
    def test_degree_above_170_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.with_coeffs(self.payload(command), [1.0] * 172))
        code, stdout, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert stdout == ""
        assert "f_coeffs" in error_line(err)


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
        "radii", [[1e200, 1e250], [0.5, 2e150], {"lo": 0.1, "hi": 1e200, "num": 5}]
    )
    def test_radii_above_the_cap(self, tmp_path, capsys, radii):
        # r^2 overflows near 1.3e154: these printed a RuntimeWarning and
        # ended in a non-finite output with exit 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.rejected(tmp_path, capsys, "scan",
                          {"model": MODEL, "points": [[[0.5, 0.0]]], "radii": radii}, "radii")
            self.rejected(tmp_path, capsys, "check",
                          {"model": MODEL, "pair": EQ_PAIR, "scan": {"radii": radii}}, "radii")

    def test_radii_at_the_cap(self, tmp_path, capsys):
        payload = {"model": MODEL, "points": [[[0.5, 0.0]]], "radii": [1e150]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "scan", "--config", write_config(tmp_path, payload))
        assert (code, err) == (0, "")
        # the soft well's mu/2 r^2 is least there
        assert json.loads(stdout)["results"][0]["min_value"] == pytest.approx(0.5e300)

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

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            # |F|^2 overflows at |F| ~ 1.3e154, entry by entry or in the sum
            ("scan", {"model": MODEL, "points": [[[1e200, 0.0]]]}, "point 0"),
            ("scan", {"model": MODEL, "points": [[[0.5, 0.0]], [[1e154, 1e154]]]}, "point 1"),
            ("check", {"model": MODEL,
                       "pair": {"f_plus": [[1e200, 0.0]], "f_minus": [[-1e200, 0.0]]}},
             "f_minus"),
            ("check", {"model": MODEL,
                       "pair": {"f_plus": [[1e200, 0.0]], "f_minus": [[2.0, 0.0]]}},
             "f_plus"),
            ("envelope", {"model": MODEL,
                          "pair": {"f_plus": [[1.0, 0.0]], "f_minus": [[0.0, 2e154]]}},
             "f_minus"),
            ("sweep-h", {**SWEEP, "pair": {"f_plus": [[-1e200, 0.0]], "f_minus": [[2.0, 0.0]]}},
             "f_plus"),
            # F+ = F- + a (x) n overflows where F-, a and n do not
            ("check", {"model": MODEL,
                       "pair": {"f_minus": [[1.0, 0.0]], "a": [1e200], "n": [1.0, 0.0]}},
             "f_minus + a (x) n"),
            ("path-dt", {"model": MODEL,
                         "pair": {"f_minus": [[1e154, 0.0]], "a": [1e154], "n": [0.0, 1.0]}},
             "f_minus + a (x) n"),
            ("antiplane", {"params": REF_PARAMS, "path": [[[0.5, 0.0]], [[1e154, 1e154]]]},
             "path entry 1"),
        ],
    )
    def test_gradient_norm_overflows(self, tmp_path, capsys, command, payload, key):
        cfg = write_config(tmp_path, payload)
        code, stdout, err = run(capsys, command, "--config", cfg)
        assert (code, stdout) == (2, "")
        assert error_line(err).startswith(f"{key} overflows double precision")

    #: a pair whose endpoints are finite and whose energy at F+ is not: f
    #: overflows at tr F+ = 1e100, mu/2 |F|^2 at |F+| = 1e10
    INFINITE_ENERGY_PAIRS = {
        "isotropic-3d": {"model": ISOTROPIC_3D, "pair": {
            "f_minus": np.zeros((3, 3)).tolist(), "a": [1e100, 0.0, 0.0], "n": [1.0, 0.0, 0.0]}},
        "quadratic": {"model": {"kind": "quadratic", "m": 1, "d": 2, "params": {"mu": 1e300}},
                      "pair": {"f_plus": [[1e10, 0.0]], "f_minus": [[1.0, 0.0]]}},
    }

    @pytest.mark.parametrize("command", ["check", "envelope", "path-dt", "sweep-h"])
    @pytest.mark.parametrize("pair", INFINITE_ENERGY_PAIRS)
    def test_pair_whose_energy_is_not_finite(self, tmp_path, capsys, command, pair):
        # refused as scan refuses such a point, with no RuntimeWarning
        payload = self.INFINITE_ENERGY_PAIRS[pair]
        if command == "sweep-h":
            payload = {**payload, "h_grid": SWEEP["h_grid"]}
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, command, "--config", cfg)
        assert (code, stdout) == (2, "")
        assert error_line(err) == "pair: the energy at F+ is not finite (inf)"

    def test_residual_whose_norm_overflows_fails_its_verdict(self, tmp_path, capsys):
        # |[P]^T a| is about 1e160, whose square overflows in the norm: this
        # printed a RuntimeWarning beside its report
        payload = {"model": MODEL, "pair": {"f_plus": [[1e80, 0.0]], "f_minus": [[2.0, 0.0]]},
                   "scan": {"resolution": 8, "radii": [0.5, 1.0]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
        assert (code, err) == (1, "")
        report = json.loads(stdout)
        assert report["roughening_residual"] == [1e160, 0.0]
        assert report["verdicts"] == {
            "maxwell_ok": True, "traction_ok": False, "roughening_ok": False,
            "interchange_ok": False, "weierstrass_ok": True, "all_ok": False,
        }

    def test_nu_whose_norm_overflows(self, tmp_path, capsys):
        # this printed a RuntimeWarning before its error line
        payload = {**SWEEP, "nu": [1e200, 1.0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "sweep-h", "--config", write_config(tmp_path, payload))
        assert (code, stdout) == (2, "")
        assert error_line(err).endswith("expected a unit vector, |v| = inf")

    #: the anti-plane model with a stiff modulus whose branch value
    #: overflows at every |F| >= 1
    HUGE_MU = dict(MODEL, params=dict(REF_PARAMS, mu_plus=1.7e308))

    def test_check_where_a_branch_overflows(self, tmp_path, capsys):
        # this printed a RuntimeWarning beside its report
        payload = {"model": self.HUGE_MU, "pair": EQ_PAIR}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
        assert (code, err) == (1, "")
        assert json.loads(stdout)["verdicts"]["all_ok"] is False

    def test_sweep_where_a_branch_overflows(self, tmp_path, capsys):
        # this printed five RuntimeWarnings before its error line
        payload = {**SWEEP, "model": self.HUGE_MU}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "sweep-h", "--config", write_config(tmp_path, payload))
        assert (code, stdout) == (1, "")
        assert error_line(err) == "the estimate at h = 0.1 is not finite"

    def test_envelope_whose_energy_overflows_on_its_grid(self, tmp_path, capsys):
        # W at |F| = 1e154 overflows, and so does the Richardson step of the
        # hull slope: this printed three RuntimeWarnings before its error line
        payload = {"model": MODEL, "pair": {"f_plus": [[1e154, 0.0]], "f_minus": [[2.0, 0.0]]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "envelope", "--config", write_config(tmp_path, payload))
        assert (code, stdout) == (1, "")
        assert error_line(err) == "hull slope did not converge under grid refinement"

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


#: a bench config per command, with the exit code it gives
COMMAND_CONFIGS = {
    "check": ("check_maxwell.json", 0),
    "sweep-h": ("sweep_2d.json", 0),
    "path-dt": ("path_dt.json", 0),
    "envelope": ("envelope.json", 0),
    "antiplane": ("antiplane.json", 0),
    "scan": ("scan_2d.json", 0),
}


class TestParser:
    """One parser: the command and its four options, in either order."""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"gradjump {gj.__version__}\n"

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert command in out
        for option in ("--config", "--seed", "--out", "--format"):
            assert option in out

    @staticmethod
    def artifacts(out: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_takes_the_four_options(self, tmp_path, capsys, command):
        config, expected = COMMAND_CONFIGS[command]
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, "--config", str(BENCH_CONFIGS / config),
                                "--seed", "3", "--out", str(out), "--format", "csv")
        assert (code, err) == (expected, "")
        assert stdout
        assert f"{command.replace('-', '_')}.json" in self.artifacts(out)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_before_the_command(self, tmp_path, capsys, command):
        config, expected = COMMAND_CONFIGS[command]
        options = ["--config", str(BENCH_CONFIGS / config), "--seed", "5", "--format", "csv"]
        after, before = tmp_path / "after", tmp_path / "before"
        code_a, stdout_a, _ = run(capsys, command, *options, "--out", str(after))
        code_b, stdout_b, _ = run(capsys, "--out", str(before), *options, command)
        assert code_a == code_b == expected
        assert stdout_a == stdout_b
        assert self.artifacts(after) == self.artifacts(before)

    def test_options_first_check_on_the_3d_pair_fails_its_verdicts(self, capsys):
        code, stdout, err = run(capsys, "--config", str(BENCH_CONFIGS / "scan_3d.json"), "check")
        assert (code, err) == (1, "")
        assert json.loads(stdout)["verdicts"]["all_ok"] is False


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
            # the same errors with the options before the command
            (["--config", "{cfg}", "--seed", "abc", "check"], "--seed"),
            (["--format", "xml", "--config", "{cfg}", "check"], "--format"),
            (["--config", "{cfg}", "frobnicate"], "frobnicate"),
            ([], "--config"),
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
#: the one-process estimator does without, that it holds after importing the
#: CLI and after each sweep-h run given on its command line
#: the minor faults per sweep of five in-process sweeps of argv[1], after two
HEAP_PROBE = """
import contextlib, io, resource, sys
from gradjump.cli import main

def sweep():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep-h", "--config", sys.argv[1]]) == 0

sweep(); sweep()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    sweep()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""

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
        # every sweep config the benchmark and the output digests run
        sweeps = [str(path) for folder in (BENCH_CONFIGS, TOOLS_CONFIGS)
                  for path in sorted(folder.glob("sweep_*.json"))]
        assert len(sweeps) == 4
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

    def test_no_module_imports_scipy(self):
        package = Path(gj.__file__).resolve().parent
        found = []
        for module in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(module.read_text(), str(module))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [(module.name, name) for name in names if name.split(".")[0] == "scipy"]
        assert found == []
