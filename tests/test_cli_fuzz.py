"""Fuzz the command-line front door with one-edit mutations of small valid configs.

Whatever the edit, a command exits 0, 1 or 2.  A config error (2), and an
analysis failure that has no report, print nothing on stdout and exactly
one JSON error line on stderr; a pass (0), and a failed verdict with its
report (1), print strict JSON (no NaN or infinity) on stdout.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradjump.cli import main

from conftest import REF_PARAMS

MODEL = {"kind": "antiplane_double_well", "m": 1, "d": 2, "params": REF_PARAMS}
PAIR = {"f_plus": [[1.0, 0.0]], "f_minus": [[2.0, 0.0]]}

#: a small valid config per command, each cheap to run
BASES = {
    "check": {"model": MODEL, "pair": PAIR, "seed": 1, "tolerances": {"tol_abs": 1e-9},
              "scan": {"resolution": 8, "radii": [0.5, 1.0]}},
    "sweep-h": {"model": MODEL, "pair": {"f_minus": [[2.2, 0.0]], "a": [-1.2], "n": [1.0, 0.0]},
                "h_grid": [0.1, 0.05, 0.025, 0.0125], "t": 1.0, "nu": [0.0, 1.0],
                "quadrature": {"samples_bulk": 1000, "samples_slab": 1000,
                               "stratification": ["slab"], "sampler": "mc", "max_error": 1.0}},
    "path-dt": {"isotropic": {"d": 1, "mu": 0.5, "f_coeffs": [1.0, 0.0, -2.0, 0.0, 1.0],
                              "theta_plus": 1.0, "theta_minus": -1.0},
                "t_grid": [0.0, 0.5, 1.0]},
    "envelope": {"model": {**MODEL, "gradient_mode": {"fd_step": 1e-5}}, "pair": PAIR,
                 "grid_size": 11, "tol": 1e-6},
    "antiplane": {"params": REF_PARAMS, "envelope": {"r_max": 3.0, "num": 11},
                  "mechanisms": 4, "path": [[[0.5, 0.0]], [1.5, 0.0]]},
    "scan": {"model": {"kind": "min_of_quadratics", "m": 1, "d": 2,
                       "params": {"branches": [[2.0, 0.0], [1.0, 1.0]]}},
             "points": [[[0.5, 0.0]]], "radii": {"lo": 0.1, "hi": 2.0, "num": 4},
             "resolution": 8},
}

#: malformed values, with one above each cap on counts; no valid large count
POOL = ["x", "1", True, False, None, [], {}, [[1.0]], json.loads("[" * 40 + "1.0" + "]" * 40),
        -1, 0, 1.5, float("nan"), float("inf"), float("-inf"), 10**400,
        2**24 + 1, 257, 2**20 + 1]

#: keys whose default is a large sample budget, so dropping them is not cheap
BUDGETS = {"quadrature", "samples_bulk", "samples_slab"}


def paths(tree, prefix=()):
    """(path, node) of every node below the root, depth first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, node in items:
        yield prefix + (key,), node
        if isinstance(node, (dict, list)):
            yield from paths(node, prefix + (key,))


def edited(tree, path, value=None, drop=False):
    copy = json.loads(json.dumps(tree))
    node = copy
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return copy


@st.composite
def mutants(draw, command):
    base = BASES[command]
    nodes = list(paths(base))
    edit = draw(st.sampled_from(["replace", "drop", "add"]))
    if edit == "replace":
        leaves = [p for p, node in nodes if not isinstance(node, (dict, list))]
        return edited(base, draw(st.sampled_from(leaves)), draw(st.sampled_from(POOL)))
    if edit == "drop":
        keys = [p for p, _ in nodes if isinstance(p[-1], str) and p[-1] not in BUDGETS]
        return edited(base, draw(st.sampled_from(keys)), drop=True)
    objects = [()] + [p for p, node in nodes if isinstance(node, dict)]
    return edited(base, draw(st.sampled_from(objects)) + ("bogus",), 1)


def reject_constant(name):
    raise AssertionError(f"non-finite {name} in stdout")


@pytest.mark.parametrize("command", sorted(BASES))
def test_one_edit_never_escapes(command, tmp_path_factory):
    config = tmp_path_factory.mktemp(command) / "config.json"

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(mutants(command))
    def check(payload):
        config.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config)])
        assert code in (0, 1, 2)
        if code == 2 or not out.getvalue():
            # a config error, or an analysis failure without a report
            assert code != 0 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert "error" in json.loads(lines[0])
        else:
            # a pass, or a failed verdict with its report (check, scan)
            json.loads(out.getvalue(), parse_constant=reject_constant)

    check()


@pytest.mark.parametrize("command", sorted(BASES))
def test_bases_are_valid(command, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASES[command]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--config", str(config)])
    assert code in (0, 1)
    json.loads(out.getvalue(), parse_constant=reject_constant)
