"""sha256 digests of the CLI output of every benchmark config.

Run from the repository root:

    PYTHONPATH=src python3 tools/output_digests.py --seeds 0 7

Each ``bench/configs/*.json``, then each ``tools/configs/*.json``, is run
through ``gradjump.cli.main`` in this process, with its command from
COMMANDS, at every seed and in both ``--format`` choices, with ``--out`` a
fresh temporary directory.  One line ``<config> <seed> <format> <sha256>``
is printed per run.  The digest covers the exit code, stdout, stderr and
every artifact, by name and content.  Two trees that print the same lines
wrote the same bytes; ``diff`` the outputs to compare them.

``tools/configs`` holds configs that reach code no benchmark config
reaches: ``sweep_two_well_3d.json`` is the criterion-1 pair in d = 3,
whose sweep samples (rqmc at the default budgets, about 0.4 s a run)
where every bench sweep takes the cubature, and
``sweep_iso_general_3d.json`` an isotropic pair in d = 3 whose normal is
no axis, with an explicit tangent ``nu``, on a grid from h = 0.5, where
pieces of the cubature take its finer rules (at h = 0.5 and 0.0125).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from gradjump import cli

TOOLS = Path(__file__).resolve().parent
#: the directories of configs, in the order they are run
CONFIG_DIRS = (TOOLS.parent / "bench" / "configs", TOOLS / "configs")

#: the command each config is written for
COMMANDS = {
    "antiplane.json": "antiplane",
    "check_maxwell.json": "check",
    "envelope.json": "envelope",
    "path_dt.json": "path-dt",
    "scan_2d.json": "scan",
    "scan_3d.json": "check",
    "sweep_2d.json": "sweep-h",
    "sweep_3d.json": "sweep-h",
    "sweep_iso_general_3d.json": "sweep-h",
    "sweep_two_well_3d.json": "sweep-h",
}

FORMATS = ("json", "csv")


def digest(config: Path, seed: int, fmt: str) -> str:
    """sha256 over the exit code, stdout, stderr and artifacts of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [COMMANDS[config.name], "--config", str(config), "--seed", str(seed),
                "--format", fmt, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        sha = hashlib.sha256()
        for part in (f"exit {code}", stdout.getvalue(), stderr.getvalue()):
            sha.update(part.encode() + b"\0")
        for path in sorted(out.rglob("*")) if out.exists() else ():
            if path.is_file():
                sha.update(path.relative_to(out).as_posix().encode() + b"\0")
                sha.update(path.read_bytes() + b"\0")
        return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = parser.parse_args(argv)
    configs = [config for folder in CONFIG_DIRS for config in sorted(folder.glob("*.json"))]
    unknown = [c.name for c in configs if c.name not in COMMANDS]
    if unknown:
        parser.error(f"no command listed for {unknown}; add them to COMMANDS")
    for config in configs:
        for seed in args.seeds:
            for fmt in FORMATS:
                print(config.name, seed, fmt, digest(config, seed, fmt), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
