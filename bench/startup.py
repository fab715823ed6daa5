"""Fresh-process start-up of the gradjump CLI, and where its import time goes."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: what the ``gradjump`` console script does, with ``--version``
READY = "import sys; from gradjump.cli import main; sys.exit(main(['--version']))"

#: modules whose cumulative import time is reported: gradjump's own, in
#: import order, plus numpy and the scipy pieces behind gradjump.quadrature
#: (scipy.integrate loads through scipy.special, which has its own line)
IMPORT_MODULES = (
    "numpy", "scipy", "scipy.special", "scipy.optimize", "scipy.stats",
    "gradjump", "gradjump.errors", "gradjump.tensors", "gradjump.energies",
    "gradjump.jumps", "gradjump.interchange", "gradjump.quadrature",
    "gradjump.envelopes", "gradjump.config", "gradjump.cli",
)


def _run(args, cwd, env):
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"start-up failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return proc


def setup_seconds(cwd, env, repeats: int) -> float:
    """Median wall time from spawning a fresh interpreter to a ready CLI."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = _run(["-c", READY], cwd, env)
        times.append(time.perf_counter() - start)
        if not proc.stdout.startswith("gradjump "):
            raise RuntimeError(f"unexpected --version output {proc.stdout!r}")
    return statistics.median(times)


def import_seconds(cwd, env, repeats: int) -> dict:
    """Median cumulative import time per module from ``python -X importtime``."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(repeats):
        proc = _run(["-X", "importtime", "-c", "import gradjump.cli"], cwd, env)
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
