"""Self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

For each workload and both modes it checks that every metric named in
``BENCHMARK.json`` is emitted with its unit (end-to-end ones nonzero), that
no operation fails, and that a deliberately wrong reference is counted as a
failure.  Exits nonzero on the first broken expectation.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads


def expect(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0, trace=trace, tiny=True)
            metrics = result["metrics"]
            units = {k: v["unit"] for k, v in metrics.items()}
            expect(units == wanted[trace], f"{name} trace={trace}: metrics/units {units}")
            expect(all(math.isfinite(v["value"]) for v in metrics.values()),
                   f"{name} trace={trace}: non-finite metric")
            if not trace:
                expect(all(v["value"] > 0 for v in metrics.values()),
                       f"{name}: an end-to-end metric is 0")
            expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                   f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")

        refs = workloads.REFERENCES[name]
        key = next(iter(refs))
        right = refs[key]
        refs[key] = 1.5 * right + 0.1
        print(f"selftest {name}: wrong {key} reference, FAIL lines expected", flush=True)
        try:
            result = run.run(name, seed=1, seconds=0, trace=False, tiny=True)
        finally:
            refs[key] = right
        expect(result["failed"] > 0 and not result["correct"],
               f"{name}: a wrong reference {key} was not counted as a failure")
        print(f"selftest {name}: ok", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
