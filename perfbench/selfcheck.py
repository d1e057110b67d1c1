#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at toy sizes.

    python3 perfbench/selfcheck.py

Runs every workload at a toy size (200 outcomes, or 4 096 trials) for one
operation, untraced and traced, and asserts that each run emits exactly
the metrics that ``BENCHMARK.json`` names, with their units, and no failed
operation. Then it corrupts one output value of each workload by one part
in a million and asserts that the operation is counted as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TOY_SIZE = {"hammer-uniform-24b": 200, "cli-clustered-24b": 4096, "cli-bv10": 4096}


def corrupt(outputs) -> None:
    """Scale the heaviest output value, which every check looks at."""
    if isinstance(outputs, dict):
        recon = json.loads(outputs["recon"].read_text())
        recon[max(recon, key=recon.get)] *= 1 + 1e-6
        outputs["recon"].write_text(json.dumps(recon))
    else:
        entries = outputs.output.entries
        entries[max(entries, key=entries.get)] *= 1 + 1e-6


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name, size in TOY_SIZE.items():
        workload = workloads.make(name, size)
        for trace in (False, True):
            result, lines = run.run(workload, 7, 0.0, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == wanted[trace], (name, trace, set(emitted) ^ set(wanted[trace]))
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        result, lines = run.run(workload, 7, 0.0, False, corrupt=corrupt)
        assert not result["correct"] and result["failed"] == result["attempted"] >= 1, (name, lines)
        print(f"{name}: ok ({result['failed']} of {result['attempted']} operations failed on corrupted output)")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
