#!/usr/bin/env python3
"""Write the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_refs.py

For every workload at full size and the default seed it stores the
reconstructed values (``refs/<workload>.npy``, in sorted outcome order)
and, for the CLI workloads, the ``metrics`` and ``qaoa`` JSON and the
SHA-256 of the ``synth`` output for a range of seeds (``refs/<workload>.json``).
The stored files were made at the commit that introduced the benchmark;
run this again only when the program's output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from hamrec import cli  # noqa: E402

SYNTH_SEEDS = [*range(32), workloads.DEFAULT_SEED]


def main() -> None:
    seed = workloads.DEFAULT_SEED
    for name in workloads.FULL_SIZE:
        w = workloads.make(name)
        meta = {"seed": seed, "size": w.size}
        with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
            inp = w.make_input(seed, tmp)
            result = w.run(inp)
            if result.error:
                raise SystemExit(f"{name}: {result.error}")
            if isinstance(w, workloads.HammerUniform):
                out = result.outputs.output.entries
            else:
                files = result.outputs
                out = json.loads(files["recon"].read_text())
                meta["metrics"] = json.loads(files["metrics"].read_text())
                if w.ring:
                    meta["qaoa"] = json.loads(files["qaoa"].read_text())
                sha = {}
                for s in SYNTH_SEEDS:
                    argv = dict(w.stages(workloads.CliInput(s, inp.files)))["synth"]
                    if cli.main(argv) != 0:
                        raise SystemExit(f"{name}: synth failed for seed {s}")
                    sha[str(s)] = hashlib.sha256(files["counts"].read_bytes()).hexdigest()
                meta["synth_sha256"] = sha
        np.save(workloads.REFS / f"{name}.npy", np.array([out[k] for k in sorted(out)]))
        (workloads.REFS / f"{name}.json").write_text(json.dumps(meta, indent=1) + "\n")
        print(f"{name}: {len(out)} values", flush=True)


if __name__ == "__main__":
    main()
