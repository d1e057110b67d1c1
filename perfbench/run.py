#!/usr/bin/env python3
"""Run one hamrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hammer-uniform-24b --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ``src``. The
run sets up (median of several fresh-interpreter set-ups), then repeats one
operation of the workload until ``--seconds`` of operation time have
passed, checking every output. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced in-process
operations and prints the per-layer metrics, and writes the spans to
``.perfbench_out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("hammer-uniform-24b", "cli-clustered-24b", "cli-bv10")
SETUP_PROBES = 5
IMPORT_PROBES = 3

END_TO_END = {"hammer_s": "s", "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer times: metric -> (span name, total or self seconds), per operation.
LAYER_TIMES = {
    "core.pairwise.chs_s": ("core.pairwise.chs", "total"),
    "core.pairwise.score_s": ("core.pairwise.score", "total"),
    "core.parse_s": ("core.parse", "total"),
    "core.write_s": ("core.write", "total"),
    "core.distribution_s": ("core.distribution", "total"),
    "core.pack_s": ("core.pack", "total"),
    "analysis.chs_pass_s": ("analysis.chs_pass", "total"),
    "analysis.chs_self_s": ("analysis.chs_pass", "self"),
    "reconstruct.hammer_s": ("reconstruct.hammer", "total"),
    "reconstruct.self_s": ("reconstruct.hammer", "self"),
    "synth.sample_s": ("synth.sample", "total"),
    "metrics.merit_s": ("metrics.merit", "total"),
    "qaoa_cost.c_min_s": ("qaoa_cost.c_min", "total"),
    "qaoa_cost.curve_s": ("qaoa_cost.curve", "total"),
    "cli.stage_s.synth": ("cli.stage.synth", "total"),
    "cli.stage_s.reconstruct": ("cli.stage.reconstruct", "total"),
    "cli.stage_s.metrics": ("cli.stage.metrics", "total"),
    "cli.stage_s.qaoa": ("cli.stage.qaoa", "total"),
}
LAYER_COUNTS = ("core.pairwise_calls", "core.pairs_computed", "core.pairs_in_range",
                "core.pairwise_bytes", "reconstruct.pairs_logical", "synth.trials",
                "synth.outcomes")
# The pair-kernel layers: the XOR+popcount kernel and the mask, bincount,
# gather and sum work of the two passes around it.
PAIR_KERNEL = ("core.pairwise.chs_s", "core.pairwise.score_s", "analysis.chs_self_s",
               "reconstruct.self_s")
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "cli.import_s": "s",
    **{name: "count" for name in LAYER_COUNTS},
    "core.pairwise_bytes": "B-computed",
    "reconstruct.in_range_frac": "frac",
    "share.pairs_in_hammer": "frac",
    "share.pairs_in_op": "frac",
    "share.synth_in_op": "frac",
    "trace.overhead_frac": "frac",
}

# Interpreter that only imports hamrec and generates the workload's inputs.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.make(sys.argv[2], int(sys.argv[3])).make_input(int(sys.argv[4]), sys.argv[5])")


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _timed_subprocess(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def machine_facts() -> dict:
    import numpy as np

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown",
             "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() in ("Unified", "Data"):
                level = (index / "level").read_text().strip()
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return facts


def highest_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99, 90, 50):
        if len(samples) * (1 - p / 100) >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {value:.4g}"
    return "no percentile has 10 samples beyond it"


def attempt(runner, workload, inp, seed, oracles, corrupt):
    """Run one operation and check its outputs; returns (result, wall, problems)."""
    start = time.perf_counter()
    try:
        result = runner()
    except Exception as exc:  # a failed operation is counted, and the run goes on
        return None, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    if result.error:
        return result, wall, [result.error]
    if corrupt is not None:
        corrupt(result.outputs)
    try:
        problems = workload.check(inp, result.outputs, seed, oracles)
    except Exception as exc:  # an output the check cannot read is a failed output
        problems = [f"check failed: {type(exc).__name__}: {exc}"]
    return result, wall, problems


def layer_metrics(tracer, ops: list[int], traced_s: list[float], plain_s: list[float],
                  import_s: float) -> dict:
    """Median over traced operations of every per-layer metric."""
    per_op = []
    for op in ops:
        total, own = tracer.times(op)
        counts = tracer.counts[op]
        m = {name: (total if kind == "total" else own)[span]
             for name, (span, kind) in LAYER_TIMES.items()}
        m.update({name: counts[name] for name in LAYER_COUNTS})
        computed = counts["core.pairs_computed"]
        m["reconstruct.in_range_frac"] = counts["core.pairs_in_range"] / computed if computed else 0.0
        kernel = sum(m[name] for name in PAIR_KERNEL)
        hammer, whole = total["reconstruct.hammer"], total["op"]
        m["share.pairs_in_hammer"] = kernel / hammer if hammer else 0.0
        m["share.pairs_in_op"] = kernel / whole if whole else 0.0
        m["share.synth_in_op"] = m["synth.sample_s"] / whole if whole else 0.0
        per_op.append(m)
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics["cli.import_s"] = import_s
    untraced = statistics.median(plain_s)
    metrics["trace.overhead_frac"] = (statistics.median(traced_s) - untraced) / untraced
    return metrics


def run(workload, seed: int, seconds: float, trace: bool, corrupt=None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and human-readable lines."""
    import workloads
    from spans import Tracer

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    lines = []
    try:
        probe = [sys.executable, "-c", SETUP_PROBE, str(BENCH), workload.name,
                 str(workload.size), str(seed), str(workdir)]
        setup_s = statistics.median(_timed_subprocess(probe) for _ in range(SETUP_PROBES))
        inp = workload.make_input(seed, workdir)
        oracles = workloads.load_oracles()
        workload.warm_up(workdir)

        attempted = failed = 0
        busy = 0.0
        plain, traced, problems_seen = [], [], []
        tracer = Tracer(n_bins=(workload.width + 1) // 2)

        def measure(runner):
            nonlocal attempted, failed, busy
            result, wall, problems = attempt(runner, workload, inp, seed, oracles, corrupt)
            attempted += 1
            busy += wall
            if problems:
                failed += 1
                problems_seen.extend(problems)
            return result

        def traced_op():
            with tracer.installed(), tracer.span("op"):
                return workload.run_inprocess(inp, tracer)

        while busy < seconds or attempted == 0:
            if trace:
                plain.append(measure(lambda: workload.run_inprocess(inp)))
                tracer.op += 1
                traced.append((tracer.op, measure(traced_op)))
            else:
                plain.append(measure(lambda: workload.run(inp)))
        plain = [r for r in plain if r is not None]
        traced = [(op, r) for op, r in traced if r is not None]
        # Before anything else starts a child from this process.
        rss = resource.getrusage(workload.rusage).ru_maxrss * 1024 / 1e6
        props = workload.properties(inp) if plain and not problems_seen else {}

        lines.append("machine: " + json.dumps(machine_facts()))
        lines.append(f"input {workload.name} seed {seed}: " + json.dumps(props))
        for problem in sorted(set(problems_seen))[:10]:
            lines.append(f"FAILED CHECK: {problem}")
        lines.append(f"failed_frac: {failed / attempted:.4g} frac ({failed} failed of {attempted} attempted)")

        if trace:
            import_s = statistics.median(_timed_subprocess([sys.executable, "-c", "import hamrec"])
                                         for _ in range(IMPORT_PROBES))
            metrics = {}
            if traced and plain:
                metrics = layer_metrics(tracer, [op for op, _ in traced], [r.op_s for _, r in traced],
                                        [r.op_s for r in plain], import_s)
                props["in_range_frac"] = metrics["reconstruct.in_range_frac"]
                lines.append(f"input {workload.name} seed {seed}: " + json.dumps(props))
            units = PER_LAYER
            OUT.mkdir(exist_ok=True)
            dump = {"workload": workload.name, "seed": seed, "input": props,
                    "machine": machine_facts(), "metrics": metrics, **tracer.to_json_obj()}
            (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(dump))
            if tracer.absent:
                lines.append("absent spans: " + ", ".join(sorted(set(tracer.absent))))
        else:
            metrics = {"setup_s": setup_s, "peak_rss_mb": rss}
            for name, key in (("hammer_s", "hammer_s"), ("pipeline_s", "op_s")):
                samples = [getattr(r, key) for r in plain]
                if samples:
                    metrics[name] = statistics.median(samples)
                    lines.append(f"{name}: median {metrics[name]:.4g} s over {len(samples)} samples; "
                                 + highest_percentile(samples) + "; samples "
                                 + " ".join(f"{s:.4g}" for s in samples[:40]))
            lines.append(f"setup_s: median {setup_s:.4g} s over {SETUP_PROBES} set-ups")
            lines.append(f"peak_rss_mb: {rss:.4g} MB")
            units = END_TO_END
        result = {
            "correct": failed == 0 and set(metrics) == set(units),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory stays per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n").split("\n")
        print(f"== {name}", *out[:-1], sep="\n", flush=True)
        results[name] = json.loads(out[-1]) if proc.returncode == 0 else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/hamrec/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a hamrec checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    result, lines = run(workloads.make(args.workload), args.seed, args.seconds, bool(args.trace))
    print(*lines, sep="\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
