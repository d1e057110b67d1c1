"""The benchmark's workloads: input generation, one operation, output checks.

Each workload runs as a closed loop of one client: the next operation
starts only after the previous one has finished. Operations are sized so
that one benchmark run fits a 2-core machine with no threads.

* ``hammer-uniform-24b``: one library ``hammer()`` call on distinct uniform
  24-bit outcomes with distinct probabilities, generated exactly as
  acceptance criterion 5 does. About 42% of pairs are in range and no
  probabilities tie, so the two pair passes take ~99% of the time.
* ``cli-clustered-24b``: ``hamrec synth | reconstruct | metrics`` as
  subprocesses on a hardware-like 24-bit histogram with ~20k outcomes.
  99% of pairs are in range and almost every outcome shares its count
  with others, so pruning or tie-group changes behave differently here.
* ``cli-bv10``: the README pipeline plus ``hamrec qaoa`` on a 10-vertex
  ring. ~150 outcomes, so the pair kernels are bypassed and the time goes
  to the sampler and to interpreter starts.

The program receives only the generated inputs: the synth seed on the
command line, or the outcome map for the library call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import hamrec  # noqa: E402
from hamrec import cli, core, reconstruct  # noqa: E402

if not Path(hamrec.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"hamrec imported from {hamrec.__file__}, not from {SRC}")

DEFAULT_SEED = 2024
VALUE_TOL = 1e-12  # output values against stored references and oracles
SUM_TOL = 1e-9  # output probabilities sum to 1
ORACLE_ROWS = 8  # seeded rows checked with score_oracle, plus the heaviest
ROW_REL_TOL = 1e-10  # agreement of the rows' implied normalisation constant


def load_oracles():
    """The brute-force reference implementations of ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class OpResult:
    """Timing and outputs of one operation."""

    op_s: float
    hammer_s: float  # the operation's hammer() call
    outputs: object
    error: str | None = None


def input_properties(weights, width: int) -> dict:
    """Input facts that later optimisations depend on."""
    values, counts = np.unique(np.asarray(list(weights)), return_counts=True)
    n = int(counts.sum())
    return {
        "n": n,
        "width": width,
        "tie_frac": float(counts[counts > 1].sum() / n),
        "distinct_weights": int(len(values)),
    }


def _close(a, b) -> bool:
    """Numbers within VALUE_TOL (absolute or relative); others equal; recursive."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL)
    return a == b


def check_reconstruction(p, out, weights, chs, counters, width, reference, seed, oracles, full):
    """Problems found in one reconstruction of the probabilities ``p``.

    ``full`` compares every value with ``hammer_oracle``; otherwise a seeded
    sample of rows is scored with ``score_oracle`` and the report's weights.
    """
    if out.keys() != p.keys():
        return ["reconstruction does not keep the input's support"]
    problems = []
    keys = sorted(out)
    values = np.array([out[k] for k in keys], dtype=float)
    if not np.all(np.isfinite(values) & (values > 0)):
        problems.append("reconstruction has non-positive or non-finite values")
    if abs(math.fsum(values) - 1.0) > SUM_TOL:
        problems.append(f"reconstruction sums to {math.fsum(values)!r}")
    n = len(p)
    expected = {"pair_evaluations_step1": n * n, "pair_evaluations_step3": n * n,
                "normalization_steps": n}
    if counters != expected:
        problems.append(f"report counters {counters} differ from {expected}")
    if chs[0] == 0 or abs(chs[0] - 1.0) > SUM_TOL or weights != [1.0 / c if c > 0 else 0.0 for c in chs]:
        problems.append("report weights are not the reciprocals of a CHS with CHS[0] = 1")
    if reference is not None:
        if reference.shape != values.shape or np.max(np.abs(values - reference)) > VALUE_TOL:
            problems.append("reconstruction differs from the stored reference")
    if full:
        oracle = oracles.hammer_oracle(p, width)
        worst = max(abs(out[k] - oracle[k]) for k in keys)
        if worst > VALUE_TOL:
            problems.append(f"reconstruction differs from hammer_oracle by {worst:.3g}")
    else:
        rows = random.Random(seed).sample(keys, min(ORACLE_ROWS, n)) + [max(p, key=p.get)]
        implied = [oracles.score_oracle(p, x, weights, width) * p[x] / out[x] for x in rows]
        if max(implied) - min(implied) > ROW_REL_TOL * min(implied):
            problems.append("sampled rows disagree with score_oracle")
    return problems


class _Workload:
    name: str
    size: int

    @functools.cached_property
    def reference(self) -> dict | None:
        """Stored outputs of the seed commit at full size, or None at other sizes."""
        meta = json.loads((REFS / f"{self.name}.json").read_text())
        if meta["size"] != self.size:
            return None
        meta["values"] = np.load(REFS / f"{self.name}.npy")
        return meta


class HammerUniform(_Workload):
    """One library ``hammer()`` call; the operation includes building the
    input ``Distribution``, as a library user would."""

    name = "hammer-uniform-24b"
    width = 24
    rusage = resource.RUSAGE_SELF

    def __init__(self, size: int = 20000):
        self.size = size

    def make_input(self, seed: int, workdir) -> dict:
        """Acceptance criterion 5's generator (for its size of 20 000)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        values = np.unique(rng.integers(0, 2 ** self.width, size=self.size * 3 // 2))
        rng.shuffle(values)
        values = values[: self.size]
        raw = rng.random(self.size) + 0.01
        raw /= raw.sum()
        return {format(int(v), f"0{self.width}b"): float(x) for v, x in zip(values, raw)}

    def warm_up(self, workdir) -> None:
        self.run(HammerUniform(200).make_input(0, workdir))

    def run(self, entries: dict, tracer=None) -> OpResult:
        # Looked up at call time, so that a tracer's wrappers apply.
        start = time.perf_counter()
        d = core.Distribution(width=self.width, entries=entries, kind="probabilities")
        mid = time.perf_counter()
        report = reconstruct.hammer(d)
        stop = time.perf_counter()
        return OpResult(op_s=stop - start, hammer_s=stop - mid, outputs=report)

    run_inprocess = run

    def properties(self, entries: dict) -> dict:
        return input_properties(entries.values(), self.width)

    def check(self, entries: dict, report, seed: int, oracles) -> list[str]:
        ref = self.reference
        counters = {k: getattr(report, k) for k in
                    ("pair_evaluations_step1", "pair_evaluations_step3", "normalization_steps")}
        return check_reconstruction(
            entries, report.output.entries, report.weights.values.tolist(),
            report.chs.values.tolist(), counters, self.width,
            ref["values"] if ref and ref["seed"] == seed else None, seed, oracles, full=False,
        )


@dataclass(frozen=True)
class CliInput:
    seed: int
    files: dict


class CliPipeline(_Workload):
    """``hamrec synth | reconstruct | metrics [| qaoa]`` on files.

    ``run`` starts each stage as its own interpreter, as a shell user
    would; ``run_inprocess`` calls ``hamrec.cli.main`` for each stage.
    ``hammer_s`` is the ``hammer()`` wall time that ``reconstruct --report``
    states (``wall_time_s``); the stage's own wall time is mostly its
    interpreter's start on ``cli-bv10``.
    """

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, name, key, flip, corr, size, ring=False, full_oracle=False):
        self.name, self.key, self.flip, self.corr = name, key, flip, corr
        self.width = len(key)
        self.size = size  # trials
        self.ring = ring
        self.full_oracle = full_oracle

    def make_input(self, seed: int, workdir) -> CliInput:
        files = {k: Path(workdir) / f"{k}.json"
                 for k in ("counts", "recon", "report", "metrics", "qaoa", "graph")}
        if self.ring:
            n = self.width
            graph = {"n": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}
            files["graph"].write_text(json.dumps(graph))
        return CliInput(seed=seed, files=files)

    def warm_up(self, workdir) -> None:
        pass

    def stages(self, inp: CliInput) -> list[tuple[str, list[str]]]:
        f = {k: str(v) for k, v in inp.files.items()}
        stages = [
            ("synth", ["synth", "--key", self.key, "--flip", self.flip, "--corr", self.corr,
                       "--trials", str(self.size), "--seed", str(inp.seed), "--output", f["counts"]]),
            ("reconstruct", ["reconstruct", "--input", f["counts"], "--output", f["recon"],
                             "--report", f["report"]]),
            ("metrics", ["metrics", "--before", f["counts"], "--after", f["recon"],
                         "--correct", self.key, "--output", f["metrics"]]),
        ]
        if self.ring:
            stages.append(("qaoa", ["qaoa", "--graph", f["graph"], "--counts", f["recon"],
                                    "--output", f["qaoa"]]))
        return stages

    def run(self, inp: CliInput) -> OpResult:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

        def stage(sub, argv):
            proc = subprocess.run([sys.executable, "-m", "hamrec", *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            return proc.returncode, proc.stderr.strip()[-300:]

        return self._pipeline(inp, stage)

    def run_inprocess(self, inp: CliInput, tracer=None) -> OpResult:
        def stage(sub, argv):
            with tracer.span(f"cli.stage.{sub}") if tracer else contextlib.nullcontext():
                return cli.main(argv), ""

        return self._pipeline(inp, stage)

    def _pipeline(self, inp: CliInput, stage) -> OpResult:
        for k in ("counts", "recon", "report", "metrics", "qaoa"):
            inp.files[k].unlink(missing_ok=True)
        start = time.perf_counter()
        for sub, argv in self.stages(inp):
            code, err = stage(sub, argv)
            if code != 0:
                return OpResult(time.perf_counter() - start, 0.0, inp.files,
                                f"{sub} exited {code}: {err}")
        op_s = time.perf_counter() - start
        report = json.loads(inp.files["report"].read_text())
        return OpResult(op_s, report["wall_time_s"], inp.files)

    def properties(self, inp: CliInput) -> dict:
        counts = json.loads(inp.files["counts"].read_text())
        return input_properties(counts.values(), self.width)

    def check(self, inp: CliInput, files: dict, seed: int, oracles) -> list[str]:
        problems = []
        ref = self.reference
        at_ref = ref is not None and ref["seed"] == seed
        raw = files["counts"].read_bytes()
        sha = ref["synth_sha256"].get(str(seed)) if ref else None
        if sha is not None and hashlib.sha256(raw).hexdigest() != sha:
            problems.append("synth output is not byte-identical to the reference")
        counts = json.loads(raw)
        total = sum(counts.values())
        if total != self.size or any(len(k) != self.width for k in counts):
            problems.append("synth output has the wrong trial count or width")
        p = {k: v / total for k, v in counts.items()}
        recon = json.loads(files["recon"].read_text())
        report = json.loads(files["report"].read_text())
        counters = {k: report.get(k) for k in
                    ("pair_evaluations_step1", "pair_evaluations_step3", "normalization_steps")}
        problems += check_reconstruction(
            p, recon, report["weights"], report["chs"], counters, self.width,
            ref["values"] if at_ref else None, seed, oracles, full=self.full_oracle,
        )
        if problems:
            return problems
        merit = json.loads(files["metrics"].read_text())
        if not _close(merit, _metrics_oracle(p, recon, self.key)):
            problems.append("metrics output differs from the independent computation")
        if at_ref and not _close(merit, ref["metrics"]):
            problems.append("metrics output differs from the stored reference")
        if self.ring:
            qaoa = json.loads(files["qaoa"].read_text())
            graph = json.loads(files["graph"].read_text())
            if not _close(qaoa, _qaoa_oracle(recon, graph, oracles)):
                problems.append("qaoa output differs from the oracle")
            if at_ref and not _close(qaoa, ref["qaoa"]):
                problems.append("qaoa output differs from the stored reference")
        return problems


def _merit(p: dict, correct: str) -> dict:
    best_correct = p.get(correct, 0.0)
    best_wrong = max((v for k, v in p.items() if k != correct), default=0.0)
    ist = math.inf if best_wrong == 0.0 else best_correct / best_wrong
    return {"pst": p.get(correct, 0.0), "ist": None if math.isinf(ist) else ist,
            "ist_infinite": math.isinf(ist)}


def _metrics_oracle(before: dict, after: dict, correct: str) -> dict:
    b, a = _merit(before, correct), _merit(after, correct)

    def ratio(num, den):
        return None if num is None or not den else num / den

    return {"before": b, "after": a, "pst_ratio": ratio(a["pst"], b["pst"]),
            "ist_ratio": ratio(a["ist"], b["ist"])}


def _qaoa_oracle(p: dict, graph: dict, oracles) -> dict:
    n, edges = graph["n"], graph["edges"]
    cmin = oracles.c_min_oracle(n, edges)
    cost = {x: oracles.cut_cost_oracle(n, edges, x) for x in p}
    c_exp = sum(p[x] * cost[x] for x in p)
    mass: dict[float, float] = {}
    for x in sorted(p):
        ratio = cost[x] / cmin + 0.0
        mass[ratio] = mass.get(ratio, 0.0) + p[x]
    curve, running = [], 0.0
    for ratio in sorted(mass, reverse=True):
        running += mass[ratio]
        curve.append([ratio, running])
    return {"c_exp": c_exp, "c_min": cmin, "cr": c_exp / cmin + 0.0, "curve": curve}


FULL_SIZE = {"hammer-uniform-24b": 20000, "cli-clustered-24b": 262144, "cli-bv10": 262144}


def make(name: str, size: int | None = None):
    """The workload called ``name``, at its full size unless ``size`` is given."""
    size = FULL_SIZE[name] if size is None else size
    if name == "hammer-uniform-24b":
        return HammerUniform(size)
    if name == "cli-clustered-24b":
        return CliPipeline(name, "101101001110010110100101", "0.08",
                           "000000001100000000000000:0.05", size)
    if name == "cli-bv10":
        return CliPipeline(name, "1010101010", "0.02", "0000110000:0.2", size,
                           ring=True, full_oracle=True)
    raise KeyError(name)
