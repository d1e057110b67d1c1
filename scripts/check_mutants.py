#!/usr/bin/env python3
"""Check that the test suite still kills every catalogued mutant.

Each entry of ``MUTANTS`` names a file, an exact text in it, the text
that replaces it, the test files that must fail with the mutant in place,
and what the mutant breaks. For each entry the script copies ``src/``,
``tests/``, ``scripts/`` and ``pyproject.toml`` to a temporary directory
(``tests/test_scripts.py`` runs the scripts), applies the
mutant there and runs ``pytest -x`` on the named files. It exits non-zero
when a mutant survives, when its tests end in anything but a test failure
(a collection error is not a kill), or when an old text does not occur
exactly once in its file, so a refactor that moves the code has to update
the entry. It reads the tree it lives in and writes only to temporary
directories.

    python scripts/check_mutants.py           # every entry
    python scripts/check_mutants.py M1 M8     # the named ones

A test that fails on the unmutated tree would kill every mutant, so run
the suite first (CI runs Tier-1 before this script).

To add an entry, apply the change to a scratch copy, find a test file that
fails with it and passes without it, and prefer a mutant that a
deterministic test or a hypothesis ``@example`` kills, so the kill does
not depend on what hypothesis draws.

Two mutants are equivalent, or nearly so, and are left out:

* ``chs[0] = p.sum()`` -> ``chs[0] = 1.0`` in ``analysis.pair_histograms``:
  the probabilities sum to 1 to within a few ulps, so only the last bits
  of the CHS change.
* dropping column 0 of the score terms in ``reconstruct.hammer``:
  ``lighter[:, 0]`` is always 0, because the only outcome at distance 0
  from an outcome is the outcome itself, which is not lighter than itself.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIR_TESTS = ("tests/test_pair_kernel.py",)
LOADING_TESTS = ("tests/test_loading.py",)
# The flag checks of cli._cmd_metrics and the reads they guard.
METRICS_FLAG_CHECKS = (
    "    if args.before or args.after:\n"
    "        if not (args.before and args.after) or args.input:\n"
    '            raise UsageError("use either --input or both --before and --after")\n'
    "    elif not args.input:\n"
    '        raise UsageError("metrics needs --input, or --before and --after")\n'
)
METRICS_READS = (
    "    correct = _correct_set(args.correct)\n"
    "    paths = (args.input, args.reference, args.before, args.after)  # read in flag order\n"
    "    d, reference, before, after = (load_distribution(p) if p else None for p in paths)\n"
)

# The --cmin check of cli._cmd_qaoa and the two reads it comes before.
QAOA_CMIN_CHECK = (
    "    cmin = None if args.cmin is None else checked_c_min(args.cmin)  # before any file is read\n"
)
QAOA_READS = "    report = qaoa_report(load_graph(args.graph), load_distribution(args.counts), cmin)\n"
QAOA_READS_FIRST = (
    "    graph, d = load_graph(args.graph), load_distribution(args.counts)\n"
    + QAOA_CMIN_CHECK
    + "    report = qaoa_report(graph, d, cmin)\n"
)


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple
    breaks: str


MUTANTS = [
    # The pair pass (src/hamrec/analysis.py).
    Mutant("M1", "src/hamrec/analysis.py",
           "near[r] += 2 * np.bincount(row[g:i]", "near[r] += np.bincount(row[g:i]",
           PAIR_TESTS, "the column path counts a tie pair once in the CHS, not twice"),
    Mutant("M2", "src/hamrec/analysis.py", "    counts[own] = 0\n", "",
           PAIR_TESTS, "the tie-group path counts a row's own tie group as lighter"),
    Mutant("M3", "src/hamrec/analysis.py",
           "(group[:stop] * span)", "(group[:stop] * k)",
           PAIR_TESTS, "the tie-group keys of neighbouring groups overlap"),
    Mutant("M4", "src/hamrec/analysis.py",
           "np.arange(n) < gstart[:, None]", "np.arange(n) <= gstart[:, None]",
           PAIR_TESTS, "the square path counts the first outcome of a row's tie group as lighter"),
    Mutant("M5", "src/hamrec/analysis.py",
           "near = counts.sum(axis=1) + counts[own]", "near = counts.sum(axis=1)",
           PAIR_TESTS, "the tie-group path counts a tie pair once in the CHS, not twice"),
    Mutant("M6", "src/hamrec/analysis.py",
           "np.bincount(row[:g], weights=p[:g]", "np.bincount(row[:i], weights=p[:i]",
           PAIR_TESTS, "the column path counts a row's ties as lighter"),
    Mutant("M7", "src/hamrec/analysis.py",
           "    return PairHistograms(chs=chs, lighter=lighter, pairs_computed=pairs)",
           "    chs[1] *= 1.001\n"
           "    return PairHistograms(chs=chs, lighter=lighter, pairs_computed=pairs)",
           PAIR_TESTS, "the row blocks' CHS drifts at distance 1"),
    # Elsewhere.
    Mutant("M8", "src/hamrec/reconstruct.py",
           "np.maximum(raw / raw.sum(), math.ulp(0.0))", "raw / raw.sum()",
           ("tests/test_reconstruct.py",), "hammer drops an outcome whose output underflows to 0"),
    Mutant("M9", "src/hamrec/analysis.py",
           "if not (values >= 0).all():", "if (values < 0).any():",
           ("tests/test_analysis.py",), "a CHS or weight vector accepts NaN"),
    Mutant("M10", "src/hamrec/reconstruct.py", "(probs < px)", "(probs <= px)",
           ("tests/test_reconstruct.py",),
           "neighborhood_score lets tied neighbours feed each other"),
    Mutant("M11", "src/hamrec/core.py",
           "abs(total - 1.0) > PROB_SUM_TOL", "abs(total - 1.0) > 10 * PROB_SUM_TOL",
           ("tests/test_core.py",), "probabilities 5e-9 off a sum of 1 are accepted"),
    Mutant("M12", "src/hamrec/core.py", "        probs.flags.writeable = False\n", "",
           ("tests/test_reconstruct.py",), "a derived distribution's weights stay writable"),
    # Checks that run before the work they guard.
    Mutant("M13", "src/hamrec/qaoa_cost.py",
           "    c_exp = expected_cost(g, d)  # checks the width before c_min's brute force\n"
           "    cmin = c_min(g) if c_min_override is None else c_min_override\n",
           "    cmin = c_min(g) if c_min_override is None else c_min_override\n"
           "    c_exp = expected_cost(g, d)\n",
           ("tests/test_qaoa.py",), "cost_ratio brute-forces C_min before the width check"),
    Mutant("M14", "src/hamrec/cli.py", METRICS_FLAG_CHECKS + METRICS_READS,
           METRICS_READS + METRICS_FLAG_CHECKS,
           ("tests/test_cli.py",), "metrics reads its inputs before it checks its flags"),
    Mutant("M15", "src/hamrec/cli.py", QAOA_CMIN_CHECK + QAOA_READS, QAOA_READS_FIRST,
           ("tests/test_cli.py",), "qaoa reads --graph and --counts before it checks --cmin"),
    # One cost pass, one C_min search.
    Mutant("M16", "scripts/run_qaoa_pipeline.py",
           "recon = qaoa_report(graph, hammer(counts).output, c_min_override=cmin)",
           "recon = qaoa_report(graph, hammer(counts).output)",
           ("tests/test_scripts.py",), "the QAOA script brute-forces C_min twice"),
    # Bounds and signs in qaoa_cost.py.
    Mutant("M17", "src/hamrec/qaoa_cost.py", "0 <= u < self.n_vertices", "0 <= u <= self.n_vertices",
           ("tests/test_qaoa.py",), "a graph accepts a first endpoint equal to the vertex count"),
    Mutant("M18", "src/hamrec/qaoa_cost.py",
           "np.divide(costs, cmin) + 0.0", "np.divide(costs, cmin) - 0.0",
           ("tests/test_qaoa.py",), "a zero cost ratio is -0.0, and qaoa --csv writes -0.0"),
    Mutant("M19", "src/hamrec/qaoa_cost.py", "n > BRUTE_FORCE_LIMIT", "n >= BRUTE_FORCE_LIMIT",
           ("tests/test_qaoa.py",), "c_min refuses a graph of exactly BRUTE_FORCE_LIMIT vertices"),
    # cost_ratio keeps its own path: only the expected cost's ratio must be finite.
    Mutant("M20", "src/hamrec/qaoa_cost.py",
           "    return float(_ratios(c_exp, checked_c_min(cmin)))\n",
           "    return qaoa_report(g, d, cmin).cr\n",
           ("tests/test_qaoa.py",), "cost_ratio fails when one outcome's ratio overflows"),
    # The one integer rule and the one float conversion (src/hamrec/core.py).
    Mutant("M21", "src/hamrec/core.py", "value >= minimum", "value > minimum",
           ("tests/test_gate.py",), "every integer parameter rejects its own minimum"),
    Mutant("M22", "src/hamrec/core.py",
           "    try:\n"
           "        return float(value)\n"
           "    except OverflowError:\n"
           "        return math.inf if value > 0 else -math.inf\n",
           "    return float(value)\n",
           ("tests/test_gate.py",), "an integer beyond float range raises a bare OverflowError"),
    # A call loads only its command's modules, and only the process freezes (src/hamrec/cli.py).
    Mutant("M23", "src/hamrec/cli.py",
           "from . import ParseError, UsageError, __version__, _check_outputs\n",
           "from . import ParseError, UsageError, __version__, _check_outputs\n"
           "from .reconstruct import hammer\n",
           LOADING_TESTS, "every call, a usage error included, loads numpy and hammer's modules"),
    Mutant("M24", "src/hamrec/cli.py",
           "    gc.freeze()\n    raise SystemExit(code)\n\n\ndef main(argv=None) -> int:\n    try:\n",
           "    raise SystemExit(code)\n\n\ndef main(argv=None) -> int:\n    gc.freeze()\n    try:\n",
           LOADING_TESTS, "an in-process cli.main freezes its caller's heap"),
    # One writer for files and stdout, and the output check looks where it writes.
    Mutant("M25", "src/hamrec/__init__.py",
           'for path in (p for p in paths + targets if p != "-"):',
           'for path in (p for p in paths if p != "-"):',
           ("tests/test_cli.py",), "a dangling output link passes the check and the work runs"),
    Mutant("M26", "src/hamrec/core.py",
           'for path, text in ((p, t) for p, t in texts.items() if p != "-"):',
           "for path, text in texts.items():",
           ("tests/test_core.py",), 'write_files stages "-" as a file named -'),
    # One distance-type rule: the narrowest type that holds the largest distance.
    Mutant("M27", "src/hamrec/core.py",
           "np.min_scalar_type(8 * a.dtype.itemsize * a.shape[1])", "np.uint8",
           PAIR_TESTS, "pairwise_distances wraps distances of 256 and more to their low byte"),
    Mutant("M28", "src/hamrec/analysis.py",
           "    out = np.empty(size, dtype=np.min_scalar_type(span - 1))\n",
           "    out = np.empty(size, dtype=np.uint8)\n",
           PAIR_TESTS, "the row blocks wrap distances of 256 and more to their low byte"),
    # One file boundary: every write checks its outputs, and stdin is read at most once.
    Mutant("M29", "src/hamrec/core.py", "    _check_outputs(*texts)\n", "",
           ("tests/test_core.py",), "save_distribution stages a file for a path the CLI refuses"),
    Mutant("M30", "src/hamrec/cli.py",
           "        if len(stdin) > 1:\n"
           '            raise UsageError(f"only one input can be read from stdin: '
           """{', '.join(stdin)}")\n""",
           "", ("tests/test_cli.py",), "a second stdin input reads nothing and is a data error"),
]


def apply(tree: pathlib.Path, m: Mutant) -> str | None:
    """Apply ``m`` inside ``tree``; the reason it cannot be applied, or None."""
    path = tree / m.file
    text = path.read_text()
    found = text.count(m.old)
    if found != 1:
        return f"old text occurs {found} times in {m.file}, not once"
    path.write_text(text.replace(m.old, m.new))
    return None


def check(m: Mutant) -> tuple[bool, str]:
    """(killed, one line on how the run went)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{m.name}-") as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        problem = apply(tree, m)
        if problem:
            return False, problem
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--hypothesis-profile=mutants", *m.tests],
                              cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    if proc.returncode == 1:
        return True, f"killed in {seconds:.1f} s: {summary}"
    if proc.returncode == 0:
        return False, f"SURVIVED: {summary}"
    return False, f"tests did not run (pytest exit {proc.returncode}): {summary}"


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = []
    for m in MUTANTS:
        if argv and m.name not in argv:
            continue
        killed, how = check(m)
        print(f"{m.name} {m.file} ({m.breaks}): {how}", flush=True)
        if not killed:
            failed.append(m.name)
    if failed:
        print(f"not killed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
