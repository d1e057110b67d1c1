"""Command-line pipelines over the library: one executable, six subcommands.

Conventions shared by every subcommand:

* distributions travel as JSON objects mapping bitstrings to counts
  (all-integer values) or probabilities (any float present, must sum to 1);
* ``-`` as an input or output path means stdin/stdout, so stages pipe;
* exit codes: 0 success, 1 usage error or out of memory, 2 data/parse error;
* a call checks, in this order: argparse's flags; the output paths
  (``hamrec._check_outputs``: non-empty, in writable directories, and
  different files, stdout counted as one); that at most one input flag
  names stdin; the command's own flag checks (``metrics``' flag
  combination, ``qaoa``'s ``--cmin``); then it reads its inputs in flag
  order and does the work;
* a subcommand only returns its ``{path: text}`` outputs: :func:`main`
  writes them with :func:`~hamrec.core.write_files`, once all are
  computed, so a failed write leaves no file changed and stdout empty;
* a subcommand imports the library modules it uses when it runs, so a
  call loads only its own command's modules, and a usage error no numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

from . import ParseError, UsageError, __version__, _check_outputs


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here reserves 2 for
    data errors, so a usage failure is raised as a UsageError, the usage
    after its message, for :func:`main` to report like any other."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _json_text(obj) -> str:
    """``obj`` as indented JSON text ending in a newline; NaN or infinity is a UsageError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # JSON cannot hold NaN or an infinity
        raise UsageError(f"result cannot be written as JSON: {exc}") from None


def _progress(args, text: str) -> None:
    """An ``INFO`` progress line on stderr, written when ``-v`` is given."""
    if args.verbose:
        print(f"INFO {text}", file=sys.stderr)


def _correct_set(values: list[str]) -> set[str]:
    return {s for item in values for s in item.split(",") if s}


def _parse_corr(spec: str) -> tuple[str, float]:
    mask, sep, prob = spec.rpartition(":")
    if not sep or not mask:
        raise UsageError(f"correlated error must be MASK:PROB, got {spec!r}")
    try:
        q = float(prob)
    except ValueError as exc:
        raise UsageError(f"bad probability in {spec!r}") from exc
    return mask, q


def _cmd_reconstruct(args) -> dict[str, str]:
    from .core import distribution_to_json, load_distribution
    from .reconstruct import hammer

    d = load_distribution(args.input)
    _progress(args, f"loaded {len(d)} outcomes (width {d.width})")
    t0 = time.perf_counter()
    rep = hammer(d)
    wall = time.perf_counter() - t0
    _progress(args, f"reconstructed in {wall:.3f}s")
    outputs = {args.output: distribution_to_json(rep.output)}
    if args.report:
        outputs[args.report] = _json_text({**rep.to_json_obj(), "wall_time_s": wall})
    return outputs


def _cmd_spectrum(args) -> dict[str, str]:
    from .analysis import build_spectrum, spectrum_to_csv, spectrum_to_json_obj
    from .core import load_distribution

    d = load_distribution(args.input)
    spec = build_spectrum(d, _correct_set(args.correct))
    text = spectrum_to_csv(spec) if args.csv else _json_text(spectrum_to_json_obj(spec))
    return {args.output: text}


def _cmd_ehd(args) -> dict[str, str]:
    from .analysis import ehd
    from .core import load_distribution

    d = load_distribution(args.input)
    value = ehd(d, _correct_set(args.correct), mode=args.mode)
    return {args.output: _json_text({"ehd": value, "mode": args.mode, "width": d.width})}


def _ratio(num: float, den: float) -> float | None:
    """``num / den`` of two finite numbers, or None when it is not finite."""
    q = num / den if den and math.isfinite(den) else math.nan
    return q if math.isfinite(q) else None


def _cmd_metrics(args) -> dict[str, str]:
    from .core import load_distribution
    from .metrics import merit_report

    if args.before or args.after:
        if not (args.before and args.after) or args.input:
            raise UsageError("use either --input or both --before and --after")
    elif not args.input:
        raise UsageError("metrics needs --input, or --before and --after")
    correct = _correct_set(args.correct)
    paths = (args.input, args.reference, args.before, args.after)  # read in flag order
    d, reference, before, after = (load_distribution(p) if p else None for p in paths)
    if d is not None:
        return {args.output: _json_text(merit_report(d, correct, reference).to_json_obj())}
    before, after = (merit_report(x, correct, reference) for x in (before, after))
    obj = {
        "before": before.to_json_obj(),
        "after": after.to_json_obj(),
        "pst_ratio": _ratio(after.pst, before.pst),
        "ist_ratio": _ratio(after.ist, before.ist),
    }
    if reference is not None:
        obj["tvd_ratio"] = _ratio(before.tvd, after.tvd)
    return {args.output: _json_text(obj)}


def _cmd_qaoa(args) -> dict[str, str]:
    from .core import load_distribution
    from .qaoa_cost import checked_c_min, load_graph, qaoa_report

    cmin = None if args.cmin is None else checked_c_min(args.cmin)  # before any file is read
    report = qaoa_report(load_graph(args.graph), load_distribution(args.counts), cmin)
    text = report.curve.to_csv() if args.csv else _json_text(report.to_json_obj())
    return {args.output: text}


def _cmd_synth(args) -> dict[str, str]:
    from .core import distribution_to_json
    from .synth import NoiseModel, ideal_bv, sample_noisy

    model = NoiseModel(
        per_bit_flip=args.flip,
        correlated_errors=tuple(_parse_corr(s) for s in args.corr or ()),
        seed=args.seed,
    )
    counts = sample_noisy(ideal_bv(args.key), model, args.trials)
    _progress(args, f"sampled {args.trials} trials onto {len(counts)} outcomes")
    return {args.output: distribution_to_json(counts)}


# The flags that name an input file, in parser order; at most one of them may be "-" (stdin).
_INPUTS = ("input", "reference", "before", "after", "graph", "counts")


def _build_parser() -> _Parser:
    top = _Parser(prog="hamrec", description=__doc__.split("\n")[0])
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(metavar="COMMAND")

    def add(name: str, run, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.set_defaults(run=run)
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="log progress to stderr")
        p.add_argument("--output", default="-",
                       help="result path (default: stdout; '-' for stdout)")
        return p

    p = add("reconstruct", _cmd_reconstruct,
            "sharpen a noisy distribution by Hamming-neighborhood scoring")
    p.add_argument("--input", required=True, help="counts or probabilities JSON ('-' for stdin)")
    p.add_argument("--report", default=None, help="also write CHS/weights/counters/timing JSON")

    p = add("spectrum", _cmd_spectrum, "bucket outcomes by Hamming distance to the correct set")
    p.add_argument("--input", required=True)
    p.add_argument("--correct", required=True, action="append",
                   help="correct bitstring (repeat or comma-separate for several)")
    p.add_argument("--csv", action="store_true", help="emit d,bitstring,probability rows")

    p = add("ehd", _cmd_ehd, "expected Hamming distance of the error mass from the correct set")
    p.add_argument("--input", required=True)
    p.add_argument("--correct", required=True, action="append")
    p.add_argument("--mode", choices=("normalized", "raw"), default="normalized")

    p = add("metrics", _cmd_metrics,
            "success metrics (PST/IST, optional TVD) or before/after ratios")
    p.add_argument("--input", default=None)
    p.add_argument("--correct", required=True, action="append")
    p.add_argument("--reference", default=None, help="ideal distribution JSON for TVD")
    p.add_argument("--before", default=None, help="distribution before reconstruction")
    p.add_argument("--after", default=None, help="distribution after reconstruction")

    p = add("qaoa", _cmd_qaoa, "Max-Cut expected cost, cost ratio, and quality curve")
    p.add_argument("--graph", required=True, help='graph JSON {"n": ..., "edges": [[u,v,w], ...]}')
    p.add_argument("--counts", required=True, help="sampled distribution JSON")
    p.add_argument("--cmin", type=float, default=None,
                   help="known optimum (skips brute force; required above 26 vertices)")
    p.add_argument("--csv", action="store_true", help="emit the quality curve as CSV")

    p = add("synth", _cmd_synth, "sample a noisy synthetic distribution from an ideal key")
    p.add_argument("--key", required=True, help="hidden bitstring of the ideal output")
    p.add_argument("--flip", type=float, default=0.0, help="per-bit background flip probability")
    p.add_argument("--corr", action="append", default=[],
                   help="correlated error MASK:PROB (repeatable)")
    p.add_argument("--trials", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    return top


def run() -> None:
    """The process entry point of ``python -m hamrec`` and the ``hamrec``
    script: :func:`main`, then exit with its code. Freezing the heap first
    lets the interpreter's final collections skip every object (numpy's
    included), while atexit handlers, stdio flushes and file closes still
    run. :func:`main` itself never freezes, so in-process callers keep
    their collector as it was."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if "run" not in args:
            parser.error("a subcommand is required")
        _check_outputs(args.output, getattr(args, "report", None))
        stdin = [f"--{name}" for name in _INPUTS if getattr(args, name, None) == "-"]
        if len(stdin) > 1:
            raise UsageError(f"only one input can be read from stdin: {', '.join(stdin)}")
        outputs = args.run(args)
        from .core import write_files

        write_files(outputs)
        return 0
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    except BrokenPipeError:
        return 0
    except (UsageError, ParseError, OSError, MemoryError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"hamrec: error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":
    run()
