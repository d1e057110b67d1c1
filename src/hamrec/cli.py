"""Command-line pipelines over the library: one executable, six subcommands.

Conventions shared by every subcommand:

* distributions travel as JSON objects mapping bitstrings to counts
  (all-integer values) or probabilities (any float present, must sum to 1);
* ``-`` as an input or output path means stdin/stdout, so stages pipe;
* exit codes: 0 success, 1 usage error or out of memory, 2 data/parse error;
* inputs and flags are validated fully before any output file is written,
  a command's output paths must name different files, and its output
  files are replaced together once all their contents are computed, so a
  failed write leaves none of them changed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

from . import __version__
from .analysis import build_spectrum, ehd, spectrum_to_csv, spectrum_to_json_obj
from .core import (
    ParseError,
    UsageError,
    as_probabilities,
    distribution_to_json,
    load_distribution,
    write_files,
)
from .metrics import merit_report
from .qaoa_cost import c_min, cost_ratio, expected_cost, load_graph, quality_curve
from .reconstruct import hammer
from .synth import NoiseModel, ideal_bv, sample_noisy

log = logging.getLogger("hamrec")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here reserves 2 for
    data errors, so usage failures are remapped to exit code 1, and their
    message comes first, as ``hamrec: error:`` like every other failure."""

    def error(self, message):
        self.exit(1, f"hamrec: error: {message}\n{self.format_usage()}")


def _ensure_writable(*paths: str | None) -> None:
    """Each output path of one command is non-empty, writable and a different file."""
    files = [p for p in paths if p not in (None, "-")]
    if "" in files:
        raise UsageError("output path must not be empty")
    if len({os.path.realpath(p) for p in files}) < len(files):
        raise UsageError(f"output paths name the same file: {', '.join(files)}")
    for path in files:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise UsageError(f"output directory does not exist: {parent}")
        if os.path.exists(path):
            if not os.path.isfile(path) or not os.access(path, os.W_OK):
                raise UsageError(f"output path not writable: {path}")
        elif not os.access(parent, os.W_OK):
            raise UsageError(f"output directory not writable: {parent}")


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each ``(text, path)`` output, None or "-" meaning stdout.

    Every text is computed before this is called; the files are written
    together through :func:`write_files`, then stdout.
    """
    lines = [(t if t.endswith("\n") else t + "\n", p) for t, p in outputs]
    write_files({p: t for t, p in lines if p not in (None, "-")})
    for text, path in lines:
        if path in (None, "-"):
            sys.stdout.write(text)


def _json_text(obj) -> str:
    """``obj`` as indented JSON text; NaN or an infinity is a UsageError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:  # JSON cannot hold NaN or an infinity
        raise UsageError(f"result cannot be written as JSON: {exc}") from None


def _emit_json(obj, path: str | None) -> None:
    _emit((_json_text(obj), path))


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


def _cmd_reconstruct(args) -> int:
    d = load_distribution(args.input)
    log.info("loaded %d outcomes (width %d)", len(d), d.width)
    t0 = time.perf_counter()
    rep = hammer(d)
    wall = time.perf_counter() - t0
    log.info("reconstructed in %.3fs", wall)
    outputs = [(distribution_to_json(rep.output), args.output)]
    if args.report:
        report = {
            "width": d.width,
            "n_outcomes": len(d),
            "chs": rep.chs.values.tolist(),
            "weights": rep.weights.values.tolist(),
            "pair_evaluations_step1": rep.pair_evaluations_step1,
            "pair_evaluations_step3": rep.pair_evaluations_step3,
            "normalization_steps": rep.normalization_steps,
            "pairs_computed": rep.pairs_computed,
            "wall_time_s": wall,
        }
        outputs.append((_json_text(report), args.report))
    _emit(*outputs)
    return 0


def _cmd_spectrum(args) -> int:
    d = as_probabilities(load_distribution(args.input))
    spec = build_spectrum(d, _correct_set(args.correct))
    if args.csv:
        _emit((spectrum_to_csv(spec), args.output))
    else:
        _emit_json(spectrum_to_json_obj(spec), args.output)
    return 0


def _cmd_ehd(args) -> int:
    d = as_probabilities(load_distribution(args.input))
    value = ehd(d, _correct_set(args.correct), mode=args.mode)
    _emit_json({"ehd": value, "mode": args.mode, "width": d.width}, args.output)
    return 0


def _ratio(num: float, den: float) -> float | None:
    """``num / den`` of two finite numbers, or None when it is not finite."""
    q = num / den if den and math.isfinite(den) else math.nan
    return q if math.isfinite(q) else None


def _cmd_metrics(args) -> int:
    correct = _correct_set(args.correct)
    reference = as_probabilities(load_distribution(args.reference)) if args.reference else None
    if args.before or args.after:
        if not (args.before and args.after) or args.input:
            raise UsageError("use either --input or both --before and --after")
        before = merit_report(load_distribution(args.before), correct, reference)
        after = merit_report(load_distribution(args.after), correct, reference)
        obj = {
            "before": before.to_json_obj(),
            "after": after.to_json_obj(),
            "pst_ratio": _ratio(after.pst, before.pst),
            "ist_ratio": _ratio(after.ist, before.ist),
        }
        if reference is not None:
            obj["tvd_ratio"] = _ratio(before.tvd, after.tvd)
        _emit_json(obj, args.output)
        return 0
    if not args.input:
        raise UsageError("metrics needs --input, or --before and --after")
    report = merit_report(load_distribution(args.input), correct, reference)
    _emit_json(report.to_json_obj(), args.output)
    return 0


def _cmd_qaoa(args) -> int:
    graph = load_graph(args.graph)
    d = as_probabilities(load_distribution(args.counts))
    cmin = float(args.cmin) if args.cmin is not None else c_min(graph)
    c_exp = expected_cost(graph, d)
    cr = cost_ratio(graph, d, c_min_override=cmin)
    curve = quality_curve(graph, d, c_min_override=cmin)
    if args.csv:
        _emit((curve.to_csv(), args.output))
    else:
        _emit_json(
            {"c_exp": c_exp, "c_min": cmin, "cr": cr, "curve": curve.to_json_obj()},
            args.output,
        )
    return 0


def _cmd_synth(args) -> int:
    model = NoiseModel(
        per_bit_flip=args.flip,
        correlated_errors=tuple(_parse_corr(s) for s in args.corr or ()),
        seed=args.seed,
    )
    counts = sample_noisy(ideal_bv(args.key), model, args.trials)
    log.info("sampled %d trials onto %d outcomes", args.trials, len(counts))
    _emit((distribution_to_json(counts), args.output))
    return 0


_HANDLERS = {
    "reconstruct": _cmd_reconstruct,
    "spectrum": _cmd_spectrum,
    "ehd": _cmd_ehd,
    "metrics": _cmd_metrics,
    "qaoa": _cmd_qaoa,
    "synth": _cmd_synth,
}


def _build_parser() -> _Parser:
    top = _Parser(prog="hamrec", description=__doc__.split("\n")[0])
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="subcommand", metavar="COMMAND")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="log progress to stderr (repeat for more)")
        p.add_argument("--output", default=None,
                       help="result path (default: stdout; '-' for stdout)")
        return p

    p = add("reconstruct", "sharpen a noisy distribution by Hamming-neighborhood scoring")
    p.add_argument("--input", required=True, help="counts or probabilities JSON ('-' for stdin)")
    p.add_argument("--report", default=None, help="also write CHS/weights/counters/timing JSON")

    p = add("spectrum", "bucket outcomes by Hamming distance to the correct set")
    p.add_argument("--input", required=True)
    p.add_argument("--correct", required=True, action="append",
                   help="correct bitstring (repeat or comma-separate for several)")
    p.add_argument("--csv", action="store_true", help="emit d,bitstring,probability rows")

    p = add("ehd", "expected Hamming distance of the error mass from the correct set")
    p.add_argument("--input", required=True)
    p.add_argument("--correct", required=True, action="append")
    p.add_argument("--mode", choices=("normalized", "raw"), default="normalized")

    p = add("metrics", "success metrics (PST/IST, optional TVD) or before/after ratios")
    p.add_argument("--input", default=None)
    p.add_argument("--correct", required=True, action="append")
    p.add_argument("--reference", default=None, help="ideal distribution JSON for TVD")
    p.add_argument("--before", default=None, help="distribution before reconstruction")
    p.add_argument("--after", default=None, help="distribution after reconstruction")

    p = add("qaoa", "Max-Cut expected cost, cost ratio, and quality curve")
    p.add_argument("--graph", required=True, help='graph JSON {"n": ..., "edges": [[u,v,w], ...]}')
    p.add_argument("--counts", required=True, help="sampled distribution JSON")
    p.add_argument("--cmin", type=float, default=None,
                   help="known optimum (skips brute force; required above 26 vertices)")
    p.add_argument("--csv", action="store_true", help="emit the quality curve as CSV")

    p = add("synth", "sample a noisy synthetic distribution from an ideal key")
    p.add_argument("--key", required=True, help="hidden bitstring of the ideal output")
    p.add_argument("--flip", type=float, default=0.0, help="per-bit background flip probability")
    p.add_argument("--corr", action="append", default=[],
                   help="correlated error MASK:PROB (repeatable)")
    p.add_argument("--trials", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Each call logs to the sys.stderr of that call, at its own -v level.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    level = log.level
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not args.subcommand:
            parser.error("a subcommand is required")
        _ensure_writable(args.output, getattr(args, "report", None))
        log.addHandler(handler)
        log.setLevel(max(logging.WARNING - 10 * args.verbose, logging.DEBUG))
        return _HANDLERS[args.subcommand](args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    except BrokenPipeError:
        return 0
    except UsageError as exc:
        print(f"hamrec: error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"hamrec: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hamrec: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("hamrec: error: out of memory", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
