"""Hamming-space reconstruction of noisy bitstring outcome distributions.

The library turns raw counts from error-prone hardware into sharpened
probability distributions by exploiting the empirical clustering of errors
around correct answers in Hamming space, and ships the surrounding
toolkit: spectrum/CHS/EHD diagnostics, success metrics (PST/IST/TVD),
Max-Cut cost evaluation for QAOA outputs, and a seeded noisy sampler for
end-to-end validation without hardware.

Importing the package loads no submodule and not numpy: each public name
below is imported from its module on first use (PEP 562), so a command
line call pays only for the modules its command needs. Beside that table
sits what the CLI needs before any work, without numpy: the two error types
and ``_check_outputs``, the output-path rules that guard every write.
"""

import os
import sys
from importlib import import_module

__version__ = "0.1.0"


class UsageError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ParseError(ValueError):
    """Input data (counts/probability/graph files) is malformed."""


def _check_outputs(*paths) -> None:
    """Each output path of one write (None: no such output) is non-empty,
    writable in a writable directory as given and where it resolves to (where
    write_files stages and writes), and a different file; stdout ("-") counts
    as one file and must be open."""
    paths = [p for p in paths if p is not None]
    if "" in paths:
        raise UsageError("output path must not be empty")
    if "-" in paths and sys.stdout is None:
        raise UsageError("stdout is closed")
    targets = [p if p == "-" else os.path.realpath(p) for p in paths]
    if len(set(targets)) < len(targets):
        raise UsageError(f"output paths name the same file: {', '.join(map(os.fspath, paths))}")
    for path in (p for p in paths + targets if p != "-"):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise UsageError(f"output directory does not exist: {parent}")
        if os.path.exists(path) and not (os.path.isfile(path) and os.access(path, os.W_OK)):
            raise UsageError(f"output path not writable: {path}")
        if not os.access(parent, os.W_OK):
            raise UsageError(f"output directory not writable: {parent}")


# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "ChsVector", "HammingSpectrum", "build_spectrum", "chs_for_outcome", "chs_length", "ehd",
        "global_chs", "max_neighbor_distance", "spectrum_to_csv", "spectrum_to_json_obj",
        "uniform_ehd_closed_form",
    ), "analysis"),
    **dict.fromkeys((
        "Distribution", "as_probabilities", "from_counts", "hamming_distance",
        "load_distribution", "min_distance_to_set", "normalize", "save_distribution",
    ), "core"),
    **dict.fromkeys(("MeritReport", "ist", "merit_report", "pst", "tvd"), "metrics"),
    **dict.fromkeys((
        "BRUTE_FORCE_LIMIT", "CapabilityError", "CutGraph", "QaoaReport", "QualityCurve", "c_min",
        "cost_ratio", "cut_cost", "expected_cost", "graph_from_json_obj", "graph_to_json_obj",
        "load_graph", "qaoa_report", "quality_curve",
    ), "qaoa_cost"),
    **dict.fromkeys((
        "ReconstructionReport", "WeightVector", "hammer", "neighborhood_score", "weights_from_chs",
    ), "reconstruct"),
    **dict.fromkeys((
        "BV10_KEY", "BV10_TOP_ERROR", "NoiseModel", "bv10_profile", "ideal_bv", "sample_noisy",
    ), "synth"),
}

__all__ = sorted(["ParseError", "UsageError", *_EXPORTS])


def __getattr__(name: str):
    """A public name from its module, or one of those modules itself."""
    if name in _EXPORTS.values():
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
