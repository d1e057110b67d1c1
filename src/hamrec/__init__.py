"""Hamming-space reconstruction of noisy bitstring outcome distributions.

The library turns raw counts from error-prone hardware into sharpened
probability distributions by exploiting the empirical clustering of errors
around correct answers in Hamming space, and ships the surrounding
toolkit: spectrum/CHS/EHD diagnostics, success metrics (PST/IST/TVD),
Max-Cut cost evaluation for QAOA outputs, and a seeded noisy sampler for
end-to-end validation without hardware.
"""

from .analysis import (
    ChsVector,
    HammingSpectrum,
    build_spectrum,
    chs_for_outcome,
    chs_length,
    ehd,
    global_chs,
    max_neighbor_distance,
    spectrum_to_csv,
    spectrum_to_json_obj,
    uniform_ehd_closed_form,
)
from .core import (
    Distribution,
    ParseError,
    UsageError,
    as_probabilities,
    from_counts,
    hamming_distance,
    load_distribution,
    min_distance_to_set,
    normalize,
    save_distribution,
)
from .metrics import MeritReport, ist, merit_report, pst, tvd
from .qaoa_cost import (
    BRUTE_FORCE_LIMIT,
    CapabilityError,
    CutGraph,
    QaoaReport,
    QualityCurve,
    c_min,
    cost_ratio,
    cut_cost,
    expected_cost,
    graph_from_json_obj,
    graph_to_json_obj,
    load_graph,
    qaoa_report,
    quality_curve,
)
from .reconstruct import (
    ReconstructionReport,
    WeightVector,
    hammer,
    neighborhood_score,
    weights_from_chs,
)
from .synth import (
    BV10_KEY,
    BV10_TOP_ERROR,
    NoiseModel,
    bv10_profile,
    ideal_bv,
    sample_noisy,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "BV10_KEY",
    "BV10_TOP_ERROR",
    "CapabilityError",
    "ChsVector",
    "CutGraph",
    "Distribution",
    "HammingSpectrum",
    "MeritReport",
    "NoiseModel",
    "ParseError",
    "QaoaReport",
    "QualityCurve",
    "ReconstructionReport",
    "UsageError",
    "WeightVector",
    "as_probabilities",
    "build_spectrum",
    "bv10_profile",
    "c_min",
    "chs_for_outcome",
    "chs_length",
    "cost_ratio",
    "cut_cost",
    "ehd",
    "expected_cost",
    "from_counts",
    "global_chs",
    "graph_from_json_obj",
    "graph_to_json_obj",
    "hamming_distance",
    "hammer",
    "ideal_bv",
    "ist",
    "load_distribution",
    "load_graph",
    "max_neighbor_distance",
    "merit_report",
    "min_distance_to_set",
    "neighborhood_score",
    "normalize",
    "pst",
    "qaoa_report",
    "quality_curve",
    "sample_noisy",
    "save_distribution",
    "spectrum_to_csv",
    "spectrum_to_json_obj",
    "tvd",
    "uniform_ehd_closed_form",
    "weights_from_chs",
]
