"""Neighborhood-weighted reconstruction of a noisy outcome distribution.

The procedure rescales each observed outcome by how much probability mass
sits in its near Hamming neighborhood, on the premise that dominant errors
cluster around correct answers while diffuse noise does not:

1. accumulate the aggregate strength vector CHS[d] over all ordered pairs
   of observed outcomes at distance d < n/2,
2. invert it into per-distance weights W[d] = 1/CHS[d] (0 where empty), so
   crowded distance bins count for less,
3. score every outcome as its own probability plus the weighted mass of
   its strictly lower-probability neighbors, multiply the score back into
   the probability, and renormalize.

Counts inputs are normalized before step 1; the additive score seed makes
the procedure scale-sensitive, so a canonical scale is fixed up front.
Steps 1 and 3 share one pass over the pairs
(:func:`hamrec.analysis.pair_histograms`): outcomes are sorted stably by
ascending probability, so tie groups of equal probability feed the CHS but
not each other's scores. A small support bins its whole distance square
at once; a larger one computes each unordered pair once, in the lower
triangle, and bins it row by row: by column, or, in blocks whose columns
hold few tie groups (counts inputs), with one count per (tie group,
distance). The sort, the block order and both switches depend only on the
input, which keeps results bit-reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ChsVector, checked_bins, chs_length, pair_histograms
from .core import (
    Distribution,
    UsageError,
    _Packed,
    as_probabilities,
    min_distances_to_set,
    reference_codes,
)


@dataclass(frozen=True)
class WeightVector:
    """Per-distance weights, elementwise reciprocal of a CHS vector."""

    width: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", checked_bins(self.values, self.width, "weight vector"))


@dataclass(frozen=True)
class ReconstructionReport:
    """Reconstructed distribution plus the work accounting of each step.

    The step counters are the procedure's logical counts: N*N ordered pairs
    for the strength step and for the scoring step, and N for the final
    renormalization, with N the number of unique outcomes.
    ``pairs_computed`` is the work actually done: the number of pair
    distances the shared pass evaluated, between N(N+1)/2 and N*N.
    """

    output: Distribution
    chs: ChsVector
    weights: WeightVector
    pair_evaluations_step1: int
    pair_evaluations_step3: int
    normalization_steps: int
    pairs_computed: int


def weights_from_chs(chs: ChsVector) -> WeightVector:
    """Invert a strength vector with a zero guard: W[d] = 1/CHS[d] or 0."""
    values = np.zeros_like(chs.values)
    np.divide(1.0, chs.values, out=values, where=chs.values > 0)
    return WeightVector(width=chs.width, values=values)


def neighborhood_score(d: Distribution, x: str, weights: WeightVector) -> float:
    """Score one outcome: own probability plus filtered weighted neighbor mass.

    Only neighbors within distance d < n/2 that have strictly lower
    probability than ``x`` contribute; the strict filter keeps equal-weight
    outcomes from feeding each other and excludes the self term, which
    instead seeds the score.
    """
    d = as_probabilities(d)
    px = d.probability(x)
    if px == 0.0:
        raise UsageError(f"outcome {x!r} is not in the support of the distribution")
    if weights.width != d.width:
        raise UsageError("weight vector width does not match distribution width")
    probs = d.weights
    dist = min_distances_to_set(d.codes, reference_codes([x], d.width))
    keep = (dist < chs_length(d.width)) & (probs < px)
    return float(px + weights.values[dist[keep]] @ probs[keep])


def hammer(d_in: Distribution) -> ReconstructionReport:
    """Run the full three-step reconstruction on a distribution.

    Counts are normalized first; the output is a probability distribution
    over exactly the input support. An outcome whose reconstructed
    probability underflows to 0 in float64 (possible below an input
    probability of about 1e-160, since the update multiplies it by its
    score) is kept at the smallest subnormal, about 4.9e-324, so no
    outcome is dropped; every other entry is unchanged.
    """
    if len(d_in) == 0:
        raise UsageError("cannot reconstruct an empty distribution")
    d = as_probabilities(d_in)
    probs = d.weights
    n = len(d)

    pairs = pair_histograms(d.codes, probs, d.width)
    chs = ChsVector(width=d.width, values=pairs.chs, pair_evaluations=n * n)
    weights = weights_from_chs(chs)

    scores = probs + pairs.lighter @ weights.values
    raw = scores * probs
    out_probs = np.maximum(raw / raw.sum(), np.finfo(float).smallest_subnormal)
    output = Distribution(width=d.width, entries=_Packed(d.codes, out_probs), kind="probabilities")
    return ReconstructionReport(
        output=output,
        chs=chs,
        weights=weights,
        pair_evaluations_step1=n * n,
        pair_evaluations_step3=n * n,
        normalization_steps=n,
        pairs_computed=pairs.pairs_computed,
    )
