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
Steps 1 and 3 share one pass over the pairs,
:func:`hamrec.analysis.pair_histograms`, whose docstring describes how it
bins them; tie groups of equal probability feed the CHS but not each
other's scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ChsVector, checked_bins, chs_length, pair_histograms
from .core import (
    Distribution,
    UsageError,
    _derived,
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
    """Invert a strength vector with a zero guard: W[d] = 1/CHS[d] or 0.

    A subnormal CHS[d] gives W[d] = inf. ``chs`` was checked when it was
    built, so the weights, non-negative like it, are not checked again.
    """
    values = np.zeros_like(chs.values)
    with np.errstate(over="ignore"):
        np.divide(1.0, chs.values, out=values, where=chs.values > 0)
    return _derived(WeightVector, width=chs.width, values=values)


def neighborhood_score(d: Distribution, x: str, weights: WeightVector) -> float:
    """Score one outcome: own probability plus filtered weighted neighbor mass.

    Only neighbors within distance d < n/2 that have strictly lower
    probability than ``x`` contribute; the strict filter keeps equal-weight
    outcomes from feeding each other and excludes the self term, which
    instead seeds the score. This is the paper's ``p + sum W[d] * mass``, so a
    lighter neighbor in a bin whose W[d] is inf (a subnormal CHS bin) makes
    the score inf, where :func:`hammer` computes each term as mass / CHS[d].
    """
    d = as_probabilities(d)
    dist = min_distances_to_set(d.codes, reference_codes([x], d.width))
    if not (dist == 0).any():
        raise UsageError(f"outcome {x!r} is not in the support of the distribution")
    if weights.width != d.width:
        raise UsageError("weight vector width does not match distribution width")
    probs = d.weights
    px = probs[dist == 0][0]
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

    ``d_in`` was checked when it was built. Nothing derived from it is
    checked again: the normalized input, the output, the CHS and the
    weights are built directly, and the output shares ``d_in.codes``.
    """
    d = as_probabilities(d_in)
    probs = d.weights
    n = len(d)

    pairs = pair_histograms(d.codes, probs, d.width)
    chs = _derived(ChsVector, width=d.width, values=pairs.chs, pair_evaluations=n * n)
    weights = weights_from_chs(chs)

    # Each score term W[d] * lighter[i, d] as lighter[i, d] / CHS[d], which
    # cannot overflow (lighter[i, d] <= CHS[d]) where W[d] may be inf.
    terms = np.divide(pairs.lighter, pairs.chs, out=pairs.lighter, where=pairs.chs > 0)
    scores = probs + terms.sum(axis=1)
    raw = scores * probs
    out_probs = np.maximum(raw / raw.sum(), math.ulp(0.0))  # the smallest subnormal
    return ReconstructionReport(
        output=d._with_probabilities(out_probs),
        chs=chs,
        weights=weights,
        pair_evaluations_step1=n * n,
        pair_evaluations_step3=n * n,
        normalization_steps=n,
        pairs_computed=pairs.pairs_computed,
    )
