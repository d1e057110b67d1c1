"""Hamming-space diagnostics for outcome distributions.

Three views of where the probability mass sits relative to a reference
(correct) set or to every other observed outcome:

* a spectrum that buckets outcomes by minimum distance to the reference,
* cumulative strength vectors holding the mass at each distance d, per
  outcome or aggregated over all ordered pairs of outcomes,
* the expected Hamming distance of the erroneous mass.

Strength vectors only keep distances d with d < n/2 (indices 0 to
ceil(n/2) - 1); everything further away is treated as structureless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    UsageError,
    _check_bitstring,
    checked_reference,
    min_distances_to_set,
    pack_outcomes,
    pairwise_distances,
    require_probabilities,
    support_arrays,
)

BIN_CONSERVATION_TOL = 1e-12

# Row blocks of the pair pass hold about this many (row, column) pairs, so
# that each block's temporaries (a few MB) stay in cache.
PAIR_BLOCK_ELEMENTS = 1 << 18


def chs_length(width: int) -> int:
    """Number of tracked distance bins: ceil(width / 2)."""
    return (width + 1) // 2


def max_neighbor_distance(width: int) -> int:
    """Largest distance that still counts as neighborhood (d < width/2)."""
    return chs_length(width) - 1


def checked_bins(values, width: int, what: str) -> np.ndarray:
    """``values`` as a float array of one non-negative entry per distance bin."""
    values = np.asarray(values, dtype=float)
    if values.shape != (chs_length(width),):
        raise UsageError(f"{what} for width {width} must have {chs_length(width)} entries")
    if np.any(values < 0):
        raise UsageError(f"{what} entries must be non-negative")
    return values


@dataclass(frozen=True)
class ChsVector:
    """Cumulative Hamming strength: mass at each distance 0..ceil(n/2)-1.

    ``pair_evaluations`` records how many ordered outcome pairs were
    examined to fill the vector (N*N for the global form, N for the
    per-outcome form).
    """

    width: int
    values: np.ndarray
    pair_evaluations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", checked_bins(self.values, self.width, "CHS vector"))


@dataclass(frozen=True)
class HammingSpectrum:
    """Outcomes bucketed by minimum distance to a reference set.

    ``bins[k]`` lists (outcome, probability) pairs at distance k, sorted by
    descending probability; indices run 0..width inclusive.
    """

    width: int
    reference: tuple[str, ...]
    bins: tuple[tuple[tuple[str, float], ...], ...]

    def total_probability(self) -> float:
        return float(sum(p for bucket in self.bins for _, p in bucket))


def build_spectrum(d: Distribution, reference) -> HammingSpectrum:
    """Bucket every outcome of ``d`` by its minimum distance to ``reference``."""
    require_probabilities(d, "build_spectrum")
    refs = checked_reference(reference, d.width)
    outcomes = d.outcomes()
    buckets: list[list[tuple[str, float]]] = [[] for _ in range(d.width + 1)]
    for x, k in zip(outcomes, min_distances_to_set(outcomes, refs, d.width)):
        buckets[k].append((x, d.entries[x]))
    bins = tuple(
        tuple(sorted(bucket, key=lambda item: (-item[1], item[0])))
        for bucket in buckets
    )
    return HammingSpectrum(width=d.width, reference=refs, bins=bins)


def chs_for_outcome(d: Distribution, x: str) -> ChsVector:
    """Mass of ``d`` at each distance k < n/2 from the single outcome ``x``.

    The self term (k = 0) is included when ``x`` carries probability.
    """
    require_probabilities(d, "chs_for_outcome")
    _check_bitstring(x, width=d.width)
    n_bins = chs_length(d.width)
    outcomes, probs = support_arrays(d)
    dist = min_distances_to_set(outcomes, [x], d.width)
    keep = dist < n_bins
    values = np.bincount(dist[keep], weights=probs[keep], minlength=n_bins)
    return ChsVector(width=d.width, values=values, pair_evaluations=len(d))


@dataclass(frozen=True)
class PairHistograms:
    """Everything the reconstruction needs from the outcome pairs.

    ``chs`` is the aggregate CHS over all ordered pairs. ``lighter[i, d]``
    is the mass of the outcomes strictly lighter than outcome ``i`` at
    distance d < n/2, with rows in the caller's outcome order.
    ``pairs_computed`` is the number of distances actually evaluated
    (the sum of rows x columns over the blocks).
    """

    chs: np.ndarray
    lighter: np.ndarray
    pairs_computed: int


def pair_histograms(codes: np.ndarray, probs: np.ndarray, width: int) -> PairHistograms:
    """One pass over the lower triangle of the pair matrix.

    Outcomes are sorted ascending by probability (stably, so the result
    does not depend on anything but the caller's order), which turns
    "strictly lighter" into "before the row's tie group". Row i then only
    needs the columns j < i: each unordered pair is computed once and adds
    p_j + p_i to the CHS; the columns before ``gstart[i]`` also feed the
    lighter-neighbor histogram; the tie group ``gstart[i] <= j < i`` feeds
    only the CHS. Per-row bins are: d for a lighter neighbor, n_bins + 1 + d
    for a tie, and n_bins for everything out of range, on or above the
    diagonal.
    """
    n_bins = chs_length(width)
    stride = 2 * n_bins + 1
    n = codes.shape[0]
    order = np.argsort(probs, kind="stable")
    p = probs[order]
    c = codes[order]
    gstart = np.searchsorted(p, p, side="left")
    chs = np.zeros(n_bins)
    chs[0] = p.sum()  # the diagonal pairs
    lighter = np.empty((n, n_bins))
    pairs = 0
    start = 0
    while start < n:
        # The largest stop with rows x columns = (stop - start) * stop
        # within the budget.
        root = math.isqrt(start * start + 4 * PAIR_BLOCK_ELEMENTS)
        stop = min(n, max(start + 1, (start + root) // 2))
        rows = stop - start
        dist = pairwise_distances(c[start:stop], c[:stop])
        pairs += dist.size
        idx = np.minimum(dist, n_bins, dtype=np.intp)
        # Columns before the block's first tie group are lighter for every
        # row; only the rest needs the tie and triangle masks.
        row = np.arange(start, stop)[:, None]
        col = np.arange(gstart[start], stop)
        rest = idx[:, gstart[start]:]
        rest[(col >= gstart[row]) & (col < row) & (rest < n_bins)] += n_bins + 1
        rest[col >= row] = n_bins
        idx += np.arange(0, rows * stride, stride)[:, None]
        flat = idx.ravel()
        weights = np.broadcast_to(p[:stop], dist.shape).ravel()
        mass = np.bincount(flat, weights=weights, minlength=rows * stride).reshape(rows, stride)
        count = np.bincount(flat, minlength=rows * stride).reshape(rows, stride)
        lighter[start:stop] = mass[:, :n_bins]
        near_mass = mass[:, :n_bins] + mass[:, n_bins + 1:]
        near_count = count[:, :n_bins] + count[:, n_bins + 1:]
        chs += near_mass.sum(axis=0) + p[start:stop] @ near_count
        start = stop
    unsorted = np.empty_like(lighter)
    unsorted[order] = lighter
    return PairHistograms(chs=chs, lighter=unsorted, pairs_computed=pairs)


def global_chs(d: Distribution) -> ChsVector:
    """Aggregate CHS over all ordered pairs of outcomes in ``d``.

    values[k] sums p(y) over every ordered pair (x, y) at distance k < n/2,
    so values[0] is the total probability and the reported pair counter is
    exactly N*N.
    """
    require_probabilities(d, "global_chs")
    outcomes, probs = support_arrays(d)
    values = pair_histograms(pack_outcomes(outcomes, d.width), probs, d.width).chs
    return ChsVector(width=d.width, values=values, pair_evaluations=len(d) ** 2)


def ehd(d: Distribution, reference, mode: str = "normalized") -> float:
    """Expected Hamming distance of the erroneous mass from the reference.

    raw mode returns sum(p(x) * minHD(x, R)) over incorrect outcomes;
    normalized mode (default) divides by the incorrect mass, yielding a
    weighted average in [0, n]. An error-free distribution gives 0.
    """
    if mode not in ("normalized", "raw"):
        raise UsageError(f"ehd mode must be normalized or raw, got {mode!r}")
    require_probabilities(d, "ehd")
    outcomes, probs = support_arrays(d)
    dist = min_distances_to_set(outcomes, checked_reference(reference, d.width), d.width)
    wrong = dist > 0
    if not wrong.any():
        return 0.0
    raw = float(dist[wrong] @ probs[wrong])
    if mode == "raw":
        return raw
    wrong_mass = float(probs[wrong].sum())
    if wrong_mass <= 0.0:
        return 0.0
    return raw / wrong_mass


def uniform_ehd_closed_form(width: int) -> float:
    """Normalized EHD of the uniform distribution with a singleton reference."""
    return width * 2.0 ** (width - 1) / (2.0 ** width - 1)


# ---------------------------------------------------------------------------
# Plot-ready exports.

def spectrum_to_json_obj(spectrum: HammingSpectrum) -> list:
    return [
        {"d": k, "outcomes": [[x, p] for x, p in bucket]}
        for k, bucket in enumerate(spectrum.bins)
    ]


def spectrum_rows(spectrum: HammingSpectrum) -> list[tuple[int, str, float]]:
    """Flat (d, bitstring, probability) rows for CSV export."""
    return [
        (k, x, p)
        for k, bucket in enumerate(spectrum.bins)
        for x, p in bucket
    ]


def spectrum_to_csv(spectrum: HammingSpectrum) -> str:
    lines = ["d,bitstring,probability"]
    lines += [f"{k},{x},{p!r}" for k, x, p in spectrum_rows(spectrum)]
    return "\n".join(lines) + "\n"
