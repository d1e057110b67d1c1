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
    code_strings,
    min_distances_to_set,
    pairwise_distances,
    reference_codes,
    require_probabilities,
)

# Row blocks of the pair pass hold about this many (row, column) pairs, so
# that each block's temporaries (a few MB) stay in cache.
PAIR_BLOCK_ELEMENTS = 1 << 18

# Blocks with at least this many columns are histogrammed one row at a
# time; narrower blocks are binned all at once. A per-row bincount has a
# fixed cost of about 2.5 us, which only long rows repay. 512 is the
# measured crossover of the two paths and the first block's width at the
# budget above, so a support of 512 or more outcomes goes row by row from
# its first block on and never allocates the block path's index and weight
# copies (8 bytes per pair each).
ROW_HISTOGRAM_COLUMNS = 512


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
    refs = reference_codes(reference, d.width)
    dist = min_distances_to_set(d.codes, refs)
    # By distance, then descending probability; lexsort is stable, so ties
    # keep the ascending bitstring order of the support.
    order = np.lexsort((-d.weights, dist))
    items = list(zip(code_strings(d.codes[order], d.width), d.weights[order].tolist()))
    edges = np.searchsorted(dist[order], np.arange(d.width + 2)).tolist()
    bins = tuple(tuple(items[a:b]) for a, b in zip(edges, edges[1:]))
    return HammingSpectrum(width=d.width, reference=tuple(code_strings(refs, d.width)), bins=bins)


def chs_for_outcome(d: Distribution, x: str) -> ChsVector:
    """Mass of ``d`` at each distance k < n/2 from the single outcome ``x``.

    The self term (k = 0) is included when ``x`` carries probability.
    """
    require_probabilities(d, "chs_for_outcome")
    n_bins = chs_length(d.width)
    dist = min_distances_to_set(d.codes, reference_codes([x], d.width))
    keep = dist < n_bins
    values = np.bincount(dist[keep], weights=d.weights[keep], minlength=n_bins)
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
    only the CHS.

    Rows are computed in blocks of about ``PAIR_BLOCK_ELEMENTS`` pairs, and
    a block's distances become histograms in one of two ways:

    * A block of fewer than ``ROW_HISTOGRAM_COLUMNS`` columns is binned at
      once: each pair lands in a per-row bin (d for a lighter neighbor,
      n_bins + 1 + d for a tie, n_bins for everything out of range, on or
      above the diagonal), and one weighted and one unweighted bincount
      over the flattened block fill every row.
    * A wider block is binned row by row over contiguous slices, which
      needs no bin offsets, masks or weight copies: ``row[:g]`` with the
      weights ``p[:g]`` gives the lighter histogram, and the counts of
      ``row[:g]`` plus twice those of ``row[g:i]`` give the pair counts: a
      tie counts twice because its mass p_j = p_i is not in the lighter
      histogram.

    The per-row path pays a fixed cost per bincount call, so it only wins
    on long rows; small supports stay on the block path. Both paths add
    the lighter masses of a row in column order, so ``lighter`` does not
    depend on the path; the CHS sums may differ in the last bits.
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
    # One XOR buffer for every block: a fresh multi-MB temporary per block
    # can be returned to the OS and faulted back in each time.
    scratch = np.empty(min(n * n, max(PAIR_BLOCK_ELEMENTS, n)), dtype=np.uint64)
    while start < n:
        # The largest stop with rows x columns = (stop - start) * stop
        # within the budget.
        root = math.isqrt(start * start + 4 * PAIR_BLOCK_ELEMENTS)
        stop = min(n, max(start + 1, (start + root) // 2))
        rows = stop - start
        dist = pairwise_distances(c[start:stop], c[:stop], scratch[:rows * stop])
        pairs += dist.size
        if stop >= ROW_HISTOGRAM_COLUMNS:
            light = np.empty((rows, n_bins))
            near = np.empty((rows, width + 1), dtype=np.intp)
            for r, (g, row) in enumerate(zip(gstart[start:stop].tolist(), dist)):
                i = start + r
                light[r] = np.bincount(row[:g], weights=p[:g], minlength=width + 1)[:n_bins]
                near[r] = np.bincount(row[:g], minlength=width + 1)
                if g < i:
                    near[r] += 2 * np.bincount(row[g:i], minlength=width + 1)
            chs += light.sum(axis=0) + p[start:stop] @ near[:, :n_bins]
        else:
            idx = np.minimum(dist, n_bins, dtype=np.intp)
            # Columns before the block's first tie group are lighter for
            # every row; only the rest needs the tie and triangle masks.
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
            light = mass[:, :n_bins]
            near_mass = light + mass[:, n_bins + 1:]
            near_count = count[:, :n_bins] + count[:, n_bins + 1:]
            chs += near_mass.sum(axis=0) + p[start:stop] @ near_count
        lighter[order[start:stop]] = light  # back in the caller's order
        start = stop
    return PairHistograms(chs=chs, lighter=lighter, pairs_computed=pairs)


def global_chs(d: Distribution) -> ChsVector:
    """Aggregate CHS over all ordered pairs of outcomes in ``d``.

    values[k] sums p(y) over every ordered pair (x, y) at distance k < n/2,
    so values[0] is the total probability and the reported pair counter is
    exactly N*N.
    """
    require_probabilities(d, "global_chs")
    values = pair_histograms(d.codes, d.weights, d.width).chs
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
    dist = min_distances_to_set(d.codes, reference_codes(reference, d.width))
    probs = d.weights
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


def spectrum_to_csv(spectrum: HammingSpectrum) -> str:
    """Flat ``d,bitstring,probability`` rows."""
    lines = ["d,bitstring,probability"]
    lines += [f"{k},{x},{p!r}" for k, bucket in enumerate(spectrum.bins) for x, p in bucket]
    return "\n".join(lines) + "\n"
