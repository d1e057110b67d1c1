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
    _as_float,
    _checked_integer,
    _is_real,
    as_probabilities,
    code_strings,
    min_distances_to_set,
    pack_outcomes,
    pairwise_distances,
    reference_codes,
)

# Supports with fewer than this many (row, column) pairs are binned as one
# square; larger ones go in row blocks of about this many pairs, so that
# each block's temporaries (a few MB) stay in cache.
PAIR_BLOCK_ELEMENTS = 1 << 18


def chs_length(width: int) -> int:
    """Number of tracked distance bins of an integer ``width`` >= 1: ceil(width / 2)."""
    return (_checked_integer(width, "width", 1) + 1) // 2


def max_neighbor_distance(width: int) -> int:
    """Largest distance that still counts as neighborhood (d < width/2)."""
    return chs_length(width) - 1


def checked_bins(values, width: int, what: str) -> np.ndarray:
    """``values`` as a float array of one non-negative entry per distance bin
    of an integer ``width`` >= 1. Entries are real numbers (not ``bool`` or
    ``str``); NaN is rejected, ``+inf`` is kept, as is an integer beyond
    float range. A numeric ndarray is converted without a Python loop."""
    width = _checked_integer(width, f"{what} width", 1)
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        values = np.asarray(values, dtype=object)
        for value in values.flat:
            if not _is_real(value):
                raise UsageError(f"{what} entries must be real numbers, got {value!r}")
        values = np.array([_as_float(v) for v in values.flat]).reshape(values.shape)
    values = values.astype(float, copy=False)
    if values.shape != (chs_length(width),):
        raise UsageError(f"{what} for width {width} must have {chs_length(width)} entries")
    if not (values >= 0).all():
        raise UsageError(f"{what} entries must be non-negative and not NaN")
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
        _checked_integer(self.pair_evaluations, "pair_evaluations", 0)


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
    """Bucket every outcome of ``d`` by its minimum distance to ``reference``;
    counts are normalized first."""
    d = as_probabilities(d)
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
    Counts are normalized first.
    """
    d = as_probabilities(d)
    n_bins = chs_length(d.width)
    dist = min_distances_to_set(d.codes, pack_outcomes([x], d.width))
    keep = dist < n_bins
    values = np.bincount(dist[keep], weights=d.weights[keep], minlength=n_bins)
    return ChsVector(width=d.width, values=values, pair_evaluations=len(d))


@dataclass(frozen=True)
class PairHistograms:
    """Everything the reconstruction needs from the outcome pairs.

    ``chs`` is the aggregate CHS over all ordered pairs, ceil(n/2) entries.
    ``lighter[i, d]`` is the mass of the outcomes strictly lighter than
    outcome ``i`` at distance d, with rows in the caller's outcome order and
    ``k`` columns: the distances d < n/2 that some pair can reach (see
    :func:`pair_histograms`), so ``chs`` is 0 from entry ``k`` on.
    ``pairs_computed`` is the number of distances actually evaluated for
    the histograms; the N of the row that finds that bound are not counted.
    """

    chs: np.ndarray
    lighter: np.ndarray
    pairs_computed: int


def pair_histograms(codes: np.ndarray, probs: np.ndarray, width: int) -> PairHistograms:
    """Both pair histograms, from outcomes sorted by probability.

    Outcomes are sorted ascending by probability (stably, so the result
    does not depend on anything but the caller's order), which turns
    "strictly lighter" into "before the row's tie group" ``gstart[i]``.

    No pair is farther apart than the width, nor, by the triangle
    inequality, than twice the largest distance ``r`` from the lightest
    outcome. So a distance takes one of ``span = min(width, 2r) + 1``
    values, and every histogram, key and buffer below is sized by ``span``,
    not by the width; ``lighter`` and the CHS sums keep the first
    ``k = min(ceil(n/2), span)`` distances. Finding ``r`` costs one
    distance row of N outcomes.

    * A support of fewer than ``PAIR_BLOCK_ELEMENTS`` pairs computes the
      whole N x N square at once and keys it ``dist + row * span``.
      One unweighted bincount of the keys gives each row's pair counts, so
      the CHS is ``p @ counts`` (distance is symmetric), and one of only
      the keys of the columns before ``gstart[i]``, weighted by ``p``,
      gives ``lighter``. Leaving out the pairs of weight 0 changes no sum,
      and the keys and weights it bins hold at most half the square.
    * A larger support computes only the lower triangle, in row blocks of
      about ``PAIR_BLOCK_ELEMENTS`` pairs, and bins each row's columns
      ``[:i]`` in one of two ways, chosen per block from the input:

      - by column: ``row[:g]`` with the weights ``p[:g]`` gives the lighter
        histogram, and the counts of ``row[:g]`` plus twice those of
        ``row[g:i]`` give the pair counts. A tie counts twice because its
        mass p_j = p_i is not in the lighter histogram.
      - by (tie group, distance), when the block's columns hold so few tie
        groups that this histogram is at most half a row
        (``groups * span <= stop // 2``), as in counts inputs where
        most outcomes share a count. Within a group the weight is one
        constant, so one unweighted bincount per row gives both the pair
        counts and, times the groups' probabilities, the lighter masses;
        the column path visits each lighter column twice.

    The paths add the same terms in different orders, so ``lighter`` and
    the CHS may differ between them in the last bits. The path of each
    block depends only on the input, so results are bit-reproducible.

    Codes of width <= 32 fill only the top half of their one word, so after
    the sort they are narrowed once to uint32 lanes, which halves the XOR
    traffic; the distances, and so the results, are the same. The row
    blocks reuse one lane-typed XOR scratch and one distance buffer, of the
    narrowest unsigned type that holds ``span - 1``, and the column path
    copies each row's columns ``[:i]`` once into an intp buffer that all of
    its bincounts read, instead of each bincount converting the distance
    row again.
    """
    n = codes.shape[0]
    order = np.argsort(probs, kind="stable")
    p = probs[order]
    c = codes[order] if width > 32 else (codes[order] >> 32).astype(np.uint32)
    # span - 1 bounds every pair's distance (the triangle inequality, see above).
    span = min(width, 2 * int(pairwise_distances(c[:1], c).max())) + 1
    k = min(chs_length(width), span)
    gstart = np.searchsorted(p, p, side="left")
    lighter = np.empty((n, k))
    chs = np.zeros(chs_length(width))
    if n * n < PAIR_BLOCK_ELEMENTS:
        size = n * span
        keys = np.add(pairwise_distances(c, c), np.arange(0, size, span)[:, None], dtype=np.intp)
        counts = np.bincount(keys.ravel(), minlength=size).reshape(n, span)
        chs[:k] = p @ counts[:, :k]
        is_lighter = np.arange(n) < gstart[:, None]
        light = np.bincount(keys[is_lighter], weights=np.broadcast_to(p, (n, n))[is_lighter],
                            minlength=size)
        lighter[order] = light.reshape(n, span)[:, :k]  # back in the caller's order
        return PairHistograms(chs=chs, lighter=lighter, pairs_computed=n * n)
    chs[0] = p.sum()  # the diagonal pairs
    # A tie group starts at each column whose probability differs from the
    # one before. The group numbers and probabilities are built at the first
    # block binned by them, so supports of distinct weights allocate none.
    new_group = p[1:] != p[:-1]
    group = p_group = None
    pairs = 0
    start = 0
    # One XOR, distance and row buffer for every block: a fresh multi-MB
    # temporary per block can be returned to the OS and faulted back in
    # each time.
    size = max(PAIR_BLOCK_ELEMENTS, n)
    scratch = np.empty(size, dtype=c.dtype)
    out = np.empty(size, dtype=np.min_scalar_type(span - 1))
    row = np.empty(n, dtype=np.intp)
    while start < n:
        # The largest stop with rows x columns = (stop - start) * stop
        # within the budget.
        root = math.isqrt(start * start + 4 * PAIR_BLOCK_ELEMENTS)
        stop = min(n, max(start + 1, (start + root) // 2))
        rows = stop - start
        block = rows * stop
        dist = pairwise_distances(c[start:stop], c[:stop], scratch[:block], out[:block])
        pairs += dist.size
        groups = 1 + np.count_nonzero(new_group[:stop - 1])
        if groups * span <= stop // 2:
            if group is None:
                group = np.concatenate(([0], np.cumsum(new_group)))
                p_group = p[np.concatenate(([True], new_group))]
            light, near = _bin_by_tie_group(dist, start, group, p_group[:groups], span, k, scratch)
        else:
            light = np.empty((rows, k))
            near = np.empty((rows, span), dtype=np.intp)
            for r, g in enumerate(gstart[start:stop].tolist()):
                i = start + r
                row[:i] = dist[r, :i]
                light[r] = np.bincount(row[:g], weights=p[:g], minlength=span)[:k]
                near[r] = np.bincount(row[:g], minlength=span)
                if g < i:
                    near[r] += 2 * np.bincount(row[g:i], minlength=span)
        chs[:k] += light.sum(axis=0) + p[start:stop] @ near[:, :k]
        lighter[order[start:stop]] = light  # back in the caller's order
        start = stop
    return PairHistograms(chs=chs, lighter=lighter, pairs_computed=pairs)


def _bin_by_tie_group(dist, start, group, p_group, span, k, scratch):
    """``(light, near)`` of a row block whose columns hold few tie groups.

    Row r of ``dist`` is outcome ``start + r``; its columns before the
    diagonal are keyed ``group * span + dist`` and counted with one
    unweighted bincount, of which the first ``k`` distances are kept. The
    keys overwrite ``scratch``, which holds nothing live once ``dist`` is
    computed; the keys take at most ``stop // 2`` values, so their type is
    no wider than a uint32 lane.
    ``near`` counts a lighter column once and a tie twice. ``light``
    weights the lighter groups' counts by their probability after the
    row's own group is zeroed: taking the ties back out of a sum would lose
    the lighter mass when ties dominate it.
    """
    rows, stop = dist.shape
    size = p_group.size * span
    key_type = np.min_scalar_type(size - 1)
    keys = scratch.view(key_type)[:dist.size].reshape(rows, stop)
    np.add(dist, (group[:stop] * span).astype(key_type), out=keys, dtype=key_type)
    counts = np.empty((rows, size), dtype=np.intp)
    for r, row in enumerate(keys):
        counts[r] = np.bincount(row[:start + r], minlength=size)
    counts = counts.reshape(rows, p_group.size, span)[:, :, :k]
    own = (np.arange(rows), group[start:start + rows])
    near = counts.sum(axis=1) + counts[own]
    counts[own] = 0
    return np.einsum("rgd,g->rd", counts, p_group), near


def global_chs(d: Distribution) -> ChsVector:
    """Aggregate CHS over all ordered pairs of outcomes in ``d``.

    values[k] sums p(y) over every ordered pair (x, y) at distance k < n/2,
    so values[0] is the total probability and the reported pair counter is
    exactly N*N. Counts are normalized first.
    """
    d = as_probabilities(d)
    values = pair_histograms(d.codes, d.weights, d.width).chs
    return ChsVector(width=d.width, values=values, pair_evaluations=len(d) ** 2)


def ehd(d: Distribution, reference, mode: str = "normalized") -> float:
    """Expected Hamming distance of the erroneous mass from the reference.

    raw mode returns sum(p(x) * minHD(x, R)) over incorrect outcomes;
    normalized mode (default) divides by the incorrect mass, yielding a
    weighted average in [0, n]. An error-free distribution gives 0.
    Counts are normalized first.
    """
    if mode not in ("normalized", "raw"):
        raise UsageError(f"ehd mode must be normalized or raw, got {mode!r}")
    d = as_probabilities(d)
    dist = min_distances_to_set(d.codes, reference_codes(reference, d.width))
    probs = d.weights
    wrong = dist > 0
    if not wrong.any():
        return 0.0
    raw = float(dist[wrong] @ probs[wrong])
    if mode == "raw":
        return raw
    return raw / float(probs[wrong].sum())


def uniform_ehd_closed_form(width: int) -> float:
    """Normalized EHD of the uniform distribution over an integer ``width``
    >= 1 bits with a singleton reference: ``width * 2**(width-1) /
    (2**width - 1)``, written so that no power overflows a float. A width
    beyond float range gives ``inf``."""
    width = _as_float(_checked_integer(width, "width", 1))
    return width / (2 - 2.0 ** (1 - width))


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
