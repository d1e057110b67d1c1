"""Synthetic noisy-output generation with Hamming-clustered error structure.

Real devices concentrate error mass close to the correct answer; the
generator here mimics that with two ingredients: a small set of correlated
error masks (dominant wrong outcomes at fixed XOR offsets) and an
independent per-bit flip background. All randomness comes from a seeded
PCG64 generator consuming only uniform doubles, in a fixed draw order, so
outputs are bit-reproducible across platforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Distribution,
    UsageError,
    _check_bitstring,
    _checked_integer,
    _is_real,
    _Packed,
    as_probabilities,
    pack_bits,
    pack_outcomes,
    sort_rows,
)

BV10_KEY = "1010101010"
BV10_TOP_ERROR = "1010100010"  # the key with bit 6 flipped

# Probability of the dominant erroneous outcome in the 10-bit fixture. One
# ulp below 0.2 so that 0.08 / _BV10_TOP_P == 0.4 without rounding; at 0.2
# exactly the quotient lands one ulp under 0.4.
_BV10_TOP_P = math.nextafter(0.2, 0.0)

# Uniform doubles per chunk of sample_noisy's draws (0.5 MB). Every per-chunk
# temporary is bounded by it, so the sampler's memory beyond its one packed
# row per trial stays fixed. 2**16 keeps those temporaries well below the
# 2 MB of rows at 2**18 trials; a larger value only adds to the peak.
SAMPLE_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class NoiseModel:
    """Clustered-noise recipe: correlated XOR masks plus a flip background.

    Each trial first draws an ideal outcome, then with probability q_i
    applies correlated mask i (XOR); otherwise every bit flips
    independently with probability ``per_bit_flip``. Probabilities are
    real numbers (not ``bool`` or ``str``), ``correlated_errors`` is a
    sequence of (mask, q) pairs, stored as a tuple; anything else raises
    :class:`UsageError`.
    """

    per_bit_flip: float = 0.0
    correlated_errors: tuple[tuple[str, float], ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        _checked_integer(self.seed, "seed", 0)
        if not (_is_real(self.per_bit_flip) and 0.0 <= self.per_bit_flip < 1.0):
            raise UsageError(f"per_bit_flip must be a number in [0, 1), got {self.per_bit_flip!r}")
        try:
            errors = tuple(self.correlated_errors)
        except TypeError:
            raise UsageError(
                f"correlated_errors is not a sequence: {self.correlated_errors!r}") from None
        total = 0.0
        for entry in errors:
            try:
                mask, q = entry
            except (TypeError, ValueError):
                raise UsageError(f"correlated error {entry!r} must be a (mask, q) pair") from None
            _check_bitstring(mask)
            if not (_is_real(q) and 0.0 <= q <= 1.0):
                raise UsageError(f"correlated error probability {q!r} is not a number in [0, 1]")
            total += q
        object.__setattr__(self, "correlated_errors", errors)
        if total > 1.0 + 1e-12:
            raise UsageError(f"correlated error probabilities sum to {total} > 1")


def ideal_bv(key: str) -> Distribution:
    """Noise-free Bernstein-Vazirani output: all mass on the hidden key."""
    _check_bitstring(key)
    return Distribution(width=len(key), entries={key: 1.0}, kind="probabilities")


def sample_noisy(ideal: Distribution, model: NoiseModel, trials: int) -> Distribution:
    """Draw ``trials`` noisy samples from an ideal distribution.

    Deterministic for a fixed model seed. The seeded PCG64 stream holds
    three blocks of uniform doubles — ``trials`` base-outcome draws,
    ``trials`` error-category draws, then a trials-by-width block of
    per-bit draws — so the stream layout does not depend on which branches
    individual trials take. PCG64 spends one 64-bit step on each double,
    so block k is read by a generator advanced ``k * trials`` steps.
    Chunks of ``max(1, SAMPLE_BLOCK_ELEMENTS // width)`` trials take
    their draws from the three blocks in one pass; consecutive draws yield
    the same doubles as one large draw, so seeded outputs do not depend on
    the chunk size. Nothing is drawn after the per-bit block, so it is
    skipped when ``per_bit_flip`` is 0.

    The sampler holds one packed code row per trial and fixed-size chunk
    temporaries. Each row is the ideal outcome's code XOR the packed mask
    of its category (all zeros for background trials), XOR the packed
    per-bit flips of background trials. Rows of one word (width <= 64) are
    counted by one in-place sort of the words; wider rows by
    :func:`hamrec.core.sort_rows`. No bitstring is made. Rows that cannot
    be allocated, however many the trials, raise :class:`MemoryError`.
    """
    trials = _checked_integer(trials, "trials", 1)
    for mask, _ in model.correlated_errors:
        if len(mask) != ideal.width:
            raise UsageError(f"mask width {len(mask)} does not match program width {ideal.width}")
    ideal = as_probabilities(ideal)
    width = ideal.width
    cum = np.cumsum(ideal.weights)
    mask_edges = np.cumsum([q for _, q in model.correlated_errors])
    n_masks = len(model.correlated_errors)
    # Row n_masks is all zeros: background trials apply no mask.
    mask_table = pack_outcomes([m for m, _ in model.correlated_errors] + ["0" * width], width)

    rows = max(1, SAMPLE_BLOCK_ELEMENTS // width)
    try:
        codes = np.empty((trials, ideal.codes.shape[1]), dtype=np.uint64)
    except ValueError:  # more rows than an array can index: no memory holds them
        raise MemoryError(f"cannot allocate {trials} sample rows") from None
    base_rng, category_rng, flip_rng = (
        np.random.Generator(np.random.PCG64(model.seed).advance(k * trials)) for k in range(3))
    for start in range(0, trials, rows):
        c = slice(start, min(start + rows, trials))
        base_idx = np.searchsorted(cum, base_rng.random(c.stop - c.start), side="right")
        codes[c] = ideal.codes[np.minimum(base_idx, len(ideal) - 1, out=base_idx)]
        category = np.searchsorted(mask_edges, category_rng.random(c.stop - c.start), side="right")
        codes[c] ^= mask_table[category]
        if model.per_bit_flip > 0.0:
            flips = flip_rng.random((c.stop - c.start, width)) < model.per_bit_flip
            flips &= (category == n_masks)[:, None]
            codes[c] ^= pack_bits(flips)

    if codes.shape[1] == 1:  # one word per row: sort the words in place
        words = codes.ravel()
        words.sort()
        first = np.empty(trials, dtype=bool)
        first[0] = True
        np.not_equal(words[1:], words[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        distinct = codes[starts]
    else:
        order, first = sort_rows(codes)
        starts = np.flatnonzero(first)
        distinct = codes[order[starts]]
    counts = np.diff(starts, append=trials)
    return Distribution(width=width, entries=_Packed(distinct, counts), kind="counts")


def _pick(items: list, k: int, rng: np.random.Generator) -> list:
    """k distinct elements, chosen by ranking one uniform draw per item."""
    order = np.argsort(rng.random(len(items)))
    return [items[i] for i in sorted(order[:k].tolist())]


def _spread_mass(total: float, k: int, rng: np.random.Generator) -> np.ndarray:
    """Split ``total`` into k jittered shares (each within ~±12% of even)."""
    raw = 1.0 + 0.25 * (rng.random(k) - 0.5)
    return raw / raw.sum() * total


def bv10_profile(seed: int = 0) -> Distribution:
    """Fixed 10-bit regression fixture with the headline BV-10 error shape.

    The key "1010101010" carries 0.08, the dominant single-bit error
    "1010100010" carries 0.2 (one ulp under, see _BV10_TOP_P), and the
    remaining 0.72 is spread over seeded multi-bit-flip neighbors of the
    key. Tail masks avoid bit 6 so the dominant error keeps only the key
    itself as an in-range lower-probability neighbor; the tail clusters
    around the key instead, giving reconstruction something to reward.
    ``seed`` is an integer >= 0.
    """
    rng = np.random.Generator(np.random.PCG64(_checked_integer(seed, "seed", 0)))
    positions = [i for i in range(10) if i != 6]

    one_bit = [(p,) for p in _pick(positions, 6, rng)]
    two_bit = _pick(list(itertools.combinations(positions, 2)), 3, rng)

    candidates = list(itertools.combinations(positions, 4))
    order = np.argsort(rng.random(len(candidates)))
    four_bit: list[tuple[int, ...]] = []
    for i in order.tolist():
        cand = candidates[i]
        if all(len(set(cand) & set(prev)) <= 2 for prev in four_bit):
            four_bit.append(cand)
        if len(four_bit) == 6:
            break

    residual = 1.0 - 0.08 - _BV10_TOP_P
    groups = [(one_bit, 0.35), (two_bit, 0.06), (four_bit, residual - 0.35 - 0.06)]
    entries = {BV10_KEY: 0.08, BV10_TOP_ERROR: _BV10_TOP_P}
    for masks, total in groups:
        shares = _spread_mass(total, len(masks), rng)
        for mask, p in zip(masks, shares):
            outcome = format(int(BV10_KEY, 2) ^ sum(1 << (9 - i) for i in mask), "010b")
            entries[outcome] = entries.get(outcome, 0.0) + float(p)
    return Distribution(width=10, entries=entries, kind="probabilities")
