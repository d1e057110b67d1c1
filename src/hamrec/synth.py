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
    _is_integer,
    _Packed,
    as_probabilities,
    bit_matrix,
    code_bits,
    pack_bits,
)

BV10_KEY = "1010101010"
BV10_TOP_ERROR = "1010100010"  # the key with bit 6 flipped

# Probability of the dominant erroneous outcome in the 10-bit fixture. One
# ulp below 0.2 so that 0.08 / _BV10_TOP_P == 0.4 without rounding; at 0.2
# exactly the quotient lands one ulp under 0.4.
_BV10_TOP_P = math.nextafter(0.2, 0.0)

# Per-bit uniform doubles drawn at once by sample_noisy; bounds the size of
# its per-chunk temporaries, not its output.
SAMPLE_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class NoiseModel:
    """Clustered-noise recipe: correlated XOR masks plus a flip background.

    Each trial first draws an ideal outcome, then with probability q_i
    applies correlated mask i (XOR); otherwise every bit flips
    independently with probability ``per_bit_flip``.
    """

    per_bit_flip: float = 0.0
    correlated_errors: tuple[tuple[str, float], ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise UsageError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 <= self.per_bit_flip < 1.0:
            raise UsageError(f"per_bit_flip must be in [0, 1), got {self.per_bit_flip}")
        total = 0.0
        for mask, q in self.correlated_errors:
            _check_bitstring(mask)
            if not 0.0 <= q <= 1.0:
                raise UsageError(f"correlated error probability {q} outside [0, 1]")
            total += q
        if total > 1.0 + 1e-12:
            raise UsageError(f"correlated error probabilities sum to {total} > 1")

    def mask_width(self) -> int | None:
        return len(self.correlated_errors[0][0]) if self.correlated_errors else None


def ideal_bv(key: str) -> Distribution:
    """Noise-free Bernstein-Vazirani output: all mass on the hidden key."""
    _check_bitstring(key)
    return Distribution(width=len(key), entries={key: 1.0}, kind="probabilities")


def sample_noisy(ideal: Distribution, model: NoiseModel, trials: int) -> Distribution:
    """Draw ``trials`` noisy samples from an ideal distribution.

    Deterministic for a fixed model seed. The generator is consumed in
    three blocks of uniform doubles — base-outcome draws, error-category
    draws, then a trials-by-width block of per-bit draws — so the stream
    layout does not depend on which branches individual trials take. The
    per-bit block is drawn from the same stream in row chunks of about
    ``SAMPLE_BLOCK_ELEMENTS`` doubles; consecutive draws yield the same
    doubles as one large draw, so seeded outputs do not depend on the chunk
    size and memory does not grow as trials x width doubles. Nothing is
    drawn after the per-bit block, so it is skipped when ``per_bit_flip``
    is 0.

    Trials are built as bit rows (ideal outcome XOR mask, plus per-bit
    flips on background trials only), packed and counted; no bitstring is
    made.
    """
    if not (_is_integer(trials) and trials >= 1):
        raise UsageError(f"trials must be an integer >= 1, got {trials!r}")
    for mask, _ in model.correlated_errors:
        if len(mask) != ideal.width:
            raise UsageError(f"mask width {len(mask)} does not match program width {ideal.width}")
    if len(ideal) == 0:
        raise UsageError("cannot sample from an empty distribution")
    ideal = as_probabilities(ideal)
    width = ideal.width
    cum = np.cumsum(ideal.weights)

    rng = np.random.Generator(np.random.PCG64(model.seed))
    u_base = rng.random(trials)
    u_category = rng.random(trials)

    base_idx = np.minimum(np.searchsorted(cum, u_base, side="right"), len(ideal) - 1)
    mask_edges = np.cumsum([q for _, q in model.correlated_errors])
    category = np.searchsorted(mask_edges, u_category, side="right")
    n_masks = len(model.correlated_errors)

    ideal_bits = code_bits(ideal.codes, width)
    # Row n_masks is all zeros: background trials apply no mask.
    mask_table = np.zeros((n_masks + 1, width), dtype=bool)
    mask_table[:n_masks] = bit_matrix([m for m, _ in model.correlated_errors], width)

    packed = np.empty((trials, (width + 7) // 8), dtype=np.uint8)
    rows = max(1, SAMPLE_BLOCK_ELEMENTS // width)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        cat = category[start:stop]
        bits = ideal_bits[base_idx[start:stop]] ^ mask_table[cat]
        if model.per_bit_flip > 0.0:
            flips = rng.random((stop - start, width)) < model.per_bit_flip
            bits ^= flips & (cat == n_masks)[:, None]
        packed[start:stop] = np.packbits(bits, axis=1)

    # Void rows compare bytewise, so unique() returns them in ascending
    # bitstring order at any width. One byte per 8 bits keeps the trials'
    # rows small; only the distinct rows become 64-bit codes.
    rows_as_void = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    distinct, counts = np.unique(rows_as_void, return_counts=True)
    distinct_bits = np.unpackbits(distinct.view(np.uint8).reshape(len(distinct), -1),
                                  axis=1, count=width).view(bool)
    return Distribution(width=width, entries=_Packed(pack_bits(distinct_bits), counts), kind="counts")


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
    """
    rng = np.random.Generator(np.random.PCG64(seed))
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
            outcome = "".join(
                ("0" if BV10_KEY[i] == "1" else "1") if i in mask else BV10_KEY[i]
                for i in range(10)
            )
            entries[outcome] = entries.get(outcome, 0.0) + float(p)
    return Distribution(width=10, entries=entries, kind="probabilities")
