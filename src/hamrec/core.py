"""Bitstring outcomes, sparse distributions, and Hamming kernels.

Outcomes are plain Python strings over {0,1}; the LEFTMOST character is
bit index 0 everywhere (file formats, CLI arguments, masks). A
:class:`Distribution` is a sparse map from outcome to weight, tagged with
its bit width and whether the weights are raw counts or probabilities.

Internally outcomes are packed into little arrays of 64-bit words so the
pairwise kernels in the analysis and reconstruction modules can run as
vectorized XOR + popcount, but the public surface stays string-based.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-9

_BITS = frozenset("01")


class UsageError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ParseError(ValueError):
    """Input data (counts/probability/graph files) is malformed."""


def _check_bitstring(s: str, width: int | None = None) -> str:
    if not isinstance(s, str) or not s:
        raise UsageError(f"outcome must be a non-empty bitstring, got {s!r}")
    if not _BITS.issuperset(s):
        raise UsageError(f"outcome {s!r} contains non-binary characters")
    if width is not None and len(s) != width:
        raise UsageError(f"outcome {s!r} has width {len(s)}, expected {width}")
    return s


def hamming_distance(a: str, b: str) -> int:
    """Number of differing bit positions between two equal-width outcomes."""
    _check_bitstring(a)
    _check_bitstring(b, width=len(a))
    return (int(a, 2) ^ int(b, 2)).bit_count()


def min_distance_to_set(x: str, reference: Iterable[str]) -> int:
    """Shortest Hamming distance from ``x`` to any outcome in ``reference``."""
    best = None
    for r in reference:
        d = hamming_distance(x, r)
        if best is None or d < best:
            best = d
        if best == 0:
            break
    if best is None:
        raise UsageError("reference set must be non-empty")
    return best


@dataclass(frozen=True)
class Distribution:
    """Sparse outcome histogram: counts or probabilities over n-bit strings.

    Invariants enforced at construction: every key is a width-n bitstring,
    weights are finite and positive (zero-weight entries are dropped; NaN
    and infinite weights are rejected), and for
    kind="probabilities" the weights sum to 1 within ``PROB_SUM_TOL``.
    Entries are kept in ascending bitstring order so downstream
    accumulations and serialized output are deterministic.
    """

    width: int
    entries: dict[str, float] = field(default_factory=dict)
    kind: str = "counts"

    def __post_init__(self):
        if self.width < 1:
            raise UsageError(f"width must be >= 1, got {self.width}")
        if self.kind not in ("counts", "probabilities"):
            raise UsageError(f"kind must be counts or probabilities, got {self.kind!r}")
        cleaned = {}
        for key in sorted(self.entries):
            _check_bitstring(key, width=self.width)
            weight = self.entries[key]
            # Integers of any size are finite; math.isfinite cannot take big ones.
            if not (isinstance(weight, numbers.Integral) or math.isfinite(weight)):
                raise UsageError(f"non-finite weight {weight!r} for outcome {key!r}")
            if weight < 0:
                raise UsageError(f"negative weight {weight!r} for outcome {key!r}")
            if weight > 0:
                cleaned[key] = weight
        object.__setattr__(self, "entries", cleaned)
        if self.kind == "probabilities" and cleaned:
            total = self.total()
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise UsageError(f"probabilities sum to {total!r}, expected 1 +- {PROB_SUM_TOL}")

    def __len__(self) -> int:
        return len(self.entries)

    def total(self):
        """Sum of all weights (exact integer arithmetic for counts)."""
        if self.kind == "counts":
            return sum(int(v) for v in self.entries.values())
        return float(sum(self.entries.values()))

    def outcomes(self) -> list[str]:
        return list(self.entries)

    def probability(self, outcome: str) -> float:
        return self.entries.get(outcome, 0.0)


def from_counts(raw: Mapping[str, int]) -> Distribution:
    """Parse a ``{bitstring: count}`` map into a counts distribution.

    Counts may be any integer type, numpy integers included; they are
    stored as Python ints. Zero-count keys are dropped; ragged key lengths,
    non-binary characters, and negative or non-integer counts (bools, NaN
    and infinities included) raise :class:`ParseError` naming the
    offending key.
    """
    width = None
    entries: dict[str, float] = {}
    for key, value in raw.items():
        if not isinstance(key, str) or not key or not _BITS.issuperset(key):
            raise ParseError(f"key {key!r} is not a bitstring")
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ParseError(f"key {key!r} has length {len(key)}, expected {width}")
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ParseError(f"count for key {key!r} is not an integer: {value!r}")
        if value < 0:
            raise ParseError(f"negative count for key {key!r}: {value}")
        if value > 0:
            entries[key] = int(value)
    if width is None:
        raise ParseError("counts map is empty")
    if not entries:
        raise ParseError("counts map has no positive counts")
    return Distribution(width=width, entries=entries, kind="counts")


def normalize(d: Distribution) -> Distribution:
    """Convert to probabilities by dividing each weight by the total.

    Probability inputs are returned unchanged, which makes the operation
    exactly idempotent.
    """
    if d.kind == "probabilities":
        return d
    if len(d) == 0:
        raise UsageError("cannot normalize an empty or all-zero distribution")
    total = d.total()
    entries = {k: v / total for k, v in d.entries.items()}
    return Distribution(width=d.width, entries=entries, kind="probabilities")


def as_probabilities(d: Distribution) -> Distribution:
    """Same as :func:`normalize`: probability inputs are returned as they
    are, counts are divided by their total."""
    if d.kind == "probabilities":
        return d
    return normalize(d)


# ---------------------------------------------------------------------------
# Packed representation used by the pairwise kernels.

def pack_outcomes(outcomes: Iterable[str], width: int) -> np.ndarray:
    """Pack bitstrings into an (N, n_words) uint64 array.

    Character i of the string maps to a fixed bit of one 64-bit word; all
    bits beyond the declared width stay zero. XOR + popcount on the packed
    rows reproduces string Hamming distance.
    """
    n_words = (width + 63) // 64
    strings = list(outcomes)
    packed = np.zeros((len(strings), n_words), dtype=np.uint64)
    for i, s in enumerate(strings):
        for w in range(n_words):
            chunk = s[w * 64:(w + 1) * 64]
            if chunk:
                packed[i, w] = int(chunk, 2)
    return packed


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance matrix between packed rows of ``a`` and ``b``."""
    if a.shape[1] == 1:
        return np.bitwise_count(a[:, 0][:, None] ^ b[:, 0][None, :])
    dist = np.zeros((a.shape[0], b.shape[0]), dtype=np.uint16)
    for w in range(a.shape[1]):
        dist += np.bitwise_count(a[:, w][:, None] ^ b[:, w][None, :])
    return dist


def pair_block_size(n_outcomes: int, budget: int = 1 << 22) -> int:
    """Row-block size keeping pairwise temporaries near ``budget`` elements."""
    return max(1, min(n_outcomes, budget // max(n_outcomes, 1)))


# ---------------------------------------------------------------------------
# JSON interchange: {"<bitstring>": weight, ...} in UTF-8.

def distribution_from_json_obj(obj) -> Distribution:
    """Build a distribution from a decoded counts/probability JSON object.

    All-integer values are treated as counts; any float value switches the
    whole object to probabilities (which must sum to 1 within tolerance).
    NaN and infinite values (which Python's JSON parser accepts) raise
    :class:`ParseError`.
    """
    if not isinstance(obj, dict) or not obj:
        raise ParseError("expected a non-empty JSON object of bitstring keys")
    if all(isinstance(v, int) and not isinstance(v, bool) for v in obj.values()):
        return from_counts(obj)
    width = None
    entries: dict[str, float] = {}
    for key, value in obj.items():
        if not isinstance(key, str) or not key or not _BITS.issuperset(key):
            raise ParseError(f"key {key!r} is not a bitstring")
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ParseError(f"key {key!r} has length {len(key)}, expected {width}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"weight for key {key!r} is not a number: {value!r}")
        entries[key] = float(value)
    try:
        return Distribution(width=width, entries=entries, kind="probabilities")
    except UsageError as exc:
        raise ParseError(str(exc)) from None


def load_distribution(path) -> Distribution:
    """Read a counts or probability JSON file (kind auto-detected)."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    try:
        return distribution_from_json_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_distribution(d: Distribution, path) -> None:
    """Write entries as a JSON object, preserving canonical key order."""
    payload = {k: (int(v) if d.kind == "counts" else v) for k, v in d.entries.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
