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

import contextlib
import json
import math
import numbers
import os
import sys
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
    _check_bitstring(x)
    return int(min_distances_to_set([x], checked_reference(reference, len(x)), len(x))[0])


@dataclass(frozen=True)
class Distribution:
    """Sparse outcome histogram: counts or probabilities over n-bit strings.

    The one home of key and weight validation, parsers included. Every key
    is a width-n bitstring; every weight is a finite, non-negative real (not
    ``bool``), an integer for kind="counts" (stored as int) and a float for
    kind="probabilities", whose weights sum to 1 within ``PROB_SUM_TOL``.
    Anything else raises :class:`UsageError`. Zero-weight entries are
    dropped, and entries are kept in ascending bitstring order so
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
        for key, weight in self.entries.items():
            _check_bitstring(key, width=self.width)
            # Builtin types first: an ABC check alone costs about 0.5 us per key.
            if isinstance(weight, bool) or not isinstance(weight, (float, int, numbers.Real)):
                raise UsageError(f"weight for outcome {key!r} is not a number: {weight!r}")
            if self.kind == "counts":
                if not isinstance(weight, (int, numbers.Integral)):
                    raise UsageError(f"count for outcome {key!r} is not an integer: {weight!r}")
                weight = int(weight)
            else:
                try:
                    weight = float(weight)
                except OverflowError:  # an integer beyond float range
                    weight = math.inf
                if not math.isfinite(weight):
                    raise UsageError(f"non-finite weight {weight!r} for outcome {key!r}")
            if weight < 0:
                raise UsageError(f"negative weight {weight!r} for outcome {key!r}")
            if weight > 0:
                cleaned[key] = weight
        object.__setattr__(self, "entries", {k: cleaned[k] for k in sorted(cleaned)})
        if self.kind == "probabilities" and cleaned:
            total = self.total()
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise UsageError(f"probabilities sum to {total!r}, expected 1 +- {PROB_SUM_TOL}")

    def __len__(self) -> int:
        return len(self.entries)

    def total(self):
        """Sum of all weights (exact integer arithmetic for counts)."""
        total = sum(self.entries.values())
        return total if self.kind == "counts" else float(total)

    def outcomes(self) -> list[str]:
        return list(self.entries)

    def probability(self, outcome: str) -> float:
        return self.entries.get(outcome, 0.0)


def _parsed(raw, kind: str) -> Distribution:
    """A non-empty ``{bitstring: weight}`` map as a distribution, or ParseError."""
    if not isinstance(raw, Mapping) or not raw:
        raise ParseError("expected a non-empty map of bitstrings to weights")
    first = next(iter(raw))
    # A first key that is not a bitstring still reaches the validator, which names it.
    width = (isinstance(first, str) and len(first)) or 1
    try:
        d = Distribution(width=width, entries=raw, kind=kind)
    except UsageError as exc:
        raise ParseError(str(exc)) from None
    if not d.entries:
        raise ParseError("no outcome has a positive weight")
    return d


def from_counts(raw: Mapping[str, int]) -> Distribution:
    """Parse a ``{bitstring: count}`` map into a counts distribution.

    Counts may be any integer type, numpy integers included. Zero-count keys
    are dropped; an empty or all-zero map, and anything :class:`Distribution`
    rejects, raise :class:`ParseError` naming the offending key.
    """
    return _parsed(raw, "counts")


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


# The name callers use when they need probabilities, whatever the input kind.
as_probabilities = normalize


def require_probabilities(d: Distribution, op: str) -> None:
    """Raise unless ``d`` already holds probabilities; ``op`` names the caller."""
    if d.kind != "probabilities":
        raise UsageError(f"{op} requires a normalized distribution; call normalize() first")


def checked_reference(reference, width: int) -> tuple[str, ...]:
    """A non-empty set of width-n bitstrings, deduplicated and sorted."""
    refs = set(reference)
    if not refs:
        raise UsageError("reference set must be non-empty")
    for r in refs:
        _check_bitstring(r, width=width)
    return tuple(sorted(refs))


def support_arrays(d: Distribution) -> tuple[list[str], np.ndarray]:
    """The outcomes of ``d`` in canonical order and their weights as floats."""
    return d.outcomes(), np.fromiter(d.entries.values(), dtype=float, count=len(d))


# ---------------------------------------------------------------------------
# Packed representation used by the pairwise kernels.

def bit_matrix(outcomes: Iterable[str], width: int) -> np.ndarray:
    """Bitstrings as an (N, width) boolean array, character i in column i."""
    strings = list(outcomes)
    raw = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
    return raw.reshape(len(strings), width) == ord("1")


def pack_outcomes(outcomes: Iterable[str], width: int) -> np.ndarray:
    """Pack bitstrings into an (N, n_words) uint64 array.

    Character i is bit ``63 - i % 64`` of word ``i // 64``; all bits beyond
    the declared width stay zero. XOR + popcount on the packed rows
    reproduces string Hamming distance.
    """
    n_words = (width + 63) // 64
    bits = bit_matrix(outcomes, width)
    packed = np.zeros((len(bits), 8 * n_words), dtype=np.uint8)
    packed[:, :(width + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(">u8").astype(np.uint64)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance matrix between packed rows of ``a`` and ``b``."""
    if a.shape[1] == 1:
        return np.bitwise_count(a[:, 0][:, None] ^ b[:, 0][None, :])
    dist = np.zeros((a.shape[0], b.shape[0]), dtype=np.uint16)
    for w in range(a.shape[1]):
        dist += np.bitwise_count(a[:, w][:, None] ^ b[:, w][None, :])
    return dist


def min_distances_to_set(outcomes: list[str], reference, width: int) -> np.ndarray:
    """Shortest Hamming distance from each outcome to any of ``reference``.

    With a single reference outcome x this is the distance row from x to
    every outcome, as the per-outcome diagnostics need it.
    """
    codes = pack_outcomes(outcomes, width)
    ref_codes = pack_outcomes(reference, width)
    return pairwise_distances(codes, ref_codes).min(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# JSON interchange: {"<bitstring>": weight, ...} in UTF-8.

def distribution_from_json_obj(obj) -> Distribution:
    """Build a distribution from a decoded counts/probability JSON object.

    All-integer values are treated as counts; any other value switches the
    whole object to probabilities (which must sum to 1 within tolerance).
    An empty or all-zero object, and anything :class:`Distribution` rejects
    (NaN and infinities too, which Python's JSON parser accepts), raise
    :class:`ParseError`.
    """
    counts = isinstance(obj, dict) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in obj.values()
    )
    return _parsed(obj, "counts" if counts else "probabilities")


def read_json(path, parse):
    """``parse`` of the JSON file at ``path``, ``"-"`` meaning standard input.

    Invalid JSON and the errors of ``parse`` raise :class:`ParseError`
    prefixed with the path, or with ``stdin``.
    """
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        return parse(obj)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{name}: invalid JSON: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from None


def load_distribution(path) -> Distribution:
    """Read a counts or probability JSON file (kind auto-detected); "-" is stdin."""
    return read_json(path, distribution_from_json_obj)


def distribution_to_json(d: Distribution) -> str:
    """Entries as JSON text in canonical key order, counts as integers."""
    payload = {k: (int(v) if d.kind == "counts" else v) for k, v in d.entries.items()}
    return json.dumps(payload, indent=2) + "\n"


def write_files(texts: Mapping) -> None:
    """Write each ``{path: text}`` item as UTF-8, replacing whole files.

    Every text first goes to a new hidden file beside its target, and the
    targets are replaced with ``os.replace`` only once all of those are
    written. A failed write therefore leaves every target as it was, and
    the temporary files it made are removed. A symlinked target is written
    through its link; a replaced file gets default permissions.
    """
    staged = []
    try:
        for path, text in texts.items():
            path = os.path.realpath(path)
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def save_distribution(d: Distribution, path) -> None:
    """Write entries as a JSON object, preserving canonical key order.

    The file is replaced in one step (see :func:`write_files`).
    """
    write_files({path: distribution_to_json(d)})
