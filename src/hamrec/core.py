"""Bitstring outcomes, sparse distributions, and Hamming kernels.

Outcomes are strings over {0,1} at the boundary: file formats, CLI
arguments, masks. The LEFTMOST character is bit index 0 everywhere.

Inside the library a :class:`Distribution` holds its outcomes as packed
rows of 64-bit words (character i is bit ``63 - i % 64`` of word
``i // 64``), sorted ascending, which is ascending bitstring order, beside
one array of weights. The pairwise kernels in the analysis and
reconstruction modules run on those rows as vectorized XOR + popcount.
Bitstrings are made from the rows only by the JSON writer,
``Distribution.outcomes()`` and ``Distribution.entries``.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from . import ParseError, UsageError, _check_outputs

PROB_SUM_TOL = 1e-9

# Counts are stored as int64: every count, and their total, stays below this.
COUNT_LIMIT = 2**63

_BITS = frozenset("01")


def _check_bitstring(s: str, width: int | None = None) -> str:
    if not isinstance(s, str) or not s:
        raise UsageError(f"outcome must be a non-empty bitstring, got {s!r}")
    if not _BITS.issuperset(s):
        raise UsageError(f"outcome {s!r} contains non-binary characters")
    if width is not None and len(s) != width:
        raise UsageError(f"outcome {s!r} has width {len(s)}, expected {width}")
    return s


def _is_integer(value) -> bool:
    """An integer of any integer type, numpy's included, but not a bool.
    A plain ``int`` skips the slower ABC check."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number of any real type, numpy's included, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _checked_integer(value, what: str, minimum: int) -> int:
    """``value`` as an ``int``; UsageError unless it is an integer (see
    :func:`_is_integer`) of at least ``minimum``."""
    if not (_is_integer(value) and value >= minimum):
        raise UsageError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _as_float(value) -> float:
    """A real number as a ``float``; one beyond float range (an integer or
    a fraction) is the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def hamming_distance(a: str, b: str) -> int:
    """Number of differing bit positions between two equal-width outcomes."""
    return min_distance_to_set(a, [b])


def min_distance_to_set(x: str, reference: Iterable[str]) -> int:
    """Shortest Hamming distance from ``x`` to any outcome in ``reference``."""
    width = len(_check_bitstring(x))
    refs = reference_codes(reference, width)
    return int(min_distances_to_set(pack_outcomes([x], width), refs)[0])


@dataclass(frozen=True)
class _Packed:
    """Packed outcome rows and their weights, in any order: the ``entries``
    that code already holding arrays passes, checked as a map is."""

    codes: np.ndarray
    weights: np.ndarray


def _check_entry(key, weight, width: int, kind: str) -> None:
    """Raise UsageError for the first check that one entry fails."""
    _check_bitstring(key, width=width)
    if not _is_real(weight):
        raise UsageError(f"weight for outcome {key!r} is not a number: {weight!r}")
    if kind == "counts":
        if not isinstance(weight, numbers.Integral):
            raise UsageError(f"count for outcome {key!r} is not an integer: {weight!r}")
        weight = int(weight)
        if weight >= COUNT_LIMIT:
            raise UsageError(f"count {weight!r} for outcome {key!r} is 2**63 or more")
    else:
        weight = _as_float(weight)
        if not math.isfinite(weight):
            raise UsageError(f"non-finite weight {weight!r} for outcome {key!r}")
    if weight < 0:
        raise UsageError(f"negative weight {weight!r} for outcome {key!r}")


def _map_arrays(entries: Mapping, width: int, kind: str) -> _Packed:
    """A ``{bitstring: weight}`` map as arrays; :func:`_checked_arrays`
    checks the weights' values. If a weight's type is wrong, or a key or
    weight cannot join its array, the entries are checked one by one, so
    the error names the first bad entry in the map's order."""
    keys, values = list(entries), list(entries.values())
    dtype, wanted = (np.int64, numbers.Integral) if kind == "counts" else (np.float64, numbers.Real)
    try:
        if any(issubclass(t, bool) or not issubclass(t, wanted) for t in set(map(type, values))):
            raise TypeError("a weight of the wrong type")
        return _Packed(pack_outcomes(keys, width), np.array(values, dtype=dtype))
    except (TypeError, ValueError, OverflowError):  # UsageError included
        for key, weight in zip(keys, values):
            _check_entry(key, weight, width, kind)
        raise


def _checked_arrays(packed: _Packed, width: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The one array validator: read-only copies of the codes in ascending
    order and of their weights, with zero weights dropped. At least one
    weight must be positive, so the result is never empty. Weights are
    checked in the caller's order, so an error names the first bad entry;
    the codes are sorted once, which also finds a repeated outcome."""
    codes, weights = np.asarray(packed.codes), np.asarray(packed.weights)
    if (codes.dtype != np.uint64 or weights.ndim != 1
            or codes.shape != (len(weights), (width + 63) // 64)
            or weights.dtype.kind not in ("iu" if kind == "counts" else "iuf")):
        raise UsageError(f"packed {kind} do not fit width {width}")
    weights = weights.astype(np.int64 if kind == "counts" else np.float64, copy=False)
    bad = ~(np.isfinite(weights) & (weights >= 0))
    if bad.any():
        first = int(bad.argmax())
        key = code_strings(codes[first:first + 1], width)[0]
        _check_entry(key, weights[first].item(), width, kind)
    keep = weights != 0
    if not keep.any():
        raise UsageError("no outcome has a positive weight")
    codes, weights = codes[keep], weights[keep]  # copies, so no caller's array is aliased
    order, first = sort_rows(codes)
    if not first.all():
        raise UsageError("an outcome appears more than once")
    codes, weights = codes[order], weights[order]
    with np.errstate(over="ignore"):  # an overflow to inf fails the sum check below
        total = float(weights.sum(dtype=np.float64))  # an int64 sum could wrap
    if kind == "counts" and total >= COUNT_LIMIT / 2 and sum(weights.tolist()) >= COUNT_LIMIT:
        raise UsageError("counts sum to 2**63 or more")
    if kind == "probabilities" and abs(total - 1.0) > PROB_SUM_TOL:
        raise UsageError(f"probabilities sum to {total!r}, expected 1 +- {PROB_SUM_TOL}")
    codes.flags.writeable = weights.flags.writeable = False
    return codes, weights


# The last ``entries`` dict built and the distribution it was built for,
# kept until the next build of a distribution starts.
_last_entries: tuple = (None, None)


@dataclass(frozen=True, init=False, eq=False)
class Distribution:
    """Sparse outcome histogram: counts or probabilities over n-bit strings.

    The one home of key and weight validation, parsers included.
    ``width`` is an integer >= 1 (numpy integers too, not ``bool``).
    ``entries`` maps width-n bitstrings to finite, non-negative real
    weights (not ``bool``): integers for kind="counts", each and in total
    below 2**63, or reals for kind="probabilities" that sum to 1 within
    ``PROB_SUM_TOL``. Zero-weight entries are dropped, and at least one
    weight must be positive: a distribution always holds an outcome, as
    a measured histogram does. ``entries`` has no default. Anything else,
    a non-mapping ``entries`` included, raises :class:`UsageError` naming
    the first bad entry in the map's order.

    Every function that takes a distribution accepts either kind: its
    first step is :func:`as_probabilities`, which returns probabilities as
    they are and normalizes counts.

    Validation happens here, at the boundary, and only here: every
    distribution a caller builds, parses or loads is checked once. The
    parsers add one check of their own, that the input is a map at all.
    Distributions the library derives from a checked one (:func:`normalize`,
    :func:`hamrec.reconstruct.hammer`) are the one value built without a
    check, by ``_with_probabilities``; they share their input's ``codes``
    array, so they are never empty either.

    A distribution is immutable. It holds two read-only arrays: ``codes``,
    the outcomes packed as by :func:`pack_outcomes` in ascending order
    (ascending bitstring order), and ``weights``, int64 counts or float64
    probabilities. ``outcomes()`` makes bitstrings from them on each call,
    and ``entries`` keeps the one dict it last made until the next
    build starts (see ``entries``). Distributions are equal when
    their width, kind, codes and weights are.
    """

    width: int
    kind: str
    codes: np.ndarray
    weights: np.ndarray
    __hash__ = None

    def __init__(self, width: int, entries: Mapping | _Packed, kind: str = "counts"):
        global _last_entries
        _last_entries = (None, None)  # before the checks build the new arrays
        width = _checked_integer(width, "width", 1)
        if kind not in ("counts", "probabilities"):
            raise UsageError(f"kind must be counts or probabilities, got {kind!r}")
        if isinstance(entries, Mapping):
            entries = _map_arrays(entries, width, kind)
        elif not isinstance(entries, _Packed):
            raise UsageError(f"entries must be a mapping, got {type(entries).__name__}")
        self._store(width, kind, *_checked_arrays(entries, width, kind))

    def _store(self, width: int, kind: str, codes: np.ndarray, weights: np.ndarray) -> None:
        """Set the four fields."""
        for name, value in (("width", width), ("kind", kind), ("codes", codes), ("weights", weights)):
            object.__setattr__(self, name, value)

    def _with_probabilities(self, probs: np.ndarray) -> Distribution:
        """Probabilities ``probs`` derived from this distribution, on its
        support and sharing its ``codes``: the one distribution built
        without a check. ``probs`` becomes read-only."""
        global _last_entries
        _last_entries = (None, None)
        probs.flags.writeable = False
        # type(self), not the module-level name, which the benchmark's
        # tracer replaces with a timing wrapper while it runs.
        derived = object.__new__(type(self))
        derived._store(self.width, "probabilities", self.codes, probs)
        return derived

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.width == other.width and self.kind == other.kind
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.weights, other.weights))

    def __repr__(self) -> str:
        return f"Distribution(width={self.width}, entries={self.entries!r}, kind={self.kind!r})"

    def __len__(self) -> int:
        return len(self.weights)

    def total(self):
        """Sum of all weights (an exact int for counts)."""
        total = self.weights.sum()
        return int(total) if self.kind == "counts" else float(total)

    def outcomes(self) -> list[str]:
        """The support as bitstrings, in ascending order."""
        return code_strings(self.codes, self.width)

    @property
    def entries(self) -> dict:
        """``{bitstring: weight}`` in ascending key order, ``int`` counts or
        ``float`` probabilities.

        Changing the dict does not change the distribution. Until another
        distribution is built or read, reading the same distribution's
        ``entries`` again returns that same dict, so a read-modify-read
        sees its own change, as when the dict was stored. The benchmark's
        self-check corrupts an output that way. Only that one dict is
        kept. A build drops it before its checks, so it is dropped even
        when the build fails, and it is never alive beside the new
        input's arrays.
        """
        global _last_entries
        owner, entries = _last_entries
        if owner is not self:
            entries = dict(zip(self.outcomes(), self.weights.tolist()))
            _last_entries = (self, entries)
        return entries

    def probability(self, outcome: str):
        """The weight of ``outcome``, or 0.0 when it is not in the support."""
        try:
            code = pack_outcomes([outcome], self.width)
        except UsageError:
            return 0.0
        hit = (self.codes == code).all(axis=1)
        return self.weights[hit][0].item() if hit.any() else 0.0


def _parsed(raw, kind: str) -> Distribution:
    """A ``{bitstring: weight}`` map as a distribution, or ParseError.

    The only check made here is that ``raw`` is a map; every other one,
    emptiness included, is the constructor's, with its message.
    """
    if not isinstance(raw, Mapping):
        raise ParseError("expected a map of bitstrings to weights")
    first = next(iter(raw), None)
    # A first key that is not a bitstring still reaches the validator, which names it.
    width = (isinstance(first, str) and len(first)) or 1
    try:
        return Distribution(width=width, entries=raw, kind=kind)
    except UsageError as exc:
        raise ParseError(str(exc)) from None


def from_counts(raw: Mapping[str, int]) -> Distribution:
    """Parse a ``{bitstring: count}`` map into a counts distribution.

    Counts may be any integer type, numpy integers included. Zero-count keys
    are dropped; anything :class:`Distribution` rejects raises
    :class:`ParseError` with its message, so an empty map and an all-zero
    one both read "no outcome has a positive weight". A value that is not
    a map reads "expected a map of bitstrings to weights".
    """
    return _parsed(raw, "counts")


def normalize(d: Distribution) -> Distribution:
    """Convert to probabilities by dividing each weight by the total.

    Probability inputs are returned unchanged, which makes the operation
    exactly idempotent. ``d`` holds a positive count, and counts and their
    total stay below 2**63, so the total is positive and no probability
    underflows to 0. The result is derived from the checked ``d`` and not
    checked again: it shares ``d.codes``.
    """
    if d.kind == "probabilities":
        return d
    return d._with_probabilities(d.weights / d.total())


# The first step of every function that takes a distribution, so each
# accepts counts or probabilities alike.
as_probabilities = normalize


def reference_codes(reference, width: int) -> np.ndarray:
    """A non-empty collection of width-n bitstrings (not one ``str``,
    ``bytes`` or ``bytearray``) as packed rows, deduplicated and in
    ascending order: the one door for a reference set."""
    if isinstance(reference, (str, bytes, bytearray)) or not isinstance(reference, Iterable):
        raise UsageError(f"reference set must be a collection of bitstrings, got {reference!r}")
    codes = pack_outcomes(reference, width)
    if not len(codes):
        raise UsageError("reference set must be non-empty")
    order, first = sort_rows(codes)
    return codes[order][first]


# ---------------------------------------------------------------------------
# Packed representation used by the pairwise kernels.

def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack (N, width) boolean rows into an (N, n_words) uint64 array.

    Column i is bit ``63 - i % 64`` of word ``i // 64``; all bits beyond
    the width stay zero. XOR + popcount on the packed rows reproduces
    string Hamming distance, and rows compared word by word order as
    their bitstrings do.
    """
    n, width = bits.shape
    packed = np.zeros((n, 8 * ((width + 63) // 64)), dtype=np.uint8)
    packed[:, :(width + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(">u8").astype(np.uint64)


def pack_outcomes(outcomes: Iterable[str], width: int) -> np.ndarray:
    """Width-n bitstrings as an (N, n_words) uint64 array (see :func:`pack_bits`):
    the one checked door from bitstrings to codes. UsageError names the first bad one."""
    strings = list(outcomes)
    chars = None
    with contextlib.suppress(TypeError, ValueError):  # the check below names it
        if set(map(len, strings)) <= {width}:
            chars = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
            chars = chars.reshape(len(strings), width)
    if chars is None or ((chars | 1) != ord("1")).any():
        for s in strings:
            _check_bitstring(s, width)
    return pack_bits(chars == ord("1"))


def sort_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts packed rows ascending (in bitstring
    order), and a mask of the sorted rows that start a run of equal rows."""
    order = np.lexsort(codes.T[::-1])
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, first


def code_bits(codes: np.ndarray, width: int) -> np.ndarray:
    """Packed rows as an (N, width) boolean array: the inverse of :func:`pack_bits`."""
    octets = codes.astype(">u8").view(np.uint8).reshape(len(codes), 8 * codes.shape[1])
    return np.unpackbits(octets, axis=1, count=width).view(bool)


def code_strings(codes: np.ndarray, width: int) -> list[str]:
    """Packed rows as bitstrings."""
    chars = code_bits(codes, width).view(np.uint8) + ord("0")
    return chars.view(f"S{width}").ravel().astype(str).tolist()


def pairwise_distances(a: np.ndarray, b: np.ndarray, scratch: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Hamming distance matrix between packed rows of ``a`` and ``b``.

    Rows are words of one unsigned dtype: the uint64 codes, or one-word
    codes narrowed to a smaller lane (such as ``codes >> 32`` as uint32 for
    width <= 32). ``scratch``, an array of that dtype with len(a) * len(b)
    elements, takes the XOR of each word. ``out``, an unsigned array of as
    many elements of a type that holds the largest distance, takes the
    distances and is returned reshaped. Without them each call allocates
    its own, the distances in the narrowest unsigned type that holds the
    number of bits in a row, so that no distance wraps.
    """
    shape = (a.shape[0], b.shape[0])
    xor = np.empty(shape, dtype=a.dtype) if scratch is None else scratch.reshape(shape)
    if out is None:
        out = np.empty(shape, dtype=np.min_scalar_type(8 * a.dtype.itemsize * a.shape[1]))
    dist = out.reshape(shape)
    count = None
    for w in range(a.shape[1]):
        np.bitwise_xor(a[:, w:w + 1], b[:, w], out=xor)
        if w == 0:
            np.bitwise_count(xor, out=dist)
        else:  # one popcount buffer for every later word
            count = np.bitwise_count(xor, out=count)
            dist += count
    return dist


def min_distances_to_set(codes: np.ndarray, ref_codes: np.ndarray) -> np.ndarray:
    """Shortest Hamming distance from each packed row to any row of ``ref_codes``.

    With a single reference row x this is the distance row from x to
    every outcome, as the per-outcome diagnostics need it.
    """
    return pairwise_distances(codes, ref_codes).min(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# JSON interchange: {"<bitstring>": weight, ...} in UTF-8.

def distribution_from_json_obj(obj) -> Distribution:
    """Build a distribution from a decoded counts/probability JSON object.

    All-integer values are treated as counts; any other value switches the
    whole object to probabilities (which must sum to 1 within tolerance).
    Anything :class:`Distribution` rejects (NaN and infinities too, which
    Python's JSON parser accepts) raises :class:`ParseError` with its
    message: an empty object and an all-zero one both read "no outcome
    has a positive weight". A value that is not an object, such as a
    list, reads "expected a map of bitstrings to weights".
    """
    counts = isinstance(obj, dict) and all(
        issubclass(t, int) and t is not bool for t in set(map(type, obj.values()))
    )
    return _parsed(obj, "counts" if counts else "probabilities")


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object as a dict; ParseError names its first repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"key {key!r} appears more than once")
            seen.add(key)
    return obj


def read_json(path, parse):
    """``parse`` of the JSON file at ``path``, ``"-"`` meaning standard input.

    A file and stdin alike are read as bytes and decoded as strict UTF-8,
    so the same bytes give the same result or message. Invalid JSON, an
    object that repeats a key, and the errors of ``parse`` raise
    :class:`ParseError` prefixed with the path, or with ``stdin``; a closed
    stdin is a :class:`UsageError`.
    """
    name = "stdin" if path == "-" else path
    if path == "-" and sys.stdin is None:
        raise UsageError("stdin is closed")
    try:  # the bytes, whatever the locale's decoding
        with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
            obj = json.loads(fh.read().decode("utf-8"), object_pairs_hook=_unique_keys)
        return parse(obj)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{name}: invalid JSON: {exc}") from None
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from None


def load_distribution(path) -> Distribution:
    """Read a counts or probability JSON file (kind auto-detected); "-" is stdin."""
    return read_json(path, distribution_from_json_obj)


def distribution_to_json(d: Distribution) -> str:
    """Entries as JSON text in canonical key order, counts as integers.

    The text of ``json.dumps(d.entries, indent=2) + "\\n"``, written line by
    line: ``indent`` makes ``json`` use its pure-Python encoder.
    """
    lines = [f'  "{k}": {v!r}' for k, v in zip(d.outcomes(), d.weights.tolist())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_files(texts: Mapping) -> None:
    """Write each ``{path: text}`` item as UTF-8, replacing whole files;
    ``"-"`` is stdout, written last. A path that breaks an output rule (see
    ``hamrec._check_outputs``) is a UsageError before anything is staged.

    Every file's text first goes to a new hidden file beside its target, and
    the targets are replaced with ``os.replace`` only once all of those are
    written. A failed write therefore leaves every target as it was and
    stdout empty, and the temporary files it made are removed. A symlinked
    target is written through its link; a replaced file gets default permissions.
    """
    _check_outputs(*texts)
    staged = []
    try:
        for path, text in ((p, t) for p, t in texts.items() if p != "-"):
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
    if "-" in texts:
        sys.stdout.write(texts["-"])


def save_distribution(d: Distribution, path) -> None:
    """Write entries as a JSON object in canonical key order, to a file
    replaced in one step or, for ``"-"``, to stdout (see :func:`write_files`)."""
    write_files({path: distribution_to_json(d)})
