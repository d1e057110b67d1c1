"""Max-Cut cost machinery for QAOA-style figures of merit.

Costs follow the convention that a cut edge contributes -w, so good cuts
are *negative* and the optimum C_min is the most negative value. Spins map
bit i = 0 to s_i = +1 (the leftmost character of an outcome is vertex 0);
every quantity here is invariant under the global spin flip, so the choice
only fixes bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Distribution,
    ParseError,
    UsageError,
    _is_integer,
    _is_real,
    as_probabilities,
    code_bits,
    pack_outcomes,
    read_json,
)

# Exhaustive search above this many vertices is not attempted; callers must
# supply a known optimum instead (the CLI exposes --cmin for that).
BRUTE_FORCE_LIMIT = 26

_BLOCK = 1 << 20


class CapabilityError(UsageError):
    """The requested computation exceeds a built-in size limit."""


@dataclass(frozen=True)
class CutGraph:
    """Undirected weighted graph; vertices are bit positions of an outcome.

    The one home of graph validation, parser included: the vertex count and
    the endpoints are integers (not ``bool``), endpoints lie in range, there
    are no self-loops or duplicate edges, and every weight is a finite real
    (not ``bool``), stored as ``float``, and the weights' absolute values
    sum to a finite ``total_weight``, which bounds every cut cost. Anything
    else raises :class:`UsageError`.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not _is_integer(self.n_vertices):
            raise UsageError(f"vertex count must be an integer, got {self.n_vertices!r}")
        if self.n_vertices < 1:
            raise UsageError("graph needs at least one vertex")
        seen = set()
        edges = []
        for edge in self.edges:
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise UsageError(f"edge {edge!r} must be a (u, v, weight) triple") from None
            if not (_is_integer(u) and _is_integer(v)):
                raise UsageError(f"edge endpoints must be integers, got {edge!r}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise UsageError(f"edge ({u}, {v}) out of range for {self.n_vertices} vertices")
            if u == v:
                raise UsageError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise UsageError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            if not _is_real(w):
                raise UsageError(f"edge weight must be a number, got {edge!r}")
            try:
                w = float(w)
            except OverflowError:  # an integer beyond float range
                w = math.inf
            if not math.isfinite(w):
                raise UsageError(f"non-finite edge weight in {edge!r}")
            edges.append((int(u), int(v), w))
        object.__setattr__(self, "n_vertices", int(self.n_vertices))
        object.__setattr__(self, "edges", tuple(edges))
        if not math.isfinite(self.total_weight):
            raise UsageError("total edge weight is beyond float range")

    @property
    def total_weight(self) -> float:
        return float(sum(abs(w) for _, _, w in self.edges))


@dataclass(frozen=True)
class QualityCurve:
    """Cumulative probability of outcomes at or above each cost ratio.

    Points are (ratio, cumulative_probability) sorted by descending ratio;
    the cumulative value is non-decreasing and ends at 1.
    """

    points: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def to_json_obj(self) -> list:
        return [[r, c] for r, c in self.points]

    def to_csv(self) -> str:
        lines = ["ratio,cumulative_probability"]
        lines.extend(f"{r!r},{c!r}" for r, c in self.points)
        return "\n".join(lines) + "\n"


def _costs(g: CutGraph, codes: np.ndarray, width: int) -> np.ndarray:
    """Cut cost of each packed row of ``width`` bits: -w per cut edge, else +w."""
    if width != g.n_vertices:
        raise UsageError(f"width mismatch: distribution {width}, graph {g.n_vertices}")
    bits = code_bits(codes, width)
    cost = np.zeros(len(codes))
    for u, v, w in g.edges:
        cost += np.where(bits[:, u] == bits[:, v], w, -w)
    return cost


def cut_cost(g: CutGraph, x: str) -> float:
    """Cost of one assignment: sum of w * s_u * s_v over the edges."""
    return float(_costs(g, pack_outcomes([x], g.n_vertices), g.n_vertices)[0])


def c_min(g: CutGraph, limit: int = BRUTE_FORCE_LIMIT) -> float:
    """Exact minimum cut cost by exhaustive search.

    The complement of an assignment has the same cost, so only assignments
    with vertex 0 fixed to spin +1 are enumerated (half the space). Graphs
    larger than ``limit`` vertices raise instead of grinding; pass a known
    optimum to cost_ratio in that case.
    """
    n = g.n_vertices
    if n > limit:
        raise CapabilityError(
            f"brute-force c_min is limited to {limit} vertices (got {n}); "
            "supply the optimum explicitly via --cmin"
        )
    if not g.edges:
        return 0.0
    best = np.inf
    total = 1 << (n - 1)
    for start in range(0, total, _BLOCK):
        # Assignment k as a one-word code: its n bits at the top of the word.
        codes = np.arange(start, min(start + _BLOCK, total), dtype=np.uint64) << np.uint64(64 - n)
        best = min(best, float(_costs(g, codes[:, None], n).min()))
    return best


def expected_cost(g: CutGraph, d: Distribution) -> float:
    """Probability-weighted average cut cost, Σ_x p(x)·C(x); counts are
    normalized first."""
    d = as_probabilities(d)
    return float(_costs(g, d.codes, d.width) @ d.weights)


def _resolved_c_min(g: CutGraph, c_min_override: float | None) -> float:
    cmin = c_min(g) if c_min_override is None else float(c_min_override)
    if not (math.isfinite(cmin) and cmin != 0.0):
        raise UsageError(
            f"C_min must be finite and non-zero for a cost ratio, got {cmin!r} "
            "(an edgeless graph has C_min 0)"
        )
    return cmin


def _ratios(costs, cmin: float):
    """costs / C_min, with -0.0 collapsed to 0.0 (cmin is negative on sane
    graphs); UsageError if a ratio overflows, as a tiny C_min can make it."""
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        ratios = np.divide(costs, cmin) + 0.0
    if not np.isfinite(ratios).all():
        raise UsageError(f"a cost ratio overflows float64 with C_min {cmin!r}")
    return ratios


def cost_ratio(g: CutGraph, d: Distribution, c_min_override: float | None = None) -> float:
    """Cost Ratio C_exp / C_min; 1 is optimal, negative means anti-optimal."""
    cmin = _resolved_c_min(g, c_min_override)
    return float(_ratios(expected_cost(g, d), cmin))


def quality_curve(g: CutGraph, d: Distribution, c_min_override: float | None = None) -> QualityCurve:
    """Cumulative probability of reaching each cost ratio or better.

    Outcomes with identical cost collapse into a single point; points are
    ordered from the best ratio (1 when the optimum was observed) downward.
    """
    cmin = _resolved_c_min(g, c_min_override)
    d = as_probabilities(d)
    ratios, slot = np.unique(_ratios(_costs(g, d.codes, d.width), cmin), return_inverse=True)
    # bincount and cumsum add in order, one term at a time: each ratio's
    # mass in ascending outcome order, then the ratios from the best down.
    mass = np.bincount(slot, weights=d.weights, minlength=len(ratios))[::-1]
    return QualityCurve(points=tuple(zip(ratios[::-1].tolist(), np.cumsum(mass).tolist())))


def graph_from_json_obj(obj) -> CutGraph:
    """Parse ``{"n": int, "edges": [[u, v, w], ...]}``; w defaults to 1.0."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('graph JSON must be an object with "n" and "edges"')
    if not isinstance(obj["edges"], (list, tuple)):
        raise ParseError('graph "edges" must be a list')
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise ParseError(f"edge {item!r} must be [u, v] or [u, v, w]")
        edges.append((*item, 1.0) if len(item) == 2 else tuple(item))
    try:
        return CutGraph(n_vertices=obj["n"], edges=tuple(edges))
    except UsageError as exc:
        raise ParseError(str(exc)) from exc


def graph_to_json_obj(g: CutGraph) -> dict:
    return {"n": g.n_vertices, "edges": [[u, v, w] for u, v, w in g.edges]}


def load_graph(path) -> CutGraph:
    """Read a graph JSON file; ``"-"`` means standard input."""
    return read_json(path, graph_from_json_obj)
