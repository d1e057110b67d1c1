"""Max-Cut cost machinery for QAOA-style figures of merit.

Costs follow the convention that a cut edge contributes -w, so good cuts
are *negative* and the optimum C_min is the most negative value. Spins map
bit i = 0 to s_i = +1 (the leftmost character of an outcome is vertex 0);
every quantity here is invariant under the global spin flip, so the choice
only fixes bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Distribution,
    ParseError,
    UsageError,
    _check_bitstring,
    as_probabilities,
    bit_matrix,
    read_json,
    require_probabilities,
    support_arrays,
)

# Exhaustive search above this many vertices is not attempted; callers must
# supply a known optimum instead (the CLI exposes --cmin for that).
BRUTE_FORCE_LIMIT = 26

_BLOCK = 1 << 20


class CapabilityError(UsageError):
    """The requested computation exceeds a built-in size limit."""


@dataclass(frozen=True)
class CutGraph:
    """Undirected weighted graph; vertices are bit positions of an outcome."""

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise UsageError("graph needs at least one vertex")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise UsageError(f"edge ({u}, {v}) out of range for {self.n_vertices} vertices")
            if u == v:
                raise UsageError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise UsageError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            float(w)

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


def _spin_matrix(outcomes, width: int) -> np.ndarray:
    """(N, width) array of +-1 spins; bit '0' maps to +1."""
    return 1 - 2 * bit_matrix(outcomes, width).astype(np.int64)


def _costs(g: CutGraph, spins: np.ndarray) -> np.ndarray:
    cost = np.zeros(spins.shape[0])
    for u, v, w in g.edges:
        cost += w * spins[:, u] * spins[:, v]
    return cost


def cut_cost(g: CutGraph, x: str) -> float:
    """Cost of one assignment: sum of w * s_u * s_v over the edges."""
    _check_bitstring(x, width=g.n_vertices)
    spins = _spin_matrix([x], g.n_vertices)
    return float(_costs(g, spins)[0])


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
    shifts = np.array([n - 1 - i for i in range(n)], dtype=np.uint64)
    best = np.inf
    total = 1 << (n - 1)
    for start in range(0, total, _BLOCK):
        vals = np.arange(start, min(start + _BLOCK, total), dtype=np.uint64)
        bits = (vals[:, None] >> shifts[None, :]) & np.uint64(1)
        spins = 1 - 2 * bits.astype(np.int64)
        best = min(best, float(_costs(g, spins).min()))
    return best


def expected_cost(g: CutGraph, d: Distribution) -> float:
    """Probability-weighted average cut cost, Σ_x p(x)·C(x)."""
    require_probabilities(d, "expected_cost")
    if d.width != g.n_vertices:
        raise UsageError(f"width mismatch: distribution {d.width}, graph {g.n_vertices}")
    if len(d) == 0:
        raise UsageError("expected_cost of an empty distribution is undefined")
    outcomes, probs = support_arrays(d)
    return float(_costs(g, _spin_matrix(outcomes, d.width)) @ probs)


def _resolved_c_min(g: CutGraph, c_min_override: float | None) -> float:
    cmin = c_min(g) if c_min_override is None else float(c_min_override)
    if cmin == 0.0:
        raise UsageError("C_min is zero (edgeless graph?); cost ratio is undefined")
    return cmin


def cost_ratio(g: CutGraph, d: Distribution, c_min_override: float | None = None) -> float:
    """Cost Ratio C_exp / C_min; 1 is optimal, negative means anti-optimal."""
    cmin = _resolved_c_min(g, c_min_override)
    # adding 0.0 collapses -0.0 (cmin is negative on sane graphs) to 0.0
    return expected_cost(g, as_probabilities(d)) / cmin + 0.0


def quality_curve(g: CutGraph, d: Distribution, c_min_override: float | None = None) -> QualityCurve:
    """Cumulative probability of reaching each cost ratio or better.

    Outcomes with identical cost collapse into a single point; points are
    ordered from the best ratio (1 when the optimum was observed) downward.
    """
    cmin = _resolved_c_min(g, c_min_override)
    d = as_probabilities(d)
    if len(d) == 0:
        raise UsageError("quality_curve of an empty distribution is undefined")
    outcomes = d.outcomes()
    costs = _costs(g, _spin_matrix(outcomes, d.width))
    mass: dict[float, float] = {}
    for x, c in zip(outcomes, costs):
        ratio = float(c) / cmin + 0.0  # collapse -0.0 from zero-cost cuts
        mass[ratio] = mass.get(ratio, 0.0) + d.entries[x]
    points = []
    running = 0.0
    for ratio in sorted(mass, reverse=True):
        running += mass[ratio]
        points.append((ratio, running))
    return QualityCurve(points=tuple(points))


def graph_from_json_obj(obj) -> CutGraph:
    """Parse ``{"n": int, "edges": [[u, v, w], ...]}``; w defaults to 1.0."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('graph JSON must be an object with "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise ParseError(f"edge {item!r} must be [u, v] or [u, v, w]")
        u, v = item[0], item[1]
        w = item[2] if len(item) == 3 else 1.0
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in (u, v)):
            raise ParseError(f"edge endpoints must be integers, got {item!r}")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ParseError(f"edge weight must be a number, got {item!r}")
        edges.append((u, v, float(w)))
    try:
        return CutGraph(n_vertices=n, edges=tuple(edges))
    except UsageError as exc:
        raise ParseError(str(exc)) from exc


def graph_to_json_obj(g: CutGraph) -> dict:
    return {"n": g.n_vertices, "edges": [[u, v, w] for u, v, w in g.edges]}


def load_graph(path) -> CutGraph:
    """Read a graph JSON file; ``"-"`` means standard input."""
    return read_json(path, graph_from_json_obj)
