"""Exact enumeration of small graph models into count instances.

Spin assignments, colorings and matchings are enumerated exhaustively with
64-bit integer counters, then converted to log-space counts; desk-scale graphs
only (the enumeration budget caps state spaces at 2^24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import CountInstance, check_count

__all__ = [
    "GraphSpec",
    "ENUMERATION_BUDGET",
    "BudgetExceededError",
    "enumerate_ising",
    "enumerate_colorings",
    "enumerate_matchings",
    "beta_max_for_ground_state",
    "load_graph",
]

ENUMERATION_BUDGET = 2 ** 24

class BudgetExceededError(ValueError):
    """The requested enumeration or trial is larger than its budget."""


@dataclass(frozen=True)
class GraphSpec:
    """An undirected simple graph: vertex count plus canonical edge list."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        canon = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) references missing vertex")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def load_graph(path) -> GraphSpec:
    """Read an edge list, one `u v` pair per line, 0-indexed; '#' comments."""
    edges = []
    max_vertex = -1
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                u, v = (int(tok) for tok in line.split())
            except ValueError:
                raise ValueError(f"{path} line {number}: expected 'u v', two vertex numbers") from None
            edges.append((u, v))
            max_vertex = max(max_vertex, u, v)
    if max_vertex < 0:
        raise ValueError(f"no edges found in {path}")
    return GraphSpec(max_vertex + 1, tuple(edges))


def _check_budget(n_states: int, what: str) -> None:
    if n_states > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{what} has {n_states} states, above the enumeration budget {ENUMERATION_BUDGET}"
        )


def enumerate_ising(g: GraphSpec, beta_min: float = 0.0, beta_max: float = 2.0) -> CountInstance:
    """Count spin assignments by number of disagreeing edges.

    States are the 2^|V| sign assignments; the energy of a state is the number
    of edges whose endpoints disagree.
    """
    n_states = 2 ** g.n_vertices
    _check_budget(n_states, f"ising on {g.n_vertices} vertices")
    masks = np.arange(n_states, dtype=np.uint32)
    energy = np.zeros(n_states, dtype=np.int64)
    for u, v in g.edges:
        energy += ((masks >> np.uint32(u)) ^ (masks >> np.uint32(v))) & 1
    counts = np.bincount(energy, minlength=1)
    support = [(h, int(c)) for h, c in enumerate(counts) if c > 0]
    return CountInstance.from_counts(support, beta_min, beta_max, n=max(1, g.n_edges))


def enumerate_colorings(
    g: GraphSpec, kcolors: int, beta_min: float = 0.0, beta_max: float | None = None
) -> CountInstance:
    """Count k-colorings by number of monochromatic edges.

    The zero-energy count is the number of proper colorings.  When beta_max is
    omitted it is chosen so the partition function at beta_max is within 1e-3
    relative of the proper-coloring count (see beta_max_for_ground_state).
    """
    kcolors = check_count("kcolors", kcolors, 2)
    n_states = kcolors ** g.n_vertices
    _check_budget(n_states, f"{kcolors}-colorings on {g.n_vertices} vertices")
    idx = np.arange(n_states, dtype=np.int64)
    energy = np.zeros(n_states, dtype=np.int64)
    for u, v in g.edges:
        color_u = (idx // (kcolors ** u)) % kcolors
        color_v = (idx // (kcolors ** v)) % kcolors
        energy += color_u == color_v
    counts = np.bincount(energy, minlength=1)
    support = [(h, int(c)) for h, c in enumerate(counts) if c > 0]
    if beta_max is None:
        if counts[0] == 0:
            raise ValueError("graph has no proper coloring; pass beta_max explicitly")
        beta_max = beta_max_for_ground_state(support)
    return CountInstance.from_counts(support, beta_min, beta_max, n=max(1, g.n_edges))


def beta_max_for_ground_state(support, rel_err: float = 1e-3) -> float:
    """Smallest convenient beta_max with (Z(beta_max) - c_0)/c_0 <= rel_err.

    Bounding Z(b) - c_0 <= sum_{h>=1} c_h e^{-b} gives
    b = ln(sum_{h>=1} c_h / (rel_err * c_0)).
    """
    c0 = None
    tail = 0.0
    for h, c in support:
        if h == 0:
            c0 = c
        else:
            tail += c
    if c0 is None or c0 <= 0:
        raise ValueError("support has no zero-energy level")
    if tail <= 0:
        raise ValueError("support has no positive-energy level")
    return math.log(tail / (rel_err * c0))


def enumerate_matchings(g: GraphSpec, beta_min: float = 0.0, beta_max: float = 2.0) -> CountInstance:
    """Count matchings by size, via backtracking over edges in canonical order."""
    if g.n_edges > 24:
        raise BudgetExceededError(f"matchings over {g.n_edges} edges exceed the budget")
    counts = np.zeros(g.n_edges + 1, dtype=np.int64)

    def extend(edge_idx: int, used: int, size: int) -> None:
        if edge_idx == g.n_edges:
            counts[size] += 1
            return
        extend(edge_idx + 1, used, size)
        u, v = g.edges[edge_idx]
        bit = (1 << u) | (1 << v)
        if not used & bit:
            extend(edge_idx + 1, used | bit, size + 1)

    extend(0, 0, 0)
    support = [(h, int(c)) for h, c in enumerate(counts) if c > 0]
    max_h = support[-1][0]
    return CountInstance.from_counts(support, beta_min, beta_max, n=max(1, max_h))
