"""Undirected interaction topologies and their algebra: incidence matrix,
graph Laplacian, edge Laplacian, spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InvalidGraphError(ValueError):
    """Raised for malformed topologies (self-loops, duplicates, bad indices)."""


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected simple graph on vertices 1..n.

    Edges are stored canonically as (min, max) pairs sorted lexicographically;
    this fixes the edge indexing used to align relative-state channels with
    edge-Laplacian rows.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidGraphError("vertex count must be at least 1")
        canon = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise InvalidGraphError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise InvalidGraphError(f"edge ({i},{j}) out of range 1..{self.n}")
            canon.append((min(i, j), max(i, j)))
        if len(set(canon)) != len(canon):
            raise InvalidGraphError("duplicate edge")
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphAlgebra:
    """Incidence matrix D (n x m), graph Laplacian DD^T, edge Laplacian D^TD,
    and the Laplacian spectrum in increasing order."""

    graph: InteractionGraph
    incidence: np.ndarray
    graph_laplacian: np.ndarray
    edge_laplacian: np.ndarray
    spectrum: np.ndarray

    @property
    def lambda_2(self) -> float:
        return float(self.spectrum[1])

    @property
    def lambda_n(self) -> float:
        return float(self.spectrum[-1])


def build_algebra(g: InteractionGraph) -> GraphAlgebra:
    """Orient each edge tail = smaller index, head = larger index, and build
    D, DD^T, D^TD and the eigenvalues of DD^T.

    All downstream quantities are invariant under the orientation choice
    (DD^T only involves products of the +-1 column entries).
    """
    D = np.zeros((g.n, g.m))
    for p, (tail, head) in enumerate(g.edges):
        D[head - 1, p] = 1.0
        D[tail - 1, p] = -1.0
    L = D @ D.T
    spectrum = np.sort(np.linalg.eigvalsh(L))
    return GraphAlgebra(
        graph=g,
        incidence=D,
        graph_laplacian=L,
        edge_laplacian=D.T @ D,
        spectrum=spectrum,
    )


def is_connected(g: InteractionGraph) -> bool:
    """Breadth-first connectivity check; agrees with lambda_2 > 0."""
    if g.n == 1:
        return True
    adj = [[] for _ in range(g.n + 1)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def cycle_graph(n: int) -> InteractionGraph:
    """The n-cycle 1-2-...-n-1."""
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return InteractionGraph(n=n, edges=tuple(edges))


def path_graph(n: int) -> InteractionGraph:
    return InteractionGraph(n=n, edges=tuple((i, i + 1) for i in range(1, n)))


def star_graph(n: int) -> InteractionGraph:
    return InteractionGraph(n=n, edges=tuple((1, i) for i in range(2, n + 1)))
