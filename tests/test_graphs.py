import numpy as np
import pytest

from asynclab.graphs import (InteractionGraph, InvalidGraphError,
                             build_algebra, cycle_graph, is_connected,
                             path_graph, star_graph)


def test_edge_canonicalization():
    g = InteractionGraph(n=3, edges=((2, 1), (3, 2)))
    assert g.edges == ((1, 2), (2, 3))
    assert g.m == 2


def test_invalid_graphs():
    with pytest.raises(InvalidGraphError):
        InteractionGraph(n=3, edges=((1, 1),))
    with pytest.raises(InvalidGraphError):
        InteractionGraph(n=3, edges=((1, 4),))
    with pytest.raises(InvalidGraphError):
        InteractionGraph(n=3, edges=((1, 2), (2, 1)))
    with pytest.raises(InvalidGraphError):
        InteractionGraph(n=0)


def test_incidence_and_laplacians():
    g = path_graph(3)
    a = build_algebra(g)
    D = a.incidence
    # Column p has -1 at the tail (smaller index) and +1 at the head.
    assert np.array_equal(D, [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    assert np.allclose(a.graph_laplacian, D @ D.T)
    assert np.allclose(a.edge_laplacian, D.T @ D)
    # Row sums of the Laplacian vanish (1 in the kernel).
    assert np.allclose(a.graph_laplacian.sum(axis=1), 0.0)


def test_laplacian_spectrum_path2():
    # K2: Laplacian [[1,-1],[-1,1]], spectrum {0, 2}.
    a = build_algebra(path_graph(2))
    assert a.spectrum == pytest.approx([0.0, 2.0])
    assert a.lambda_2 == pytest.approx(2.0)
    assert a.lambda_n == pytest.approx(2.0)


def test_cycle5_spectrum():
    # 5-cycle eigenvalues are 2(1 - cos(2 pi k / 5)).
    a = build_algebra(cycle_graph(5))
    expected = sorted(2.0 * (1.0 - np.cos(2.0 * np.pi * k / 5.0)) for k in range(5))
    assert a.spectrum == pytest.approx(expected)
    assert a.lambda_2 == pytest.approx(1.3819660112501051)
    assert a.lambda_n == pytest.approx(3.618033988749895)


def test_edge_laplacian_nonzero_spectrum_matches():
    a = build_algebra(cycle_graph(5))
    ev_edge = np.sort(np.linalg.eigvalsh(a.edge_laplacian))
    nonzero = a.spectrum[a.spectrum > 1e-9]
    assert np.allclose(np.sort(ev_edge[ev_edge > 1e-9]), nonzero)


def test_connectivity():
    assert is_connected(cycle_graph(4))
    assert is_connected(star_graph(6))
    assert not is_connected(InteractionGraph(n=4, edges=((1, 2), (3, 4))))
    # lambda_2 > 0 iff connected
    a = build_algebra(InteractionGraph(n=4, edges=((1, 2), (3, 4))))
    assert a.lambda_2 == pytest.approx(0.0, abs=1e-9)


def test_algebraic_connectivity_matches_bfs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        keep = [e for e in possible if rng.random() < 0.5]
        g = InteractionGraph(n=n, edges=tuple(keep))
        a = build_algebra(g)
        assert (a.lambda_2 > 1e-9) == is_connected(g)


def test_star_graph_lambda_n():
    # Star on n vertices has largest Laplacian eigenvalue n.
    a = build_algebra(star_graph(7))
    assert a.lambda_n == pytest.approx(7.0)
