import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from shadowbilliards import scenarios, symbolic
from shadowbilliards.symbolic import NEG_INF, OrbitVertex, build_graph, entropy, paths


def vertex(label, start, end, p_out, p_in):
    return OrbitVertex(label, start, end, np.asarray(p_out, float), np.asarray(p_in, float))


def torus_vertices():
    """Point scatterer on the torus: vertices are winding vectors at one point."""
    out = []
    for k in [(1, 0), (0, 1), (-1, 0)]:
        p = np.asarray(k, float) / np.linalg.norm(k)
        out.append(OrbitVertex(k, 0, 0, p, p, p, p))
    return out


class TestBuildGraph:
    def test_torus_edges(self):
        g = build_graph(torus_vertices())
        e1, e2, me1 = 0, 1, 2                    # windings (1, 0), (0, 1), (-1, 0)
        assert g.adjacency[e1, e2]
        assert g.adjacency[e1, me1]              # reversal has a momentum jump
        assert not g.adjacency[e1, e1]           # straight continuation: p+ = p-
        g2 = build_graph(torus_vertices(), no_straight_reflection=True)
        assert not g2.adjacency[e1, me1]         # head-on removed for attracting flows
        assert g2.adjacency[e1, e2]

    def test_three_center_turns(self):
        # geometric construction oracle: with non-collinear centers every turn
        # at a shared center changes the momentum, so every concatenation is
        # an edge (reversals included) and straight continuations never arise
        scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
        g = build_graph(scn.graph_vertices())
        for i, (a, b) in enumerate(v.label for v in g.vertices):
            for j, (c, d) in enumerate(v.label for v in g.vertices):
                assert bool(g.adjacency[i, j]) == (b == c)

    def test_single_vertex_no_self_edge(self):
        v = vertex("k", 0, 0, [1.0, 0.0], [1.0, 0.0])
        g = build_graph([v])
        assert g.adjacency[0, 0] == 0
        assert paths(g, length=1) == []


class TestEntropy:
    def test_two_cycle(self):
        a = vertex("a", 0, 1, [1, 0], [1, 0])
        b = vertex("b", 1, 0, [0, 1], [0, 1])
        g = build_graph([a, b])
        rep = entropy(g)
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_complete_with_loops(self):
        verts = [vertex(i, 0, 0, [np.cos(i), np.sin(i)], [np.cos(i + 1), np.sin(i + 1)])
                 for i in range(3)]
        g = symbolic.CollisionGraph(verts, np.ones((3, 3), dtype=int))
        rep = entropy(g)
        assert rep.value == pytest.approx(np.log(3.0), abs=1e-10)

    def test_three_center_positive_entropy_dense_crosscheck(self):
        scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
        g = build_graph(scn.graph_vertices())
        rep = entropy(g)
        assert rep.value > 0
        rho_dense = float(np.max(np.abs(np.linalg.eigvals(g.adjacency.astype(float)))))
        assert rep.spectral_radius == pytest.approx(rho_dense, abs=1e-9)

    def test_dag_sentinel(self):
        a = vertex("a", 0, 1, [1, 0], [1, 0])
        b = vertex("b", 1, 2, [0, 1], [0, 1])
        g = build_graph([a, b])
        rep = entropy(g)
        assert rep.value == NEG_INF


@st.composite
def random_graphs(draw):
    """0/1 adjacency on 2-40 vertices, mean out-degree up to 3; every other
    draw keeps only the edges along a random vertex order (a DAG)."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = (rng.random((n, n)) < draw(st.floats(0.0, 3.0)) / n).astype(np.int64)
    if draw(st.booleans()):
        rank = rng.permutation(n)
        A[rank[:, None] >= rank[None, :]] = 0
    return A


class TestEntropyRandomGraphs:
    @seed(20161018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(random_graphs())
    def test_radius_is_the_largest_component_radius(self, A):
        rep = entropy(symbolic.CollisionGraph([None] * len(A), A))
        ncomp, labels = connected_components(A, directed=True, connection="strong")
        radii = []
        for c in range(ncomp):
            idx = np.flatnonzero(labels == c)
            B = A[np.ix_(idx, idx)]
            if B.any():  # a component carries a cycle iff it has an inner edge
                radii.append(float(np.max(np.abs(np.linalg.eigvals(B.astype(float))))))
        if not radii:
            assert rep.value == NEG_INF and rep.spectral_radius == 0.0
        else:
            assert rep.spectral_radius == pytest.approx(max(radii), rel=1e-8, abs=0)

    def test_long_path_is_acyclic(self):
        A = np.diag(np.ones(12, dtype=np.int64), 1)
        rep = entropy(symbolic.CollisionGraph([None] * 13, A))
        assert rep.value == NEG_INF


class TestPaths:
    def test_two_cycle_phases(self):
        a = vertex("a", 0, 1, [1, 0], [1, 0])
        b = vertex("b", 1, 0, [0, 1], [0, 1])
        g = build_graph([a, b])
        per = paths(g, periodic=2)
        assert sorted(per) == [("a", "b"), ("b", "a")]

    def test_counts_match_adjacency_powers(self):
        scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
        g = build_graph(scn.graph_vertices())
        for n in range(1, 7):
            assert len(paths(g, length=n)) == symbolic.count_paths(g, n)

    def test_growth_rate_matches_entropy(self):
        scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
        g = build_graph(scn.graph_vertices())
        rep = entropy(g)
        n = 12
        growth = symbolic.count_paths(g, n) / symbolic.count_paths(g, n - 1)
        assert abs(growth - rep.spectral_radius) / rep.spectral_radius < 0.02

    def test_budget(self):
        verts = [vertex(i, 0, 0, [np.cos(i), np.sin(i)], [np.cos(i + 1), np.sin(i + 1)])
                 for i in range(3)]
        g = symbolic.CollisionGraph(verts, np.ones((3, 3), dtype=int))
        with pytest.raises(symbolic.PathBudgetError):
            paths(g, length=30)

    def test_argument_validation(self):
        g = build_graph(torus_vertices())
        with pytest.raises(ValueError):
            paths(g)
        with pytest.raises(ValueError):
            paths(g, length=2, periodic=2)

    def test_enumerated_codes_are_admissible_chains(self):
        # every enumerated code passes the chain-level jump condition
        from shadowbilliards import dls
        scn = scenarios.torus_point_scenario()
        g = build_graph(torus_vertices())
        for code in paths(g, periodic=3):
            chain = scn.chain(list(code))
            assert all(r.admissible for r in dls.admissible(scn.dl, chain))
