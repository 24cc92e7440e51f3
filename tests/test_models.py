"""Enumeration models checked against independent brute force."""

import itertools
import math
import re

import numpy as np
import pytest

import gibbsratio
from gibbsratio.instance import log_partition
from gibbsratio.models import (
    BudgetExceededError,
    GraphSpec,
    beta_max_for_ground_state,
    enumerate_colorings,
    enumerate_ising,
    enumerate_matchings,
    load_graph,
)

FOUR_CYCLE = GraphSpec(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
TRIANGLE = GraphSpec(3, ((0, 1), (1, 2), (0, 2)))


def counts_of(inst):
    return {h: math.exp(lc) for h, lc in inst.support()}


def brute_colorings(g, k):
    counts = {}
    for coloring in itertools.product(range(k), repeat=g.n_vertices):
        h = sum(1 for u, v in g.edges if coloring[u] == coloring[v])
        counts[h] = counts.get(h, 0) + 1
    return counts


def brute_matchings(g):
    counts = {}
    for subset in itertools.chain.from_iterable(
        itertools.combinations(g.edges, r) for r in range(g.n_edges + 1)
    ):
        used = [v for e in subset for v in e]
        if len(used) == len(set(used)):
            counts[len(subset)] = counts.get(len(subset), 0) + 1
    return counts


class TestGraphSpec:
    def test_canonical_edges(self):
        g = GraphSpec(3, ((2, 0), (0, 1)))
        assert g.edges == ((0, 2), (0, 1))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphSpec(2, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            GraphSpec(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GraphSpec(2, ((0, 2),))

    def test_rejects_no_vertex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            GraphSpec(0, ())

    def test_load_graph_rejects_a_file_without_edges(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# no edges\n\n")
        with pytest.raises(ValueError, match="no edges found"):
            load_graph(path)

    @pytest.mark.parametrize("line", ["0 1 2", "0 x", "0"], ids=["three-values", "not-a-number", "one-value"])
    def test_load_graph_names_the_file_and_line_of_a_bad_edge(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(f"# square\n0 1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: expected 'u v'")):
            load_graph(path)

    def test_load_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# square\n0 1\n1 2\n2 3\n3 0\n")
        g = load_graph(path)
        assert g.n_vertices == 4
        assert g.edges == FOUR_CYCLE.edges


class TestIsing:
    def test_four_cycle(self):
        inst = enumerate_ising(FOUR_CYCLE)
        assert counts_of(inst) == pytest.approx({0: 2, 2: 12, 4: 2})

    def test_single_edge(self):
        inst = enumerate_ising(GraphSpec(2, ((0, 1),)))
        assert counts_of(inst) == pytest.approx({0: 2, 1: 2})

    def test_empty_edges_three_vertices(self):
        inst = enumerate_ising(GraphSpec(3, ()))
        assert counts_of(inst) == pytest.approx({0: 8})

    def test_total_count_conservation(self):
        inst = enumerate_ising(TRIANGLE)
        assert sum(counts_of(inst).values()) == pytest.approx(2 ** 3)

    def test_ground_states_count_components(self):
        # two disjoint edges: 2 components -> c_0 = 4
        g = GraphSpec(4, ((0, 1), (2, 3)))
        inst = enumerate_ising(g)
        assert counts_of(inst)[0] == pytest.approx(4)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_ising(GraphSpec(25, ()))


class TestColorings:
    def test_triangle_three_colors_proper_count(self):
        inst = enumerate_colorings(TRIANGLE, 3)
        # chromatic polynomial k(k-1)(k-2) at k=3
        assert counts_of(inst)[0] == pytest.approx(6)
        assert counts_of(inst) == pytest.approx(brute_colorings(TRIANGLE, 3))

    def test_single_vertex(self):
        inst = enumerate_colorings(GraphSpec(1, ()), 2, beta_max=1.0)
        assert counts_of(inst) == pytest.approx({0: 2})

    def test_single_edge_two_colors(self):
        inst = enumerate_colorings(GraphSpec(2, ((0, 1),)), 2)
        assert counts_of(inst) == pytest.approx({0: 2, 1: 2})

    def test_total_count(self):
        inst = enumerate_colorings(FOUR_CYCLE, 3)
        assert sum(counts_of(inst).values()) == pytest.approx(3 ** 4)

    def test_default_beta_max_caps_ground_state_error(self):
        inst = enumerate_colorings(FOUR_CYCLE, 3)
        c0 = counts_of(inst)[0]
        z_end = math.exp(log_partition(inst, inst.beta_max))
        assert (z_end - c0) / c0 <= 1e-3 + 1e-12

    def test_rejects_uncolorable_without_beta_max(self):
        with pytest.raises(ValueError):
            enumerate_colorings(TRIANGLE, 2)

    def test_needs_two_colors(self):
        with pytest.raises(ValueError):
            enumerate_colorings(TRIANGLE, 1)

    @pytest.mark.parametrize("kcolors", [1, 2.5, 8.0])
    def test_color_count_is_refused_before_any_array(self, monkeypatch, kcolors):
        monkeypatch.setattr(gibbsratio.models, "np", None)  # an array built would raise
        with pytest.raises(ValueError, match="^kcolors must be an integer of at least 2$"):
            enumerate_colorings(TRIANGLE, kcolors)

    def test_numpy_color_count_passes(self):
        assert enumerate_colorings(TRIANGLE, np.int64(3)) == enumerate_colorings(TRIANGLE, 3)

    def test_numpy_color_count_is_sized_without_wrapping(self):
        # np.int64(16) ** 16 wraps to 0 states, which would pass the budget
        path = GraphSpec(16, tuple((v, v + 1) for v in range(15)))
        with pytest.raises(BudgetExceededError, match=f"has {16 ** 16} states"):
            enumerate_colorings(path, np.int64(16))


class TestMatchings:
    def test_two_edge_path(self):
        inst = enumerate_matchings(GraphSpec(3, ((0, 1), (1, 2))))
        assert counts_of(inst) == pytest.approx({0: 1, 1: 2})

    def test_four_cycle(self):
        inst = enumerate_matchings(FOUR_CYCLE)
        assert counts_of(inst) == pytest.approx({0: 1, 1: 4, 2: 2})

    def test_empty_graph(self):
        inst = enumerate_matchings(GraphSpec(2, ()))
        assert counts_of(inst) == pytest.approx({0: 1})

    def test_against_brute_force_petersen_fragment(self):
        g = GraphSpec(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)))
        inst = enumerate_matchings(g)
        assert counts_of(inst) == pytest.approx(brute_matchings(g))

    def test_more_than_24_edges_exceed_the_budget(self):
        g = GraphSpec(8, tuple(itertools.combinations(range(8), 2))[:25])
        with pytest.raises(BudgetExceededError, match="25 edges"):
            enumerate_matchings(g)

    def test_z_at_zero_counts_all_matchings(self):
        inst = enumerate_matchings(FOUR_CYCLE)
        assert math.exp(log_partition(inst, 0.0)) == pytest.approx(7.0)


def test_beta_max_for_ground_state_formula():
    support = [(0, 6.0), (1, 10.0), (2, 4.0)]
    b = beta_max_for_ground_state(support, rel_err=1e-3)
    assert b == pytest.approx(math.log(14.0 / (1e-3 * 6.0)))


@pytest.mark.parametrize("support,message", [
    ([(1, 2.0), (2, 1.0)], "no zero-energy level"),
    ([(0, 0.0), (1, 2.0)], "no zero-energy level"),
    ([(0, 3.0)], "no positive-energy level"),
], ids=["no-zero", "zero-count-zero", "no-positive"])
def test_beta_max_for_ground_state_rejects_a_missing_level(support, message):
    with pytest.raises(ValueError, match=message):
        beta_max_for_ground_state(support)
