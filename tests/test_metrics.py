import random

import pytest

from conftest import random_satisfiable_cnf
from fmnet.metrics import (
    AXES,
    HistogramBin,
    compute_model_metrics,
    compute_node_metrics,
    degree_distribution,
)
from fmnet.strong_graphs import FeatureClassification, StrongGraphs, compute_strong_graphs


def graphs_of(num_vars, core, dead, arcs, edges, names=None):
    core, dead = frozenset(core), frozenset(dead)
    configurable = frozenset(set(range(1, num_vars + 1)) - core - dead)
    classification = FeatureClassification(num_vars, core, dead, configurable)
    return StrongGraphs(
        dep_arcs=frozenset(arcs),
        conflict_edges=frozenset(edges),
        classification=classification,
        names=names or {},
    )


class TestNodeMetrics:
    def test_degrees_and_percentages(self):
        # 21 nodes, so the percentage denominator is 20.
        arcs = {(1, 2), (3, 2), (2, 4)}
        edges = {(5, 6)}
        graphs = graphs_of(21, (), (), arcs, edges)
        by_feature = {n.feature: n for n in compute_node_metrics(graphs)}
        assert by_feature[2].in_degree == 2
        assert by_feature[2].out_degree == 1
        assert by_feature[2].in_pct == 10.0
        assert by_feature[5].conflict_degree == 1
        assert by_feature[5].conflict_pct == 5.0

    def test_high_flag_threshold_is_inclusive(self):
        # 21 nodes: an in-degree of 2 is exactly 10%.
        graphs = graphs_of(21, (), (), {(1, 2), (3, 2), (3, 4)}, ())
        by_feature = {n.feature: n for n in compute_node_metrics(graphs, 10.0)}
        assert by_feature[2].high_in
        assert not by_feature[4].high_in  # 5% < 10%
        assert not by_feature[2].high_out

    def test_single_node_has_zero_percentages(self):
        graphs = graphs_of(3, (1,), (3,), (), ())
        nodes = compute_node_metrics(graphs)
        assert len(nodes) == 1
        assert nodes[0].in_pct == nodes[0].out_pct == nodes[0].conflict_pct == 0.0
        assert not nodes[0].high_in

    def test_axis_accessors(self):
        graphs = graphs_of(3, (), (), {(1, 2)}, {(2, 3)})
        node = {n.feature: n for n in compute_node_metrics(graphs)}[2]
        assert node.degree("in") == 1
        assert node.degree("out") == 0
        assert node.degree("conflict") == 1
        assert node.pct("in") == node.in_pct

    def test_threshold_validation(self):
        graphs = graphs_of(2, (), (), (), ())
        with pytest.raises(ValueError, match="threshold_pct"):
            compute_node_metrics(graphs, 0.0)
        with pytest.raises(ValueError, match="threshold_pct"):
            compute_node_metrics(graphs, 101.0)


class TestModelMetrics:
    def test_counts_and_densities(self):
        graphs = graphs_of(10, (1, 2), (3,), {(4, 5), (5, 6)}, {(7, 8)})
        metrics = compute_model_metrics(graphs, model_id="demo")
        assert metrics.model_id == "demo"
        assert metrics.num_vars == 10
        assert metrics.num_configurable == 7
        assert metrics.num_core == 2 and metrics.num_dead == 1
        assert metrics.core_pct == 20.0 and metrics.dead_pct == 10.0
        assert metrics.require_density == 0.2
        assert metrics.exclude_density == 0.1

    def test_overlap_defined(self):
        # 11 nodes, denominator 10, threshold 10%: one relation is enough.
        arcs = {(1, 2), (2, 3), (4, 2)}
        edges = {(2, 5), (6, 7)}
        graphs = graphs_of(11, (), (), arcs, edges)
        metrics = compute_model_metrics(graphs)
        # High-in nodes: 2 (in 2) and 3 (in 1). Node 2 is also high-out and
        # high-conflict; node 3 is neither.
        assert metrics.overlap_in_out_pct == 50.0
        assert metrics.overlap_in_conflict_pct == 50.0

    def test_overlap_undefined_without_high_in_nodes(self):
        graphs = graphs_of(5, (), (), (), {(1, 2)})
        metrics = compute_model_metrics(graphs, threshold_pct=80.0)
        assert metrics.overlap_in_out_pct is None
        assert metrics.overlap_in_conflict_pct is None

    def test_degree_sums_match_relation_counts(self):
        rng = random.Random(1234)
        for _ in range(40):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 10), rng.uniform(1.5, 3.5))
            graphs = compute_strong_graphs(formula)
            metrics = compute_model_metrics(graphs)
            assert sum(n.in_degree for n in metrics.nodes) == metrics.num_arcs
            assert sum(n.out_degree for n in metrics.nodes) == metrics.num_arcs
            assert (
                sum(n.conflict_degree for n in metrics.nodes)
                == 2 * metrics.num_conflict_edges
            )


class TestDegreeDistribution:
    def test_bins_cover_zero_to_hundred(self):
        graphs = graphs_of(5, (), (), (), ())
        bins = degree_distribution(compute_node_metrics(graphs), "in", 30.0)
        assert [(b.low, b.high) for b in bins] == [
            (0.0, 30.0), (30.0, 60.0), (60.0, 90.0), (90.0, 100.0)
        ]

    def test_shares(self):
        # Three isolated nodes and one full hub: shares 0.75 and 0.25.
        arcs = {(1, 4), (2, 4), (3, 4)}
        graphs = graphs_of(4, (), (), arcs, ())
        bins = degree_distribution(compute_node_metrics(graphs), "in", 50.0)
        assert bins == (
            HistogramBin(0.0, 50.0, 0.75),
            HistogramBin(50.0, 100.0, 0.25),
        )

    def test_full_degree_lands_in_last_bin(self):
        arcs = {(1, 2)}
        graphs = graphs_of(2, (), (), arcs, ())
        bins = degree_distribution(compute_node_metrics(graphs), "in", 10.0)
        assert bins[-1].share == 0.5  # node 2 sits at exactly 100%

    def test_shares_sum_to_one(self):
        rng = random.Random(77)
        for _ in range(30):
            formula = random_satisfiable_cnf(rng, rng.randint(3, 10), rng.uniform(1.5, 3.0))
            metrics = compute_model_metrics(compute_strong_graphs(formula))
            if not metrics.nodes:
                continue
            for axis in AXES:
                shares = sum(b.share for b in degree_distribution(metrics.nodes, axis))
                assert shares == pytest.approx(1.0)

    def test_empty_nodes_give_zero_shares(self):
        bins = degree_distribution((), "conflict")
        assert all(b.share == 0.0 for b in bins)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="axis"):
            degree_distribution((), "sideways")
        with pytest.raises(ValueError, match="bin_width_pct"):
            degree_distribution((), "in", 0.0)
