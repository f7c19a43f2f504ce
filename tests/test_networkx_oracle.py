"""Exact link-prediction scores against networkx, a third independent oracle.

The exact scorer and networkx share no code: networkx walks its own
adjacency dicts and takes degrees from the same train graph.
"""

import numpy as np
import pytest

from dothash.linkpred import (
    Estimator,
    Metric,
    erdos_renyi_graph,
    preferential_attachment_graph,
    sketch_neighborhoods,
    split_edges,
)

nx = pytest.importorskip("networkx")

GRAPHS = {
    "preferential-attachment": lambda: preferential_attachment_graph(150, 4, seed=11),
    # Sparse enough to leave isolated nodes and pairs with no neighbors at all.
    "erdos-renyi": lambda: erdos_renyi_graph(120, 0.03, seed=12),
}


def _networkx_scores(train, metric, pairs):
    graph = nx.Graph()
    graph.add_nodes_from(range(train.node_count))
    graph.add_edges_from(train.edges().tolist())
    ebunch = [tuple(pair) for pair in pairs.tolist()]
    if metric is Metric.COMMON_NEIGHBORS:
        return [float(len(list(nx.common_neighbors(graph, u, v)))) for u, v in ebunch]
    index = {
        Metric.JACCARD: nx.jaccard_coefficient,
        Metric.ADAMIC_ADAR: nx.adamic_adar_index,
        Metric.RESOURCE_ALLOCATION: nx.resource_allocation_index,
    }[metric]
    return [score for _, _, score in index(graph, ebunch)]


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_exact_scores_match_networkx(name, metric):
    split = split_edges(GRAPHS[name](), test_fraction=0.2, neg_per_pos=3, seed=5)
    pairs = np.concatenate([split.positives, split.negatives])
    got = sketch_neighborhoods(split.train_graph, metric, Estimator.EXACT).score_pairs(pairs)
    expected = _networkx_scores(split.train_graph, metric, pairs)
    assert np.count_nonzero(expected) > 0
    if metric in (Metric.COMMON_NEIGHBORS, Metric.JACCARD):
        # Integer counts and one division of the same integers: equal bit for bit.
        assert got.tolist() == expected
    else:
        # The same terms, possibly summed in another order.
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
