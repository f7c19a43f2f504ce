"""The one scorer against direct builds and compares, bit for bit.

For every (estimator, metric) pair the pipelines accept, on a graph with
isolated nodes and on a shingled corpus with empty documents,
``sketch_neighborhoods(...).score_pairs`` must equal building each set with
its ``*_build`` function and scoring each pair with the matching compare
function, where a pair of two empty sets scores 0.0.
"""

import numpy as np
import pytest

from dothash.dedup import Document, build_idf, make_planted_corpus, shingle, shingle_csr
from dothash.encoding import Codebook, MinwiseFamily
from dothash.exact import SortedSet, exact_intersection, exact_jaccard, exact_weighted
from dothash.linkpred import (
    Estimator,
    Metric,
    adamic_adar_weights,
    graph_from_edges,
    preferential_attachment_graph,
    resource_allocation_weights,
    sketch_neighborhoods,
)
from dothash.sketches import (
    DotHashSketch,
    WeightFn,
    distinct_sets,
    dothash_build,
    dothash_intersection,
    dothash_jaccard,
    minhash_build,
    minhash_jaccard,
    simhash_build,
    simhash_similarity,
)

SIZES = {Estimator.DOTHASH: 256, Estimator.MINHASH: 64, Estimator.SIMHASH: 200, Estimator.EXACT: None}
SEED = 13


def direct_scores(estimator, metric, weights, sets, pairs):
    """Per-set builds and per-pair compares, written out without the scorer."""
    size = SIZES[estimator]
    jaccard = metric is Metric.JACCARD
    if estimator is Estimator.EXACT:
        built = [SortedSet(tuple(int(e) for e in s)) for s in sets]
        if jaccard:
            compare = exact_jaccard
        elif metric is Metric.COMMON_NEIGHBORS:
            compare = lambda a, b: float(exact_intersection(a, b))  # noqa: E731
        else:
            compare = lambda a, b: exact_weighted(a, b, weights)  # noqa: E731
    elif estimator is Estimator.DOTHASH:
        built = [dothash_build(Codebook(seed=SEED, dims=size), s, weights) for s in sets]
        compare = dothash_jaccard if jaccard else dothash_intersection
    elif estimator is Estimator.MINHASH:
        built = [minhash_build(MinwiseFamily(seed=SEED, k=size), s) for s in sets]
        compare = minhash_jaccard
    else:
        built = [simhash_build(Codebook(seed=SEED, dims=size), s) for s in sets]
        compare = simhash_similarity
    scores = [
        0.0 if len(sets[u]) == 0 and len(sets[v]) == 0 else compare(built[u], built[v])
        for u, v in pairs
    ]
    return np.array(scores, dtype=np.float64)


def all_pairs(n):
    return np.array([(u, v) for u in range(n) for v in range(u, n)], dtype=np.int64)


GRAPH_CASES = [(e, m) for e in (Estimator.EXACT, Estimator.DOTHASH) for m in Metric] + [
    (Estimator.MINHASH, Metric.JACCARD),
    (Estimator.SIMHASH, Metric.JACCARD),
]


@pytest.mark.parametrize("estimator, metric", GRAPH_CASES, ids=lambda x: x.value)
def test_graph_scores_equal_direct_builds(estimator, metric):
    # Nodes 40..44 are isolated.
    g = graph_from_edges(45, preferential_attachment_graph(40, 3, seed=6).edges())
    weights = {
        Metric.ADAMIC_ADAR: adamic_adar_weights(g),
        Metric.RESOURCE_ALLOCATION: resource_allocation_weights(g),
    }.get(metric, WeightFn.unit())
    sets = [g.neighbors(v) for v in range(g.node_count)]
    pairs = all_pairs(g.node_count)
    scorer = sketch_neighborhoods(g, metric, estimator, SIZES[estimator], seed=SEED)
    expected = direct_scores(estimator, metric, weights, sets, pairs)
    assert scorer.score_pairs(pairs).tobytes() == expected.tobytes()


CORPUS_CASES = [
    (Estimator.EXACT, "jaccard"),
    (Estimator.EXACT, "idf"),
    (Estimator.DOTHASH, "jaccard"),
    (Estimator.DOTHASH, "idf"),
    (Estimator.MINHASH, "jaccard"),
    (Estimator.SIMHASH, "jaccard"),
]


@pytest.mark.parametrize("estimator, metric_name", CORPUS_CASES, ids=str)
def test_corpus_scores_equal_direct_builds(estimator, metric_name):
    docs, _ = make_planted_corpus(n_docs=30, n_dup_pairs=8, words_per_doc=25, vocab_size=40, seed=3)
    docs += [Document("short", "two words"), Document("blank", "")]
    shingle_sets = [shingle(doc) for doc in docs]
    metric = build_idf(shingle_sets) if metric_name == "idf" else Metric.JACCARD
    sets = [s.shingles.elements for s in shingle_sets]
    pairs = all_pairs(len(sets))
    # As run_dedup_benchmark passes them: the whole corpus as one DistinctSets.
    scorer = sketch_neighborhoods(shingle_csr(docs), metric, estimator, SIZES[estimator], seed=SEED)
    weights = metric if metric_name == "idf" else WeightFn.unit()
    expected = direct_scores(estimator, metric, weights, sets, pairs)
    assert scorer.score_pairs(pairs).tobytes() == expected.tobytes()


def test_degree_metrics_need_a_graph():
    with pytest.raises(ValueError, match="adamic_adar weights need a graph"):
        sketch_neighborhoods(distinct_sets(np.array([0, 3]), np.arange(3, dtype=np.uint64)),
                             Metric.ADAMIC_ADAR, Estimator.EXACT)


# A raw (indptr, elements) pair must go through distinct_sets first, so a
# repeated id cannot reach a build or the set sizes.
@pytest.mark.parametrize("sets", [[[1, 2], [2, 3]], [np.arange(3, dtype=np.uint64)], np.zeros(3),
                                  (np.array([0, 2, 3]), np.array([1, 1, 2], dtype=np.uint64))],
                         ids=["lists", "arrays", "array", "csr-pair"])
def test_sets_other_than_a_graph_or_a_csr_pair_are_rejected(sets):
    with pytest.raises(ValueError, match="a Graph or DistinctSets"):
        sketch_neighborhoods(sets, Metric.JACCARD, Estimator.EXACT)


@pytest.mark.parametrize("metric", [Metric.ADAMIC_ADAR, Metric.JACCARD], ids=lambda m: m.value)
def test_dothash_pairs_come_back_in_input_order(metric):
    # DotHash scores its pairs in order of their first set and scatters the
    # scores back.  Unsorted pairs with repeated first sets, reversed and
    # self pairs, and pairs of the isolated nodes 40..44, then 500 random
    # pairs: each score is the dot product of the two rows, through the
    # Jaccard clamp for Jaccard, and a pair of two empty sets scores 0.0.
    g = graph_from_edges(45, preferential_attachment_graph(40, 3, seed=6).edges())
    scorer = sketch_neighborhoods(g, metric, Estimator.DOTHASH, SIZES[Estimator.DOTHASH], seed=SEED)
    rows, sizes = scorer.sets, scorer.sizes
    pairs = [(7, 3), (2, 9), (7, 1), (3, 7), (7, 7), (41, 42), (2, 2), (0, 39), (7, 3), (40, 40),
             (39, 0), (2, 41), (44, 7), (7, 44)]
    pairs += np.random.default_rng(3).integers(0, 45, (500, 2)).tolist()
    scores = scorer.score_pairs(np.array(pairs))
    assert scores.shape == (len(pairs),)
    for (u, v), score in zip(pairs, scores):
        if sizes[u] == 0 and sizes[v] == 0:
            expected = 0.0
        elif metric is Metric.JACCARD:
            sketches = [DotHashSketch(rows[s], rows.shape[1], SEED, int(sizes[s])) for s in (u, v)]
            expected = dothash_jaccard(*sketches)
        else:
            expected = float(rows[u] @ rows[v])
        assert np.float64(score).tobytes() == np.float64(expected).tobytes(), (u, v)


def test_dothash_scores_at_one_dimension_have_the_scalar_bits():
    # At d=1 ndarray.dot returns the lone product, -0.0 for an empty set's
    # +0.0 row against a negative one, where ``@`` gives +0.0.
    g = graph_from_edges(45, preferential_attachment_graph(40, 3, seed=6).edges())
    sets = [g.neighbors(v) for v in range(g.node_count)]
    built = [dothash_build(Codebook(seed=SEED, dims=1), s) for s in sets]
    pairs = all_pairs(g.node_count)
    expected = np.array([0.0 if len(sets[u]) == len(sets[v]) == 0 else dothash_intersection(built[u], built[v])
                         for u, v in pairs])
    scorer = sketch_neighborhoods(g, Metric.COMMON_NEIGHBORS, Estimator.DOTHASH, 1, seed=SEED)
    assert scorer.score_pairs(pairs).tobytes() == expected.tobytes()
