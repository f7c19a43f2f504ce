"""Tests for graph loading, edge splitting, neighborhood scoring, and Hits@K."""

import copy
import dataclasses
import io
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dothash import linkpred
from dothash.exact import SortedSet, exact_intersection
from dothash.linkpred import (
    Estimator,
    Metric,
    SweepPoint,
    adamic_adar_weights,
    erdos_renyi_graph,
    graph_from_edges,
    hits_at_k,
    load_edge_list,
    preferential_attachment_graph,
    run_linkpred_benchmark,
    sample_pairs,
    sketch_neighborhoods,
    split_edges,
)
from dothash.sketches import WeightFn, distinct_sets


def _text(content: str) -> io.StringIO:
    return io.StringIO(content)


class TestLoadEdgeList:
    def test_symmetrization_dedupes(self):
        g = load_edge_list(_text("a b\nb a\n"))
        assert g.edge_count == 1
        assert [g.degree(v) for v in range(g.node_count)] == [1, 1]

    def test_self_loop_dropped_and_counted(self):
        g = load_edge_list(_text("a a\na b\n"))
        assert g.edge_count == 1
        assert g.self_loops_dropped == 1

    def test_four_node_path_degrees(self):
        g = load_edge_list(_text("n1 n2\nn2 n3\nn3 n4\n"))
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        assert g.labels == ("n1", "n2", "n3", "n4")

    def test_comments_and_blank_lines(self):
        g = load_edge_list(_text("# header\n\na b\n# mid\nb c\n"))
        assert g.edge_count == 2

    def test_bytes_stream(self):
        g = load_edge_list(io.BytesIO(b"x y\ny z\n"))
        assert g.edge_count == 2

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(_text("a b\na b c\n"))

    def test_undecodable_utf8_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="^line 2: 'utf-8' codec can't decode byte 0xff in position 0"):
            load_edge_list(io.BytesIO(b"1 2\n\xff 3\n"))
        path = tmp_path / "edges.txt"
        path.write_bytes(b"# c\n1 2\n3 \xc3\n")
        with pytest.raises(ValueError, match="^line 3: "):
            load_edge_list(path)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="graph has no edges"):
            load_edge_list(_text("# nothing\n"))

    def test_adjacency_is_symmetric(self):
        g = load_edge_list(_text("a b\nb c\nc a\nc d\n"))
        for u in range(g.node_count):
            for v in g.neighbors(u):
                assert g.has_edge(int(v), u)


class TestHasEdge:
    @staticmethod
    def _assert_has_edge_is_membership(g):
        edges = {(u, v) for u in range(g.node_count) for v in g.neighbors(u).tolist()}
        for u in range(g.node_count):
            for v in range(g.node_count):  # first and last neighbours, non-neighbours and u == v
                expected = (u, v) in edges
                assert g.has_edge(u, v) is expected
                assert g.has_edge(np.int64(u), np.uint64(v)) == expected
                assert g.has_edge(np.uint64(u), np.int32(v)) == expected

    @given(st.integers(1, 14), st.data())
    @example(n=4, data=None)  # node 3 isolated; node 1's neighbours are 0 and 2
    @settings(max_examples=100, deadline=None)
    def test_equals_membership_in_the_csr_edge_set(self, n, data):
        if data is None:
            g = graph_from_edges(n, [(0, 1), (1, 2)])
        else:
            index = st.integers(0, n - 1)
            g = graph_from_edges(n, data.draw(st.lists(st.tuples(index, index), max_size=3 * n)))
        self._assert_has_edge_is_membership(g)

    def test_graph_pickles_and_deep_copies_after_has_edge(self):
        g = load_edge_list(_text("a b\nb c\nc a\nc d\n"))
        assert g.has_edge(0, 1)
        for other in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert "_views" not in vars(other)
            assert np.array_equal(other.indptr, g.indptr) and np.array_equal(other.indices, g.indices)
            assert (other.labels, other.self_loops_dropped) == (g.labels, g.self_loops_dropped)
            self._assert_has_edge_is_membership(other)

    @staticmethod
    def _searchsorted_negatives(g, test_fraction, neg_per_pos, seed):
        """split_edges' negatives, with each draw checked by np.searchsorted over the CSR row."""
        rng = np.random.default_rng(seed)
        n_pos = math.ceil(test_fraction * g.edge_count)
        rng.choice(g.edge_count, size=n_pos, replace=False)  # the positives' draw comes first
        count = neg_per_pos * n_pos
        budget, draws, taken = max(100 * count, 10_000), 0, {}
        while len(taken) < count:
            batch = min(4096, budget - draws)
            draws += batch
            for u, v in rng.integers(0, g.node_count, size=(batch, 2)).tolist():
                a, b = min(u, v), max(u, v)
                nbrs = g.indices[g.indptr[a] : g.indptr[a + 1]]
                pos = np.searchsorted(nbrs, b)
                if u != v and (a, b) not in taken and not (pos < len(nbrs) and nbrs[pos] == b):
                    taken[(a, b)] = (u, v)
                    if len(taken) == count:
                        break
        return np.sort(np.array(list(taken.values()), dtype=np.int64), axis=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_split_negatives_equal_a_searchsorted_sampler(self, seed):
        for g in (preferential_attachment_graph(300, 6, seed=seed), erdos_renyi_graph(60, 0.3, seed=seed)):
            expected = self._searchsorted_negatives(g, 0.1, 3, seed)
            assert np.array_equal(split_edges(g, 0.1, 3, seed).negatives, expected)


def test_graph_from_edges_rejects_out_of_range_endpoints():
    # These used to raise IndexError and OverflowError.
    for edges in ([(0, 3)], [(-1, 0)]):
        with pytest.raises(ValueError, match="edge endpoint outside"):
            graph_from_edges(3, edges)


def reference_graph(node_count, edges):
    """graph_from_edges as a loop over the edges into one set of neighbours per node."""
    neighbors = [set() for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge endpoint outside 0..{node_count - 1}")
        if u != v:
            neighbors[u].add(v)
            neighbors[v].add(u)
    indptr = np.cumsum([0] + [len(row) for row in neighbors], dtype=np.int64)
    indices = np.array([v for row in neighbors for v in sorted(row)], dtype=np.uint64)
    return indptr, indices


def _csr_or_error(build, *args):
    try:
        indptr, indices = build(*args)
    except ValueError as exc:
        return str(exc)
    return indptr.tolist(), indptr.dtype, indices.tolist(), indices.dtype


@st.composite
def edge_lists(draw):
    """A node count and edges over it: self-loops, repeats in both directions and some isolated nodes."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, n - 1) if n else st.nothing()
    pairs = st.lists(st.tuples(node, node), max_size=3 * n)
    edges = draw(st.one_of(
        pairs,
        pairs.map(lambda es: es + [(v, u) for u, v in es]),  # every edge in both directions
        st.lists(node.map(lambda v: (v, v)), max_size=n),  # only self-loops
    ))
    if draw(st.booleans()):  # an endpoint out of range, at either end
        bad = draw(st.sampled_from([-1, n, n + 5, -(2**40)]))
        at = draw(st.integers(0, len(edges)))
        edges.insert(at, draw(st.sampled_from([(bad, 0), (0, bad), (bad, bad)])))
    return n, edges


@given(edge_lists(), st.booleans())
@example((1, [(0, 0), (0, 0)]), False)  # one node, all loops
@example((5, [(3, 1), (1, 3), (1, 3), (2, 2)]), True)  # nodes 0 and 4 isolated
@example((4, [(0, 1), (0, 4)]), False)
@example((0, []), True)
@settings(max_examples=300, deadline=None)
def test_graph_from_edges_matches_a_set_reference(case, as_array):
    n, edges = case

    def build():
        g = graph_from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges)
        return g.indptr, g.indices

    assert _csr_or_error(build) == _csr_or_error(reference_graph, n, edges)


def test_edge_list_load_memory_is_bounded(added_peak_rss, tmp_path):
    # 200,000 random edges over 40,000 nodes: the Graph is 3.4 MiB and the
    # file 2.3 MB.  Reading, decoding and splitting the whole file before
    # labelling it added 63 MiB; a window at a time it adds about 15 MiB,
    # most of it the labels, the ids and the edge keys of the build.
    path = tmp_path / "edges.txt"
    edges = np.random.default_rng(5).integers(0, 40_000, size=(200_000, 2))
    path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))
    added = added_peak_rss(
        f"import io\nfrom dothash.linkpred import load_edge_list\npath = {str(path)!r}\n"
        "load_edge_list(io.StringIO('a b\\n'))",
        "load_edge_list(path)",
    )
    assert added < 32 * 2**20, f"edge list load added {added / 2**20:.1f} MiB of peak RSS"


class TestGenerators:
    def test_erdos_renyi_deterministic(self):
        g1 = erdos_renyi_graph(60, 0.1, seed=5)
        g2 = erdos_renyi_graph(60, 0.1, seed=5)
        assert g1.edge_count == g2.edge_count
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

    def test_erdos_renyi_edge_count_plausible(self):
        g = erdos_renyi_graph(100, 0.2, seed=1)
        expected = 0.2 * 100 * 99 / 2
        assert abs(g.edge_count - expected) < 5 * math.sqrt(expected)

    def test_preferential_attachment_structure(self):
        g = preferential_attachment_graph(100, 3, seed=2)
        assert g.edge_count == 3 * 97
        assert max(int(d) for d in g.degrees()) > 10  # heavy tail

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)
        with pytest.raises(ValueError):
            preferential_attachment_graph(5, 5)


class TestSplitEdges:
    def test_counts(self):
        g = load_edge_list(_text("\n".join(f"a{i} b{i}" for i in range(10))))
        split = split_edges(g, test_fraction=0.1, neg_per_pos=3, seed=0)
        assert len(split.positives) == 1
        assert split.train_graph.edge_count == 9
        assert len(split.negatives) == 3

    def test_deterministic(self):
        g = erdos_renyi_graph(40, 0.2, seed=3)
        s1 = split_edges(g, 0.2, 2, seed=11)
        s2 = split_edges(g, 0.2, 2, seed=11)
        assert np.array_equal(s1.positives, s2.positives)
        assert np.array_equal(s1.negatives, s2.negatives)

    def test_negatives_are_non_edges_over_many_splits(self):
        g = erdos_renyi_graph(30, 0.25, seed=4)
        for seed in range(100):
            split = split_edges(g, 0.2, 2, seed=seed)
            for u, v in split.negatives:
                assert not g.has_edge(int(u), int(v))
                assert u != v

    def test_positives_removed_from_train(self):
        g = erdos_renyi_graph(30, 0.3, seed=5)
        split = split_edges(g, 0.25, 1, seed=0)
        for u, v in split.positives:
            assert g.has_edge(int(u), int(v))
            assert not split.train_graph.has_edge(int(u), int(v))

    def test_no_duplicate_pairs(self):
        g = erdos_renyi_graph(30, 0.3, seed=6)
        split = split_edges(g, 0.3, 3, seed=1)
        neg = {tuple(p) for p in split.negatives.tolist()}
        assert len(neg) == len(split.negatives)

    def test_dense_graph_exhausts_budget(self):
        full = graph_from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        with pytest.raises(ValueError, match="graph too dense"):
            split_edges(full, 0.1, 1000, seed=0)
        got = self._outcome(lambda *a: split_edges(*a).negatives, full, 0.1, 1, 0)
        assert got == self._outcome(self._scalar_negatives, full, 0.1, 1, 0)
        assert got == "could not sample 2 non-edges within 10000 draws; graph too dense"

    @pytest.mark.parametrize("count", [101, 250])
    def test_sample_pairs_spends_exactly_its_budget(self, count):
        budget = max(100 * count, 10_000)
        n = 2**40  # so that no draw here repeats a node or a pair

        class CountingRng:
            def __init__(self):
                self.rng, self.draws = np.random.default_rng(count), 0

            def integers(self, low, high, size):
                self.draws += size[0]
                return self.rng.integers(low, high, size=size)

        # Every draw is excluded but the last `count` of the budget, so the
        # count is reached on the budget's last draw.
        checked, rng = [], CountingRng()
        pairs = sample_pairs(rng, n, count, lambda u, v: checked.append((u, v)) or len(checked) <= budget - count)
        assert (len(pairs), len(checked), rng.draws) == (count, budget, budget)
        rng = CountingRng()
        with pytest.raises(ValueError, match=f"^could not sample {count} non-edges within {budget} draws;"):
            sample_pairs(rng, n, count, lambda u, v: True)
        assert rng.draws == budget

    @staticmethod
    def _scalar_negatives(g, test_fraction, neg_per_pos, seed):
        """The one-draw-at-a-time rejection loop that split_edges' negatives must reproduce."""
        rng = np.random.default_rng(seed)
        n_pos = math.ceil(test_fraction * g.edge_count)
        rng.choice(g.edge_count, size=n_pos, replace=False)  # the positives' draw comes first
        n_neg = neg_per_pos * n_pos
        budget = max(100 * n_neg, 10_000)
        negatives = []
        for _ in range(budget):
            if len(negatives) == n_neg:
                break
            u, v = rng.integers(0, g.node_count, size=2).tolist()
            pair = (min(u, v), max(u, v))
            if u != v and pair not in negatives and not g.has_edge(*pair):
                negatives.append(pair)
        if len(negatives) < n_neg:
            raise ValueError(f"could not sample {n_neg} non-edges within {budget} draws; graph too dense")
        return negatives

    @staticmethod
    def _outcome(fn, *args):
        try:
            return [tuple(pair) for pair in np.asarray(fn(*args)).tolist()]
        except ValueError as exc:
            return str(exc)

    @given(st.integers(2, 12), st.data(), st.sampled_from([0.1, 0.3, 0.6]), st.integers(1, 4),
           st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_negatives_equal_scalar_loop(self, n, data, test_fraction, neg_per_pos, seed):
        index = st.integers(0, n - 1)
        g = graph_from_edges(n, data.draw(st.lists(st.tuples(index, index), max_size=3 * n)))
        got = self._outcome(lambda *a: split_edges(*a).negatives, g, test_fraction, neg_per_pos, seed)
        assert got == self._outcome(self._scalar_negatives, g, test_fraction, neg_per_pos, seed)

    def test_parameter_validation(self):
        g = erdos_renyi_graph(10, 0.3, seed=0)
        with pytest.raises(ValueError):
            split_edges(g, 0.0, 1)
        with pytest.raises(ValueError):
            split_edges(g, 0.5, 0)


def path_graph():
    # u(0) - x(1) - v(2)
    return graph_from_edges(3, [(0, 1), (1, 2)])


class TestScorers:
    def test_exact_adamic_adar_on_path(self):
        scorer = sketch_neighborhoods(path_graph(), Metric.ADAMIC_ADAR, Estimator.EXACT)
        assert scorer.score_pairs([(0, 2)]).tolist() == [pytest.approx(1 / math.log(2))]

    def test_exact_resource_allocation_on_path(self):
        scorer = sketch_neighborhoods(path_graph(), Metric.RESOURCE_ALLOCATION, Estimator.EXACT)
        assert scorer.score_pairs([(0, 2)]).tolist() == [pytest.approx(0.5)]

    def test_dothash_adamic_adar_converges(self):
        # mean over 200 seeds within 0.1 of 1/ln 2
        g = path_graph()
        scores = [
            sketch_neighborhoods(g, Metric.ADAMIC_ADAR, Estimator.DOTHASH, 8192, seed=s).score_pairs([(0, 2)])[0]
            for s in range(200)
        ]
        assert abs(np.mean(scores) - 1 / math.log(2)) <= 0.1

    def test_minhash_rejects_adamic_adar(self):
        with pytest.raises(ValueError, match="estimator cannot express metric"):
            sketch_neighborhoods(path_graph(), Metric.ADAMIC_ADAR, Estimator.MINHASH, 16)
        with pytest.raises(ValueError, match="estimator cannot express metric"):
            sketch_neighborhoods(path_graph(), Metric.COMMON_NEIGHBORS, Estimator.SIMHASH, 16)

    def test_sketch_estimators_need_size(self):
        with pytest.raises(ValueError, match="positive dims_or_k"):
            sketch_neighborhoods(path_graph(), Metric.JACCARD, Estimator.DOTHASH)

    def test_scorer_symmetry(self):
        g = erdos_renyi_graph(25, 0.25, seed=7)
        pairs = np.array([(0, 5), (3, 9), (12, 20)])
        for estimator, metric, size in [
            (Estimator.EXACT, Metric.ADAMIC_ADAR, None),
            (Estimator.DOTHASH, Metric.RESOURCE_ALLOCATION, 256),
            (Estimator.MINHASH, Metric.JACCARD, 64),
            (Estimator.SIMHASH, Metric.JACCARD, 256),
        ]:
            scorer = sketch_neighborhoods(g, metric, estimator, size, seed=1)
            assert np.array_equal(scorer.score_pairs(pairs), scorer.score_pairs(pairs[:, ::-1]))

    def test_exact_common_neighbors_is_integer_intersection(self):
        g = erdos_renyi_graph(25, 0.3, seed=8)
        scorer = sketch_neighborhoods(g, Metric.COMMON_NEIGHBORS, Estimator.EXACT)
        pairs = [(0, 1), (2, 10), (5, 17)]
        for (u, v), score in zip(pairs, scorer.score_pairs(pairs)):
            sets = [SortedSet(tuple(int(x) for x in g.neighbors(n))) for n in (u, v)]
            assert score == exact_intersection(*sets)

    def test_isolated_pair_scores_zero_for_all_estimators(self):
        g = graph_from_edges(4, [(0, 1)])  # nodes 2, 3 isolated
        for estimator, metric, size in [
            (Estimator.EXACT, Metric.JACCARD, None),
            (Estimator.DOTHASH, Metric.JACCARD, 64),
            (Estimator.MINHASH, Metric.JACCARD, 64),
            (Estimator.SIMHASH, Metric.JACCARD, 64),
        ]:
            scorer = sketch_neighborhoods(g, metric, estimator, size, seed=0)
            assert scorer.score_pairs([(2, 3)]).tolist() == [0.0]

    @pytest.mark.parametrize("estimator, size", [(Estimator.EXACT, None), (Estimator.DOTHASH, 64),
                                                 (Estimator.MINHASH, 64), (Estimator.SIMHASH, 64)],
                             ids=["exact", "dothash", "minhash", "simhash"])
    @pytest.mark.parametrize("pair", [(0, -1), (-1, 0), (0, 3), (0, -4)])
    def test_pair_index_outside_the_sets_raises(self, estimator, size, pair):
        scorer = sketch_neighborhoods(path_graph(), Metric.JACCARD, estimator, size, seed=0)
        with pytest.raises(ValueError, match=r"pair index outside 0\.\.2"):
            scorer.score_pairs(np.array([(0, 2), pair]))

    @pytest.mark.parametrize("estimator", list(Estimator), ids=lambda e: e.value)
    def test_one_distinct_pass_per_graph(self, distinct_passes, estimator):
        g = preferential_attachment_graph(60, 3, seed=4)
        size = None if estimator is Estimator.EXACT else 64
        sketch_neighborhoods(g, Metric.JACCARD, estimator, size, seed=1)
        assert len(distinct_passes) == 1

    @pytest.mark.parametrize("estimator", list(Estimator), ids=lambda e: e.value)
    def test_repeated_ids_count_once_in_set_sizes(self, estimator):
        # Sets [1, 1, 2] and [1, 2] are one set: every build and the exact
        # join drop the repeat, so the Jaccard sizes must too (they once
        # scored 0.667 under exact and DotHash but 1.0 under MinHash).
        repeated = distinct_sets(np.array([0, 3, 5]), np.array([1, 1, 2, 1, 2], dtype=np.uint64))
        distinct = distinct_sets(np.array([0, 2, 4]), np.array([1, 2, 1, 2], dtype=np.uint64))
        size = None if estimator is Estimator.EXACT else 4096
        got = sketch_neighborhoods(repeated, Metric.JACCARD, estimator, size, seed=3)
        want = sketch_neighborhoods(distinct, Metric.JACCARD, estimator, size, seed=3)
        assert got.sizes.tolist() == [2, 2]
        assert got.score_pairs([(0, 1)]).tolist() == want.score_pairs([(0, 1)]).tolist()
        if estimator in (Estimator.EXACT, Estimator.MINHASH, Estimator.SIMHASH):
            assert got.score_pairs([(0, 1)]).tolist() == [1.0]

    def test_log_base_change_preserves_ranking(self):
        # Adamic-Adar with ln vs log2 rescales scores by a constant factor,
        # leaving Hits@K untouched.
        g = erdos_renyi_graph(40, 0.25, seed=9)
        split = split_edges(g, 0.2, 2, seed=0)
        natural = sketch_neighborhoods(split.train_graph, Metric.ADAMIC_ADAR, Estimator.EXACT)
        pos_ln = natural.score_pairs(split.positives)
        neg_ln = natural.score_pairs(split.negatives)

        deg = split.train_graph.degrees().astype(np.float64)
        base2 = np.where(deg > 1, 1.0 / np.log2(np.maximum(deg, 2.0)), 0.0)
        weights = WeightFn.from_array(base2)
        sets = [SortedSet(tuple(int(x) for x in split.train_graph.neighbors(v)))
                for v in range(split.train_graph.node_count)]
        from dothash.exact import exact_weighted

        pos_2 = [exact_weighted(sets[u], sets[v], weights) for u, v in split.positives]
        neg_2 = [exact_weighted(sets[u], sets[v], weights) for u, v in split.negatives]
        np.testing.assert_allclose(np.array(pos_2), pos_ln * math.log(2), rtol=1e-12)
        for k in (1, 5, len(neg_ln)):
            assert hits_at_k(pos_ln, neg_ln, k) == hits_at_k(pos_2, neg_2, k)


def brute_force_hits(pos, neg, k):
    threshold = sorted(neg, reverse=True)[k - 1]
    return sum(1 for p in pos if p > threshold) / len(pos)


class TestHitsAtK:
    def test_perfect_ranking(self):
        assert hits_at_k([5.0, 6.0], [1.0, 2.0], 1) == 1.0

    def test_inverted_ranking(self):
        assert hits_at_k([1.0, 2.0], [5.0, 6.0], 2) == 0.0

    def test_hand_example(self):
        pos = [0.9, 0.5, 0.1]
        neg = [0.8, 0.4, 0.2, 0.05]
        assert hits_at_k(pos, neg, 2) == pytest.approx(2 / 3)

    def test_ties_count_as_misses(self):
        assert hits_at_k([0.4, 0.5], [0.4, 0.3], 1) == 0.5

    def test_k_exceeds_negatives(self):
        with pytest.raises(ValueError, match="exceeds the number of negatives"):
            hits_at_k([1.0], [1.0, 2.0], 3)
        with pytest.raises(ValueError):
            hits_at_k([1.0], [1.0], 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=300)
    def test_matches_brute_force_with_ties(self, pos, neg, k):
        if k > len(neg):
            return
        pos_f = [float(x) for x in pos]
        neg_f = [float(x) for x in neg]
        assert hits_at_k(pos_f, neg_f, k) == pytest.approx(brute_force_hits(pos_f, neg_f, k))

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=20),
    )
    @settings(max_examples=100)
    def test_invariant_under_increasing_transform(self, pos, neg):
        # scaling by a power of two is exact, hence strictly increasing on floats
        k = 2
        transformed_pos = [8.0 * x for x in pos]
        transformed_neg = [8.0 * x for x in neg]
        assert hits_at_k(pos, neg, k) == hits_at_k(transformed_pos, transformed_neg, k)


class TestBenchmark:
    def test_exact_rows_are_repeat_invariant(self):
        g = erdos_renyi_graph(60, 0.15, seed=10)
        rows = run_linkpred_benchmark(
            g,
            [SweepPoint(Estimator.EXACT, Metric.ADAMIC_ADAR)],
            k_values=[10],
            repeats=4,
            seed=2,
        )
        assert len(rows) == 1
        assert rows[0].hits_ci95 == 0.0  # identical hits across repeats

    def test_exact_oracle_is_built_once_per_point(self, monkeypatch):
        # Repeats reseed only the sketches, so the exact scores of one run
        # stand for every repeat, with the same mean and spread arithmetic.
        built = []

        def counting(graph, metric, estimator, *args, **kwargs):
            built.append(estimator)
            return sketch_neighborhoods(graph, metric, estimator, *args, **kwargs)

        monkeypatch.setattr(linkpred, "sketch_neighborhoods", counting)
        g = erdos_renyi_graph(60, 0.15, seed=10)
        points = [SweepPoint(Estimator.EXACT, Metric.ADAMIC_ADAR),
                  SweepPoint(Estimator.DOTHASH, Metric.ADAMIC_ADAR, 64)]
        rows = run_linkpred_benchmark(g, points, k_values=[10], repeats=3, seed=2)
        assert built == [Estimator.EXACT] + [Estimator.DOTHASH] * 3
        once = run_linkpred_benchmark(g, points[:1], k_values=[10], repeats=1, seed=2)[0]
        samples = np.array([once.hits_mean] * 3)
        assert rows[0].hits_mean == float(samples.mean())
        assert rows[0].hits_ci95 == float(1.96 * samples.std(ddof=1) / math.sqrt(3))
        assert rows[0].repeats == 3

    def test_row_fields_and_multiple_k(self):
        g = erdos_renyi_graph(50, 0.2, seed=11)
        rows = run_linkpred_benchmark(
            g,
            [SweepPoint(Estimator.DOTHASH, Metric.JACCARD, 256)],
            k_values=[5, 20],
            repeats=2,
            seed=3,
        )
        assert [r.k for r in rows] == [5, 20]
        for row in rows:
            assert row.estimator == "dothash"
            assert 0.0 <= row.hits_mean <= 1.0
            assert row.build_seconds >= 0.0
            assert row.repeats == 2

    def test_dothash_tracks_exact_at_high_dims(self):
        g = erdos_renyi_graph(80, 0.25, seed=12)
        exact_rows = run_linkpred_benchmark(
            g, [SweepPoint(Estimator.EXACT, Metric.ADAMIC_ADAR)], k_values=[20], repeats=1, seed=4
        )
        dh_rows = run_linkpred_benchmark(
            g, [SweepPoint(Estimator.DOTHASH, Metric.ADAMIC_ADAR, 1 << 14)], k_values=[20], repeats=1, seed=4
        )
        assert abs(dh_rows[0].hits_mean - exact_rows[0].hits_mean) <= 0.1

    def test_hits_never_drop_beyond_ci_as_dims_grow(self):
        # more dimensions means less estimator noise; mean Hits@K may wobble
        # but never by more than the confidence-interval widths
        g = preferential_attachment_graph(200, 8, seed=40)
        points = [SweepPoint(Estimator.DOTHASH, Metric.ADAMIC_ADAR, d) for d in (128, 512, 4096)]
        rows = run_linkpred_benchmark(g, points, k_values=[20], test_fraction=0.1,
                                      neg_per_pos=2, repeats=4, seed=41)
        for lo, hi in zip(rows, rows[1:]):
            assert hi.hits_mean >= lo.hits_mean - (lo.hits_ci95 + hi.hits_ci95)


def _rows_rebuilt_per_repeat(g, points, k_values, test_fraction, neg_per_pos, repeats, seed):
    """run_linkpred_benchmark's rows, each repeat built by sketch_neighborhoods from the train graph."""
    split = split_edges(g, test_fraction, neg_per_pos, seed)
    rows = []
    for point in points:
        hits = {k: [] for k in k_values}
        runs = repeats if point.estimator in (Estimator.DOTHASH, Estimator.MINHASH, Estimator.SIMHASH) else 1
        for r in range(runs):
            scorer = sketch_neighborhoods(split.train_graph, point.metric, point.estimator, point.dims_or_k,
                                          seed=seed + r)
            pos, neg = scorer.score_pairs(split.positives), scorer.score_pairs(split.negatives)
            for k in k_values:
                hits[k].append(hits_at_k(pos, neg, k))
        for k in k_values:
            samples = np.array(hits[k] * (repeats // runs))
            ci = 0.0 if repeats < 2 else 1.96 * samples.std(ddof=1) / math.sqrt(repeats)
            rows.append((point.estimator.value, point.metric.value, point.dims_or_k or 0, k,
                         float(samples.mean()), float(ci), repeats))
    return rows


class TestPreparedOncePerRun:
    POINTS = ([SweepPoint(estimator, metric, size) for estimator, size in ((Estimator.DOTHASH, 64),
                                                                           (Estimator.EXACT, None))
               for metric in Metric]
              + [SweepPoint(Estimator.MINHASH, Metric.JACCARD, 32), SweepPoint(Estimator.SIMHASH, Metric.JACCARD, 200)])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rows_equal_building_each_repeat_from_the_train_graph(self, seed):
        g = preferential_attachment_graph(150, 4, seed=seed)
        got = run_linkpred_benchmark(g, self.POINTS, k_values=[5, 20], test_fraction=0.2, neg_per_pos=2,
                                     repeats=3, seed=seed)
        timeless = [tuple(v for f, v in dataclasses.asdict(row).items() if not f.endswith("_seconds"))
                    for row in got]
        assert timeless == _rows_rebuilt_per_repeat(g, self.POINTS, [5, 20], 0.2, 2, 3, seed)

    def test_a_repeated_k_counts_each_repeat_once(self):
        # A K listed twice once took each repeat's hits twice: six samples
        # for three repeats, and a narrower hits_ci95.
        g = preferential_attachment_graph(150, 4, seed=5)
        points = [SweepPoint(Estimator.DOTHASH, Metric.JACCARD, 64)]

        def timeless(k_values):
            rows = run_linkpred_benchmark(g, points, k_values=k_values, repeats=3, seed=5)
            return [dataclasses.replace(row, build_seconds=0.0, compare_seconds=0.0) for row in rows]

        assert timeless([5, 5]) == timeless([5]) * 2

    def test_build_seconds_time_only_the_build(self, monkeypatch):
        # A clock that moves only inside the wrapped calls: the build adds 1 s,
        # preparing sets or degree weights 1000 s, scoring 10 s per call.
        clock = [0.0]
        calls = {"sets": 0, "weights": 0}

        def ticking(fn, seconds, key=None):
            def wrapped(*args, **kwargs):
                clock[0] += seconds
                if key:
                    calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linkpred, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(linkpred, "sketch_neighborhoods", ticking(sketch_neighborhoods, 1.0))
        monkeypatch.setattr(linkpred, "distinct_sets", ticking(distinct_sets, 1000.0, "sets"))
        for name in ("adamic_adar_weights", "resource_allocation_weights"):
            monkeypatch.setattr(linkpred, name, ticking(getattr(linkpred, name), 1000.0, "weights"))
        monkeypatch.setattr(linkpred.NeighborhoodScorer, "score_pairs",
                            ticking(linkpred.NeighborhoodScorer.score_pairs, 10.0))
        g = preferential_attachment_graph(150, 4, seed=3)
        rows = run_linkpred_benchmark(g, self.POINTS, k_values=[5], repeats=3, seed=3)
        assert [(row.build_seconds, row.compare_seconds) for row in rows] == [(1.0, 20.0)] * len(rows)
        # One set preparation per run, one degree weighting per weighted sweep point.
        assert calls == {"sets": 1, "weights": 4}


class TestRepeatsBuildIntoOneOutput:
    POINTS = ([SweepPoint(Estimator.DOTHASH, metric, d) for metric in (Metric.ADAMIC_ADAR, Metric.JACCARD)
               for d in (4096, 200)]
              + [SweepPoint(Estimator.MINHASH, Metric.JACCARD, 32), SweepPoint(Estimator.SIMHASH, Metric.JACCARD, 200)])

    def test_each_repeat_scores_as_an_independent_build(self, monkeypatch):
        builds, scores = [], []

        def build(*args, **kwargs):
            scorer = sketch_neighborhoods(*args, **kwargs)
            builds.append((kwargs["out"], scorer.sets))
            return scorer

        def hits(pos, neg, k):
            scores.append((pos.tobytes(), neg.tobytes()))
            return hits_at_k(pos, neg, k)

        monkeypatch.setattr(linkpred, "sketch_neighborhoods", build)
        monkeypatch.setattr(linkpred, "hits_at_k", hits)
        g = preferential_attachment_graph(150, 4, seed=9)
        rows = run_linkpred_benchmark(g, self.POINTS, k_values=[5], repeats=3, seed=9)
        split = split_edges(g, 0.1, 2, 9)
        for p, point in enumerate(self.POINTS):
            (first, output), *later = builds[3 * p : 3 * p + 3]
            assert first is None and all(out is output and built is output for out, built in later)
            for r in range(3):
                scorer = sketch_neighborhoods(split.train_graph, point.metric, point.estimator, point.dims_or_k,
                                              seed=9 + r)
                fresh = (scorer.score_pairs(split.positives).tobytes(), scorer.score_pairs(split.negatives).tobytes())
                assert scores[3 * p + r] == fresh
        timeless = [tuple(v for f, v in dataclasses.asdict(row).items() if not f.endswith("_seconds"))
                    for row in rows]
        assert timeless == _rows_rebuilt_per_repeat(g, self.POINTS, [5], 0.1, 2, 3, 9)

    def test_repeats_add_no_peak_memory(self, added_peak_rss):
        # linkpred-aa's build: 2,000 Adamic-Adar weighted neighbourhoods at
        # d=4096, whose output is 62.5 MiB.  Later repeats build into it.
        setup = ("from dothash.linkpred import Estimator, Metric, SweepPoint, preferential_attachment_graph, "
                 "run_linkpred_benchmark\n"
                 "g = preferential_attachment_graph(2000, 12)\n"
                 "points = [SweepPoint(Estimator.DOTHASH, Metric.ADAMIC_ADAR, 4096)]")
        one, three = (added_peak_rss(setup, f"run_linkpred_benchmark(g, points, [50], repeats={repeats})")
                      for repeats in (1, 3))
        assert three - one <= 2**19, f"3 repeats added {(three - one) / 2**20:.2f} MiB more than 1"


def test_adamic_adar_weights_zero_low_degree():
    g = graph_from_edges(4, [(0, 1), (1, 2), (1, 3)])
    w = adamic_adar_weights(g)
    assert w(0) == 0.0  # degree 1
    assert w(1) == pytest.approx(1 / math.log(3))


def test_adamic_adar_weights_take_the_c_librarys_log():
    # numpy picks its float64 log kernel per CPU; with AVX-512, np.log(9170.0)
    # differs from the C library's log in the last bit.
    star = graph_from_edges(9171, [(0, leaf) for leaf in range(1, 9171)])
    assert adamic_adar_weights(star)(0) == 1 / math.log(9170)
