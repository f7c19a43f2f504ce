"""The exact oracle's sort-join against the scalar merge, byte for byte.

``sketch_neighborhoods(distinct_sets(indptr, elements), metric, Estimator.EXACT)``'s
``score_pairs`` joins the pairs' ranks a chunk of pairs at a time.  On any
sets and pairs, and whatever the chunk size, its scores must equal
``exact_jaccard``, ``exact_intersection`` and ``exact_weighted`` run on
SortedSets, with a pair of two empty sets scoring 0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dothash import encoding
from dothash.exact import SortedSet, exact_intersection, exact_jaccard, exact_weighted
from dothash.linkpred import Estimator, Metric, sketch_neighborhoods
from dothash.sketches import WeightFn, WeightKind, distinct_sets

# Few distinct ids, so that sets overlap, among them the largest 64-bit ones.
element_ids = st.one_of(st.integers(0, 12), st.sampled_from([2**63, 2**64 - 2, 2**64 - 1]))
set_lists = st.lists(st.lists(element_ids, unique=True, max_size=10).map(sorted), min_size=1,
                     max_size=8)


def _weight(element: int) -> float:
    """A nonnegative weight with many distinct values, so the order of additions shows."""
    return 1.0 / (1.0 + (element % 1009) / 7.0)


WEIGHT = WeightFn(WeightKind.CUSTOM, _weight, lambda elements: np.array([_weight(int(e)) for e in elements]))


def _csr(sets):
    """A list of sets as DistinctSets."""
    indptr = np.cumsum([0] + [len(s) for s in sets])
    return distinct_sets(indptr, np.array([e for s in sets for e in s], dtype=np.uint64))


def _merge_scores(sets, pairs, metric, weights):
    """Scores by the scalar merge; ``metric`` is a Metric, or None for ``weights``."""
    built = [SortedSet(tuple(s)) for s in sets]
    if metric is Metric.JACCARD:
        compare = exact_jaccard
    elif metric is Metric.COMMON_NEIGHBORS:
        compare = lambda a, b: float(exact_intersection(a, b))  # noqa: E731
    else:
        compare = lambda a, b: exact_weighted(a, b, weights)  # noqa: E731
    return np.array([0.0 if not sets[u] and not sets[v] else compare(built[u], built[v])
                     for u, v in pairs], dtype=np.float64)


@given(
    sets=set_lists,
    data=st.data(),
    metric=st.sampled_from([Metric.JACCARD, Metric.COMMON_NEIGHBORS, None]),
    chunk_bytes=st.sampled_from([1, 40, 200, 1 << 20]),
)
@settings(max_examples=150, deadline=None)
def test_sort_join_equals_the_merge(sets, data, metric, chunk_bytes):
    index = st.integers(0, len(sets) - 1)
    # (u, u) pairs and repeated pairs included; at small chunk sizes the
    # pairs span many chunks.
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=30))
    expected = _merge_scores(sets, pairs, metric, WEIGHT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
        scorer = sketch_neighborhoods(_csr(sets), metric or WEIGHT, Estimator.EXACT)
        got = scorer.score_pairs(np.array(pairs, dtype=np.int64))
    assert got.tobytes() == expected.tobytes()


def test_array_weights_give_the_merge_sums_over_many_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    sets = [sorted(rng.choice(200, size=rng.integers(0, 40), replace=False).tolist())
            for _ in range(60)]
    weights = WeightFn.from_array(rng.random(200) * 3.0)
    pairs = rng.integers(0, 60, size=(500, 2))
    monkeypatch.setattr(encoding, "_CHUNK_BYTES", 4096)
    got = sketch_neighborhoods(_csr(sets), weights, Estimator.EXACT).score_pairs(pairs)
    expected = _merge_scores(sets, pairs.tolist(), None, weights)
    assert got.tobytes() == expected.tobytes()


def test_negative_weight_on_an_intersecting_element_raises():
    sets = [[1, 2], [2, 3]]
    weights = WeightFn.from_array([0.0, 1.0, -0.5, 1.0])
    scorer = sketch_neighborhoods(_csr(sets), weights, Estimator.EXACT)
    with pytest.raises(ValueError, match="weight function must be nonnegative"):
        scorer.score_pairs(np.array([(0, 1)]))
    with pytest.raises(ValueError, match="weight function must be nonnegative"):
        exact_weighted(SortedSet((1, 2)), SortedSet((2, 3)), weights)


def test_negative_weight_outside_every_intersection_is_not_an_error():
    sets = [[1, 2], [2, 3]]
    weights = WeightFn.from_array([0.0, -1.0, 0.5, -2.0])
    scorer = sketch_neighborhoods(_csr(sets), weights, Estimator.EXACT)
    scores = scorer.score_pairs(np.array([(0, 1)]))
    assert scores.tolist() == [exact_weighted(SortedSet((1, 2)), SortedSet((2, 3)), weights)]
    assert scores.tolist() == [0.5]
