"""Graph link prediction: neighborhood scoring and Hits@K evaluation.

Pipeline: load (or synthesize) an undirected graph, split edges into a
train graph plus held-out positives and sampled negative non-edges, score
candidate pairs by comparing node neighborhoods under one of four metrics
(Jaccard, Common Neighbors, Adamic-Adar, Resource Allocation) with an
exact or sketch-based estimator, and report the fraction of positives
ranked above the K-th best negative.

Degree-based weights (Adamic-Adar, Resource Allocation) are always taken
from the train graph, never the full graph, so no test information leaks
into the scores.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .encoding import Codebook, MinwiseFamily
from .exact import SortedSet, exact_intersection, exact_jaccard, exact_weighted
from .sketches import (  # dothash_build is no longer called here but stays importable
    DotHashSketch,
    WeightFn,
    WeightKind,
    dothash_build,
    dothash_build_many,
    dothash_intersection,
    dothash_jaccard,
    minhash_build,
    minhash_jaccard,
    simhash_build,
    simhash_similarity,
)


class Metric(enum.Enum):
    JACCARD = "jaccard"
    COMMON_NEIGHBORS = "common_neighbors"
    ADAMIC_ADAR = "adamic_adar"
    RESOURCE_ALLOCATION = "resource_allocation"


class Estimator(enum.Enum):
    DOTHASH = "dothash"
    MINHASH = "minhash"
    SIMHASH = "simhash"
    EXACT = "exact"


@dataclass(frozen=True)
class Graph:
    """Undirected graph with sorted per-node neighbor arrays.

    No self-loops, no parallel edges; ``v in neighbors(u)`` iff
    ``u in neighbors(v)``.  Node ids are dense indices ``0..n-1`` and double
    as the element ids fed to the sketch encodings.
    """

    adjacency: tuple[np.ndarray, ...]
    labels: tuple[str, ...] | None = None
    self_loops_dropped: int = 0

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.int64)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors): node v's neighbors are ``neighbors[indptr[v]:indptr[v+1]]``."""
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(self.degrees(), out=indptr[1:])
        return indptr, np.concatenate([np.zeros(0, np.uint64), *self.adjacency])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        pos = np.searchsorted(nbrs, v)
        return pos < len(nbrs) and nbrs[pos] == v

    def edges(self) -> np.ndarray:
        """Canonical (u, v) edge array with u < v, lexicographically sorted."""
        pairs = [
            (u, int(v))
            for u in range(self.node_count)
            for v in self.adjacency[u]
            if u < v
        ]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def graph_from_edges(
    node_count: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    self_loops_dropped: int = 0,
) -> Graph:
    """Build a Graph from an edge list, symmetrizing and deduplicating."""
    neighbor_sets: list[set[int]] = [set() for _ in range(node_count)]
    for u, v in edges:
        if u == v:
            continue
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(np.array(sorted(s), dtype=np.uint64) for s in neighbor_sets)
    return Graph(
        adjacency=adjacency,
        labels=tuple(labels) if labels is not None else None,
        self_loops_dropped=self_loops_dropped,
    )


def load_edge_list(source: Union[str, Path, IO[bytes], IO[str]]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each non-comment line holds exactly two node labels; labels are mapped
    to dense indices in first-seen order (the mapping is kept on
    ``Graph.labels``).  Lines starting with '#' are comments.  Self-loops
    are dropped and counted on ``Graph.self_loops_dropped``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fp:
            return load_edge_list(fp)
    label_index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    self_loops = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        idx = []
        for token in tokens:
            if token not in label_index:
                label_index[token] = len(label_index)
            idx.append(label_index[token])
        u, v = idx
        if u == v:
            self_loops += 1
            continue
        edges.add((min(u, v), max(u, v)))
    if not edges:
        raise ValueError("graph has no edges")
    labels = sorted(label_index, key=label_index.__getitem__)
    return graph_from_edges(len(label_index), edges, labels=labels, self_loops_dropped=self_loops)


def erdos_renyi_graph(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the n*(n-1)/2 pairs is an edge independently with prob p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(len(rows)) < p
    return graph_from_edges(n, zip(rows[mask].tolist(), cols[mask].tolist()))


def preferential_attachment_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Growing graph where each new node attaches to m degree-weighted targets.

    Produces the heavy-tailed degree distributions typical of social and
    citation networks.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    targets = list(range(m))
    repeated: list[int] = []
    for v in range(m, n):
        edges.extend((v, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(0, len(repeated)))])
        targets = sorted(chosen)
    return graph_from_edges(n, edges)


@dataclass(frozen=True)
class EvalSplit:
    """Train graph plus held-out positive edges and sampled negative non-edges."""

    train_graph: Graph
    positives: np.ndarray
    negatives: np.ndarray


def split_edges(g: Graph, test_fraction: float, neg_per_pos: int, seed: int = 0) -> EvalSplit:
    """Hold out ceil(test_fraction * |E|) edges and sample negative non-edges.

    Positives are removed from the train graph.  Negatives are uniform
    distinct non-edges of the full graph found by rejection sampling;
    exhausting the retry budget (100 draws per required negative, minimum
    10000) raises.  Deterministic given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly in (0, 1)")
    if neg_per_pos < 1:
        raise ValueError("neg_per_pos must be >= 1")
    rng = np.random.default_rng(seed)
    edges = g.edges()
    n_pos = math.ceil(test_fraction * len(edges))
    chosen = rng.choice(len(edges), size=n_pos, replace=False)
    positives = edges[np.sort(chosen)]
    held_out = {(int(u), int(v)) for u, v in positives}
    train_edges = [(int(u), int(v)) for u, v in edges if (int(u), int(v)) not in held_out]
    train_graph = graph_from_edges(g.node_count, train_edges, labels=g.labels)

    n_neg = neg_per_pos * n_pos
    budget = max(100 * n_neg, 10_000)
    negatives: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    draws = 0
    while len(negatives) < n_neg:
        if draws >= budget:
            raise ValueError(
                f"could not sample {n_neg} non-edges within {budget} draws; graph too dense"
            )
        batch = min(4096, budget - draws)
        pairs = rng.integers(0, g.node_count, size=(batch, 2))
        draws += batch
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                continue
            pair = (min(u, v), max(u, v))
            if pair in seen or g.has_edge(*pair):
                continue
            seen.add(pair)
            negatives.append(pair)
            if len(negatives) == n_neg:
                break
    return EvalSplit(
        train_graph=train_graph,
        positives=positives,
        negatives=np.array(negatives, dtype=np.int64),
    )


def adamic_adar_weights(g: Graph) -> WeightFn:
    """Per-node weight 1/ln(degree); degree <= 1 gets weight 0.

    A degree-1 node can never be a common neighbor, so zeroing it changes
    no metric value while keeping the weight finite.
    """
    deg = g.degrees().astype(np.float64)
    with np.errstate(divide="ignore"):
        w = np.where(deg > 1, 1.0 / np.log(np.maximum(deg, 2.0)), 0.0)
    return WeightFn.from_array(w, kind=WeightKind.ADAMIC_ADAR)


def resource_allocation_weights(g: Graph) -> WeightFn:
    """Per-node weight 1/degree; isolated nodes get weight 0."""
    deg = g.degrees().astype(np.float64)
    w = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return WeightFn.from_array(w, kind=WeightKind.RESOURCE_ALLOCATION)


def _metric_weights(g: Graph, metric: Metric) -> WeightFn:
    if metric is Metric.ADAMIC_ADAR:
        return adamic_adar_weights(g)
    if metric is Metric.RESOURCE_ALLOCATION:
        return resource_allocation_weights(g)
    return WeightFn.unit()


class NeighborhoodScorer:
    """score(u, v): similarity of the two nodes' train-graph neighborhoods.

    Pairs where both neighborhoods are empty score 0.0 for every estimator:
    isolated nodes carry no similarity evidence, and a uniform convention
    keeps the rankings comparable.
    """

    def score(self, u: int, v: int) -> float:
        raise NotImplementedError

    def score_pairs(self, pairs: np.ndarray) -> np.ndarray:
        return np.array([self.score(int(u), int(v)) for u, v in pairs], dtype=np.float64)


class ExactScorer(NeighborhoodScorer):
    def __init__(self, g: Graph, metric: Metric) -> None:
        self.metric = metric
        self._sets = [SortedSet(tuple(int(x) for x in g.neighbors(v))) for v in range(g.node_count)]
        self._weights = _metric_weights(g, metric)

    def score(self, u: int, v: int) -> float:
        a, b = self._sets[u], self._sets[v]
        if len(a) == 0 and len(b) == 0:
            return 0.0
        if self.metric is Metric.JACCARD:
            return exact_jaccard(a, b)
        if self.metric is Metric.COMMON_NEIGHBORS:
            return float(exact_intersection(a, b))
        return exact_weighted(a, b, self._weights)


class DotHashScorer(NeighborhoodScorer):
    def __init__(self, g: Graph, metric: Metric, dims: int, seed: int) -> None:
        self.metric = metric
        indptr, neighbors = g.csr()
        # One (n, dims) matrix; each node's sketch is a view of its row.
        values = dothash_build_many(
            Codebook(seed=seed, dims=dims), indptr, neighbors, _metric_weights(g, metric)
        )
        self._sketches = [
            DotHashSketch(values=row, dims=dims, seed=seed, cardinality=int(degree))
            for row, degree in zip(values, np.diff(indptr))
        ]

    def score(self, u: int, v: int) -> float:
        a, b = self._sketches[u], self._sketches[v]
        if a.cardinality == 0 and b.cardinality == 0:
            return 0.0
        if self.metric is Metric.JACCARD:
            return dothash_jaccard(a, b)
        return dothash_intersection(a, b)


class MinHashScorer(NeighborhoodScorer):
    def __init__(self, g: Graph, k: int, seed: int) -> None:
        family = MinwiseFamily(seed=seed, k=k)
        self._sketches = [minhash_build(family, g.neighbors(v)) for v in range(g.node_count)]

    def score(self, u: int, v: int) -> float:
        a, b = self._sketches[u], self._sketches[v]
        if a.cardinality == 0 and b.cardinality == 0:
            return 0.0
        return minhash_jaccard(a, b)


class SimHashScorer(NeighborhoodScorer):
    def __init__(self, g: Graph, dims: int, seed: int) -> None:
        cb = Codebook(seed=seed, dims=dims)
        self._sketches = [simhash_build(cb, g.neighbors(v)) for v in range(g.node_count)]

    def score(self, u: int, v: int) -> float:
        a, b = self._sketches[u], self._sketches[v]
        if a.cardinality == 0 and b.cardinality == 0:
            return 0.0
        return simhash_similarity(a, b)


def sketch_neighborhoods(
    g: Graph,
    metric: Metric,
    estimator: Estimator,
    dims_or_k: int | None = None,
    seed: int = 0,
) -> NeighborhoodScorer:
    """Build a per-node scorer for the (estimator, metric) combination.

    MinHash and SimHash can only rank by Jaccard; DotHash and the exact
    oracle support all four metrics.
    """
    if estimator in (Estimator.MINHASH, Estimator.SIMHASH) and metric is not Metric.JACCARD:
        raise ValueError(f"estimator cannot express metric: {estimator.value} / {metric.value}")
    if estimator is Estimator.EXACT:
        return ExactScorer(g, metric)
    if dims_or_k is None or dims_or_k < 1:
        raise ValueError("sketch estimators need a positive dims_or_k")
    if estimator is Estimator.DOTHASH:
        return DotHashScorer(g, metric, dims_or_k, seed)
    if estimator is Estimator.MINHASH:
        return MinHashScorer(g, dims_or_k, seed)
    return SimHashScorer(g, dims_or_k, seed)


def hits_at_k(positive_scores: Sequence[float], negative_scores: Sequence[float], k: int) -> float:
    """Fraction of positives scoring strictly above the k-th largest negative.

    Ties with the threshold count as misses.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("score lists must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(neg):
        raise ValueError(f"k={k} exceeds the number of negatives ({len(neg)})")
    threshold = np.partition(neg, len(neg) - k)[len(neg) - k]
    return float(np.count_nonzero(pos > threshold)) / len(pos)


@dataclass(frozen=True)
class SweepPoint:
    """One (estimator, metric, size) combination of a benchmark sweep."""

    estimator: Estimator
    metric: Metric
    dims_or_k: int | None = None


@dataclass(frozen=True)
class BenchmarkRow:
    estimator: str
    metric: str
    dims_or_k: int
    k: int
    hits_mean: float
    hits_ci95: float
    build_seconds: float
    compare_seconds: float
    repeats: int


def run_linkpred_benchmark(
    g: Graph,
    points: Sequence[SweepPoint],
    k_values: Sequence[int],
    test_fraction: float = 0.1,
    neg_per_pos: int = 2,
    repeats: int = 3,
    seed: int = 0,
) -> list[BenchmarkRow]:
    """Score every sweep point on one shared split and aggregate over repeats.

    The split is drawn once from ``seed``; repeat ``r`` reseeds only the
    sketch construction with ``seed + r``, so exact-estimator rows are
    identical across repeats.  hits_ci95 is the normal-approximation 95%
    half-width over repeats (0 when repeats == 1).
    """
    split = split_edges(g, test_fraction, neg_per_pos, seed)
    rows: list[BenchmarkRow] = []
    for point in points:
        hits: dict[int, list[float]] = {k: [] for k in k_values}
        build_times: list[float] = []
        compare_times: list[float] = []
        for r in range(repeats):
            t0 = time.perf_counter()
            scorer = sketch_neighborhoods(
                split.train_graph, point.metric, point.estimator, point.dims_or_k, seed=seed + r
            )
            t1 = time.perf_counter()
            pos_scores = scorer.score_pairs(split.positives)
            neg_scores = scorer.score_pairs(split.negatives)
            t2 = time.perf_counter()
            build_times.append(t1 - t0)
            compare_times.append(t2 - t1)
            del scorer  # free this repeat's sketches before the next repeat builds its own
            for k in k_values:
                hits[k].append(hits_at_k(pos_scores, neg_scores, k))
        for k in k_values:
            samples = np.array(hits[k])
            ci = 0.0 if repeats < 2 else 1.96 * samples.std(ddof=1) / math.sqrt(repeats)
            rows.append(
                BenchmarkRow(
                    estimator=point.estimator.value,
                    metric=point.metric.value,
                    dims_or_k=point.dims_or_k or 0,
                    k=k,
                    hits_mean=float(samples.mean()),
                    hits_ci95=float(ci),
                    build_seconds=float(np.mean(build_times)),
                    compare_seconds=float(np.mean(compare_times)),
                    repeats=repeats,
                )
            )
    return rows
