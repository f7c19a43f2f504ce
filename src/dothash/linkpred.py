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

import bisect
import collections
import enum
import functools
import io
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, Union

import numpy as np

from .encoding import integer_array, whole
from .sketches import ESTIMATORS, DistinctSets, WeightFn, WeightKind, distinct_sets

# Not called here; bench/spans.py wraps these names until ROADMAP item 1 moves its probes.
from .exact import exact_intersection, exact_jaccard, exact_weighted  # noqa: F401
from .sketches import dothash_build, dothash_intersection, dothash_jaccard  # noqa: F401
from .sketches import minhash_build, minhash_jaccard, simhash_build, simhash_similarity  # noqa: F401


# Bytes, or characters of a text stream, that load_edge_list reads at a time.
_EDGE_WINDOW = 1 << 16


class Metric(enum.Enum):
    JACCARD = "jaccard"
    COMMON_NEIGHBORS = "common_neighbors"
    ADAMIC_ADAR = "adamic_adar"
    RESOURCE_ALLOCATION = "resource_allocation"


# One member per entry of the estimator table, such as Estimator.DOTHASH = "dothash".
Estimator = enum.Enum("Estimator", [(name.upper(), name) for name in ESTIMATORS], module=__name__)


@dataclass(frozen=True)
class Graph:
    """Undirected graph held as CSR arrays.

    Node ``v``'s neighbors are ``indices[indptr[v]:indptr[v+1]]``, sorted
    ascending.  No self-loops, no parallel edges; ``v in neighbors(u)`` iff
    ``u in neighbors(v)``.  Node ids are dense indices ``0..n-1`` and double
    as the element ids fed to the sketch encodings.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...] | None = None
    self_loops_dropped: int = 0

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        # sample_pairs calls this once per draw: bisect over memoryviews
        # compares Python ints, without np.searchsorted's per-call dispatch.
        indptr, indices = self._views
        lo, hi = indptr[u], indptr[u + 1]
        pos = bisect.bisect_left(indices, v, lo, hi)
        return pos < hi and indices[pos] == v

    @functools.cached_property
    def _views(self) -> tuple[memoryview, memoryview]:
        """``indptr`` and ``indices`` as memoryviews, made on first use and never pickled."""
        return memoryview(self.indptr), memoryview(self.indices)

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_views", None)  # a memoryview does not pickle; has_edge makes it again
        return state

    def edges(self) -> np.ndarray:
        """Canonical (u, v) edge array with u < v, lexicographically sorted."""
        u = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees())
        v = self.indices.astype(np.int64)
        upper = u < v
        return np.stack([u[upper], v[upper]], axis=1)


def graph_from_edges(
    node_count: int,
    edges: Sequence[tuple[int, int]] | np.ndarray,
    labels: Sequence[str] | None = None,
    self_loops_dropped: int = 0,
) -> Graph:
    """Build a Graph from an edge list, symmetrizing and deduplicating.

    Self-loops are skipped; an endpoint outside ``0..node_count-1`` raises.
    Both directions of every edge go into one int64 array of packed
    ``row * n + column`` keys, sorted in place; the self-loops' keys are
    the ones that ``n + 1`` divides.
    """
    node_count = whole("node_count", node_count, 0)
    pairs = integer_array("edges", edges, np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= node_count):
        raise ValueError(f"edge endpoint outside 0..{node_count - 1}")
    n, (u, v) = max(node_count, 1), pairs.T
    keys = np.empty((2, len(pairs)), dtype=np.int64)
    np.multiply(u, n, out=keys[0])
    keys[0] += v
    np.multiply(v, n, out=keys[1])
    keys[1] += u
    keys = keys.reshape(-1)
    keys.sort()
    # Keep the first of each run of equal keys, unless it is a self-loop's.
    keep = keys % (n + 1) != 0
    keep[1:] &= keys[1:] != keys[:-1]
    keys = keys[keep]
    indptr = np.searchsorted(keys, np.arange(node_count + 1) * n)
    np.remainder(keys, n, out=keys)
    return Graph(
        indptr=indptr,
        indices=keys.view(np.uint64),
        labels=tuple(labels) if labels is not None else None,
        self_loops_dropped=self_loops_dropped,
    )


def decode_line(raw: bytes | str, lineno: int) -> str:
    """One line of an input file as text, or ValueError naming the line.

    ``raw`` is the line's bytes, or its text as read with
    ``errors="surrogateescape"``, which keeps bytes that are not UTF-8 as
    lone surrogates until this check finds them.
    """
    try:
        if isinstance(raw, str):
            raw = raw.encode("utf-8", "surrogateescape")
        return raw.decode("utf-8")
    except UnicodeError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _edge_windows(source: IO[bytes] | IO[str]) -> Iterator[bytes | str]:
    """The stream's contents in windows of about ``_EDGE_WINDOW`` bytes or characters.

    Each window but the last, which may be empty, ends just after an LF; a
    line longer than a window runs on to its LF.
    """
    empty = source.read(0)
    lf = "\n" if isinstance(empty, str) else b"\n"
    pending = []  # what was read after the last LF
    for chunk in iter(functools.partial(source.read, _EDGE_WINDOW), empty):
        cut = chunk.rfind(lf) + 1
        if cut:
            yield empty.join([*pending, chunk[:cut]])
            pending = []
        pending.append(chunk[cut:])
    yield empty.join(pending)


def load_edge_list(source: Union[str, Path, IO[bytes], IO[str]]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each non-comment line holds exactly two node labels; labels are mapped
    to dense indices in first-seen order (the mapping is kept on
    ``Graph.labels``).  Lines starting with '#' are comments.  Self-loops
    are dropped and counted on ``Graph.self_loops_dropped``.

    The input is read one window of about 64 KiB at a time, cut just after
    an LF, a path or binary stream decoded as UTF-8 with ``surrogateescape``,
    and split at "\\n"; any other whitespace, CR included, separates labels.
    Each window's labels are mapped to ids before the next window is read,
    so memory holds the distinct labels and the ids, never the whole
    input's text or tokens: 1M edges over 200k nodes (a 12.9 MB file) add
    about 68 MiB of peak RSS, the 17 MiB Graph included, and
    ``tests/test_linkpred.py::test_edge_list_load_memory_is_bounded`` bounds
    a smaller load.  Raises ValueError naming the first line that holds
    another number of labels or is not UTF-8, as
    :func:`decode_line` finds from the line with its "\\n".
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fp:
            return load_edge_list(fp)
    # A label's id is its index's size when it is first looked up: first-seen order.
    index = collections.defaultdict(itertools.count().__next__)
    pieces, loops, lineno = [], 0, 0
    for window in _edge_windows(source):
        # No byte of a multi-byte UTF-8 sequence is an LF, so a window decodes as its part of the input would.
        text = window if isinstance(window, str) else window.decode("utf-8", "surrogateescape")
        labels, all_ascii = [], text.isascii()
        for lineno, line in enumerate(io.StringIO(text), start=lineno + 1):
            if not (all_ascii or line.isascii()):  # bytes that are not UTF-8 are lone surrogates here
                decode_line(line, lineno)
            tokens = line.split()
            if len(tokens) == 2 and tokens[0][0] != "#":
                labels += tokens
            elif tokens and tokens[0][0] != "#":
                raise ValueError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        ids = np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=len(labels))
        loops += int(np.count_nonzero(ids[0::2] == ids[1::2]))
        pieces.append(ids)
    ids = np.concatenate(pieces)
    del pieces  # so that no second copy of the ids sits beside the build's keys
    if loops == len(ids) // 2:
        raise ValueError("graph has no edges")
    labels = tuple(index)
    del index  # its table and ids go before the build; the labels stay on the tuple
    return graph_from_edges(len(labels), ids, labels=labels, self_loops_dropped=loops)


def erdos_renyi_graph(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the n*(n-1)/2 pairs is an edge independently with prob p."""
    n = whole("n", n, 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(whole("seed", seed, 0))
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(len(rows)) < p
    return graph_from_edges(n, np.stack([rows[mask], cols[mask]], axis=1))


def preferential_attachment_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Growing graph where each new node attaches to m degree-weighted targets.

    Produces the heavy-tailed degree distributions typical of social and
    citation networks.
    """
    m = whole("m", m, 1)
    n = whole("n", n, m + 1)
    rng = np.random.default_rng(whole("seed", seed, 0))
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


def sample_pairs(rng: np.random.Generator, n: int, count: int,
                 excluded: Callable[[int, int], bool]) -> np.ndarray:
    """``count`` distinct unordered pairs of ``0..n-1``, by rejection sampling.

    Draws are ``rng.integers(0, n, size=2)`` one at a time, read from
    ``(4096, 2)`` batches, which consume the generator as single draws do.
    A draw ``(u, v)`` is taken when u != v, its pair ``(min, max)`` is new
    and then ``excluded(min, max)`` is False.  Returns the taken draws as
    drawn, in draw order, as a ``(count, 2)`` int64 array.  Raises
    ValueError when ``max(100 * count, 10_000)`` draws take fewer.
    """
    count = whole("count", count, 0)
    budget = max(100 * count, 10_000)
    taken: dict[tuple[int, int], tuple[int, int]] = {}  # (min, max) -> the draw, in draw order
    draws = 0
    while len(taken) < count:
        if draws >= budget:
            raise ValueError(f"could not sample {count} non-edges within {budget} draws; graph too dense")
        batch = min(4096, budget - draws)
        draws += batch
        for u, v in rng.integers(0, n, size=(batch, 2)).tolist():
            pair = (u, v) if u < v else (v, u)
            if u != v and pair not in taken and not excluded(*pair):
                taken[pair] = (u, v)
                if len(taken) == count:
                    break
    return np.array(list(taken.values()), dtype=np.int64).reshape(-1, 2)


def split_edges(g: Graph, test_fraction: float, neg_per_pos: int, seed: int = 0) -> EvalSplit:
    """Hold out ceil(test_fraction * |E|) edges and sample negative non-edges.

    Positives are removed from the train graph.  Negatives are
    ``neg_per_pos`` per positive: distinct non-edges ``(u, v)``, u < v, of
    the full graph, drawn by :func:`sample_pairs` excluding ``g.has_edge``,
    which raises when its budget of ``max(100 * count, 10_000)`` draws runs
    out.  Deterministic given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly in (0, 1)")
    neg_per_pos = whole("neg_per_pos", neg_per_pos, 1)
    rng = np.random.default_rng(whole("seed", seed, 0))
    edges = g.edges()
    n_pos = math.ceil(test_fraction * len(edges))
    chosen = rng.choice(len(edges), size=n_pos, replace=False)
    positives = edges[np.sort(chosen)]
    train_edges = np.delete(edges, chosen, axis=0)
    train_graph = graph_from_edges(g.node_count, train_edges, labels=g.labels)
    negatives = sample_pairs(rng, g.node_count, neg_per_pos * n_pos, g.has_edge)
    return EvalSplit(train_graph=train_graph, positives=positives, negatives=np.sort(negatives, axis=1))


def per_level(values: np.ndarray, fn: Callable[[int], float]) -> np.ndarray:
    """``fn(v)`` of every integer ``v`` in ``values`` as float64, calling ``fn`` once per distinct value.

    Weights that take ``math.log`` this way get the C library's ``log``,
    not numpy's, whose float64 kernel numpy picks per CPU.
    """
    levels, slots = np.unique(values, return_inverse=True)
    return np.array([fn(level) for level in levels.tolist()], dtype=np.float64)[slots]


def adamic_adar_weights(g: Graph) -> WeightFn:
    """Per-node weight 1/ln(degree); degree <= 1 gets weight 0.

    A degree-1 node can never be a common neighbor, so zeroing it changes
    no metric value while keeping the weight finite.  The log is
    ``math.log``, once per distinct degree (:func:`per_level`).
    """
    w = per_level(g.degrees(), lambda deg: 1.0 / math.log(deg) if deg > 1 else 0.0)
    return WeightFn.from_array(w, kind=WeightKind.ADAMIC_ADAR)


def resource_allocation_weights(g: Graph) -> WeightFn:
    """Per-node weight 1/degree; isolated nodes get weight 0."""
    deg = g.degrees().astype(np.float64)
    w = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return WeightFn.from_array(w, kind=WeightKind.RESOURCE_ALLOCATION)


def _metric_weights(g: Graph | None, metric: Metric | WeightFn) -> WeightFn:
    if isinstance(metric, WeightFn):
        return metric
    if metric in (Metric.JACCARD, Metric.COMMON_NEIGHBORS):
        return WeightFn.unit()
    if g is None:
        raise ValueError(f"{metric.value} weights need a graph's degrees")
    return adamic_adar_weights(g) if metric is Metric.ADAMIC_ADAR else resource_allocation_weights(g)


@dataclass(frozen=True, eq=False)
class NeighborhoodScorer:
    """Similarity of pairs of sets, all built once by the estimator's table entry.

    ``sets`` is what the entry's ``build_many`` returned and ``sizes[i]`` is set
    ``i``'s number of distinct elements.  A pair of two empty sets scores 0.0,
    by the both-empty rule of :mod:`dothash.sketches`.
    """

    estimator: Estimator
    metric: Metric | WeightFn
    dims_or_k: int | None
    sets: np.ndarray | tuple
    sizes: np.ndarray

    def score_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Scores of the (u, v) rows of ``pairs``, as float64.

        Each equals the estimator's scalar compare function bit for bit: the
        estimator's table entry scores them, as ``dothash compare`` scores two
        sketch files.  Raises ValueError on an index outside ``0..n-1`` for n
        sets.
        """
        pairs = integer_array("pairs", pairs, np.int64).reshape(-1, 2)
        if np.any((pairs < 0) | (pairs >= len(self.sizes))):
            raise ValueError(f"pair index outside 0..{len(self.sizes) - 1}")
        u, v = pairs.T
        size_u, size_v = self.sizes[u], self.sizes[v]
        scores = ESTIMATORS[self.estimator.value].score(self.sets, self.dims_or_k, u, v, size_u, size_v,
                                                        self.metric is Metric.JACCARD)
        scores[(size_u == 0) & (size_v == 0)] = 0.0
        return scores


def sketch_neighborhoods(
    sets: Graph | DistinctSets,
    metric: Metric | WeightFn,
    estimator: Estimator,
    dims_or_k: int | None = None,
    seed: int = 0,
    out: np.ndarray | None = None,
) -> NeighborhoodScorer:
    """Build every set once for the (estimator, metric) combination.

    ``sets`` is a Graph's node neighborhoods, put in distinct form by one
    :func:`~dothash.sketches.distinct_sets` call, or sets already in that
    form, such as :func:`~dothash.dedup.shingle_csr` returns; either is
    built in one batch by the estimator's table entry, and anything else, a raw
    ``(indptr, elements)`` pair included, raises ValueError.  Set sizes,
    which the Jaccard scores use, count each element once.
    ``metric`` is a Metric, or the WeightFn of a weighted intersection such
    as IDF; degree weights come from the graph.  MinHash and SimHash can
    only rank by Jaccard; DotHash and the exact oracle support every metric.
    A sketch estimator builds into ``out`` when it is given, an earlier
    scorer's ``sets`` of the same shape, which the new scorer then holds.
    """
    entry = ESTIMATORS[estimator.value]
    name = metric.kind.value if isinstance(metric, WeightFn) else metric.value
    if not entry.weighted and metric is not Metric.JACCARD:
        raise ValueError(f"estimator cannot express metric: {estimator.value} / {name}")
    if entry.size_flag is not None and dims_or_k is None:
        raise ValueError("sketch estimators need a positive dims_or_k")
    if isinstance(sets, Graph):
        graph, sets = sets, distinct_sets(sets.indptr, sets.indices)
    elif isinstance(sets, DistinctSets):
        graph = None
    else:
        raise ValueError("sets must be a Graph or DistinctSets")
    built = entry.build_many(seed, dims_or_k, sets, _metric_weights(graph, metric), out)
    return NeighborhoodScorer(estimator, metric, dims_or_k, built, np.diff(sets.indptr))


def hits_at_k(positive_scores: Sequence[float], negative_scores: Sequence[float], k: int) -> float:
    """Fraction of positives scoring strictly above the k-th largest negative.

    Ties with the threshold count as misses.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("score lists must be non-empty")
    k = whole("k", k, 1)
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
    identical across repeats: the exact oracle is built and scored once,
    its hits count for every repeat, and its timings are that one run's.
    The train graph's :class:`~dothash.sketches.DistinctSets` are made once
    per run, and a degree metric's weights once per point; every repeat's
    build reuses them, and build_seconds times only its
    :func:`sketch_neighborhoods` call.  A sketch repeat builds into the
    previous repeat's sketches, once that repeat is scored.
    hits_ci95 is the normal-approximation 95% half-width over repeats (0
    when repeats == 1).  A K listed twice gives two equal rows.
    """
    repeats = whole("repeats", repeats, 1)
    k_values = [whole("k", k, 1) for k in k_values]
    split = split_edges(g, test_fraction, neg_per_pos, seed)
    sets = distinct_sets(split.train_graph.indptr, split.train_graph.indices)
    rows: list[BenchmarkRow] = []
    for point in points:
        weights = _metric_weights(split.train_graph, point.metric)
        # Unit metrics pass as themselves, so the scorer still sees Jaccard.
        metric = point.metric if weights.kind is WeightKind.UNIT else weights
        hits: dict[int, list[float]] = {k: [] for k in k_values}
        build_times: list[float] = []
        compare_times: list[float] = []
        runs = repeats if ESTIMATORS[point.estimator.value].size_flag else 1
        built = None
        for r in range(runs):
            t0 = time.perf_counter()
            scorer = sketch_neighborhoods(sets, metric, point.estimator, point.dims_or_k, seed=seed + r, out=built)
            t1 = time.perf_counter()
            pos_scores = scorer.score_pairs(split.positives)
            neg_scores = scorer.score_pairs(split.negatives)
            t2 = time.perf_counter()
            build_times.append(t1 - t0)
            compare_times.append(t2 - t1)
            built = scorer.sets  # the next repeat overwrites these sketches
            del scorer  # so that the next point frees them before its first build
            for k in hits:  # each distinct K once
                hits[k].append(hits_at_k(pos_scores, neg_scores, k))
        for k in k_values:
            samples = np.array(hits[k] * (repeats // runs))
            ci = 0.0 if repeats < 2 else 1.96 * samples.std(ddof=1) / math.sqrt(repeats)
            rows.append(
                BenchmarkRow(
                    estimator=point.estimator.value,
                    metric=point.metric.value,
                    dims_or_k=whole("dims_or_k", point.dims_or_k or 0),
                    k=k,
                    hits_mean=float(samples.mean()),
                    hits_ci95=float(ci),
                    build_seconds=float(np.mean(build_times)),
                    compare_seconds=float(np.mean(compare_times)),
                    repeats=repeats,
                )
            )
    return rows
