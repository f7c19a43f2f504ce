"""Span tracing of the dothash layers, recorded from outside the library.

A :class:`Tracer` replaces public functions and methods with wrappers that
record one span per call -- name, start, end and the span that caused it --
plus a few counters at the same boundaries.  Functions are wrapped where
the caller looks them up: ``dothash.linkpred.dothash_build`` and
``dothash.dedup.dothash_build`` are separate bindings of one function, and
``Codebook.sign_bits`` is a class attribute.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.

Spans are kept in memory for one workload iteration and reduced to
per-layer totals by :func:`self_times` and :func:`layer_metrics`.  A span's
self time is its duration minus the part of that interval its child spans
cover.  No layer queues work or runs concurrently, so there is no waiting
time to report.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("encoding.element_id.calls", "count"),
    ("encoding.element_id.bytes", "bytes"),
    ("encoding.element_id.self_s", "s"),
    ("encoding.sign_bits.rows", "count"),
    ("encoding.sign_bits.words", "count"),
    ("encoding.sign_bits.self_s", "s"),
    ("encoding.sign_rows.self_s", "s"),
    ("encoding.sign_sums.rows", "count"),
    ("encoding.sign_sums.self_s", "s"),
    ("encoding.minwise_rows.rows", "count"),
    ("encoding.minwise_rows.self_s", "s"),
    ("sketches.dothash_build.calls", "count"),
    ("sketches.dothash_build.elements", "count"),
    ("sketches.dothash_build.self_s", "s"),
    ("sketches.minhash_build.calls", "count"),
    ("sketches.minhash_build.elements", "count"),
    ("sketches.minhash_build.self_s", "s"),
    ("sketches.simhash_build.calls", "count"),
    ("sketches.simhash_build.elements", "count"),
    ("sketches.simhash_build.self_s", "s"),
    ("sketches.weights_for.elements", "count"),
    ("sketches.weights_for.self_s", "s"),
    ("sketches.weight_scalar.calls", "count"),
    ("sketches.compare.calls", "count"),
    ("sketches.compare.self_s", "s"),
    ("sketches.io.bytes", "bytes"),
    ("sketches.io.self_s", "s"),
    ("exact.calls", "count"),
    ("exact.self_s", "s"),
    ("exact.sortedset.self_s", "s"),
    ("linkpred.load_edge_list.self_s", "s"),
    ("linkpred.graph_from_edges.self_s", "s"),
    ("linkpred.split_edges.self_s", "s"),
    ("linkpred.negatives.attempts", "count"),
    ("linkpred.negatives.accepted", "count"),
    ("linkpred.negatives.accept_ratio", "frac"),
    ("linkpred.sketch_neighborhoods.self_s", "s"),
    ("linkpred.score_pairs.pairs", "count"),
    ("linkpred.score_pairs.self_s", "s"),
    ("linkpred.hits_at_k.self_s", "s"),
    ("linkpred.run_linkpred_benchmark.self_s", "s"),
    ("dedup.load.self_s", "s"),
    ("dedup.shingle.docs", "count"),
    ("dedup.shingle.shingles", "count"),
    ("dedup.shingle.self_s", "s"),
    ("dedup.build_idf.self_s", "s"),
    ("dedup.sample_negative_pairs.self_s", "s"),
    ("dedup.run_dedup_benchmark.self_s", "s"),
    ("bounds.sample_intersection_estimates.trials", "count"),
    ("bounds.sample_intersection_estimates.self_s", "s"),
    ("bounds.empirical_exceedance.self_s", "s"),
    ("bounds.analytic.self_s", "s"),
    ("bounds.bounds_sweep.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.failed", "count"),
    ("trace.overhead_frac", "frac"),
)

Span = tuple[str, float, float, int]  # name, start, end, index of the parent span or -1
Counter = Callable[[dict[str, int], tuple, dict, Any], None]


class Tracer:
    """Records spans and counters for the calls it wraps, until uninstalled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Swap ``owner.attr`` for ``make(original)``.

        A name the program lacks is an error: a probe that silently went
        missing would read as a layer whose cost dropped to 0.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            raise AttributeError(f"probe target {getattr(owner, '__name__', owner)}.{attr} "
                                 "is missing; update bench/spans.py")
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def wrap(self, owner: Any, attr: str, name: str, count: Counter | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent))  # completed below
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent)
                self.counts[f"{name}.calls"] += 1
                if count is not None:
                    count(self.counts, args, kwargs, result)
                return result

            return traced

        self.replace(owner, attr, make)

    def count_calls(self, owner: Any, attr: str, key: str, inside: str) -> None:
        """Count calls of ``owner.attr`` made directly inside span ``inside``, without a span."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.current() == inside:
                    self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        self.replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def self_times(spans: Iterable[Span]) -> dict[str, tuple[float, float]]:
    """(total seconds, self seconds) per span name.

    Self time is a span's duration minus the union of its children's
    intervals, each clipped to the parent's interval.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name][0] += end - start
        totals[name][1] += end - start - covered
    return {name: (total, own) for name, (total, own) in totals.items()}


def install_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every dothash layer at their call sites."""
    from dothash import bounds, cli, dedup, encoding, exact, linkpred, sketches

    def add(key: str, amount: Callable[[tuple, dict, Any], int]) -> Counter:
        def count(counts, args, kwargs, result):
            counts[key] += amount(args, kwargs, result)
        return count

    def arg(position: int, name: str) -> Callable[[tuple, dict], Any]:
        return lambda args, kwargs: args[position] if len(args) > position else kwargs[name]

    # encoding
    def element_bytes(args, kwargs, result):
        data = arg(0, "data")(args, kwargs)
        return len(data.encode("utf-8") if isinstance(data, str) else data)

    for module in (dedup, cli):
        tracer.wrap(module, "element_id", "encoding.element_id",
                    add("encoding.element_id.bytes", element_bytes))

    def sign_bits(counts, args, kwargs, result):
        counts["encoding.sign_bits.rows"] += result.shape[0]
        counts["encoding.sign_bits.words"] += result.shape[0] * math.ceil(args[0].dims / 64)

    codebook = encoding.Codebook
    tracer.wrap(codebook, "sign_bits", "encoding.sign_bits", sign_bits)
    tracer.wrap(codebook, "sign_rows", "encoding.sign_rows")
    seeds, elements = arg(0, "seeds"), arg(1, "elements")
    tracer.wrap(bounds, "sign_sums", "encoding.sign_sums",
                add("encoding.sign_sums.rows",
                    lambda a, k, r: len(seeds(a, k)) * len(elements(a, k))))
    tracer.wrap(encoding.MinwiseFamily, "rows", "encoding.minwise_rows",
                add("encoding.minwise_rows.rows", lambda a, k, r: r.shape[0]))

    # sketches
    build_input = arg(1, "elements")
    for module in (linkpred, dedup, cli):
        for fn in ("dothash_build", "minhash_build", "simhash_build"):
            tracer.wrap(module, fn, f"sketches.{fn}",
                        add(f"sketches.{fn}.elements", lambda a, k, r: len(build_input(a, k))))
        for fn in ("dothash_intersection", "dothash_jaccard", "minhash_jaccard",
                   "simhash_similarity"):
            tracer.wrap(module, fn, "sketches.compare")
    for fn in ("write_sketch", "read_sketch"):
        # The CLI opens a fresh file per call, so the position after the call
        # is the number of bytes moved.
        tracer.wrap(cli, fn, "sketches.io",
                    add("sketches.io.bytes", lambda a, k, r: a[-1].tell() if a else k["fp"].tell()))
    weight_fn = sketches.WeightFn
    tracer.wrap(weight_fn, "weights_for", "sketches.weights_for",
                add("sketches.weights_for.elements", lambda a, k, r: len(arg(1, "elements")(a, k))))
    _count_scalar_weights(tracer, weight_fn)

    # exact
    for module, names in ((linkpred, ("exact_intersection", "exact_jaccard", "exact_weighted")),
                          (dedup, ("exact_jaccard", "exact_weighted"))):
        for fn in names:
            tracer.wrap(module, fn, "exact")
    for fn in ("__post_init__", "from_iterable", "as_array"):
        tracer.wrap(exact.SortedSet, fn, "exact.sortedset")

    # linkpred
    tracer.wrap(linkpred, "load_edge_list", "linkpred.load_edge_list")
    tracer.wrap(linkpred, "graph_from_edges", "linkpred.graph_from_edges")
    tracer.wrap(linkpred, "split_edges", "linkpred.split_edges",
                add("linkpred.negatives.accepted", lambda a, k, r: len(r.negatives)))
    tracer.count_calls(linkpred.Graph, "has_edge", "linkpred.negatives.attempts",
                       inside="linkpred.split_edges")
    tracer.wrap(linkpred, "sketch_neighborhoods", "linkpred.sketch_neighborhoods")
    tracer.wrap(linkpred.NeighborhoodScorer, "score_pairs", "linkpred.score_pairs",
                add("linkpred.score_pairs.pairs", lambda a, k, r: len(arg(1, "pairs")(a, k))))
    for module in (linkpred, dedup):
        tracer.wrap(module, "hits_at_k", "linkpred.hits_at_k")
    tracer.wrap(linkpred, "run_linkpred_benchmark", "linkpred.run_linkpred_benchmark")

    # dedup
    for fn in ("load_corpus_jsonl", "load_pairs_csv"):
        tracer.wrap(dedup, fn, "dedup.load")

    def shingle(counts, args, kwargs, result):
        counts["dedup.shingle.docs"] += 1
        counts["dedup.shingle.shingles"] += len(result.shingles)

    tracer.wrap(dedup, "shingle", "dedup.shingle", shingle)
    tracer.wrap(dedup, "build_idf", "dedup.build_idf")
    tracer.wrap(dedup, "sample_negative_pairs", "dedup.sample_negative_pairs")
    tracer.wrap(dedup, "run_dedup_benchmark", "dedup.run_dedup_benchmark")

    # bounds
    tracer.wrap(bounds, "sample_intersection_estimates", "bounds.sample_intersection_estimates",
                add("bounds.sample_intersection_estimates.trials", lambda a, k, r: len(r)))
    tracer.wrap(bounds, "empirical_exceedance", "bounds.empirical_exceedance")
    for fn in ("chebyshev_tail", "clt_tail"):
        tracer.wrap(bounds, fn, "bounds.analytic")
    tracer.wrap(bounds.BoundsQuery, "__post_init__", "bounds.analytic")
    tracer.wrap(bounds, "bounds_sweep", "bounds.bounds_sweep")

    # cli
    tracer.wrap(cli, "main", "cli.main")


def _count_scalar_weights(tracer: Tracer, weight_fn: type) -> None:
    """Count every per-element Python weight evaluation of a WeightFn.

    The scalar callable, ``WeightFn(kind, scalar, batch)``'s second argument,
    is wrapped at construction, so the count covers both ``WeightFn.__call__``
    and the per-element fallback of ``weights_for``.
    """

    def make(init: Callable) -> Callable:
        signature = inspect.signature(init)
        if "scalar" not in signature.parameters:
            raise AttributeError("probe target WeightFn.__init__ takes no 'scalar'; "
                                 "update bench/spans.py")

        @functools.wraps(init)
        def counting_init(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            scalar = bound.arguments["scalar"]

            def counted(element):
                tracer.counts["sketches.weight_scalar.calls"] += 1
                return scalar(element)

            bound.arguments["scalar"] = counted
            init(*bound.args, **bound.kwargs)

        return counting_init

    tracer.replace(weight_fn, "__init__", make)


def layer_metrics(spans: Iterable[Span], counts: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac and cli.failed, for one iteration."""
    times = self_times(spans)
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = times.get(base, (0.0, 0.0))[1]
        elif name in counts:
            values[name] = counts[name]
        else:
            values[name] = 0
    attempts = counts.get("linkpred.negatives.attempts", 0)
    values["linkpred.negatives.accept_ratio"] = (
        counts.get("linkpred.negatives.accepted", 0) / attempts if attempts else 0.0)
    values.pop("trace.overhead_frac")
    values.pop("cli.failed")
    return values
