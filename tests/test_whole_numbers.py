"""One whole-number rule for every size, count, seed and index the library takes.

Scalars go through ``encoding.whole``: Python and numpy integers pass, a
bool or a float raises TypeError, and a value below the parameter's
minimum raises ValueError naming it.  Arrays of element ids, offsets and
pair indices go through ``encoding.integer_array`` or
``encoding.as_element_array``: a float or bool array raises TypeError.
Codebook and hash-family seeds have no minimum; they are taken modulo
2**64, so -1 is 2**64 - 1.
"""

import ast
import dataclasses
import inspect
import io
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import dothash
from dothash import linkpred
from dothash.bounds import BoundsQuery, bounds_sweep, sample_intersection_estimates, weighted_variance
from dothash.dedup import (
    DedupConfig,
    DedupMetric,
    csr_idf,
    make_planted_corpus,
    run_dedup_benchmark,
    sample_negative_pairs,
    shingle,
    shingle_csr,
)
from dothash.encoding import Codebook, MinwiseFamily, as_element_array, sign_sums, slice_ids
from dothash.exact import SortedSet
from dothash.linkpred import (
    Estimator,
    Metric,
    SweepPoint,
    erdos_renyi_graph,
    graph_from_edges,
    hits_at_k,
    preferential_attachment_graph,
    run_linkpred_benchmark,
    sample_pairs,
    sketch_neighborhoods,
    split_edges,
)
from dothash.sketches import (
    DotHashSketch,
    MinHashSketch,
    SimHashSketch,
    build_sketch,
    distinct_sets,
    dothash_build,
    minhash_build,
    simhash_build,
    sketch_to_json,
    write_sketch,
)

GRAPH = preferential_attachment_graph(40, 3, seed=2)
SCORER = sketch_neighborhoods(GRAPH, Metric.JACCARD, Estimator.MINHASH, 16, seed=1)
PAIRS = np.array([[0, 1], [2, 7], [5, 39]])
DOCS, LABELS = make_planted_corpus(30, 5, 20, vocab_size=50, seed=3)
DOC_IDS = [doc.doc_id for doc in DOCS]


class Scalar(NamedTuple):
    call: Callable[[object], object]  # the entry point with the value under test in one parameter
    good: int  # a value it takes
    minimum: int | None  # None: a seed or element id taken modulo 2**64, so -1 is taken too
    error: str | None = None  # the ValueError below the minimum, when not "<parameter> must be >= <minimum>"


class Array(NamedTuple):
    call: Callable[[object], object]  # the entry point with the array under test in one parameter
    good: list  # integers it takes, as a list


def _graph(g):
    return g.indptr, g.indices


def _split(split):
    return _graph(split.train_graph), split.positives, split.negatives


def _linkpred(**kwargs):
    point = SweepPoint(Estimator.DOTHASH, Metric.JACCARD, kwargs.pop("dims_or_k", 64))
    rows = run_linkpred_benchmark(GRAPH, [point], kwargs.pop("k_values", [5]), **{"repeats": 2, "seed": 1, **kwargs})
    return [(row.hits_mean, row.hits_ci95, row.dims_or_k, row.k, row.repeats) for row in rows]


def _dedup(**fields):
    config = DedupConfig(**{"estimator": Estimator.DOTHASH, "metric": DedupMetric.IDF, "dims_or_k": 256,
                            "hits_k": 5, "negatives": 40, "seed": 4, **fields})
    result = run_dedup_benchmark(DOCS, LABELS, config)
    return result.hits, result.dims_or_k, result.shingle_width, result.k


def _bounds(size_a=30, size_b=35, size_int=20, dims=100, trials=5, seed0=1):
    return bounds_sweep(size_a, size_b, size_int, [64, dims], [0.1, 0.5], trials=trials, seed0=seed0)


def _sampler(size_a=30, size_b=35, size_int=20, dims=100, trials=3, seed0=1):
    return sample_intersection_estimates(size_a, size_b, size_int, dims, trials, seed0=seed0)


def _written(sketch) -> bytes:
    fp = io.BytesIO()
    write_sketch(sketch, fp)
    return fp.getvalue()


def _sketch_fields() -> dict[str, Scalar]:
    """Each sketch record's size, seed and cardinality, as write_sketch and sketch_to_json take them."""
    rows = {}
    for record, kind, size_flag, size in ((DotHashSketch, "dothash", "dims", 64), (MinHashSketch, "minhash", "k", 8),
                                          (SimHashSketch, "simhash", "dims", 64)):
        sketch = build_sketch(kind, 1, size, np.arange(5))
        for field, good, minimum, error in ((size_flag, size, 1, "sketch size "), ("seed", 7, None, None),
                                            ("cardinality", 5, 0, "malformed sketch file: cardinality ")):
            for name, take in (("write_sketch", _written), ("sketch_to_json", sketch_to_json)):
                rows[f"{record.__name__}.{field}-{name}"] = Scalar(
                    lambda v, sketch=sketch, field=field, take=take: take(dataclasses.replace(sketch, **{field: v})),
                    good, minimum, error)
    return rows


def _planted(n_docs=30, n_dup_pairs=5, words_per_doc=20, vocab_size=50, seed=3):
    return make_planted_corpus(n_docs, n_dup_pairs, words_per_doc, vocab_size=vocab_size, seed=seed)


SCALARS = {
    "Codebook.dims": Scalar(lambda v: Codebook(seed=3, dims=v), 64, 1),
    "Codebook.seed": Scalar(lambda v: Codebook(seed=v, dims=64), 7, None),
    "MinwiseFamily.k": Scalar(lambda v: MinwiseFamily(seed=3, k=v), 8, 1),
    "MinwiseFamily.seed": Scalar(lambda v: MinwiseFamily(seed=v, k=8), 7, None),
    "MinwiseFamily.value.i": Scalar(lambda v: MinwiseFamily(3, 8).value(v, 5), 2, 0),
    "MinwiseFamily.value.element": Scalar(lambda v: MinwiseFamily(3, 8).value(2, v), 5, None),
    "Codebook.sign_rows.elements": Scalar(lambda v: Codebook(3, 64).sign_rows([v]), 5, None),
    "csr_idf.elements": Scalar(lambda v: csr_idf(shingle_csr(DOCS, 3))(v), 5, None),
    "sign_sums.dims": Scalar(lambda v: sign_sums(np.array([1, 2], dtype=np.uint64), np.arange(5), v), 70, 1),
    "BoundsQuery.size_a": Scalar(lambda v: BoundsQuery(v, 35, 20, 100), 30, 0),
    "BoundsQuery.size_b": Scalar(lambda v: BoundsQuery(30, v, 20, 100), 35, 0),
    "BoundsQuery.size_int": Scalar(lambda v: BoundsQuery(30, 35, v, 100), 20, 0),
    "BoundsQuery.dims": Scalar(lambda v: BoundsQuery(30, 35, 20, v), 100, 1),
    "weighted_variance.dims": Scalar(lambda v: weighted_variance(2.0, 3.0, 1.0, 0.5, v), 64, 1),
    "sample_intersection_estimates.size_a": Scalar(lambda v: _sampler(size_a=v), 30, 0),
    "sample_intersection_estimates.size_b": Scalar(lambda v: _sampler(size_b=v), 35, 0),
    "sample_intersection_estimates.size_int": Scalar(lambda v: _sampler(size_int=v), 20, 0),
    "sample_intersection_estimates.dims": Scalar(lambda v: _sampler(dims=v), 100, 1),
    "sample_intersection_estimates.trials": Scalar(lambda v: _sampler(trials=v), 3, 1),
    "sample_intersection_estimates.seed0": Scalar(lambda v: _sampler(seed0=v), 1, None),
    "bounds_sweep.size_a": Scalar(lambda v: _bounds(size_a=v), 30, 0),
    "bounds_sweep.size_b": Scalar(lambda v: _bounds(size_b=v), 35, 0),
    "bounds_sweep.size_int": Scalar(lambda v: _bounds(size_int=v), 20, 0),
    "bounds_sweep.dims": Scalar(lambda v: _bounds(dims=v), 100, 1),
    "bounds_sweep.trials": Scalar(lambda v: _bounds(trials=v), 5, 1),
    "bounds_sweep.seed0": Scalar(lambda v: _bounds(seed0=v), 1, None),
    "build_sketch.dims": Scalar(lambda v: build_sketch("dothash", 1, v, np.arange(10)), 64, 1),
    "build_sketch.k": Scalar(lambda v: build_sketch("minhash", 1, v, np.arange(10)), 8, 1),
    "build_sketch.seed": Scalar(lambda v: build_sketch("simhash", v, 64, np.arange(10)), 7, None),
    "graph_from_edges.node_count": Scalar(lambda v: _graph(graph_from_edges(v, [(0, 1), (1, 2)])), 5, 0),
    "erdos_renyi_graph.n": Scalar(lambda v: _graph(erdos_renyi_graph(v, 0.3, seed=1)), 12, 1),
    "erdos_renyi_graph.seed": Scalar(lambda v: _graph(erdos_renyi_graph(12, 0.3, seed=v)), 1, 0),
    "preferential_attachment_graph.n": Scalar(lambda v: _graph(preferential_attachment_graph(v, 3, seed=1)),
                                              30, 4),
    "preferential_attachment_graph.m": Scalar(lambda v: _graph(preferential_attachment_graph(30, v, seed=1)),
                                              3, 1),
    "preferential_attachment_graph.seed": Scalar(lambda v: _graph(preferential_attachment_graph(30, 3, seed=v)),
                                                 1, 0),
    "sample_pairs.count": Scalar(lambda v: sample_pairs(np.random.default_rng(5), 30, v, lambda a, b: False), 6, 0),
    "split_edges.neg_per_pos": Scalar(lambda v: _split(split_edges(GRAPH, 0.2, v, seed=1)), 2, 1),
    "split_edges.seed": Scalar(lambda v: _split(split_edges(GRAPH, 0.2, 2, seed=v)), 1, 0),
    "sketch_neighborhoods.dims_or_k": Scalar(
        lambda v: sketch_neighborhoods(GRAPH, Metric.JACCARD, Estimator.DOTHASH, v, seed=1).score_pairs(PAIRS),
        64, 1, "dims must be >= 1"),
    "sketch_neighborhoods.dims_or_k-minhash": Scalar(
        lambda v: sketch_neighborhoods(GRAPH, Metric.JACCARD, Estimator.MINHASH, v, seed=1).score_pairs(PAIRS),
        16, 1, "k must be >= 1"),
    "sketch_neighborhoods.seed": Scalar(
        lambda v: sketch_neighborhoods(GRAPH, Metric.JACCARD, Estimator.SIMHASH, 64, seed=v).score_pairs(PAIRS),
        1, None),
    "hits_at_k.k": Scalar(lambda v: hits_at_k([0.5, 0.9], [0.1, 0.7, 0.3], v), 2, 1),
    "run_linkpred_benchmark.repeats": Scalar(lambda v: _linkpred(repeats=v), 2, 1),
    "run_linkpred_benchmark.neg_per_pos": Scalar(lambda v: _linkpred(neg_per_pos=v), 2, 1),
    "run_linkpred_benchmark.seed": Scalar(lambda v: _linkpred(seed=v), 1, 0),
    "run_linkpred_benchmark.k": Scalar(lambda v: _linkpred(k_values=[v]), 5, 1),
    "SweepPoint.dims_or_k": Scalar(lambda v: _linkpred(dims_or_k=v), 64, 1, "dims must be >= 1"),
    "shingle.w": Scalar(lambda v: shingle(DOCS[0], v), 3, 1, "shingle width must be >= 1"),
    "shingle_csr.w": Scalar(lambda v: shingle_csr(DOCS, v), 3, 1, "shingle width must be >= 1"),
    "make_planted_corpus.n_docs": Scalar(lambda v: _planted(n_docs=v), 30, 10),
    "make_planted_corpus.n_dup_pairs": Scalar(lambda v: _planted(n_dup_pairs=v), 5, 0),
    "make_planted_corpus.words_per_doc": Scalar(lambda v: _planted(words_per_doc=v), 20, 0),
    "make_planted_corpus.vocab_size": Scalar(lambda v: _planted(vocab_size=v), 50, 1),
    "make_planted_corpus.seed": Scalar(lambda v: _planted(seed=v), 3, 0),
    "sample_negative_pairs.count": Scalar(lambda v: sample_negative_pairs(DOC_IDS, LABELS, v, 4), 20, 0),
    "sample_negative_pairs.seed": Scalar(lambda v: sample_negative_pairs(DOC_IDS, LABELS, 20, v), 4, 0),
    "DedupConfig.shingle_width": Scalar(lambda v: _dedup(shingle_width=v), 3, 1, "shingle width must be >= 1"),
    "DedupConfig.hits_k": Scalar(lambda v: _dedup(hits_k=v), 5, 1),
    "DedupConfig.negatives": Scalar(lambda v: _dedup(negatives=v), 40, 5, "fewer negatives available than K"),
    "DedupConfig.dims_or_k": Scalar(lambda v: _dedup(dims_or_k=v), 256, 1, "dims must be >= 1"),
    "DedupConfig.seed": Scalar(lambda v: _dedup(seed=v), 4, 0),
    **_sketch_fields(),
}

ARRAYS = {
    "as_element_array": Array(as_element_array, [3, 1, 2]),
    "Codebook.sign_words": Array(lambda v: Codebook(1, 64).sign_words(v), [3, 1, 2]),
    "MinwiseFamily.rows": Array(lambda v: MinwiseFamily(1, 8).rows(v), [3, 1, 2]),
    "dothash_build.elements": Array(lambda v: dothash_build(Codebook(1, 64), v), [3, 1, 2]),
    "minhash_build.elements": Array(lambda v: minhash_build(MinwiseFamily(1, 8), v), [3, 1, 2]),
    "simhash_build.elements": Array(lambda v: simhash_build(Codebook(1, 64), v), [3, 1, 2]),
    "build_sketch.elements": Array(lambda v: build_sketch("dothash", 1, 64, v), [3, 1, 2]),
    "sign_sums.seeds": Array(lambda v: sign_sums(v, np.arange(5), 70), [1, 2]),
    "sign_sums.elements": Array(lambda v: sign_sums(np.array([1, 2], dtype=np.uint64), v, 70), [3, 1, 2]),
    "distinct_sets.indptr": Array(lambda v: distinct_sets(v, np.arange(4)), [0, 2, 4]),
    "distinct_sets.elements": Array(lambda v: distinct_sets(np.array([0, 2, 3]), v), [1, 2, 2]),
    "graph_from_edges.edges": Array(lambda v: _graph(graph_from_edges(5, v)), [[0, 1], [1, 2]]),
    "NeighborhoodScorer.score_pairs": Array(SCORER.score_pairs, [[0, 1], [2, 7]]),
    "slice_ids.starts": Array(lambda v: slice_ids(b"abcdefgh", v, np.array([3, 5])), [0, 2]),
    "slice_ids.stops": Array(lambda v: slice_ids(b"abcdefgh", np.array([0, 2]), v), [3, 5]),
    "SortedSet.elements": Array(lambda v: SortedSet(tuple(v)), [1, 2, 3]),
    "SortedSet.from_iterable": Array(SortedSet.from_iterable, [3, 1, 2]),
}


def _parameter(case: str) -> str:
    return case.rsplit(".", 1)[1].split("-")[0]


def _canonical(x):
    """``x`` as nested tuples of typed values, so that two results compare by value and by type."""
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tolist()
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(map(_canonical, x))
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__, tuple((name, _canonical(getattr(x, name))) for name in x.__dataclass_fields__)
    return type(x).__name__, x


@pytest.mark.parametrize("case", SCALARS)
@pytest.mark.parametrize("bad", [1.5, True, "float64"])
def test_a_scalar_that_is_not_a_whole_number_raises_type_error(case, bad):
    entry = SCALARS[case]
    bad = np.float64(entry.good) if bad == "float64" else bad
    # Where the ValueError names another parameter, so does the TypeError.
    name = r"[\w ]+" if entry.error else _parameter(case)
    with pytest.raises(TypeError, match=f"^{name} must be a whole number, got "):
        entry.call(bad)


@pytest.mark.parametrize("case, value", [(case, value) for case, entry in SCALARS.items() for value in (0, -1)
                                         if entry.minimum is not None and value < entry.minimum])
def test_a_scalar_below_its_minimum_raises_value_error(case, value):
    entry = SCALARS[case]
    error = entry.error or f"{_parameter(case)} must be >= {entry.minimum}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        entry.call(value)


@pytest.mark.parametrize("case", [case for case, entry in SCALARS.items() if entry.minimum is None])
def test_a_value_taken_modulo_two_to_the_64_takes_minus_one(case):
    call = SCALARS[case].call
    assert _canonical(call(-1)) == _canonical(call(2**64 - 1))


@pytest.mark.parametrize("case", SCALARS)
def test_a_numpy_integer_gives_what_a_python_int_gives(case):
    entry = SCALARS[case]
    assert _canonical(entry.call(np.int64(entry.good))) == _canonical(entry.call(entry.good))


@pytest.mark.parametrize("case", ARRAYS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
def test_a_float_or_bool_array_raises_type_error(case, dtype):
    entry = ARRAYS[case]
    with pytest.raises(TypeError):
        entry.call(np.array(entry.good, dtype=dtype))


@pytest.mark.parametrize("case", ARRAYS)
@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int8])
def test_an_integer_array_gives_what_a_list_of_ints_gives(case, dtype):
    entry = ARRAYS[case]
    assert _canonical(entry.call(np.array(entry.good, dtype=dtype))) == _canonical(entry.call(entry.good))


@pytest.mark.parametrize("items", [[1, 2.5], [1.0], [True, 2], np.array([1, 2.5], dtype=object)])
def test_element_ids_taken_one_at_a_time_must_be_whole(items):
    with pytest.raises(TypeError, match="^elements must be a whole number"):
        as_element_array(items)
    with pytest.raises(TypeError, match="^elements must be a whole number"):
        SortedSet.from_iterable(items)


def test_an_empty_array_of_any_dtype_is_taken():
    # It holds no value to misread, and np.array([]) is float64.
    assert as_element_array(np.array([])).dtype == np.uint64
    assert distinct_sets([0], np.array([])).indptr.tolist() == [0]
    with pytest.raises(ValueError, match="^indptr must rise"):
        distinct_sets(np.array([]), [])
    assert SCORER.score_pairs(np.array([])).size == 0


# One pair given as a list of Python or numpy scalars, its u or v the value
# under test: score_pairs checks the pair as it checks an array of them.
PAIR_ROWS = {"u": lambda v: SCORER.score_pairs([(v, 3)]), "v": lambda v: SCORER.score_pairs([(1, v)])}


@pytest.mark.parametrize("side", PAIR_ROWS)
@pytest.mark.parametrize("bad", [1.5, "float64"])
def test_a_fractional_index_in_a_list_of_pairs_raises_type_error(side, bad):
    bad = np.float64(1) if bad == "float64" else bad
    with pytest.raises(TypeError, match="^pairs must be an array of integers, got dtype float64"):
        PAIR_ROWS[side](bad)


@pytest.mark.parametrize("side", PAIR_ROWS)
def test_a_negative_index_in_a_list_of_pairs_raises_value_error(side):
    with pytest.raises(ValueError, match=r"^pair index outside 0\.\.39"):
        PAIR_ROWS[side](-1)


@pytest.mark.parametrize("side", PAIR_ROWS)
def test_a_numpy_integer_in_a_list_of_pairs_gives_what_a_python_int_gives(side):
    assert PAIR_ROWS[side](np.int64(2)).tolist() == PAIR_ROWS[side](2).tolist()


class TestMisreadBefore:
    """Each value here was once stored, truncated or taken as part of itself."""

    def test_split_edges_takes_no_fractional_negatives_per_positive(self):
        # 1.5 per positive once kept every accepted draw of the first batch:
        # 3,508 negatives for 157 positives.
        with pytest.raises(TypeError, match="^neg_per_pos"):
            split_edges(preferential_attachment_graph(200, 4, seed=1), 0.2, neg_per_pos=1.5)

    def test_sampler_takes_no_fractional_seed(self):
        # seed0=1.5 once gave the estimates of seed0=1.
        with pytest.raises(TypeError, match="^seed0"):
            sample_intersection_estimates(30, 35, 20, 100, 3, seed0=1.5)

    @pytest.mark.parametrize("build", [lambda: Codebook(1, 100.5), lambda: MinwiseFamily(1, 8.5),
                                       lambda: weighted_variance(1.0, 1.0, 1.0, 1.0, dims=2.5),
                                       lambda: hits_at_k([1.0], [0.0], k=True)])
    def test_a_size_is_never_stored_or_used_as_given(self, build):
        # Codebook and MinwiseFamily stored the float, and the error came
        # later from inside numpy; the other two returned numbers.
        with pytest.raises(TypeError):
            build()

    def test_linkpred_checks_every_k_before_the_split(self, monkeypatch):
        # k_values=[1.5] once ran one sketch_neighborhoods build before its TypeError.
        def refuse(*args, **kwargs):
            raise AssertionError("split before every K was checked")

        monkeypatch.setattr(linkpred, "split_edges", refuse)
        with pytest.raises(TypeError, match="^k must be a whole number"):
            run_linkpred_benchmark(GRAPH, [SweepPoint(Estimator.DOTHASH, Metric.JACCARD, 64)], [5, 1.5])

    def test_float_ids_and_pairs_are_not_truncated(self):
        # [1.9, 1.2] once became the one-element set {1}, and the pair
        # (0.9, 1.2) scored as (0, 1).
        with pytest.raises(TypeError, match="^elements"):
            distinct_sets([0, 2], np.array([1.9, 1.2]))
        with pytest.raises(TypeError, match="^pairs"):
            SCORER.score_pairs(np.array([[0.9, 1.2]]))


def _size_parameters(name: str) -> set[str]:
    """The parameters of ``dothash.<name>`` that take a size, count, seed or array of ids or indices."""
    sizes = {"dims", "k", "seed", "seed0", "size", "size_a", "size_b", "size_int", "trials", "count",
             "elements", "indptr", "pairs"}
    return sizes & set(inspect.signature(getattr(dothash, name)).parameters)


# A plain record of what a build gave it; every entry point that makes one
# checks its values first.  The sketch records' rows are write_sketch's and
# sketch_to_json's.
RECORDS = {"DistinctSets"}


@pytest.mark.parametrize("name", sorted(set(dothash.__all__) - RECORDS))
def test_every_exported_name_that_takes_a_size_is_in_the_table(name):
    covered = {case.split(".")[0] for case in (*SCALARS, *ARRAYS)}
    assert not _size_parameters(name) or name in covered


def test_operator_index_is_called_only_in_encoding():
    # The rule is written once, in encoding.whole.
    calls = {}
    for path in sorted(Path(dothash.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            attribute = isinstance(node, ast.Attribute) and node.attr == "index"
            if attribute and getattr(node.value, "id", None) == "operator":
                calls[path.name] = calls.get(path.name, 0) + 1
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                calls[path.name] = calls.get(path.name, 0) + sum(alias.name == "index" for alias in node.names)
    assert calls == {"encoding.py": 1}
