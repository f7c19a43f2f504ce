"""Fixed-size set sketches, their similarity estimators, and the estimator table.

:data:`ESTIMATORS` holds one :class:`EstimatorEntry` for each of DotHash (the
dot product of two weighted codebook-vector sums estimates ``sum(f(x))``
over the intersection), MinHash (the share of matching per-hash minima
estimates Jaccard), SimHash (the signs of the ±1 vector sum give a ranking
similarity) and the exact oracle: its batch build, the one pair scorer that
``dothash compare`` and ``NeighborhoodScorer.score_pairs`` share, and a
sketch's size flag and file form.  Every estimator choice reads this table.

A pair of two empty sets scores by one of two rules.  ``score_pairs`` ranks it
at 0.0 for every estimator, since empty sets carry no similarity evidence;
the scorers' ``where=union > 0`` guards only keep 0/0 from warning, and
their value for the pair is never read.  ``dothash compare`` prints the
scalar compare functions' values, and null for an undefined Jaccard: DotHash
``estimate`` 0.0 and ``jaccard`` null, MinHash ``estimate`` null, SimHash
``estimate`` 1.0.

Serialized sketch files use a little-endian binary layout::

    magic   4 bytes  b"SKCH"
    version u8       1
    kind    u8       1=dothash, 2=minhash, 3=simhash
    seed    u64
    size    u32      dims (dothash/simhash) or k (minhash), at least 1
    card    u64      number of distinct elements consumed at build time;
                     0 only with the empty set's payload
    payload          dothash: size float64 values
                     minhash: size uint64 minima
                     simhash: ceil(size / 8) bytes, bit j of the sketch is
                              bit (j % 8) of byte (j // 8), LSB first;
                              padding bits are zero

Round-trips are bit-exact.  ``sketch_to_json`` offers a human-readable
debug form of the same fields.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Callable, Iterable, NamedTuple, Union

import numpy as np

from .encoding import (
    _CHUNK_BYTES,
    _MASK64,
    Codebook,
    MinwiseFamily,
    _byte_columns,
    _row_words,
    _signed_sums,
    as_element_array,
    chunk_ranges,
    integer_array,
    sorted_distinct,
    u64,
    whole,
)

MINHASH_EMPTY_SENTINEL = (1 << 64) - 1

# Elements per lookup group: eight sign bits make one byte per coordinate.
_GROUP = 8


class WeightKind(enum.Enum):
    UNIT = "unit"
    ADAMIC_ADAR = "adamic_adar"
    RESOURCE_ALLOCATION = "resource_allocation"
    IDF = "idf"
    CUSTOM = "custom"


class WeightFn:
    """A nonnegative element weight f(x), the summand of the weighted family.

    Construct with :meth:`unit`, :meth:`from_array`, or ``WeightFn(kind,
    scalar, batch)``, where ``scalar`` evaluates one element and ``batch`` an
    array of them.  Calling the instance evaluates one element; builds go
    through :meth:`weights_for`.  Kind ``WeightKind.UNIT`` means f = 1:
    builds count such sums without evaluating the function.
    """

    def __init__(
        self,
        kind: WeightKind,
        scalar: Callable[[int], float],
        batch: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self.kind = kind
        self._scalar = scalar
        self._batch = batch

    def __call__(self, element: int) -> float:
        return self._scalar(element)

    def weights_for(self, elements: np.ndarray) -> np.ndarray:
        """Weights for a batch of elements as a float64 array."""
        return np.asarray(self._batch(elements), dtype=np.float64)

    def __repr__(self) -> str:
        return f"WeightFn(kind={self.kind.value})"

    @classmethod
    def unit(cls) -> "WeightFn":
        """f(x) = 1 for every element: the plain-intersection weighting."""
        return cls(WeightKind.UNIT, lambda element: 1.0, lambda arr: np.ones(len(arr)))

    @classmethod
    def from_array(cls, values: np.ndarray, kind: WeightKind = WeightKind.CUSTOM) -> "WeightFn":
        """Weights for dense integer ids 0..len(values)-1 (e.g. graph nodes)."""
        values = np.asarray(values, dtype=np.float64)

        def lookup(elements: Iterable[int] | np.ndarray) -> np.ndarray:
            ids = as_element_array(elements)
            outside = ids >= len(values)
            if np.any(outside):
                raise ValueError(f"weight not defined for element {ids[outside][0]}")
            return values[ids]

        return cls(kind, lambda element: float(lookup([element])[0]), lookup)


@dataclass(frozen=True)
class DotHashSketch:
    """Weighted codebook-vector sum: values = sum over A of psi(a) * sqrt(f(a))."""

    values: np.ndarray
    dims: int
    seed: int
    cardinality: int


@dataclass(frozen=True)
class MinHashSketch:
    """Per-hash minima; empty sets hold the all-ones sentinel."""

    minima: np.ndarray
    k: int
    seed: int
    cardinality: int


@dataclass(frozen=True)
class SimHashSketch:
    """Sign bits of the ±1 element-vector sum, packed LSB-first."""

    bits: np.ndarray
    dims: int
    seed: int
    cardinality: int


Sketch = Union[DotHashSketch, MinHashSketch, SimHashSketch]


def _sign_tables(roots: np.ndarray) -> np.ndarray:
    """Lookup tables of signed root sums, shape (groups, 256), from (8, groups) roots.

    Entry ``b`` of a group's table is ``±r_0 ± r_1 ... ± r_7`` added left to
    right, with ``+r_i`` where bit ``i`` of ``b`` is set, and then 0.0
    added, which turns -0.0 into +0.0 and leaves every other value as it is.
    """
    tables = np.empty((256, roots.shape[1]))
    # Keep ``out`` a contiguous row.  numpy 2.4.6 on AVX-512 gives wrong
    # float64 values from np.negative when the input stride is 8 elements
    # and ``out`` is not contiguous: for an (n, 8) array A,
    # np.negative(A.T[0], out=T[:, 0]) writes -A.ravel()[:n], not -A[:, 0].
    # _root_sums passes roots as just such a transposed (8, groups) view.
    np.negative(roots[0], out=tables[0])
    tables[1] = roots[0]
    for i in range(1, _GROUP):
        half = 1 << i
        np.add(tables[:half], roots[i], out=tables[half : 2 * half])
        tables[:half] -= roots[i]
    return np.add(tables.T, 0.0, out=np.empty(tables.shape[::-1]))


class DistinctSets(NamedTuple):
    """CSR sets with each set's duplicates skipped: the input of every batch build.

    Set ``s`` is ``distinct[ranks[indptr[s]:indptr[s+1]]]``: ``distinct``
    holds every element once, ascending, and each set's ranks ascend.
    :func:`distinct_sets` makes one from any CSR pair ``(indptr, elements)``.
    """

    distinct: np.ndarray
    indptr: np.ndarray
    ranks: np.ndarray


def distinct_sets(indptr: np.ndarray, elements: Iterable[int] | np.ndarray) -> DistinctSets:
    """The CSR sets ``elements[indptr[s]:indptr[s+1]]`` as :class:`DistinctSets`.

    Raises ValueError on a malformed ``indptr``.
    """
    indptr = integer_array("indptr", indptr, np.int64)
    elements = as_element_array(elements)
    if (
        indptr.ndim != 1
        or indptr.size < 1
        or indptr[0] != 0
        or indptr[-1] != elements.size
        or np.any(np.diff(indptr) < 0)
    ):
        raise ValueError("indptr must rise from 0 to len(elements)")
    nsets = indptr.size - 1
    # Distinct elements overall, then distinct (set, element) pairs in order.
    distinct, inverse = np.unique(elements, return_inverse=True)
    set_of = np.repeat(np.arange(nsets, dtype=np.int64), np.diff(indptr))
    pairs = sorted_distinct(set_of * distinct.size + inverse)
    indptr = np.searchsorted(pairs, np.arange(nsets + 1, dtype=np.int64) * distinct.size)
    return DistinctSets(distinct, indptr, pairs % max(distinct.size, 1))


def _reused(out: np.ndarray | None, shape: tuple[int, int], dtype: type) -> np.ndarray:
    """``out`` to build into, checked to be a writable C-contiguous array of this shape and dtype; new if None.

    The caller writes every row of it.
    """
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writable C-contiguous {np.dtype(dtype)} array of shape {shape}")
    return out


def _unit_sums(cb: Codebook, distinct: np.ndarray, indptr: np.ndarray, ranks: np.ndarray):
    """Yield ``(sets, sums)``: the exact sums ``Σ sign(e)`` of batches of CSR sets.

    The sets are a :class:`DistinctSets`; ``sums`` is an integer array
    of shape (len(sets), dims) whose row ``i`` belongs to set ``sets[i]``.
    Empty sets are never yielded.  :func:`dothash.encoding._signed_sums`
    counts a batch, a set per column.  Sets are taken longest first, so a
    batch holds sets of similar size, each padded to the longest.  A
    batch's words, their scratch and its counts fill about ``_CHUNK_BYTES``,
    and a longer set is counted a row chunk at a time.
    """
    sizes = np.diff(indptr)
    order = np.argsort(-sizes, kind="stable")
    dims, blocks = cb.dims, cb.blocks
    lo, nonempty = 0, np.count_nonzero(sizes)
    buffer = np.empty(0, dtype=np.uint64)
    while lo < nonempty:
        rows = int(sizes[order[lo]])
        cols = max(1, _CHUNK_BYTES // (16 * blocks * rows + 4 * dims))
        sets = order[lo : min(lo + cols, nonempty)]
        lo += sets.size
        step = min(rows, max(1, _CHUNK_BYTES // (16 * blocks * sets.size)))
        words = step * _row_words(sets.size, dims)
        if buffer.size < words:
            buffer = np.empty(words, dtype=np.uint64)
        starts = indptr[sets]

        def elements_of(first: int, stop: int, valid: np.ndarray) -> np.ndarray:
            # Padding slots read slot 0; their words are zeroed.
            return distinct[ranks[np.where(valid, starts + np.arange(first, stop)[:, None], 0)]]

        yield sets, _signed_sums(elements_of, np.uint64(cb._root), rows, dims, sizes[sets], buffer[:words])


def _root_sums(
    cb: Codebook,
    distinct: np.ndarray,
    indptr: np.ndarray,
    members: np.ndarray,
    w: WeightFn,
    scale: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sums ``Σ scale * sqrt(w(e)) * sign(e)`` over each CSR set, shape (nsets, dims).

    The sets are a :class:`DistinctSets`, each taken in ascending
    element order.  Each set's elements are taken 8 at a time, the last
    group padded with zero weight.  The group's sign words, as the 8 rows
    of :func:`dothash.encoding._byte_columns`, give one byte per coordinate,
    and the coordinate adds ``table[byte]`` from the group's 256-entry
    table of signed root sums.
    Groups are added in order, starting from +0.0, with elementwise float64
    operations only, so the result does not depend on the CPU or BLAS, a
    set of zero weights sums to +0.0, and unit weights give exact integers,
    the same as :func:`_unit_sums`.  Since a table holds no -0.0, a set's
    first group is written into its row, which gives the bits of adding it
    to +0.0; only the rows of empty sets are zeroed.  The roots are
    multiplied by ``scale`` before their tables are built; the rows go to
    ``out``, an earlier build of the same shape, when it is given.

    Groups are taken a batch at a time: 128 groups, whose element ids,
    zero-padded roots and tables are gathered and built at once, the tables
    filling ``_CHUNK_BYTES // 4``.  A batch is looked up a chunk at a time,
    and every chunk lies inside one batch: a chunk is the batch, or as many
    of its groups as keep the chunk's words, byte codes and looked-up values
    within about ``_CHUNK_BYTES`` (4 chunks of 32 groups at d=4096).  A
    chunk's codebook words go into one buffer, reused by every chunk, and
    are hashed in place.
    """
    nsets = indptr.size - 1
    weights = w.weights_for(distinct)
    if not np.all(np.isfinite(weights)):
        raise ValueError("weight function must be finite")
    if np.any(weights < 0):
        raise ValueError("weight function must be nonnegative")
    roots = np.sqrt(weights)
    if scale != 1.0:
        roots *= scale

    # Groups in set-major order: set s's groups are consecutive and in
    # element order, so adding them in turn keeps each row's group order.
    groups = -(-np.diff(indptr) // _GROUP)
    owner = np.repeat(np.arange(nsets), groups)
    start = indptr[owner] + _GROUP * (np.arange(owner.size) - (np.cumsum(groups) - groups)[owner])
    stop = indptr[owner + 1]
    leads = np.diff(owner, prepend=-1) != 0

    dims, blocks = cb.dims, cb.blocks
    width = 64 * blocks
    out = _reused(out, (nsets, dims), np.float64)
    out[groups == 0] = 0.0
    set_rows = list(out)
    # A table is 256 float64 values, so at 1 MiB a batch of tables is 128
    # groups.  A chunk is at most a batch, and _CHUNK_BYTES of table values
    # looked up per chunk (8 per group and coordinate) sizes its word and code
    # temporaries; about 1 MiB measured fastest, 256 KiB and 16 MiB slower.
    batch = max(1, _CHUNK_BYTES // 4 // (8 * 256))
    step = min(batch, max(1, _CHUNK_BYTES // (8 * width)))
    # A chunk's words, reused by every chunk.
    words = np.empty((_GROUP * min(step, owner.size), blocks), dtype=np.uint64)
    # Words of every distinct element up front, where elements recur and
    # there are no more of them than sets: a table row is ceil(dims / 64)
    # words beside an output row of dims float64 values, so the table is
    # then at most 1/64 of the output when 64 divides dims.  They are hashed
    # in place, with the chunk buffer, not yet in use, as their scratch.
    # Otherwise words are hashed per chunk, with a scratch of their own, so
    # build memory stays bounded.
    shared = scratch = None
    if distinct.size < members.size and distinct.size <= nsets:
        shared = np.empty((distinct.size, blocks), dtype=np.uint64)
        for lo in range(0, distinct.size, len(words)):
            hi = min(distinct.size, lo + len(words))
            cb.sign_words(distinct[lo:hi], shared[lo:hi], words[: hi - lo])
    else:
        scratch = np.empty_like(words)
    for base in range(0, owner.size, batch):
        end = min(owner.size, base + batch)
        # The batch's groups as (group, 8) slots into members; past a set's
        # end, slots are padding of zero weight.
        slots = start[base:end, None] + np.arange(_GROUP)
        real = slots < stop[base:end, None]
        ids = np.where(real, members[np.minimum(slots, max(members.size - 1, 0))], 0)
        tables = _sign_tables(np.where(real, roots[ids], 0.0).T)
        for lo in range(base, end, step):
            hi = min(end, lo + step)
            chunk = ids[lo - base : hi - base].ravel()
            if shared is not None:
                # "clip" takes straight into the buffer; the ids are all in range.
                shared.take(chunk, axis=0, out=words[: chunk.size], mode="clip")
            else:
                cb.sign_words(distinct[chunk], words[: chunk.size], scratch[: chunk.size])
            grouped = words[: chunk.size].reshape(hi - lo, _GROUP, blocks)
            codes = _byte_columns(grouped.transpose(1, 0, 2))[:, :dims]
            chunk_tables = tables[lo - base : hi - base]
            for code, table, s, lead in zip(codes, chunk_tables, owner[lo:hi].tolist(), leads[lo:hi].tolist()):
                if lead:
                    # "clip" takes straight into the row; the codes are all below 256.
                    table.take(code, out=set_rows[s], mode="clip")
                else:
                    set_rows[s] += table.take(code)
    return out


def dothash_build_many(
    cb: Codebook, sets: DistinctSets, w: WeightFn | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """DotHash sketch values of many sets at once, shape (nsets, dims), float64.

    Row ``s`` equals ``dothash_build(cb, set s, w).values`` bit for bit.
    Unit weights (``w`` None or of kind ``WeightKind.UNIT``) give exact
    integer sums, counted on the packed sign words by the bit-plane counter
    (:func:`_unit_sums`).  Other weights go through the byte table
    (:func:`_root_sums`), which computes them once per distinct element, not
    once per occurrence, and so codebook words where elements recur and are
    no more than the sets, which keeps their table small beside the output.
    Raises ValueError on any negative or non-finite weight.  The values are
    written into ``out`` when it is given: an earlier build of the same
    shape, whose every row, an empty set's included, is overwritten.

    The sums are scaled by ``1 / sqrt(dims)`` as if divided by
    ``np.sqrt(dims)``.  When that root is a power of two, 2^k (dims = 4^k),
    they are multiplied by 2^-k instead, which rounds the exact value
    ``x * 2^-k`` once, as the division does, so every float64, ±0 and
    subnormals included, gets the bits the division gives.  Unit sums are
    scaled as each batch is written.  Weighted sums take the factor in
    their roots, before the tables are built, and need no pass over the
    output: every value the tables and the row sums round is then the
    unscaled one times 2^-k, which rounds alike as long as it is not
    subnormal, and no root of a float64 weight is below about 2.2e-162.
    Weighted sums at any other dims are divided once they are summed.
    """
    nsets, root = sets.indptr.size - 1, np.sqrt(cb.dims)
    # 1 / root is exact when root is a power of two.
    scale = 1.0 / root if math.frexp(root)[0] == 0.5 else None
    if w is None or w.kind is WeightKind.UNIT:
        values = _reused(out, (nsets, cb.dims), np.float64)
        values[np.diff(sets.indptr) == 0] = 0.0
        for rows, sums in _unit_sums(cb, *sets):
            values[rows] = sums * scale if scale is not None else sums / root
        return values
    values = _root_sums(cb, *sets, w, scale=scale or 1.0, out=out)
    if scale is None:
        values /= root
    return values


def dothash_build(cb: Codebook, elements: Iterable[int] | np.ndarray, w: WeightFn | None = None) -> DotHashSketch:
    """Build a DotHash sketch of the distinct elements under weight ``w``.

    Duplicates in the stream are skipped (set semantics).  Raises if any
    weight is negative or not finite.
    """
    return build_sketch("dothash", cb.seed, cb.dims, elements, w)


def dothash_intersection(a: DotHashSketch, b: DotHashSketch) -> float:
    """Dot product of the sketches: unbiased estimate of sum(f(x)) over A ∩ B.

    Deliberately unclamped; clamping would bias the estimator.
    """
    require_same_form(a, b)
    return float(a.values @ b.values)


def dothash_jaccard(a: DotHashSketch, b: DotHashSketch) -> float:
    """Jaccard estimate from unit-weight sketches, clamped to [0, 1].

    The union size is recovered by inclusion-exclusion from the stored
    exact cardinalities.
    """
    est = dothash_intersection(a, b)
    if a.cardinality == 0 and b.cardinality == 0:
        raise ValueError("Jaccard undefined for two empty sets")
    union = a.cardinality + b.cardinality - est
    if union <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, est / union)))


def minhash_build_many(f: MinwiseFamily, sets: DistinctSets, out: np.ndarray | None = None) -> np.ndarray:
    """MinHash minima of many sets at once, shape (nsets, k), uint64.

    Row ``s`` equals ``minhash_build(f, set s).minima``; an empty set's row
    is the all-ones sentinel.  The sets' elements are hashed a chunk of
    rows at a time, in place, by :meth:`MinwiseFamily.rows` into two
    buffers reused across chunks, which together fill about
    ``_CHUNK_BYTES``.  ``np.minimum.reduceat`` folds each set's rows in a
    chunk into the second buffer, and those minima go to the sets' rows;
    only a chunk's first set can continue from the chunk before, and then
    its row is merged with what it held.  The minima are written into
    ``out`` when it is given, as :func:`dothash_build_many` writes.
    """
    distinct, indptr, ranks = sets
    sizes = np.diff(indptr)
    out = _reused(out, (sizes.size, f.k), np.uint64)
    out[sizes == 0] = MINHASH_EMPTY_SENTINEL
    set_of = np.repeat(np.arange(sizes.size), sizes)
    step = max(1, _CHUNK_BYTES // (16 * f.k))
    hashes, scratch = np.empty((2, min(step, ranks.size), f.k), dtype=np.uint64)
    last = -1  # the previous chunk's last set
    for lo in range(0, ranks.size, step):
        owners = set_of[lo : lo + step]
        first = np.flatnonzero(np.diff(owners, prepend=-1))
        rows = f.rows(distinct[ranks[lo : lo + step]], hashes[: owners.size], scratch[: owners.size])
        minima = np.minimum.reduceat(rows, first, axis=0, out=scratch[: first.size])
        chunk_sets = owners[first]
        if chunk_sets[0] == last:
            np.minimum(minima[0], out[last], out=minima[0])
        out[chunk_sets] = minima
        last = chunk_sets[-1]
    return out


def minhash_build(f: MinwiseFamily, elements: Iterable[int] | np.ndarray) -> MinHashSketch:
    """Minimum of each hash function over the distinct elements."""
    return build_sketch("minhash", f.seed, f.k, elements)


def minhash_jaccard(a: MinHashSketch, b: MinHashSketch) -> float:
    """Fraction of matching minima: the MinHash Jaccard estimate."""
    require_same_form(a, b)
    if a.cardinality == 0 and b.cardinality == 0:
        raise ValueError("Jaccard undefined for two empty sets")
    return float(np.count_nonzero(a.minima == b.minima)) / a.k


def simhash_build_many(cb: Codebook, sets: DistinctSets, out: np.ndarray | None = None) -> np.ndarray:
    """SimHash bits of many sets at once, shape (nsets, ceil(dims / 8)), uint8.

    Row ``s`` equals ``simhash_build(cb, set s).bits``: bit j is 1 iff
    coordinate j of the set's ±1 vector sum is > 0, packed LSB first.  The
    empty set sums to zero, which is non-positive, so its bits are all zero.
    The sums are the exact integers of :func:`_unit_sums`.  The bits are
    written into ``out`` when it is given, as :func:`dothash_build_many`
    writes.
    """
    sizes = np.diff(sets.indptr)
    out = _reused(out, (sizes.size, (cb.dims + 7) // 8), np.uint8)
    out[sizes == 0] = 0
    for rows, sums in _unit_sums(cb, *sets):
        out[rows] = np.packbits(sums > 0, axis=1, bitorder="little")
    return out


def simhash_build(cb: Codebook, elements: Iterable[int] | np.ndarray) -> SimHashSketch:
    """Bit j is 1 iff the j-th coordinate of the ±1 vector sum is > 0."""
    return build_sketch("simhash", cb.seed, cb.dims, elements)


def simhash_similarity(a: SimHashSketch, b: SimHashSketch) -> float:
    """1 - hamming(a, b) / dims: a [0, 1] score used for ranking only."""
    require_same_form(a, b)
    distance = int(np.bitwise_count(a.bits ^ b.bits).sum())
    return 1.0 - distance / a.dims


def _sort_join(indptr: np.ndarray, ranks: np.ndarray, weights: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection sizes and weight sums of the ranked sets ``u[i]`` and ``v[i]``.

    Sorting the keys ``i * m + rank`` puts each intersection's equal
    neighbours in pair order, then in ascending element order, so
    ``np.bincount`` adds a pair's weights from 0.0 in the order
    :func:`~dothash.exact.exact_weighted` does.  Like it, raises ValueError
    on a negative weight of an intersecting element only.
    """
    m = max(len(weights), 1)
    starts = np.stack([indptr[u], indptr[v]], axis=1).ravel()
    lengths = np.stack([indptr[u + 1], indptr[v + 1]], axis=1).ravel() - starts
    # Every gathered rank's position: its slice's start plus its offset in the slice.
    at = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    keys = np.sort(np.repeat(np.arange(len(u)) * m, lengths.reshape(-1, 2).sum(axis=1)) + ranks[at])
    pair, rank = np.divmod(keys[1:][keys[1:] == keys[:-1]], m)
    if np.any(weights[rank] < 0):
        raise ValueError("weight function must be nonnegative")
    return np.bincount(pair, minlength=len(u)), np.bincount(pair, weights[rank], len(u))


def _exact_scores(built: tuple, size: int | None, u: np.ndarray, v: np.ndarray, size_u: np.ndarray,
                  size_v: np.ndarray, jaccard: bool) -> np.ndarray:
    """Exact weight sums, or Jaccard from integer counts: one sort-join per chunk of pairs."""
    scores = np.zeros(len(u))
    for lo, hi in chunk_ranges(8 * (size_u + size_v + 1)):
        counts, sums = _sort_join(*built, u[lo:hi], v[lo:hi])
        if jaccard:
            union = size_u[lo:hi] + size_v[lo:hi] - counts
            sums = np.divide(counts, union, out=np.zeros(hi - lo), where=union > 0)
        scores[lo:hi] = sums
    return scores


def _dothash_scores(rows: np.ndarray, dims: int, u: np.ndarray, v: np.ndarray, size_u: np.ndarray,
                    size_v: np.ndarray, jaccard: bool) -> np.ndarray:
    """Dot products of row pairs, clamped into the Jaccard of the exact set sizes when asked.

    Pairs are taken in order of their first set, so a row is read while it
    is still cached.  ndarray.dot makes the BLAS ddot call of ``@`` without
    the ufunc dispatch, so each score keeps its bits.
    """
    order = np.argsort(u, kind="stable")
    views = list(rows)
    scores = np.zeros(len(u))
    scores[order] = [views[a].dot(views[b]) for a, b in zip(u[order].tolist(), v[order].tolist())]
    # At d=1 ndarray.dot returns the lone product, which may be -0.0; ``@`` adds it to +0.0.
    scores += 0.0
    if jaccard:
        union = size_u + size_v - scores
        ratio = np.divide(scores, union, out=np.ones_like(scores), where=union > 0.0)
        scores = np.where(ratio > 0.0, np.minimum(ratio, 1.0), 0.0)
    return scores


def _gathered_scores(score_rows: Callable[[np.ndarray, np.ndarray, int], np.ndarray], rows: np.ndarray,
                     size: int, u: np.ndarray, v: np.ndarray, *sizes_and_jaccard) -> np.ndarray:
    """``score_rows(rows_u, rows_v, size)`` of the pairs' rows, gathered about 1 MiB at a time."""
    scores = np.zeros(len(u))
    for lo, hi in chunk_ranges(np.full(len(u), 2 * rows[:1].nbytes)):
        scores[lo:hi] = score_rows(rows[u[lo:hi]], rows[v[lo:hi]], size)
    return scores


def _malformed_if(bad: object, what: str) -> None:
    if bad:
        raise ValueError(f"malformed sketch file: {what}")


class EstimatorEntry(NamedTuple):
    """One estimator: its batch build, its pair scorer and, for a sketch, its size flag and file form."""

    name: str
    # (seed, size, sets, w, out=None) -> every set of a DistinctSets, built at once; a sketch is written
    # into out when given, an earlier build of the same shape.  The exact oracle's build ignores out.
    build_many: Callable
    # (built, size, u, v, sizes_u, sizes_v, jaccard) -> float64 scores of built sets u[i] and v[i], of
    # the scalar compare function's bits, given their distinct counts; jaccard asks for the Jaccard index.
    score: Callable
    weighted: bool  # scores any weighted intersection; else it ranks by Jaccard only
    size_flag: str | None = None  # "dims" or "k"; None: not a sketch, so no size, seed or file form
    code: int | None = None  # the .skch kind code
    sketch: type | None = None  # the class, called as sketch(payload, size, seed, cardinality)
    payload: str | None = None  # the class's payload field
    dtype: np.dtype | None = None  # payload items, little-endian in a file
    width: Callable[[int], int] = lambda size: size  # payload items of a sketch of this size
    empty: bytes = b"\0"  # the byte an empty set's payload repeats
    check: Callable[[np.ndarray, int], None] = lambda payload, size: None  # rejects what a file must not hold
    # (payload field, payload) -> its sketch_to_json key and value
    to_json: Callable[[str, np.ndarray], tuple] = lambda name, payload: (name, payload.tolist())
    metric: str | None = None  # compare's "metric"
    views: tuple[tuple[str, bool], ...] = ()  # compare's (key, jaccard) scores; null for Jaccard of two empty sets


# The estimators, in the order the CLI lists them.
ESTIMATORS: dict[str, EstimatorEntry] = {entry.name: entry for entry in (
    EstimatorEntry(
        "dothash", weighted=True, size_flag="dims",
        build_many=lambda seed, size, sets, w, out=None: dothash_build_many(
            Codebook(seed=seed, dims=size), sets, w, out),
        score=_dothash_scores,
        code=1, sketch=DotHashSketch, payload="values", dtype=np.dtype(np.float64),
        check=lambda values, d: _malformed_if(not np.all(np.isfinite(values)), "non-finite dothash values"),
        metric="intersection", views=(("estimate", False), ("jaccard", True))),
    EstimatorEntry(
        "minhash", weighted=False, size_flag="k",
        build_many=lambda seed, size, sets, w, out=None: minhash_build_many(
            MinwiseFamily(seed=seed, k=size), sets, out),
        score=partial(_gathered_scores, lambda a, b, k: np.count_nonzero(a == b, axis=1) / k),
        code=2, sketch=MinHashSketch, payload="minima", dtype=np.dtype(np.uint64), empty=b"\xff",
        metric="jaccard", views=(("estimate", True),)),
    EstimatorEntry(
        "simhash", weighted=False, size_flag="dims",
        build_many=lambda seed, size, sets, w, out=None: simhash_build_many(
            Codebook(seed=seed, dims=size), sets, out),
        score=partial(_gathered_scores, lambda a, b, dims: 1.0 - np.bitwise_count(a ^ b).sum(axis=1) / dims),
        code=3, sketch=SimHashSketch, payload="bits", dtype=np.dtype(np.uint8),
        width=lambda d: (d + 7) // 8, to_json=lambda name, bits: ("bits_hex", bits.tobytes().hex()),
        check=lambda bits, d: _malformed_if(d % 8 and bits[-1] >> (d % 8), "simhash padding bits are set"),
        metric="similarity", views=(("estimate", False),)),
    # The sets as ranks into their sorted distinct elements, and w of each of those elements.
    EstimatorEntry(
        "exact", weighted=True,
        build_many=lambda seed, size, sets, w, out=None: (sets.indptr, sets.ranks, w.weights_for(sets.distinct)),
        score=_exact_scores),
)}
_BY_CODE = {entry.code: entry for entry in ESTIMATORS.values() if entry.code}
_BY_CLASS = {entry.sketch: entry for entry in ESTIMATORS.values() if entry.code}


def sketch_entry(sketch: Sketch) -> EstimatorEntry:
    """The :data:`ESTIMATORS` entry of a sketch's kind; TypeError for anything else."""
    entry = _BY_CLASS.get(type(sketch))
    if entry is None:
        raise TypeError(f"not a sketch: {type(sketch).__name__}")
    return entry


def build_sketch(kind: str, seed: int, size: int, elements: Iterable[int] | np.ndarray,
                 w: WeightFn | None = None) -> Sketch:
    """The ``kind`` sketch of the distinct ``elements``, built by its table entry; its payload is read-only."""
    entry = ESTIMATORS[kind]
    size = whole(entry.size_flag, size, 1)
    distinct = sorted_distinct(as_element_array(elements))
    sets = DistinctSets(distinct, np.array([0, distinct.size]), np.arange(distinct.size))
    row = entry.build_many(seed, size, sets, w)[0]
    row.setflags(write=False)
    return entry.sketch(row, size, u64("seed", seed), distinct.size)


def require_same_form(a: Sketch, b: Sketch) -> tuple[EstimatorEntry, int]:
    """The entry and size of two sketches of one kind, size and seed; ValueError names the first difference."""
    entry, other = sketch_entry(a), sketch_entry(b)
    size = getattr(a, entry.size_flag)
    for what, mine, theirs in (("kind", entry.name, other.name), (entry.size_flag, size, getattr(b, other.size_flag)),
                               ("seed", a.seed, b.seed)):
        if mine != theirs:
            raise ValueError(f"incompatible sketches: {what} mismatch ({mine} vs {theirs})")
    return entry, size


_MAGIC = b"SKCH"
_VERSION = 1
_HEADER = struct.Struct("<4sBBQIQ")
# The header stores a sketch's size (dims or k) as a u32.
MAX_SKETCH_SIZE = (1 << 32) - 1


def write_sketch(sketch: Sketch, fp: BinaryIO) -> None:
    """Serialize a sketch in the documented little-endian binary layout.

    Raises ValueError, before it writes anything, for a size the header
    cannot store (0, or more than ``MAX_SKETCH_SIZE``) and for any sketch
    :func:`read_sketch` would reject: both check it with :func:`_payload_row`.
    """
    entry, size, seed, cardinality = _header_fields(sketch)
    payload = getattr(sketch, entry.payload).astype(entry.dtype.newbyteorder("<")).tobytes()
    _payload_row(entry, size, cardinality, payload)
    fp.write(_HEADER.pack(_MAGIC, _VERSION, entry.code, seed, size, cardinality))
    fp.write(payload)


def _header_fields(sketch: Sketch) -> tuple[EstimatorEntry, int, int, int]:
    """A sketch's table entry and its size, seed and cardinality as Python ints, as its file header holds them."""
    entry = sketch_entry(sketch)
    size = whole(entry.size_flag, getattr(sketch, entry.size_flag))
    cardinality = whole("cardinality", sketch.cardinality)
    if not 1 <= size <= MAX_SKETCH_SIZE:
        raise ValueError(f"sketch size {size} does not fit the file header (1 to {MAX_SKETCH_SIZE})")
    _malformed_if(not 0 <= cardinality <= _MASK64, f"cardinality {cardinality} outside 0 to 2**64 - 1")
    return entry, size, u64("seed", sketch.seed), cardinality


def _payload_row(entry: EstimatorEntry, size: int, cardinality: int, payload: bytes) -> np.ndarray:
    """The read-only payload row of a sketch's file fields; ValueError for what a file must not hold.

    The size must be positive and the payload as long as it makes it, the
    cardinality 0 only with the empty set's payload, and the payload must
    pass ``entry.check``.
    """
    _malformed_if(size == 0, "size 0")
    nbytes = entry.width(size) * entry.dtype.itemsize
    _malformed_if(len(payload) != nbytes, f"payload of {len(payload)} bytes, not the {nbytes} of size {size}")
    _malformed_if(cardinality == 0 and payload != entry.empty * len(payload),
                  "cardinality 0 with a non-empty payload")
    row = np.frombuffer(payload, dtype=entry.dtype.newbyteorder("<")).astype(entry.dtype)
    entry.check(row, size)
    row.setflags(write=False)
    return row


def read_sketch(fp: BinaryIO) -> Sketch:
    """Inverse of :func:`write_sketch`; raises ValueError on malformed input.

    The stream must end with the payload, and its fields must pass the
    checks that :func:`write_sketch` makes.  The payload is read-only.
    """
    raw = fp.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated sketch file: header too short")
    magic, version, kind_code, seed, size, cardinality = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError("not a sketch file: bad magic bytes")
    if version != _VERSION:
        raise ValueError(f"unsupported sketch file version {version}")
    entry = _BY_CODE.get(kind_code)
    if entry is None:
        raise ValueError(f"unknown sketch kind code {kind_code}")
    nbytes = entry.width(size) * entry.dtype.itemsize
    # The size comes from the file: read in bounded pieces, so a header that
    # declares more than the file holds fails without allocating that much.
    pieces = []
    while nbytes:
        piece = fp.read(min(nbytes, _CHUNK_BYTES))
        if not piece:
            raise ValueError("truncated sketch file: payload too short")
        pieces.append(piece)
        nbytes -= len(piece)
    payload = b"".join(pieces)
    _malformed_if(fp.read(1), "trailing bytes after the payload")
    return entry.sketch(_payload_row(entry, size, cardinality, payload), size, seed, cardinality)


def sketch_to_json(sketch: Sketch) -> str:
    """Human-readable debug form with the same fields as the binary layout."""
    entry, size, seed, cardinality = _header_fields(sketch)
    key, payload = entry.to_json(entry.payload, getattr(sketch, entry.payload))
    record = {"kind": entry.name, "version": _VERSION, "seed": seed, "dims_or_k": size, "cardinality": cardinality,
              key: payload}
    return json.dumps(record, sort_keys=True)
