"""Fixed-size set sketches and their similarity estimators.

Three sketch kinds share the encodings from :mod:`dothash.encoding`:

* DotHashSketch: the weighted sum of codebook vectors.  The dot product of
  two sketches is an unbiased estimate of ``sum(f(x))`` over the
  intersection (``|A ∩ B|`` for unit weights).
* MinHashSketch: per-hash minima; the fraction of matching minima
  estimates the Jaccard index.
* SimHashSketch: the sign pattern of the ±1 element-vector sum; one minus
  the normalized Hamming distance is a ranking similarity.

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
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .encoding import (
    _CHUNK_BYTES,
    Codebook,
    MinwiseFamily,
    _add_sign_counts,
    _byte_columns,
    _count_dtype,
    as_element_array,
    sorted_distinct,
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

    Construct with :meth:`unit`, :meth:`from_table`, :meth:`from_array`, or
    :meth:`custom`.  Calling the instance evaluates one element; dense
    batches go through :meth:`weights_for`.  Kind ``WeightKind.UNIT`` means
    f = 1: builds count such sums without evaluating the function.
    """

    def __init__(
        self,
        kind: WeightKind,
        scalar: Callable[[int], float],
        batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.kind = kind
        self._scalar = scalar
        self._batch = batch

    def __call__(self, element: int) -> float:
        return self._scalar(element)

    def weights_for(self, elements: np.ndarray) -> np.ndarray:
        """Weights for a batch of elements as a float64 array."""
        if self._batch is not None:
            return np.asarray(self._batch(elements), dtype=np.float64)
        return np.array([self._scalar(int(e)) for e in elements], dtype=np.float64)

    def __repr__(self) -> str:
        return f"WeightFn(kind={self.kind.value})"

    @classmethod
    def unit(cls) -> "WeightFn":
        """f(x) = 1 for every element: the plain-intersection weighting."""
        return cls(WeightKind.UNIT, lambda element: 1.0, lambda arr: np.ones(len(arr)))

    @classmethod
    def from_table(cls, table: Mapping[int, float], kind: WeightKind = WeightKind.CUSTOM) -> "WeightFn":
        """Weights from an explicit element -> weight mapping."""

        def scalar(element: int) -> float:
            try:
                return float(table[element])
            except KeyError:
                raise ValueError(f"weight not defined for element {element}") from None

        return cls(kind, scalar)

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

    @classmethod
    def custom(cls, fn: Callable[[int], float]) -> "WeightFn":
        return cls(WeightKind.CUSTOM, fn)


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


def _require_compatible(size_a: int, size_b: int, seed_a: int, seed_b: int, size_name: str) -> None:
    if size_a != size_b:
        raise ValueError(f"incompatible sketches: {size_name} mismatch ({size_a} vs {size_b})")
    if seed_a != seed_b:
        raise ValueError(f"incompatible sketches: seed mismatch ({seed_a} vs {seed_b})")


def _sign_tables(roots: np.ndarray) -> np.ndarray:
    """Lookup tables of signed root sums, shape (groups, 256), from (8, groups) roots.

    Entry ``b`` of a group's table is ``±r_0 ± r_1 ... ± r_7`` added left to
    right, with ``+r_i`` where bit ``i`` of ``b`` is set, and then 0.0
    added, which turns -0.0 into +0.0 and leaves every other value as it is.
    """
    tables = np.empty((256, roots.shape[1]))
    np.negative(roots[0], out=tables[0])
    tables[1] = roots[0]
    for i in range(1, _GROUP):
        half = 1 << i
        np.add(tables[:half], roots[i], out=tables[half : 2 * half])
        tables[:half] -= roots[i]
    return np.add(tables.T, 0.0, out=np.empty(tables.shape[::-1]))


def _table_rows(roots: np.ndarray, batch: int):
    """Yield the :func:`_sign_tables` rows of (8, groups) ``roots``, built ``batch`` groups at a time."""
    for lo in range(0, roots.shape[1], batch):
        yield from _sign_tables(roots[:, lo : lo + batch])


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
    indptr = np.asarray(indptr, dtype=np.int64)
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


def _one_set(elements: Iterable[int] | np.ndarray) -> DistinctSets:
    """The distinct elements of one set, sorted, as a one-set :class:`DistinctSets`."""
    distinct = sorted_distinct(as_element_array(elements))
    return DistinctSets(distinct, np.array([0, distinct.size]), np.arange(distinct.size))


def _unit_sums(cb: Codebook, distinct: np.ndarray, indptr: np.ndarray, ranks: np.ndarray):
    """Yield ``(sets, sums)``: the exact sums ``Σ sign(e)`` of batches of CSR sets.

    The sets are a :class:`DistinctSets`; ``sums`` is an integer array
    of shape (len(sets), dims) whose row ``i`` belongs to set ``sets[i]``.
    Empty sets are never yielded.  A sum of n signs is ``2 * count - n``,
    with the counts taken by the bit-plane counter of
    :func:`dothash.encoding.sign_sums`, one batch of sets per column axis.
    Sets are taken longest first, so a batch holds sets of similar size,
    each padded with zero words to the longest.  A batch's words, their
    scratch and its counts fill about ``_CHUNK_BYTES``, and a set longer
    than that is counted a row chunk at a time.
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
        # Counts reach rows, and doubled 2 * rows, before n is taken off.
        counts = np.zeros((sets.size, dims), dtype=_count_dtype(2 * rows))
        step = min(rows, max(1, _CHUNK_BYTES // (16 * blocks * sets.size)))
        if buffer.size < 2 * step * sets.size * blocks:
            buffer = np.empty(2 * step * sets.size * blocks, dtype=np.uint64)
        for r in range(0, rows, step):
            slots = np.arange(r, min(rows, r + step))[:, None]
            valid = slots < sizes[sets]
            ids = distinct[ranks[np.where(valid, indptr[sets] + slots, 0)]]
            _add_sign_counts(cb._element_keys(ids), counts, buffer, valid)
        counts *= 2
        counts -= sizes[sets, None].astype(counts.dtype)
        yield sets, counts


def _root_sums(
    cb: Codebook, distinct: np.ndarray, indptr: np.ndarray, members: np.ndarray, w: WeightFn
) -> np.ndarray:
    """Unscaled sums ``Σ sqrt(w(e)) * sign(e)`` over each CSR set, shape (nsets, dims).

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
    to +0.0; only the rows of empty sets are zeroed.

    Groups are looked up a chunk at a time: a chunk's words, byte codes and
    looked-up values fill about ``_CHUNK_BYTES``.  Their tables are built a
    batch at a time, 128 groups whose tables fill ``_CHUNK_BYTES // 4``.
    Element ids and zero-padded roots are gathered once per span of groups.
    Where a batch holds more groups than a chunk, a span is one batch, whose
    chunks share its tables (4 chunks of 32 groups at d=4096); otherwise a
    span is one chunk, whose groups read batch after batch of tables (16
    batches for a chunk of 2048 groups at d=64).
    """
    nsets = indptr.size - 1
    weights = w.weights_for(distinct)
    if not np.all(np.isfinite(weights)):
        raise ValueError("weight function must be finite")
    if np.any(weights < 0):
        raise ValueError("weight function must be nonnegative")
    roots = np.sqrt(weights)

    # Groups in set-major order: set s's groups are consecutive and in
    # element order, so adding them in turn keeps each row's group order.
    groups = -(-np.diff(indptr) // _GROUP)
    owner = np.repeat(np.arange(nsets), groups)
    start = indptr[owner] + _GROUP * (np.arange(owner.size) - (np.cumsum(groups) - groups)[owner])
    stop = indptr[owner + 1]
    leads = np.diff(owner, prepend=-1) != 0

    dims, blocks = cb.dims, cb.blocks
    width = 64 * blocks
    out = np.empty((nsets, dims))
    out[groups == 0] = 0.0
    set_rows = list(out)
    # Words of every distinct element up front, filled a chunk at a time,
    # where elements recur and there are no more of them than sets: a table
    # row is ceil(dims / 64) words beside an output row of dims float64
    # values, so the table is then at most 1/64 of the output when 64
    # divides dims.  Otherwise words are hashed per chunk, so build memory
    # stays bounded.
    shared = None
    if distinct.size < members.size and distinct.size <= nsets:
        shared = np.empty((distinct.size, blocks), dtype=np.uint64)
        rows = max(1, _CHUNK_BYTES // (8 * blocks))
        for lo in range(0, distinct.size, rows):
            shared[lo : lo + rows] = cb.sign_words(distinct[lo : lo + rows])
    # _CHUNK_BYTES of float64 table values looked up per chunk (8 per group
    # and coordinate) sizes the chunk's word and code temporaries.  About
    # 1 MiB measured fastest; 256 KiB and 16 MiB were both slower.  A table
    # is 256 float64 values, so at 1 MiB a batch of tables is 128 groups.
    step = max(1, _CHUNK_BYTES // (8 * width))
    batch = max(1, _CHUNK_BYTES // 4 // (8 * 256))
    span = max(step, batch)
    for base in range(0, owner.size, span):
        end = min(owner.size, base + span)
        # The span's groups as (group, 8) slots into members; past a set's
        # end, slots are padding of zero weight.
        slots = start[base:end, None] + np.arange(_GROUP)
        real = slots < stop[base:end, None]
        ids = np.where(real, members[np.minimum(slots, max(members.size - 1, 0))], 0)
        tables = _table_rows(np.where(real, roots[ids], 0.0).T, batch)
        for lo in range(base, end, step):
            hi = min(end, lo + step)
            chunk = ids[lo - base : hi - base].ravel()
            words = shared[chunk] if shared is not None else cb.sign_words(distinct[chunk])
            codes = _byte_columns(words.reshape(hi - lo, _GROUP, blocks).transpose(1, 0, 2))[:, :dims]
            # zip stops at the chunk's last code before it takes another table.
            for code, table, s, lead in zip(codes, tables, owner[lo:hi].tolist(), leads[lo:hi].tolist()):
                if lead:
                    # "clip" takes straight into the row; the codes are all below 256.
                    table.take(code, out=set_rows[s], mode="clip")
                else:
                    set_rows[s] += table.take(code)
    return out


def dothash_build_many(cb: Codebook, sets: DistinctSets, w: WeightFn | None = None) -> np.ndarray:
    """DotHash sketch values of many sets at once, shape (nsets, dims), float64.

    Row ``s`` equals ``dothash_build(cb, set s, w).values`` bit for bit.
    Unit weights (``w`` None or of kind ``WeightKind.UNIT``) give exact
    integer sums, counted on the packed sign words by the bit-plane counter
    (:func:`_unit_sums`).  Other weights go through the byte table
    (:func:`_root_sums`), which computes them once per distinct element, not
    once per occurrence, and so codebook words where elements recur and are
    no more than the sets, which keeps their table small beside the output.
    Raises ValueError on any negative or non-finite weight.
    """
    if w is None or w.kind is WeightKind.UNIT:
        values = np.zeros((sets.indptr.size - 1, cb.dims))
        for rows, sums in _unit_sums(cb, *sets):
            values[rows] = sums
    else:
        values = _root_sums(cb, *sets, w)
    values /= np.sqrt(cb.dims)
    return values


def dothash_build(cb: Codebook, elements: Iterable[int] | np.ndarray, w: WeightFn | None = None) -> DotHashSketch:
    """Build a DotHash sketch of the distinct elements under weight ``w``.

    Duplicates in the stream are skipped (set semantics).  Raises if any
    weight is negative or not finite.
    """
    sets = _one_set(elements)
    values = dothash_build_many(cb, sets, w)[0]
    return DotHashSketch(values=values, dims=cb.dims, seed=cb.seed, cardinality=int(sets.distinct.size))


def dothash_intersection(a: DotHashSketch, b: DotHashSketch) -> float:
    """Dot product of the sketches: unbiased estimate of sum(f(x)) over A ∩ B.

    Deliberately unclamped; clamping would bias the estimator.
    """
    _require_compatible(a.dims, b.dims, a.seed, b.seed, "dims")
    return float(a.values @ b.values)


def dothash_jaccard(a: DotHashSketch, b: DotHashSketch) -> float:
    """Jaccard estimate from unit-weight sketches, clamped to [0, 1].

    The union size is recovered by inclusion-exclusion from the stored
    exact cardinalities.
    """
    _require_compatible(a.dims, b.dims, a.seed, b.seed, "dims")
    if a.cardinality == 0 and b.cardinality == 0:
        raise ValueError("Jaccard undefined for two empty sets")
    est = dothash_intersection(a, b)
    union = a.cardinality + b.cardinality - est
    if union <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, est / union)))


def minhash_build_many(f: MinwiseFamily, sets: DistinctSets) -> np.ndarray:
    """MinHash minima of many sets at once, shape (nsets, k), uint64.

    Row ``s`` equals ``minhash_build(f, set s).minima``; an empty set's row
    is the all-ones sentinel.  The sets' elements are hashed a chunk of
    rows at a time, in place, by :meth:`MinwiseFamily.rows` into two
    buffers reused across chunks, which together fill about
    ``_CHUNK_BYTES``.  ``np.minimum.reduceat`` folds each set's rows in a
    chunk into the second buffer, and those minima go to the sets' rows;
    only a chunk's first set can continue from the chunk before, so only
    its row is merged with what it held.
    """
    distinct, indptr, ranks = sets
    out = np.full((indptr.size - 1, f.k), MINHASH_EMPTY_SENTINEL, dtype=np.uint64)
    set_of = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    step = max(1, _CHUNK_BYTES // (16 * f.k))
    hashes, scratch = np.empty((2, min(step, ranks.size), f.k), dtype=np.uint64)
    for lo in range(0, ranks.size, step):
        owners = set_of[lo : lo + step]
        first = np.flatnonzero(np.diff(owners, prepend=-1))
        rows = f.rows(distinct[ranks[lo : lo + step]], hashes[: owners.size], scratch[: owners.size])
        minima = np.minimum.reduceat(rows, first, axis=0, out=scratch[: first.size])
        chunk_sets = owners[first]
        np.minimum(minima[0], out[chunk_sets[0]], out=minima[0])
        out[chunk_sets] = minima
    return out


def minhash_build(f: MinwiseFamily, elements: Iterable[int] | np.ndarray) -> MinHashSketch:
    """Minimum of each hash function over the distinct elements."""
    sets = _one_set(elements)
    minima = minhash_build_many(f, sets)[0]
    minima.setflags(write=False)
    return MinHashSketch(minima=minima, k=f.k, seed=f.seed, cardinality=int(sets.distinct.size))


def minhash_jaccard(a: MinHashSketch, b: MinHashSketch) -> float:
    """Fraction of matching minima: the MinHash Jaccard estimate."""
    _require_compatible(a.k, b.k, a.seed, b.seed, "k")
    if a.cardinality == 0 and b.cardinality == 0:
        raise ValueError("Jaccard undefined for two empty sets")
    return float(np.count_nonzero(a.minima == b.minima)) / a.k


def simhash_build_many(cb: Codebook, sets: DistinctSets) -> np.ndarray:
    """SimHash bits of many sets at once, shape (nsets, ceil(dims / 8)), uint8.

    Row ``s`` equals ``simhash_build(cb, set s).bits``: bit j is 1 iff
    coordinate j of the set's ±1 vector sum is > 0, packed LSB first.  The
    empty set sums to zero, which is non-positive, so its bits are all zero.
    The sums are the exact integers of :func:`_unit_sums`.
    """
    out = np.zeros((sets.indptr.size - 1, (cb.dims + 7) // 8), dtype=np.uint8)
    for rows, sums in _unit_sums(cb, *sets):
        out[rows] = np.packbits(sums > 0, axis=1, bitorder="little")
    return out


def simhash_build(cb: Codebook, elements: Iterable[int] | np.ndarray) -> SimHashSketch:
    """Bit j is 1 iff the j-th coordinate of the ±1 vector sum is > 0."""
    sets = _one_set(elements)
    packed = simhash_build_many(cb, sets)[0]
    packed.setflags(write=False)
    return SimHashSketch(bits=packed, dims=cb.dims, seed=cb.seed, cardinality=int(sets.distinct.size))


def simhash_similarity(a: SimHashSketch, b: SimHashSketch) -> float:
    """1 - hamming(a, b) / dims: a [0, 1] score used for ranking only."""
    _require_compatible(a.dims, b.dims, a.seed, b.seed, "dims")
    distance = int(np.bitwise_count(a.bits ^ b.bits).sum())
    return 1.0 - distance / a.dims


_MAGIC = b"SKCH"
_VERSION = 1
_HEADER = struct.Struct("<4sBBQIQ")
# The header stores a sketch's size (dims or k) as a u32.
MAX_SKETCH_SIZE = (1 << 32) - 1
_KIND_CODES = {"dothash": 1, "minhash": 2, "simhash": 3}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


def sketch_kind(sketch: Sketch) -> str:
    if isinstance(sketch, DotHashSketch):
        return "dothash"
    if isinstance(sketch, MinHashSketch):
        return "minhash"
    if isinstance(sketch, SimHashSketch):
        return "simhash"
    raise TypeError(f"not a sketch: {type(sketch).__name__}")


def _sketch_size(sketch: Sketch) -> int:
    return sketch.k if isinstance(sketch, MinHashSketch) else sketch.dims


def write_sketch(sketch: Sketch, fp: BinaryIO) -> None:
    """Serialize a sketch in the documented little-endian binary layout.

    Raises ValueError for a size the header cannot store (0, or more than
    ``MAX_SKETCH_SIZE``).
    """
    kind = sketch_kind(sketch)
    size = _sketch_size(sketch)
    if not 1 <= size <= MAX_SKETCH_SIZE:
        raise ValueError(f"sketch size {size} does not fit the file header (1 to {MAX_SKETCH_SIZE})")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND_CODES[kind],
        sketch.seed & ((1 << 64) - 1),
        size,
        sketch.cardinality,
    )
    fp.write(header)
    if isinstance(sketch, DotHashSketch):
        fp.write(sketch.values.astype("<f8").tobytes())
    elif isinstance(sketch, MinHashSketch):
        fp.write(sketch.minima.astype("<u8").tobytes())
    else:
        fp.write(sketch.bits.tobytes())


def read_sketch(fp: BinaryIO) -> Sketch:
    """Inverse of :func:`write_sketch`; raises ValueError on malformed input.

    The size must be positive, the stream must end with the payload, DotHash
    values must be finite, and the padding bits of a SimHash payload must be
    zero.  A cardinality of 0 must carry the empty set's payload.
    """
    raw = fp.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated sketch file: header too short")
    magic, version, kind_code, seed, size, cardinality = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError("not a sketch file: bad magic bytes")
    if version != _VERSION:
        raise ValueError(f"unsupported sketch file version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise ValueError(f"unknown sketch kind code {kind_code}")
    if size == 0:
        raise ValueError("malformed sketch file: size 0")
    nbytes = 8 * size if kind in ("dothash", "minhash") else (size + 7) // 8
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
    if fp.read(1):
        raise ValueError("malformed sketch file: trailing bytes after the payload")
    # The empty set's payload is all +0.0 values, all-ones minima or all-zero bits.
    if cardinality == 0 and payload != (b"\xff" if kind == "minhash" else b"\0") * len(payload):
        raise ValueError("malformed sketch file: cardinality 0 with a non-empty payload")
    if kind == "dothash":
        values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("malformed sketch file: non-finite dothash values")
        return DotHashSketch(values=values, dims=size, seed=seed, cardinality=cardinality)
    if kind == "minhash":
        minima = np.frombuffer(payload, dtype="<u8").astype(np.uint64)
        minima.setflags(write=False)
        return MinHashSketch(minima=minima, k=size, seed=seed, cardinality=cardinality)
    if size % 8 and payload[-1] >> (size % 8):
        raise ValueError("malformed sketch file: simhash padding bits are set")
    bits = np.frombuffer(payload, dtype=np.uint8).copy()
    bits.setflags(write=False)
    return SimHashSketch(bits=bits, dims=size, seed=seed, cardinality=cardinality)


def sketch_to_json(sketch: Sketch) -> str:
    """Human-readable debug form with the same fields as the binary layout."""
    kind = sketch_kind(sketch)
    record: dict = {
        "kind": kind,
        "version": _VERSION,
        "seed": sketch.seed,
        "dims_or_k": _sketch_size(sketch),
        "cardinality": sketch.cardinality,
    }
    if isinstance(sketch, DotHashSketch):
        record["values"] = sketch.values.tolist()
    elif isinstance(sketch, MinHashSketch):
        record["minima"] = [int(v) for v in sketch.minima]
    else:
        record["bits_hex"] = sketch.bits.tobytes().hex()
    return json.dumps(record, sort_keys=True)
