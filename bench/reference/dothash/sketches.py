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
    size    u32      dims (dothash/simhash) or k (minhash)
    card    u64      number of distinct elements consumed at build time
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
from typing import BinaryIO, Callable, Iterable, Mapping, Union

import numpy as np

from .encoding import Codebook, MinwiseFamily, as_element_array

MINHASH_EMPTY_SENTINEL = (1 << 64) - 1

# Elements per slab when accumulating large builds, sized to keep the
# unpacked sign matrix around 16 MiB.
_BUILD_SLAB_BITS = 1 << 27


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
    batches go through :meth:`weights_for`.
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

        def scalar(element: int) -> float:
            if not 0 <= element < len(values):
                raise ValueError(f"weight not defined for element {element}")
            return float(values[element])

        return cls(kind, scalar, lambda arr: values[arr.astype(np.intp)])

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


def _distinct_elements(elements: Iterable[int] | np.ndarray) -> np.ndarray:
    arr = as_element_array(elements)
    if arr.size == 0:
        return arr
    return np.unique(arr)


def dothash_build(cb: Codebook, elements: Iterable[int] | np.ndarray, w: WeightFn | None = None) -> DotHashSketch:
    """Build a DotHash sketch of the distinct elements under weight ``w``.

    Duplicates in the stream are skipped (set semantics).  Raises if any
    weight is negative.
    """
    if w is None:
        w = WeightFn.unit()
    distinct = _distinct_elements(elements)
    values = np.zeros(cb.dims, dtype=np.float64)
    slab = max(1, _BUILD_SLAB_BITS // cb.dims)
    for start in range(0, distinct.size, slab):
        chunk = distinct[start : start + slab]
        weights = w.weights_for(chunk)
        if np.any(weights < 0):
            raise ValueError("weight function must be nonnegative")
        signs = cb.sign_rows(chunk)
        values += np.sqrt(weights) @ signs.astype(np.float64)
    values /= np.sqrt(cb.dims)
    return DotHashSketch(values=values, dims=cb.dims, seed=cb.seed, cardinality=int(distinct.size))


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


def minhash_build(f: MinwiseFamily, elements: Iterable[int] | np.ndarray) -> MinHashSketch:
    """Minimum of each hash function over the distinct elements."""
    distinct = _distinct_elements(elements)
    if distinct.size == 0:
        minima = np.full(f.k, MINHASH_EMPTY_SENTINEL, dtype=np.uint64)
    else:
        minima = f.rows(distinct).min(axis=0)
    minima.setflags(write=False)
    return MinHashSketch(minima=minima, k=f.k, seed=f.seed, cardinality=int(distinct.size))


def minhash_jaccard(a: MinHashSketch, b: MinHashSketch) -> float:
    """Fraction of matching minima: the MinHash Jaccard estimate."""
    _require_compatible(a.k, b.k, a.seed, b.seed, "k")
    if a.cardinality == 0 and b.cardinality == 0:
        raise ValueError("Jaccard undefined for two empty sets")
    return float(np.count_nonzero(a.minima == b.minima)) / a.k


def simhash_build(cb: Codebook, elements: Iterable[int] | np.ndarray) -> SimHashSketch:
    """Bit j is 1 iff the j-th coordinate of the ±1 vector sum is > 0.

    The empty set sums to zero, which is non-positive, so its sketch is
    all-zero bits.
    """
    distinct = _distinct_elements(elements)
    sums = np.zeros(cb.dims, dtype=np.int64)
    slab = max(1, _BUILD_SLAB_BITS // cb.dims)
    for start in range(0, distinct.size, slab):
        chunk = distinct[start : start + slab]
        bits = cb.sign_bits(chunk)
        sums += 2 * bits.sum(axis=0, dtype=np.int64) - len(chunk)
    packed = np.packbits((sums > 0).astype(np.uint8), bitorder="little")
    packed.setflags(write=False)
    return SimHashSketch(bits=packed, dims=cb.dims, seed=cb.seed, cardinality=int(distinct.size))


def simhash_similarity(a: SimHashSketch, b: SimHashSketch) -> float:
    """1 - hamming(a, b) / dims: a [0, 1] score used for ranking only."""
    _require_compatible(a.dims, b.dims, a.seed, b.seed, "dims")
    distance = int(np.bitwise_count(a.bits ^ b.bits).sum())
    return 1.0 - distance / a.dims


_MAGIC = b"SKCH"
_VERSION = 1
_HEADER = struct.Struct("<4sBBQIQ")
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
    """Serialize a sketch in the documented little-endian binary layout."""
    kind = sketch_kind(sketch)
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND_CODES[kind],
        sketch.seed & ((1 << 64) - 1),
        _sketch_size(sketch),
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
    """Inverse of :func:`write_sketch`; raises ValueError on malformed input."""
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
    if kind == "dothash":
        payload = fp.read(8 * size)
        if len(payload) != 8 * size:
            raise ValueError("truncated sketch file: payload too short")
        values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        return DotHashSketch(values=values, dims=size, seed=seed, cardinality=cardinality)
    if kind == "minhash":
        payload = fp.read(8 * size)
        if len(payload) != 8 * size:
            raise ValueError("truncated sketch file: payload too short")
        minima = np.frombuffer(payload, dtype="<u8").astype(np.uint64)
        minima.setflags(write=False)
        return MinHashSketch(minima=minima, k=size, seed=seed, cardinality=cardinality)
    nbytes = (size + 7) // 8
    payload = fp.read(nbytes)
    if len(payload) != nbytes:
        raise ValueError("truncated sketch file: payload too short")
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
