"""Deterministic element encodings shared by all sketch estimators.

Everything in this module is a pure function of 64-bit integers, so sketches
are bit-reproducible across runs, machines, and concurrent workers.  The
constructions are:

element_id
    Arbitrary bytes are folded into a 64-bit identifier with a chunked
    SplitMix64 chain: the state starts at ``splitmix64(DOMAIN ^ length)``
    and absorbs the input in 8-byte little-endian words (the final word is
    zero-padded), ``state = splitmix64(state ^ word)``.  SplitMix64 is the
    public-domain mixing function of Steele, Lea and Flood; it is fast,
    non-cryptographic, and has full 64-bit avalanche.

Codebook
    Maps an element ``e`` to a d-dimensional vector with entries in
    ``{-1/sqrt(d), +1/sqrt(d)}``.  Sign bits come from a counter-based PRF:
    ``h = splitmix64(splitmix64(seed ^ DOMAIN) ^ e)`` keys the element, and
    block ``j`` of 64 sign bits is ``splitmix64(h + (j+1) * GOLDEN)`` (the
    standard SplitMix64 output stream seeded at ``h``).  Bit ``i`` of block
    ``j`` is coordinate ``64*j + i``, LSB first.  Vectors are recomputed on
    demand in O(d); nothing is ever stored.

MinwiseFamily
    ``k`` independently keyed 64-bit hash functions for MinHash:
    ``hash_i(e) = splitmix64(key_i ^ e)`` with
    ``key_i = splitmix64(splitmix64(seed ^ DOMAIN) + (i+1) * GOLDEN)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Domain separators so the three constructions never share key streams.
_ELEMENT_DOMAIN = 0x6B1D0A5F8C3E7142
_CODEBOOK_DOMAIN = 0xC0DEB00C1752A9D3
_MINWISE_DOMAIN = 0x4D17B7A5E6F0C821

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_C1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_C2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: int) -> int:
    """SplitMix64: advance by the golden-ratio constant, then finalize."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array (wrapping arithmetic)."""
    z = x + _U64_GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _U64_C1
    z = (z ^ (z >> np.uint64(27))) * _U64_C2
    return z ^ (z >> np.uint64(31))


def element_id(data: bytes | bytearray | memoryview | str) -> int:
    """Hash a byte sequence (or UTF-8 text) to a stable 64-bit element id.

    The digest is the chunked SplitMix64 chain documented in the module
    docstring.  Identical inputs always produce identical ids; distinct
    inputs collide with probability about 2**-64.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    buf = bytes(data)
    state = splitmix64(_ELEMENT_DOMAIN ^ len(buf))
    for i in range(0, len(buf), 8):
        chunk = buf[i : i + 8]
        if len(chunk) < 8:
            chunk = chunk + b"\x00" * (8 - len(chunk))
        word = int.from_bytes(chunk, "little")
        state = splitmix64(state ^ word)
    return state


def as_element_array(elements: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce element ids to a uint64 array without copying when possible."""
    if isinstance(elements, np.ndarray):
        return elements.astype(np.uint64, copy=False)
    return np.fromiter((e & _MASK64 for e in elements), dtype=np.uint64)


def _bits_from_words(words: np.ndarray, dims: int) -> np.ndarray:
    """Unpack uint64 blocks (last axis) into `dims` sign bits, LSB first."""
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        words = words.byteswap()
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    as_bytes = as_bytes.reshape(words.shape[:-1] + (words.shape[-1] * 8,))
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :dims]


@dataclass(frozen=True)
class Codebook:
    """Deterministic mapping from element ids to d-dimensional ±1/√d vectors.

    Immutable and pure: every vector is a function of ``(seed, dims, e)``
    only, so codebooks are safe to share across workers.
    """

    seed: int
    dims: int
    _root: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError("codebook dims must be >= 1")
        object.__setattr__(self, "_root", splitmix64((self.seed & _MASK64) ^ _CODEBOOK_DOMAIN))

    @property
    def blocks(self) -> int:
        return (self.dims + 63) // 64

    def _element_keys(self, elements: np.ndarray) -> np.ndarray:
        return _splitmix64_np(np.uint64(self._root) ^ elements)

    def sign_words(self, elements: Iterable[int] | np.ndarray) -> np.ndarray:
        """Packed PRF output for a batch of elements, shape (n, blocks), uint64.

        Bit ``i`` of word ``j`` is the sign bit of coordinate ``64*j + i``;
        bits at or past ``dims`` in the last word are unused PRF output.
        """
        arr = as_element_array(elements)
        offsets = (np.arange(1, self.blocks + 1, dtype=np.uint64)) * _U64_GOLDEN
        keys = self._element_keys(arr)[:, None] + offsets[None, :]
        return _splitmix64_np(keys)

    def sign_bits(self, elements: Iterable[int] | np.ndarray) -> np.ndarray:
        """Raw sign bits for a batch of elements, shape (n, dims), uint8 in {0, 1}.

        Bit 1 means coordinate +1/sqrt(dims), bit 0 means -1/sqrt(dims).
        """
        return _bits_from_words(self.sign_words(elements), self.dims)

    def sign_rows(self, elements: Iterable[int] | np.ndarray) -> np.ndarray:
        """Sign matrix for a batch of elements, shape (n, dims), int8 in {-1, +1}."""
        bits = self.sign_bits(elements)
        return (bits.astype(np.int8) << 1) - 1

    def vector_of(self, element: int) -> np.ndarray:
        """The element's codebook vector: dims entries in {-1/√d, +1/√d}."""
        signs = self.sign_rows(np.array([element], dtype=np.uint64))[0]
        return signs.astype(np.float64) / np.sqrt(self.dims)


def sign_sums(seeds: np.ndarray, elements: np.ndarray, dims: int) -> np.ndarray:
    """Column sums of codebook signs over `elements`, per seed.

    Returns an int64 array of shape ``(len(seeds), dims)`` whose row ``s``
    equals ``Codebook(seeds[s], dims).sign_rows(elements).sum(axis=0)``.
    Used by Monte-Carlo sweeps that vary the codebook seed; the per-seed
    result is identical to building sketches one seed at a time.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    elements = as_element_array(elements)
    n = elements.shape[0]
    roots = _splitmix64_np(seeds ^ np.uint64(_CODEBOOK_DOMAIN))
    keys = _splitmix64_np(roots[:, None] ^ elements[None, :])
    blocks = (dims + 63) // 64
    offsets = np.arange(1, blocks + 1, dtype=np.uint64) * _U64_GOLDEN
    words = _splitmix64_np(keys[:, :, None] + offsets[None, None, :])
    bits = _bits_from_words(words, dims)
    # sum of (2*bit - 1) over elements = 2 * popcount - n.  A popcount is at
    # most n, so int32 counts are exact; they measured about 45% faster than
    # int64 counts, whose speed also swung by 10% with where the allocator
    # happened to place `bits`.
    count = np.int32 if n < 2**31 else np.int64
    return 2 * bits.sum(axis=1, dtype=count).astype(np.int64) - n


@dataclass(frozen=True)
class MinwiseFamily:
    """A family of k independently keyed 64-bit hash functions.

    The practical stand-in for min-wise independence: each function is a
    full-avalanche mix of the element id under its own 64-bit key.
    """

    seed: int
    k: int
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("minwise family size k must be >= 1")
        root = np.uint64(splitmix64((self.seed & _MASK64) ^ _MINWISE_DOMAIN))
        offsets = np.arange(1, self.k + 1, dtype=np.uint64) * _U64_GOLDEN
        keys = _splitmix64_np(root + offsets)
        keys.setflags(write=False)
        object.__setattr__(self, "_keys", keys)

    def value(self, i: int, element: int) -> int:
        """64-bit hash of `element` under function `i`."""
        if not 0 <= i < self.k:
            raise ValueError("hash index exceeds family size")
        return splitmix64(int(self._keys[i]) ^ (element & _MASK64))

    def rows(self, elements: Iterable[int] | np.ndarray) -> np.ndarray:
        """Hash values for a batch of elements, shape (n, k), uint64."""
        arr = as_element_array(elements)
        return _splitmix64_np(self._keys[None, :] ^ arr[:, None])
