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
    non-cryptographic, and has full 64-bit avalanche.  ``element_ids`` and
    ``slice_ids`` run the same chain for many inputs at once, bit for bit.

Codebook
    Maps an element ``e`` to a d-dimensional vector with entries in
    ``{-1/sqrt(d), +1/sqrt(d)}``.  Sign bits come from a counter-based PRF:
    ``h = splitmix64(splitmix64(seed ^ DOMAIN) ^ e)`` keys the element, and
    block ``j`` of 64 sign bits is ``splitmix64(h + (j+1) * GOLDEN)`` (the
    standard SplitMix64 output stream seeded at ``h``).  Bit ``i`` of block
    ``j`` is coordinate ``64*j + i``, LSB first.  Vectors are recomputed on
    demand in O(d); nothing is ever stored.  No block depends on ``dims``,
    and this is a contract: ``Codebook(seed, d)`` is the first ``d``
    coordinates of ``Codebook(seed, D)`` for every ``D >= d``.

MinwiseFamily
    ``k`` independently keyed 64-bit hash functions for MinHash:
    ``hash_i(e) = splitmix64(key_i ^ e)`` with
    ``key_i = splitmix64(splitmix64(seed ^ DOMAIN) + (i+1) * GOLDEN)``.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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

# Bytes of temporaries that one chunk of a batched computation may hold: the
# text and per-input arrays of one batch of element ids, the looked-up table
# values of one lookup chunk in ``sketches._root_sums``, which lies inside one
# batch of groups whose 256-entry tables fill a quarter of this, and the cap on
# each of the two int64 sums arrays of one seed chunk in ``bounds``.  The one
# sign counter, ``_signed_sums``, takes a row chunk's PRF words and scratch
# in its caller's buffer: twice this for ``sign_sums`` (``_sign_sums_buffer``),
# and this, with the counts, for a batch of sets of ``sketches._unit_sums``;
# it writes the words of the whole row chunk and the scratch of one
# ``_PIECE_BYTES`` piece.  A seed chunk in ``bounds`` takes the most seeds,
# up to the cap, whose ``sign_sums`` buffer counts the largest of its three
# sets in one row chunk (the cap when even one seed's cannot).  The
# Monte-Carlo sampler holds its two arrays, one ``sign_sums`` buffer and one
# int32 array of counts at a time, so its working set is at most about 4.5
# times this, of which at most about 3.75 times is written, whatever the
# number of trials.
_CHUNK_BYTES = 1 << 20

# Bytes of sign words that the sign counter computes in one piece: small
# enough that a piece and its scratch stay in a core's L2 cache through the
# PRF's passes, large enough that each pass's fixed cost is small.  The
# 128,000 words of one chunk of the bounds sweep (100 rows x 40 seeds x 32
# words) took 427-440 us in pieces of 250-500 KiB, against 514-534 us in
# one pass and 553-717 us in pieces of 30-60 KiB (2-vCPU Xeon with 2 MiB
# of L2 per core, numpy 2.4).
_PIECE_BYTES = _CHUNK_BYTES // 4

# Per-input arrays of a batched element-id chain, in bytes per input.
_PER_INPUT_BYTES = 64

# A numpy round of the batched chain costs about as much as this many scalar
# SplitMix64 steps (about 20 us against 1.3 us on a 2-vCPU Xeon with numpy
# 2.4), so once this few chains are still running they are finished one word
# at a time in Python ints.
_SCALAR_TAIL = 16

# Mask of the bytes kept from the word at a slice's end, by length % 8.
_TAIL_MASKS = np.array([_MASK64] + [(1 << (8 * r)) - 1 for r in range(1, 8)], dtype=np.uint64)

# (shift, mask) of the three delta swaps of an 8x8 bit transpose.
_TRANSPOSE8_ROUNDS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def splitmix64(x: int) -> int:
    """SplitMix64: advance by the golden-ratio constant, then finalize."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array (wrapping arithmetic), as a new array."""
    z = np.array(x, dtype=np.uint64)
    _splitmix64_into(z, np.empty_like(z), z)
    return z


def _splitmix64_into(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write splitmix64(x) to `out`, using `x` and `t` (same shape) as scratch."""
    x += _U64_GOLDEN
    _mix64_into(x, t, out)


def _mix64_into(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write SplitMix64's mixing rounds of `x`, the state already advanced, to `out`; `x` and `t` are scratch."""
    for shift, factor in ((30, _U64_C1), (27, _U64_C2)):
        np.right_shift(x, np.uint64(shift), out=t)
        x ^= t
        x *= factor
    np.right_shift(x, np.uint64(31), out=t)
    np.bitwise_xor(x, t, out=out)


def _stream_words(keys: np.ndarray, count: int, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """The first `count` words of the SplitMix64 output stream seeded at each key, shape ``keys.shape + (count,)``.

    Word ``j`` is ``splitmix64(key + (j+1) * GOLDEN)``, computed in place in
    `out` with `scratch` as working space, each a fresh uint64 array when
    not given; `out` is returned and `scratch` is left overwritten.
    SplitMix64's own advance by GOLDEN is folded into the offsets: `out`
    starts as ``key + (j+2) * GOLDEN``, the state splitmix64 mixes, so
    only the mixing rounds make a pass over the words.
    """
    out = np.add(keys[..., None], np.arange(2, count + 2, dtype=np.uint64) * _U64_GOLDEN, out=out)
    _mix64_into(out, np.empty_like(out) if scratch is None else scratch, out)
    return out


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
        # A short last word reads as zero-padded: little-endian, its missing bytes are the high ones.
        state = splitmix64(state ^ int.from_bytes(buf[i : i + 8], "little"))
    return state


def slice_ids(buffer: bytes, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``element_id(buffer[starts[i]:stops[i]])`` for every i, as a uint64 array.

    Runs the documented chain for all slices at once and matches
    :func:`element_id` bit for bit.  Slices are taken longest first, so the
    chains that absorb word ``j`` are a prefix; one round reads their
    ``j``-th words straight from the buffer, through an unaligned
    little-endian view with the bytes past a slice's end masked off its last
    word, and mixes them with a few array operations.  Once at most
    ``_SCALAR_TAIL`` chains are left, they finish in Python ints, so a few
    long inputs cost no numpy call per word.  Memory is O(len(buffer) +
    len(starts)).
    """
    starts = integer_array("starts", starts, np.int64)
    stops = integer_array("stops", stops, np.int64)
    if starts.ndim != 1 or stops.shape != starts.shape:
        raise ValueError("starts and stops must be 1-D arrays of one length")
    lengths = stops - starts
    if starts.size and (starts.min() < 0 or lengths.min() < 0 or stops.max() > len(buffer)):
        raise ValueError("every slice must lie within the buffer")
    data = np.zeros(len(buffer) + 7, dtype=np.uint8)
    data[: len(buffer)] = np.frombuffer(buffer, dtype=np.uint8)
    # words[p] is the little-endian word that starts at byte p.
    words = np.ndarray((len(buffer),), dtype="<u8", buffer=data, strides=(1,))

    nwords = (lengths + 7) // 8
    order = np.argsort(-nwords, kind="stable")
    lengths, pos, stops = lengths[order], starts[order], stops[order]
    state = _splitmix64_np(np.uint64(_ELEMENT_DOMAIN) ^ lengths.astype(np.uint64))
    last = _TAIL_MASKS[lengths % 8]
    # running[j] chains have more than j words: the ones that absorb word j.
    running = (lengths.size - np.cumsum(np.bincount(nwords, minlength=1))).tolist()
    t = np.empty_like(state)
    j = 0
    while running[j] > _SCALAR_TAIL:
        c, ending = running[j], running[j + 1]
        x = words[pos[:c]]
        x[ending:] &= last[ending:c]
        x ^= state[:c]
        _splitmix64_into(x, t[:c], state[:c])
        pos[:c] += 8
        j += 1
    for i in range(running[j]):
        # The words left, read in place; the last one masked as above.
        final = int(pos[i]) + 8 * ((int(stops[i]) - int(pos[i]) - 1) // 8)
        word_state = int(state[i])
        for (word,) in struct.iter_unpack("<Q", data[pos[i] : final]):
            word_state = splitmix64(word_state ^ word)
        state[i] = splitmix64(word_state ^ (int(words[final]) & int(last[i])))
    out = np.empty_like(state)
    out[order] = state
    return out


def element_ids(items: Iterable[bytes | bytearray | memoryview | str]) -> np.ndarray:
    """``element_id`` of every item, as a uint64 array, bit for bit.

    Items are hashed by :func:`slice_ids` in batches of about
    ``_CHUNK_BYTES`` of items and per-item arrays, cut from the cumulative
    item lengths, so the temporaries stay bounded whatever the count.  Each
    item is encoded as :func:`element_id` encodes it.
    """
    items = list(items)
    sizes = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    pieces = [np.empty(0, dtype=np.uint64)]
    for lo, hi in chunk_ranges(sizes + _PER_INPUT_BYTES):
        batch = [item.encode("utf-8") if isinstance(item, str) else bytes(item) for item in items[lo:hi]]
        lengths = np.fromiter(map(len, batch), dtype=np.int64, count=len(batch))
        stops = np.cumsum(lengths)
        pieces.append(slice_ids(b"".join(batch), stops - lengths, stops))
    return np.concatenate(pieces)


def chunk_ranges(costs: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges of items whose costs add up to at most ``_CHUNK_BYTES``.

    Every range holds at least one item, so an item that alone costs more
    than ``_CHUNK_BYTES`` gets a range of its own.
    """
    ends = np.cumsum(costs)
    ranges, lo = [], 0
    while lo < len(ends):
        hi = int(np.searchsorted(ends, ends[lo] - costs[lo] + _CHUNK_BYTES, side="right"))
        ranges.append((lo, max(hi, lo + 1)))
        lo = ranges[-1][1]
    return ranges


def whole(name: str, value: object, minimum: int | None = None) -> int:
    """``value`` as a Python int: the rule of every size, count, seed and index the library takes.

    A bool or anything ``operator.index`` refuses, a float included, raises
    TypeError, and a value below ``minimum`` ValueError, each naming ``name``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be a whole number, got {type(value).__name__}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def u64(name: str, value: object) -> int:
    """:func:`whole` modulo 2**64, as seeds and element ids are taken: -1 is 2**64 - 1."""
    return whole(name, value) & _MASK64


def integer_array(name: str, values: object, dtype: type) -> np.ndarray:
    """``values``, of an integer dtype or empty, as ``dtype``, not copied if it can be; TypeError names ``name``."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise TypeError(f"{name} must be an array of integers, got dtype {values.dtype}")
    return values.astype(dtype, copy=False)


def as_element_array(elements: Iterable[int] | np.ndarray) -> np.ndarray:
    """Element ids as uint64: an :func:`integer_array` modulo 2**64, not copied if it can be, or each by :func:`u64`."""
    if isinstance(elements, np.ndarray) and elements.dtype != object:
        return integer_array("elements", elements, np.uint64)
    return np.fromiter((u64("elements", e) for e in elements), dtype=np.uint64)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array, by one sort and a neighbour mask.

    numpy 2.4 sends ``np.unique`` of integer arrays down a hash path that
    measured about 10x slower than sorting (12.8 ms against 1.1 ms for 60k
    uint64 keys on a 2-vCPU Xeon).
    """
    out = np.sort(values)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _transpose8(x: np.ndarray) -> None:
    """Transpose the 8x8 bit matrix held in every uint64 of ``x``, in place.

    Bit ``8*i + j`` trades places with bit ``8*j + i`` (Hacker's Delight,
    section 7-3), so byte ``j`` of the result holds bit ``j`` of input byte
    ``i`` as its bit ``i``.
    """
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE8_ROUNDS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t


def _byte_columns(rows: Sequence[np.ndarray]) -> np.ndarray:
    """One byte per bit lane of up to 8 rows of packed bits, shape (n, 64 * blocks), uint8.

    Each row is a uint64 array of shape (n, blocks) whose lane ``c`` is bit
    ``c % 64`` of word ``c // 64``; rows past the last are zero.  Bit ``i``
    of output byte ``c`` is lane ``c`` of ``rows[i]``.  Little-endian words
    put lanes 64j+8k..64j+8k+7 in byte k of block j, so each row's bytes are
    shuffled into one word per byte position, byte ``i`` from row ``i``,
    and an 8x8 bit transpose of that word gives each of its lanes a byte.
    """
    n, blocks = rows[0].shape
    # (n, block, byte, row): one uint64 per byte position.
    packed = np.zeros((n, blocks, 8, 8), dtype=np.uint8)
    for i, row in enumerate(rows):
        packed[..., i] = row.astype("<u8", copy=False).view(np.uint8).reshape(n, blocks, 8)
    words = packed.view("<u8").reshape(n, 8 * blocks)
    _transpose8(words)
    return words.view(np.uint8).reshape(n, 64 * blocks)


@dataclass(frozen=True)
class Codebook:
    """Deterministic mapping from element ids to d-dimensional ±1/√d vectors.

    Immutable and pure: every vector is a function of ``(seed, dims, e)``
    only, so codebooks are safe to share across workers.  The seed is kept
    as :func:`u64` takes it, so the sketches of -1 and 2**64 - 1 compare.
    """

    seed: int
    dims: int
    _root: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", whole("dims", self.dims, 1))
        object.__setattr__(self, "seed", u64("seed", self.seed))
        object.__setattr__(self, "_root", splitmix64(self.seed ^ _CODEBOOK_DOMAIN))

    @property
    def blocks(self) -> int:
        return (self.dims + 63) // 64

    def sign_words(
        self, elements: Iterable[int] | np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """Packed PRF output for a batch of elements, shape (n, blocks), uint64.

        Bit ``i`` of word ``j`` is the sign bit of coordinate ``64*j + i``;
        bits at or past ``dims`` in the last word are unused PRF output.
        The words are computed in place by :func:`_stream_words`, in `out`
        with `scratch` as its working array, each a uint64 array of shape
        (n, blocks), fresh when not given; `scratch` is left overwritten.
        """
        keys = _splitmix64_np(np.uint64(self._root) ^ as_element_array(elements))
        return _stream_words(keys, self.blocks, out, scratch)

    def sign_bits(self, elements: Iterable[int] | np.ndarray) -> np.ndarray:
        """Raw sign bits for a batch of elements, shape (n, dims), uint8 in {0, 1}.

        Bit 1 means coordinate +1/sqrt(dims), bit 0 means -1/sqrt(dims).
        """
        return _byte_columns([self.sign_words(elements)])[:, :self.dims]

    def sign_rows(self, elements: Iterable[int] | np.ndarray) -> np.ndarray:
        """Sign matrix for a batch of elements, shape (n, dims), int8 in {-1, +1}."""
        bits = self.sign_bits(elements)
        return (bits.astype(np.int8) << 1) - 1


def sign_sums(seeds: np.ndarray, elements: np.ndarray, dims: int, total: np.ndarray | None = None,
              buffer: np.ndarray | None = None) -> np.ndarray:
    """Column sums of codebook signs over `elements`, per seed.

    Returns an int64 array of shape ``(len(seeds), dims)`` whose row ``s``
    equals ``Codebook(seeds[s], dims).sign_rows(elements).sum(axis=0)``.
    Used by Monte-Carlo sweeps that vary the codebook seed; the per-seed
    result is identical to building sketches one seed at a time.
    :func:`_signed_sums` counts the sums, a seed per column.

    When `total` is given, an int64 array of that shape, the sums are added
    to it in place and it is returned, so the sums of a union of disjoint
    sets can be built up one set at a time in one array.  The PRF words of
    a chunk are computed in `buffer`, a uint64 array of at least ``2 *
    len(seeds) * ceil(dims / 64)`` words, and a chunk takes as many
    elements as it holds; when not given, :func:`_sign_sums_buffer` makes
    one.
    """
    dims = whole("dims", dims, 1)
    seeds = as_element_array(seeds)
    elements = as_element_array(elements)
    n = elements.shape[0]
    roots = _splitmix64_np(seeds ^ np.uint64(_CODEBOOK_DOMAIN))
    if buffer is None:
        buffer = _sign_sums_buffer(seeds.size, n, dims)
    if buffer.size < _row_words(seeds.size, dims):
        raise ValueError(f"buffer of {buffer.size} words holds no element's words")
    if total is None:
        total = np.zeros((seeds.size, dims), dtype=np.int64)
    elif total.shape != (seeds.size, dims) or total.dtype != np.int64:
        raise ValueError(f"total must be an int64 array of shape {(seeds.size, dims)}")
    total += _signed_sums(lambda lo, hi, valid: elements[lo:hi, None], roots, n, dims, np.full(seeds.size, n), buffer)
    return total


def _row_words(cols: int, dims: int) -> int:
    """Buffer words of one row of `cols` keys in :func:`_signed_sums`: its PRF words and their scratch."""
    return 2 * max(1, cols) * ((dims + 63) // 64)


def _sign_sums_rows(seeds: int, dims: int) -> int:
    """Elements whose words under `seeds` seeds fill ``2 * _CHUNK_BYTES``: a :func:`sign_sums` row chunk, or 0."""
    return _CHUNK_BYTES // (4 * _row_words(seeds, dims))


def _sign_sums_buffer(seeds: int, n: int, dims: int) -> np.ndarray:
    """The buffer :func:`sign_sums` makes: the words of as many of `n` elements as :func:`_sign_sums_rows`, or one."""
    return np.empty(max(1, min(n, _sign_sums_rows(seeds, dims))) * _row_words(seeds, dims), dtype=np.uint64)


def _signed_sums(elements_of: Callable[[int, int, np.ndarray], np.ndarray], roots: np.ndarray | np.uint64,
                 rows: int, dims: int, sizes: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """Exact sums of ±1 codebook signs down each column of a grid of elements, shape (len(sizes), dims).

    Column ``c`` holds ``sizes[c]`` elements, at most `rows`.  The ids of
    rows ``lo`` to ``hi - 1``, ``elements_of(lo, hi, valid)``, are padding
    where `valid`, shape ``(hi - lo, len(sizes))``, is False, and each is
    keyed as ``splitmix64(root ^ e)`` under the root it broadcasts against
    in `roots`.  :func:`sign_sums` puts a seed in each column, the
    unit-weight builds of :mod:`dothash.sketches` a set.

    A sum of n signs is ``2 * popcount - n``, and the popcounts are counted
    on the packed PRF words, computed in place, without unpacking them.  A
    carry-save adder tree runs along the rows, one weight at a time, on
    whole arrays of words: full adders turn three words of weight ``2**p``
    into a sum of that weight and a carry of weight ``2**(p+1)``, a half
    adder takes the last two, and the one word left is bit plane ``p``; the
    carries are the words of the next weight.  For m rows that leaves
    ``m.bit_length()`` planes, and only those are turned into integers:
    each 8 planes, as the rows of :func:`_byte_columns`, give one byte of
    every count at once.  Padding words are zeroed, so they add nothing.

    Rows are counted a chunk at a time, as many as `buffer` holds at
    :func:`_row_words` words a row, so the temporaries stay bounded whatever
    `rows` is.  The counts and sums, at most ``2 * rows``, are int32 unless
    that is too few bits.
    """
    step = buffer.size // _row_words(sizes.size, dims)
    counts = np.zeros((sizes.size, dims), dtype=np.int32 if 2 * rows < 2**31 else np.int64)
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        valid = np.arange(lo, hi)[:, None] < sizes
        _add_sign_counts(elements_of(lo, hi, valid) ^ roots, counts, buffer, valid)
    counts *= 2
    counts -= sizes[:, None].astype(counts.dtype)
    return counts


def _add_sign_counts(keys: np.ndarray, counts: np.ndarray, buffer: np.ndarray, valid: np.ndarray) -> None:
    """Add to ``counts[c]`` the sign bits of the codebook keys ``keys[:, c]``, bit for coordinate.

    `keys` holds ``root ^ e``, shape (rows, cols), padding where `valid` is
    False, and `counts` the running popcounts, shape (cols, dims).  The
    keys are mixed in place, and their sign words computed in the first
    half of `buffer`, the padding's zeroed; :func:`_bit_planes` counts them
    along the rows.  The words are computed a range of rows of about
    ``_PIECE_BYTES`` at a time, with the start of the second half as
    scratch, so each piece's passes stay in a core's L2 cache.  Planes
    ``8k .. 8k+7`` go through :func:`_byte_columns` as its 8 rows, zero rows
    past the last plane, and each count adds its byte ``<< 8k``.
    """
    rows, cols = keys.shape
    dims = counts.shape[1]
    blocks = (dims + 63) // 64
    words, scratch = buffer[: 2 * keys.size * blocks].reshape((2,) + keys.shape + (blocks,))
    # The keys splitmix64(root ^ e), mixed with the words' scratch before the words use it.
    _splitmix64_into(keys, scratch.reshape(-1)[: keys.size].reshape(keys.shape), keys)
    padded = not valid.all()
    step = max(1, _PIECE_BYTES // (8 * max(1, cols) * blocks))
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        _stream_words(keys[lo:hi], blocks, words[lo:hi], scratch[: hi - lo])
        if padded:
            words[lo:hi] *= valid[lo:hi, :, None]
    planes = _bit_planes(words)
    for p in range(0, len(planes), 8):
        columns = _byte_columns(planes[p : p + 8])[:, :dims]
        # The first byte is cast as it is added, with no wider temporary.
        counts += np.left_shift(columns, p, dtype=counts.dtype) if p else columns


def _bit_planes(x: np.ndarray) -> list[np.ndarray]:
    """Bit planes of each bit lane's popcount over axis 0 of the uint64 array `x`.

    Plane ``p`` holds bit ``p`` of every lane's count of set bits; the adder
    tree that builds them is described in :func:`_signed_sums`.  `x` is
    overwritten.
    """
    planes = []
    while len(x):
        carries = []
        while len(x) > 2:
            # Full adders on the triples (a, b, c): the sum goes to a, b is
            # scratch, and the words left over move up behind the sums.
            t, rest = divmod(len(x), 3)
            a, b, c = x[:t], x[t : 2 * t], x[2 * t : 3 * t]
            carry = a & b
            a ^= b
            np.bitwise_and(a, c, out=b)
            carry |= b
            a ^= c
            x[t : t + rest] = x[3 * t :]
            x = x[: t + rest]
            carries.append(carry)
        if len(x) == 2:
            carries.append(x[:1] & x[1:])
            x[0] ^= x[1]
        planes.append(x[0])
        x = np.concatenate(carries) if carries else x[:0]
    return planes


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
        object.__setattr__(self, "k", whole("k", self.k, 1))
        object.__setattr__(self, "seed", u64("seed", self.seed))
        keys = _stream_words(np.uint64(splitmix64(self.seed ^ _MINWISE_DOMAIN)), self.k)
        keys.setflags(write=False)
        object.__setattr__(self, "_keys", keys)

    def value(self, i: int, element: int) -> int:
        """64-bit hash of `element` under function `i`."""
        if whole("i", i, 0) >= self.k:
            raise ValueError("hash index exceeds family size")
        return splitmix64(int(self._keys[i]) ^ u64("element", element))

    def rows(
        self, elements: Iterable[int] | np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """Hash values for a batch of n elements, shape (n, k), uint64.

        The values are computed in place: ``key ^ element`` is written to
        `out`, then mixed by :func:`_splitmix64_into` with `scratch` as its
        working array.  Each is a uint64 array of shape (n, k), a fresh one
        when not given, so a caller that hashes many batches can reuse two
        buffers; `out` is returned and `scratch` is left overwritten.
        """
        out = np.bitwise_xor(as_element_array(elements)[:, None], self._keys[None, :], out=out)
        _splitmix64_into(out, np.empty_like(out) if scratch is None else scratch, out)
        return out
