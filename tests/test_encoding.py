"""Tests for the element hash, codebook PRF, and minwise hash family."""

import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dothash import encoding, sketches
from dothash.encoding import (
    _CHUNK_BYTES,
    _ELEMENT_DOMAIN,
    Codebook,
    MinwiseFamily,
    _byte_columns,
    _splitmix64_np,
    _stream_words,
    element_id,
    element_ids,
    sign_sums,
    slice_ids,
    sorted_distinct,
    splitmix64,
)
from dothash.sketches import dothash_build, simhash_build

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def reference_chain(data: bytes | bytearray | memoryview | str) -> int:
    """The documented element-id chain, one word at a time in Python ints."""
    data = data.encode("utf-8") if isinstance(data, str) else bytes(data)
    state = splitmix64(_ELEMENT_DOMAIN ^ len(data))
    padded = data + bytes(-len(data) % 8)
    for i in range(0, len(padded), 8):
        state = splitmix64(state ^ int.from_bytes(padded[i : i + 8], "little"))
    return state


# Lengths around the word size, plus longer strings, bytes and non-ASCII text.
edge_bytes = st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 24]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
items = st.one_of(
    edge_bytes,
    st.binary(max_size=80),
    st.text(max_size=30),
    st.text(alphabet="é数\U0001f600a ", max_size=12),
    st.binary(max_size=20).map(bytearray),
    st.binary(max_size=20).map(memoryview),
)


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs of the reference SplitMix64 generator seeded at 0.
        golden = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(golden) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * golden) & ((1 << 64) - 1)) == 0x06C45D188009454F

    @given(U64)
    def test_vectorized_matches_scalar(self, x):
        arr = np.array([x], dtype=np.uint64)
        assert int(_splitmix64_np(arr)[0]) == splitmix64(x)

    @given(st.lists(U64, min_size=1, max_size=50))
    def test_vectorized_batch(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        out = _splitmix64_np(arr)
        assert [int(v) for v in out] == [splitmix64(x) for x in xs]


GOLDEN = 0x9E3779B97F4A7C15
# 0, the top key, and keys whose offsets key + (j+1) * GOLDEN, and the
# folded key + (j+2) * GOLDEN, wrap past 2**64 within the first words.
STREAM_KEYS = [0, 1, 2**64 - 1, 2**64 - GOLDEN, 2**64 - 2 * GOLDEN % 2**64, 2**63, 2**64 - 3 * GOLDEN % 2**64 + 5]


def reference_stream(key: int, count: int) -> list[int]:
    """The SplitMix64 output stream seeded at `key`, one word at a time in Python ints."""
    return [splitmix64((key + (j + 1) * GOLDEN) % 2**64) for j in range(count)]


class TestStreamWords:
    @pytest.mark.parametrize("key", STREAM_KEYS)
    def test_a_0d_key(self, key):
        # MinwiseFamily keys its hash functions with the stream of a 0-d key.
        words = _stream_words(np.uint64(key), 5)
        assert words.shape == (5,) and words.tolist() == reference_stream(key, 5)

    @pytest.mark.parametrize("count", [1, 2, 33])
    def test_a_1d_batch(self, count):
        words = _stream_words(np.array(STREAM_KEYS, dtype=np.uint64), count)
        assert words.shape == (len(STREAM_KEYS), count)
        assert words.tolist() == [reference_stream(key, count) for key in STREAM_KEYS]

    def test_a_2d_batch_in_given_arrays(self):
        keys = np.array(STREAM_KEYS[:6], dtype=np.uint64).reshape(2, 3)
        out, scratch = np.empty((2, 3, 4), dtype=np.uint64), np.empty((2, 3, 4), dtype=np.uint64)
        assert _stream_words(keys, 4, out, scratch) is out
        assert out.tolist() == [[reference_stream(key, 4) for key in row] for row in keys.tolist()]

    @pytest.mark.parametrize("dims", [1, 65, 130, 2048])
    def test_sign_sums_in_one_row_pieces(self, monkeypatch, dims):
        # The sign counter computes its words a piece of rows at a time;
        # pieces of one row must give the same sums as the default pieces.
        seeds = np.array([3, 2**64 - 1, 12345], dtype=np.uint64)
        elements = _splitmix64_np(np.arange(300, dtype=np.uint64))
        whole = sign_sums(seeds, elements, dims)
        pieces, stream = [], encoding._stream_words

        def spy(keys, *args):
            pieces.append(keys.shape[0])
            return stream(keys, *args)

        monkeypatch.setattr(encoding, "_PIECE_BYTES", 1)
        monkeypatch.setattr(encoding, "_stream_words", spy)
        assert np.array_equal(sign_sums(seeds, elements, dims), whole)
        assert pieces == [1] * 300
        assert np.array_equal(whole, reference_sign_sums(seeds, elements, dims))


class TestElementId:
    @given(st.binary(max_size=64))
    def test_deterministic(self, data):
        assert element_id(data) == element_id(data)

    def test_empty_input_is_fixed_constant(self):
        assert element_id(b"") == element_id(b"")
        assert 0 <= element_id(b"") < (1 << 64)

    def test_str_matches_utf8_bytes(self):
        assert element_id("héllo") == element_id("héllo".encode("utf-8"))

    def test_padding_does_not_alias(self):
        assert element_id(b"ab") != element_id(b"ab\x00")
        assert element_id(b"") != element_id(b"\x00" * 8)

    def test_neighbor_strings_differ(self):
        assert element_id(b"abc") != element_id(b"abd")

    def test_no_collisions_on_million_random_strings(self):
        rng = np.random.default_rng(42)
        letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
        chars = letters[rng.integers(0, len(letters), size=(1_000_000, 16))]
        seen = set()
        for row in chars:
            seen.add(element_id(row.tobytes()))
        # distinct inputs only: 16 random chars repeat with negligible probability,
        # so any shortfall here would be a hash collision
        distinct_inputs = len({row.tobytes() for row in chars})
        assert len(seen) == distinct_inputs


class TestElementIds:
    @given(st.lists(items, max_size=40))
    @settings(max_examples=200)
    def test_matches_scalar_chain(self, batch):
        # Repeated 17 times, the batch also runs the array rounds, not only
        # the scalar finish that takes over once 16 chains are left.
        for run in (batch, batch * 17):
            assert element_ids(run).tolist() == [reference_chain(x) for x in run]

    @given(st.lists(items, max_size=40), st.sampled_from([1, 70, 300, 2000]))
    @settings(max_examples=100)
    def test_any_batch_cut_matches_scalar_chain(self, batch, chunk_bytes):
        # Small chunks cut the items into many batches, some of text only,
        # ASCII or not, and some mixed with bytes.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
            ids = element_ids(iter(batch)).tolist()
        assert ids == [reference_chain(x) for x in batch]

    def test_empty_batch(self):
        ids = element_ids([])
        assert ids.dtype == np.uint64 and ids.size == 0

    @pytest.mark.parametrize("length", [0, 7, 8, 9, 16])
    def test_word_boundary_lengths(self, length):
        rng = np.random.default_rng(length)
        batch = [rng.bytes(length) for _ in range(40)]
        assert element_ids(batch).tolist() == [element_id(x) for x in batch]

    def test_str_and_bytes_agree(self):
        batch = ["héllo", "héllo".encode("utf-8"), "数字", "", b"", "a" * 9]
        ids = element_ids(batch * 5).tolist()
        assert ids == [element_id(x) for x in batch * 5]
        assert ids[0] == ids[1] and ids[3] == ids[4]

    def test_batches_larger_than_one_chunk(self):
        tokens = [f"tok-{i:016x}" for i in range(40_000)]
        assert element_ids(tokens).tolist() == [element_id(t) for t in tokens]

    def test_one_mebibyte_token_among_short_ones(self):
        big = np.random.default_rng(3).bytes((1 << 20) + 5)
        batch = ["a", big, b"12345678", "tok"] * 2 + [f"t{i}" for i in range(30)]
        assert element_ids(batch).tolist() == [element_id(x) for x in batch]

    def test_one_mebibyte_token_costs_about_one_scalar_chain(self):
        # Finishing the long chain one array round per word took 10x the
        # scalar time; the Python-int finish makes it about 1x.
        big = np.random.default_rng(4).bytes(1 << 20)

        def best(fn):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(lambda: element_ids([big])) < 3 * best(lambda: element_id(big))

    def test_slices_of_one_buffer(self):
        buffer = "the quick brown fox — jumps".encode("utf-8")
        end = len(buffer)
        starts = np.array([0, 4, 10, 0, end, 16])
        stops = np.array([3, 9, 19, end, end, end])
        expected = [element_id(buffer[a:b]) for a, b in zip(starts, stops)]
        assert slice_ids(buffer, starts, stops).tolist() == expected

    @pytest.mark.parametrize("starts, stops", [([0], [40]), ([-1], [2]), ([3], [2]), ([0, 1], [2])])
    def test_slices_outside_the_buffer_rejected(self, starts, stops):
        with pytest.raises(ValueError):
            slice_ids(b"x" * 31, np.array(starts), np.array(stops))

    def test_hashing_many_tokens_adds_bounded_memory(self, added_peak_rss):
        # 200k 20-byte tokens: the ids are 1.6 MiB.  Batches of about 1 MiB
        # added 6 MiB in all; one batch of every token at once added 42 MiB.
        added = added_peak_rss(
            "tokens = [f'tok-{i:016x}' for i in range(200_000)]",
            "ids = element_ids(tokens)",
        )
        assert added < 12 * 2**20, f"hashing added {added / 2**20:.1f} MiB of peak RSS"

    @pytest.mark.parametrize("count, line", [
        pytest.param(400_000, lambda i: f"{i % 16:x}\n", id="LF-1-400000"),
        pytest.param(400_000, lambda i: f"{i % 16:x}\r", id="CR-1-400000"),
        pytest.param(200_000, lambda i: f"{i:020x}\n", id="LF-20-200000"),
        pytest.param(200_000, lambda i: f"{i:020x}\r", id="CR-20-200000"),
        pytest.param(200_000, lambda i: f"\u00e9{i:019x}\n", id="non-ascii"),
        pytest.param(200_000, lambda i: f" {i:019x}\n", id="leading-space"),
        # One line of three windows among 20-byte lines.
        pytest.param(200_000, lambda i: "x" * (3 << 18) + "\n" if i == 100_000 else f"{i:020x}\n",
                     id="long-line"),
    ])
    def test_reading_many_tokens_adds_bounded_memory(self, added_peak_rss, tmp_path, count, line):
        # Token files for the sketch command, read a window of at most 256
        # KiB and 16k lines at a time: each added under 11 MiB, with the
        # bytes and the ids.  Windows of 256 KiB cut only after a LF added
        # 19 MiB for the one-byte LF tokens (131k lines a window) and 31 and
        # 46 MiB for the CR files (one window); decoding the whole file when
        # any window needed it added 33 MiB for the non-ASCII tokens and 45
        # MiB for the leading spaces.
        path = tmp_path / "tokens.txt"
        with path.open("w", encoding="utf-8", newline="") as fp:
            fp.writelines(map(line, range(count)))
        added = added_peak_rss("from dothash.cli import _read_elements", f"ids = _read_elements({str(path)!r})")
        assert added < 12 * 2**20, f"reading added {added / 2**20:.1f} MiB of peak RSS"


class TestSortedDistinct:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.uint64),
            np.array([], dtype=np.int64),
            np.full(100, 7, dtype=np.uint64),
            np.array([2**64 - 1, 0, 2**64 - 2, 2**64 - 1, 2**63], dtype=np.uint64),
            np.array([-3, 5, -3, 0, 2**62], dtype=np.int64),
        ],
    )
    def test_equals_np_unique(self, values):
        got, want = sorted_distinct(values), np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.lists(U64, max_size=200), st.integers(min_value=0, max_value=3))
    def test_equals_np_unique_on_random_uint64(self, xs, repeats):
        values = np.array(xs * (repeats + 1), dtype=np.uint64)
        assert np.array_equal(sorted_distinct(values), np.unique(values))


def _vector(cb: Codebook, element: int) -> np.ndarray:
    """The element's codebook vector: dims entries in {-1/√d, +1/√d}."""
    return cb.sign_rows([element])[0] / np.sqrt(cb.dims)


class TestCodebook:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            Codebook(seed=0, dims=0)

    def test_entries_at_dims_4(self):
        cb = Codebook(seed=3, dims=4)
        for e in (0, 1, 99, 2**63):
            assert set(np.abs(_vector(cb, e))) == {0.5}

    @given(U64, st.integers(min_value=1, max_value=300))
    @settings(max_examples=50)
    def test_vector_is_pure_function(self, e, dims):
        cb1 = Codebook(seed=11, dims=dims)
        cb2 = Codebook(seed=11, dims=dims)
        assert np.array_equal(_vector(cb1, e), _vector(cb2, e))

    @pytest.mark.parametrize("dims", [1, 4, 63, 64, 65, 500, 1024])
    def test_unit_norm(self, dims):
        cb = Codebook(seed=8, dims=dims)
        for e in (0, 7, 123456789):
            assert abs(np.linalg.norm(_vector(cb, e)) - 1.0) < 1e-10

    def test_sign_rows_match_single_element_rows(self):
        cb = Codebook(seed=5, dims=130)
        elements = np.array([3, 9, 2**40], dtype=np.uint64)
        rows = cb.sign_rows(elements)
        for row, e in zip(rows, elements):
            assert np.array_equal(row, cb.sign_rows([int(e)])[0])

    def test_cross_element_dot_mean_near_zero(self):
        # E[psi(a) . psi(b)] = 0 for a != b: averaged over 10^5 disjoint pairs
        # at d=1024, the mean is within 3 / sqrt(d * 10^5) of zero.
        dims, n_pairs = 1024, 100_000
        cb = Codebook(seed=99, dims=dims)
        total = 0.0
        chunk = 10_000
        for start in range(0, n_pairs, chunk):
            ids = np.arange(2 * start, 2 * (start + chunk), dtype=np.uint64)
            signs = cb.sign_rows(ids).astype(np.float64)
            dots = (signs[0::2] * signs[1::2]).sum(axis=1) / dims
            total += dots.sum()
        mean = total / n_pairs
        assert abs(mean) <= 3.0 / np.sqrt(dims * n_pairs)

    def test_sign_balance_per_coordinate(self):
        # each coordinate's mean sign over 10^5 elements is within 4/sqrt(10^5) of 0
        dims, n = 256, 100_000
        cb = Codebook(seed=17, dims=dims)
        sums = np.zeros(dims, dtype=np.int64)
        chunk = 20_000
        for start in range(0, n, chunk):
            ids = np.arange(start, start + chunk, dtype=np.uint64)
            sums += cb.sign_rows(ids).astype(np.int64).sum(axis=0)
        means = sums / n
        assert np.all(np.abs(means) <= 4.0 / np.sqrt(n))

    def test_different_seeds_give_different_vectors(self):
        # no full-vector collision across seeds in 10^4 trials at d=64
        dims, trials = 64, 10_000
        a = Codebook(seed=1, dims=dims)
        b = Codebook(seed=2, dims=dims)
        ids = np.arange(trials, dtype=np.uint64)
        bits_a = a.sign_bits(ids)
        bits_b = b.sign_bits(ids)
        assert not np.any(np.all(bits_a == bits_b, axis=1))

    def test_sign_sums_matches_per_seed_codebooks(self):
        elements = np.array([5, 17, 90, 2**50], dtype=np.uint64)
        seeds = np.array([0, 1, 42], dtype=np.uint64)
        batched = sign_sums(seeds, elements, dims=100)
        for row, seed in zip(batched, seeds):
            cb = Codebook(seed=int(seed), dims=100)
            expected = cb.sign_rows(elements).astype(np.int64).sum(axis=0)
            assert np.array_equal(row, expected)


def reference_sign_sums(seeds: np.ndarray, elements: np.ndarray, dims: int) -> np.ndarray:
    """Every sign bit unpacked from the codebook words, then summed as ±1."""
    out = np.empty((len(seeds), dims), dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for row, seed in zip(out, seeds):
        words = Codebook(seed=int(seed), dims=dims).sign_words(elements)
        bits = ((words[:, :, None] >> shifts) & np.uint64(1)).reshape(len(elements), 64 * words.shape[1])
        row[:] = (2 * bits[:, :dims].astype(np.int64) - 1).sum(axis=0)
    return out


# Element counts at and around powers of two, where the adder tree gains a
# bit plane; the chunk sizes below cut the larger ones into several chunks.
TREE_SIZES = [0, 1, 2, 3] + [n for k in (2, 3, 5, 6, 8, 10) for n in (2**k - 1, 2**k, 2**k + 1)]
SEEDS_NEAR_TOP = st.integers(min_value=(1 << 64) - 4, max_value=(1 << 64) - 1)


class TestSignSums:
    @given(
        n=st.sampled_from(TREE_SIZES),
        dims=st.sampled_from([1, 63, 64, 65]) | st.integers(min_value=1, max_value=300),
        seeds=st.lists(SEEDS_NEAR_TOP | U64, min_size=1, max_size=3),
        chunk_bytes=st.sampled_from([1024, 8192, _CHUNK_BYTES]),
        element_seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_adder_tree_matches_unpacked_sum(self, n, dims, seeds, chunk_bytes, element_seed):
        elements = np.random.default_rng(element_seed).integers(0, 2**64, size=n, dtype=np.uint64)
        seeds = np.array(seeds, dtype=np.uint64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "_CHUNK_BYTES", chunk_bytes)
            sums = sign_sums(seeds, elements, dims)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, reference_sign_sums(seeds, elements, dims))

    def test_no_seeds(self):
        assert sign_sums(np.array([], dtype=np.uint64), np.arange(5), 70).shape == (0, 70)

    def test_adds_to_a_given_total_through_a_given_buffer(self):
        # At d = 70 an element takes 2 seeds * 2 blocks * 2 words; the buffer
        # holds 7 elements, so 30 elements are counted in 5 chunks.
        seeds = np.array([3, 2**64 - 1], dtype=np.uint64)
        elements = np.arange(50, dtype=np.uint64)
        total = sign_sums(seeds, elements[:20], 70)
        assert sign_sums(seeds, elements[20:], 70, total, np.empty(56, dtype=np.uint64)) is total
        assert np.array_equal(total, reference_sign_sums(seeds, elements, 70))

    @pytest.mark.parametrize("total, buffer", [
        (None, np.empty(7, dtype=np.uint64)),
        (np.zeros((2, 70), dtype=np.int32), None),
        (np.zeros((2, 69), dtype=np.int64), None),
    ])
    def test_rejects_a_total_or_buffer_that_does_not_fit(self, total, buffer):
        with pytest.raises(ValueError):
            sign_sums(np.array([3, 4], dtype=np.uint64), np.arange(5), 70, total, buffer)

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            sign_sums(np.array([1], dtype=np.uint64), np.arange(5), 0)

    def test_seeds_are_taken_modulo_2_to_the_64(self):
        # As Codebook takes them: a list holding -1 once raised OverflowError.
        elements = np.array([5, 17, 2**63, 2**64 - 1], dtype=np.uint64)
        top = sign_sums(np.array([2**64 - 1], dtype=np.uint64), elements, 70)
        assert np.array_equal(top, reference_sign_sums(np.array([2**64 - 1], dtype=np.uint64), elements, 70))
        for seeds in ([-1], np.array([-1]), [np.int64(-1)], [2**64 - 1]):
            assert np.array_equal(sign_sums(seeds, elements, 70), top)
        assert np.array_equal(sign_sums([2**64, -2**64], elements, 70), sign_sums([0, 0], elements, 70))

    @given(seed=SEEDS_NEAR_TOP | U64, dims=st.integers(min_value=1, max_value=300),
           extra=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_codebook_prefix_property(self, seed, dims, extra):
        # Codebook(s, d) is the first d coordinates of Codebook(s, D), D >= d.
        elements = np.array([0, 1, 12345, 2**64 - 1], dtype=np.uint64)
        small = Codebook(seed=seed, dims=dims).sign_bits(elements)
        large = Codebook(seed=seed, dims=dims + extra).sign_bits(elements)
        assert np.array_equal(small, large[:, :dims])


def reference_byte_columns(rows: list[np.ndarray], lanes: int) -> np.ndarray:
    """Bit i of byte c is bit c % 64 of word c // 64 of rows[i], one bit at a time."""
    n = rows[0].shape[0]
    out = np.zeros((n, lanes), dtype=np.uint8)
    for r in range(n):
        for c in range(lanes):
            for i, row in enumerate(rows):
                out[r, c] |= ((int(row[r, c // 64]) >> (c % 64)) & 1) << i
    return out


class TestByteColumns:
    @given(
        n=st.integers(min_value=1, max_value=3),
        lanes=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130]) | st.integers(min_value=1, max_value=200),
        nrows=st.integers(min_value=1, max_value=8),
        fill=st.sampled_from(["random", "zeros", "ones"]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, n, lanes, nrows, fill, seed):
        blocks = (lanes + 63) // 64
        shape = (nrows, n, blocks)
        words = {
            "random": np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64),
            "zeros": np.zeros(shape, dtype=np.uint64),
            "ones": np.full(shape, 2**64 - 1, dtype=np.uint64),
        }[fill]
        out = _byte_columns(list(words))
        assert out.shape == (n, 64 * blocks) and out.dtype == np.uint8
        assert np.array_equal(out[:, :lanes], reference_byte_columns(list(words), lanes))

    def test_rows_as_strided_views_of_one_array(self):
        # The weighted build passes a group's (n, 8, blocks) words as 8 strided rows.
        words = np.random.default_rng(5).integers(0, 2**64, size=(3, 8, 2), dtype=np.uint64)
        rows = words.transpose(1, 0, 2)
        assert np.array_equal(_byte_columns(rows), _byte_columns([row.copy() for row in rows]))
        assert np.array_equal(_byte_columns(rows), reference_byte_columns(list(rows), 128))


def _chunked_reference_sign_sums(seeds: np.ndarray, elements: np.ndarray, dims: int) -> np.ndarray:
    """reference_sign_sums over consecutive element slices, added: the same sums in bounded memory."""
    return sum(reference_sign_sums(seeds, elements[lo : lo + 8192], dims) for lo in range(0, len(elements), 8192))


class TestThreeByteCounts:
    """Counts past 65,535: 17 or more bit planes, so a third byte of every count."""

    SEED = 3

    @staticmethod
    def positive_at_both_ends(dims: int, n: int = 70_000) -> np.ndarray:
        """n distinct elements whose signs at coordinates 0 and dims - 1 are all +1.

        Those two coordinates then count every element, past 65,535, where
        random signs count only about half of them.
        """
        pool = _splitmix64_np(np.arange(8 * n, dtype=np.uint64))  # distinct: splitmix64 is a bijection
        words = Codebook(seed=TestThreeByteCounts.SEED, dims=dims).sign_words(pool)
        last = np.uint64(dims - 1)
        keep = (words[:, 0] & np.uint64(1)) & (words[:, (dims - 1) // 64] >> (last % np.uint64(64)))
        return pool[(keep & np.uint64(1)).astype(bool)][:n]

    @pytest.mark.parametrize("dims", [1, 8, 64, 65])
    def test_sign_sums(self, dims, counted_rows):
        elements = self.positive_at_both_ends(dims)
        seeds = np.array([self.SEED], dtype=np.uint64)
        sums = sign_sums(seeds, elements, dims)
        assert max(counted_rows) > 65_535
        assert sums[0, 0] == sums[0, -1] == elements.size == 70_000
        assert np.array_equal(sums, _chunked_reference_sign_sums(seeds, elements, dims))

    @pytest.mark.parametrize("dims", [1, 8, 64, 65])
    def test_unit_builds(self, dims, counted_rows):
        elements = self.positive_at_both_ends(dims)
        expected = _chunked_reference_sign_sums(np.array([self.SEED], dtype=np.uint64), elements, dims)[0]
        cb = Codebook(seed=self.SEED, dims=dims)
        assert np.array_equal(dothash_build(cb, elements).values, expected / np.sqrt(dims))
        assert np.array_equal(simhash_build(cb, elements).bits, np.packbits(expected > 0, bitorder="little"))
        # A batch's words and scratch fill _CHUNK_BYTES, so past 64 dims a
        # chunk holds 32,768 rows and only the sum of chunks passes 65,535.
        assert max(counted_rows) > (65_535 if dims <= 64 else 32_767)


@pytest.mark.parametrize("chunk_bytes", [1024, 8192])
@pytest.mark.parametrize("dims", [1, 63, 64, 65, 130])
def test_both_callers_of_the_sign_counter_match_the_unpacked_sum(monkeypatch, dims, chunk_bytes):
    # One set of each of TREE_SIZES: sign_sums of the set under its one seed,
    # the unit-sum row of the set counted in one batch build of them all, and
    # the unpacked reference must agree exactly.  Small chunks make both
    # callers count the longest sets in several row chunks, and batch small
    # sets of unequal size together, padded.
    calls = []  # (caller, the column sizes, the rows of each chunk)
    signed_sums, add_sign_counts = encoding._signed_sums, encoding._add_sign_counts

    def driver(caller):
        def spy(*args):
            calls.append((caller, args[4].tolist(), []))
            return signed_sums(*args)
        return spy

    def count(keys, *args):
        calls[-1][2].append(keys.shape[0])
        return add_sign_counts(keys, *args)

    for module in (encoding, sketches):
        monkeypatch.setattr(module, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(encoding, "_signed_sums", driver("sign_sums"))
    monkeypatch.setattr(sketches, "_signed_sums", driver("unit_sums"))
    monkeypatch.setattr(encoding, "_add_sign_counts", count)
    seed = int(np.random.default_rng(dims).integers(0, 2**63)) * 2 + 1
    indptr = np.cumsum([0] + TREE_SIZES)
    elements = _splitmix64_np(np.arange(indptr[-1], dtype=np.uint64) + np.uint64(dims))  # distinct
    unit = {}
    for sets, sums in sketches._unit_sums(Codebook(seed=seed, dims=dims), *sketches.distinct_sets(indptr, elements)):
        unit.update(zip(sets.tolist(), sums))
    for s, n in enumerate(TREE_SIZES):
        members = elements[indptr[s] : indptr[s + 1]]
        expected = reference_sign_sums(np.array([seed], dtype=np.uint64), members, dims)[0]
        assert np.array_equal(sign_sums([seed], members, dims)[0], expected)
        assert np.array_equal(unit[s], expected) if n else s not in unit
    for caller in ("sign_sums", "unit_sums"):
        assert max(len(rows) for who, _, rows in calls if who == caller) > 1
    if chunk_bytes == 8192:  # at 1024 bytes and d = 130 no two sets fit one batch
        assert any(len(set(sizes)) > 1 for who, sizes, _ in calls if who == "unit_sums")


class TestMinwiseFamily:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            MinwiseFamily(seed=0, k=0)

    @given(U64, st.integers(min_value=0, max_value=7))
    @settings(max_examples=50)
    def test_deterministic(self, e, i):
        f1 = MinwiseFamily(seed=21, k=8)
        f2 = MinwiseFamily(seed=21, k=8)
        assert f1.value(i, e) == f2.value(i, e)

    def test_index_out_of_range(self):
        family = MinwiseFamily(seed=0, k=4)
        with pytest.raises(ValueError, match="hash index exceeds family size"):
            family.value(4, 123)
        with pytest.raises(ValueError):
            family.value(-1, 123)

    def test_rows_match_value(self):
        family = MinwiseFamily(seed=9, k=6)
        elements = np.array([1, 2, 3], dtype=np.uint64)
        rows = family.rows(elements)
        for r, e in enumerate(elements):
            for i in range(6):
                assert int(rows[r, i]) == family.value(i, int(e))

    def test_chi_squared_uniformity(self):
        # 10^6 elements hashed by one function, bucketed into 2^16 top-bit
        # buckets, must look uniform at significance 0.001.
        family = MinwiseFamily(seed=31, k=1)
        elements = np.arange(1_000_000, dtype=np.uint64)
        values = family.rows(elements)[:, 0]
        buckets = (values >> np.uint64(48)).astype(np.int64)
        observed = np.bincount(buckets, minlength=1 << 16)
        _, p_value = scipy.stats.chisquare(observed)
        assert p_value > 0.001
