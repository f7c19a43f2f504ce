"""Tests for sketch construction, comparison, and serialization."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dothash.bounds import sample_intersection_estimates
from dothash.encoding import Codebook, MinwiseFamily
from dothash.linkpred import Estimator, sketch_neighborhoods
from dothash.sketches import (
    MAX_SKETCH_SIZE,
    MINHASH_EMPTY_SENTINEL,
    DotHashSketch,
    MinHashSketch,
    SimHashSketch,
    WeightFn,
    distinct_sets,
    dothash_build,
    dothash_intersection,
    dothash_jaccard,
    minhash_build,
    minhash_jaccard,
    read_sketch,
    simhash_build,
    simhash_similarity,
    sketch_to_json,
    write_sketch,
)

small_sets = st.frozensets(st.integers(min_value=0, max_value=500), max_size=40)

one_element_sketches = pytest.mark.parametrize(
    "sketch",
    [
        dothash_build(Codebook(seed=0, dims=4), [1]),
        minhash_build(MinwiseFamily(seed=0, k=4), [1]),
        simhash_build(Codebook(seed=0, dims=12), [1]),
    ],
    ids=["dothash", "minhash", "simhash"],
)


class TestWeightFn:
    def test_unit(self):
        w = WeightFn.unit()
        assert w(123) == 1.0
        assert np.array_equal(w.weights_for(np.arange(5)), np.ones(5))

    def test_from_array(self):
        w = WeightFn.from_array(np.array([0.5, 1.5]))
        assert w(1) == 1.5
        assert np.array_equal(w.weights_for(np.array([1, 0], dtype=np.uint64)), [1.5, 0.5])
        with pytest.raises(ValueError, match="weight not defined"):
            w(7)

    @pytest.mark.parametrize("element", [3, 2**64 - 1])
    def test_from_array_rejects_ids_past_the_end(self, element):
        w = WeightFn.from_array([1.0, 2.0, 3.0])
        match = f"weight not defined for element {element}$"
        with pytest.raises(ValueError, match=match):
            w(element)
        with pytest.raises(ValueError, match=match):
            w.weights_for(np.array([0, element], dtype=np.uint64))
        with pytest.raises(ValueError, match=match):
            dothash_build(Codebook(seed=0, dims=16), [1, element], w)
        csr = distinct_sets(np.array([0, 1, 2]), np.array([1, element], dtype=np.uint64))
        with pytest.raises(ValueError, match=match):
            sketch_neighborhoods(csr, w, Estimator.EXACT)


class TestDotHash:
    def test_empty_build(self):
        cb = Codebook(seed=0, dims=16)
        sketch = dothash_build(cb, [])
        assert sketch.cardinality == 0
        assert np.array_equal(sketch.values, np.zeros(16))

    def test_singleton_equals_its_sign_row_over_root_d(self):
        cb = Codebook(seed=4, dims=257)
        sketch = dothash_build(cb, [77])
        assert np.array_equal(sketch.values, cb.sign_rows([77])[0] / np.sqrt(257))

    def test_duplicates_skipped(self):
        cb = Codebook(seed=4, dims=64)
        once = dothash_build(cb, [5, 9])
        doubled = dothash_build(cb, [5, 9, 5, 5, 9])
        assert doubled.cardinality == 2
        assert np.array_equal(once.values, doubled.values)

    def test_negative_weight_rejected(self):
        cb = Codebook(seed=0, dims=8)
        with pytest.raises(ValueError, match="weight function must be nonnegative"):
            dothash_build(cb, [1, 2], WeightFn.from_array([0.0, 1.0, -0.5]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        cb = Codebook(seed=0, dims=8)
        with pytest.raises(ValueError, match="weight function must be finite"):
            dothash_build(cb, [1, 2], WeightFn.from_array([0.0, 1.0, bad]))

    def test_norm_squared_estimates_cardinality(self):
        # E ||a||^2 = |A|: mean over 1000 codebook seeds within 3 standard errors.
        estimates = sample_intersection_estimates(200, 200, 200, 1024, 1000, seed0=123)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - 200.0) <= 3 * se
        # and the sampler path really is ||dothash_build(A)||^2
        cb = Codebook(seed=123, dims=1024)
        sketch = dothash_build(cb, np.arange(200, dtype=np.uint64))
        assert float(sketch.values @ sketch.values) == pytest.approx(estimates[0], abs=1e-9)

    def test_intersection_empty_sketch_is_zero(self):
        cb = Codebook(seed=1, dims=32)
        empty = dothash_build(cb, [])
        other = dothash_build(cb, [1, 2, 3])
        assert dothash_intersection(empty, other) == 0.0

    def test_variance_matches_formula(self, unit_mc_estimates):
        # |A|=|B|=200, |A cap B|=100, d=1024: empirical variance over 10^4
        # seeds within 10% of (1/d)(|A||B| + i^2 - 2i) = 49800/1024.
        estimates = unit_mc_estimates[100]
        expected = 49800 / 1024
        assert estimates.var(ddof=1) == pytest.approx(expected, rel=0.10)

    def test_unbiased_at_each_overlap(self, unit_mc_estimates):
        for overlap, estimates in unit_mc_estimates.items():
            se = estimates.std(ddof=1) / np.sqrt(len(estimates))
            tolerance = 3 * se if se > 0 else 1e-9
            assert abs(estimates.mean() - overlap) <= tolerance

    def test_incompatible_dims_and_seed(self):
        a = dothash_build(Codebook(seed=1, dims=16), [1])
        b = dothash_build(Codebook(seed=1, dims=32), [1])
        c = dothash_build(Codebook(seed=2, dims=16), [1])
        with pytest.raises(ValueError, match="incompatible sketches: dims mismatch"):
            dothash_intersection(a, b)
        with pytest.raises(ValueError, match="incompatible sketches: seed mismatch"):
            dothash_intersection(a, c)
        with pytest.raises(ValueError, match="incompatible sketches"):
            dothash_jaccard(a, c)

    def test_jaccard_identical_sets_near_one(self):
        # d=4096, |A|=100: mean over 100 seeds within 0.05 of 1.0
        elements = np.arange(100, dtype=np.uint64)
        values = []
        for seed in range(100):
            cb = Codebook(seed=seed, dims=4096)
            sketch = dothash_build(cb, elements)
            values.append(dothash_jaccard(sketch, sketch))
        assert abs(np.mean(values) - 1.0) <= 0.05

    def test_jaccard_disjoint_clamped_nonnegative(self):
        cb = Codebook(seed=5, dims=256)
        a = dothash_build(cb, np.arange(50, dtype=np.uint64))
        b = dothash_build(cb, np.arange(100, 150, dtype=np.uint64))
        assert dothash_jaccard(a, b) >= 0.0

    def test_jaccard_clamped_to_one_when_estimate_overshoots(self):
        # raw estimate above min(|A|, |B|) must still yield jaccard <= 1
        a = DotHashSketch(values=np.full(4, 10.0), dims=4, seed=0, cardinality=3)
        b = DotHashSketch(values=np.full(4, 10.0), dims=4, seed=0, cardinality=3)
        assert dothash_intersection(a, b) == 400.0  # overshoot, unclamped
        assert dothash_jaccard(a, b) == 1.0

    def test_jaccard_both_empty_raises(self):
        cb = Codebook(seed=0, dims=8)
        empty = dothash_build(cb, [])
        with pytest.raises(ValueError, match="Jaccard undefined for two empty sets"):
            dothash_jaccard(empty, empty)

    @given(small_sets, small_sets)
    @settings(max_examples=40)
    def test_disjoint_additivity_exact_at_power_of_four_dims(self, xs, ys):
        # with sqrt(d) a power of two the final scaling is exact, so the
        # entry-wise identity build(A | B) = build(A) + build(B) is bit-exact
        xs = frozenset(xs)
        ys = frozenset(ys) - xs
        cb = Codebook(seed=3, dims=1024)
        combined = dothash_build(cb, list(xs | ys))
        separate = dothash_build(cb, list(xs)).values + dothash_build(cb, list(ys)).values
        assert np.array_equal(combined.values, separate)

    @given(small_sets, small_sets)
    @settings(max_examples=20)
    def test_disjoint_additivity_within_ulp_otherwise(self, xs, ys):
        xs = frozenset(xs)
        ys = frozenset(ys) - xs
        cb = Codebook(seed=3, dims=500)
        combined = dothash_build(cb, list(xs | ys))
        separate = dothash_build(cb, list(xs)).values + dothash_build(cb, list(ys)).values
        np.testing.assert_allclose(combined.values, separate, rtol=1e-15, atol=1e-15)


class TestMinHash:
    def test_empty_build_is_sentinel(self):
        family = MinwiseFamily(seed=0, k=16)
        sketch = minhash_build(family, [])
        assert sketch.cardinality == 0
        assert np.all(sketch.minima == np.uint64(MINHASH_EMPTY_SENTINEL))

    def test_singleton_minima(self):
        family = MinwiseFamily(seed=2, k=8)
        sketch = minhash_build(family, [42])
        for i in range(8):
            assert int(sketch.minima[i]) == family.value(i, 42)

    def test_union_min_identity(self):
        # build(A | B).minima[i] == min(build(A).minima[i], build(B).minima[i])
        rng = np.random.default_rng(6)
        family = MinwiseFamily(seed=11, k=32)
        for _ in range(100):
            a = rng.choice(1000, size=rng.integers(1, 60), replace=False).astype(np.uint64)
            b = rng.choice(1000, size=rng.integers(1, 60), replace=False).astype(np.uint64)
            union = np.union1d(a, b)
            expected = np.minimum(minhash_build(family, a).minima, minhash_build(family, b).minima)
            assert np.array_equal(minhash_build(family, union).minima, expected)

    def test_identical_sets_score_one(self):
        family = MinwiseFamily(seed=3, k=128)
        sketch = minhash_build(family, np.arange(40, dtype=np.uint64))
        assert minhash_jaccard(sketch, sketch) == 1.0

    def test_disjoint_sets_score_near_zero(self):
        # expectation 0; only 64-bit hash collisions can produce matches
        for seed in range(20):
            family = MinwiseFamily(seed=seed, k=128)
            a = minhash_build(family, np.arange(100, dtype=np.uint64))
            b = minhash_build(family, np.arange(200, 300, dtype=np.uint64))
            assert minhash_jaccard(a, b) <= 3 / 128

    def test_half_jaccard_sampling_distribution(self, minhash_half_jaccard_counts):
        # J = 0.5, k = 128: the mean estimate over 1000 seed trials lies
        # within 3 standard errors of 0.5 (per-trial variance 0.25/128).
        estimates = minhash_half_jaccard_counts / 128
        tolerance = 3 * np.sqrt(0.25 / 128 / len(estimates))
        assert abs(estimates.mean() - 0.5) <= tolerance

    def test_incompatible_sketches(self):
        f_a = MinwiseFamily(seed=1, k=8)
        f_b = MinwiseFamily(seed=1, k=16)
        f_c = MinwiseFamily(seed=9, k=8)
        a = minhash_build(f_a, [1])
        b = minhash_build(f_b, [1])
        c = minhash_build(f_c, [1])
        with pytest.raises(ValueError, match="incompatible sketches: k mismatch"):
            minhash_jaccard(a, b)
        with pytest.raises(ValueError, match="incompatible sketches: seed mismatch"):
            minhash_jaccard(a, c)

    def test_both_empty_raises(self):
        family = MinwiseFamily(seed=0, k=8)
        empty = minhash_build(family, [])
        with pytest.raises(ValueError, match="Jaccard undefined"):
            minhash_jaccard(empty, empty)

    def test_empty_vs_nonempty_scores_zero(self):
        family = MinwiseFamily(seed=0, k=64)
        empty = minhash_build(family, [])
        full = minhash_build(family, np.arange(30, dtype=np.uint64))
        assert minhash_jaccard(empty, full) == 0.0


class TestSimHash:
    def test_singleton_bits_are_positive_sign_mask(self):
        cb = Codebook(seed=9, dims=100)
        sketch = simhash_build(cb, [55])
        bits = np.unpackbits(sketch.bits, bitorder="little")[:100]
        mask = (cb.sign_rows([55])[0] > 0).astype(np.uint8)
        assert np.array_equal(bits, mask)

    def test_empty_set_all_zero_bits(self):
        cb = Codebook(seed=9, dims=100)
        sketch = simhash_build(cb, [])
        assert sketch.cardinality == 0
        assert np.all(sketch.bits == 0)

    def test_deterministic(self):
        cb = Codebook(seed=12, dims=64)
        a = simhash_build(cb, [1, 2, 3])
        b = simhash_build(cb, [3, 2, 1])
        assert np.array_equal(a.bits, b.bits)

    def test_identical_score_one(self):
        cb = Codebook(seed=12, dims=64)
        sketch = simhash_build(cb, [1, 2, 3])
        assert simhash_similarity(sketch, sketch) == 1.0

    def test_complementary_bits_score_zero(self):
        bits = np.unpackbits(np.arange(8, dtype=np.uint8), bitorder="little")
        a = SimHashSketch(bits=np.packbits(bits, bitorder="little"), dims=64, seed=0, cardinality=4)
        b = SimHashSketch(bits=np.packbits(1 - bits, bitorder="little"), dims=64, seed=0, cardinality=4)
        assert simhash_similarity(a, b) == 0.0

    def test_independent_sets_score_near_half(self):
        # random bit agreement is 1/2: mean over 100 trials within 0.05
        scores = []
        for seed in range(100):
            cb = Codebook(seed=seed, dims=1024)
            a = simhash_build(cb, np.arange(0, 300, dtype=np.uint64))
            b = simhash_build(cb, np.arange(1000, 1300, dtype=np.uint64))
            scores.append(simhash_similarity(a, b))
        assert abs(np.mean(scores) - 0.5) <= 0.05

    def test_incompatible(self):
        a = simhash_build(Codebook(seed=1, dims=64), [1])
        b = simhash_build(Codebook(seed=1, dims=128), [1])
        with pytest.raises(ValueError, match="incompatible sketches: dims mismatch"):
            simhash_similarity(a, b)


@pytest.mark.parametrize("kind", ["dothash", "minhash", "simhash"])
def test_seeds_equal_modulo_2_to_the_64_make_compatible_sketches(kind):
    # -1 and 2**64 - 1 name one codebook (or hash family); their sketches,
    # and a sketch read back from its file, compare without a seed mismatch.
    elements = [1, 2, 3, 5, 8, 13]

    def build(seed):
        if kind == "minhash":
            return minhash_build(MinwiseFamily(seed=seed, k=16), elements)
        return (dothash_build if kind == "dothash" else simhash_build)(Codebook(seed=seed, dims=16), elements)

    compare = {"dothash": dothash_intersection, "minhash": minhash_jaccard,
               "simhash": simhash_similarity}[kind]
    # A numpy integer seed names the same codebook as the Python int.
    negative, wrapped, numpy_seed = build(-1), build(2**64 - 1), build(np.int64(-1))
    assert negative.seed == wrapped.seed == numpy_seed.seed == 2**64 - 1
    files = [io.BytesIO(), io.BytesIO(), io.BytesIO()]
    for sketch, fp in zip((negative, wrapped, numpy_seed), files):
        write_sketch(sketch, fp)
    assert files[0].getvalue() == files[1].getvalue() == files[2].getvalue()
    loaded = read_sketch(io.BytesIO(files[0].getvalue()))
    for other in (wrapped, loaded):
        assert compare(negative, other) == compare(wrapped, wrapped)


class TestSerialization:
    def _roundtrip(self, sketch):
        buf = io.BytesIO()
        write_sketch(sketch, buf)
        payload = buf.getvalue()
        loaded = read_sketch(io.BytesIO(payload))
        buf2 = io.BytesIO()
        write_sketch(loaded, buf2)
        assert buf2.getvalue() == payload  # round trip is bit-exact
        return loaded

    @given(small_sets, st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=1 << 32))
    @settings(max_examples=30)
    def test_dothash_roundtrip(self, elements, dims, seed):
        sketch = dothash_build(Codebook(seed=seed, dims=dims), list(elements))
        loaded = self._roundtrip(sketch)
        assert isinstance(loaded, DotHashSketch)
        assert np.array_equal(loaded.values, sketch.values)
        assert (loaded.dims, loaded.seed, loaded.cardinality) == (sketch.dims, sketch.seed, sketch.cardinality)

    @given(small_sets, st.integers(min_value=1, max_value=64))
    @settings(max_examples=30)
    def test_minhash_roundtrip(self, elements, k):
        sketch = minhash_build(MinwiseFamily(seed=77, k=k), list(elements))
        loaded = self._roundtrip(sketch)
        assert isinstance(loaded, MinHashSketch)
        assert np.array_equal(loaded.minima, sketch.minima)

    @given(small_sets, st.integers(min_value=1, max_value=100))
    @settings(max_examples=30)
    def test_simhash_roundtrip(self, elements, dims):
        sketch = simhash_build(Codebook(seed=5, dims=dims), list(elements))
        loaded = self._roundtrip(sketch)
        assert isinstance(loaded, SimHashSketch)
        assert np.array_equal(loaded.bits, sketch.bits)
        assert loaded.dims == sketch.dims

    def test_json_debug_form(self):
        import json

        sketch = minhash_build(MinwiseFamily(seed=1, k=4), [10, 20])
        record = json.loads(sketch_to_json(sketch))
        assert record["kind"] == "minhash"
        assert record["dims_or_k"] == 4
        assert record["cardinality"] == 2
        assert record["minima"] == [int(v) for v in sketch.minima]

    def test_malformed_inputs(self):
        with pytest.raises(ValueError, match="header too short"):
            read_sketch(io.BytesIO(b"SK"))
        with pytest.raises(ValueError, match="bad magic"):
            read_sketch(io.BytesIO(b"\x00" * 26))
        sketch = dothash_build(Codebook(seed=0, dims=4), [1])
        buf = io.BytesIO()
        write_sketch(sketch, buf)
        with pytest.raises(ValueError, match="payload too short"):
            read_sketch(io.BytesIO(buf.getvalue()[:-3]))

    @one_element_sketches
    def test_trailing_bytes_rejected(self, sketch):
        buf = io.BytesIO()
        write_sketch(sketch, buf)
        with pytest.raises(ValueError, match="trailing bytes"):
            read_sketch(io.BytesIO(buf.getvalue() + b"\x00"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_dothash_payload_rejected(self, bad):
        # write_sketch refuses such a sketch, so the file is forged: value 1 of 4 replaced.
        sketch = DotHashSketch(values=np.array([0.5, 1.0, -0.5, 1.0]), dims=4, seed=0, cardinality=2)
        buf = io.BytesIO()
        write_sketch(sketch, buf)
        raw = buf.getvalue()
        with pytest.raises(ValueError, match="non-finite"):
            read_sketch(io.BytesIO(raw[:-24] + struct.pack("<d", bad) + raw[-16:]))

    def test_simhash_padding_bits_rejected(self):
        # With padding bits set, a dims=3 sketch compared with itself scored -0.667.
        buf = io.BytesIO()
        write_sketch(simhash_build(Codebook(seed=0, dims=3), [1, 2]), buf)
        for padding in (0b1000, 0b1000_0000):
            payload = bytearray(buf.getvalue())
            payload[-1] |= padding
            with pytest.raises(ValueError, match="padding bits"):
                read_sketch(io.BytesIO(bytes(payload)))

    @pytest.mark.parametrize("kind", [1, 2, 3], ids=["dothash", "minhash", "simhash"])
    def test_size_zero_rejected(self, kind):
        # No builder writes size 0; two such MinHash or SimHash files made compare divide by zero.
        with pytest.raises(ValueError, match="size 0"):
            read_sketch(io.BytesIO(struct.pack("<4sBBQIQ", b"SKCH", 1, kind, 0, 0, 5)))

    def test_write_rejects_a_size_the_header_cannot_store(self):
        # The size is a u32; 2**32 used to reach struct.error from the header pack.
        for dims in (0, MAX_SKETCH_SIZE + 1):
            sketch = SimHashSketch(bits=np.zeros(1, dtype=np.uint8), dims=dims, seed=0, cardinality=0)
            with pytest.raises(ValueError, match="does not fit the file header"):
                write_sketch(sketch, io.BytesIO())
        # At the limit the size fits, and the one-byte payload, not the 512 MiB
        # that size takes, is what is refused; nothing is written.
        buf = io.BytesIO()
        at_limit = SimHashSketch(bits=np.zeros(1, dtype=np.uint8), dims=MAX_SKETCH_SIZE, seed=0, cardinality=0)
        with pytest.raises(ValueError, match=f"payload of 1 bytes, not the {2**29} of size {MAX_SKETCH_SIZE}"):
            write_sketch(at_limit, buf)
        assert buf.getvalue() == b""

    @pytest.mark.parametrize("sketch, error", [
        (DotHashSketch(values=np.array([0.5, np.nan]), dims=2, seed=0, cardinality=1), "non-finite"),
        (DotHashSketch(values=np.array([-np.inf, 0.5]), dims=2, seed=0, cardinality=1), "non-finite"),
        (DotHashSketch(values=np.zeros(3), dims=4, seed=0, cardinality=1), "payload of 24 bytes, not the 32"),
        (MinHashSketch(minima=np.zeros(5, dtype=np.uint64), k=4, seed=0, cardinality=1), "payload of 40 bytes"),
        (SimHashSketch(bits=np.zeros(1, dtype=np.uint8), dims=9, seed=0, cardinality=1), "payload of 1 bytes"),
        (SimHashSketch(bits=np.array([0b1000], dtype=np.uint8), dims=3, seed=0, cardinality=1), "padding bits"),
        (SimHashSketch(bits=np.array([0, 0b1000_0000], dtype=np.uint8), dims=15, seed=0, cardinality=1),
         "padding bits"),
        (DotHashSketch(values=np.array([0.0, 1.0]), dims=2, seed=0, cardinality=0), "cardinality 0"),
        (MinHashSketch(minima=np.zeros(2, dtype=np.uint64), k=2, seed=0, cardinality=0), "cardinality 0"),
        (SimHashSketch(bits=np.array([1], dtype=np.uint8), dims=8, seed=0, cardinality=0), "cardinality 0"),
        (DotHashSketch(values=np.ones(2), dims=2, seed=0, cardinality=-1), "cardinality -1 outside"),
        (MinHashSketch(minima=np.zeros(2, dtype=np.uint64), k=2, seed=0, cardinality=2**64),
         f"cardinality {2**64} outside"),
    ], ids=["nan", "-inf", "short-dothash", "long-minhash", "short-simhash", "padding-bit-3",
            "padding-bit-15", "empty-dothash", "empty-minhash", "empty-simhash", "cardinality-1", "cardinality-2^64"])
    def test_write_refuses_what_read_rejects(self, sketch, error):
        # Nothing is written, and a file of the same fields, where the header
        # can hold them, is rejected by read_sketch.
        buf = io.BytesIO()
        with pytest.raises(ValueError, match=error):
            write_sketch(sketch, buf)
        assert buf.getvalue() == b""
        size = getattr(sketch, "k", None) or sketch.dims
        payload = next(getattr(sketch, name) for name in ("values", "minima", "bits") if hasattr(sketch, name))
        if 0 <= sketch.cardinality < 2**64:
            kind = {DotHashSketch: 1, MinHashSketch: 2, SimHashSketch: 3}[type(sketch)]
            forged = struct.pack("<4sBBQIQ", b"SKCH", 1, kind, 0, size, sketch.cardinality)
            with pytest.raises(ValueError):
                read_sketch(io.BytesIO(forged + payload.astype(payload.dtype.newbyteorder("<")).tobytes()))

    @one_element_sketches
    def test_cardinality_zero_needs_the_empty_payload(self, sketch):
        buf = io.BytesIO()
        write_sketch(sketch, buf)
        raw = buf.getvalue()
        forged = raw[:18] + struct.pack("<Q", 0) + raw[26:]
        with pytest.raises(ValueError, match="cardinality 0"):
            read_sketch(io.BytesIO(forged))

    def test_empty_set_sketches_read_back(self):
        for sketch in (
            dothash_build(Codebook(seed=0, dims=4), []),
            minhash_build(MinwiseFamily(seed=0, k=4), []),
            simhash_build(Codebook(seed=0, dims=12), []),
        ):
            assert self._roundtrip(sketch).cardinality == 0
