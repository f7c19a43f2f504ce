"""The sign accumulators, the byte table and the unit-sum counter, against a slow scalar reference.

The reference recomputes every sign bit from the documented SplitMix64
construction with Python integers and sums coordinate by coordinate, so it
shares no code with the vectorized build.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dothash import sketches
from dothash.encoding import _CODEBOOK_DOMAIN, _GOLDEN, _MASK64, Codebook, MinwiseFamily, splitmix64
from dothash.linkpred import Estimator, Metric, preferential_attachment_graph, sketch_neighborhoods
from dothash.sketches import (
    WeightFn,
    WeightKind,
    dothash_build,
    distinct_sets,
    dothash_build_many,
    minhash_build,
    minhash_build_many,
    simhash_build,
    simhash_build_many,
)

DIMS = (1, 7, 63, 64, 65, 500)

element_lists = st.lists(st.integers(min_value=0, max_value=_MASK64), max_size=20)
weights = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0))


def reference_signs(seed: int, dims: int, element: int) -> list[int]:
    """Coordinate signs (+1/-1) of one element, straight from the documented PRF."""
    root = splitmix64((seed & _MASK64) ^ _CODEBOOK_DOMAIN)
    key = splitmix64(root ^ element)
    signs = []
    for j in range(dims):
        word = splitmix64((key + (j // 64 + 1) * _GOLDEN) & _MASK64)
        signs.append(1 if (word >> (j % 64)) & 1 else -1)
    return signs


def reference_unit_sums(seed: int, dims: int, elements) -> list[int]:
    sums = [0] * dims
    for e in sorted(set(elements)):
        for j, sign in enumerate(reference_signs(seed, dims, e)):
            sums[j] += sign
    return sums


def reference_weighted(seed: int, dims: int, elements, weight) -> list[float]:
    """sum over the distinct elements of sqrt(w(e)) * vector_of(e), in Python floats."""
    values = [0.0] * dims
    for e in sorted(set(elements)):
        root = math.sqrt(weight[e])
        for j, sign in enumerate(reference_signs(seed, dims, e)):
            values[j] += root * (sign / math.sqrt(dims))
    return values


def reference_in_order(seed: int, dims: int, elements, weight) -> list[float]:
    """The README's reduction order, step by step in Python floats.

    The distinct elements are taken in ascending order, 8 at a time, the
    last group padded with weight 0.  Each group's entry is
    ``±r_0 ± r_1 ... ± r_7`` added left to right; the entries are added
    from +0.0 in group order, and the sum is then divided by ``sqrt(d)``.
    """
    distinct = sorted(set(elements))
    values = [0.0] * dims
    for lo in range(0, len(distinct), 8):
        group = distinct[lo : lo + 8]
        terms = [(math.sqrt(weight[e]), reference_signs(seed, dims, e)) for e in group]
        terms += [(0.0, [1] * dims)] * (8 - len(group))
        for j in range(dims):
            entry = terms[0][0] * terms[0][1][j]
            for root, signs in terms[1:]:
                entry += root * signs[j]
            values[j] += entry
    return [v / math.sqrt(dims) for v in values]


def has_negative_zero(values: np.ndarray) -> bool:
    return bool(np.any((values == 0.0) & np.signbit(values)))


@given(st.sampled_from(DIMS), st.lists(st.integers(min_value=0, max_value=_MASK64), max_size=5))
@settings(max_examples=30, deadline=None)
def test_sign_words_match_reference(dims, elements):
    cb = Codebook(seed=11, dims=dims)
    words = cb.sign_words(np.array(elements, dtype=np.uint64))
    assert words.shape == (len(elements), cb.blocks)
    bits = cb.sign_bits(np.array(elements, dtype=np.uint64))
    for e, row in zip(elements, bits):
        assert [1 if b else -1 for b in row] == reference_signs(11, dims, e)


@given(st.sampled_from(DIMS), element_lists, st.integers(min_value=0, max_value=_MASK64))
@settings(max_examples=60, deadline=None)
def test_unit_builds_equal_reference_exactly(dims, elements, seed):
    cb = Codebook(seed=seed, dims=dims)
    sums = reference_unit_sums(seed, dims, elements)
    sketch = dothash_build(cb, np.array(elements, dtype=np.uint64))
    assert sketch.values.tolist() == [s / math.sqrt(dims) for s in sums]
    assert not has_negative_zero(sketch.values)
    bits = np.unpackbits(simhash_build(cb, elements).bits, bitorder="little")
    assert bits[:dims].tolist() == [1 if s > 0 else 0 for s in sums]
    assert not bits[dims:].any()


@given(st.sampled_from(DIMS), st.lists(st.tuples(st.integers(0, 10_000), weights), max_size=20))
@settings(max_examples=60, deadline=None)
def test_weighted_builds_match_reference(dims, pairs):
    weight = dict(pairs)
    elements = [e for e, _ in pairs]
    cb = Codebook(seed=5, dims=dims)
    sketch = dothash_build(cb, elements, WeightFn.from_table(weight))
    expected = reference_weighted(5, dims, elements, weight)
    np.testing.assert_allclose(sketch.values, expected, rtol=0, atol=1e-12)
    assert not has_negative_zero(sketch.values)


@pytest.mark.parametrize("dims", DIMS)
def test_zero_weights_give_positive_zero(dims):
    cb = Codebook(seed=3, dims=dims)
    for size in range(21):
        elements = np.arange(size, dtype=np.uint64)
        sketch = dothash_build(cb, elements, WeightFn.from_array(np.zeros(size)))
        assert np.array_equal(sketch.values, np.zeros(dims))
        assert not has_negative_zero(sketch.values)


@given(
    st.sampled_from(DIMS),
    st.lists(st.lists(st.integers(0, 60), max_size=20), max_size=8),
    st.lists(weights, min_size=61, max_size=61),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_build_many_rows_equal_single_builds(dims, sets, table, unit):
    cb = Codebook(seed=9, dims=dims)
    w = None if unit else WeightFn.from_array(np.array(table))
    indptr = np.cumsum([0] + [len(s) for s in sets])
    elements = np.array([e for s in sets for e in s], dtype=np.uint64)
    many = dothash_build_many(cb, distinct_sets(indptr, elements), w)
    assert many.shape == (len(sets), dims)
    for row, members in zip(many, sets):
        single = dothash_build(cb, np.array(members, dtype=np.uint64), w).values
        assert row.tobytes() == single.tobytes()


def _csr(sets) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.cumsum([0] + [len(s) for s in sets])
    return indptr, np.array([e for s in sets for e in s], dtype=np.uint64)


# Unit weights that the builds cannot tell from WeightFn.unit() by kind, so
# they go through the byte table.
ALL_ONES = WeightFn(WeightKind.CUSTOM, lambda element: 1.0, lambda arr: np.ones(len(arr)))

# Set sizes vary so that batches mix lengths; ids come from a small pool
# (duplicates within a set) or span the full 64 bits.
unit_set_lists = st.lists(
    st.lists(st.one_of(st.integers(0, 40), st.integers(0, _MASK64)), max_size=25), max_size=6)


@given(
    st.sampled_from(DIMS),
    unit_set_lists,
    st.integers(min_value=0, max_value=_MASK64),
    st.sampled_from([1, 512, 4096, 1 << 20]),
)
@settings(max_examples=40, deadline=None)
def test_unit_rows_of_many_sets_equal_reference_sums(dims, sets, seed, chunk_bytes):
    # A chunk of 512 or fewer bytes counts a set of more than 4 elements
    # (at most 8 words each) a few rows at a time.
    cb = Codebook(seed=seed, dims=dims)
    indptr, elements = _csr(sets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketches, "_CHUNK_BYTES", chunk_bytes)
        values = dothash_build_many(cb, distinct_sets(indptr, elements))
        bits = simhash_build_many(cb, distinct_sets(indptr, elements))
    assert values.shape == (len(sets), dims) and bits.shape == (len(sets), (dims + 7) // 8)
    for members, row, packed in zip(sets, values, bits):
        sums = reference_unit_sums(seed, dims, members)
        assert row.tolist() == [s / math.sqrt(dims) for s in sums]
        assert not has_negative_zero(row)
        unpacked = np.unpackbits(packed, bitorder="little")
        assert unpacked[:dims].tolist() == [1 if s > 0 else 0 for s in sums]
        assert not unpacked[dims:].any()


@given(
    st.sampled_from(DIMS),
    st.lists(st.lists(st.integers(0, 400), max_size=300), max_size=10),
    st.sampled_from([1, 4096, 1 << 20]),
)
@settings(max_examples=40, deadline=None)
def test_unit_rows_equal_the_byte_table_bit_for_bit(dims, sets, chunk_bytes):
    cb = Codebook(seed=17, dims=dims)
    indptr, elements = _csr(sets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketches, "_CHUNK_BYTES", chunk_bytes)
        counted = dothash_build_many(cb, distinct_sets(indptr, elements))
        tabled = dothash_build_many(cb, distinct_sets(indptr, elements), ALL_ONES)
        bits = simhash_build_many(cb, distinct_sets(indptr, elements))
    assert counted.tobytes() == tabled.tobytes()
    assert bits.tobytes() == np.packbits(tabled > 0, axis=1, bitorder="little").tobytes()


def _assert_rows_in_order(cb: Codebook, sets, weight) -> None:
    indptr = np.cumsum([0] + [len(s) for s in sets])
    elements = np.array([e for s in sets for e in s], dtype=np.uint64)
    many = dothash_build_many(cb, distinct_sets(indptr, elements), WeightFn.from_array(np.array(weight)))
    for row, members in zip(many, sets):
        expected = np.array(reference_in_order(cb.seed, cb.dims, members, weight))
        assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dims", (65, 500))
def test_build_many_follows_documented_order_bit_for_bit(dims):
    # Group counts 3, 0, 1, 5, 1, 2: rows must not depend on where a set sits.
    rng = np.random.default_rng(12)
    weight = (1.0 / np.log(np.arange(100) + 2.0)).tolist()
    sets = [rng.choice(100, size, replace=False).tolist() for size in (17, 0, 3, 40, 8, 9)]
    sets[3] += sets[3][:5]  # duplicates are skipped
    _assert_rows_in_order(Codebook(seed=31, dims=dims), sets, weight)


@given(
    st.sampled_from(DIMS),
    st.lists(st.lists(st.integers(0, 60), max_size=60), max_size=6),
    st.lists(weights, min_size=61, max_size=61),
)
@settings(max_examples=40, deadline=None)
def test_build_many_follows_documented_order_on_any_batch(dims, sets, weight):
    _assert_rows_in_order(Codebook(seed=13, dims=dims), sets, weight)


def test_build_many_rejects_malformed_indptr():
    cb = Codebook(seed=0, dims=8)
    elements = np.arange(4, dtype=np.uint64)
    for indptr in ([1, 4], [0, 3], [0, 3, 2, 4], []):
        with pytest.raises(ValueError, match="indptr"):
            dothash_build_many(cb, distinct_sets(np.array(indptr), elements))


# Ids from a small pool recur across sets (so the build may share one word
# table); full 64-bit ids mostly do not.
POOL = [0, 1, 2**63, _MASK64, 0x9E3779B97F4A7C15, 12345]
set_lists = st.lists(
    st.lists(st.one_of(st.sampled_from(POOL), st.integers(0, _MASK64)), max_size=20), max_size=12)


def _weight(element: int) -> float:
    return (element * 2654435761 % 1009) / 97.0


@given(
    sets=set_lists,
    estimator=st.sampled_from(list(Estimator)),
    weighted=st.booleans(),
    chunk_bytes=st.sampled_from([1, 4096, 1 << 20]),
)
@settings(max_examples=120, deadline=None)
def test_set_list_rows_equal_per_set_builds(sets, estimator, weighted, chunk_bytes):
    # Empty sets and duplicate ids within a set included; a 1-byte chunk
    # puts every group in a chunk of its own.
    dims = 130
    w = WeightFn.custom(_weight) if weighted and estimator in (Estimator.DOTHASH, Estimator.EXACT) else None
    csr = distinct_sets(np.cumsum([0] + [len(members) for members in sets]),
                        np.array(sum(sets, []), np.uint64))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketches, "_CHUNK_BYTES", chunk_bytes)
        scorer = sketch_neighborhoods(csr, w or Metric.JACCARD, estimator, dims, seed=21)
    cb, family = Codebook(seed=21, dims=dims), MinwiseFamily(seed=21, k=dims)
    if estimator is Estimator.EXACT:
        indptr, ranks, weights = scorer.sets
    for s, members in enumerate(sets):
        members = np.array(members, dtype=np.uint64)
        if estimator is Estimator.DOTHASH:
            expected = dothash_build(cb, members, w).values
        elif estimator is Estimator.MINHASH:
            expected = minhash_build(family, members).minima
        elif estimator is Estimator.SIMHASH:
            expected = simhash_build(cb, members).bits
        else:
            own = ranks[indptr[s] : indptr[s + 1]]
            assert np.all(np.diff(own) > 0)
            got, expected = weights[own], (w or WeightFn.unit()).weights_for(np.unique(members))
            assert got.tobytes() == expected.tobytes()
            continue
        assert scorer.sets[s].tobytes() == expected.tobytes()


@given(
    sizes=st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 8]), min_size=1, max_size=8),
    rows_per_chunk=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_minhash_rows_across_chunk_boundaries_equal_scalar_minima(sizes, rows_per_chunk, data):
    # A chunk of a few rows makes sets straddle chunk boundaries, with empty
    # sets between them; the reference takes every minimum in Python ints.
    k = 5
    members = [data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)) for n in sizes]
    family = MinwiseFamily(seed=77, k=k)
    indptr = np.cumsum([0] + sizes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketches, "_CHUNK_BYTES", 16 * k * rows_per_chunk)
        got = minhash_build_many(family, distinct_sets(indptr, np.array(sum(members, []), dtype=np.uint64)))
    expected = [
        [min((family.value(i, e) for e in set_members), default=sketches.MINHASH_EMPTY_SENTINEL)
         for i in range(k)]
        for set_members in members
    ]
    assert got.dtype == np.uint64
    assert got.tolist() == expected


def test_scorer_rows_equal_per_node_builds():
    g = preferential_attachment_graph(60, 3, seed=4)
    scorer = sketch_neighborhoods(g, Metric.ADAMIC_ADAR, Estimator.DOTHASH, 257, seed=8)
    degrees = g.degrees().astype(np.float64)
    weight = WeightFn.from_array(np.where(degrees > 1, 1.0 / np.log(np.maximum(degrees, 2.0)), 0.0))
    for v in range(g.node_count):
        single = dothash_build(Codebook(seed=8, dims=257), g.neighbors(v), weight)
        assert scorer.sets[v].tobytes() == single.values.tobytes()
        assert scorer.sizes[v] == single.cardinality


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()


def test_pinned_unit_sketch():
    # Unit sums are exact integers, so this digest is the same on every machine.
    sketch = dothash_build(Codebook(seed=2305, dims=1000), range(0, 3000, 3))
    assert _digest(sketch.values) == "e53d3e64e5234820daf481c9c56e5ef6f802e16e0304a8c1a0d3b74201758fb7"


def test_pinned_weighted_sketch():
    # The reduction order is fixed and elementwise, so weighted sketches are
    # reproducible bit for bit as well.
    weight = WeightFn.from_array(1.0 / np.log(np.arange(300) + 2.0))
    sketch = dothash_build(Codebook(seed=2305, dims=1000), range(0, 300, 3), weight)
    assert _digest(sketch.values) == "705e592f8af5d6246adf05a57bade92b498cccb07c2f3f4aece6c96305a06246"


def test_large_build_memory_is_bounded(added_peak_rss):
    added = added_peak_rss(
        "elements = np.arange(200_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)",
        "dothash_build(Codebook(seed=1, dims=1024), elements)",
    )
    assert added < 64 * 2**20, f"build added {added / 2**20:.1f} MiB of peak RSS"
    # 2000 sets of 64 distinct elements at d=4096: the output is 62.5 MiB, and
    # no element recurs, so no word table is shared and the rest stays bounded.
    # Filling a shared table in one piece once added about 60 MiB on top.
    added = added_peak_rss(
        "elements = np.arange(2000 * 64, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)",
        "dothash_build_many(Codebook(seed=1, dims=4096), distinct_sets(np.arange(2001) * 64, elements))",
    )
    output = table = 2000 * 4096 * 8
    assert added < output + table + 32 * 2**20, f"batch build added {added / 2**20:.1f} MiB of peak RSS"


def test_dedup_sized_batch_adds_little_beside_its_output(added_peak_rss):
    # 400 documents of 120 shingles from 22,000 recurring ids at d=8192, as
    # the dedup benchmark builds them: the output is 25 MiB, and a shared
    # word table would add about 19 MiB more.  A small build first pages in
    # the library code, so the figure is the batch's own memory.
    added = added_peak_rss(
        "dothash_build_many(Codebook(seed=1, dims=8192), distinct_sets(np.array([0, 9]), np.arange(9, dtype=np.uint64)))\n"
        "ids = np.random.default_rng(0).integers(0, 22_000, 400 * 120).astype(np.uint64)\n"
        "elements = ids * np.uint64(0x9E3779B97F4A7C15)",
        "dothash_build_many(Codebook(seed=1, dims=8192), distinct_sets(np.arange(401) * 120, elements))",
    )
    output = 400 * 8192 * 8
    assert added < output + 4 * 2**20, f"batch build added {added / 2**20:.1f} MiB of peak RSS"


def test_large_unit_build_adds_little(added_peak_rss):
    # One 10,000-element unit set at d=4096: the words are counted about
    # 1 MiB at a time, beside a 32 KiB output.
    added = added_peak_rss(
        "dothash_build(Codebook(seed=1, dims=4096), np.arange(9, dtype=np.uint64))\n"
        "elements = np.arange(10_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)",
        "dothash_build(Codebook(seed=1, dims=4096), elements)",
    )
    assert added < 4 * 2**20, f"build added {added / 2**20:.1f} MiB of peak RSS"


def test_weighted_dedup_sized_batch_adds_little_beside_its_output(added_peak_rss):
    # The dedup-sized batch of the test above, with non-unit weights, so the
    # byte table sums it.
    added = added_peak_rss(
        "from dothash.sketches import WeightFn\n"
        "weight = WeightFn.from_array(1.0 / np.log(np.arange(22_000) + 2.0))\n"
        "dothash_build_many(Codebook(seed=1, dims=8192), distinct_sets(np.array([0, 9]), np.arange(9, dtype=np.uint64)), weight)\n"
        "elements = np.random.default_rng(0).integers(0, 22_000, 400 * 120).astype(np.uint64)",
        "dothash_build_many(Codebook(seed=1, dims=8192), distinct_sets(np.arange(401) * 120, elements), weight)",
    )
    output = 400 * 8192 * 8
    assert added < output + 4 * 2**20, f"batch build added {added / 2**20:.1f} MiB of peak RSS"


# d = 4^k, whose root 2^k the build takes into its unit sums or its roots as
# 2^-k, and d whose root is not a power of two.
@pytest.mark.parametrize("dims", [1, 4, 16, 64, 4096, 2, 3, 8, 100, 8192])
def test_build_many_scales_as_dividing_by_the_root(dims):
    cb = Codebook(seed=12, dims=dims)
    sets = distinct_sets(*_csr([[], [0, 1, 2], list(range(3, 40)), [40, 41], [42, 43, 44, 45]]))
    # Weights: varied, zero for set 3 (+0.0), and tiny or subnormal for set 4.
    weight = np.concatenate([1.0 / np.log(np.arange(40) + 2.0), [0.0, 0.0], [1e-300, 5e-324, 2e-310, 3e-320]])
    w = WeightFn.from_array(weight)
    unit = np.zeros((len(sets.indptr) - 1, dims))
    for rows, sums in sketches._unit_sums(cb, *sets):
        unit[rows] = sums
    for built, sums in ((dothash_build_many(cb, sets), unit),
                        (dothash_build_many(cb, sets, w), sketches._root_sums(cb, *sets, w))):
        assert built.tobytes() == (sums / np.sqrt(dims)).tobytes()
    assert not has_negative_zero(dothash_build_many(cb, sets, w)[3])
    # No float64 weight gives sums small enough to scale to a subnormal (the
    # least root is about 2.2e-162), so the division's subnormal and signed
    # zero cases are fed through the weighted path's sums directly.  Only a
    # build whose root is not a power of two divides its weighted sums; at
    # d = 4^k the roots are scaled before they are summed (the test below).
    if math.frexp(np.sqrt(dims))[0] != 0.5:
        tiny = np.array([5e-324, -5e-324, 1e-310, -3e-308, 2.2250738585072014e-308, 0.0, -0.0, 1.5, -7.0, 1e300])
        sums = np.resize(tiny, (len(sets.indptr) - 1, dims))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sketches, "_root_sums", lambda *args, scale, out: sums.copy())
            assert dothash_build_many(cb, sets, w).tobytes() == (sums / np.sqrt(dims)).tobytes()


@pytest.mark.parametrize("k", range(1, 17))
def test_roots_scaled_by_a_power_of_two_give_the_scaled_sums(k):
    # At d = 4^k the build multiplies the roots by 2^-k before it sums them.
    # Every value then rounded is the unscaled one times 2^-k, none of them
    # subnormal, so the sums are the unscaled sums times 2^-k bit for bit.
    # The factor is d = 4^k's; the codebook is small.
    rng = np.random.default_rng(k)
    cb = Codebook(seed=k, dims=200)
    extreme = [5e-324, 1e-300, 1e300, 1.7e308]
    # Equal pairs, whose signed roots cancel, and pairs a float apart, which nearly cancel.
    near = [w for x in (1.0, 3.0, 1e-300, 5e-324, 1e300, 1.7e308) for w in (x, x, x, np.nextafter(x, np.inf))]
    weight = np.array(extreme + near + list(rng.random(40) * 10.0 ** rng.integers(-300, 300, 40)))
    pairs = [[lo, lo + 1] for lo in range(len(extreme), len(extreme) + len(near), 2)]
    members = [[], list(range(len(extreme))), *pairs, list(range(len(weight)))]
    members += [sorted(rng.choice(len(weight), size, replace=False).tolist()) for size in (2, 9, 17, 33)]
    sets = distinct_sets(*_csr(members))
    w = WeightFn.from_array(weight)
    unscaled = sketches._root_sums(cb, *sets, w)
    scaled = sketches._root_sums(cb, *sets, w, scale=2.0**-k)
    assert scaled.tobytes() == (unscaled * 2.0**-k).tobytes()
    # The sums hold exact cancellations and values near the least root.
    assert np.any(unscaled[1:] == 0.0) and np.any((unscaled != 0.0) & (np.abs(unscaled) < 1e-161))


def test_sign_tables_of_a_transposed_view_follow_documented_order():
    # The lookup passes (8, groups) roots as the transpose of (groups, 8)
    # values, an input stride of 8 elements, where numpy 2.4.6's
    # np.negative misreads a strided input into a strided output.
    rng = np.random.default_rng(13)
    grouped = rng.random((130, 8)) * rng.integers(0, 2, (130, 8))  # zeros among the roots
    grouped[0] = 0.0
    tables = sketches._sign_tables(grouped.T)
    assert tables.shape == (130, 256)
    for g, roots in enumerate(grouped.tolist()):
        expected = []
        for b in range(256):
            entry = roots[0] if b & 1 else -roots[0]
            for i in range(1, 8):
                entry = entry + roots[i] if b >> i & 1 else entry - roots[i]
            expected.append(entry + 0.0)
        assert tables[g].tobytes() == np.array(expected).tobytes()


def _build_with_layout(cb: Codebook, sets, weight, chunk_bytes: int):
    """Weighted rows built with ``_CHUNK_BYTES`` patched, and the groups of each table batch and lookup chunk."""
    batches, chunks = [], []
    sign_tables, byte_columns = sketches._sign_tables, sketches._byte_columns

    def tables(roots):
        batches.append(roots.shape[1])
        return sign_tables(roots)

    def columns(rows):
        chunks.append(len(rows[0]))
        return byte_columns(rows)

    csr = distinct_sets(*_csr(sets))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketches, "_CHUNK_BYTES", chunk_bytes)
        patch.setattr(sketches, "_sign_tables", tables)
        patch.setattr(sketches, "_byte_columns", columns)
        rows = dothash_build_many(cb, csr, WeightFn.from_array(np.array(weight)))
    return csr, rows, batches, chunks


def _layout_sets(shared: bool) -> list[list[int]]:
    """Sets over elements 0..51 whose fourth set straddles two 2-group table batches.

    The fourth set holds 18 elements, groups 2-4, so it spans the batches
    of groups 2-3 and 4-5.  Shared: 45 sets of 40 distinct elements, which
    recur and are no more than the sets, so their words are hashed once
    into a shared table.  Otherwise 6 sets of 42 distinct elements, whose
    words are hashed per lookup chunk.
    """
    rng = np.random.default_rng(40)
    sets = [list(range(0, 16, 2)), [], [1, 3, 5], list(range(20, 38)), [39, 2, 5, 6, 1]]
    if shared:
        sets += [rng.choice(40, size, replace=False).tolist() for size in rng.integers(0, 7, 40)]
    else:
        sets.append(list(range(40, 52)))
    return sets


# Patched to 16 KiB, a table batch is 2 groups, and a lookup chunk is 16
# groups at d=65, 2 at d=1000 and 1 at d=4096: a batch holds fewer groups
# than a chunk, as many, or more.
@pytest.mark.parametrize("dims, relation", [(65, "fewer"), (1000, "as many"), (4096, "more")])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-words", "words-per-chunk"])
def test_table_batches_and_lookup_chunks_follow_documented_order(dims, relation, shared):
    weight = (1.0 / np.log(np.arange(60) + 2.0)).tolist()
    sets = _layout_sets(shared)
    csr, rows, batches, chunks = _build_with_layout(Codebook(seed=7, dims=dims), sets, weight, 1 << 14)
    assert (csr.distinct.size <= len(sets) and csr.distinct.size < csr.ranks.size) == shared
    assert max(batches) == 2 and sum(batches) == sum(chunks)
    first = sum(-(-len(set(members)) // 8) for members in sets[:3])
    assert first // 2 != (first + 2) // 2  # the fourth set straddles two batches
    assert {"fewer": max(batches) < max(chunks), "as many": max(batches) == max(chunks),
            "more": max(batches) > max(chunks)}[relation]
    for row, members in zip(rows, sets):
        expected = np.array(reference_in_order(7, dims, members, weight))
        assert row.tobytes() == expected.tobytes()
        assert not has_negative_zero(row)


@pytest.mark.parametrize("dims", (65, 1000))
@pytest.mark.parametrize("shared", [True, False], ids=["shared-words", "words-per-chunk"])
def test_zero_weight_set_inside_a_table_batch_is_positive_zero(dims, shared):
    # One default batch of 128 tables holds every set.  The middle set's
    # only group has all-zero weights: its table values are all zero, so
    # writing that group into the row must leave +0.0, and the rows of the
    # sets around it, written and added through the same batch, keep the
    # documented order.
    weight = (1.0 / np.log(np.arange(60) + 2.0)).tolist()
    zeros = [50, 52, 54, 57]
    weight = [0.0 if e in zeros else w for e, w in enumerate(weight)]
    sets = _layout_sets(shared)
    middle = len(sets) // 2
    sets[middle] = zeros
    csr, rows, batches, chunks = _build_with_layout(Codebook(seed=8, dims=dims), sets, weight, 1 << 20)
    assert len(batches) == 1 and len(chunks) == 1
    assert rows[middle].tobytes() == np.zeros(dims).tobytes()
    for row, members in zip(rows, sets):
        expected = np.array(reference_in_order(8, dims, members, weight))
        assert row.tobytes() == expected.tobytes()
        assert not has_negative_zero(row)


def test_linkpred_sized_weighted_build_adds_little_beside_its_output(added_peak_rss):
    # 2,000 Adamic-Adar weighted neighbourhoods at d=4096, as the linkpred
    # benchmark builds them: the output is 62.5 MiB, and the nodes recur and
    # are no more than the sets, so the build hashes their words once into a
    # 1 MiB shared table.
    added = added_peak_rss(
        "from dothash.linkpred import adamic_adar_weights, preferential_attachment_graph\n"
        "g = preferential_attachment_graph(2000, 12, seed=3)\n"
        "weight = adamic_adar_weights(g)\n"
        "sets = distinct_sets(g.indptr, g.indices)\n"
        "assert sets.distinct.size <= 2000 and sets.distinct.size < sets.ranks.size\n"
        "dothash_build_many(Codebook(seed=1, dims=4096), distinct_sets(np.array([0, 9]), np.arange(9, dtype=np.uint64)), weight)",
        "dothash_build_many(Codebook(seed=1, dims=4096), sets, weight)",
    )
    output = 2000 * 4096 * 8
    assert added < output + 2 * 2**20, f"batch build added {added / 2**20:.1f} MiB of peak RSS"


def _dothash_into(dims, w, seed, sets, out=None):
    return dothash_build_many(Codebook(seed=seed, dims=dims), sets, w, out)


# Each batch build as build(seed, sets, out=None): DotHash unit and weighted at d = 4096 and 200, MinHash, SimHash.
BATCH_BUILDS = {
    **{f"dothash-{name}-{dims}": functools.partial(_dothash_into, dims, w) for dims in (4096, 200)
       for name, w in (("unit", None), ("weighted", WeightFn.from_array(1.0 / np.log(np.arange(2000) + 2.0))))},
    "minhash": lambda seed, sets, out=None: minhash_build_many(MinwiseFamily(seed=seed, k=100), sets, out),
    "simhash": lambda seed, sets, out=None: simhash_build_many(Codebook(seed=seed, dims=200), sets, out),
}


@pytest.mark.parametrize("name", BATCH_BUILDS)
@pytest.mark.parametrize("recur", [True, False], ids=["shared-words", "words-per-chunk"])
def test_build_into_an_earlier_build_equals_a_fresh_one(name, recur):
    # Empty sets first, in the middle and last.  The earlier build is of
    # another seed and of the sets rotated by 7, so it held sums where the
    # empty sets' rows are.  Elements that recur over no more distinct
    # ids than sets share one word table; the other sets hash words per
    # chunk.  MinHash folds about 650 rows a chunk, so sets span chunks.
    rng = np.random.default_rng(21)
    sizes = rng.integers(1, 50, 60)
    sizes[[0, 1, 30, 59]] = 0
    members = [sorted(rng.choice(60 if recur else 2000, size, replace=False).tolist()) for size in sizes]
    sets, rotated = (distinct_sets(*_csr(order)) for order in (members, members[7:] + members[:7]))
    assert (sets.distinct.size <= 60) == recur
    build = BATCH_BUILDS[name]
    earlier = build(5, rotated)
    filler = sketches.MINHASH_EMPTY_SENTINEL if name == "minhash" else 0
    assert not np.any(np.all(earlier[sizes == 0] == filler, axis=1))
    built = build(4, sets, earlier)
    assert built is earlier
    assert built.tobytes() == build(4, sets).tobytes()
    empty = built[sizes == 0]
    assert empty.tobytes() == np.full_like(empty, filler).tobytes()  # +0.0, the sentinel, zero bits


@pytest.mark.parametrize("name", BATCH_BUILDS)
def test_build_rejects_an_output_of_another_form(name):
    sets = distinct_sets(*_csr([[1, 2], [], [3]]))
    built = BATCH_BUILDS[name](0, sets)
    read_only = built.copy()
    read_only.setflags(write=False)
    width = built.shape[1]
    for out in (built[:2], np.zeros((3, width + 1), built.dtype), built.astype(np.float32),
                np.zeros((width, 3), built.dtype).T, read_only):
        with pytest.raises(ValueError, match="^out must be"):
            BATCH_BUILDS[name](0, sets, out)
