"""Tests for the variance formula, tail bounds, and dimension sizing."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dothash import bounds, encoding
from dothash.bounds import (
    BoundsQuery,
    BoundsRow,
    bounds_sweep,
    chebyshev_tail,
    clt_tail,
    empirical_exceedance,
    normal_cdf,
    normal_ppf,
    required_dims,
    sample_intersection_estimates,
    variance,
    weighted_variance,
)
from dothash.encoding import Codebook
from dothash.linkpred import (
    Estimator,
    Metric,
    adamic_adar_weights,
    preferential_attachment_graph,
    sketch_neighborhoods,
    split_edges,
)
from dothash.sketches import WeightFn, distinct_sets, dothash_build, dothash_build_many, dothash_intersection


def q(size_a=200, size_b=200, size_int=100, dims=1024, epsilon=0.3, prob=0.05):
    return BoundsQuery(size_a=size_a, size_b=size_b, size_int=size_int,
                       dims=dims, epsilon=epsilon, prob=prob)


class TestBoundsQuery:
    def test_invariants(self):
        with pytest.raises(ValueError):
            q(size_int=300)  # exceeds min(|A|, |B|)
        with pytest.raises(ValueError):
            q(dims=0)
        with pytest.raises(ValueError):
            BoundsQuery(size_a=-1, size_b=1, size_int=0, dims=8)

    @pytest.mark.parametrize("field, value", [("size_a", 30.5), ("size_b", 35.0), ("size_int", 20.2),
                                              ("dims", 100.5)])
    def test_rejects_a_size_or_dims_that_is_not_whole(self, field, value):
        # 30.5 once passed every check, and variance read 14.275.
        with pytest.raises(TypeError):
            BoundsQuery(**{"size_a": 30, "size_b": 35, "size_int": 20, "dims": 100, field: value})

    def test_takes_numpy_integers_as_ints(self):
        query = BoundsQuery(np.int64(30), np.uint16(35), np.int32(20), np.int64(100))
        assert query == BoundsQuery(30, 35, 20, 100)
        assert all(type(v) is int for v in (query.size_a, query.size_b, query.size_int, query.dims))
        assert variance(query) == variance(BoundsQuery(30, 35, 20, 100))


class TestVariance:
    def test_worked_example(self):
        assert variance(q()) == pytest.approx(49800 / 1024)

    def test_zero_overlap_reduces(self):
        assert variance(q(size_int=0)) == pytest.approx(200 * 200 / 1024)

    def test_nonnegative_over_grid(self):
        for a in (0, 1, 5, 50, 200):
            for b in (0, 1, 5, 50, 200):
                for i in range(0, min(a, b) + 1, 7):
                    assert variance(q(size_a=a, size_b=b, size_int=i)) >= 0.0

    def test_matches_monte_carlo(self, unit_mc_estimates):
        for overlap, estimates in unit_mc_estimates.items():
            expected = variance(q(size_int=overlap))
            assert estimates.var(ddof=1) == pytest.approx(expected, rel=0.10)


class TestWeightedVariance:
    def test_unit_weights_give_variance(self):
        for a, b, i in ((200, 200, 100), (200, 200, 0), (5, 50, 5), (1, 1, 1), (0, 7, 0)):
            for dims in (1, 64, 1024):
                expected = variance(q(size_a=a, size_b=b, size_int=i, dims=dims))
                assert weighted_variance(a, b, i, i, dims) == pytest.approx(expected, rel=1e-15)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="dims"):
            weighted_variance(1.0, 1.0, 1.0, 1.0, 0)

    def test_matches_monte_carlo(self):
        # Three sets built by dothash_build_many over 3,000 codebook seeds at
        # d=64: |A| = |B| = 40 overlapping in 20 elements with weights from
        # 0.05 to 3, and a set D of 6 elements with weights from 4 down to
        # 0.1, scored against itself, where c^2 and q are most of the
        # variance.  For A, B and for D, D the mean must lie within 4
        # standard errors of c, and the sample variance within 10% of the
        # formula, as for unit weights.
        rng = np.random.default_rng(5)
        weights = np.concatenate([rng.uniform(0.05, 3.0, 60), [4.0, 2.0, 1.0, 0.5, 0.25, 0.1]])
        a, b, d = np.arange(40), np.arange(20, 60), np.arange(60, 66)
        sets = distinct_sets(np.array([0, 40, 80, 86]), np.concatenate([a, b, d]).astype(np.uint64))
        w = WeightFn.from_array(weights)
        trials, dims = 3000, 64
        estimates = np.empty((2, trials))
        for t in range(trials):
            rows = dothash_build_many(Codebook(seed=90_000 + t, dims=dims), sets, w)
            estimates[:, t] = rows[0] @ rows[1], rows[2] @ rows[2]
        for (x, y), sample in zip([(a, b), (d, d)], estimates):
            both = weights[np.intersect1d(x, y)]
            expected = weighted_variance(weights[x].sum(), weights[y].sum(), both.sum(), (both**2).sum(), dims)
            assert abs(sample.mean() - both.sum()) < 4 * math.sqrt(expected / trials)
            assert sample.var(ddof=1) == pytest.approx(expected, rel=0.10)


class TestPredictedError:
    """Each estimator's error over link-prediction pairs against its error model.

    The pairs are the 7,158 held-out positives and sampled negatives of a
    preferential-attachment graph, scored on its train graph at d = k = 256
    under codebook seeds 100-104.  The root mean square error over pairs
    and seeds must lie within 10% of the root of the mean predicted
    variance: the paper's ``(|A||B| + i^2 - 2i)/d`` for DotHash common
    neighbours, its weighted form for DotHash Adamic-Adar, and the binomial
    ``J(1 - J)/k`` for MinHash Jaccard.  Ratios measured at d = 64, 256 and
    1024 lay in 0.979-1.006.
    """

    DIMS = 256
    SEEDS = range(100, 105)

    @pytest.fixture(scope="class")
    def split(self):
        split = split_edges(preferential_attachment_graph(2000, 12, seed=5), 0.1, 2, seed=6)
        pairs = np.concatenate([split.positives, split.negatives])
        assert len(pairs) == 7158
        return split.train_graph, pairs

    def scores(self, graph, pairs, metric, estimator, seed=0):
        size = None if estimator is Estimator.EXACT else self.DIMS
        return sketch_neighborhoods(graph, metric, estimator, size, seed=seed).score_pairs(pairs)

    def rmse_ratio(self, graph, pairs, metric, estimator, exact, predicted):
        errors = [self.scores(graph, pairs, metric, estimator, seed) - exact for seed in self.SEEDS]
        return math.sqrt(np.mean(np.square(errors)) / np.mean(predicted))

    def test_dothash_common_neighbours(self, split):
        graph, pairs = split
        common = self.scores(graph, pairs, Metric.COMMON_NEIGHBORS, Estimator.EXACT)
        sizes = graph.degrees()[pairs]
        predicted = [variance(BoundsQuery(int(a), int(b), int(i), self.DIMS))
                     for (a, b), i in zip(sizes.tolist(), common.tolist())]
        ratio = self.rmse_ratio(graph, pairs, Metric.COMMON_NEIGHBORS, Estimator.DOTHASH, common, predicted)
        assert 0.9 < ratio < 1.1

    def test_dothash_adamic_adar(self, split):
        graph, pairs = split
        w = adamic_adar_weights(graph).weights_for(np.arange(graph.node_count, dtype=np.uint64))
        common = self.scores(graph, pairs, Metric.ADAMIC_ADAR, Estimator.EXACT)
        squares = self.scores(graph, pairs, WeightFn.from_array(w**2), Estimator.EXACT)
        owners = np.repeat(np.arange(graph.node_count), graph.degrees())
        totals = np.bincount(owners, w[graph.indices], graph.node_count)[pairs]
        predicted = weighted_variance(totals[:, 0], totals[:, 1], common, squares, self.DIMS)
        ratio = self.rmse_ratio(graph, pairs, Metric.ADAMIC_ADAR, Estimator.DOTHASH, common, predicted)
        assert 0.9 < ratio < 1.1

    def test_minhash_jaccard(self, split):
        graph, pairs = split
        jaccard = self.scores(graph, pairs, Metric.JACCARD, Estimator.EXACT)
        predicted = jaccard * (1.0 - jaccard) / self.DIMS
        ratio = self.rmse_ratio(graph, pairs, Metric.JACCARD, Estimator.MINHASH, jaccard, predicted)
        assert 0.9 < ratio < 1.1


class TestChebyshevTail:
    def test_worked_example(self):
        assert chebyshev_tail(q()) == pytest.approx(48.6328125 / 900, rel=1e-9)

    def test_large_dims_drives_bound_to_zero(self):
        assert chebyshev_tail(q(dims=1 << 40)) < 1e-6

    def test_capped_at_one(self):
        assert chebyshev_tail(q(dims=1, epsilon=0.01)) == 1.0

    def test_empty_intersection_raises(self):
        with pytest.raises(ValueError, match="relative error undefined"):
            chebyshev_tail(q(size_int=0))

    def test_dominates_clt_for_large_dims(self):
        for dims in (4096, 16384, 65536):
            for eps in (0.05, 0.1, 0.2, 0.4):
                query = q(dims=dims, epsilon=eps)
                assert chebyshev_tail(query) >= clt_tail(query)


class TestCltTail:
    def test_normal_quantile_identity(self):
        # construct eps so that eps*i/sqrt(Var) = 1.96 -> probability ~0.05
        base = q(epsilon=1.0)
        eps = 1.96 * math.sqrt(variance(base)) / base.size_int
        assert clt_tail(q(epsilon=eps)) == pytest.approx(0.05, abs=1e-3)

    def test_epsilon_to_infinity(self):
        assert clt_tail(q(epsilon=1e9)) == 0.0

    def test_monotone_in_dims_and_epsilon(self):
        tails_d = [clt_tail(q(dims=d)) for d in (256, 512, 1024, 4096)]
        assert tails_d == sorted(tails_d, reverse=True)
        tails_e = [clt_tail(q(epsilon=e)) for e in (0.05, 0.1, 0.2, 0.4)]
        assert tails_e == sorted(tails_e, reverse=True)
        cheb_d = [chebyshev_tail(q(dims=d)) for d in (256, 512, 1024, 4096)]
        assert cheb_d == sorted(cheb_d, reverse=True)

    def test_empirical_matches_clt_spot_check(self):
        estimates = sample_intersection_estimates(200, 200, 100, 512, 2000, seed0=9)
        for eps in (0.1, 0.2, 0.3):
            observed = empirical_exceedance(estimates, 100, [eps])[0]
            assert observed == pytest.approx(clt_tail(q(dims=512, epsilon=eps)), abs=0.05)

    def test_overlap_sweep_tracks_clt(self):
        # the error curves agree with the CLT prediction at every candidate
        # overlap, not just the one the acceptance suite pins
        for overlap in (50, 100, 150):
            estimates = sample_intersection_estimates(200, 200, overlap, 512, 2000,
                                                      seed0=500 + overlap)
            for eps in (0.1, 0.25):
                observed = empirical_exceedance(estimates, overlap, [eps])[0]
                predicted = clt_tail(q(size_int=overlap, dims=512, epsilon=eps))
                assert observed == pytest.approx(predicted, abs=0.05)


class TestRequiredDims:
    def test_worked_example(self):
        assert required_dims(q(epsilon=0.3, prob=0.05)) == 213

    def test_round_trip_meets_target(self):
        for prob in (0.01, 0.05, 0.2):
            for eps in (0.1, 0.3):
                query = q(epsilon=eps, prob=prob)
                d = required_dims(query)
                achieved = clt_tail(q(dims=d, epsilon=eps))
                assert achieved <= prob + 1e-9

    def test_prob_near_one_gives_minimal_dims(self):
        assert required_dims(q(prob=0.999999)) >= 1
        assert required_dims(q(prob=0.999999)) <= 2

    def test_target_below_double_epsilon(self):
        # 1 - 1e-17 / 2 rounds to 1.0, so the quantile must be taken in the lower tail.
        z = scipy.special.ndtri(1e-17 / 2)
        assert required_dims(q(prob=1e-17)) == math.ceil(49800 * (z / 30) ** 2) == 4068

    def test_zero_variance_needs_one_dim(self):
        # At |A| = |B| = i = 1 the variance numerator 1 + 1 - 2 is 0, so the
        # solved d is 0, and the least whole sketch size is 1.
        assert required_dims(q(size_a=1, size_b=1, size_int=1, epsilon=0.1)) == 1

    def test_monotone_in_epsilon_and_prob(self):
        dims_e = [required_dims(q(epsilon=e)) for e in (0.05, 0.1, 0.2, 0.4)]
        assert dims_e == sorted(dims_e, reverse=True)
        dims_p = [required_dims(q(prob=p)) for p in (0.01, 0.05, 0.2, 0.5)]
        assert dims_p == sorted(dims_p, reverse=True)


@pytest.mark.parametrize("analytic", [chebyshev_tail, clt_tail, required_dims])
@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_epsilon_must_be_finite_and_positive(analytic, epsilon):
    # NaN compares False with everything, so ``epsilon <= 0`` alone let it through.
    with pytest.raises(ValueError, match="^epsilon must be positive"):
        analytic(q(epsilon=epsilon))


class TestNormalFunctions:
    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_mutual_inverses(self, x):
        assert abs(normal_ppf(normal_cdf(x)) - x) < 1e-6

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_inverse_other_direction(self, p):
        assert abs(normal_cdf(normal_ppf(p)) - p) < 1e-9

    def test_against_scipy(self):
        xs = np.linspace(-6, 6, 101)
        for x in xs:
            assert abs(normal_cdf(float(x)) - scipy.special.ndtr(x)) < 1e-12
        # Both tails down to the smallest subnormal double.
        ps = np.concatenate((np.linspace(0.001, 0.999, 101), np.logspace(-300, -3),
                             1 - np.logspace(-16, -3), [5e-324]))
        for p in ps:
            assert normal_ppf(float(p)) == pytest.approx(scipy.special.ndtri(p), rel=1e-12, abs=1e-15)

    def test_ppf_domain(self):
        with pytest.raises(ValueError):
            normal_ppf(0.0)
        with pytest.raises(ValueError):
            normal_ppf(1.0)


@pytest.fixture
def chunk_seeds(monkeypatch) -> list:
    """The number of seeds of every ``sign_sums`` call that the sampler makes."""
    seen, counted = [], bounds.sign_sums

    def spy(seeds, *args):
        seen.append(len(seeds))
        return counted(seeds, *args)

    monkeypatch.setattr(bounds, "sign_sums", spy)
    return seen


class TestMonteCarloSampler:
    def test_matches_per_seed_sketch_path(self):
        # the seed-batched sampler must agree with building the two sketches
        elements = np.arange(45, dtype=np.uint64)
        set_a, set_b = elements[:30], elements[10:45]  # |A|=30, |B|=35, i=20
        estimates = sample_intersection_estimates(30, 35, 20, 128, 5, seed0=400)
        for t in range(5):
            cb = Codebook(seed=400 + t, dims=128)
            expected = dothash_intersection(dothash_build(cb, set_a), dothash_build(cb, set_b))
            assert estimates[t] == pytest.approx(expected, abs=1e-9)

    def test_sweep_shape_and_determinism(self):
        rows = bounds_sweep(50, 50, 25, [64, 128], [0.2, 0.4], trials=100, seed0=3)
        assert len(rows) == 4
        again = bounds_sweep(50, 50, 25, [64, 128], [0.2, 0.4], trials=100, seed0=3)
        assert rows == again

    def test_estimates_are_exact_integer_dot_products(self):
        # Each estimate is the integer dot product of the two sets' sign
        # sums, divided by d once, whatever the pieces they are counted in.
        elements = np.arange(45, dtype=np.uint64)
        estimates = sample_intersection_estimates(30, 35, 20, 100, 4, seed0=400)
        for t in range(4):
            signs = Codebook(seed=400 + t, dims=100).sign_rows(elements).astype(np.int64)
            dot = int((signs[:30].sum(axis=0) * signs[10:45].sum(axis=0)).sum())
            assert estimates[t] == dot / 100

    @pytest.mark.parametrize("size_a, size_b, size_int",
                             [(30, 35, 20), (20, 35, 20), (35, 20, 20), (20, 20, 20), (12, 9, 0)])
    def test_sweep_equals_sampling_each_dims_alone(self, size_a, size_b, size_int):
        # The sweep hashes once at the largest d and takes each d as a prefix
        # of those sums; 70 trials span two seed chunks at d = 2048.
        dims_list, epsilons = [2048, 512, 512, 65, 1], [0.1, 0.3, 0.7]
        per_dims = [sample_intersection_estimates(size_a, size_b, size_int, dims, 70, seed0=17)
                    for dims in dims_list]
        swept = bounds._sample_estimates(size_a, size_b, size_int, dims_list, 70, 17)
        for row, alone in zip(swept, per_dims):
            assert np.array_equal(row, alone)
        if size_int == 0:
            return  # the relative-error bounds are undefined
        expected = []
        for dims, estimates in zip(dims_list, per_dims):
            empirical = empirical_exceedance(estimates, size_int, epsilons)
            for eps, emp in zip(epsilons, empirical):
                query = BoundsQuery(size_a=size_a, size_b=size_b, size_int=size_int, dims=dims,
                                    epsilon=eps)
                expected.append(BoundsRow(dims=dims, epsilon=eps, chebyshev=chebyshev_tail(query),
                                          clt=clt_tail(query), empirical=float(emp)))
        assert bounds_sweep(size_a, size_b, size_int, dims_list, epsilons, trials=70,
                            seed0=17) == expected

    @pytest.mark.parametrize("size_int, dims_list", [(0, [4096]), (100, [64, 0]), (300, [64])])
    def test_sweep_rejects_a_bad_query_before_sampling(self, monkeypatch, size_int, dims_list):
        def sampled(*args):
            raise AssertionError("sign_sums called before the grid was checked")

        monkeypatch.setattr(bounds, "sign_sums", sampled)
        with pytest.raises(ValueError):
            bounds_sweep(200, 200, size_int, dims_list, [0.1], trials=20_000)

    @pytest.mark.parametrize("seed0", [-1, 2**64 - 1, 2**64 - 3])
    def test_seeds_wrap_around_two_to_the_64(self, seed0):
        # Trial t uses seed (seed0 + t) mod 2**64, the seed Codebook itself
        # takes for seed0 + t.
        elements = np.arange(45, dtype=np.uint64)
        estimates = sample_intersection_estimates(30, 35, 20, 100, 5, seed0=seed0)
        for t in range(5):
            signs = Codebook(seed=(seed0 + t) & (2**64 - 1), dims=100).sign_rows(elements)
            signs = signs.astype(np.int64)
            dot = int((signs[:30].sum(axis=0) * signs[10:45].sum(axis=0)).sum())
            assert estimates[t] == dot / 100

    @pytest.mark.parametrize("dims_list, epsilons", [([64, 128], []), ([], [0.1, 0.2])])
    def test_an_empty_grid_samples_nothing(self, monkeypatch, dims_list, epsilons):
        def sampled(*args):
            raise AssertionError("sign_sums called for an empty grid")

        monkeypatch.setattr(bounds, "sign_sums", sampled)
        assert bounds_sweep(200, 200, 100, dims_list, epsilons, trials=20_000) == []
        with pytest.raises(ValueError):  # the set sizes are still checked
            bounds_sweep(200, 200, 300, dims_list, epsilons, trials=20_000)

    @pytest.mark.parametrize("sizes, dims", [((10, 15, -1), 16), ((-1, 15, 0), 16), ((10, 15, 5), 0)])
    def test_sampler_rejects_bad_arguments(self, sizes, dims):
        with pytest.raises(ValueError):
            sample_intersection_estimates(*sizes, dims, 3)

    def test_large_sets_add_bounded_memory(self, added_peak_rss):
        # Unpacking every sign bit of 300k elements at d=256 added about
        # 150 MiB; counting chunks of packed words adds a few MiB.
        added = added_peak_rss(
            "from dothash.bounds import sample_intersection_estimates\n"
            "sample_intersection_estimates(10, 10, 5, 256, 2)",
            "sample_intersection_estimates(200_000, 200_000, 100_000, 256, 2)",
        )
        assert added < 16 * 2**20, f"sampling added {added / 2**20:.1f} MiB of peak RSS"

    @pytest.mark.parametrize("build, bound_mib", [
        # The bounds-mc benchmark sweep: 16 seed chunks at d = 2048.
        pytest.param("bounds_sweep(200, 200, 100, [512, 1024, 2048],"
                     " [0.05 + 0.0125 * i for i in range(20)], 1000)", 7, id="bench-sweep"),
        # One seed per chunk, each int64 array of sums 8 MiB.
        pytest.param("sample_intersection_estimates(200, 200, 100, 2**20, 2)", 40, id="large-dims"),
        # 245 seed chunks: the sweep holds no array that grows with the trials.
        pytest.param("bounds_sweep(20, 20, 10, [64], [0.1, 0.2], 500_000)", 4, id="many-trials"),
    ])
    def test_sweeps_add_bounded_memory(self, added_peak_rss, build, bound_mib):
        # Fresh sums, counts and estimates per chunk added 11.3, 62.3 and
        # 13.5 MiB; the sampler now reuses one working set for every chunk.
        added = added_peak_rss(
            "from dothash.bounds import bounds_sweep, sample_intersection_estimates\n"
            "bounds_sweep(20, 20, 10, [64], [0.1], 10)",
            build,
        )
        assert added < bound_mib * 2**20, f"sampling added {added / 2**20:.1f} MiB of peak RSS"

    def test_chunk_boundaries_leave_every_result_unchanged(self, monkeypatch):
        # |A| = 130, |B| = 150, i = 90: B is {40..189}.  At d = 300 the cap
        # is 5 seeds and a sign_sums buffer holds 300 // seeds elements, so
        # a chunk takes 3 seeds, the most that count the 90 shared elements
        # in one element chunk, and 37 trials take 13 seed chunks, the last
        # of 1.
        sizes, dims_list, epsilons, trials = (130, 150, 90), [300, 64, 64, 65], [0.05, 0.1, 0.3], 37
        whole = bounds._sample_estimates(*sizes, dims_list, trials, 5)
        alone = [sample_intersection_estimates(*sizes, dims, trials, seed0=5) for dims in dims_list]
        rows = bounds_sweep(*sizes, dims_list, epsilons, trials=trials, seed0=5)
        monkeypatch.setattr(bounds, "_CHUNK_BYTES", 8 * 300 * 5)
        monkeypatch.setattr(encoding, "_CHUNK_BYTES", 8 * 300 * 5)
        assert np.array_equal(bounds._sample_estimates(*sizes, dims_list, trials, 5), whole)
        for dims, estimates in zip(dims_list, alone):
            assert np.array_equal(sample_intersection_estimates(*sizes, dims, trials, seed0=5), estimates)
        assert bounds_sweep(*sizes, dims_list, epsilons, trials=trials, seed0=5) == rows

        elements = np.arange(190, dtype=np.uint64)
        for t in range(trials):
            signs = Codebook(seed=5 + t, dims=300).sign_rows(elements).astype(np.int64)
            products = signs[:130].sum(axis=0) * signs[40:].sum(axis=0)
            assert [whole[k, t] for k in range(len(dims_list))] == [products[:d].sum() / d for d in dims_list]
        expected = [float(np.mean(np.abs(row - 90) >= eps * 90)) for row in whole for eps in epsilons]
        assert [row.empirical for row in rows] == expected

    def test_a_set_past_one_element_chunk_is_split_and_unchanged(self, monkeypatch, counted_rows):
        # At d = 300 a cap of 1 seed, whose sign_sums buffer holds 60
        # elements: the 90 shared elements are counted as 60 + 30 in every
        # trial, and every estimate keeps its bits.
        sizes, dims_list, trials = (130, 150, 90), [300, 64, 65], 7
        whole = bounds._sample_estimates(*sizes, dims_list, trials, 5)
        monkeypatch.setattr(bounds, "_CHUNK_BYTES", 8 * 300)
        monkeypatch.setattr(encoding, "_CHUNK_BYTES", 8 * 300)
        counted_rows.clear()
        assert np.array_equal(bounds._sample_estimates(*sizes, dims_list, trials, 5), whole)
        assert counted_rows == [60, 30, 40, 60] * trials

    def test_bench_sweep_counts_each_set_in_one_element_chunk(self, chunk_seeds, counted_rows):
        # The bounds-mc sweep: sets of 100, 100 and 100 elements at d = 2048.
        # 40 seeds, not the cap of 64, let each set's 100 elements fill one
        # element chunk, so 1000 trials take 25 seed chunks of 3 row chunks.
        bounds_sweep(200, 200, 100, [512, 1024, 2048], [0.05 + 0.0125 * i for i in range(20)], 1000)
        assert chunk_seeds == [40] * 75
        assert counted_rows == [100] * 75

    def test_a_set_that_no_seed_count_fits_keeps_the_cap(self, chunk_seeds, counted_rows):
        # 5,000 elements in A - B and in B - A: one seed's sign_sums buffer
        # at d = 2048 holds 4,096, so chunks keep the cap of
        # _CHUNK_BYTES // (8 * 2048) = 64 seeds, and each set is split.
        sizes, dims_list, trials = (6000, 6000, 1000), [2048, 64], 70
        whole = bounds._sample_estimates(*sizes, dims_list, trials, 7)
        assert bounds._CHUNK_BYTES // (8 * 2048) == 64
        assert chunk_seeds == [64] * 3 + [6] * 3
        assert max(counted_rows) < 5000
        for dims, estimates in zip(dims_list, whole):
            assert np.array_equal(sample_intersection_estimates(*sizes, dims, trials, seed0=7), estimates)

    @pytest.mark.parametrize("sizes, dims, trials", [
        ((200, 200, 100), 2048, 100),  # the bounds-mc sets: 40 seeds
        ((64, 64, 64), 2048, 64),  # 64 elements: exactly the cap
        ((128, 128, 0), 4096, 40),  # 16 seeds, below a cap of 32
        ((100, 0, 0), 64, 2000),  # 1,310 seeds, below a cap of 2,000
        ((6000, 6000, 1000), 2048, 70),  # no seed count fits: the cap
        ((3, 3, 1), 64, 10),  # the trials are the cap
        ((0, 0, 0), 3000, 50),  # empty sets: the cap
    ])
    def test_seed_chunk_is_the_most_seeds_that_count_each_set_in_one_row_chunk(self, chunk_seeds, sizes, dims,
                                                                             trials):
        size_a, size_b, size_int = sizes
        largest = max(size_a - size_int, size_int, size_b - size_int)
        cap = max(1, min(trials, bounds._CHUNK_BYTES // (8 * dims)))
        fits = [seeds for seeds in range(1, cap + 1) if encoding._sign_sums_rows(seeds, dims) >= largest]
        bounds._sample_estimates(*sizes, [dims], trials, 0)
        assert chunk_seeds[0] == max(fits, default=cap)

    @pytest.mark.parametrize("sizes, dims", [((30.7, 35, 20), 100), ((30, 35.0, 20), 100), ((30, 35, 20.5), 100),
                                             ((30, 35, 20), 100.5)])
    def test_sampler_rejects_a_size_or_dims_that_is_not_whole(self, sizes, dims):
        # 30.7 once sampled sets that matched neither |A| = 30 nor 31, and
        # dims 100.5 was cut to 100.
        with pytest.raises(TypeError):
            sample_intersection_estimates(*sizes, dims, 3, seed0=1)

    @pytest.mark.parametrize("sizes, dims_list, epsilons", [((30, 35, 20), [100.5], [0.1]),
                                                            ((30, 35.5, 20), [64], [])])
    def test_sweep_rejects_a_size_or_dims_that_is_not_whole(self, sizes, dims_list, epsilons):
        # With no epsilon the grid is empty, and the sampler still checks the sizes.
        with pytest.raises(TypeError):
            bounds_sweep(*sizes, dims_list, epsilons, trials=3)

    def test_sampler_takes_numpy_integers(self):
        got = sample_intersection_estimates(np.int64(30), np.uint16(35), np.int32(20), np.int64(100), 3, seed0=1)
        assert np.array_equal(got, sample_intersection_estimates(30, 35, 20, 100, 3, seed0=1))

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_overlap_validation(self, size_int):
        if size_int > 10:
            with pytest.raises(ValueError):
                sample_intersection_estimates(10, 15, size_int, 16, 1)
        else:
            out = sample_intersection_estimates(10, 15, size_int, 16, 1)
            assert out.shape == (1,)
