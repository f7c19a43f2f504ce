"""Analytic error bounds for the DotHash intersection estimator.

For sets of sizes ``|A|``, ``|B|`` with intersection ``i`` and sketch
dimension ``d``, the estimator's variance is::

    Var = (|A| * |B| + i**2 - 2 * i) / d

With element weights w, the weighted estimate of ``c = sum of w over A & B``
has variance ``(W_A * W_B + c**2 - 2 * q) / d`` (:func:`weighted_variance`),
where ``W_A`` and ``W_B`` sum w over each set and ``q`` sums w**2 over the
intersection.  From the unit-weight variance this module derives the
Chebyshev tail bound on the relative-error event ``|X - i| >= eps * i``,
the CLT approximation of the same probability, and the dimension required
to hit a target error probability.
A seed-driven Monte-Carlo sampler produces the matching empirical
exceedance curves (the dashed lines next to the solid CLT ones).

The normal CDF is ``0.5 * (1 + erf(x / sqrt(2)))`` via the C-library
``math.erf``.  The quantile is the standard library's
``statistics.NormalDist().inv_cdf`` (Wichura's AS241), within 1e-15
relative of scipy's ``ndtri`` from 5e-324 to 1 - 1e-16.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .encoding import _CHUNK_BYTES, _sign_sums_buffer, _sign_sums_rows, sign_sums, u64, whole


def _set_sizes(size_a: int, size_b: int, size_int: int) -> tuple[int, int, int]:
    """|A|, |B| and |A & B| as whole numbers; ValueError when the intersection exceeds the smaller set."""
    sizes = whole("size_a", size_a, 0), whole("size_b", size_b, 0), whole("size_int", size_int, 0)
    if sizes[2] > min(sizes[:2]):
        raise ValueError("intersection cannot exceed the smaller set")
    return sizes


@dataclass(frozen=True)
class BoundsQuery:
    """Set sizes, sketch dimension, and error target for a bounds question."""

    size_a: int
    size_b: int
    size_int: int
    dims: int
    epsilon: float = 0.1
    prob: float = 0.05

    def __post_init__(self) -> None:
        size_a, size_b, size_int = _set_sizes(self.size_a, self.size_b, self.size_int)
        vars(self).update(size_a=size_a, size_b=size_b, size_int=size_int, dims=whole("dims", self.dims, 1))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via math.erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_ppf(p: float) -> float:
    """Standard normal quantile, ``statistics.NormalDist().inv_cdf``."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    # Imported here, as ``import dothash`` loads this module and statistics
    # takes a few milliseconds to import.
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def _variance_numerator(q: BoundsQuery) -> float:
    return float(q.size_a) * q.size_b + float(q.size_int) ** 2 - 2.0 * q.size_int


def variance(q: BoundsQuery) -> float:
    """(|A||B| + i^2 - 2i) / d, the estimator variance."""
    return _variance_numerator(q) / q.dims


def weighted_variance(
    weight_a: float, weight_b: float, common: float, common_squares: float, dims: int
) -> float:
    """(W_A W_B + c^2 - 2q) / d, the variance of the weighted estimate of ``c``.

    ``weight_a`` and ``weight_b`` are W_A and W_B, the sums of the weights
    over A and over B; ``common`` is c, their sum over A ∩ B, and
    ``common_squares`` is q, the sum of the squared weights over A ∩ B.
    Each coordinate's product of signed root sums has mean c/d and second
    moment (W_A W_B + 2c^2 - 2q)/d^2, and the d coordinates are independent.
    Unit weights give W_A = |A|, W_B = |B| and c = q = i: :func:`variance`.
    """
    return (weight_a * weight_b + common**2 - 2.0 * common_squares) / whole("dims", dims, 1)


def _check_relative_error(q: BoundsQuery) -> None:
    """Raise ValueError unless ``eps * i`` is a finite positive error: i > 0 and 0 < eps < inf."""
    if q.size_int == 0:
        raise ValueError("relative error undefined for empty intersection")
    # NaN fails every comparison, so test for a finite epsilon first.
    if not math.isfinite(q.epsilon) or q.epsilon <= 0:
        raise ValueError(f"epsilon must be positive and finite, got {q.epsilon!r}")


def chebyshev_tail(q: BoundsQuery) -> float:
    """Chebyshev bound on P(|X - i| >= eps * i), capped at 1."""
    _check_relative_error(q)
    return float(min(1.0, variance(q) / (q.epsilon * q.size_int) ** 2))


def clt_tail(q: BoundsQuery) -> float:
    """CLT approximation 2 * (1 - Phi(eps * i / sqrt(Var))) of the same event."""
    _check_relative_error(q)
    z = q.epsilon * q.size_int / math.sqrt(variance(q))
    return 2.0 * (1.0 - normal_cdf(z))


def required_dims(q: BoundsQuery) -> int:
    """Smallest whole d with CLT error probability at most ``prob``.

    Substitutes Var = numerator / d into the CLT bound and solves for d.
    """
    _check_relative_error(q)
    if not 0.0 < q.prob < 1.0:
        raise ValueError("target probability must lie strictly in (0, 1)")
    # The lower tail, so that a tiny ``prob`` is not lost in ``1 - prob / 2``.
    z = -normal_ppf(q.prob / 2.0)
    d = math.ceil(_variance_numerator(q) * (z / (q.epsilon * q.size_int)) ** 2)
    return max(1, d)


def sample_intersection_estimates(
    size_a: int,
    size_b: int,
    size_int: int,
    dims: int,
    trials: int,
    seed0: int = 0,
) -> np.ndarray:
    """DotHash intersection estimates over ``trials`` independent codebooks.

    Trial ``t`` uses codebook seed ``(seed0 + t) mod 2**64`` (the declared
    seed schedule), with fixed sets ``A = {0..|A|-1}`` and ``B`` overlapping
    A in its last ``size_int`` elements.  Per-seed results equal building
    the two unit-weight sketches and taking their dot product; this path
    just batches the PRF over seeds.
    """
    return _sample_estimates(size_a, size_b, size_int, [dims], trials, seed0)[0]


def _sample_estimates(
    size_a: int,
    size_b: int,
    size_int: int,
    dims_list: Sequence[int],
    trials: int,
    seed0: int,
) -> np.ndarray:
    """``sample_intersection_estimates`` at every d of ``dims_list``, one row each.

    Beside the ``(len(dims_list), trials)`` float64 output it holds only
    the fixed working set of :func:`_estimate_chunks`.
    """
    trials = whole("trials", trials, 1)
    out = np.empty((len(dims_list), trials), dtype=np.float64)
    for start, estimates in _estimate_chunks(size_a, size_b, size_int, dims_list, trials, seed0):
        out[:, start : start + estimates.shape[1]] = estimates
    return out


def _estimate_chunks(
    size_a: int,
    size_b: int,
    size_int: int,
    dims_list: Sequence[int],
    trials: int,
    seed0: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """The estimates of :func:`_sample_estimates`, a seed chunk at a time.

    Yields ``(start, estimates)`` for consecutive chunks of trials, where
    ``estimates[k, j]`` is trial ``start + j`` at ``dims_list[k]``; the
    array is reused by the next chunk.  The sign sums of ``A - B``,
    ``A & B`` and ``B - A`` are counted once per seed, and S_A and S_B are
    exact integer sums of them.  They are counted at the largest d only: a
    codebook's first d coordinates do not depend on its dims, so each d
    takes a prefix of the same sums.

    A chunk takes the most seeds, at most the cap of one ``(seeds, d_max)``
    int64 array of sums in ``_CHUNK_BYTES``, for which the ``sign_sums``
    buffer counts the largest of the three sets in one row chunk
    (:func:`_sign_sums_rows`), so that no set is counted as a full row
    chunk and a short one; when not even one seed lets it fit, the cap.
    The working set is allocated once and reused by every chunk: two int64
    arrays of sums of shape ``(seeds, d_max)``, at most ``_CHUNK_BYTES``
    each, the ``sign_sums`` buffer of at most about twice that, of which
    the sign words of one row chunk and one PRF piece of scratch are
    written, and the chunk's estimates; each ``sign_sums`` call adds one
    int32 array of counts, half a sums array.  The ``A & B`` sums are counted into the
    first array and copied to the second, the ``A - B`` and ``B - A`` sums
    are added to them to give S_A and S_B, and their product overwrites
    S_A.  Its integer sums between the sorted distinct d, then their
    prefix sums, the dot product at each requested d, overwrite the first
    columns of S_B.
    """
    size_a, size_b, size_int = _set_sizes(size_a, size_b, size_int)
    dims = np.array([whole("dims", d, 1) for d in dims_list], dtype=np.int64)
    seed0 = u64("seed0", seed0)
    if not dims.size:
        return
    d_max = int(dims.max())
    only_a = np.arange(size_a - size_int, dtype=np.uint64)
    both = np.arange(size_a - size_int, size_a, dtype=np.uint64)
    only_b = np.arange(size_a, size_a + size_b - size_int, dtype=np.uint64)
    largest = max(map(len, (only_a, both, only_b)))
    # The cap: one (seeds, d_max) int64 array of sums in about _CHUNK_BYTES.
    cap = max(1, min(trials, _CHUNK_BYTES // (8 * d_max)))
    # The number of seeds from 1 to cap whose buffer holds the largest set
    # in one row chunk; the rows a buffer holds fall as the seeds grow.
    fits = bisect.bisect(range(1, cap + 1), False, key=lambda seeds: _sign_sums_rows(seeds, d_max) < largest)
    chunk = fits or cap
    sums = np.empty((2, chunk, d_max), dtype=np.int64)
    # A shorter last chunk takes more elements at a time in the same words.
    buffer = _sign_sums_buffer(chunk, largest, d_max)
    estimates = np.empty((dims.size, chunk), dtype=np.float64)
    # Dot products are summed between the sorted distinct d: column k of
    # the prefix sums is the dot product at distinct[k].
    distinct = np.unique(dims)
    starts = np.concatenate(([0], distinct[:-1]))
    columns = np.searchsorted(distinct, dims)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        # Trial t's seed is (seed0 + t) mod 2**64, as Codebook takes any seed.
        seeds = np.uint64(seed0) + np.arange(start, stop, dtype=np.uint64)
        s_a, s_b = sums[:, : stop - start]
        s_a[...] = 0
        sign_sums(seeds, both, d_max, s_a, buffer)
        np.copyto(s_b, s_a)
        sign_sums(seeds, only_a, d_max, s_a, buffer)
        sign_sums(seeds, only_b, d_max, s_b, buffer)
        np.multiply(s_a, s_b, out=s_a)
        # Exact integer sums, so every dot product is the same in any order.
        dots = np.add.reduceat(s_a, starts, axis=1, out=s_b[:, : starts.size])
        np.cumsum(dots, axis=1, out=dots)
        chunk_estimates = estimates[:, : stop - start]
        np.divide(dots[:, columns].T, dims[:, None], out=chunk_estimates)
        yield start, chunk_estimates


def _exceedances(estimates: np.ndarray, mu: float, epsilons: Sequence[float]) -> np.ndarray:
    """Count, per row of `estimates` and per epsilon, the estimates with |X - mu| >= eps * mu.

    Each row's deviations are sorted once, and the count at eps is the
    number past the first deviation not below ``eps * mu``.
    """
    deviations = np.sort(np.abs(estimates - mu), axis=1)
    thresholds = np.array([eps * mu for eps in epsilons], dtype=np.float64)
    below = np.array([np.searchsorted(row, thresholds) for row in deviations], dtype=np.int64)
    return deviations.shape[1] - below


def empirical_exceedance(estimates: np.ndarray, mu: float, epsilons: Sequence[float]) -> np.ndarray:
    """Fraction of estimates with |X - mu| >= eps * mu, per epsilon."""
    estimates = np.asarray(estimates).reshape(1, -1)
    return _exceedances(estimates, mu, epsilons)[0] / estimates.shape[1]


@dataclass(frozen=True)
class BoundsRow:
    """One (d, epsilon) grid point of the error-curve sweep."""

    dims: int
    epsilon: float
    chebyshev: float
    clt: float
    empirical: float


def bounds_sweep(
    size_a: int,
    size_b: int,
    size_int: int,
    dims_list: Sequence[int],
    epsilons: Sequence[float],
    trials: int,
    seed0: int = 0,
) -> list[BoundsRow]:
    """Chebyshev / CLT / empirical exceedance curves over a (d, eps) grid.

    Every grid point's analytic bounds are computed first, so a bad query
    raises ValueError before any sampling.  One batch of ``trials``
    estimates is then drawn per dimension (seed schedule
    ``seed0 + arange(trials)`` mod 2**64, hashed once at the largest d) and
    reused across the epsilon grid; an empty grid draws none.
    """
    trials = whole("trials", trials, 1)
    analytic = []
    for dims in dims_list:
        query = BoundsQuery(size_a=size_a, size_b=size_b, size_int=size_int, dims=dims)
        for eps in epsilons:
            q = replace(query, epsilon=float(eps))
            analytic.append((query.dims, float(eps), chebyshev_tail(q), clt_tail(q)))
    # Exceedances are counted a seed chunk at a time, so the estimates are
    # never all held.  An empty grid samples nothing, but its set sizes are
    # still checked.
    exceeded = np.zeros((len(dims_list), len(epsilons)), dtype=np.int64)
    for _, estimates in _estimate_chunks(size_a, size_b, size_int, dims_list if analytic else [],
                                         trials, seed0):
        exceeded += _exceedances(estimates, size_int, epsilons)
    empirical = (exceeded / trials).ravel()
    return [BoundsRow(dims=dims, epsilon=eps, chebyshev=cheb, clt=clt, empirical=float(emp))
            for (dims, eps, cheb, clt), emp in zip(analytic, empirical)]
