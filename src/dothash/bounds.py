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

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .encoding import _CHUNK_BYTES, sign_sums


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
        if self.size_a < 0 or self.size_b < 0 or self.size_int < 0:
            raise ValueError("set sizes must be nonnegative")
        if self.size_int > min(self.size_a, self.size_b):
            raise ValueError("intersection cannot exceed the smaller set")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")


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
    if dims < 1:
        raise ValueError("dims must be >= 1")
    return (weight_a * weight_b + common**2 - 2.0 * common_squares) / dims


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

    The sign sums of ``A - B``, ``A & B`` and ``B - A`` are counted once per
    seed, and S_A and S_B are exact integer sums of them.  They are counted
    at the largest d only: a codebook's first d coordinates do not depend on
    its dims, so each d takes a prefix of the same sums.
    """
    if min(size_a, size_b, size_int) < 0:
        raise ValueError("set sizes must be nonnegative")
    if size_int > min(size_a, size_b):
        raise ValueError("intersection cannot exceed the smaller set")
    dims = np.asarray(dims_list, dtype=np.int64)
    out = np.empty((dims.size, trials), dtype=np.float64)
    if not dims.size:
        return out
    if dims.min() < 1:
        raise ValueError("dims must be >= 1")
    d_max = int(dims.max())
    only_a = np.arange(size_a - size_int, dtype=np.uint64)
    both = np.arange(size_a - size_int, size_a, dtype=np.uint64)
    only_b = np.arange(size_a, size_a + size_b - size_int, dtype=np.uint64)
    # Seeds per chunk, so that one (seeds, d_max) int64 array of sums is
    # about _CHUNK_BYTES.
    chunk = max(1, _CHUNK_BYTES // (8 * d_max))
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        # Trial t's seed is (seed0 + t) mod 2**64, as Codebook masks any seed.
        seeds = np.uint64(seed0 % 2**64) + np.arange(start, stop, dtype=np.uint64)
        s_only_a, s_both, s_only_b = (sign_sums(seeds, part, d_max) for part in (only_a, both, only_b))
        s_only_a += s_both
        s_only_b += s_both
        # Exact integer dot products of every prefix, one column per d.
        prefix_dots = np.cumsum(s_only_a * s_only_b, axis=1)
        out[:, start:stop] = (prefix_dots[:, dims - 1] / dims).T
    return out


def empirical_exceedance(estimates: np.ndarray, mu: float, epsilons: Sequence[float]) -> np.ndarray:
    """Fraction of estimates with |X - mu| >= eps * mu, per epsilon."""
    deviations = np.abs(np.asarray(estimates) - mu)
    return np.array([np.mean(deviations >= eps * mu) for eps in epsilons])


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
    reused across the epsilon grid; an empty grid draws none.  Raises
    ValueError unless ``trials`` is at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    analytic = []
    for dims in dims_list:
        query = BoundsQuery(size_a=size_a, size_b=size_b, size_int=size_int, dims=dims)
        for eps in epsilons:
            q = replace(query, epsilon=float(eps))
            analytic.append((dims, float(eps), chebyshev_tail(q), clt_tail(q)))
    # An empty grid samples nothing, but its set sizes are still checked.
    estimates = _sample_estimates(size_a, size_b, size_int, dims_list if analytic else [], trials,
                                  seed0)
    empirical = [emp for row in estimates for emp in empirical_exceedance(row, size_int, epsilons)]
    return [BoundsRow(dims=dims, epsilon=eps, chebyshev=cheb, clt=clt, empirical=float(emp))
            for (dims, eps, cheb, clt), emp in zip(analytic, empirical)]
