"""Rank-based comparison machinery: Mann-Whitney U test (exact null
distribution for small samples, tie/continuity-corrected normal
approximation otherwise), Bonferroni adjustment and per-configuration
result summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ComparisonResult:
    u_statistic: float
    p_two_sided: float
    verdict: str  # "better" | "worse" | "indifferent"


@dataclass(frozen=True)
class Summary:
    train_median: float
    train_max: float
    train_min: float
    test_median: float
    test_max: float
    test_min: float
    mean_lcf_ratio: float
    mean_depth: float
    runs: int


def _midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (ties get the mean of their rank positions)."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_p(ranks: np.ndarray, n: int, u_obs: float) -> float:
    """Two-sided exact p over all assignments of n of the pooled ranks to
    the first sample: the fraction of assignments whose U deviates from the
    mean at least as much as the observed U.

    Midranks are multiples of 0.5, so doubled ranks are integers and the
    distribution of the doubled rank sum of n drawn ranks can be counted
    exactly by dynamic programming (Mann & Whitney's recursion, with ties).
    """
    total_n = len(ranks)
    doubled = [int(round(2.0 * r)) for r in ranks]
    # counts[k] packs one count per doubled rank sum s, in digit s of
    # `width` bits: the number of k-subsets of the ranks seen so far with
    # that sum.  No count exceeds C(N, N // 2), so digits never carry.
    width = math.comb(total_n, total_n // 2).bit_length() + 1
    counts = [1] + [0] * n
    for seen, r in enumerate(doubled):
        for k in range(min(seen + 1, n), 0, -1):
            counts[k] += counts[k - 1] << (r * width)
    # 2U = doubled rank sum - n(n+1); the mean of 2U is n*m
    two_mean = n * (total_n - n)
    two_dev_obs = abs(int(round(2.0 * u_obs)) - two_mean)
    mask = (1 << width) - 1
    dist, two_sum, count = counts[n], 0, 0
    while dist:
        if abs(two_sum - n * (n + 1) - two_mean) >= two_dev_obs:
            count += dist & mask
        dist >>= width
        two_sum += 1
    return count / math.comb(total_n, n)


def _normal_p(ranks: np.ndarray, n: int, m: int, u_obs: float) -> float:
    """Two-sided normal approximation with tie and continuity correction."""
    total_n = n + m
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    var = n * m / 12.0 * ((total_n + 1) - tie_term / (total_n * (total_n - 1)))
    if var <= 0.0:
        return 1.0
    z = (abs(u_obs - n * m / 2.0) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def mann_whitney_u(a, b, alpha: float = 0.05) -> ComparisonResult:
    """Two-sided Mann-Whitney rank test of samples ``a`` vs ``b``.

    Uses the exact null distribution when the pooled size is below 20 and the
    corrected normal approximation otherwise.  The reported U statistic
    belongs to ``a``; the verdict compares medians once ``p <= alpha``, a
    significance level strictly between 0 and 1.
    """
    _check_alpha(alpha)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    if n < 1 or m < 1:
        raise ValueError("both samples must be non-empty")
    ranks = _midranks(np.concatenate([a, b]))
    u_a = float(ranks[:n].sum()) - n * (n + 1) / 2.0
    if n + m < 20:
        p = _exact_p(ranks, n, u_a)
    else:
        p = _normal_p(ranks, n, m, u_a)
    if p <= alpha:
        med_a, med_b = float(np.median(a)), float(np.median(b))
        if med_a > med_b:
            verdict = "better"
        elif med_a < med_b:
            verdict = "worse"
        else:
            verdict = "indifferent"
    else:
        verdict = "indifferent"
    return ComparisonResult(u_statistic=u_a, p_two_sided=p, verdict=verdict)


def bonferroni(alpha: float = 0.05, m: int = 1) -> float:
    """Family-wise adjusted significance threshold, ``alpha / m``."""
    _check_alpha(alpha)
    if m < 1:
        raise ValueError("m must be >= 1")
    return alpha / m


def _check_alpha(alpha: float) -> None:
    # outside (0, 1) every p, or none, would be significant
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level alpha={alpha} must be strictly between 0 and 1")


def compare_vs_baseline(cfg_runs, base_runs, alpha: float = 0.05, m: int = 1) -> ComparisonResult:
    """Compare one configuration's scores against the baseline's at the
    Bonferroni-adjusted level ``alpha / m``."""
    return mann_whitney_u(cfg_runs, base_runs, alpha=bonferroni(alpha, m))


def summarize(runs) -> Summary:
    """Aggregate run results (objects with train_r2 / test_r2 / lcf_ratio /
    mean_depth attributes) into the per-configuration table row."""
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one run")
    train = np.array([r.train_r2 for r in runs], dtype=float)
    test = np.array([r.test_r2 for r in runs], dtype=float)
    return Summary(
        train_median=float(np.median(train)),
        train_max=float(train.max()),
        train_min=float(train.min()),
        test_median=float(np.median(test)),
        test_max=float(test.max()),
        test_min=float(test.min()),
        mean_lcf_ratio=float(np.mean([r.lcf_ratio for r in runs])),
        mean_depth=float(np.mean([r.mean_depth for r in runs])),
        runs=len(runs),
    )
