"""Distribution summaries and paired tests used for corpus reporting.

Conventions, chosen once and used everywhere:

- The median uses the midpoint rule for even-length samples.
- The 95% coverage interval spans the nearest-rank 2.5th and 97.5th
  percentiles: the k-th smallest value with k = ceil(q * n), clamped to the
  sample. It reports where the middle 95% of observed values lie; it is not
  a confidence interval for the median.
- Spearman correlation is the Pearson correlation of average ranks (ties get
  the mean of the positions they occupy) and is suppressed for fewer than 4
  pairs or when either side has no rank variance.
- The signed-rank test drops zero differences, average-ranks ties, takes W
  as the sum of ranks of positive differences, and approximates the null by
  a normal with tie-corrected variance and a 0.5 continuity correction. The
  p-value is one-sided, against the alternative that a is larger than b;
  effect size is r = Z / sqrt(N) over the non-zero pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence


@dataclass(frozen=True)
class StatsSummary:
    n: int
    median: float
    ci_low: float
    ci_high: float
    rho: float | None = None


@dataclass(frozen=True)
class WilcoxonResult:
    n_pairs: int
    n_effective: int
    w_statistic: float
    z_value: float
    p_value: float
    effect_size_r: float
    effect_label: str
    degenerate: bool

    def significant(self, alpha: float = 0.05) -> bool:
        return not self.degenerate and self.p_value < alpha


def effect_label(r: float) -> str:
    """Magnitude label for an effect size r."""
    magnitude = abs(r)
    if magnitude < 0.1:
        return "negligible"
    if magnitude < 0.3:
        return "small"
    if magnitude < 0.5:
        return "moderate"
    return "large"


def _nearest_rank(sorted_values: Sequence[float], quantile: float) -> float:
    n = len(sorted_values)
    rank = math.ceil(quantile * n)
    rank = min(max(rank, 1), n)
    return sorted_values[rank - 1]


def median_and_coverage(values: Sequence[float]) -> StatsSummary:
    """Median plus the 95% nearest-rank coverage interval."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    half = n // 2
    return StatsSummary(
        n=n,
        median=ordered[half] if n % 2 else (ordered[half - 1] + ordered[half]) / 2,
        ci_low=_nearest_rank(ordered, 0.025),
        ci_high=_nearest_rank(ordered, 0.975),
    )


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions."""
    data = [float(v) for v in values]
    order = sorted(range(len(data)), key=data.__getitem__)
    ranks = [0.0] * len(data)
    i = 0
    while i < len(data):
        j = i
        while j + 1 < len(data) and data[order[j + 1]] == data[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    # Left to right on purpose: sum() of floats is compensated from Python
    # 3.12 on, which would change the last bits between versions.
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Rank correlation; None when too short or rank-degenerate."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 4:
        return None
    rx = average_ranks(x)
    ry = average_ranks(y)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    dx = [r - mean_x for r in rx]
    dy = [r - mean_y for r in ry]
    denominator = math.sqrt(_dot(dx, dx) * _dot(dy, dy))
    if denominator == 0.0:
        return None
    return _dot(dx, dy) / denominator


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """One-sided paired signed-rank test that a is larger than b.

    For the other direction, swap the samples. When every pair is tied the
    test carries no information; the result is flagged degenerate with the
    p = 0.5 convention, W = 0, Z = 0 and a negligible effect.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("cannot test empty samples")

    differences = [float(x) - float(y) for x, y in zip(a, b)]
    nonzero = [d for d in differences if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return WilcoxonResult(
            n_pairs=len(a), n_effective=0, w_statistic=0.0, z_value=0.0,
            p_value=0.5, effect_size_r=0.0, effect_label=effect_label(0.0),
            degenerate=True,
        )

    magnitudes = [abs(d) for d in nonzero]
    ranks = average_ranks(magnitudes)
    w = float(sum(rank for rank, d in zip(ranks, nonzero) if d > 0))
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    tie_counts = Counter(magnitudes).values()
    variance -= float(sum(t ** 3 - t for t in tie_counts)) / 48.0
    sigma = math.sqrt(variance)

    z = (w - mean - 0.5) / sigma
    r = z / math.sqrt(n)
    return WilcoxonResult(
        n_pairs=len(a), n_effective=n, w_statistic=w, z_value=z,
        p_value=_normal_sf(z), effect_size_r=r, effect_label=effect_label(r),
        degenerate=False,
    )


def summarize_metric(values: Sequence[float], sizes: Sequence[float]) -> StatsSummary:
    """median_and_coverage plus the metric's rank correlation with model size."""
    return replace(median_and_coverage(values), rho=spearman_rho(values, sizes))
