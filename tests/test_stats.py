import math
import random

import pytest

from conftest import average_ranks_reference, exact_wilcoxon_p
from fmnet.stats import (
    StatsSummary,
    WilcoxonResult,
    average_ranks,
    effect_label,
    median_and_coverage,
    spearman_rho,
    summarize_metric,
    wilcoxon_signed_rank,
)


class TestMedianAndCoverage:
    def test_median_midpoint_rule(self):
        assert median_and_coverage([1, 2, 3, 4]).median == 2.5
        assert median_and_coverage([1, 2, 3]).median == 2.0

    def test_coverage_interval_nearest_rank(self):
        summary = median_and_coverage(list(range(1, 101)))
        assert (summary.ci_low, summary.ci_high) == (3.0, 98.0)
        assert summary.n == 100

    def test_tiny_sample_clamps_to_extremes(self):
        summary = median_and_coverage([7.0, 9.0])
        assert (summary.ci_low, summary.ci_high) == (7.0, 9.0)

    def test_order_does_not_matter(self):
        rng = random.Random(2)
        values = [rng.uniform(0, 10) for _ in range(31)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert median_and_coverage(values) == median_and_coverage(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            median_and_coverage([])


class TestAverageRanks:
    def test_no_ties(self):
        assert list(average_ranks([30.0, 10.0, 20.0])) == [3.0, 1.0, 2.0]

    def test_ties_share_mean_position(self):
        assert list(average_ranks([5.0, 1.0, 5.0, 2.0])) == [3.5, 1.0, 3.5, 2.0]

    def test_matches_reference_implementation(self):
        rng = random.Random(6)
        for _ in range(100):
            values = [rng.randint(0, 6) for _ in range(rng.randint(1, 20))]
            assert list(average_ranks(values)) == average_ranks_reference(values)


class TestSpearman:
    def test_frozen_value(self):
        rho = spearman_rho([1, 2, 3, 4], [10, 10, 20, 30])
        assert rho == pytest.approx(3 / math.sqrt(10), abs=1e-15)

    def test_perfect_monotone(self):
        assert spearman_rho([1, 2, 3, 4, 5], [2, 4, 8, 16, 32]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_too_short_is_none(self):
        assert spearman_rho([1, 2, 3], [1, 2, 3]) is None

    def test_degenerate_ranks_are_none(self):
        assert spearman_rho([1, 1, 1, 1], [1, 2, 3, 4]) is None
        assert spearman_rho([1, 2, 3, 4], [5, 5, 5, 5]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            spearman_rho([1, 2], [1, 2, 3])

    def test_matches_direct_rank_formula(self):
        # Pearson over reference ranks, computed with plain loops.
        rng = random.Random(1001)
        for _ in range(100):
            n = rng.randint(4, 40)
            x = [rng.randint(0, 8) for _ in range(n)]
            y = [rng.randint(0, 8) for _ in range(n)]
            rho = spearman_rho(x, y)
            rx = average_ranks_reference(x)
            ry = average_ranks_reference(y)
            mean_x = sum(rx) / n
            mean_y = sum(ry) / n
            cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
            var_x = sum((a - mean_x) ** 2 for a in rx)
            var_y = sum((b - mean_y) ** 2 for b in ry)
            if var_x == 0 or var_y == 0:
                assert rho is None
                continue
            assert rho == pytest.approx(cov / math.sqrt(var_x * var_y), abs=1e-12)


class TestEffectLabel:
    def test_boundaries(self):
        assert effect_label(0.0) == "negligible"
        assert effect_label(0.1) == "small"
        assert effect_label(0.3) == "moderate"
        assert effect_label(0.5) == "large"
        assert effect_label(-0.2) == "small"

    def test_reported_mappings(self):
        assert effect_label(0.38) == "moderate"
        assert effect_label(0.04) == "negligible"
        assert effect_label(-0.67) == "large"
        assert effect_label(0.87) == "large"


class TestWilcoxon:
    def test_all_positive_differences(self):
        a = [2, 3, 4, 5, 6, 7]
        result = wilcoxon_signed_rank(a, [1, 2, 3, 4, 5, 6])
        assert result.w_statistic == 21.0  # every rank is positive
        assert result.n_effective == 6
        assert result.p_value < 0.05
        assert result.significant()

    def test_zero_differences_dropped(self):
        a = [1, 5, 3, 9]
        b = [1, 2, 3, 4]
        result = wilcoxon_signed_rank(a, b)
        assert result.n_pairs == 4
        assert result.n_effective == 2

    def test_degenerate_all_ties(self):
        result = wilcoxon_signed_rank([1, 2], [1, 2])
        assert result.degenerate
        assert result.p_value == 0.5
        assert result.w_statistic == 0.0
        assert result.z_value == 0.0
        assert result.effect_size_r == 0.0
        assert not result.significant()

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="length mismatch"):
            wilcoxon_signed_rank([1], [1, 2])
        with pytest.raises(ValueError, match="empty"):
            wilcoxon_signed_rank([], [])

    def test_relabeling_symmetry(self):
        rng = random.Random(404)
        for _ in range(50):
            n = rng.randint(2, 12)
            a = [rng.randint(0, 9) for _ in range(n)]
            b = [rng.randint(0, 9) for _ in range(n)]
            if all(x == y for x, y in zip(a, b)):
                continue
            forward = wilcoxon_signed_rank(a, b)
            backward = wilcoxon_signed_rank(b, a)
            assert forward.w_statistic + backward.w_statistic == pytest.approx(
                forward.n_effective * (forward.n_effective + 1) / 2
            )
            # The two one-sided tails overlap at the observed W, as
            # P(W >= w) + P(W <= w) >= 1 does for the exact null.
            assert forward.p_value + backward.p_value > 1

    def test_tracks_exact_enumeration(self):
        # The exact null at n around 10 is a coarse step function, so the
        # smooth approximation can sit a few percent off at a step; typical
        # error is far smaller. Both bounds carry good margin over measured
        # worst cases for this seed.
        rng = random.Random(515)
        gaps = []
        for _ in range(60):
            n = rng.randint(8, 12)
            b = [rng.randint(0, 9) for _ in range(n)]
            a = [x + rng.randint(-4, 4) for x in b]
            if all(x == y for x, y in zip(a, b)):
                continue
            for x, y in ((a, b), (b, a)):
                approx = wilcoxon_signed_rank(x, y).p_value
                exact = exact_wilcoxon_p(x, y)
                gaps.append(abs(approx - exact))
        gaps.sort()
        assert gaps[-1] <= 0.07
        assert gaps[len(gaps) // 2] <= 0.02

    def test_effect_size_is_z_over_sqrt_n(self):
        a = [4, 6, 7, 9, 11, 2, 8, 5]
        b = [3, 4, 8, 6, 7, 1, 6, 5]
        result = wilcoxon_signed_rank(a, b)
        assert result.effect_size_r == pytest.approx(
            result.z_value / math.sqrt(result.n_effective)
        )
        assert result.effect_label == effect_label(result.effect_size_r)

    def test_tie_corrected_variance_shrinks_sigma(self):
        # Same W, but heavy ties concentrate the null distribution.
        tied = wilcoxon_signed_rank([2, 2, 2, 2, 2, 2], [1, 1, 1, 1, 1, 1])
        spread = wilcoxon_signed_rank([2, 3, 4, 5, 6, 7], [1, 1, 1, 1, 1, 1])
        assert tied.w_statistic == spread.w_statistic == 21.0
        assert abs(tied.z_value) > abs(spread.z_value)


class TestAgainstScipy:
    """Second reference implementation, independent of the enumeration one."""

    def test_wilcoxon_matches_scipy(self):
        from scipy import stats as scipy_stats

        rng = random.Random(88)
        checked = 0
        for _ in range(150):
            n = rng.randint(5, 30)
            b = [rng.randint(0, 9) for _ in range(n)]
            a = [x + rng.randint(-3, 3) for x in b]
            if all(x == y for x, y in zip(a, b)):
                continue
            for mine, scipy_side in (
                (wilcoxon_signed_rank(a, b), "greater"),
                (wilcoxon_signed_rank(b, a), "less"),
            ):
                reference = scipy_stats.wilcoxon(
                    a, b, zero_method="wilcox", correction=True,
                    alternative=scipy_side, method="approx",
                )
                assert mine.p_value == pytest.approx(reference.pvalue, abs=1e-12)
            checked += 1
        assert checked > 100

    def test_spearman_matches_scipy(self):
        from scipy import stats as scipy_stats

        rng = random.Random(89)
        checked = 0
        for _ in range(150):
            n = rng.randint(4, 30)
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 6) for _ in range(n)]
            mine = spearman_rho(x, y)
            if mine is None:
                continue
            reference = scipy_stats.spearmanr(x, y).statistic
            assert mine == pytest.approx(reference, abs=1e-12)
            checked += 1
        assert checked > 100


class TestSummarizeMetric:
    def test_with_sizes(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        sizes = [10.0, 20.0, 30.0, 40.0, 50.0]
        summary = summarize_metric(values, sizes)
        assert summary.rho == pytest.approx(1.0)
        base = median_and_coverage(values)
        assert (summary.n, summary.median) == (base.n, base.median)
        assert (summary.ci_low, summary.ci_high) == (base.ci_low, base.ci_high)


class TestPinnedBits:
    """Exact values recorded from the numpy implementation this module
    replaced, on seeded samples with ties; any drift in the last bit fails."""

    @pytest.fixture
    def samples(self):
        rng = random.Random(20240611)
        n = 160
        a = [rng.randint(0, 24) / 8 for _ in range(n)]
        b = [rng.randint(0, 24) / 8 for _ in range(n)]
        sizes = [float(rng.randint(20, 90)) for _ in range(n)]
        c = [rng.randint(0, 999) / 7 for _ in range(n)]
        return a, b, sizes, c

    def test_spearman_rho(self, samples):
        a, b, sizes, c = samples
        assert spearman_rho(a, b) == 0.10066332606798921
        assert spearman_rho(c, sizes) == -0.06807975487112852

    def test_summarize_metric(self, samples):
        a, _, sizes, c = samples
        assert summarize_metric(a, sizes) == StatsSummary(
            n=160, median=1.375, ci_low=0.0, ci_high=3.0, rho=0.012094998317925237
        )
        assert summarize_metric(c, a) == StatsSummary(
            n=160, median=63.5, ci_low=5.285714285714286,
            ci_high=131.57142857142858, rho=-0.25595071193812036,
        )

    def test_wilcoxon_signed_rank(self, samples):
        a, b, _, _ = samples
        assert wilcoxon_signed_rank(a, b) == WilcoxonResult(
            n_pairs=160, n_effective=149, w_statistic=5776.5,
            z_value=0.35740345487620945, p_value=0.3603948953569209,
            effect_size_r=0.029279631873837732, effect_label="negligible",
            degenerate=False,
        )
        assert wilcoxon_signed_rank(b, a) == WilcoxonResult(
            n_pairs=160, n_effective=149, w_statistic=5398.5,
            z_value=-0.3592994944246244, p_value=0.6403144737463138,
            effect_size_r=-0.029434961485900534, effect_label="negligible",
            degenerate=False,
        )
