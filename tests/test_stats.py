import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from mggp.stats import (
    _exact_p,
    _midranks,
    _normal_p,
    bonferroni,
    compare_vs_baseline,
    mann_whitney_u,
    summarize,
)

samples = st.lists(
    st.integers(min_value=-50, max_value=50).map(float), min_size=1, max_size=12
)


class TestMannWhitney:
    def test_exact_textbook_example(self):
        res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.u_statistic == 0.0
        assert res.p_two_sided == pytest.approx(0.1, abs=1e-15)

    def test_identical_multisets_give_p_one(self):
        res = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 1.0, 2.0])
        assert res.p_two_sided == 1.0
        assert res.verdict == "indifferent"

    def test_all_values_identical(self):
        res = mann_whitney_u([5.0] * 4, [5.0] * 6)
        assert res.p_two_sided == 1.0

    def test_all_values_identical_on_the_normal_path(self):
        # pooled size 20: every rank ties, so the variance is zero
        res = mann_whitney_u([5.0] * 8, [5.0] * 12)
        assert res.p_two_sided == 1.0
        assert res.verdict == "indifferent"

    def test_significant_with_equal_medians_is_indifferent(self):
        a = [0.0] * 11 + [10.0] * 10
        b = [-10.0] * 10 + [0.0] * 11
        assert np.median(a) == np.median(b) == 0.0
        res = mann_whitney_u(a, b, alpha=0.05)
        assert res.p_two_sided <= 0.05
        assert res.verdict == "indifferent"

    @given(a=samples, b=samples)
    @settings(max_examples=200, deadline=None)
    def test_u_sum_identity(self, a, b):
        res_a = mann_whitney_u(a, b)
        res_b = mann_whitney_u(b, a)
        assert res_a.u_statistic + res_b.u_statistic == pytest.approx(len(a) * len(b))

    @given(a=samples, b=samples)
    @settings(max_examples=200, deadline=None)
    def test_p_symmetry_is_exact(self, a, b):
        assert mann_whitney_u(a, b).p_two_sided == mann_whitney_u(b, a).p_two_sided

    def test_exact_agrees_with_normal_for_mid_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(5, 8))
            m = int(rng.integers(5, 8))
            pool = rng.permutation(50)[: n + m].astype(float)  # tie-free
            a, b = pool[:n], pool[n:]
            ranks = _midranks(np.concatenate([a, b]))
            u_a = float(ranks[:n].sum()) - n * (n + 1) / 2.0
            exact = _exact_p(ranks, n, u_a)
            normal = _normal_p(ranks, n, m, u_a)
            assert abs(exact - normal) <= 0.02

    def test_exact_matches_scipy_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(3, 9))
            pool = rng.permutation(100)[: n + m].astype(float)
            a, b = pool[:n], pool[n:]
            assert n + m < 20  # the exact path
            ours = mann_whitney_u(a, b).p_two_sided
            ref = sps.mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_normal_matches_scipy_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(12, 20))
            m = int(rng.integers(12, 20))
            a = rng.integers(0, 15, size=n).astype(float)  # plenty of ties
            b = rng.integers(3, 18, size=m).astype(float)
            assert n + m >= 20  # the normal approximation
            ours = mann_whitney_u(a, b).p_two_sided
            ref = sps.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic"
            ).pvalue
            assert ours == pytest.approx(min(1.0, ref), abs=1e-9)

    def test_exact_p_matches_brute_force_enumeration_with_ties(self):
        def enumerated_p(ranks, n, u_obs):
            # reference: every assignment of n pooled ranks to the first sample
            mean_u = n * (len(ranks) - n) / 2.0
            hits = total = 0
            for combo in itertools.combinations(range(len(ranks)), n):
                u = sum(ranks[i] for i in combo) - n * (n + 1) / 2.0
                hits += abs(u - mean_u) >= abs(u_obs - mean_u)
                total += 1
            return hits / total

        rng = np.random.default_rng(20)
        for _ in range(150):
            pooled = int(rng.integers(2, 15))
            n = int(rng.integers(1, pooled))
            # few distinct values, so most samples carry ties
            values = rng.integers(0, int(rng.integers(1, 6)), size=pooled).astype(float)
            ranks = _midranks(values)
            u_obs = float(ranks[:n].sum()) - n * (n + 1) / 2.0
            assert _exact_p(ranks, n, u_obs) == enumerated_p(ranks, n, u_obs)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, float("nan")])
    def test_significance_level_outside_zero_one_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            mann_whitney_u([1.0, 2.0], [3.0, 4.0], alpha=alpha)


class TestBonferroni:
    def test_eleven_comparisons(self):
        assert bonferroni(0.05, 11) == pytest.approx(0.0045454545, abs=1e-9)
        assert f"{bonferroni(0.05, 11):.4f}" == "0.0045"

    def test_single_comparison(self):
        assert bonferroni(0.05, 1) == 0.05

    def test_eight(self):
        assert bonferroni(0.05, 8) == 0.00625

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            bonferroni(0.05, 0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 7.0, -0.05, float("nan")])
    def test_significance_level_outside_zero_one_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            bonferroni(alpha, 3)


class TestCompareVsBaseline:
    def test_dominating_configuration_is_better(self):
        base = np.linspace(0.0, 1.0, 30)
        cfg = base + 100.0
        res = compare_vs_baseline(cfg, base, alpha=0.05, m=11)
        assert res.p_two_sided < 1e-5
        assert res.verdict == "better"

    def test_p_above_threshold_means_indifferent(self):
        # shifted but overlapping: p lands between alpha/11 and alpha
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=12)
        b = a + 0.9
        res_single = mann_whitney_u(b, a, alpha=0.05)
        assert 0.0045 < res_single.p_two_sided
        res = compare_vs_baseline(b, a, alpha=0.05, m=11)
        assert res.verdict == "indifferent"

    def test_identical_samples_indifferent(self):
        a = [0.5, 0.7, 0.9]
        res = compare_vs_baseline(a, list(a), alpha=0.05, m=1)
        assert res.verdict == "indifferent"

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.normal(size=10)
            b = rng.normal(loc=rng.normal(), size=10)
            fwd = compare_vs_baseline(a, b, alpha=0.3, m=1)
            rev = compare_vs_baseline(b, a, alpha=0.3, m=1)
            flip = {"better": "worse", "worse": "better", "indifferent": "indifferent"}
            assert rev.verdict == flip[fwd.verdict]


def fake_run(train_r2, test_r2, lcf=0.0, depth=3.0):
    return SimpleNamespace(
        train_r2=train_r2, test_r2=test_r2, lcf_ratio=lcf, mean_depth=depth
    )


class TestSummarize:
    def test_single_run(self):
        s = summarize([fake_run(0.9, 0.8, lcf=0.4, depth=5.0)])
        assert s.train_median == s.train_max == s.train_min == 0.9
        assert s.test_median == 0.8
        assert s.runs == 1

    def test_median_max_min(self):
        s = summarize([fake_run(1.0, 0.9), fake_run(0.5, 1.0), fake_run(0.7, 0.8)])
        assert s.test_median == 0.9
        assert s.test_max == 1.0
        assert s.test_min == 0.8

    def test_even_count_median_is_mean_of_central_pair(self):
        s = summarize([fake_run(0.0, x) for x in (0.1, 0.2, 0.6, 0.9)])
        assert s.test_median == pytest.approx(0.4)

    def test_baseline_mean_lcf_is_zero(self):
        s = summarize([fake_run(1.0, 1.0, lcf=0.0) for _ in range(5)])
        assert s.mean_lcf_ratio == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
