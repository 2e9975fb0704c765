"""Correlation coefficients, midranks, significance, and the pair report."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given
from hypothesis import strategies as st

import citetrace.correlation
from citetrace import (
    DegenerateInput,
    LengthMismatch,
    correlation_report,
    midranks,
    pearson,
    significance,
    spearman,
    stars,
)
from oracles import midranks_loop, pearson_exact, t_pvalue_quad, within_one_ulp

# Frozen before implementation: two-tailed p for r=0.5, n=30 from mpmath
# quadrature of the t density with 28 degrees of freedom (dps=40).
P_HALF_N30 = 0.004899933667068090

# Rounding keeps deviations far above the subnormal range, where squared
# residuals would underflow to an (honestly reported) zero variance.
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(lambda v: round(v, 6))
pair_lists = st.lists(st.tuples(finite, finite), min_size=2, max_size=60)


class TestPearson:
    def test_identity(self):
        assert pearson((1, 2, 3), (1, 2, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_exact_reversal(self):
        assert pearson((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_oracle(self):
        # cov = 0.5, sigma_x = sigma_y = 1 on the sample deviations
        assert pearson((1, 2, 3), (3, 2, 4)) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson((1, 2), (1, 2, 3))

    def test_constant_sequence(self):
        with pytest.raises(DegenerateInput):
            pearson((1, 1, 1), (1, 2, 3))

    def test_single_pair(self):
        with pytest.raises(DegenerateInput):
            pearson((1,), (2,))

    @given(pair_lists)
    def test_bounds_symmetry_and_scipy_agreement(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == r
        expected = scipy.stats.pearsonr(x, y).statistic
        assert r == pytest.approx(expected, abs=1e-9)

    @given(pair_lists, st.randoms())
    def test_joint_permutation_invariance(self, pairs, rng):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert pearson([a for a, _ in shuffled], [b for _, b in shuffled]) == \
            pytest.approx(pearson(x, y), abs=1e-12)

    @given(pair_lists,
           st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=-50, max_value=50))
    def test_positive_affine_invariance(self, pairs, scale, shift):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        transformed = [scale * a + shift for a in x]
        assume(len(set(transformed)) == len(set(x)))
        assert pearson(transformed, y) == pytest.approx(pearson(x, y), abs=1e-9)


class TestLargeFiniteInput:
    # the sums of squared deviations overflow unless each column is scaled first
    @pytest.mark.parametrize("x, y", [
        ([1e200, 2e200, 3e200], [3, 1, 2]),
        ([1e308, -1e308, 0.0], [1, 2, 3]),
        ([3, 1, 2], [1e200, 2e200, 3e200]),
    ])
    def test_exact_coefficient(self, x, y):
        assert pearson(x, y) == pytest.approx(-0.5, abs=1e-12)

    @given(pair_lists, st.integers(-60, 60))
    def test_power_of_two_scaling_is_bit_identical(self, pairs, k):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        assert pearson([math.ldexp(a, 16 * k) for a in x], y) == pearson(x, y)


class TestWithinOneUlpOfExact:
    # finite floats of every magnitude, and columns sitting on a large
    # offset, where centring in floats would cancel most of the bits
    any_finite = st.floats(allow_nan=False, allow_infinity=False)
    offset = st.sampled_from([0.0, 1e6, -1e6, 2.0 ** 40, 1e15, 1e200, 1e308])
    columns = st.tuples(st.lists(st.tuples(any_finite | finite, any_finite | finite),
                                 min_size=2, max_size=40), offset, offset)

    @staticmethod
    def shifted(pairs, dx, dy):
        x = [a + dx for a, _ in pairs]
        y = [b + dy for _, b in pairs]
        assume(all(map(math.isfinite, x + y)) and len(set(x)) > 1 and len(set(y)) > 1)
        return x, y

    @given(columns)
    def test_pearson(self, case):
        x, y = self.shifted(*case)
        assert within_one_ulp(pearson(x, y), pearson_exact(x, y))

    @given(columns)
    def test_spearman(self, case):
        x, y = self.shifted(*case)
        assert within_one_ulp(spearman(x, y), pearson_exact(midranks_loop(x), midranks_loop(y)))

    @pytest.mark.parametrize("x, y", [
        ([1e200, 2e200, 3e200], [3, 1, 2]),  # the columns of TestLargeFiniteInput
        ([1e308, -1e308, 0.0], [1, 2, 3]),
        ([1e6 + 0.1, 1e6 + 0.2, 1e6 + 0.4], [1, 2, 3]),
        ([0.0, 1.0, 2.0], [0.0, 2.0 ** 600, 2.0 ** -100]),  # r about 2^-700: r^2 underflows
        ([0.0, 1.0, 2.0], [0.0, 2.0 ** 1000, 5e-324]),  # r itself underflows to 0
    ])
    def test_extreme_cases(self, x, y):
        assert within_one_ulp(pearson(x, y), pearson_exact(x, y))


class TestNonFiniteInput:
    # NaN once made midranks loop forever, so every call that reaches it
    # with NaN runs in a child process, where a hang fails the test.
    NAN_CALLS = ["ct.midranks([1.0, nan, 2.0])",
                 "ct.spearman([1.0, nan, 2.0], [1, 2, 3])",
                 "ct.spearman([1, 2, 3], [1.0, nan, 2.0])",
                 "ct.correlation_report([('a', [1.0, 2.0, 3.0]), ('b', [1.0, nan, 2.0])])"]

    @pytest.mark.parametrize("call", NAN_CALLS, ids=["midranks", "spearman-x", "spearman-y",
                                                     "report"])
    def test_nan_rejected_without_hanging(self, call):
        code = ("import citetrace as ct\nnan = float('nan')\n"
                f"try:\n    {call}\nexcept ct.DegenerateInput:\n    print('rejected')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout == "rejected\n", proc.stderr

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pearson_rejects_on_either_side(self, bad):
        with pytest.raises(DegenerateInput, match="finite"):
            pearson([1, bad, 2], [1, 2, 3])
        with pytest.raises(DegenerateInput, match="finite"):
            pearson([1, 2, 3], [1, bad, 2])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinity_rejected(self, bad):
        with pytest.raises(DegenerateInput, match="finite"):
            midranks([1.0, bad, 2.0])
        with pytest.raises(DegenerateInput, match="finite"):
            spearman([1, bad, 2], [1, 2, 3])


class TestMidranks:
    def test_no_ties(self):
        assert list(midranks([1, 2, 5, 4, 3])) == [1, 2, 5, 4, 3]

    def test_ties_share_average_rank(self):
        assert list(midranks([1, 1, 2])) == [1.5, 1.5, 3.0]
        assert list(midranks([7, 7, 7])) == [2.0, 2.0, 2.0]

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
    def test_agrees_with_scipy_rankdata(self, values):
        assert np.allclose(midranks(values), scipy.stats.rankdata(values))

    @given(st.lists(st.integers(0, 20), max_size=50))
    def test_bit_identical_to_loop(self, values):
        ranks = midranks(values)
        assert type(ranks) is list
        assert np.array(ranks, dtype=float).tobytes() == midranks_loop(values).tobytes()

    def test_bit_identical_on_large_columns(self):
        rng = np.random.default_rng(7)
        for values in (rng.integers(0, 5, size=1500).astype(float),  # tie-heavy
                       rng.normal(size=1500)):
            ranks = np.array(midranks(values), dtype=float).tobytes()
            assert ranks == midranks_loop(values).tobytes()
            assert ranks == scipy.stats.rankdata(values).tobytes()


class TestSpearman:
    def test_strictly_monotone(self):
        assert spearman((1, 5, 9), (2, 40, 41)) == pytest.approx(1.0, abs=1e-12)

    def test_hand_oracle(self):
        # ranks (1,2,3) vs (2,1,3): 1 - 6*2/(3*8) = 0.5
        assert spearman((1, 2, 3), (3, 2, 4)) == pytest.approx(0.5, abs=1e-12)

    def test_midrank_ties(self):
        # midranks (1.5, 1.5, 3) on both sides
        assert spearman((1, 1, 2), (5, 5, 9)) == pytest.approx(1.0, abs=1e-12)

    @given(pair_lists)
    def test_equals_pearson_of_midranks(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        assert spearman(x, y) == pearson(midranks(x), midranks(y))

    @given(pair_lists)
    def test_agrees_with_scipy(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-9)

    @given(pair_lists)
    def test_strictly_increasing_transform_invariance(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        cubed = [a ** 3 for a in x]
        assume(len(set(cubed)) == len(set(x)))
        assert spearman(cubed, y) == pytest.approx(spearman(x, y), abs=1e-12)


class TestSignificance:
    def test_zero_coefficient(self):
        assert significance(0.0, 10) == 1.0

    def test_perfect_coefficient_convention(self):
        assert significance(1.0, 10) == 0.0
        assert significance(-1.0, 10) == 0.0

    def test_frozen_oracle(self):
        assert significance(0.5, 30) == pytest.approx(P_HALF_N30, abs=1e-10)

    def test_small_n_rejected(self):
        with pytest.raises(DegenerateInput):
            significance(0.5, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(DegenerateInput):
            significance(1.5, 10)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 30, 100, 1500, 10**4])
    def test_matches_scipy_student_t(self, n):
        r = np.linspace(-0.999999, 0.999999, 2001)
        t = r * np.sqrt((n - 2) / (1.0 - r * r))
        keep = np.abs(t) > 1e-6
        expected = 2.0 * scipy.special.stdtr(n - 2, -np.abs(t[keep]))
        computed = np.array([significance(float(v), n) for v in r[keep]])
        # relative error means nothing once p leaves the normal float range
        normal = expected >= sys.float_info.min
        np.testing.assert_allclose(computed[normal], expected[normal], rtol=1e-9, atol=0.0)
        assert (computed[~normal] < sys.float_info.min).all()

    @pytest.mark.parametrize("r, n", [(-1e-9, 3), (1e-9, 3), (1e-7, 3), (1e-8, 30)])
    def test_near_zero_matches_quadrature(self, r, n):
        # scipy's stdtr returns exactly 1.0 at r = -1e-9, n = 3
        assert significance(r, n) == pytest.approx(t_pvalue_quad(r, n), rel=1e-14)

    @given(st.floats(min_value=-0.999, max_value=0.999), st.integers(3, 500))
    def test_p_in_unit_interval_and_symmetric(self, r, n):
        p = significance(r, n)
        assert 0.0 <= p <= 1.0
        assert significance(-r, n) == pytest.approx(p, abs=1e-15)


class TestStars:
    def test_thresholds(self):
        assert stars(0.2) == ""
        assert stars(0.049) == "*"
        assert stars(0.009) == "**"
        assert stars(0.05) == ""
        assert stars(0.01) == "*"


class TestCorrelationReport:
    def test_all_pairs(self):
        report = correlation_report([
            ("a", (1, 2, 3, 4)),
            ("b", (2, 4, 6, 9)),
            ("c", (9, 7, 5, 4)),
        ])
        assert [(p.a, p.b) for p in report.pairs] == [("a", "b"), ("a", "c"), ("b", "c")]
        first = report.pairs[0]
        assert first.n == 4
        assert -1.0 <= first.pearson_r <= 1.0
        assert first.pearson_p is not None and 0.0 <= first.pearson_p <= 1.0

    def test_duplicate_column_correlates_with_itself(self):
        report = correlation_report([("T", (1, 2, 3)), ("T", (1, 2, 3))])
        assert report.pairs[0].pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.pairs[0].spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert report.pairs[0].pearson_p == 0.0

    def test_no_p_value_below_three_pairs(self):
        report = correlation_report([("a", (1, 2)), ("b", (2, 1))])
        assert report.pairs[0].pearson_p is None
        assert report.pairs[0].spearman_p is None
        assert report.pairs[0].pearson_stars == ""

    def test_column_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            correlation_report([("a", (1, 2)), ("b", (1, 2, 3))])

    def test_stars_attached(self):
        x = tuple(range(30))
        noisy = tuple(v + ((-1) ** v) * 0.1 for v in x)
        report = correlation_report([("x", x), ("y", noisy)])
        assert report.pairs[0].pearson_stars == "**"

    def test_each_column_ranked_once(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(len(values))
            return midranks(values)

        monkeypatch.setattr(citetrace.correlation, "midranks", counting)
        columns = [(f"c{i}", tuple(float(v) for v in range(i, i + 10))) for i in range(6)]
        report = correlation_report(columns)
        assert len(report.pairs) == 15
        assert calls == [10] * 6

    def test_rows_bit_identical_to_pairwise_calls(self):
        rng = np.random.default_rng(11)
        columns = [("ties", rng.integers(0, 5, size=300).tolist()),
                   ("few", rng.integers(0, 2, size=300).tolist()),
                   ("float", rng.normal(size=300).tolist()),
                   ("skew", rng.lognormal(size=300).tolist())]
        report = correlation_report(columns)
        expected = []
        for i, (a, x) in enumerate(columns):
            for b, y in columns[i + 1:]:
                r, rho = pearson(x, y), spearman(x, y)
                expected.append((a, b, 300, r, significance(r, 300), rho, significance(rho, 300)))
        got = [(p.a, p.b, p.n, p.pearson_r, p.pearson_p, p.spearman_rho, p.spearman_p)
               for p in report.pairs]
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in expected]
