"""Correlation coefficients, midranks, significance, and the pair report."""

import itertools
import math
import operator
import random
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import citetrace.correlation
from citetrace import partition
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


ROWS = partition._CHUNK_ROWS  # the rows of a block the correlation kernel walks


def pairwise_gram(columns):
    return {(i, j): sum(map(operator.mul, columns[i], columns[j]))
            for i in range(len(columns)) for j in range(i, len(columns))}


def block_gram(columns):
    """The kernel's sum(x_i * x_j) of integer columns, fed ROWS rows at a
    time; its sum(x_i) of each column is checked on the way."""
    n = len(columns[0])
    width = max(v.bit_length() for xs in columns for v in (min(xs), max(xs)))
    blocks = ([xs[start:start + ROWS] for xs in columns] for start in range(0, n, ROWS))
    sums, gram = citetrace.correlation._block_sums(blocks, len(columns), n, width)
    assert sums == list(map(sum, columns))
    return gram


@st.composite
def int_columns(draw):
    """1 to 20 signed integer columns over 1 to more than two row blocks, of
    mixed widths up to 2,100 bits (about the widest exact integers of a
    finite float column).  An extreme column holds only +-(2^L - 1) at the
    widest L, so that its sums fill a packed field up to its sign boundary."""
    rng = draw(st.randoms(use_true_random=False))
    widest = draw(st.sampled_from([1, 2, 12, 72, 300, 2100]) | st.integers(1, 2100))
    n = draw(st.integers(1, 2 * ROWS + 8))
    columns = []
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):
            top, signs = 2 ** widest - 1, draw(st.sampled_from([(1,), (-1,), (-1, 1)]))
            columns.append([rng.choice(signs) * top for _ in range(n)])
        else:
            top = 2 ** draw(st.integers(1, widest)) - 1
            columns.append([rng.randint(-top, top) for _ in range(n)])
    return columns


class TestGram:
    @settings(max_examples=150, deadline=None)
    @given(int_columns())
    def test_equals_pairwise_products(self, columns):
        assert block_gram(columns) == pairwise_gram(columns)

    # n = 1023 is the largest n of its bit length, so the sums of squares come
    # within a factor of 2 of the field's sign boundary: three columns packed
    # as one group at 1 and 64 bits, and one to a group at 2,100 bits
    @pytest.mark.parametrize("bits", [1, 64, 2100])
    def test_extreme_columns_fill_their_fields(self, bits):
        top, n = 2 ** bits - 1, 4 * ROWS - 1
        columns = [[top] * n, [-top] * n, [top, -top] * (n // 2) + [top]]
        gram = block_gram(columns)
        assert gram == pairwise_gram(columns)
        assert gram[0, 0] == gram[1, 1] == n * top * top and gram[0, 1] == -n * top * top


# n at the kernel's block edges: one row short of a block, a whole block, one
# row into the next, and one row into a third
EDGE_ROWS = [1, 2, 3, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1]


@st.composite
def edge_columns(draw):
    """2 or 3 non-constant columns of n rows at a block edge: lists of
    floats, lists of ints, tuples and arrays of doubles, of magnitudes from
    1e-300 to 1e300, with ties drawn from a pool of 2, 3 or 16 values."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.sampled_from(EDGE_ROWS))
    columns = []
    for _ in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(["floats", "ints", "tuple", "array"]))
        low, high = sorted([draw(st.integers(-300, 299)), draw(st.integers(-300, 299))])
        size, pool = draw(st.sampled_from([2, 3, 16])), set()
        while len(pool) < size:
            if kind == "ints":
                top = 10 ** max(high, 1)
                pool.add(rng.randint(-top, top))
            else:
                pool.add(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(low, high + 1))
        pool = sorted(pool)
        values = [rng.choice(pool) for _ in range(n)]
        values[0], values[-1] = pool[0], pool[-1]  # not constant, for n >= 2
        columns.append({"floats": list, "ints": list, "tuple": tuple,
                        "array": lambda v: array("d", v)}[kind](values))
    return columns


class TestBlockEdges:
    """pearson, spearman and correlation_report agree with the exact
    coefficient at the edges of the kernel's row blocks."""

    @settings(max_examples=60, deadline=None)
    @given(edge_columns())
    def test_agree_with_the_exact_coefficient(self, columns):
        named = [(f"c{i}", xs) for i, xs in enumerate(columns)]
        if len(columns[0]) == 1:
            for call in (lambda: pearson(*columns[:2]), lambda: spearman(*columns[:2]),
                         lambda: correlation_report(named)):
                with pytest.raises(DegenerateInput, match="^need at least 2 pairs, got 1$"):
                    call()
            return
        pairs = iter(correlation_report(named).pairs)
        for x, y in itertools.combinations(columns, 2):
            r, rho = pearson(x, y), spearman(x, y)
            assert within_one_ulp(r, pearson_exact(x, y))
            assert within_one_ulp(rho, pearson_exact(midranks_loop(x), midranks_loop(y)))
            pair = next(pairs)
            assert (repr(pair.pearson_r), repr(pair.spearman_rho)) == (repr(r), repr(rho))

    def test_blocks_have_the_chunk_size_of_the_readers(self, monkeypatch):
        """The kernel walks blocks of partition._CHUNK_ROWS rows, read when it
        is called: the values' blocks, then the doubled ranks'."""
        sizes = []
        block_sums = citetrace.correlation._block_sums

        def recording(blocks, *args):
            blocks = list(blocks)
            sizes.append([len(rows[0]) for rows in blocks])
            return block_sums(blocks, *args)

        monkeypatch.setattr(citetrace.correlation, "_block_sums", recording)
        monkeypatch.setattr(partition, "_CHUNK_ROWS", 3)
        x = [float(v) for v in range(7)]
        correlation_report([("x", x), ("y", x[::-1]), ("z", [v * v for v in x])])
        assert sizes == [[3, 3, 1], [3, 3, 1]]


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

    def test_one_column_has_no_pairs(self):
        assert correlation_report([("T", (1.0, 2.0, 3.0))]).pairs == ()

    def test_column_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            correlation_report([("a", (1, 2)), ("b", (1, 2, 3))])

    def test_stars_attached(self):
        x = tuple(range(30))
        noisy = tuple(v + ((-1) ** v) * 0.1 for v in x)
        report = correlation_report([("x", x), ("y", noisy)])
        assert report.pairs[0].pearson_stars == "**"

    # the first error a pair loop meets: a pair's length, then the finiteness
    # of each of its two columns, then their constancy
    @pytest.mark.parametrize("columns, message", [
        ([(5, 5, 5), (1, 2, 3), (1, math.nan, 3)], "constant sequence has no defined correlation"),
        ([(1, 2, 3), (5, 5, 5), (1, math.nan, 3)], "constant sequence has no defined correlation"),
        ([(1, 2, 3), (1, math.nan, 3), (5, 5, 5)], "values must be finite (no NaN or infinity)"),
        ([(5, 5, 5), (1, math.nan, 3)], "values must be finite (no NaN or infinity)"),
        ([(1, math.inf, 3), (5, 5, 5)], "values must be finite (no NaN or infinity)"),
        ([(math.nan,), (5,), (6,)], "need at least 2 pairs, got 1"),
    ])
    def test_first_error_in_pair_order(self, columns, message):
        with pytest.raises(DegenerateInput) as raised:
            correlation_report([(f"c{i}", values) for i, values in enumerate(columns)])
        assert str(raised.value) == message

    def test_each_column_ranked_once(self, monkeypatch):
        calls = []
        ranks = citetrace.correlation._doubled_ranks

        def counting(values):
            calls.append(len(values))
            return ranks(values)

        monkeypatch.setattr(citetrace.correlation, "_doubled_ranks", counting)
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

    # The parent design held every column's exact integers and doubled ranks
    # as lists of ints at once, and the whole columns' packs of 256 rows:
    # a peak of 3.9 MB for lists and 5.4 MB for arrays here.  Row blocks keep
    # it to the arrays of doubled ranks and one block's integers and packs.
    @pytest.mark.parametrize("kind", [list, lambda v: array("d", v)], ids=["lists", "arrays"])
    def test_memory_of_sixteen_columns(self, kind):
        rng = random.Random(16)
        columns = [(f"c{i}", kind([rng.lognormvariate(0, 2) * 10.0 ** rng.randint(-3, 3)
                                   for _ in range(4096)])) for i in range(16)]
        tracemalloc.start()
        try:
            report = correlation_report(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.pairs) == 120
        assert peak < 2.5 * 2 ** 20
