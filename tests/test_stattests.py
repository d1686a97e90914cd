import itertools
import math
import random
import sys
from functools import reduce
from operator import add

import pytest
from scipy.special import betainc, betaincc

from sessionterms import stattests
from sessionterms.stattests import (
    column_means,
    pairwise_mean,
    welch_may_be_significant,
    welch_t,
    wilcoxon_signed_rank,
)

from conftest import neumaier_sum

# Frozen reference values for Welch's unequal-variance t-test,
# cross-checked against an independent implementation.
WELCH_REFERENCE = [
    ([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], -1.0, 0.34659350708733416),
    ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 0.0, 1.0),
    ([0, 0, 0, 0], [10, 10, 10, 10.0001], -400001.0000009323, 3.445779752871818e-17),
    ([1.5, 2.5], [9.0, 9.5, 10.0], -12.99038105676658, 0.010954417689669428),
    ([1, 1, 2, 2, 3, 3], [10, 20, 30], -3.1114747147290793, 0.08872722222031758),
    ([5.1, 4.9, 5.0, 5.2], [5.0, 5.1, 4.95, 5.05, 5.15], 0.0, 1.0),
    ([-3, -1, 0, 2, 4, 6], [1, 1, 1], 0.24544034683690796, 0.8158714843641037),
    ([2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9], 1.3887301496588271, 0.1951661946063394),
]

# Frozen reference p-values for the exact two-sided Wilcoxon signed-rank
# test (zeros discarded), cross-checked the same way.
WILCOXON_REFERENCE = [
    # statistic is W+, the sum of positive signed ranks
    ([-1, -1, -1, -1, -95], 0.0, 0.0625),
    ([1, -2, 3, -4, 5, -6, 7, 8], 24.0, 0.4609375),
    # tied |deltas|: exact distribution conditions on the averaged ranks
    # (verified against full sign-assignment enumeration below)
    ([0.5, 1.5, -0.5, 2.5, 3.5, -1.5, 4.5, 0.25, -0.25, 5.0], 44.5, 0.095703125),
]


def plain_welch(sample_a, sample_b):
    """(t, p) of Welch's test as written before underflowing variances
    were scaled, the oracle for every sample it does not divide by zero
    on."""
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    n1, n2 = len(a), len(b)
    mean1, mean2 = reduce(add, a, 0.0) / n1, reduce(add, b, 0.0) / n2
    var1 = reduce(add, ((x - mean1) ** 2 for x in a), 0.0) / (n1 - 1)
    var2 = reduce(add, ((x - mean2) ** 2 for x in b), 0.0) / (n2 - 1)
    if var1 == 0.0 and var2 == 0.0:
        return (0.0, 1.0) if mean1 == mean2 else (None, None)
    se2 = var1 / n1 + var2 / n2
    t = (mean1 - mean2) / math.sqrt(se2)
    df = se2 * se2 / ((var1 / n1) ** 2 / (n1 - 1) + (var2 / n2) ** 2 / (n2 - 1))
    return t, float(betainc(df / 2.0, 0.5, df / (df + t * t)))


class TestWelch:
    @pytest.mark.parametrize("a,b,t_ref,p_ref", WELCH_REFERENCE)
    def test_reference_values(self, a, b, t_ref, p_ref):
        result = welch_t(a, b)
        assert result.p_value is not None
        assert result.statistic == pytest.approx(t_ref, rel=1e-9, abs=1e-9)
        assert result.p_value == pytest.approx(p_ref, rel=1e-3)

    def test_antisymmetric(self):
        a, b = [1.0, 3.0, 4.5], [2.0, 2.5, 6.0, 7.0]
        fwd, rev = welch_t(a, b), welch_t(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_scale_and_shift_invariance(self):
        a, b = [1.0, 2.0, 5.0, 7.0], [0.5, 3.0, 3.5]
        base = welch_t(a, b)
        scaled = welch_t([3 * x + 10 for x in a], [3 * x + 10 for x in b])
        assert scaled.statistic == pytest.approx(base.statistic)
        assert scaled.p_value == pytest.approx(base.p_value)

    def test_tiny_samples_not_applicable(self):
        assert welch_t([1.0], [2.0, 3.0]).p_value is None
        assert welch_t([], []).p_value is None

    def test_zero_variance_equal_means(self):
        result = welch_t([2.0, 2.0, 2.0], [2.0, 2.0])
        assert result.p_value == 1.0

    def test_zero_variance_unequal_means_not_applicable(self):
        assert welch_t([2.0, 2.0], [3.0, 3.0]).p_value is None

    def test_tiny_variances_scale_exactly(self):
        """Variances below about 1e-154 square to 0; t and df come from
        the samples scaled by a power of two, which changes no bit."""
        a, b = [0.0, 1e-160, 2e-160], [1e-160, 3e-160, 4e-160]
        result = welch_t(a, b)
        scaled = welch_t([x * 2.0 ** 600 for x in a], [x * 2.0 ** 600 for x in b])
        assert (result.statistic, result.p_value) == (scaled.statistic, scaled.p_value)
        assert result.statistic == pytest.approx(welch_t([0, 1, 2], [1, 3, 4]).statistic)
        assert 0.0 < result.p_value < 1.0

    @pytest.mark.parametrize("a,b", [
        ([0.0, 1e160, 2e160], [1e160, 3e160, 5e160]),
        ([1e307, -1e307, 5e306], [1.0, 2e306, -3e306]),  # scaled down twice
    ])
    def test_huge_samples_scale_exactly(self, a, b):
        """Squares above the float range raise OverflowError; t and df
        come from the samples scaled by a power of two, which changes no
        bit."""
        with pytest.raises(OverflowError):
            plain_welch(a, b)
        result = welch_t(a, b)
        assert 0.0 < result.p_value < 1.0
        for k in (512, 600, 1000):
            scaled = welch_t([math.ldexp(x, -k) for x in a], [math.ldexp(x, -k) for x in b])
            assert (result.statistic, result.p_value) == (scaled.statistic, scaled.p_value)

    def test_sums_of_finite_squares_above_the_float_range_scale_exactly(self):
        """Each square is finite but their sum is not: no OverflowError,
        yet the samples are scaled as when a square overflows."""
        a, b = [0.0, 1.3e154, 2.6e154], [1.0, 2.0, 3.0]
        assert math.isinf(reduce(add, ((x - 1.3e154) ** 2 for x in a)))
        result = welch_t(a, b)
        scaled = welch_t([math.ldexp(x, -10) for x in a], [math.ldexp(x, -10) for x in b])
        assert (result.statistic, result.p_value) == (1.7320508075688772, 0.22540333075851665)
        assert (result.statistic, result.p_value) == (scaled.statistic, scaled.p_value)

    @pytest.mark.parametrize("a,b", [
        ([0.0, math.inf, 2.6e154], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [-math.inf, 1e300, 1.7e308]),
        ([math.nan, 1.3e154, 2.6e154], [1.0, 2.0]),
    ])
    def test_a_non_finite_value_is_not_scaled(self, a, b):
        """An inf or nan makes a variance nan; scaling it would recurse
        forever."""
        result = welch_t(a, b)
        assert math.isnan(result.statistic) and math.isnan(result.p_value)
        assert not welch_may_be_significant(a, b, 0.05)

    def test_results_do_not_depend_on_the_builtin_sum(self, monkeypatch):
        """Means and variances add in order, not with the builtin `sum`,
        which compensates from Python 3.12 on."""
        rng = random.Random(5)
        samples = [([1.0, 1e100, 1.0, -1e100], [0.5, 2.0, 3.5])]
        samples += [([rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-3, 3) for _ in range(9)],
                     [rng.gauss(0.5, 2.0) for _ in range(7)]) for _ in range(50)]
        expected = [welch_t(a, b) for a, b in samples]
        monkeypatch.setattr(stattests, "sum", neumaier_sum, raising=False)
        assert [welch_t(a, b) for a, b in samples] == expected

    @pytest.mark.parametrize("exponent", [-450, -300, -100, 100, 200])
    def test_power_of_two_scaling_keeps_every_bit(self, exponent):
        rng = random.Random(exponent)
        scale = 2.0 ** exponent
        for _ in range(300):
            a = [float(rng.randint(0, 20)) for _ in range(rng.randint(2, 9))]
            b = [float(rng.randint(0, 20) + rng.randint(-5, 5)) for _ in range(rng.randint(2, 9))]
            base = welch_t(a, b)
            scaled = welch_t([x * scale for x in a], [x * scale for x in b])
            assert (scaled.statistic, scaled.p_value) == (base.statistic, base.p_value)

    def test_keeps_the_bits_of_every_result_the_plain_formula_gives(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(2000):
            exponent = rng.choice([0, 0, 0, -76, -150, -160, 76, 150])
            n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
            a = [rng.gauss(0.0, 1.0) * 10.0 ** exponent for _ in range(n1)]
            b = [rng.gauss(0.5, 2.0) * 10.0 ** exponent for _ in range(n2)]
            try:
                expected = plain_welch(a, b)
            except (ZeroDivisionError, OverflowError):
                continue
            checked += 1
            result = welch_t(a, b)
            assert (result.statistic, result.p_value) == expected
        assert checked > 1000

    def test_p_monotone_in_separation(self):
        a = [0.0, 1.0, 2.0, 3.0]
        last = 1.1
        for shift in [0.0, 1.0, 2.0, 4.0, 8.0]:
            p = welch_t(a, [x + shift for x in a]).p_value
            assert p < last + 1e-12
            last = p


def _t_tail(t, df):
    """The two-sided Student-t tail. Where t * t is small against df,
    x = df / (df + t * t) rounds away the digits that carry t, so the
    complement is passed to betaincc instead."""
    x = df / (df + t * t)
    if x < 0.5:
        return float(betainc(df / 2.0, 0.5, x))
    return float(betaincc(0.5, df / 2.0, t * t / (df + t * t)))


class TestNormalTailBound:
    """`welch_may_be_significant` rests on erfc(|t| / sqrt 2) being at
    most the Student-t tail for every df > 0."""

    DFS = [1.0, 1.5, 2.0, 3.0, 10.0, 1e3, 1e5, 1e6]

    def draws(self):
        rng = random.Random(20261018)
        yield from ((rng.uniform(0.0, 40.0), math.exp(rng.uniform(0.0, math.log(1e6))))
                    for _ in range(3000))
        yield from ((0.0, df) for df in self.DFS)
        yield from ((40.0, df) for df in self.DFS)  # both sides underflow for large df
        yield from ((t, df) for t in (1e-9, 1e-6, 1e-3, 0.5, 2.58, 3.3) for df in self.DFS)

    def test_normal_tail_bounds_student_t_tail(self):
        underflows = 0
        for t, df in self.draws():
            lower, tail = math.erfc(t / math.sqrt(2.0)), _t_tail(t, df)
            if tail < sys.float_info.min:
                # scipy flushes tails below the normal float range to 0
                underflows += 1
                assert lower < sys.float_info.min, (t, df, lower)
            else:
                # scipy's incomplete beta is good to about 1e-10 relative
                # close to x = 1 (t = 2e-10, df = 1 is off by 5e-11)
                assert lower <= tail * (1.0 + 1e-9), (t, df, lower, tail)
        assert underflows > 0
        assert math.erfc(0.0) == _t_tail(0.0, 5.0) == 1.0

    def test_no_p_value_below_alpha_is_ruled_out(self):
        """Where the check says "not significant", the p-value welch_t
        computes is at least alpha, on samples whose p-values straddle
        the common alphas."""
        rng = random.Random(5)
        ruled_out = kept = 0
        for _ in range(3000):
            a = [rng.gauss(0.0, 1.0) for _ in range(rng.randint(2, 60))]
            shift = rng.uniform(0.0, 2.0)
            b = [rng.gauss(shift, rng.choice([0.5, 1.0, 3.0])) for _ in range(rng.randint(2, 60))]
            p = welch_t(a, b).p_value
            for alpha in (0.05, 0.01, 0.001):
                if welch_may_be_significant(a, b, alpha):
                    kept += 1
                else:
                    ruled_out += 1
                    assert p >= alpha, (a, b, alpha)
        assert ruled_out > 1000 and kept > 1000

    def test_undecided_cells_need_the_p_value(self):
        a, b = [0.0, 1.0, 2.0], [3.0, 4.0, 5.0]  # t = -3.67, df = 4
        assert welch_may_be_significant(a, b, 0.01)
        assert 0.01 < welch_t(a, b).p_value < 0.05
        far = [10.0, 11.0, 12.5, 13.0]
        assert welch_may_be_significant(a, far, 0.01)
        assert welch_t(a, far).p_value < 0.01

    def test_not_applicable_and_constant_samples_are_never_significant(self):
        assert not welch_may_be_significant([1.0], [2.0, 3.0], 0.01)
        assert not welch_may_be_significant([2.0, 2.0], [3.0, 3.0], 0.01)
        assert not welch_may_be_significant([2.0, 2.0, 2.0], [2.0, 2.0], 0.01)


def brute_force_wilcoxon(deltas):
    """Two-sided exact p by literally enumerating every sign assignment."""
    nonzero = [d for d in deltas if d != 0.0]
    order = sorted(range(len(nonzero)), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * len(nonzero)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = sum(r for d, r in zip(nonzero, ranks) if d > 0)
    n = len(nonzero)
    low = high = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs + 1e-9:
            low += 1
        if w >= w_obs - 1e-9:
            high += 1
    return min(1.0, 2.0 * min(low, high) / 2 ** n)


class TestWilcoxon:
    @pytest.mark.parametrize("deltas,w_ref,p_ref", WILCOXON_REFERENCE)
    def test_reference_values(self, deltas, w_ref, p_ref):
        result = wilcoxon_signed_rank(deltas)
        assert result.method == "wilcoxon-exact"
        assert result.statistic == pytest.approx(w_ref)
        assert result.p_value == pytest.approx(p_ref, rel=1e-9)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 10)
            # quantized deltas so ties and zeros both occur
            deltas = [rng.randint(-4, 4) * 0.5 for _ in range(n)]
            if all(d == 0 for d in deltas):
                continue
            result = wilcoxon_signed_rank(deltas)
            assert result.p_value == pytest.approx(brute_force_wilcoxon(deltas), abs=1e-12)

    def test_zeros_discarded(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, -2.0, 0.0, 3.0])
        without = wilcoxon_signed_rank([1.0, -2.0, 3.0])
        assert with_zeros.p_value == without.p_value
        assert with_zeros.n_effective == 3

    def test_all_zero_deltas(self):
        result = wilcoxon_signed_rank([0.0, 0.0])
        assert result.p_value == 1.0
        assert result.n_effective == 0

    def test_exact_and_normal_agree_at_boundary(self):
        rng = random.Random(23)
        for n in [20, 22, 25]:
            deltas = [rng.gauss(0.3, 1.0) for _ in range(n)]
            exact = wilcoxon_signed_rank(deltas)
            assert exact.method == "wilcoxon-exact"
            # push the same data past the exact limit by replication-free
            # comparison against the normal path
            from sessionterms import stattests

            w = exact.statistic
            nonzero, ranks = stattests._signed_ranks(deltas)
            normal_p = stattests._wilcoxon_normal_p(nonzero, ranks, w)
            assert abs(normal_p - exact.p_value) < 0.02

    def test_normal_path_beyond_limit(self):
        rng = random.Random(7)
        deltas = [rng.gauss(0.0, 1.0) for _ in range(40)]
        result = wilcoxon_signed_rank(deltas)
        assert result.method == "wilcoxon-normal"
        assert 0.0 <= result.p_value <= 1.0

    def test_scale_invariance(self):
        deltas = [0.5, -1.5, 2.0, 3.0, -0.5]
        assert (
            wilcoxon_signed_rank(deltas).p_value
            == wilcoxon_signed_rank([10 * d for d in deltas]).p_value
        )

    def test_strong_one_sided_effect_small_p(self):
        result = wilcoxon_signed_rank(list(range(1, 16)))
        assert result.p_value == pytest.approx(2 / 2 ** 15, rel=1e-9)
        assert result.p_value < 0.001


class TestResultContract:
    def test_p_values_always_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(200):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 8))]
            b = [rng.gauss(0.5, 2) for _ in range(rng.randint(2, 8))]
            p = welch_t(a, b).p_value
            if p is not None:
                assert 0.0 <= p <= 1.0
            p = wilcoxon_signed_rank([x - y for x, y in zip(a, b)]).p_value
            assert 0.0 <= p <= 1.0

    def test_nan_free(self):
        for result in [welch_t([1, 2], [3, 4]), wilcoxon_signed_rank([1, -1, 2])]:
            assert not math.isnan(result.p_value)


def _random_values(rng, n):
    """Floats of mixed sign and scale (with the odd -0.0), or small ints."""
    style = rng.randrange(4)
    if style == 0:
        return [rng.random() * rng.choice([1e-3, 1.0, 1e6]) for _ in range(n)]
    if style == 1:
        return [rng.gauss(0.0, 1e3) for _ in range(n)]
    if style == 2:
        return [rng.choice([-0.0, 0.0, rng.random(), -rng.random()]) for _ in range(n)]
    return [rng.randint(0, 50) for _ in range(n)]


def _random_length(rng):
    """Mostly short lists, as the analyses average, and some past the
    pairwise sum's block sizes (8, 128) and numpy's 8192-value buffer."""
    draw = rng.random()
    if draw < 0.6:
        return rng.randint(1, 20)
    return rng.randint(1, 300) if draw < 0.9 else rng.randint(1, 20000)


class TestNumpyOrderMeans:
    """The report floats were numpy means; the pure-Python helpers must
    reproduce them bit for bit."""

    def test_pairwise_mean_equals_np_mean(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(20261018)
        for _ in range(2000):
            values = _random_values(rng, _random_length(rng))
            assert pairwise_mean(values) == float(np.mean(values)), len(values)

    def test_pairwise_mean_of_a_column_equals_strided_mean(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(7)
        for _ in range(300):
            n, width = _random_length(rng), rng.randint(2, 5)
            arr = np.array([_random_values(rng, width) for _ in range(n)], dtype=float)
            rows = [tuple(row) for row in arr.tolist()]
            for i in range(width):
                assert pairwise_mean([row[i] for row in rows]) == float(arr[:, i].mean())

    def test_column_means_equal_mean_over_axis_0(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(11)
        for _ in range(1000):
            n, width = rng.choice([rng.randint(1, 20), rng.randint(1, 1000)]), rng.randint(2, 5)
            rows = [tuple(map(float, _random_values(rng, width))) for _ in range(n)]
            expected = np.asarray(rows, dtype=float).mean(axis=0)
            assert column_means(rows) == [float(v) for v in expected]

    def test_short_lists_sum_in_order_from_zero(self):
        assert math.copysign(1.0, pairwise_mean([-0.0])) == 1.0
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        total = 0.0
        for v in values:
            total += v
        assert pairwise_mean(values) == total / 7
