"""Means in NumPy's summation order, Welch's t-test and the Wilcoxon
signed-rank test.

`pairwise_mean` and `column_means` give the exact floats of NumPy 2's
`mean` without importing it: reports write floats with `repr`, so a
mean summed in any other order could change their bytes.

Both tests are two-sided. The Wilcoxon test enumerates all sign assignments
exactly for small samples and falls back to a tie- and continuity-
corrected normal approximation for larger ones.

scipy is loaded only when a Welch p-value is computed. Among the CLI
commands only `analyze sources` computes one, and only for a
clicked-variant cell that `welch_may_be_significant` cannot rule out:
the two-sided normal tail is a lower bound of the Student-t tail, so a
normal tail well above alpha settles "not significant" without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

WILCOXON_EXACT_LIMIT = 25

_PAIRWISE_BLOCK = 128


def _pairwise_sum(values):
    """NumPy's pairwise sum: a plain loop below 8 values, 8 strided
    accumulators up to 128, and above that a split at n/2 rounded down
    to a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= _PAIRWISE_BLOCK:
        m = n - n % 8
        r = [reduce(add, values[j:m:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[m:], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def pairwise_mean(values) -> float:
    """NumPy's `mean` of a non-empty sequence of numbers, bit for bit."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def column_means(rows) -> list:
    """NumPy's `asarray(rows).mean(axis=0)` of non-empty rows of equal
    length (at least two), bit for bit: each column is summed row by
    row."""
    return [reduce(add, column, 0.0) / len(rows) for column in zip(*rows)]


@dataclass(frozen=True)
class TestResult:
    """A test's outcome; `p_value` is None when the test does not apply."""

    statistic: float | None
    p_value: float | None
    n_effective: int
    method: str


class MissingDependencyError(Exception):
    """scipy, which a Welch p-value needs, cannot be imported: the
    install is broken, not the input."""


def _t_sf_two_sided(t, df):
    """Two-sided tail probability of Student's t via the regularized
    incomplete beta function."""
    if df <= 0:
        return 1.0
    try:
        # Deferred: only Welch p-values need scipy. On the perfbench
        # `long` workload, loading it and computing the p-values took
        # 0.29-0.48 s with numpy's OpenBLAS thread pool and 0.16-0.25 s
        # with the one thread `cli.console_main` asks for (2-vCPU x86
        # VM, two sessions).
        from scipy.special import betainc
    except ImportError as exc:
        raise MissingDependencyError(
            f"a Welch p-value needs scipy, which cannot be imported: {exc}") from exc

    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def _welch(sample_a, sample_b):
    """Welch's (t, df, n_effective). t is None when the test does not
    apply: either sample has fewer than two observations, or both
    variances are zero and the means differ. Equal constant samples give
    t = df = 0, whose p-value is 1."""
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        return None, None, 0
    mean1 = reduce(add, a, 0.0) / n1
    mean2 = reduce(add, b, 0.0) / n2
    try:
        var1 = reduce(add, ((x - mean1) ** 2 for x in a), 0.0) / (n1 - 1)
        var2 = reduce(add, ((x - mean2) ** 2 for x in b), 0.0) / (n2 - 1)
        df_denominator = (var1 / n1) ** 2 / (n1 - 1) + (var2 / n2) ** 2 / (n2 - 1)
        finite = all(map(math.isfinite, (var1, var2, df_denominator)))
    except OverflowError:
        finite = False
    if not finite:
        if not all(map(math.isfinite, a + b)):
            # An inf or nan in a sample makes its variance nan; scaling
            # would recurse forever.
            return math.nan, math.nan, n1 + n2
        # A square, or a sum of finite ones, leaves the float range. As
        # in the underflow case below, t and df do not change when both
        # samples are scaled by a power of two; 2**-512 lowers the
        # exponent of every square by 1024, so this recurses at most
        # twice.
        return _welch([math.ldexp(x, -512) for x in a], [math.ldexp(x, -512) for x in b])
    if var1 == 0.0 and var2 == 0.0:
        if mean1 == mean2:
            return 0.0, 0.0, n1 + n2
        return None, None, n1 + n2
    se2 = var1 / n1 + var2 / n2
    if df_denominator == 0.0:
        # The squared variances (and perhaps se2) underflow to 0. t and df
        # do not change when both samples are scaled by one factor, and a
        # power of two scales every step exactly, so compute them on
        # samples scaled until the larger variance is near 1 (once: then
        # the denominator is far from underflow).
        scale = math.ldexp(1.0, -(math.frexp(max(var1, var2))[1] // 2))
        return _welch([x * scale for x in a], [x * scale for x in b])
    t = (mean1 - mean2) / math.sqrt(se2)
    df = se2 * se2 / df_denominator
    return t, df, n1 + n2


def welch_t(sample_a, sample_b) -> TestResult:
    """Welch's unequal-variance t-test.

    Returns a result without a statistic or p-value when either sample
    has fewer than two observations or both variances are zero.
    """
    t, df, n = _welch(sample_a, sample_b)
    if t is None:
        return TestResult(None, None, n, "welch")
    return TestResult(t, _t_sf_two_sided(t, df), n, "welch")


# Relative slack on the normal-tail bound. The float error of `erfc` and
# of `betainc` near a usable alpha is many orders smaller (df never
# exceeds n1 + n2 - 2), so a decision with this slack is the one the
# exact p-value would give.
_BOUND_MARGIN = 1e-6


def welch_may_be_significant(sample_a, sample_b, alpha) -> bool:
    """False when Welch's test between the samples does not apply or its
    p-value is surely at least alpha; True when only `welch_t` can tell.

    Decided without scipy: for every df > 0 the two-sided Student-t tail
    is at least the two-sided normal tail erfc(|t| / sqrt 2). (T = Z/sqrt W
    with E[W] = 1, and the normal tail at t sqrt w is convex in w, so
    Jensen's inequality applies.)"""
    t, _, _ = _welch(sample_a, sample_b)
    return t is not None and math.erfc(abs(t) / math.sqrt(2.0)) < alpha * (1.0 + _BOUND_MARGIN)


def _signed_ranks(deltas):
    """Averaged ranks of |delta| with signs; zero deltas discarded."""
    nonzero = [d for d in deltas if d != 0.0]
    order = sorted(range(len(nonzero)), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * len(nonzero)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return nonzero, ranks


def wilcoxon_signed_rank(deltas) -> TestResult:
    """Two-sided Wilcoxon signed-rank test against a zero median."""
    deltas = [float(d) for d in deltas]
    nonzero, ranks = _signed_ranks(deltas)
    n = len(nonzero)
    if n == 0:
        return TestResult(0.0, 1.0, 0, "wilcoxon-exact")
    w_plus = sum(r for d, r in zip(nonzero, ranks) if d > 0)
    if n <= WILCOXON_EXACT_LIMIT:
        p = _wilcoxon_exact_p(ranks, w_plus)
        return TestResult(w_plus, p, n, "wilcoxon-exact")
    p = _wilcoxon_normal_p(nonzero, ranks, w_plus)
    return TestResult(w_plus, p, n, "wilcoxon-normal")


def _wilcoxon_exact_p(ranks, w_plus):
    """Exact two-sided p over all 2^n sign assignments.

    The distribution of W+ is built by dynamic programming over the
    (scaled-to-integer) ranks, equivalent to full enumeration.
    """
    # ranks are multiples of 0.5; scale to integers
    scaled = [int(round(2 * r)) for r in ranks]
    total = sum(scaled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in scaled:
        for w in range(total - r, -1, -1):
            if counts[w]:
                counts[w + r] += counts[w]
    n = len(ranks)
    denom = 2 ** n
    w_scaled = int(round(2 * w_plus))
    p_low = sum(counts[: w_scaled + 1]) / denom
    p_high = sum(counts[w_scaled:]) / denom
    return min(1.0, 2.0 * min(p_low, p_high))


def _wilcoxon_normal_p(nonzero, ranks, w_plus):
    """Normal approximation with tie and continuity corrections."""
    n = len(nonzero)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction over groups of equal |delta|
    groups = {}
    for d in nonzero:
        groups[abs(d)] = groups.get(abs(d), 0) + 1
    var -= sum(t ** 3 - t for t in groups.values()) / 48.0
    if var <= 0:
        return 1.0
    diff = w_plus - mean
    if diff > 0:
        diff -= 0.5
    elif diff < 0:
        diff += 0.5
    z = diff / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))
