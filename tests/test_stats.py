import itertools
import math
import random
from bisect import bisect_right

import pytest

from grcvalency.stats import (
    KSResult,
    _scaled_distance,
    boxplot_stats,
    kolmogorov_sf,
    ks_two_sample,
    significance_stars,
    summarize,
)


def enumeration_oracle(a, b):
    """Exhaustive relabeling p-value, written independently of the library:
    combinations + bisect counts, integer-scaled distances."""
    n1, n2 = len(a), len(b)
    pooled = sorted(a) + sorted(b)
    pooled.sort()
    thresholds = sorted(set(pooled))

    def scaled_distance(xs, ys):
        best = 0
        for t in thresholds:
            ca = bisect_right(xs, t)
            cb = bisect_right(ys, t)
            best = max(best, abs(ca * n2 - cb * n1))
        return best

    observed = scaled_distance(sorted(a), sorted(b))
    hits = 0
    total = 0
    for combo in itertools.combinations(range(n1 + n2), n1):
        members = set(combo)
        xs = [pooled[i] for i in range(n1 + n2) if i in members]
        ys = [pooled[i] for i in range(n1 + n2) if i not in members]
        if scaled_distance(xs, ys) >= observed:
            hits += 1
        total += 1
    return observed / (n1 * n2), hits / total


def _random_sample(rng, n):
    if rng.random() < 0.5:
        return [rng.uniform(0, 1) for _ in range(n)]
    return [float(rng.randint(0, 3)) for _ in range(n)]  # forces ties


def merge_walk_distance(a_sorted, b_sorted):
    """The integer-scaled KS distance by a two-pointer walk over both sorted
    samples: at each pooled value, step past every element equal to it."""
    n1, n2 = len(a_sorted), len(b_sorted)
    best = 0
    i = j = 0
    while i < n1 or j < n2:
        if j >= n2 or (i < n1 and a_sorted[i] <= b_sorted[j]):
            value = a_sorted[i]
        else:
            value = b_sorted[j]
        while i < n1 and a_sorted[i] <= value:
            i += 1
        while j < n2 and b_sorted[j] <= value:
            j += 1
        best = max(best, abs(i * n2 - j * n1))
    return best


def test_summarize_basics():
    assert summarize([1, 2, 3]) == {"median": 2.0, "variance": 1.0, "n": 3}
    assert summarize([1, 2, 3, 4])["median"] == 2.5


def test_summarize_singleton_has_undefined_variance():
    result = summarize([5])
    assert result["median"] == 5.0
    assert result["variance"] is None
    with pytest.raises(TypeError):
        result["variance"] * 2


def test_summarize_empty_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_matches_streaming_recomputation():
    rng = random.Random(123)
    values = [rng.gauss(0, 3) for _ in range(1000)]
    result = summarize(values)
    # Welford's online recurrence as the independent route
    count, mean, m2 = 0, 0.0, 0.0
    for x in values:
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
    assert result["variance"] == pytest.approx(m2 / (count - 1), abs=1e-12)
    ranked = sorted(values)
    assert result["median"] == (ranked[499] + ranked[500]) / 2


def test_identical_samples_have_zero_distance():
    rng = random.Random(1)
    sample = [rng.random() for _ in range(6)]
    for method in ("exact", "asymptotic"):
        result = ks_two_sample(sample, list(sample), method=method)
        assert result.d_statistic == 0.0
        assert result.p_value == 1.0


def test_disjoint_supports_have_distance_one():
    result = ks_two_sample([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], method="exact")
    assert result.d_statistic == 1.0
    # both all-zeros/all-ones relabelings reach |D| = 1
    assert result.p_value == pytest.approx(2 / math.comb(6, 3))


def test_exact_agrees_with_enumeration_oracle():
    # the lattice-path count is the oracle's relabeling count, so the
    # p-values are the same ratio of integers: equal, not merely close
    rng = random.Random(77)
    for _ in range(200):
        n1, n2 = rng.randint(2, 7), rng.randint(2, 7)
        a = _random_sample(rng, n1)
        b = _random_sample(rng, n2)
        result = ks_two_sample(a, b, method="exact")
        oracle_d, oracle_p = enumeration_oracle(a, b)
        assert result.d_statistic == oracle_d
        assert result.p_value == oracle_p


def test_scaled_distance_agrees_with_a_merge_walk():
    # the enumeration oracle counts with bisect too; the walk is a second method
    rng = random.Random(2027)
    for _ in range(3000):
        a = sorted(_random_sample(rng, rng.randint(1, 30)))
        b = sorted(_random_sample(rng, rng.randint(1, 30)))
        if rng.random() < 0.3:  # half of b drawn from a: ties across the samples
            b = sorted(b[: len(b) // 2] + rng.sample(a, min(len(a), len(b) - len(b) // 2)))
        assert _scaled_distance(a, b) == merge_walk_distance(a, b), (a, b)


@pytest.mark.parametrize("n", [10, 100])
def test_exact_separated_samples_closed_form(n):
    # only the two fully separated relabelings reach D = 1; at 100+100 the
    # p-value is about 2e-59, which subtracting from 1 in floating point
    # would round to 0
    a = [float(x) for x in range(n)]
    b = [float(x) for x in range(n, 2 * n)]
    result = ks_two_sample(a, b, method="exact", exact_limit=2 * n)
    assert result.d_statistic == 1.0
    assert result.p_value == 2 / math.comb(2 * n, n)


def test_exact_checks_ties_only_at_group_ends():
    # pooled: three tied 0s, then five tied 1s.  The observed scaled
    # distance, 12 at the 0s, is reached only by relabelings whose first
    # three values fall in one sample: 5 + 5 of C(8, 4) = 70.  Checking
    # inside the tied 1s too would also count B A A A A ..., which reaches
    # 12 at position 5
    a = [0.0, 0.0, 0.0, 1.0]
    b = [1.0, 1.0, 1.0, 1.0]
    result = ks_two_sample(a, b, method="exact")
    assert result.d_statistic == 0.75
    assert result.p_value == 10 / math.comb(8, 4)
    assert (result.d_statistic, result.p_value) == enumeration_oracle(a, b)


def test_symmetry_in_the_two_samples():
    rng = random.Random(13)
    for _ in range(20):
        a = _random_sample(rng, rng.randint(2, 8))
        b = _random_sample(rng, rng.randint(2, 8))
        for method in ("exact", "asymptotic"):
            forward = ks_two_sample(a, b, method=method)
            backward = ks_two_sample(b, a, method=method)
            assert forward.d_statistic == backward.d_statistic
            assert forward.p_value == backward.p_value


def test_invariance_under_monotone_transforms():
    rng = random.Random(21)
    for _ in range(20):
        a = [rng.uniform(0, 2) for _ in range(7)]
        b = [rng.uniform(0, 2) for _ in range(5)]
        plain = ks_two_sample(a, b, method="asymptotic")
        warped = ks_two_sample(
            [math.exp(x) for x in a], [math.exp(x) for x in b], method="asymptotic"
        )
        assert plain.d_statistic == pytest.approx(warped.d_statistic, abs=1e-15)


def test_asymptotic_close_to_exact_at_small_sizes():
    rng = random.Random(3)
    diffs = []
    for _ in range(40):
        n = rng.choice([8, 9, 10])
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        exact = ks_two_sample(a, b, method="exact").p_value
        asym = ks_two_sample(a, b, method="asymptotic").p_value
        diffs.append(abs(exact - asym))
    assert sum(diffs) / len(diffs) <= 0.05


def test_asymptotic_close_to_permutation_at_fifty():
    rng = random.Random(17)
    diffs = []
    for _ in range(12):
        a = [rng.gauss(0, 1) for _ in range(50)]
        b = [rng.gauss(0, 1) for _ in range(50)]
        asym = ks_two_sample(a, b, method="asymptotic").p_value
        reference = ks_two_sample(a, b, method="exact", exact_limit=100).p_value
        diffs.append(abs(asym - reference))
    assert sum(diffs) / len(diffs) <= 0.05


def test_method_selection_and_limits():
    small = ([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
    assert ks_two_sample(*small).method == "exact"
    big_a = list(range(15))
    big_b = list(range(15))
    assert ks_two_sample(big_a, big_b).method == "asymptotic"
    with pytest.raises(ValueError):
        ks_two_sample(big_a, big_b, method="exact")
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ks_two_sample(small[0], small[1], method="quick")


def test_kolmogorov_sf_reference_values():
    # classical table values of the two-sided limiting distribution
    assert kolmogorov_sf(0.5) == pytest.approx(0.9639452436, abs=1e-9)
    assert kolmogorov_sf(1.0) == pytest.approx(0.2699996717, abs=1e-9)
    assert kolmogorov_sf(2.0) == pytest.approx(0.0006709255, abs=1e-8)
    assert kolmogorov_sf(0.0) == 1.0
    lams = [0.05 * k for k in range(1, 60)]
    values = [kolmogorov_sf(x) for x in lams]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "p,stars",
    [
        (0.034, "**"),
        (0.052, "*"),
        (0.053, "*"),
        (0.084, "*"),
        (0.106, ""),
        (0.240, ""),
        (0.05, "*"),
        (0.1, ""),
        (0.0, "**"),
        (1.0, ""),
    ],
)
def test_significance_stars(p, stars):
    assert significance_stars(p) == stars


def test_significance_stars_monotone_and_bounded():
    grid = [k / 200 for k in range(201)]
    lengths = [len(significance_stars(p)) for p in grid]
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            significance_stars(bad)


def test_boxplot_five_point_sample():
    box = boxplot_stats([1, 2, 3, 4, 5])
    assert box == {
        "min_whisker": 1.0,
        "q1": 2.0,
        "median": 3.0,
        "q3": 4.0,
        "max_whisker": 5.0,
        "outliers": [],
    }


def test_boxplot_constant_sample():
    box = boxplot_stats([7.0, 7.0, 7.0])
    assert (
        box["min_whisker"]
        == box["q1"]
        == box["median"]
        == box["q3"]
        == box["max_whisker"]
        == 7.0
    )
    assert box["outliers"] == []


def test_boxplot_flags_outliers():
    box = boxplot_stats([1, 2, 3, 4, 100])
    assert box["outliers"] == [100.0]
    assert box["max_whisker"] == 4.0


def test_boxplot_matches_independent_quantiles():
    import statistics

    rng = random.Random(31)
    values = [rng.gauss(0, 1) for _ in range(200)]
    box = boxplot_stats(values)
    ranked = sorted(values)
    half = (len(ranked) + 1) // 2
    q1 = statistics.median(ranked[:half])
    q3 = statistics.median(ranked[-half:])
    assert box["q1"] == pytest.approx(q1, abs=1e-12)
    assert box["q3"] == pytest.approx(q3, abs=1e-12)
    assert box["median"] == pytest.approx(statistics.median(values), abs=1e-12)
    iqr = q3 - q1
    inside = [x for x in ranked if q1 - 1.5 * iqr <= x <= q3 + 1.5 * iqr]
    assert box["min_whisker"] == inside[0]
    assert box["max_whisker"] == inside[-1]
    assert box["outliers"] == [x for x in ranked if x < inside[0] or x > inside[-1]]


def test_boxplot_empty_is_an_error():
    with pytest.raises(ValueError):
        boxplot_stats([])


def test_ksresult_is_value_like():
    result = KSResult(0.5, 0.1, 4, 4, "exact")
    assert result == KSResult(0.5, 0.1, 4, 4, "exact")
