"""Summary statistics and the two-sample Kolmogorov-Smirnov test.

The KS statistic is computed from integer-scaled ECDF differences
(max |i*n2 - j*n1| over the pooled sample points, both signs), so ties
are handled exactly and the exact-mode p-value is a true rational count
over the permutation distribution.  The asymptotic p-value comes from
the two-sided Kolmogorov limiting distribution evaluated at
D * sqrt(n1*n2 / (n1+n2)).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

#: Largest pooled size for which "auto" picks the exact test.
DEFAULT_EXACT_LIMIT = 20

_SERIES_EPS = 1e-12


@dataclass(frozen=True)
class KSResult:
    d_statistic: float
    p_value: float
    n1: int
    n2: int
    method: str  # "asymptotic" or "exact"


def summarize(sample) -> dict:
    """Median (midpoint convention), sample variance (n-1 divisor), n.

    A singleton sample has a median but no variance; variance is None
    there, so downstream arithmetic fails loudly rather than silently.
    """
    values = sorted(float(x) for x in sample)
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    if n < 2:
        variance = None
    else:
        mean = math.fsum(values) / n
        variance = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return {"median": _median_sorted(values), "variance": variance, "n": n}


def _median_sorted(values):
    n = len(values)
    mid = n // 2
    if n % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def _scaled_distance(a_sorted, b_sorted) -> int:
    """max over pooled points v of |#(a <= v) * n2 - #(b <= v) * n1|, an integer."""
    n1, n2 = len(a_sorted), len(b_sorted)
    return max(
        abs(bisect_right(a_sorted, v) * n2 - bisect_right(b_sorted, v) * n1)
        for v in a_sorted + b_sorted
    )


def kolmogorov_sf(lam: float) -> float:
    """Two-sided Kolmogorov survival function Q(lambda).

    Uses the alternating series 2*sum((-1)^(k-1) exp(-2 k^2 lambda^2))
    truncated when terms drop below 1e-12; small arguments go through the
    equivalent Jacobi-theta form, where the direct series converges too
    slowly to truncate safely.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        v = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        cdf = math.sqrt(2.0 * math.pi) / lam * (v + v**9 + v**25 + v**49)
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < _SERIES_EPS or k > 1000:
            break
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def _exact_pvalue(pooled_sorted, n1: int, observed: int) -> float:
    """P(D* >= observed) over all C(n1+n2, n1) relabelings of the pooled values.

    Counts lattice paths (Hodges 1958; Kim & Jennrich 1973): after the
    first k pooled values, ``paths[i]`` is the number of label sequences
    with i of them in A whose integer-scaled distance stayed below
    ``observed`` at every tie-group end so far.  Python ints keep the
    count exact, so the p-value equals the relabeling count's ratio.
    """
    n = len(pooled_sorted)
    n2 = n - n1
    paths = [1] + [0] * n1
    for k in range(1, n + 1):
        for i in range(min(k, n1), 0, -1):
            paths[i] += paths[i - 1]
        if k == n or pooled_sorted[k - 1] != pooled_sorted[k]:
            for i in range(min(k, n1) + 1):
                if abs(i * n2 - (k - i) * n1) >= observed:
                    paths[i] = 0
    total = math.comb(n, n1)
    return (total - paths[n1]) / total


def ks_two_sample(a, b, method: str = "auto", exact_limit: int = DEFAULT_EXACT_LIMIT) -> KSResult:
    """Two-sample, two-sided KS test.

    method "exact" counts the permutation distribution (pooled size
    capped by ``exact_limit``); "asymptotic" uses the Kolmogorov limiting
    distribution; "auto" picks exact when the pooled size allows it.
    """
    a_sorted = sorted(float(x) for x in a)
    b_sorted = sorted(float(x) for x in b)
    n1, n2 = len(a_sorted), len(b_sorted)
    if n1 < 2 or n2 < 2:
        raise ValueError(f"need at least 2 observations per sample, got {n1} and {n2}")
    if method == "auto":
        method = "exact" if n1 + n2 <= exact_limit else "asymptotic"
    if method not in ("exact", "asymptotic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and n1 + n2 > exact_limit:
        raise ValueError(
            f"exact method limited to pooled size {exact_limit}, got {n1 + n2}"
        )

    scaled = _scaled_distance(a_sorted, b_sorted)
    d = scaled / (n1 * n2)
    if method == "exact":
        p = _exact_pvalue(sorted(a_sorted + b_sorted), n1, scaled)
    else:
        effective = n1 * n2 / (n1 + n2)
        p = kolmogorov_sf(d * math.sqrt(effective))
    return KSResult(d_statistic=d, p_value=p, n1=n1, n2=n2, method=method)


def significance_stars(p: float) -> str:
    """"**" below 0.05, "*" below 0.1, empty otherwise."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value outside [0, 1]: {p}")
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def boxplot_stats(sample) -> dict:
    """Five-number box data with Tukey fences.

    Quartiles use the midpoint-inclusive convention (each half includes
    the middle element when n is odd); whiskers sit on the most extreme
    points within 1.5*IQR of the quartiles, everything beyond is an
    outlier.
    """
    values = sorted(float(x) for x in sample)
    n = len(values)
    if n == 0:
        raise ValueError("cannot compute boxplot statistics of an empty sample")
    half = (n + 1) // 2
    q1 = _median_sorted(values[:half])
    q3 = _median_sorted(values[n - half:])
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inliers = [x for x in values if low_fence <= x <= high_fence]
    outliers = [x for x in values if x < low_fence or x > high_fence]
    return {
        "min_whisker": inliers[0],
        "q1": q1,
        "median": _median_sorted(values),
        "q3": q3,
        "max_whisker": inliers[-1],
        "outliers": outliers,
    }
