"""factorgaps: the largest gap between prime factors, measured and counted.

A small numerics library around the statistic

    gap(n) = ln( max_j  ln p_{j+1}(n) / ln p_j(n) ),

the empirical distribution of gap(n) - ln ln ln n over integer ranges,
and the exact inclusion-exclusion counts that explain why the share of
integers with e^gap(n) > c ln ln n tends to 1 - e^(-1/c).
"""

import os

# factorgaps makes no BLAS call; without this, OpenBLAS starts a thread pool
# when numpy loads that spins for ~0.1 s of CPU. A value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .sieve import (
    InsufficientTableError,
    build_prime_table,
    factorize,
    primes_in_power_interval,
)
from .gaps import (
    EmptySampleError,
    gap_profile,
    merge_summaries,
    partial_alternating_sum,
    scan_range,
    theoretical_density,
)
from .counting import (
    count_isolated_set,
    direct_counts,
    inclusion_exclusion,
    inner_counts,
    is_gap_form,
    make_params,
    tuple_reciprocal_sum,
    wide_squarefree_set,
    window_coprime_density,
)

__version__ = "0.1.0"

__all__ = [
    "InsufficientTableError",
    "build_prime_table",
    "factorize",
    "primes_in_power_interval",
    "EmptySampleError",
    "gap_profile",
    "merge_summaries",
    "partial_alternating_sum",
    "scan_range",
    "theoretical_density",
    "count_isolated_set",
    "direct_counts",
    "inclusion_exclusion",
    "inner_counts",
    "is_gap_form",
    "make_params",
    "tuple_reciprocal_sum",
    "wide_squarefree_set",
    "window_coprime_density",
    "__version__",
]
