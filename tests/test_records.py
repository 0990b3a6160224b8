"""The immutable records: field order, immutability, value equality and
hash, defaults and derived properties."""

import pytest

from factorgaps.counting import (
    CountBreakdown,
    CountParams,
    DirectCounts,
    LayerCount,
)
from factorgaps.gaps import GapProfile
from factorgaps.sieve import Factorization


def _params():
    return CountParams(x=1000, c=1.0, gap_exp=1.93, small_prime_bound=35.6)


def _layer(k):
    return LayerCount(k=k, m_count=k + 1, count=10 * k, recip_sum=1.0 / (k + 1))


# (record, its fields in order, keyword values, properties the record derives)
RECORDS = [
    (Factorization, ("n", "factors"),
     lambda: dict(n=360, factors=((2, 3), (3, 2), (5, 1))),
     dict(primes=(2, 3, 5))),
    (GapProfile, ("n", "omega", "gap", "ratio"),
     lambda: dict(n=34, omega=2, gap=1.4, ratio=4.0), {}),
    (CountParams, ("x", "c", "gap_exp", "small_prime_bound"),
     lambda: dict(x=1000, c=1.0, gap_exp=1.93, small_prime_bound=35.6), {}),
    (DirectCounts, ("n_direct", "n_direct_gapform", "smooth_gap_count"),
     lambda: dict(n_direct=7, n_direct_gapform=9, smooth_gap_count=2), {}),
    (LayerCount, ("k", "m_count", "count", "recip_sum"),
     lambda: dict(k=2, m_count=3, count=20, recip_sum=1 / 3), {}),
    (CountBreakdown,
     ("params", "n_direct", "n_direct_gapform", "smooth_gap_count", "per_k",
      "bonferroni", "n_inclusion_exclusion"),
     lambda: dict(params=_params(), n_direct=5, n_direct_gapform=6,
                  smooth_gap_count=1, per_k=(_layer(0), _layer(1)),
                  bonferroni=((0, 1000), (1, 5)), n_inclusion_exclusion=5),
     {}),
]


@pytest.mark.parametrize(
    "record,fields,values,derived", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(record, fields, values, derived):
    rec = record(**values())
    assert record._fields == fields
    twin = record(**values())
    assert rec == twin and hash(rec) == hash(twin)
    assert rec != record(*rec[:-1], "other")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    for name, want in derived.items():
        assert getattr(rec, name) == want
