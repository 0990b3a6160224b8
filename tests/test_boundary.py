import ast
import math
import os

import numpy as np
from hypothesis import given, settings, strategies as st

import factorgaps
from factorgaps import boundary

RHS = math.log(math.log(10**6))  # E at x = 1e6, c = 1
BAND = boundary.TIE_EPS


def banded(lhs):
    """le_banded's mask and the entries it asked ``exact`` about; exact
    answers the opposite of the float, so its answers show in the mask."""
    asked = []

    def exact(i):
        asked.append(i)
        return not lhs[i] <= RHS

    return boundary.le_banded(lhs, RHS, exact), asked


def test_le_banded_re_decides_only_the_band():
    lhs = np.array([RHS, RHS - BAND / 2, RHS + BAND / 2, RHS - 2 * BAND, RHS + 2 * BAND, 0.0])
    keep, asked = banded(lhs)
    assert asked == [0, 1, 2]
    assert keep.tolist() == [False, False, True, True, False, True]


def test_le_banded_force_extended_asks_every_entry():
    lhs = np.array([RHS, RHS - 2 * BAND, RHS + 2 * BAND, 0.0, 1.0, 100.0])
    with boundary.force_extended():
        keep, asked = banded(lhs)
    assert asked == list(range(lhs.size))
    assert keep.tolist() == (lhs > RHS).tolist()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-4, 4) | st.floats(-1e12, 1e12), min_size=1, max_size=40))
def test_le_banded_outside_the_band_is_the_float_test(offsets):
    # offsets in units of the band: within half a band always asked, past
    # two bands never; whatever is not asked is the float comparison
    lhs = RHS + np.array(offsets) * BAND
    keep, asked = banded(lhs)
    dist = np.abs(lhs - RHS)
    assert set(np.flatnonzero(dist < BAND / 2).tolist()) <= set(asked)
    assert not set(np.flatnonzero(dist > 2 * BAND).tolist()) & set(asked)
    outside = np.setdiff1d(np.arange(lhs.size), asked)
    assert np.array_equal(keep[outside], lhs[outside] <= RHS)


def test_only_boundary_knows_the_band():
    # the one tie rule: other modules compare through le_banded, le_power
    # and le_root, never against the band itself (docstrings are not names)
    src = os.path.dirname(factorgaps.__file__)
    found = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py") or fname == "boundary.py":
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            found += [(fname, name) for name in names if name in ("tie_band", "TIE_EPS")]
    assert found == []
