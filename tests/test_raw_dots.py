"""The integer dot-table primitive, pinned to the per-pair Python loop and
the Surd arithmetic it replaced."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit.codes import (
    LatticeCode,
    LatticePoint,
    cube,
    e8_roots,
    polytope_2_41,
    raw_dots,
)
from stiffkit.design import index_set, pair_values, spectrum
from stiffkit.exact import Surd
from stiffkit.stiffness import DualSearchResult, _at_most_m_distinct


def _dots_loop(a, b) -> list[list[int]]:
    """Reference: one Python-int dot product per pair."""
    return [[sum(x * y for x, y in zip(u, v)) for v in b] for u in a]


def _unit_dot_surd(u, v) -> Surd:
    """Reference: the exact unit dot of two integer vectors through Surd."""
    nu = sum(x * x for x in u)
    nv = sum(x * x for x in v)
    return Surd(sum(x * y for x, y in zip(u, v))) / Surd.sqrt_of(nu * nv)


def _vector_sets(max_entry: int):
    def sets(dim):
        vec = st.tuples(*[st.integers(-max_entry, max_entry)] * dim)
        return st.tuples(st.lists(vec, min_size=1, max_size=6),
                         st.lists(vec, min_size=1, max_size=6))
    return st.integers(1, 6).flatmap(sets)


@settings(max_examples=200, deadline=None)
@given(_vector_sets(1000))
def test_raw_dots_matches_loop_small_entries(ab):
    a, b = ab
    table = raw_dots(a, b)
    assert table.dtype == np.int64
    assert table.tolist() == _dots_loop(a, b)


@settings(max_examples=200, deadline=None)
@given(_vector_sets(2**80))
def test_raw_dots_matches_loop_large_entries(ab):
    a, b = ab
    assert raw_dots(a, b).tolist() == _dots_loop(a, b)


def test_raw_dots_switches_to_python_ints_at_the_guard():
    # |a|^2 * |b|^2 = 2^62 exactly: the first product that leaves int64
    a, b = [(2**31, 0)], [(1, 0)]
    assert raw_dots(a, b).dtype == object
    assert raw_dots(a, b).tolist() == [[2**31]]
    assert raw_dots([(2**31 - 1, 0)], b).dtype == np.int64
    # a zero vector does not let huge entries into int64
    assert raw_dots([(0, 0)], [(2**70, 1)]).tolist() == [[0]]


def test_scaled_cube_takes_the_python_int_path():
    small = cube(3)
    big = LatticeCode("cube(3)*2^16", 3, small.norm_sq * 2**32,
                      tuple(tuple(x * 2**16 for x in p) for p in small.points))
    assert big.norm_sq >= 2**31
    assert raw_dots(big.points, big.points).dtype == object
    assert pair_values(big) == pair_values(small)
    assert index_set(big, 6).index_set == index_set(small, 6).index_set


def _e8_dual_of_2160() -> DualSearchResult:
    """The 240-point dual in the gcd-reduced form the search returns:
    norms 2 (from the +-2 pairs) and 8 (the sign vectors)."""
    pts = []
    for v in e8_roots().points:
        g = 2 if all(x % 2 == 0 for x in v) else 1
        w = tuple(x // g for x in v)
        pts.append(LatticePoint(w, sum(x * x for x in w)))
    return DualSearchResult("polytope_2_41", 5, "exact", tuple(pts), None,
                            False, True, ())


def test_spectrum_of_mixed_norm_dual_matches_surd_route():
    code = polytope_2_41()
    dual = _e8_dual_of_2160()
    assert {p.norm_sq for p in dual.points} == {2, 8}
    for p in dual.points[::24]:
        want = Counter(_unit_dot_surd(p.vector, q) for q in code.points)
        assert spectrum(p, code).entries == tuple(sorted(want.items()))


def test_double_dual_of_mixed_norm_dual_matches_surd_route():
    # norms 2 and 8 share the square-free part 2, so as_code finds one norm
    code = polytope_2_41()
    dual_code = _e8_dual_of_2160().as_code()
    table = raw_dots(code.points, dual_code.points)
    for v, row in list(zip(code.points, table))[::40]:
        want = {_unit_dot_surd(v, p) for p in dual_code.points}
        assert len(set(row.tolist())) == len(want)
    assert _at_most_m_distinct(table, 5, 0)
    assert not _at_most_m_distinct(table, 4, 0)
    # the float evidence reaches the same verdicts on the unit table
    units = code.unit_array() @ dual_code.unit_array().T
    assert _at_most_m_distinct(units, 5, 1e-8)
    assert not _at_most_m_distinct(units, 4, 1e-8)
