"""Design strength and spectra, cross-checked against a naive pair loop."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stiffkit.codes import (
    FloatCode,
    LatticeCode,
    LatticePoint,
    cross_polytope,
    cube,
    demicube,
    e8_roots,
    ngon,
    polytope_2_41,
    raw_dots,
)
from stiffkit import config, design
from stiffkit.config import BLOCK_BYTES
from stiffkit.design import (
    FLOAT_DESIGN_TOL,
    _gram_multiset,
    _pair_sums,
    index_set,
    pair_sum,
    pair_values,
    spectra,
    spectrum,
)
from stiffkit.exact import Surd
from stiffkit.gegenbauer import Polynomial, a0, gegenbauer_poly
from stiffkit.transforms import glue, rotated_cubes, symmetrize


def _pair_sum_naive(code: LatticeCode, n: int) -> Fraction:
    """O(N^2) reference: evaluate P_n at every ordered pair separately."""
    p = gegenbauer_poly(code.sphere_dim, n)
    total = Fraction(0)
    for x in code.points:
        for y in code.points:
            dot = Fraction(sum(a * b for a, b in zip(x, y)), code.norm_sq)
            total += p(dot)
    return total


@pytest.mark.parametrize("code", [cross_polytope(3), cube(3), demicube(4), demicube(5)])
def test_pair_sum_matches_naive_loop(code):
    for n in range(1, 6):
        assert pair_sum(code, n) == _pair_sum_naive(code, n)


def test_pair_values_bookkeeping():
    c = cube(3)
    vals = pair_values(c)
    assert sum(m for _, m in vals) == c.size**2
    assert [t for t, _ in vals] == sorted(t for t, _ in vals)
    as_dict = dict(vals)
    assert as_dict[Fraction(1)] == 8  # diagonal
    assert as_dict[Fraction(-1)] == 8


def _full_table_multiset(code: LatticeCode) -> tuple[tuple[int, int], ...]:
    """Reference: np.unique over the whole N x N integer Gram table."""
    vals, counts = np.unique(raw_dots(code.points, code.points), return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


@st.composite
def _signed_permutation_codes(draw):
    """A subset of the signed permutations of one integer vector, times a
    scale that may push the squared norm past 2^53 (the Python-int path)."""
    dim = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim).filter(any))
    shell = sorted({tuple(s * base[i] for s, i in zip(signs, perm))
                    for perm in permutations(range(dim))
                    for signs in product((1, -1), repeat=dim)})
    keep = draw(st.lists(st.booleans(), min_size=len(shell), max_size=len(shell)))
    assume(any(keep))
    scale = draw(st.sampled_from((1, 3, 2**16, 2**40)))
    pts = tuple(tuple(scale * x for x in p) for p, k in zip(shell, keep) if k)
    return LatticeCode("shell", dim, sum(x * x for x in pts[0]), pts)


@settings(max_examples=200, deadline=None)
@given(_signed_permutation_codes(), st.integers(1, 9))
def test_block_multiset_matches_full_table(code, rows):
    # blocks of 1..9 rows: most sizes are no multiple of the block, and the
    # object path (norm_sq >= 2^53) runs through the same loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "BLOCK_BYTES", 8 * code.size * rows)
        assert _gram_multiset.__wrapped__(code) == _full_table_multiset(code)


@pytest.mark.parametrize("code", [
    cross_polytope(4), cube(5), demicube(6), e8_roots(), polytope_2_41(),
], ids=lambda c: c.name)
def test_shipped_multisets_match_full_table(code):
    want = _full_table_multiset(code)
    assert pair_values(code) == tuple((Fraction(v, code.norm_sq), c) for v, c in want)


def test_multiset_holds_no_full_table():
    # demicube(12): the whole 2048 x 2048 table alone is 32 MiB
    code = demicube(12)
    tracemalloc.start()
    try:
        _gram_multiset.__wrapped__(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_multiset_holds_one_block():
    # the 2160-point code's Gram parts are sorted and counted in place in
    # their one buffer, with no flattened copy of a part beside it
    code = polytope_2_41()
    tracemalloc.start()
    try:
        got = _gram_multiset.__wrapped__(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _gram_multiset(code)
    assert peak < 1.5 * BLOCK_BYTES


def test_strengths_of_standard_codes():
    assert index_set(cross_polytope(4), 5).strength == 3
    assert index_set(cube(3), 5).strength == 3
    assert index_set(demicube(3), 4).strength == 2
    for d in range(4, 9):
        assert index_set(demicube(d), 4).strength == 3
    assert index_set(e8_roots(), 8).strength == 7


def test_2_41_index_set():
    rep = index_set(polytope_2_41(), 10)
    assert sorted(rep.index_set) == [1, 2, 3, 4, 5, 6, 7, 9, 10]
    assert rep.strength == 7  # a 7-design, not an 8-design
    assert rep.exact
    assert pair_sum(polytope_2_41(), 8) == Fraction(388800, 143)


def _gegenbauer_at(d: int, n_max: int, t: Fraction) -> list[Fraction]:
    """Reference: P_0(t)..P_n_max(t) from the three-term recurrence run at
    the point t in Fractions, no polynomial built."""
    vals = [Fraction(1), t]
    for n in range(2, n_max + 1):
        vals.append(((2 * n + d - 3) * t * vals[-1] - (n - 1) * vals[-2]) / (n + d - 2))
    return vals[:n_max + 1]


_EXACT_CODES = ([cross_polytope(d) for d in range(2, 11)] + [cube(d) for d in range(2, 11)]
                + [demicube(d) for d in range(3, 12)] + [e8_roots(), polytope_2_41()])


@pytest.mark.parametrize("code", _EXACT_CODES, ids=lambda c: c.name)
def test_integer_pair_sums_match_fraction_reference(code):
    # the integer Horner sums against P_n evaluated in Fractions per
    # distinct dot, and the index set's JSON byte for byte
    n_max, d = 10, code.sphere_dim
    want = [Fraction(0)] * n_max
    for t, c in pair_values(code):
        for n, v in enumerate(_gegenbauer_at(d, n_max, t)[1:]):
            want[n] += c * v
    assert _pair_sums(code, range(1, n_max + 1)) == want
    zeros = [n for n, s in enumerate(want, 1) if s == 0]
    strength = next(n for n in range(n_max + 1) if n + 1 not in zeros)
    assert json.dumps(index_set(code, n_max).to_json_dict()) == json.dumps(
        {"code": code.name, "checked_up_to": n_max, "index_set": zeros,
         "strength": strength, "exact": True})


@pytest.mark.parametrize("make", [
    lambda: ngon(8),
    lambda: glue(cross_polytope(3), cross_polytope(3), 2, seed=0)[0],
], ids=["ngon8", "glue_x3_x3"])
def test_float_pair_sums_match_one_table_per_degree(make):
    code = make()
    degrees = range(1, 10)
    pts = code.unit_array()
    want = []
    for n in degrees:
        gram = np.clip(pts @ pts.T, -1.0, 1.0)
        want.append(float(np.sum(gegenbauer_poly(code.sphere_dim, n).eval_float(gram))))
    assert _pair_sums(code, degrees) == want
    assert [pair_sum(code, n) for n in degrees] == want
    bound = FLOAT_DESIGN_TOL * code.size**2
    assert index_set(code, 9).index_set == {n for n, s in zip(degrees, want)
                                            if abs(s) <= bound}


def _full_table_pair_sums(code, degrees) -> list[float]:
    """Reference: the whole clipped N x N float Gram table, one P_n per degree."""
    pts = code.unit_array()
    gram = np.clip(pts @ pts.T, -1.0, 1.0)
    return [float(np.sum(gegenbauer_poly(code.sphere_dim, n).eval_float(gram)))
            for n in degrees]


def _assert_matches_full_table(code, n_max: int) -> None:
    degrees = range(1, n_max + 1)
    want = _full_table_pair_sums(code, degrees)
    got = _pair_sums(code, degrees)
    assert np.all(np.abs(np.array(got) - want) <= 1e-12 * code.size**2)
    bound = FLOAT_DESIGN_TOL * code.size**2
    assert index_set(code, n_max).index_set == {n for n, s in zip(degrees, want)
                                                if abs(s) <= bound}


_SHIPPED_FLOAT = (
    [(f"ngon({n})", lambda n=n: ngon(n)) for n in range(2, 41)]
    + [(f"rotated_cubes({k})", lambda k=k: rotated_cubes(k)[0]) for k in range(1, 7)]
    + [("glue_x3_x3", lambda: glue(cross_polytope(3), cross_polytope(3), 2, seed=0)[0])]
    + [(f"sym(ngon({n}))", lambda n=n: symmetrize(ngon(n))) for n in range(3, 41, 2)]
)


@pytest.mark.parametrize("make", [m for _, m in _SHIPPED_FLOAT],
                         ids=[name for name, _ in _SHIPPED_FLOAT])
def test_float_pair_sums_match_full_table_on_shipped_codes(make):
    _assert_matches_full_table(make(), 12)


def test_float_pair_sums_match_full_table_on_2_41():
    # 2160 points: 9 row blocks of 60 rows under the default BLOCK_BYTES
    big = polytope_2_41()
    code = FloatCode("2_41", 8, big.unit_array())
    _assert_matches_full_table(code, 10)
    assert index_set(code, 10).index_set == index_set(big, 10).index_set


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(2, 6), st.booleans(),
       st.sampled_from((1, 2, 3, 7, 80)), st.integers(0, 2**32 - 1))
def test_float_pair_sums_in_blocks_match_full_table(size, dim, antipodal, blocks, seed):
    # random unit codes, antipodal ones having every odd degree in their
    # index set, in one, two or many row blocks
    pts = np.random.default_rng(seed).normal(size=(size, dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    if antipodal:
        pts = np.vstack([pts, -pts])
    code = FloatCode("random", dim, pts)
    rows = -(-code.size // blocks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "BLOCK_BYTES", 8 * code.size * rows)
        parts = [(part.size, w) for part, w in design._gram_parts(pts)]
        assert len(parts) == 2 * (-(-code.size // rows)) - 1
        assert all(n > 0 for n, _ in parts)
        assert sum(n * w for n, w in parts) == code.size**2
        _assert_matches_full_table(code, 8)


def test_float_pair_sums_hold_no_full_table():
    # the 5002 x 5002 float table alone is 191 MiB
    code = symmetrize(ngon(2501))
    tracemalloc.start()
    try:
        rep = index_set(code, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(rep.index_set) == [1, 2, 3, 4]
    assert peak <= 8 * 2**20


def test_float_design_check_ngon():
    for n in (4, 5, 6, 8):
        rep = index_set(ngon(n), n + 1)
        assert not rep.exact
        assert rep.strength == n - 1


def test_spectrum_exact():
    rep = spectrum(LatticePoint((1, 0, 0), 1), cube(3))
    assert rep.exact and rep.distinct_count == 2
    a = Surd.sqrt_of(Fraction(1, 3))
    assert rep.entries == ((-a, 4), (a, 4))
    assert rep.total == 8
    # E8 root against the 2_41 polytope: the five dots of the dual relation
    rep = spectrum(LatticePoint((2, 2, 0, 0, 0, 0, 0, 0), 8), polytope_2_41())
    b = Surd.sqrt_of(Fraction(1, 8))
    c = Surd.sqrt_of(Fraction(1, 2))
    assert rep.values() == (-c, -b, Surd(0), b, c)
    assert rep.distinct_count == 5


def test_spectrum_float_merging():
    rep = spectrum(np.array([0.0, 1.0]), ngon(4))
    assert not rep.exact
    assert rep.distinct_count == 3
    assert rep.total == 4
    counts = dict((round(v, 9), m) for v, m in rep.entries)
    assert counts == {-1.0: 1, 0.0: 2, 1.0: 1}


def _merge_reference(dots: np.ndarray, tol: float) -> tuple:
    """Reference float merge: grow each group while dots[j] - dots[i] <= tol
    for its first sorted value dots[i]; report the group mean."""
    dots = np.sort(dots)
    entries = []
    i = 0
    while i < len(dots):
        j = i
        while j + 1 < len(dots) and dots[j + 1] - dots[i] <= tol:
            j += 1
        entries.append((float(np.mean(dots[i:j + 1])), j - i + 1))
        i = j + 1
    return tuple(entries)


def test_spectra_float_merge_is_anchored_at_the_group_start():
    # 1.2e-9 is within tol of 0.6e-9 but not of the group's first value 0
    (row,) = spectra(np.array([[1.2e-9, 0.0, 0.6e-9]]), tol=1e-9)
    assert row == ((float(np.mean([0.0, 0.6e-9])), 2), (1.2e-9, 1))
    # exactly tol above the first value joins the group
    (row,) = spectra(np.array([[1e-9, 0.0]]), tol=1e-9)
    assert row == ((0.5e-9, 2),)
    # b - a > tol although b <= a + tol in floats: the difference decides
    a, b = 0.2739233746429086, 0.27392337564290864
    assert b - a > 1e-9 and b <= a + 1e-9
    (row,) = spectra(np.array([[a, b]]), tol=1e-9)
    assert row == ((a, 1), (b, 1))
    for tol in (-1e-9, float("nan")):
        with pytest.raises(ValueError):
            spectra(np.array([[0.0, 1.0]]), tol=tol)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1, 1), st.floats(0, 4e-9)), min_size=1, max_size=30),
       st.sampled_from([0.0, 1e-9, 0.05, 0.3]))
def test_spectra_float_matches_reference_merge(values, tol):
    dots = np.array(values)
    assert spectra(dots[None], tol=tol)[0] == _merge_reference(dots, tol)
    assert spectra(np.vstack([dots, -dots]), tol=tol) == [
        _merge_reference(dots, tol), _merge_reference(-dots, tol)]


def test_spectrum_json():
    rep = spectrum(LatticePoint((1, 0, 0), 1), cross_polytope(3))
    d = rep.to_json_dict()
    assert d["exact"] and len(d["entries"]) == 3
    assert {e["value"] for e in d["entries"]} == {"-1", "0", "1"}


def test_a0_times_n_is_the_constant():
    # the constant value of a degree-<=strength potential equals a_0(q) * N
    q = Polynomial([Fraction(2), Fraction(1), Fraction(-1), Fraction(4)])
    code = demicube(6)
    d = code.sphere_dim
    y = np.array([1.0] + [0.0] * d)
    vals = q.eval_float(code.unit_array() @ y)
    assert abs(vals.sum() - float(a0(q, d)) * code.size) < 1e-10
