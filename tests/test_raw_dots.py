"""The integer dot-table primitive, pinned to the per-pair Python loop and
the Surd arithmetic it replaced."""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit import codes, config, stiffness
from stiffkit.codes import (
    GEMM_MACS,
    LatticeCode,
    LatticePoint,
    cube,
    dot_blocks,
    e8_roots,
    gcd_reduce,
    int_arrays,
    polytope_2_41,
    raw_dots,
)
from stiffkit.design import _gram_multiset, index_set, pair_values, spectrum
from stiffkit.exact import Surd
from stiffkit.stiffness import _at_most_m_distinct, certify_stiff, dual_search
from stiffkit.suite import NODES_2160


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
    # |a|^2 * |b|^2 = 2^106 exactly: the first product a float64 table
    # may not hold exactly
    a, b = [(2**53, 0)], [(1, 0)]
    assert raw_dots(a, b).dtype == object
    assert raw_dots(a, b).tolist() == [[2**53]]
    assert raw_dots([(2**53 - 1, 0)], b).dtype == np.int64
    assert raw_dots([(2**53 - 1, 0)], b).tolist() == [[2**53 - 1]]
    # a zero vector does not let huge entries into the float path
    assert raw_dots([(0, 0)], [(2**70, 1)]).tolist() == [[0]]


def _near_2_26():
    """Vectors of 1..3 entries within 64 of +-2^26, so |x| |y| comes close
    to 2^53 and the guard |x|^2 |y|^2 < 2^106 falls either way."""
    entry = st.integers(2**26 - 64, 2**26 + 64).flatmap(
        lambda v: st.sampled_from((v, -v)))
    def sets(dim):
        vec = st.tuples(*[entry] * dim)
        return st.tuples(st.lists(vec, min_size=1, max_size=5),
                         st.lists(vec, min_size=1, max_size=5))
    return st.integers(1, 3).flatmap(sets)


@settings(max_examples=300, deadline=None)
@given(_near_2_26())
def test_raw_dots_near_the_float_limit_matches_loop(ab):
    a, b = ab
    table = raw_dots(a, b)
    norm_a = max(sum(x * x for x in v) for v in a)
    norm_b = max(sum(x * x for x in v) for v in b)
    assert table.dtype == (np.int64 if norm_a * norm_b < 2**106 else object)
    assert table.tolist() == _dots_loop(a, b)


def test_scaled_cube_takes_the_python_int_path():
    small = cube(3)
    big = LatticeCode("cube(3)*2^27", 3, small.norm_sq * 2**54,
                      tuple(tuple(x * 2**27 for x in p) for p in small.points))
    assert big.norm_sq >= 2**53
    assert raw_dots(big.points, big.points).dtype == object
    assert pair_values(big) == pair_values(small)
    assert index_set(big, 6).index_set == index_set(small, 6).index_set


def test_scaled_cube_certificate_takes_object_blocks():
    # norm_sq 3 * 2^54: the walk's Gram rows come from object blocks of
    # dot_blocks, the dual x code blocks from float64 ones, and the
    # certificate is cube(3)'s
    small = cube(3)
    big = LatticeCode("cube(3)*2^27", 3, small.norm_sq * 2**54,
                      tuple(tuple(x * 2**27 for x in p) for p in small.points))
    seen = set()

    def logged(x, y):
        for s, block in dot_blocks(x, y):
            seen.add(block.dtype)
            yield s, block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "dot_blocks", logged)
        mp.setattr(stiffness, "dot_blocks", logged)
        cert = certify_stiff(big, 2)
    assert seen == {np.dtype(object), np.dtype(float)}
    want = certify_stiff(small, 2)
    assert cert.dual.exact and cert.dual.count == 6 and cert.stiff
    assert cert.frequencies_match_weights and all(cert.properties.values())
    assert cert.dual.code.points == want.dual.code.points
    assert cert.frequency_table == want.frequency_table


@st.composite
def _exact_codes(draw):
    """A random subset of the signed permutations of one integer vector,
    times a scale on either side of the float guard."""
    dim = draw(st.integers(1, 5))
    base = draw(st.lists(st.integers(0, 9), min_size=dim, max_size=dim).filter(any))
    shell = sorted({tuple(s * base[i] for s, i in zip(signs, perm))
                    for perm in permutations(range(dim))
                    for signs in product((1, -1), repeat=dim)})
    pts = draw(st.lists(st.sampled_from(shell), min_size=1, unique=True))
    scale = draw(st.sampled_from((1, 7, 2**20, 2**24 + 1, 2**26, 2**30)))
    pts = tuple(tuple(scale * x for x in p) for p in pts)
    return LatticeCode("shell", dim, sum(x * x for x in pts[0]), pts)


@settings(max_examples=200, deadline=None)
@given(_exact_codes(), st.integers(1, 9))
def test_pair_values_match_counter_of_object_table(code, rows):
    pts = np.array(code.points, dtype=object)
    want = Counter((pts @ pts.T).ravel().tolist())
    with pytest.MonkeyPatch.context() as mp:  # blocks of 1..9 rows
        mp.setattr(config, "BLOCK_BYTES", 8 * code.size * rows)
        got = _gram_multiset.__wrapped__(code)
    assert got == tuple((v, want[v]) for v in sorted(want))


@settings(max_examples=100, deadline=None)
@given(_exact_codes(), st.integers(0, 9))
def test_dot_blocks_tile_the_table(code, rows):
    # blocks of 1..9 rows (0: a block smaller than one row still takes a
    # row), a ragged last block, float64 under the float guard and Python
    # integers past it; each block is copied, as the next one reuses it.
    # Python compares a float with an int exactly, so the float64 entries
    # must be the loop's integers themselves
    a, b = code.points, code.points[::-1]
    x, y = int_arrays(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "BLOCK_BYTES", 8 * len(b) * rows)
        got = [(s, block.copy()) for s, block in dot_blocks(x, y)]
    step = max(rows, 1)
    assert [s for s, _ in got] == list(range(0, len(a), step))
    assert [len(block) for _, block in got] == [min(step, len(a) - s) for s, _ in got]
    guarded = code.norm_sq**2 < 2**106
    assert {block.dtype for _, block in got} == {np.dtype(float if guarded else object)}
    assert np.vstack([block for _, block in got]).tolist() == _dots_loop(a, b)


def test_float_dot_blocks_are_the_rows_of_one_product(monkeypatch):
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(23, 8)), rng.normal(size=(11, 8))
    monkeypatch.setattr(config, "BLOCK_BYTES", 8 * 11 * 5)
    got = [(s, block.copy()) for s, block in dot_blocks(x, y)]
    assert [s for s, _ in got] == [0, 5, 10, 15, 20]
    assert np.array_equal(np.vstack([block for _, block in got]), x @ y.T)


def test_every_blas_call_is_single_threaded_size(monkeypatch):
    """Each float np.matmul of the exact primitive takes at most 2^18
    multiply-adds, the size OpenBLAS runs on the calling thread."""
    sizes = []
    matmul = np.matmul

    def spy(x, y, *args, **kwargs):
        if x.dtype == float:
            sizes.append(x.shape[0] * y.shape[1] * x.shape[1])
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    code = polytope_2_41()
    _gram_multiset.__wrapped__(code)
    raw_dots(code.points, e8_roots().points)
    raw_dots([code.points[0]], code.points)
    raw_dots(code.points, [code.points[0]])
    spectrum(LatticePoint(code.points[0], code.norm_sq), code)
    assert len(sizes) > 100
    assert max(sizes) <= GEMM_MACS == 2**18


def _e8_dual_of_2160() -> list[LatticePoint]:
    """The 240-point dual as the primitive directions the search lists:
    norms 2 (from the +-2 pairs) and 8 (the sign vectors)."""
    pts = []
    for v in e8_roots().points:
        w = gcd_reduce(v)
        pts.append(LatticePoint(w, sum(x * x for x in w)))
    return pts


def test_spectrum_of_mixed_norm_dual_matches_surd_route():
    code = polytope_2_41()
    dual = _e8_dual_of_2160()
    assert {p.norm_sq for p in dual} == {2, 8}
    for p in dual[::24]:
        want = Counter(_unit_dot_surd(p.vector, q) for q in code.points)
        assert spectrum(p, code).entries == tuple(sorted(want.items()))


def test_double_dual_of_mixed_norm_dual_matches_surd_route():
    # the search's dual has primitive norms 2 and 8, and its code one norm
    code = polytope_2_41()
    dual_code = dual_search(code, 5, NODES_2160).code
    assert {sum(x * x for x in gcd_reduce(v)) for v in dual_code.points} == {2, 8}
    assert dual_code.norm_sq == 8
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
