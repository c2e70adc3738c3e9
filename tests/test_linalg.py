"""Exact linear algebra helpers: the first independent vectors, adjugates,
integer nullspaces and the fraction-free orthogonal basis of a complement."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit import transforms
from stiffkit._linalg import adjugate_and_det, first_independent, integer_nullspace
from stiffkit.codes import (LatticeCode, common_norm, cross_polytope, cube, demicube,
                            e8_roots, gcd_reduce, polytope_2_41, raw_dots)
from stiffkit.stiffness import _independent_rows
from stiffkit.transforms import _orthogonal_integer_basis


class _FractionRank:
    """The rank tracker as it was written over Fraction rows."""

    def __init__(self) -> None:
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def try_add(self, vec) -> bool:
        row = [Fraction(x) for x in vec]
        for prow, pcol in zip(self.rows, self.pivots):
            if row[pcol]:
                f = row[pcol] / prow[pcol]
                row = [a - f * b for a, b in zip(row, prow)]
        pcol = next((i for i, x in enumerate(row) if x), None)
        if pcol is None:
            return False
        self.rows.append(row)
        self.pivots.append(pcol)
        return True


def _bareiss_det(mat) -> int:
    """Determinant by fraction-free elimination, as it was written."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _cofactor_adjugate_and_det(mat):
    """The adjugate as it was written: one cofactor determinant per entry."""
    n = len(mat)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            adj[i][j] = (-1) ** (i + j) * _bareiss_det(minor)
    return adj, _bareiss_det(mat)


def _integer_direction(vec):
    """The primitive integer vector along a rational vector: clear the
    denominators with their lcm, then divide out the gcd."""
    den = lcm(*(x.denominator for x in vec))
    return gcd_reduce(tuple(int(x * den) for x in vec))


def _fraction_nullspace(rows):
    """The nullspace as it was written: Gauss-Jordan over Fraction rows."""
    ncols = len(rows[0])
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = [x / work[rank][col] for x in work[rank]]
        work[rank] = prow
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], prow)]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pc in zip(work, pivots):
            vec[pc] = -prow[fc]
        out = _integer_direction(vec)
        if next(x for x in out if x) < 0:
            out = tuple(-x for x in out)
        basis.append(out)
    return basis


@st.composite
def _square_matrices(draw):
    """Square integer matrices, entries small (singular ones are common) or
    up to 2^70."""
    n = draw(st.integers(1, 6))
    bound = draw(st.sampled_from((2, 2**70)))
    entry = st.integers(-bound, bound)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def _rows_with_planted_dependencies(draw):
    """Integer rows, some drawn freely (entries up to 2^70, or small so
    that accidental dependencies happen), some integer combinations of
    rows drawn before them, some zero."""
    ncols = draw(st.integers(1, 6))
    big = draw(st.booleans())
    entry = st.integers(-(2**70), 2**70) if big else st.integers(-3, 3)
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("free", "combination", "zero")))
        if kind == "combination" and rows:
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = draw(st.lists(st.integers(-(2**20), 2**20),
                                   min_size=len(picks), max_size=len(picks)))
            rows.append(tuple(sum(c * p[k] for c, p in zip(coeffs, picks))
                              for k in range(ncols)))
        elif kind == "zero":
            rows.append((0,) * ncols)
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=ncols, max_size=ncols))))
    return ncols, rows


@settings(max_examples=200, deadline=None)
@given(_rows_with_planted_dependencies())
def test_greedy_rank_matches_fraction_tracker(case):
    # first_independent keeps exactly the rows the one-at-a-time Fraction
    # tracker accepts
    ncols, rows = case
    reference = _FractionRank()
    assert first_independent(rows) == [i for i, r in enumerate(rows) if reference.try_add(r)]
    assert len(reference.rows) <= ncols


def _squared_residuals(code, basis) -> list[Fraction]:
    """Per code point v, the squared residual of v/|v| off span(basis):
    det Gram(basis + v) / det Gram(basis) of the unit vectors.  The
    bordered Gram determinant is det(G) |v|^2 - g^T adj(G) g, with G the
    integer Gram matrix of the basis and g its dots with v."""
    if not basis:
        return [Fraction(1)] * code.size
    adj, det = adjugate_and_det(raw_dots(basis, basis).tolist())
    g = raw_dots(code.points, basis).astype(object)
    quad = ((g @ np.array(adj, dtype=object)) * g).sum(axis=1)
    return [Fraction(det * code.norm_sq - q, det * code.norm_sq) for q in quad]


@pytest.mark.parametrize("code", [demicube(8), polytope_2_41()], ids=lambda c: c.name)
def test_independent_rows_pick_a_least_exact_residual(code):
    chosen = _independent_rows(code, code.unit_array())
    assert len(chosen) == code.ambient_dim
    tracker = _FractionRank()
    assert all(tracker.try_add(code.points[i]) for i in chosen)
    for t, pick in enumerate(chosen):
        basis = [code.points[i] for i in chosen[:t]]
        residuals = _squared_residuals(code, basis)
        assert residuals[pick] == min(q for q in residuals if q)
        # the bordered formula against the determinants themselves
        rows = basis + [code.points[pick]]
        det_with = adjugate_and_det(raw_dots(rows, rows).tolist())[1]
        det_without = adjugate_and_det(raw_dots(basis, basis).tolist())[1] if basis else 1
        assert residuals[pick] == Fraction(det_with, det_without * code.norm_sq)


def _padded(code, k):
    """The code with k zero coordinates appended: same points, rank unchanged."""
    return LatticeCode(f"pad({code.name})", code.ambient_dim + k, code.norm_sq,
                       tuple(sorted(tuple(p) + (0,) * k for p in code.points)))


_RECTANGLE = LatticeCode("rect", 2, 1 + 10**34,
                         tuple(sorted((a, b * 10**17) for a in (1, -1) for b in (1, -1))))


# the rows _independent_rows picks, which the dual walk's frontier depends on;
# as unit vectors the rectangle's four points lie within 1e-17 of +-e_2, so
# its float rank is 1 and its second row comes from the exact pass over all
# points
_PICKED = {
    "demicube(5)": [0, 11, 4, 2, 8],
    "cube(3)": [0, 1, 2],
    "cross_polytope(6)": [0, 1, 2, 3, 4, 5],
    "e8_roots": [0, 14, 1, 7, 2, 12, 3, 4],
    "polytope_2_41": [0, 1, 32, 48, 69, 473, 481, 485],
    "demicube(12)": [0, 9, 1, 4, 5, 16, 22, 34, 282, 408, 209, 583],
    "rect": [0, 1],
}


@pytest.mark.parametrize("code", [demicube(5), cube(3), cross_polytope(6), e8_roots(),
                                  polytope_2_41(), demicube(12), _RECTANGLE],
                         ids=lambda c: c.name)
def test_independent_rows_keep_their_picks(code):
    assert _independent_rows(code, code.unit_array()) == _PICKED[code.name]


@pytest.mark.parametrize("code, k", [
    pytest.param(cube(3), 3, id="cube(3)"),
    pytest.param(e8_roots(), 1, id="e8_roots"),
    pytest.param(polytope_2_41(), 2, id="polytope_2_41"),
    pytest.param(demicube(12), 2, id="demicube(12)"),
])
def test_zero_padding_keeps_the_independent_rows(code, k):
    # the float picks run out at the code's rank, and the exact pass over
    # the other points adds none of them
    want = _independent_rows(code, code.unit_array())
    padded = _padded(code, k)
    assert _independent_rows(padded, padded.unit_array()) == want


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_adjugate_matches_cofactors(mat):
    adj, det = _cofactor_adjugate_and_det(mat)
    if det == 0:
        with pytest.raises(ValueError):
            adjugate_and_det(mat)
        return
    assert adjugate_and_det(mat) == (adj, det)
    n = len(mat)
    product = [[sum(adj[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(_rows_with_planted_dependencies())
def test_singular_matrix_raises(case):
    ncols, rows = case
    square = [list(r) for r in (rows * ncols)[:ncols - 1]]
    square.append([sum(r[k] for r in square) for k in range(ncols)])  # dependent
    with pytest.raises(ValueError):
        adjugate_and_det(square)


@settings(max_examples=200, deadline=None)
@given(_rows_with_planted_dependencies())
def test_integer_nullspace_matches_fraction_reduction(case):
    _, rows = case
    basis = integer_nullspace(rows)
    assert basis == _fraction_nullspace(rows)
    assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows for v in basis)


def _fraction_orthogonal_directions(x):
    """The complement basis as it was written: Gram-Schmidt over Fraction
    vectors, then the primitive integer direction of each."""
    basis: list[tuple[Fraction, ...]] = []
    for v in integer_nullspace([x]):
        w = [Fraction(c) for c in v]
        for b in basis:
            bb = sum(c * c for c in b)
            coef = sum(a * c for a, c in zip(w, b)) / bb
            if coef:
                w = [a - coef * c for a, c in zip(w, b)]
        basis.append(tuple(w))
    return [_integer_direction(b) for b in basis]


@st.composite
def _poles(draw):
    """Nonzero integer vectors: sparse with small entries (so equal-norm
    complements are common) or dense with entries up to 2^70."""
    n = draw(st.integers(2, 7))
    bound = draw(st.sampled_from((1, 3, 2**70)))
    x = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    if bound < 2**70:
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        x = [c if k else 0 for c, k in zip(x, keep)]
    if not any(x):
        x[draw(st.integers(0, n - 1))] = 1
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(_poles())
def test_orthogonal_basis_matches_fraction_gram_schmidt(x):
    want = _fraction_orthogonal_directions(x)
    with mock.patch.object(transforms, "common_norm", lambda vectors: list(vectors)):
        directions = _orthogonal_integer_basis(x)
    assert directions == want
    assert all(sum(a * b for a, b in zip(x, v)) == 0 for v in directions)
    assert all(sum(a * b for a, b in zip(u, v)) == 0
               for i, u in enumerate(directions) for v in directions[i + 1:])
    assert _orthogonal_integer_basis(x) == common_norm(want)
