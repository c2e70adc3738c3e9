"""Exact linear algebra over the integers.

Small dense systems only: every matrix here has at most the ambient
dimension in rows (a code's points enter as columns).  One fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) gives the rank,
the first independent vectors of a list, adjugates, determinants and
integer nullspaces, and every intermediate value stays an integer.
"""

from __future__ import annotations

from typing import Sequence

from .codes import gcd_reduce


def _gauss_jordan(rows: Sequence[Sequence[int]],
                  ) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows.

    Returns (reduced, pivots, D, sign): the nonzero reduced rows, their
    pivot columns, the last pivot D and the sign of the row swaps.  Each
    step takes row_i <- (p * row_i - row_i[c] * row_p) / prev for every
    other row i, where p is the new pivot and prev the one before it; the
    division is exact because every entry is a minor of the input.  Every
    reduced row then has D in its own pivot column and 0 in the others,
    so it is D times the reduced row-echelon row.
    """
    a = [[int(x) for x in row] for row in rows]
    pivots: list[int] = []
    prev, sign = 1, 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        prow, p = a[r], a[r][col]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(col)
        prev = p
    return a[:len(pivots)], pivots, prev, sign


def first_independent(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the first maximal independent subset of integer vectors.

    Vector i is kept when it is not in the span of the vectors before it:
    these are the pivot columns of one elimination of the vectors as
    columns, and their count is the rank.
    """
    return _gauss_jordan(list(zip(*vectors)))[1]


def adjugate_and_det(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate matrix and determinant of a nonsingular square integer matrix.

    adj(A) @ A = det(A) * I, all entries integers.  One elimination of
    [A | I] leaves [D * I | D * inv(A)]; det(A) = sign * D, so the right
    block times sign is adj(A).  A singular A raises ValueError.
    """
    n = len(mat)
    reduced, pivots, last, sign = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[sign * x for x in row[n:]] for row in reduced], sign * last


def integer_nullspace(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Integer basis of the rational nullspace of the given integer rows.

    Read off one fraction-free elimination: free column f gives x_f = D and
    x_p = -row_p[f] on each pivot column p, reduced to a primitive vector
    with a positive leading entry.
    """
    ncols = len(rows[0])
    reduced, pivots, last, _ = _gauss_jordan(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = last
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        out = gcd_reduce(tuple(vec))
        if next(x for x in out if x) < 0:  # leading entry positive
            out = tuple(-x for x in out)
        basis.append(out)
    return basis
