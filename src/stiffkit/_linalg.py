"""Exact linear algebra over the integers and rationals.

Small dense systems only: the matrices here are at most
(ambient dimension) x (ambient dimension), so fraction-free elimination is
plenty fast and keeps every intermediate value exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .codes import gcd_reduce


class GreedyRank:
    """Incremental exact rank tracker for integer vectors.

    Rows are reduced fraction-free: eliminating the pivot column c of a
    stored row b from a row r takes b[c]*r - r[c]*b, then divides out the
    gcd.  Every row stays a nonzero rational multiple of its Fraction
    reduction, so the zero pattern, and with it every accept/reject, is
    the same.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self._rows: list[tuple[int, ...]] = []  # row-echelon basis
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def try_add(self, vec: tuple[int, ...]) -> bool:
        """Add vec if it enlarges the span; return whether it did."""
        row = tuple(int(x) for x in vec)
        for prow, pcol in zip(self._rows, self._pivots):
            f = row[pcol]
            if f:
                p = prow[pcol]
                row = gcd_reduce(tuple(p * a - f * b for a, b in zip(row, prow)))
        pcol = next((i for i, x in enumerate(row) if x), None)
        if pcol is None:
            return False
        self._rows.append(row)
        self._pivots.append(pcol)
        return True


def adjugate_and_det(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate matrix and determinant of a square integer matrix.

    adj(A) @ A = det(A) * I, all entries integers.  Computed by cofactor
    expansion through fraction-free Gaussian elimination on bordered
    systems; n is small so O(n^4) cofactors are fine.
    """
    n = len(mat)
    det = _int_det(mat)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            sign = -1 if (i + j) % 2 else 1
            adj[i][j] = sign * _int_det(minor)
    return adj, det


def _int_det(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination (exact)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
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


def integer_direction(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector along a rational vector: clear the
    denominators with their lcm, then divide out the gcd."""
    den = lcm(*(x.denominator for x in vec))
    return gcd_reduce(tuple(int(x * den) for x in vec))


def integer_nullspace(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Integer basis of the rational nullspace of the given integer rows."""
    ncols = len(rows[0])
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
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
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pc in zip(work[:rank], pivots):
            vec[pc] = -prow[fc]
        out = integer_direction(vec)
        if next(x for x in out if x) < 0:  # leading entry positive
            out = tuple(-x for x in out)
        basis.append(out)
    return basis
