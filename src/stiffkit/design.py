"""Design strength certification through Gegenbauer pair sums.

A configuration is an n-design exactly when the double sum of P_k over all
ordered point pairs vanishes for k = 1..n.  Both arithmetics take the Gram
table the same way, by _gram_parts: in row blocks of its upper triangle,
each part laid out contiguously in one buffer of BLOCK_BYTES reused (so
no N x N table is ever held) and filled by codes.products in
single-threaded BLAS tiles.  For integer codes the points are converted
once by codes.int_arrays (float64 holding exact integers under its guard,
Python integers past it); each part is sorted in place, its runs of equal
values counted into one multiset of integer dot values, and each P_k is
evaluated once per distinct value in exact rational arithmetic.  For float
codes each part is clipped to [-1, 1] and every P_k summed over it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .codes import (Code, FloatCode, LatticeCode, LatticePoint, int_arrays, products,
                    raw_dots, unit_surd)
from .config import block_rows
from .exact import Scalar, Surd, scalar_str
from .gegenbauer import gegenbauer_poly

FLOAT_DESIGN_TOL = 1e-10  # relative to N^2, for float codes


@dataclass(frozen=True)
class SpectrumReport:
    """Multiset of dot products between one probe point and a code."""

    probe: str
    code_name: str
    exact: bool
    entries: tuple[tuple[Union[Scalar, float], int], ...]  # (value, multiplicity), ascending

    @property
    def distinct_count(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def values(self) -> tuple:
        return tuple(v for v, _ in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "probe": self.probe,
            "code": self.code_name,
            "exact": self.exact,
            "entries": [
                {"value": scalar_str(v) if self.exact else float(v), "count": m}
                for v, m in self.entries
            ],
        }


@dataclass(frozen=True)
class DesignReport:
    """Index set and design strength of a code, checked up to a degree bound."""

    code_name: str
    checked_up_to: int
    index_set: frozenset[int]
    strength: int
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "code": self.code_name,
            "checked_up_to": self.checked_up_to,
            "index_set": sorted(self.index_set),
            "strength": self.strength,
            "exact": self.exact,
        }


def _gram_parts(pts: np.ndarray):
    """The Gram table pts @ pts.T in row blocks of its upper triangle, as
    (part, weight) pairs whose weighted entries cover every ordered pair once.

    Block [s, s + step) is multiplied only against points s:.  Its square
    part holds each ordered pair inside the block once (weight 1), and each
    entry to the right of it stands for the two ordered pairs (i, j) and
    (j, i) (weight 2); an empty part is skipped.  Each part is a contiguous
    view of one buffer of at most BLOCK_BYTES, the square part first and
    the part to its right after it, reused by every block, so a part may be
    sorted in place and is valid until the next one is drawn.
    """
    n = len(pts)
    step = block_rows(n)
    buf = np.empty(min(step, n) * n, dtype=pts.dtype)
    for s in range(0, n, step):
        width = min(step, n - s)
        rows = pts[s:s + width]
        yield products(rows, rows, buf[:width * width].reshape(width, width)), 1
        if width < n - s:
            right = buf[width * width:width * (n - s)].reshape(width, n - s - width)
            yield products(rows, pts[s + width:], right), 2


@lru_cache(maxsize=64)
def _gram_multiset(code: LatticeCode) -> tuple[tuple[int, int], ...]:
    """Multiset of integer dot products over all ordered pairs, diagonal
    included, as ascending (dot, count) pairs; the unit dot is dot/norm_sq.

    Each part of the integer Gram table from _gram_parts, contiguous, is
    sorted in place through a flat view and its runs of equal values
    counted, so no copy of the part is made; the weighted run lengths are
    merged into one count per integer dot.  A float64 part's entries are
    integers below 2^53, which int() takes exactly.
    """
    counts: Counter[int] = Counter()
    for part, weight in _gram_parts(int_arrays(code.points, code.points)[0]):
        flat = part.reshape(-1)
        flat.sort()
        starts = np.append(0, np.flatnonzero(flat[1:] != flat[:-1]) + 1)
        runs = np.diff(starts, append=len(flat))
        for v, c in zip(flat[starts].tolist(), runs.tolist()):
            counts[int(v)] += weight * c
    return tuple((v, counts[v]) for v in sorted(counts))


def pair_values(code: LatticeCode) -> tuple[tuple[Fraction, int], ...]:
    """Distinct unit dot values with multiplicities, over ordered pairs."""
    return tuple((Fraction(v, code.norm_sq), c) for v, c in _gram_multiset(code))


def _pair_sums(code: Code, degrees: Sequence[int]) -> list[Union[Fraction, float]]:
    """pair_sum for each degree; an exact code looks its multiset up once
    and sums in integers, one Fraction per degree, a float code clips each
    Gram part once for all."""
    d = code.sphere_dim
    polys = [gegenbauer_poly(d, n) for n in degrees]
    if isinstance(code, LatticeCode):
        # each unit dot is v/q with the integer dot v and q = norm_sq, so
        # sum c P(v/q) = sum c P.homogeneous(v, q) / (P.den q^n), in integers
        q = code.norm_sq
        gram = _gram_multiset(code)
        return [Fraction(sum(c * p.homogeneous(v, q) for v, c in gram), p.den * q**p.degree)
                for p in polys]
    sums = [0.0] * len(polys)
    for part, weight in _gram_parts(code.unit_array()):
        np.clip(part, -1.0, 1.0, out=part)
        for k, p in enumerate(polys):
            sums[k] += weight * float(np.sum(p.eval_float(part)))
    return sums


def pair_sum(code: Code, n: int) -> Union[Fraction, float]:
    """Sum of P_n(x_i . x_j) over all ordered pairs (i, j)."""
    return _pair_sums(code, [n])[0]


def index_set(code: Code, n_max: int) -> DesignReport:
    """Degrees n <= n_max whose Gegenbauer pair sum vanishes."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exact = isinstance(code, LatticeCode)
    degrees = range(1, n_max + 1)
    bound = 0 if exact else FLOAT_DESIGN_TOL * code.size**2
    idx = {n for n, s in zip(degrees, _pair_sums(code, degrees)) if abs(s) <= bound}
    strength = 0
    while strength + 1 in idx:
        strength += 1
    return DesignReport(code.name, n_max, frozenset(idx), strength, exact)


def spectra(dots: np.ndarray, norms: Optional[tuple[int, int]] = None,
            tol: float = 1e-9, surds: Optional[dict] = None) -> list[tuple]:
    """Per row of a dot table: its (value, multiplicity) entries, ascending.

    A table of raw integer dots (int64, float64 holding integers, as
    codes.dot_blocks gives them, or Python integers), with norms the
    squared norms of its two sides, gives exact Surds: the integer times
    the unit_surd of 1, whose radicand is square-free, built once per
    distinct integer and shared by the rows that hold it.  surds maps each
    integer to its Surd; pass one dict to the blocks of one table and a
    value is one object across them.  A float table of unit dots merges
    each value into the group whose first value it exceeds by at most tol;
    the group reports its mean.
    """
    if norms is not None:
        unit = unit_surd(1, *norms)
        surds = {} if surds is None else surds

        def surd(v: int) -> Surd:
            s = surds.get(v)
            if s is None:
                s = surds[v] = Surd(unit.coeff * v, unit.radicand)
            return s

        rows = (np.unique(row, return_counts=True) for row in dots)
        return [tuple((surd(int(v)), c) for v, c in zip(vals.tolist(), cnt.tolist()))
                for vals, cnt in rows]
    if not tol >= 0:
        raise ValueError(f"merge tolerance must be >= 0, got {tol}")
    out = []
    for row in np.sort(dots, axis=1):
        # row[j] - row[i] <= tol (in floats; row[i] + tol rounds differently)
        # gives row[j] <= row[i] + 2 tol, as rounding is monotone and 2 tol
        # exact: the group of row[i] ends by ends[i]
        ends = np.searchsorted(row, row + 2 * tol, side="right")
        entries = []
        i = 0
        while i < len(row):
            j = i + 1
            if ends[i] > j:  # another value within 2 tol
                j = i + int(np.searchsorted(row[i:ends[i]] - row[i], tol, side="right"))
            entries.append((float(np.mean(row[i:j])) if j > i + 1 else float(row[i]), j - i))
            i = j
        out.append(tuple(entries))
    return out


def spectrum(probe: Union[LatticePoint, Sequence[float], np.ndarray],
             code: Code,
             tol: float = 1e-9) -> SpectrumReport:
    """Dot products of one unit probe point against every code point.

    Exact when both the probe and the code are integer models; dot values
    are then rationals or surds.  Otherwise float values are merged as in
    spectra.
    """
    if isinstance(probe, LatticePoint) and isinstance(code, LatticeCode):
        if probe.ambient_dim != code.ambient_dim:
            raise ValueError("probe dimension does not match the code")
        dots = raw_dots([probe.vector], code.points)
        return SpectrumReport(str(probe.vector), code.name, True,
                              spectra(dots, (probe.norm_sq, code.norm_sq))[0])
    vec = probe.unit() if isinstance(probe, LatticePoint) else np.asarray(probe, dtype=float)
    vec = vec / np.linalg.norm(vec)
    return SpectrumReport(np.array2string(vec, precision=6), code.name, False,
                          spectra((code.unit_array() @ vec)[None], tol=tol)[0])
