"""Exact linear algebra helpers: the incremental rank tracker."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit._linalg import GreedyRank
from stiffkit.codes import demicube, polytope_2_41
from stiffkit.stiffness import _independent_rows


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
    ncols, rows = case
    tracker, reference = GreedyRank(ncols), _FractionRank()
    assert ([tracker.try_add(r) for r in rows]
            == [reference.try_add(r) for r in rows])
    assert tracker.rank == len(reference.rows) <= ncols


def test_independent_rows_of_named_codes():
    for code in (demicube(8), polytope_2_41()):
        chosen = _independent_rows(code)
        reference = _FractionRank()
        order = sorted(range(code.size), key=lambda i: code.points[i])
        expected = []
        for i in order:
            if reference.try_add(code.points[i]):
                expected.append(i)
                if len(expected) == code.ambient_dim:
                    break
        assert chosen == expected and len(chosen) == code.ambient_dim
