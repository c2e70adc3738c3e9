"""Dual enumeration, stiffness certificates, and the structural properties."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import wraps

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stiffkit import codes, config, design, gegenbauer, stiffness, suite
from stiffkit._linalg import integer_nullspace
from stiffkit.codes import (
    FloatCode,
    LatticeCode,
    close_pairs,
    common_norm,
    cross_polytope,
    cube,
    demicube,
    e8_roots,
    gcd_reduce,
    greedy_cluster,
    ngon,
    polytope_2_41,
    raw_dots,
)
from stiffkit.config import BLOCK_BYTES, ENV_SIZE_CAP, SizeCapExceeded
from stiffkit.design import spectra, spectrum
from stiffkit.exact import Surd, square_free_split
from stiffkit.stiffness import (
    _exact_dual,
    _exact_rhs,
    _gamma,
    _independent_rows,
    _meets_a_target,
    _walk,
    BRUTE_WIDTH_TOL,
    CIRCLE_WIDTH_TOL,
    NodesRequired,
    NotInGeneralPosition,
    brute_force_dual,
    certify_stiff,
    _max_cluster_widths,
    circle_dual_scan,
    classify_sharp,
    dual_search,
)
from stiffkit.suite import NODES_2160
from stiffkit.transforms import glue, rotated_cubes, symmetrize


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs its calls; return the log."""
    calls = []
    real = getattr(module, name)

    @wraps(real)
    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _rotated_flat_ngon(n: int) -> FloatCode:
    """The n-gon in the plane z = 0 of R^3, turned by a seeded rotation:
    its D_1 is the rotated pair ±e_3."""
    t = 2 * np.pi * np.arange(n) / n
    flat = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
    rot = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0]
    return FloatCode(f"rotated_flat_ngon({n})", 3, flat @ rot.T)


NODES_241 = (
    Surd.sqrt_of(Fraction(1, 2)),
    Surd.sqrt_of(Fraction(1, 8)),
    Surd(0),
    -Surd.sqrt_of(Fraction(1, 8)),
    -Surd.sqrt_of(Fraction(1, 2)),
)


def signed_basis(d: int) -> set:
    out = set()
    for i in range(d):
        e = [0] * d
        e[i] = 1
        out.add(tuple(e))
        e[i] = -1
        out.add(tuple(e))
    return out


class TestDualSearchExact:
    def test_demicube_duals_are_signed_bases(self):
        for d in (5, 6, 7):
            res = dual_search(demicube(d), 2)
            assert res.exact
            assert res.dual_complete
            assert res.count == 2 * d
            assert {p.vector for p in res.points} == signed_basis(d)

    def test_cross_polytope_dual_is_cube(self):
        res = dual_search(cross_polytope(3), 2)
        assert res.exact and res.dual_complete
        assert {p.vector for p in res.points} == {
            (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
        }

    def test_cube3_dual_is_cross_polytope(self):
        res = dual_search(cube(3), 2)
        assert res.as_code().same_point_set(cross_polytope(3))

    def test_241_m4_dual_empty(self):
        res = dual_search(polytope_2_41(), 4)
        assert res.dual_complete
        assert res.is_empty

    def test_241_m5_needs_nodes(self):
        with pytest.raises(NodesRequired):
            dual_search(polytope_2_41(), 5)

    def test_241_m5_with_nodes_gives_e8_roots(self):
        res = dual_search(polytope_2_41(), 5, nodes=NODES_241)
        assert res.exact
        assert not res.dual_complete  # complete only relative to supplied nodes
        assert res.nodes_supplied
        assert res.count == 240
        assert res.as_code().same_point_set(e8_roots())

    def test_demicube14_m3_with_nodes_is_the_signed_basis(self):
        # thousands of survivors are certified against the code in blocks
        s = Surd.sqrt_of(Fraction(1, 14))
        res = dual_search(demicube(14), 3, nodes=(-s, Surd(0), s))
        assert res.exact and {p.vector for p in res.points} == signed_basis(14)

    def test_supplied_node_count_capped_by_m(self):
        with pytest.raises(ValueError):
            dual_search(cube(3), 2, nodes=[Fraction(0), Fraction(1, 2), Fraction(-1, 2)])

    def test_repeated_nodes_walk_once(self):
        # demicube(5) meets its signed basis at -+1/sqrt(5); a node given
        # twice yields the same points, in exact and in float arithmetic
        s = Surd.sqrt_of(Fraction(1, 5))
        once = dual_search(demicube(5), 3, nodes=(-s, s))
        twice = dual_search(demicube(5), 3, nodes=(-s, s, s))
        assert twice.exact and twice.points == once.points and once.count == 10
        f = float(s)
        once = dual_search(demicube(5), 3, nodes=(-f, f))
        twice = dual_search(demicube(5), 3, nodes=(-f, f, f))
        assert twice.mode == "float" and once.count == 10
        assert np.array_equal(twice.points_float, once.points_float)

    def test_norm_with_a_large_square_free_part_is_not_factored(self, monkeypatch):
        # the rectangle (+-1, +-10^17) has norm 1 + 10^34, whose prime
        # factors above 101 lie beyond any trial divisor the cap admits
        monkeypatch.setenv(ENV_SIZE_CAP, "10000")
        rect = LatticeCode("rect", 2, 1 + 10**34,
                           tuple(sorted((a, b * 10**17) for a in (1, -1) for b in (1, -1))))
        res = dual_search(rect, 2, nodes=[Fraction(1, 2), Fraction(-1, 2)])
        assert (res.mode, res.count) == ("exact", 0)

    def test_mixed_extensions_search_in_float(self):
        # sqrt(2) and sqrt(3) cannot share one quadratic extension
        mixed = [Surd.sqrt_of(Fraction(1, 2)), -Surd.sqrt_of(Fraction(1, 3))]
        res = dual_search(cube(3), 2, nodes=mixed)
        assert res.mode == "float"
        assert res.count == 0


def _solve(rows, rhs):
    """x with rows @ x = rhs, by Gauss-Jordan over the rationals."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[-1] for row in aug]


def _reference_dual(code: LatticeCode, probe_sq: int, raws: list) -> set:
    """Directions of the unit points x whose dots with the code all lie at
    the nodes r / sqrt(norm_sq * probe_sq), r in raws: every assignment
    of raws to d independent code points, none pruned.

    With u = x * sqrt(probe_sq), each chosen row a has a . u = r, and x is
    a unit point when |u|^2 = probe_sq.
    """
    rows: list = []
    for p in code.points:
        if np.linalg.matrix_rank(np.array(rows + [p], dtype=float)) > len(rows):
            rows.append(p)
    out = set()
    for assign in itertools.product(raws, repeat=len(rows)):
        u = _solve(rows, assign)
        if sum(x * x for x in u) != probe_sq:
            continue
        if not all(sum(a * b for a, b in zip(p, u)) in raws for p in code.points):
            continue
        den = math.lcm(*(x.denominator for x in u))
        ints = [int(x * den) for x in u]
        g = math.gcd(*ints)
        out.add(tuple(x // g for x in ints))
    return out


@st.composite
def _code_and_nodes(draw):
    """A spanning integer code with coordinates in [-2, 2], and the node set
    of an integer probe: the distinct unit dots of the probe with the code,
    sometimes with one more value, so the probe's direction is in the dual."""
    d = draw(st.integers(2, 4))
    norm_sq = draw(st.sampled_from([1, 2, 3, 5]))
    pool = [v for v in itertools.product(range(-2, 3), repeat=d)
            if sum(x * x for x in v) == norm_sq]
    assume(len(pool) >= d)
    pts = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=7, unique=True))
    assume(np.linalg.matrix_rank(np.array(pts, dtype=float)) == d)
    probe = draw(st.tuples(*[st.integers(-1, 1)] * d))
    assume(any(probe))
    raws = sorted({sum(a * b for a, b in zip(p, probe)) for p in pts})
    extra = draw(st.integers(-2, 2))
    if draw(st.booleans()) and extra not in raws:
        raws.append(extra)
    assume(len(raws) <= 4)
    return LatticeCode("drawn", d, norm_sq, tuple(pts)), sum(x * x for x in probe), raws


class TestWalkAgainstFullEnumeration:
    """The pruned walk returns what the unpruned enumeration of every node
    assignment returns, in exact and in float arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(_code_and_nodes())
    def test_exact_and_float_nodes(self, drawn):
        code, probe_sq, raws = drawn
        ns = code.norm_sq * probe_sq
        want = _reference_dual(code, probe_sq, raws)
        assert want  # the probe's own direction

        nodes = [Surd(Fraction(r, ns), ns) for r in raws]
        exact = dual_search(code, len(nodes), nodes=nodes)
        assert exact.mode == "exact"
        assert {p.vector for p in exact.points} == want
        # one square-free norm part, so the points scale to one common norm
        assert len({square_free_split(p.norm_sq)[1] for p in exact.points}) == 1
        scaled = common_norm([p.direction() for p in exact.points])
        want_code = LatticeCode("want", code.ambient_dim, sum(x * x for x in scaled[0]),
                                tuple(scaled))
        assert exact.as_code().same_point_set(want_code)

        approx = dual_search(code, len(nodes), nodes=[float(v) for v in nodes])
        assert approx.mode == "float"
        units = np.array([np.array(v, dtype=float) / np.linalg.norm(v) for v in want])
        assert approx.count == len(units)
        dist = np.linalg.norm(units[:, None, :] - approx.points_float[None, :, :], axis=2)
        assert dist.min(axis=1).max() < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_code_and_nodes())
    def test_integer_certificate_of_every_assignment(self, drawn):
        # the certificate alone: fed every node assignment, unpruned, it
        # keeps exactly the unit points whose dots all lie at the nodes
        code, probe_sq, raws = drawn
        ns = code.norm_sq * probe_sq
        rhs = _exact_rhs([Surd(Fraction(r, ns), ns) for r in raws], code.norm_sq)
        every = np.array(list(itertools.product(range(len(raws)), repeat=code.ambient_dim)))
        pts, rows = _exact_dual(code, _independent_rows(code, code.unit_array()), every, rhs)
        assert {p.vector for p in pts} == _reference_dual(code, probe_sq, raws)
        assert list(rows) == common_norm([p.vector for p in pts])

    def test_node_target_off_the_integers_meets_nothing(self):
        # the walk keeps the unit point (1, 0), whose dot 3/5 with (3, -4)
        # is no node; the node 5/7 asks (1, 0) for the integer dot 25/7,
        # which is none, and which floor division would take for that 3
        code = LatticeCode("three", 2, 25, ((4, 3), (3, -4), (4, -3)))
        res = dual_search(code, 3, nodes=[Fraction(-7, 10), Fraction(4, 5), Fraction(5, 7)])
        assert res.exact and res.count == 0
        assert _reference_dual(code, 196, [-49, 56, 50]) == set()

    @pytest.mark.parametrize("code", [cube(3), cube(4), demicube(5)], ids=lambda c: c.name)
    def test_unit_norm_before_the_last_level(self, code):
        # the signed basis meets these codes at -+1/sqrt(norm_sq), and some
        # e_i lies in the span of the first k < d picked rows, so its prefix
        # reaches |y|^2 = 1 at level k and every later y_j is 0
        d = code.ambient_dim
        rows = [code.points[i] for i in _independent_rows(code, code.unit_array())]
        want = _reference_dual(code, 1, [-1, 1])
        assert want == signed_basis(d)

        def level(v):  # the first level whose rows span v
            return next(k for k in range(1, d + 1)
                        if np.linalg.matrix_rank(np.array(rows[:k] + [v])) == k)

        assert min(level(v) for v in want) < d
        nodes = [Surd(Fraction(r, code.norm_sq), code.norm_sq) for r in (-1, 1)]
        exact = dual_search(code, 2, nodes=nodes)
        assert exact.mode == "exact" and {p.vector for p in exact.points} == want
        approx = dual_search(code, 2, nodes=[float(v) for v in nodes])
        assert approx.mode == "float" and approx.count == len(want)
        units = np.array(sorted(want), dtype=float)
        assert np.abs(units - approx.points_float).max() < 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 1e-7, 2e-8])
    def test_float_nodes_on_a_nearly_flat_code(self, eps):
        # a square lifted by eps off its plane spans R^3 with cond ~ 1/eps;
        # the prune must keep the normals (0, 0, +-1), whose dots are all +-c
        pts = np.array([[1, 0, eps], [-1, 0, eps], [0, 1, eps], [0, -1, eps]])
        code = FloatCode("lifted square", 3, pts / np.linalg.norm(pts, axis=1)[:, None])
        c = eps / math.hypot(1.0, eps)
        nodes = [c, -c]
        units = code.unit_array()
        a = units[:3]
        assert np.linalg.matrix_rank(a) == 3
        nmat = np.array(list(itertools.product(nodes, repeat=3)))
        z = nmat @ np.linalg.inv(a).T
        z = z[np.abs(np.linalg.norm(z, axis=1) - 1.0) < 1e-7]
        want = [v for v in z if np.abs(units @ v - np.array(nodes)[:, None]).min(axis=0).max() < 1e-9]
        assert len(want) == 2

        res = dual_search(code, 2, nodes=nodes)
        assert res.count == len(want)
        dist = np.linalg.norm(np.array(want)[:, None, :] - res.points_float[None, :, :], axis=2)
        assert dist.min(axis=1).max() < 1e-9


class TestWalkBounds:
    def test_unit_point_rounded_below_one_is_kept(self):
        # (2/7, 3/7, 6/7) is a unit point whose squares sum to 1 - 2^-53
        values = np.array([2 / 7, 3 / 7, 6 / 7])
        assert sum(v * v for v in values) < 1.0
        idx, y = _walk(np.eye(3), values, _gamma(8), "walk")
        assert sorted(map(tuple, idx.tolist())) == sorted(itertools.permutations(range(3)))
        assert np.array_equal(y, values[idx])

    def test_zero_pivot_drops_nothing(self):
        idx, _ = _walk(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([-0.5, 0.5]),
                       _gamma(8), "walk")
        assert len(idx) == 4


class TestFrontierCap:
    NODES_7 = [-Surd.sqrt_of(Fraction(1, 7)), Surd(0), Surd.sqrt_of(Fraction(1, 7))]

    def test_cap_bounds_the_frontier_not_all_assignments(self, monkeypatch):
        # 3^7 = 2187 assignments exceed the cap; no pruned frontier does
        code = demicube(7)
        monkeypatch.setenv(ENV_SIZE_CAP, "2000")
        res = dual_search(code, 3, nodes=self.NODES_7)
        assert res.exact
        assert {p.vector for p in res.points} == signed_basis(7)

    def test_frontier_over_the_cap_raises(self, monkeypatch):
        code = demicube(7)
        monkeypatch.setenv(ENV_SIZE_CAP, "20")
        with pytest.raises(SizeCapExceeded):
            dual_search(code, 3, nodes=self.NODES_7)


class TestRankGate:
    def test_planar_code_m2_not_in_general_position(self):
        sq = LatticeCode("eq_square", 3, 1,
                         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        with pytest.raises(NotInGeneralPosition):
            dual_search(sq, 2)

    def test_planar_code_m1_point_pair(self):
        sq = LatticeCode("eq_square", 3, 1,
                         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        res = dual_search(sq, 1)
        assert res.count == 2
        assert {p.vector for p in res.points} == {(0, 0, 1), (0, 0, -1)}

    def test_float_rank_is_decided_once(self):
        # the third singular value, about 3.5e-9, is below the rank gate's
        # cut: the dual is the pair off the plane, not an empty subspace
        c = np.array([1.0, 1.0, 5e-9]) / np.linalg.norm([1.0, 1.0, 5e-9])
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], c])
        res = dual_search(FloatCode("tilted_square", 3, np.vstack([rows, -rows])), 1)
        assert res.subspace_basis is None
        assert res.count == 2
        assert np.allclose(np.abs(res.points_float[:, 2]), 1.0)

    def test_pair_code_m1_subspace_dual(self):
        pair = LatticeCode("pair", 3, 1, ((1, 0, 0), (-1, 0, 0)))
        res = dual_search(pair, 1)
        assert res.mode == "subspace"
        assert res.count == 0 and not res.is_empty
        assert len(res.subspace_basis) == 2

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make,dim", [
        (lambda: ngon(7).points, 3),
        (lambda: ngon(40).points, 3),
        (lambda: ngon(6000).points, 3),
        (lambda: cube(3).unit_array(), 4),
        (lambda: ngon(5).points, 4),
        (lambda: cross_polytope(3).unit_array(), 5),
    ], ids=["ngon7_R3", "ngon40_R3", "ngon6000_R3", "cube3_R4", "ngon5_R4", "x3_R5"])
    def test_float_subspace_dual_of_rotated_planted_codes(self, make, dim, seed):
        # a 1-design spanning k dimensions, turned by a random rotation of
        # R^dim: D_1 is the unit sphere of the last dim - k rotated axes
        base = make()
        k = base.shape[1]
        rot = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0]
        pts = np.hstack([base, np.zeros((len(base), dim - k))]) @ rot.T
        code = FloatCode("planted", dim, pts)
        res = dual_search(code, 1)
        normals = rot[:, k:].T
        # reference: the trailing right singular vectors of all N points
        ref = np.linalg.svd(pts, full_matrices=False)[2][k:]
        if dim - k == 1:
            assert (res.mode, res.count) == ("float", 2)
            for z in res.points_float:
                assert min(np.abs(z - normals[0]).max(), np.abs(z + normals[0]).max()) <= 1e-9
                assert min(np.abs(z - ref[0]).max(), np.abs(z + ref[0]).max()) <= 1e-12
            assert np.abs(res.points_float[0] + res.points_float[1]).max() == 0
        else:
            assert (res.mode, res.count) == ("subspace", 0)
            basis = np.array(res.subspace_basis)
            assert np.abs(basis.T @ basis - normals.T @ normals).max() <= 1e-9
            assert np.abs(basis.T @ basis - ref.T @ ref).max() <= 1e-12

    def test_flat_polygon_m1_holds_no_full_table(self):
        # the 6000 x 6000 Gram table alone is 275 MiB, the all-points SVD's
        # U as much again
        pts = np.hstack([ngon(6000).points, np.zeros((6000, 1))])
        code = FloatCode("flat_ngon(6000)", 3, pts)
        tracemalloc.start()
        try:
            cert = certify_stiff(code, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cert.dual.mode, cert.dual.count) == ("float", 2)
        assert np.array_equal(np.abs(cert.dual.points_float), [[0, 0, 1], [0, 0, 1]])
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("n", [7, 6000])
    def test_float_pair_reports_its_measured_residual(self, n):
        # the gate's picks of a fine polygon are neighbouring vertices, nearly
        # dependent, whose own SVD leaves the normal about 4e-14 off
        code = _rotated_flat_ngon(n)
        res = dual_search(code, 1)
        assert (res.mode, res.count) == ("float", 2)
        units = code.unit_array()
        measured = [np.abs(units @ z).max() for z in res.points_float]
        assert measured[0] == measured[1] == res.max_residual
        assert res.max_residual < 1e-14

    def test_float_code_with_fewer_points_than_dimensions(self):
        # R of the 2 x 4 unit array is 2 x 4, and the SVD's full V still
        # gives the three directions off ±e_1
        res = dual_search(FloatCode("pm_e1", 4, np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])), 1)
        assert (res.mode, res.count) == ("subspace", 0)
        basis = np.array(res.subspace_basis)
        assert basis.shape == (3, 4)
        assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-15
        assert np.abs(basis[:, 0]).max() < 1e-15

    @pytest.mark.parametrize("code", [
        LatticeCode("pair4", 4, 1, ((-1, 0, 0, 0), (1, 0, 0, 0))),
        LatticeCode("pad(cube(3))", 6, 3, tuple(p + (0, 0, 0) for p in cube(3).points)),
    ], ids=lambda c: c.name)
    def test_subspace_basis_is_the_nullspace_of_every_point(self, code):
        # the gate's independent rows span the code, and the reduced
        # row-echelon form of a row space is unique, so their nullspace
        # basis is the one of all points
        res = dual_search(code, 1)
        assert res.mode == "subspace"
        assert res.subspace_basis == tuple(integer_nullspace(list(code.points)))


def _defect_2_41() -> LatticeCode:
    """polytope_2_41() with its point 0, (-4, 0, ..., 0), swapped for
    (-3, -2, -1, -1, -1, 0, 0, 0): the first norm-16 vector of [-4, 4]^8 in
    itertools.product order that is not a code point."""
    full = polytope_2_41()
    swap = (-3, -2, -1, -1, -1, 0, 0, 0)
    assert full.points[0] == (-4,) + (0,) * 7 and swap not in full.points
    return LatticeCode("defect_2_41", 8, full.norm_sq, (swap,) + full.points[1:])


def _cube3_scaled() -> LatticeCode:
    s = 2**27
    return LatticeCode("cube3x", 3, 3 * s * s,
                       tuple(tuple(s * x for x in p) for p in cube(3).points))


_SQUARE_IN_R3 = LatticeCode("square", 3, 1, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
_NODES_D12 = (Surd(0), Surd.sqrt_of(Fraction(1, 12)), -Surd.sqrt_of(Fraction(1, 12)))
_NODES_TETRA = (Fraction(-1, 3), 1)


def _flat_ngon_6000():
    return FloatCode("flat_ngon(6000)", 3, np.hstack([ngon(6000).points, np.zeros((6000, 1))]))


class TestOneDesignCheck:
    """A certificate checks its code's design strength once, solves each
    node set once and scales an exact dual without building a code."""

    @pytest.mark.parametrize("make,m", [
        (_flat_ngon_6000, 1),
        (lambda: FloatCode("2_41 as floats", 8, polytope_2_41().unit_array()), 2),
        (lambda: rotated_cubes(2)[0], 2),
        (lambda: demicube(5), 2),
        (lambda: glue(cross_polytope(3), cross_polytope(3), 2)[0], 2),
    ], ids=["flat_ngon6000", "2_41_float", "rotated_cubes2", "demicube5", "glued_x3"])
    def test_one_pair_sum_pass_per_certificate(self, monkeypatch, make, m):
        code = make()
        calls = _counted(monkeypatch, design, "_pair_sums")
        cert = certify_stiff(code, m)
        assert len(calls) == 1
        assert cert.design_strength >= 2 * m - 1 and cert.dual is not None

    def test_dual_search_alone_checks_only_where_needed(self, monkeypatch):
        calls = _counted(monkeypatch, design, "_pair_sums")
        dual_search(demicube(5), 2)
        assert len(calls) == 1
        dual_search(_flat_ngon_6000(), 1)
        assert len(calls) == 2
        # supplied nodes on a code that spans need no strength
        dual_search(demicube(5), 2, nodes=gegenbauer.nodes(4, 2).nodes)
        assert len(calls) == 2

    def test_default_nodes_and_weights_share_one_solve(self, monkeypatch):
        gegenbauer.nodes.cache_clear()
        solves = _counted(monkeypatch, gegenbauer, "_float_nodes")
        cert = certify_stiff(ngon(8), 4)
        assert cert.stiff and cert.frequencies_match_weights
        assert solves == [(1, 4)]

    @pytest.mark.parametrize("code,m,nodes", [
        (demicube(5), 2, None),
        (cross_polytope(4), 2, None),
        (cube(3), 2, None),
        (demicube(12), 3, (Surd(0), Surd.sqrt_of(Fraction(1, 12)),
                           -Surd.sqrt_of(Fraction(1, 12)))),
        # with nodes -1/3 and 1 the tetrahedron is its own dual, not antipodal
        (demicube(3), 2, (Fraction(-1, 3), 1)),
        (polytope_2_41(), 5, NODES_2160),
        (_cube3_scaled(), 2, None),
        (_SQUARE_IN_R3, 1, None),
    ], ids=["demicube5", "cross4", "cube3", "demicube12", "tetrahedron", "2_41",
            "cube3x2^27", "square_in_R3"])
    def test_exact_dual_is_scaled_without_a_code(self, monkeypatch, code, m, nodes):
        want = certify_stiff(code, m, nodes=nodes)
        # reference: the dual as a sorted code, its points matched back to
        # dual.points by direction
        dual_code = want.dual.as_code()
        scaled = {gcd_reduce(v): v for v in dual_code.points}
        dots = raw_dots(code.points, [scaled[p.direction()] for p in want.dual.points])
        assert want.frequency_table == tuple(spectra(dots.T, (dual_code.norm_sq, code.norm_sq)))
        assert want.properties["antipodal"] == dual_code.is_antipodal()

        def refuse(vectors):
            raise AssertionError("common_norm called")

        # the certificate and the dual's code read the certified rows: no
        # common norm is searched for and the certificate builds no code
        assert not hasattr(stiffness, "common_norm")
        monkeypatch.setattr(codes, "common_norm", refuse)
        built = _counted(monkeypatch, LatticeCode, "__post_init__")
        got = certify_stiff(code, m, nodes=nodes)
        assert got == want
        assert built == []
        assert got.dual.as_code() == dual_code


class TestCertify:
    def test_demicube5_certificate(self):
        cert = certify_stiff(demicube(5), 2)
        assert cert.stiff
        assert cert.design_strength >= 3
        assert cert.frequencies_match_weights
        # every dual point sees each node +-1/sqrt(5) exactly 8 times
        for row in cert.frequency_table:
            assert sorted(c for _, c in row) == [8, 8]
        assert cert.properties["antipodal"]
        assert cert.properties["cardinality_ok"]
        assert cert.properties["double_dual_contains_code"]

    def test_241_m4_not_stiff(self):
        cert = certify_stiff(polytope_2_41(), 4)
        assert not cert.stiff
        assert cert.dual is not None and cert.dual.is_empty

    def test_241_m5_without_nodes_reports_not_stiff(self):
        cert = certify_stiff(polytope_2_41(), 5)
        assert not cert.stiff
        assert cert.dual is None

    def test_241_m5_with_nodes_full_dual_but_not_stiff(self):
        # strength 7 < 9 = 2m-1, so not 5-stiff despite the 240-point dual
        cert = certify_stiff(polytope_2_41(), 5, nodes=NODES_241)
        assert not cert.stiff
        assert cert.design_strength == 7
        assert cert.dual.count == 240
        assert cert.frequencies_match_weights
        # Frozen frequencies: each E8 root sees the five nodes with these counts
        by_float = {round(float(k), 6): c for k, c in cert.frequency_table[0]}
        assert by_float == {
            0.707107: 126, 0.353553: 576, 0.0: 756, -0.353553: 576, -0.707107: 126,
        }

    @pytest.mark.parametrize("step", [1, 3])
    def test_exact_frequency_rows_are_per_point_spectra(self, step):
        # on every third point the rows differ, and as_code lists the dual
        # (norms 2 and 8) in another order: row k must stay dual point k's
        full = polytope_2_41()
        code = LatticeCode(f"every_{step}", 8, full.norm_sq, full.points[::step])
        cert = certify_stiff(code, 5, nodes=NODES_241)
        assert {p.norm_sq for p in cert.dual.points} == {2, 8}
        assert len(set(cert.frequency_table)) == (1 if step == 1 else 236)
        assert cert.frequency_table == tuple(spectrum(p, code).entries
                                             for p in cert.dual.points)

    @pytest.mark.parametrize("make", [
        lambda: rotated_cubes(3)[0],
        lambda: FloatCode("float_2_41", 8, polytope_2_41().unit_array()),
    ], ids=["rotated_cubes3", "float_2_41"])
    def test_float_frequency_rows_are_per_point_spectra(self, make):
        code = make()
        m, nodes = (2, None) if code.ambient_dim == 3 else (5, [float(t) for t in NODES_241])
        cert = certify_stiff(code, m, nodes=nodes)
        assert cert.dual.count and not cert.dual.exact
        want = tuple(tuple((round(v, 9), c) for v, c in spectrum(u, code).entries)
                     for u in cert.dual.unit_points())
        assert cert.frequency_table == want

    def test_square_with_a_large_square_free_norm_part(self, monkeypatch):
        # the square (1, 10^17) rotated by quarter turns: its dual points
        # have norm 2 (1 + 10^34), which as_code and the frequency table
        # must handle without factoring 1 + 10^34
        monkeypatch.setenv(ENV_SIZE_CAP, "10000")
        b = 10**17
        square = LatticeCode("square", 2, 1 + b * b,
                             tuple(sorted(((1, b), (-b, 1), (-1, -b), (b, -1)))))
        cert = certify_stiff(square, 2)
        assert cert.stiff and cert.dual.exact and cert.dual.count == 4
        assert cert.dual.as_code().norm_sq == 2 * (1 + b * b)
        assert cert.frequencies_match_weights
        half = Surd.sqrt_of(Fraction(1, 2))
        assert set(cert.frequency_table) == {((-half, 2), (half, 2))}
        assert all(cert.properties.values())

    def test_float_frequency_count_mismatch(self):
        # the triangle at height 1/2 meets e_3 at the one supplied node 1/2,
        # where the weights of m = 2 on S^2 need both Gegenbauer nodes
        ang = 2 * np.pi * np.arange(3) / 3
        r = math.sqrt(3) / 2
        tri = FloatCode("tri", 3, np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                                   np.full(3, 0.5)]))
        cert = certify_stiff(tri, 2, nodes=(0.5,))
        assert cert.dual.mode == "float" and cert.dual.count == 1
        assert np.allclose(cert.dual.points_float, [[0.0, 0.0, 1.0]])
        assert cert.frequencies_match_weights is False
        assert not cert.stiff

    @pytest.mark.parametrize("make,m,nodes,constant", [
        (lambda: cross_polytope(4), 2, None, True),
        (lambda: demicube(6), 2, None, True),
        (lambda: rotated_cubes(3)[0], 2, None, True),
        (lambda: LatticeCode("five", 3, 1, tuple(sorted(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]))),
         3, (Surd(-1), Surd(0), Surd(1)), False),
    ], ids=["x4", "d6", "rotated_cubes3", "five_points"])
    def test_constant_rows_by_tuple_equality(self, make, m, nodes, constant):
        # rows compared with the first, not hashed into a set; the five
        # points' dual +-e_3 sees them unlike +-e_1 and +-e_2 do
        cert = certify_stiff(make(), m, nodes=nodes)
        assert (len(set(cert.frequency_table)) <= 1) is constant
        assert cert.frequencies_constant is constant
        assert cert.to_json_dict()["frequency_table"]["constant_across_dual"] is constant
        assert cert.frequencies_match_weights is constant

    def test_exact_frequency_count_mismatch(self):
        # the exact twin of the triangle above: a square at height
        # sqrt(1/2) meets e_3 at the one supplied node, four times, where
        # the weights of m = 2 on S^2 split the code between +-sqrt(1/3)
        sq = LatticeCode("sq", 3, 2, tuple(sorted([(1, 0, 1), (-1, 0, 1),
                                                   (0, 1, 1), (0, -1, 1)])))
        cert = certify_stiff(sq, 2, nodes=(Surd.sqrt_of(Fraction(1, 2)),))
        assert cert.dual.exact and [p.vector for p in cert.dual.points] == [(0, 0, 1)]
        assert cert.frequencies_constant
        assert cert.frequencies_match_weights is False

    def test_certificate_json_fields(self):
        cert = certify_stiff(cross_polytope(4), 2)
        blob = cert.to_json_dict()
        for key in ("code", "m", "stiff", "design_strength", "dual",
                    "frequency_table", "properties"):
            assert key in blob


class TestStructuralProperties:
    def test_antipodal_and_cardinality_all_corpus(self):
        for code, m in [(demicube(5), 2), (cross_polytope(3), 2),
                        (cross_polytope(4), 2), (cube(3), 2), (cube(4), 2)]:
            cert = certify_stiff(code, m)
            assert cert.stiff, code.name
            assert cert.properties["antipodal"], code.name
            assert cert.dual.count <= m ** code.ambient_dim, code.name
            assert cert.properties["double_dual_contains_code"], code.name

    def test_walked_duals_keep_the_cardinality_bound(self):
        for code in [demicube(5)] + [cross_polytope(d) for d in range(3, 7)]:
            assert certify_stiff(code, 2).properties["cardinality_ok"] is True, code.name

    def test_triple_dual_identity(self):
        for code in [demicube(5), cross_polytope(3), cross_polytope(4),
                     cross_polytope(5), cross_polytope(6)]:
            d1 = dual_search(code, 2).as_code()
            d2 = dual_search(d1, 2).as_code()
            d3 = dual_search(d2, 2).as_code()
            assert d3.same_point_set(d1), code.name

    def test_double_dual_strictly_contains_cross4(self):
        # dual of cross_polytope(4) is the 16-cell cube; its dual is cross again
        dd = dual_search(dual_search(cross_polytope(4), 2).as_code(), 2).as_code()
        assert dd.same_point_set(cross_polytope(4))


class TestOneStiff:
    def test_pair_in_ambient3(self):
        pair = LatticeCode("pair", 3, 1, ((1, 0, 0), (-1, 0, 0)))
        cert = certify_stiff(pair, 1)
        assert cert.stiff and cert.dual is not None
        dual = cert.dual
        assert len(dual.subspace_basis) == 2 and dual.count == 0
        basis = np.array(dual.subspace_basis, dtype=float)
        assert np.allclose(basis @ np.array([1.0, 0.0, 0.0]), 0.0)

    def test_equatorial_square_witness(self):
        sq = LatticeCode("eq_square", 3, 1,
                         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        cert = certify_stiff(sq, 1)
        assert cert.stiff
        dual = cert.dual
        assert {tuple(abs(x) for x in p.vector) for p in dual.points} == {(0, 0, 1)}
        assert dual.subspace_basis is None
        assert {p.vector for p in dual.points} == {(0, 0, 1), (0, 0, -1)}

    @pytest.mark.parametrize("make", [
        lambda: LatticeCode("eq_square", 3, 1,
                            ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))),
        lambda: FloatCode("flat_7gon", 3,
                          np.column_stack([ngon(7).unit_array(), np.zeros(7)])),
    ], ids=["square", "flat_7gon"])
    def test_d1_pair_carries_no_cardinality_bound(self, make):
        # the pair is the complement of the span, not a walk's leaves, so
        # the walk's m^(d+1) = 1 bounds nothing here
        cert = certify_stiff(make(), 1)
        assert cert.stiff and cert.dual.count == 2
        assert "cardinality_ok" not in cert.properties
        assert cert.properties["antipodal"]

    def test_cube3_not_1stiff(self):
        assert not certify_stiff(cube(3), 1).stiff

    def test_tetrahedron_not_1stiff(self):
        # barycenter 0 but spanning: no direction is orthogonal to every point
        assert not certify_stiff(demicube(3), 1).stiff

    def test_nonzero_barycenter_fails(self):
        point = LatticeCode("point", 3, 1, ((1, 0, 0),))
        cert = certify_stiff(point, 1)
        assert cert.dual is None
        assert not cert.stiff
        with pytest.raises(NodesRequired):
            dual_search(point, 1)


def _rotation(seed: int, dim: int) -> np.ndarray:
    """A random orthogonal matrix: Q of a Gaussian matrix, signs fixed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _rotated_float_copy(code: LatticeCode, rot: np.ndarray) -> FloatCode:
    return FloatCode(f"rotated({code.name})", code.ambient_dim,
                     code.unit_array() @ rot.T, tolerance=1e-12)


def _span_projector(res) -> np.ndarray:
    """Orthogonal projector onto the span of a dual: its points or its basis."""
    rows = (res.unit_points() if res.subspace_basis is None
            else np.array(res.subspace_basis, dtype=float))
    _, sing, vt = np.linalg.svd(rows)
    span = vt[:int(np.sum(sing > 1e-9))]
    return span.T @ span


EQ_SQUARE = LatticeCode("eq_square", 3, 1,
                        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
PAIR = LatticeCode("pair", 3, 1, ((1, 0, 0), (-1, 0, 0)))


class TestExactAgainstRotatedFloat:
    """The exact dual of an integer code, rotated, is the float dual of the
    rotated float copy: pins the exact enumeration to the float one, and
    the exact D_1 branch to the float one."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["cross_polytope", "cube", "demicube"]),
           st.integers(0, 2**32 - 1))
    def test_m2(self, name, seed):
        code = {"cross_polytope": cross_polytope(3), "cube": cube(3),
                "demicube": demicube(5)}[name]
        rot = _rotation(seed, code.ambient_dim)
        exact = dual_search(code, 2)
        approx = dual_search(_rotated_float_copy(code, rot), 2)
        assert exact.mode == "exact" and approx.mode == "float"
        assert approx.count == exact.count > 0
        assert approx.max_residual < 1e-9
        want = exact.unit_points() @ rot.T
        dist = np.linalg.norm(want[:, None, :] - approx.points_float[None, :, :], axis=2)
        assert dist.min(axis=1).max() < 1e-9
        assert dist.min(axis=0).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([EQ_SQUARE, PAIR]), st.integers(0, 2**32 - 1))
    def test_m1_span_projectors(self, code, seed):
        rot = _rotation(seed, code.ambient_dim)
        exact = dual_search(code, 1)
        approx = dual_search(_rotated_float_copy(code, rot), 1)
        assert (exact.subspace_basis is None) == (approx.subspace_basis is None)
        assert approx.count == exact.count
        assert np.allclose(rot @ _span_projector(exact) @ rot.T,
                           _span_projector(approx), atol=1e-9)


class TestFloatDualOrder:
    @pytest.mark.parametrize("code", [demicube(5), demicube(6), cube(4)], ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_copy_gives_the_same_order(self, code, seed):
        # the points agree to rounding, which must not decide their order
        units = code.unit_array()
        perm = np.random.default_rng(seed).permutation(len(units))
        a = dual_search(FloatCode("a", code.ambient_dim, units), 2)
        b = dual_search(FloatCode("b", code.ambient_dim, units[perm]), 2)
        assert a.count == b.count == 2 * code.ambient_dim
        assert np.abs(a.points_float - b.points_float).max() < 1e-12


class TestSharpness:
    def test_demicube3_strongly_sharp(self):
        rep = classify_sharp(demicube(3))
        assert rep.inner_dot_count == 1
        assert rep.sharp and rep.strongly_sharp

    def test_demicube5_sharp_only(self):
        rep = classify_sharp(demicube(5))
        assert rep.inner_dot_count == 2
        assert rep.sharp and not rep.strongly_sharp

    def test_cube5_not_sharp(self):
        rep = classify_sharp(cube(5))
        assert rep.inner_dot_count == 5
        assert not rep.sharp

    def test_e8_sharp(self):
        rep = classify_sharp(e8_roots())
        assert rep.inner_dot_count == 4
        assert rep.sharp


class TestSamplingOracles:
    def test_brute_force_matches_search_cube3(self):
        bf = brute_force_dual(cube(3), 2)
        ds = dual_search(cube(3), 2).unit_points()
        assert len(bf) == len(ds)
        for b in bf:
            assert min(np.linalg.norm(b - u) for u in ds) < 1e-8

    def test_brute_force_empty_for_m1(self):
        assert len(brute_force_dual(cross_polytope(3), 1)) == 0

    def test_circle_scan_square(self):
        hits = circle_dual_scan(ngon(4), 2)
        assert len(hits) == 4
        angles = sorted(np.arctan2(hits[:, 1], hits[:, 0]) % (2 * np.pi))
        expected = [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4]
        assert np.allclose(angles, expected, atol=1e-9)

    def test_circle_scan_pentagon_empty(self):
        assert len(circle_dual_scan(ngon(5), 2)) == 0

    def test_circle_scan_rejects_higher_dim(self):
        with pytest.raises(ValueError):
            circle_dual_scan(cube(3), 2)


def _max_cluster_width(dots: np.ndarray, m: int, kind=None) -> float:
    """Reference: the one-row width loop that _max_cluster_widths replaced,
    largest single-cluster width after cutting at the m-1 biggest gaps;
    `kind` is the sort of the gaps (numpy's default, not stable, when None)."""
    arr = np.sort(np.asarray(dots, dtype=float))
    if m >= len(arr):
        return 0.0
    if m == 1:
        return float(arr[-1] - arr[0])
    gaps = np.diff(arr)
    cuts = np.sort(np.argsort(gaps, kind=kind)[-(m - 1):])
    width = 0.0
    lo = 0
    for c in list(cuts) + [len(arr) - 1]:
        width = max(width, float(arr[c] - arr[lo]))
        lo = c + 1
    return width


class TestClusterWidths:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 12),
           st.integers(1, 4))
    def test_tie_free_rows_match_the_loop(self, seed, rows, n, m):
        table = np.random.default_rng(seed).uniform(-1, 1, (rows, n))
        want = [_max_cluster_width(row, m) for row in table]
        assert np.array_equal(_max_cluster_widths(table, m), want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(2, 12),
           st.integers(1, 4))
    def test_planted_ties_match_a_stable_loop(self, seed, rows, n, m):
        # dots on a grid of eighths: equal values and equal gaps throughout
        table = np.random.default_rng(seed).integers(-8, 9, (rows, n)) / 8
        want = [_max_cluster_width(row, m, kind="stable") for row in table]
        assert np.array_equal(_max_cluster_widths(table, m), want)

    def test_no_rows(self):
        assert _max_cluster_widths(np.zeros((0, 5)), 2).shape == (0,)


def _cluster_cost(dots: np.ndarray, m: int) -> np.ndarray:
    """Total width of the best split of sorted dots into m contiguous
    clusters, one cost per row: the value range minus the m-1 largest
    adjacent gaps, zero exactly when at most m distinct values remain."""
    arr = np.sort(np.atleast_2d(dots), axis=1)
    gaps = np.diff(arr, axis=1)
    spread = arr[:, -1] - arr[:, 0]
    if m >= arr.shape[1]:
        return np.zeros(len(arr))
    if m > 1:
        top = -np.partition(-gaps, m - 2, axis=1)[:, : m - 1]
        spread = spread - top.sum(axis=1)
    return spread


def _grid_scan_reference(code, m: int, resolution: int = 200_000) -> np.ndarray:
    """The circle scan as it was written before the pair-midpoint one: the
    cluster cost on an angle grid, then a golden-section search on each
    low-cost run and the same width test and deduplication."""
    units = code.unit_array()
    alphas = np.arctan2(units[:, 1], units[:, 0])
    n = len(units)

    def cost(th: float) -> float:
        return float(_cluster_cost(np.cos(th - alphas), m)[0])

    step = 2 * np.pi / resolution
    thetas = np.arange(resolution) * step
    costs = np.empty(resolution)
    chunk = 1 << 16
    for lo in range(0, resolution, chunk):
        hi = min(resolution, lo + chunk)
        costs[lo:hi] = _cluster_cost(np.cos(thetas[lo:hi, None] - alphas[None, :]), m)
    low = costs < 4.0 * n * step
    if not low.any():
        return np.zeros((0, 2))
    idx = np.nonzero(low)[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == resolution - 1:
        runs[0] = np.concatenate([runs[-1] - resolution, runs[0]])
        runs.pop()
    gold = (5**0.5 - 1) / 2
    hits: list[float] = []
    for run in runs:
        a, b = (run[0] - 1) * step, (run[-1] + 1) * step
        while b - a > 1e-14:
            c, d = b - gold * (b - a), a + gold * (b - a)
            if cost(c) < cost(d):
                b = d
            else:
                a = c
        th = 0.5 * (a + b)
        if _max_cluster_width(np.cos(th - alphas), m) <= CIRCLE_WIDTH_TOL:
            hits.append(th % (2 * np.pi))
    hits.sort()
    out = [th for i, th in enumerate(hits) if not i or (th - hits[i - 1]) > 1e-9]
    if len(out) > 1 and (out[0] + 2 * np.pi - out[-1]) <= 1e-9:
        out.pop()
    return np.array([[np.cos(th), np.sin(th)] for th in out]).reshape(-1, 2)


def _circle_code(angles) -> FloatCode:
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return FloatCode("circle", 2, pts, tolerance=1e-12)


def _circular_gap(a: float, b: float) -> float:
    g = abs(a - b) % (2 * np.pi)
    return min(g, 2 * np.pi - g)


@st.composite
def _reflected_codes(draw):
    """Angles axis +- b_k for k = 2..4 base angles in (0, pi): the axis and
    its antipode tie every pair, so they qualify at m = k and m = k + 1.
    The b_k are kept apart (and b_i + b_j away from pi) so that distinct
    hits of the grid reference never share one low-cost run.  At m = k a
    jitter of 1e-6 on one point leaves only near-ties, which the width
    test must reject."""
    axis = draw(st.floats(0, 2 * np.pi))
    k = draw(st.integers(2, 4))
    bases = draw(st.lists(st.floats(0.1, np.pi - 0.1), min_size=k, max_size=k))
    for i, bi in enumerate(bases):
        for bj in bases[:i]:
            assume(abs(bi - bj) > 0.05 and abs(bi + bj - np.pi) > 0.05)
    m = draw(st.sampled_from((k, k + 1)))
    angles = np.array([axis + s * b for b in bases for s in (1.0, -1.0)])
    if m == k:
        angles[0] += draw(st.sampled_from((0.0, 1e-6)))
    return _circle_code(angles), m


@st.composite
def _random_angle_codes(draw):
    """n random angles and m <= n - 2: a pair midpoint ties one pair only,
    so no direction qualifies."""
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=3, max_size=8))
    for i, a in enumerate(angles):
        for b in angles[:i]:
            assume(_circular_gap(a, b) > 1e-3)
    m = draw(st.integers(1, len(angles) - 2))
    return _circle_code(np.array(angles)), m


@st.composite
def _ngon_codes(draw):
    n = draw(st.integers(4, 9))
    return ngon(n), draw(st.integers(1, n - 1))


def _all_pairs_circle_reference(code, m: int) -> np.ndarray:
    """circle_dual_scan without the first-(m+1) restriction, as it was
    written before: all n(n-1) pair midpoints (a_i + a_j)/2 and + pi in
    increasing angle, the width test on cos(t - a_i), and hits within
    1e-9 rad of the previous one (across 2 pi too) dropped."""
    units = code.unit_array()
    alphas = np.arctan2(units[:, 1], units[:, 0])
    i, j = np.triu_indices(len(units), 1)
    mids = 0.5 * (alphas[i] + alphas[j])
    thetas = np.sort(np.concatenate([mids, mids + np.pi]) % (2 * np.pi))
    widths = _max_cluster_widths(np.cos(thetas[:, None] - alphas[None, :]), m)
    hits = thetas[widths <= CIRCLE_WIDTH_TOL]
    out = [th for k, th in enumerate(hits) if not k or (th - hits[k - 1]) > 1e-9]
    if len(out) > 1 and (out[0] + 2 * np.pi - out[-1]) <= 1e-9:
        out.pop()
    return np.array([[np.cos(th), np.sin(th)] for th in out]).reshape(-1, 2)


def _assert_same_circle_hits(hits: np.ndarray, ref: np.ndarray) -> None:
    """Same shape, every hit within 1e-12 of the reference, and the rows in
    increasing angle from 0."""
    assert hits.shape == ref.shape
    for h in hits:
        assert np.linalg.norm(ref - h, axis=1).min() <= 1e-12
    angles = np.round(np.arctan2(hits[:, 1], hits[:, 0]), 12) % (2 * np.pi)
    assert np.all(np.diff(angles) > 0)


class TestCircleScan:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(_reflected_codes(), _random_angle_codes(), _ngon_codes()))
    def test_matches_grid_reference(self, case):
        code, m = case
        hits = circle_dual_scan(code, m)
        ref = _grid_scan_reference(code, m)
        assert hits.shape == ref.shape
        for h in hits:
            assert np.linalg.norm(ref - h, axis=1).min() <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_reflected_codes(), _random_angle_codes(), _ngon_codes()))
    def test_matches_all_pairs_reference(self, case):
        code, m = case
        _assert_same_circle_hits(circle_dual_scan(code, m),
                                 _all_pairs_circle_reference(code, m))

    def test_ngons_match_all_pairs_reference(self):
        for n in range(3, 13):
            for m in range(1, n):
                _assert_same_circle_hits(circle_dual_scan(ngon(n), m),
                                         _all_pairs_circle_reference(ngon(n), m))

    def test_hit_at_angle_zero_comes_first(self):
        # ngon(3) at m = 2: the hit on the axis sits at about -2e-16 rad
        hits = circle_dual_scan(ngon(3), 2)
        assert np.linalg.norm(hits[0] - [1.0, 0.0]) <= 1e-12

    def test_table_grows_with_m_not_with_pairs(self, monkeypatch):
        # m(m+1) candidates x 1000 points; all n(n-1) midpoints would need
        # 999,000,000 dots, above the default cap
        monkeypatch.delenv(ENV_SIZE_CAP, raising=False)
        assert circle_dual_scan(ngon(1000), 2).shape == (0, 2)

    def test_candidates_go_through_the_size_cap(self, monkeypatch):
        monkeypatch.setenv(ENV_SIZE_CAP, "50")
        with pytest.raises(SizeCapExceeded):
            circle_dual_scan(ngon(10), 2)  # 2 * 3 * 10 = 60
        monkeypatch.setenv(ENV_SIZE_CAP, "60")
        assert circle_dual_scan(ngon(10), 2).shape == (0, 2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_even_ngon_midpoints_exact(self, m):
        hits = circle_dual_scan(ngon(2 * m), m)
        mid = np.array([[np.cos((2 * k + 1) * np.pi / (2 * m)),
                         np.sin((2 * k + 1) * np.pi / (2 * m))] for k in range(2 * m)])
        assert hits.shape == (2 * m, 2)
        assert np.abs(hits - mid).max() <= 1e-12
        assert circle_dual_scan(ngon(2 * m + 1), m).shape == (0, 2)

    @pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 4), (5, 0)])
    def test_every_or_no_direction_is_an_error(self, n, m):
        with pytest.raises(ValueError):
            circle_dual_scan(ngon(n), m)


def _pattern_search(z: np.ndarray, units: np.ndarray, m: int, h0: float) -> np.ndarray:
    """Derivative-free descent of the cluster cost over the sphere."""
    z = z / np.linalg.norm(z)
    cost = float(_cluster_cost(units @ z, m)[0])
    h = h0
    while h > 1e-13:
        basis = np.linalg.svd(z[None, :])[2][1:]
        trials = np.vstack([z + s * h * b for b in basis for s in (1.0, -1.0)])
        trials /= np.linalg.norm(trials, axis=1)[:, None]
        costs = _cluster_cost(trials @ units.T, m)
        k = int(np.argmin(costs))
        if costs[k] < cost:
            z, cost = trials[k], float(costs[k])
            h = min(h * 1.5, h0)
        else:
            h *= 0.4
    return z


def _sampler_reference(code, m: int, samples: int = 100_000) -> np.ndarray:
    """brute_force_dual as it was written before the pair-difference scan:
    the cluster cost on a Fibonacci spiral of samples, one pattern search
    from the cheapest sample of each blob of low-cost samples, and the same
    width test and deduplication."""
    units = code.unit_array()
    i = np.arange(samples, dtype=float)
    zc = 1.0 - 2.0 * (i + 0.5) / samples
    r = np.sqrt(np.maximum(0.0, 1.0 - zc * zc))
    th = 2 * np.pi * i / ((1 + 5**0.5) / 2)
    pts = np.stack([r * np.cos(th), r * np.sin(th), zc], axis=1)
    spacing = (4 * np.pi / samples) ** 0.5
    costs = np.empty(samples)
    chunk = 1 << 14
    for lo in range(0, samples, chunk):
        costs[lo:lo + chunk] = _cluster_cost(pts[lo:lo + chunk] @ units.T, m)
    low = costs < 2.0 * m * spacing
    kept, kcost = pts[low], costs[low]
    link = 2.5 * spacing
    i, j, dist = close_pairs(kept, kept, link)
    i, j = i[dist < link], j[dist < link]
    labels = np.arange(len(kept))
    while True:
        least = labels.copy()
        np.minimum.at(least, i, labels[j])
        if np.array_equal(least, labels):
            break
        labels = least
    found: list[np.ndarray] = []
    for comp in np.unique(labels):
        members = np.nonzero(labels == comp)[0]
        zr = _pattern_search(kept[members[np.argmin(kcost[members])]], units, m, spacing)
        if _max_cluster_width(units @ zr, m) <= BRUTE_WIDTH_TOL:
            if not any(np.linalg.norm(zr - f) < 1e-7 for f in found):
                found.append(zr)
    return np.array(sorted(found, key=tuple)).reshape(-1, 3)


def _all_pairs_reference(code, m: int) -> np.ndarray:
    """brute_force_dual without the first-(m+1) restriction: the normals of
    every two pair differences, the same width test and the same greedy
    deduplication."""
    units = code.unit_array()
    i, j = np.triu_indices(len(units), 1)
    diffs = units[i] - units[j]
    normals = np.cross(diffs[:, None, :], diffs[None, :, :]).reshape(-1, 3)
    lengths = np.linalg.norm(normals, axis=1)
    normals = normals[lengths > 0] / lengths[lengths > 0, None]
    candidates = np.vstack([normals, -normals])
    widths = np.array([_max_cluster_width(units @ z, m) for z in candidates])
    order = np.argsort(widths, kind="stable")
    found = greedy_cluster(candidates[order[widths[order] <= BRUTE_WIDTH_TOL]],
                           10 * BRUTE_WIDTH_TOL)
    return np.array(sorted(found.tolist())).reshape(-1, 3)


def _shipped_s2_codes():
    yield from (cube(3), cross_polytope(3), symmetrize(demicube(3)))
    for n in range(1, 5):
        yield rotated_cubes(n)[0]


@st.composite
def _planted_circle_codes(draw):
    """N > 2m points on m parallel circles x.z = t_k: z and -z have at most
    m distinct dots.  Heights lie 0.05 apart and the points of one circle
    0.05 rad apart, so no two points come close."""
    m = draw(st.integers(1, 3))
    z = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    assume(np.linalg.norm(z) > 0.1)
    z /= np.linalg.norm(z)
    heights = draw(st.lists(st.floats(-0.9, 0.9), min_size=m, max_size=m))
    for a, b in itertools.combinations(heights, 2):
        assume(abs(a - b) > 0.05)
    n = draw(st.integers(2 * m + 1, 2 * m + 3))
    circles = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=n, max_size=n))
    for (ca, a), (cb, b) in itertools.combinations(zip(circles, angles), 2):
        assume(ca != cb or _circular_gap(a, b) > 0.05)
    e1 = np.cross(z, np.eye(3)[np.argmin(np.abs(z))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(z, e1)
    t = np.array(heights)[circles][:, None]
    ring = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
    pts = t * z + np.sqrt(1 - t * t) * ring
    return FloatCode("planted", 3, pts, tolerance=1e-12), m, z


class TestBruteForceScan:
    @pytest.mark.parametrize("code", _shipped_s2_codes(), ids=lambda c: c.name)
    def test_matches_sampler(self, code):
        for m in (1, 2, 3):
            if code.size <= 2 * m:
                continue
            hits = brute_force_dual(code, m)
            ref = _sampler_reference(code, m)
            assert hits.shape == ref.shape, m
            for h in hits:
                assert np.linalg.norm(ref - h, axis=1).min() <= 1e-8, m

    @settings(max_examples=40, deadline=None)
    @given(_planted_circle_codes())
    # z = (0, 1, 1)/sqrt(2): the first and fourth points lie 1e-9 rad apart
    # on circles at heights 0 and 1/4, so the normals of nearly parallel
    # pair differences give a second qualifying candidate 1.8e-7 from +-z,
    # of width 3.5e-7, which a dedup radius below the width slack reports
    # as a second hit
    @example(case=(FloatCode("planted", 3, np.array([
        [0.0, 0.7071067811865476, -0.7071067811865476],
        [-0.8147507776194344, 0.546696396291682, -0.19314300569840825],
        [-0.8804234477112807, -0.10813956671746966, 0.4616929573107434],
        [-9.682458365518543e-10, 0.8614298921780946, -0.5078765015848209],
        [0.9284744365110905, 0.3709869174084157, -0.01743352681514196],
        [0.27941549819892586, 0.678942920784305, -0.678942920784305],
        [-0.9974949866040544, 0.05001875498139309, -0.05001875498139309],
        [-0.5610375377812713, -0.38122728372158154, 0.7347806743148553],
        [-0.13663886025813055, -0.5010248323895138, 0.8545782229827875]]),
        tolerance=1e-12), 3, np.array([0.0, 0.7071067811865475, 0.7071067811865475])))
    def test_planted_direction_and_all_pairs_reference(self, case):
        code, m, z = case
        hits = brute_force_dual(code, m)
        for target in (z, -z):
            assert np.linalg.norm(hits - target, axis=1).min() <= 1e-9
        ref = _all_pairs_reference(code, m)
        assert hits.shape == ref.shape
        for h in hits:
            assert np.linalg.norm(ref - h, axis=1).min() <= 1e-8

    @pytest.mark.parametrize("code,m", [(ngon(6), 2), (cross_polytope(4), 1),
                                        (cube(3), 0), (cube(3), 4),
                                        (cross_polytope(3), 3)])
    def test_outside_the_argument_is_an_error(self, code, m):
        with pytest.raises(ValueError):
            brute_force_dual(code, m)

    def test_candidates_go_through_the_size_cap(self, monkeypatch):
        monkeypatch.setenv(ENV_SIZE_CAP, "100")
        with pytest.raises(SizeCapExceeded):
            brute_force_dual(cube(3), 2)  # 2 * C(3,2) * C(8,2) = 168


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _two_circles(n: int, height: float) -> FloatCode:
    """n points on each of the circles x.e_3 = +-height, the lower one
    turned by half a step: D_2 is +-e_3."""
    t = 2 * np.pi * np.arange(n) / n
    r = math.sqrt(1 - height * height)
    return FloatCode(f"two_circles({n})", 3, np.vstack([
        np.column_stack([r * np.cos(t), r * np.sin(t), np.full(n, height)]),
        np.column_stack([r * np.cos(t + np.pi / n), r * np.sin(t + np.pi / n),
                         np.full(n, -height)])]))


class TestStreamedProducts:
    """The dual x code tables are read block by block from codes.dot_blocks;
    blocks of 7 rows give the same verdicts as the default 1 MiB blocks,
    and no whole table is held."""

    @staticmethod
    def _small_blocks(mp, width: int) -> list:
        """Blocks of 7 rows against width columns, where the stream and the
        float residuals size them; returns the row counts of the blocks."""
        rows = []
        real = codes.dot_blocks

        def logged(x, y):
            for start, block in real(x, y):
                rows.append(len(block))
                yield start, block

        mp.setattr(config, "BLOCK_BYTES", 8 * 7 * width)
        mp.setattr(stiffness, "dot_blocks", logged)
        return rows

    @pytest.mark.parametrize("make,m,nodes", [
        (polytope_2_41, 5, NODES_2160),
        (e8_roots, 5, NODES_2160),
        (lambda: demicube(5), 2, None),
        (lambda: demicube(6), 2, None),
        (lambda: demicube(7), 2, None),
        (lambda: cube(3), 2, None),
        (lambda: ngon(8), 4, None),
    ], ids=["2_41", "e8", "demicube5", "demicube6", "demicube7", "cube3", "ngon8"])
    def test_small_blocks_give_the_same_certificate(self, make, m, nodes):
        code = make()
        cert = certify_stiff(code, m, nodes)
        with pytest.MonkeyPatch.context() as mp:
            rows = self._small_blocks(mp, code.size)
            small = certify_stiff(code, m, nodes)
        assert small.to_json_dict() == cert.to_json_dict()
        assert small.frequency_table == cert.frequency_table  # every row, not the first
        assert len(rows) > 2 and min(rows) < max(rows)  # ragged last blocks

    def test_survivor_missing_a_node_in_the_last_block_is_dropped(self):
        # 2 e_i and, last, p = (1, 1, 1, 1), all of norm 4: with nodes
        # +-1/2 on the rows 2 e_i the walk's 16 survivors are the points
        # (+-1, ..., +-1)/2, and the 8 with an even number of minus signs
        # meet p at 0 or +-1, a miss in p's block only
        axes = tuple(tuple(2 * s * (j == i) for j in range(4))
                     for i in range(4) for s in (1, -1))
        rhs = _exact_rhs([Surd(Fraction(-1, 2)), Surd(Fraction(1, 2))], 4)
        node_idx = np.array(list(itertools.product(range(2), repeat=4)))
        every = sorted(itertools.product((-1, 1), repeat=4))
        odd = [v for v in every if sum(v) in (-2, 2)]
        for with_p, want in ((False, every), (True, odd)):
            code = LatticeCode("axes", 4, 4, axes + ((1, 1, 1, 1),) * with_p)
            for small in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if small:  # 9 code points x 16 survivors: rows 0-6, then 7-8
                        rows = self._small_blocks(mp, 16)
                    got, _ = _exact_dual(code, [0, 2, 4, 6], node_idx, rhs)
                if small:
                    assert rows == [7, code.size - 7]
                assert [p.vector for p in got] == want

    def test_certificate_holds_no_dual_x_code_table(self):
        # 2160 x 240 dots: a whole table is 4 MiB of int64, and the
        # double-dual check would add a sorted copy and a diff beside it
        code = polytope_2_41()
        certify_stiff(code, 5, NODES_2160)  # the Gram multiset and the nodes, cached
        assert _peak_bytes(lambda: certify_stiff(code, 5, NODES_2160)) < 6 * 2**20

    def test_certificate_holds_one_block(self):
        # one live block per stream: the frequency blocks (60 dual points
        # x 2160) and then the double-dual blocks (546 code points x 240),
        # with the Gram multiset and the nodes cached
        code = polytope_2_41()
        certify_stiff(code, 5, NODES_2160)
        assert _peak_bytes(lambda: certify_stiff(code, 5, NODES_2160)) < 2.5 * BLOCK_BYTES

    def test_frequency_rows_share_one_surd_per_value(self):
        # criterion 3's 240 rows come from 4 blocks of 60 rows, or 35
        # blocks of 7: one Surd per node value serves them all
        code = polytope_2_41()
        cert = certify_stiff(code, 5, NODES_2160)
        with pytest.MonkeyPatch.context() as mp:
            rows = self._small_blocks(mp, code.size)
            small = certify_stiff(code, 5, NODES_2160)
        assert len(rows) > 35
        for c in (cert, small):
            assert len(c.frequency_table) == 240
            assert len({id(v) for row in c.frequency_table for v, _ in row}) == 5
            assert c.frequencies_constant and c.frequencies_match_weights
        assert small.to_json_dict() == cert.to_json_dict()
        assert cert.to_json_dict()["frequency_table"] == {
            "per_point": [{"node": "-1/2*sqrt(2)", "count": 126},
                          {"node": "-1/4*sqrt(2)", "count": 576},
                          {"node": "0", "count": 756},
                          {"node": "1/4*sqrt(2)", "count": 576},
                          {"node": "1/2*sqrt(2)", "count": 126}],
            "constant_across_dual": True}

    def test_float_blocks_meet_no_target_past_2_53(self):
        # a float64 block's entries are integers below 2^53; a target of
        # magnitude 2^53 or more matches none, though the int64 2^53 + 1
        # rounds to the float 2^53
        block = np.array([[2.0**53 - 1, -(2.0**53 - 1)], [3.0, 0.0]])
        hit, eq = np.empty(block.shape, dtype=bool), np.empty(block.shape, dtype=bool)
        for dtype in (np.int64, object):
            far = np.array([[2**53, -2**53], [2**53 + 1, -2**53 - 1]], dtype=dtype)
            assert not _meets_a_target(block, far, hit, eq).any()
            near = np.array([[2**53 - 1, 7], [2**53 + 1, 0]], dtype=dtype)
            assert _meets_a_target(block, near, hit, eq).tolist() == [[True, False],
                                                                       [False, True]]
        # past 2^62 _exact_dual keeps its targets as Python integers
        huge = np.array([[2**53 - 1, 2**70], [2**64 + 3, 0]], dtype=object)
        assert _meets_a_target(block, huge, hit, eq).tolist() == [[True, False],
                                                                   [False, True]]

    def test_exact_dual_holds_no_survivor_x_code_table(self):
        code = e8_roots()
        dual_search(code, 5, NODES_2160)
        assert _peak_bytes(lambda: dual_search(code, 5, NODES_2160)) < 6 * 2**20

    def test_scan_holds_no_candidate_x_code_table(self):
        # 35,970 candidates x 110 points: 30 MiB of dots, and their sort
        code = _two_circles(55, 0.5)
        hits = []
        assert _peak_bytes(lambda: hits.append(brute_force_dual(code, 2))) < 12 * 2**20
        assert np.array_equal(hits[0], [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])


class TestCommonRows:
    """An exact dual carries its rows at the least common norm its
    certification proved: the rows codes.common_norm gives its points."""

    @pytest.mark.parametrize("make,m,nodes", [
        (polytope_2_41, 5, NODES_2160),
        (e8_roots, 5, NODES_2160),
        (lambda: demicube(12), 3, _NODES_D12),
        (lambda: demicube(3), 2, _NODES_TETRA),
        *((lambda d=d: cube(d), 2, None) for d in range(3, 9)),
        *((lambda d=d: cross_polytope(d), 2, None) for d in range(3, 9)),
        *((lambda d=d: demicube(d), 2, None) for d in range(5, 12)),
        (_cube3_scaled, 2, None),
        (_defect_2_41, 5, NODES_2160),
        (lambda: _SQUARE_IN_R3, 1, None),
    ], ids=["2_41", "e8", "demicube12", "tetrahedron",
            *(f"cube{d}" for d in range(3, 9)),
            *(f"cross{d}" for d in range(3, 9)),
            *(f"demicube{d}" for d in range(5, 12)),
            "cube3x2^27", "defect_2_41", "square_in_R3"])
    def test_rows_match_common_norm(self, make, m, nodes):
        res = dual_search(make(), m, nodes)
        assert res.exact and res.count
        assert list(res.common_rows) == common_norm([p.direction() for p in res.points])


class TestNegativeControl:
    """The 2160-point code with one point moved off it: the verdicts that
    hold for the code must fail."""

    def test_certificate_of_the_defect(self):
        cert = certify_stiff(_defect_2_41(), 5, NODES_2160)
        assert cert.dual.exact and cert.dual.count == 112
        assert cert.design_strength == 0 and not cert.stiff
        assert cert.frequencies_match_weights is False
        assert not cert.frequencies_constant

    def test_criterion_3_fails_on_the_defect(self, monkeypatch):
        real = suite._shared
        monkeypatch.setattr(suite, "_shared",
                            lambda name: _defect_2_41() if name == "2_41" else real(name))
        res = suite.criterion_3()
        assert not res.passed
        assert "found 112 exact dual points" in res.details
