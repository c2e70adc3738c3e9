"""Potential kernels, multistart minimization, and hypothesis checks."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit import codes, config
from stiffkit.codes import (
    FloatCode,
    LatticeCode,
    LatticePoint,
    cross_polytope,
    cube,
    demicube,
    e8_roots,
    greedy_cluster,
    polytope_2_41,
    sorted_rows,
)
from stiffkit.config import BLOCK_BYTES, block_rows
from stiffkit.exact import Surd
from stiffkit.gegenbauer import Polynomial
from stiffkit.potential import (
    CLUSTER_TOL,
    DUAL_SPREAD_REL,
    GAP_FLOOR,
    Kernel,
    MinimizationReport,
    SingularEvaluation,
    UniversalMinimumReport,
    _argmin_max_dist,
    _descend,
    _evaluate,
    _fsum_rows,
    _newton_steps,
    _paired_units,
    _probe_values,
    _tangent_hessians,
    _unit_pairs,
    _unit_rows,
    minimize_potential,
    potential_eval,
    skip_one_add_two_check,
    verify_universal_minimum,
)
from stiffkit.stiffness import dual_search

NODES_241 = (
    -Surd.sqrt_of(Fraction(1, 2)),
    -Surd.sqrt_of(Fraction(1, 8)),
    Surd(0),
    Surd.sqrt_of(Fraction(1, 8)),
    Surd.sqrt_of(Fraction(1, 2)),
)


class TestKernel:
    def test_parse(self):
        k = Kernel.parse("riesz:2")
        assert k.family == "riesz" and k.param == 2
        assert Kernel.parse("gauss:1").family == "gauss"
        assert Kernel.parse("log").family == "log"

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            Kernel.parse("log:3")
        with pytest.raises((ValueError, ZeroDivisionError)):
            Kernel.parse("riesz:")
        with pytest.raises(ValueError):
            Kernel.parse("coulomb:1")
        with pytest.raises(ValueError):
            Kernel("riesz", Fraction(-1))

    def test_riesz_formula(self):
        k = Kernel.parse("riesz:2")
        # g(t) = |x-y|^(-2) = 1/(2-2t)
        for t in (-0.5, 0.0, 0.5):
            assert math.isclose(float(k.g(t)), 1.0 / (2 - 2 * t))

    def test_gauss_formula(self):
        k = Kernel.parse("gauss:3")
        for t in (-0.5, 0.0, 0.9):
            assert math.isclose(float(k.g(t)), math.exp(-3 * (2 - 2 * t)))

    def test_log_formula(self):
        k = Kernel.parse("log")
        assert math.isclose(float(k.g(0.0)), -math.log(2.0) + 2.0)

    def test_gradient_matches_finite_differences(self):
        # g' from Kernel.evaluate against central differences of g
        kernels = [Kernel.parse("riesz:1"), Kernel.parse("riesz:4"),
                   Kernel.parse("gauss:2"), Kernel.parse("log"),
                   Kernel("poly", poly=Polynomial([1, Fraction(1, 2), 0, 3]))]
        h = 1e-6
        for k in kernels:
            for t in np.linspace(-0.9, 0.9, 13):
                num = (float(k.g(t + h)) - float(k.g(t - h))) / (2 * h)
                d1 = _kernel_tables(k, t)[1][0]
                assert math.isclose(d1, num, rel_tol=1e-5, abs_tol=1e-8), k.name

    def test_second_derivative_matches_finite_differences(self):
        kernels = [Kernel.parse("riesz:1"), Kernel.parse("riesz:2"),
                   Kernel.parse("gauss:2"), Kernel.parse("log"),
                   Kernel("poly", poly=Polynomial([1, Fraction(1, 2), 0, 3]))]
        h = 1e-6
        for k in kernels:
            for t in np.linspace(-0.9, 0.9, 13):
                _, d1, d2 = _kernel_tables(k, [t - h, t, t + h])
                num = (d1[2] - d1[0]) / (2 * h)
                assert math.isclose(d2[1], num, rel_tol=1e-5, abs_tol=1e-8), k.name

    def test_kernels_increasing_in_t(self):
        # all families reward proximity: g' > 0 on (-1, 1)
        for spec in ("riesz:1", "riesz:2", "gauss:1", "log"):
            k = Kernel.parse(spec)
            assert np.all(_kernel_tables(k, np.linspace(-0.99, 0.99, 50))[1] > 0), spec

    def test_strictly_convex_families(self):
        # g, g' and g'' > 0 on (-1, 1) for riesz, gauss and log (the log
        # kernel's k-th derivative is (k-1)!/(1-t)^k), so their argmins
        # must sit on the dual; a polynomial's need not
        for spec in ("riesz:1", "riesz:2", "gauss:1", "log"):
            k = Kernel.parse(spec)
            assert k.strictly_convex_family, spec
            assert all(np.all(v > 0) for v in _kernel_tables(k, np.linspace(-0.99, 0.99, 50)))
        assert not Kernel("poly", poly=Polynomial([0, 1])).strictly_convex_family


def _kernel_tables(kernel: Kernel, t) -> tuple:
    """(g, g', g'') at each t, from Kernel.evaluate on one-column rows of
    -2t, with g' = c1 d1 and g'' = c2 d2.  The one unit is [1.0], so the
    gradient column d1 @ units is d1 itself, bit for bit."""
    x = -2.0 * np.array(t, dtype=float).reshape(-1, 1)
    scratch, grad = np.empty_like(x), np.empty_like(x)
    sums, scale = np.empty(len(x)), np.empty(len(x))
    d2, c1, c2 = kernel.evaluate(x, scratch, np.ones((1, 1)), sums, scale, grad)
    return sums, c1 * grad[:, 0], c2 * d2[:, 0]


def _g_reference(kernel: Kernel, t: np.ndarray) -> np.ndarray:
    """Reference: the allocating kernel formulas, one fresh table per step."""
    with np.errstate(divide="ignore"):
        if kernel.family == "riesz":
            return (2.0 - 2.0 * t) ** (-float(kernel.param) / 2.0)
        if kernel.family == "gauss":
            return np.exp(-float(kernel.param) * (2.0 - 2.0 * t))
        if kernel.family == "log":
            return -np.log(2.0 - 2.0 * t) + 2.0
    acc = np.zeros_like(t)
    for c in reversed(kernel.poly.coeffs):
        acc = acc * t + float(c)
    return acc


def _riesz_pow_reference(kernel: Kernel, t: np.ndarray) -> tuple:
    """Second riesz reference: (g', g'') from their own pow r^(-s/2-1)."""
    s = float(kernel.param)
    r = 2.0 - 2.0 * t
    with np.errstate(divide="ignore"):
        p = r ** (-s / 2.0 - 1.0)
    return s * p, s * (s + 2.0) * p / r


def _derivatives_reference(kernel: Kernel, t: np.ndarray) -> tuple:
    """Reference: the allocating formulas for (g', g''); riesz takes both
    from the value's pow p = r^(-s/2), as s (p/r) and s(s+2) ((p/r)/r)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if kernel.family == "riesz":
            s = float(kernel.param)
            r = 2.0 - 2.0 * t
            q = _g_reference(kernel, t) / r
            return s * q, s * (s + 2.0) * (q / r)
        if kernel.family == "gauss":
            a = float(kernel.param)
            e = np.exp(-a * (2.0 - 2.0 * t))
            return 2.0 * a * e, 4.0 * a * a * e
        if kernel.family == "log":
            d1 = 1.0 / (1.0 - t)
            return d1, d1 * d1
    p1 = kernel.poly.derivative()
    return (_g_reference(Kernel("poly", poly=p1), t),
            _g_reference(Kernel("poly", poly=p1.derivative()), t))


BLOCK_KERNELS = [Kernel.parse("riesz:1"), Kernel.parse("riesz:2"),
                 Kernel.parse("gauss:1"), Kernel.parse("log"),
                 Kernel("poly", poly=Polynomial([1, Fraction(1, 2), 0, 3]))]


class TestInPlaceKernels:
    @pytest.mark.parametrize("k", [Kernel.parse(spec) for spec in (
        "riesz:1", "riesz:2", "riesz:4", "riesz:3/2", "riesz:1/2", "gauss:1",
        "gauss:1/3", "log")] + BLOCK_KERNELS[-1:], ids=lambda k: k.name)
    def test_bit_identical_to_allocating_formulas(self, k):
        t = np.concatenate([[-1.0, 0.0, 1.0, 1.0 - 2 ** -52],
                            np.random.default_rng(1).uniform(-1, 1, 500)])
        assert np.array_equal(k.g(t), _g_reference(k, t), equal_nan=True)
        g, d1, d2 = _kernel_tables(k, t)
        r1, r2 = _derivatives_reference(k, t)
        assert np.array_equal(g, _g_reference(k, t), equal_nan=True)
        assert np.array_equal(d1, r1, equal_nan=True)
        assert np.array_equal(d2, r2, equal_nan=True)
        # a scalar takes the array path: numpy floats, the same bits
        for x in (-0.3, 0.7):
            assert type(k.g(x)) is np.float64
            assert k.g(x) == k.g(np.array([x]))[0]

    @pytest.mark.parametrize("spec", ["riesz:1/2", "riesz:1", "riesz:3/2",
                                      "riesz:2", "riesz:3", "riesz:4"])
    def test_riesz_within_4_eps_of_own_pow(self, spec):
        # g' and g'' from the value's pow, against a pow of their own
        k = Kernel.parse(spec)
        t = np.concatenate([[-1.0, 0.0, 1.0, 1.0 - 2 ** -52],
                            np.random.default_rng(2).uniform(-1, 1, 2000)])
        eps = np.finfo(float).eps
        for got, want in zip(_kernel_tables(k, t)[1:], _riesz_pow_reference(k, t)):
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite])
            assert np.all(np.abs(got[finite] - want[finite])
                          <= 4 * eps * np.abs(want[finite])), spec


class TestRowBlocks:
    """_evaluate against one unblocked table, with row counts around the
    block size b of the 2160-point code."""

    units = polytope_2_41().unit_array()
    b = block_rows(len(units))

    def _rows(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, 8))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        # code points (unit dots exactly 1 here) on both sides of a boundary
        on_code = [i for i in (0, self.b - 1, self.b, n - 1) if 0 <= i < n]
        rows[on_code] = self.units[[7 * i for i in on_code]]
        return rows, on_code

    @pytest.mark.parametrize("k", BLOCK_KERNELS, ids=lambda k: k.name)
    def test_match_unblocked_reference(self, k):
        b = self.b
        assert b >= 2
        pairs = _unit_pairs(self.units)
        for n in (0, 1, b - 1, b, b + 1, 3 * b + 5):
            rows, on_code = self._rows(n)
            table = np.clip(rows @ self.units.T, -1.0, 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                want = _g_reference(k, table).sum(axis=1)
                r1, r2 = _derivatives_reference(k, table)
                want_grad = np.array([row @ self.units for row in r1]).reshape(n, 8)
                want_pairs = np.array([row @ pairs for row in r2]).reshape(n, 36)
            got, grad, pair_sums, scale = _evaluate(rows, self.units, pairs, k)
            assert np.array_equal(got, want, equal_nan=True), n
            if k.singular_at_one:
                assert np.all(got[on_code] == np.inf), n
            assert grad.shape == (n, 8) and pair_sums.shape == (n, 36)
            assert np.array_equal(scale, np.abs(r1).sum(axis=1), equal_nan=True), n
            finite = np.isfinite(scale)
            assert np.array_equal(finite, np.all(np.isfinite(grad), axis=1))
            scale2 = np.abs(r2[finite]).sum(axis=1)[:, None]
            assert np.all(np.abs(grad[finite] - want_grad[finite])
                          <= 1e-13 * scale[finite][:, None]), n
            assert np.all(np.abs(pair_sums[finite] - want_pairs[finite])
                          <= 1e-13 * scale2), n
            if k.singular_at_one:
                assert not finite[on_code].any(), n

    def test_derivatives_memory_is_a_few_blocks(self):
        # 3400 rows, more than criterion 7's 1240 starts (1000 random, 240
        # dual points); two tables of BLOCK_BYTES, whatever the count
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(3400, 8))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        pairs = _unit_pairs(self.units)
        for k in BLOCK_KERNELS:
            tracemalloc.start()
            try:
                out = _evaluate(rows, self.units, pairs, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            returned = sum(a.nbytes for a in out)
            assert peak < 3 * BLOCK_BYTES + returned, k.name


def _evaluate_reference(rows, units, unit_pairs, kernel) -> tuple:
    """Reference: _evaluate before antipodal pairs were folded, one table
    column per code point in code order."""
    values = np.empty(len(rows))
    grad = np.empty((len(rows), units.shape[1]))
    pair_sums = np.empty((len(rows), unit_pairs.shape[1]))
    scale = np.empty(len(rows))
    size = max(1, min(len(rows), block_rows(len(units))))
    tables = np.empty((2, size, len(units)))
    gap_units = -2.0 * units
    c1 = c2 = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(rows), size):
            hi = min(lo + size, len(rows))
            table, scratch = tables[:, :hi - lo]
            np.matmul(rows[lo:hi], gap_units.T, out=table)
            d2, c1, c2 = kernel.evaluate(table, scratch, units, values[lo:hi],
                                         scale[lo:hi], grad[lo:hi])
            np.matmul(d2, unit_pairs, out=pair_sums[lo:hi])
        grad *= c1
        pair_sums *= c2
        scale *= c1
    return values, grad, pair_sums, scale


PAIRED_KERNELS = [Kernel.parse(spec) for spec in ("riesz:1", "riesz:2", "riesz:4",
                                                  "gauss:1", "log")] + BLOCK_KERNELS[-1:]


class TestPairedEvaluation:
    """The table with each exact antipodal pair read once (_paired_units)
    against the table of every code point in code order."""

    @staticmethod
    def _both(code, k, n_rows=150):
        rng = np.random.default_rng(code.size)
        rows = rng.normal(size=(n_rows, code.ambient_dim))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        full = code.unit_array()
        units, paired = _paired_units(full, code.antipode_partners())
        got = _evaluate(rows, units, _unit_pairs(units), k, paired)
        want = _evaluate_reference(rows, full, _unit_pairs(full), k)
        return rows, paired, got, want

    @pytest.mark.parametrize("code", [cube(3), cross_polytope(4), demicube(6),
                                      polytope_2_41()], ids=lambda c: c.name)
    @pytest.mark.parametrize("k", PAIRED_KERNELS, ids=lambda k: k.name)
    def test_agrees_with_one_column_per_point(self, code, k, monkeypatch):
        # 1e-12 relative: values against their magnitude, the gradient
        # against sum |g'| and the pair sums against sum |g''|; blocks of
        # 7 rows so the last one is ragged
        monkeypatch.setattr(config, "BLOCK_BYTES", 8 * 7 * code.size)
        rows, paired, got, want = self._both(code, k)
        assert paired == code.size // 2
        values, grad, pair_sums, scale = got
        assert np.all(np.abs(values - want[0]) <= 1e-12 * np.abs(want[0]))
        assert np.all(np.abs(scale - want[3]) <= 1e-12 * want[3])
        assert np.all(np.abs(grad - want[1]) <= 1e-12 * want[3][:, None])
        table = np.clip(rows @ code.unit_array().T, -1.0, 1.0)
        weight = np.abs(_derivatives_reference(k, table)[1]).sum(axis=1)[:, None]
        assert np.all(np.abs(pair_sums - want[2]) <= 1e-12 * weight)

    @pytest.mark.parametrize("k", PAIRED_KERNELS, ids=lambda k: k.name)
    def test_bit_for_bit_without_exact_pairs(self, k):
        # demicube(5) has no antipodal pair; this FloatCode's antipodes
        # are near, within its tolerance, but not exact negations
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(9, 4))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        near = FloatCode("near", 4, np.vstack([pts, -pts + 1e-14 * pts[::-1]]),
                         tolerance=1e-12)
        assert near.is_antipodal()
        for code in (demicube(5), near):
            _, paired, got, want = self._both(code, k)
            assert paired == 0
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True), (code.name, k.name)

    def test_heads_then_singles(self):
        # (2,1,0) pairs with (-2,-1,0); (0,1,2) and (0,-2,-1) are singles
        code = LatticeCode("mixed", 3, 5, ((0, 1, 2), (2, 1, 0), (0, -2, -1),
                                           (-2, -1, 0)))
        units, paired = _paired_units(code.unit_array(), code.antipode_partners())
        assert paired == 1
        assert np.array_equal(units, code.unit_array()[[1, 0, 2]])


def _expand_pairs(pairs, dim) -> np.ndarray:
    """The (rows, d, d) symmetric matrices of upper-triangle pair sums."""
    upper = np.triu_indices(dim)
    ehess = np.empty((len(pairs), dim, dim))
    ehess[:, upper[0], upper[1]] = ehess[:, upper[1], upper[0]] = pairs
    return ehess


def _newton_steps_eigh(x, egrad, pairs, tang) -> tuple:
    """Reference: the eigendecomposition step that the Cholesky one
    replaced, on the projected tangent Hessian P H P - (x.grad) P, and the
    eigenvalues of the shifted tangent Hessian."""
    dim = x.shape[1]
    ehess = _expand_pairs(pairs, dim)
    proj = np.eye(dim) - x[:, :, None] * x[:, None, :]
    radial = np.einsum("ij,ij->i", egrad, x)
    hess = proj @ ehess @ proj - radial[:, None, None] * proj
    shift = 1.0 + np.abs(hess).max(axis=(1, 2))
    hess += shift[:, None, None] * x[:, :, None] * x[:, None, :]
    lam, vec = np.linalg.eigh(hess)
    ok = lam[:, 0] > 0
    coef = np.einsum("kji,kj->ki", vec[ok], tang[ok]) / lam[ok]
    step = np.zeros_like(x)
    step[ok] = -np.einsum("kij,kj->ki", vec[ok], coef)
    return step, ok, lam


@st.composite
def _tangent_hessian_cases(draw):
    """Rows (x, egrad, pairs, tang) in dimension 3, 8 or 24 whose tangent
    Hessians are, row by row, positive definite, indefinite, or have
    lambda_min = +-1e-10 |H| for the norm |H| of the shifted matrix that
    _newton_steps factors (shift 1 + the largest entry, along x)."""
    dim = draw(st.sampled_from((3, 8, 24)))
    kinds = draw(st.lists(st.sampled_from(("pd", "indefinite", "+1e-10", "-1e-10")),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        x = rng.normal(size=dim)
        x /= np.linalg.norm(x)
        basis = np.linalg.qr(np.column_stack([x, rng.normal(size=(dim, dim - 1))]))[0][:, 1:]
        lam = 10.0 ** rng.uniform(-2, 2) * rng.uniform(0.1, 1.0, dim - 1)
        if kind == "indefinite":
            lam[: rng.integers(1, dim)] *= -1.0
        else:
            lam[0] = 0.0
        tangent = basis @ np.diag(lam) @ basis.T
        if kind != "indefinite":
            norm = max(1.0 + np.abs(tangent).max(), lam.max())
            lam0 = {"pd": rng.uniform(0.01, 1.0), "+1e-10": 1e-10,
                    "-1e-10": -1e-10}[kind] * norm
            tangent += lam0 * np.outer(basis[:, 0], basis[:, 0])
        radial = rng.normal() * lam.max()
        tang = basis @ rng.normal(size=dim - 1)
        ehess = tangent + radial * (np.eye(dim) - np.outer(x, x))
        rows.append((x, tang + radial * x, ehess[np.triu_indices(dim)], tang))
    return tuple(np.array(a) for a in zip(*rows))


class TestNewtonSteps:
    @settings(max_examples=150, deadline=None)
    @given(_tangent_hessian_cases())
    def test_cholesky_matches_eigh(self, case):
        step, ok = _newton_steps(*case)
        want, want_ok, lam = _newton_steps_eigh(*case)
        norm = np.abs(lam).max(axis=1)
        clear = np.abs(lam[:, 0]) > 1e-8 * norm
        assert np.array_equal(ok[clear], want_ok[clear])
        assert np.all(step[~ok] == 0.0) and np.all(np.isfinite(step[ok]))
        # 1e-10 relative, widened by the round-off that both solves carry
        # along the eigenvector of lambda_min, eps times the condition number
        both = ok & want_ok
        cond = norm[both] / lam[both, 0]
        bound = (1e-10 + 64 * np.finfo(float).eps * cond) * np.linalg.norm(want[both], axis=1)
        assert np.all(np.linalg.norm(step[both] - want[both], axis=1) <= bound)

    @pytest.mark.parametrize("dim", [3, 8, 24])
    def test_rank_two_update_matches_projection(self, dim):
        # H - w x^T - x w^T - gamma I against P H P - gamma P, P = I - x x^T,
        # on the lower triangle that _tangent_hessians forms
        rng = np.random.default_rng(dim)
        rows = 50
        x = rng.normal(size=(rows, dim))
        x /= np.linalg.norm(x, axis=1)[:, None]
        egrad = rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        m = rng.normal(size=(rows, dim, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, 1, 1))
        ehess = m + m.transpose(0, 2, 1)
        upper, lower = np.triu_indices(dim), np.tril_indices(dim)
        pairs = ehess[:, upper[0], upper[1]]
        proj = np.eye(dim) - x[:, :, None] * x[:, None, :]
        gamma = np.einsum("ij,ij->i", egrad, x)
        want = proj @ ehess @ proj - gamma[:, None, None] * proj
        got = _tangent_hessians(x, egrad, pairs).transpose(2, 0, 1)
        err = np.abs(got[:, lower[0], lower[1]]
                     - want[:, lower[0], lower[1]]).max(axis=1)
        norm = np.maximum(np.abs(ehess).max(axis=(1, 2)), np.abs(gamma))
        assert np.all(err <= 1e-13 * norm)


class TestPotentialEval:
    def test_demicube5_closed_form(self):
        # 16 points split 8/8 on the two dot values +-1/sqrt(5)
        val = potential_eval(np.array([1.0, 0, 0, 0, 0]), demicube(5),
                             Kernel.parse("riesz:2"))
        s5 = 5 ** 0.5
        expected = 8 / (2 - 2 / s5) + 8 / (2 + 2 / s5)
        assert math.isclose(val, expected, rel_tol=1e-14)
        assert math.isclose(val, 10.0, rel_tol=1e-14)

    def test_gauss_at_code_point(self):
        val = potential_eval(np.array([1.0, 0, 0]), cross_polytope(3),
                             Kernel.parse("gauss:1"))
        expected = 1.0 + math.exp(-4.0) + 4 * math.exp(-2.0)
        assert math.isclose(val, expected, rel_tol=1e-14)

    def test_singular_at_code_point(self):
        with pytest.raises(SingularEvaluation):
            potential_eval(np.array([1.0, 0, 0]), cross_polytope(3),
                           Kernel.parse("riesz:2"))
        with pytest.raises(SingularEvaluation):
            potential_eval(np.array([1.0, 0, 0]), cross_polytope(3),
                           Kernel.parse("log"))

    def test_antipodal_symmetry(self):
        k = Kernel.parse("gauss:1")
        z = np.array([0.3, -0.5, 0.4, 0.2])
        z /= np.linalg.norm(z)
        a = potential_eval(z, cross_polytope(4), k)
        b = potential_eval(-z, cross_polytope(4), k)
        assert math.isclose(a, b, rel_tol=1e-13)

    def test_design_invariance_low_degree_poly(self):
        # a cubic potential is constant over the sphere for any 3-design
        k = Kernel("poly", poly=Polynomial([2, 1, Fraction(1, 3), Fraction(1, 7)]))
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(8):
            z = rng.normal(size=4)
            vals.append(potential_eval(z / np.linalg.norm(z), cross_polytope(4), k))
        assert max(vals) - min(vals) < 1e-12

    def test_rejects_non_unit_probe(self):
        with pytest.raises(ValueError):
            potential_eval(np.array([1.0, 1.0, 0.0]), cross_polytope(3),
                           Kernel.parse("gauss:1"))


class TestProbeValues:
    def test_matches_potential_eval(self):
        rng = np.random.default_rng(7)
        kernels = [Kernel.parse(spec) for spec in ("riesz:1", "riesz:2",
                                                    "gauss:1", "log")]
        kernels.append(Kernel("poly", poly=Polynomial([1, Fraction(1, 2), 0, 3])))
        for code in (cross_polytope(4), demicube(5), polytope_2_41()):
            units = code.unit_array()
            probes = rng.normal(size=(16, code.ambient_dim))
            probes /= np.linalg.norm(probes, axis=1)[:, None]
            probes = np.vstack([probes, -units[:3] + 1e-3])
            probes /= np.linalg.norm(probes, axis=1)[:, None]
            for k in kernels:
                # potential_eval rescales each probe as _unit_rows does
                vals = _probe_values(_unit_rows(probes), units, k)
                assert vals == [potential_eval(p, code, k) for p in probes], k.name

    def test_singular_on_code_point(self):
        probes = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularEvaluation):
            _probe_values(probes, cross_polytope(3).unit_array(),
                          Kernel.parse("riesz:1"))


def _probe_values_reference(probes, units, kernel) -> list[float]:
    """Reference: one matrix-vector product and one math.fsum per unit
    probe."""
    out = []
    for p in probes:
        dots = np.clip(units @ p, -1.0, 1.0)
        if kernel.singular_at_one and np.any(dots >= 1.0 - 1e-12):
            raise SingularEvaluation(kernel.name)
        out.append(math.fsum(kernel.g(dots).tolist()))
    return out


class TestProbeBlocks:
    @pytest.mark.parametrize("k", BLOCK_KERNELS, ids=lambda k: k.name)
    def test_bit_for_bit_with_one_fsum_per_probe(self, k, monkeypatch):
        # unit probes in blocks of 7, the last one ragged
        rng = np.random.default_rng(9)
        for code in (cross_polytope(4), demicube(5), polytope_2_41()):
            units = code.unit_array()
            probes = _unit_rows(rng.normal(size=(23, code.ambient_dim)) * 3.0)
            with monkeypatch.context() as mp:
                mp.setattr(config, "BLOCK_BYTES", 8 * 7 * code.size)
                got = _probe_values(probes, units, k)
            assert got == _probe_values_reference(probes, units, k), (code.name, k.name)

    def test_memory_is_two_tables(self):
        # 4096 probes of the 2160-point code: two tables of BLOCK_BYTES, the
        # returned list and a block's row vectors, not a 4096 x 2160 table
        # (70.8 MB)
        units = polytope_2_41().unit_array()
        probes = _unit_rows(np.random.default_rng(1).normal(size=(4096, 8)))
        for k in (Kernel.parse("riesz:2"), BLOCK_KERNELS[-1]):
            tracemalloc.start()
            try:
                out = _probe_values(probes, units, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out) == 4096
            assert peak < 2 * BLOCK_BYTES + BLOCK_BYTES // 2, (k.name, peak)


@st.composite
def _fsum_tables(draw):
    """Tables of 0-4 rows and 0-40 columns: finite floats of any exponent
    (subnormals and values near the overflow threshold included), values
    scaled to one exponent range, and values that cancel exactly."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 40))
    floats = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-300, 1e-300),
        st.floats(1.0, 2.0).map(lambda x: x * 2.0 ** 1020),
        st.integers(-2**53, 2**53).map(float))
    table = np.array(draw(st.lists(floats, min_size=rows * cols,
                                   max_size=rows * cols)), dtype=float)
    table = table.reshape(rows, cols)
    if rows and cols > 1 and draw(st.booleans()):
        table[:, cols // 2:2 * (cols // 2)] = -table[:, :cols // 2]
        table = table[:, np.random.default_rng(cols).permutation(cols)]
    return table


class TestFsumRows:
    @settings(max_examples=200, deadline=None)
    @given(_fsum_tables())
    def test_bit_for_bit_with_fsum(self, table):
        want = []
        for row in table.tolist():
            try:
                want.append(math.fsum(row).hex())
            except OverflowError:
                want.append("overflow")
        rows_ok = [w != "overflow" for w in want]
        got = _fsum_rows(table[rows_ok].copy(), np.empty_like(table[rows_ok]))
        assert [v.hex() for v in got] == [w for w in want if w != "overflow"]
        if not all(rows_ok):
            with pytest.raises(OverflowError):
                _fsum_rows(table.copy(), np.empty_like(table))

    def test_lengths_zero_and_one_and_non_finite_rows(self):
        assert _fsum_rows(np.empty((3, 0)), np.empty((3, 0))) == [0.0] * 3
        one = np.array([[5e-324], [-0.0], [1.7e308], [-3.5]])
        assert _fsum_rows(one.copy(), np.empty_like(one)) == [5e-324, 0.0, 1.7e308, -3.5]
        inf = float("inf")
        rows = np.array([[inf, 1.0], [1.0, 2.0 ** -60]])
        assert _fsum_rows(rows, np.empty_like(rows)) == [inf, 1.0]
        with pytest.raises(ValueError):
            both = np.array([[inf, -inf]])
            _fsum_rows(both, np.empty_like(both))


class TestUnitRows:
    @pytest.mark.parametrize("dim", [1, 3, 8, 24, 200])
    def test_bit_for_bit_with_the_row_loop(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.normal(size=(300, dim)) * 10.0 ** rng.uniform(-150, 150, size=(300, 1))
        want = np.asarray([p / np.linalg.norm(p) for p in rows])
        assert np.array_equal(_unit_rows(rows), want)


def _cluster_loop(points: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the greedy loop, one norm per (point, representative)."""
    reps = []
    for p in points:
        if all(np.linalg.norm(p - r) > tol for r in reps):
            reps.append(p)
    return np.asarray(reps).reshape(-1, points.shape[1])


@st.composite
def _planted_points(draw):
    """Unit points plus near-duplicates, each within a factor 4 of
    CLUSTER_TOL of an earlier point (chains included), shuffled."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(draw(st.integers(1, 6)), dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    for f in draw(st.lists(st.floats(0.25, 4.0), max_size=40)):
        u = rng.normal(size=dim)
        src = pts[rng.integers(len(pts))]
        pts = np.vstack([pts, src + f * CLUSTER_TOL * u / np.linalg.norm(u)])
    return pts[rng.permutation(len(pts))]


class TestGreedyCluster:
    @settings(max_examples=300, deadline=None)
    @given(_planted_points())
    def test_matches_pairwise_loop(self, pts):
        got = greedy_cluster(pts, CLUSTER_TOL)
        want = _cluster_loop(pts, CLUSTER_TOL)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_empty(self):
        assert greedy_cluster(np.zeros((0, 3)), CLUSTER_TOL).shape == (0, 3)

    def test_thousands_of_points_on_two_minima(self, monkeypatch):
        # 3000 points within a quarter of CLUSTER_TOL of one of two minima:
        # the work is bounded by points x representatives, not by the
        # square of a cluster's size, so the default size cap never bites
        monkeypatch.delenv("STIFFKIT_SIZE_CAP", raising=False)
        rng = np.random.default_rng(7)
        centers = np.eye(8)[:2]
        u = rng.normal(size=(3000, 8))
        u *= 0.25 * CLUSTER_TOL / np.linalg.norm(u, axis=1)[:, None]
        pts = centers[rng.integers(0, 2, size=3000) * (np.arange(3000) > 0)] + u
        got = greedy_cluster(pts, CLUSTER_TOL)
        assert np.array_equal(got, _cluster_loop(pts, CLUSTER_TOL))
        assert len(got) == 2


def _cluster_passes(points: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the greedy rule as one distance pass per representative
    (greedy_cluster before its sweeps), fast enough for thousands of
    representatives where _cluster_loop takes minutes."""
    keep = []
    rest = np.arange(len(points))
    while len(rest):
        r, rest = rest[0], rest[1:]
        keep.append(r)
        rest = rest[np.linalg.norm(points[rest] - points[r], axis=1) > tol]
    return points[np.array(keep, dtype=np.intp)]


class TestClusterSweeps:
    def test_thousands_of_representatives(self, monkeypatch):
        # 8192 points, pairwise farther than the tolerance, in 64 chunks of
        # 128 (d = 8): every point is its own representative
        monkeypatch.delenv("STIFFKIT_SIZE_CAP", raising=False)
        pts = codes.random_units(5, 8192, 8)
        got = greedy_cluster(pts, CLUSTER_TOL)
        assert np.array_equal(got, pts)
        assert np.array_equal(got, _cluster_passes(pts, CLUSTER_TOL))
        head = pts[:300]
        assert np.array_equal(greedy_cluster(head, CLUSTER_TOL),
                              _cluster_loop(head, CLUSTER_TOL))

    def test_chunks_fit_a_small_size_cap(self, monkeypatch):
        # under a cap of 100 candidates the chunks hold 10 points, so 600
        # points on three minima cluster without raising SizeCapExceeded
        monkeypatch.setenv("STIFFKIT_SIZE_CAP", "100")
        rng = np.random.default_rng(3)
        u = rng.normal(size=(600, 4))
        u *= 0.3 * CLUSTER_TOL / np.linalg.norm(u, axis=1)[:, None]
        pts = np.eye(4)[:3][rng.integers(0, 3, size=600)] + u
        got = greedy_cluster(pts, CLUSTER_TOL)
        assert np.array_equal(got, _cluster_loop(pts, CLUSTER_TOL))
        assert len(got) == 3


class TestMinimize:
    def test_demicube5_riesz2(self):
        rep = minimize_potential(demicube(5), Kernel.parse("riesz:2"),
                                 restarts=120, seed=3,
                                 dual=dual_search(demicube(5), 2).as_code())
        assert math.isclose(rep.global_min_value, 10.0, rel_tol=1e-12)
        assert rep.gap >= GAP_FLOOR
        # ten argmin clusters: the signed basis vectors
        assert len(rep.argmin_cluster) == 10
        for p in rep.argmin_cluster:
            assert abs(np.abs(p).max() - 1.0) < 1e-6

    @pytest.mark.parametrize("code", [demicube(5), demicube(6), cross_polytope(4)],
                             ids=lambda c: c.name)
    def test_argmins_in_sorted_rows_order(self, code):
        # coordinates that are zero up to noise must not decide the order,
        # as they do under a raw lexsort of these clusters
        dual = dual_search(code, 2).as_code()
        for spec in ("riesz:1", "riesz:2", "gauss:1"):
            rep = minimize_potential(code, Kernel.parse(spec), restarts=200, seed=0, dual=dual)
            assert len(rep.argmin_cluster) == dual.size, spec
            assert np.array_equal(rep.argmin_cluster, sorted_rows(rep.argmin_cluster)), spec

    def test_report_json(self):
        # the dual-free multistart reports its passes and Newton steps; the
        # verdict's JSON is the one JSON form of a multistart
        rep = minimize_potential(cross_polytope(3), Kernel.parse("gauss:1"),
                                 restarts=20, seed=0)
        assert (rep.code_name, rep.kernel, rep.restarts, rep.seed) == (
            "cross_polytope(3)", "gauss:1", 20, 0)
        assert 1 <= rep.iterations <= 600
        assert 0 < rep.n_newton_steps
        assert rep.dual_value is None and rep.gap is None
        dual = dual_search(cross_polytope(3), 2).as_code()
        (urep,) = verify_universal_minimum(cross_polytope(3), 2, dual,
                                           [Kernel.parse("riesz:1")],
                                           restarts=20, seed=0)
        ublob = urep.to_json_dict()
        # all six code antipodes are code points, so none is a start
        assert ublob["n_singular_starts"] == 0
        assert ublob["n_antipode_starts"] == 0
        assert ublob["n_failed"] == 0

    def test_seeded_starts(self, monkeypatch):
        # the random starts are random_units(seed, restarts, d), which
        # test_random_units_are_seeded_unit_rows pins; the code's antipodes
        # follow them
        import stiffkit.potential as potential
        seen = []

        def stop(units, unit_pairs, kernel, x0, *rest):
            seen.append(x0)
            raise StopIteration

        monkeypatch.setattr(potential, "_descend", stop)
        code = demicube(5)
        with pytest.raises(StopIteration):
            minimize_potential(code, Kernel.parse("gauss:1"), restarts=30, seed=4)
        (x0,) = seen
        assert np.array_equal(x0[:30], codes.random_units(4, 30, 5))
        assert np.array_equal(x0[30:], -code.unit_array())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            minimize_potential(cross_polytope(3), Kernel.parse("gauss:1"),
                               restarts=4, seed=-1)

    def test_float_drift_past_one_is_singular(self):
        # demicube(6)'s unit dots with its own points round to 1 + ulp in
        # places; clipped, every code point evaluates to +inf, never NaN
        units = demicube(6).unit_array()
        for spec in ("riesz:1", "riesz:2", "riesz:4"):
            out = _evaluate(units, units, _unit_pairs(units), Kernel.parse(spec))
            assert np.all(out[0] == np.inf), spec
            assert not any(np.isnan(v).any() for v in out), spec
            rep = minimize_potential(demicube(6), Kernel.parse(spec),
                                     restarts=200, seed=0)
            assert rep.n_singular_starts == rep.n_antipode_starts == 0, spec
            assert rep.n_failed == 0, spec

    def test_singular_starts_dropped_before_descent(self, monkeypatch):
        # with every code antipode started, demicube(6)'s 32 antipodes are
        # its own points: minimize_potential drops and counts them, and
        # keeps the dual starts behind them marked as dual
        monkeypatch.setattr(LatticeCode, "antipode_mask",
                            lambda self: np.zeros(self.size, dtype=bool))
        for spec in ("riesz:1", "riesz:2", "riesz:4"):
            rep = minimize_potential(demicube(6), Kernel.parse(spec),
                                     restarts=50, seed=0, dual=cross_polytope(6))
            assert rep.n_antipode_starts == rep.n_singular_starts == 32, spec
            assert rep.n_failed == 0 and rep.n_converged == 50 + 12, spec
            for key in ("global_min_value", "dual_value", "gap", "dual_spread_rel"):
                assert math.isfinite(getattr(rep, key)), (spec, key)
            assert np.isfinite(rep.argmin_cluster).all(), spec

    def test_gap_counts_unconverged_starts(self, monkeypatch):
        # after one iteration the unconverged starts already sit below the
        # wrong dual's value
        import stiffkit.potential as potential
        monkeypatch.setattr(potential, "MAX_ITER", 1)
        wrong = LatticeCode("wrong", 4, 2, [(1, 1, 0, 0)])
        rep = minimize_potential(cross_polytope(4), Kernel.parse("gauss:1"),
                                 restarts=200, seed=0, dual=wrong)
        assert rep.iterations == 1
        assert rep.gap < GAP_FLOOR

    def test_newton_converges_near_dual(self, monkeypatch):
        import stiffkit.potential as potential
        monkeypatch.setattr(potential, "MAX_ITER", 8)
        code, k = demicube(5), Kernel.parse("riesz:2")
        p = dual_search(code, 2).unit_points()[0]
        start = p + 1e-3 * np.linspace(-1.0, 1.0, 5)
        start /= np.linalg.norm(start)
        units = code.unit_array()
        pairs = _unit_pairs(units)
        x, _, conv, iterations, newton = _descend(
            units, pairs, k, start[None, :],
            _evaluate(start[None, :], units, pairs, k))
        assert conv[0] and iterations <= 8 and newton >= 1
        grad = _kernel_tables(k, units @ x[0])[1] @ units
        tang = grad - (grad @ x[0]) * x[0]
        assert np.linalg.norm(tang) < 1e-10
        assert np.linalg.norm(x[0] - p) < 1e-8

    def test_2160_riesz2_all_starts_converge(self):
        rep = minimize_potential(polytope_2_41(), Kernel.parse("riesz:2"),
                                 restarts=50, seed=0)
        assert rep.n_failed == 0
        assert rep.n_converged == 50

    def test_determinism(self):
        a = minimize_potential(cross_polytope(3), Kernel.parse("riesz:1"),
                               restarts=30, seed=11)
        b = minimize_potential(cross_polytope(3), Kernel.parse("riesz:1"),
                               restarts=30, seed=11)
        assert a.global_min_value == b.global_min_value
        assert np.array_equal(a.argmin_cluster, b.argmin_cluster)


class TestStartBlocks:
    """minimize_potential descends consecutive blocks of starts, each as
    large as keeps one Newton stack within 4 BLOCK_BYTES."""

    @staticmethod
    def _recorded(mp, run):
        """run() and the outputs of each _descend call it made."""
        import stiffkit.potential as potential
        calls, descend = [], potential._descend

        def spy(*args):
            calls.append(descend(*args))
            return calls[-1]

        mp.setattr(potential, "_descend", spy)
        rep = run()
        mp.setattr(potential, "_descend", descend)
        return rep, calls

    def test_blocks_give_one_batch_bit_for_bit(self, monkeypatch):
        # cross_polytope(12) with every code antipode started: 50 random
        # starts, 24 antipodes (singular for riesz) and 11 cube vertices as
        # dual points, in one block and in 5 blocks of 20 that mix all three
        # kinds.  Each block's rows are evaluated in one table of the
        # patched BLOCK_BYTES (30 rows of the 24-point code).  The equality
        # rests on the BLAS giving each row of these small products the
        # same bits whatever rows share it; a one-row product, which NumPy
        # hands to gemv, rounds differently, and with blocks of 7 one start
        # of this case moves by 8.9e-16
        import stiffkit.potential as potential
        monkeypatch.setattr(LatticeCode, "antipode_mask",
                            lambda self: np.zeros(self.size, dtype=bool))
        code = cross_polytope(12)
        dual = FloatCode("cube(12)[::400]", 12, cube(12).unit_array()[::400])
        for spec in ("riesz:1", "gauss:1"):
            run = lambda: minimize_potential(code, Kernel.parse(spec),
                                             restarts=50, seed=2, dual=dual)
            one, (whole,) = self._recorded(monkeypatch, run)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(config, "BLOCK_BYTES", 20 * 8 * 12 * 12 // 4)
                many, calls = self._recorded(mp, run)
            assert len(calls) == 5, spec
            for k in range(3):
                assert np.array_equal(np.concatenate([c[k] for c in calls]),
                                      whole[k]), (spec, k)
            assert many.iterations == max(c[3] for c in calls) == one.iterations
            assert many.n_newton_steps == sum(c[4] for c in calls) == one.n_newton_steps
            assert many.n_singular_starts == (24 if spec == "riesz:1" else 0)
            for f in fields(MinimizationReport):
                a, b = getattr(many, f.name), getattr(one, f.name)
                if f.name == "argmin_cluster":
                    assert np.array_equal(a, b), spec
                else:
                    assert a == b, (spec, f.name)

    def test_descent_memory_does_not_grow_with_the_starts(self, monkeypatch):
        # cross_polytope(12) in blocks of 227 starts: the traced peak of 4
        # blocks stays within half a Newton stack of one block's, since only
        # the kept points, values and flags grow with the start count
        monkeypatch.setattr(config, "BLOCK_BYTES", 1 << 16)
        size = block_rows(12 * 12, 4)
        code, k = cross_polytope(12), Kernel.parse("riesz:1")
        minimize_potential(code, k, restarts=2, seed=0)
        peaks = []
        for blocks in (1, 4):
            tracemalloc.start()
            try:
                rep = minimize_potential(code, k, restarts=blocks * size, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.n_converged == blocks * size
        assert peaks[1] < peaks[0] + size * 12 * 12 * 8 // 2, peaks


class TestAntipodeStarts:
    """A code antipode that is itself a code point is not a start."""

    @pytest.mark.parametrize("code", [cross_polytope(3), demicube(6),
                                      polytope_2_41()], ids=lambda c: c.name)
    def test_antipodal_codes_start_no_antipode(self, code):
        rep = minimize_potential(code, Kernel.parse("gauss:1"), restarts=5, seed=0)
        assert rep.n_antipode_starts == 0
        assert rep.n_converged + rep.n_failed == 5

    def test_demicube5_keeps_all_16(self):
        rep = minimize_potential(demicube(5), Kernel.parse("riesz:2"),
                                 restarts=5, seed=0)
        assert rep.n_antipode_starts == 16
        assert rep.n_singular_starts == 0
        assert rep.n_converged + rep.n_failed == 21
        dual = dual_search(demicube(5), 2).as_code()
        (urep,) = verify_universal_minimum(demicube(5), 2, dual, [Kernel.parse("riesz:2")],
                                           restarts=5, seed=0)
        assert urep.to_json_dict()["n_antipode_starts"] == 16

    def test_partly_antipodal_float_code(self):
        # 6 generic points, the antipodes of the first two, and the antipode
        # of the third moved by 1e-13, inside FloatCode's 10x tolerance
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(6, 4))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        near = -pts[2] + 1e-13 * np.array([1.0, -1.0, 0.0, 0.0])
        code = FloatCode("part", 4, np.vstack([pts, -pts[:2], near]))
        assert list(code.antipode_mask()) == [True] * 3 + [False] * 3 + [True] * 3
        assert not code.is_antipodal()
        rep = minimize_potential(code, Kernel.parse("riesz:1"), restarts=4, seed=0)
        assert rep.n_antipode_starts == 3
        assert rep.n_singular_starts == 0


def _argmin_dist_loop(argmins, dual_units) -> float:
    """Reference: one full row of distances per argmin."""
    if not len(argmins):
        return float("inf")
    return max(float(np.linalg.norm(dual_units - p, axis=1).min()) for p in argmins)


class TestArgminDistance:
    @settings(max_examples=200, deadline=None)
    @given(_planted_points(), st.integers(0, 2**32 - 1), st.sampled_from((1e-5, 1e-4)))
    def test_sweep_matches_the_row_loop(self, pts, seed, tol):
        # planted near-duplicates of the dual as argmins, some farther than
        # tol from every dual point, some random rows, some exact copies
        rng = np.random.default_rng(seed)
        dual = pts[: max(1, len(pts) // 2)]
        picks = dual[rng.integers(len(dual), size=rng.integers(0, 6))]
        offsets = rng.normal(size=picks.shape)
        offsets *= (rng.choice([0.0, 0.5, 2.0, 1e3], size=len(picks)) * tol
                    / np.linalg.norm(offsets, axis=1))[:, None]
        far = rng.normal(size=(rng.integers(0, 3), dual.shape[1]))
        argmins = np.vstack([picks + offsets, far, pts[len(dual):]])
        assert _argmin_max_dist(argmins, dual, tol) == _argmin_dist_loop(argmins, dual)

    def test_far_argmin_and_empty(self):
        dual = np.eye(4)
        argmins = np.array([[1.0, 1e-7, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]])
        got = _argmin_max_dist(argmins, dual, 1e-5)
        assert got == _argmin_dist_loop(argmins, dual) == np.linalg.norm(argmins[1] - dual[2])
        assert _argmin_max_dist(argmins[:1], dual, 1e-5) == 1e-7
        assert _argmin_max_dist(np.zeros((0, 4)), dual, 1e-5) == float("inf")


class TestUniversalMinimum:
    def test_cross4_with_true_dual(self):
        dual = dual_search(cross_polytope(4), 2).as_code()
        reps = verify_universal_minimum(
            cross_polytope(4), 2, dual,
            [Kernel.parse("riesz:1"), Kernel.parse("gauss:1")],
            restarts=60, seed=0)
        for rep in reps:
            assert rep.passed, rep.kernel
            assert rep.dual_spread_rel <= 1e-9
            assert rep.gap >= -1e-8
            assert rep.equality_rel <= 1e-9

    def test_dual_potentials_taken_once_per_kernel(self, monkeypatch):
        import stiffkit.potential as potential

        calls = []
        real = potential._probe_values

        def counted(probes, units, kernel):
            calls.append(kernel.name)
            return real(probes, units, kernel)

        monkeypatch.setattr(potential, "_probe_values", counted)
        dual = dual_search(cross_polytope(4), 2).as_code()
        reps = verify_universal_minimum(
            cross_polytope(4), 2, dual,
            [Kernel.parse("riesz:1"), Kernel.parse("gauss:1")],
            restarts=20, seed=0)
        assert calls == ["riesz:1", "gauss:1"]
        assert all(rep.passed for rep in reps)

    def test_minimization_report_carries_the_dual_spread(self):
        dual = dual_search(cross_polytope(4), 2).as_code()
        (rep,) = verify_universal_minimum(cross_polytope(4), 2, dual,
                                          [Kernel.parse("gauss:1")], restarts=20, seed=0)
        out = rep.to_json_dict()
        assert out["dual_spread_rel"] == rep.dual_spread_rel <= 1e-9
        assert list(out).index("dual_spread_rel") == list(out).index("dual_value") + 1

    def test_zero_dual_value(self):
        # q(t) = t sums to 0 over an antipodal code, so every value is 0
        dual = LatticeCode("pair", 3, 3, [(1, 1, 1), (-1, -1, -1)])
        (rep,) = verify_universal_minimum(
            cross_polytope(3), 2, dual,
            [Kernel("poly", poly=Polynomial([0, 1]))], restarts=20, seed=0)
        assert rep.dual_value == 0.0
        assert rep.dual_spread_rel == 0.0
        assert rep.equality_rel <= 1e-12
        assert rep.passed

    def test_spread_with_zero_mean_fails(self):
        # t^3 on the tetrahedron is +-8/9 at the two probes: mean 0, not constant
        dual = LatticeCode("pair", 3, 3, [(1, 1, 1), (-1, -1, -1)])
        (rep,) = verify_universal_minimum(
            demicube(3), 2, dual,
            [Kernel("poly", poly=Polynomial([0, 0, 0, 1]))], restarts=20, seed=0)
        assert math.isclose(rep.dual_spread_rel, 16 / 9, rel_tol=1e-12)
        assert not rep.passed

    def test_verdict_extends_the_multistart_report(self):
        # a direct call reads the same dual rows, so it sees the same starts
        code = demicube(5)
        dual = dual_search(code, 2).as_code()
        kernels = [Kernel.parse("riesz:1"), Kernel.parse("gauss:1")]
        reps = verify_universal_minimum(code, 2, dual, kernels, restarts=40, seed=3)
        own = [f.name for f in fields(UniversalMinimumReport)]
        assert own[-3:] == ["equality_rel", "argmin_max_dist", "passed"]
        assert own[:-3] == [f.name for f in fields(MinimizationReport)]
        for k, (kernel, rep) in enumerate(zip(kernels, reps)):
            assert isinstance(rep, MinimizationReport)
            direct = minimize_potential(code, kernel, restarts=40, seed=3 + k, dual=dual)
            assert np.array_equal(rep.argmin_cluster, direct.argmin_cluster)
            assert (rep.iterations, rep.n_newton_steps) == (direct.iterations,
                                                            direct.n_newton_steps)
            assert (rep.seed, rep.restarts) == (3 + k, 40)
            assert list(rep.to_json_dict()) == [
                "code", "kernel", "dual_value", "dual_spread_rel", "global_min_value",
                "gap", "equality_rel", "argmin_max_dist", "n_converged", "n_failed",
                "n_singular_starts", "n_antipode_starts", "restarts", "seed", "passed"]

    def test_one_set_of_dual_rows(self, monkeypatch):
        # the m-check's rows, the dual values' probes and the argmin
        # distance's rows are one _unit_rows(dual.unit_array()); a second
        # normalization would move every one of cube(7)'s 128 rows
        import stiffkit.potential as potential
        want = _unit_rows(cube(7).unit_array())
        again = _unit_rows(want)
        assert all(not np.array_equal(a, b) for a, b in zip(again, want))
        seen = []
        probe_values, argmin_max_dist = potential._probe_values, potential._argmin_max_dist

        def probes(rows, units, kernel):
            seen.append(("probes", rows))
            return probe_values(rows, units, kernel)

        def argmins(found, rows, tol):
            seen.append(("argmins", rows))
            return argmin_max_dist(found, rows, tol)

        monkeypatch.setattr(potential, "_probe_values", probes)
        monkeypatch.setattr(potential, "_argmin_max_dist", argmins)
        reps = verify_universal_minimum(
            cross_polytope(7), 2, cube(7),
            [Kernel.parse("riesz:1"), Kernel.parse("gauss:1")], restarts=20, seed=0)
        assert all(rep.passed for rep in reps)
        assert [name for name, _ in seen] == ["probes", "argmins"] * 2
        for name, rows in seen:
            assert np.array_equal(rows, want), name

    def test_dual_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            verify_universal_minimum(cross_polytope(4), 2, cube(3),
                                     [Kernel.parse("gauss:1")], restarts=4)

    @pytest.mark.parametrize("spec", ["riesz:1", "gauss:1", "log"])
    def test_half_dual_fails_on_the_argmins_alone(self, spec):
        # demicube(4) is half of cross_polytope(4)'s 16-point dual cube(4):
        # the potential is constant on it, nothing beats it and its dots
        # with the code are +-1/2, but the argmins also sit on the other
        # half, a distance 1 away, and every strictly convex family must
        # see that
        code, half = cross_polytope(4), demicube(4)
        (rep,) = verify_universal_minimum(code, 2, half, [Kernel.parse(spec)],
                                          restarts=200, seed=0)
        assert set((half.unit_array() @ code.unit_array().T).ravel()) == {-0.5, 0.5}
        assert rep.dual_spread_rel <= DUAL_SPREAD_REL
        assert rep.gap >= GAP_FLOOR
        assert rep.argmin_max_dist > 1e-5
        assert not rep.passed

    def test_wrong_dual_fails(self):
        wrong = LatticeCode("wrong", 4, 2, [(1, 1, 0, 0)])
        reps = verify_universal_minimum(
            cross_polytope(4), 2, wrong, [Kernel.parse("riesz:1")],
            restarts=40, seed=0)
        assert not reps[0].passed
        assert reps[0].gap < -1e-6


class TestSkipOneAddTwo:
    def test_241_hypotheses_exact(self):
        rep = skip_one_add_two_check(polytope_2_41(), 5, NODES_241)
        assert rep.index_ok
        assert rep.index_missing == ()
        assert rep.sum_ok and rep.sumsq_ok
        assert rep.sum_value == "0"
        assert rep.sumsq_value == "5/4"
        assert rep.bound_value == "15/8"
        assert math.isclose(rep.sumsq_margin, 0.625)
        assert rep.all_ok

    def test_241_witness_candidates(self):
        root = LatticePoint((2, 2, 0, 0, 0, 0, 0, 0), 8)
        rep = skip_one_add_two_check(polytope_2_41(), 5, NODES_241,
                                     candidates=[root])
        assert rep.witness_ok is True
        bogus = LatticePoint((1, 0, 0, 0, 0, 0, 0, 0), 1)
        rep2 = skip_one_add_two_check(polytope_2_41(), 5, NODES_241,
                                      candidates=[bogus])
        assert rep2.witness_ok is False
        assert not rep2.all_ok

    def test_witnesses_against_a_float_code(self):
        code = FloatCode("float_demicube5", 5, demicube(5).unit_array())
        nodes = (-Surd.sqrt_of(Fraction(1, 5)), Surd.sqrt_of(Fraction(1, 5)))
        for cand, ok in ((LatticePoint((1, 0, 0, 0, 0), 1), True),
                         (LatticePoint((1, 1, 0, 0, 0), 2), False),
                         (np.array([0.0, 0.0, -2.0, 0.0, 0.0]), True),
                         (np.array([1.0, 1.0, 0.0, 0.0, 0.0]), False)):
            rep = skip_one_add_two_check(code, 2, nodes, candidates=[cand])
            assert rep.witness_ok is ok, cand

    def test_demicube5_fails_index(self):
        nodes = (-Surd.sqrt_of(Fraction(1, 5)), Surd.sqrt_of(Fraction(1, 5)))
        rep = skip_one_add_two_check(demicube(5), 2, nodes)
        assert not rep.index_ok
        assert 4 in rep.index_missing
        assert not rep.all_ok

    def test_validation(self):
        with pytest.raises(ValueError):
            skip_one_add_two_check(cube(3), 1, [Surd(0)])
        with pytest.raises(ValueError):
            skip_one_add_two_check(cube(3), 2, [Surd(0)])
        with pytest.raises(ValueError):
            skip_one_add_two_check(cube(3), 2, [Surd(Fraction(1, 2)), Surd(0)])
        with pytest.raises(ValueError):
            skip_one_add_two_check(cube(3), 2, [Surd(0), Surd(2)])


class TestE8AsDualOf241:
    def test_potential_constant_on_roots(self):
        code = polytope_2_41()
        k = Kernel.parse("gauss:1")
        vals = [potential_eval(p, code, k) for p in e8_roots().unit_array()[:12]]
        assert max(vals) - min(vals) < 1e-9 * abs(vals[0])


@pytest.mark.parametrize("rows", [None, 7], ids=["default_blocks", "blocks_of_7"])
def test_m_check_reads_the_last_ragged_block(rows):
    # demicube(5)'s dual, the 10 points +-e_i, then e_1 turned 1e-6 rad
    # towards e_2: its dots with the code take 4 values about 9e-7 apart,
    # more than m = 2, while its potential is the dual value to about 1e-12
    # relative, so only the m-check can fail; in blocks of 7 dual rows the
    # turned row is the last of the ragged last block of 4
    code = demicube(5)
    dual = dual_search(code, 2).as_code()
    eps = 1e-6
    planted = FloatCode("planted", 5, np.vstack([dual.unit_array(),
                                                 [math.cos(eps), math.sin(eps), 0, 0, 0]]))
    kernels = [Kernel.parse("riesz:1")]
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            mp.setattr(config, "BLOCK_BYTES", 8 * rows * code.size)
        good = verify_universal_minimum(code, 2, dual, kernels, restarts=20)
        bad = verify_universal_minimum(code, 2, planted, kernels, restarts=20)
    assert good[0].passed
    assert not bad[0].passed
    assert bad[0].dual_spread_rel <= DUAL_SPREAD_REL and bad[0].gap >= GAP_FLOOR
    assert bad[0].argmin_max_dist <= 1e-5
