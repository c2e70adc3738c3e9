"""Gegenbauer machinery against independent quadrature and classical families."""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import zip_longest
from math import cos, gcd, pi
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit import gegenbauer
from stiffkit.exact import Surd
from stiffkit.gegenbauer import (
    Polynomial,
    a0,
    gegenbauer_poly,
    inner,
    moment,
    nodes,
)

mpmath.mp.dps = 40


def _moment_quad(d: int, k: int) -> mpmath.mpf:
    w = lambda t: (1 - t**2) ** (mpmath.mpf(d) / 2 - 1)
    z = mpmath.quad(w, [-1, 1])
    return mpmath.quad(lambda t: t**k * w(t), [-1, 1]) / z


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8])
def test_moments_match_quadrature(d):
    for k in range(0, 9):
        exact = moment(d, k)
        oracle = _moment_quad(d, k)
        assert abs(float(exact) - float(oracle)) < 1e-12


def test_moment_frozen_values():
    assert moment(2, 2) == Fraction(1, 3)
    assert moment(1, 2) == Fraction(1, 2)
    assert moment(3, 2) == Fraction(1, 4)
    assert moment(2, 4) == Fraction(1, 5)
    assert moment(7, 2) == Fraction(1, 8)
    assert moment(4, 3) == 0
    assert moment(1, 0) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_low_degree_closed_forms(d):
    assert gegenbauer_poly(d, 0) == Polynomial([1])
    assert gegenbauer_poly(d, 1) == Polynomial([0, 1])
    # P_2 = ((d+1) t^2 - 1)/d
    assert gegenbauer_poly(d, 2) == Polynomial([Fraction(-1, d), 0, Fraction(d + 1, d)])


def _gram_schmidt_polys(d: int, n_max: int) -> list[Polynomial]:
    """P_0..P_n_max by Gram-Schmidt of 1, t, t^2, ..., each scaled to P_n(1) = 1."""
    out: list[Polynomial] = []
    for n in range(n_max + 1):
        q = Polynomial([0] * n + [1])
        for p in out:
            q = q - p * (inner(q, p, d) / inner(p, p, d))
        out.append(q / q(1))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 20, 21, 24])
def test_recurrence_matches_gram_schmidt(d):
    for n, want in enumerate(_gram_schmidt_polys(d, 14)):
        assert gegenbauer_poly(d, n) == want, n


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_orthogonality_and_normalization(d):
    polys = [gegenbauer_poly(d, n) for n in range(7)]
    for n, p in enumerate(polys):
        assert p(1) == 1
        assert p.degree == n
        for q in polys[:n]:
            assert inner(p, q, d) == 0
        assert inner(p, p, d) > 0


def test_chebyshev_special_case():
    # d = 1 gives Chebyshev polynomials of the first kind
    for n in range(1, 8):
        p = gegenbauer_poly(1, n)
        for x in [-0.9, -0.3, 0.1, 0.77]:
            assert abs(p.eval_float(x) - cos(n * mpmath.acos(x))) < 1e-12


def test_legendre_special_case():
    # d = 2 gives Legendre polynomials
    for n in range(1, 8):
        p = gegenbauer_poly(2, n)
        for x in [-0.8, -0.25, 0.4, 0.95]:
            assert abs(p.eval_float(x) - float(mpmath.legendre(n, x))) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 7])
def test_general_gegenbauer_special_case(d):
    lam = mpmath.mpf(d - 1) / 2
    for n in range(1, 7):
        p = gegenbauer_poly(d, n)
        norm = mpmath.gegenbauer(n, lam, 1)
        for x in [-0.6, 0.15, 0.83]:
            oracle = mpmath.gegenbauer(n, lam, x) / norm
            assert abs(p.eval_float(x) - float(oracle)) < 1e-12


def test_a0_is_mean_value():
    q = Polynomial([Fraction(2), Fraction(-1), Fraction(0), Fraction(5), Fraction(1)])
    for d in (2, 4):
        oracle = sum(Fraction(c) * moment(d, k) for k, c in enumerate(q.coeffs))
        assert a0(q, d) == oracle
    assert a0(Polynomial([0, 1]), 3) == 0
    assert a0(Polynomial([1]), 5) == 1


def test_polynomial_ops():
    p = Polynomial([1, 2])          # 1 + 2t
    q = Polynomial([0, 0, 3])       # 3t^2
    assert (p * q).coeffs == (Fraction(0), Fraction(0), Fraction(3), Fraction(6))
    assert (p + q).degree == 2
    assert (p - p).degree == 0 and (p - p)(5) == 0
    assert p(Fraction(1, 2)) == 2
    assert q.derivative() == Polynomial([0, 6])
    assert Polynomial([0] * 3 + [1])(2) == 8


def _horner_allocating(p: Polynomial, x):
    """Reference: Horner with a fresh accumulator per step."""
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def test_eval_float_in_place_is_bit_identical():
    rng = np.random.default_rng(4)
    table = np.clip(rng.uniform(-1.2, 1.2, (7, 30)), -1.0, 1.0)
    for p in [gegenbauer_poly(7, n) for n in range(11)] + [Polynomial([0])]:
        want = _horner_allocating(p, table)
        assert np.array_equal(p.eval_float(table), want)
        out = np.full_like(table, np.nan)
        assert p.eval_float(table, out=out) is out
        assert np.array_equal(out, want)
        for x in (0.3, -1.0, np.float64(0.77), np.array(-0.41)):
            got = p.eval_float(x)
            assert type(got) is np.float64
            assert got == _horner_allocating(p, x)


def test_nodes_exact_small_m():
    ns = nodes(4, 1)
    assert ns.exact and ns.nodes == (Surd(0),) and ns.weights == (Fraction(1),)

    ns = nodes(4, 2)
    assert ns.exact
    a = Surd.sqrt_of(Fraction(1, 5))
    assert ns.nodes == (-a, a)
    assert ns.weights == (Fraction(1, 2), Fraction(1, 2))

    ns = nodes(7, 2)
    assert ns.nodes == (-Surd.sqrt_of(Fraction(1, 8)), Surd.sqrt_of(Fraction(1, 8)))

    ns = nodes(2, 3)
    assert ns.exact
    a = Surd.sqrt_of(Fraction(3, 5))
    assert ns.nodes == (-a, Surd(0), a)
    assert sum(ns.weights) == 1
    # weights integrate t^2 and t^4 correctly (degree-5 exactness)
    for k in (2, 4):
        assert sum(w * (t * t).as_fraction() ** (k // 2)
                   for w, t in zip(ns.weights, ns.nodes)) == moment(2, k)


@pytest.mark.parametrize("d,m", [(1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (7, 5)])
def test_nodes_float_are_roots_with_good_weights(d, m):
    ns = nodes(d, m)
    assert not ns.exact
    p = gegenbauer_poly(d, m)
    ts = tuple(float(t) for t in ns.nodes)
    assert len(ts) == m and sorted(ts) == list(ts)
    for t in ts:
        assert abs(p.eval_float(t)) < 1e-11
    if d == 1:
        # closed form cos((2i-1)pi/2m), descending i
        expected = sorted(cos((2 * i - 1) * pi / (2 * m)) for i in range(1, m + 1))
        for got, want in zip(ts, expected):
            assert abs(got - want) < 1e-14
    # quadrature with these weights reproduces moments up to degree 2m-1
    ws = [float(w) for w in ns.weights]
    assert abs(sum(ws) - 1) < 1e-12
    for k in range(1, 2 * m):
        approx = sum(w * t**k for w, t in zip(ws, ts))
        assert abs(approx - float(moment(d, k))) < 1e-11


def test_float_roots_certified_by_exact_signs():
    # exact sign changes straddle each reported float root
    d, m = 3, 5
    p = gegenbauer_poly(d, m)
    for t in (float(t) for t in nodes(d, m).nodes):
        lo, hi = Fraction(t - 1e-13), Fraction(t + 1e-13)
        assert (p(lo) < 0) != (p(hi) < 0)


@pytest.mark.parametrize("d,m", [(7, 16), (23, 20), (23, 30)])
def test_float_weights_reproduce_moments(d, m):
    # the quadrature error of the float nodes and weights themselves,
    # summed exactly; the smallest weight at (23, 30) is about 4e-11
    ns = nodes(d, m)
    ts = [Fraction(t) for t in ns.nodes]
    ws = [Fraction(w) for w in ns.weights]
    for k in range(2 * m):
        approx = sum(w * t**k for w, t in zip(ws, ts))
        assert abs(approx - moment(d, k)) < 1e-14, k


@pytest.mark.parametrize("d,m", [(1, 7), (2, 4), (3, 9), (7, 16), (23, 30), (5, 33)])
def test_float_nodes_symmetric_and_certified(d, m):
    ns = nodes(d, m)
    ts, ws = ns.nodes, ns.weights
    assert ts == tuple(-t for t in reversed(ts))
    assert ws == tuple(reversed(ws))
    if m % 2:
        assert ts[m // 2] == 0.0
    p = gegenbauer_poly(d, m)
    half = Fraction(1, 10**14)
    edges = [Fraction(t) + s for t in ts for s in (-half, half)]
    assert edges == sorted(edges) and len(set(edges)) == 2 * m  # disjoint brackets
    for lo, hi in zip(edges[::2], edges[1::2]):
        assert p(lo) * p(hi) < 0


def _scaled(ts):
    # every nonzero root moves out of its bracket (a plain shift would
    # cancel in the symmetrization)
    return ts * (1 + 1e-12)


def _doubled(ts):
    # the two outermost roots on each side coincide: both brackets hold a
    # sign change, but they overlap, so the second root is not shown
    ts = ts.copy()
    ts[1], ts[-2] = ts[0], ts[-1]
    return ts


@pytest.mark.parametrize("spoil", [_scaled, _doubled])
def test_uncertified_roots_raise(spoil):
    eigh = np.linalg.eigh

    def spoiled(a):
        ts, vecs = eigh(a)
        return spoil(ts), vecs

    with mock.patch.object(gegenbauer.np.linalg, "eigh", spoiled):
        with pytest.raises(ArithmeticError):
            gegenbauer._float_nodes(7, 6)


@pytest.mark.parametrize("d,m", [(1, 1), (3, 2), (7, 3), (1, 4), (7, 6)])
def test_each_node_set_is_solved_once(monkeypatch, d, m):
    nodes.cache_clear()
    calls = []
    real = gegenbauer._float_nodes
    monkeypatch.setattr(gegenbauer, "_float_nodes",
                        lambda *args: calls.append(args) or real(*args))
    assert nodes(d, m) is nodes(d, m)
    assert calls == ([] if m <= 3 else [(d, m)])


def test_many_nodes_are_fast():
    start = time.perf_counter()
    ns = nodes(7, 50)
    assert time.perf_counter() - start < 5.0
    assert len(ns.nodes) == 50 and not ns.exact


# Plain-Fraction reference for the integer representation: coefficient
# lists, ascending, with today's Horner and double loop.

def _ref_trim(cs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in cs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) or (Fraction(0),)


def _ref_add(a, b):
    return _ref_trim([x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0))])


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_call(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_inner(a, b, d):
    return sum((x * y * moment(d, i + j) for i, x in enumerate(a) for j, y in enumerate(b)),
               Fraction(0))


def _ref_gegenbauer(d, n):
    """(n+d-2) P_n = (2n+d-3) t P_{n-1} - (n-1) P_{n-2} on Fraction lists."""
    p2, p1 = (Fraction(1),), (Fraction(0), Fraction(1))
    if n == 0:
        return p2
    for k in range(2, n + 1):
        step = [Fraction(0)] + [(2 * k + d - 3) * c for c in p1]
        prev = [-(k - 1) * c for c in p2]
        p2, p1 = p1, tuple(c / (k + d - 2) for c in _ref_add(step, prev))
    return p1


_rationals = st.one_of(st.integers(-(10**20), 10**20),
                       st.fractions(max_denominator=10**9).filter(lambda f: abs(f) < 10**6))
_coeffs = st.lists(st.one_of(st.just(0), st.integers(-50, 50),
                             st.fractions(min_value=-100, max_value=100, max_denominator=1000)),
                   max_size=8)


def _assert_normalized(p: Polynomial):
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert p.nums[-1] != 0 or p.nums == (0,)


@settings(max_examples=200, deadline=None)
@given(_coeffs, _coeffs, _rationals, _rationals, st.integers(1, 12))
def test_integer_representation_matches_fraction_reference(a, b, s, x, d):
    p, q = Polynomial(a), Polynomial(b)
    ra, rb = _ref_trim(a), _ref_trim(b)
    assert p.coeffs == ra and q.coeffs == rb
    results = {
        "+": (p + q, _ref_add(ra, rb)),
        "-": (p - q, _ref_add(ra, [-c for c in rb])),
        "neg": (-p, _ref_trim([-c for c in ra])),
        "*": (p * q, _ref_mul(ra, rb)),
        "*s": (p * s, _ref_trim([c * s for c in ra])),
        "s*": (s * p, _ref_trim([s * c for c in ra])),
        "d/dt": (p.derivative(), _ref_trim([k * c for k, c in enumerate(ra)][1:] or [0])),
    }
    if s:
        results["/s"] = (p / s, _ref_trim([c / Fraction(s) for c in ra]))
    for op, (got, want) in results.items():
        _assert_normalized(got)
        assert got.coeffs == want, op
        assert got == Polynomial(want) and hash(got) == hash(Polynomial(want)), op
    assert p(x) == _ref_call(ra, x) and type(p(x)) is Fraction
    assert inner(p, q, d) == _ref_inner(ra, rb, d)
    assert a0(p, d) == _ref_inner(ra, [Fraction(1)], d)
    assert str(p) == str(Polynomial(list(ra)))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Polynomial([1, 2]) / 0
    with pytest.raises(ZeroDivisionError):
        Polynomial([0]) / Fraction(0)


@pytest.mark.parametrize("d", range(1, 13))
def test_recurrence_matches_fraction_reference(d):
    for n in range(15):
        p = gegenbauer_poly(d, n)
        _assert_normalized(p)
        assert p.coeffs == _ref_gegenbauer(d, n), n


@settings(max_examples=200, deadline=None)
@given(st.one_of(_coeffs.map(Polynomial),
                 st.lists(st.fractions(-1, 1, max_denominator=2**80), max_size=8).map(Polynomial),
                 st.tuples(st.integers(1, 30), st.integers(0, 40)).map(
                     lambda dn: gegenbauer_poly(*dn))),
       st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=40))
def test_eval_float_matches_fraction_coefficient_horner(p, xs):
    # float coefficients nums[k] / den round as float(Fraction) does, also
    # past 2**53, where float(nums[k]) / float(den) would round twice
    table = np.array(xs)
    assert np.array_equal(p.eval_float(table), _horner_allocating(p, table))
    for x in xs[:3]:
        assert p.eval_float(x) == _horner_allocating(p, x)
