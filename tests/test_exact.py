"""Exact scalar arithmetic: canonical surds and their total order."""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import sqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit.config import ENV_SIZE_CAP, SizeCapExceeded
from stiffkit.exact import (
    MixedRadicandError,
    Surd,
    parse_scalar,
    scalar_str,
    square_free_split,
    surd_cmp,
)


def test_square_free_split():
    assert square_free_split(0) == (1, 0)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(8) == (2, 2)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(49) == (7, 1)
    assert square_free_split(360) == (6, 10)
    f, s = square_free_split(2 * 3 * 5 * 7 * 11 * 13)
    assert f == 1 and s == 30030


def test_square_free_split_stops_at_the_size_cap(monkeypatch):
    monkeypatch.setenv(ENV_SIZE_CAP, "100")
    # every trial divisor up to 97 finishes the split
    assert square_free_split(97 * 97 * 5) == (97, 5)
    assert square_free_split(2**40 * 3) == (2**20, 3)
    assert square_free_split(101) == (1, 101)  # 11 * 11 > 101 ends the loop
    # 1009 * 1013 has no factor below 101 and is above 101^2
    for call in (lambda: square_free_split(1009 * 1013),
                 lambda: Surd(1, 1009 * 1013),
                 lambda: Surd.sqrt_of(1 + 10**34)):
        with pytest.raises(SizeCapExceeded, match="above the cap 100"):
            call()


def _square_free_split_reference(n: int) -> tuple[int, int]:
    """square_free_split as it was before it tested p before p * p."""
    from stiffkit.config import size_cap
    if n in (0, 1):
        return 1, n
    f, s, p, cap = 1, n, 2, size_cap()
    while p * p <= s:
        if p > cap:
            raise SizeCapExceeded(f"square-free split of {n} needs trial divisors "
                                  f"above the cap {cap} (raise {ENV_SIZE_CAP} to override)")
        while s % (p * p) == 0:
            s //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return f, s


def _outcome(split, n):
    try:
        return split(n)
    except SizeCapExceeded as e:
        return str(e)


def test_square_free_split_matches_the_reference(monkeypatch):
    for n in range(20001):
        assert square_free_split(n) == _square_free_split_reference(n), n
    squareful = [2**61 * 3, 3**30 * 7**4 * 11, 97**6 * 89**3 * 5, (10**6 + 3)**2 * 6,
                 999983**2 * 999979, 2**5 * 3**7 * 5**3 * 7**2 * 13]
    for n in squareful:
        assert square_free_split(n) == _square_free_split_reference(n), n
    # the same splits and the same refusals, word for word, under a small cap
    monkeypatch.setenv(ENV_SIZE_CAP, "1000")
    for n in squareful + [1009 * 1013, 1 + 10**34, 1013**2 * 2, 997**3]:
        assert _outcome(square_free_split, n) == _outcome(_square_free_split_reference, n), n


def test_normalization_pulls_out_squares():
    s = Surd(Fraction(1, 2), 8)
    assert s.coeff == Fraction(1) and s.radicand == 2
    assert Surd(Fraction(3), 1) == Fraction(3)
    # canonical zero
    z = Surd(0, 5)
    assert z.coeff == 0 and z.radicand == 1
    z2 = Surd(Fraction(7), 0)
    assert z2.coeff == 0 and z2.radicand == 1
    assert z == z2 and hash(z) == hash(z2)


def test_normalization_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(300):
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        r = rng.randint(0, 400)
        s = Surd(c, r)
        again = Surd(s.coeff, s.radicand)
        assert (again.coeff, again.radicand) == (s.coeff, s.radicand)
        # canonical invariants
        _, sf = square_free_split(s.radicand)
        assert sf == s.radicand and s.radicand >= 1
        if s.coeff == 0:
            assert s.radicand == 1
        assert abs(float(s) - float(c) * sqrt(r)) < 1e-9 * (1 + abs(float(c) * sqrt(r)))


def test_comparison_frozen_case():
    # 1/2 vs sqrt(2)/4 = 0.3535...: squares 1/4 vs 1/8
    assert surd_cmp(Surd(Fraction(1, 2)), Surd(Fraction(1, 4), 2)) == 1
    assert surd_cmp(Surd(Fraction(1, 4), 2), Surd(Fraction(1, 2))) == -1
    assert surd_cmp(Surd(Fraction(1, 2), 3), Surd(Fraction(1, 2), 3)) == 0
    # signs dominate
    assert surd_cmp(Surd(Fraction(-1, 10), 2), Surd(0)) == -1
    assert surd_cmp(Surd(0), Surd(Fraction(1, 1000), 3)) == -1


def test_comparison_agrees_with_floats_randomized():
    rng = random.Random(11)
    for _ in range(500):
        a = Surd(Fraction(rng.randint(-12, 12), rng.randint(1, 12)), rng.randint(0, 30))
        b = Surd(Fraction(rng.randint(-12, 12), rng.randint(1, 12)), rng.randint(0, 30))
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9:
            assert surd_cmp(a, b) == (1 if fa > fb else -1)
        c = surd_cmp(a, b)
        assert c == -surd_cmp(b, a)
        assert (c == 0) == (a == b)


def test_total_order_operators():
    vals = [Surd(-1, 2), Surd(Fraction(-1, 2)), Surd(0), Surd(Fraction(1, 3), 3),
            Surd(Fraction(3, 5)), Surd(1, 2), Surd(2)]
    assert sorted(vals, key=float) == sorted(vals)
    assert Surd(1, 2) > 1
    assert Surd(1, 2) < Fraction(3, 2)
    assert Surd(Fraction(2, 3)) == Fraction(2, 3)


ORDER_OPS = (operator.lt, operator.le, operator.gt, operator.ge)

_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_surds = st.builds(Surd, st.one_of(st.integers(-20, 20), _fractions),
                   st.integers(0, 200))
_scalars = st.one_of(st.integers(-20, 20), _fractions, _surds)


def _mp_value(x) -> mpmath.mpf:
    s = x if isinstance(x, Surd) else Surd(x)
    return (mpmath.mpf(s.coeff.numerator) / s.coeff.denominator
            * mpmath.sqrt(s.radicand))


@settings(max_examples=300, deadline=None)
@given(_surds, _scalars)
def test_order_agrees_with_mpmath(a, b):
    with mpmath.workdps(50):
        va, vb = _mp_value(a), _mp_value(b)
        for op in ORDER_OPS:
            assert op(a, b) == op(va, vb)
            assert op(b, a) == op(vb, va)


@settings(max_examples=100, deadline=None)
@given(_surds, st.floats(allow_nan=False))
def test_order_against_float_is_type_error(a, x):
    for op in ORDER_OPS:
        for left, right in ((a, x), (x, a)):
            with pytest.raises(TypeError) as info:
                op(left, right)
            assert "NotImplementedType" not in str(info.value)
            assert "Surd" in str(info.value) and "float" in str(info.value)
    with pytest.raises(TypeError):
        sorted([a, x])


def test_arithmetic():
    r2 = Surd(1, 2)
    assert r2 + r2 == Surd(2, 2)
    assert r2 * r2 == 2
    assert r2 * Surd(1, 3) == Surd(1, 6)
    assert (r2 / 2) * 2 == r2
    assert 1 / r2 == Surd(Fraction(1, 2), 2)
    assert r2 - r2 == 0
    assert r2 + 0 == r2 and 0 + r2 == r2
    assert Surd(1, 6) / Surd(1, 3) == r2
    assert -r2 + r2 == 0
    with pytest.raises(MixedRadicandError):
        _ = r2 + Surd(1, 3)
    with pytest.raises(MixedRadicandError):
        _ = r2 + 1


def test_sqrt_of():
    assert Surd.sqrt_of(Fraction(1, 8)) == Surd(Fraction(1, 4), 2)
    assert Surd.sqrt_of(Fraction(9, 4)) == Fraction(3, 2)
    assert Surd.sqrt_of(2) == Surd(1, 2)
    assert Surd.sqrt_of(0) == 0
    with pytest.raises(ValueError):
        Surd.sqrt_of(Fraction(-1, 4))
    s = Surd.sqrt_of(Fraction(3, 5))
    assert s * s == Fraction(3, 5)


def _equal_surd_pairs():
    """A surd and the same value written with a square k^2 in the radicand."""
    return st.builds(lambda a, k: (a, Surd(a.coeff / k, a.radicand * k * k)),
                     _surds, st.integers(1, 30))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_surds, _scalars), _equal_surd_pairs()))
def test_equality_agrees_with_surd_cmp(ab):
    a, b = ab
    want = surd_cmp(a, b) == 0
    assert (a == b) is want and (b == a) is want
    assert (a != b) is not want


def test_structural_equality_is_value_equality():
    assert Surd(Fraction(1, 2), 8) == Surd(1, 2)          # both sqrt(2)
    assert {Surd(Fraction(1, 2), 8), Surd(1, 2)} == {Surd(1, 2)}
    assert hash(Surd(Fraction(1, 2), 8)) == hash(Surd(1, 2))


def test_rendering_and_parsing_roundtrip():
    cases = [Surd(Fraction(3, 4)), Surd(-2), Surd(0), Surd(Fraction(1, 2), 2),
             Surd(Fraction(-5, 8), 3), Surd(1, 7), Surd(-1, 5)]
    for s in cases:
        assert parse_scalar(scalar_str(s)) == s
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("sqrt(2)") == Surd(1, 2)
    assert parse_scalar("-sqrt(2)") == Surd(-1, 2)
    assert parse_scalar("1/2*sqrt(8)") == Surd(1, 2)
    assert scalar_str(Fraction(1, 3)) == "1/3"
    for bad in ["", "sqrt(-1)", "1/2*", "*sqrt(2)", "one"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)
