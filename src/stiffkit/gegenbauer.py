"""Gegenbauer polynomials for the sphere S^d, normalized to P_n(1) = 1.

Everything is exact over Q: the polynomials follow a three-term recurrence,
and the moments of the projection weight w_d(t) = gamma_d * (1 - t^2)^(d/2 - 1)
on [-1, 1] a two-step one.  A polynomial is held as integer numerators over
one positive denominator, so the recurrence, evaluation at a rational a/b
(Horner on sum N_k a^k b^(n-k)) and inner products (against the moments
over their common denominator) run in Python ints and build one Fraction
each, where Fraction arithmetic would reduce a gcd after every step.

The roots of P_m are exact surds through m = 3, their quadrature weights
exact Fractions.  Beyond that roots and weights are floats from one
symmetric tridiagonal eigenproblem (Golub & Welsch, Math. Comp. 23, 1969),
and every root is certified by an exact sign change of P_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

import numpy as np

from .exact import Scalar, Surd

CoeffLike = Union[int, Fraction]


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, ascending order.

    Held as integer numerators nums over one denominator den > 0, normalized:
    gcd(den, *nums) = 1 and no trailing zero numerator (zero is (0,) over 1),
    so equal polynomials have equal fields.  Arithmetic runs on the
    numerators in Python ints; coeffs gives the Fractions.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Sequence[CoeffLike]) -> None:
        fs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        self._set([f.numerator * (den // f.denominator) for f in fs], den)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "Polynomial":
        """nums over den, den nonzero, normalized."""
        p = object.__new__(cls)
        p._set(nums, den)
        return p

    def _set(self, nums: list[int], den: int) -> None:
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        nums = nums or [0]
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(n // g for n in nums))
        object.__setattr__(self, "den", den // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def homogeneous(self, a: int, b: int) -> int:
        """Sum of nums[k] a^k b^(n-k), n the degree, by Horner in integers:
        self(a/b) times den b^n."""
        acc, bk = 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bk if c else acc * a
            bk *= b
        return acc

    def __call__(self, x: CoeffLike) -> Fraction:
        x = Fraction(x)
        b = x.denominator
        return Fraction(self.homogeneous(x.numerator, b), self.den * b**self.degree)

    def eval_float(self, x, out=None):
        """Horner evaluation on a float or ndarray, in one accumulator.

        The float coefficients are nums[k] / den, correctly rounded, as
        float(Fraction(nums[k], den)) is.  `out`, a float array shaped like
        x and not x itself, receives the values when given; a scalar or 0-d
        x gives a numpy float.
        """
        x = np.asarray(x, dtype=float)
        acc = np.empty_like(x) if out is None else out
        acc.fill(0.0)
        for c in reversed(self.nums):
            np.multiply(acc, x, out=acc)
            np.add(acc, c / self.den, out=acc)
        return acc if acc.ndim else acc[()]

    def derivative(self) -> "Polynomial":
        return Polynomial._of([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g  # self.den * fa is the lcm
        return Polynomial._of([a * fa + b * fb for a, b in
                               zip_longest(self.nums, other.nums, fillvalue=0)],
                              self.den * fa)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of([-c for c in self.nums], self.den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Polynomial._of([c * s.numerator for c in self.nums],
                                  self.den * s.denominator)
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return Polynomial._of(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: CoeffLike) -> "Polynomial":
        s = Fraction(scalar)
        if not s:
            raise ZeroDivisionError("polynomial divided by zero")
        return Polynomial._of([c * s.denominator for c in self.nums],
                              self.den * s.numerator)

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0 and self.degree > 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{k}")
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def _moment_row(d: int, k_max: int) -> tuple[tuple[int, ...], int]:
    """mu_0..mu_k_max of the normalized weight w_d on [-1, 1], as integer
    numerators over one denominator.

    mu_0 = 1, odd moments vanish, and integration by parts gives
    mu_k = mu_{k-2} * (k-1)/(k+d-1).  So with J = k_max // 2, mu_2j is
    prod_(i<=j) (2i-1) * prod_(j<i<=J) (2i+d-1) over prod_(i<=J) (2i+d-1).
    """
    if d < 1:
        raise ValueError("sphere dimension d must be >= 1")
    half = k_max // 2
    tails = [1]  # tails[J - j] = prod_(j<i<=J) (2i+d-1)
    for i in range(half, 0, -1):
        tails.append(tails[-1] * (2 * i + d - 1))
    nums, head = [], 1
    for j in range(half + 1):
        head *= max(2 * j - 1, 1)
        nums += [head * tails[half - j], 0]
    return tuple(nums[:k_max + 1]), tails[-1]


@lru_cache(maxsize=None)
def moment(d: int, k: int) -> Fraction:
    """k-th moment of the normalized weight w_d on [-1, 1]."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    nums, den = _moment_row(d, k)
    return Fraction(nums[k], den)


def inner(p: Polynomial, q: Polynomial, d: int) -> Fraction:
    """Inner product of two polynomials against the weight w_d: the sum of
    p_i q_j mu_(i+j) on the numerators, over the moments' common
    denominator; odd moments vanish, so only i + j even is summed."""
    ms, den = _moment_row(d, p.degree + q.degree)
    total = 0
    for i, a in enumerate(p.nums):
        if a:
            total += a * sum(map(mul, q.nums[i % 2::2], ms[i + i % 2::2]))
    return Fraction(total, p.den * q.den * den)


def a0(q: Polynomial, d: int) -> Fraction:
    """Mean of q over S^d (the degree-0 Gegenbauer coefficient)."""
    return inner(q, Polynomial([1]), d)


@lru_cache(maxsize=None)
def gegenbauer_poly(d: int, n: int) -> Polynomial:
    """Degree-n Gegenbauer polynomial for S^d with P_n(1) = 1, from P_0 = 1,
    P_1 = t and (n+d-2) P_n = (2n+d-3) t P_{n-1} - (n-1) P_{n-2}."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return Polynomial([1])
    if d < 1:
        raise ValueError("sphere dimension d must be >= 1")
    if n == 1:
        return Polynomial([0, 1])
    p1, p2 = gegenbauer_poly(d, n - 1), gegenbauer_poly(d, n - 2)
    g = gcd(p1.den, p2.den)
    f1, f2 = p2.den // g, p1.den // g  # p1.den * f1 is the lcm
    nums = [0] + [(2 * n + d - 3) * f1 * c for c in p1.nums]
    for k, c in enumerate(p2.nums):
        nums[k] -= (n - 1) * f2 * c
    return Polynomial._of(nums, p1.den * f1 * (n + d - 2))


@dataclass(frozen=True)
class NodeSet:
    """Roots of a Gegenbauer polynomial with their quadrature weights.

    nodes are ascending; exact means the nodes are Surd values (weights are
    then exact Fractions too).  Float nodes are exactly antisymmetric,
    t_i = -t_{m-1-i}, with symmetric weights, and each lies within 1e-14 of
    its root, certified by an exact sign change of the polynomial.
    """

    d: int
    m: int
    exact: bool
    nodes: tuple
    weights: tuple


@lru_cache(maxsize=None)
def nodes(d: int, m: int) -> NodeSet:
    """Roots of P_m^(d) and the weights a_0(phi_i) of their Lagrange basis.

    m <= 3 has surd roots for every d: {0}, {+-1/sqrt(d+1)}, and
    {0, +-sqrt(3/(d+3))}.  Beyond that the roots are not single surds in
    general; they and their weights come from _float_nodes, which raises
    ArithmeticError rather than return a root it cannot certify.  NodeSet
    is frozen, so one instance per (d, m) is cached and shared: a
    certificate's default nodes and its frequency check solve once.
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    if m == 1:
        return NodeSet(d, 1, True, (Surd(0),), (Fraction(1),))
    if m == 2:
        a = Surd.sqrt_of(Fraction(1, d + 1))
        return NodeSet(d, 2, True, (-a, a), (Fraction(1, 2), Fraction(1, 2)))
    if m == 3:
        asq = Fraction(3, d + 3)
        a = Surd.sqrt_of(asq)
        wside = moment(d, 2) / (2 * asq)
        wmid = 1 - 2 * wside
        return NodeSet(d, 3, True, (-a, Surd(0), a), (wside, wmid, wside))
    return NodeSet(d, m, False, *_float_nodes(d, m))


def _float_nodes(d: int, m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Roots of P_m^(d) and their weights by Golub-Welsch, each root certified.

    The monic orthogonal polynomials of w_d satisfy p_{n+1} = t p_n - b_n p_{n-1}
    with b_1 = 1/(d+1) and b_n = n(n+d-2)/((2n+d-1)(2n+d-3)); the eigenvalues
    of the tridiagonal matrix with off-diagonal sqrt(b_n) are the roots, and
    the squared first components of its eigenvectors the weights.  Both are
    symmetrized about 0.  Each root t must show an exact sign change of P_m
    across [t - 1e-14, t + 1e-14], the m brackets disjoint, so together they
    hold all m roots; ArithmeticError otherwise.
    """
    p = gegenbauer_poly(d, m)
    n = np.arange(2, m, dtype=float)
    b = np.concatenate(([1.0 / (d + 1)],
                        n * (n + d - 2) / ((2 * n + d - 1) * (2 * n + d - 3))))
    ts, vecs = np.linalg.eigh(np.diag(np.sqrt(b), -1))  # reads the lower triangle
    ws = vecs[0] ** 2
    ts, ws = (ts - ts[::-1]) / 2, (ws + ws[::-1]) / 2
    half = Fraction(1, 10**14)
    edges = [Fraction(t) + h for t in ts.tolist() for h in (-half, half)]
    values = [p(e) for e in edges]
    if not (all(lo * hi < 0 for lo, hi in zip(values[::2], values[1::2]))
            and all(e < f for e, f in zip(edges, edges[1:]))):
        raise ArithmeticError(f"roots of P_{m}^({d}) not certified to 1e-14")
    return tuple(ts.tolist()), tuple(ws.tolist())
