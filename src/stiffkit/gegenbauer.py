"""Gegenbauer polynomials for the sphere S^d, normalized to P_n(1) = 1.

Everything is exact over Q: the polynomials follow a three-term recurrence,
and the moments of the projection weight w_d(t) = gamma_d * (1 - t^2)^(d/2 - 1)
on [-1, 1] a two-step one.  The roots of P_m are exact surds through m = 3,
their quadrature weights exact Fractions.  Beyond that roots and weights are
floats from one symmetric tridiagonal eigenproblem (Golub & Welsch, Math.
Comp. 23, 1969), and every root is certified by an exact sign change of P_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .exact import Scalar, Surd

CoeffLike = Union[int, Fraction]


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, ascending order."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[CoeffLike]) -> None:
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def monomial(k: int, coeff: CoeffLike = 1) -> "Polynomial":
        return Polynomial([0] * k + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: CoeffLike) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x, out=None):
        """Horner evaluation on a float or ndarray, in one accumulator.

        `out`, a float array shaped like x and not x itself, receives the
        values when given; a scalar or 0-d x gives a numpy float.
        """
        x = np.asarray(x, dtype=float)
        acc = np.empty_like(x) if out is None else out
        acc.fill(0.0)
        for c in reversed(self.coeffs):
            np.multiply(acc, x, out=acc)
            np.add(acc, float(c), out=acc)
        return acc if acc.ndim else acc[()]

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: CoeffLike) -> "Polynomial":
        return Polynomial([c / Fraction(scalar) for c in self.coeffs])

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
def moment(d: int, k: int) -> Fraction:
    """k-th moment of the normalized weight w_d on [-1, 1].

    mu_0 = 1, odd moments vanish, and integration by parts gives
    mu_k = mu_{k-2} * (k-1)/(k+d-1).
    """
    if d < 1:
        raise ValueError("sphere dimension d must be >= 1")
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k == 0:
        return Fraction(1)
    if k % 2 == 1:
        return Fraction(0)
    return moment(d, k - 2) * Fraction(k - 1, k + d - 1)


def inner(p: Polynomial, q: Polynomial, d: int) -> Fraction:
    """Inner product of two polynomials against the weight w_d."""
    total = Fraction(0)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                total += a * b * moment(d, i + j)
    return total


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
    step = Polynomial.monomial(1, 2 * n + d - 3) * gegenbauer_poly(d, n - 1)
    return (step - gegenbauer_poly(d, n - 2) * (n - 1)) / (n + d - 2)


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

    def nodes_float(self) -> tuple[float, ...]:
        return tuple(float(t) for t in self.nodes)


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
