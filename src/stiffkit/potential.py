"""Pairwise potentials on the sphere: evaluation, minimization, verification.

verify_universal_minimum takes its dual candidates as a code and runs
minimize_potential once per kernel with the dual's points among the
starts; the m-check, the dual starts, the dual values and the argmin
distances all read one set of rows, _unit_rows(dual.unit_array()).  Its
UniversalMinimumReport is that MinimizationReport plus the equality with
the dual value, the worst argmin distance to the dual and the verdict,
and its JSON, the verdict's keys, is the one JSON form of a multistart.
minimize_potential also runs alone, without a dual, and returns the bare
MinimizationReport.

Kernels are functions of the dot product t with g(x.y) = f(|x-y|^2), so
|x-y|^2 = 2-2t.  Minimization is multistart descent on the unit sphere:
seeded random starts (codes.random_unit_blocks: gauss draws from one
stdlib random.Random), the code antipodes that are not themselves code
points (an antipodal code has none; the report counts them as
n_antipode_starts) and any supplied dual candidates, drawn, evaluated and
descended in consecutive numpy batches of as many starts as keep one
Newton stack within 4 BLOCK_BYTES, then clustered together.  Each
iteration takes a safeguarded Riemannian Newton step where the tangent
Hessian is positive definite and falls back to an adaptive gradient step
where it is not; a start stops when its tangential gradient reaches
GRAD_TOL or the round-off floor of the gradient sum (see _descend), or
after MAX_ITER iterations.  The Newton step forms the tangent Hessians as
a rank-two update of the pair sums in one entry-major (d, d, rows) stack
and factors them in place by Cholesky, batched over rows; its pivots are
all positive exactly where the tangent Hessian is positive definite, and
a row with a pivot <= 0 takes the gradient step.

A point is evaluated once per step: _evaluate gives its potential,
gradient, Hessian pair sums and sum |g'| from one dot table and one pow or
exp per entry (Kernel.evaluate), and an accepted trial point keeps them
for the next iteration.  The table reads each exact antipodal pair of the
code once (_paired_units): one product with -2 times one point of each
pair and the unpaired points, then that product's paired columns negated
for the antipodes, and the derivative tables are folded onto the paired
points before their products with the code (_fold).  Each derivative is a
table and a constant, g' = c1 d1 and g'' = c2 d2, so the constants scale
the small row sums instead of whole tables: riesz makes 7 passes over a
table, gauss 5.  _evaluate runs over blocks of as many rows as fill one
table of BLOCK_BYTES; its two tables are allocated once per call and
reused block after block, so the descent holds at most two tables of
BLOCK_BYTES and one Newton stack of 4 BLOCK_BYTES whatever the start
count.

The dual values are math.fsum's correctly rounded sums of the kernel
values (_probe_values, _fsum_rows), and the argmins are clustered by
codes.greedy_cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Optional, Sequence

import numpy as np

from .codes import (Code, LatticePoint, close_pairs, dot_blocks, greedy_cluster,
                    random_unit_blocks, sorted_rows)
from .config import block_rows, check_size
from .design import index_set, spectrum
from .exact import Scalar, Surd, scalar_str
from .gegenbauer import Polynomial
from .stiffness import _at_most_m_distinct

GRAD_TOL = 1e-10
CLUSTER_TOL = 1e-6
MAX_ITER = 600
# longest step, in radians, that one descent iteration may take
TRUST_RADIUS = 0.25
# converged when |grad| <= max(GRAD_TOL, ROUNDOFF_FACTOR * eps * sum |g'(x.u_i)|)
ROUNDOFF_FACTOR = 64
# verify_universal_minimum: the largest relative spread of the potential over
# the dual, and the least gap a descended start may leave below the dual value
DUAL_SPREAD_REL = 1e-9
GAP_FLOOR = -1e-8


class SingularEvaluation(ArithmeticError):
    """The kernel is infinite at a dot product of 1 (probe on a code point)."""


@dataclass(frozen=True)
class Kernel:
    """Potential kernel g(t); family decides the formula.

    riesz:    g(t) = (2-2t)^(-s/2)      = |x-y|^(-s)
    gauss:    g(t) = exp(-rate*(2-2t))  = exp(-rate*|x-y|^2)
    log:      g(t) = -log(2-2t) + 2
    poly:     g(t) = q(t) for a rational-coefficient polynomial q
    """

    family: str
    param: Optional[Fraction] = None
    poly: Optional[Polynomial] = None

    def __post_init__(self) -> None:
        if self.family not in ("riesz", "gauss", "log", "poly"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family in ("riesz", "gauss"):
            if self.param is None or self.param <= 0:
                raise ValueError(f"{self.family} kernel needs a positive parameter")
        if self.family == "poly" and self.poly is None:
            raise ValueError("poly kernel needs a polynomial")

    @staticmethod
    def parse(spec: str) -> "Kernel":
        """Parse 'riesz:2', 'gauss:1', or 'log'."""
        head, _, tail = spec.partition(":")
        head = head.strip().lower()
        if head == "riesz":
            return Kernel("riesz", Fraction(tail))
        if head in ("gauss", "gaussian"):
            return Kernel("gauss", Fraction(tail))
        if head == "log":
            if tail:
                raise ValueError("log kernel takes no parameter")
            return Kernel("log")
        raise ValueError(f"cannot parse kernel spec {spec!r}")

    @property
    def name(self) -> str:
        if self.family in ("riesz", "gauss"):
            return f"{self.family}:{self.param}"
        if self.family == "poly":
            return f"poly[{self.poly}]"
        return self.family

    @property
    def singular_at_one(self) -> bool:
        return self.family in ("riesz", "log")

    @property
    def strictly_convex_family(self) -> bool:
        """Families with all derivatives positive: argmins must sit on the dual."""
        return self.family in ("riesz", "gauss", "log")

    def g(self, t, out=None):
        """Kernel values; callers clip t to [-1, 1], and t = 1 gives +inf
        for the singular families, which callers treat as singular.  A
        scalar or 0-d t gives a numpy float.  `out`, a float array shaped
        like t and not t itself, receives the values when given.
        """
        t = np.asarray(t, dtype=float)
        if self.family == "poly":
            return self.poly.eval_float(t, out=out)
        w = np.empty_like(t) if out is None else out
        np.multiply(t, 2.0, out=w)
        self._of_gap(np.subtract(2.0, w, out=w), w)
        return w if w.ndim else w[()]

    def _of_gap(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """g as a function of r = 2-2t = |x-y|^2, written into out (which
        may be r); not for poly."""
        with np.errstate(divide="ignore"):
            if self.family == "riesz":
                return np.power(r, -float(self.param) / 2.0, out=out)
            if self.family == "gauss":
                np.multiply(r, -float(self.param), out=out)
                return np.exp(out, out=out)
            np.log(r, out=out)
            return np.subtract(2.0, out, out=out)

    def evaluate(self, table: np.ndarray, scratch: np.ndarray, units: np.ndarray,
                 sums: np.ndarray, scale: np.ndarray, grad: np.ndarray,
                 paired: int = 0) -> tuple:
        """Row sums of g into `sums` and of |d1| into `scale`, the folded
        d1 @ units into `grad`, then (folded d2, c1, c2) with g' = c1 d1
        and g'' = c2 d2 elementwise.

        table holds -2t, unclipped, and is overwritten; scratch is a buffer
        of its size.  Both hold the dots of len(sums) rows in two parts
        (_parts): the columns of the n = len(units) units, then `paired`
        columns that negate the first `paired`, the antipodes of those
        units.  Every elementwise pass runs once over the whole buffer; the
        products take the n folded columns (_fold).  d1 and d2 are these
        two buffers, d2 written over r once d1 is formed, and the
        constants c are floats, so the caller scales row sums of d rather
        than whole tables.  r = clip(2 - 2t, 0, 4) equals the
        2 - 2 clip(t, -1, 1) of Kernel.g bit for bit, so the sums of g are
        the values Kernel.g gives on clipped dots.  From one pow or exp:
        riesz d1 = p/r and d2 = d1/r with p = r^(-s/2), c1 = s,
        c2 = s(s+2); gauss d1 = d2 = e = exp(-a r), c1 = 2a, c2 = 4a^2,
        its d1 folded into scratch; log d1 = 1/r, d2 = d1 d1, c1 = 2,
        c2 = 4.  Every family but poly has d1 > 0.  poly keeps t in table
        for p''(t), so its folded d1 goes into the antipode part of table
        (restored after by one negation) and |d1| is taken in place once
        the products are taken.
        """
        rows, n = len(sums), len(units)
        tab, scr = _parts(table, rows, n, paired), _parts(scratch, rows, n, paired)
        if self.family == "poly":
            t = np.multiply(table, -0.5, out=table)
            np.clip(t, -1.0, 1.0, out=t)
            self.poly.eval_float(t, out=scratch)
            _row_sums(scr, sums)
            p1 = self.poly.derivative()
            p1.eval_float(t, out=scratch)
            np.matmul(scr[0][:, paired:], units[paired:], out=grad)
            if paired:
                heads = np.subtract(scr[0][:, :paired], scr[1], out=tab[1])
                grad += heads @ units[:paired]
                np.negative(tab[0][:, :paired], out=tab[1])
            np.abs(scratch, out=scratch)
            _row_sums(scr, scale)
            p1.derivative().eval_float(t, out=scratch)
            return _fold(scr, np.add), 1.0, 1.0
        r = np.add(table, 2.0, out=table)
        np.clip(r, 0.0, 4.0, out=r)
        if self.family == "gauss":
            self._of_gap(r, r)
            _row_sums(tab, sums)
            scale[:] = sums
            np.matmul(_fold(tab, np.subtract, scr), units, out=grad)
            rate = float(self.param)
            return _fold(tab, np.add), 2.0 * rate, 4.0 * rate * rate
        self._of_gap(r, scratch)
        _row_sums(scr, sums)
        if self.family == "riesz":
            s = float(self.param)
            np.divide(scratch, r, out=scratch)
            _row_sums(scr, scale)
            np.divide(scratch, r, out=r)
            c1, c2 = s, s * (s + 2.0)
        else:
            with np.errstate(divide="ignore"):
                np.divide(1.0, r, out=scratch)
            _row_sums(scr, scale)
            np.multiply(scratch, scratch, out=r)
            c1, c2 = 2.0, 4.0
        # d1 in scratch, d2 in table
        np.matmul(_fold(scr, np.subtract), units, out=grad)
        return _fold(tab, np.add), c1, c2


def _parts(buf: np.ndarray, rows: int, n: int, paired: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """A block buffer of dots as views of its two contiguous tables: the
    rows x n columns of the units, then the rows x paired columns of the
    antipodes of the first `paired` units.  With no pairs the first is the
    whole buffer in the (rows, n) layout of one row-major table."""
    flat = buf.reshape(-1)
    cut = rows * n
    return flat[:cut].reshape(rows, n), flat[cut:].reshape(rows, paired)


def _row_sums(parts: tuple[np.ndarray, np.ndarray], out: np.ndarray) -> None:
    """Each row's sum over both tables of a block buffer (_parts), into
    out; with no pairs, one pairwise sum per row of a plain table."""
    parts[0].sum(axis=1, out=out)
    if parts[1].size:
        out += parts[1].sum(axis=1)


def _fold(parts: tuple[np.ndarray, np.ndarray], op,
          out: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """The units' table of a derivative buffer (_parts), each of its first
    `paired` columns combined by op with its antipode's column: over a
    pair u, -u, sum_i g'(x.u_i) u_i takes (g'(x.u) - g'(-x.u)) u and
    sum_i g''(x.u_i) u_i u_i^T takes (g''(x.u) + g''(-x.u)) u u^T.
    Written into the units' table of out (default the buffer itself)."""
    units_part, antipodes = parts
    paired = antipodes.shape[1]
    if not paired:
        return units_part
    dest = units_part if out is None else out[0]
    if out is not None and paired < units_part.shape[1]:
        dest[:, paired:] = units_part[:, paired:]
    op(units_part[:, :paired], antipodes, out=dest[:, :paired])
    return dest


def potential_eval(x, code: Code, kernel: Kernel) -> float:
    """Potential of the code at one sphere point, rescaled to norm 1 once
    its norm is within 1e-9 of 1: math.fsum's correctly rounded value of
    the kernel values (_probe_values)."""
    vec = x.unit() if isinstance(x, LatticePoint) else np.asarray(x, dtype=float)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("probe point is not on the unit sphere")
    return _probe_values((vec / norm)[None, :], code.unit_array(), kernel)[0]


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its norm, bit for bit row / np.linalg.norm(row):
    the squared norms are one stacked vector-vector np.matmul, which numpy
    takes through the same dot as the ndarray.dot that np.linalg.norm of
    one row calls."""
    sq = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0]
    return rows / np.sqrt(sq, out=sq)


def _probe_values(probes: np.ndarray, units: np.ndarray,
                  kernel: Kernel) -> list[float]:
    """Potential at each probe, a unit row taken as given: math.fsum's
    correctly rounded value of the kernel values over the unit code
    table, the value potential_eval gives.

    The probes run in blocks of config.block_rows(len(units)) rows, on two
    tables allocated once per call.  A block's dot table is one stacked
    np.matmul of units with the probe columns, which numpy takes one
    matrix-vector product per probe, so each row is the units @ probe of
    one probe alone; then one clip, one singular test and the kernel
    values into the second table, whose rows _fsum_rows sums with the
    first as scratch."""
    n = len(units)
    size = max(1, min(len(probes), block_rows(n)))
    tables = np.empty((2, size, n))
    out: list[float] = []
    for lo in range(0, len(probes), size):
        block = probes[lo:lo + size]
        dots, values = tables[:, :len(block)]
        np.matmul(units, block[:, :, None], out=dots[:, :, None])
        np.clip(dots, -1.0, 1.0, out=dots)
        if kernel.singular_at_one and np.any(dots >= 1.0 - 1e-12):
            raise SingularEvaluation(
                f"{kernel.name} is singular: probe coincides with a code point"
            )
        out += _fsum_rows(kernel.g(dots, out=values), dots)
    return out


def _fsum_rows(values: np.ndarray, scratch: np.ndarray) -> list[float]:
    """math.fsum of each row, bit for bit, by error-free extraction (Rump,
    Ogita & Oishi, "Accurate floating-point summation, part I", 2008).

    With n columns and 2^k >= n + 2, sigma = 2^(e + k) for the exponent e
    of the largest |value| of a row (|value| < 2^e) splits every value p
    into q = (sigma + p) - sigma, a multiple of 2^(e+k-53), and p - q, both
    exact; the n values q sum to at most sigma in magnitude, so numpy sums
    them exactly in any order.  Repeated on the remainders, each pass takes
    at least 52 - k more bits, until every remainder is 0; the row's exact
    sum is then the sum of the few pass sums, which math.fsum rounds as it
    rounds the whole row.  A row with a value that is not finite or whose
    sigma would overflow takes math.fsum itself.  values and scratch are
    overwritten."""
    shift = (values.shape[1] + 1).bit_length()
    top = np.maximum(values.max(axis=1, initial=0.0), -values.min(axis=1, initial=0.0))
    exps = np.frexp(top)[1] + shift
    direct = {i: fsum(values[i].tolist())
              for i in np.flatnonzero(~np.isfinite(top) | (exps > 1023)).tolist()}
    if direct:
        values[list(direct)] = 0.0
        top[list(direct)] = 0.0
    parts = []
    while top.any():
        sigma = np.ldexp(1.0, np.frexp(top)[1] + shift)[:, None]
        q = np.add(values, sigma, out=scratch)
        q -= sigma
        values -= q
        parts.append(q.sum(axis=1))
        top = np.maximum(values.max(axis=1), -values.min(axis=1))
    sums = [fsum(row) for row in zip(*parts)] if parts else [0.0] * len(values)
    for i, v in direct.items():
        sums[i] = v
    return sums


@dataclass(frozen=True)
class MinimizationReport:
    """Multistart minimization outcome, with dual comparison when requested."""

    code_name: str
    kernel: str
    restarts: int
    seed: int
    global_min_value: float
    # greedy_cluster representatives, rows in codes.sorted_rows order
    argmin_cluster: np.ndarray
    n_converged: int
    n_failed: int
    n_singular_starts: int
    n_antipode_starts: int  # code antipodes that are not code points
    iterations: int      # descent loop passes
    n_newton_steps: int  # accepted Newton steps, over all starts
    dual_value: Optional[float] = None
    # (max-min)/|mean| of the potential over dual points, max-min if mean = 0
    dual_spread_rel: Optional[float] = None
    # best finite descended non-dual value minus the dual value; None when
    # no such value exists
    gap: Optional[float] = None


def _unit_pairs(units: np.ndarray) -> np.ndarray:
    """The products u_a*u_b of each code point over the upper-triangle
    pairs a <= b, in np.triu_indices order: the pairs (a, b), b >= a, of
    one a are consecutive columns, written in place."""
    dim = units.shape[1]
    out = np.empty((len(units), dim * (dim + 1) // 2))
    k = 0
    for a in range(dim):
        np.multiply(units[:, a, None], units[:, a:], out=out[:, k:k + dim - a])
        k += dim - a
    return out


def _paired_units(units: np.ndarray, partners: np.ndarray) -> tuple[np.ndarray, int]:
    """A code's unit rows as [heads | singles] and the head count p, from
    its units and Code.antipode_partners: a head is the first point of
    each exact antipodal pair, a single a point whose antipode is not a
    code point, each in code order.  The evaluation table's columns are
    these rows followed by the antipodes of the heads (_evaluate); a code
    with no exact pair gives its units in code order and p = 0."""
    heads = np.flatnonzero(partners > np.arange(len(partners)))
    order = np.concatenate([heads, np.flatnonzero(partners < 0)])
    return units[order], len(heads)


def _evaluate(rows: np.ndarray, units: np.ndarray, unit_pairs: np.ndarray,
              kernel: Kernel, paired: int = 0) -> tuple[np.ndarray, ...]:
    """Potential, Euclidean gradient, Hessian pair sums and sum |g'| at
    each row, from one dot table and one Kernel.evaluate per block of rows.

    The code is units (n rows, heads first) and the antipodes of its
    first `paired` rows (_paired_units).  A block holds as many rows as fit
    in BLOCK_BYTES of n + paired columns, and at least one; its two buffers
    are views of one allocation per call, each a rows x n table followed by
    a rows x paired table (_parts).  One product with -2 units gives the
    first table, -2t exactly (a power of two scales without rounding), and
    the second is its first `paired` columns negated, also exact.
    Kernel.evaluate clips both into the gap r = 2 - 2t, so float drift past
    a code point reads as the singular r = 0.  The derivative tables come
    with constant factors, which scale the small row sums once per call:
    the gradient sum_i g'(x.u_i) u_i and the pair sums
    sum_i g''(x.u_i) u_i,a u_i,b over the pairs a <= b of _unit_pairs are
    products of the folded d1 and d2 tables (_fold) with units and
    unit_pairs.  With paired = 0 the buffers are plain tables and the
    arithmetic is the unfolded one, bit for bit.
    """
    n = len(units)
    width = n + paired
    values = np.empty(len(rows))
    grad = np.empty((len(rows), units.shape[1]))
    pair_sums = np.empty((len(rows), unit_pairs.shape[1]))
    scale = np.empty(len(rows))
    size = max(1, min(len(rows), block_rows(width)))
    tables = np.empty((2, size * width))
    gap_units = -2.0 * units
    c1 = c2 = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(rows), size):
            hi = min(lo + size, len(rows))
            table, scratch = tables[:, :(hi - lo) * width]
            dots, antipodes = _parts(table, hi - lo, n, paired)
            np.matmul(rows[lo:hi], gap_units.T, out=dots)
            if paired:
                np.negative(dots[:, :paired], out=antipodes)
            d2, c1, c2 = kernel.evaluate(table, scratch, units, values[lo:hi],
                                         scale[lo:hi], grad[lo:hi], paired)
            np.matmul(d2, unit_pairs, out=pair_sums[lo:hi])
        grad *= c1
        pair_sums *= c2
        scale *= c1
    return values, grad, pair_sums, scale


def _tangent_hessians(x: np.ndarray, egrad: np.ndarray,
                      pairs: np.ndarray) -> np.ndarray:
    """The tangent Hessians P H P - (x.grad) P, P = I - x x^T, of the rows,
    in the lower triangle of one entry-major (d, d, rows) stack: entry
    (i, j), i >= j, of every row's matrix is one contiguous vector.

    H is read from the pair sums (the upper triangle of each row's
    Euclidean Hessian, in np.triu_indices order).  With gamma = x.grad,
    h = H x, q = x.h and w = h - (q + gamma)/2 x, P H P - gamma P equals
    the rank-two update H - w x^T - x w^T - gamma I, which is formed in
    place row by row of the lower triangle; the upper triangle keeps H,
    which h is read from.
    """
    dim = x.shape[1]
    upper = np.triu_indices(dim)
    stack = np.empty((dim, dim, len(x)))
    stack[upper[0], upper[1]] = stack[upper[1], upper[0]] = pairs.T
    xt = np.ascontiguousarray(x.T)
    h = np.einsum("ikr,kr->ir", stack, xt)
    gamma = np.einsum("ij,ij->i", egrad, x)
    w = h - 0.5 * (np.einsum("kr,kr->r", h, xt) + gamma) * xt
    for i in range(dim):
        row = stack[i, :i + 1]
        row -= w[i] * xt[:i + 1]
        row -= xt[i] * w[:i + 1]
        row[i] -= gamma
    return stack


def _newton_steps(x: np.ndarray, egrad: np.ndarray, pairs: np.ndarray,
                  tang: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian Newton steps on the sphere and where they are defined.

    The tangent Hessian T = P H P - (x.grad) P with P = I - x x^T (Absil,
    Mahony & Sepulchre 2008, ch. 5-6) is formed from the pair sums in one
    entry-major stack (_tangent_hessians); adding shift x x^T, shift =
    1 + max(max T, -min T), moves its zero eigenvalue along x off zero
    without touching the tangent ones, so the step is defined exactly where
    every eigenvalue is positive, that is where every pivot of its Cholesky
    factorization is.  The factorization runs in place on the lower
    triangle of the stack, column by column over all rows at once (each
    column less the products of the columns before it, then divided by the
    square root of its pivot), then one forward and one back substitution
    solve for the step; every update is a run of contiguous vectors over
    the rows, and no (rows, d, d) array but the stack exists.  A row with a
    pivot <= 0 is not ok and gets a zero step.
    """
    dim = x.shape[1]
    stack = _tangent_hessians(x, egrad, pairs)
    xt = np.ascontiguousarray(x.T)
    top = np.zeros(len(x))
    for i in range(dim):
        row = stack[i, :i + 1]
        np.maximum(top, row.max(axis=0), out=top)
        np.maximum(top, -row.min(axis=0), out=top)
    shift = 1.0 + top
    for i in range(dim):
        stack[i, :i + 1] += (shift * xt[i]) * xt[:i + 1]
    # the stack becomes L below and on its diagonal, H = L L^T, where ok
    ok = np.ones(len(x), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(dim):
            col = stack[j:, j]
            col -= np.einsum("ikr,kr->ir", stack[j:, :j], stack[j, :j])
            ok &= col[0] > 0
            col /= np.sqrt(np.where(ok, col[0], 1.0))
        step = -np.ascontiguousarray(tang.T)
        for j in range(dim):
            step[j] /= stack[j, j]
            step[j + 1:] -= stack[j + 1:, j] * step[j]
        for j in reversed(range(dim)):
            step[j] /= stack[j, j]
            step[:j] -= stack[j, :j] * step[j]
    step[:, ~ok] = 0.0
    return step.T, ok


def _descend(units: np.ndarray, unit_pairs: np.ndarray, kernel: Kernel,
             starts: np.ndarray, evaluation: tuple[np.ndarray, ...],
             paired: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Batched safeguarded Riemannian Newton descent on the unit sphere,
    for at most MAX_ITER iterations.

    Each iteration takes the Newton step on rows whose tangent Hessian is
    positive definite and an adaptive gradient step on the others, both
    capped at TRUST_RADIUS and backtracked until an Armijo test holds up to
    a round-off slack of 8 eps |f|.  A row stops when its tangential
    gradient is at most max(GRAD_TOL, ROUNDOFF_FACTOR * eps * sum |g'(x.u_i)|),
    the round-off floor of the gradient sum; that is the converged mask.
    units, unit_pairs and paired are _evaluate's; `evaluation` is what
    _evaluate gives at the starts, and its arrays are
    updated in place, not copied.  Every trial point is evaluated once, by
    _evaluate: an accepted row keeps its gradient and pair sums for the
    next iteration's test and Newton step, which _newton_steps reads as
    they are, with no expanded Hessian.  A trial's outputs are dropped
    before the next trial is evaluated.

    Returns (points, values, converged_mask, iterations, newton_steps).
    """
    eps = np.finfo(float).eps
    x = starts.copy()
    f, egrads, pairs, scales = evaluation
    alive = np.ones(len(x), dtype=bool)
    step = np.full(len(x), 0.1)
    grad_norm = np.full(len(x), np.inf)
    tol = np.full(len(x), GRAD_TOL)
    iterations = newton_steps = 0
    while iterations < MAX_ITER:
        idx = np.nonzero(alive)[0]
        if not len(idx):
            break
        iterations += 1
        xs, egrad = x[idx], egrads[idx]
        tang = egrad - np.einsum("ij,ij->i", egrad, xs)[:, None] * xs
        gn = np.linalg.norm(tang, axis=1)
        grad_norm[idx] = gn
        tol[idx] = np.maximum(GRAD_TOL, ROUNDOFF_FACTOR * eps * scales[idx])
        done = gn <= tol[idx]
        alive[idx[done]] = False
        work = idx[~done]
        if not len(work):
            continue
        xs, egrad, tang, gn = xs[~done], egrad[~done], tang[~done], gn[~done]
        newton_step, newton = _newton_steps(xs, egrad, pairs[work], tang)
        direction = -tang / gn[:, None]
        length = step[work]
        newton_len = np.linalg.norm(newton_step[newton], axis=1)
        direction[newton] = newton_step[newton] / newton_len[:, None]
        length[newton] = newton_len
        length = np.minimum(length, TRUST_RADIUS)
        slope = -np.einsum("ij,ij->i", tang, direction)
        pending = np.arange(len(work))  # local ids into work rows
        for _bt in range(45):
            if not len(pending):
                break
            rows = work[pending]
            trial = x[rows] + length[pending][:, None] * direction[pending]
            trial /= np.linalg.norm(trial, axis=1)[:, None]
            f_trial, g_trial, p_trial, s_trial = _evaluate(trial, units, unit_pairs,
                                                           kernel, paired)
            slack = 8.0 * eps * np.abs(f[rows])
            ok = f_trial <= f[rows] - 1e-4 * length[pending] * slope[pending] + slack
            acc = rows[ok]
            x[acc] = trial[ok]
            f[acc] = f_trial[ok]
            egrads[acc], pairs[acc], scales[acc] = g_trial[ok], p_trial[ok], s_trial[ok]
            newton_steps += int(np.sum(newton[pending[ok]]))
            grad_acc = pending[ok & ~newton[pending]]
            step[work[grad_acc]] = np.minimum(length[grad_acc] * 1.5, TRUST_RADIUS)
            pending = pending[~ok]
            length[pending] *= 0.5
            del trial, f_trial, g_trial, p_trial, s_trial
        if len(pending):
            # no decrease even at machine-level steps: numerical plateau
            alive[work[pending]] = False
    converged = grad_norm <= tol
    return x, f, converged, iterations, newton_steps


def minimize_potential(code: Code, kernel: Kernel, restarts: int = 200,
                       seed: int = 0, dual: Optional[Code] = None
                       ) -> MinimizationReport:
    """Multistart minimization of the code's potential over the sphere.

    Starts, in this order: `restarts` seeded uniform points
    (codes.random_unit_blocks(seed, ...): row i is the same for any
    restarts > i, and a negative seed raises ValueError), the code
    antipodes that are not themselves code points (Code.antipode_mask:
    exact for a LatticeCode, within 10x the tolerance for a FloatCode; an
    antipodal code has none), and the points of the dual code, if any, as
    the unit rows _unit_rows(dual.unit_array()).  Their count goes through
    check_size before any start is drawn.

    The starts are drawn, evaluated and descended in consecutive blocks of
    as many as keep one Newton stack (rows x d^2 floats, _newton_steps)
    within 4 BLOCK_BYTES, so the descent's memory does not grow with the
    start count; only each block's points, values and converged mask are
    kept, in start order.  Each start is evaluated once; starts where a
    singular kernel blows up are dropped and counted, and each accepted
    descent step is evaluated once (see _descend).  `iterations` is the
    most any block took and `n_newton_steps` the sum over blocks; the dual
    value, the gap and the clustering read all blocks at once.  Every
    evaluation reads each exact antipodal pair of the code once
    (Code.antipode_partners, _paired_units).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    units = code.unit_array()
    dim = code.ambient_dim
    antipodes = -units[~code.antipode_mask()]
    n_dual = 0 if dual is None else dual.size
    n_starts = restarts + len(antipodes) + n_dual
    check_size(n_starts, "descent starts")

    fixed = antipodes
    if dual is not None:
        dual_units = _unit_rows(dual.unit_array())
        fixed = np.vstack([antipodes, dual_units])
    size = block_rows(dim * dim, 4)
    draws = random_unit_blocks(seed, restarts, dim, size)
    columns, paired = _paired_units(units, code.antipode_partners())
    unit_pairs = _unit_pairs(columns)
    blocks = []
    n_singular = iterations = n_newton = 0
    for lo in range(0, n_starts, size):
        hi = min(lo + size, n_starts)
        x0 = fixed[max(lo - restarts, 0):max(hi - restarts, 0)]
        if lo < restarts:
            x0 = np.vstack([next(draws), x0])
        is_dual = np.arange(lo, hi) >= n_starts - n_dual
        # drop starts that evaluate to +inf under singular kernels
        evaluation = _evaluate(x0, columns, unit_pairs, kernel, paired)
        finite = np.isfinite(evaluation[0])
        n_singular += int(np.sum(~finite))
        x0, evaluation = x0[finite], tuple(v[finite] for v in evaluation)
        *out, its, newton = _descend(columns, unit_pairs, kernel, x0, evaluation,
                                     paired)
        blocks.append((*out, is_dual[finite]))
        iterations = max(iterations, its)
        n_newton += newton
        # the next block's arrays are not allocated beside this one's
        del x0, evaluation
    pts, vals, conv, is_dual_start = (np.concatenate(a) for a in zip(*blocks))
    del blocks
    n_conv = int(np.sum(conv))
    n_failed = int(np.sum(~conv))

    dual_value: Optional[float] = None
    spread: Optional[float] = None
    gap: Optional[float] = None
    if dual is not None:
        dvals = _probe_values(dual_units, units, kernel)
        dual_value = min(dvals)
        # relative to the magnitude, absolute when the mean is 0
        spread = (max(dvals) - dual_value) / (abs(fsum(dvals) / n_dual) or 1.0)
        # every evaluated value is evidence, converged or not
        nd = np.isfinite(vals) & ~is_dual_start
        if nd.any():
            gap = float(vals[nd].min() - dual_value)

    good = conv & np.isfinite(vals)
    global_min = float(vals[good].min()) if good.any() else float("inf")
    if dual_value is not None:
        global_min = min(global_min, dual_value)
    level = global_min + 1e-8 * (1.0 + abs(global_min))
    cluster = sorted_rows(greedy_cluster(pts[good & (vals <= level)], CLUSTER_TOL))
    return MinimizationReport(code.name, kernel.name, restarts, seed,
                              global_min, cluster, n_conv, n_failed,
                              n_singular, len(antipodes), iterations, n_newton,
                              dual_value, spread, gap)


@dataclass(frozen=True, kw_only=True)
class UniversalMinimumReport(MinimizationReport):
    """One kernel's multistart report, dual candidates among the starts,
    plus the three fields of the verdict; its JSON has the verdict's keys."""

    # |global_min - dual_value| / |dual_value|, the numerator if dual_value = 0
    equality_rel: float
    argmin_max_dist: float     # worst distance from an argmin to the dual set
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "code": self.code_name,
            "kernel": self.kernel,
            "dual_value": self.dual_value,
            "dual_spread_rel": self.dual_spread_rel,
            "global_min_value": self.global_min_value,
            "gap": self.gap,
            "equality_rel": self.equality_rel,
            "argmin_max_dist": self.argmin_max_dist,
            "n_converged": self.n_converged,
            "n_failed": self.n_failed,
            "n_singular_starts": self.n_singular_starts,
            "n_antipode_starts": self.n_antipode_starts,
            "restarts": self.restarts,
            "seed": self.seed,
            "passed": self.passed,
        }


def _argmin_max_dist(argmins: np.ndarray, dual_units: np.ndarray,
                     tol: float) -> float:
    """The largest distance from an argmin to its nearest dual row, inf
    when there is no argmin.

    One codes.close_pairs sweep gives each argmin's nearest dual row within
    tol; only an argmin with no dual row that close is measured against
    every row.  Both take np.linalg.norm of the same differences, so the
    result is the full row-by-row minimum bit for bit, past tol too."""
    if not len(argmins):
        return float("inf")
    nearest = np.full(len(argmins), np.inf)
    i, _, dist = close_pairs(argmins, dual_units, tol)
    np.minimum.at(nearest, i, dist)
    for k in np.nonzero(nearest == np.inf)[0]:
        nearest[k] = np.linalg.norm(dual_units - argmins[k], axis=1).min()
    return float(nearest.max())


def verify_universal_minimum(code: Code, m: int, dual: Code,
                             kernels: Sequence[Kernel],
                             restarts: int = 200, seed: int = 0,
                             argmin_tol: float = 1e-5) -> list[UniversalMinimumReport]:
    """Check that the dual attains the global potential minimum per kernel.

    Per kernel: (a) the potential is constant over the dual within
    DUAL_SPREAD_REL relative; (b) some non-dual start descended to a finite
    value and none beats the dual value by more than -GAP_FLOOR, converged
    or not; (c) for the strictly convex families (riesz, gauss and log)
    every argmin lies within argmin_tol of a dual point; (d) every dual candidate forms at most m
    distinct dots with the code (stiffness._at_most_m_distinct on blocks
    of dual rows x code from codes.dot_blocks, gaps up to 1e-8 taken as
    one value).

    The dual candidates are the points of the code `dual`, which must
    share the code's ambient dimension (ValueError otherwise), read as one
    set of unit rows, _unit_rows(dual.unit_array()): the m-check, the dual
    starts and values of minimize_potential and the argmin distance
    (_argmin_max_dist, one close_pairs sweep) all see the same bits.  Each
    report is minimize_potential's, extended by the equality, that
    distance and the verdict.
    """
    if dual.ambient_dim != code.ambient_dim:
        raise ValueError(f"{dual.name} lives in dimension {dual.ambient_dim}, "
                         f"{code.name} in dimension {code.ambient_dim}")
    dual_units = _unit_rows(dual.unit_array())
    m_ok = all(_at_most_m_distinct(block, m, 1e-8)
               for _, block in dot_blocks(dual_units, code.unit_array()))
    out = []
    for k, kernel in enumerate(kernels):
        rep = minimize_potential(code, kernel, restarts=restarts,
                                 seed=seed + k, dual=dual)
        worst = _argmin_max_dist(rep.argmin_cluster, dual_units, argmin_tol)
        const_ok = rep.dual_spread_rel <= DUAL_SPREAD_REL
        no_beat = rep.gap is not None and rep.gap >= GAP_FLOOR
        argmin_ok = (not kernel.strictly_convex_family) or worst <= argmin_tol
        equality = (abs(rep.global_min_value - rep.dual_value)
                    / (abs(rep.dual_value) or 1.0))
        out.append(UniversalMinimumReport(
            **vars(rep), equality_rel=equality, argmin_max_dist=worst,
            passed=m_ok and const_ok and no_beat and argmin_ok))
    return out


@dataclass(frozen=True)
class SkipOneAddTwoReport:
    """Exact verification of the skip-one-add-two hypotheses."""

    code_name: str
    m: int
    index_ok: bool
    index_missing: tuple[int, ...]
    sum_ok: bool
    sumsq_ok: bool
    sum_value: str
    sumsq_value: str
    bound_value: str
    sum_margin: float     # float(t_m/2 - sum)
    sumsq_margin: float   # float(bound - sumsq)
    witness_ok: Optional[bool]  # supplied candidates realize dots within t_list

    @property
    def all_ok(self) -> bool:
        base = self.index_ok and self.sum_ok and self.sumsq_ok
        return base and (self.witness_ok is not False)


def skip_one_add_two_check(code: Code, m: int, t_list: Sequence[Scalar],
                           candidates: Optional[Sequence] = None) -> SkipOneAddTwoReport:
    """Exact check of the skipped-degree universal-minimality hypotheses.

    A code whose index set skips only degree 2m-2 below 2m still has a
    universally minimizing dual when the node sums obey sum(t) < t_m/2 and
    sum(t^2) - 2*sum(t)^2 < m(2m-1)/(4m+d-3); this verifies those bounds
    exactly.  Candidates, when given, are checked to realize dot products
    inside t_list only (nonempty dual).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if len(t_list) != m:
        raise ValueError(f"need exactly {m} nodes, got {len(t_list)}")
    ts = [Surd(v) for v in t_list]
    for a, b in zip(ts, ts[1:]):
        if not a < b:
            raise ValueError("t_list must be strictly increasing")
    if not (Surd(-1) < ts[0] and ts[-1] < Surd(1)):
        raise ValueError("t_list must lie inside (-1, 1)")

    needed = list(range(1, 2 * m - 2)) + [2 * m - 1, 2 * m]
    rep = index_set(code, 2 * m)
    missing = tuple(n for n in needed if n not in rep.index_set)
    index_ok = not missing

    d = code.sphere_dim
    # sums stay in one quadratic extension for node sets of interest;
    # symmetric sets cancel to rationals
    total = Surd(0)
    for t in ts:
        total = total + t
    half_top = ts[-1] / 2
    sum_ok = total < half_top
    sumsq = Fraction(0)
    for t in ts:
        sumsq += (t * t).as_fraction()
    lhs = sumsq - 2 * (total * total).as_fraction()
    bound = Fraction(m * (2 * m - 1), 4 * m + d - 3)
    sumsq_ok = lhs < bound

    witness_ok: Optional[bool] = None
    if candidates is not None:
        reports = (spectrum(c, code) for c in candidates)
        witness_ok = all(
            set(s.values()) <= set(ts) if s.exact
            else all(min(abs(v - float(t)) for t in ts) <= 1e-9 for v in s.values())
            for s in reports)
    return SkipOneAddTwoReport(
        code.name, m, index_ok, missing, sum_ok, sumsq_ok,
        scalar_str(total), str(lhs), str(bound),
        float(half_top - total), float(bound - lhs), witness_ok)
