"""m-stiffness certificates and dual configuration search.

The dual of a code is the set of sphere points forming at most m distinct
dot products with it.  For a (2m-1)-design those dot values can only be
the m roots of the degree-m Gegenbauer polynomial.  The dual is found by a
level walk over d+1 linearly independent code points (the Fincke-Pohst
prune): level k assigns one of the m candidate values to the k-th point
and drops every assignment whose first k dots no unit point can have,
because the shortest point with those dots is longer than 1.  The walk
runs in floats on the R factor of the chosen rows and drops a prefix only
beyond a stated rounding bound, so it never loses a dual point.  The
arithmetic of the input decides how a survivor is certified: an integer
code maps it to an integer direction and keeps it when its norm and
every integer dot it forms with the code are exactly right; a float code
keeps it when every dot lies within FLOAT_RESIDUAL of a candidate value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from ._linalg import adjugate_and_det, first_independent, integer_nullspace
from .codes import (Code, LatticeCode, LatticePoint, Vector, covered_by, dot_blocks,
                    greedy_cluster, int_arrays, raw_dots, sorted_rows)
from .config import block_rows, check_size
from .design import DesignReport, index_set, pair_values, spectra
from .exact import Scalar, Surd, scalar_str
from .gegenbauer import nodes as gegenbauer_nodes

FLOAT_RESIDUAL = 1e-9
# cluster widths accepted as one dot value by the two candidate scans
BRUTE_WIDTH_TOL = 1e-6
CIRCLE_WIDTH_TOL = 1e-8


class NotInGeneralPosition(ValueError):
    """The code does not span the ambient space, so the walk has no d+1
    independent rows to assign nodes to.  For m >= 2 this means invalid
    input: a stiff code is at least a 3-design and those span."""


class NodesRequired(ValueError):
    """Candidate dot values cannot be inferred: the code is not a
    (2m-1)-design, so Gegenbauer roots are not certified canonical.
    Supply the node set explicitly."""


@dataclass(frozen=True)
class DualSearchResult:
    """Outcome of a dual enumeration.

    exact results carry LatticePoint entries, primitive directions, and
    common_rows, the same points in the same order at the least common
    squared norm their certification proved (see _exact_dual); float
    results carry unit rows in points_float.  dual_complete is True only
    when the node set itself is certified (Gegenbauer roots of a verified
    (2m-1)-design), so the enumeration provably saw every dual point.  For
    caller-supplied nodes the search is exhaustive relative to those nodes
    but completeness of the node list is the caller's responsibility.
    """

    code_name: str
    m: int
    mode: str  # "exact" | "float" | "subspace"
    points: tuple[LatticePoint, ...]
    points_float: Optional[np.ndarray]
    dual_complete: bool
    nodes_supplied: bool
    node_values: tuple
    subspace_basis: Optional[tuple[Vector, ...]] = None
    max_residual: float = 0.0
    common_rows: tuple[Vector, ...] = ()

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    @property
    def count(self) -> int:
        if self.points:
            return len(self.points)
        if self.points_float is not None:
            return len(self.points_float)
        return 0

    @property
    def is_empty(self) -> bool:
        return self.count == 0 and self.subspace_basis is None

    def as_code(self, name: Optional[str] = None) -> LatticeCode:
        """The exact dual as a code: common_rows, sorted."""
        if not self.common_rows:
            raise ValueError("no exact dual points to convert")
        rows = tuple(sorted(self.common_rows))
        return LatticeCode(name or f"dual_{self.m}({self.code_name})", len(rows[0]),
                           sum(x * x for x in rows[0]), rows)

    def unit_points(self) -> np.ndarray:
        if self.points_float is not None:
            return self.points_float
        return np.array([p.unit() for p in self.points])

    def to_json_dict(self) -> dict:
        out = {
            "code": self.code_name,
            "m": self.m,
            "mode": self.mode,
            "count": self.count,
            "dual_complete": self.dual_complete,
            "nodes_supplied": self.nodes_supplied,
            "nodes": [_node_json(v) for v in self.node_values],
        }
        if self.points:
            out["points"] = [
                {"vector": list(p.vector), "norm_sq": p.norm_sq} for p in self.points
            ]
        elif self.points_float is not None:
            out["points_decimal"] = [[float(x) for x in p] for p in self.points_float]
            out["max_residual"] = self.max_residual
        if self.subspace_basis is not None:
            out["subspace_basis"] = [list(b) for b in self.subspace_basis]
        return out


def _node_json(v):
    """A node value for JSON: exact values as strings, float ones as floats."""
    return scalar_str(v) if isinstance(v, (Surd, Fraction, int)) else float(v)


def _independent_rows(code: Code, units: np.ndarray) -> list[int]:
    """Indices of a maximal independent subset, greedy by least residual.

    Each pick has the least float residual off the span of the picks
    before it, among residuals above 1e-8: small early pivots keep the
    walk small.  For a LatticeCode one exact elimination keeps the picks
    independent of the picks before them; when fewer than d+1 remain, a
    second one runs over the picks followed by every other point in input
    order, so the rank is exact.
    """
    d1 = units.shape[1]
    res = units.copy()  # residuals off the span of the chosen rows
    chosen: list[int] = []
    while len(chosen) < d1:
        sq = np.einsum("ij,ij->i", res, res)
        sq[sq <= 1e-16] = np.inf
        i = int(np.argmin(sq))
        if sq[i] == np.inf:
            break
        chosen.append(i)
        res -= np.outer(res @ res[i], res[i] / sq[i])
    if not isinstance(code, LatticeCode):
        return chosen
    kept = [chosen[k] for k in first_independent([code.points[i] for i in chosen])]
    if len(kept) < d1:
        picked = set(chosen)
        order = chosen + [i for i in range(code.size) if i not in picked]
        kept = [order[k] for k in first_independent([code.points[i] for i in order])]
    return kept


def _default_nodes(code: Code, m: int, rep: Optional[DesignReport]):
    """The m Gegenbauer roots, once rep (index_set(code, 2m - 1) when None)
    certifies a (2m-1)-design."""
    rep = rep or index_set(code, 2 * m - 1)
    if rep.strength < 2 * m - 1:
        raise NodesRequired(
            f"{code.name} has design strength {rep.strength} < {2 * m - 1}; "
            "Gegenbauer roots are not certified as the only dual dot values, "
            "pass candidate nodes explicitly"
        )
    return list(gegenbauer_nodes(code.sphere_dim, m).nodes)


def _exact_rhs(node_values: Sequence[Scalar], norm_sq: int):
    """Scaled right-hand sides n_k with node*sqrt(norm_sq) = (n_k/Q)*sqrt(g):
    the nonzero nodes c_k*sqrt(s) share one radicand s (1 when all are
    rational), n_k = c_k*Q and g = s*norm_sq, which is never factored.
    Returns (ints, Q, g), or None for nodes in two quadratic extensions.
    """
    nodes = [Surd(v) for v in node_values]
    rads = {v.radicand for v in nodes if v.coeff != 0}
    if len(rads) > 1:
        return None
    q_lcm = lcm(*(v.coeff.denominator for v in nodes))
    return [int(v.coeff * q_lcm) for v in nodes], q_lcm, (rads.pop() if rads else 1) * norm_sq


def dual_search(
    code: Code,
    m: int,
    nodes: Optional[Sequence] = None,
    *,
    _report: Optional[DesignReport] = None,
) -> DualSearchResult:
    """Enumerate the dual configuration D_m of a code.

    Without explicit nodes the code must be a verified (2m-1)-design; the
    candidate dot values are then the m Gegenbauer roots and the result is
    provably all of D_m.  Supplied nodes restrict the search to points
    whose dots lie in that set.  The arithmetic follows the input: exact
    for an integer code with surd nodes in a single quadratic extension,
    float otherwise.  The design strength is checked once, by one
    index_set call, and only on the paths that need it: default nodes,
    or D_1 of a code inside a hyperplane.  certify_stiff passes its own
    index_set report of the code (through degree 2m) as the private
    _report, and the strength is read from it instead.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    d1 = code.ambient_dim
    units = code.unit_array()

    # rank gate: the enumeration needs d+1 independent points
    idx = _independent_rows(code, units)
    if len(idx) < d1:
        if m == 1:
            return _subspace_dual(code, idx, nodes is not None, _report)
        raise NotInGeneralPosition(
            f"{code.name} spans only {len(idx)} of {d1} dimensions; "
            "a stiff code with m >= 2 is a 3-design and spans"
        )

    nodes_supplied = nodes is not None
    node_values = list(nodes) if nodes_supplied else _default_nodes(code, m, _report)
    if len(node_values) > m:
        raise ValueError(f"{len(node_values)} nodes supplied for m = {m}")
    dual_complete = not nodes_supplied

    exact = isinstance(code, LatticeCode) and all(
        isinstance(v, (int, Fraction, Surd)) for v in node_values)
    walked = list(dict.fromkeys(Surd(v) if exact else float(v) for v in node_values))
    rhs = _exact_rhs(walked, code.norm_sq) if exact else None
    values = np.array([float(v) for v in walked])
    q, r = np.linalg.qr(units[idx].T)
    # exact nodes and rows carry only rounding, float dots FLOAT_RESIDUAL
    node_idx, y = _walk(r, values, FLOAT_RESIDUAL if rhs is None else _gamma(8),
                        f"dual search for {code.name}")
    if rhs is not None:
        pts, rows = _exact_dual(code, idx, node_idx, rhs)
        return DualSearchResult(code.name, m, "exact", pts, None, dual_complete,
                                nodes_supplied, tuple(node_values), common_rows=rows)
    # spectrum certificate: the point Q y, normalized, is kept when every
    # dot it forms with the code is within FLOAT_RESIDUAL of some node
    cand = y @ q.T
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    # in blocks of candidates, each row of dots one matrix-vector product
    # (a stacked matmul), which rounds unlike a GEMM block: the residuals,
    # and max_residual, stay those of units @ v
    res = np.empty(len(cand))
    step = block_rows(len(units))
    for s in range(0, len(cand), step):
        dots = np.matmul(units, cand[s:s + step, :, None])[..., 0]
        dist = np.abs(dots - values[0])
        for v in values[1:]:
            np.minimum(dist, np.abs(dots - v), out=dist)
        res[s:s + step] = dist.max(axis=1)
    good = res < FLOAT_RESIDUAL
    return DualSearchResult(code.name, m, "float", (), sorted_rows(cand[good]), dual_complete,
                            nodes_supplied, tuple(node_values),
                            max_residual=float(res[good].max(initial=0.0)))


def _subspace_dual(code: Code, idx: list[int], nodes_supplied: bool,
                   rep: Optional[DesignReport]) -> DualSearchResult:
    """D_1 of a rank-deficient 1-design: the unit sphere of the orthogonal
    complement; a point pair when that complement is a line.  rep, when
    given, is the index_set report that shows the code is a 1-design.

    idx are the independent rows the gate of dual_search found.  They span
    an integer code, whose complement is their exact nullspace.  A float
    code's complement is the trailing right singular vectors of all N unit
    points, of the dimension the gate decided on, taken from the SVD of
    their R factor (at most d x d, so no N x N factor is held): the gate's
    picks are chosen for small pivots and may be nearly dependent, so
    their own SVD would be as ill-conditioned as they are.  A float pair
    reports the largest |dot| it forms with the code as max_residual.  It
    is not held to FLOAT_RESIDUAL: points whose residual off the span of
    the picks is under the gate's cut of 1e-8 count as inside the span, so
    the pair's residual is bounded by that cut, not by FLOAT_RESIDUAL."""
    rep = rep or index_set(code, 1)
    if rep.strength < 1:
        raise NodesRequired(
            f"{code.name} is not a 1-design (center of mass is not the origin)"
        )
    if isinstance(code, LatticeCode):
        basis = integer_nullspace([code.points[i] for i in idx])
        if len(basis) == 1:
            b = basis[0]
            p = LatticePoint(b, sum(x * x for x in b))
            pts = tuple(sorted([p, -p], key=lambda q: q.vector))
            return DualSearchResult(code.name, 1, "exact", pts, None, True,
                                    nodes_supplied, (Surd(0),),
                                    common_rows=tuple(q.vector for q in pts))
        return DualSearchResult(code.name, 1, "subspace", (), None, True,
                                nodes_supplied, (Surd(0),),
                                subspace_basis=tuple(basis))
    units = code.unit_array()
    null = np.linalg.svd(np.linalg.qr(units, mode="r"))[2][len(idx):]
    if len(null) == 1:
        z = null[0] / np.linalg.norm(null[0])
        return DualSearchResult(code.name, 1, "float", (), sorted_rows(np.vstack([z, -z])),
                                True, nodes_supplied, (0.0,),
                                max_residual=float(np.abs(units @ z).max()))
    return DualSearchResult(code.name, 1, "subspace", (), None, True,
                            nodes_supplied, (0.0,),
                            subspace_basis=tuple(tuple(float(x) for x in b) for b in null))


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def _walk(r: np.ndarray, values: np.ndarray, tau: float,
          what: str) -> tuple[np.ndarray, np.ndarray]:
    """Node assignments to the d+1 chosen rows that a unit point can have.

    With the chosen unit rows a = R^T Q^T, the least-norm point whose first
    k dots are n is Q_k y, R_k^T y = n.  Level k extends each prefix by each
    value n_k, adds y_k = (n_k - sum_{j<k} R_jk y_j) / R_kk and y_k^2 to a
    running |y|^2, and drops it when |y|^2 > hi_k, or at the last level
    < lo.  Returns the node indices and y of the survivors; check_size
    bounds each new frontier.

    No x with |x| = 1 and each dot within tau of its node is dropped.  The
    computed y solves (R_k^T + E) y = n, |E| <= gamma_k |R_k^T| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 8.5), so
    ||E|| <= f_k = 2 gamma_k sqrt(k); R is the R factor of rows moved by at
    most gamma_{10(d+1)^2} (Thm 19.4, its constant taken as 10).  In that
    basis x has norm <= 1, = 1 at the last level, and solves the system up
    to rho_k = sqrt(k) (gamma_{10(d+1)^2} + tau) + f_k, so |y| is within
    e_k = rho_k beta_k / (1 - beta_k f_k) of that norm, beta_k >= ||R_k^-1||
    being twice the Frobenius norm of the leading block of the computed
    R^-1.  The running sum adds gamma_{k+1}, so hi_k = (1 + e_k)^2
    (1 + gamma_{k+2}) and lo = (1 - e)^2 (1 - gamma_{d+3}); where e_k >= 1,
    as at a pivot rounded to 0, nothing is dropped."""
    d1 = len(r)
    k = np.arange(1, d1 + 1)
    f = 2 * _gamma(k) * np.sqrt(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rinv = np.linalg.inv(r) if r.diagonal().all() else np.full_like(r, np.inf)
        beta = 2 * np.sqrt(np.cumsum(np.cumsum(rinv * rinv, axis=0), axis=1).diagonal())
        rho = np.sqrt(k) * (_gamma(10 * d1 * d1) + tau) + f
        e = np.where(beta * f < 1, rho * beta / (1 - beta * f), np.inf)
        hi = np.where(e < 1, (1 + e) ** 2 * (1 + _gamma(k + 2)), np.inf)
        lo = np.where((k == d1) & (e < 1), (1 - e) ** 2 * (1 - _gamma(k + 2)), -np.inf)

        node_idx = np.zeros((1, d1), dtype=np.intp)
        y = np.zeros((1, d1))
        sq = np.zeros(1)
        for j in range(d1):
            check_size(len(sq) * len(values), f"{what} at level {j + 1}")
            yj = (values[None, :] - (y[:, :j] @ r[:j, j])[:, None]) / r[j, j]
            sq_j = sq[:, None] + yj * yj
            rows, cols = np.nonzero(~((sq_j > hi[j]) | (sq_j < lo[j])))  # keeps NaN
            node_idx, y, sq = node_idx[rows], y[rows], sq_j[rows, cols]
            node_idx[:, j] = cols
            y[:, j] = yj[rows, cols]
    return node_idx, y


def _exact_dual(code: LatticeCode, idx: list[int], node_idx: np.ndarray,
                rhs) -> tuple[tuple[LatticePoint, ...], tuple[Vector, ...]]:
    """Certify walk survivors in integers.  A dual point x has
    c . x = n sqrt(g) / Q on each chosen row c, so with A the chosen rows
    and G = A A^T it is w sqrt(g) / (Q det G) for w = n^T adj(G) A: a unit
    point when g |w|^2 = (Q det G)^2, meeting code point c at node k when
    w . c = n_k det G, or v . c = n_k det G / h for the primitive v = w / h,
    whose dots stay small.  The dots run through codes.dot_blocks, in
    blocks of code points x survivors of at most BLOCK_BYTES, so no code x
    survivor table is held.  Each node is walked once and A has full rank,
    so no two survivors are the same point.

    Returns the certified points, as primitive directions v in sorted
    order, and the same points at their least common squared norm: every
    certified w has |w|^2 = (Q det G)^2 / g, so w = h v are integer rows of
    one norm, and dividing by the gcd H of their h leaves (h / H) v, the
    least integer multiples of the v that share one norm."""
    n_ints, q_lcm, g = rhs
    if not len(node_idx):
        return (), ()
    rows = [code.points[i] for i in idx]
    adj, det = adjugate_and_det(raw_dots(rows, rows).tolist())
    adj_rows = raw_dots(adj, list(zip(*rows)))  # adj(G) A
    w = raw_dots(np.array(n_ints, dtype=object)[node_idx], adj_rows.T)
    dirs, gcds, targets = [], [], []
    for v in w.tolist():
        if g * sum(x * x for x in v) != (q_lcm * det) ** 2:
            continue
        h = gcd(*v)
        v = tuple(x // h for x in v)
        t = [n * det // h for n in n_ints if n * det % h == 0]
        if t:  # padded with a repeat, so every row has one target per node
            dirs.append(v)
            gcds.append(h)
            targets.append(t + t[:1] * (len(n_ints) - len(t)))
    if not dirs:
        return (), ()
    big = any(abs(t) >= 2**62 for row in targets for t in row)
    targets = np.array(targets, dtype=object if big else np.int64).T
    # blocks of code points x survivors: each node's target is OR-ed into
    # one boolean block, and a survivor stays alive while every code point
    # of every block meets one of its nodes
    pts, survivors = int_arrays(code.points, dirs)
    alive = np.ones(len(dirs), dtype=bool)
    for start, block in dot_blocks(pts, survivors):
        if not start:  # the first block is the tallest
            hit_buf, eq_buf = np.empty(block.shape, dtype=bool), np.empty(block.shape, dtype=bool)
        alive &= _meets_a_target(block, targets, hit_buf[:len(block)],
                                 eq_buf[:len(block)]).all(axis=0)
    kept = sorted((v, h) for v, h, a in zip(dirs, gcds, alive) if a)
    big_h = gcd(*(h for _, h in kept))
    return (tuple(LatticePoint(v, sum(x * x for x in v)) for v, _ in kept),
            tuple(tuple(x * (h // big_h) for x in v) for v, h in kept))


def _meets_a_target(block: np.ndarray, targets: np.ndarray, hit: np.ndarray,
                    eq: np.ndarray) -> np.ndarray:
    """hit, boolean like block: whether each entry equals one of the
    targets of its column, targets[k] holding node k's target per column;
    eq is scratch of the same shape.

    A float64 block from dot_blocks is compared with int64 targets in
    float64, and exactly: every entry is an integer below 2^53 in
    magnitude, which a target below 2^53 converts to exactly, and a target
    of magnitude >= 2^53 becomes a float of magnitude >= 2^53, which
    equals no entry.  Object targets (past 2^62), or an object block, are
    compared as Python numbers, exactly."""
    np.equal(block, targets[0], out=hit)
    for t in targets[1:]:
        hit |= np.equal(block, t, out=eq)
    return hit


@dataclass(frozen=True)
class StiffnessCertificate:
    """Stiffness verdict with the evidence that produced it."""

    code_name: str
    m: int
    design_strength: int
    stiff: bool
    dual: Optional[DualSearchResult]
    frequency_table: tuple  # per dual point: ((node, count), ...)
    frequencies_match_weights: Optional[bool]
    properties: dict

    @property
    def frequencies_constant(self) -> bool:
        """Every dual point has the same frequency row."""
        return _rows_equal(self.frequency_table)

    def to_json_dict(self) -> dict:
        out = {
            "code": self.code_name,
            "m": self.m,
            "design_strength": self.design_strength,
            "stiff": self.stiff,
            "properties": dict(self.properties),
        }
        if self.dual is not None:
            out["dual"] = self.dual.to_json_dict()
        if self.frequencies_match_weights is not None:
            out["frequencies_match_weights"] = self.frequencies_match_weights
        if self.frequency_table:
            first = [{"node": _node_json(v), "count": c}
                     for v, c in self.frequency_table[0]]
            out["frequency_table"] = {
                "per_point": first,
                "constant_across_dual": self.frequencies_constant,
            }
        return out


def certify_stiff(code: Code, m: int,
                  nodes: Optional[Sequence] = None) -> StiffnessCertificate:
    """Full stiffness certificate: design strength, dual, frequencies, flags.

    Stiff means (2m-1)-design with nonempty dual.  The frequency table counts
    how many code points realize each node against every dual point; for a
    stiff code those counts match the quadrature weights times N.  One
    index_set call through degree 2m gives the strength, and the dual
    search reads its hypotheses (a (2m-1)-design for the default nodes, a
    1-design for D_1 of a flat code) from the same report.  The frequency
    rows come from blocks of dual points x code and the double-dual check
    from blocks of code points x dual, both from codes.dot_blocks on
    operands converted once, so no whole dual x code table is held and no
    block outlives its loop.  The exact rows share one Surd per value.
    """
    rep = index_set(code, 2 * m)
    strength = rep.strength
    dual: Optional[DualSearchResult] = None
    try:
        dual = dual_search(code, m, nodes=nodes, _report=rep)
    except NodesRequired:
        if nodes is None and strength < 2 * m - 1:
            dual = None  # not a (2m-1)-design: not stiff, dual not enumerable
        else:
            raise
    stiff = strength >= 2 * m - 1 and dual is not None and not dual.is_empty

    freq_table: list[tuple] = []
    freq_match: Optional[bool] = None
    props: dict = {}
    if dual is not None and dual.count:
        # the exact rows share one norm, so equal integer dots are equal
        # unit dots; frequency row k is dual point k's
        if dual.exact:
            rows = dual.common_rows
            duals, pts = int_arrays(rows, code.points)
            norms = (sum(x * x for x in rows[0]), code.norm_sq)
            surds: dict = {}
            freq_table = [row for _, block in dot_blocks(duals, pts)
                          for row in spectra(block, norms, surds=surds)]
            antipodal = {tuple(-x for x in v) for v in rows} == set(rows)
        else:
            duals, pts = dual.unit_points(), code.unit_array()
            freq_table = [tuple((round(val, 9), c) for val, c in row)
                          for _, block in dot_blocks(duals, pts) for row in spectra(block)]
            antipodal = covered_by(duals, -duals, 1e-8)
        freq_match = _frequencies_match(code, m, dual, freq_table)
        props["antipodal"] = antipodal
        if m >= 2:
            # a walked dual has at most m choices at each of d+1 rows; D_1
            # is the walk's single point or _subspace_dual's pair
            props["cardinality_ok"] = dual.count <= m ** code.ambient_dim
        gap = 0 if dual.exact else 1e-8
        props["double_dual_contains_code"] = all(
            _at_most_m_distinct(block, m, gap)
            for _, block in dot_blocks(pts, duals))
    return StiffnessCertificate(code.name, m, strength, stiff, dual,
                                tuple(freq_table), freq_match, props)


def _at_most_m_distinct(dots: np.ndarray, m: int, gap: float) -> bool:
    """Every row of the table holds at most m values more than gap apart.
    The rows are sorted in place: the tables are dot_blocks' blocks, which
    the next block overwrites.  With gap 0 (exact dots) neighbours are
    compared for inequality, which makes a boolean table and no float
    table of differences."""
    dots.sort(axis=1)
    if gap:
        steps = np.diff(dots, axis=1) > gap
    else:
        steps = dots[:, 1:] != dots[:, :-1]
    return bool(np.all(steps.sum(axis=1) < m))


def _rows_equal(rows) -> bool:
    """All rows are equal, by tuple equality of neighbours: a set of the
    rows would hash every Surd in them through a Fraction hash.  Rows from
    one table of spectra share their Surd objects, so neighbours compare by
    identity."""
    return all(a == b for a, b in pairwise(rows))


def _frequencies_match(code: Code, m: int, dual: DualSearchResult,
                       freq_table) -> bool:
    """Prop-2.3 check: counts equal a_0(Lagrange basis) * N for every point."""
    if dual.nodes_supplied and len(dual.node_values) == m:
        # weights are certified only for the canonical Gegenbauer nodes, so
        # all rows must at least agree with each other
        return _rows_equal(freq_table)
    ns = gegenbauer_nodes(code.sphere_dim, m)
    n = code.size
    expected = list(zip(ns.nodes, ns.weights))
    if ns.exact and dual.exact:
        # an exact row lists distinct values in ascending order, so rows
        # with equal dicts are equal tuples: one dict, of the first row
        want = {Surd(v): Fraction(w) * n for v, w in expected}
        return _rows_equal(freq_table) and dict(freq_table[0]) == want
    want_f = sorted((float(v), float(w) * n) for v, w in expected)
    for row in freq_table:
        got_f = sorted((float(v), c) for v, c in row)
        if len(got_f) != len(want_f):
            return False
        for (gv, gc), (wv, wc) in zip(got_f, want_f):
            if abs(gv - wv) > 1e-8 or abs(gc - wc) > 1e-6 * n:
                return False
    return True


@dataclass(frozen=True)
class SharpnessReport:
    code_name: str
    inner_dot_count: int
    strength: int
    sharp: bool
    strongly_sharp: bool
    dot_values: tuple


def classify_sharp(code: LatticeCode) -> SharpnessReport:
    """Sharpness: m' distinct inter-point dots vs design strength 2m'-1 (2m')."""
    if not isinstance(code, LatticeCode):
        raise ValueError("sharpness classification needs an exact code")
    vals = [t for t, _ in pair_values(code) if t != 1]
    m_prime = len(vals)
    rep = index_set(code, 2 * m_prime)
    sharp = rep.strength >= 2 * m_prime - 1
    strongly = rep.strength >= 2 * m_prime
    return SharpnessReport(code.name, m_prime, rep.strength, sharp, strongly,
                           tuple(vals))


def _max_cluster_widths(table: np.ndarray, m: int) -> np.ndarray:
    """Per row of dots: the largest cluster width after cutting the sorted
    row at its m-1 biggest gaps (a stable sort of the gaps, so of equal
    gaps the later ones are cut)."""
    arr = np.sort(table, axis=1)
    n = arr.shape[1]
    if m >= n:
        return np.zeros(len(arr))
    cuts = np.argsort(np.diff(arr, axis=1), axis=1, kind="stable")[:, n - m:]
    cuts.sort(axis=1)
    ends = np.concatenate([cuts, np.full((len(arr), 1), n - 1)], axis=1)
    starts = np.concatenate([np.zeros((len(arr), 1), dtype=cuts.dtype), cuts + 1],
                            axis=1)
    widths = (np.take_along_axis(arr, ends, axis=1)
              - np.take_along_axis(arr, starts, axis=1))
    return widths.max(axis=1)


def _qualifying(candidates: np.ndarray, units: np.ndarray, m: int,
                width_tol: float) -> np.ndarray:
    """The unit candidates and their negatives whose dots split into m
    clusters of width at most width_tol, narrowest first, taken once by
    codes.greedy_cluster at 10 width_tol.  The widths come from blocks of
    candidates x code (codes.dot_blocks), so no whole table is held.

    The radius covers the slack of the width test.  Tilting a direction by
    e moves the dots x.z - y.z of two points by at most e|x - y|, so
    candidates up to width_tol / 2 from a dual direction always qualify,
    and ones up to 10 width_tol from it do when the points of each cluster
    lie within 0.1 of each other.  Nearly parallel pair differences give
    normals that far off; they are the same hit, not a second one."""
    candidates = np.vstack([candidates, -candidates])
    widths = np.empty(len(candidates))
    for start, block in dot_blocks(candidates, units):
        widths[start:start + len(block)] = _max_cluster_widths(block, m)
    order = np.argsort(widths, kind="stable")
    return greedy_cluster(candidates[order[widths[order] <= width_tol]], 10 * width_tol)


def brute_force_dual(code: Code, m: int) -> np.ndarray:
    """All directions on S^2 with <= m distinct code dots.

    Independent of the linear-system route.  Take N > 2m points and a
    direction z with at most m distinct dots: z is normal to every
    difference of two points that share a dot.  By pigeonhole two of the
    first m + 1 points share one, which gives a difference a.  Some dot is
    shared by three or more points, which lie on a circle and so are not
    collinear; their differences span the plane normal to z, so one of
    them, b, is not parallel to a.  So z = ±(a x b)/|a x b| for a pair
    difference a among the first m + 1 points and b among all points.
    Float points rarely tie exactly, so each candidate is tested where it
    lies: its dots must split into m clusters of width at most
    BRUTE_WIDTH_TOL.  Returns unit rows in codes.sorted_rows order
    (lexicographic on coordinates rounded to 12 places), taking the
    narrowest candidate first and dropping any within 1e-5 of a kept one.
    ValueError unless the code is on S^2, m >= 1 and N > 2m.
    """
    if code.ambient_dim != 3:
        raise ValueError("pair-difference scan applies to codes on S^2 only")
    units = code.unit_array()
    n = len(units)
    if not 1 <= m < n / 2:
        raise ValueError(f"m must be in 1..{(n - 1) // 2} for {n} points on S^2, got {m}")
    i, j = np.triu_indices(m + 1, 1)
    first = units[i] - units[j]
    i, j = np.triu_indices(n, 1)
    every = units[i] - units[j]
    # the candidate x code dots, which _qualifying takes in blocks
    check_size(2 * len(first) * len(every) * n, f"pair-difference scan of {n} points")
    normals = np.cross(first[:, None, :], every[None, :, :]).reshape(-1, 3)
    lengths = np.linalg.norm(normals, axis=1)
    hits = _qualifying(normals[lengths > 0] / lengths[lengths > 0, None], units, m,
                       BRUTE_WIDTH_TOL)
    return sorted_rows(hits)


def circle_dual_scan(code: Code, m: int) -> np.ndarray:
    """All directions on the circle with <= m distinct code dots.

    The same pigeonhole as brute_force_dual: take n > m distinct points at
    angles a_i.  A direction t with at most m distinct dots ties two of the
    first m + 1 points, i != j, and cos(t - a_i) = cos(t - a_j) forces
    2t = a_i + a_j (mod 2 pi).  So the m(m+1)/2 midpoints (a_i + a_j)/2 of
    those points and their antipodes are the only candidates.  Float points
    rarely tie exactly, so each candidate is tested where it lies: its dots
    must split into m clusters of width at most CIRCLE_WIDTH_TOL.  Returns
    unit rows in increasing angle from 0 (angles rounded to 12 places),
    taking the narrowest candidate first and dropping any within 1e-7 of a
    kept one.  With m >= n every direction qualifies, which is a ValueError.
    """
    if code.ambient_dim != 2:
        raise ValueError("angular scan applies to codes on S^1 only")
    units = code.unit_array()
    n = len(units)
    if not 1 <= m < n:
        raise ValueError(f"m must be in 1..{n - 1} for {n} points on the circle, "
                         f"got {m}; with m >= n every direction qualifies")
    check_size(m * (m + 1) * n, f"circle scan of {n} points")  # candidates x code
    alphas = np.arctan2(units[:m + 1, 1], units[:m + 1, 0])
    i, j = np.triu_indices(m + 1, 1)
    mids = 0.5 * (alphas[i] + alphas[j])
    hits = _qualifying(np.stack([np.cos(mids), np.sin(mids)], axis=1), units, m,
                       CIRCLE_WIDTH_TOL)
    angles = np.round(np.arctan2(hits[:, 1], hits[:, 0]), 12) % (2 * np.pi)
    return hits[np.argsort(angles)]
