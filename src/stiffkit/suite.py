"""Acceptance battery: twelve verifiable claims about the shipped codes.

Each criterion function is self-contained, returns a CriterionResult, and
pins its own tolerances.  The CLI `suite --paper` command and the
acceptance test module both run these functions, so the pass/fail table
and the test outcomes can never drift apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .codes import (LatticeCode, LatticePoint, covered_by, cross_polytope, cube, demicube,
                    e8_roots, ngon, polytope_2_41)
from .design import index_set, pair_sum
from .exact import Surd
from .gegenbauer import gegenbauer_poly, inner, nodes
from .potential import Kernel, skip_one_add_two_check, verify_universal_minimum
from .stiffness import (
    brute_force_dual,
    certify_stiff,
    circle_dual_scan,
    dual_search,
)
from .transforms import glue, rotated_cubes, symmetrize

NODES_2160 = (
    -Surd.sqrt_of(Fraction(1, 2)),
    -Surd.sqrt_of(Fraction(1, 8)),
    Surd(0),
    Surd.sqrt_of(Fraction(1, 8)),
    Surd.sqrt_of(Fraction(1, 2)),
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "elapsed_s": round(self.elapsed, 3),
        }


@cache
def _shared(name: str) -> LatticeCode:
    """polytope_2_41() or e8_roots(), built once per process for the
    criteria that share them (codes are frozen).  The constructors stay
    uncached, so every direct call still checks the size cap."""
    return {"2_41": polytope_2_41, "e8": e8_roots}[name]()


def _result(number: int, name: str, started: float, passed: bool,
            details: str) -> CriterionResult:
    return CriterionResult(number, name, passed, details, time.time() - started)


def criterion_1() -> CriterionResult:
    """Exact pair sums of the 2160-point code: zero for 1..7, 9, 10; not 8."""
    t0 = time.time()
    code = _shared("2_41")
    zeros = index_set(code, 10).index_set
    zero_at = [n for n in list(range(1, 8)) + [9, 10] if n in zeros]
    s8 = pair_sum(code, 8)
    ok = len(zero_at) == 9 and s8 != 0
    elapsed_ok = (time.time() - t0) < 10.0
    return _result(
        1, "index set of the 2160-point code", t0, ok and elapsed_ok,
        f"zero at n={zero_at}, pair_sum(8)={s8} (exact), "
        f"runtime_limit_10s={'met' if elapsed_ok else 'exceeded'}")


def criterion_2() -> CriterionResult:
    """Demicubes: exact 3-designs; duals are the signed bases for d in 5..7."""
    t0 = time.time()
    problems = []
    for d in range(4, 9):
        if index_set(demicube(d), 4).strength < 3:
            problems.append(f"demicube({d}) not a 3-design")
    for d in (5, 6, 7):
        res = dual_search(demicube(d), 2)
        if not (res.code is not None and res.dual_complete and
                set(res.code.points) == set(cross_polytope(d).points)):
            problems.append(f"demicube({d}) dual mismatch")
    elapsed_ok = (time.time() - t0) < 60.0
    return _result(
        2, "demicube designs and signed-basis duals", t0,
        not problems and elapsed_ok,
        "; ".join(problems) if problems
        else "3-designs for d=4..8; duals = 2d signed basis vectors, "
             "exact and complete, for d=5..7")


def criterion_3() -> CriterionResult:
    """The 240 root vectors are exactly the five-level dual of the big code."""
    t0 = time.time()
    code = _shared("2_41")
    cert = certify_stiff(code, 5, nodes=NODES_2160)
    res = cert.dual
    ok = res.exact and res.count == 240 and res.code.same_point_set(_shared("e8"))
    spectra_ok = (ok and cert.frequencies_constant
                  and all(c > 0 for _, c in cert.frequency_table[0]))
    elapsed = time.time() - t0
    return _result(
        3, "240-root dual of the 2160-point code", t0,
        ok and spectra_ok and elapsed < 600.0,
        f"found {res.count} exact dual points; match_root_system={ok}; "
        f"all five dot values attained per point={spectra_ok}; {elapsed:.1f}s")


def criterion_4() -> CriterionResult:
    """Every dual point of a 2-stiff code splits the code in half per node."""
    t0 = time.time()
    corpus = [cross_polytope(3), cross_polytope(4), cube(3), cube(4),
              demicube(5), demicube(6), demicube(7)]
    problems = []
    for code in corpus:
        cert = certify_stiff(code, 2)
        d = code.sphere_dim
        node = Surd.sqrt_of(Fraction(1, d + 1))
        if not cert.stiff:
            problems.append(f"{code.name} not 2-stiff")
            continue
        if not cert.frequencies_match_weights:
            problems.append(f"{code.name} frequency mismatch")
        want = ((-node, code.size // 2), (node, code.size // 2))  # rows ascend
        for row in cert.frequency_table:
            if row != want:
                problems.append(f"{code.name} row {sorted(c for _, c in row)}")
                break
    return _result(
        4, "half-count node frequencies for 2-stiff codes", t0, not problems,
        "; ".join(problems) if problems
        else f"{len(corpus)} codes: each dual point sees +-1/sqrt(d+1) "
             "exactly N/2 times (exact arithmetic)")


def criterion_5() -> CriterionResult:
    """Polynomial system exactness: normalization, orthogonality, 2-point nodes."""
    t0 = time.time()
    problems = []
    for d in range(1, 10):
        for n in range(13):
            p = gegenbauer_poly(d, n)
            if p(Fraction(1)) != 1:
                problems.append(f"P_{n}^({d})(1) != 1")
        for a in range(13):
            for b in range(a):
                if inner(gegenbauer_poly(d, a), gegenbauer_poly(d, b), d) != 0:
                    problems.append(f"<P_{a}, P_{b}> != 0 at d={d}")
        ns = nodes(d, 2)
        want = Surd.sqrt_of(Fraction(1, d + 1))
        if not (ns.exact and list(ns.nodes) == [-want, want]):
            problems.append(f"nodes({d},2) mismatch")
    return _result(
        5, "orthogonal polynomial exactness", t0, not problems,
        "; ".join(problems[:4]) if problems
        else "P_n(1)=1 and pairwise orthogonality exact for d=1..9, n<=12; "
             "two-point node sets are +-1/sqrt(d+1), exact")


def criterion_6() -> CriterionResult:
    """Multistart minima agree with the dual values for three small codes."""
    t0 = time.time()
    kernels = [Kernel.parse("riesz:1"), Kernel.parse("riesz:2"),
               Kernel.parse("riesz:4"), Kernel.parse("gauss:1")]
    cases = [demicube(5), demicube(6), cross_polytope(4)]
    lines = []
    ok = True
    for code in cases:
        tc = time.time()
        dual = dual_search(code, 2).code
        reps = verify_universal_minimum(code, 2, dual, kernels,
                                        restarts=200, seed=0, argmin_tol=1e-5)
        per_code = time.time() - tc
        good = all(r.passed for r in reps)
        ok = ok and good and per_code < 120.0
        # a None gap (no finite non-dual value) already fails r.passed
        gaps = [r.gap for r in reps if r.gap is not None]
        worst_gap = f"{min(gaps):.1e}" if gaps else "none"
        lines.append(f"{code.name}: pass={good} worst_gap={worst_gap} "
                     f"{per_code:.1f}s")
    return _result(6, "universal minima of small stiff codes", t0, ok,
                   "; ".join(lines))


def criterion_7() -> CriterionResult:
    """Global potential minimum of the 2160-point code sits on the 240 roots."""
    t0 = time.time()
    code = _shared("2_41")
    reps = verify_universal_minimum(
        code, 5, _shared("e8"), [Kernel.parse("riesz:2"), Kernel.parse("gauss:1")],
        restarts=1000, seed=0, argmin_tol=1e-5)
    ok = all(r.passed and r.equality_rel <= 1e-8 for r in reps)
    elapsed = time.time() - t0
    lines = [f"{r.kernel}: min={r.global_min_value:.9g} "
             f"equality_rel={r.equality_rel:.1e} worst_argmin_dist={r.argmin_max_dist:.1e}"
             for r in reps]
    return _result(7, "universal minimum of the 2160-point code", t0,
                   ok and elapsed < 900.0, "; ".join(lines) + f"; {elapsed:.0f}s")


def criterion_8() -> CriterionResult:
    """Skip-one-add-two hypotheses hold exactly for the five-node set."""
    t0 = time.time()
    code = _shared("2_41")
    e8 = _shared("e8")
    witness = LatticePoint(e8.points[0], e8.norm_sq)
    rep = skip_one_add_two_check(code, 5, NODES_2160, candidates=[witness])
    ok = rep.all_ok and rep.sum_value == "0" and rep.sumsq_value == "5/4" \
        and rep.bound_value == "15/8"
    return _result(
        8, "skip-one-add-two hypotheses", t0, ok,
        f"index {{1..7,9,10}} ok={rep.index_ok}; sum={rep.sum_value} < t5/2; "
        f"sum_sq - 2*sum^2 = {rep.sumsq_value} < {rep.bound_value} (exact); "
        f"witness realizes only the five dot values: {rep.witness_ok}")


def criterion_9() -> CriterionResult:
    """Transforms: symmetrization identity, gluing, rotated cubes."""
    t0 = time.time()
    problems = []
    sym = symmetrize(demicube(5))
    if not sym.same_point_set(cube(5)):
        problems.append("symmetrize(demicube(5)) != cube(5)")
    a = dual_search(demicube(5), 2).code
    b = dual_search(sym, 2).code
    if not a.same_point_set(b):
        problems.append("symmetrization changed the dual")
    glued, cert = glue(cross_polytope(3), cross_polytope(3), 2, seed=0)
    if not (glued.size == 12 and cert.design_strength >= 3
            and cert.dual is not None and cert.dual.count >= 1 and cert.stiff):
        problems.append("glued 12-point certificate failed")
    rc, rcert = rotated_cubes(3)
    pts = rcert.dual.unit_points() if rcert.dual is not None else np.zeros((0, 3))
    axis_ok = (len(pts) == 2
               and np.allclose(np.abs(pts), [[0, 0, 1], [0, 0, 1]], atol=1e-9))
    if not (rcert.stiff and axis_ok):
        problems.append("rotated_cubes(3) dual is not the axis pair")
    return _result(
        9, "constructive transforms", t0, not problems,
        "; ".join(problems) if problems
        else "symmetrize(demicube(5))=cube(5) with equal dual; "
             "12-point glue certified 2-stiff; rotated_cubes(3) dual = {+-e3}")


def criterion_10() -> CriterionResult:
    """Circle codes: even n-gons give midpoint duals, odd n-gons give none."""
    t0 = time.time()
    problems = []
    for m in (2, 3, 4):
        even = ngon(2 * m)
        if index_set(even, 2 * m - 1).strength < 2 * m - 1:
            problems.append(f"ngon({2 * m}) design check failed")
        hits = circle_dual_scan(even, m)
        mid = np.array([[np.cos((2 * k + 1) * np.pi / (2 * m)),
                         np.sin((2 * k + 1) * np.pi / (2 * m))]
                        for k in range(2 * m)])
        if len(hits) != 2 * m or not covered_by(hits, mid, 1e-8):
            problems.append(f"ngon({2 * m}) midpoint directions mismatch")
        odd = ngon(2 * m + 1)
        if len(circle_dual_scan(odd, m)):
            problems.append(f"ngon({2 * m + 1}) unexpectedly m-stiff")
    return _result(
        10, "circle scan duals of n-gons", t0, not problems,
        "; ".join(problems) if problems
        else "ngon(2m) m=2,3,4: 2m-1 design + exactly 2m midpoint duals; "
             "odd n-gons: no direction within 1e-8")


def criterion_11() -> CriterionResult:
    """Structural dual properties: antipodality, size bound, double/triple dual."""
    t0 = time.time()
    problems = []
    corpus = [demicube(5)] + [cross_polytope(d) for d in range(3, 7)]
    for code in corpus:
        cert = certify_stiff(code, 2)
        if not cert.stiff:
            problems.append(f"{code.name} not stiff")
            continue
        if not cert.properties.get("antipodal"):
            problems.append(f"{code.name} dual not antipodal")
        if cert.dual.count > 2 ** code.ambient_dim:
            problems.append(f"{code.name} dual too large")
        if not cert.properties.get("double_dual_contains_code"):
            problems.append(f"{code.name} double-dual inclusion failed")
        d1 = cert.dual.code
        d2 = dual_search(d1, 2).code
        d3 = dual_search(d2, 2).code
        if not d3.same_point_set(d1):
            problems.append(f"{code.name} triple dual differs")
    return _result(
        11, "dual structure properties", t0, not problems,
        "; ".join(problems) if problems
        else f"{len(corpus)} codes: antipodal duals, |dual| <= m^(d+1), "
             "double-dual inclusion, triple-dual identity")


def criterion_12() -> CriterionResult:
    """The pair-difference scan of brute_force_dual agrees with the
    linear-system dual search."""
    t0 = time.time()
    problems = []
    cases = [cube(3), cross_polytope(3), symmetrize(demicube(3)),
             rotated_cubes(2)[0]]
    for code in cases:
        for m in (1, 2):
            bf = brute_force_dual(code, m)
            ds = dual_search(code, m).unit_points()
            if len(bf) != len(ds):
                problems.append(f"{code.name} m={m}: {len(bf)} vs {len(ds)}")
                continue
            if len(bf) and not covered_by(bf, ds, 1e-8):
                problems.append(f"{code.name} m={m}: oracle offset > 1e-8")
    return _result(
        12, "pair-difference scan agreement", t0, not problems,
        "; ".join(problems) if problems
        else "4 codes x m in {1,2}: same dual sets within 1e-8")


ALL_CRITERIA: Sequence[Callable[[], CriterionResult]] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
)


def chosen_criteria(numbers: Optional[Sequence[int]] = None) -> list[int]:
    """The criterion numbers to run, sorted and once each: all of them for
    None.  ValueError for an empty selection or a number out of range."""
    if numbers is None:
        return list(range(1, len(ALL_CRITERIA) + 1))
    bad = [n for n in numbers if not 1 <= n <= len(ALL_CRITERIA)]
    if bad or not numbers:
        raise ValueError(f"criterion numbers run from 1 to {len(ALL_CRITERIA)}, "
                         f"got {list(numbers)}")
    return sorted(set(numbers))


def run_suite(numbers: Optional[Sequence[int]] = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default) in order."""
    return [ALL_CRITERIA[n - 1]() for n in chosen_criteria(numbers)]
