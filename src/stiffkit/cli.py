"""Command-line surface: construct, verify, transform, and report.

Machine output is JSON on stdout; a short aligned summary goes to stderr.
Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
IO error.  Code files use the save_code/load_code JSON schema, so stdout
from `construct` (without -o) can be piped straight into another command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .codes import (
    LatticeCode,
    LatticePoint,
    cross_polytope,
    cube,
    demicube,
    e8_roots,
    load_code,
    ngon,
    polytope_2_41,
    save_code,
)
from .config import BadSizeCap, SizeCapExceeded, size_cap
from .design import FLOAT_DESIGN_TOL, index_set, spectrum
from .exact import Surd, parse_scalar
from .potential import (DUAL_SPREAD_REL, GAP_FLOOR, Kernel, SingularEvaluation,
                        verify_universal_minimum)
from .stiffness import FLOAT_RESIDUAL, NodesRequired, NotInGeneralPosition, certify_stiff
from .suite import chosen_criteria, run_suite
from .transforms import facet_derive, glue, rotated_cubes, symmetrize


class UsageError(Exception):
    """Malformed invocation detected after argparse (bad token grammar etc.)."""


CONSTRUCTORS = {
    "cross-polytope": cross_polytope,
    "cube": cube,
    "demicube": demicube,
    "ngon": ngon,
    "e8-roots": e8_roots,
    "2-41": polytope_2_41,
    "polytope-2-41": polytope_2_41,
}


def _err(msg: str) -> None:
    print(f"stiffkit: {msg}", file=sys.stderr)


def _summary(rows: Sequence[tuple[str, object]]) -> None:
    if not rows:
        return
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"  {k:<{width}}  {v}", file=sys.stderr)


def _emit(command: str, report, *, seed: Optional[int] = None,
          tolerances: Optional[dict] = None) -> None:
    """Print a report envelope carrying version, seed, and tolerances."""
    out: dict = {"tool": "stiffkit", "version": __version__, "command": command}
    if seed is not None:
        out["seed"] = seed
    if tolerances:
        out["tolerances"] = tolerances
    out["report"] = report
    _print_json(out)


def _print_json(obj) -> None:
    """obj as indented JSON and a newline on stdout, written chunk by chunk
    as json.dump encodes it: the bytes print(json.dumps(...)) gave."""
    json.dump(obj, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _scalar(token: str) -> Surd:
    """One exact scalar in the grammar of exact.parse_scalar."""
    try:
        return parse_scalar(token)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_nodes(text: Optional[str]):
    if text is None:
        return None
    return tuple(_scalar(t) for t in text.split(","))


def _parse_point(text: str, code):
    """A nonzero point of the code's ambient space from comma-separated
    coordinates; all-integer input on an integer code becomes an exact
    lattice point."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != code.ambient_dim:
        raise UsageError(f"point {text!r} has {len(parts)} coordinates, "
                         f"the code lives in dimension {code.ambient_dim}")
    try:
        ints = [int(t) for t in parts]
    except ValueError:
        ints = None
    if ints is not None and isinstance(code, LatticeCode):
        ns = sum(v * v for v in ints)
        if ns == 0:
            raise UsageError("point must be nonzero")
        return LatticePoint(tuple(ints), ns)
    try:
        x = np.array([float(t) for t in parts])
    except ValueError:
        raise UsageError(f"cannot parse point {text!r}") from None
    if not (np.isfinite(x).all() and x.any()):
        raise UsageError(f"point {text!r} must be finite and nonzero")
    return x


def _parse_kernels(text: str) -> list[Kernel]:
    kernels = []
    for spec in (t.strip() for t in text.split(",")):
        try:
            kernels.append(Kernel.parse(spec))
        except (ValueError, ZeroDivisionError) as e:  # Fraction('1/0') divides
            raise UsageError(f"--kernels {spec!r}: {e}") from None
    return kernels


def _load(path: str):
    try:
        return load_code(path)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad code file {path}: {e}") from None


def _check_sphere(code, what: str) -> None:
    """Gegenbauer polynomials, and with them design strength and duals,
    exist on S^d for d >= 1 only."""
    if code.sphere_dim < 1:
        raise UsageError(f"{code.name} lies on S^{code.sphere_dim}; {what} "
                         "needs a sphere of dimension >= 1")


def _same_dimension(a, b) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise UsageError(f"{a.name} lives in dimension {a.ambient_dim}, "
                         f"{b.name} in dimension {b.ambient_dim}")


def _write_code(code, out: Optional[str], command: str,
                extra: Optional[dict] = None, *,
                seed: Optional[int] = None) -> None:
    """Either save to `out` and emit a confirmation report, or print the
    raw code schema so the output can be piped into another command."""
    if out:
        save_code(code, out)
        report = {"saved": out, "name": code.name, "size": code.size,
                  "ambient_dim": code.ambient_dim}
        if extra:
            report.update(extra)
        _emit(command, report, seed=seed)
    else:
        if extra:
            _emit(command, {"code": code.to_json_dict(), **extra}, seed=seed)
        else:
            _print_json(code.to_json_dict())


# ---------------------------------------------------------------- commands


def cmd_construct(args) -> int:
    key = args.name.lower().replace("_", "-")
    ctor = CONSTRUCTORS.get(key)
    if ctor is None:
        raise UsageError(
            f"unknown constructor {args.name!r}; choose from "
            + ", ".join(sorted(set(CONSTRUCTORS) - {"polytope-2-41"})))
    try:
        params = [int(p) for p in args.params]
    except ValueError:
        raise UsageError("constructor parameters must be integers") from None
    try:
        code = ctor(*params)
    except SizeCapExceeded:
        raise
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad parameters for {key}: {e}") from None
    _summary([("code", code.name), ("points", code.size),
              ("ambient dim", code.ambient_dim)])
    _write_code(code, args.out, "construct")
    return 0


def cmd_check_design(args) -> int:
    code = _load(args.file)
    if args.arithmetic == "exact" and not isinstance(code, LatticeCode):
        raise UsageError("--exact needs an integer code file")
    _check_sphere(code, "design strength")
    if args.arithmetic == "float" and isinstance(code, LatticeCode):
        from .codes import FloatCode
        code = FloatCode(code.name, code.ambient_dim, code.unit_array(),
                         tolerance=1e-9)
    rep = index_set(code, args.nmax)
    _summary([("code", rep.code_name), ("strength", rep.strength),
              ("index set", sorted(rep.index_set)),
              ("arithmetic", "exact" if rep.exact else "float")])
    _emit("check-design", rep.to_json_dict(),
          tolerances=None if rep.exact else {"pair_sum_rel_tol": FLOAT_DESIGN_TOL})
    return 0


def cmd_dual(args) -> int:
    code = _load(args.file)
    _check_sphere(code, "a dual")
    nodes = _parse_nodes(args.nodes)
    if nodes is not None and len(nodes) > args.m:
        raise UsageError(f"{len(nodes)} nodes supplied for m = {args.m}")
    cert = certify_stiff(code, args.m, nodes=nodes)
    dual = cert.dual
    rows = [("code", code.name), ("m", args.m),
            ("design strength", cert.design_strength),
            ("stiff", cert.stiff)]
    if dual is not None:
        rows += [("dual mode", dual.mode), ("dual points", dual.count)]
    reason = None
    if dual is None:
        reason = (f"dual not enumerable: {code.name} is not a "
                  f"{2 * args.m - 1}-design and no --nodes were supplied")
        rows.append(("dual", reason))
    _summary(rows)
    certificate = cert.to_json_dict()
    report: dict = {"dual": certificate.get("dual"), "certificate": certificate}
    if reason:
        report["reason"] = reason
    _emit("dual", report,
          tolerances={"float_residual": FLOAT_RESIDUAL} if dual is not None
          and dual.mode == "float" else None)
    return 0 if dual is not None else 1


def cmd_verify_min(args) -> int:
    code, dual_code = _load(args.file), _load(args.dual)
    _same_dimension(code, dual_code)
    kernels = _parse_kernels(args.kernels)
    reps = verify_universal_minimum(code, args.m, dual_code, kernels,
                                    restarts=args.restarts, seed=args.seed,
                                    argmin_tol=args.argmin_tol)
    for r in reps:
        _summary([("kernel", r.kernel), ("passed", r.passed),
                  ("global min", f"{r.global_min_value:.12g}"),
                  ("dual value", f"{r.dual_value:.12g}"),
                  ("gap", "none" if r.gap is None else f"{r.gap:.3e}")])
        print(file=sys.stderr)
    _emit("verify-min", [r.to_json_dict() for r in reps], seed=args.seed,
          tolerances={"dual_spread_rel": DUAL_SPREAD_REL, "gap_floor": GAP_FLOOR,
                      "argmin_tol": args.argmin_tol})
    return 0 if all(r.passed for r in reps) else 1


def cmd_spectrum(args) -> int:
    code = _load(args.file)
    text = args.probe.strip()
    if "," not in text:
        try:
            idx = int(text)
        except ValueError:
            raise UsageError("--probe takes an index or comma coordinates") from None
        if not 0 <= idx < code.size:
            raise UsageError(f"probe index {idx} out of range 0..{code.size - 1}")
        if isinstance(code, LatticeCode):
            probe = LatticePoint(code.points[idx], code.norm_sq)
        else:
            probe = code.points[idx]
    else:
        probe = _parse_point(text, code)
    rep = spectrum(probe, code, tol=args.tol)
    _summary([("probe", rep.probe), ("distinct values", rep.distinct_count),
              ("arithmetic", "exact" if rep.exact else "float")])
    _emit("spectrum", rep.to_json_dict(),
          tolerances=None if rep.exact else {"merge_tol": args.tol})
    return 0


def cmd_symmetrize(args) -> int:
    code = _load(args.file)
    sym = symmetrize(code)
    _summary([("input", f"{code.name} ({code.size} points)"),
              ("output", f"{sym.name} ({sym.size} points)")])
    _write_code(sym, args.out, "symmetrize")
    return 0


def cmd_facet(args) -> int:
    code = _load(args.file)
    x = _parse_point(args.point, code)
    t = _scalar(args.t)
    derived = facet_derive(code, x, t)
    _summary([("input", f"{code.name} ({code.size} points)"),
              ("derived", f"{derived.size} points in dim {derived.ambient_dim}"),
              ("arithmetic", "exact" if isinstance(derived, LatticeCode) else "float")])
    _write_code(derived, args.out, "facet")
    return 0


def cmd_glue(args) -> int:
    c1, c2 = _load(args.file1), _load(args.file2)
    _same_dimension(c1, c2)
    glued, cert = glue(c1, c2, args.m, seed=args.seed)
    _summary([("inputs", f"{c1.name} + {c2.name}"),
              ("output points", glued.size),
              ("design strength", cert.design_strength),
              ("stiff", cert.stiff),
              ("dual points", cert.dual.count if cert.dual else 0)])
    _write_code(glued, args.out, "glue",
                extra={"certificate": cert.to_json_dict()}, seed=args.seed)
    return 0 if cert.stiff else 1


def cmd_rotated_cubes(args) -> int:
    code, cert = rotated_cubes(args.n)
    _summary([("copies", args.n), ("points", code.size),
              ("design strength", cert.design_strength),
              ("stiff", cert.stiff),
              ("dual points", cert.dual.count if cert.dual else 0)])
    _write_code(code, args.out, "rotated-cubes",
                extra={"certificate": cert.to_json_dict()})
    return 0 if cert.stiff else 1


def cmd_suite(args) -> int:
    numbers = None
    if args.only is not None:
        try:
            numbers = [int(t) for t in args.only.split(",")]
        except ValueError:
            raise UsageError("--only takes comma-separated criterion numbers") from None
    try:
        chosen = chosen_criteria(numbers)
    except ValueError as e:
        raise UsageError(f"--only: {e}") from None
    t0 = time.time()
    results = []
    for n in chosen:
        res = run_suite([n])[0]
        results.append(res)
        mark = "PASS" if res.passed else "FAIL"
        print(f"  [{res.number:2d}] {mark}  {res.elapsed:7.1f}s  {res.name}",
              file=sys.stderr)
        print(f"        {res.details}", file=sys.stderr)
    n_pass = sum(r.passed for r in results)
    print(f"  {n_pass}/{len(results)} criteria passed "
          f"in {time.time() - t0:.1f}s", file=sys.stderr)
    _emit("suite", [r.to_json_dict() for r in results])
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------- parser


def _number(kind: type, low: int):
    """argparse type: a finite value of kind (int or float) that is >= low."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be >= {low} and finite, got {text}")
        return value
    return parse


_positive_int, _seed, _tolerance = _number(int, 1), _number(int, 0), _number(float, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiffkit",
        description="Verification workbench for spherical designs, "
                    "stiff configurations, and potential minima.")
    parser.add_argument("--version", action="version",
                        version=f"stiffkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named code")
    p.add_argument("name", help="cross-polytope | cube | demicube | ngon | "
                                "e8-roots | 2-41")
    p.add_argument("params", nargs="*", help="integer parameters (dimension / n)")
    p.add_argument("-o", "--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check-design", help="index set and design strength")
    p.add_argument("file")
    p.add_argument("--nmax", type=_positive_int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", dest="arithmetic", action="store_const",
                   const="exact", default="auto")
    g.add_argument("--float", dest="arithmetic", action="store_const",
                   const="float")
    p.set_defaults(func=cmd_check_design)

    p = sub.add_parser("dual", help="dual configuration and stiffness certificate")
    p.add_argument("file")
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--nodes",
                   help="comma list of exact scalars: int, p/q, decimal, sqrt(p/q), "
                        "-sqrt(p/q), c*sqrt(p/q); use --nodes=... when the "
                        "first value is negative")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("verify-min", help="multistart universal-minimum check")
    p.add_argument("file")
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--dual", required=True, help="code file with the candidate minimizers")
    p.add_argument("--kernels", required=True,
                   help="comma list, e.g. riesz:2,gauss:1,log")
    p.add_argument("--restarts", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--argmin-tol", type=_tolerance, default=1e-5)
    p.set_defaults(func=cmd_verify_min)

    p = sub.add_parser("spectrum", help="dot products of a probe against a code")
    p.add_argument("file")
    p.add_argument("--probe", required=True,
                   help="point index, or comma-separated coordinates")
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="float merge tolerance")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("symmetrize", help="close a code under negation")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("facet", help="derived code from a cross-section")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma coordinates of the pole")
    p.add_argument("--t", required=True,
                   help="dot value of the slice: int, p/q, decimal, sqrt(p/q), "
                        "-sqrt(p/q), or c*sqrt(p/q)")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_facet)

    p = sub.add_parser("glue", help="merge two stiff codes across a reflection")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("rotated-cubes", help="union of n rotated cubes")
    p.add_argument("n", type=_positive_int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_rotated_cubes)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--paper", action="store_true", required=True,
                   help="run the full published-results battery")
    p.add_argument("--only", help="comma-separated criterion numbers (subset)")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        size_cap()  # a malformed cap is an input error for every command
        return args.func(args)
    except (UsageError, SizeCapExceeded, BadSizeCap, OSError, json.JSONDecodeError) as e:
        _err(str(e))
        return 2
    except (NodesRequired, NotInGeneralPosition, SingularEvaluation,
            ValueError, RuntimeError) as e:
        _err(f"check failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
