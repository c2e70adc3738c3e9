"""One pass of a workload in a fresh interpreter.

Started by run.py with ``PYTHONPATH=<checkout>/src``, so every pass sees
cold ``design._gram_multiset`` and Gegenbauer caches, as every CLI
invocation does.  Protocol on stdout: the line ``READY`` once set-up (the
imports and the input code files) is done, then one JSON record.
With ``--setup-only`` the worker exits after ``READY``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import (Tracer, install, layer_metrics, span_table, tap,
                   trace_stiffkit)
from workloads import WORKLOADS, check_command, criterion_times

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv: list) -> tuple[int, str, str]:
    """stiffkit.cli.main(argv) with stdout and stderr captured.

    A crash is a failed operation, not a failed benchmark: its traceback
    goes into the captured stderr and the exit code reads -1.
    """
    from stiffkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def set_up(workload, workdir: Path) -> dict:
    """Import stiffkit from this checkout and write the workload's inputs."""
    import numpy  # noqa: F401
    import stiffkit.cli

    src = (ROOT / "src").resolve()
    if src not in Path(stiffkit.cli.__file__).resolve().parents:
        raise SystemExit(f"stiffkit imported from {stiffkit.cli.__file__}, "
                         f"not from {src}")
    files = {}
    for stem, ctor in workload.inputs.items():
        path = str(workdir / f"{stem}.json")
        code, _, err = run_cli(["construct", *ctor, "-o", path])
        if code != 0:
            raise SystemExit(f"set-up: construct {ctor} exited {code}: {err}")
        files[stem] = path
    return files


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    workload = WORKLOADS[args.workload]

    files = set_up(workload, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return

    import numpy
    import stiffkit
    import stiffkit.potential

    # the minimize_potential reports give converged_frac in both modes
    reports: list = []
    minimize = stiffkit.potential.minimize_potential
    install([(minimize, tap(minimize, reports))])
    tracer = None
    if args.trace:
        tracer = Tracer(run=f"{args.workload}-{args.seed}-{os.getpid()}")
        trace_stiffkit(tracer)

    outputs = []
    t0 = time.perf_counter()
    for argv in workload.commands(args.seed, files):
        outputs.append((argv, *run_cli(argv)))
    wall = time.perf_counter() - t0

    ops, crit = [], {}
    for argv, code, out, err in outputs:
        for op in check_command(argv, code, out):
            ops.append({"name": op.name, "failed": op.failed, "reason": op.reason})
            if op.failed:
                print(f"worker: {op.name} failed: {op.reason}\n{err[-2000:]}",
                      file=sys.stderr)
        crit.update(criterion_times(argv, out))
    record = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "criterion_s": crit,
        "n_converged": sum(r.n_converged for r in reports),
        "n_descended": sum(r.n_converged + r.n_failed for r in reports),
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "stiffkit": stiffkit.__version__,
                "blas_threads": blas_threads()},
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, tracer.counts)
        record["spans"] = span_table(tracer.spans)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
