"""stiffkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload exact_2160 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each pass is a fresh interpreter (bench/worker.py).  With ``--trace 0`` the
passes repeat as long as another whole pass fits in ``--seconds`` (at
least one pass runs) and the end-to-end metrics are medians over passes.  With ``--trace 1`` one
untraced and one traced pass run; the per-layer metrics come from the
traced pass and ``trace.overhead_frac`` compares the two.  Set-up is also
timed in extra set-up-only interpreters, and ``setup_s`` is the median.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of BENCHMARK.json.  Earlier lines give the environment and each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
# every run, its set-up included, ends within this many seconds
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: Path, trace: int,
          deadline: float, setup_only: bool = False) -> tuple[float, dict]:
    """Start a worker; return (seconds until it was set up, its record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0,
                            cwd=ROOT, env=env)
    try:
        buf = b""
        fd = proc.stdout.fileno()
        while b"\n" not in buf:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise WorkerError("worker set-up ran past the run's time budget")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise WorkerError(f"worker exited during set-up "
                                      f"(code {proc.wait()})")
                buf += chunk
        setup_s = time.perf_counter() - t0
        line, rest = buf.split(b"\n", 1)
        if line != b"READY":
            raise WorkerError(f"unexpected worker output {line[:200]!r}")
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the run's time budget") from None
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
        lines = (rest + out).decode().strip().splitlines()
        return setup_s, (json.loads(lines[-1]) if lines else {})
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def environment(args, worker_env: dict) -> dict:
    workload = WORKLOADS[args.workload]
    return {
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "seed_note": ("passed to verify-min --seed" if workload.seeded else
                      "seed-free: the suite criteria pin their own seeds"),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(passes: list, setups: list) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    descended = sum(p["n_descended"] for p in passes)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_frac": sum(not op["failed"] for op in ops) / len(ops),
        # vacuously 1 when the workload descends no start
        "converged_frac": (sum(p["n_converged"] for p in passes) / descended
                           if descended else 1.0),
    }


def per_layer(plain: dict, traced: dict, criteria: list) -> dict:
    layers = dict(traced["layers"])
    starts = traced["n_descended"]
    layers["potential.starts"] = starts
    layers["potential.s_per_start"] = (
        layers["potential.minimize_potential_s"] / starts if starts else 0.0)
    for n in criteria:
        layers[f"suite.criterion_{n}_s"] = plain["criterion_s"].get(str(n), 0.0)
    layers["trace.overhead_frac"] = \
        (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return layers


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "stiffkit" / "__init__.py").is_file():
        print(f"run.py: no stiffkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.perf_counter() + RUN_BUDGET_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        setups = [spawn(args.workload, args.seed, workdir, 0, deadline,
                        setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
        passes = []
        t0 = time.perf_counter()
        for trace in ((0, 1) if args.trace else (0,)):
            setup_s, rec = spawn(args.workload, args.seed, workdir, trace, deadline)
            setups.append(setup_s)
            passes.append(rec)
        # as many whole passes as fit in --seconds, at least one
        while not args.trace:
            next_end = time.perf_counter() + (time.perf_counter() - t0) / len(passes)
            if next_end - t0 > args.seconds or next_end > deadline:
                break
            setup_s, rec = spawn(args.workload, args.seed, workdir, 0, deadline)
            setups.append(setup_s)
            passes.append(rec)
    except WorkerError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for k, rec in enumerate(passes):
        print(json.dumps({"pass": k, "trace": 1 if args.trace and k else 0,
                          "wall_s": rec["wall_s"],
                          "peak_rss_mb": rec["peak_rss_mb"],
                          "failed": sum(op["failed"] for op in rec["ops"]),
                          "criterion_s": rec["criterion_s"]}))
    print(json.dumps({"setup_s_samples": setups}))
    if args.trace:
        print(json.dumps({"spans": passes[1]["spans"]}))
    print(json.dumps({"env": environment(args, passes[0]["env"])}))

    if args.trace:
        criteria = sorted({int(m["name"].split("_")[1]) for m in spec["per_layer"]
                           if m["name"].startswith("suite.criterion_")})
        values = per_layer(passes[0], passes[1], criteria)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, setups)
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        print(f"run.py: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    ops = [op for rec in passes for op in rec["ops"]]
    failed = sum(op["failed"] for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
