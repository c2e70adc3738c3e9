"""The benchmark's workloads: which CLI commands each runs, and the verdicts.

Every workload drives the public entry point ``stiffkit.cli.main(argv)``.
An *operation* is one suite criterion, or one CLI command that is not a
suite.  The verdict checker turns an exit code and the JSON envelope a
command printed into one ``Operation`` per criterion or command.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Optional

# criterion 7's own gate, applied to every verify-min report
EQUALITY_REL_MAX = 1e-8
DESCENT_KERNELS = ("riesz:2", "gauss:1")


@dataclass(frozen=True)
class Workload:
    name: str
    # input files written during set-up: file stem -> `construct` arguments
    inputs: dict
    # (seed, {stem: path}) -> list of argv lists, run in order
    commands: Callable[[int, dict], list]
    seeded: bool


def _suite(only: str) -> Callable[[int, dict], list]:
    return lambda seed, files: [["suite", "--paper", "--only", only]]


def _descent(seed: int, files: dict) -> list:
    return [["verify-min", files["big"], "-m", "5", "--dual", files["e8"],
             "--kernels", ",".join(DESCENT_KERNELS), "--restarts", "1000",
             "--seed", str(seed), "--argmin-tol", "1e-4"]]


# Why each workload was chosen is recorded in BENCHMARK.json.  The suite
# workloads take no seed: every suite criterion pins its own.
WORKLOADS = {
    w.name: w for w in (
        # exact paths on the 2160-point code; potential is idle
        Workload("exact_2160", {}, _suite("1,3,8"), seeded=False),
        # criterion 7's parameters; the exact layers are idle
        Workload("descent_2160", {"big": ["2-41"], "e8": ["e8-roots"]},
                 _descent, seeded=True),
        # dozens of small codes: per-call overhead and the float paths
        Workload("small_battery", {}, _suite("2,4,5,6,9,10,11,12"),
                 seeded=False),
    )
}


@dataclass(frozen=True)
class Operation:
    name: str
    failed: bool
    reason: str = ""


def _crit_1(details: str) -> Optional[str]:
    if "pair_sum(8)=388800/143" not in details:
        return "criterion 1 does not report pair_sum(8)=388800/143"
    return None


def _crit_3(details: str) -> Optional[str]:
    found = re.search(r"found (\d+) exact dual points", details)
    if not found or int(found.group(1)) != 240:
        return "criterion 3 does not report 240 exact dual points"
    return None


# workload invariants keyed by criterion number, checked on the details line
CRITERION_INVARIANTS = {1: _crit_1, 3: _crit_3}


def _envelope(stdout: str) -> Optional[dict]:
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return env if isinstance(env, dict) and "report" in env else None


def check_command(argv: list, exit_code: int, stdout: str) -> list[Operation]:
    """Verdicts for one CLI command: one Operation per criterion or command."""
    env = _envelope(stdout)
    if argv[0] == "suite":
        return _check_suite(argv, exit_code, env)
    name = argv[0]
    if exit_code != 0:
        return [Operation(name, True, f"exit code {exit_code}")]
    if env is None:
        return [Operation(name, True, "no JSON envelope on stdout")]
    if argv[0] == "verify-min":
        reason = _verify_min_problem(env["report"])
        return [Operation(name, reason is not None, reason or "")]
    return [Operation(name, False)]


def _verify_min_problem(reports) -> Optional[str]:
    if not isinstance(reports, list) or \
            [r.get("kernel") for r in reports] != list(DESCENT_KERNELS):
        return f"expected one report per kernel {DESCENT_KERNELS}"
    for r in reports:
        if r.get("passed") is not True:
            return f"{r['kernel']}: passed is not true"
        if not r.get("equality_rel", 1.0) <= EQUALITY_REL_MAX:
            return f"{r['kernel']}: equality_rel {r.get('equality_rel')} > {EQUALITY_REL_MAX}"
    return None


def _check_suite(argv: list, exit_code: int, env: Optional[dict]) -> list[Operation]:
    wanted = [int(t) for t in argv[argv.index("--only") + 1].split(",")]
    by_number = {}
    if env is not None and isinstance(env["report"], list):
        by_number = {r.get("number"): r for r in env["report"]}
    ops = []
    for n in wanted:
        r = by_number.get(n)
        if r is None:
            ops.append(Operation(f"criterion {n}", True,
                                 f"missing from the suite report (exit {exit_code})"))
            continue
        reason = None
        if r.get("passed") is not True:
            reason = f"passed is not true: {r.get('details')}"
        elif n in CRITERION_INVARIANTS:
            reason = CRITERION_INVARIANTS[n](str(r.get("details", "")))
        ops.append(Operation(f"criterion {n}", reason is not None, reason or ""))
    if exit_code != 0 and not any(op.failed for op in ops):
        ops = [Operation(op.name, True, f"exit code {exit_code} with every "
                                        "criterion passed") for op in ops]
    return ops


def criterion_times(argv: list, stdout: str) -> dict:
    """Each criterion's elapsed_s from a suite envelope, keyed by number."""
    env = _envelope(stdout)
    if argv[0] != "suite" or env is None:
        return {}
    return {r["number"]: float(r["elapsed_s"]) for r in env["report"]
            if isinstance(r, dict) and "elapsed_s" in r}
