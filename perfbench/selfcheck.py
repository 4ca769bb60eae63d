"""Self-tests of the benchmark harness: ``python3 perfbench/run.py --self-check``.

1. The tracer wraps every binding of a traced function, including the ones
   made at import (``census.OPERATORS``, ``census.terms``, the package
   re-exports), counts calls through each, and restores the originals.
2. One traced pass of every workload records calls for every layer the
   prediction table ties to it, every traced function is called on some
   workload, and every answer matches its oracle.
3. One wrong expected value makes ``fail_ratio`` positive.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

import plcensus
import run
import workloads
from plcensus import census, sequences
from tracer import TARGETS, Tracer

HERE = Path(__file__).resolve().parent


def check_bindings(problems: list[str]) -> None:
    tracer = Tracer()
    originals = (census.OPERATORS["phi1"][0], census.terms, plcensus.phi1, sequences.terms)
    tracer.install()
    try:
        tracer.active = True
        census.OPERATORS["phi1"][0](6, lambda k: 1)
        plcensus.phi1(6, lambda k: 1)
        census.terms(sequences.spec_b(1), 5)
        sequences.terms(sequences.spec_b(1), 5)
        tracer.active = False
        expected = {"census.phi1": 2, "sequences.terms": 2}
        for name, calls in expected.items():
            if tracer.calls[name] != calls:
                problems.append(f"tracer: {name} counted {tracer.calls[name]} calls, expected {calls}")
    finally:
        tracer.uninstall()
    restored = (census.OPERATORS["phi1"][0], census.terms, plcensus.phi1, sequences.terms)
    if any(a is not b for a, b in zip(originals, restored)):
        problems.append("tracer: uninstall did not restore the original functions")


def check_workloads(problems: list[str]) -> None:
    table = json.loads((HERE / "predictions.json").read_text())
    called: set[str] = set()
    for name in run.WORKLOAD_NAMES:
        tracer = Tracer()
        runner = run.Runner(name, seed=1, invoke=run.inprocess_cli if name == "cli" else None)
        tracer.install()
        try:
            runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        if runner.failed:
            problems.append(f"{name}: {runner.failed} of {runner.attempted} jobs failed: {runner.failures}")
        called.update(fn for fn, calls in tracer.calls.items() if calls)
        for row in table["predictions"]:
            if name not in row["workloads"]:
                continue
            for fn in row["layers"]:
                if not tracer.calls[fn]:
                    problems.append(f"{name}: predicted layer {fn} recorded no calls")
        print(f"self-check: {name}: {runner.attempted} jobs, {runner.failed} failed, "
              f"{sum(1 for c in tracer.calls.values() if c)} of {len(TARGETS)} traced functions called")
    for fn in sorted(set(TARGETS) - called):
        problems.append(f"{fn} is called on no workload")


def check_fail_ratio(problems: list[str]) -> None:
    runner = run.Runner("cli", seed=1, invoke=run.inprocess_cli)
    first = workloads.build("cli", 1, runner.sieve, run.inprocess_cli)[0].jobs[0]
    runner.expected[first.key] = ("deliberately", "wrong")
    runner.run_pass()
    ratio = runner.failed / runner.attempted
    if not (runner.failed == 1 and ratio > 0):
        problems.append(f"one wrong expected value gave failed={runner.failed}, fail_ratio={ratio}")
    else:
        print(f"self-check: one wrong expected value gives fail_ratio {ratio:.4f}")


def main() -> int:
    problems: list[str] = []
    check_bindings(problems)
    check_workloads(problems)
    check_fail_ratio(problems)
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    if not problems:
        print("self-check: all passed")
    return 1 if problems else 0
