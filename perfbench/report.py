"""Summaries and comparisons of benchmark result records.

    python3 perfbench/report.py show DIR
    python3 perfbench/report.py compare BASE_DIR NEW_DIR

Records are the JSON files ``run.py --out DIR`` writes.  ``show`` prints,
per workload, the median of every end-to-end metric with its unit, the
failure ratio and job sample count, and the per-layer metrics and tracing
overhead of the traced runs.

``compare`` prints, per workload and end-to-end metric, each side's median
and quartiles and the pair wins (runs paired by seed), then a verdict:

* ``gain``: the new side wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the base
  side's quartile distance;
* ``regression``: the new median is worse than the base median by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: either side's quartile distance, as a share of its median,
  is wider than the bound, unless every new run beats every base run;
* ``within bound`` otherwise.

Beside them it prints the per-layer medians of the traced runs of both
sides and their relative change.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    out: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["trace"])].append(record)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(records: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"] for r in records if metric in r["metrics"]}


def show(directory: str) -> int:
    data = load(directory)
    workloads = sorted({w for w, _ in data})
    for workload in workloads:
        plain, traced = data.get((workload, 0), []), data.get((workload, 1), [])
        print(f"== {workload}: {len(plain)} untraced runs, {len(traced)} traced runs")
        if plain:
            attempted = sum(r["attempted"] for r in plain)
            failed = sum(r["failed"] for r in plain)
            samples = statistics.median(r["job_samples"] for r in plain)
            m = plain[0]["machine"]
            print(f"   machine: python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}; {m['limits']}")
            print(f"   seeds: {sorted(r['seed'] for r in plain)}")
            print(f"   fail_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs); "
                  f"job_s samples per run: median {samples:g}")
            for metric, entry in plain[0]["metrics"].items():
                q1, med, q3 = quartiles(list(_values(plain, metric).values()))
                spread = (q3 - q1) / med if med else float("nan")
                print(f"   {metric:<14} {med:12.6g} {entry['unit']:<5} quartiles [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        if traced:
            overhead = statistics.median(r["metrics"]["trace.overhead_s"]["value"] for r in traced)
            missed = sorted({fn for r in traced for fn in r.get("predicted_but_not_called", [])})
            print(f"   tracing overhead (traced wall_s - untraced wall_s): {overhead:.4f} s; "
                  f"wait: {traced[0].get('wait', '')}")
            if missed:
                print(f"   PREDICTED LAYERS WITH NO CALLS: {', '.join(missed)}")
            for metric, entry in traced[0]["metrics"].items():
                med = statistics.median(_values(traced, metric).values())
                print(f"   {metric:<40} {med:14.6g} {entry['unit']}")
    return 0


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(base: dict[int, float], new: dict[int, float], bound: float, lower: bool) -> tuple[str, str]:
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nq1, nmed, nq3 = quartiles(list(new.values()))
    seeds = sorted(set(base) & set(new))
    wins = sum(_better(new[s], base[s], lower) for s in seeds)
    losses = sum(_better(base[s], new[s], lower) for s in seeds)
    pairs = f"{wins} wins, {losses} losses of {len(seeds)} pairs"
    all_better = all(_better(n, b, lower) for n in new.values() for b in base.values())
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    if seeds and wins >= 0.9 * len(seeds) and abs(nmed - bmed) > (bq3 - bq1) and _better(nmed, bmed, lower):
        return "gain", pairs
    if worse_by > bound:
        return "regression", pairs
    if spread > bound and not all_better:
        return "unresolved", pairs
    return "within bound", pairs


def compare(base_dir: str, new_dir: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b0, n0 = base.get((workload, 0), []), new.get((workload, 0), [])
        if not b0 or not n0:
            print(f"== {workload}: missing untraced runs on one side")
            continue
        fails = (sum(r["failed"] for r in b0), sum(r["failed"] for r in n0))
        print(f"== {workload}: {len(b0)} base runs, {len(n0)} new runs; failed jobs {fails[0]} -> {fails[1]}")
        for name, m in metrics.items():
            bv, nv = _values(b0, name), _values(n0, name)
            lower = m["better"] == "lower"
            result, pairs = verdict(bv, nv, m["bound"], lower)
            regressions += result == "regression"
            bq = quartiles(list(bv.values()))
            nq = quartiles(list(nv.values()))
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            print(f"   {name:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] "
                  f"{m['unit']:<3} {change:+.1%}  bound {m['bound']:.0%}  {pairs}: {result}")
        b1, n1 = base.get((workload, 1), []), new.get((workload, 1), [])
        if b1 and n1:
            print("   per-layer medians from the traced runs (base -> new):")
            for name in b1[0]["metrics"]:
                bm = statistics.median(_values(b1, name).values())
                nm = statistics.median(_values(n1, name).values()) if _values(n1, name) else float("nan")
                delta = f"{(nm - bm) / bm:+.1%}" if bm else ("+0" if nm == bm else "new")
                print(f"     {name:<40} {bm:12.6g} -> {nm:12.6g}  {delta}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "show":
        return show(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
