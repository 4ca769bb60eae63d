"""plcensus benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0

The workload's job list is run in passes until ``--seconds`` have gone by
(at least ``MIN_PASSES`` passes and ``MIN_JOBS`` jobs).  Every answer is
checked against an independent oracle outside the timed spans.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (per pass) with ``--trace 1``.  ``--out DIR`` also writes
the full record, with the machine description, to DIR.

End-to-end times are reported at a reference host speed: before each group
the run times ``reference_work``, a fixed piece of interpreter work that
uses no plcensus code, and each job's time is scaled by ``REF_S`` over the
median reference time of the groups around it.  The unscaled times are kept
in the record (``raw``).

Other entry points:

    python3 perfbench/run.py --self-check      # tracer and oracle self-tests
    python3 perfbench/run.py --workload all --seconds 36 --out DIR
                                               # every workload, both modes,
                                               # then the summary table

The benchmark imports plcensus only from ``src/`` of the checkout it sits
in, and exits with code 2 if that is missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("census", "sweep", "cli")
MIN_PASSES = 4
MIN_JOBS = 100
# a run stops starting passes after this long, whatever the minimums say
MAX_RUN_S = 120.0
SETUP_PROBES = 11
REF_PROBES = 9
REF_WINDOW = 2
LIMITS = "no hardware counters; wall-clock timers only; host speed shifts, so times are scaled to a reference speed"
# seconds that one reference_work() call is taken to last at reference speed
REF_S = 1e-3
_REF_MOD = 10**300


def _die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    if not (SRC / "plcensus" / "__init__.py").is_file():
        _die(f"no plcensus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plcensus

    if Path(plcensus.__file__).resolve().parent != SRC / "plcensus":
        _die(f"plcensus imported from {plcensus.__file__}, not from {SRC}")


# -- host speed -------------------------------------------------------------------


def reference_work():
    """A fixed mix of the interpreter work plcensus does (Fraction sums,
    big-int products, dict updates) that calls no plcensus code."""
    acc, x, counts = Fraction(0), 3**300, {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        x = x * x % _REF_MOD
        counts[i % 17] = counts.get(i % 17, 0) + i
    return acc, x, counts


def reference_time() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def pin_to_one_cpu() -> int | None:
    """Keep the run and the processes it starts on one CPU, so that the
    reference times measure the CPU the work runs on.  Returns the CPU, or
    None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


# -- the CLI as fresh processes or in-process -----------------------------------


class SubprocessCLI:
    """Runs ``plcensus <argv>`` as a fresh interpreter and keeps the peak
    RSS over every child it waited for."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_rss_kb = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "plcensus.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=ROOT,
            env=self.env,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()


def inprocess_cli(argv: list[str]) -> tuple[int, str]:
    from plcensus import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- passes ---------------------------------------------------------------------


class Runner:
    """Runs passes of one workload and checks every answer.  A group's
    build time counts towards its first job."""

    def __init__(self, workload: str, seed: int, invoke=None):
        import oracles
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.invoke = invoke
        self.sieve = oracles.Sieve(1024)
        self.expected: dict[str, object] = {}
        self.job_s: list[float] = []  # at reference speed
        self.job_s_raw: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass over the job list.  Returns its time, the sum of the
        timed spans (group builds and jobs), unscaled and at reference
        speed.  A job is scaled by the median reference time of the
        ``REF_WINDOW`` groups on either side of its own."""
        groups = self.workloads.build(self.workload, self.seed, self.sieve, self.invoke)
        busy = 0.0
        job_s = []  # (group index, seconds)
        refs = []
        for g, group in enumerate(groups):
            refs.append(reference_time())
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            state = group.build()
            pending = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            for job in group.jobs:
                if job.key not in self.expected:
                    self.expected[job.key] = job.expect()
                self.attempted += 1
                if tracer is not None:
                    tracer.active = True
                t0 = perf_counter()
                try:
                    raw = job.run(state)
                    error = None
                except Exception as exc:  # a failed job is counted, not fatal
                    raw, error = None, exc
                dt = perf_counter() - t0 + pending
                pending = 0.0
                if tracer is not None:
                    tracer.active = False
                busy += dt
                job_s.append((g, dt))
                ok = error is None and job.answer(raw) == self.expected[job.key]
                raw = None  # a big result must not live on into the next job
                if ok:
                    continue
                self.failed += 1
                if len(self.failures) < 10:
                    why = f"{type(error).__name__}: {error}" if error else "wrong answer"
                    self.failures.append(f"{job.key}: {why}")
        local = [statistics.median(refs[max(0, g - REF_WINDOW) : g + REF_WINDOW + 1]) for g in range(len(refs))]
        scaled = [dt * REF_S / local[g] for g, dt in job_s]
        if tracer is None:
            self.job_s_raw.extend(dt for _, dt in job_s)
            self.job_s.extend(scaled)
        return busy, sum(scaled)

    def enough(self, passes: int, elapsed: float, last: float, seconds: float) -> bool:
        if elapsed >= MAX_RUN_S:
            return True
        if passes < MIN_PASSES or self.attempted < MIN_JOBS:
            return False
        # stop early rather than overrun the budget by most of a pass
        return elapsed + 0.5 * last >= seconds


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_time(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of importing plcensus and building the
    workload's maps and specs, at reference speed and unscaled; one untimed
    probe first warms file caches."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            check=True,
            capture_output=True,
            text=True,
            cwd=ROOT,
        ).stdout
        if i:
            t, ref = map(float, out.split()[-2:])
            raw.append(t)
            scaled.append(t * REF_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def setup_probe(workload: str, seed: int) -> None:
    """Prints the set-up time, then the median reference time measured in
    the same process after it."""
    t0 = perf_counter()
    _import_library()
    if workload == "cli":
        import plcensus.cli  # noqa: F401
    import oracles
    import workloads

    groups = workloads.build(workload, seed, oracles.Sieve(2), inprocess_cli)
    for group in groups:
        group.build()
    elapsed = perf_counter() - t0
    ref = statistics.median(reference_time() for _ in range(REF_PROBES))
    print(elapsed, ref)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "limits": LIMITS,
    }


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Runner, dict, dict]:
    setup_s, setup_raw = _setup_time(workload, seed)
    invoke = SubprocessCLI() if workload == "cli" else None
    runner = Runner(workload, seed, invoke)
    walls, scaled = [], []
    start = perf_counter()
    while not runner.enough(len(walls), perf_counter() - start, walls[-1] if walls else 0.0, seconds):
        wall, at_ref = runner.run_pass()
        walls.append(wall)
        scaled.append(at_ref)
    if invoke is not None:
        rss_kb = invoke.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(scaled), "s"),
        "job_s.p50": (_quantile(runner.job_s, 50), "s"),
        "job_s.p90": (_quantile(runner.job_s, 90), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {
        "wall_s": statistics.median(walls),
        "job_s.p50": _quantile(runner.job_s_raw, 50),
        "job_s.p90": _quantile(runner.job_s_raw, 90),
        "setup_s": setup_raw,
    }
    info = {
        "passes": len(walls),
        "pass_wall_s": scaled,
        "pass_wall_s_raw": walls,
        "job_samples": len(runner.job_s),
        "raw": raw,
    }
    return runner, metrics, info


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Runner, dict, dict]:
    """Alternates untraced and traced passes, in-process (the CLI through
    ``cli.main``); per-layer metrics are per traced pass."""
    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(workload, seed, inprocess_cli if workload == "cli" else None)
    plain, traced = [], []
    last = 0.0
    start = perf_counter()
    while not runner.enough(len(plain) + len(traced), perf_counter() - start, last, seconds):
        if len(plain) <= len(traced):
            last = runner.run_pass()[0]
            plain.append(last)
        else:
            tracer.install()
            try:
                last = runner.run_pass(tracer)[0]
            finally:
                tracer.uninstall()
            traced.append(last)
    metrics = tracer.layer_metrics(len(traced))
    # each traced pass against the untraced pass just before it, so a drift
    # in host speed between passes cancels out
    pairs = [t - p for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = (statistics.median(pairs), "s")
    missed = check_predictions(workload, metrics)
    info = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "traced_wall_s": traced,
        "untraced_wall_s": plain,
        "wait": "none: the run is single-threaded and has no queues",
        "predicted_but_not_called": missed,
    }
    return runner, metrics, info


def check_predictions(workload: str, metrics: dict) -> list[str]:
    """Per-layer functions the prediction table ties to this workload that
    recorded no call; a non-empty list means the tracer missed a binding or
    the call graph changed."""
    table = json.loads((HERE / "predictions.json").read_text())
    missed = sorted(
        {
            fn
            for row in table["predictions"]
            for fn in row["layers"]
            if workload in row["workloads"] and metrics[f"{fn}.calls"][0] == 0
        }
    )
    for fn in missed:
        print(f"WARNING: {fn} recorded no calls on {workload}", file=sys.stderr)
    return missed


def run(args) -> int:
    _import_library()
    import plcensus.cli  # noqa: F401  (loaded so the tracer can wrap it)

    cpu = pin_to_one_cpu()
    fn = run_traced if args.trace else run_untraced
    runner, metrics, info = fn(args.workload, args.seed, args.seconds)
    correct = runner.failed == 0
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), "pinned_cpu": cpu, "ref_s": REF_S},
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **info,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} attempted={runner.attempted} "
        f"failed={runner.failed} fail_ratio={record['fail_ratio']} "
        + (f"passes={info['passes']} job_samples={info['job_samples']} "
           + " ".join(f"raw.{k}={v:.6g}" for k, v in info["raw"].items()) if not args.trace else
           f"traced_passes={info['traced_passes']} overhead_s={metrics['trace.overhead_s'][0]:.4f}")
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, one fresh process each, then the
    summary table."""
    if not args.out:
        _die("--workload all needs --out DIR")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return subprocess.run([sys.executable, str(HERE / "report.py"), "show", args.out]).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for full JSON records")
    parser.add_argument("--self-check", action="store_true", help="run the tracer and oracle self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_check:
        _import_library()
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
