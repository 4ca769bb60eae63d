"""The three benchmark workloads as job lists built from a seed.

A workload is a list of groups.  A group builds fresh state (a new map
instance, so no ``PLMap`` memo survives from an earlier pass) and then runs
its jobs in order on it; the seed shuffles the order of the groups.  Each job
returns the library's raw result; ``answer`` turns it into a small comparable
value outside the timed span, and ``expect`` computes the same value from an
independent oracle.  Expected values depend only on the job's key, so the
harness computes each one once per run.

The library is reached through module attributes at call time, never through
names imported here, so the tracer's wrappers are always the ones called.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

from plcensus import census, exactnum, families, plmap, sequences

INF = "inf"


@dataclass
class Job:
    key: str
    run: Callable[[object], object]
    answer: Callable[[object], object]
    expect: Callable[[], object]


@dataclass
class Group:
    build: Callable[[], object]
    jobs: list[Job] = field(default_factory=list)


def _none():
    return None


# -- shared helpers ------------------------------------------------------------


def _fp(family: str, **params) -> "families.FamilyParams":
    return families.FamilyParams(family, **params)


def _spec_for_map(fp) -> "sequences.SequenceSpec":
    """The sequence whose terms are the map's fixed-point counts."""
    if fp.family == "base2":
        return sequences.spec_a(3)
    if fp.family == "fmn":
        return sequences.spec_a(fp.n)
    if fp.family == "gn":
        return sequences.spec_b(fp.n)
    if fp.family == "hjmn":
        return sequences.spec_c(fp.j, fp.m, fp.n)
    return sequences.spec_a(2 * fp.n)  # pn, sign +1


def _degenerate(fp) -> bool:
    return fp.family == "hjmn" and (fp.j == 2 or fp.m == 2 * fp.n + 1)


def _label(fp) -> str:
    params = ",".join(f"{k}={getattr(fp, k)}" for k in ("j", "m", "n") if getattr(fp, k) is not None)
    return f"{fp.family}({params})"


def random_anchors(rng: random.Random, width: int) -> list[tuple[int, int]]:
    """Integer anchors at every integer of [0, width] (width >= 3),
    consecutive values exactly 2 apart: every lap has |slope| 2, so every
    iterate has finitely many solutions, and every row of the transition
    matrix sums to 2."""
    values = [rng.randint(0, width)]
    for _ in range(width):
        values.append(rng.choice([u for u in (values[-1] - 2, values[-1] + 2) if 0 <= u <= width]))
    return list(enumerate(values))


def closed_walks(anchors: list[tuple[int, int]], k: int) -> int:
    """trace(M^k) of the 0/1 transition matrix of the map through
    ``anchors``: lap i covers the unit intervals between its end values."""
    values = [y for _, y in anchors]
    n = len(values) - 1
    matrix = [[int(min(values[i], values[i + 1]) <= j < max(values[i], values[i + 1])) for j in range(n)] for i in range(n)]
    power = matrix
    for _ in range(k - 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*matrix)] for row in power]
    return sum(power[i][i] for i in range(n))


def balanced_anchors(rng: random.Random, width: int, m: int) -> list[tuple[int, int]]:
    """A ``random_anchors`` map whose transition matrix has 2^k +- 1 closed
    walks of each length k <= m (one recurrent part, of growth 2).  Censuses
    of such maps cost about the same at each m, so the seed moves no census
    job across the percentiles."""
    while True:
        anchors = random_anchors(rng, width)
        if all(abs(closed_walks(anchors, k) - 2**k) <= 1 for k in range(1, m + 1)):
            return anchors


def _census_answer(raw):
    return raw if raw == INF else (raw.count, raw.orbit_count)


def _run_periodic(m: int):
    def run(pl_map):
        try:
            return census.periodic_census(pl_map, m)
        except plmap.InfiniteSolutions:
            return INF

    return run


# -- census --------------------------------------------------------------------

# a slice of the acceptance grid, two degenerate h maps included
CENSUS_MAPS = (
    _fp("fmn", m=2, n=4),
    _fp("gn", n=1),
    _fp("gn", n=2),
    _fp("gn", n=3),
    _fp("gn", n=4),
    _fp("hjmn", j=3, m=4, n=2),
    _fp("hjmn", j=5, m=5, n=2),
    _fp("hjmn", j=2, m=4, n=3),
    _fp("hjmn", j=4, m=3, n=3),
    _fp("hjmn", j=7, m=7, n=3),
    _fp("pn", n=3),
)
CENSUS_M = 8
SYMMETRIC_N = (2, 3)
SYMMETRIC_M = 6
RANDOM_MAPS = 2
RANDOM_WIDTH = 6
# small enough that the seed-drawn maps stay below the p90 job of the grid
RANDOM_M = 5


def census_workload(rng: random.Random, sieve: oracles.Sieve) -> list[Group]:
    groups = []
    for fp in CENSUS_MAPS:
        spec = _spec_for_map(fp)
        for m in range(1, CENSUS_M + 1):

            def expect(spec=spec, m=m, inf=_degenerate(fp) and m % 2 == 0):
                if inf:
                    return INF
                t = sequences.terms(spec, m)
                count = oracles.phi1(m, lambda k: t[k - 1], sieve)
                return (count, count // m)

            job = Job(f"census {_label(fp)} m={m}", _run_periodic(m), _census_answer, expect)
            groups.append(Group(fp.build, [job]))
    for n in SYMMETRIC_N:
        fp = _fp("pn", n=n)
        for m in range(1, SYMMETRIC_M + 1):

            def expect(n=n, m=m):
                t = sequences.terms(sequences.spec_s(n), m)
                count = oracles.phi2(m, lambda k: t[k - 1], sieve)
                return (count, count // (2 * m))

            job = Job(
                f"symmetric {_label(fp)} m={m}",
                lambda pl_map, m=m: census.symmetric_census(pl_map, m),
                _census_answer,
                expect,
            )
            groups.append(Group(fp.build, [job]))
    for _ in range(RANDOM_MAPS):
        anchors = balanced_anchors(rng, RANDOM_WIDTH, RANDOM_M)
        for m in range(1, RANDOM_M + 1):

            def expect(anchors=anchors, m=m):
                fresh = plmap.PLMap(anchors)
                counts = [fresh.count_solutions(k, method="markov") for k in range(1, m + 1)]
                count = oracles.phi1(m, lambda k: counts[k - 1], sieve)
                return (count, count // m)

            job = Job(f"census random {anchors} m={m}", _run_periodic(m), _census_answer, expect)
            groups.append(Group(lambda anchors=anchors: plmap.PLMap(anchors), [job]))
    return groups


# -- sweep ---------------------------------------------------------------------

SWEEP_K = 10_000
SWEEP_SPECS = (
    ("a", {"n": 4}, "phi1"),
    ("a", {"n": 6}, "phi1"),
    ("b", {"n": 1}, "phi1"),
    ("b", {"n": 3}, "phi1"),
    ("c", {"j": 3, "m": 4, "n": 3}, "phi1"),
    ("c", {"j": 2, "m": 5, "n": 2}, "phi1"),
    ("d", {"m": 2, "n": 3}, "phi1"),
    ("d", {"m": -1, "n": 4}, "phi1"),
    ("s", {"n": 2}, "phi2"),
    ("s", {"n": 4}, "phi2"),
)
PHI1_ON_S = ((3, SWEEP_K),)
QRS_K = 1500
# c-family triples hold through K, so each costs a full phi1 sweep; most
# random triples fail within a few terms.  With these counts the K = 10^4
# sweeps are a fifth of the jobs, so job_s.p90 falls among them, and job_s.p50
# among the random triples.
QRS_FROM_C = ((2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2), (5, 5, 2), (2, 7, 3), (7, 2, 3), (4, 4, 3))
QRS_RANDOM = 35
QRS_RANGE = 6
# characteristic polynomials of these maps' transition matrices; the matrices
# are built with the job list, outside the timed spans, so plmap stays idle
CHARPOLY_MAPS = (_fp("gn", n=1), _fp("fmn", m=3, n=7), _fp("hjmn", j=3, m=4, n=3), _fp("pn", n=3), _fp("pn", n=4))


def _report_rows(reports):
    return oracles.digest(
        (r.k, r.phi_value, r.value, r.modulus, r.quotient, r.passed) for r in reports
    )


def _expected_rows(spec, operator: str, K: int, sieve):
    def expect():
        term_list = exactnum.series_expand(spec.gf_num, spec.gf_den, K)
        return oracles.digest(oracles.congruence_rows(term_list, operator, sieve))

    return expect


def _qrs_job(n, q, r, s, sieve) -> Job:
    def expect():
        first = oracles.qrs_first_failure(n, q, r, s, QRS_K, sieve)
        return [(first is None, first)]

    return Job(
        f"qrs n={n} ({q},{r},{s}) K={QRS_K}",
        lambda _: census.explore_qrs(n, [q], [r], [s], QRS_K),
        lambda findings: [(f.holds, f.first_failure) for f in findings],
        expect,
    )


def sweep_workload(rng: random.Random, sieve: oracles.Sieve) -> list[Group]:
    groups = []
    for family, params, operator in SWEEP_SPECS:
        spec = sequences.build_spec(family, **params)
        job = Job(
            f"sweep {spec.label} {operator} K={SWEEP_K}",
            lambda _, spec=spec, operator=operator: census.verify_congruence(spec, operator, SWEEP_K),
            _report_rows,
            _expected_rows(spec, operator, SWEEP_K, sieve),
        )
        groups.append(Group(_none, [job]))
    for n, K in PHI1_ON_S:
        job = Job(
            f"phi1-on-s n={n} K={K}",
            lambda _, n=n, K=K: census.check_phi1_on_s(n, K),
            _report_rows,
            _expected_rows(sequences.spec_s(n), "phi1", K, sieve),
        )
        groups.append(Group(_none, [job]))
    for j, m, n in QRS_FROM_C:
        q, r, s = census.qrs_triple_for_c(j, m, n)
        groups.append(Group(_none, [_qrs_job(n, q, r, s, sieve)]))
    for _ in range(QRS_RANDOM):
        n = rng.choice((2, 3))
        q, r, s = (rng.randint(-QRS_RANGE, QRS_RANGE) for _ in range(3))
        groups.append(Group(_none, [_qrs_job(n, q, r, s, sieve)]))
    for fp in CHARPOLY_MAPS:
        matrix = fp.build().transition_matrix()
        job = Job(
            f"charpoly {_label(fp)}",
            lambda _, matrix=matrix: exactnum.charpoly(matrix),
            lambda poly: poly.coeffs,
            lambda matrix=matrix: oracles.charpoly_newton(matrix),
        )
        groups.append(Group(_none, [job]))
    return groups


# -- cli -----------------------------------------------------------------------

README_COMMANDS = (
    "seq --family b --n 1 --k 5 --format bfile",
    "seq --family c --j 2 --m 5 --n 2 --k 3 --format csv",
    "count --map gn --n 1 --k 1",
    "count --map pn --n 2 --k 1 --sign -1",
    "count --map base2 --k 2",
    "count --map custom --anchors 0:0,1:2,2:0 --k 3",
    "verify --family a --n 4 --K 100",
    "verify --family s --n 2 --K 50 --operator phi2",
    "verify --conjecture qrs --n 2 --q 0..3 --r 0..3 --s 0..3 --K 60",
    "verify --conjecture phi1-on-s --n 2 --K 100",
    "gfcheck --family d --m 1 --n 2 --K 20",
    "gfcheck --family s --n 2 --K 20",
)

# Seed-drawn commands are of the cheap kinds, except three more runs of the
# README's heaviest command (verify s, whose depth-8 oracle runs on pieces)
# with other K: then job_s.p90 falls inside that cluster rather than between
# two unlike commands.
CLI_RANDOM_CUSTOM = 4
CLI_RANDOM_FAMILY = 2
CLI_RANDOM_VERIFY_S = 3
CLI_SEQ_FAMILIES = (("a", {"n": 5}), ("b", {"n": 2}), ("c", {"j": 3, "m": 4, "n": 3}), ("d", {"m": 2, "n": 3}), ("s", {"n": 3}))


def _flag_args(params: dict) -> list[str]:
    return [x for k, v in params.items() for x in (f"--{k}", str(v))]


def _opt(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _seq_params(argv: list[str]) -> dict:
    return {k: int(_opt(argv, f"--{k}")) for k in ("j", "m", "n") if f"--{k}" in argv}


def parse_cli_output(argv: list[str], code: int, out: str):
    """The numbers a CLI invocation printed, in the shape ``expect_cli`` gives."""
    cmd = argv[0]
    if cmd == "seq":
        fmt = _opt(argv, "--format", "json")
        if fmt == "json":
            values = [v for _, v in json.loads(out)["terms"]]
        elif fmt == "csv":
            values = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        else:
            values = [int(line.split()[1]) for line in out.splitlines()]
        return (code, values)
    if cmd == "count":
        text = out.strip()
        if text.startswith("{"):
            record = json.loads(text)
            return (code, INF, tuple(record["witness"]))
        return (code, int(text))
    record = json.loads(out)
    if cmd == "gfcheck":
        rows = [(r["k"], r["sequence"], r["series"], r["match"]) for r in record["rows"]]
        return (code, record["summary"]["all_pass"], oracles.digest(rows))
    if "qrs" in argv:
        rows = [(r["q"], r["r"], r["s"], r["holds_through_K"], r["first_failure_k"]) for r in record["rows"]]
        return (code, oracles.digest(rows))
    rows = [(r["k"], r["term"], r["value"], r["modulus"], r["quotient"], r["pass"]) for r in record["rows"]]
    oracle_pass = record.get("oracle_check", {}).get("pass")
    return (code, record["summary"]["all_pass"], oracle_pass, oracles.digest(rows))


def expect_cli(argv: list[str], sieve: oracles.Sieve):
    """What the CLI must print, computed from the library and the oracles
    in-process; every command here must exit 0."""
    cmd = argv[0]
    if cmd == "seq":
        spec = sequences.build_spec(_opt(argv, "--family"), **_seq_params(argv))
        return (0, sequences.terms(spec, int(_opt(argv, "--k"))))
    if cmd == "count":
        family = _opt(argv, "--map")
        k, sign = int(_opt(argv, "--k")), int(_opt(argv, "--sign", "1"))
        if family == "custom":
            pairs = [part.split(":") for part in _opt(argv, "--anchors").split(",")]
            pl_map = plmap.PLMap([(int(x), int(y)) for x, y in pairs])
        else:
            pl_map = families.FamilyParams(family, **_seq_params(argv)).build()
        try:
            return (0, pl_map.count_solutions(k, sign=sign))
        except plmap.InfiniteSolutions as exc:
            return (0, INF, tuple(str(v) for v in exc.witness))
    K = int(_opt(argv, "--K"))
    if cmd == "gfcheck":
        spec = sequences.build_spec(_opt(argv, "--family"), **_seq_params(argv))
        series = exactnum.series_expand(spec.gf_num, spec.gf_den, K)
        wanted = sequences.terms(spec, K)
        rows = [(k, wanted[k - 1], series[k - 1], wanted[k - 1] == series[k - 1]) for k in range(1, K + 1)]
        return (0, True, oracles.digest(rows))
    n = int(_opt(argv, "--n"))
    if "qrs" in argv:
        grid = []
        for name in ("--q", "--r", "--s"):
            lo, hi = map(int, _opt(argv, name).split(".."))
            grid.append(range(lo, hi + 1))
        rows = []
        for q in grid[0]:
            for r in grid[1]:
                for s in grid[2]:
                    first = oracles.qrs_first_failure(n, q, r, s, K, sieve)
                    rows.append((q, r, s, first is None, first))
        return (0, oracles.digest(rows))
    if "phi1-on-s" in argv:
        spec, operator = sequences.spec_s(n), "phi1"
        oracle_pass = None
    else:
        family = _opt(argv, "--family")
        spec = sequences.build_spec(family, **_seq_params(argv))
        operator = _opt(argv, "--operator") or ("phi2" if family == "s" else "phi1")
        oracle_pass = True
    term_list = exactnum.series_expand(spec.gf_num, spec.gf_den, K)
    rows = list(oracles.congruence_rows(term_list, operator, sieve))
    return (0, all(r[-1] for r in rows), oracle_pass, oracles.digest(rows))


def cli_commands(rng: random.Random) -> list[list[str]]:
    commands = [c.split() for c in README_COMMANDS]
    for _ in range(CLI_RANDOM_CUSTOM):
        anchors = ",".join(f"{x}:{y}" for x, y in random_anchors(rng, RANDOM_WIDTH))
        commands.append(["count", "--map", "custom", "--anchors", anchors, "--k", str(rng.randint(1, 6))])
    for _ in range(CLI_RANDOM_FAMILY):
        commands.append(["count", "--map", "gn", "--n", str(rng.randint(1, 4)), "--k", str(rng.randint(1, 6))])
    n = rng.choice((2, 3))
    commands.append(["count", "--map", "hjmn", "--j", "2", "--m", str(rng.randint(2, 2 * n + 1)), "--n", str(n), "--k", str(rng.choice((2, 4)))])
    for fmt in ("json", "csv", "bfile"):
        family, params = rng.choice(CLI_SEQ_FAMILIES)
        commands.append(["seq", "--family", family, *_flag_args(params), "--k", str(rng.randint(10, 60)), "--format", fmt])
    for family, params in rng.sample(CLI_SEQ_FAMILIES, 2):
        commands.append(["gfcheck", "--family", family, *_flag_args(params), "--K", "30"])
    for _ in range(CLI_RANDOM_VERIFY_S):
        commands.append(["verify", "--family", "s", "--n", "2", "--K", str(rng.randint(40, 60)), "--operator", "phi2"])
    return commands


def cli_workload(rng: random.Random, sieve: oracles.Sieve, invoke) -> list[Group]:
    """``invoke(argv) -> (exit code, stdout)`` runs one CLI command, either as
    a fresh process or in-process through ``cli.main``."""
    groups = []
    for argv in cli_commands(rng):
        job = Job(
            "plcensus " + " ".join(argv),
            lambda _, argv=argv: invoke(argv),
            lambda raw, argv=argv: parse_cli_output(argv, *raw),
            lambda argv=argv: expect_cli(argv, sieve),
        )
        groups.append(Group(_none, [job]))
    return groups


WORKLOADS = {"census": census_workload, "sweep": sweep_workload}


def build(name: str, seed: int, sieve: oracles.Sieve, invoke=None) -> list[Group]:
    """The workload's groups in seed-shuffled order."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        groups = cli_workload(rng, sieve, invoke)
    else:
        groups = WORKLOADS[name](rng, sieve)
    random.Random(f"order:{name}:{seed}").shuffle(groups)
    return groups

