"""The seven record types are immutable, compare and hash by value, keep
their ``Name(field=value, ...)`` reprs, and have a len() that agrees with
iteration; importing the CLI loads neither ``dataclasses`` nor ``inspect``."""

import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import plcensus
from plcensus import (
    AffinePiece,
    CensusReport,
    FamilyParams,
    QRSFinding,
    RecurrenceSpec,
    SolutionSet,
    explore_qrs,
    make_gn,
    make_pn,
    spec_a,
    verify_congruence,
)

F = Fraction

# record name -> (a fresh instance on every call, a field, the repr)
RECORDS = {
    "RecurrenceSpec": (
        lambda: RecurrenceSpec([3, -1], [3, 7]),
        "coefficients",
        "RecurrenceSpec(coefficients=(3, -1), initial_terms=(3, 7))",
    ),
    "AffinePiece": (
        lambda: AffinePiece(F(1), F(2), F(-2), F(5)),
        "lo",
        "AffinePiece(lo=Fraction(1, 1), hi=Fraction(2, 1), slope=Fraction(-2, 1), intercept=Fraction(5, 1))",
    ),
    "SolutionSet": (
        lambda: make_gn(1).solution_set(2),
        "points",
        "SolutionSet(points=(Fraction(5, 3), Fraction(7, 3), Fraction(8, 3)))",
    ),
    "SequenceSpec": (
        lambda: spec_a(3),
        "family",
        "SequenceSpec(family='a', params=(('n', 3),), recurrence=RecurrenceSpec(coefficients=(3, -1), "
        "initial_terms=(3, 7)), gf_num=Poly([0, 3, -2]), gf_den=Poly([1, -3, 1]), note=None)",
    ),
    "FamilyParams": (
        lambda: FamilyParams("gn", n=1),
        "family",
        "FamilyParams(family='gn', n=1, m=None, j=None)",
    ),
    "CensusReport": (
        lambda: verify_congruence(spec_a(3), "phi1", 2)[1],
        "k",
        "CensusReport(k=2, phi_value=7, operator='phi1', value=4, modulus=2, quotient=2, passed=True)",
    ),
    "QRSFinding": (
        lambda: explore_qrs(2, [1], [1], [1], 20)[0],
        "q",
        "QRSFinding(q=1, r=1, s=1, holds=False, first_failure=5)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    make, field, _ = RECORDS[name]
    rec = make()
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_hash_and_repr(name):
    make, _, text = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_len_agrees_with_iteration(name):
    rec = RECORDS[name][0]()
    assert len(rec) == len(list(rec))


def test_report_and_finding_to_dict():
    assert CensusReport(5, 2693, "phi1", 2688, 5, None, False).to_dict() == {
        "k": 5, "term": 2693, "operator": "phi1", "value": 2688,
        "modulus": 5, "quotient": None, "pass": False,
    }
    assert verify_congruence(spec_a(3), "phi1", 2)[1].to_dict() == {
        "k": 2, "term": 7, "operator": "phi1", "value": 4,
        "modulus": 2, "quotient": 2, "pass": True,
    }
    assert explore_qrs(2, [1], [1], [1], 20)[0].to_dict() == {
        "q": 1, "r": 1, "s": 1, "holds_through_K": False, "first_failure_k": 5,
    }
    assert QRSFinding(0, 0, 0, True, None).to_dict() == {
        "q": 0, "r": 0, "s": 0, "holds_through_K": True, "first_failure_k": None,
    }


@pytest.mark.parametrize("pl_map", [make_gn(1), make_pn(2)], ids=["gn1", "pn2"])
def test_solution_set_len_counts_points(pl_map):
    for k in range(1, 5):
        s = pl_map.solution_set(k)
        assert type(s.points) is tuple
        assert len(s) == len(s.points) == pl_map.count_solutions(k)


def test_solution_set_keeps_its_points_field():
    assert SolutionSet(points=(F(1), F(2))) == SolutionSet((F(1), F(2)))
    assert SolutionSet((F(1),)).points == (F(1),)


def test_recurrence_spec_stores_tuples():
    spec = RecurrenceSpec([3, -1], [3, 7])
    assert type(spec.coefficients) is tuple and spec.coefficients == (3, -1)
    assert type(spec.initial_terms) is tuple and spec.initial_terms == (3, 7)
    assert type(spec._replace(initial_terms=[1, 2]).initial_terms) is tuple
    with pytest.raises(ValueError, match="recurrence order must be >= 1"):
        spec._replace(coefficients=[])


def _modules_after(*argv: str) -> set[str]:
    """Modules that a fresh ``python -X importtime *argv`` imports, with this
    process's copy of plcensus first on the path."""
    src = os.path.dirname(os.path.dirname(plcensus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    err = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stderr
    return set(re.findall(r"^import time:\s*\d+\s*\|\s*\d+\s*\|\s*(\S+)\s*$", err, re.M))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against a bare interpreter, so modules that site preloads do not count
    added = _modules_after("-c", "import plcensus.cli") - _modules_after("-c", "")
    assert "plcensus.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


def _watched(added: set[str]) -> set[str]:
    """The plcensus submodules, fractions and json among ``added``."""
    return {m.removeprefix("plcensus.") for m in added if m.startswith("plcensus.") or m in ("fractions", "json")}


def test_importing_the_package_or_the_cli_loads_no_library_module():
    bare = _modules_after("-c", "")
    assert _watched(_modules_after("-c", "import plcensus") - bare) == set()
    assert _watched(_modules_after("-c", "import plcensus.cli") - bare) == {"cli"}


# command -> the plcensus submodules, fractions and json that running it loads;
# gn(1) counts on markov from k = 2, which reads A's entries with no product,
# and multiplies matrices with exactnum._mat_mul from k = 3
COMMAND_MODULES = {
    "seq --family b --n 1 --k 5 --format bfile": {"sequences", "exactnum"},
    "seq --family a --n 3 --k 2": {"sequences", "exactnum", "json"},
    "gfcheck --family d --m 1 --n 2 --K 20": {"sequences", "exactnum", "json"},
    "verify --conjecture phi1-on-s --n 2 --K 20": {"sequences", "exactnum", "census", "json"},
    "count --map gn --n 1 --k 2": {"families", "plmap", "fractions"},
    "count --map gn --n 1 --k 6": {"families", "plmap", "fractions", "exactnum"},
    "verify --family a --n 4 --K 20": {"sequences", "exactnum", "census", "families", "plmap", "fractions", "json"},
}


@pytest.mark.parametrize("argv", COMMAND_MODULES)
def test_a_command_loads_only_the_modules_it_runs(argv):
    # plcensus.cli runs as __main__, so it is not among the imports
    added = _modules_after("-m", "plcensus.cli", *argv.split()) - _modules_after("-c", "")
    assert _watched(added) == COMMAND_MODULES[argv]


def test_the_package_exports_load_on_first_use(monkeypatch):
    namespace = {}
    exec("from plcensus import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(plcensus.__all__)
    assert set(plcensus.__all__) <= set(dir(plcensus))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        plcensus.nope
    # an export is looked up on every access, never copied into the package
    monkeypatch.setattr(plcensus.census, "phi1", lambda m, f: -1)
    assert plcensus.phi1(6, None) == -1
    assert "phi1" not in vars(plcensus)
