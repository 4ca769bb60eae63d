"""The seven record types are immutable, compare and hash by value, keep
their ``Name(field=value, ...)`` reprs, and have a len() that agrees with
iteration; importing the CLI loads neither ``dataclasses`` nor ``inspect``."""

import os
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


def _modules_after(code: str) -> set[str]:
    """Module names loaded by a fresh interpreter that runs ``code``, with
    this process's copy of plcensus first on the path."""
    src = os.path.dirname(os.path.dirname(plcensus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against a bare interpreter, so modules that site preloads do not count
    added = _modules_after("import plcensus.cli") - _modules_after("")
    assert "plcensus.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)
