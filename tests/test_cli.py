import json
import sys

import pytest

from plcensus.cli import main
from plcensus.sequences import seq_c


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- seq -------------------------------------------------------------------------

def test_seq_bfile(capsys):
    code, out, _ = run(capsys, "seq", "--family", "b", "--n", "1", "--k", "5", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 3", "3 4", "4 7", "5 11"]


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "--family", "c", "--j", "2", "--m", "5", "--n", "2", "--k", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,value", "1,5", "2,11", "3,29"]


def test_seq_json_default(capsys):
    code, out, _ = run(capsys, "seq", "--family", "a", "--n", "3", "--k", "1")
    assert code == 0
    record = json.loads(out)
    assert record["terms"] == [[1, 3]]
    assert record["params"] == {"n": 3}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_seq_prints_terms_past_the_str_digit_limit(capsys):
    # d(0, 10^100) is t_k = 10^(100k); t_50 has 5001 digits
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "seq", "--family", "d", "--m", "0", "--n", str(10**100), "--k", "50", "--format", "csv")
        assert sys.get_int_max_str_digits() == 4300  # the caller's limit is restored
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0
    assert out.splitlines()[-1] == f"50,1{'0' * 5000}"


def test_verify_prints_terms_past_the_str_digit_limit(capsys):
    code, out, _ = run(capsys, "verify", "--family", "d", "--m", "0", "--n", str(10**100), "--K", "50")
    assert code == 0
    rows = json.loads(out, parse_int=str)["rows"]
    assert rows[-1]["term"] == f"1{'0' * 5000}"


def test_seq_bfile_matches_json_content(capsys):
    # the spec's bare example "1 3" is the bfile rendering of the same data
    code, out, _ = run(capsys, "seq", "--family", "a", "--n", "3", "--k", "1", "--format", "bfile")
    assert code == 0
    assert out.strip() == "1 3"


def test_seq_usage_error(capsys):
    code, out, err = run(capsys, "seq", "--family", "a", "--n", "2", "--k", "3")
    assert code == 2
    assert "error" in err


def test_bfile_round_trip(capsys):
    code, out, _ = run(capsys, "seq", "--family", "c", "--j", "3", "--m", "4", "--n", "2", "--k", "12", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == [f"{k} {v}" for k, v in enumerate(seq_c(3, 4, 2, 12), 1)]


# -- count -----------------------------------------------------------------------

def test_count_examples(capsys):
    assert run(capsys, "count", "--map", "gn", "--n", "1", "--k", "1")[1].strip() == "1"
    assert run(capsys, "count", "--map", "pn", "--n", "2", "--k", "1", "--sign", "-1")[1].strip() == "1"
    assert run(capsys, "count", "--map", "base2", "--k", "2")[1].strip() == "7"


@pytest.mark.parametrize(
    "argv",
    [
        ["--anchors", "-1:1,0:0,1:-1"],
        ["--anchors=-1:1,0:0,1:-1"],
        ["--anchors", "-1/1:1,0:0,1:-1"],
    ],
    ids=["space", "equals", "fraction"],
)
def test_count_takes_a_negative_first_anchor_either_way(capsys, argv):
    # an odd map's first anchor is negative; argparse alone reads a value
    # that starts with '-' as an option
    assert run(capsys, "count", "--map", "custom", *argv, "--k", "2", "--sign", "-1") == (0, "1\n", "")


def test_verify_takes_a_negative_range_after_a_space(capsys):
    code, out, _ = run(capsys, "verify", "--conjecture", "qrs", "--n", "2", "--q", "7", "--r", "16", "--s", "-3..-2", "--K", "40")
    assert code == 0
    assert [row["s"] for row in json.loads(out)["rows"]] == [-3, -2]


def test_an_option_after_anchors_is_still_an_option(capsys):
    # '--anchors --k 2' lacks its value; it is not read as anchors '--k'
    with pytest.raises(SystemExit) as exc:
        main(["count", "--map", "custom", "--anchors", "--k", "2"])
    assert exc.value.code == 2
    assert "--anchors: expected one argument" in capsys.readouterr().err


def test_count_infinite_diagnostic(capsys):
    code, out, _ = run(capsys, "count", "--map", "custom", "--anchors", "0:0,1:1", "--k", "1")
    assert code == 0
    record = json.loads(out)
    assert record["infinite_solutions"] is True
    assert record["witness"] == ["0", "1"]


def test_count_resource_guard_exit_3(capsys):
    code, _, err = run(
        capsys, "count", "--map", "gn", "--n", "1", "--k", "40", "--max-pieces", "1000", "--method", "pieces"
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "extra", [["--max-pieces", "-5"], ["--max-pieces", "0", "--method", "markov"], ["--max-pieces", "0"]]
)
def test_count_piece_budget_below_1_is_a_usage_error(capsys, extra):
    code, out, err = run(capsys, "count", "--map", "gn", "--n", "1", "--k", "3", *extra)
    assert (code, out) == (2, "")
    assert "max_pieces must be >= 1" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        ("count --map bogus --k 1", "unknown map 'bogus'; choose from base2, fmn, gn, hjmn, pn, custom"),
        ("seq --family bogus --k 1", "unknown family 'bogus'; choose from a, b, c, d, s"),
        ("gfcheck --family e --K 5", "unknown family 'e'; choose from a, b, c, d, s"),
        ("verify --family bogus --K 5", "unknown family 'bogus'; choose from a, b, c, d, s"),
    ],
    ids=["count-map", "seq-family", "gfcheck-family", "verify-family"],
)
def test_an_unknown_name_is_a_usage_error_that_lists_the_names(capsys, argv, names):
    # checked where the map or spec is built, so main returns rather than exits
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert names in err


@pytest.mark.parametrize("command", ["seq", "count", "verify", "gfcheck"])
def test_help_lists_the_names_the_builders_take(capsys, command):
    # the parser spells the names out, so they must match the builder tables
    from plcensus import families, sequences

    names = [*families._BUILDERS, "custom"] if command == "count" else list(sequences._BUILDERS)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "{" + ",".join(names) + "}" in capsys.readouterr().out


def test_count_missing_params(capsys):
    code, _, err = run(capsys, "count", "--map", "gn", "--k", "1")
    assert code == 2


def test_count_rejects_params_the_map_does_not_take(capsys):
    code, out, err = run(capsys, "count", "--map", "base2", "--n", "7", "--k", "2")
    assert (code, out) == (2, "")
    assert "family 'base2' does not take: n" in err
    code, _, err = run(capsys, "count", "--map", "gn", "--n", "1", "--j", "3", "--k", "1")
    assert code == 2 and "does not take: j" in err
    for flag in ("--n", "--m", "--j"):
        code, out, err = run(capsys, "count", "--map", "custom", "--anchors", "0:0,1:1", flag, "2", "--k", "1")
        assert (code, out) == (2, "")
        assert f"does not take: {flag[2:]}" in err


def test_count_malformed_anchor(capsys):
    for bad in ("0:0:1", "2", ""):
        code, out, err = run(capsys, "count", "--map", "custom", "--anchors", f"{bad},1:2", "--k", "1")
        assert (code, out) == (2, "")
        assert f"anchor '{bad}' is not x:y" in err
    code, out, err = run(capsys, "count", "--map", "custom", "--anchors", "0:0,x:1", "--k", "1")
    assert (code, out) == (2, "")
    assert "Invalid literal for Fraction: 'x'" in err


# -- verify ----------------------------------------------------------------------

def test_verify_family_a(capsys):
    code, out, _ = run(capsys, "verify", "--family", "a", "--n", "4", "--K", "100")
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["all_pass"] is True
    assert record["oracle_check"]["pass"] is True
    assert len(record["rows"]) == 100
    assert [r["k"] for r in record["rows"]] == list(range(1, 101))


def test_verify_family_s_phi2(capsys):
    code, out, _ = run(capsys, "verify", "--family", "s", "--n", "2", "--K", "50", "--operator", "phi2")
    assert code == 0
    record = json.loads(out)
    assert record["operator"] == "phi2"
    assert record["summary"]["all_pass"] is True


def test_verify_family_s_defaults_to_phi2(capsys):
    code, out, _ = run(capsys, "verify", "--family", "s", "--n", "2", "--K", "10")
    assert json.loads(out)["operator"] == "phi2"
    assert code == 0


def test_verify_family_s_phi1_is_a_family_target(capsys):
    code, out, _ = run(capsys, "verify", "--family", "s", "--n", "2", "--K", "10", "--operator", "phi1")
    record = json.loads(out)
    assert (record["target"], record["operator"]) == ("family:s", "phi1")
    assert record["oracle_check"]["pass"] is True
    assert code == 0


def test_verify_family_d_uses_gf_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--family", "d", "--m", "1", "--n", "2", "--K", "60")
    record = json.loads(out)
    assert code == 0
    assert record["oracle_check"]["kind"] == "gf"
    assert record["summary"]["all_pass"] is True


def test_verify_family_c_interior_passes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "c", "--j", "3", "--m", "4", "--n", "2", "--K", "60")
    assert code == 0
    assert json.loads(out)["summary"]["all_pass"] is True


def test_verify_family_c_degenerate_reports_infinite(capsys):
    # j=2 makes the first lap an involution: the oracle has no finite count
    # at even iterates, which is a verification failure, not a crash
    code, out, _ = run(capsys, "verify", "--family", "c", "--j", "2", "--m", "5", "--n", "2", "--K", "20")
    assert code == 1
    record = json.loads(out)
    assert record["oracle_check"]["pass"] is False
    assert record["oracle_check"]["infinite_solutions_at"] == 2
    assert record["summary"]["all_pass"] is False
    # the congruence rows themselves still pass; the oracle is what fails
    assert all(r["pass"] for r in record["rows"])


def test_verify_conjecture_qrs(capsys):
    code, out, _ = run(
        capsys, "verify", "--conjecture", "qrs", "--n", "2",
        "--q", "0..3", "--r", "0..3", "--s", "0..3", "--K", "60",
    )
    assert code == 0  # findings are data, conjectures always exit 0
    record = json.loads(out)
    assert len(record["rows"]) == 64
    keys = [(r["q"], r["r"], r["s"]) for r in record["rows"]]
    assert keys == sorted(keys)
    # the all-zero triple is the n=5 pure-power sequence and must hold
    zero = next(r for r in record["rows"] if (r["q"], r["r"], r["s"]) == (0, 0, 0))
    assert zero["holds_through_K"] is True


def test_verify_conjecture_qrs_negative_range(capsys):
    code, out, _ = run(
        capsys, "verify", "--conjecture", "qrs", "--n", "2",
        "--q=7", "--r=16", "--s=-3", "--K", "40",
    )
    record = json.loads(out)
    assert code == 0
    assert record["rows"] == [{"q": 7, "r": 16, "s": -3, "holds_through_K": True, "first_failure_k": None}]


def test_verify_conjecture_phi1_on_s(capsys):
    code, out, _ = run(capsys, "verify", "--conjecture", "phi1-on-s", "--n", "2", "--K", "50")
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["all_pass"] is True


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--K", "10")
    assert code == 2


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_verify_oracle_depth_below_1_names_the_flag(capsys, depth):
    code, out, err = run(capsys, "verify", "--family", "a", "--n", "4", "--K", "10", "--oracle-depth", depth)
    assert (code, out) == (2, "")
    assert "--oracle-depth must be >= 1" in err


def test_verify_family_a_phi2_fails_the_congruence_not_the_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--family", "a", "--n", "4", "--K", "30", "--operator", "phi2")
    assert code == 1
    record = json.loads(out)
    assert record["oracle_check"]["pass"] is True
    assert record["summary"]["first_failure"] == {"stage": "congruence", "k": 2}
    code, out, _ = run(
        capsys, "verify", "--family", "a", "--n", "4", "--K", "30", "--operator", "phi2", "--format", "csv"
    )
    assert code == 1
    header, *rows = [line.split(",") for line in out.splitlines()]
    row = dict(zip(header, rows[1]))
    assert (row["k"], row["quotient"], row["pass"]) == ("2", "", "false")


def test_verify_empty_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--conjecture", "qrs", "--n", "2", "--q", "3..1", "--r", "0", "--s", "0", "--K", "5")
    assert (code, out) == (2, "")
    assert "empty range '3..1'" in err


def test_verify_family_s_phi1_runs_the_family_path(capsys):
    # the pn(n) oracle at sign -1, then the sieved phi1 sweep, as on every family
    argv = ["verify", "--family", "s", "--n", "2", "--K", "30", "--operator", "phi1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["command", "target", "params", "operator", "K", "oracle_check", "rows", "summary"]
    assert (record["target"], record["params"], record["operator"], record["K"]) == ("family:s", {"n": 2}, "phi1", 30)
    assert record["oracle_check"] == {"kind": "map", "depth": 8, "pass": True, "first_mismatch": None}
    assert [r["k"] for r in record["rows"]] == list(range(1, 31))
    assert record["summary"]["all_pass"] is True
    code, out, _ = run(capsys, *argv, "--format", "csv")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 31
    assert lines[:2] == ["k,term,operator,value,modulus,quotient,pass", "1,1,phi1,1,1,1,true"]


def test_verify_family_s_phi1_takes_oracle_depth(capsys):
    argv = ["verify", "--family", "s", "--n", "2", "--K", "5", "--operator", "phi1", "--oracle-depth"]
    code, out, _ = run(capsys, *argv, "4")
    assert code == 0
    assert json.loads(out)["oracle_check"] == {"kind": "map", "depth": 4, "pass": True, "first_mismatch": None}
    code, out, err = run(capsys, *argv, "0")
    assert (code, out) == (2, "")
    assert "--oracle-depth must be >= 1" in err


# -- one parameter rule for every mode --------------------------------------------

@pytest.mark.parametrize(
    "argv, flags",
    [
        ("verify --conjecture phi1-on-s --n 2 --K 5 --operator phi2", "operator"),
        ("verify --conjecture phi1-on-s --n 2 --K 5 --m 5", "m"),
        ("verify --family a --n 4 --K 5 --q 0..3", "q"),
        ("verify --conjecture qrs --n 2 --q 0..1 --r 0 --s 0 --K 5 --family a --j 3", "family, j"),
        ("count --map gn --n 1 --k 3 --anchors 0:0,1:1", "anchors"),
    ],
    ids=["phi1-on-s-operator", "phi1-on-s-m", "family-q", "qrs-family-j", "gn-anchors"],
)
def test_every_mode_rejects_a_flag_it_does_not_take(capsys, argv, flags):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert f"does not take: {flags}" in err


@pytest.mark.parametrize(
    "argv, missing",
    [("verify --conjecture qrs --n 2 --K 5", "q, r, s"), ("count --map custom --k 1", "anchors")],
    ids=["qrs-ranges", "custom-anchors"],
)
def test_every_mode_names_a_missing_parameter(capsys, argv, missing):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert f"needs parameters: {missing}" in err


# -- gfcheck ---------------------------------------------------------------------

def test_gfcheck_d(capsys):
    code, out, _ = run(capsys, "gfcheck", "--family", "d", "--m", "1", "--n", "2", "--K", "20")
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["all_pass"] is True
    assert "note" not in record


def test_gfcheck_s3_confirms_shortcut(capsys):
    code, out, _ = run(capsys, "gfcheck", "--family", "s", "--n", "3", "--K", "20")
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["all_pass"] is True
    assert "matches" in record["note"]


def test_gfcheck_s2_emits_discrepancy_note(capsys):
    code, out, _ = run(capsys, "gfcheck", "--family", "s", "--n", "2", "--K", "20")
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["all_pass"] is True
    assert "was not used" in record["note"]
    assert record["numerator"] == [0, 1, 2, -1]


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--family", "a", "--n", "3", "--K", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,term,operator,value,modulus,quotient,pass"
    assert lines[1] == "1,3,phi1,3,1,3,true"
    assert lines[3] == "3,18,phi1,15,3,5,true"


def test_gfcheck_csv_format(capsys):
    code, out, _ = run(capsys, "gfcheck", "--family", "d", "--m", "1", "--n", "2", "--K", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,sequence,series,match", "1,2,2,true", "2,6,6,true"]


# -- record shapes -------------------------------------------------------------------

FAMILY_KEYS = ["command", "target", "params", "operator", "K", "oracle_check", "rows", "summary"]
VERIFY_SUMMARY = ["all_pass", "first_failure", "runtime_ms"]
ORACLE_KEYS = ["kind", "depth", "pass", "first_mismatch"]


@pytest.mark.parametrize(
    "argv, keys, summary_keys, oracle_kind",
    [
        (["verify", "--family", "a", "--n", "4", "--K", "10"], FAMILY_KEYS, VERIFY_SUMMARY, "map"),
        (["verify", "--family", "d", "--m", "1", "--n", "2", "--K", "10"], FAMILY_KEYS, VERIFY_SUMMARY, "gf"),
        (
            ["verify", "--conjecture", "qrs", "--n", "2", "--q", "0..1", "--r", "0", "--s", "0", "--K", "10"],
            ["command", "target", "params", "K", "rows", "summary"],
            VERIFY_SUMMARY,
            None,
        ),
        (
            ["gfcheck", "--family", "d", "--m", "1", "--n", "2", "--K", "10"],
            ["command", "family", "params", "K", "numerator", "denominator", "rows", "summary"],
            ["all_pass", "first_mismatch", "runtime_ms"],
            None,
        ),
    ],
    ids=["verify-a", "verify-d", "verify-qrs", "gfcheck"],
)
def test_json_record_shapes(capsys, argv, keys, summary_keys, oracle_kind):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert list(record) == keys
    assert list(record["summary"]) == summary_keys
    if oracle_kind is not None:
        assert list(record["oracle_check"]) == ORACLE_KEYS
        assert record["oracle_check"]["kind"] == oracle_kind


# -- output determinism -------------------------------------------------------------

def test_output_deterministic_modulo_runtime(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--family", "b", "--n", "1", "--K", "30")
        record = json.loads(out)
        record["summary"].pop("runtime_ms")
        outs.append(record)
    assert outs[0] == outs[1]
