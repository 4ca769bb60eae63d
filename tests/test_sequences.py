import pytest

from plcensus.exactnum import Poly, series_expand
from plcensus.families import make_gn, make_hjmn, make_pn
from plcensus.sequences import (
    build_spec,
    seq_a,
    seq_b,
    seq_c,
    seq_d,
    seq_s,
    spec_a,
    spec_b,
    spec_c,
    spec_d,
    spec_s,
    terms,
)
from references import (
    literal_gf,
    numerator_from_terms as _numerator_from_terms,
    s_numerator_formula as _s_numerator_formula,
)


# -- term examples -------------------------------------------------------------

def test_seq_a():
    assert seq_a(3, 4) == [3, 7, 18, 47]
    assert seq_a(4, 3) == [3, 7, 15]
    assert seq_a(4, 4) == [3, 7, 15, 35]
    with pytest.raises(ValueError):
        seq_a(2, 3)


def test_seq_b():
    assert seq_b(1, 5) == [1, 3, 4, 7, 11]
    assert seq_b(1, 6)[-1] == 18
    # frozen from the make_gn(2) oracle (closed forms give b_5 = 6, b_7 = 15)
    assert seq_b(2, 8) == [1, 3, 1, 7, 6, 15, 15, 31]
    assert seq_b(2, 8) == make_gn(2).count_sequence(8)
    with pytest.raises(ValueError):
        seq_b(0, 3)


def test_seq_c():
    assert seq_c(2, 5, 2, 3) == [5, 11, 29]
    n = 3
    assert seq_c(4, 4, n, 2)[1] == (2 * n + 1) ** 2 - 4 * n  # j == m
    # frozen from the make_hjmn(3, 2, 2) oracle
    assert seq_c(3, 2, 2, 4) == [5, 19, 77, 323]
    assert seq_c(3, 2, 2, 4) == make_hjmn(3, 2, 2).count_sequence(4)
    with pytest.raises(ValueError):
        seq_c(1, 3, 2, 3)
    with pytest.raises(ValueError):
        seq_c(3, 8, 3, 3)


def test_seq_d():
    assert seq_d(1, 2, 4) == [2, 6, 14, 34]
    assert seq_d(0, 3, 3) == [3, 9, 27]
    assert seq_d(-1, 2, 4) == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        seq_d(3, 2, 3)
    with pytest.raises(ValueError):
        seq_d(-2, 2, 3)


def test_seq_s():
    assert seq_s(2, 4) == [1, 5, 13, 33]
    assert seq_s(3, 6) == [1, 1, 7, 17, 41, 97]
    assert seq_s(2, 1) == [1]
    assert seq_s(3, 8) == make_pn(3).count_sequence(8, sign=-1)
    with pytest.raises(ValueError):
        seq_s(1, 3)


# -- generating functions --------------------------------------------------------

def test_gf_examples():
    sp = spec_a(3)
    assert (sp.gf_num, sp.gf_den) == (Poly([0, 3, -2]), Poly([1, -3, 1]))
    sp = spec_d(1, 2)
    assert (sp.gf_num, sp.gf_den) == (Poly([0, 2, 2]), Poly([1, -2, -1]))
    sp = spec_s(2)
    assert sp.gf_den == Poly([1, -3, 1, 1])
    assert sp.gf_num == Poly([0, 1, 2, -1])  # z + 2z^2 - z^3, -z(M'L - L'M)


def test_s2_shortcut_disagrees_and_is_documented():
    sp = spec_s(2)
    # the shortcut drops the formula's -2z^2 term
    literal = _s_numerator_formula(2) + Poly([0, 0, 2])
    assert literal == Poly([0, 1, 2, -2])
    assert literal != sp.gf_num
    assert sp.note is not None and "n=2" in sp.note
    # the computed numerator is the one consistent with the terms
    assert series_expand(sp.gf_num, sp.gf_den, 8) == terms(sp, 8)
    with pytest.raises(AssertionError):
        assert series_expand(literal, sp.gf_den, 8) == terms(sp, 8)


def test_s3_shortcut_confirmed():
    sp = spec_s(3)
    # the shortcut drops the formula's -z^3 term
    assert _s_numerator_formula(3) + Poly([0, 0, 0, 1]) == sp.gf_num
    assert sp.note is not None and "n=3" in sp.note


def test_s_general_formula_used_for_n_ge_4():
    for n in (4, 5, 6):
        sp = spec_s(n)
        assert sp.gf_num == _s_numerator_formula(n)
        assert sp.note is None
        # and it is the numerator the terms force
        assert _numerator_from_terms(sp.recurrence.initial_terms, sp.gf_den, 2 * n - 1) == sp.gf_num


def _spec_grid():
    """771 specs: a(3..29), b(1..19), every c with n <= 7, every d with
    n <= 11, s(2..40)."""
    grid = [("a", {"n": n}) for n in range(3, 30)] + [("b", {"n": n}) for n in range(1, 20)]
    grid += [
        ("c", {"j": j, "m": m, "n": n}) for n in range(2, 8) for j in range(2, 2 * n + 2) for m in range(2, 2 * n + 2)
    ]
    grid += [("d", {"m": m, "n": n}) for n in range(2, 12) for m in range(1 - n, n + 1)]
    grid += [("s", {"n": n}) for n in range(2, 41)]
    return grid


def test_gf_derived_from_the_denominator_equals_the_written_formulas():
    grid = _spec_grid()
    assert len(grid) == 771
    for family, params in grid:
        sp = build_spec(family, **params)
        assert (sp.gf_num, sp.gf_den) == literal_gf(family, **params), sp.label


def test_s_terms_are_a_difference_of_traces():
    # S = -zM'/M - (-zL'/L) with M = 1 - 2z - z^n and L = 1 - z - ... - z^(n-1):
    # s_k = tr(C_M^k) - tr(C_L^k), C_M and C_L the companion matrices
    for n in range(2, 41):
        M = Poly([1, -2] + [0] * (n - 2) + [-1])
        L = Poly([1] + [-1] * (n - 1))
        zdM = Poly([0, 2] + [0] * (n - 2) + [n])  # -z M'
        zdL = Poly(range(n))  # -z L' = z + 2z^2 + ... + (n-1)z^(n-1)
        traces_M, traces_L = series_expand(zdM, M, 200), series_expand(zdL, L, 200)
        assert terms(spec_s(n), 200) == [a - b for a, b in zip(traces_M, traces_L)], n


def all_test_specs():
    specs = [spec_a(n) for n in range(3, 9)]
    specs += [spec_b(n) for n in range(1, 5)]
    specs += [spec_c(j, m, 2) for j in range(2, 6) for m in range(2, 6)]
    specs += [spec_c(2, 7, 3), spec_c(6, 3, 3), spec_c(7, 2, 3)]
    specs += [spec_d(m, n) for n in range(2, 6) for m in range(1 - n, n + 1)]
    specs += [spec_s(n) for n in range(2, 7)]
    return specs


def test_gf_matches_recurrence_to_50_terms():
    for sp in all_test_specs():
        assert series_expand(sp.gf_num, sp.gf_den, 50) == terms(sp, 50), sp.label


def test_a_closed_form_prefix():
    for n in range(3, 10):
        got = seq_a(n, n - 1)
        assert got == [2 ** (k + 1) - 1 for k in range(1, n)]


def test_c_remark_closed_form():
    # j=2, m=2n+1: c_k = (2n-1)^k + 2, and c_{k+1} = (2n-1)c_k - 4(n-1)
    for n in range(2, 7):
        t = seq_c(2, 2 * n + 1, n, 20)
        assert t == [(2 * n - 1) ** k + 2 for k in range(1, 21)]
        for k in range(19):
            assert t[k + 1] == (2 * n - 1) * t[k] - 4 * (n - 1)


# -- oracle agreement ------------------------------------------------------------

def test_oracle_agreement_small_grid():
    from plcensus.families import make_base_map, make_fmn

    assert make_base_map().count_sequence(10) == seq_a(3, 10)
    for n in (4, 5):
        for m in range(2, n - 1):
            assert make_fmn(m, n).count_sequence(10) == seq_a(n, 10)
    for n in (1, 2, 3):
        assert make_gn(n).count_sequence(10) == seq_b(n, 10)
    assert make_hjmn(4, 3, 2).count_sequence(10) == seq_c(4, 3, 2, 10)
    for n in (2, 3):
        assert make_pn(n).count_sequence(10, sign=-1) == seq_s(n, 10)
        assert make_pn(n).count_sequence(10) == seq_a(2 * n, 10)


# -- build_spec -------------------------------------------------------------------

def test_build_spec_dispatch():
    assert build_spec("a", n=3).label == "a(n=3)"
    assert build_spec("c", j=2, m=5, n=2).recurrence.initial_terms == (5, 11, 29)
    with pytest.raises(ValueError):
        build_spec("a")
    with pytest.raises(ValueError):
        build_spec("a", n=3, m=1)
    with pytest.raises(ValueError):
        build_spec("z", n=3)
