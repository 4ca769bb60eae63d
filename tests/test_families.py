import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from plcensus.families import (
    FamilyParams,
    make_base_map,
    make_fmn,
    make_gn,
    make_hjmn,
    make_pn,
)

F = Fraction


def _anchor_ints(m):
    return [(int(x), int(y)) for x, y in m.anchors]


def test_base_map_values():
    base = make_base_map()
    assert _anchor_ints(base) == [(1, 4), (2, 1), (3, 4), (4, 2)]
    assert base(1) == 4
    assert base(4) == 2
    assert base.count_solutions(2) == 7


def test_fmn_merged_anchors():
    assert _anchor_ints(make_fmn(2, 4)) == [(1, 3), (2, 1), (3, 4), (4, 2)]
    # m + 1 == n - 1 merge at n=5, m=3
    assert _anchor_ints(make_fmn(3, 5)) == [(1, 4), (2, 1), (3, 2), (4, 5), (5, 3)]


def test_fmn_count_example():
    assert make_fmn(2, 5).count_solutions(1) == 3


def test_fmn_m_independence_spot():
    seqs = {m: make_fmn(m, 6).count_sequence(8) for m in (2, 3, 4)}
    assert seqs[2] == seqs[3] == seqs[4]


def test_fmn_validation():
    for m, n in ((1, 5), (4, 5), (2, 3), (0, 4)):
        with pytest.raises(ValueError):
            make_fmn(m, n)


def test_gn_anchors_and_lucas():
    assert _anchor_ints(make_gn(1)) == [(1, 2), (2, 3), (3, 1)]
    assert make_gn(1).count_sequence(5) == [1, 3, 4, 7, 11]
    # b_{n,2k} = 2^{k+1} - 1: count at iterate 2 is 3 (k=1), at iterate 4 it is 7
    assert make_gn(2).count_solutions(2) == 3
    assert make_gn(2).count_solutions(4) == 7


def test_gn_validation():
    with pytest.raises(ValueError):
        make_gn(0)


def test_hjmn_anchors():
    assert _anchor_ints(make_hjmn(2, 5, 2)) == [(1, 2), (2, 1), (3, 6), (4, 1), (5, 6), (6, 5)]
    assert make_hjmn(2, 5, 2).count_solutions(1) == 5
    # remark closed form at n=2: (2n-1)^k + 2 at the odd powers
    assert make_hjmn(2, 5, 2).count_solutions(3) == 29


def test_hjmn_validation():
    for j, m, n in ((1, 3, 2), (6, 3, 2), (3, 1, 2), (3, 6, 2), (2, 2, 1)):
        with pytest.raises(ValueError):
            make_hjmn(j, m, n)


def test_pn_anchors_and_counts():
    assert _anchor_ints(make_pn(2)) == [(-2, 1), (-1, -2), (0, 0), (1, 2), (2, -1)]
    assert make_pn(2).count_solutions(1) == 3
    assert make_pn(2).count_solutions(2, sign=-1) == 5


def test_pn_validation():
    with pytest.raises(ValueError):
        make_pn(1)


@given(num=st.integers(-60, 60), n=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_pn_is_odd(num, n):
    p = make_pn(n)
    x = F(num * n, 60)
    assert p(-x) == -p(x)


def test_every_family_is_a_self_map():
    # PLMap's constructor enforces the self-map invariant; building is the test
    maps = [make_base_map()]
    maps += [make_fmn(m, n) for n in range(4, 9) for m in range(2, n - 1)]
    maps += [make_gn(n) for n in range(1, 6)]
    maps += [make_hjmn(j, m, 2) for j in range(2, 6) for m in range(2, 6)]
    maps += [make_pn(n) for n in range(2, 6)]
    for m in maps:
        lo, hi = m.domain
        assert all(lo <= y <= hi for _, y in m.anchors)


def test_family_params_dispatch():
    assert FamilyParams("base2").build() == make_base_map()
    assert FamilyParams("gn", n=2).build() == make_gn(2)
    assert FamilyParams("fmn", n=5, m=2).build() == make_fmn(2, 5)
    assert FamilyParams("hjmn", j=3, m=4, n=2).build() == make_hjmn(3, 4, 2)
    assert FamilyParams("pn", n=3).build() == make_pn(3)
    with pytest.raises(ValueError):
        FamilyParams("gn").build()
    with pytest.raises(ValueError):
        FamilyParams("nope", n=1).build()
    with pytest.raises(ValueError, match="family 'base2' does not take: n"):
        FamilyParams("base2", n=7).build()
    with pytest.raises(ValueError, match="family 'pn' does not take: m, j"):
        FamilyParams("pn", n=3, m=1, j=2).build()
