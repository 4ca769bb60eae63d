import tracemalloc

import pytest
from fractions import Fraction
from math import isqrt, prod

from hypothesis import example, given, settings, strategies as st

from plcensus import census, plmap
from plcensus.census import (
    QRSFinding,
    explore_qrs,
    check_phi1_on_s,
    factorize,
    periodic_census,
    phi1,
    phi2,
    qrs_terms,
    qrs_triple_for_c,
    symmetric_census,
    verify_congruence,
)
from plcensus.families import make_base_map, make_fmn, make_gn, make_hjmn, make_pn
from plcensus.plmap import InfiniteSolutions, PLMap
from plcensus.exactnum import series_expand
from plcensus.sequences import build_spec, seq_b, seq_s, spec_a, spec_d, spec_s, terms
from harness import check_census_orbits, in_threads, integer_maps, mobius, moebius_rows, odd_map, rational_maps

F = Fraction


# -- factorization ---------------------------------------------------------------

def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    assert factorize(97) == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_factorize_invariants_sampled():
    for m in list(range(1, 2000)) + [10**6, 999983, 2**20, 3 * 5 * 7 * 11 * 13]:
        pairs = factorize(m)
        primes = [p for p, _ in pairs]
        assert prod(p**e for p, e in pairs) == m
        assert primes == sorted(set(primes))
        assert all(_is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in pairs)


@given(st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_round_trip(m):
    assert prod(p**e for p, e in factorize(m)) == m


def _sieve_factorizations(n):
    """Factorizations of 0..n from a smallest-prime-factor sieve."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    out = [()] * (n + 1)
    for m in range(2, n + 1):
        p, rest = spf[m], m // spf[m]
        head = out[rest]
        out[m] = ((p, head[0][1] + 1), *head[1:]) if head and head[0][0] == p else ((p, 1), *head)
    return out


def test_factorize_matches_a_sieve():
    sieve = _sieve_factorizations(10**5)
    assert all(factorize(m) == sieve[m] for m in range(1, 10**5 + 1))


def test_factorize_caches_no_error():
    before = factorize.cache_info().currsize
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be >= 1"):
            factorize(m)
    assert factorize.cache_info().currsize == before


def test_factorize_rejects_a_non_integral_key():
    # a float key would hash like the int and leave float primes in the memo
    census._factorize.cache_clear()
    with pytest.raises(TypeError):
        factorize(14.0)
    assert factorize(14) == ((2, 1), (7, 1))
    assert all(type(x) is int for pair in factorize(14) for x in pair)
    with pytest.raises(TypeError):
        factorize(14.0)
    assert factorize(True) == ()


def test_factorize_memo_is_thread_safe():
    # explore_qrs calls phi1 per k, so it factorizes every k; a c-family
    # triple holds through K, so each thread fills the memo up to K
    q, r, s = qrs_triple_for_c(3, 4, 3)
    serial = explore_qrs(3, [q], [r], [s], 2000)
    assert serial == [QRSFinding(q, r, s, True, None)]
    census._factorize.cache_clear()
    assert in_threads(lambda: explore_qrs(3, [q], [r], [s], 2000)) == [serial] * 4
    assert factorize.cache_info().misses >= 2000
    sieve = _sieve_factorizations(2000)
    assert all(factorize(m) == sieve[m] for m in range(1, 2001))


def test_factorize_memo_is_compact():
    # entries share their (prime, exponent) pairs; a plain memo of fresh
    # pairs costs about 265 B per entry
    census._factorize.cache_clear()
    census._PAIRS.clear()
    tracemalloc.start()
    try:
        for m in range(1, 10**4 + 1):
            factorize(m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert factorize.cache_info().currsize == 10**4
    assert held / 10**4 <= 160


def test_a_repeated_sweep_factorizes_nothing():
    q, r, s = qrs_triple_for_c(3, 4, 3)
    census._factorize.cache_clear()
    first = explore_qrs(3, [q], [r], [s], 500)
    misses = factorize.cache_info().misses
    assert misses > 0
    assert explore_qrs(3, [q], [r], [s], 500) == first
    assert factorize.cache_info().misses == misses


def test_a_phi1_sweep_calls_no_factorize():
    # the sweep sieves over the primes <= K; it never factorizes a k
    census._factorize.cache_clear()
    verify_congruence(build_spec("c", j=3, m=4, n=3), "phi1", 500)
    check_phi1_on_s(2, 500)
    info = factorize.cache_info()
    assert (info.hits, info.misses) == (0, 0)


# -- phi1 / phi2 -------------------------------------------------------------------

def test_phi1_prime():
    phi = lambda k: k * k + 1
    for p in (2, 3, 5, 7, 11):
        assert phi1(p, phi) == phi(p) - phi(1)


def test_phi1_lucas_at_6():
    lucas = seq_b(1, 6)
    val = phi1(6, lambda k: lucas[k - 1])
    assert val == 18 - 4 - 3 + 1 == 12
    assert val % 6 == 0 and val // 6 == 2


def test_phi1_at_1():
    assert phi1(1, lambda k: 42) == 42


def test_phi2_examples():
    s2 = seq_s(2, 4)
    psi = lambda k: s2[k - 1]
    assert phi2(1, psi) == 0
    assert phi2(2, psi) == 4
    assert phi2(3, psi) == 12


def test_phi2_power_of_two_branch():
    psi = lambda k: 3**k
    for m in (1, 2, 4, 8, 16):
        assert phi2(m, psi) == 3**m - 1


@given(st.integers(1, 5000), st.data())
@settings(max_examples=200, deadline=None)
def test_phi_operators_match_moebius_sums(m, data):
    drawn = {}

    def acc(k):
        if k not in drawn:
            drawn[k] = data.draw(st.integers(-10**12, 10**12), label=f"f({k})")
        return drawn[k]

    divisors = [d for d in range(1, m + 1) if m % d == 0]
    assert phi1(m, acc) == sum(mobius(d) * acc(m // d) for d in divisors)
    power_of_two = m & (m - 1) == 0
    odd_sum = sum(mobius(d) * acc(m // d) for d in divisors if d % 2)
    assert phi2(m, acc) == odd_sum - power_of_two


def test_inclusion_exclusion_meets_acc_m_in_one_full_size_operation():
    # acc(k) = 2^(64k) + k has about twice the bits of any acc(m / p); only
    # the last operation of phi1 / phi2 at m may take acc(m) as an operand
    sizes = []

    class Sized(int):
        def __add__(self, other):
            sizes.append(max(self.bit_length(), other.bit_length()))
            return Sized(int.__add__(self, other))

        __radd__ = __add__

        def __sub__(self, other):
            sizes.append(max(self.bit_length(), other.bit_length()))
            return Sized(int.__sub__(self, other))

        def __rsub__(self, other):
            sizes.append(max(self.bit_length(), other.bit_length()))
            return Sized(int.__rsub__(self, other))

    def acc(k):
        return Sized((1 << 64 * k) + k)

    for m in range(1, 2001):
        full = acc(m).bit_length()
        for op in (phi1, phi2):
            sizes.clear()
            op(m, acc)
            large = [bits for bits in sizes if 4 * bits > 3 * full]
            assert len(large) == (0 if (op, m) == (phi1, 1) else 1), (op.__name__, m, sizes)


# -- verify_congruence ---------------------------------------------------------------

def test_verify_a3():
    reports = verify_congruence(spec_a(3), "phi1", 6)
    assert all(r.passed for r in reports)
    assert [r.value for r in reports[:3]] == [3, 4, 15]
    assert [r.quotient for r in reports[:3]] == [3, 2, 5]
    assert [r.modulus for r in reports[:3]] == [1, 2, 3]


def test_verify_s2_phi2():
    reports = verify_congruence(spec_s(2), "phi2", 3)
    assert [r.value for r in reports] == [0, 4, 12]
    assert [r.modulus for r in reports] == [2, 4, 6]
    assert all(r.passed for r in reports)


def test_verify_d_powers_of_three():
    reports = verify_congruence(spec_d(0, 3), "phi1", 2)
    assert [r.value for r in reports] == [3, 6]
    assert all(r.passed for r in reports)


def test_verify_usage_errors(monkeypatch):
    # each error comes before any work
    monkeypatch.setattr(census, "terms", lambda *args: pytest.fail("terms was called"))
    with pytest.raises(ValueError):
        verify_congruence(spec_a(3), "phi1", 0)
    with pytest.raises(ValueError):
        verify_congruence(spec_a(3), "phi3", 5)
    for K in (2.0, F(2), "2"):
        with pytest.raises(TypeError):
            verify_congruence(spec_a(3), "phi1", K)


def test_report_serialization():
    rep = verify_congruence(spec_a(3), "phi1", 1)[0]
    assert rep.to_dict() == {
        "k": 1, "term": 3, "operator": "phi1", "value": 3,
        "modulus": 1, "quotient": 3, "pass": True,
    }


def test_a_k_5000_phi1_sweep_equals_per_k_phi1():
    # every prime <= 5000 and every prime power <= 5000 meets the sieve
    K = 5000
    term_list = terms(spec_s(3), K)
    acc = [None, *term_list].__getitem__
    reports = check_phi1_on_s(3, K)
    assert [r.value for r in reports] == [phi1(k, acc) for k in range(1, K + 1)]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("family, params, operator", [
    ("a", {"n": 3}, "phi1"),
    ("b", {"n": 2}, "phi1"),
    ("c", {"j": 3, "m": 4, "n": 3}, "phi1"),
    ("d", {"m": 2, "n": 3}, "phi1"),
    ("s", {"n": 3}, "phi2"),
    ("s", {"n": 3}, "phi1"),
    # sweeps with failing rows, the power-of-two branch of phi2 among them
    ("a", {"n": 3}, "phi2"),
    ("d", {"m": -1, "n": 4}, "phi2"),
])
def test_sweep_rows_match_moebius_sums(family, params, operator):
    K = 300
    spec = build_spec(family, **params)
    reports = verify_congruence(spec, operator, K)
    rows = [(r.k, r.phi_value, r.value, r.modulus, r.quotient, r.passed) for r in reports]
    # the terms come from the generating function, not the recurrence
    assert rows == moebius_rows(series_expand(spec.gf_num, spec.gf_den, K), operator, K)
    assert {r.operator for r in reports} == {operator}
    if operator == "phi2" and family != "s":
        assert any(r.quotient is None and not r.passed for r in reports)


# -- censuses ---------------------------------------------------------------------------

def test_periodic_census_g1():
    g1 = make_gn(1)
    assert periodic_census(g1, 1) == (1, 1)
    assert periodic_census(g1, 2) == (2, 1)
    assert periodic_census(g1, 6) == (12, 2)


def test_symmetric_census_p2():
    p2 = make_pn(2)
    assert symmetric_census(p2, 1) == (0, 0)
    assert symmetric_census(p2, 2) == (4, 1)
    assert symmetric_census(p2, 3) == (12, 2)


def test_symmetric_census_rejects_non_odd():
    with pytest.raises(ValueError):
        symmetric_census(make_base_map(), 2)
    # odd at every anchor but one: f(-1) = 1 where -f(1) = 0 (and f(-1/2) =
    # 1/2 where -f(1/2) = 0); adding the anchor (-1, 0) makes the first odd
    with pytest.raises(ValueError, match="needs an odd map"):
        symmetric_census(PLMap([(-2, 2), (0, 0), (1, 0), (2, -2)]), 2)
    with pytest.raises(ValueError, match="needs an odd map"):
        symmetric_census(PLMap([(-2, 2), (0, 0), (F(1, 2), 0), (2, -2)]), 2)
    assert symmetric_census(PLMap([(-2, 2), (-1, 0), (0, 0), (1, 0), (2, -2)]), 1) == (2, 1)  # the orbit {-2, 2}
    # a domain that is not symmetric
    with pytest.raises(ValueError, match="needs an odd map"):
        symmetric_census(PLMap([(-1, 1), (0, 0), (2, -1)]), 1)


def test_periodic_census_matches_orbit_walk():
    rational = PLMap([(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))])
    for mp, top in ((make_base_map(), 8), (make_gn(2), 8), (make_hjmn(4, 3, 2), 6), (rational, 8)):
        check_census_orbits(mp, 1, top)


def test_symmetric_census_matches_orbit_walk():
    integer = [[-2, 2], [2, -3, 1], [-3, 1, 3]]  # f(1), f(2), ...
    for mp in (make_pn(2), make_pn(3), make_pn(4), *(odd_map(list(enumerate(vs, 1))) for vs in integer)):
        check_census_orbits(mp, -1, 6)


def _lower_union(mp, m, sign, primes, seed=()):
    """The union of the exact solution sets S_(m/p), p in primes, and the
    seed, as a set of Fractions, and whether two of the sets overlap."""
    sets = [set(seed), *(set(mp.solution_set(m // p, sign=sign)) for p in primes)]
    overlap = any(a & b for i, a in enumerate(sets) for b in sets[i + 1 :])
    return set().union(*sets), overlap


@given(st.one_of(integer_maps(widths=(2, 4)), rational_maps(inner=3)))
@example(make_gn(1))
@example(PLMap([(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))]))
@settings(max_examples=30, deadline=None)
def test_periodic_census_unions_overlapping_solution_sets(mp):
    # at m = 6 the union S_3 ∪ S_2 meets in S_1, which holds a fixed point
    # of every self-map: the census counts each shared point once
    try:
        lower, overlap = _lower_union(mp, 6, 1, (2, 3))
        want = mp.count_solutions(6) - len(lower)
    except InfiniteSolutions:
        with pytest.raises(InfiniteSolutions):
            periodic_census(mp, 6)
        return
    assert overlap
    assert periodic_census(mp, 6).count == want, mp


@pytest.mark.parametrize("m, primes", [(3, (3,)), (15, (3, 5))])
def test_symmetric_census_unions_the_origin_with_overlapping_solution_sets(m, primes):
    # the union holds the origin, which S_1 holds too, and at m = 15 the sets
    # S_5 and S_3 meet in S_1
    mp = make_pn(2)
    lower, overlap = _lower_union(mp, m, -1, primes, seed=[F(0)])
    assert overlap and F(0) in mp.solution_set(1, sign=-1)
    assert symmetric_census(mp, m).count == mp.count_solutions(m, sign=-1) - len(lower)


def test_censuses_build_no_fraction_for_a_point(monkeypatch):
    # the census unions the int pairs its solution sets keep: the periodic
    # census builds no Fraction, and the symmetric one only the values of
    # the map its oddness check reads, f(-x) = -y at each anchor (x, y)
    hjmn, pn = make_hjmn(4, 3, 3), make_pn(3)
    want = (periodic_census(PLMap(hjmn.anchors), 8), symmetric_census(PLMap(pn.anchors), 6))
    built = []
    monkeypatch.setattr(plmap, "Fraction", lambda *args: built.append(args) or F(*args))
    assert periodic_census(hjmn, 8) == want[0]
    assert built == []
    assert symmetric_census(pn, 6) == want[1]
    assert built == [(-y,) for y in pn._ys]


def test_census_infinite_propagates():
    # raised by f^m itself, not by the solution set of a proper divisor
    for m in (2, 4):
        with pytest.raises(InfiniteSolutions) as exc:
            periodic_census(make_hjmn(2, 5, 2), m)
        assert exc.value.k == m
    # f = -x on [-1, 1], so f^k(x) = -x holds identically there for every odd k
    odd = PLMap([(-2, -2), (-1, 1), (0, 0), (1, -1), (2, 2)])
    for m in (3, 5):
        with pytest.raises(InfiniteSolutions) as exc:
            symmetric_census(odd, m)
        assert (exc.value.k, exc.value.sign) == (m, -1)


def test_oracle_equivalence_counts():
    # the central cross-validation: census == operator-of-oracle
    maps = [make_base_map(), make_gn(1), make_gn(2), make_fmn(2, 5), make_hjmn(4, 3, 2)]
    for mp in maps:
        counts = mp.count_sequence(10)
        phi = lambda k: counts[k - 1]
        for m in range(1, 11):
            assert periodic_census(mp, m).count == phi1(m, phi)
    for n in (2, 3):
        p = make_pn(n)
        psik = p.count_sequence(8, sign=-1)
        psi = lambda k: psik[k - 1]
        for m in range(1, 9):
            assert symmetric_census(p, m).count == phi2(m, psi)


def test_inclusion_exclusion_self_consistency():
    # sum over d | m of least-period-d points == all solutions of f^m(x) = x
    for mp in (make_base_map(), make_gn(2), make_pn(2)):
        for m in range(1, 9):
            total = sum(periodic_census(mp, d).count for d in range(1, m + 1) if m % d == 0)
            assert total == mp.count_solutions(m)


def oracle_congruence(pl_map, operator, K):
    """Congruence sweep with the accessor taken from the map itself:
    phi(k) = count of f^k(x) = x (phi1) or f^k(x) = -x (phi2)."""
    counts = pl_map.count_sequence(K, sign=1 if operator == "phi1" else -1)
    return census._congruence_reports(counts, operator, K)


def test_map_oracle_divisibility_to_300():
    # phi1 of the oracle counts is divisible by m well past the prefix region,
    # and the counts are the sequence terms there, where orbits of integer
    # points wrap and their correction matters most
    phi1_cases = [
        (make_gn(1), build_spec("b", n=1)),
        (make_base_map(), build_spec("a", n=3)),
        (make_fmn(2, 5), build_spec("a", n=5)),
        (make_hjmn(3, 4, 2), build_spec("c", j=3, m=4, n=2)),
        (make_pn(2), build_spec("a", n=4)),
    ]
    for mp, spec in phi1_cases:
        reports = oracle_congruence(mp, "phi1", 300)
        assert all(r.passed for r in reports)
        assert [r.phi_value for r in reports] == terms(spec, 300), spec
    for n in (2, 3):
        reports = oracle_congruence(make_pn(n), "phi2", 100)
        assert all(r.passed for r in reports)
        assert [r.phi_value for r in reports] == terms(spec_s(n), 100), n


def test_census_usage_errors():
    with pytest.raises(ValueError):
        periodic_census(make_gn(1), 0)
    with pytest.raises(ValueError):
        symmetric_census(make_pn(2), 0)


def test_explorer_usage_errors():
    with pytest.raises(ValueError, match="n must be >= 2"):
        explore_qrs(1, [0], [0], [0], 5)
    with pytest.raises(ValueError, match="K must be >= 1"):
        explore_qrs(2, [0], [0], [0], 0)


# -- explorers ---------------------------------------------------------------------------

def test_qrs_terms_examples():
    assert qrs_terms(2, 0, 0, 0, 4) == [5, 25, 125, 625]
    q, r, s = qrs_triple_for_c(2, 5, 2)
    assert (q, r, s) == (7, 16, -3)
    from plcensus.sequences import seq_c
    assert qrs_terms(2, q, r, s, 10) == seq_c(2, 5, 2, 10)


@pytest.mark.parametrize("K", [0, -1])
def test_qrs_terms_rejects_K_below_1(K):
    with pytest.raises(ValueError, match="K must be >= 1"):
        qrs_terms(2, 1, 1, 1, K)


def test_explore_qrs_fermat_like():
    finding = explore_qrs(2, [0], [0], [0], 60)[0]
    assert finding.holds and finding.first_failure is None


def test_explore_qrs_adversarial():
    # (1,1,1) at n=2 first fails at k=5: phi1(5) = 2693 - 5 = 2688, not divisible by 5
    finding = explore_qrs(2, [1], [1], [1], 20)[0]
    assert not finding.holds
    assert finding.first_failure == 5
    t = qrs_terms(2, 1, 1, 1, 5)
    assert phi1(5, lambda k: t[k - 1]) % 5 != 0


def test_explore_qrs_theorem_backed_triples():
    for (j, m) in ((2, 5), (3, 2), (4, 4), (5, 3)):
        q, r, s = qrs_triple_for_c(j, m, 2)
        finding = explore_qrs(2, [q], [r], [s], 60)[0]
        assert finding.holds, (j, m)


@given(st.integers(2, 5), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 200))
@example(2, 1, 1, 1, 1)
@example(2, 1, 1, 1, 2)
@example(2, 1, 1, 1, 4)
@example(2, 1, 1, 1, 5)  # first failure at k = K
@example(2, 0, 0, 0, 200)  # holds through K
@settings(max_examples=80, deadline=None)
def test_explore_qrs_matches_eager_search(n, q, r, s, K):
    # the eager search: the Moebius sum at every k <= K, then the first that fails
    first = next((k for k, *_, passed in moebius_rows(qrs_terms(n, q, r, s, K), "phi1", K) if not passed), None)
    assert explore_qrs(n, [q], [r], [s], K) == [QRSFinding(q, r, s, first is None, first)]


def test_explore_qrs_grid_shape_and_order():
    grid = (range(0, 2), range(0, 2), range(-1, 1))
    findings = explore_qrs(2, *grid, 10)
    assert len(findings) == 8
    keys = [(f.q, f.r, f.s) for f in findings]
    assert keys == sorted(keys)
    # one-shot iterators give the whole grid too, not one row of it
    assert explore_qrs(2, *(iter(g) for g in grid), 10) == findings


def test_check_phi1_on_s():
    reports = check_phi1_on_s(2, 3)
    assert [r.value for r in reports] == [1, 4, 12]
    assert all(r.passed for r in reports)
