"""The differential harness: shared hypothesis strategies, slow oracles, and
one registry of (fast path, slow oracle) rows, each run on every strategy it
names by the one parametrized test in ``tests/test_differential.py``.

To add an engine, add one ``Row`` to ``ROWS``: a ``check`` that runs the
fast path and its slow oracle on one drawn case and asserts that they agree,
``InfiniteSolutions`` witnesses included, and a ``Draw`` per strategy of
cases, built from the map strategies below, with its ``max_examples`` and
the cases pinned as ``@example``s.  An oracle with no other home goes here.
Test modules draw their random maps from these strategies too.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from plcensus import census
from plcensus.census import periodic_census, phi1, phi2, symmetric_census
from plcensus.exactnum import Poly, RecurrenceSpec, charpoly, recurrence_eval, series_expand
from plcensus.plmap import DEFAULT_MAX_PIECES, InfiniteSolutions, NotMarkovError, PieceLimitError, PLMap
from references import numerator_from_terms

F = Fraction
SIGNS = st.sampled_from([1, -1])


# -- map strategies ------------------------------------------------------------

def _nonflat(values):
    return all(a != b for a, b in zip(values, values[1:]))


def _collinear(values, i):
    return 0 < i < len(values) - 1 and values[i] - values[i - 1] == values[i + 1] - values[i]


def integer_maps(flat=False, drop_collinear=False, widths=(2, 5)):
    """Maps over [lo, lo + n], n in ``widths``, anchored at every integer
    with integer values in the domain.  With ``flat``, laps may be flat;
    with ``drop_collinear``, some interior anchors collinear with their
    neighbours are dropped, which keeps the map but removes a cut that the
    pieces engine makes."""

    def maps(lo, n):
        values = st.lists(st.integers(lo, lo + n), min_size=n + 1, max_size=n + 1)
        if not flat:
            values = values.filter(_nonflat)
        drops = st.lists(st.booleans(), min_size=n + 1, max_size=n + 1) if drop_collinear else st.just([False] * (n + 1))
        return st.tuples(values, drops).map(
            lambda vd: PLMap([(lo + i, v) for i, v in enumerate(vd[0]) if not (vd[1][i] and _collinear(vd[0], i))])
        )

    return st.tuples(st.integers(-4, 2), st.integers(*widths)).flatmap(lambda lo_n: maps(*lo_n))


def _grid_anchors(xs, values):
    """Anchors (x/6, y/4) at the x's that ``xs`` draws, each y from ``values``."""
    return xs.flatmap(
        lambda xs: st.lists(values, min_size=len(xs), max_size=len(xs)).map(
            lambda ys: [(F(x, 6), F(y, 4)) for x, y in zip(xs, ys)]
        )
    )


def rational_maps(inner=4):
    """Maps of [0, 1] into itself anchored in sixths at 0, 1 and up to
    ``inner`` points between, with values in quarters."""
    xs = st.lists(st.integers(1, 5), unique=True, max_size=inner).map(lambda xs: [0, *sorted(xs), 6])
    return _grid_anchors(xs, st.integers(0, 4)).map(PLMap)


INTEGER_OR_RATIONAL_MAPS = st.one_of(integer_maps(), rational_maps())


def odd_map(anchors):
    """The odd map through the origin and the given anchors right of it."""
    right = [(F(0), F(0)), *anchors]
    return PLMap([(-x, -y) for x, y in reversed(right[1:])] + right)


def odd_integer_maps():
    """Odd maps over [-n, n], n in 2..4, anchored at every integer with
    integer values and no flat lap: the p_n family among them."""
    values = st.integers(2, 4).flatmap(lambda n: st.lists(st.integers(-n, n), min_size=n, max_size=n))
    return values.filter(lambda vs: _nonflat([0, *vs])).map(lambda vs: odd_map(list(enumerate(vs, 1))))


def odd_rational_maps():
    """Odd maps on [-1, 1], anchored in sixths at 1 and up to three points
    in (0, 1), with values in quarters."""
    xs = st.lists(st.integers(1, 5), unique=True, max_size=3).map(lambda xs: [*sorted(xs), 6])
    return _grid_anchors(xs, st.integers(-4, 4)).map(odd_map)


def wide_tents(widths=(2, 12)):
    """The tent over [0, 2w], w in ``widths``: two laps, each over w unit
    intervals, so the laps are fewer than the unit intervals."""
    return st.integers(*widths).map(lambda w: PLMap([(0, 0), (w, 2 * w), (2 * w, 0)]))


def half_integer_maps():
    """Two to five anchors on the half-integer grid or on the integers, not
    at every integer: some maps are Markov over the unit partition, most
    not."""

    def maps(scale, xs):
        ys = st.lists(st.integers(xs[0], xs[-1]), min_size=len(xs), max_size=len(xs))
        return ys.map(lambda ys: PLMap([(F(scale * x, 2), F(scale * y, 2)) for x, y in zip(xs, ys)]))

    xs = st.sets(st.integers(-6, 6), min_size=2, max_size=5).map(sorted)
    return st.tuples(st.sampled_from([1, 2]), xs).flatmap(lambda sx: maps(*sx))


# -- slow oracles --------------------------------------------------------------

def iterate(m, x, k):
    """f^k(x) by k-fold evaluation: the slow reference for the pieces."""
    v = F(x)
    for _ in range(k):
        v = m(v)
    return v


def usable_sign(m, sign):
    """sign, or 1 where 0 is outside the domain."""
    lo, hi = m.domain
    return sign if lo <= 0 <= hi else 1


def outcome(solve, k, sign, method):
    """What ``solve`` answers, or the InfiniteSolutions it raises."""
    try:
        return solve(k, sign=sign, method=method)
    except InfiniteSolutions as e:
        return e.witness, e.k, e.sign


def in_threads(work, threads=4):
    """The results of ``work()`` run in ``threads`` threads at once, released
    by a barrier and switched every microsecond: the serial run is their
    oracle."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(threads, timeout=30)
        got = [None] * threads

        def one(i):
            barrier.wait()
            got[i] = work()

        pool = [threading.Thread(target=one, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
        return got
    finally:
        sys.setswitchinterval(interval)


def orbit_walk_count(mp, points, period):
    """The points whose orbit under one-step evaluation first returns at
    step ``period``.  Each orbit is walked once and all its points marked;
    every point it passes must be one of ``points``."""
    solutions, seen, count = set(points), set(), 0
    for x in points:
        if x in seen:
            continue
        orbit, v = [], x
        for _ in range(period):
            assert v in solutions, (mp, x, v)
            orbit.append(v)
            v = mp(v)
            if v == x:
                break
        assert v == x, (mp, x)
        seen.update(orbit)
        count += len(orbit) if len(orbit) == period else 0
    return count


def mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def moebius_rows(term_list, operator, K):
    """The (k, term, value, modulus, quotient, passed) rows of a sweep, from
    Moebius sums over the divisors and separate % and //."""
    rows = []
    for k in range(1, K + 1):
        divisors = [d for d in range(1, k + 1) if k % d == 0]
        if operator == "phi1":
            value, modulus = sum(mobius(d) * term_list[k // d - 1] for d in divisors), k
        else:
            odd_sum = sum(mobius(d) * term_list[k // d - 1] for d in divisors if d % 2)
            value, modulus = odd_sum - (k & (k - 1) == 0), 2 * k
        passed = value % modulus == 0
        rows.append((k, term_list[k - 1], value, modulus, value // modulus if passed else None, passed))
    return rows


def charpoly_cofactor(m):
    """det(xI - M) by cofactor expansion along the first row, over Poly."""

    def det(rows, cols):
        if not rows:
            return Poly([1])
        total, r = Poly(), rows[0]
        for idx, c in enumerate(cols):
            term = Poly([-m[r][c], 1] if r == c else [-m[r][c]]) * det(rows[1:], cols[:idx] + cols[idx + 1 :])
            total = total + term if idx % 2 == 0 else total - term
        return total

    return det(range(len(m)), list(range(len(m))))


# -- the rows' checks ----------------------------------------------------------

def check_engines(m, k, sign):
    # both engines' solution sets and counts of f^k(x) = sign*x equal the
    # roots of f^k's pieces on their closed intervals, deduplicated, each a
    # solution by k-fold evaluation; where a piece is sign*x, both raise
    # InfiniteSolutions with its interval as the witness
    sign = usable_sign(m, sign)
    want = set()
    for p in m.iterate_pieces(k):
        if p.slope != sign:
            x = F(p.intercept, sign - p.slope)
            if p.lo <= x <= p.hi:
                want.add(x)
        elif p.intercept == 0:
            want = (p.lo, p.hi), k, sign
            break
    if type(want) is set:
        want = sorted(want)
        assert all(iterate(m, x, k) == sign * x for x in want), (m, k, sign)
    for method in ("pieces", "markov"):
        try:
            points, count = (outcome(solve, k, sign, method) for solve in (m.solution_set, m.count_solutions))
        except NotMarkovError:
            md = m._markov  # markov refuses only the maps it does not apply to
            assert md is None or not all(md.slopes), m
            continue
        if type(want) is tuple:
            assert points == count == want, (method, m, k, sign)
        else:
            check_pairs(points)
            assert list(points) == want and count == len(want), (method, m, k, sign)


def check_pairs(solutions):
    # the int pairs a solution set keeps, which the census unions, are in
    # lowest terms with D > 0, strictly ascending, and name its points
    pairs = solutions._pairs
    assert all(D > 0 and gcd(N, D) == 1 for N, D in pairs), pairs
    assert all(a * d < c * b for (a, b), (c, d) in zip(pairs, pairs[1:])), pairs
    assert pairs == tuple((q.numerator, q.denominator) for q in solutions.points), pairs


def check_sequence(m, sign, K, budget):
    # count_sequence steps the pieces of f^(k-1) and A^(k-1) forward; on
    # each engine, and on auto, it equals per-k counts on the other, up to
    # the first k that raises, where it raises the same.  At a budget that
    # binds, it stops at the k where a fresh build first exceeds it.  The
    # map keeps no iterate, so every count on it starts fresh
    sign = usable_sign(m, sign)

    def answer(solve, n, method, max_pieces):
        try:
            return solve(n, sign=sign, method=method, max_pieces=max_pieces)
        except InfiniteSolutions as e:
            return e.witness, e.k, e.sign
        except PieceLimitError as e:
            return "piece limit", e.k

    def fresh(method, max_pieces=DEFAULT_MAX_PIECES):
        counts = []
        for k in range(1, K + 1):
            got = answer(m.count_solutions, k, method, max_pieces)
            if type(got) is not int:
                return got
            counts.append(got)
        return counts

    def stepped(method, max_pieces=DEFAULT_MAX_PIECES):
        return answer(m.count_sequence, K, method, max_pieces)

    pieces, markov = fresh("pieces"), fresh("markov")
    assert stepped("pieces") == markov and stepped("markov") == stepped("auto") == pieces, (m, sign, K)
    for method in ("pieces", "markov", "auto"):
        assert stepped(method, budget) == fresh(method, budget), (m, sign, K, budget, method)


def check_auto(m, sign):
    # on a map anchored at every integer, laps = n and auto moves from
    # pieces to markov at k = 2, where laps^k first reaches n^2, for both
    # counting and enumeration; on a tent over [0, 2w] a count moves at the
    # least k with 2^k >= 4w^2, and an enumeration stays on pieces
    sign = usable_sign(m, sign)
    for k in range(1, 7):
        for solve in ("count_solutions", "solution_set"):
            auto, pieces, markov = (
                outcome(getattr(PLMap(m.anchors), solve), k, sign, method) for method in ("auto", "pieces", "markov")
            )
            assert auto == pieces == markov, (m, k, sign, solve)


def _census(sign):
    """The census of f^m(x) = sign*x, its operator and its period factor."""
    return (periodic_census, phi1, 1) if sign == 1 else (symmetric_census, phi2, 2)


def check_census_counts(mp, sign, top, method):
    # the census at every m <= top against phi1 (sign 1) or phi2 (sign -1)
    # of the counts of f^k(x) = sign*x, where none of them raises
    census, phi, period = _census(sign)
    try:
        counts = mp.count_sequence(top, sign=sign, method=method)
    except InfiniteSolutions:
        return
    for m in range(1, top + 1):
        want = phi(m, lambda k: counts[k - 1])
        assert census(mp, m) == (want, want // (period * m)), (mp, m)


def check_census_orbits(mp, sign, top):
    # the census at every m <= top against the points of f^m(x) = sign*x
    # whose orbit first returns at m (sign 1) or 2m (sign -1); where
    # f^m(x) = sign*x raises, the census raises too
    census, _, period = _census(sign)
    for m in range(1, top + 1):
        try:
            want = orbit_walk_count(mp, mp.solution_set(m, sign=sign).points, period * m)
        except InfiniteSolutions as exc:
            with pytest.raises(InfiniteSolutions) as got:
                census(mp, m)
            assert (got.value.k, got.value.sign) == (exc.k, exc.sign), (mp, m)
            continue
        assert census(mp, m) == (want, want // (period * m)), (mp, m)


def check_phi1_sieve(term_list):
    K = len(term_list)
    rows = [(r.k, r.phi_value, r.value, r.modulus, r.quotient, r.passed)
            for r in census._congruence_reports(term_list, "phi1", K)]
    assert rows == moebius_rows(term_list, "phi1", K)
    assert [r[2] for r in rows] == [phi1(k, [None, *term_list].__getitem__) for k in range(1, K + 1)]


def check_recurrence(coeffs, prefix, K):
    # the naive loop, and the series of N/D with D = 1 - c_1 z - ... and N
    # the prefix's series times D, cut at the prefix's degree
    t = list(prefix)
    while len(t) < K:
        t.append(sum(c * t[-i] for i, c in enumerate(coeffs, 1)))
    got = recurrence_eval(RecurrenceSpec(tuple(coeffs), tuple(prefix)), K)
    assert got == t[:K]
    den = Poly([1, *(-c for c in coeffs)])
    assert got == series_expand(numerator_from_terms(prefix, den, len(prefix)), den, K)


def check_charpoly(matrix):
    assert charpoly(matrix) == charpoly_cofactor(matrix)


# -- the registry ----------------------------------------------------------------

class Draw(NamedTuple):
    name: str
    cases: st.SearchStrategy  # of tuples, each the arguments of one check
    max_examples: int
    examples: tuple = ()  # cases run first, every time


class Row(NamedTuple):
    name: str
    check: Callable  # runs a fast path and its slow oracle on one case
    draws: tuple[Draw, ...]


def _sequences(maps):
    """(map, sign, K, budget): K up to 8 where laps^K stays within 3^8, so
    the pieces stay few, and a piece budget up to laps^K that binds at some
    k <= K or at none."""

    def cases(m, sign):
        laps = len(m._laps)
        top = max(k for k in range(1, 9) if laps**k <= 3**8)
        return st.tuples(st.just(m), st.just(sign), st.integers(1, top), st.integers(1, laps**top))

    return st.tuples(maps, SIGNS).flatmap(lambda ms: cases(*ms))


_COEFFICIENTS = st.sampled_from((0, 1, -1)) | st.integers(-7, 7)
_TERM_LISTS = st.lists(st.integers(-5, 5) | st.integers(-2**200, 2**200), min_size=1, max_size=400)

ROWS = (
    Row("engines", check_engines, (
        Draw("integer-or-rational", st.tuples(INTEGER_OR_RATIONAL_MAPS, st.integers(1, 6), SIGNS), 80, (
            # a root on the non-integer cut 1/2 shared by two laps, one at the
            # domain's upper end (the last piece's closed end), one at its lower end
            (PLMap([(0, F(3, 4)), (F(1, 2), F(1, 2)), (1, 0)]), 1, 1),
            (PLMap([(0, 1), (1, 0), (2, 2)]), 1, 1),
            (PLMap([(0, 0), (1, 2), (2, 1)]), 1, 1),
        )),
        Draw("integer-dropping-collinear", st.tuples(integer_maps(drop_collinear=True), st.integers(1, 5), SIGNS), 80),
        Draw("wide-tents", st.tuples(wide_tents(), st.integers(1, 5), SIGNS), 20),
    )),
    Row("sequence", check_sequence, (
        Draw("integer", _sequences(integer_maps()), 60),
        Draw("wide-tents", _sequences(wide_tents()), 20),
    )),
    Row("auto", check_auto, (
        Draw("integer", st.tuples(integer_maps(), SIGNS), 40),
        Draw("wide-tents", st.tuples(wide_tents(widths=(2, 4)), SIGNS), 20),
    )),
    Row("census-counts", check_census_counts, (
        Draw("integer", st.tuples(integer_maps(), st.just(1), st.just(5), st.just("markov")), 40),
        Draw("rational", st.tuples(rational_maps(), st.just(1), st.just(4), st.just("auto")), 60, (
            (PLMap([(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))]), 1, 4, "auto"),
        )),
        Draw("odd-integer", st.tuples(odd_integer_maps(), st.just(-1), st.just(5), st.just("markov")), 40, tuple(
            # the p_n family
            (odd_map(list(enumerate(vs, 1))), -1, 5, "markov") for vs in ([2, -1], [2, 3, -1], [2, 3, 4, -1])
        )),
    )),
    Row("census-orbits", check_census_orbits, (
        Draw("odd-rational", st.tuples(odd_rational_maps(), st.just(-1), st.just(6)), 25, tuple(
            (odd_map(anchors), -1, 6) for anchors in (
                [(F(1, 2), -1), (1, F(1, 2))],
                [(F(1, 6), F(3, 4)), (F(1, 2), 1), (1, F(-3, 4))],
                [(F(1, 3), 1), (F(5, 6), F(-1, 4)), (1, -1)],
                [(F(1, 6), 0), (F(1, 3), F(-3, 4)), (1, F(1, 4))],
                [(1, -1)],  # f = -x: f^k(x) = -x holds identically for odd k
            )
        )),
    )),
    Row("phi1-sieve", check_phi1_sieve, (
        Draw("term-lists", st.tuples(_TERM_LISTS), 40, (
            ([0] * 397,),
            ([-2**100, *range(1, 397)],),  # K = 397, a prime: the last prime sieved is K itself
        )),
    )),
    Row("recurrence", check_recurrence, (
        Draw("recurrences", st.integers(1, 4).flatmap(lambda order: st.tuples(
            st.lists(_COEFFICIENTS, min_size=order, max_size=order),
            st.lists(st.integers(-50, 50), min_size=order, max_size=order + 5),
            st.integers(1, 40),
        )), 150, (
            # the step's special cases: all-zero lags, a leading zero, unit
            # lags only, a -1 lag first, and zero, unit and other lags mixed
            ([0], [5], 6), ([0, 0], [1, 2], 6), ([0, 1], [1, 2], 12),
            ([1, -1, 1], [1, 2, 3], 20), ([-1, -1], [1, 2], 20), ([3, 0, -1, 2], [1, -2, 3, 4], 30),
        )),
    )),
    Row("charpoly", check_charpoly, (
        Draw("square-matrices", st.tuples(st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)
        )), 100),
    )),
)


def run(row: Row, draw: Draw) -> None:
    """Run ``row.check`` on ``draw``'s examples, then on its random cases."""
    test = given(draw.cases)(lambda case: row.check(*case))
    for case in reversed(draw.examples):
        test = example(case)(test)
    test = settings(max_examples=draw.max_examples, deadline=None)(test)
    # one example-database entry per row and strategy, as the hypothesis
    # pytest plugin keys parametrized tests
    test.hypothesis.inner_test._hypothesis_internal_add_digest = f"{row.name}-on-{draw.name}".encode()
    test()
