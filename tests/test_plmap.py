import copy
import pickle
import tracemalloc

import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from plcensus import exactnum, plmap
from plcensus.exactnum import Poly, charpoly
from plcensus.families import make_base_map, make_fmn, make_gn, make_hjmn, make_pn
from plcensus.plmap import (
    DEFAULT_MAX_PIECES,
    AffinePiece,
    DomainError,
    InfiniteSolutions,
    NotMarkovError,
    PieceLimitError,
    PLMap,
    SolutionSet,
)
from plcensus.sequences import seq_b, seq_c, seq_s
from harness import INTEGER_OR_RATIONAL_MAPS, check_engines, half_integer_maps, in_threads, integer_maps, iterate, outcome

F = Fraction


# -- construction and evaluation ---------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError):
        PLMap([(0, 0)])
    with pytest.raises(ValueError):
        PLMap([(0, 0), (0, 1)])  # x not strictly increasing
    with pytest.raises(ValueError):
        PLMap([(0, 5), (1, 0)])  # value leaves [0, 1]
    with pytest.raises(AttributeError):
        m = PLMap([(0, 0), (1, 1)])
        m.anchors = ()


def test_eval_examples():
    f24 = make_fmn(2, 4)
    assert f24(2) == 1
    assert f24(F(3, 2)) == 2
    for x, y in f24.anchors:
        assert f24(x) == y
    with pytest.raises(DomainError):
        f24(5)
    with pytest.raises(DomainError):
        f24(F(1, 2))


def test_eval_accepts_strings_and_ints():
    g1 = make_gn(1)
    assert g1("7/3") == F(7, 3)
    assert g1(3) == 1


def test_integer_map_setup_builds_only_the_anchor_fractions(monkeypatch):
    # an integer map validates its anchors and finds its laps in int, and
    # builds no Fraction until its public anchors are read: those, once
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    for make in (make_base_map, lambda: make_gn(2), lambda: make_hjmn(4, 3, 3), lambda: make_pn(3)):
        built.clear()
        m = make()
        laps = m._lap_tuple()
        assert built == [], built
        assert all(type(v) is int for lap in laps for v in lap), laps
        anchors = m.anchors
        assert len(built) == 2 * len(anchors), m
        assert all(type(v) is F for pt in anchors for v in pt), anchors
        built.clear()
        assert m.anchors is anchors and m.domain == (anchors[0][0], anchors[-1][0])
        assert built == [], built


@pytest.mark.parametrize(
    "make",
    [lambda: make_gn(1), lambda: PLMap([(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))])],
    ids=["integer", "rational"],
)
def test_pickle_and_copy_rebuild_the_map(make):
    m = make()
    want = m.count_sequence(6)
    for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert type(twin) is PLMap and twin == m and hash(twin) == hash(m)
        assert twin.count_sequence(6) == want
    # a solution set too, its points read or not yet built
    for read in (False, True):
        solutions = m.solution_set(3)
        if read:
            solutions.points
        for twin in (pickle.loads(pickle.dumps(solutions)), copy.copy(solutions), copy.deepcopy(solutions)):
            assert type(twin) is SolutionSet and twin == solutions and hash(twin) == hash(solutions)
            assert twin._pairs == solutions._pairs and twin.points == solutions.points


@pytest.mark.parametrize(
    "points",
    [
        [(1, 4), (2, 1), (3, 4), (4, 2)],
        [(-1, 1), (0, 0), (1, -1)],
        [(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))],
        [(F(-3, 2), F(3, 2)), (0, 0), (F(3, 2), F(-3, 2))],
    ],
    ids=["base", "odd", "rational", "rational-odd"],
)
def test_a_map_from_int_fraction_or_string_anchors_is_one_map(points):
    # ints where integral, Fractions, and strings of the same points build
    # one map: equal, with one hash (that of its anchors) and one repr, and
    # Fraction anchors and domain
    forms = [
        PLMap([(plmap._narrow(F(x)), plmap._narrow(F(y))) for x, y in points]),
        PLMap([(F(x), F(y)) for x, y in points]),
        PLMap([(str(x), str(y)) for x, y in points]),
    ]
    want = tuple((F(x), F(y)) for x, y in points)
    for m in forms:
        assert m == forms[0] and hash(m) == hash(forms[0]) == hash(want)
        assert repr(m) == repr(forms[0]) == "PLMap([%s])" % ", ".join(f"({F(x)}, {F(y)})" for x, y in points)
        assert type(m.anchors) is tuple and m.anchors == want
        assert all(type(pt) is tuple and len(pt) == 2 and all(type(v) is F for v in pt) for pt in m.anchors)
        assert type(m.domain) is tuple and m.domain == (want[0][0], want[-1][0])
        assert all(type(v) is F for v in m.domain)
    lo, hi = forms[0].domain
    other = PLMap([*want[:-1], (hi, lo if want[-1][1] != lo else hi)])
    assert other != forms[0] and forms[0] != want


@given(m=INTEGER_OR_RATIONAL_MAPS, i=st.integers(0, 24))
@example(m=PLMap([(0, 0), (F(1, 3), 1), (1, F(1, 2))]), i=8)
@settings(max_examples=80, deadline=None)
def test_eval_returns_the_fraction_lap_formula(m, i):
    # x an int, a Fraction or a string: the value is a Fraction, the lap
    # through the anchors around x evaluated in Fractions
    lo, hi = m.domain
    x = lo + (hi - lo) * F(i, 24)
    (x0, y0), (x1, y1) = next((a, b) for a, b in zip(m.anchors, m.anchors[1:]) if a[0] <= x <= b[0])
    want = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    for arg in (x, str(x), plmap._narrow(x)):
        got = m(arg)
        assert type(got) is F and got == want, (arg, got, want)


@pytest.mark.parametrize(
    "m, x, message",
    [
        (PLMap([(0, 0), (1, 1)]), 2, "2 outside the domain [0, 1]"),
        (PLMap([(0, 0), (1, 1)]), F(3, 2), "3/2 outside the domain [0, 1]"),
        (PLMap([(0, 0), (1, 1)]), "-1/2", "-1/2 outside the domain [0, 1]"),
        (PLMap([(F(1, 3), F(1, 3)), (F(2, 3), F(1, 2))]), 1, "1 outside the domain [1/3, 2/3]"),
        (PLMap([("1/3", "1/3"), ("2/3", "1/2")]), F(1, 4), "1/4 outside the domain [1/3, 2/3]"),
    ],
)
def test_eval_outside_the_domain_names_the_point_and_the_domain(m, x, message):
    with pytest.raises(DomainError) as exc:
        m(x)
    assert str(exc.value) == message


# -- iterate_pieces -----------------------------------------------------------

def test_g1_pieces_k1():
    g1 = make_gn(1)
    assert g1.iterate_pieces(1) == [
        AffinePiece(F(1), F(2), F(1), F(1)),
        AffinePiece(F(2), F(3), F(-2), F(7)),
    ]


def test_g1_pieces_k2():
    pieces = g1_pieces = make_gn(1).iterate_pieces(2)
    assert len(pieces) == 3
    first = pieces[0]
    assert (first.lo, first.hi) == (F(1), F(2))
    assert (first.slope, first.intercept) == (F(-2), F(5))


def test_piece_count_at_k1_equals_lap_count():
    for m in (make_base_map(), make_gn(2), make_hjmn(3, 4, 2)):
        assert len(m.iterate_pieces(1)) == len(m.anchors) - 1


def _assert_tiling(pl_map, pieces):
    lo, hi = pl_map.domain
    assert pieces[0].lo == lo and pieces[-1].hi == hi
    for a, b in zip(pieces, pieces[1:]):
        assert a.hi == b.lo
        assert a(a.hi) == b(b.lo)  # continuity at the shared endpoint
    for p in pieces:
        assert p.lo < p.hi


def test_tiling_and_composition_soundness():
    # the last two maps have flat laps, first and between sloped ones, whose
    # images the composition carries to the next piece
    flat_first = PLMap([(0, F(1, 2)), (F(1, 3), F(1, 2)), (F(2, 3), 1), (1, 0)])
    flat_inner = PLMap([(0, 1), (F(1, 4), 0), (F(1, 2), 0), (F(3, 4), 1), (1, F(1, 3))])
    for m in (make_base_map(), make_gn(1), make_gn(2), make_fmn(2, 5), make_pn(2), flat_first, flat_inner):
        for k in (1, 2, 3, 4):
            pieces = m.iterate_pieces(k)
            _assert_tiling(m, pieces)
            # evaluating the piece containing x equals k-fold eval
            for p in pieces:
                for x in (p.lo, F(p.lo + p.hi, 2), p.hi):
                    assert p(x) == iterate(m, x, k)


@given(
    ix=st.integers(0, 60),
    k=st.integers(1, 6),
    which=st.sampled_from(["base", "g2", "f25", "p3"]),
)
@settings(max_examples=60, deadline=None)
def test_composition_soundness_random_points(ix, k, which):
    m = {
        "base": make_base_map(),
        "g2": make_gn(2),
        "f25": make_fmn(2, 5),
        "p3": make_pn(3),
    }[which]
    lo, hi = m.domain
    x = lo + (hi - lo) * F(ix, 60)
    pieces = m.iterate_pieces(k)
    piece = next(p for p in pieces if p.lo <= x <= p.hi)
    assert piece(x) == iterate(m, x, k)


@given(m=INTEGER_OR_RATIONAL_MAPS, k=st.integers(1, 6), sign=st.sampled_from([1, -1]))
@example(m=PLMap([(0, 0), (3, 3)]), k=1, sign=1)
@example(m=PLMap([(0, 0), (F(1, 2), F(1, 2)), (1, 0)]), k=1, sign=1)
@example(m=PLMap([(0, 1), (F(1, 3), 1), (F(5, 6), 1), (1, F(1, 2))]), k=3, sign=1)
@example(m=PLMap([(0, 1), (1, 0), (3, 2)]), k=2, sign=1)
@settings(max_examples=50, deadline=None)
def test_pieces_and_solutions_stay_exact(m, k, sign):
    # no float reaches a piece, a solution point or a witness: piece fields,
    # cut ends included, are ints where they are integral and Fractions
    # otherwise, and the rest Fractions
    for p in m.iterate_pieces(k):
        assert all(type(v) in (int, F) for v in p), p
        assert all(type(v) is int or v.denominator > 1 for v in p), p
        for x in (p.lo, F(p.lo + p.hi, 2), p.hi):
            assert p(x) == iterate(m, x, k)
    lo, hi = m.domain
    sign = sign if lo <= 0 <= hi else 1
    for method in ("pieces", "markov"):
        try:
            points = m.solution_set(k, sign=sign, method=method)
        except NotMarkovError:
            continue
        except InfiniteSolutions as exc:
            assert all(type(v) is F for v in exc.witness), (method, exc.witness)
            continue
        assert all(type(x) is F for x in points), (method, points)


@given(m=INTEGER_OR_RATIONAL_MAPS)
@example(m=PLMap([(0, 0), (F(1, 3), 1), (1, F(1, 2))]))
@settings(max_examples=60, deadline=None)
def test_laps_match_the_fraction_slope_formula(m):
    # the laps, found by divmod on the narrowed anchors, equal the slope
    # (y1 - y0)/(x1 - x0) and intercept y0 - s*x0 taken in Fractions
    laps = m._lap_tuple()
    assert len(laps) == len(m.anchors) - 1
    for lap, (x0, y0), (x1, y1) in zip(laps, m.anchors, m.anchors[1:]):
        s = (y1 - y0) / (x1 - x0)
        assert tuple(lap) == (x0, x1, s, y0 - s * x0), (m, lap)
        assert all(type(v) is int or v.denominator > 1 for v in lap), lap


def test_piece_limit_guard():
    with pytest.raises(PieceLimitError):
        make_gn(1).iterate_pieces(40, max_pieces=1000)
    with pytest.raises(PieceLimitError):
        make_gn(1).count_solutions(40, method="pieces", max_pieces=1000)
    # auto picks markov here (2^22 pieces against one 2 x 2 product); its
    # enumeration walks one word per piece of f^k, against the same budget
    with pytest.raises(PieceLimitError):
        make_gn(1).solution_set(22, max_pieces=1000)


def _traced(work):
    """What ``work()`` returns or raises, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        try:
            got = work()
        except PieceLimitError as exc:
            got = exc
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_piece_budget_bounds_memory():
    # at the largest measured peak per piece, an integer map's int pieces, a
    # rational map's Fraction pieces or the markov walk's words (a solution
    # set at its budget, one word per piece of f^k where laps = n), a build
    # or a walk of the default budget's size stays under 512 MiB
    per_piece = []
    rational = PLMap([(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))])
    for m, k in ((make_gn(1), 18), (rational, 9), (make_base_map(), 10)):
        size, peak = _traced(lambda: len(m.iterate_pieces(k)))
        per_piece.append(peak / size)
        if m._markov_data():
            walk = PLMap(m.anchors)
            walk._markov_data()
            solutions, peak = _traced(lambda: walk.solution_set(k, method="markov", max_pieces=size))
            assert len(solutions) == m.count_solutions(k)
            per_piece.append(peak / size)
    assert max(per_piece) * DEFAULT_MAX_PIECES <= 2**29


def test_markov_walk_refuses_a_level_before_building_it():
    # every unit interval of this 50-lap sawtooth maps onto the whole domain,
    # so each level of the walk is 50 times the last: 50, 2500, 125,000 and
    # 6,250,000 words.  With a budget of 3000, f^4's walk refuses the third
    # level before it builds it, within the memory that budget allows
    saw = PLMap([(x, 50 * (x % 2)) for x in range(51)])
    saw._markov_data()
    assert len(saw.solution_set(2, method="markov", max_pieces=2500)) == saw.count_solutions(2) > 0
    with pytest.raises(PieceLimitError):
        saw.solution_set(2, method="markov", max_pieces=2499)
    refused, peak = _traced(lambda: saw.solution_set(4, method="markov", max_pieces=3000))
    assert type(refused) is PieceLimitError and (refused.limit, refused.k) == (3000, 4)
    assert peak <= 3000 * 2**29 / DEFAULT_MAX_PIECES, peak


@pytest.mark.parametrize("m", [make_gn(1), make_gn(2), make_base_map()], ids=["g1", "g2", "base"])
def test_markov_enumeration_budget_matches_pieces(m):
    for k in range(1, 6):
        budget = len(m.iterate_pieces(k))
        for method in ("pieces", "markov"):
            assert len(m.solution_set(k, method=method, max_pieces=budget)) == m.count_solutions(k)
            with pytest.raises(PieceLimitError):
                m.solution_set(k, method=method, max_pieces=budget - 1)


@pytest.mark.parametrize("make", [lambda: make_gn(1), make_base_map, lambda: PLMap([(0, 0), (F(1, 3), 1), (1, 0)])])
def test_iterate_memo_matches_fresh_build(make):
    fresh = {k: make().iterate_pieces(k) for k in range(1, 6)}
    for j in range(1, 6):
        for k in range(1, 6):
            m = make()
            m.iterate_pieces(j)
            assert m.iterate_pieces(k) == fresh[k], (j, k)
    m = make()
    m.iterate_pieces(3).clear()
    m.iterate_pieces(3).append(None)
    assert m.iterate_pieces(3) == fresh[3]
    assert m.iterate_pieces(4) == fresh[4]


def test_iterate_memo_keeps_budget_boundary():
    for k in range(1, 6):
        m = make_gn(2)
        size = len(m.iterate_pieces(5))
        budget = len(make_gn(2).iterate_pieces(k))
        # f^5 cached, k <= 5: the same boundary as a fresh map's
        with pytest.raises(PieceLimitError) as exc:
            m.iterate_pieces(k, max_pieces=budget - 1)
        assert exc.value.k == k
        assert len(m.iterate_pieces(k, max_pieces=budget)) == budget
        # f^k cached: the cached iterate itself is over the budget
        with pytest.raises(PieceLimitError):
            m.iterate_pieces(k, max_pieces=budget - 1)
        # resumed from f^k: the composition steps hit the budget
        with pytest.raises(PieceLimitError):
            m.iterate_pieces(5, max_pieces=size - 1)
        assert len(m.iterate_pieces(5, max_pieces=size)) == size


# -- counting and solution sets ----------------------------------------------

def test_count_examples():
    assert make_gn(1).count_solutions(1) == 1
    assert make_base_map().count_solutions(1) == 3
    assert make_base_map().count_solutions(2) == 7
    assert make_pn(2).count_solutions(1, sign=-1) == 1


def test_solution_set_examples():
    assert make_gn(1).solution_set(1).points == (F(7, 3),)
    assert make_pn(2).solution_set(1).points == (F(-5, 4), F(0), F(5, 4))


def test_odd_map_sign_minus_contains_origin():
    for n in (2, 3, 4):
        p = make_pn(n)
        for k in (1, 2, 3):
            assert F(0) in p.solution_set(k, sign=-1).points


def test_identity_map_infinite():
    ident = PLMap([(0, 0), (1, 1)])
    with pytest.raises(InfiniteSolutions) as exc:
        ident.count_solutions(1)
    lo, hi = exc.value.witness
    assert lo < hi
    # the equation really does hold on the witness
    for x in (lo, (lo + hi) / 2, hi):
        assert ident(x) == x


def test_sign_minus_needs_zero_in_domain():
    with pytest.raises(DomainError):
        make_base_map().count_solutions(1, sign=-1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: f.iterate_pieces(0), "k must be >= 1"),
        (lambda f: f.count_solutions(0), "k must be >= 1"),
        (lambda f: f.count_solutions(1, sign=2), "sign must be"),
        (lambda f: f.count_solutions(1, method="fast"), "method must be"),
        (lambda f: f.iterate_pieces(3, max_pieces=0), "max_pieces must be >= 1"),
        (lambda f: f.count_solutions(3, method="markov", max_pieces=0), "max_pieces must be >= 1"),
        (lambda f: f.solution_set(3, method="pieces", max_pieces=-5), "max_pieces must be >= 1"),
        (lambda f: f.count_sequence(0), "K must be >= 1"),
        (lambda f: f.count_sequence(-3), "K must be >= 1"),
        (lambda f: f.count_sequence(0, method="bogus"), "K must be >= 1"),
    ],
    ids=[
        "iterate_pieces-k0", "count-k0", "sign-2", "method-fast", "iterate_pieces-budget0",
        "markov-budget0", "pieces-budget-5", "sequence-K0", "sequence-K-3", "sequence-K0-bogus",
    ],
)
def test_usage_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_gn(1))


def test_count_matches_solution_set_len():
    for m in (make_base_map(), make_gn(2), make_hjmn(4, 3, 2), make_pn(3)):
        for k in (1, 2, 3, 4):
            assert m.count_solutions(k) == len(m.solution_set(k).points)


def test_dedup_under_artificial_split():
    # adding a collinear anchor must not change any count
    for m in (make_gn(1), make_base_map(), make_pn(2)):
        anchors = list(m.anchors)
        x = (anchors[0][0] + anchors[1][0]) / 2
        split = PLMap(sorted(anchors + [(x, m(x))]))
        for k in (1, 2, 3, 4, 5):
            assert split.count_solutions(k) == m.count_solutions(k)


def test_solutions_really_solve():
    for m in (make_base_map(), make_gn(2), make_pn(3)):
        for k in (1, 2, 3):
            for x in m.solution_set(k).points:
                assert iterate(m, x, k) == x
    p3 = make_pn(3)
    for x in p3.solution_set(2, sign=-1).points:
        assert iterate(p3, x, 2) == -x


def test_solve_builds_a_fraction_only_per_returned_point(monkeypatch):
    # with the pieces of f^k built, both engines decide, count, order and
    # reduce the roots in integers: a count and a solution set build no
    # Fraction, the first read of the points one per point, a second read none
    cases = [(make_gn(1), 8, 1), (make_pn(2), 5, -1)]
    for m, k, _ in cases:
        m.iterate_pieces(k)
    built = []
    monkeypatch.setattr(plmap, "Fraction", lambda *args: built.append(args) or F(*args))
    for m, k, sign in cases:
        for method in ("pieces", "markov"):
            built.clear()
            count = m.count_solutions(k, sign=sign, method=method)
            solutions = m.solution_set(k, sign=sign, method=method)
            assert built == [] and len(solutions) == count > 0, method
            points = solutions.points
            assert built == list(solutions._pairs) and len(points) == count, method
            assert solutions.points is points and list(solutions) == list(points), method
            assert points[0] in solutions and solutions[-1] == points[-1], method
            assert len(built) == count, method


# -- engine agreement ---------------------------------------------------------

ALL_SMALL_MAPS = [
    make_base_map(), make_gn(1), make_gn(2), make_gn(3), make_fmn(2, 4), make_fmn(2, 5), make_fmn(3, 5),
    make_hjmn(3, 2, 2), make_hjmn(4, 4, 2), make_hjmn(2, 5, 2), make_pn(2), make_pn(3),
]


def test_markov_engine_equals_pieces_engine():
    # hjmn(3, 2, 2) has f^2 = x on [1, 2] and on [5, 6]; the witness is [1, 2]
    for m in ALL_SMALL_MAPS:
        for k in range(1, 6):
            for sign in (1, -1) if m.domain[0] < 0 else (1,):
                for solve in (m.count_solutions, m.solution_set):
                    assert outcome(solve, k, sign, "pieces") == outcome(solve, k, sign, "markov"), (m, k, sign)


def test_markov_engine_rejects_non_markov():
    bent = PLMap([(0, 0), (F(1, 2), 1), (1, 0)])
    with pytest.raises(NotMarkovError):
        bent.count_solutions(1, method="markov")
    # auto still works through the pieces engine
    assert bent.count_solutions(1) == 2
    # so on an integer map with a flat lap, at a k where 2^k > n^2
    flat = PLMap([(0, 0), (1, 2), (2, 2)])
    with pytest.raises(NotMarkovError):
        flat.count_solutions(4, method="markov")
    assert flat.count_solutions(4) == 2


def test_markov_witness_spans_the_pieces_engine_piece():
    # one lap over several unit intervals: f = x, and f^2 = x for f = 3 - x,
    # hold on all of [0, 3], which both engines report as one witness; f = -x
    # is cut only at the anchor 1, not where -x is the anchor 1 (at x = -1)
    cases = [
        (PLMap([(0, 0), (3, 3)]), 1, 1, (0, 3)),
        (PLMap([(0, 3), (3, 0)]), 2, 1, (0, 3)),
        (PLMap([(-3, 3), (1, -1), (3, -3)]), 1, -1, (-3, 1)),
    ]
    for m, k, sign, witness in cases:
        for method in ("pieces", "markov"):
            for solve in (m.count_solutions, m.solution_set):
                with pytest.raises(InfiniteSolutions) as info:
                    solve(k, sign=sign, method=method)
                assert info.value.witness == witness, (m, method)


def test_markov_engine_is_thread_safe():
    # threads sharing one map race on its memos; a memo changed in place
    # would hand some thread another k's matrix power or iterate
    def markov(m):
        return [m.count_solutions(k, method="markov") for k in range(1, 41)]

    def pieces(m):
        return [
            (m.count_solutions(k, method="pieces"), m.solution_set(k, method="pieces"))
            for k in range(1, 9)
        ]

    inputs = [
        (lambda: make_hjmn(3, 4, 3), markov),
        (lambda: PLMap([(0, F(1, 4)), (F(1, 2), 1), (F(2, 3), 0), (1, F(1, 2))]), pieces),
    ]
    for make, solve in inputs:
        serial = solve(make())
        for _ in range(5):
            m = make()
            assert in_threads(lambda: solve(m)) == [serial] * 4


def test_markov_count_keeps_one_matrix_power():
    # the count keeps one matrix power, not A^1..A^k: O(k) digits, not O(k^2)
    m = make_hjmn(3, 4, 3)
    tracemalloc.start()
    try:
        m.count_solutions(300, method="markov")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


@pytest.mark.parametrize(
    "make, sign, want",
    [(lambda: make_gn(2), 1, seq_b(2, 40)), (lambda: make_hjmn(3, 4, 3), 1, seq_c(3, 4, 3, 40)), (lambda: make_pn(3), -1, seq_s(3, 40))],
    ids=["g2", "h343", "p3 anti"],
)
def test_markov_counts_by_squaring_match_a_resumed_sequence_and_the_spec(make, sign, want):
    # count_sequence resumes A^(k-1) with one product per k; a fresh map
    # reads A^k's entries off the halves A^(k//2) and A^(k - k//2), reached by
    # squaring; both equal the spec's terms
    seq = make().count_sequence(40, sign=sign, method="markov")
    assert seq == want
    for k in range(1, 41):
        assert make().count_solutions(k, sign=sign, method="markov") == want[k - 1], k


def _nonzeros(matrix):
    return sum(len(row) - row.count(0) for row in matrix)


@pytest.fixture
def products(monkeypatch):
    """The nonzeros of the left and the right factor of each matrix product."""
    taken, mat_mul = [], exactnum._mat_mul

    def counted(a, b):
        taken.append((_nonzeros(a), _nonzeros(b)))
        return mat_mul(a, b)

    monkeypatch.setattr(exactnum, "_mat_mul", counted)
    return taken


def test_matrix_powers_square(products):
    m = make_hjmn(3, 4, 3)
    md = m._markov_data()
    A8 = m._matrix_power(md, 8)
    assert len(products) == 3  # A^2, A^4, A^8
    A = md.A
    want = A
    for _ in range(7):
        want = exactnum._mat_mul(want, A)
    assert A8 == want
    # resumed from the memo: A^13 = A^8 * A * A^4, two squarings and two products
    products.clear()
    m._matrix_power(md, 13)
    assert len(products) == 4
    # and a sequence pays one product per k past the first
    products.clear()
    make_hjmn(3, 4, 3).count_sequence(20, method="markov")
    assert len(products) == 19


def test_markov_counts_take_one_product_fewer_than_squaring(products):
    want = seq_c(3, 4, 3, 40)
    for k in range(1, 41):
        products.clear()
        assert make_hjmn(3, 4, 3).count_solutions(k, method="markov") == want[k - 1]
        # squaring up to A^k takes a product per bit past the first and per
        # set bit past the first
        squaring = k.bit_length() - 1 + k.bit_count() - 1
        assert len(products) == max(squaring - 1, 0), k
        # every product puts the lower power, with no more nonzeros, on the left
        assert all(a <= b for a, b in products), (k, products)
    products.clear()
    assert make_hjmn(3, 4, 3).count_solutions(8, method="markov") == want[7]
    assert len(products) == 2  # A^2 and A^4, against A^2, A^4 and A^8 by squaring
    products.clear()
    assert make_gn(1).count_solutions(2) == 3
    assert products == []
    # a sequence resumes A^(k-1), with A on the left
    products.clear()
    assert make_hjmn(3, 4, 3).count_sequence(20, method="markov") == want[:20]
    assert len(products) == 19 and all(a <= b for a, b in products)
    # a count after a count at 2k reads the higher half kept, A^k, directly,
    # and one below the higher half kept goes back to the halves
    m = make_hjmn(3, 4, 3)
    m.count_solutions(24, method="markov")
    products.clear()
    assert m.count_solutions(12, method="markov") == want[11]
    assert products == []
    assert m.count_solutions(11, method="markov") == want[10]
    assert len(products) == 4  # A^2, A^4, A * A^4 and A * A^5, against 5 by squaring


def test_auto_counts_on_markov_once_laps_to_the_k_exceed_n_squared():
    # gn(1): two laps over n = 2 unit intervals, so 2^k >= 2^2 from k = 2,
    # where the count reads A^1 against itself and keeps it as the last power
    m = make_gn(1)
    assert m.count_solutions(1) == 1
    assert m._iterate[0] == 1 and m._markov is None and m._power is None
    m = make_gn(1)
    assert m.count_solutions(2) == 3
    assert m._iterate is None and m._power[0] == 1
    m = make_gn(1)
    assert m.count_solutions(3) == 4
    assert m._iterate is None and m._power[0] == 2
    # the tent over [0, 400]: 2^13 pieces against 400^2 cells, so no matrix
    tent = PLMap([(0, 0), (200, 400), (400, 0)])
    assert tent.count_solutions(13) == 2**13
    assert tent._markov is None and tent._power is None


def test_auto_counts_past_the_piece_budget_on_markov():
    # 2^11 pieces exceed the budget of 2000, but 2^11 > 40^2 puts the count
    # on markov, whose 40 x 40 matrix fits it
    m = PLMap([(0, 0), (20, 40), (40, 0)])
    assert m.count_solutions(11, max_pieces=2000) == 2048
    # each lap spans 20 unit intervals, so enumeration stays on pieces: at
    # k = 11 the pieces engine runs out of budget, at k = 10 not
    with pytest.raises(PieceLimitError):
        PLMap([(0, 0), (20, 40), (40, 0)]).solution_set(11, max_pieces=2000)
    assert len(PLMap([(0, 0), (20, 40), (40, 0)]).solution_set(10, max_pieces=2000)) == 1024


def test_auto_enumerates_a_wide_tent_on_pieces():
    # markov would walk one word per unit-interval cylinder, 200 per piece
    # of f^12, and exhaust the budget that the 4,096 pieces stay far within
    tent = PLMap([(0, 0), (200, 400), (400, 0)])
    assert len(tent.solution_set(12)) == 2**12
    with pytest.raises(PieceLimitError):
        PLMap([(0, 0), (200, 400), (400, 0)]).solution_set(12, method="markov")


def test_auto_enumerates_on_pieces_where_markov_walks_more_words():
    # each lap spans 20 unit intervals: markov would walk 20 * 2^16 words,
    # past the budget, where the 2^16 pieces of f^16 fit within it
    points = PLMap([(0, 0), (20, 40), (40, 0)]).solution_set(16)
    assert len(points) == 2**16
    assert points[0] == 0 and points[-1] == F(2621440, 65537)
    assert all(a < b for a, b in zip(points, points[1:]))
    with pytest.raises(PieceLimitError):
        PLMap([(0, 0), (20, 40), (40, 0)]).solution_set(16, method="markov")


def test_auto_builds_no_matrix_past_the_piece_budget(monkeypatch):
    def no_matrix(self):
        raise AssertionError("auto built the transition matrix")

    monkeypatch.setattr(PLMap, "_markov_data", no_matrix)
    # two laps of f(x) = 800 - x: 2^29 > 800^2, but A would hold 800^2 >
    # DEFAULT_MAX_PIECES entries, so auto stays on pieces
    m = PLMap([(0, 800), (1, 799), (800, 0)])
    assert 800**2 > DEFAULT_MAX_PIECES and 2**29 > 800**2
    assert m.count_solutions(29) == 1
    with pytest.raises(InfiniteSolutions) as info:
        m.count_solutions(30)
    assert info.value.witness == (0, 1)
    # and the piece budget still binds the pieces engine
    tent = PLMap([(0, 0), (400, 800), (800, 0)])
    with pytest.raises(PieceLimitError):
        tent.count_solutions(29, max_pieces=10_000)


def _brute_force_auto(m, k, max_pieces, count):
    """auto's size rule taken literally: markov when the laps have int fields
    and nonzero slopes, n^2 <= max_pieces and laps^k reaches n^2, for an
    enumeration only where laps = n."""
    laps = m._lap_tuple()
    usable = all(lap.slope and all(type(v) is int for v in lap) for lap in laps)
    n = laps[-1].hi - laps[0].lo
    flips = count or len(laps) == n
    return "markov" if usable and flips and n * n <= max_pieces and len(laps) ** k >= n**2 else "pieces"


@pytest.mark.parametrize(
    "m",
    [
        make_base_map(),
        make_gn(2),
        make_fmn(2, 5),
        make_hjmn(3, 4, 3),
        make_pn(3),
        PLMap([(0, 0), (200, 400), (400, 0)]),
        PLMap([(0, 0), (100000, 100000)]),
        PLMap([(0, 0), (F(1, 2), 1), (1, 0)]),
    ],
    ids=["base2", "g2", "f25", "h343", "p3", "tent400", "one-lap", "bent"],
)
def test_auto_flip_point_matches_the_brute_force_rule(m):
    # the flip points, read once per map, decide as the bounds on laps^k
    # would, for count_solutions and for solution_set
    for count in (True, False):
        for max_pieces in (DEFAULT_MAX_PIECES, 30, 1):
            for k in range(1, 65):
                want = _brute_force_auto(m, k, max_pieces, count)
                assert m._resolve_method(k, "auto", max_pieces, count) == want, (k, max_pieces, count)
        # and at a k where laps^k has millions of digits, without building it
        want = _brute_force_auto(m, 64, DEFAULT_MAX_PIECES, count)
        assert m._resolve_method(4 * 10**6, "auto", DEFAULT_MAX_PIECES, count) == want


def test_auto_flip_point_values():
    g1 = make_gn(1)
    g1._lap_tuple()
    assert g1._rule == (True, 2, 2)  # 2^2 >= 2^2, and laps = n
    tent = PLMap([(0, 0), (200, 400), (400, 0)])
    tent._lap_tuple()
    assert tent._rule == (True, 18, None)  # 2^18 >= 400^2 > 2^17, and laps < n
    one_lap = PLMap([(0, 0), (100000, 100000)])
    one_lap._lap_tuple()
    assert one_lap._rule == (True, None, None)
    flat = PLMap([(0, 0), (1, 2), (2, 2)])
    flat._lap_tuple()
    assert flat._rule == (False, None, None)


def test_markov_engine_asymmetric_domain_sign_minus():
    # 0 inside an asymmetric integer domain: the mirrored unit interval is
    # not simply index-reversed and may fall outside the partition
    asym = PLMap([(-1, 3), (0, -1), (1, 2), (2, 0), (3, 1)])
    for k in range(1, 6):
        for sign in (1, -1):
            check_engines(asym, k, sign)


# -- transition matrix ---------------------------------------------------------

def test_transition_matrix_examples():
    assert make_gn(1).transition_matrix() == [[0, 1], [1, 1]]
    assert make_base_map().transition_matrix() == [[1, 1, 1], [1, 1, 1], [0, 1, 1]]
    # a single lap covering the whole domain gives an all-ones row
    tent = PLMap([(0, 0), (1, 2), (2, 0)])
    assert tent.transition_matrix() == [[1, 1], [1, 1]]


@given(m=integer_maps(flat=True, drop_collinear=True, widths=(1, 6)))
@settings(max_examples=80, deadline=None)
def test_transition_matrix_matches_the_min_max_definition(m):
    lo, hi = map(int, m.domain)
    want = [
        [1 if min(m(p), m(p + 1)) <= q < max(m(p), m(p + 1)) else 0 for q in range(lo, hi)]
        for p in range(lo, hi)
    ]
    assert m.transition_matrix() == want, m


def test_transition_matrix_not_markov():
    with pytest.raises(NotMarkovError):
        PLMap([(0, 0), (F(1, 2), 1), (1, 0)]).transition_matrix()
    with pytest.raises(NotMarkovError):
        PLMap([(0, 1), (2, 0)]).transition_matrix()  # value 1/2 at x=1
    with pytest.raises(NotMarkovError):
        # integer slope and intercept, but the last anchor x is not an integer
        PLMap([(0, 0), (F(3, 2), F(3, 2))]).transition_matrix()


def test_sparse_anchor_maps_are_markov():
    # collinear spans evaluate to integers at every interior integer
    assert make_fmn(3, 6).transition_matrix()
    assert make_gn(4).transition_matrix()


@given(m=half_integer_maps())
@settings(max_examples=150, deadline=None)
def test_markov_data_read_off_the_laps_matches_the_integers(m):
    md = m._markov_data()
    # the slow oracle: every anchor x an integer and f integral at every integer
    lo, hi = m.domain
    integers = range(int(lo), int(hi) + 1)
    if all(x.denominator == 1 for x, _ in m.anchors) and all(m(q).denominator == 1 for q in integers):
        assert md is not None
        assert md.values == [m(q) for q in integers]
    else:
        assert md is None


def test_auto_on_a_wide_one_lap_map_builds_no_matrix():
    # one lap over [0, 10^5]: f^(k+1) has one piece, so auto stays on
    # pieces; a 10^5 x 10^5 transition matrix would never fit
    m = PLMap([(0, 0), (10**5, 10**5)])
    tracemalloc.start()
    try:
        for k in range(1, 9):
            with pytest.raises(InfiniteSolutions) as info:
                m.count_solutions(k)
            assert info.value.witness == (0, 10**5)
        with pytest.raises(ValueError, match="method must be"):
            m.count_solutions(1, method="bogus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- annihilation property -----------------------------------------------------

def test_recurrence_annihilates_oracle_g1():
    # the lag-2/lag-4 recurrence annihilates the oracle counts from k = 5 on
    counts = make_gn(1).count_sequence(12)
    for k in range(5, 13):
        assert counts[k - 1] == 3 * counts[k - 3] - counts[k - 5]
    # and its characteristic polynomial factors through the minimal one
    assert Poly([-1, -1, 1]) * Poly([-1, 1, 1]) == Poly([1, 0, -3, 0, 1])
    assert charpoly(make_gn(1).transition_matrix()) == Poly([-1, -1, 1])


def test_recurrence_annihilates_oracle_base():
    counts = make_base_map().count_sequence(10)
    for k in range(3, 11):
        assert counts[k - 1] == 3 * counts[k - 2] - counts[k - 3]
    # charpoly of the transition matrix is divisible by x^2 - 3x + 1
    assert charpoly(make_base_map().transition_matrix()) == Poly([0, 1]) * Poly([1, -3, 1])
