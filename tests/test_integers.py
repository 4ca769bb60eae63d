"""One integer rule: every integer the library takes passes ``operator.index``.

A size below its least value raises ValueError("<name> must be >= <least>")
before any work; a float, a Fraction or a str raises TypeError, at a size and
at a value alike (family parameters, recurrence and polynomial coefficients,
matrix entries, anchors of the family maps).  Custom map anchors still take
anything ``Fraction`` accepts."""

from fractions import Fraction

import pytest

from plcensus import census, cli, exactnum, families, sequences
from plcensus.census import explore_qrs, factorize, verify_congruence
from plcensus.exactnum import Poly, RecurrenceSpec, charpoly, recurrence_eval, series_expand
from plcensus.families import make_fmn, make_gn, make_hjmn, make_pn
from plcensus.plmap import PLMap
from plcensus.sequences import spec_a, spec_b, spec_c, spec_d, spec_s

F = Fraction
FLIP = PLMap([(0, 1), (1, 0)])  # one lap, so a budget of one piece holds f^k


def _verify_with_oracle_depth(depth):
    args = cli.build_parser().parse_args(["verify", "--family", "a", "--n", "4", "--K", "10"])
    args.oracle_depth = depth
    return cli.cmd_verify(args)


# site -> (the checked name, its least value, a call taking it, (owner, attribute) that does the work)
SITES = {
    "recurrence_eval-K": ("K", 1, lambda v: recurrence_eval(RecurrenceSpec((3, -1), (3, 7)), v),
                          (exactnum, "_recurrence_stream")),
    "series_expand-K": ("K", 1, lambda v: series_expand([0, 3, -2], [1, -3, 1], v), (exactnum, "_as_poly")),
    "iterate_pieces-k": ("k", 1, lambda v: make_gn(1).iterate_pieces(v), (PLMap, "_lap_tuple")),
    "iterate_pieces-max_pieces": ("max_pieces", 1, lambda v: FLIP.iterate_pieces(2, max_pieces=v),
                                  (PLMap, "_lap_tuple")),
    "count_solutions-k": ("k", 1, lambda v: make_gn(1).count_solutions(v), (PLMap, "_resolve_method")),
    "solution_set-max_pieces": ("max_pieces", 1, lambda v: FLIP.solution_set(1, max_pieces=v),
                                (PLMap, "_resolve_method")),
    "count_sequence-K": ("K", 1, lambda v: make_gn(1).count_sequence(v), (PLMap, "count_solutions")),
    "factorize-m": ("m", 1, factorize, (census, "_factorize")),
    "verify_congruence-K": ("K", 1, lambda v: verify_congruence(spec_a(3), "phi1", v), (census, "terms")),
    "explore_qrs-n": ("n", 2, lambda v: explore_qrs(v, [0], [0], [0], 5), (census, "_recurrence_stream")),
    "explore_qrs-K": ("K", 1, lambda v: explore_qrs(2, [0], [0], [0], v), (census, "_recurrence_stream")),
    "spec_a-n": ("n", 3, spec_a, (sequences, "RecurrenceSpec")),
    "spec_b-n": ("n", 1, spec_b, (sequences, "RecurrenceSpec")),
    "spec_c-n": ("n", 2, lambda v: spec_c(2, 2, v), (sequences, "RecurrenceSpec")),
    "spec_d-n": ("n", 2, lambda v: spec_d(1, v), (sequences, "RecurrenceSpec")),
    "spec_s-n": ("n", 2, spec_s, (sequences, "RecurrenceSpec")),
    "make_fmn-n": ("n", 4, lambda v: make_fmn(2, v), (families, "_merged_anchors")),
    "make_gn-n": ("n", 1, make_gn, (families, "_merged_anchors")),
    "make_hjmn-n": ("n", 2, lambda v: make_hjmn(2, 2, v), (families, "_merged_anchors")),
    "make_pn-n": ("n", 2, make_pn, (families, "_merged_anchors")),
    "cli-oracle-depth": ("--oracle-depth", 1, _verify_with_oracle_depth, (sequences, "build_spec")),
}


@pytest.mark.parametrize("site", SITES)
def test_every_integer_size_passes_one_rule(site, monkeypatch, capsys):
    name, least, call, (owner, attribute) = SITES[site]
    call(True if least == 1 else least)  # the least value is taken, True as 1
    monkeypatch.setattr(owner, attribute, lambda *a, **kw: pytest.fail(f"{attribute} ran before the check"))
    with pytest.raises(ValueError) as excinfo:
        call(least - 1)
    assert str(excinfo.value) == f"{name} must be >= {least}"
    for value in (float(least), F(least), str(least)):
        with pytest.raises(TypeError):
            call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spec_d(0.5, 2),  # its terms were [2, 5.0, 11.0, 24.5, 54.5, ...]
        lambda: spec_c(3.5, 4, 2),
        lambda: make_gn(1.5),
        lambda: make_fmn(2.5, 5),
        lambda: make_fmn(F(5, 2), 5),  # PLMap takes Fraction anchors; the family gate must refuse them
        lambda: explore_qrs(2, [0.5], [0], [0], 6),
        lambda: RecurrenceSpec((0.5,), (1,)),
        lambda: RecurrenceSpec((1,), (F(1),)),
        lambda: Poly([F(1, 2)]),
        lambda: Poly([1, 2.0]),
        lambda: charpoly([[2.0]]),
        lambda: charpoly([[1, 0], [0, F(1, 2)]]),
        lambda: make_gn(1).count_solutions(3, max_pieces=2.5),
    ],
    ids=[
        "spec_d-m", "spec_c-j", "make_gn-n", "make_fmn-m", "make_fmn-Fraction-m", "explore_qrs-q",
        "RecurrenceSpec-coefficient", "RecurrenceSpec-initial-term", "Poly-Fraction", "Poly-float", "charpoly-float",
        "charpoly-Fraction", "count_solutions-max_pieces",
    ],
)
def test_no_float_or_fraction_reaches_an_exact_record(call):
    with pytest.raises(TypeError):
        call()


def test_explore_qrs_checks_every_value_before_any_triple(monkeypatch):
    # 0 sorts first, so a triple would run before 0.5 if the values were read lazily
    monkeypatch.setattr(census, "_recurrence_stream", lambda *a: pytest.fail("a triple ran"))
    for q, r, s in (([0, 0.5], [0], [0]), ([0], [0, F(1)], [0]), ([0], [0], [0, "1"])):
        with pytest.raises(TypeError):
            explore_qrs(2, q, r, s, 6)


def test_charpoly_checks_its_entries_before_any_product(monkeypatch):
    monkeypatch.setattr(exactnum, "_mat_mul", lambda *a: pytest.fail("a product ran"))
    with pytest.raises(TypeError):
        charpoly([[F(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError, match="matrix must be square"):
        charpoly([[1, 2]])


def test_the_rule_keeps_ints_and_bools_as_ints():
    assert RecurrenceSpec([True, -1], (3, 7)) == ((1, -1), (3, 7))
    assert type(RecurrenceSpec([True], [False]).coefficients[0]) is int
    assert Poly([False, True]).coeffs == (0, 1) and type(Poly([True]).coeffs[0]) is int
    assert charpoly([[True, 0], [0, 2]]) == Poly([2, -3, 1])
    assert spec_b(True).params == (("n", 1),) and type(spec_b(True).params[0][1]) is int


def test_rational_plmap_anchors_are_unchanged():
    m = PLMap([(0, 0), ("1/2", 1), (1, 0)])
    assert repr(m) == "PLMap([(0, 0), (1/2, 1), (1, 0)])"
    assert m.anchors == ((0, 0), (F(1, 2), 1), (1, 0))
    assert m.solution_set(2).points == (0, F(2, 5), F(2, 3), F(4, 5))
    assert m.count_sequence(5) == [2, 4, 8, 16, 32]
    # a float is its binary expansion, rarely the number written: 0.1 would
    # be 3602879701896397/36028797018963968, so an anchor or a point that is
    # a float raises
    for anchors in ([(0.0, 0), (0.5, 1), (1, 0)], [(0, 0.1), (1, 1)]):
        with pytest.raises(TypeError, match="is a float"):
            PLMap(anchors)
    with pytest.raises(TypeError, match="is a float"):
        m(0.5)
