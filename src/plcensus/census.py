"""Number-theoretic layer: factorization, the inclusion-exclusion operators
phi1/phi2 over prime divisors, congruence verification, independent
least-period censuses, and the conjecture explorers.

phi1(m, f) turns fixed-point counts f(k) = #{x : g^k(x) = x} into the exact
number of points of least period m; phi2(m, f) does the same for symmetric
periodic points of odd maps (least period 2m) from f(k) = #{x : g^k(x) = -x}.
The censuses recompute those numbers from exact solution sets, independently
of the operators, which is what makes the congruence checks meaningful.  Both
follow one rule: with S_k the exact solution set of f^k(x) = sign*x, the
count is |S_m| less the size of a union of subsets of S_m that holds every
point of S_m whose least period falls short of the one counted (m for sign
+1, 2m for sign -1).  The periodic census takes the union of the S_(m/p)
over the primes p | m; the symmetric census takes it over the odd primes
p | m and adds the origin, which every odd map fixes.

A phi1 congruence sweep sieves instead of calling phi1 per k: for each prime
p <= K, every k divisible by p subtracts the value k/p held before p.  That
is the Dirichlet factor (1 - p^-s), so entry k ends as the Moebius sum over
d | k of mu(k/d) t_d, exactly phi1(k, t): the same int terms, another order.
"""

from __future__ import annotations

import functools
from itertools import compress
from operator import index, sub
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import _at_least
from .exactnum import RecurrenceSpec, _recurrence_stream, recurrence_eval
from .sequences import SequenceSpec, spec_s, terms

if TYPE_CHECKING:
    from .plmap import PLMap


class CensusInvariantError(RuntimeError):
    """An enumerated count failed orbit divisibility; something is deeply
    wrong (or the map violates the finiteness hypothesis undetected)."""


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division as sorted (prime, exponent)
    pairs, () for 1; each m once per process (``factorize.cache_info()``).

    >>> factorize(12)
    ((2, 2), (3, 1))
    """
    # _at_least's rule, inline: 35k calls per bench sweep pass, +1.2% wall_s through it
    if (m := index(m)) < 1:
        raise ValueError("m must be >= 1")
    return _factorize(m)


@functools.lru_cache(maxsize=None)
def _factorize(m: int) -> tuple[tuple[int, int], ...]:
    rem = m
    factors = []
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            factors.append(_PAIRS.setdefault((f, e), (f, e)))
        f += 1 if f == 2 else 2
    if rem > 1:
        factors.append(_PAIRS.setdefault((rem, 1), (rem, 1)))
    return tuple(factors)


_PAIRS: dict = {}  # one copy of each (prime, exponent) pair, shared by the memo
factorize.cache_info = _factorize.cache_info
Accessor = Callable[[int], int]


def _inclusion_exclusion(m: int, pairs: Sequence[tuple[int, int]], acc: Accessor) -> int:
    """Sum over subsets T of the primes of ``pairs``, (prime, exponent)
    pairs as ``factorize`` returns them, of (-1)^|T| * acc(m / prod(T)).

    IE(m, ps) = acc(m) - Tail(m, ps), where Tail sums the nonempty T;
    splitting those on whether T holds the first prime p gives
    Tail(m, [p, *rest]) = IE(m // p, rest) + Tail(m, rest).  Each of
    the 2^|pairs| terms is fetched once and never multiplied by a sign, and
    they meet in 2^|pairs| - 1 additions and subtractions.  acc(m) enters
    only the last one: the others combine terms acc(m / d) with d >= 2,
    which for a geometrically growing acc are at most about half its size.
    """
    return acc(m) - _ie_tail(m, pairs, acc) if pairs else acc(m)


def _ie_tail(m: int, pairs: Sequence[tuple[int, int]], acc: Accessor) -> int:
    """Tail(m, pairs) = acc(m) - IE(m, pairs), for nonempty pairs."""
    p, rest = pairs[0][0], pairs[1:]
    if not rest:
        return acc(m // p)
    return _inclusion_exclusion(m // p, rest, acc) + _ie_tail(m, rest, acc)


def phi1(m: int, phi: Accessor) -> int:
    """Inclusion-exclusion over the distinct primes of m:
    sum over subsets T of (-1)^|T| * phi(m / prod(T)); phi1(1, .) = phi(1).
    Raises ValueError for m < 1 (through factorize)."""
    return _inclusion_exclusion(m, factorize(m), phi)


def phi2(m: int, psi: Accessor) -> int:
    """Like phi1 but over the distinct odd primes of m (the power of two in
    m stays fixed); for m a power of two, including m = 1, it is psi(m) - 1
    (discounting the origin, which every odd map fixes)."""
    odd = [pair for pair in factorize(m) if pair[0] != 2]
    if not odd:
        return psi(m) - 1
    return _inclusion_exclusion(m, odd, psi)


OPERATORS = {"phi1": (phi1, 1), "phi2": (phi2, 2)}


class CensusReport(NamedTuple):
    """Per-k verification record for a congruence sweep."""

    k: int
    phi_value: int
    operator: str
    value: int
    modulus: int
    quotient: int | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "term": self.phi_value,
            "operator": self.operator,
            "value": self.value,
            "modulus": self.modulus,
            "quotient": self.quotient,
            "pass": self.passed,
        }


def _congruence_reports(term_list: list[int], operator: str, K: int) -> list[CensusReport]:
    op, mod_factor = OPERATORS[operator]
    values = [0, *term_list]
    if op is phi1:  # the Moebius sieve of the module docstring
        is_prime = bytearray(2) + bytearray(b"\1") * (K - 1)
        for p in compress(range(K + 1), is_prime):  # is_prime[p] is final by then
            is_prime[p * p :: p] = bytes(len(range(p * p, K + 1, p)))
            values[p::p] = map(sub, values[p::p], values[1 : K // p + 1])
    else:
        acc = values.__getitem__
        values = [0] + [op(k, acc) for k in range(1, K + 1)]
    out = []
    for k in range(1, K + 1):
        value = values[k]
        modulus = mod_factor * k
        quotient, rem = divmod(value, modulus)
        out.append(CensusReport(k, term_list[k - 1], operator, value, modulus, None if rem else quotient, not rem))
    return out


def verify_congruence(spec: SequenceSpec, operator: str, K: int) -> list[CensusReport]:
    """One report per k <= K checking operator(k, sequence) == 0 mod k
    (phi1) or mod 2k (phi2).  Failures are data, never swallowed.  K must be
    an int (TypeError otherwise) and >= 1.  phi1 values come from the
    module docstring's Moebius sieve over the primes <= K, exact in int."""
    K = _at_least("K", K, 1)
    if operator not in OPERATORS:
        raise ValueError("operator must be 'phi1' or 'phi2'")
    return _congruence_reports(terms(spec, K), operator, K)


class CensusCount(NamedTuple):
    count: int
    orbit_count: int


def _least_period_count(pl_map: PLMap, m: int, sign: int, primes: Iterable[int], lower: set) -> int:
    """|S_m| less |lower ∪ S_(m/p) for p in primes|, where S_k is the exact
    solution set of f^k(x) = sign*x and ``lower`` (updated in place) and each
    S_(m/p) lie in S_m.  The union is keyed by the lowest-terms (numerator,
    denominator) pairs each solution set keeps, which name a rational
    uniquely and hash as two ints, so no Fraction is built."""
    # count first, so that a degenerate f^m raises InfiniteSolutions at k = m
    total = pl_map.count_solutions(m, sign=sign)
    for p in primes:
        lower.update(pl_map.solution_set(m // p, sign=sign)._pairs)
    return total - len(lower)


def periodic_census(pl_map: PLMap, m: int) -> CensusCount:
    """Exact number of points of least period m, counted independently of
    phi1: the solutions of f^m(x) = x less the union of the exact solution
    sets of f^(m/p)(x) = x over the primes p | m, since a point of least
    period d < m, d | m, has d | m/p for some such p.  Returns
    (count, count // m); raises CensusInvariantError if m does not divide
    the count."""
    count = _least_period_count(pl_map, m, 1, [p for p, _ in factorize(m)], set())
    if count % m:
        raise CensusInvariantError(f"{count} least-period-{m} points, not divisible by {m}")
    return CensusCount(count, count // m)


def _is_odd_map(pl_map: PLMap) -> bool:
    xs, ys = pl_map._xs, pl_map._ys
    if xs[0] != -xs[-1]:
        return False
    # two piecewise-linear maps agree iff they agree on the union of their
    # breakpoints; x -> -f(-x) has breakpoints at the negated anchors, read
    # narrowed, so an integer map evaluates them in int
    return all(pl_map(-x) == -y for x, y in zip(xs, ys))


def symmetric_census(pl_map: PLMap, m: int) -> CensusCount:
    """Exact number of symmetric periodic points of least period 2m of an
    odd map, counted independently of phi2: the solutions of f^m(x) = -x
    less the origin and the union of the exact solution sets of
    f^(m/p)(x) = -x over the odd primes p | m.  A solution x of least period
    n < 2m has n | 2m; if n | m then x = -x, so x = 0; otherwise n = 2m' with
    m/m' odd and > 1, and x solves f^(m/p)(x) = -x for each odd p | m/m'.
    Returns (count, count // (2m)); raises CensusInvariantError if 2m does
    not divide the count."""
    if not _is_odd_map(pl_map):
        raise ValueError("symmetric census needs an odd map on a symmetric domain")
    odd = [p for p, _ in factorize(m) if p != 2]
    count = _least_period_count(pl_map, m, -1, odd, {(0, 1)})
    if count % (2 * m):
        raise CensusInvariantError(f"{count} symmetric points, not divisible by {2 * m}")
    return CensusCount(count, count // (2 * m))


class QRSFinding(NamedTuple):
    q: int
    r: int
    s: int
    holds: bool
    first_failure: int | None

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "holds_through_K": self.holds,
            "first_failure_k": self.first_failure,
        }


def _qrs_recurrence(n: int, q: int, r: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The coefficients and initial terms of ``qrs_terms``' recurrence."""
    base = 2 * n + 1
    return (base, -q, -s), (base, base**2 - 2 * q, base**3 - 6 * r)


def qrs_terms(n: int, q: int, r: int, s: int, K: int) -> list[int]:
    """t_1 = 2n+1, t_2 = (2n+1)^2 - 2q, t_3 = (2n+1)^3 - 6r, then
    t_k = (2n+1)t_{k-1} - q*t_{k-2} - s*t_{k-3}."""
    return recurrence_eval(RecurrenceSpec(*_qrs_recurrence(n, q, r, s)), K)


def qrs_triple_for_c(j: int, m: int, n: int) -> tuple[int, int, int]:
    """The (q, r, s) triple whose generalized sequence coincides with the
    c-family instance (j, m, n)."""
    w = j - m
    return (2 * n - w, n * (2 * n + 1 - w), w)


def explore_qrs(
    n: int,
    q_range: Iterable[int],
    r_range: Iterable[int],
    s_range: Iterable[int],
    K: int,
) -> list[QRSFinding]:
    """Check phi1(k, t) == 0 mod k for k <= K over a (q, r, s) grid of
    generalized third-order sequences; failures are findings, not errors.
    Each triple's terms are drawn one k at a time, only up to its first
    failure.  n, K and every q, r and s must be ints."""
    n, K = _at_least("n", n, 2), _at_least("K", K, 1)
    qs, rs = sorted(set(map(index, q_range))), sorted(set(map(index, r_range)))
    ss = sorted(set(map(index, s_range)))
    findings = []
    for q in qs:
        for r in rs:
            for s in ss:
                t = [None]
                acc = t.__getitem__
                first = None
                # n, q, r and s are checked ints, so the stream takes the
                # recurrence's fields with no second check
                stream = _recurrence_stream(*_qrs_recurrence(n, q, r, s))
                for k, term in zip(range(1, K + 1), stream):
                    t.append(term)
                    if phi1(k, acc) % k:
                        first = k
                        break
                findings.append(QRSFinding(q, r, s, first is None, first))
    return findings


def check_phi1_on_s(n: int, K: int) -> list[CensusReport]:
    """phi1 congruence sweep over the s-family, whose map counts match phi2.

    phi1 holds too, for every k: the terms are a difference of traces.  With
    M = 1 - 2z - z^n = det(I - z C_M) and L = 1 - z - ... - z^(n-1) =
    det(I - z C_L), C_M and C_L their integer companion matrices,

        -z M'/M = sum_k tr(C_M^k) z^k,   -z L'/L = sum_k tr(C_L^k) z^k,
        S(z) = (-z M' L + z L' M) / (M L) = -z M'/M - (-z L'/L),

    so s_k = tr(C_M^k) - tr(C_L^k).  phi1(k, .) is the Moebius sum
    sum over d | k of mu(k/d) f(d), which is 0 mod k for f(d) = tr(C^d) of
    any integer matrix C (the Gauss congruence), and it is linear in f."""
    return verify_congruence(spec_s(n), "phi1", K)

