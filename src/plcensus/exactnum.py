"""Exact arithmetic building blocks.

Dense integer polynomials, linear recurrences with constant coefficients,
power-series expansion of rational functions, and integer characteristic
polynomials, all in ``int``.  No floating point anywhere, enforced where values
enter: each coefficient, initial term, matrix entry and size passes
``operator.index``, so a float or a Fraction raises TypeError.
"""

from __future__ import annotations

from collections import deque
from itertools import islice, repeat, zip_longest
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from . import _at_least


class ExactnessError(ArithmeticError):
    """A computation would have required leaving the integers."""


class Poly:
    """Dense univariate polynomial with integer coefficients.

    Coefficients are little-endian (index = degree) with trailing zeros
    trimmed; the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


PolyLike = Union[Poly, Sequence[int]]


def _as_poly(p: PolyLike) -> Poly:
    return p if isinstance(p, Poly) else Poly(p)


class _RecurrenceFields(NamedTuple):
    coefficients: tuple[int, ...]
    initial_terms: tuple[int, ...]


class RecurrenceSpec(_RecurrenceFields):
    """Linear recurrence t_k = sum_i coefficients[i-1] * t_{k-i}, of order
    ``len(coefficients)``.

    ``initial_terms`` is the explicit starting segment (it may be longer than
    the order when early terms follow closed-form rules instead of the
    recurrence); the recurrence takes over immediately after it.  Terms are
    indexed from 1.  Both fields are stored as tuples.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Iterable[int], initial_terms: Iterable[int]):
        coefficients = tuple(map(index, coefficients))
        if not coefficients:
            raise ValueError("recurrence order must be >= 1")
        return super().__new__(cls, coefficients, tuple(map(index, initial_terms)))

    @classmethod
    def _make(cls, iterable: Iterable) -> RecurrenceSpec:
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)


def _recurrence_stream(spec: RecurrenceSpec) -> Iterator[int]:
    """The terms t_1, t_2, ... without end: the prefix, then the recurrence
    over a sliding window of the last len(coefficients) terms.

    Only a lag whose coefficient is not 0, 1 or -1 multiplies: a lag of 1 is
    added, a lag of -1 subtracted and a lag of 0 skipped.  Each step starts
    from a lag of coefficient other than -1 when there is one, so no term is
    summed from 0; an all-zero recurrence continues with zeros.
    """
    prefix, coeffs = spec.initial_terms, spec.coefficients
    order = len(coeffs)
    yield from prefix
    if len(prefix) < order:
        raise ValueError(
            f"prefix has {len(prefix)} terms but the order-{order} "
            "recurrence needs at least that many to continue"
        )
    # (window index, coefficient) of each nonzero lag, the -1 lags last; the
    # window holds t_(k-order) .. t_(k-1), so lag i sits at index order - i
    lags = sorted(((order - i, c) for i, c in enumerate(coeffs, 1) if c), key=lambda lag: lag[1] == -1)
    if not lags:
        yield from repeat(0)
    (j0, c0), rest = lags[0], lags[1:]
    window = deque(prefix, order)
    while True:
        t = window[j0] if c0 == 1 else c0 * window[j0]
        for j, c in rest:
            if c == 1:
                t += window[j]
            elif c == -1:
                t -= window[j]
            else:
                t += c * window[j]
        window.append(t)
        yield t


def recurrence_eval(spec: RecurrenceSpec, K: int) -> list[int]:
    """Terms t_1 .. t_K of the recurrence.

    >>> recurrence_eval(RecurrenceSpec((3, -1), (3, 7)), 4)
    [3, 7, 18, 47]
    """
    K = _at_least("K", K, 1)
    return list(islice(_recurrence_stream(spec), K))


def series_expand(numerator: PolyLike, denominator: PolyLike, K: int) -> list[int]:
    """Coefficients of z^1 .. z^K in numerator/denominator, exactly.

    The denominator must have a nonzero constant term; every coefficient of
    the expansion must come out an integer (guaranteed when the constant term
    is +-1), otherwise ExactnessError is raised.

    >>> series_expand([0, 3, -2], [1, -3, 1], 4)
    [3, 7, 18, 47]
    """
    K = _at_least("K", K, 1)
    num = _as_poly(numerator)
    den = _as_poly(denominator)
    d0 = den[0]
    if d0 == 0:
        raise ZeroDivisionError("denominator has a zero constant term (pole at the origin)")
    coeffs: list[int] = []
    for k in range(K + 1):
        acc = num[k]
        for i in range(1, min(k, den.degree) + 1):
            acc -= den[i] * coeffs[k - i]
        q, r = divmod(acc, d0)
        if r:
            raise ExactnessError(f"coefficient of z^{k} is not an integer")
        coeffs.append(q)
    return coeffs[1:]


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(mid):
            v = row[t]
            if v:
                brow = b[t]
                for j in range(m):
                    acc[j] += v * brow[j]
    return out


def charpoly(matrix: Sequence[Sequence[int]]) -> Poly:
    """det(xI - M) of a square integer matrix, with exact integer coefficients.

    Uses the Faddeev-LeVerrier recursion: every division it performs is by a
    small integer and provably exact, so the computation never leaves Z.
    """
    matrix = [list(map(index, row)) for row in matrix]
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Poly([1])
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        aux = _mat_mul(matrix, aux)
        # an int matrix has an int characteristic polynomial, so k divides tr
        c = -(sum(aux[i][i] for i in range(n)) // k)
        coeffs[n - k] = c
        for i in range(n):
            aux[i][i] += c
    return Poly(coeffs)
