"""The five integer-sequence families as executable specs.

Each family packs a closed-form initial segment, a linear recurrence, and a
rational generating function into a ``SequenceSpec``; terms can be produced
from either the recurrence or the series expansion and the two must agree
(the tests check this).  Terms are indexed from k = 1.

Correspondence with the map families (fixed-point counts of iterates):

* ``a(n)``  <- base2 (n = 3) and fmn maps (n >= 4, any valid m)
* ``b(n)``  <- gn maps
* ``c(j,m,n)`` <- hjmn maps
* ``s(n)``  <- pn maps, solutions of f^k(x) = -x
* ``d(m,n)`` has no map oracle here; it is checked through its recurrence,
  generating function, and congruence sweeps only.

Every generating function is a sum of traces.  With D(z) = det(I - zC),
-z D'(z) / D(z) = sum_k tr(C^k) z^k, so ``a`` ... ``d`` take the numerator
-z D' of their denominator D, and ``s``, with terms tr(C_M^k) - tr(C_L^k),
takes -z M' L + z L' M over D = M L, with M = 1 - 2z - z^n and
L = 1 - z - ... - z^(n-1).  Trace sequences satisfy the Gauss congruence
sum over d | k of mu(k/d) tr(C^d) = 0 mod k, which is ``phi1``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _at_least, _build
from .exactnum import Poly, RecurrenceSpec, recurrence_eval

S2_NOTE = (
    "numerator for n=2 is -z(M'L - L'M) = z + 2z^2 - z^3, with M = 1 - 2z - z^2 "
    "and L = 1 - z; the drop-the-2z^2-term shortcut would leave z + 2z^2 - 2z^3, "
    "which does not reproduce the terms, and was not used"
)
S3_NOTE = (
    "numerator for n=3 is -z(M'L - L'M), with M = 1 - 2z - z^3 and "
    "L = 1 - z - z^2; it matches the drop-the-z^3-term shortcut exactly"
)


class SequenceSpec(NamedTuple):
    """A named sequence: family tag, parameters, recurrence (its initial
    terms are the closed-form prefix), and generating function
    numerator/denominator."""

    family: str
    params: tuple[tuple[str, int], ...]
    recurrence: RecurrenceSpec
    gf_num: Poly
    gf_den: Poly
    note: str | None = None

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"


def _trace_numerator(den: Poly) -> Poly:
    """-z D', whose series over D = det(I - zC) is sum_k tr(C^k) z^k."""
    return Poly(-k * c for k, c in enumerate(den.coeffs))


def spec_a(n: int) -> SequenceSpec:
    """2^{k+1} - 1 through k = n-1, then t_k = 3t_{k-1} - sum(t_{k-2}..t_{k-n+1})."""
    n = _at_least("n", n, 3)
    prefix = [2 ** (k + 1) - 1 for k in range(1, n)]
    rec = RecurrenceSpec((3,) + (-1,) * (n - 2), prefix)
    den = Poly([1, -3] + [1] * (n - 2))
    return SequenceSpec("a", (("n", n),), rec, _trace_numerator(den), den)


def spec_b(n: int) -> SequenceSpec:
    """Odd-index and even-index closed forms through k = 4n, then the lag-2
    recurrence t_k = 3t_{k-2} - sum(t_{k-4}, t_{k-6}, ..., t_{k-4n})."""
    n = _at_least("n", n, 1)
    prefix = [0] * (4 * n)
    for k in range(1, n + 1):
        prefix[2 * k - 2] = 1
    for k in range(n + 1, 2 * n + 1):
        prefix[2 * k - 2] = 2 ** (k - n - 1) * (2 * k - 1) + 1
    for k in range(1, 2 * n + 1):
        prefix[2 * k - 1] = 2 ** (k + 1) - 1
    coeffs = [0] * (4 * n)
    coeffs[1] = 3
    for lag in range(4, 4 * n + 1, 2):
        coeffs[lag - 1] = -1
    rec = RecurrenceSpec(coeffs, prefix)
    den = Poly([1, -1] + [-((-1) ** k) for k in range(2, 2 * n + 1)])
    return SequenceSpec("b", (("n", n),), rec, _trace_numerator(den), den)


def spec_c(j: int, m: int, n: int) -> SequenceSpec:
    """Three closed-form terms, then
    t_k = (2n+1)t_{k-1} - [2n-(j-m)]t_{k-2} - (j-m)t_{k-3}."""
    n = _at_least("n", n, 2)
    top = 2 * n + 1
    if not (2 <= j <= top):
        raise ValueError("j must satisfy 2 <= j <= 2n+1")
    if not (2 <= m <= top):
        raise ValueError("m must satisfy 2 <= m <= 2n+1")
    w = j - m
    prefix = (
        top,
        top**2 - 2 * (2 * n - w),
        top**3 - 6 * n * (top - w),
    )
    rec = RecurrenceSpec((top, -(2 * n - w), -w), prefix)
    den = Poly([1, -top, 2 * n - w, w])
    return SequenceSpec("c", (("j", j), ("m", m), ("n", n)), rec, _trace_numerator(den), den)


def spec_d(m: int, n: int) -> SequenceSpec:
    """d_1 = n, d_2 = n^2 + 2m, then t_k = n*t_{k-1} + m*t_{k-2}."""
    n = _at_least("n", n, 2)
    if not (1 - n <= m <= n):
        raise ValueError("m must satisfy 1-n <= m <= n")
    prefix = (n, n * n + 2 * m)
    rec = RecurrenceSpec((n, m), prefix)
    den = Poly([1, -n, -m])
    return SequenceSpec("d", (("m", m), ("n", n)), rec, _trace_numerator(den), den)


def _s_prefix(n: int) -> list[int]:
    return [1] * (n - 1) + [2 ** (k - n) * 2 * k + 1 for k in range(n, 2 * n)]


def spec_s(n: int) -> SequenceSpec:
    """1 through k = n-1, 2^{k-n}(2k) + 1 through k = 2n-1, then
    t_k = 3t_{k-1} - sum(t_{k-2}..t_{k-2n+1}); the generating function is
    -zM'/M + zL'/L over D = M L.  For n in {2, 3} the note compares its
    numerator with the advertised shortcut: exact for n = 3, not for n = 2."""
    n = _at_least("n", n, 2)
    rec = RecurrenceSpec((3,) + (-1,) * (2 * n - 2), _s_prefix(n))
    M = Poly([1, -2] + [0] * (n - 2) + [-1])
    L = Poly([1] + [-1] * (n - 1))
    num = _trace_numerator(M) * L - _trace_numerator(L) * M
    note = {2: S2_NOTE, 3: S3_NOTE}.get(n)
    return SequenceSpec("s", (("n", n),), rec, num, M * L, note)


def terms(spec: SequenceSpec, K: int) -> list[int]:
    """First K terms of the sequence (prefix, then recurrence)."""
    return recurrence_eval(spec.recurrence, K)


def seq_a(n: int, K: int) -> list[int]:
    return terms(spec_a(n), K)


def seq_b(n: int, K: int) -> list[int]:
    return terms(spec_b(n), K)


def seq_c(j: int, m: int, n: int, K: int) -> list[int]:
    return terms(spec_c(j, m, n), K)


def seq_d(m: int, n: int, K: int) -> list[int]:
    return terms(spec_d(m, n), K)


def seq_s(n: int, K: int) -> list[int]:
    return terms(spec_s(n), K)


_BUILDERS = {
    "a": (spec_a, ("n",)),
    "b": (spec_b, ("n",)),
    "c": (spec_c, ("j", "m", "n")),
    "d": (spec_d, ("m", "n")),
    "s": (spec_s, ("n",)),
}


def build_spec(family: str, **params) -> SequenceSpec:
    """Spec from a family tag and keyword parameters (the CLI vocabulary)."""
    return _build("family", _BUILDERS, family, params)
