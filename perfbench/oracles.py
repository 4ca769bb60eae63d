"""Independent answers the benchmark checks the library against.

Nothing here calls the routine under test for the answer it checks: the
congruence operators are recomputed as Moebius sums over a smallest-prime-
factor sieve, sweep terms come from the generating function, census counts
from the sequence terms, and characteristic polynomials from Newton's
identities on traces of matrix powers.
"""

from __future__ import annotations

import hashlib


def _encode(value) -> bytes:
    # integers go in binary: decimal conversion of the ten-thousand-digit
    # terms of a sweep is quadratic and capped by the interpreter
    if value is None or isinstance(value, (bool, str)):
        return repr(value).encode()
    return value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)


def digest(rows) -> str:
    """Stable digest of an iterable of rows of ints, bools, strs and Nones;
    big outputs are compared by it."""
    h = hashlib.sha256()
    for row in rows:
        for value in row:
            chunk = _encode(value)
            h.update(len(chunk).to_bytes(4, "little"))
            h.update(chunk)
        h.update(b"|")
    return h.hexdigest()


class Sieve:
    """Smallest prime factors up to ``limit``, grown on demand."""

    def __init__(self, limit: int = 2):
        self.spf = list(range(limit + 1))
        self._fill(2)

    def _fill(self, start: int) -> None:
        spf, n = self.spf, len(self.spf) - 1
        p = 2
        while p * p <= n:
            if spf[p] == p:
                for q in range(max(p * p, (start + p - 1) // p * p), n + 1, p):
                    if spf[q] == q:
                        spf[q] = p
            p += 1

    def primes_of(self, k: int) -> list[int]:
        if k >= len(self.spf):
            old = len(self.spf)
            self.spf.extend(range(old, 2 * k + 1))
            self._fill(old)
        out = []
        while k > 1:
            p = self.spf[k]
            out.append(p)
            while k % p == 0:
                k //= p
        return out


def _squarefree_sum(k: int, primes: list[int], t) -> int:
    """sum over squarefree e built from ``primes`` of mu(e) * t(k // e)."""
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -mu) for d, mu in divs]
    return sum(mu * t(k // d) for d, mu in divs)


def phi1(k: int, t, sieve: Sieve) -> int:
    return _squarefree_sum(k, sieve.primes_of(k), t)


def phi2(k: int, t, sieve: Sieve) -> int:
    odd = [p for p in sieve.primes_of(k) if p != 2]
    if not odd:
        return t(k) - 1
    return _squarefree_sum(k, odd, t)


OPERATORS = {"phi1": (phi1, 1), "phi2": (phi2, 2)}


def congruence_rows(term_list: list[int], operator: str, sieve: Sieve):
    """(k, term, value, modulus, quotient, passed) for k = 1..len(term_list)."""
    op, factor = OPERATORS[operator]
    t = lambda k: term_list[k - 1]
    for k in range(1, len(term_list) + 1):
        value = op(k, t, sieve)
        modulus = factor * k
        ok = value % modulus == 0
        yield (k, term_list[k - 1], value, modulus, value // modulus if ok else None, ok)


def qrs_first_failure(n: int, q: int, r: int, s: int, K: int, sieve: Sieve) -> int | None:
    """First k <= K where phi1 of the generalized (q, r, s) sequence is not
    divisible by k, or None."""
    base = 2 * n + 1
    t = [base, base * base - 2 * q, base**3 - 6 * r]
    while len(t) < K:
        t.append(base * t[-1] - q * t[-2] - s * t[-3])
    acc = lambda k: t[k - 1]
    return next((k for k in range(1, K + 1) if phi1(k, acc, sieve) % k), None)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def charpoly_newton(matrix) -> tuple[int, ...]:
    """Little-endian coefficients of det(xI - M) from Newton's identities."""
    n = len(matrix)
    power_sums = []
    p = matrix
    for _ in range(n):
        power_sums.append(sum(p[i][i] for i in range(n)))
        p = _mat_mul(p, matrix)
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        q, rem = divmod(acc, k)
        if rem:
            raise ArithmeticError("Newton identity division is not exact")
        e.append(q)
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = (-1) ** k * e[k]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)
