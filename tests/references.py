"""Slow references the tests compare the library against: the generating
functions of the five sequence families as hand-written formulas, which
``plcensus.sequences`` derives from the denominators instead."""

from plcensus.exactnum import Poly


def numerator_from_terms(terms: list[int], den: Poly, degree: int) -> Poly:
    """trunc(S(z) * D(z)) through the given degree, where S has the supplied
    coefficients on z^1.. and zero constant term."""
    return Poly((Poly([0, *terms]) * den).coeffs[: degree + 1])


def s_numerator_formula(n: int) -> Poly:
    """The closed-form numerator of the s-family generating function."""
    arr = [0] * (2 * n)
    arr[1] += 1
    arr[2] -= 2
    arr[3] -= 1
    for k in range(5, n):
        arr[k] += k - 4
    arr[n] += 3 * n - 4
    for k in range(n + 1, 2 * n):
        arr[k] -= 2 * n - k
    return Poly(arr)


def literal_gf(family: str, **p) -> tuple[Poly, Poly]:
    """(numerator, denominator) as written out by hand, family by family; the
    s numerator for n in {2, 3} comes from the first 2n - 1 terms."""
    if family == "a":
        n = p["n"]
        return Poly([0, 3] + [-k for k in range(2, n)]), Poly([1, -3] + [1] * (n - 2))
    if family == "b":
        n = p["n"]
        num = Poly([0, 1] + [(-1) ** k * k for k in range(2, 2 * n + 1)])
        return num, Poly([1, -1] + [-((-1) ** k) for k in range(2, 2 * n + 1)])
    if family == "c":
        top, w, n = 2 * p["n"] + 1, p["j"] - p["m"], p["n"]
        return Poly([0, top, -2 * (2 * n - w), -3 * w]), Poly([1, -top, 2 * n - w, w])
    if family == "d":
        m, n = p["m"], p["n"]
        return Poly([0, n, 2 * m]), Poly([1, -n, -m])
    n = p["n"]
    den = Poly([1, -3] + [1] * (2 * n - 2))
    if n in (2, 3):
        first_terms = {2: [1, 5, 13], 3: [1, 1, 7, 17, 41]}[n]
        return numerator_from_terms(first_terms, den, 2 * n - 1), den
    return s_numerator_formula(n), den
