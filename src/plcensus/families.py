"""Constructors for the five built-in map families.

Each constructor validates its integer parameters, assembles the anchor
values the family prescribes, merges coincident specifications (checking
consistency), and returns a PLMap.  Families ``base2``/``fmn``/``gn`` pin
values at a sparse set of integers and interpolate linearly across the
unspecified spans; ``hjmn`` and ``pn`` pin every integer of their domains.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from . import _at_least, _build
from .plmap import PLMap


def _merged_anchors(spec: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: dict[int, int] = {}
    for x, y in spec:
        x, y = index(x), index(y)  # a family pins integers to integers
        if x in merged and merged[x] != y:
            raise ValueError(f"inconsistent anchor specification at x={x}: {merged[x]} vs {y}")
        merged[x] = y
    return sorted(merged.items())


def make_base_map() -> PLMap:
    """The four-anchor map on [1, 4]: 1 -> 4, 2 -> 1, 3 -> 4, 4 -> 2.

    Its iterate fixed-point counts follow the n=3 member of the ``a``
    sequence family; the ``fmn`` construction below only starts at n=4.
    """
    return PLMap([(1, 4), (2, 1), (3, 4), (4, 2)])


def make_fmn(m: int, n: int) -> PLMap:
    """Map on [1, n] pinned at 1 -> m+1, 2 -> 1, m -> m-1, m+1 -> m+2,
    n-1 -> n, n -> m, linear between pinned integers.

    Requires n >= 4 and 1 < m < n-1.  Its fixed-point counts are the ``a``
    sequence family with parameter n, independent of m.
    """
    n = _at_least("n", n, 4)
    if not (1 < m < n - 1):
        raise ValueError("m must satisfy 1 < m < n-1")
    spec = [(1, m + 1), (2, 1), (m, m - 1), (m + 1, m + 2), (n - 1, n), (n, m)]
    return PLMap(_merged_anchors(spec))


def make_gn(n: int) -> PLMap:
    """Map on [1, 2n+1] pinned at 1 -> n+1, 2 -> 2n+1, n+1 -> n+2,
    n+2 -> n, 2n+1 -> 1.  Requires n >= 1.

    n=1 gives the three-anchor map whose fixed-point counts are the Lucas
    numbers 1, 3, 4, 7, 11, ...
    """
    n = _at_least("n", n, 1)
    spec = [(1, n + 1), (2, 2 * n + 1), (n + 1, n + 2), (n + 2, n), (2 * n + 1, 1)]
    return PLMap(_merged_anchors(spec))


def make_hjmn(j: int, m: int, n: int) -> PLMap:
    """Map on [1, 2n+2] with 1 -> j, even x in [2, 2n] -> 1, odd x in
    [3, 2n+1] -> 2n+2, and 2n+2 -> m.

    Requires n >= 2 and 2 <= j, m <= 2n+1.
    """
    n = _at_least("n", n, 2)
    top = 2 * n + 1
    if not (2 <= j <= top):
        raise ValueError("j must satisfy 2 <= j <= 2n+1")
    if not (2 <= m <= top):
        raise ValueError("m must satisfy 2 <= m <= 2n+1")
    spec = [(1, j)]
    for x in range(2, 2 * n + 1, 2):
        spec.append((x, 1))
    for x in range(3, 2 * n + 2, 2):
        spec.append((x, 2 * n + 2))
    spec.append((2 * n + 2, m))
    return PLMap(_merged_anchors(spec))


def make_pn(n: int) -> PLMap:
    """Odd map on [-n, n]: 0 -> 0, i -> i+1 for 1 <= i <= n-1, n -> -1,
    extended by oddness to the negative integers.  Requires n >= 2."""
    n = _at_least("n", n, 2)
    pos = {0: 0, n: -1}
    for i in range(1, n):
        pos[i] = i + 1
    spec = [(i, pos[i]) for i in range(n + 1)]
    spec += [(-i, -pos[i]) for i in range(1, n + 1)]
    return PLMap(_merged_anchors(spec))


# family tag -> (constructor, parameter names in constructor order)
_BUILDERS = {
    "base2": (make_base_map, ()),
    "fmn": (make_fmn, ("m", "n")),
    "gn": (make_gn, ("n",)),
    "hjmn": (make_hjmn, ("j", "m", "n")),
    "pn": (make_pn, ("n",)),
}


class FamilyParams(NamedTuple):
    """A map family tag plus its integer parameters; the CLI's map
    selection vocabulary."""

    family: str
    n: int | None = None
    m: int | None = None
    j: int | None = None

    def build(self) -> PLMap:
        return _build("family", _BUILDERS, self.family, {"n": self.n, "m": self.m, "j": self.j})
