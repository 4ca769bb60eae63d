"""Piecewise-linear interval maps with exact rational arithmetic.

A map is a "connect-the-dots" function: anchor points (x, y) with strictly
increasing x, linear interpolation in between, and every value inside the
domain interval (a continuous self-map).  Iterates of such a map stay
piecewise affine with rational breakpoints, so the solutions of
``f^k(x) = x`` and ``f^k(x) = -x`` can be counted and enumerated exactly.

Counting runs on one of two interchangeable engines:

* ``pieces`` materializes the affine pieces of f^k by repeated splitting and
  composition and solves each piece against the (anti)diagonal; it works for
  every map but the piece list grows exponentially with k.
* ``markov`` applies to maps that send integers to integers and are therefore
  Markov over the unit-interval partition.  Diagonal crossings then biject
  with closed walks of the transition graph, except that an integer solution
  counts once in place of the closed walks continuing its one-sided
  neighbourhoods, exactly one walk per side.  This engine needs time
  polynomial in k: a count reads n entries of A^k (``_markov_count``).

``count_sequence`` steps either engine's iterate, the pieces of f^k or A^k,
forward once per k; a single count builds its own.  The map keeps neither.

Both engines are exact and agree wherever both apply (the test suite checks
them against each other).  ``method="auto"`` picks by size: a composition
step splits a piece into at most one piece per lap, so f^k has at most
laps^k pieces, against the n^2 cells of the n x n unit-partition matrix A,
and a piece costs more than a cell of a product.  So ``auto`` runs
``markov`` on an eligible map whose matrix fits the piece budget, from a
flip point on (``_engine_rule``), and ``pieces`` otherwise.

No float enters.  The anchors and the pieces hold every exact number as an
int where it is integral and as a Fraction otherwise, so an integer map finds
its laps and composes its pieces in int and only the cuts between integers
are Fractions.  Solution points, ``InfiniteSolutions`` witnesses,
``domain``, ``anchors`` and values of the map are always Fractions; the
points and ``anchors``, and ``domain`` from it, are built on first read.

Both engines decide, count, order and reduce the solutions in integer
arithmetic, as lowest-terms pairs (N, D).  A ``SolutionSet`` keeps the pairs,
which the census reads, and builds a Fraction only for a point read.  A
piece of f^k owns the solutions on [lo, hi), the last one on [lo, hi]; the
``markov`` engine walks its words in x order.  Either way the points come
out ascending, unsorted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from . import _at_least

# a piece with int fields (an integer map) takes about 375 bytes and one with
# Fraction fields about 490, so a build within the default stays under 250 MB
DEFAULT_MAX_PIECES = 500_000


def _narrow(v):
    """v as an int when it is integral; int and Fraction alike carry
    ``numerator`` and ``denominator``."""
    return v.numerator if v.denominator == 1 else v


def _exact(v) -> int | Fraction:
    """v as an exact rational, narrowed: an int stays an int, and anything
    but a float that ``Fraction`` accepts goes through it.  A float's binary
    expansion is rarely the number written: 0.1 is not 1/10."""
    if type(v) is int:
        return v
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; give an int, a Fraction or a string such as '1/10'")
    return _narrow(Fraction(v))


class DomainError(ValueError):
    """Argument outside the map's interval, or a sign=-1 query on a domain
    that does not contain 0."""


class NotMarkovError(ValueError):
    """The map is not Markov over the integer unit partition."""


class PieceLimitError(RuntimeError):
    """The piece budget was exhausted before the iterate was fully built."""

    def __init__(self, limit: int, k: int):
        self.limit = limit
        self.k = k
        super().__init__(f"building the pieces of f^{k} exceeded the budget of {limit} pieces")


class InfiniteSolutions(Exception):
    """f^k(x) = sign*x holds identically on a nondegenerate interval."""

    def __init__(self, lo: Fraction, hi: Fraction, k: int, sign: int):
        self.witness = (lo, hi)
        self.k = k
        self.sign = sign
        rhs = "x" if sign == 1 else "-x"
        super().__init__(f"f^{k}(x) = {rhs} holds identically on [{lo}, {hi}]")


class AffinePiece(NamedTuple):
    """One affine lap of an iterate: x -> slope*x + intercept on [lo, hi].

    Each field is an exact rational, an int where it is integral and a
    Fraction otherwise; equal values compare and hash alike either way.
    Halve with ``Fraction(lo + hi, 2)``, since ``/`` on two ints is a float.
    """

    lo: int | Fraction
    hi: int | Fraction
    slope: int | Fraction
    intercept: int | Fraction

    def __call__(self, x: int | Fraction) -> int | Fraction:
        return self.slope * x + self.intercept


def _quotient(a, b):
    """a / b, an int when b divides a: ``divmod`` on two ints stays in int,
    so only a cut between integers builds a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a times b by ``exactnum._mat_mul``, imported only when a product is
    taken: a count that takes none loads no ``exactnum``."""
    from .exactnum import _mat_mul

    return _mat_mul(a, b)


def _power(A: list[list[int]], k: int) -> list[list[int]]:
    """A^k, k >= 1, by repeated squaring.  Powers of A commute, so each
    product takes the power built so far, the lower one, on the left: the
    factor whose zeros ``_mat_mul`` skips."""
    power, square = None, A
    while True:
        if k & 1:
            power = square if power is None else _product(power, square)
        k >>= 1
        if not k:
            return power
        square = _product(square, square)


def _engine_rule(laps) -> tuple[bool, int | None, int | None]:
    """What ``auto`` needs of a map, read off its laps once: whether the
    ``markov`` engine can count it (int fields and a nonzero slope on every
    lap), and the two flip points over the n unit intervals of the domain,
    or None where no k flips (one lap, or not usable).

    The count flips at the least k with laps^k >= n^2, once f^k can have as
    many pieces as A has cells: at k = 2 the count reads A's entries and takes
    no product.  Enumeration flips there too when laps == n, where the markov
    words are exactly the pieces of f^k.  With fewer laps a piece spans up to
    n/laps unit-interval cylinders, one word each, so the walk outgrows the
    budget before the pieces do: enumeration never flips."""
    usable = all(lap.slope and all(type(v) is int for v in lap) for lap in laps)
    if not usable or len(laps) == 1:
        return usable, None, None
    n = laps[-1].hi - laps[0].lo
    k, power = 1, len(laps)
    while power < n * n:
        k, power = k + 1, power * len(laps)
    return usable, k, k if len(laps) == n else None


def _narrowed_piece(lo, hi, slope, intercept) -> AffinePiece:
    return AffinePiece(lo, hi, _narrow(slope), _narrow(intercept))


class SolutionSet:
    """Exact solution set of f^k(x) = sign*x: its points in ascending order,
    a sequence that equals, and hashes like, the tuple of them, also read as
    ``points``.  It keeps the roots as the lowest-terms int pairs (N, D),
    D > 0, that the engines return and the census reads, and builds the
    Fractions on the first read of the points (``points``, iteration,
    indexing or ``in``), as ``PLMap.anchors`` are.  An equation that holds
    on a whole interval raises InfiniteSolutions instead."""

    def __init__(self, points=(), _pairs=None):
        if _pairs is None:
            _pairs = tuple((q.numerator, q.denominator) for q in map(_exact, points))
        object.__setattr__(self, "_pairs", _pairs)

    def __setattr__(self, name, value):
        raise AttributeError("SolutionSet is immutable")

    def __reduce__(self):
        # rebuilt from its points, so pickle and copy need no __setattr__
        return (SolutionSet, (self.points,))

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(N, D) for N, D in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        # ``in`` falls back on iteration
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other) -> bool:
        return self.points == other

    def __hash__(self):
        return hash(self.points)

    def __repr__(self) -> str:
        return f"SolutionSet(points={self.points!r})"


class _MarkovData(NamedTuple):
    """Unit-partition view of an integer map: values at integers, and on the
    i-th unit interval [lo+i, lo+i+1] the lap x -> slopes[i]*x +
    intercepts[i], row i of the transition matrix A, and the range of
    columns where that row is 1, ascending in up[i], descending in down[i]."""

    lo: int
    values: list[int]
    slopes: list[int]
    intercepts: list[int]
    A: list[list[int]]
    up: list[range]
    down: list[range]

    @property
    def n(self) -> int:
        return len(self.slopes)

    def target(self, j: int, sign: int) -> int | None:
        """Index j for sign = 1; for sign = -1 the index of -I_j =
        [-(lo+j+1), -(lo+j)], or None if it falls outside the partition
        (solutions of f^k(x) = -x cannot land there)."""
        if sign == 1:
            return j
        j2 = -2 * self.lo - j - 1
        return j2 if 0 <= j2 < self.n else None


class PLMap:
    """Continuous piecewise-linear self-map of an interval, from anchors.

    Anchors may be ints, Fractions, or anything but a float that
    ``Fraction`` accepts, such as the string ``"1/10"``.  Instances are
    immutable apart from their cached values; all operations are pure and
    safe to share across threads.  The anchors' x's and y's are kept
    narrowed, ints where integral, from construction on; equality, hashing
    and evaluation read them there.  What is derived from them once is a
    ``cached_property``, and nothing else is kept: the public ``anchors``
    as Fractions, the laps, ``auto``'s rule read off the laps, and the
    Markov data.  A first read of a cached property takes a lock per
    property on Python 3.10 and 3.11, none from 3.12 on; every value is
    deterministic, so a race at most builds one twice.  A copy or a pickle
    is rebuilt from the anchors, with nothing cached.
    """

    def __init__(self, anchors):
        pts = [(_exact(x), _exact(y)) for x, y in anchors]
        if len(pts) < 2:
            raise ValueError("a map needs at least 2 anchors")
        xs, ys = zip(*pts)
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("anchor x-coordinates must be strictly increasing")
        lo, hi = xs[0], xs[-1]
        if any(not (lo <= y <= hi) for y in ys):
            raise ValueError(f"anchor values leave [{lo}, {hi}]; not a self-map")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    def __reduce__(self):
        # rebuilt from its anchors, so pickle and copy need no __setattr__
        return (PLMap, (tuple(zip(self._xs, self._ys)),))

    def __eq__(self, other) -> bool:
        return isinstance(other, PLMap) and self._xs == other._xs and self._ys == other._ys

    def __hash__(self):
        # an int hashes as the equal Fraction, so this is hash(self.anchors)
        return hash(tuple(zip(self._xs, self._ys)))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in zip(self._xs, self._ys))
        return f"PLMap([{pts}])"

    @cached_property
    def anchors(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The anchors as (x, y) pairs of Fractions, built on first read."""
        return tuple((Fraction(x), Fraction(y)) for x, y in zip(self._xs, self._ys))

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.anchors[0][0], self.anchors[-1][0])

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x) -> Fraction:
        """Exact value at x; raises DomainError outside the interval."""
        x, lo, hi = _exact(x), self._xs[0], self._xs[-1]
        if not (lo <= x <= hi):
            raise DomainError(f"{x} outside the domain [{lo}, {hi}]")
        y = self._lap_at(x)(x)
        return Fraction(y) if type(y) is int else y

    # -- symbolic pieces ----------------------------------------------------

    @cached_property
    def _laps(self) -> tuple[AffinePiece, ...]:
        """The laps of f, every field narrowed to an int where it is
        integral, from the anchor x's and y's narrowed alike in ``_xs`` and
        ``_ys``; an integer map's laps are found without a Fraction."""
        xs, ys = self._xs, self._ys
        slopes = [_quotient(y1 - y0, x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
        return tuple(AffinePiece(x0, x1, s, _narrow(y0 - s * x0)) for x0, x1, y0, s in zip(xs, xs[1:], ys, slopes))

    @cached_property
    def _rule(self) -> tuple[bool, int | None, int | None]:
        return _engine_rule(self._laps)  # (usable, count flip point, enumerate flip point)

    def _lap_at(self, v: int | Fraction) -> AffinePiece:
        """The lap holding v, the last one that starts at or below it."""
        laps = self._laps
        i = bisect_right(self._xs, v) - 1
        return laps[min(max(i, 0), len(laps) - 1)]

    def _compose_with_base(
        self, pieces: list[AffinePiece], ends: list, max_pieces: int, k: int
    ) -> tuple[list[AffinePiece], list]:
        """Pieces of f∘g and its values at their ends (``ends[0]`` at the
        domain's lower end, ``ends[i + 1]`` at ``pieces[i].hi``), from those
        of g: split each piece of g at the exact preimages of this map's
        anchor x's, then compose lap by lap.  A cut at anchor x_i maps to
        y_i and an end of g to f of g's value there, so no end is evaluated.
        On an integer map all but the cuts between integers stay ints."""
        laps, xs, ys = self._laps, self._xs, self._ys
        out: list[AffinePiece] = []
        v = ends[0]
        out_ends = [self._lap_at(v)(v)]
        for p, va, vb in zip(pieces, ends, ends[1:]):
            s, t = p.slope, p.intercept
            if s == 0:
                y = self._lap_at(t)(t)
                out.append(_narrowed_piece(p.lo, p.hi, 0, y))
                out_ends.append(y)
            else:
                a, b = (va, vb) if va <= vb else (vb, va)
                # the image [a, b] crosses the anchors xs[i:j], so its
                # sub-pieces lie on laps[i-1:j], in x order for a rising piece
                i, j = bisect_right(xs, a), bisect_left(xs, b)
                cuts = [_quotient(x - t, s) for x in xs[i:j]]
                hit, cut_ends = laps[i - 1 : j], ys[i:j]
                if s < 0:
                    cuts.reverse()
                    hit, cut_ends = hit[::-1], cut_ends[::-1]
                bounds = [p.lo, *cuts, p.hi]
                for u, w, lap in zip(bounds, bounds[1:], hit):
                    out.append(_narrowed_piece(u, w, lap.slope * s, lap.slope * t + lap.intercept))
                out_ends += cut_ends
                out_ends.append(hit[-1](vb))
            if len(out) > max_pieces:
                raise PieceLimitError(max_pieces, k)
        return out, out_ends

    def iterate_pieces(self, k: int, max_pieces: int = DEFAULT_MAX_PIECES) -> list[AffinePiece]:
        """The affine pieces of f^k, tiling the domain in ascending order.

        All endpoints are exact rationals.  Raises PieceLimitError as soon as
        the piece list would exceed ``max_pieces``.
        """
        k, max_pieces = _at_least("k", k, 1), _at_least("max_pieces", max_pieces, 1)
        pieces, ends = list(self._laps), self._ys
        if len(pieces) > max_pieces:
            raise PieceLimitError(max_pieces, k)
        for _ in range(k - 1):
            pieces, ends = self._compose_with_base(pieces, ends, max_pieces, k)
        return pieces

    # -- Markov structure ---------------------------------------------------

    @cached_property
    def _markov(self) -> _MarkovData | None:
        """The Markov data, None where f sends an integer off the integers."""
        laps = self._laps
        # f sends integers to integers iff each lap has integer ends, slope and intercept
        if not all(type(v) is int for lap in laps for v in lap):
            return None
        lo = laps[0].lo
        slopes = [lap.slope for lap in laps for _ in range(lap.hi - lap.lo)]
        intercepts = [lap.intercept for lap in laps for _ in range(lap.hi - lap.lo)]
        values = [s * (lo + i) + t for i, (s, t) in enumerate(zip(slopes, intercepts))]
        values.append(self._ys[-1])
        # row i is 1 on the unit intervals the image of the i-th one covers
        A, up = [], []
        for u, v in zip(values, values[1:]):
            a, b = (u - lo, v - lo) if u <= v else (v - lo, u - lo)
            row = [0] * len(slopes)
            row[a:b] = [1] * (b - a)
            A.append(row)
            up.append(range(a, b))
        return _MarkovData(lo, values, slopes, intercepts, A, up, [r[::-1] for r in up])

    def transition_matrix(self) -> list[list[int]]:
        """0/1 matrix over unit intervals: entry (i, j) is 1 iff the image of
        the i-th unit interval contains the j-th.  Requires integer anchor
        x's and an integer slope and intercept on every lap."""
        md = self._markov
        if md is None:
            raise NotMarkovError(
                "transition matrix needs integer anchor x-coordinates and an "
                "integer slope and intercept on every lap"
            )
        return [row[:] for row in md.A]

    # -- solution counting --------------------------------------------------

    def _resolve_method(self, k: int, method: str, max_pieces: int, count: bool) -> str:
        if method not in ("auto", "pieces", "markov"):
            raise ValueError("method must be 'auto', 'pieces', or 'markov'")
        if method == "pieces":
            return "pieces"
        usable, count_flip, enumerate_flip = self._rule
        if method == "markov":
            if not usable:
                raise NotMarkovError(
                    "transition-matrix counting needs an integer Markov map "
                    "with nonzero slope on every unit interval"
                )
            return "markov"
        flip = count_flip if count else enumerate_flip
        n = self._xs[-1] - self._xs[0]
        if flip is not None and k >= flip and n * n <= max_pieces:
            return "markov"
        return "pieces"

    def _pieces_solve(self, pieces: list[AffinePiece], k: int, sign: int, count: bool) -> int | list[tuple[int, int]]:
        """The roots of f^k(x) = sign*x in ascending order, as lowest-terms
        pairs (N, D), or their number, from the pieces of f^k.

        Each piece owns the roots on [lo, hi), the last one on [lo, hi], so
        a root on a shared end is taken once, by the piece that starts
        there: f^k is continuous, so that piece has the same root, or slope
        sign and intercept 0, which raises InfiniteSolutions.  A root N/D,
        D > 0, is placed by cross-multiplying with the numerators and
        denominators of the ends, which ints and Fractions both carry, and
        reduced by one gcd: no Fraction is built."""
        last = pieces[-1]
        roots = []
        for p in pieces:
            lo, hi, s, t = p
            # slope*x + intercept = sign*x
            if s == sign:
                if t == 0:
                    raise InfiniteSolutions(Fraction(lo), Fraction(hi), k, sign)
                continue
            d = sign - s
            N, D = t.numerator * d.denominator, t.denominator * d.numerator
            if D < 0:
                N, D = -N, -D
            if lo.numerator * D <= N * lo.denominator:
                above = N * hi.denominator - hi.numerator * D
                if above < 0 or (above == 0 and p is last):
                    roots.append((N, D))
        return len(roots) if count else [(N // g, D // g) for N, D in roots for g in (gcd(N, D),)]

    def _int_solutions(self, md: _MarkovData, k: int, sign: int) -> tuple[list[int], int]:
        """The integer solutions p of f^k(p) = sign*p, and the number of closed
        walks counted by A^k whose solution is one of them.

        f is affine with a nonzero integer slope on each unit interval, so a
        one-sided neighbourhood of an integer q maps to one side of f(q),
        the other side where the slope is negative.  Exactly one length-k
        word continues the neighbourhood on side s0 of p, and it is a closed
        walk of A^k iff it ends on side sign*s0 of f^k(p).  The slopes of a
        closed walk multiply to +-1 only if each is +-1, and then f^k =
        sign*x on the unit interval [p, p+s0], which raises
        InfiniteSolutions; walking p upwards, left side first, makes that
        interval the lowest such one.  The witness widens it upwards to the
        piece of f^k holding it, as the pieces engine reports it: that piece
        ends at the first integer b whose orbit b, ..., f^(k-1)(b) meets an
        anchor x, the only cuts the pieces engine makes there.
        """
        lo, hi, values, slopes = md.lo, md.lo + md.n, md.values, md.slopes

        def orbit(q: int):
            for _ in range(k):
                yield q
                q = values[q - lo]

        ints, overlap = [], 0
        for p in range(lo, hi + 1):
            q = p
            for _ in range(k):
                q = values[q - lo]
            if q != sign * p:
                continue
            ints.append(p)
            for s0 in (-1, 1):
                if not lo <= p + s0 <= hi:
                    continue
                q, s, unit = p, s0, True
                for _ in range(k):
                    slope = slopes[q - lo - (s < 0)]
                    unit = unit and abs(slope) == 1
                    if slope < 0:
                        s = -s
                    q = values[q - lo]
                if s == sign * s0:
                    if unit:
                        a = p - (s0 < 0)
                        b, anchors = a + 1, set(self._xs)
                        while b < hi and anchors.isdisjoint(orbit(b)):
                            b += 1
                        raise InfiniteSolutions(Fraction(a), Fraction(b), k, sign)
                    overlap += 1
        return ints, overlap

    def _markov_count(self, md: _MarkovData, k: int, sign: int, Ak: list[list[int]] | None = None) -> int:
        """The number of solutions: the entries of A^k that pair each unit
        interval with its target, less the integer-point correction; read
        off ``Ak`` where the caller has A^k, or else as dot products of rows
        of A^(k//2) with columns of A^(k - k//2): one product fewer than
        squaring up to A^k, and none at k = 2."""
        ints, overlap = self._int_solutions(md, k, sign)
        pairs = [(j, t) for j in range(md.n) if (t := md.target(j, sign)) is not None]
        Ak = md.A if k == 1 else Ak
        if Ak is not None:
            total = sum(Ak[j][t] for j, t in pairs)
        else:
            low = _power(md.A, k // 2)
            high = _product(md.A, low) if k % 2 else low
            total = sum(sum(map(mul, low[j], [row[t] for row in high])) for j, t in pairs)
        return total - overlap + len(ints)

    def _markov_enumerate(self, md: _MarkovData, k: int, sign: int, max_pieces: int) -> list[tuple[int, int]]:
        """The solutions in ascending order, as lowest-terms pairs (N, D),
        from every admissible word: each length-k word is one piece of f^k,
        so the words count against the pieces engine's budget.

        The walk builds the words one level (letter) at a time from the
        empty ones, and checks each level's size, its parents' next letters
        counted, before it builds it; the last letters go straight to the
        roots.  A word holds the target g of its first letter, its next
        letters js and its composite x -> s*x + t.  A level is in x order:
        a cylinder maps onto its last unit interval by an affine f^d, so js
        ascend (``md.up``) for s > 0 and descend (``md.down``) for s < 0.  A
        non-integer root lies inside its cylinder, since if some f^i(x),
        0 < i < k, were an integer, sign*x would be one too; so these roots
        come out distinct and ascending, and each integer solution p goes in
        among them by bisection on the floor N // D, below p iff N/D is.
        """
        ints = self._int_solutions(md, k, sign)[0]
        A, slopes, intercepts, up, down = md.A, md.slopes, md.intercepts, md.up, md.down
        level = [(g, [j], 1, 0) for j in range(md.n) if (g := md.target(j, sign)) is not None]
        for depth in range(k):
            if sum(len(word[1]) for word in level) > max_pieces:
                raise PieceLimitError(max_pieces, k)
            if depth < k - 1:
                level = [
                    (g, up[j] if s2 > 0 else down[j], s2, slopes[j] * t + intercepts[j])
                    for g, js, s, t in level
                    for j in js
                    for s2 in (slopes[j] * s,)
                ]
        # d != 0: the integer-orbit walk of _int_solutions raised on a word of slope sign
        leaves = [(slopes[j] * t + intercepts[j], sign - slopes[j] * s)
                  for g, js, s, t in level for j in js if A[j][g]]
        roots = [(t // c, d // c) for t, d in leaves if t % d for c in (gcd(t, d) if d > 0 else -gcd(t, d),)]
        for p in reversed(ints):
            roots.insert(bisect_left(roots, p, key=lambda r: r[0] // r[1]), (p, 1))
        return roots

    def _engine(self, k: int, sign: int, method: str, max_pieces: int, count: bool) -> tuple[str, int, int]:
        """Validate the query and pick its engine: (engine, k, max_pieces),
        the sizes checked."""
        k = _at_least("k", k, 1)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        max_pieces = _at_least("max_pieces", max_pieces, 1)
        if sign == -1 and not (self._xs[0] <= 0 <= self._xs[-1]):
            raise DomainError("f^k(x) = -x needs 0 inside the domain")
        return self._resolve_method(k, method, max_pieces, count), k, max_pieces

    def _solve(self, k: int, sign: int, method: str, max_pieces: int, count: bool) -> int | list[tuple[int, int]]:
        """The number of solutions (``count``) or the ascending list of
        their lowest-terms pairs (N, D), on the engine picked."""
        engine, k, max_pieces = self._engine(k, sign, method, max_pieces, count)
        if engine == "markov":
            md = self._markov
            if count:
                return self._markov_count(md, k, sign)
            return self._markov_enumerate(md, k, sign, max_pieces)
        return self._pieces_solve(self.iterate_pieces(k, max_pieces), k, sign, count)

    def count_solutions(
        self,
        k: int,
        sign: int = 1,
        method: str = "auto",
        max_pieces: int = DEFAULT_MAX_PIECES,
    ) -> int:
        """Number of distinct x in the domain with f^k(x) = sign*x; no
        solution point is built.  Raises InfiniteSolutions (with a witness
        interval) when the equation holds identically on a piece, and
        PieceLimitError when the ``pieces`` engine would exceed
        ``max_pieces``."""
        return self._solve(k, sign, method, max_pieces, count=True)

    def solution_set(
        self,
        k: int,
        sign: int = 1,
        method: str = "auto",
        max_pieces: int = DEFAULT_MAX_PIECES,
    ) -> SolutionSet:
        """The exact solution set of f^k(x) = sign*x, in ascending order
        and unsorted (see the module docstring).  Raises PieceLimitError
        when more than ``max_pieces`` pieces (or, on the ``markov`` engine,
        transition words) would be walked."""
        return SolutionSet(_pairs=tuple(self._solve(k, sign, method, max_pieces, count=False)))

    def count_sequence(
        self,
        K: int,
        sign: int = 1,
        method: str = "auto",
        max_pieces: int = DEFAULT_MAX_PIECES,
    ) -> list[int]:
        """[count_solutions(k) for k = 1..K], one step per k: ``pieces``, on
        a prefix of the k's, composes f^k from the pieces of f^(k-1), and
        ``markov``, on the suffix, takes A^k as A times A^(k-1)."""
        counts, Ak = [], None
        for k in range(1, _at_least("K", K, 1) + 1):
            engine, _, max_pieces = self._engine(k, sign, method, max_pieces, count=True)
            if engine == "markov":
                md = self._markov
                Ak = _power(md.A, k) if Ak is None else _product(md.A, Ak)
                counts.append(self._markov_count(md, k, sign, Ak))
                continue
            if k == 1:
                pieces, ends = self.iterate_pieces(1, max_pieces), self._ys
            else:
                pieces, ends = self._compose_with_base(pieces, ends, max_pieces, k)
            counts.append(self._pieces_solve(pieces, k, sign, count=True))
        return counts
