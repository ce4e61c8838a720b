"""The homotopy coherent path category with cube-shaped homsets.

An arrow from r to s at dimension m is a function w on the half-open
interval (r, s] valued in {-, +, 1..m}, with the top position always the
constant-0 coordinate.  Composition is concatenation of intervals, and an
arrow splits uniquely at its interior minus positions into indecomposables.
A simplicial operator alpha acts fiberwise: coordinate i' of the image over
(alpha(r), alpha(s)] is the pointwise minimum of the coordinates at the
positions alpha sends to i', the constant-1 coordinate + when there are none;
positions sent to alpha(r) drop out.

A cell of hom(r, s) is a ``shapes.Coords`` holding the coordinates w of the
arrow it names; tables indexed by arrows, as in the nerve, are keyed by w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadInterval, DimensionMismatch, ObjectMismatch, OutOfRange
from .operators import MINUS, PLUS, CubeCoordinate, Operator
from .shapes import Coords, cube, cube_dim, cube_normal_form
from .stratified import FiniteStratifiedSet, Simplex


@dataclass(frozen=True, order=True)
class PathArrow:
    """An m-simplex of the homset from r to s, as a cube function on (r, s]."""

    r: int
    s: int
    m: int
    w: tuple[CubeCoordinate, ...]

    def __post_init__(self):
        if self.r > self.s:
            raise BadInterval(f"empty homset ({self.r},{self.s})")
        if len(self.w) != self.s - self.r:
            raise BadInterval("coordinate tuple does not span (r, s]")
        if self.w and self.w[-1] != MINUS:
            raise BadInterval("top coordinate must be the constant-0 operator")

    def value(self, i: int) -> CubeCoordinate:
        return self.w[i - self.r - 1]

    @property
    def is_identity(self) -> bool:
        return self.r == self.s


@lru_cache(maxsize=None)
def hom_set(r: int, s: int) -> FiniteStratifiedSet:
    """The stratified homset from r to s: a point, or a cube one step down.

    For r < s it is cube(s - r - 1) with the constant-0 top coordinate appended.
    """
    if r > s:
        raise BadInterval(f"hom({r},{s}) is empty")
    if r == s:
        return FiniteStratifiedSet(0, {Coords(()): 0}, {})
    C = cube(s - r - 1)
    top = {c: Coords(c.w + (MINUS,)) for c in C.dims}
    faces = {
        top[c]: tuple(Simplex(top[f.cell], f.word) for f in fs) for c, fs in C.faces.items()
    }
    return FiniteStratifiedSet(
        C.dim_cap, {top[c]: d for c, d in C.dims.items()}, faces, (top[c] for c in C.thin)
    )


def arrow_of_cell(r: int, s: int, cell: Coords) -> PathArrow:
    return PathArrow(r, s, cube_dim(cell.w), cell.w)


def arrow_normal_form(a: PathArrow) -> tuple[PathArrow, tuple[int, ...]]:
    """Nondegenerate core and degeneracy word of an arrow."""
    core, word = cube_normal_form(a.w, a.m)
    return PathArrow(a.r, a.s, a.m - len(word), core), word


def compose_path(b: PathArrow, a: PathArrow) -> PathArrow:
    """Concatenation b . a for a over (r, s] and b over (s, t]."""
    if a.s != b.r:
        raise ObjectMismatch(f"cannot compose ({b.r},{b.s}] after ({a.r},{a.s}]")
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    if a.m != b.m:
        raise DimensionMismatch("composable arrows must share a dimension")
    return PathArrow(a.r, b.s, a.m, a.w + b.w)


def split_at_zeros(a: PathArrow) -> list[PathArrow]:
    """Unique decomposition into indecomposables, lowest interval first."""
    if a.is_identity:
        return []
    cuts = [i for i in range(a.r + 1, a.s) if a.value(i) == MINUS]
    bounds = [a.r] + cuts + [a.s]
    return [
        PathArrow(lo, hi, a.m, a.w[lo - a.r : hi - a.r])
        for lo, hi in zip(bounds, bounds[1:])
    ]


def is_indecomposable(a: PathArrow) -> bool:
    return not a.is_identity and all(
        a.value(i) != MINUS for i in range(a.r + 1, a.s)
    )


def _min_coord(u: CubeCoordinate, v: CubeCoordinate) -> CubeCoordinate:
    """Pointwise minimum of two 1-simplex coordinates; the later flip wins."""
    if u == MINUS or v == MINUS:
        return MINUS
    if u == PLUS:
        return v
    if v == PLUS:
        return u
    return max(u, v)


def path_act(alpha: Operator, a: PathArrow) -> PathArrow:
    """The action of a simplicial operator [n] -> [n'] on arrows of the path.

    Fiberwise minimum: coordinate i' of the image over (alpha(r), alpha(s)] is
    the pointwise minimum of the coordinates alpha sends to i', and + when
    nothing goes there; positions sent to alpha(r) drop out.
    """
    if not (0 <= a.r and a.s <= alpha.n):
        raise OutOfRange(f"arrow ({a.r},{a.s}] does not live over [{alpha.n}]")
    lo = alpha(a.r)
    w = [PLUS] * (alpha(a.s) - lo)
    for i, v in enumerate(a.w, a.r + 1):
        t = alpha(i) - lo - 1
        if t >= 0:
            w[t] = _min_coord(w[t], v)
    return PathArrow(lo, alpha(a.s), a.m, tuple(w))


def hc_horn_member(n: int, k: int, a: PathArrow) -> bool:
    """Membership of an arrow in the inner homotopy coherent horn."""
    if not 0 < k < n:
        raise OutOfRange(f"inner horn needs 0 < k < n; got {(n, k)}")
    if not (a.r == 0 and a.s == n):
        return True
    return any(
        a.value(i) == MINUS or (i != k and a.value(i) == PLUS)
        for i in range(1, n)
    )


def top_special_arrow(r: int, s: int) -> PathArrow:
    """The unique non-thin top-dimensional simplex of hom(r, s)."""
    if s <= r:
        raise BadInterval("needs r < s")
    n = s - r
    w = tuple(n - p for p in range(1, n)) + (MINUS,)
    return PathArrow(r, s, n - 1, w)
