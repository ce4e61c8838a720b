"""The homotopy coherent path category with cube-shaped homsets.

An arrow from r to s at dimension m is a function w on the half-open
interval (r, s] valued in {-, +, 1..m}, with the top position always the
constant-0 coordinate.  Composition is concatenation of intervals, and an
arrow splits uniquely at its interior minus positions into indecomposables.
Simplicial operators act through their elementary factorization: a face
inserts a constant-1 coordinate, a degeneracy drops the lowest ordinate or
merges two adjacent ordinates by pointwise minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadInterval, DimensionMismatch, ObjectMismatch, OutOfRange
from .operators import MINUS, PLUS, CubeCoordinate, Operator, ez_factorize
from .shapes import (
    cube,
    cube_cell_id,
    cube_dim,
    cube_normal_form,
    cube_thin,
    is_integer_surjective,
    parse_cube_cell,
)
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

    def cell_id(self) -> str:
        return cube_cell_id(self.w)


def identity_arrow(r: int, m: int = 0) -> PathArrow:
    return PathArrow(r, r, m, ())


def indecomposable(r: int, s: int, m: int = 0) -> PathArrow:
    """The generating arrow <r, s>: all plus below a single top minus."""
    if r >= s:
        raise BadInterval("indecomposable needs r < s")
    return PathArrow(r, s, m, (PLUS,) * (s - r - 1) + (MINUS,))


def arrow_is_degenerate(a: PathArrow) -> bool:
    return not is_integer_surjective(a.w, a.m)


def arrow_thin(a: PathArrow) -> bool:
    return cube_thin(a.w, a.m)


@lru_cache(maxsize=None)
def hom_set(r: int, s: int) -> FiniteStratifiedSet:
    """The stratified homset from r to s: a point, or a cube one step down.

    For r < s it is cube(s - r - 1) with the constant-0 top coordinate appended.
    """
    if r > s:
        raise BadInterval(f"hom({r},{s}) is empty")
    if r == s:
        return FiniteStratifiedSet(0, {"": 0}, {})

    def top(cid: str) -> str:
        return cube_cell_id(parse_cube_cell(cid) + (MINUS,))

    C = cube(s - r - 1)
    faces = {
        top(c): tuple(Simplex(top(f.cell), f.word) for f in fs) for c, fs in C.faces.items()
    }
    return FiniteStratifiedSet(
        C.dim_cap, {top(c): d for c, d in C.dims.items()}, faces, map(top, C.thin)
    )


def arrow_of_cell(r: int, s: int, cid: str) -> PathArrow:
    w = parse_cube_cell(cid)
    return PathArrow(r, s, cube_dim(w), w)


def arrow_normal_form(a: PathArrow) -> tuple[PathArrow, tuple[int, ...]]:
    """Nondegenerate core and degeneracy word of an arrow."""
    nf = cube_normal_form(a.w, a.m)
    core_w = parse_cube_cell(nf.cell)
    return PathArrow(a.r, a.s, a.m - len(nf.word), core_w), nf.word


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


def _act_delta(k: int, a: PathArrow) -> PathArrow:
    if a.s < k:
        return a
    if k <= a.r:
        return PathArrow(a.r + 1, a.s + 1, a.m, a.w)
    # r < k <= s: insert the constant-1 coordinate at position k
    cut = k - a.r - 1
    return PathArrow(a.r, a.s + 1, a.m, a.w[:cut] + (PLUS,) + a.w[cut:])


def _act_sigma(k: int, a: PathArrow) -> PathArrow:
    if a.s <= k:
        return a
    if k < a.r:
        return PathArrow(a.r - 1, a.s - 1, a.m, a.w)
    if k == a.r:
        # drop the rightmost ordinate
        return PathArrow(a.r, a.s - 1, a.m, a.w[1:])
    # r < k < s: merge ordinates k and k+1
    cut = k - a.r - 1
    merged = _min_coord(a.w[cut], a.w[cut + 1])
    return PathArrow(a.r, a.s - 1, a.m, a.w[:cut] + (merged,) + a.w[cut + 2 :])


def path_act(alpha: Operator, a: PathArrow) -> PathArrow:
    """The action of a simplicial operator [n] -> [n'] on arrows of the path.

    Computed through the elementary factorization of the operator; faces
    insert constant-1 coordinates, degeneracies drop or merge ordinates.
    """
    if not (0 <= a.r and a.s <= alpha.n):
        raise OutOfRange(f"arrow ({a.r},{a.s}] does not live over [{alpha.n}]")
    faces, degens = ez_factorize(alpha)
    for k in degens:
        a = _act_sigma(k, a)
    for k in faces:
        a = _act_delta(k, a)
    return a


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


def arrow_to_json(a: PathArrow) -> dict:
    return {
        "r": a.r,
        "s": a.s,
        "m": a.m,
        "w": {str(i): a.value(i) for i in range(a.r + 1, a.s + 1)},
    }


def arrow_from_json(data: dict) -> PathArrow:
    w = []
    for i in range(data["r"] + 1, data["s"] + 1):
        v = data["w"][str(i)]
        w.append(v if v in (MINUS, PLUS) else int(v))
    return PathArrow(data["r"], data["s"], data["m"], tuple(w))
