"""The homotopy coherent path category with cube-shaped homsets.

An arrow from r to s at dimension m is its coordinate tuple w: a function on
the half-open interval (r, s], position i holding w[i - r - 1], valued in
{-, +, 1..m}, with the top position always the constant-0 coordinate -.  So
s = r + len(w), and the identity on r is the empty tuple.  Composition is
concatenation a_w + b_w; an arrow splits uniquely at its interior minus
positions into indecomposables, so its last indecomposable factor starts
after its last interior minus.  The nondegenerate core and degeneracy word of
an arrow are ``shapes.cube_normal_form(w, m)``.  A simplicial operator alpha
acts fiberwise: coordinate i' of the image over (alpha(r), alpha(s)] is the
pointwise minimum of the coordinates at the positions alpha sends to i', the
constant-1 coordinate + when there are none; positions sent to alpha(r) drop
out.

A cell of hom(r, s) is a ``shapes.Coords`` holding the coordinates w of the
arrow it names; tables indexed by arrows, as in the nerve, are keyed by w.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadInterval, OutOfRange
from .operators import MINUS, PLUS, CubeCoordinate, Operator
from .shapes import Coords, cube, in_big_H
from .stratified import FiniteStratifiedSet, Simplex


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


def _min_coord(u: CubeCoordinate, v: CubeCoordinate) -> CubeCoordinate:
    """Pointwise minimum of two 1-simplex coordinates; the later flip wins."""
    if u == MINUS or v == MINUS:
        return MINUS
    if u == PLUS:
        return v
    if v == PLUS:
        return u
    return max(u, v)


def path_act(
    alpha: Operator, r: int, w: tuple[CubeCoordinate, ...]
) -> tuple[int, tuple[CubeCoordinate, ...]]:
    """The action of a simplicial operator [n] -> [n'] on the arrow w from r.

    Returns (alpha(r), w'), w' the fiberwise minimum: coordinate i' of w' over
    (alpha(r), alpha(s)] is the pointwise minimum of the coordinates alpha
    sends to i', and + when nothing goes there; positions sent to alpha(r)
    drop out.  The dimension of the arrow is unchanged.
    """
    s = r + len(w)
    if not (0 <= r and s <= alpha.n):
        raise OutOfRange(f"arrow ({r},{s}] does not live over [{alpha.n}]")
    lo = alpha(r)
    out = [PLUS] * (alpha(s) - lo)
    for i, v in enumerate(w, r + 1):
        t = alpha(i) - lo - 1
        if t >= 0:
            out[t] = _min_coord(out[t], v)
    return lo, tuple(out)


def hc_horn_member(n: int, k: int, r: int, w: tuple[CubeCoordinate, ...]) -> bool:
    """Membership of the arrow w from r in the inner coherent horn: H^k_{n-1} in hom(0, n)."""
    if not 0 < k < n:
        raise OutOfRange(f"inner horn needs 0 < k < n; got {(n, k)}")
    if not (r == 0 and len(w) == n):
        return True
    return in_big_H(w[:-1], k)
