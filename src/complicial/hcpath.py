"""The homotopy coherent path category with cube-shaped homsets.

An arrow from r to s at dimension m is its coordinate tuple w: a function on
the half-open interval (r, s], position i holding w[i - r - 1], valued in
{-, +, 1..m}, with the top position always the constant-0 coordinate -.  So
s = r + len(w), the identity on r is the empty tuple, and hom(r, s) is one
set for each length s - r.  Composition is concatenation a_w + b_w; an arrow
splits uniquely at its interior minus positions into indecomposables.
``split`` cuts it after its last interior minus and gives the last factor's
core and degeneracy operator from ``shapes.cube_normal_form``; the
``generators`` are the nondegenerate arrows it leaves uncut.  A simplicial
operator alpha acts fiberwise: coordinate i' of the image over (alpha(r),
alpha(s)] is the pointwise minimum of the coordinates at the positions alpha
sends to i', the constant-1 coordinate + when there are none; positions sent
to alpha(r) drop out.  In that minimum - absorbs, + is the unit, and of two
integers the larger wins (the later flip).  ``generator_action`` tabulates an
operator's action on the generators once, for the nerve to read.

A cell of hom(r, s) is a ``shapes.Coords`` holding the coordinates w of the
arrow it names; tables indexed by arrows, as in the nerve, are keyed by w.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadInterval, OutOfRange
from .operators import MINUS, PLUS, CubeCoordinate, Operator, word_operator
from .shapes import Coords, cube, cube_normal_form, in_big_H, special_top
from .stratified import FiniteStratifiedSet, Simplex


def hom_set(r: int, s: int) -> FiniteStratifiedSet:
    """The stratified homset from r to s: a point, or a cube one step down.

    For r < s it is cube(s - r - 1) with the constant-0 top coordinate appended.
    """
    if r > s:
        raise BadInterval(f"hom({r},{s}) is empty")
    return _hom_of_length(s - r)


@lru_cache(maxsize=None)
def _hom_of_length(k: int) -> FiniteStratifiedSet:
    if not k:
        return FiniteStratifiedSet(0, {Coords(()): 0}, {})
    C = cube(k - 1)
    top = {c: Coords(c.w + (MINUS,)) for c in C.dims}
    faces = {
        top[c]: tuple(Simplex(top[f.cell], f.word) for f in fs) for c, fs in C.faces.items()
    }
    return FiniteStratifiedSet(
        C.dim_cap, {top[c]: d for c, d in C.dims.items()}, faces, (top[c] for c in C.thin)
    )


@lru_cache(maxsize=None)
def split(
    w: tuple[CubeCoordinate, ...], m: int
) -> tuple[int, tuple[CubeCoordinate, ...], Operator | None]:
    """The arrow w at dimension m cut before its last indecomposable factor:
    (cut, core, op), the factor w[cut:] being the nondegenerate core acted on
    by the degeneracy operator op (None when the factor is nondegenerate)."""
    cut = max((i for i, v in enumerate(w[:-1], 1) if v == MINUS), default=0)
    core, word = cube_normal_form(w[cut:], m)
    return cut, core, word_operator(m, word) if word else None


@lru_cache(maxsize=None)
def generators(n: int) -> tuple[tuple[int, int, Coords, int], ...]:
    """The nondegenerate indecomposable arrows of the coherent n-path, the hom
    cells split leaves uncut, as (r, s, cell, dim) in (dim, r, s, cell) order."""
    gens = []
    for r in range(n + 1):
        for s in range(r + 1, n + 1):
            H = hom_set(r, s)
            gens += [(r, s, c, H.dims[c]) for c in H.cells() if not split(c.w, H.dims[c])[0]]
    gens.sort(key=lambda g: (g[3], g[0], g[1], g[2]))
    return tuple(gens)


def special_arrow(m: int) -> tuple[CubeCoordinate, ...]:
    """hom(0, m + 1)'s top special arrow: the order reversing bijection, then the top minus."""
    return special_top(m).w + (MINUS,)


def path_act(
    alpha: Operator, r: int, w: tuple[CubeCoordinate, ...]
) -> tuple[int, tuple[CubeCoordinate, ...]]:
    """The action of a simplicial operator [n] -> [n'] on the arrow w from r.

    Returns (alpha(r), w'), w' the fiberwise minimum: coordinate i' of w' over
    (alpha(r), alpha(s)] is the pointwise minimum of the coordinates alpha
    sends to i', and + when nothing goes there; positions sent to alpha(r)
    drop out.  In the minimum - absorbs, + is the unit, and of two integers
    the larger wins (the later flip).  The dimension of the arrow is unchanged.
    """
    s = r + len(w)
    if not (0 <= r and s <= alpha.n):
        raise OutOfRange(f"arrow ({r},{s}] does not live over [{alpha.n}]")
    lo = alpha.values[r]
    out = [PLUS] * (alpha.values[s] - lo)
    for t, v in zip(alpha.values[r + 1 : s + 1], w):
        t -= lo + 1
        if t < 0:
            continue
        u = out[t]
        if v == MINUS or u == PLUS or (u != MINUS and v != PLUS and v > u):
            out[t] = v
    return lo, tuple(out)


@lru_cache(maxsize=None)
def generator_action(alpha: Operator) -> tuple[tuple[tuple, tuple[int, tuple, int]], ...]:
    """alpha on each generator (r, w) of generators(alpha.n), in order: ((r, w), (r', w', dim))."""
    return tuple(((r, c.w), (*path_act(alpha, r, c.w), d)) for r, _, c, d in generators(alpha.n))


def hc_horn_member(n: int, k: int, r: int, w: tuple[CubeCoordinate, ...]) -> bool:
    """Membership of the arrow w from r in the inner coherent horn: H^k_{n-1} in hom(0, n)."""
    if not 0 < k < n:
        raise OutOfRange(f"inner horn needs 0 < k < n; got {(n, k)}")
    if not (r == 0 and len(w) == n):
        return True
    return in_big_H(w[:-1], k)
