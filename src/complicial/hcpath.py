"""The homotopy coherent path category with cube-shaped homsets.

An arrow from r to s at dimension m is its coordinate tuple w: a function on
the half-open interval (r, s], position i holding w[i - r - 1], valued in
{-, +, 1..m}, with the top position always the constant-0 coordinate -.  So
s = r + len(w), the identity on r is the empty tuple, and hom(r, s) is one
set for each length s - r.  Composition is concatenation a_w + b_w; an arrow
splits uniquely at its interior minus positions into indecomposables.
``split`` cuts it after its last interior minus and gives the last factor's
core and degeneracy word from ``shapes.cube_normal_form``; the
``generators`` are the nondegenerate arrows it leaves uncut.  A simplicial
operator alpha acts fiberwise: coordinate i' of the image over (alpha(r),
alpha(s)] is the pointwise minimum of the coordinates at the positions alpha
sends to i', the constant-1 coordinate + when there are none; positions sent
to alpha(r) drop out.  In that minimum - absorbs, + is the unit, and of two
integers the larger wins (the later flip).  ``hom_action`` acts on a list of
arrows of one hom at once, a coordinate column at a time: each column of the
image is an input column, a column of +, or the minimum over a run of input
columns.  ``path_act`` is ``hom_action`` on one arrow.  ``generator_action``
tabulates an operator's action on the generators once, for the nerve to read;
the suite's functoriality sample acts on whole homs.

A cell of hom(r, s) is a ``shapes.Coords`` spelling the coordinates w of the
arrow it names; tables indexed by arrows, as in the nerve, are keyed by w,
and ``generator_keys`` reads each generator's w from its spelling once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from .errors import BadInterval, OutOfRange
from .operators import MINUS, PLUS, CubeCoordinate, Operator
from .shapes import Coords, cube, cube_normal_form, in_big_H
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
    # the cube cell's spelling, a run of coordinates, then the top coordinate
    top = {c: Coords((c, MINUS) if c else (MINUS,)) for c in C.dims}
    faces = {
        top[c]: tuple(Simplex(top[f.cell], f.word) for f in fs) for c, fs in C.faces.items()
    }
    return FiniteStratifiedSet(
        C.dim_cap, {top[c]: d for c, d in C.dims.items()}, faces, (top[c] for c in C.thin)
    )


@lru_cache(maxsize=None)
def split(
    w: tuple[CubeCoordinate, ...], m: int
) -> tuple[int, tuple[CubeCoordinate, ...], tuple[int, ...]]:
    """The arrow w at dimension m cut before its last indecomposable factor:
    (cut, core, word), the factor w[cut:] being the nondegenerate core
    degenerated by the degeneracy word ((), when the factor is nondegenerate)."""
    cut = max((i for i, v in enumerate(w[:-1], 1) if v == MINUS), default=0)
    return (cut, *cube_normal_form(w[cut:], m))


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


@lru_cache(maxsize=None)
def generator_keys(n: int) -> tuple[tuple[int, tuple[CubeCoordinate, ...]], ...]:
    """The key (r, w) of each generator of generators(n), in order, each w read once."""
    return tuple((r, c.w) for r, _, c, _ in generators(n))


def special_arrow(m: int) -> tuple[CubeCoordinate, ...]:
    """hom(0, m + 1)'s top special arrow: the order reversing bijection, then the top minus."""
    return (*range(m, 0, -1), MINUS)


def path_act(
    alpha: Operator, r: int, w: tuple[CubeCoordinate, ...]
) -> tuple[int, tuple[CubeCoordinate, ...]]:
    """The action of a simplicial operator [n] -> [n'] on the arrow w from r:
    (alpha(r), w'), w' the fiberwise minimum, as hom_action gives it on the one
    arrow.  The dimension of the arrow is unchanged."""
    lo, (image,) = hom_action(alpha, r, r + len(w), [w])
    return lo, image


def hom_action(
    alpha: Operator, r: int, s: int, ws: list[tuple[CubeCoordinate, ...]]
) -> tuple[int, list[tuple[CubeCoordinate, ...]]]:
    """The action of alpha on a list ws of cells of hom_set(r, s), as their w.

    Returns (alpha(r), images), images[k] the image of ws[k] over
    (alpha(r), alpha(s)], built a coordinate column at a time.  Column i' of
    the images is read off the run of positions alpha sends to i': the input
    column itself for a run of one, a column of + for an empty run, and the
    fiberwise minimum of the run's columns otherwise; the positions sent to
    alpha(r) drop out.  A w whose length is not s - r is refused with
    OutOfRange.  When alpha(r) = alpha(s) every image is the identity () and no
    column is read.
    """
    if not (0 <= r <= s <= alpha.n):
        raise OutOfRange(f"arrow ({r},{s}] does not live over [{alpha.n}]")
    lo = alpha.values[r]
    runs: list[list] = [[] for _ in range(alpha.values[s] - lo)]
    if not (ws and runs):
        if not {s - r}.issuperset(map(len, ws)):
            raise OutOfRange(f"an arrow of hom({r},{s}) has length {s - r}")
        return lo, [()] * len(ws)
    try:
        for t, column in zip(alpha.values[r + 1 : s + 1], zip(*ws, strict=True), strict=True):
            if t > lo:
                runs[t - lo - 1].append(column)
    except ValueError:
        raise OutOfRange(f"an arrow of hom({r},{s}) has length {s - r}") from None
    columns = [
        run[0] if len(run) == 1 else map(_fiber_min, *run) if run else repeat(PLUS, len(ws))
        for run in runs
    ]
    return lo, list(zip(*columns))


def _fiber_min(*vs: CubeCoordinate) -> CubeCoordinate:
    """The minimum of the coordinates of one fiber: - absorbs, + is the unit,
    and of two integers the larger wins (the later flip)."""
    if MINUS in vs:
        return MINUS
    ints = [v for v in vs if v != PLUS]
    return max(ints) if ints else PLUS


@lru_cache(maxsize=None)
def generator_action(alpha: Operator) -> tuple[tuple[tuple, tuple[int, tuple, int]], ...]:
    """alpha on each generator (r, w) of generators(alpha.n), in order: ((r, w), (r', w', dim))."""
    gens = zip(generator_keys(alpha.n), generators(alpha.n))
    return tuple(((r, w), (*path_act(alpha, r, w), d)) for (r, w), (*_, d) in gens)


def hc_horn_member(n: int, k: int, r: int, w: tuple[CubeCoordinate, ...]) -> bool:
    """Membership of the arrow w from r in the inner coherent horn: H^k_{n-1} in hom(0, n)."""
    if not 0 < k < n:
        raise OutOfRange(f"inner horn needs 0 < k < n; got {(n, k)}")
    if not (r == 0 and len(w) == n):
        return True
    return in_big_H(w[:-1], k)
