"""The stratified nerve of an enriched category.

An n-simplex of the nerve is an enriched functor out of the coherent
n-path: an object map together with a stratified map on every homset,
compatible with concatenation.  Because the path category is freely
generated by its indecomposable arrows, enumeration proceeds by choosing
images of nondegenerate indecomposable cells dimension by dimension, with
face and thinness consistency pruning the search; images of all remaining
cells follow by splitting at zeros and composing in the target.

Thinness of a nerve simplex above dimension one tests the image of the top
special simplex of the long homset; the rule for 1-simplices searches for
an equivalence witness pair of thin 2-simplices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import OutOfRange
from .operators import (
    Operator,
    all_injections,
    delta,
    is_admissible,
    sigma,
    word_operator as _wop,
)
from .enriched import EnrichedCategory
from .hcpath import (
    PathArrow,
    arrow_normal_form,
    arrow_of_cell,
    hom_set,
    is_indecomposable,
    path_act,
    split_at_zeros,
    top_special_arrow,
)
from .shapes import Coords, comparison_simplex, cube_face, operator_of_simplex
from .stratified import FiniteStratifiedSet, Simplex


class NerveSimplex:
    """An enriched functor from the coherent n-path, tabulated on homsets."""

    def __init__(self, E: EnrichedCategory, n: int, obj: tuple[str, ...], maps):
        self.E = E
        self.n = n
        self.obj = obj
        self.maps = maps  # (r, s) -> {coordinates w of a hom cell -> Simplex of E.hom}
        # every functor from the n-path tabulates the same cells in the same order
        self._key = (n, obj, tuple(img for table in maps.values() for img in table.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, NerveSimplex) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"NerveSimplex(n={self.n}, obj={self.obj})"

    def eval_arrow(self, a: PathArrow) -> Simplex:
        """Image of an arbitrary arrow of the coherent path."""
        if a.r == a.s:
            return self.E.identity_simplex(self.obj[a.r], a.m)
        core, word = arrow_normal_form(a)
        img = self.maps[(core.r, core.s)][core.w]
        if not word:
            return img
        target = self.E.hom(self.obj[a.r], self.obj[a.s])
        return target.act(img, _wop(a.m, word))


def _generators(n: int) -> list[tuple[int, int, Coords, int]]:
    """Nondegenerate indecomposable hom cells as (r, s, cell, dim)."""
    gens = []
    for r in range(n + 1):
        for s in range(r + 1, n + 1):
            H = hom_set(r, s)
            for cell in H.cells():
                if is_indecomposable(arrow_of_cell(r, s, cell)):
                    gens.append((r, s, cell, H.dims[cell]))
    gens.sort(key=lambda g: (g[3], g[0], g[1], g[2]))
    return gens


def _eval_partial(E, obj, assigned, a: PathArrow) -> Simplex | None:
    """Evaluate an arrow from generator images chosen so far; None if missing."""
    if a.r == a.s:
        return E.identity_simplex(obj[a.r], a.m)
    out = None
    for factor in split_at_zeros(a):
        core, word = arrow_normal_form(factor)
        img = assigned.get((core.r, core.s, core.w))
        if img is None:
            return None
        if word:
            img = E.hom(obj[factor.r], obj[factor.s]).act(img, _wop(factor.m, word))
        if out is None:
            out = img
        else:
            out = E.compose(obj[a.r], obj[factor.r], obj[factor.s], img, out)
    return out


def nerve_simplices(E: EnrichedCategory, n: int) -> list[NerveSimplex]:
    """All enriched functors from the coherent n-path, deterministically."""
    gens = _generators(n)
    results: list[NerveSimplex] = []

    def object_maps() -> Iterator[tuple[str, ...]]:
        def rec(prefix):
            if len(prefix) == n + 1:
                yield tuple(prefix)
                return
            for o in E.objects:
                if all(E.homs[(p, o)].dims for p in prefix):
                    yield from rec(prefix + [o])

        yield from rec([])

    for obj in object_maps():
        assigned: dict[tuple[int, int, tuple], Simplex] = {}

        def candidates(r, s, cell, d):
            faces = {}
            for j in range(d + 1) if d >= 1 else ():
                face = PathArrow(r, s, d - 1, cube_face(cell.w, d, j))
                faces[j] = _eval_partial(E, obj, assigned, face)
                if faces[j] is None:
                    return ()
            target = E.hom(obj[r], obj[s])
            fillers = target.fillers(d, faces, cell in hom_set(r, s).thin)
            return sorted(fillers, key=target.sort_key)

        def search(i: int):
            if i == len(gens):
                f = _tabulate(E, n, obj, lambda a: _eval_partial(E, obj, assigned, a))
                if f is not None:
                    results.append(f)
                return
            r, s, cell, d = gens[i]
            for z in candidates(r, s, cell, d):
                assigned[(r, s, cell.w)] = z
                search(i + 1)
                del assigned[(r, s, cell.w)]

        search(0)
    return results


def _tabulate(E, n, obj, image) -> NerveSimplex | None:
    """The functor out of the coherent n-path sending every hom cell, as an arrow,
    to image(arrow); None if an image is missing or a thin cell lands non-thin."""
    maps: dict[tuple[int, int], dict[tuple, Simplex]] = {}
    for r in range(n + 1):
        for s in range(r + 1, n + 1):
            H = hom_set(r, s)
            target = E.hom(obj[r], obj[s])
            table = {}
            for cell in H.cells():
                img = image(arrow_of_cell(r, s, cell))
                if img is None or (cell in H.thin and not target.is_thin(img)):
                    return None
                table[cell.w] = img
            maps[(r, s)] = table
    return NerveSimplex(E, n, obj, maps)


def nerve_act(f: NerveSimplex, alpha: Operator) -> NerveSimplex:
    """Precomposition with the path functor of a simplicial operator.

    The stratification check of the tabulation cannot fail here: the path
    functor sends thin cells to thin or degenerate arrows.
    """
    if alpha.m != f.n:
        raise OutOfRange(f"operator targets [{alpha.m}], simplex has dimension {f.n}")
    obj = tuple(f.obj[alpha(t)] for t in range(alpha.n + 1))
    return _tabulate(f.E, alpha.n, obj, lambda a: f.eval_arrow(path_act(alpha, a)))


def _degenerate_at(f: NerveSimplex, j: int) -> bool:
    g = nerve_act(f, delta(f.n, j + 1))
    return nerve_act(g, sigma(f.n - 1, j)) == f


def nerve_normal_form(f: NerveSimplex) -> tuple[NerveSimplex, tuple[int, ...]]:
    """The nondegenerate core and the word: the flats of f, stripped from the top down."""
    word = tuple(j for j in reversed(range(f.n)) if _degenerate_at(f, j))
    for t in word:
        f = nerve_act(f, delta(f.n, t + 1))
    return f, word


def nerve_thin(
    f: NerveSimplex, two_simplices: list[NerveSimplex] | None = None
) -> bool:
    """The nerve stratification above dimension one, witnesses at dimension one."""
    if f.n == 0:
        return False
    if f.n >= 2:
        E = f.E
        target = E.hom(f.obj[0], f.obj[f.n])
        return target.is_thin(f.eval_arrow(top_special_arrow(0, f.n)))
    pool = two_simplices if two_simplices is not None else nerve_simplices(f.E, 2)
    return _has_equivalence_inverse(f, pool)


def _identity_edge(E: EnrichedCategory, obj: str) -> NerveSimplex:
    v = NerveSimplex(E, 0, (obj,), {})
    return nerve_act(v, sigma(0, 0))


def _has_equivalence_inverse(e: NerveSimplex, pool: list[NerveSimplex]) -> bool:
    E = e.E
    x, y = e.obj
    id_x, id_y = _identity_edge(E, x), _identity_edge(E, y)
    d0 = delta(2, 0)
    d1 = delta(2, 1)
    d2 = delta(2, 2)
    for u in pool:
        if not nerve_thin(u):
            continue
        if nerve_act(u, d2) != e or nerve_act(u, d1) != id_x:
            continue
        back = nerve_act(u, d0)
        for v in pool:
            if not nerve_thin(v):
                continue
            if (
                nerve_act(v, d2) == back
                and nerve_act(v, d0) == e
                and nerve_act(v, d1) == id_y
            ):
                return True
    return False


def build_nerve(E: EnrichedCategory, D: int) -> FiniteStratifiedSet:
    """The nerve truncated at dimension D, as a stratified set."""
    full_layers: list[list[NerveSimplex]] = []
    layers: list[list[NerveSimplex]] = []
    for n in range(D + 1):
        allf = nerve_simplices(E, n)
        full_layers.append(allf)
        layers.append([f for f in allf if all(not _degenerate_at(f, j) for j in range(n))])
    ids: dict[NerveSimplex, str] = {}
    for n, layer in enumerate(layers):
        for i, f in enumerate(layer):
            ids[f] = f"N{n}.{i}"
    dims = {ids[f]: n for n, layer in enumerate(layers) for f in layer}
    faces = {}
    for n, layer in enumerate(layers):
        if n == 0:
            continue
        for f in layer:
            entries = []
            for j in range(n + 1):
                core, word = nerve_normal_form(nerve_act(f, delta(n, j)))
                entries.append(Simplex(ids[core], word))
            faces[ids[f]] = tuple(entries)
    pool2 = full_layers[2] if D >= 2 else []
    thin = []
    for n, layer in enumerate(layers):
        if n == 0:
            continue
        for f in layer:
            if nerve_thin(f, pool2):
                thin.append(ids[f])
    return FiniteStratifiedSet(D, dims, faces, thin)


# -- complicial classification -------------------------------------------------


def classify_complicial(f: NerveSimplex, k: int) -> bool:
    """Whether every k-admissible face sends its top special simplex to thin."""
    if not 0 < k < f.n:
        raise OutOfRange(f"inner index needed, got k={k} at dimension {f.n}")
    for m in range(1, f.n + 1):
        for alpha in all_injections(m, f.n):
            if not is_admissible(alpha, k):
                continue
            arrow = path_act(alpha, top_special_arrow(0, m))
            img = f.eval_arrow(arrow)
            if not f.E.hom(f.obj[arrow.r], f.obj[arrow.s]).is_thin(img):
                return False
    return True


# -- the suspension comparison functor and the faithfulness probe --------------


@dataclass(frozen=True)
class SigmaFunctor:
    """The collapse functor from the coherent (n+1)-path to a suspension."""

    n: int

    def obj(self, r: int) -> str:
        return "0" if r <= self.n else "1"

    def crossing(self, a: PathArrow) -> bool:
        return a.r <= self.n < a.s

    def delta_image(self, a: PathArrow) -> Simplex:
        """Image of a crossing arrow, as a simplex of the standard n-simplex."""
        return comparison_simplex(a.w, a.r, self.n, a.m)


def yoneda_composite(E: EnrichedCategory, x: Simplex, n: int) -> NerveSimplex:
    """The (n+1)-simplex of the nerve classified by an n-arrow of hom(0, 1).

    This is the composite of the suspension comparison functor with the
    functor out of the suspended n-simplex that names x.
    """
    F = SigmaFunctor(n)
    hom01 = E.hom("0", "1")

    def image(a: PathArrow) -> Simplex:
        if not F.crossing(a):
            return E.identity_simplex(F.obj(a.r), a.m)
        return hom01.act(x, operator_of_simplex(n, F.delta_image(a), a.m))

    return _tabulate(E, n + 1, tuple(F.obj(r) for r in range(n + 2)), image)


def recover_arrow(f: NerveSimplex) -> Simplex:
    """Evaluate an (n+1)-simplex of the nerve at the top special simplex."""
    return f.eval_arrow(top_special_arrow(0, f.n))