"""The stratified nerve of an enriched category.

An n-simplex of the nerve is an enriched functor out of the coherent
n-path: an object map together with a stratified map on every homset,
compatible with concatenation.  The path category is free on its
nondegenerate indecomposable arrows, the generators, so a simplex is held as
its generator images; one evaluator, ``_eval``, gives the image of any other
arrow as that of its last indecomposable factor composed after the rest.
The generators on hom(r, s) with s < n are the data of the face d_n.  So the
nerve is built layer by layer from the face d_n: an n-simplex extends one of
dimension n - 1 by images of the generators of hom(r, n), chosen dimension by
dimension by ``stratified.extensions``, the one backtracking search, with face
and thinness consistency pruning it.  A
simplicial operator sends generators to generators or identities, so
degeneracies and faces read generator images alone; degeneracies come from
the layers below, and give every face its normal form.

An arrow is handled by ``hcpath``: the coordinate tuple w from r at
dimension m, its generators, and ``split``, which cuts it before its last
factor and is cached across simplices and builds.  The composites come from
the category's table, so a build evaluates each composite once.  Thinness of
a nerve simplex above dimension one tests the image of the top special arrow
of the long homset.  An edge is thin when ``fillers`` on the built set finds
an equivalence witness pair of thin 2-simplices.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from .errors import OutOfRange
from .operators import Operator, delta, surjection_words, word_operator as _wop
from .enriched import EnrichedCategory
from .hcpath import generator_action, generators, hom_set, special_arrow, split
from .shapes import comparison_operator, cube_face
from .stratified import FiniteStratifiedSet, Simplex, extensions, make_thin


class NerveSimplex:
    """An enriched functor from the coherent n-path, held as its images of the
    generators: (r, w) -> Simplex of E.hom for each cell of generators(n).
    Every other arrow is evaluated from these on demand, and remembered."""

    def __init__(self, E: EnrichedCategory, n: int, obj: tuple[str, ...], images):
        self.E = E
        self.n = n
        self.obj = obj
        self.images = images
        self._key = (n, obj, tuple(images[(r, cell.w)] for r, _, cell, _ in generators(n)))
        self._evaluated: dict[tuple[int, tuple, int], Simplex] = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, NerveSimplex) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"NerveSimplex(n={self.n}, obj={self.obj})"

    def eval_arrow(self, r: int, w: tuple, m: int) -> Simplex:
        """Image of an arbitrary arrow of the coherent path: w from r at dimension m."""
        img = self._evaluated.get((r, w, m))
        if img is None:
            img = _eval(self.E, self.obj, self.images, r, w, m, self.eval_arrow)
            self._evaluated[(r, w, m)] = img
        return img


def _eval(E, obj, images, r: int, w: tuple, m: int, rest) -> Simplex:
    """The image of the arrow w from r at dimension m under generator images:
    the core of its last indecomposable factor, acted on by the factor's
    degeneracy operator, composed after rest(r, w[:cut], m) for the arrow before it."""
    if not w:
        return E.identity_simplex(obj[r], m)
    cut, core, op = split(w, m)
    s = r + len(w)
    img = images[(r + cut, core)]
    if op is not None:
        img = E.hom(obj[r + cut], obj[s]).act(img, op)
    if not cut:
        return img
    return E.compose(obj[r], obj[r + cut], obj[s], img, rest(r, w[:cut], m))


def nerve_simplices(E: EnrichedCategory, below: list[NerveSimplex]) -> list[NerveSimplex]:
    """The n-simplices extending the (n - 1)-layer below, degenerate ones included;
    [] when below is empty.  They are ordered by the object ranks and then by the
    images of generators(n), in their order; the ids N{n}.{i} that build_nerve
    writes are positions in this order.

    Each extends the images of its face d_n = g over the generators of
    hom(r, n), in (dim, r, cell) order, so the faces of each are known when
    it is reached.  Every hom(r, s) with s < n is g's, already checked, and
    ``fillers`` lands each thin generator thin, so an extension is kept when
    the other thin cells of each hom(r, n) land thin."""
    if not below:
        return []
    n = below[0].n + 1
    rank = {o: i for i, o in enumerate(E.objects)}
    gens = generators(n)
    # the generators of hom(r, n), keyed (r, w), with dimension, face coordinates and thin flag
    last = {}
    for r, s, cell, d in gens:
        if s == n:
            face_ws = [cube_face(cell.w, d, j) for j in range(d + 1)] if d else []
            last[(r, cell.w)] = (d, face_ws, cell in hom_set(r, n).thin)
    thin = [(r, c.w, hom_set(r, n).dims[c]) for r in range(n) for c in sorted(hom_set(r, n).thin)]
    thin = [(r, w, m) for r, w, m in thin if (r, w) not in last]

    def key(f: NerveSimplex) -> tuple:
        images = (E.hom(f.obj[r], f.obj[s]).sort_key(f.images[(r, c.w)]) for r, s, c, _ in gens)
        return tuple(rank[o] for o in f.obj), tuple(images)

    def candidates(obj: tuple, image, slot: tuple, images: dict) -> Iterator[Simplex]:
        d, face_ws, is_thin = last[slot]
        faces = {j: image(images, slot[0], v, d - 1) for j, v in enumerate(face_ws)}
        return E.hom(obj[slot[0]], obj[n]).fillers(d, faces, is_thin)

    ends = [(g, o) for g in below for o in E.objects if all(E.hom(p, o).dims for p in g.obj)]
    found = []
    for g, o in ends:
        obj = g.obj + (o,)
        image = partial(_eval, E, obj, rest=g.eval_arrow)
        for images in extensions(list(last), partial(candidates, obj, image), g.images):
            if all(E.hom(obj[r], o).is_thin(image(images, r, w, m)) for r, w, m in thin):
                found.append(NerveSimplex(E, n, obj, images))
    return sorted(found, key=key)


def _functor(E, n: int, obj: tuple[str, ...], image) -> NerveSimplex:
    """The n-simplex sending each generator, as the arrow w from r at dimension
    m, to image(r, w, m)."""
    return NerveSimplex(E, n, obj, {(r, c.w): image(r, c.w, d) for r, _, c, d in generators(n)})


def nerve_act(f: NerveSimplex, alpha: Operator) -> NerveSimplex:
    """Precomposition with the path functor of a simplicial operator, which sends
    each generator to a generator or an identity, as ``generator_action`` lists."""
    if alpha.m != f.n:
        raise OutOfRange(f"operator targets [{alpha.m}], simplex has dimension {f.n}")
    obj = tuple(f.obj[t] for t in alpha.values)
    images = {g: f.eval_arrow(*arrow) for g, arrow in generator_action(alpha)}
    return NerveSimplex(f.E, alpha.n, obj, images)


def build_nerve(E: EnrichedCategory, D: int) -> FiniteStratifiedSet:
    """The nerve truncated at dimension D, as a stratified set.

    A degenerate n-simplex is c . word_operator(n, word) for exactly one
    nondegenerate c of lower dimension and one word; tabulating those from
    the layers below gives every degenerate simplex its normal form, and the
    simplices of layer n left out of that table are the nondegenerate ones.
    The edges are flagged last, on the built set.
    """
    normal: dict[NerveSimplex, tuple[NerveSimplex, tuple[int, ...]]] = {}
    cores: list[list[NerveSimplex]] = []
    layer = [NerveSimplex(E, 0, (o,), {}) for o in E.objects]
    for n in range(D + 1):
        if n:
            layer = nerve_simplices(E, layer)
        for k, below in enumerate(cores):
            for word in surjection_words(n, k):
                for c in below:
                    normal[nerve_act(c, _wop(n, word))] = (c, word)
        cores.append([f for f in layer if f not in normal])
    ids = {f: f"N{n}.{i}" for n, layer in enumerate(cores) for i, f in enumerate(layer)}
    dims = {ids[f]: n for n, layer in enumerate(cores) for f in layer}
    faces = {}
    for n, layer in enumerate(cores[1:], 1):
        for f in layer:
            images = (nerve_act(f, delta(n, j)) for j in range(n + 1))
            normals = (normal.get(face, (face, ())) for face in images)
            faces[ids[f]] = tuple(Simplex(ids[core], word) for core, word in normals)
    tops = (f for layer in cores[2:] for f in layer)
    thin = [ids[f] for f in tops if E.hom(f.obj[0], f.obj[-1]).is_thin(recover_arrow(f))]
    N = FiniteStratifiedSet(D, dims, faces, thin)
    return make_thin(N, [e for e in N.cells_of_dim(1) if _has_inverse(N, e)])


def _has_inverse(N: FiniteStratifiedSet, e) -> bool:
    """Whether the edge e from x to y is an equivalence: thin 2-simplices u and v
    with faces (d_2, d_1, d_0) equal to (e, id_x, back) and (back, id_y, e)."""
    y, x = (s.cell for s in N.faces[e])
    for u in N.fillers(2, {2: Simplex(e), 1: Simplex(x, (0,))}, True):
        back = N.face(u, 0)
        witness = N.fillers(2, {2: back, 0: Simplex(e), 1: Simplex(y, (0,))}, True)
        if next(witness, None) is not None:
            return True
    return False


# -- the suspension comparison functor and the faithfulness probe --------------


def yoneda_composite(E: EnrichedCategory, x: Simplex, n: int) -> NerveSimplex:
    """The (n+1)-simplex of the nerve classified by an n-arrow of hom(0, 1).

    This is the composite of the suspension comparison functor with the
    functor out of the suspended n-simplex that names x.
    """
    hom01 = E.hom("0", "1")
    obj = tuple("0" if r <= n else "1" for r in range(n + 2))

    def image(r: int, w: tuple, m: int) -> Simplex:
        if not r <= n < r + len(w):
            return E.identity_simplex(obj[r], m)
        return hom01.act(x, comparison_operator(w, r, n, m))

    return _functor(E, n + 1, obj, image)


def recover_arrow(f: NerveSimplex) -> Simplex:
    """Evaluate an (n+1)-simplex of the nerve at the top special simplex."""
    return f.eval_arrow(0, special_arrow(f.n - 1), f.n - 1)