"""Reference definitions the tests check the package against.

No command, suite item, demo or benchmark job calls these, so they live
beside the tests rather than in ``src/complicial``: independent recomputations
(operator words, the presheaf action composed through operators, the
opposite of a set, tower replays, the recursive tower search, exhaustive map
enumeration, the primed complicial simplices, the split of a path arrow into
indecomposables, the nerve layers stacked from dimension 0, the witness search
for thin nerve edges, the linear boundary
scan that the face index of ``fillers`` replaced, the directed cube built by
testing every word and acting on every face, cube thinness tested on every
pair of integers, the enrichment law loops run to
the cap on every triple), the cube-cell rules the package states once and
the tests restate on their own (``cube_face``, a face by composing operators;
``is_integer_surjective``, nondegeneracy; ``is_order_reversing``, the special
partial bijections), fixtures
(enriched functors, the terminal enriched category, the discrete enrichment of
a finite category, a category counting its compositions) and spellings in the
paper's notation (vertex chains, path arrows).  Test modules import them
by name; pytest does not collect this file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Hashable, Iterator, Mapping

from complicial.anodyne import (
    STEP_KINDS,
    AnodyneCertificate,
    Step,
    _applied,
    _start_problem,
    _step_violation,
    verify_certificate,
)
from complicial.enriched import (
    EnrichedCategory,
    FiniteCategory,
    degenerate_word,
    make_enriched,
    point_set,
)
from complicial.errors import (
    BadInterval,
    CapExceeded,
    LawViolation,
    Mismatch,
    OutOfRange,
    UnknownCell,
)
from complicial.nerve import NerveSimplex, nerve_act, nerve_simplices, recover_arrow
from complicial.operators import (
    MINUS,
    PLUS,
    Operator,
    admissible_vertices,
    compose_ops,
    delta,
    ez_factorize,
    rho_operator,
    sigma,
    word_operator,
)
from complicial.shapes import (
    Coords,
    Vertices,
    complicial,
    cube_normal_form,
)
from complicial.stratified import (
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    SubsetHandle,
    gray_product,
    make_thin,
)

# -- operators ---------------------------------------------------------------


def identity(n: int) -> Operator:
    return Operator(n, n, tuple(range(n + 1)))


def recompose(n: int, m: int, faces: tuple[int, ...], degens: tuple[int, ...]) -> Operator:
    """Rebuild the operator [n]->[m] from its normal-form word."""
    op = identity(n)
    for d in degens:
        op = compose_ops(sigma(op.m - 1, d), op)
    for f in faces:
        op = compose_ops(delta(op.m + 1, f), op)
    if op.m != m:
        raise Mismatch(f"word does not target [{m}]")
    return op


# -- stratified sets ---------------------------------------------------------


def act_by_operators(X: FiniteStratifiedSet, s: Simplex, alpha: Operator) -> Simplex:
    """Normal form of s . alpha with no face index: compose alpha after the word
    operator of s, factor the composite, peel its outermost face through the
    stored face table of the cell and recurse on what is left."""
    q = X.simplex_dim(s)
    if alpha.m != q:
        raise Mismatch(f"operator targets [{alpha.m}], simplex has dim {q}")
    beta = compose_ops(word_operator(q, s.word), alpha)
    faces, degens = ez_factorize(beta)
    if not faces:
        return Simplex(s.cell, degens)
    f = faces[-1]
    inner = Operator(beta.n, beta.m - 1, tuple(v - 1 if v > f else v for v in beta.values))
    return act_by_operators(X, X.faces[s.cell][f], inner)


def reversed_simplex(s: Simplex, q: int) -> Simplex:
    """The q-simplex s of X read in opposite(X): flat f of its word becomes q - 1 - f."""
    return Simplex(s.cell, tuple(sorted((q - 1 - f for f in s.word), reverse=True)))


def opposite(X: FiniteStratifiedSet) -> FiniteStratifiedSet:
    """The opposite set, every simplex read with its vertices reversed: the same
    cells and thin flags, a d-cell's face j being face d - j of the cell in X."""
    faces = {
        c: tuple(reversed_simplex(s, X.dims[c] - 1) for s in reversed(X.faces[c])) for c in X.dims
    }
    return FiniteStratifiedSet(X.dim_cap, X.dims, faces, X.thin)


def is_subset_kind(h: SubsetHandle) -> frozenset[str]:
    """Classify a handle as regular and/or entire; {'neither'} otherwise."""
    kinds = set()
    closed = all(s.cell in h.members for c in h.members for s in h.ambient.faces[c])
    if closed and h.thin_members == h.members & h.ambient.thin:
        kinds.add("regular")
    if h.members == frozenset(h.ambient.dims):
        kinds.add("entire")
    return frozenset(kinds) if kinds else frozenset({"neither"})


def fillers_scan(
    X: FiniteStratifiedSet, n: int, faces: Mapping[int, Simplex], thin: bool
) -> Iterator[Simplex]:
    """The n-simplices whose jth face is faces[j] for every given j, only thin
    ones if thin, in simplices_of_dim order: a scan acting on every face slot
    through ``act_by_operators``, so the face index that ``fillers`` reads is
    not consulted."""
    wanted = [(delta(n, j), s) for j, s in faces.items()]
    for z in X.simplices_of_dim(n):
        if (not thin or X.is_thin(z)) and all(
            act_by_operators(X, z, d) == s for d, s in wanted
        ):
            yield z


def enumerate_maps(A: FiniteStratifiedSet, X: FiniteStratifiedSet) -> list[StratifiedMap]:
    """All stratified maps A -> X, in the order induced by (dimension, spelling)."""
    if A.max_dim() > X.dim_cap:
        raise CapExceeded(f"domain dimension {A.max_dim()} exceeds target cap")
    order = A.cells()
    out: list[StratifiedMap] = []
    assignment: dict[Hashable, Simplex] = {}
    partial = StratifiedMap(A, X, assignment)  # the images chosen so far

    def search(i: int) -> None:
        if i == len(order):
            out.append(StratifiedMap(A, X, dict(assignment)))
            return
        cell = order[i]
        faces = {j: partial(s) for j, s in enumerate(A.faces[cell])}
        for img in sorted(X.fillers(A.dims[cell], faces, cell in A.thin), key=X.sort_key):
            assignment[cell] = img
            search(i + 1)
            del assignment[cell]

    search(0)
    return out


# -- shapes ------------------------------------------------------------------


def complicial_primed(n: int, k: int) -> FiniteStratifiedSet:
    if n < 2:
        raise OutOfRange("primed variants need n >= 2")
    X = complicial(n, k)
    extra = [
        Vertices(v for v in range(n + 1) if v != j)
        for j in sorted(admissible_vertices(n, k) - {k})
    ]
    return make_thin(X, extra)


def complicial_dprimed(n: int, k: int) -> FiniteStratifiedSet:
    X = complicial_primed(n, k)
    return make_thin(X, [Vertices(v for v in range(n + 1) if v != k)])


def is_integer_surjective(w: tuple, m: int) -> bool:
    """Whether the word w takes every integer value 1..m: nondegeneracy."""
    ints = {v for v in w if v not in (MINUS, PLUS)}
    return ints == set(range(1, m + 1))


def is_order_reversing(w: tuple) -> bool:
    """Whether the integers of w, read left to right, never increase."""
    ints = [v for v in w if v not in (MINUS, PLUS)]
    return all(ints[i] >= ints[j] for i in range(len(ints)) for j in range(i + 1, len(ints)))


def cube_face(w: tuple, m: int, j: int) -> tuple:
    """The jth face of the m-simplex w of a cube, coordinatewise (not in normal
    form): each coordinate's operator rho_operator(v, m) composed after
    delta(m, j), and read back as the coordinate of the composite [m - 1] -> [1]."""
    d = delta(m, j)
    composites = (compose_ops(rho_operator(v, m), d).values for v in w)
    return tuple(MINUS if 1 not in c else PLUS if 0 not in c else c.index(1) for c in composites)


def cube_thin_pairs(w: tuple, m: int) -> bool:
    """Directed-cube thinness tested pair by pair: some u < v in 1..m with every
    u-position below every v-position."""
    last: dict[int, int] = {}
    first: dict[int, int] = {}
    for i, v in enumerate(w):
        if v in (MINUS, PLUS):
            continue
        last[v] = i
        first.setdefault(v, i)
    for u in range(1, m + 1):
        for v in range(u + 1, m + 1):
            if u in last and v in first and last[u] < first[v]:
                return True
    return False


def cube_scan(n: int) -> FiniteStratifiedSet:
    """The n-fold tensor power of the 1-simplex with its directed stratification:
    every word tested for surjectivity, every face acted on and normalised."""
    cells: dict[tuple, Coords] = {}
    dims = {}
    faces = {}
    thin = []
    for m in range(n + 1):
        alphabet = [MINUS, PLUS] + list(range(1, m + 1))
        for w in product(alphabet, repeat=n):
            if not is_integer_surjective(w, m):
                continue
            cell = cells[w] = Coords(w)
            dims[cell] = m
            if m >= 1:
                nfs = (cube_normal_form(cube_face(w, m, j), m - 1) for j in range(m + 1))
                faces[cell] = tuple(Simplex(cells[core], word) for core, word in nfs)
                if cube_thin_pairs(w, m):
                    thin.append(cell)
    return FiniteStratifiedSet(n, dims, faces, thin)


def cell_from_vertex_chain(chain) -> Coords:
    """The cube cell with these vertex tuples (a_n, ..., a_1), one per simplex vertex."""
    chain = [tuple(v) for v in chain]
    n = len(chain[0])
    m = len(chain) - 1
    w = []
    for i in range(1, n + 1):
        column = [vert[n - i] for vert in chain]
        if all(c == 0 for c in column):
            w.append(MINUS)
        elif all(c == 1 for c in column):
            w.append(PLUS)
        else:
            flip = column.index(1)
            if column != [0] * flip + [1] * (m + 1 - flip):
                raise OutOfRange(f"column {column} is not a 1-simplex of dimension {m}")
            w.append(flip)
    return Coords(w)


def comparison_values(w: tuple, lower: int, n: int, m: int) -> tuple[int, ...]:
    """The values of shapes.comparison_operator(w, lower, n, m), each coordinate
    read as the m-simplex rho_operator(v, m) of the 1-simplex: vertex t goes to
    the least n - i, lower < i <= n, with rho of w's coordinate at i 0 at t."""
    values = []
    for t in range(m + 1):
        zeros = [
            n - i
            for i in range(lower + 1, n + 1)
            if rho_operator(w[i - lower - 1], m).values[t] == 0
        ]
        values.append(min([n - lower] + zeros))
    return tuple(values)


def parse_vertex_chain(text: str) -> Coords:
    """The cube cell of a printed chain like '(0,0,0)<(0,1,1)<(1,1,1)'."""
    verts = []
    for part in text.replace(" ", "").split("<"):
        part = part.strip("()")
        verts.append(tuple(int(t) for t in part.split(",")))
    return cell_from_vertex_chain(verts)


# -- coherent path arrows ----------------------------------------------------
#
# An arrow is the triple (r, w, m): the coordinates w over (r, r + len(w)] at
# dimension m, as in complicial.hcpath.


def identity_arrow(r: int, m: int = 0) -> tuple:
    return (r, (), m)


def indecomposable(r: int, s: int, m: int = 0) -> tuple:
    """The generating arrow <r, s>: all plus below a single top minus."""
    if r >= s:
        raise BadInterval("indecomposable needs r < s")
    return (r, (PLUS,) * (s - r - 1) + (MINUS,), m)


def arrow_is_degenerate(a: tuple) -> bool:
    _, w, m = a
    return not is_integer_surjective(w, m)


def arrow_thin(a: tuple) -> bool:
    _, w, m = a
    return cube_thin_pairs(w, m)


def split_at_zeros(r: int, w: tuple) -> list[tuple[int, tuple]]:
    """Unique decomposition of the arrow w from r into indecomposables, as pairs
    (start, coordinates), lowest interval first; the identity has none."""
    if not w:
        return []
    s = r + len(w)
    cuts = [i for i in range(r + 1, s) if w[i - r - 1] == MINUS]
    bounds = [r] + cuts + [s]
    return [(lo, w[lo - r : hi - r]) for lo, hi in zip(bounds, bounds[1:])]


# -- enriched categories and functors ----------------------------------------


def terminal_enriched() -> EnrichedCategory:
    """One object whose homset is the point."""
    pt = point_set()
    P = gray_product(pt, pt)
    assignment = {c: Simplex("*", degenerate_word(P.dims[c])) for c in P.cells()}
    collapse = StratifiedMap(P, pt, assignment)
    return make_enriched(["*"], {("*", "*"): pt}, {"*": "*"}, {("*", "*", "*"): collapse}, 0)


def discrete_enriched(cat: FiniteCategory) -> EnrichedCategory:
    """The category with the arrows from a to b as the 0-dimensional hom(a, b)."""
    homs = {}
    for a, b in product(cat.objects, repeat=2):
        arrows = {f: 0 for f, ends in cat.arrows.items() if ends == (a, b)}
        homs[(a, b)] = FiniteStratifiedSet(0, arrows, {})
    comp = {}
    for a, b, c in product(cat.objects, repeat=3):
        P = gray_product(homs[(b, c)], homs[(a, b)], cap=0)
        assignment = {pair: Simplex(cat.compose(pair[0].cell, pair[1].cell)) for pair in P.cells()}
        comp[(a, b, c)] = StratifiedMap(P, homs[(a, c)], assignment)
    return make_enriched(cat.objects, homs, cat.identities, comp, 0)


class CountingCategory(EnrichedCategory):
    """An enriched category that counts, per key, how often a pair is composed
    (calls, keyed as compose's arguments) and how often a composition map is
    evaluated on it (evaluations, keyed (a, b, c, pair simplex); the pair
    simplex determines the two simplices it holds)."""

    def __init__(self, E: EnrichedCategory):
        self.calls = Counter()
        self.evaluations = Counter()
        comp = {
            key: _CountedMap(m.source, m.target, m.assignment, key, self.evaluations)
            for key, m in E.comp.items()
        }
        super().__init__(E.objects, E.homs, E.identities, comp, E.dim_cap)

    def compose(self, *key):
        self.calls[key] += 1
        return super().compose(*key)


class _CountedMap(StratifiedMap):
    """A composition map at key (a, b, c) adding each evaluation to counter."""

    def __new__(cls, source, target, assignment, key, counter):
        self = super().__new__(cls, source, target, assignment)
        self.key, self.counter = key, counter
        return self

    def __call__(self, s: Simplex) -> Simplex:
        self.counter[self.key + (s,)] += 1
        return super().__call__(s)


def _exhaustive_units(E):
    for a in E.objects:
        for b in E.objects:
            hom = E.homs.get((a, b))
            if hom is None or not hom.dims:
                continue
            for m in range(E.dim_cap + 1):
                for z in hom.simplices_of_dim(m):
                    left = E.compose(a, a, b, z, E.identity_simplex(a, m))
                    right = E.compose(a, b, b, E.identity_simplex(b, m), z)
                    if left != z or right != z:
                        raise LawViolation(f"unit law fails at {z} in hom({a},{b})")


def _exhaustive_associativity(E):
    for a in E.objects:
        for b in E.objects:
            for c in E.objects:
                for d in E.objects:
                    if not all(E.hom(*key).dims for key in ((a, b), (b, c), (c, d))):
                        continue
                    for m in range(E.dim_cap + 1):
                        for z3 in E.hom(c, d).simplices_of_dim(m):
                            for z2 in E.hom(b, c).simplices_of_dim(m):
                                right = E.compose(b, c, d, z3, z2)
                                for z1 in E.hom(a, b).simplices_of_dim(m):
                                    lhs = E.compose(a, b, d, right, z1)
                                    rhs = E.compose(a, c, d, z3, E.compose(a, b, c, z2, z1))
                                    if lhs != rhs:
                                        raise LawViolation(
                                            f"associativity fails at {(z3, z2, z1)}"
                                        )


@dataclass(frozen=True)
class EnrichedFunctor:
    source: EnrichedCategory
    target: EnrichedCategory
    obj_map: Mapping[str, str]
    hom_maps: Mapping[tuple[str, str], StratifiedMap]

    def validate(self, dmax: int | None = None) -> list[str]:
        """Composition is checked on pairs of m-simplices, m <= dmax or dim_cap, and
        m <= hom(b, c).max_dim() + hom(a, b).max_dim(): as in
        enriched._check_associativity, a pair with a common flat is a degeneracy of
        a lower pair, and both sides commute with degeneracies, so stopping there
        is exact."""
        problems = []
        E, F = self.source, self.target
        cap = E.dim_cap if dmax is None else dmax
        for (a, b), hom in E.homs.items():
            if not hom.dims:
                continue
            fm = self.hom_maps.get((a, b))
            if fm is None:
                problems.append(f"missing hom map at {(a, b)}")
                continue
            problems.extend(f"hom({a},{b}): {p}" for p in fm.validate())
        if problems:
            return problems
        for a in E.objects:
            img = self.hom_maps[(a, a)](Simplex(E.identities[a]))
            if img != Simplex(F.identities[self.obj_map[a]]):
                problems.append(f"identity at {a} not preserved")
        for a, b, c in product(E.objects, repeat=3):
            hab, hbc = E.hom(a, b), E.hom(b, c)
            if not (hab.dims and hbc.dims):
                continue
            fa, fb, fc = (self.obj_map[o] for o in (a, b, c))
            for m in range(min(cap, hbc.max_dim() + hab.max_dim()) + 1):
                for z2 in hbc.simplices_of_dim(m):
                    for z1 in hab.simplices_of_dim(m):
                        lhs = self.hom_maps[(a, c)](E.compose(a, b, c, z2, z1))
                        rhs = F.compose(
                            fa, fb, fc, self.hom_maps[(b, c)](z2), self.hom_maps[(a, b)](z1)
                        )
                        if lhs != rhs:
                            problems.append(f"composition not preserved at {(a, b, c)}")
                            return problems
        return problems


# -- certified towers --------------------------------------------------------


def replay_members(cert: AnodyneCertificate) -> tuple[frozenset, frozenset]:
    """Independent recount of the cells and flags a passing tower created."""
    Z = cert.ambient
    members = set(cert.start.members)
    flags = set(cert.start.thin_members)
    for step in cert.steps:
        top = Simplex(step.attach)
        if step.kind in ("horn", "thin-horn"):
            members.add(step.attach)
            flags.add(step.attach)
            kface = Z.act(top, delta(step.n, step.k))
            members.add(kface.cell)
        if step.kind in ("thinness", "thin-horn"):
            kface = Z.act(top, delta(step.n, step.k))
            if not kface.is_degenerate:
                flags.add(kface.cell)
    return frozenset(members), frozenset(flags)


def search_tower_dfs(
    start: SubsetHandle, finish: SubsetHandle, budget: int
) -> AnodyneCertificate | None:
    """Depth-first search for a tower from start to finish, or None: the
    recursive search that ``anodyne.search_tower`` replaced, kept as its oracle.

    Every step (cell, k, kind) is a candidate, tried in that order with the
    cells in the ambient's order.  The budget bounds the steps applied, and
    each subset (members, flags) is expanded at most once.
    """
    if start.ambient is not finish.ambient:
        raise UnknownCell("start and finish live in different ambient sets")
    Z = start.ambient
    if _start_problem(Z, start) is not None:
        return None
    target = (finish.members, finish.thin_members)
    candidates = [
        Step(kind, Z.dims[c], k, c) for c in Z.cells() for k in range(Z.dims[c] + 1)
        for kind in STEP_KINDS
    ]
    expanded = set()
    attempts = 0

    def dfs(members: frozenset, flags: frozenset, steps: tuple) -> tuple[Step, ...] | None:
        nonlocal attempts
        if (members, flags) == target:
            return steps
        expanded.add((members, flags))
        for step in candidates:
            if _step_violation(Z, members, flags, step) is not None:
                continue
            nxt = _applied(Z, members, flags, step)
            if nxt in expanded or not (nxt[0] <= target[0] and nxt[1] <= target[1]):
                continue
            attempts += 1
            found = None if attempts > budget else dfs(*nxt, steps + (step,))
            if found is not None or attempts > budget:
                return found
        return None

    found = dfs(start.members, start.thin_members, ())
    if found is None:
        return None
    cert = AnodyneCertificate(Z, start, finish, found, note="found by search")
    return cert if not verify_certificate(cert) else None


def v_tower_generators() -> list[tuple[str, Hashable]]:
    """The generating cells of the intermediate subsets, as (name, cell)."""
    return [
        ("V1", Coords((1, 1, 2))),
        ("V2", Coords((1, 2, 3))),
        ("V3", Coords((1, 3, 2))),
        ("V4", Coords((2, 3, 1))),
        ("V5", Coords((3, 2, 1))),
        ("V6", Coords((1, PLUS, 2))),
        ("V7", Coords((2, 1, 3))),
        ("full", Coords((3, 1, 2))),
    ]


# -- nerves ------------------------------------------------------------------


@lru_cache(maxsize=None)
def nerve_layer(E: EnrichedCategory, n: int) -> list[NerveSimplex]:
    """The n-simplices of the nerve, degenerate ones included: layer 0 is one
    simplex per object, and each layer extends the one below.  Memoised, so
    callers share the list and must not change it."""
    if n == 0:
        return [NerveSimplex(E, 0, (o,), {}) for o in E.objects]
    return nerve_simplices(E, nerve_layer(E, n - 1))


def nerve_thin(f: NerveSimplex, pool2: list[NerveSimplex]) -> bool:
    """The nerve stratification above dimension one, witnesses at dimension one:
    an edge is thin when pool2, the 2-simplices, holds an equivalence witness pair."""
    if f.n == 0:
        return False
    if f.n >= 2:
        return f.E.hom(f.obj[0], f.obj[f.n]).is_thin(recover_arrow(f))
    return _has_equivalence_inverse(f, pool2)


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
        if not nerve_thin(u, pool):
            continue
        if nerve_act(u, d2) != e or nerve_act(u, d1) != id_x:
            continue
        back = nerve_act(u, d0)
        for v in pool:
            if not nerve_thin(v, pool):
                continue
            if (
                nerve_act(v, d2) == back
                and nerve_act(v, d0) == e
                and nerve_act(v, d1) == id_y
            ):
                return True
    return False
