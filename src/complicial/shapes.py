"""Constructors for the named stratified sets: simplices, horns, and cubes.

Cube cells are functions w from positions 1..n into the doubly pointed set
{-, +, 1..m}; position i records which m-simplex of the 1-simplex sits in
ordinate i.  Ordinates are indexed from the right, so the vertex tuple of a
cube cell prints as (a_n, ..., a_1).  A cell is degenerate exactly when w
misses some integer below m.

Thinness of the directed cube: a nondegenerate cell is thin iff there are
integers u < v such that every w-position carrying u lies strictly below
every position carrying v (so the cell factors, up to degeneracy, across a
tensor split whose two halves are degenerate in crossing ways).  On partial
bijections this is the usual condition "not order reversing", and on the
square it agrees with the two-factor criterion for the lax tensor of two
1-simplices; see the stratifiedness of the comparison map onto the standard
simplex for the consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import OutOfRange
from .operators import (
    MINUS,
    PLUS,
    CubeCoordinate,
    Operator,
    admissible_vertices,
    delta,
    rho_operator,
    rho_precompose,
)
from .stratified import (
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    SubsetHandle,
    regular_generated,
    make_thin,
    subset_to_set,
)

# -- standard simplices ----------------------------------------------------


def _vertex_tuple(cell: str) -> tuple[int, ...]:
    return tuple(int(t) for t in cell.split("."))


def _simplex_cell(vertices: tuple[int, ...]) -> str:
    return ".".join(map(str, vertices))


@lru_cache(maxsize=None)
def standard(n: int) -> FiniteStratifiedSet:
    """The standard n-simplex; only degenerate simplices are thin."""
    if n < 0:
        raise OutOfRange("standard simplex needs n >= 0")
    dims = {}
    faces = {}
    for d in range(n + 1):
        for comb in _subsets(n, d + 1):
            cid = _simplex_cell(comb)
            dims[cid] = d
            if d >= 1:
                faces[cid] = tuple(
                    Simplex(_simplex_cell(comb[:j] + comb[j + 1 :])) for j in range(d + 1)
                )
    return FiniteStratifiedSet(n, dims, faces)


def _subsets(n: int, size: int):
    from itertools import combinations

    return [tuple(c) for c in combinations(range(n + 1), size)]


def simplex_of_operator(alpha: Operator) -> Simplex:
    """The simplex of the standard target simplex named by an operator."""
    from .operators import ez_factorize

    _, degens = ez_factorize(alpha)
    vs = tuple(sorted(set(alpha.values)))
    return Simplex(_simplex_cell(vs), degens)


def operator_of_simplex(X: FiniteStratifiedSet, s: Simplex, q: int) -> Operator:
    """Inverse of simplex_of_operator for simplices of a standard simplex."""
    from .operators import compose_ops, word_operator

    vs = _vertex_tuple(s.cell)
    inj = Operator(len(vs) - 1, max_vertex(X), vs)
    if not s.word:
        return inj
    return compose_ops(inj, word_operator(q, s.word))


def max_vertex(X: FiniteStratifiedSet) -> int:
    return max(_vertex_tuple(c)[0] for c in X.cells_of_dim(0))


def boundary(n: int) -> FiniteStratifiedSet:
    X = standard(n)
    seeds = [c for c in X.cells() if X.dims[c] == n - 1]
    return subset_to_set(regular_generated(X, seeds))


def standard_thin(n: int) -> FiniteStratifiedSet:
    X = standard(n)
    return make_thin(X, [_simplex_cell(tuple(range(n + 1)))])


# -- complicial simplices and horns ----------------------------------------


@lru_cache(maxsize=None)
def complicial(n: int, k: int) -> FiniteStratifiedSet:
    """The k-complicial n-simplex: thin faces are the k-admissible ones."""
    if n < 1 or not 0 <= k <= n:
        raise OutOfRange(f"complicial simplex needs n >= 1, k in [n]; got {(n, k)}")
    X = standard(n)
    needed = admissible_vertices(n, k)
    thin = [
        c for c in X.cells() if X.dims[c] >= 1 and needed <= set(_vertex_tuple(c))
    ]
    return make_thin(X, thin)


def complicial_primed(n: int, k: int) -> FiniteStratifiedSet:
    if n < 2:
        raise OutOfRange("primed variants need n >= 2")
    X = complicial(n, k)
    extra = [
        _simplex_cell(tuple(v for v in range(n + 1) if v != j))
        for j in sorted(admissible_vertices(n, k) - {k})
    ]
    return make_thin(X, extra)


def complicial_dprimed(n: int, k: int) -> FiniteStratifiedSet:
    X = complicial_primed(n, k)
    return make_thin(X, [_simplex_cell(tuple(v for v in range(n + 1) if v != k))])


def horn(n: int, k: int) -> FiniteStratifiedSet:
    """The k-complicial horn: all faces of the complicial simplex except the kth."""
    X = complicial(n, k)
    seeds = [
        _simplex_cell(tuple(v for v in range(n + 1) if v != j))
        for j in range(n + 1)
        if j != k
    ]
    return subset_to_set(regular_generated(X, seeds))


# -- cube cells -------------------------------------------------------------


@dataclass(frozen=True)
class CubeFunction:
    """A function (r, s] -> {-, +, 1..m}; encodes an m-simplex of a cube."""

    lower: int
    upper: int
    m: int
    w: tuple[CubeCoordinate, ...]

    def __post_init__(self):
        if len(self.w) != self.upper - self.lower:
            raise OutOfRange("cube function length does not match its interval")

    def value(self, i: int) -> CubeCoordinate:
        if not self.lower < i <= self.upper:
            raise OutOfRange(f"position {i} outside ({self.lower},{self.upper}]")
        return self.w[i - self.lower - 1]

    def integer_positions(self) -> dict[int, list[int]]:
        pos: dict[int, list[int]] = {}
        for i, v in enumerate(self.w, start=self.lower + 1):
            if v not in (MINUS, PLUS):
                pos.setdefault(v, []).append(i)
        return pos


def cube_cell_id(w: tuple[CubeCoordinate, ...]) -> str:
    return ",".join(str(v) for v in w)


def parse_cube_cell(cid: str) -> tuple[CubeCoordinate, ...]:
    if not cid:
        return ()
    out: list[CubeCoordinate] = []
    for tok in cid.split(","):
        out.append(tok if tok in (MINUS, PLUS) else int(tok))
    return tuple(out)


def cube_dim(w: tuple[CubeCoordinate, ...]) -> int:
    return max((v for v in w if v not in (MINUS, PLUS)), default=0)


def is_integer_surjective(w: tuple[CubeCoordinate, ...], m: int) -> bool:
    ints = {v for v in w if v not in (MINUS, PLUS)}
    return ints == set(range(1, m + 1))


def is_partial_bijection(w: tuple[CubeCoordinate, ...], m: int) -> bool:
    ints = [v for v in w if v not in (MINUS, PLUS)]
    return sorted(ints) == list(range(1, m + 1))


def is_order_reversing(w: tuple[CubeCoordinate, ...]) -> bool:
    ints = [v for v in w if v not in (MINUS, PLUS)]
    return all(ints[i] >= ints[j] for i in range(len(ints)) for j in range(i + 1, len(ints)))


def cube_thin(w: tuple[CubeCoordinate, ...], m: int) -> bool:
    """Directed-cube thinness: some u < v with all u-positions below all v-positions."""
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


def cube_face(w: tuple[CubeCoordinate, ...], m: int, j: int) -> tuple[CubeCoordinate, ...]:
    """The jth face of the m-simplex w of a cube, coordinatewise (not in normal form)."""
    d = delta(m, j)
    return tuple(rho_precompose(v, d) for v in w)


def cube_normal_form(w: tuple[CubeCoordinate, ...], q: int) -> Simplex:
    """EZ normal form of an arbitrary cube function at dimension q."""
    present = sorted({v for v in w if v not in (MINUS, PLUS)})
    if present == list(range(1, q + 1)):
        return Simplex(cube_cell_id(w), ())
    relabel = {v: i + 1 for i, v in enumerate(present)}
    core = tuple(v if v in (MINUS, PLUS) else relabel[v] for v in w)
    missing = [v for v in range(1, q + 1) if v not in relabel]
    word = tuple(sorted((v - 1 for v in missing), reverse=True))
    return Simplex(cube_cell_id(core), word)


@lru_cache(maxsize=None)
def cube(n: int) -> FiniteStratifiedSet:
    """The n-fold tensor power of the 1-simplex with its directed stratification."""
    if n < 0:
        raise OutOfRange("cube needs n >= 0")
    dims = {}
    faces = {}
    thin = []
    for m in range(n + 1):
        alphabet = [MINUS, PLUS] + list(range(1, m + 1))
        for w in product(alphabet, repeat=n):
            if not is_integer_surjective(w, m):
                continue
            cid = cube_cell_id(w)
            dims[cid] = m
            if m >= 1:
                faces[cid] = tuple(
                    cube_normal_form(cube_face(w, m, j), m - 1) for j in range(m + 1)
                )
                if cube_thin(w, m):
                    thin.append(cid)
    return FiniteStratifiedSet(n, dims, faces, thin)


def classify_cube_simplex(n: int, f: CubeFunction) -> str:
    """One of 'degenerate', 'special', 'thin', 'plain'."""
    if len(f.w) != n:
        raise OutOfRange("cube function does not span (0,n]")
    if not is_integer_surjective(f.w, f.m):
        return "degenerate"
    if is_partial_bijection(f.w, f.m) and is_order_reversing(f.w):
        return "special"
    if cube_thin(f.w, f.m):
        return "thin"
    return "plain"


# -- vertex labels -----------------------------------------------------------

# Vertex tuples print in ordinate order (a_n, ..., a_1): leftmost entry is the
# highest ordinate, matching the tuple notation for cube elements.


def cube_vertex_label(w: tuple[CubeCoordinate, ...], t: int, m: int) -> tuple[int, ...]:
    coords = []
    for v in reversed(w):
        coords.append(rho_operator(v, m).values[t])
    return tuple(coords)


def vertex_chain(w: tuple[CubeCoordinate, ...], m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(cube_vertex_label(w, t, m) for t in range(m + 1))


def cell_from_vertex_chain(chain) -> str:
    """Cube cell id from its vertex tuples (a_n, ..., a_1), one per simplex vertex."""
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
    return cube_cell_id(tuple(w))


def parse_vertex_chain(text: str) -> str:
    """Cell id from a printed chain like '(0,0,0)<(0,1,1)<(1,1,1)'."""
    verts = []
    for part in text.replace(" ", "").split("<"):
        part = part.strip("()")
        verts.append(tuple(int(t) for t in part.split(",")))
    return cell_from_vertex_chain(verts)


# -- the comparison map onto the standard simplex ----------------------------


def comparison_simplex(
    w: tuple[CubeCoordinate, ...], lower: int, n: int, m: int
) -> Simplex:
    """The m-simplex of the standard n-simplex that a cube function on (lower, ...] names.

    Vertex t goes to the least n - i over the positions lower < i <= n whose
    coordinate is 0 at t, or to n when there is none.
    """
    values = []
    for t in range(m + 1):
        zeros = [
            n - i
            for i in range(lower + 1, n + 1)
            if rho_operator(w[i - lower - 1], m).values[t] == 0
        ]
        values.append(min([n] + zeros))
    return simplex_of_operator(Operator(m, n, tuple(values)))


def c_map(n: int) -> StratifiedMap:
    """The stratified comparison map from the n-cube to the standard n-simplex."""
    C = cube(n)
    assignment = {
        cid: comparison_simplex(parse_cube_cell(cid), 0, n, C.dims[cid]) for cid in C.cells()
    }
    return StratifiedMap(C, standard(n), assignment)


# -- the C / H family ---------------------------------------------------------


def _criterion_i(w: tuple[CubeCoordinate, ...]) -> bool:
    n = len(w)
    for l in range(2, n):
        if w[l - 1] != MINUS:
            continue
        if any(w[i - 1] not in (MINUS, PLUS) for i in range(1, l)) and any(
            w[j - 1] not in (MINUS, PLUS) for j in range(l + 1, n + 1)
        ):
            return True
    return False


def _criterion_ii(w: tuple[CubeCoordinate, ...], n: int, k: int) -> bool:
    if w[k - 1] in (MINUS, PLUS):
        return False
    for i in (k - 1, k + 1):
        if 1 <= i <= n and w[i - 1] == PLUS:
            return False
    return True


@lru_cache(maxsize=None)
def big_C(n: int, k: int) -> FiniteStratifiedSet:
    """The stratified cube with the extra thinness forced on partial bijections.

    Criteria: (i) an interior minus flanked by integers, or (ii) an integer
    in ordinate k with no plus adjacent to it.  Both are applied to partial
    bijections of every dimension; other cells keep the cube stratification.
    """
    if n < 2 or not 1 <= k <= n:
        raise OutOfRange(f"C^k_n needs n >= 2, 1 <= k <= n; got {(n, k)}")
    X = cube(n)
    extra = []
    for cid in X.cells():
        m = X.dims[cid]
        if m == 0 or cid in X.thin:
            continue
        w = parse_cube_cell(cid)
        if not is_partial_bijection(w, m):
            continue
        if _criterion_i(w) or _criterion_ii(w, n, k):
            extra.append(cid)
    return make_thin(X, extra)


def in_big_H(w: tuple[CubeCoordinate, ...], k: int) -> bool:
    return any(
        v == MINUS or (i != k and v == PLUS) for i, v in enumerate(w, start=1)
    )


def big_H(n: int, k: int) -> SubsetHandle:
    """The horn-shaped regular subset of C^k_n."""
    X = big_C(n, k)
    members = [c for c in X.cells() if in_big_H(parse_cube_cell(c), k)]
    return SubsetHandle(X, frozenset(members), frozenset(members) & X.thin)


def special_w(n: int, i: int) -> CubeFunction:
    """The unique order reversing partial bijection with a plus in ordinate i."""
    if not 1 <= i <= n:
        raise OutOfRange(f"special index {i} not in 1..{n}")
    w = tuple(
        PLUS if p == i else (n + 1 - p if p > i else n - p) for p in range(1, n + 1)
    )
    return CubeFunction(0, n, n - 1, w)


def special_top(n: int) -> CubeFunction:
    """The order reversing bijection: the unique non-thin top cell of the cube."""
    return CubeFunction(0, n, n, tuple(n - p + 1 for p in range(1, n + 1)))


def C_dot(n: int, k: int) -> FiniteStratifiedSet:
    X = big_C(n, k)
    extra = [
        cube_cell_id(special_w(n, i).w) for i in (k - 1, k + 1) if 1 <= i <= n
    ]
    return make_thin(X, extra)


def C_ddot(n: int, k: int) -> FiniteStratifiedSet:
    X = C_dot(n, k)
    return make_thin(X, [cube_cell_id(special_w(n, k).w)])
