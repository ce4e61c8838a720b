"""Constructors for the named stratified sets: simplices, horns, and cubes.

A cell of a standard simplex is its vertex tuple, a ``Vertices`` spelled
``0.1.3``.  Cube cells are functions w from positions 1..n into the doubly
pointed set {-, +, 1..m}; position i records which m-simplex of the 1-simplex
sits in ordinate i.  Ordinates are indexed from the right, so the vertex tuple
of a cube cell prints as (a_n, ..., a_1).  A cell is degenerate exactly when w
misses some integer below m.  A cube cell is a ``Coords``, the string
``w(1),...,w(n)`` alone, sorted and written to JSON as is; its w is read back
from the spelling, and code that reads many cells reads each one's w once.
``cube`` grows cells as one-letter codes and builds faces a column at a time.

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

from functools import lru_cache
from itertools import combinations, compress, repeat

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
    Cell,
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    SubsetHandle,
    regular_generated,
    make_thin,
    subset_to_set,
)

# -- standard simplices ----------------------------------------------------


class Vertices(Cell):
    """A cell of a standard simplex: its increasing vertex tuple, spelled 0.1.3."""

    def __str__(self) -> str:
        return ".".join(map(str, self))


@lru_cache(maxsize=None)
def standard(n: int) -> FiniteStratifiedSet:
    """The standard n-simplex; only degenerate simplices are thin."""
    if n < 0:
        raise OutOfRange("standard simplex needs n >= 0")
    dims = {}
    faces = {}
    made: dict[tuple[int, ...], Simplex] = {}  # each cell's simplex, keyed by its vertices
    for d in range(n + 1):
        for comb in combinations(range(n + 1), d + 1):
            cell = Vertices(comb)
            dims[cell] = d
            if d >= 1:
                faces[cell] = tuple([made[comb[:j] + comb[j + 1 :]] for j in range(d + 1)])
            made[comb] = Simplex(cell)
    return FiniteStratifiedSet(n, dims, faces)


def boundary(n: int) -> FiniteStratifiedSet:
    X = standard(n)
    seeds = [c for c in X.cells() if X.dims[c] == n - 1]
    return subset_to_set(regular_generated(X, seeds))


def standard_thin(n: int) -> FiniteStratifiedSet:
    X = standard(n)
    return make_thin(X, [Vertices(range(n + 1))])


# -- complicial simplices and horns ----------------------------------------


@lru_cache(maxsize=None)
def complicial(n: int, k: int) -> FiniteStratifiedSet:
    """The k-complicial n-simplex: thin faces are the k-admissible ones."""
    if n < 1 or not 0 <= k <= n:
        raise OutOfRange(f"complicial simplex needs n >= 1, k in [n]; got {(n, k)}")
    X = standard(n)
    needed = admissible_vertices(n, k)
    thin = [
        c for c in X.cells() if X.dims[c] >= 1 and needed <= set(c)
    ]
    return make_thin(X, thin)


def horn(n: int, k: int) -> FiniteStratifiedSet:
    """The k-complicial horn: all faces of the complicial simplex except the kth."""
    X = complicial(n, k)
    seeds = [
        Vertices(v for v in range(n + 1) if v != j)
        for j in range(n + 1)
        if j != k
    ]
    return subset_to_set(regular_generated(X, seeds))


# -- cube cells -------------------------------------------------------------

_READ = {MINUS: MINUS, PLUS: PLUS} | {str(v): v for v in range(1, 10)}  # one-letter spellings


class Coords(str):
    """A cube or hom cell: the string w(1),...,w(n) of its coordinates w, each spelled
    by ``str``, or of a code's letters; it holds no other state, and w is read back."""

    __slots__ = ()

    def __new__(cls, w):
        return str.__new__(cls, ",".join(w if w.__class__ is str else map(str, w)))

    @property
    def w(self) -> tuple[CubeCoordinate, ...]:
        """The coordinates, parsed from the spelling."""
        return tuple([_READ[v] if v in _READ else int(v) for v in self.split(",")]) if self else ()


def is_partial_bijection(w: tuple[CubeCoordinate, ...], m: int) -> bool:
    ints = [v for v in w if v not in (MINUS, PLUS)]
    return sorted(ints) == list(range(1, m + 1))


def cube_thin(w: tuple[CubeCoordinate, ...] | str, m: int) -> bool:
    """Directed-cube thinness of w, a word in -, +, 1..m (else OutOfRange) or its code:
    some u < v with all u-positions below all v-positions, that is, the first position of
    some v lies above the least last position of the integers below v present in w."""
    letters = "123456789"[:m] if m <= 9 else "".join(map(chr, range(49, 49 + m)))
    code = w if w.__class__ is str else "".join(  # "0" stands for a non-coordinate
        [chr(48 + v) if v.__class__ is int and 0 < v <= m else v if v in (MINUS, PLUS) else "0"
         for v in w]
    )
    if code.strip(MINUS + PLUS + letters):
        raise OutOfRange(f"{w!r} is not a word in -, +, 1..{m}")
    least = len(code)  # the least last position of the integers below v
    for a in letters:
        if (first := code.find(a)) >= 0:
            if first > least:
                return True
            least = min(least, code.rfind(a))
    return False


def cube_normal_form(
    w: tuple[CubeCoordinate, ...], q: int
) -> tuple[tuple[CubeCoordinate, ...], tuple[int, ...]]:
    """EZ normal form of a cube function at dimension q, a word in -, +, 1..q (else
    OutOfRange): the coordinates of its nondegenerate core and its degeneracy word."""
    if not {*w} <= {MINUS, PLUS, *range(1, q + 1)}:
        raise OutOfRange(f"{w} is not a word in -, +, 1..{q}")
    present = sorted({v for v in w if v not in (MINUS, PLUS)})
    if present == list(range(1, q + 1)):
        return w, ()
    relabel = {v: i + 1 for i, v in enumerate(present)}
    core = tuple(v if v in (MINUS, PLUS) else relabel[v] for v in w)
    missing = [v for v in range(1, q + 1) if v not in relabel]
    return core, tuple(sorted((v - 1 for v in missing), reverse=True))


def _codes(n: int, m: int) -> list[str]:
    """The codes of the m-cells of cube(n), v written chr(48 + v): the words of length n
    in -, +, 1..m that take every integer value, in ``itertools.product`` order, grown a
    position at a time; a prefix goes once fewer positions are left than it misses integers."""
    alphabet = [(MINUS, 0), (PLUS, 0)] + [(chr(48 + v), 1 << v) for v in range(1, m + 1)]
    level = [("", sum(bit for _, bit in alphabet))]
    for left in reversed(range(n)):
        level = [
            (p + a, rest)
            for p, missing in level
            for a, bit in alphabet
            if (rest := missing & ~bit).bit_count() <= left
        ]
    return [p for p, _ in level]


@lru_cache(maxsize=None)
def cube(n: int) -> FiniteStratifiedSet:
    """The n-fold tensor power of the 1-simplex with its directed stratification.

    Its m-cells are the surjective words, grown as codes, one letter per coordinate
    (v is chr(48 + v), its digit for v <= 9, so a code spells its cell).  Every face of
    one is nondegenerate, a cell itself: an inner face merges j and j + 1, an outer face
    turns 1 or m into a sign and shifts the rest down.  So the jth face column is every
    code translated by a table that ``rho_precompose(v, delta(m, j))`` fills in once per
    (m, j), letter by letter, and read in the level below; thinness is read off the code."""
    if n < 0:
        raise OutOfRange("cube needs n >= 0")
    dims = {}
    faces = {}
    thin = []
    below: dict[str, Simplex] = {}  # the level below: each (m-1)-cell's simplex, keyed by code
    for m in range(n + 1):
        letter = {MINUS: MINUS, PLUS: PLUS} | {v: chr(48 + v) for v in range(1, m + 1)}
        tables = [
            str.maketrans({a: letter[rho_precompose(v, d)] for v, a in letter.items()})
            for d in (delta(m, j) for j in range(m + 1))
        ]
        codes = _codes(n, m)
        words = codes if m <= 9 else [[_READ.get(a) or ord(a) - 48 for a in c] for c in codes]
        cells = list(map(Coords, words))
        dims.update(zip(cells, repeat(m)))
        if m:
            columns = [map(below.__getitem__, map(str.translate, codes, repeat(t))) for t in tables]
            faces.update(zip(cells, zip(*columns)))
            thin += compress(cells, map(cube_thin, codes, repeat(m)))
        below = dict(zip(codes, map(Simplex, cells)))
    return FiniteStratifiedSet(n, dims, faces, thin)


def classify_cube_simplex(w: tuple[CubeCoordinate, ...], m: int) -> str:
    """One of 'degenerate', 'special', 'thin', 'plain' for the m-simplex w of a cube,
    a word in -, +, 1..m: special is a partial bijection that is not thin."""
    if cube_normal_form(w, m)[1]:
        return "degenerate"
    if cube_thin(w, m):
        return "thin"
    return "special" if is_partial_bijection(w, m) else "plain"


# -- vertex labels -----------------------------------------------------------

# Vertex tuples print in ordinate order (a_n, ..., a_1): leftmost entry is the
# highest ordinate, matching the tuple notation for cube elements.


def vertex_chain(w: tuple[CubeCoordinate, ...], m: int) -> tuple[tuple[int, ...], ...]:
    ops = [rho_operator(v, m) for v in reversed(w)]
    return tuple(tuple(op.values[t] for op in ops) for t in range(m + 1))


# -- the comparison map onto the standard simplex ----------------------------


def comparison_operator(
    w: tuple[CubeCoordinate, ...], lower: int, n: int, m: int
) -> Operator:
    """The operator [m] -> [n] naming the m-simplex of the standard n-simplex that a
    cube function on (lower, ...] goes to.

    Vertex t goes to the least n - i over the positions lower < i <= n whose
    coordinate is 0 at t, or to n - lower when there is none: an arrow from
    lower names what the arrows through lower name.
    """
    span = list(zip(range(lower + 1, n + 1), w))
    # coordinate v is 0 at vertex t
    values = (
        min((n - i for i, v in span if v == MINUS or (v != PLUS and t < v)), default=n - lower)
        for t in range(m + 1)
    )
    return Operator(m, n, tuple(values))


def c_map(n: int) -> StratifiedMap:
    """The stratified comparison map from the n-cube to the standard n-simplex."""
    C, D = cube(n), standard(n)
    top = Simplex(Vertices(range(n + 1)))
    assignment = {c: D.act(top, comparison_operator(c.w, 0, n, C.dims[c])) for c in C.cells()}
    return StratifiedMap(C, D, assignment)


# -- the C / H family ---------------------------------------------------------


def _criterion_i(w: tuple[CubeCoordinate, ...]) -> bool:
    """An interior minus flanked by integers: a minus between the first and last integer."""
    ints = [i for i, v in enumerate(w) if v not in (MINUS, PLUS)]
    return bool(ints) and MINUS in w[ints[0] + 1 : ints[-1]]


def _criterion_ii(w: tuple[CubeCoordinate, ...], k: int) -> bool:
    """An integer in ordinate k with no plus in ordinates k - 1 and k + 1."""
    return w[k - 1] not in (MINUS, PLUS) and PLUS not in w[max(k - 2, 0) : k + 1]


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
    for c in X.cells():
        m = X.dims[c]
        if m == 0 or c in X.thin:
            continue
        if is_partial_bijection(w := c.w, m) and (_criterion_i(w) or _criterion_ii(w, k)):
            extra.append(c)
    return make_thin(X, extra)


def in_big_H(w: tuple[CubeCoordinate, ...], k: int) -> bool:
    """A minus in some ordinate, or a plus in an ordinate other than k."""
    return MINUS in w or PLUS in w[: k - 1] or PLUS in w[k:]


def big_H(n: int, k: int) -> SubsetHandle:
    """The horn-shaped regular subset of C^k_n."""
    X = big_C(n, k)
    members = [c for c in X.cells() if in_big_H(c.w, k)]
    return SubsetHandle(X, frozenset(members), frozenset(members) & X.thin)


def special_w(n: int, i: int) -> Coords:
    """The unique order reversing partial bijection with a plus in ordinate i."""
    if not 1 <= i <= n:
        raise OutOfRange(f"special index {i} not in 1..{n}")
    w = tuple(
        PLUS if p == i else (n + 1 - p if p > i else n - p) for p in range(1, n + 1)
    )
    return Coords(w)


def special_top(n: int) -> Coords:
    """The order reversing bijection: the unique non-thin top cell of the cube."""
    return Coords(tuple(n - p + 1 for p in range(1, n + 1)))


def C_dot(n: int, k: int) -> FiniteStratifiedSet:
    X = big_C(n, k)
    extra = [special_w(n, i) for i in (k - 1, k + 1) if 1 <= i <= n]
    return make_thin(X, extra)


def C_ddot(n: int, k: int) -> FiniteStratifiedSet:
    X = C_dot(n, k)
    return make_thin(X, [special_w(n, k)])
