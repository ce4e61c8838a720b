"""Finite stratified simplicial sets in Eilenberg-Zilber normal form.

A set stores only nondegenerate cells, each with a row in the face table
``faces``: the n + 1 faces of an n-cell, ``()`` for a 0-cell, which a
constructor may leave out.  Every simplex is the pair (cell, degeneracy
word), a named tuple, and all queries are answered through normal forms.
A degeneracy word is the set of flat spots of its surjection, listed
decreasing.  Thinness is a flag on nondegenerate cells of positive dimension,
with degenerate simplices implicitly thin.  The module also provides
stratified maps, regular subsets and the cartesian product (componentwise
thinness), ``gray_product``.

A cell is a hashable value: a string in a set read from JSON, a structured
value in a built one (a product cell is its ``Pair`` of simplices).  Its
spelling ``str(cell)`` serves the JSON writers, which refuse two cells spelled
alike, and the order of cells, which is the order of their spellings.

``FiniteStratifiedSet.fillers`` is the one boundary search, the simplices with
given faces, and ``extensions`` beside it the one backtracking search: nerve
and horn enumeration fill each slot in turn with a filler of the faces already
chosen, and the tower search with a step adding one thin flag.  One face
calculus, ``_face_of``, gives d_j of (cell, word) by the simplicial identities
on words, from the stored faces and ``degenerate``, the one degeneracy rule.
``validate`` checks the stored faces with it; all other faces are read from a
face index built per dimension on its first query: ``rows`` maps each
n-simplex, in ``simplices_of_dim`` order, to its face tuple, and ``having``
maps (j, face) to the simplices with that face at j, in that order.  ``face``,
``fillers``, ``gray_product``, ``act`` and the lifting searches' face walk read
it.  It stays valid because a set is never mutated; ``make_thin`` builds a new one.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    BadParams,
    Mismatch,
    OutOfRange,
    ParseError,
    UnknownCell,
    ZeroDimensional,
)
from .operators import Operator, ez_factorize, surjection_words


class Cell(tuple):
    """A structured cell; it prints as its spelling, the text JSON gives it."""

    def __repr__(self) -> str:
        return repr(str(self))


class Simplex(NamedTuple):
    """EZ normal form: a nondegenerate cell plus a degeneracy word, compared and
    hashed as the tuple (cell, word).  Like a ``Cell``, it equals the plain tuple
    it holds, so no table of the package keys on simplices and other tuples at once."""

    cell: Hashable
    word: tuple[int, ...] = ()

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)


class FiniteStratifiedSet:
    """Nondegenerate cells per dimension, face tables, and thin flags."""

    def __init__(
        self,
        dim_cap: int,
        dims: Mapping[Hashable, int],
        faces: Mapping[Hashable, tuple[Simplex, ...]],
        thin: Iterable[Hashable] = (),
    ):
        self.dim_cap = dim_cap
        self.dims = dict(dims)
        self.faces = {c: tuple(faces.get(c, ())) for c in self.dims}
        self.thin = frozenset(thin)
        grouped: dict[int, list] = {}
        for c in sorted(self.dims, key=str):
            grouped.setdefault(self.dims[c], []).append(c)
        self._by_dim = {d: tuple(grouped[d]) for d in sorted(grouped)}
        self._face_index: dict[int, tuple] = {}

    # -- basic queries -------------------------------------------------

    def cells(self) -> tuple:
        """Every cell, by dimension and then by spelling."""
        return tuple(c for cs in self._by_dim.values() for c in cs)

    def cells_of_dim(self, d: int) -> tuple:
        return self._by_dim.get(d, ())

    @cached_property
    def _rank(self) -> dict[Hashable, int]:
        return {c: i for i, c in enumerate(sorted(self.dims, key=str))}

    def sort_key(self, s: Simplex) -> tuple[int, tuple[int, ...]]:
        """Orders simplices by the spelling of their cell, then by their word."""
        return self._rank[s.cell], s.word

    def dim(self, cell: Hashable) -> int:
        if cell not in self.dims:
            raise UnknownCell(cell)
        return self.dims[cell]

    def max_dim(self) -> int:
        return max(self._by_dim, default=-1)

    def simplex_dim(self, s: Simplex) -> int:
        return self.dim(s.cell) + len(s.word)

    def is_simplex(self, s: Simplex, q: int) -> bool:
        """Whether s is a q-simplex in normal form: its word is in surjection_words."""
        d, w = self.dims.get(s.cell), s.word
        chain = zip((q,) + w, w + (-1,))  # q > w[0] > w[1] > ... > w[-1] >= 0
        return d is not None and len(w) == q - d and all(a > b for a, b in chain)

    def is_thin(self, s: Simplex) -> bool:
        """Thin as a simplex: degenerate, or a flagged cell."""
        return s.is_degenerate or s.cell in self.thin

    def simplices_of_dim(self, q: int) -> Iterator[Simplex]:
        """All q-simplices (including degenerate ones) in normal form."""
        for d in range(min(q, self.max_dim()) + 1):
            for c in self.cells_of_dim(d):
                for w in surjection_words(q, d):
                    yield Simplex(c, w)

    def count_nondegenerate(self) -> dict[int, int]:
        return {d: len(cs) for d, cs in sorted(self._by_dim.items())}

    # -- presheaf action ----------------------------------------------

    def act(self, s: Simplex, alpha: Operator) -> Simplex:
        """Normal form of s . alpha: the faces alpha misses, largest first, then its flats."""
        q = self.simplex_dim(s)
        if alpha.m != q:
            raise Mismatch(f"operator targets [{alpha.m}], simplex has dim {q}")
        missed, flats = ez_factorize(alpha)
        for i in reversed(missed):
            s = self.face(s, i)
        return degenerate(s, flats)

    def _face_of(self, s: Simplex, j: int) -> Simplex:
        """d_j of s = (c, w) by the simplicial identities on words: c with the flat
        j or j - 1 of w dropped, or else the stored face j - #{f in w : f < j} of c
        degenerated by w; either way the flats of w above j are lowered by one."""
        w = s.word
        if j in w or j - 1 in w:
            drop = j if j in w else j - 1
            return Simplex(s.cell, tuple(f - (f > j) for f in w if f != drop))
        below = sum(f < j for f in w)
        return degenerate(self.faces[s.cell][j - below], tuple(f - (f > j) for f in w))

    def _faces_of_dim(self, n: int) -> tuple[dict, dict]:
        """The face index of dimension n, built on its first query: (rows, having), rows
        mapping each n-simplex, in simplices_of_dim order, to its face tuple (a cell's
        stored row), and having mapping (j, s) to the simplices with face s at j, in order."""
        index = self._face_index.get(n)
        if index is None:
            js = range(n + 1)
            rows = {
                z: tuple(self._face_of(z, j) for j in js) if z.word else self.faces[z.cell]
                for z in self.simplices_of_dim(n)
            }
            having: dict[tuple[int, Simplex], list[Simplex]] = {}
            for z, row in rows.items():
                for key in enumerate(row):
                    having.setdefault(key, []).append(z)
            index = self._face_index[n] = (rows, having)
        return index

    def _rows_up_to(self, n: int) -> list[dict]:
        """The rows of the face index of dimensions 0..n, listed by dimension."""
        return [self._faces_of_dim(d)[0] for d in range(n + 1)]

    def face(self, s: Simplex, j: int) -> Simplex:
        """The jth face of s, read from the face index; OutOfRange if s has no face j."""
        row = self._faces_of_dim(self.simplex_dim(s))[0].get(s, ())
        if not 0 <= j < len(row):
            raise OutOfRange(f"no face {j} of {s}")
        return row[j]

    def fillers(self, n: int, faces: Mapping[int, Simplex], thin: bool) -> Iterator[Simplex]:
        """The n-simplices whose jth face is faces[j] for every given j, only thin
        ones if thin, in simplices_of_dim order: the one boundary search.  It walks
        the shortest having list of the given faces (every row if none is given),
        keeping the simplices whose rows hold the other faces."""
        for j in faces:
            if not 0 <= j <= n:
                raise OutOfRange(f"face index {j} not in [{n}]")
        rows, having = self._faces_of_dim(n)
        wanted = list(faces.items())
        for z in min([having.get(key, ()) for key in wanted], key=len, default=rows):
            if thin and not (z.word or z.cell in self.thin):
                continue
            row = rows[z]
            for j, s in wanted:
                if row[j] != s:
                    break
            else:
                yield z

    def face_determined(self, n: int) -> bool:
        """Whether no two n-simplices, degenerate ones included, share faces."""
        rows = self._faces_of_dim(n)[0]
        return len(set(rows.values())) == len(rows)

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Report every violated structural invariant (empty report = pass)."""
        problems: list[str] = []
        for c, d in self.dims.items():
            if d < 0:
                problems.append(f"cell {c}: negative dimension")
            if d > self.dim_cap:
                problems.append(f"cell {c}: dimension {d} exceeds cap {self.dim_cap}")
            fs = self.faces[c]
            want = d + 1 if d >= 1 else 0
            if len(fs) != want:
                problems.append(f"cell {c}: expected {want} faces, got {len(fs)}")
                continue
            for j, s in enumerate(fs):
                if s.cell not in self.dims:
                    problems.append(f"cell {c}: face {j} names unknown cell {s.cell}")
                elif not self.is_simplex(s, d - 1):
                    problems.append(f"cell {c}: face {j} is not a {d - 1}-simplex in normal form")
        if problems:
            return problems
        for c in self.thin:
            if c not in self.dims:
                problems.append(f"thin flag on unknown cell {c}")
            elif self.dims[c] == 0:
                problems.append(f"thin flag on 0-cell {c}")
        # simplicial identities through normal forms
        for c, d in self.dims.items():
            if d < 2:
                continue
            for j in range(d + 1):
                for i in range(j):
                    lhs = self._face_of(self.faces[c][j], i)
                    rhs = self._face_of(self.faces[c][i], j - 1)
                    if lhs != rhs:
                        problems.append(f"cell {c}: identity d{i} d{j} fails")
        return problems


def degenerate(s: Simplex, word: tuple[int, ...]) -> Simplex:
    """s . sigma, sigma the surjection with flat spots word (s if word is empty):
    free[v], the vth spot not in word, goes from v up to v + 1, so the flats of
    the composite are word and free[v] for each flat v of s."""
    if not word:
        return s
    free = [t for t in range(len(word) + max(s.word, default=-1) + 1) if t not in word]
    return Simplex(s.cell, tuple(sorted({*word, *(free[v] for v in s.word)}, reverse=True)))


def extensions(slots: Sequence, candidates: Callable, start: Mapping = {}) -> Iterator[dict]:
    """Every way to give each slot a value, extending start, depth first:
    candidates(slot, assignment) lists the values slot may take once the slots
    before it hold theirs, and the results come in the order of those lists,
    each a fresh dict that also holds start.  One candidate iterator per slot
    is held on a stack, not in recursion: the nerve at n = 6 extends along the
    1,267 generators of the homs into n, past the recursion limit."""
    assignment = dict(start)
    if not slots:
        yield assignment
        return
    stack = [iter(candidates(slots[0], assignment))]
    while stack:
        slot = slots[len(stack) - 1]
        for value in stack[-1]:
            assignment[slot] = value
            if len(stack) == len(slots):
                yield dict(assignment)
            else:
                stack.append(iter(candidates(slots[len(stack)], assignment)))
                break
        else:
            stack.pop()
            assignment.pop(slot, None)


def empty_set() -> FiniteStratifiedSet:
    return FiniteStratifiedSet(0, {}, {})


# -- stratified maps ----------------------------------------------------


class StratifiedMap(NamedTuple):
    source: FiniteStratifiedSet
    target: FiniteStratifiedSet
    assignment: Mapping[Hashable, Simplex]

    def __call__(self, s: Simplex) -> Simplex:
        return degenerate(self.assignment[s.cell], s.word)

    def validate(self) -> list[str]:
        problems = [
            f"image of {c} is missing or not a {d}-simplex of the target"
            for c, d in self.source.dims.items()
            if c not in self.assignment or not self.target.is_simplex(self.assignment[c], d)
        ]
        if problems:
            return problems
        for c, d in self.source.dims.items():
            img = self.assignment[c]
            if c in self.source.thin and not self.target.is_thin(img):
                problems.append(f"thin cell {c} maps to non-thin simplex")
            for j, s in enumerate(self.source.faces[c]):
                if self(s) != self.target.face(img, j):
                    problems.append(f"cell {c}: face {j} does not commute")
        return problems


# -- subsets --------------------------------------------------------------


class SubsetHandle(NamedTuple):
    ambient: FiniteStratifiedSet
    members: frozenset
    thin_members: frozenset


def regular_generated(X: FiniteStratifiedSet, seeds: Iterable[Hashable]) -> SubsetHandle:
    """Smallest face-closed subset containing the seeds, ambient thinness."""
    todo = list(seeds)
    members: set = set()
    while todo:
        c = todo.pop()
        if c not in X.dims:
            raise UnknownCell(c)
        if c in members:
            continue
        members.add(c)
        todo.extend(s.cell for s in X.faces[c])
    return SubsetHandle(X, frozenset(members), frozenset(members) & X.thin)


def make_thin(X: FiniteStratifiedSet, extra: Iterable[Hashable]) -> FiniteStratifiedSet:
    """X with the extra cells flagged thin too, sharing X's cell table, face rows, cell
    order and face index, none of which reads the flags: a set is never mutated."""
    extra = frozenset(extra)
    for c in extra:
        if X.dim(c) == 0:
            raise ZeroDimensional(f"cannot make 0-cell {c} thin")
    Y = FiniteStratifiedSet.__new__(FiniteStratifiedSet)
    vars(Y).update(vars(X), thin=X.thin | extra)
    return Y


def subset_to_set(h: SubsetHandle) -> FiniteStratifiedSet:
    """The subset as a standalone stratified set (cells preserved)."""
    dims = {c: h.ambient.dims[c] for c in h.members}
    cap = max(dims.values(), default=0)
    return FiniteStratifiedSet(cap, dims, h.ambient.faces, h.thin_members)


# -- the cartesian product (componentwise thinness) -------------------------


class Pair(Cell):
    """A cell of a product: the pair (x, y) of simplices, spelled (x|word)(y|word)."""

    def __str__(self) -> str:
        return "".join(f"({s.cell}|{'.'.join(map(str, s.word))})" for s in self)


def product_pair_simplex(sx: Simplex, sy: Simplex) -> Simplex:
    """The simplex of the product X (*) Y holding a pair of q-simplices.

    Its word is the common flats of the two words; its cell is the pair with
    those flats stripped, each remaining flat f moved down by #{c common : c < f}.
    """
    common = set(sx.word) & set(sy.word)
    if not common:
        return Simplex(Pair((sx, sy)))

    def strip(s: Simplex) -> Simplex:
        rest = (f for f in s.word if f not in common)
        return Simplex(s.cell, tuple(f - sum(c < f for c in common) for f in rest))

    word = tuple(f for f in sx.word if f in common)
    return Simplex(Pair((strip(sx), strip(sy))), word)


def gray_product(
    X: FiniteStratifiedSet, Y: FiniteStratifiedSet, cap: int | None = None
) -> FiniteStratifiedSet:
    """Cartesian product in Strat: thin iff both components are thin.

    Its cells are the pairs (x, y) of m-simplices whose words share no flat.
    The m - dim x flats of x and the m - dim y flats of y are disjoint only if
    m <= dim x + dim y, so there are no cells above X.max_dim() + Y.max_dim().
    The faces of (x, y) are the factors' face rows of x and y, zipped.
    """
    if cap is None:
        cap = X.dim_cap + Y.dim_cap
    dims: dict[Pair, int] = {}
    faces: dict[Pair, tuple[Simplex, ...]] = {}
    thin: set[Pair] = set()
    for m in range(min(cap, X.max_dim() + Y.max_dim()) + 1):
        rows_y = Y._faces_of_dim(m)[0]
        for sx, row_x in X._faces_of_dim(m)[0].items():
            fx = set(sx.word)
            for sy, row_y in rows_y.items():
                if not fx.isdisjoint(sy.word):
                    continue
                cell = Pair((sx, sy))
                dims[cell] = m
                faces[cell] = tuple(map(product_pair_simplex, row_x, row_y))
                if X.is_thin(sx) and Y.is_thin(sy):
                    thin.add(cell)
    return FiniteStratifiedSet(cap, dims, faces, thin)


# -- JSON interchange ------------------------------------------------------

_KIND_NAMES = {int: "an int", str: "a string", bool: "a bool", list: "a list", dict: "an object"}


def _has_kind(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def json_field(data, key: str, kind, path: str, default=None):
    """data[key] of loaded JSON, checked to be of kind (int, str, bool, list, dict, [int]
    or [str]); a missing key yields default unless that is None.  ParseError names the
    path, as in ``set.cells[6].faces[0].word: expected a list of int``."""
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object")
    value = data.get(key, default)
    if value is None:
        raise ParseError(f"{path}.{key}: missing or null")
    if not _has_kind(value, kind):
        name = f"a list of {kind[0].__name__}" if isinstance(kind, list) else _KIND_NAMES[kind]
        raise ParseError(f"{path}.{key}: expected {name}")
    return value


def simplex_to_json(s: Simplex) -> dict:
    return {"cell": str(s.cell), "word": list(s.word)}


def simplex_from_json(data, path: str) -> Simplex:
    word = json_field(data, "word", [int], path)
    return Simplex(json_field(data, "cell", str, path), tuple(word))


def spellings(cells: Iterable[Hashable]) -> dict[Hashable, str]:
    """The text of each cell, as JSON spells it; BadParams if two cells share one."""
    text, first = {}, {}
    for c in cells:
        text[c] = t = str(c)
        if first.setdefault(t, c) != c:
            raise BadParams(f"two distinct cells are both spelled {t!r}")
    return text


def set_to_json(X: FiniteStratifiedSet) -> dict:
    """The JSON form set_from_json reads, every cell spelled once; BadParams if two
    cells share a spelling."""
    text = spellings(X.cells())
    cells = []
    for c in X.cells():
        entry = {
            "id": text[c],
            "dim": X.dims[c],
            "thin": c in X.thin,
            "faces": [{"cell": text[s.cell], "word": list(s.word)} for s in X.faces[c]],
        }
        cells.append(entry)
    return {"dim_cap": X.dim_cap, "cells": cells}


def set_json_chunks(X: FiniteStratifiedSet, extra: Mapping | None = None) -> Iterator[str]:
    """The text of ``json.dumps({**set_to_json(X), **extra}, indent=2, sort_keys=True)``,
    one chunk per cell, written from the set without building that dict; BadParams,
    raised by this call before any chunk, if two cells share a spelling."""
    text = {c: encode_basestring_ascii(t) for c, t in spellings(X.cells()).items()}
    return _set_json_text(X, text, {"dim_cap": X.dim_cap, **(extra or {})})


def _set_json_text(X: FiniteStratifiedSet, text: dict, values: dict) -> Iterator[str]:
    """The fixed indented layout of set_json_chunks: cells from the set, the other
    top-level values through the stdlib, indented one level."""
    words = {(): "[]"}  # a degeneracy word -> its indented text
    for i, key in enumerate(sorted(values.keys() | {"cells"})):
        yield f'{"," if i else "{"}\n  {encode_basestring_ascii(key)}: '
        if key != "cells":
            yield json.dumps(values[key], indent=2, sort_keys=True).replace("\n", "\n  ")
            continue
        sep = "["
        for c in X.cells():
            faces = []
            for s in X.faces[c]:
                if s.word not in words:
                    items = ",".join(f"\n            {j}" for j in s.word)
                    words[s.word] = f"[{items}\n          ]"
                faces.append(
                    f'\n        {{\n          "cell": {text[s.cell]},'
                    f'\n          "word": {words[s.word]}\n        }}'
                )
            faces_text = f'[{",".join(faces)}\n      ]' if faces else "[]"
            thin = "true" if c in X.thin else "false"
            yield (
                f'{sep}\n    {{\n      "dim": {X.dims[c]},\n      "faces": {faces_text},'
                f'\n      "id": {text[c]},\n      "thin": {thin}\n    }}'
            )
            sep = ","
        yield "[]" if sep == "[" else "\n  ]"  # no cells: the stdlib writes []
    yield "\n}"


def set_from_json(data, path: str = "set") -> FiniteStratifiedSet:
    """The stratified set a JSON document describes; ParseError unless it is valid."""
    dim_cap = json_field(data, "dim_cap", int, path)
    if dim_cap < 0:
        raise ParseError(f"{path}.dim_cap: must be at least 0")
    dims, faces, thin = {}, {}, []
    for i, entry in enumerate(json_field(data, "cells", list, path)):
        at = f"{path}.cells[{i}]"
        cid = json_field(entry, "id", str, at)
        if cid in dims:
            raise ParseError(f"{at}.id: duplicate cell id {cid!r}")
        dims[cid] = json_field(entry, "dim", int, at)
        fs = json_field(entry, "faces", list, at, [])
        faces[cid] = tuple(simplex_from_json(f, f"{at}.faces[{j}]") for j, f in enumerate(fs))
        if json_field(entry, "thin", bool, at, False):
            thin.append(cid)
    X = FiniteStratifiedSet(dim_cap, dims, faces, thin)
    problems = X.validate()
    if problems:
        raise ParseError(f"{path}: {problems[0]}")
    return X


def subset_to_json(h: SubsetHandle) -> dict:
    return {"members": sorted(map(str, h.members)), "thin": sorted(map(str, h.thin_members))}


def subset_from_json(X: FiniteStratifiedSet, data, path: str) -> SubsetHandle:
    """A subset of X given by its member and thin cell ids."""
    members = frozenset(json_field(data, "members", [str], path))
    thin = frozenset(json_field(data, "thin", [str], path))
    unknown = sorted((members | thin) - X.dims.keys())
    if unknown:
        raise ParseError(f"{path}: unknown cell {unknown[0]!r}")
    return SubsetHandle(X, members, thin)
