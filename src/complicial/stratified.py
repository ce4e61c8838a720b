"""Finite stratified simplicial sets in Eilenberg-Zilber normal form.

A set stores only nondegenerate cells; every simplex is the pair
(cell, degeneracy word) and all queries are answered through normal forms.
Thinness is a flag on nondegenerate cells of positive dimension, with
degenerate simplices implicitly thin.  The module also provides stratified
maps, regular/entire subsets, the product tensor (componentwise thinness),
and exhaustive enumeration of stratified maps between finite sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    AmbientMismatch,
    CapExceeded,
    DimensionMismatch,
    UnknownCell,
    ZeroDimensional,
)
from .operators import (
    Operator,
    compose_ops,
    delta,
    ez_factorize,
    identity,
    sigma,
    surjection_words,
    word_operator,
)


@dataclass(frozen=True, order=True)
class Simplex:
    """EZ normal form: a nondegenerate cell plus a degeneracy word."""

    cell: str
    word: tuple[int, ...] = ()

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)


class FiniteStratifiedSet:
    """Nondegenerate cells per dimension, face tables, and thin flags."""

    def __init__(
        self,
        dim_cap: int,
        dims: Mapping[str, int],
        faces: Mapping[str, tuple[Simplex, ...]],
        thin: Iterable[str] = (),
    ):
        self.dim_cap = dim_cap
        self.dims = dict(dims)
        self.faces = {c: tuple(fs) for c, fs in faces.items()}
        self.thin = frozenset(thin)
        grouped: dict[int, list[str]] = {}
        for c in sorted(self.dims):
            grouped.setdefault(self.dims[c], []).append(c)
        self._by_dim = {d: tuple(cs) for d, cs in grouped.items()}
        self._act_cache: dict[tuple[str, tuple[int, ...]], Simplex] = {}

    # -- basic queries -------------------------------------------------

    def cells(self) -> tuple[str, ...]:
        return tuple(sorted(self.dims, key=lambda c: (self.dims[c], c)))

    def cells_of_dim(self, d: int) -> tuple[str, ...]:
        return self._by_dim.get(d, ())

    def dim(self, cell: str) -> int:
        if cell not in self.dims:
            raise UnknownCell(cell)
        return self.dims[cell]

    def max_dim(self) -> int:
        return max(self._by_dim, default=-1)

    def simplex_dim(self, s: Simplex) -> int:
        return self.dim(s.cell) + len(s.word)

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
        """Normal form of s . alpha, computed through the stored face tables."""
        q = self.simplex_dim(s)
        if alpha.m != q:
            raise DimensionMismatch(f"operator targets [{alpha.m}], simplex has dim {q}")
        beta = compose_ops(word_operator(q, s.word), alpha) if s.word else alpha
        return self._act_cell(s.cell, beta)

    def _act_cell(self, cell: str, beta: Operator) -> Simplex:
        key = (cell, beta.values)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        faces, degens = ez_factorize(beta)
        if not faces:
            out = Simplex(cell, degens)
        else:
            # peel the outermost face and recurse through the stored table
            f = faces[-1]
            inner = Operator(
                beta.n, beta.m - 1, tuple(v - 1 if v > f else v for v in beta.values)
            )
            out = self.act(self.faces[cell][f], inner)
        self._act_cache[key] = out
        return out

    def face(self, cell: str, j: int) -> Simplex:
        return self.faces[cell][j]

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Report every violated structural invariant (empty report = pass)."""
        problems: list[str] = []
        for c, d in self.dims.items():
            if d < 0:
                problems.append(f"cell {c}: negative dimension")
            if d > self.dim_cap:
                problems.append(f"cell {c}: dimension {d} exceeds cap {self.dim_cap}")
            if d == 0:
                if c in self.faces and self.faces[c]:
                    problems.append(f"cell {c}: 0-cell with face entries")
                continue
            fs = self.faces.get(c)
            if fs is None or len(fs) != d + 1:
                problems.append(f"cell {c}: expected {d + 1} faces")
                continue
            for j, s in enumerate(fs):
                if s.cell not in self.dims:
                    problems.append(f"cell {c}: face {j} names unknown cell {s.cell}")
                elif self.simplex_dim(s) != d - 1:
                    problems.append(f"cell {c}: face {j} has wrong dimension")
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
                    lhs = self.act(self.faces[c][j], delta(d - 1, i))
                    rhs = self.act(self.faces[c][i], delta(d - 1, j - 1))
                    if lhs != rhs:
                        problems.append(f"cell {c}: identity d{i} d{j} fails")
        return problems


def empty_set(dim_cap: int = 0) -> FiniteStratifiedSet:
    return FiniteStratifiedSet(dim_cap, {}, {})


# -- stratified maps ----------------------------------------------------


@dataclass(frozen=True)
class StratifiedMap:
    source: FiniteStratifiedSet
    target: FiniteStratifiedSet
    assignment: Mapping[str, Simplex]

    def __call__(self, s: Simplex) -> Simplex:
        img = self.assignment[s.cell]
        if not s.word:
            return img
        q = self.source.simplex_dim(s)
        return self.target.act(img, word_operator(q, s.word))

    def validate(self) -> list[str]:
        problems = []
        for c, d in self.source.dims.items():
            img = self.assignment.get(c)
            if img is None:
                problems.append(f"no image for cell {c}")
                continue
            if self.target.simplex_dim(img) != d:
                problems.append(f"image of {c} has wrong dimension")
                continue
            if c in self.source.thin and not self.target.is_thin(img):
                problems.append(f"thin cell {c} maps to non-thin simplex")
            for j in range(d + 1) if d >= 1 else ():
                expected = self(self.source.faces[c][j])
                got = self.target.act(img, delta(d, j))
                if expected != got:
                    problems.append(f"cell {c}: face {j} does not commute")
        return problems


# -- subsets --------------------------------------------------------------


@dataclass(frozen=True)
class SubsetHandle:
    ambient: FiniteStratifiedSet
    members: frozenset[str]
    thin_members: frozenset[str]


def regular_generated(X: FiniteStratifiedSet, seeds: Iterable[str]) -> SubsetHandle:
    """Smallest face-closed subset containing the seeds, ambient thinness."""
    todo = list(seeds)
    members: set[str] = set()
    while todo:
        c = todo.pop()
        if c not in X.dims:
            raise UnknownCell(c)
        if c in members:
            continue
        members.add(c)
        if X.dims[c] >= 1:
            todo.extend(s.cell for s in X.faces[c])
    return SubsetHandle(X, frozenset(members), frozenset(members) & X.thin)


def union_regular(X: FiniteStratifiedSet, parts: Iterable[SubsetHandle]) -> SubsetHandle:
    members: frozenset[str] = frozenset()
    for h in parts:
        if h.ambient is not X:
            raise AmbientMismatch("subset handles live in different ambient sets")
        members |= h.members
    return SubsetHandle(X, members, members & X.thin)


def is_subset_kind(h: SubsetHandle) -> frozenset[str]:
    """Classify a handle as regular and/or entire; {'neither'} otherwise."""
    kinds = set()
    closed = all(
        s.cell in h.members
        for c in h.members
        if h.ambient.dims[c] >= 1
        for s in h.ambient.faces[c]
    )
    if closed and h.thin_members == h.members & h.ambient.thin:
        kinds.add("regular")
    if h.members == frozenset(h.ambient.dims):
        kinds.add("entire")
    return frozenset(kinds) if kinds else frozenset({"neither"})


def make_thin(X: FiniteStratifiedSet, extra: Iterable[str]) -> FiniteStratifiedSet:
    extra = frozenset(extra)
    for c in extra:
        if X.dim(c) == 0:
            raise ZeroDimensional(f"cannot make 0-cell {c} thin")
    return FiniteStratifiedSet(X.dim_cap, X.dims, X.faces, X.thin | extra)


def subset_to_set(h: SubsetHandle) -> FiniteStratifiedSet:
    """The subset as a standalone stratified set (cell ids preserved)."""
    dims = {c: h.ambient.dims[c] for c in h.members}
    faces = {c: h.ambient.faces[c] for c in h.members if dims[c] >= 1}
    cap = max(dims.values(), default=0)
    return FiniteStratifiedSet(cap, dims, faces, h.thin_members)


# -- product tensor (componentwise thinness) ------------------------------


def _flats(X: FiniteStratifiedSet, s: Simplex) -> frozenset[int]:
    if not s.word:
        return frozenset()
    q = X.simplex_dim(s)
    op = word_operator(q, s.word)
    return frozenset(t for t in range(q) if op.values[t] == op.values[t + 1])


def pair_id(sx: Simplex, sy: Simplex) -> str:
    wx = ".".join(map(str, sx.word))
    wy = ".".join(map(str, sy.word))
    return f"({sx.cell}|{wx})({sy.cell}|{wy})"


def pair_normal_form(
    X: FiniteStratifiedSet, Y: FiniteStratifiedSet, sx: Simplex, sy: Simplex
) -> tuple[Simplex, Simplex, tuple[int, ...]]:
    """Strip the common degeneracies of a pair; returns (core_x, core_y, word)."""
    q = X.simplex_dim(sx)
    collapse = identity(q)
    while True:
        common = _flats(X, sx) & _flats(Y, sy)
        if not common:
            break
        t = max(common)
        cur = X.simplex_dim(sx)
        sx, sy = X.act(sx, delta(cur, t)), Y.act(sy, delta(cur, t))
        collapse = compose_ops(sigma(cur - 1, t), collapse)
    word = ez_factorize(collapse)[1]
    return sx, sy, word


def gray_product(
    X: FiniteStratifiedSet, Y: FiniteStratifiedSet, cap: int | None = None
) -> tuple[FiniteStratifiedSet, dict[str, tuple[Simplex, Simplex]]]:
    """Cartesian product in Strat: thin iff both components are thin.

    Returns the product and its components, cell id -> (simplex of X, simplex of Y).
    """
    if cap is None:
        cap = X.dim_cap + Y.dim_cap
    dims: dict[str, int] = {}
    faces: dict[str, tuple[Simplex, ...]] = {}
    thin: set[str] = set()
    pairs: dict[str, tuple[Simplex, Simplex]] = {}
    for m in range(cap + 1):
        xs = list(X.simplices_of_dim(m))
        ys = list(Y.simplices_of_dim(m))
        for sx in xs:
            fx = _flats(X, sx)
            for sy in ys:
                if fx & _flats(Y, sy):
                    continue
                cid = pair_id(sx, sy)
                dims[cid] = m
                pairs[cid] = (sx, sy)
                if X.is_thin(sx) and Y.is_thin(sy):
                    thin.add(cid)
    for cid, (sx, sy) in pairs.items():
        m = dims[cid]
        if m == 0:
            continue
        entries = []
        for j in range(m + 1):
            d = delta(m, j)
            cx, cy, word = pair_normal_form(X, Y, X.act(sx, d), Y.act(sy, d))
            entries.append(Simplex(pair_id(cx, cy), word))
        faces[cid] = tuple(entries)
    thin -= {c for c in thin if dims[c] == 0}
    return FiniteStratifiedSet(cap, dims, faces, thin), pairs


def product_pair_simplex(
    X: FiniteStratifiedSet,
    Y: FiniteStratifiedSet,
    sx: Simplex,
    sy: Simplex,
) -> Simplex:
    """The simplex of the product X (*) Y holding a given pair."""
    cx, cy, word = pair_normal_form(X, Y, sx, sy)
    return Simplex(pair_id(cx, cy), word)


# -- exhaustive map enumeration -------------------------------------------


def enumerate_maps(A: FiniteStratifiedSet, X: FiniteStratifiedSet) -> list[StratifiedMap]:
    """All stratified maps A -> X, in the order induced by (dimension, cell id)."""
    if A.max_dim() > X.dim_cap:
        raise CapExceeded(f"domain dimension {A.max_dim()} exceeds target cap")
    order = A.cells()
    out: list[StratifiedMap] = []
    assignment: dict[str, Simplex] = {}

    def candidates(cell: str) -> Iterator[Simplex]:
        d = A.dims[cell]
        must_be_thin = cell in A.thin
        for img in X.simplices_of_dim(d):
            if must_be_thin and not X.is_thin(img):
                continue
            ok = True
            for j in range(d + 1) if d >= 1 else ():
                fs = A.faces[cell][j]
                expected = X.act(assignment[fs.cell], word_operator(d - 1, fs.word)) if fs.word else assignment[fs.cell]
                if X.act(img, delta(d, j)) != expected:
                    ok = False
                    break
            if ok:
                yield img

    def search(i: int) -> None:
        if i == len(order):
            out.append(StratifiedMap(A, X, dict(assignment)))
            return
        cell = order[i]
        for img in sorted(candidates(cell)):
            assignment[cell] = img
            search(i + 1)
            del assignment[cell]

    search(0)
    return out


# -- JSON interchange ------------------------------------------------------


def set_to_json(X: FiniteStratifiedSet) -> dict:
    cells = []
    for c in X.cells():
        d = X.dims[c]
        entry = {
            "id": c,
            "dim": d,
            "thin": c in X.thin,
            "faces": [
                {"cell": s.cell, "word": list(s.word)} for s in (X.faces[c] if d >= 1 else ())
            ],
        }
        cells.append(entry)
    return {"dim_cap": X.dim_cap, "cells": cells}


def set_from_json(data: dict) -> FiniteStratifiedSet:
    dims = {}
    faces = {}
    thin = []
    for entry in data["cells"]:
        cid = entry["id"]
        dims[cid] = entry["dim"]
        if entry["dim"] >= 1:
            faces[cid] = tuple(
                Simplex(f["cell"], tuple(f["word"])) for f in entry["faces"]
            )
        if entry.get("thin"):
            thin.append(cid)
    return FiniteStratifiedSet(data["dim_cap"], dims, faces, thin)
