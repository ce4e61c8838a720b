"""Finitely presented categories enriched in stratified sets.

An enriched category stores a stratified homset for every ordered pair of
objects together with composition maps out of the product tensor, whose
cells are the pairs of simplices they compose.  The constructor validates
the unit and associativity laws exhaustively, up to the dimension cap and
the dimensions where they can fail.  Gray validation runs the lifting report
on every homset; suspensions and nerves of small categories provide the
worked examples.  A cell of the nerve of a finite category is its path, a
``Path`` (start, arrows) spelled ``start:arrow|arrow``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Mapping

from .errors import CapExceeded, IllFormedCategory, LawViolation
from .stratified import (
    Cell,
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    empty_set,
    gray_product,
    product_pair_simplex,
)


def point_set() -> FiniteStratifiedSet:
    return FiniteStratifiedSet(0, {"*": 0}, {})


def degenerate_word(m: int) -> tuple[int, ...]:
    return tuple(range(m - 1, -1, -1))


class EnrichedCategory:
    """Homsets, identities and composition maps, never mutated after
    construction: so each composite is evaluated once and then read from a
    table for the life of the category, by the law checks and the nerve alike."""

    def __init__(
        self,
        objects,
        homs: Mapping[tuple[str, str], FiniteStratifiedSet],
        identities: Mapping[str, Hashable],
        comp: Mapping[tuple[str, str, str], StratifiedMap],
        dim_cap: int,
    ):
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.identities = dict(identities)
        self.comp = dict(comp)
        self.dim_cap = dim_cap
        self._composites: dict[tuple, Simplex] = {}

    def hom(self, a: str, b: str) -> FiniteStratifiedSet:
        return self.homs[(a, b)]

    def identity_simplex(self, a: str, m: int) -> Simplex:
        return Simplex(self.identities[a], degenerate_word(m))

    def compose(self, a: str, b: str, c: str, z_bc: Simplex, z_ab: Simplex) -> Simplex:
        """Image of the pair under the composition map hom(b,c) (*) hom(a,b),
        from the table keyed (a, b, c, z_bc, z_ab); the map is evaluated only
        on a key the table lacks."""
        key = (a, b, c, z_bc, z_ab)
        z = self._composites.get(key)
        if z is None:
            cmap = self.comp[(a, b, c)]
            pair = product_pair_simplex(z_bc, z_ab)
            if pair.cell not in cmap.assignment:
                raise CapExceeded(
                    f"composition at {(a, b, c)} undefined beyond the dimension cap"
                )
            z = self._composites[key] = cmap(pair)
        return z


def make_enriched(
    objects,
    homs,
    identities,
    comp_maps,
    dim_cap: int,
) -> EnrichedCategory:
    """Assemble and validate an enriched category; raises LawViolation."""
    if dim_cap < 0:
        raise LawViolation(f"dim_cap must be at least 0, got {dim_cap}")
    E = EnrichedCategory(objects, homs, identities, comp_maps, dim_cap)
    for a in E.objects:
        cell = E.identities.get(a)
        if cell is None or E.hom(a, a).dims.get(cell) != 0:
            raise LawViolation(f"identity of {a!r} is not a 0-cell of hom({a},{a})")
    for key, cmap in E.comp.items():
        problems = cmap.validate()
        if problems:
            raise LawViolation(f"composition {key} is not a stratified map: {problems[0]}")
    _check_units(E)
    _check_associativity(E)
    return E


def _check_units(E: EnrichedCategory) -> None:
    """The unit laws on every m-simplex z of every hom, m <= dim_cap, composing
    each (z, id) and (id, z) once.

    A pair whose components share a flat is a degeneracy of a lower pair, and
    composition commutes with degeneracies; the identity m-simplex is flat
    everywhere, so (z, id) has a lower such pair unless z is flat nowhere,
    that is m <= hom(a, b).max_dim().  Checking only up to there is exact.
    """
    for a, b in product(E.objects, repeat=2):
        hom = E.homs.get((a, b), empty_set())
        for m in range(min(E.dim_cap, hom.max_dim()) + 1):
            id_a, id_b = E.identity_simplex(a, m), E.identity_simplex(b, m)
            for z in hom.simplices_of_dim(m):
                left = E.compose(a, a, b, z, id_a)
                right = E.compose(a, b, b, id_b, z)
                if left != z or right != z:
                    raise LawViolation(f"unit law fails at {z} in hom({a},{b})")


def _check_associativity(E: EnrichedCategory) -> None:
    """Associativity on every triple (z3, z2, z1) of m-simplices, m <= dim_cap,
    a row over z1 at a time.  For each (z3, z2) the row of (z3 z2) z1 is built
    once per distinct z3 z2, and the row of z3 (z2 z1) from the row of z2 z1,
    built once per z2, through a per-z3 dict; the two rows are compared whole,
    and only a mismatch looks for the first failing z1.  So the triples are
    met in the same order as by a loop over them, and the first failure found
    is the same.

    A triple whose components all share a flat is a degeneracy of a lower
    triple, and both composites commute with degeneracies.  An m-simplex of
    dimension-d core has d non-flat spots, so a triple with no common flat
    has m at most the sum of the three homs' max_dim(); checking only up to
    there is exact.
    """
    for a, b, c, d in product(E.objects, repeat=4):
        hab, hbc, hcd = (E.homs.get(key, empty_set()) for key in ((a, b), (b, c), (c, d)))
        if not (hab.dims and hbc.dims and hcd.dims):
            continue
        for m in range(min(E.dim_cap, hab.max_dim() + hbc.max_dim() + hcd.max_dim()) + 1):
            ones, twos, threes = (list(h.simplices_of_dim(m)) for h in (hab, hbc, hcd))
            inner = _Rows(lambda z2: [E.compose(a, b, c, z2, z1) for z1 in ones])
            outer = _Rows(lambda right: [E.compose(a, b, d, right, z1) for z1 in ones])
            for z3 in threes:
                after = _Rows(lambda y: E.compose(a, c, d, z3, y))
                for z2 in twos:
                    lhs = outer[E.compose(b, c, d, z3, z2)]
                    rhs = list(map(after.__getitem__, inner[z2]))
                    if lhs != rhs:
                        z1 = next(z1 for z1, x, y in zip(ones, lhs, rhs) if x != y)
                        raise LawViolation(f"associativity fails at {(z3, z2, z1)}")


class _Rows(dict):
    """A dict that fills a missing key k with make(k)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# -- suspensions -------------------------------------------------------------


def _collapse_map(P: FiniteStratifiedSet, target: FiniteStratifiedSet, cell) -> StratifiedMap:
    assignment = {
        c: Simplex(cell, degenerate_word(P.dims[c])) for c in P.cells()
    }
    return StratifiedMap(P, target, assignment)


def suspension(X: FiniteStratifiedSet) -> EnrichedCategory:
    """Two objects with X as the only nontrivial homset; composition forced."""
    pt = point_set()
    homs = {
        ("0", "0"): pt,
        ("1", "1"): pt,
        ("0", "1"): X,
        ("1", "0"): empty_set(),
    }
    identities = {"0": "*", "1": "*"}
    comp = {}
    for a in "01":
        for b in "01":
            for c in "01":
                hbc, hab, hac = homs[(b, c)], homs[(a, b)], homs[(a, c)]
                P = gray_product(hbc, hab, cap=X.dim_cap)
                if not hbc.dims or not hab.dims:
                    comp[(a, b, c)] = StratifiedMap(P, hac, {})
                elif (a, c) == ("0", "1"):
                    # P is X (*) point for b = 0 and point (*) X for b = 1: keep the X side
                    side = 0 if b == "0" else 1
                    comp[(a, b, c)] = StratifiedMap(P, X, {pair: pair[side] for pair in P.cells()})
                else:
                    comp[(a, b, c)] = _collapse_map(P, hac, "*")
    return make_enriched(["0", "1"], homs, identities, comp, X.dim_cap)


# -- finite categories and their nerves --------------------------------------


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple[str, ...]
    arrows: Mapping[str, tuple[str, str]]  # name -> (source, target)
    identities: Mapping[str, str]  # object -> identity arrow
    table: Mapping[tuple[str, str], str]  # (g, f) -> g after f

    def validate(self) -> None:
        for f, ends in self.arrows.items():
            if len(ends) != 2 or not set(ends) <= set(self.objects):
                raise IllFormedCategory(f"arrow {f} does not run between declared objects")
        for obj in self.objects:
            if self.arrows.get(self.identities.get(obj), (None, None)) != (obj, obj):
                raise IllFormedCategory(f"identity of {obj!r} ill-typed")
        for (g, f), h in self.table.items():
            if not {g, f, h} <= self.arrows.keys():
                raise IllFormedCategory(f"composite {g} . {f} names an undeclared arrow")
            fs, ft = self.arrows[f]
            gs, gt = self.arrows[g]
            hs, ht = self.arrows[h]
            if ft != gs or (hs, ht) != (fs, gt):
                raise IllFormedCategory(f"composite {g} . {f} ill-typed")
        for f, (fs, ft) in self.arrows.items():
            for g, (gs, gt) in self.arrows.items():
                if ft == gs and (g, f) not in self.table:
                    raise IllFormedCategory(f"missing composite {g} . {f}")
            if self.table.get((f, self.identities[fs])) != f:
                raise IllFormedCategory(f"right unit fails at {f}")
            if self.table[(self.identities[ft], f)] != f:
                raise IllFormedCategory(f"left unit fails at {f}")
        for (g, f) in self.table:
            for h, (hs, ht) in self.arrows.items():
                if ht == self.arrows[f][0]:
                    if self.table[(self.table[(g, f)], h)] != self.table[(g, self.table[(f, h)])]:
                        raise IllFormedCategory("associativity fails")

    def compose(self, g: str, f: str) -> str:
        return self.table[(g, f)]

    def is_invertible(self, f: str) -> bool:
        fs, ft = self.arrows[f]
        return any(
            self.arrows[g] == (ft, fs)
            and self.table[(g, f)] == self.identities[fs]
            and self.table[(f, g)] == self.identities[ft]
            for g in self.arrows
        )


class Path(Cell):
    """A cell of the nerve of a category: (start, arrows), spelled start:arrow|arrow."""

    def __str__(self) -> str:
        start, arrows = self
        return start + ":" + "|".join(arrows)


def from_category(cat: FiniteCategory, dim_cap: int) -> FiniteStratifiedSet:
    """The equivalence-stratified nerve of a finite category, truncated."""
    cat.validate()
    dims: dict[Path, int] = {}
    faces: dict[Path, tuple[Simplex, ...]] = {}
    thin: list[Path] = []
    idents = set(cat.identities.values())

    def paths(m: int):
        if m == 0:
            for o in cat.objects:
                yield (o, ())
            return
        for start, body in paths(m - 1):
            cursor = cat.arrows[body[-1]][1] if body else start
            for f, (fs, ft) in cat.arrows.items():
                if fs == cursor and f not in idents:
                    yield (start, body + (f,))

    for m in range(dim_cap + 1):
        for start, body in paths(m):
            cell = Path((start, body))
            dims[cell] = m
            if m >= 1:
                faces[cell] = tuple(_path_face(cat, start, body, j) for j in range(m + 1))
                if m >= 2 or cat.is_invertible(body[0]):
                    thin.append(cell)
    return FiniteStratifiedSet(dim_cap, dims, faces, thin)


def _path_face(cat: FiniteCategory, start: str, body: tuple[str, ...], j: int) -> Simplex:
    m = len(body)
    if j == 0:
        new_start = cat.arrows[body[0]][1]
        return _path_normal_form(cat, new_start, body[1:])
    if j == m:
        return _path_normal_form(cat, start, body[:-1])
    merged = body[: j - 1] + (cat.compose(body[j], body[j - 1]),) + body[j + 1 :]
    return _path_normal_form(cat, start, merged)


def _path_normal_form(cat: FiniteCategory, start: str, body: tuple[str, ...]) -> Simplex:
    idents = set(cat.identities.values())
    core = tuple(f for f in body if f not in idents)
    word = tuple(sorted((t for t, f in enumerate(body) if f in idents), reverse=True))
    return Simplex(Path((start, core)), word)


# -- standard example categories ---------------------------------------------


def walking_arrow() -> FiniteCategory:
    return FiniteCategory(
        objects=("x", "y"),
        arrows={"ix": ("x", "x"), "iy": ("y", "y"), "f": ("x", "y")},
        identities={"x": "ix", "y": "iy"},
        table={
            ("ix", "ix"): "ix",
            ("iy", "iy"): "iy",
            ("f", "ix"): "f",
            ("iy", "f"): "f",
        },
    )


def walking_iso() -> FiniteCategory:
    return FiniteCategory(
        objects=("x", "y"),
        arrows={"ix": ("x", "x"), "iy": ("y", "y"), "f": ("x", "y"), "g": ("y", "x")},
        identities={"x": "ix", "y": "iy"},
        table={
            ("ix", "ix"): "ix",
            ("iy", "iy"): "iy",
            ("f", "ix"): "f",
            ("iy", "f"): "f",
            ("g", "iy"): "g",
            ("ix", "g"): "g",
            ("g", "f"): "ix",
            ("f", "g"): "iy",
        },
    )


def cyclic_group_category(order: int) -> FiniteCategory:
    arrows = {f"g{i}": ("*", "*") for i in range(order)}
    table = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % order}"
        for i in range(order)
        for j in range(order)
    }
    return FiniteCategory(("*",), arrows, {"*": "g0"}, table)


def one_object_group_enriched(order: int, dim_cap: int) -> EnrichedCategory:
    """One object, hom the group nerve, composition by pointwise products."""
    cat = cyclic_group_category(order)
    hom = from_category(cat, dim_cap)
    P = gray_product(hom, hom, cap=dim_cap)
    assignment = {pair: _pointwise_product(cat, *pair) for pair in P.cells()}
    comp = {("*", "*", "*"): StratifiedMap(P, hom, assignment)}
    return make_enriched(["*"], {("*", "*"): hom}, {"*": Path(("*", ()))}, comp, dim_cap)


def _expand_path(cat: FiniteCategory, s: Simplex) -> list[str]:
    """The full arrow list of a possibly degenerate path simplex of a one-object category."""
    start, body = s.cell
    seq = list(body)
    for t in sorted(s.word):
        seq.insert(t, cat.identities[start])
    return seq


def _pointwise_product(cat: FiniteCategory, sx: Simplex, sy: Simplex) -> Simplex:
    prod = (cat.compose(u, v) for u, v in zip(_expand_path(cat, sx), _expand_path(cat, sy)))
    return _path_normal_form(cat, "*", tuple(prod))


# -- gray validation -----------------------------------------------------------


def validate_gray(E: EnrichedCategory, dmax: int) -> dict:
    """Run the lifting report on every homset."""
    from .anodyne import rlp_report

    reports = {}
    ok = True
    for (a, b), hom in sorted(E.homs.items()):
        if not hom.dims:
            continue
        d = min(dmax, hom.dim_cap)
        rep = rlp_report(hom, d, mode="all")
        reports[(a, b)] = rep
        ok = ok and rep.ok
    return {"pass": ok, "homs": reports}
