"""Finitely presented categories enriched in stratified sets.

An enriched category stores a stratified homset for every ordered pair of
objects together with a composition map for every ordered triple, out of
the cartesian product (componentwise thinness), whose cells are the pairs
of simplices they compose.  ``make_enriched`` is the one place that decides
an enriched category is one: it refuses a category missing a hom or a
composition map, or keyed by anything else, then validates every composition
map, and then the unit law up to the dimension cap and associativity in the
dimensions below it where the law can fail.  Gray validation runs the lifting
report on every homset up to its cap; suspensions and nerves of small
categories provide the worked examples.  A cell of the nerve of a finite
category is its path, a ``Path`` (start, arrows) spelled ``start:arrow|arrow``.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Mapping, NamedTuple

from .anodyne import rlp_report
from .errors import BadParams, CapExceeded, IllFormedCategory, LawViolation
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
    """Assemble and validate an enriched category; raises LawViolation.

    It must be complete, with homs keyed by exactly the ordered pairs of
    objects and composition maps by exactly the triples, empty ones included;
    the first key missing, in product order, else the first stray key is named."""
    if dim_cap < 0:
        raise LawViolation(f"dim_cap must be at least 0, got {dim_cap}")
    E = EnrichedCategory(objects, homs, identities, comp_maps, dim_cap)
    tables = (("hom", E.homs, 2, "pair"), ("composition map", E.comp, 3, "triple"))
    for name, table, arity, kind in tables:
        keys = dict.fromkeys(product(E.objects, repeat=arity))
        missing = [key for key in keys if key not in table]
        extra = [key for key in table if key not in keys]
        if missing:
            raise LawViolation(f"{name} {missing[0]} is missing")
        if extra:
            raise LawViolation(f"{name} {extra[0]} is not a {kind} of objects")
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
    """The unit laws on every cell z of every hom, dim z <= dim_cap, composing
    each (z, id) and (id, z) once.

    A degenerate simplex composes to the same degeneracy of its cell's
    composite, so checking the cells is exact."""
    for a, b in product(E.objects, repeat=2):
        hom = E.hom(a, b)
        for cell in hom.cells():
            m = hom.dims[cell]
            if m > E.dim_cap:
                break
            z = Simplex(cell)
            left = E.compose(a, a, b, z, E.identity_simplex(a, m))
            right = E.compose(a, b, b, E.identity_simplex(b, m), z)
            if left != z or right != z:
                raise LawViolation(f"unit law fails at {z} in hom({a},{b})")


def _check_associativity(E: EnrichedCategory) -> None:
    """Associativity on every triple (z3, z2, z1) of m-simplices, m <= dim_cap,
    except at each m at which hom(a, d) is face-determined.

    A triple whose components all share a flat is a degeneracy of a lower
    triple, and both composites commute with degeneracies.  An m-simplex of
    dimension-d core has d non-flat spots, so a triple with no common flat
    has m at most the sum of the three homs' max_dim(); checking only up to
    there is exact.  make_enriched validates every composition map first, so
    both sides are simplicial maps out of the triple product: if they agree
    below m, their images of an m-simplex share faces, and are equal when
    hom(a, d) is face-determined at m.  So the least failing m is never
    skipped, and the first failure is that of a loop over every m.
    """
    for a, b, c, d in product(E.objects, repeat=4):
        hab, hbc, hcd = E.hom(a, b), E.hom(b, c), E.hom(c, d)
        if not (hab.dims and hbc.dims and hcd.dims):
            continue
        for m in range(min(E.dim_cap, hab.max_dim() + hbc.max_dim() + hcd.max_dim()) + 1):
            if E.hom(a, d).face_determined(m):
                continue
            ones, twos = list(hab.simplices_of_dim(m)), list(hbc.simplices_of_dim(m))
            for z3 in hcd.simplices_of_dim(m):
                for z2 in twos:
                    right = E.compose(b, c, d, z3, z2)
                    for z1 in ones:
                        lhs = E.compose(a, b, d, right, z1)
                        if lhs != E.compose(a, c, d, z3, E.compose(a, b, c, z2, z1)):
                            raise LawViolation(f"associativity fails at {(z3, z2, z1)}")


# -- suspensions -------------------------------------------------------------


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
    for a, b, c in product("01", repeat=3):
        P = gray_product(homs[(b, c)], homs[(a, b)], cap=X.dim_cap)
        if (a, c) == ("0", "1"):
            # P is X x point for b = 0 and point x X for b = 1: keep the X side
            assignment = {pair: pair[int(b)] for pair in P.cells()}
        else:
            # onto the point, or out of an empty P into the empty hom(1, 0)
            assignment = {pair: Simplex("*", degenerate_word(P.dims[pair])) for pair in P.cells()}
        comp[(a, b, c)] = StratifiedMap(P, homs[(a, c)], assignment)
    return make_enriched(["0", "1"], homs, identities, comp, X.dim_cap)


# -- finite categories and their nerves --------------------------------------


class FiniteCategory(NamedTuple):
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
    """Run the lifting report on every nonempty homset up to min(dmax,
    hom.dim_cap), never above the hom's cap: validate_gray(suspension(
    boundary(2)), 3) checks hom(0, 1) at dimension 1 only and passes, though
    the nerve fails the inner lifting report at dimension 3.  BadParams if dmax < 0."""
    if dmax < 0:
        raise BadParams(f"dmax must be at least 0, got {dmax}")
    homs = sorted(E.homs.items())
    reports = {ab: rlp_report(hom, min(dmax, hom.dim_cap), "all") for ab, hom in homs if hom.dims}
    return {"pass": all(rep.ok for rep in reports.values()), "homs": reports}
