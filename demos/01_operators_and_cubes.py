#!/usr/bin/env python3
"""Walkthrough: simplicial operators and the directed cubes.

Run with `python demos/01_operators_and_cubes.py`.
"""

from complicial import (
    MINUS,
    PLUS,
    compose_ops,
    cube,
    c_map,
    classify_cube_simplex,
    delta,
    elementary,
    ez_factorize,
    make_operator,
    rho_precompose,
    standard,
)
from complicial.shapes import Coords, vertex_chain

print("== the arrow algebra of the ordinal category ==")
alpha = make_operator(2, 3, [0, 2, 2])
print("an operator [2]->[3]:", alpha)
faces, degens = ez_factorize(alpha)
print("its normal form: faces", faces, "after degeneracies", degens)
print("composition is pointwise:", compose_ops(delta(3, 1), elementary("sigma", 2, 0)))

print()
print("== coordinates of the 1-simplex ==")
print("a step coordinate pushed along a face:", rho_precompose(2, delta(2, 0)))
print("poles are absorbing:", rho_precompose(PLUS, delta(2, 0)))

print()
print("== the directed cubes ==")
for n in (2, 3):
    X = cube(n)
    print(f"cube({n}) census:", X.count_nondegenerate())
    tops = X.cells_of_dim(n)
    nonthin = [c for c in tops if c not in X.thin]
    print(f"  top cells: {len(tops)}, the unique non-thin one is {nonthin[0]}")
    print("  its vertex chain:", vertex_chain(nonthin[0].w, n))

print()
print("== classifying cube simplices ==")
samples = [((2, 1), 2), ((1, 2), 2), ((1, 1), 1), ((1, PLUS), 2)]
for w, m in samples:
    print(f"  w = {w} at dimension {m}:", classify_cube_simplex(w, m))

print()
print("== the comparison map onto the standard simplex ==")
cm = c_map(3)
print("c_map(3) is stratified:", cm.validate() == [])
print("the special top goes to the identity simplex:", cm.assignment[Coords((3, 2, 1))])
print("a thin top collapses:", cm.assignment[Coords((1, 2, 3))])
