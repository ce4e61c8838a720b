#!/usr/bin/env python3
"""Walkthrough: the homotopy coherent path category.

An arrow from r is its tuple w of cube coordinates on the half-open interval
(r, r + len(w)]; composition is concatenation, and the simplicial operators
act by inserting poles, dropping the lowest ordinate, or merging neighbours
by minimum.
"""

from complicial import delta, hc_horn_member, hom_set, path_act, sigma, special_top
from complicial.operators import MINUS, PLUS

print("== homsets are cubes one step down ==")
for r, s in [(0, 0), (0, 1), (0, 3)]:
    print(f"hom({r},{s}) census:", hom_set(r, s).count_nondegenerate())

print()
print("== concatenation and splitting ==")
a = (PLUS, MINUS)  # <0,2>
b = (PLUS, PLUS, MINUS)  # <2,5>
print("composite of <0,2> and <2,5>:", a + b)
d = (MINUS, PLUS, MINUS, PLUS, MINUS)
# the factors of an arrow from 0 end at its interior minus positions and at its top
bounds = [0] + [i for i, v in enumerate(d[:-1], 1) if v == MINUS] + [len(d)]
print("splitting", d, "->", list(zip(bounds, bounds[1:])))

print()
print("== operator actions ==")
top = special_top(1).w + (MINUS,)
print("top special of hom(0,2):", top)
print("inserting a pole via a face:", path_act(delta(3, 1), 0, top)[1])
print("dropping the lowest ordinate:", path_act(sigma(1, 0), 0, (1, MINUS))[1])
merged = path_act(sigma(2, 1), 0, (1, 2, MINUS))[1]
print("merging ordinates by minimum:", merged)

print()
print("== inner coherent horn membership ==")
inside = (1, PLUS, MINUS)
outside = (1, 2, MINUS)
print(inside, "in the (3,1)-horn:", hc_horn_member(3, 1, 0, inside))
print(outside, "in the (3,1)-horn:", hc_horn_member(3, 1, 0, outside))
