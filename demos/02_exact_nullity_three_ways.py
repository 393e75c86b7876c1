"""The nullity of a signed graph, computed three independent ways.

The nullity is the multiplicity of the eigenvalue zero of the signed
adjacency matrix.  This package computes it by

  1. exact integer rank (fraction-free elimination):  n - rank(A),
  2. the characteristic polynomial (traces of the powers of A and Newton's
     identities over exact integers below order 57 while their packed rows
     stay narrow, a Hessenberg reduction modulo a Hadamard-bounded power of
     two otherwise): the number of
     trailing zero coefficients,
  3. basic-figure enumeration: each vertex-disjoint union of edges and
     cycles covering i vertices contributes (-1)^(p+s) * 2^c to the
     coefficient a_i, so the polynomial can be rebuilt combinatorially.

All three must always agree; disagreement would be a bug, never roundoff,
because no floating point is involved anywhere.

Run:  python demos/02_exact_nullity_three_ways.py
"""

from sgn import (
    adjacency_matrix,
    char_poly,
    char_poly_figures,
    enumerate_basic_figures,
    nullity_charpoly,
    nullity_rank,
    nullity_structural,
    rank,
)
from sgn.families import gen_cycle, gen_infinity

g = gen_cycle(6, 1)  # unbalanced hexagon
print("graph:", g)

print("\nadjacency matrix:")
for row in adjacency_matrix(g):
    print("  ", row)

print("\nrank:", rank(adjacency_matrix(g)), "of", g.n)
print("nullity via rank         :", nullity_rank(g))
print("nullity via charpoly     :", nullity_charpoly(g))
print("nullity via reduction    :", nullity_structural(g)[0])

p = char_poly(adjacency_matrix(g))
print("\ncharacteristic polynomial:", p)
print("same by figure counting  :", char_poly_figures(g))

print("\nbasic figures on 4 vertices of the hexagon:")
for fig in enumerate_basic_figures(g, 4):
    print(f"  edges={fig.edge_components} cycles={[w.vertices for w in fig.cycle_components]}"
          f"  p={fig.p} c={fig.c} s={fig.s} -> weight {fig.weight():+d}")
print("sum of weights = coefficient a_4 =", p.coeffs[4])

print("\nA bigger example: the infinity graph with two 5-cycles")
h = gen_infinity(5, 5, 3, 1, 0)
print("graph on", h.n, "vertices")
print("charpoly:", char_poly(adjacency_matrix(h)))
print("figures :", char_poly_figures(h))
print("nullity :", nullity_rank(h))
