"""Closed forms and nullity sets for signed bicyclic graphs.

A bicyclic graph (m = n + 1) is an infinity graph or a theta graph with
trees attached.  For the bare infinity graph and the bare theta graph the
nullity has a complete parity case analysis, and the structural route
decides either core in one closed-form step with no matrix; over whole
classes the attainable nullities form
intervals: [0, n-6] for both infinity-based classes and [0, n-4] for the
theta class.  The unbalanced maximum n - 3 is attained only by the diamond
with both triangles unbalanced.

Run:  python demos/04_bicyclic_families_and_nullity_sets.py
"""

from sgn import (
    is_max_nullity_extremal,
    nullity_cycle,
    nullity_infinity,
    nullity_path,
    nullity_rank,
    nullity_structural,
    nullity_theta,
    upper_bound,
)
from sgn.families import bicyclic_class, gen_infinity, gen_theta, realize_nullity

print("Signed cycle nullity (2 exactly when length and parity resonate):")
for n in range(3, 9):
    row = "  C_%d: " % n + "  ".join(
        f"s={s}: {nullity_cycle(n, s)}" for s in (0, 1)
    )
    print(row)
print("Signed path nullity: P_n ->", [nullity_path(n) for n in range(1, 9)])

print("\nInfinity-graph formula vs a concrete realization:")
for (p, q, l, sp, sq) in [(3, 3, 1, 1, 1), (3, 3, 1, 1, 0), (4, 3, 2, 0, 0),
                          (4, 4, 3, 0, 0), (4, 4, 2, 1, 1), (3, 5, 3, 0, 0)]:
    g = gen_infinity(p, q, l, sp, sq)
    print(f"  infinity({p},{q},{l}) sp={sp} sq={sq}: "
          f"formula {nullity_infinity(p, q, l, sp, sq)}, oracle {nullity_rank(g)}")

print("\nWith p, q, l odd, l >= 3 and an odd invariant the nullity is exactly 1:")
print("  removing two degree-2 vertices keeps the nullity (a Schur complement),")
print("  so every such graph reduces to infinity(3,3,3) with one unbalanced triangle")
for (p, q, l, sp, sq) in [(3, 3, 3, 1, 0), (5, 3, 5, 1, 1), (7, 9, 3, 1, 1)]:
    g = gen_infinity(p, q, l, sp, sq)
    print(f"  infinity({p},{q},{l}) sp={sp} sq={sq}: "
          f"formula {nullity_infinity(p, q, l, sp, sq)}, oracle {nullity_rank(g)}")

print("\nTheta-graph formula (path edge counts, path sign parities) vs a concrete realization:")
for lengths, parities in [((2, 2, 2), (0, 0, 0)), ((2, 2, 2), (1, 0, 0)), ((2, 3, 4), (1, 0, 0)),
                          ((1, 2, 3), (0, 0, 0)), ((3, 5, 7), (1, 1, 0))]:
    g = gen_theta(*lengths, *parities)
    print(f"  theta{lengths} s={parities}: "
          f"formula {nullity_theta(*lengths, *parities)}, oracle {nullity_rank(g)}")

big = gen_theta(1000, 1000, 1001)
value, trace = nullity_structural(big)
(step,) = trace.steps
print(f"  theta(1000,1000,1001) on {big.n} vertices, structural route: one {step.kind} step,")
print(f"    {step.method}: {step.relation}")

print("\nThe extremal diamond:")
diamond = gen_theta(2, 2, 1, 1, 1, 0)
print("  both triangles unbalanced:", diamond)
print("  nullity:", nullity_rank(diamond), "= n - 3 =", diamond.n - 3)
print("  is_max_nullity_extremal:", is_max_nullity_extremal(diamond))
lop = gen_theta(2, 2, 1, 1, 0, 0)
print("  one triangle unbalanced -> nullity", nullity_rank(lop),
      "extremal:", is_max_nullity_extremal(lop))

print("\nUpper bounds by class at n = 10:")
for cls in ("BPlus", "BPlusPlus", "ThetaUnbalanced", "BicyclicUnbalanced"):
    print(f"  {cls:<20} eta <= {upper_bound(cls, 10)}")

print("\nRealizing every nullity value at n = 10:")
for cls, top in (("BPlus", 4), ("BPlusPlus", 4), ("Theta", 6)):
    witnesses = []
    for k in range(top + 1):
        g = realize_nullity(cls, 10, k)
        witnesses.append(f"k={k}:{nullity_rank(g)} ({bicyclic_class(g)})")
    print(f"  {cls:<10}", "  ".join(witnesses))
