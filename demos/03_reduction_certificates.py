"""Structural nullity computation with replayable certificates.

The reduction engine shrinks a graph with nullity-preserving or
nullity-accounting moves and records every step:

  * component split        eta(G) = sum of component nullities, with
                           every isolated vertex in one edgeless part
  * pendant peeling        delete a leaf and its neighbor, eta unchanged,
                           until no leaf is left; one step lists every pair
  * base cases             edgeless graphs, cycles, theta and infinity
                           graphs by closed form, anything else by the
                           exact rank oracle

The trace can be replayed to reproduce the result, and each step's relation
can be re-checked independently with the rank oracle.

Run:  python demos/03_reduction_certificates.py
"""

from sgn import nullity_rank, nullity_structural
from sgn.families import gen_figure, gen_path, gen_star


def show(name, g):
    value, trace = nullity_structural(g)
    print(f"{name}: nullity {value} (rank oracle agrees: {nullity_rank(g) == value})")
    for step in trace.steps:
        after = ", ".join(f"n={h.n},m={h.m}" for h in step.after) or "-"
        extra = ""
        if step.kind == "PendantDelete":
            extra = " [pendant pairs " + " ".join(f"({v},{u})" for v, u in step.pairs) + "]"
        elif step.kind == "BaseCase":
            extra = f" [{step.method} -> {step.value}]"
        print(f"    {step.kind:<18} before n={step.before.n},m={step.before.m}"
              f" -> {after}{extra}")
    print(f"    replay: {trace.replay()}")
    print()


show("path on 5 vertices", gen_path(5))
show("star on 6 vertices", gen_star(6))

# the two-triangles-with-leaves construction realizing nullity 3 on 11 vertices
show("two unbalanced triangles, path, 4 leaves (nullity 3)",
     gen_figure("G2", n=11, k=3))

# a cycle is a closed-form base case
from sgn.families import gen_cycle

show("balanced 8-cycle", gen_cycle(8, 0))

# JSON certificates for external tooling
value, trace = nullity_structural(gen_figure("G6", n=7))
print("JSON certificate for the 7-vertex theta-with-leaves graph:")
print(trace.to_json())
