"""Solving both sides of the learning-graph program and watching the gap close.

The primal routes a unit flow per certificate from the empty set into the
certificate's member sets, paying sqrt(total arc weight); the dual places
numbers alpha_S(M) on the lattice, zero inside each certificate, earning
sqrt(sum of the empty-set values squared) subject to a unit load on every arc.
The two optima coincide; the solvers bracket the common value from both sides.
"""

import math

from lgcomplexity import (
    build_named_structure,
    duality_report,
    ksubset_structure,
)

print("structure        primal      dual        gap      known optimum")
for kind, params, optimum in [
    ("ksubset", (2, 1), math.sqrt(2)),
    ("ksubset", (3, 1), math.sqrt(3)),
    ("ksubset", (4, 1), 2.0),
    ("hidden_shift", (2,), 1 + math.sqrt(2)),
]:
    cert = build_named_structure(kind, params)
    rep = duality_report(cert)
    name = f"{kind}{params}"
    print(f"{name:<16} {rep.primal_objective:.6f}   {rep.dual_objective:.6f}"
          f"   {rep.relative_gap:.2e}   {optimum:.6f}")

print()
print("The k-subset structure on n variables with k = 1 sits at exactly")
print("sqrt(n): n parallel one-arc flows of weight one on the primal side,")
print("and the 0/1 witness alpha_S(M_i) = [i not in S] on the dual side.")

cert = ksubset_structure(4, 1)
rep = duality_report(cert)
weights = rep.primal.weights
heavy = sorted(weights.values, reverse=True)[:6]
print(f"heaviest solved arcs for n=4: {[round(float(w), 4) for w in heavy]}")
