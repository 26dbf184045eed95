"""Tour of certificate structures and the subset lattice they live on.

A certificate structure fixes *where* the evidence for a positive answer can
sit among n input variables, without fixing the values: each certificate M is
an upward-closed family of variable subsets, listed by its minimal sets.
"""

from lgcomplexity import build_named_structure, minimal_profile
from lgcomplexity.structures import arc_arrays, mask_members, structure_to_json

print("== the five named structures, at their smallest interesting sizes ==")
for kind, params in [
    ("ksubset", (4, 2)),
    ("triangle", (4,)),
    ("collision", (2,)),
    ("set_equality", (2,)),
    ("hidden_shift", (2,)),
]:
    cert = build_named_structure(kind, params)
    profile = minimal_profile(cert)
    print(f"{kind}{params}: {cert.n} variables, {len(cert)} certificates, "
          f"minimal-set counts {set(profile.counts)}, "
          f"boundedly generated: {profile.boundedly_generated}")

print()
print("== hidden_shift(2) in full ==")
cert = build_named_structure("hidden_shift", (2,))
print(structure_to_json(cert))

print()
print("== the lattice a learning graph walks on (n = 3) ==")
# subsets are bitmasks (bit j-1 is variable j); arcs are grouped by the variable they add
sources, added, targets = arc_arrays(3)
print(f"{len(sources)} arcs; the first six:")
for source, j, target in zip(sources[:6], added[:6], targets[:6]):
    print(f"  {set(mask_members(source)) or '{}'} -> {set(mask_members(target))} "
          f"(queries variable {j})")
