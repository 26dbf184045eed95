"""The adversary-matrix pipeline: a witness becomes a query lower bound.

A feasible witness turns into a stacked operator (one block per certificate in
the projector algebra), restricted to the instance's positive rows and
negative columns.  Its spectral norm beats every coordinate-masked norm by the
witness objective up to a constant, and that ratio lower-bounds quantum query
cost.  Every norm comes from one implicit operator, so the ladder at the end
reaches q = 32 (q^n = 32768), past the dense matrices' cap of 2^14.
"""

from lgcomplexity import (
    adversary_ratio,
    assemble,
    bounded_norm_certificates,
    build_bounded_instance,
    ksubset_structure,
    ksubset_witness,
    normalize_witness,
)

cert = ksubset_structure(3, 2)
inst = build_bounded_instance(cert, 8)
witness = normalize_witness(ksubset_witness(3, 2), cert)

stacked = assemble(witness, q=8)
print(f"unrestricted stacked operator: {stacked.shape[0]} x {stacked.shape[1]}")

rep = adversary_ratio(inst, witness)
print(f"restricted matrix norm:        {rep.gamma_norm:.6f}")
print(f"structured-vector lower bound: {rep.rayleigh_predicted:.6f} "
      f"(measured {rep.rayleigh_identity:.6f})")
print(f"coordinate-masked norms:       {[round(x, 4) for x in rep.per_j_norms]}")
print(f"ratio:                         {rep.ratio:.4f} "
      f"(witness objective {rep.witness_objective:.4f})")

print()
print("norm chain for the bounded-generation argument (direction j=1):")
bn = bounded_norm_certificates(inst, witness, 1)
print(f"  per-part norms {[round(x, 4) for x in bn.hat_part_norms]} (each <= 1)")
print(f"  unrestricted-column norm {bn.hat_norm:.4f} <= k = {bn.k}")
print(f"  restricted norm {bn.prime_norm:.4f} <= {bn.hat_norm:.4f}")
print(f"  worst masked norm {max(bn.masked_norms):.4f} <= 2k = {2 * bn.k}")

print()
print("alphabet ladder (ratio against the witness objective):")
for q in (8, 16, 32):
    rep = adversary_ratio(build_bounded_instance(cert, q), witness)
    print(f"  q = {q:2d}: gamma {rep.gamma_norm:.4f}, largest masked norm "
          f"{max(rep.per_j_norms):.4f}, ratio {rep.ratio:.4f} "
          f"(witness objective {rep.witness_objective:.4f})")
