"""The library's public surface: every exported callable with its parameter names."""

import enum
import inspect
import types

import lgcomplexity

# every callable `lgcomplexity` exports, with its parameter names in order; a change to the
# public library surface edits this table and says why.  Exception classes and the enum
# FValue take the interpreter's constructor arguments and are listed as None.  EdgeSubset
# left the surface for tests/lattice_helpers.py: only the triangle-witness tests read it,
# as an oracle.  TriangleWitnessConfig left it too: triangle_witness takes only the vertex
# count and computes its degree levels inline, so no caller could set the config's fields.
LIBRARY_SURFACE = {
    "AdversaryReport": ["gamma_norm", "per_j_norms", "ratio", "witness_objective",
                        "rayleigh_identity", "rayleigh_predicted", "instance_hash"],
    "BiasedSet": ["p", "elements", "bias"],
    "BlockOperator": ["coeffs", "q", "n", "row_sets", "row_scales", "col_codes"],
    "CapacityError": None,
    "Certificate": ["minimal_sets"],
    "CertificateStructure": ["n", "certificates", "kind", "params"],
    "ConsistencyError": None,
    "DualWitness": ["n", "alpha", "info"],
    "DualityReport": ["primal_objective", "dual_objective", "relative_gap", "primal",
                      "witness"],
    "EquivalenceClass": ["representative", "members", "shifts"],
    "FValue": None,
    "FlowAssignment": ["n", "values"],
    "GeneralInstance": ["cert", "p", "ell", "biased_set"],
    "HardInstance": ["cert", "q", "arrays", "x_sets", "y_codes"],
    "InvariantViolation": None,
    "LabeledMatrix": ["matrix", "q", "n", "row_codes", "col_codes"],
    "LgError": None,
    "MinimalProfile": ["counts", "max_count", "boundedly_generated", "generator_bound"],
    "OrthogonalArray": ["q", "k", "rows"],
    "ParameterError": None,
    "PrimalSolution": ["flow", "weights", "objective", "mu", "iterations", "converged",
                       "residual", "witness"],
    "SolverParams": ["tolerance", "max_iterations", "seed"],
    "SpectralReport": ["norm", "iterations", "residual", "method"],
    "StructuralError": None,
    "WeightAssignment": ["n", "values"],
    "adversary_ratio": ["instance", "witness"],
    "assemble": ["witness_or_coeffs", "instance", "q", "restrict_columns"],
    "bounded_norm_certificates": ["instance", "witness", "j"],
    "build_bounded_instance": ["cert", "q", "arrays"],
    "build_general_instance": ["cert", "p", "seed"],
    "build_instance": ["cert", "q", "arrays"],
    "build_named_structure": ["kind", "params"],
    "character_overlap": ["w", "w_prime", "m", "i", "instance", "method"],
    "clip01": ["x"],
    "collision_structure": ["n"],
    "difference_coefficients": ["witness", "j"],
    "dual_feasibility_margin": ["cert", "witness"],
    "dual_objective": ["witness"],
    "duality_report": ["cert", "params"],
    "equivalence_classes": ["instance", "m", "beta", "cap"],
    "evaluate_f": ["instance", "x"],
    "flow_residuals": ["cert", "flow"],
    "fourier_bias": ["elements", "p"],
    "generator_partition": ["cert"],
    "hadamard_mask": ["op", "j"],
    "hidden_shift_structure": ["n"],
    "hidden_shift_witness": ["n", "target"],
    "ksubset_structure": ["n", "k"],
    "ksubset_witness": ["n", "k"],
    "minimal_profile": ["cert"],
    "normalize_witness": ["witness", "cert"],
    "primal_constraint_values": ["flow", "weights"],
    "random_low_bias_set": ["p", "delta", "seed"],
    "restriction_gap": ["instance", "witness", "j", "m"],
    "restriction_gap_bound": ["instance", "beta", "m"],
    "set_equality_structure": ["n"],
    "shift": ["w", "subset", "c", "p"],
    "solve_dual": ["cert", "params"],
    "solve_primal": ["cert", "params"],
    "spectral_norm": ["op"],
    "sum_array": ["q", "k"],
    "tau": ["x", "d"],
    "triangle_structure": ["n"],
    "triangle_witness": ["n"],
    "verify_orthogonal_array": ["array"],
    "verify_orthogonality_property": ["instance", "m"],
}


def _library_surface() -> dict[str, list[str] | None]:
    table = {}
    for name, obj in vars(lgcomplexity).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum)):
            table[name] = None
        else:
            table[name] = list(inspect.signature(obj).parameters)
    return table


def test_library_surface_snapshot():
    assert _library_surface() == LIBRARY_SURFACE
