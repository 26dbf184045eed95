"""Learning-graph complexity of certificate structures, at desk scale.

Submodules:
  structures - certificate structures, the subset lattice, named builders
  lgsolver   - primal flow/weight and dual witness programs with solvers
  witnesses  - closed-form dual witnesses (uniform decay, triangle)
  arrays     - orthogonal arrays and hard input instances
  adversary  - projector algebra, block operators, spectral-norm certificates
  fourier    - character sums, low-bias sets, product-alphabet construction
  cli        - command-line entry points
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    LgError,
    ParameterError,
    StructuralError,
)
from .structures import (
    Arc,
    Certificate,
    CertificateStructure,
    MinimalProfile,
    Subset,
    build_named_structure,
    collision_structure,
    contains,
    hidden_shift_structure,
    ksubset_structure,
    lattice_arcs,
    minimal_profile,
    set_equality_structure,
    triangle_structure,
)
from .lgsolver import (
    DualWitness,
    DualityReport,
    FlowAssignment,
    PrimalSolution,
    SolverParams,
    WeightAssignment,
    dual_feasibility_margin,
    dual_objective,
    duality_report,
    flow_residuals,
    normalize_witness,
    primal_constraint_values,
    solve_dual,
    solve_primal,
)
from .witnesses import (
    EdgeSubset,
    TriangleWitnessConfig,
    clip01,
    hidden_shift_witness,
    ksubset_witness,
    tau,
    triangle_witness,
)
from .arrays import (
    FValue,
    HardInstance,
    OrthogonalArray,
    build_bounded_instance,
    build_instance,
    evaluate_f,
    sum_array,
    verify_orthogonal_array,
    verify_orthogonality_property,
)
from .adversary import (
    AdversaryReport,
    BlockOperator,
    LabeledMatrix,
    SpectralReport,
    UnitBasis,
    adversary_ratio,
    assemble,
    bounded_norm_certificates,
    build_basis,
    difference_coefficients,
    generator_partition,
    hadamard_mask,
    spectral_norm,
)
from .fourier import (
    BiasedSet,
    EquivalenceClass,
    GeneralInstance,
    build_general_instance,
    character_overlap,
    equivalence_classes,
    fourier_bias,
    random_low_bias_set,
    restriction_gap,
    restriction_gap_bound,
    shift,
)

__version__ = "0.1.0"
