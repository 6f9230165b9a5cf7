"""Induced and restricted representations of finite groups, planar
steerable-kernel solving, and lifting layers from the plane to the sphere
and the rotation group."""

from .groups import (
    CosetDecomposition,
    FiniteGroup,
    SubgroupEmbedding,
    build_group,
    coset_decomposition,
    named_embedding,
    subgroup_embedding,
)
from .induce_restrict import (
    BranchingTable,
    InductionTable,
    boundary_compatibility,
    branching_table,
    check_frobenius,
    completeness_check,
    induce,
    induction_table,
    restrict,
)
from .kernels import (
    InductionKernel,
    RadialProfileSet,
    SO2RepSpec,
    SteerableKernelBasis,
    analytic_basis_count,
    build_induction_kernel,
    build_r3s2_kernel,
    build_so3_kernel,
    build_volume_kernel,
    grid_nullspace_dimension,
    solve_so2_basis,
)
from .layers import (
    AnalyticField,
    HarnessReport,
    LayerConfig,
    PlanarFeatureField,
    SO3Signal,
    SphericalSignal,
    equivariance_harness,
    gradient_check,
    induction_forward,
    rotate_field,
    rotate_signal,
    sphere_to_so3_correlation,
    spherical_nonlinearity,
)
from .reps import (
    Decomposition,
    IrrepTable,
    Representation,
    decompose,
    direct_sum,
    hom_dimension,
    irrep_table,
    regular_representation,
    tensor_product,
)
from .so2_so3 import (
    Rotation3,
    SphericalHarmonicBasis,
    restrict_wigner,
    sph_eval,
    sphere_quadrature,
    wigner_d,
)

__version__ = "0.1.0"
