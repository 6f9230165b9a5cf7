"""Induced and restricted representations of finite groups, planar
steerable-kernel solving, and lifting layers from the plane to the sphere
and the rotation group.

Exports load lazily (PEP 562): the first ``planelift.X`` imports the one
submodule that defines ``X``.
"""

import importlib

_EXPORTS = {
    "groups": ("CosetDecomposition", "FiniteGroup", "SubgroupEmbedding", "build_group",
               "coset_decomposition", "named_embedding", "subgroup_embedding"),
    "induce_restrict": ("BranchingTable", "InductionTable", "boundary_compatibility",
                        "branching_table", "check_frobenius", "completeness_check",
                        "induction_table", "restrict"),
    "kernels": ("InductionKernel", "RadialProfileSet", "SO2RepSpec", "SteerableKernelBasis",
                "analytic_basis_count", "build_induction_kernel", "build_r3s2_kernel",
                "build_so3_kernel", "build_volume_kernel", "grid_nullspace_dimension",
                "solve_so2_basis"),
    "layers": ("AnalyticField", "HarnessReport", "LayerConfig", "PlanarFeatureField",
               "SO3Signal", "SphericalSignal", "equivariance_harness", "gradient_check",
               "induction_forward", "induction_forward_many", "rotate_field", "rotate_signal",
               "sphere_to_so3_correlation", "spherical_nonlinearity"),
    "reps": ("Decomposition", "IrrepTable", "Representation", "decompose", "direct_sum",
             "hom_dimension", "induce", "irrep_table", "regular_representation",
             "tensor_product"),
    "so2_so3": ("Rotation3", "SphericalHarmonicBasis", "restrict_wigner", "sphere_quadrature",
                "wigner_d"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
