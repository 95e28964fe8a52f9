"""Quantum Fisher information, variance roofs, and uncertainty-bound checks."""

from .core import (
    CutoffTooSmallError,
    DensityMatrix,
    DimensionMismatchError,
    FockAlgebra,
    HermitianOperator,
    PureState,
    RandomStateConfig,
    SpinAlgebra,
    coherent_state,
    commutator_i,
    expectation,
    ground_state,
    make_fock_algebra,
    make_spin_algebra,
    make_su_d_generators,
    random_density_matrix,
    spin_coherent_polar,
    spin_coherent_state,
    tensor,
    variance,
)
from .metrology import (
    EstimationReport,
    SldResult,
    UnestimableParameterError,
    VanishingSignalError,
    check_sld_saturation,
    cramer_rao,
    error_propagation,
    qfi,
    sld,
    variance_qfi_gap,
)
from .roofs import (
    Decomposition,
    OptimizerConfig,
    RobertsonSchrodingerBound,
    RoofResult,
    VarianceSum,
    concave_roof_L,
    convex_roof_variance,
    eigen_partition_bound_K,
    extract_decomposition,
    optimize_roof,
    purify,
    qubit_z_line_decomposition,
    roof_sum_I,
    roof_sum_R,
)
from .bounds import (
    BoundReport,
    FjCurve,
    InfeasibleTargetError,
    bfq_bound,
    check_improved_hr,
    check_improved_rs,
    check_robertson_schrodinger,
    check_weighted_sum,
    fj_curve,
    minvar_constrained,
    rs_lower_bound_L,
    spin_length_bound,
    su_d_bound,
)
from .entanglement import (
    TwoModeReport,
    collective_spin_ops,
    duan_report,
    two_spin_report,
    vxyz_criterion,
)
from .states import (
    ConvergenceError,
    DegenerateGroundStateError,
    PlanarSqueezedResult,
    coherent_mixture,
    planar_squeezed_state,
    singlet_state,
    spin_coherent_mixture,
    spin_coherent_product_mixture,
    spin_squeezed_state,
    two_mode_squeezed_vacuum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
