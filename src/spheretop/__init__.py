"""Two interacting bodies on the 3-sphere and the 4-dimensional symmetric top.

The configuration sphere is a group of unit quaternions, so left and right
translations are commuting symmetries: the problem reduces in stages, first
to a translation-reduced space carrying two Casimirs, then to a 4-dimensional
semialgebraic variety of conjugation invariants.  The package implements the
dynamics on every level, the complete classification of relative equilibria,
their linear stability with closed-form spectra, and the sampling of
energy-Casimir bifurcation surfaces.
"""

__version__ = "0.1.0"

from .quaternion import (
    ImaginaryQuaternion,
    Quaternion,
    So4Element,
    adjoint_bracket,
    classify_subgroup,
    phi_double_cover,
    quat_mul,
    so4_isom_pullback,
)
from .phase_space import (
    CollisionError,
    MassParams,
    PhaseState,
    Potential,
    classify_point,
    hamiltonian_2body,
    hamiltonian_lagrange,
    momentum_left,
    momentum_right,
    sjamaar_slice_check,
)
from .reduction import (
    CasimirValues,
    InvariantPoint,
    ReducedState,
    casimir_C3,
    degenerate_leaf_sample,
    hilbert_map,
    left_reduce,
    orbit_diffeo,
    right_reduce,
    stratum_classify,
)
from .dynamics import (
    FlowConfig,
    HamiltonianKind,
    SingularityError,
    Trajectory,
    integrate,
    rhs_full_reduced,
)
from .poisson import (
    bracket_matrix,
    integral_I,
    table_bracket,
    table_flow,
)
from .relequil import (
    NoSolutionError,
    RelativeEquilibrium,
    reconstruct_re,
    re_from_tau,
    solve_re,
    solve_re_linear_system,
    verify_re_fixed_point,
)
from .stability import (
    FoldResult,
    LinearizationReport,
    charpoly_2body,
    charpoly_lagrange,
    closed_form_eigs_2body,
    closed_form_eigs_lagrange,
    fold_locus,
    linearize,
)
from .energy_casimir import ECSample, ec_sample, ec_surface, singular_thread
