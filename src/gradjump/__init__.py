"""Local stability toolkit for surfaces of gradient discontinuity.

Jump-condition diagnostics, the material-interchange energy limit, the
weak/strong interpolation landscape, rank-one envelope checks, and the
scalar anti-plane shear example with its yield-circle geometry.
"""

from .energies import (
    AntiplaneDoubleWell,
    AntiplaneParams,
    EnergyModel,
    IsotropicParams,
    IsotropicThetaEnergy,
    MinQuadraticsEnergy,
    QuadraticEnergy,
    TabulatedEnergy,
    model_from_config,
)
from .envelopes import (
    AffineFormulaReport,
    AntiplaneAnalysis,
    EnvelopeCurve,
    LaminateState,
    LoadingStep,
    PlasticMechanism,
    antiplane_analyze,
    check_affine_formula,
    directional_derivative,
    laminate_from_macro,
    loading_program,
    lower_convex_hull,
    mechanism_pair,
    rank_one_restriction,
    strain_rate_split,
    tangency_gap,
    yield_plane,
)
from .errors import (
    ConfigError,
    DegeneratePairError,
    DimensionError,
    EmptyBinodalError,
    GradJumpError,
    IncompatiblePairError,
    NonconvergenceError,
    NonsmoothPointError,
    OutOfRegionError,
    QuadratureError,
)
from .interchange import (
    InterchangeField,
    InterchangeParams,
    QuadratureConfig,
    d_path,
    d_path_isotropic,
)
from .jumps import (
    InterfacePair,
    JumpDiagnostics,
    ScanResult,
    default_radii,
    diagnose,
    interchange_force,
    maxwell_force,
    normality_gap,
    roughening_residual,
    taylor_residual,
    traction_residual,
    weierstrass_scan,
)
from .quadrature import (
    SweepResult,
    VariationResult,
    energy_increment,
    estimate_region_measures,
    interchange_limit_target,
    interface_profile,
    limit_sweep,
)
from .tensors import (
    frobenius,
    outer,
    perp_unit,
    rank_one_decompose,
    sphere_grid,
    unit_ball_volume,
)

__version__ = "0.1.0"
