"""Discrete geodesic and intrinsic distances on finitely ramified
self-similar fractals with regular boundary energy structures."""

from .errors import (
    BrokenStructureError,
    DegenerateFormError,
    FractalDistError,
    InvalidParameterError,
    NoEqualWeightStructureError,
    ResourceLimitError,
    SpecValidationError,
)
from .harmonic import (
    ConditionReport,
    HarmonicStructure,
    check_dirichlet_matrix,
    check_regularity,
    check_structure_conditions,
    default_boundary_matrix,
    extension_matrices,
    fixed_point_eigendata,
    separation_constant,
    solve_equal_renormalization,
)
from .measures import (
    HarmonicTuple,
    cell_measure_table,
    check_domination,
    default_tuple,
)
from .metrics import (
    Certificate,
    ConvergenceHistory,
    GeodesicResult,
    MetricContext,
    discrete_geodesic,
    distance_matrix,
    geodesic_converge,
    geodesic_profile,
    intrinsic_certificate,
    intrinsic_estimate,
    weighted_level_graph,
)
from .structure import (
    FractalSpec,
    LevelGraph,
    VertexRef,
    build_level,
    generate_spec,
    lift,
)

__version__ = "0.1.0"
