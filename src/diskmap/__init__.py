"""Spectral solver and certificates for conformal disk maps with a
prescribed boundary derivative modulus."""

from .blaschke import construct as blaschke_product
from .certify import (
    Certificate,
    check_starlike,
    check_subsolution,
    check_supersolution,
    free_boundary_check,
)
from .errors import (
    ConfigError,
    DegenerateBoundaryError,
    DiskmapError,
    DivergenceError,
    EmptyIntersectionError,
    InvalidSequenceError,
    NonFiniteWeightError,
    NotUnivalentError,
)
from .regions import (
    RasterRegion,
    build_shrinking_spiral_family,
    extended_union,
    kernel_of_shrinking,
    reduced_intersection,
    schoenfliess_test,
)
from .regularity import SpectrumReport, second_derivative, spectrum_report
from .solver import (
    ScanResult,
    SolveOptions,
    SolveReport,
    radial_scan,
    residual_sup,
    scaled_identity,
    solve,
    univalence,
)
from .spectral import (
    DiskFunction,
    conjugate_periodic,
    derivative,
    grid_angles,
    hp_boundary_distance,
    poisson_extend,
    schwarz_integral,
)
from .weight import (
    ContractionCertificate,
    WeightField,
    constant_field,
    contraction_certificate,
    make_builtin,
    radial_piecewise_field,
    radial_scale_check,
    random_smooth_field,
    staircase_field,
    superharmonic_check,
    tabulated_field,
)

__version__ = "0.1.0"
