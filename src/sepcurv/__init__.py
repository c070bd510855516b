"""Sectional curvature laboratory for separable hypersurfaces.

A separable hypersurface is the zero set of f_1(x_1) + ... + f_n(x_n) in
Euclidean n-space.  This package parses the f_k from a small expression
DSL (or builds them from ready-made families), lifts sampled points onto
the surface, and evaluates sectional curvature two independent ways: a
closed form on coordinate-pair tangent planes and a Gauss-equation engine
valid for arbitrary tangent planes.  Scans judge whether curvature is
constant; residuals certify flatness and constant-curvature candidates.
"""

from types import ModuleType as _ModuleType

from .curvature import (
    DEFAULT_CONSTANCY_TOL,
    EQUIVALENCE_RTOL,
    CurvatureReport,
    PlaneSection,
    ScanPolicy,
    ScanRecord,
    constk_residual,
    coordinate_plane,
    flatness_residual,
    random_tangent_plane,
    scan_constancy,
    sectional_oracle,
    sectional_special,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DegeneratePlaneError,
    DomainError,
    MeshError,
    NonFiniteError,
    OffSurfaceError,
    ParseError,
    RegularityError,
    SepcurvError,
    SolveError,
    SpecFileError,
)
from .expr import Function1D, eval_jet2, parse, parse_function, to_source
from .families import (
    FAMILY_KINDS,
    FamilySpec,
    log_family_lambdas,
    make_cobb_douglas_perturbed,
    make_cobb_douglas_sqrt,
    make_cylinder,
    make_exp_control,
    make_hyperplane,
    make_hypersphere,
    make_log_ode,
    ode_residual_subcase21,
)
from .geometry import (
    ON_SURFACE_RTOL,
    REGULARITY_EPS,
    SeparableSurface,
    SurfacePoint,
    ensure_regular,
    sample_points,
    solve_height,
)
from .jets import Jet2
from .meshing import MeshResult, build_mesh, write_curvature_csv, write_obj
from .report import (
    read_report_body,
    report_body_csv,
    report_body_json,
    write_report,
)
from .specfile import FORMAT_VERSION, LoadedSpec, load_spec, spec_digest
from .suites import SuiteRow, run_constant_suite, run_flat_suite

__version__ = "1.0.0"

# the public names are exactly the ones imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
