"""Geodesic flows of planar polynomial pseudo-Finsler metrics.

The metric function F(x, y; p) is a polynomial in the slope p = dy/dx
with smooth coefficient fields.  The package builds the projectivized
direction field of the geodesic equation, integrates and classifies it,
stratifies the plane by the discriminant, analyses singular points of
the flow, expands solutions in power series at degenerate points, and
renders phase portraits.  Product metrics induced on immersed surfaces
get dedicated blow-up tooling.

Numeric evaluation runs through straight-line Python functions generated
from the expression trees of each metric layer (codegen.py), on floats
and on numpy arrays; there is no compiled extension.
"""

from __future__ import annotations

from .berwald_moor import (
    AdaptedLocalMetric,
    SurfaceImmersion,
    adapted_from_immersion,
    admissible_u,
    blowup_field_at,
    blowup_spectrum,
    bm_family_shoot,
    double_direction_locus,
    induced_metric,
)
from .expr import parse
from .flow import (
    GeodesicTrace,
    IntegratorConfig,
    PTMPoint,
    TraceEvent,
    field_at,
    integrate,
    isotropic_trace,
    shoot_boundary_family,
    tm_integrate,
)
from .metric import (
    STRATA,
    ProjectiveRoot,
    PseudoFinslerMetric,
    Stratum,
    accel_determinants,
    classify_point,
    disc_denom,
    disc_metric,
    isotropic_directions,
    metric_from_strings,
    strata_on_grid,
)
from .nets import net_curves
from .poly import degeneracy_poly
from .puiseux import (
    GeodesicSeries,
    TruncatedSeries,
    series_point,
    series_to_curve,
    solve_geodesic_series,
)
from .singular import (
    CurveSamples,
    SingularPoint,
    StratumError,
    TangencyReport,
    boundary_curves,
    classify_singular,
    find_tangency_failures,
    lift_to_slope,
    singular_curves,
    tangency_report,
    trace_implicit_curve,
)

__version__ = "0.1.0"

__all__ = [
    "STRATA",
    "AdaptedLocalMetric",
    "CurveSamples",
    "GeodesicSeries",
    "GeodesicTrace",
    "IntegratorConfig",
    "PTMPoint",
    "ProjectiveRoot",
    "PseudoFinslerMetric",
    "SingularPoint",
    "Stratum",
    "StratumError",
    "SurfaceImmersion",
    "TangencyReport",
    "TraceEvent",
    "TruncatedSeries",
    "accel_determinants",
    "adapted_from_immersion",
    "admissible_u",
    "field_at",
    "blowup_field_at",
    "blowup_spectrum",
    "bm_family_shoot",
    "boundary_curves",
    "classify_point",
    "classify_singular",
    "degeneracy_poly",
    "disc_denom",
    "disc_metric",
    "double_direction_locus",
    "find_tangency_failures",
    "induced_metric",
    "integrate",
    "isotropic_directions",
    "isotropic_trace",
    "lift_to_slope",
    "metric_from_strings",
    "net_curves",
    "parse",
    "series_point",
    "series_to_curve",
    "shoot_boundary_family",
    "singular_curves",
    "solve_geodesic_series",
    "strata_on_grid",
    "tangency_report",
    "tm_integrate",
    "trace_implicit_curve",
]
