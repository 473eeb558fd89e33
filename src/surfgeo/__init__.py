"""Numerical differential geometry on parametrized surfaces.

Parallel transport (the south-pointing chariot), geodesics by shooting and
by relaxation, Gaussian curvature as holonomy density, Gauss-Bonnet
consistency checks, and flat-map distortion reports, all over first
fundamental form data on a single chart.
"""

from .curvature import (
    curvature_at,
    CurvatureEstimate,
    CurvatureSample,
    default_scales,
    egregium_check,
    EgregiumRecord,
    gauss_bonnet_check,
    GaussBonnetResult,
    polygon_angle_excess,
    PolygonExcess,
    quadratic_fit_curvature,
    QuadraticFit,
)
from .geodesics import (
    ChartExitError,
    connect_geodesic,
    geodesic_polygon,
    GeodesicShot,
    relax_to_geodesic,
    RelaxationReport,
    rotation_rate_profile,
    second_variation_probe,
    shoot_batch,
    shoot_geodesic,
)
from .paths import (
    add_detour,
    arclengths,
    chart_rectangle,
    compose,
    default_max_step,
    is_simple,
    Loop,
    loop_from_waypoints,
    Path,
    path_from_waypoints,
    path_length,
    rebase,
    refine_path,
    region_from_loop,
    RegionBoundary,
    reverse_path,
    sample_path,
    segment_lengths,
    subdivide_region,
)
from .projection import (
    builtin_projection,
    distortion_report,
    DistortionReport,
    DistortionSample,
    FlatMap,
    holonomy_obstruction,
    local_scales,
    ObstructionVerdict,
    SkippedPair,
)
from .surface import (
    area_of_region,
    builtin_surface,
    ChartDomain,
    ChartPoint,
    christoffel_at,
    ChristoffelSymbols,
    connection_form,
    connection_increments,
    frame_angle,
    frame_at,
    frame_components,
    metric_dot,
    metric_norm,
    Surface,
    surface_from_embedding,
    surface_from_metric,
    TangentVector,
    vector_from_frame,
)
from .svgplot import emit_svg_plot
from .transport import (
    ChariotConfig,
    ChariotResult,
    TransportResult,
    chariot_convergence,
    finite_chariot,
    holonomy_transport,
    loop_holonomy,
    parallel_transport,
)

__version__ = "0.1.0"
