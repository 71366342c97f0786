"""Geodesics, transport, and composition laws on spaces of paths."""

from .manifold import (
    DomainError,
    GeometryError,
    IntegrationError,
    ManifoldPoint,
    ManifoldSpec,
    NormalNeighborhoodError,
    TangentVector,
    distance,
    exp_map,
    log_map,
    parallel_transport,
)
from .path import (
    DiscretePath,
    PathTangentField,
    arc_length,
    concatenate,
    evaluate,
    path_energy,
    reverse,
)
from .pathspace import (
    Worldsheet,
    connecting_geodesic,
    in_normal_neighborhood,
    l2_metric,
    pathspace_distance,
    pathspace_exp,
    pathspace_geodesic,
    pathspace_transport,
    sheet_energy,
    sheet_length,
)
from .backtrack import (
    BackTrackWindow,
    bt_equivalent,
    canonical_form,
    detect_backtracks,
    erase_backtrack,
    field_canonical_form,
)
from .category import (
    CompositionError,
    ExchangeReport,
    GeodMorphism1,
    GeodMorphism2,
    GeodObject,
    check_exchange,
    compose1,
    compose2_horizontal,
    compose2_vertical,
    identity1,
    identity2,
    morphism1,
    morphism2,
    src1,
    src2,
    tgt1,
    tgt2,
)

from .checks import run_checks
from .serialize import dumps, path_to_csv, sheet_to_csv, sheet_to_obj

__version__ = "0.1.0"
