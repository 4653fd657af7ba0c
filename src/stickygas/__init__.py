"""Accelerated sticky-particle dynamics on the line.

Event-driven simulation of inelastic collisions under per-particle constant
acceleration, an independent variational reconstruction of the cluster
partition, conditional-expectation identities for the flow, and numerical
weak-solution checks for the position-space and velocity-space pressureless
gas systems.
"""

from .dynamics import (
    ShockEvent,
    ShockTimeline,
    brute_force_partitions,
    simulate,
)
from .errors import StickyError
from .flow import (
    FlowField,
    dermoune_identity_residuals,
    right_derivative_check,
)
from .gas import (
    ResidualReport,
    continuity_conditions_check,
    initial_limits_check,
    position_space_residuals,
    threshold_crossing_measure,
    velocity_space_fields,
    velocity_space_residuals,
)
from .gvp import (
    GvpFunctional,
    clusters_from_gvp,
    gvp_equivalence_check,
    interior_condition,
    is_left_endpoint,
    is_right_endpoint,
)
from .measures import DiscreteMeasure
from .model import (
    Cluster,
    InitialData,
    cluster_aggregates,
    validate,
)
from .quadratics import QuadraticPath, lemma_quadratic_dominance, quadratic_meet_times
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "Cluster",
    "DEFAULT_TOL",
    "DiscreteMeasure",
    "FlowField",
    "GvpFunctional",
    "InitialData",
    "QuadraticPath",
    "ResidualReport",
    "ShockEvent",
    "ShockTimeline",
    "StickyError",
    "Tolerances",
    "brute_force_partitions",
    "cluster_aggregates",
    "clusters_from_gvp",
    "continuity_conditions_check",
    "dermoune_identity_residuals",
    "gvp_equivalence_check",
    "initial_limits_check",
    "interior_condition",
    "is_left_endpoint",
    "is_right_endpoint",
    "lemma_quadratic_dominance",
    "position_space_residuals",
    "quadratic_meet_times",
    "right_derivative_check",
    "simulate",
    "threshold_crossing_measure",
    "validate",
    "velocity_space_fields",
    "velocity_space_residuals",
]
