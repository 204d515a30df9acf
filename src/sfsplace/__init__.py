"""Loudspeaker placement for least-squares 2D sound field synthesis.

Greedy secondary-source selection against a statistical prior of
desired fields, with free-field and rectangular-room (image source)
propagation, circular-region weighted mode matching, and equal-spacing
baselines for comparison.
"""

from .config import (
    CandidateSpec,
    EvalSpec,
    ExperimentConfig,
    PriorSpec,
    RoomSpec,
    load_config,
    square_loop,
)
from .experiment import (
    TruncationError,
    baseline_indices,
    build_problems,
    evaluate_placements,
    paper_config,
    place_greedy,
    run_evaluate,
    run_place,
    run_reproduce,
)
from .placement import (
    BroadbandSpec,
    DirectionRangePrior,
    FieldPrior,
    FrequencyProblem,
    PlacementResult,
    SelectionState,
    add_candidate,
    broadband_cost,
    candidate_deltas,
    exhaustive_place,
    greedy_place,
    greedy_place_broadband,
    placement_cost,
    prior_from_direction_range,
    regular_placement_a,
    regular_placement_b,
    state_cost,
)
from .room import RoomModel
from .synthesis import (
    SDR_CAP_DB,
    ConditioningError,
    WeightMatrix,
    identity_weight,
    region_grid,
    solve_wmm,
    source_coeff_matrix,
    synthesis_lambda,
    weight_matrix_circle,
)
from .wavefield import (
    CircularRegion,
    ExpansionConfig,
    Frequency,
    Point2,
    expansion_for,
    planewave_coeffs,
    truncation_order,
)

__version__ = "0.1.0"

__all__ = [
    "BroadbandSpec",
    "CandidateSpec",
    "CircularRegion",
    "ConditioningError",
    "DirectionRangePrior",
    "EvalSpec",
    "ExpansionConfig",
    "ExperimentConfig",
    "FieldPrior",
    "Frequency",
    "FrequencyProblem",
    "PlacementResult",
    "Point2",
    "PriorSpec",
    "RoomModel",
    "RoomSpec",
    "SDR_CAP_DB",
    "SelectionState",
    "TruncationError",
    "WeightMatrix",
    "add_candidate",
    "baseline_indices",
    "broadband_cost",
    "build_problems",
    "candidate_deltas",
    "evaluate_placements",
    "exhaustive_place",
    "expansion_for",
    "greedy_place",
    "greedy_place_broadband",
    "identity_weight",
    "load_config",
    "paper_config",
    "place_greedy",
    "placement_cost",
    "planewave_coeffs",
    "prior_from_direction_range",
    "region_grid",
    "regular_placement_a",
    "regular_placement_b",
    "run_evaluate",
    "run_place",
    "run_reproduce",
    "solve_wmm",
    "source_coeff_matrix",
    "square_loop",
    "state_cost",
    "synthesis_lambda",
    "truncation_order",
    "weight_matrix_circle",
]
