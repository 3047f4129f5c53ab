"""Variety-maximizing allocation of limited-quantity styles to stores."""

from .core import (
    Article,
    BigMPolicy,
    DistanceMatrix,
    DistributionInstance,
    DistributionPlan,
    FeatureCatalog,
    Metric,
    Store,
    distance_matrix,
    ensure_valid,
    instance_to_json,
    load_catalog,
    load_instance,
    read_catalog_file,
    read_instance_file,
    validate_instance,
)
from .errors import (
    BudgetExceededError,
    CatalogError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptySubsetError,
    InfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    NonFiniteValueError,
    PopulationTooSmallError,
    StylemixError,
    SubsetIndexError,
    TooFewStylesError,
    ValidationError,
    VerificationError,
    Violation,
)
from .experiments import (
    BaselineComparison,
    CounterexampleReport,
    ExperimentReport,
    LinearityConfig,
    MeasureCurve,
    baseline_allocate,
    compare_against_baseline,
    demo_catalog,
    demo_instance,
    run_linearity,
    synthetic_population,
    verify_counterexamples,
)
from .lp import MilpModel, build_milp, check_assignment, export_lp, linearization_witness
from .solver import (
    AssignmentPattern,
    CutCertificate,
    EdgeCertificate,
    HeuristicConfig,
    QuantityResult,
    SolveLimits,
    SolveReport,
    SolveStatus,
    evaluate_plan,
    improve_plan,
    plan_from_quantities,
    plan_violations,
    quantity_feasible,
    solve_exact,
    solve_heuristic,
)
from .variety import (
    MONOTONICITY_TOLERANCE,
    MonotonicityResult,
    VarietyMeasure,
    check_monotonicity,
    variety,
)

__version__ = "0.1.0"
