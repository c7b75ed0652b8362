"""Schedule-aware rugby union ratings from league points.

Fits a maximum-entropy pairwise-comparison model to match results where
the recorded outcome is the league points split (win / narrow win / draw
plus try and losing bonuses), then rates every team by the points per
match the model expects over a balanced home-and-away schedule. Includes
the data-cleaning rules for self-reported result sheets, the banded
merit-points method used by the schools trophy, and simulation tooling
for parameter-recovery studies.
"""

from .domain import (
    DEFAULT_POINTS,
    MatchColumns,
    MatchRecord,
    OutcomeCounts,
    PointsSystem,
    ResultOutcome,
    SuffStats,
    TeamRecord,
    TryOutcome,
    Venue,
    classify_match,
    classify_result,
    classify_try,
    league_points,
    outcome_counts,
    sufficient_stats,
)
from .estimate import (
    ConvergenceReport,
    FitConfig,
    FittedModel,
    NonConvergenceError,
    PriorConfig,
    Score,
    fit,
    log_likelihood,
    score,
)
from .ingest import (
    CleanResult,
    CleaningAction,
    CsvParseError,
    FieldChange,
    MatchTable,
    RawMatchRow,
    RejectedRow,
    clean,
    load_matches,
    parse_csv,
    replay_actions,
    write_audit_csv,
    write_cleaned_csv,
)
from .model import (
    DEFAULT_VARIANT,
    HomeModel,
    OutcomeDistribution,
    Parameters,
    ParameterError,
    ParameterLayout,
    StructuralInterpretation,
    TryModel,
    VariantConfig,
    expected_points,
    gauge_transform,
    generalized_mean,
    interpret_structural,
    normalize_parameters,
    outcome_distribution,
    parameter_layout,
    solve_scale,
)
from .rank import (
    RankingComparison,
    RankingTable,
    TeamMismatchError,
    build_table,
    compare_rankings,
    lppm,
    merit_points,
    playing_records,
    pppm,
    read_previous_ranks,
)
from .simulate import (
    Fixture,
    RecoveryStudy,
    double_round_robin,
    fixture_rng,
    parse_fixtures_csv,
    recovery_study,
    sample_match,
    simulate_season,
)

__version__ = "0.1.0"
