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
    MatchRecord,
    PointsSystem,
    Venue,
    outcome_counts,
)
from .estimate import (
    FitConfig,
    FittedModel,
    NonConvergenceError,
    PriorConfig,
    fit,
    log_likelihood,
    score,
)
from .ingest import (
    CleanResult,
    CsvParseError,
    clean,
    load_matches,
    parse_csv,
    write_audit_csv,
    write_cleaned_csv,
)
from .model import (
    DEFAULT_VARIANT,
    HomeModel,
    Parameters,
    TryModel,
    VariantConfig,
    gauge_transform,
    generalized_mean,
    interpret_structural,
    outcome_distribution,
    parameter_layout,
    solve_scale,
)
from .rank import (
    TeamMismatchError,
    build_table,
    compare_rankings,
    lppm,
    merit_points,
    playing_records,
    pppm,
    read_previous_ranks,
)
from .simulate import double_round_robin, parse_fixtures_csv, recovery_study

__version__ = "0.1.0"
