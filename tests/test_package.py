import dataclasses
import types

import scrumrank

# The package root's public names. A name joins or leaves the root only by
# an edit to this list.
EXPORTS = {
    # the README's library example
    "FitConfig", "PriorConfig", "build_table", "fit", "load_matches",
    "outcome_counts", "playing_records", "pppm",
    # what the acceptance suite uses
    "HomeModel", "MatchRecord", "Parameters", "VariantConfig", "Venue",
    "clean", "double_round_robin", "gauge_transform", "generalized_mean",
    "interpret_structural", "log_likelihood", "lppm", "merit_points",
    "outcome_distribution", "parse_csv", "recovery_study", "score",
    "solve_scale", "write_audit_csv", "write_cleaned_csv",
    # what the command line uses
    "CleanResult", "CsvParseError", "DEFAULT_POINTS", "DEFAULT_VARIANT",
    "FittedModel", "NonConvergenceError", "PointsSystem",
    "TeamMismatchError", "TryModel", "compare_rankings", "parameter_layout",
    "parse_fixtures_csv", "read_previous_ranks",
}


def test_package_root_exports_exactly_the_listed_names():
    public = {name for name, value in vars(scrumrank).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(public - EXPORTS) == []  # exported but not listed
    assert sorted(EXPORTS - public) == []  # listed but not exported


def test_fit_config_has_exactly_the_listed_fields():
    fields = [field.name for field in dataclasses.fields(scrumrank.FitConfig)]
    assert fields == ["variant", "prior", "freeze", "points_system"]
