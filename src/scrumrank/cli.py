"""Command line front end.

Subcommands: clean, fit, rank, simulate, interpret. Every run writes a
manifest JSON next to its first output recording the exact argument
vector, inputs, outputs and seed; replaying the manifest's argv
reproduces the outputs byte for byte. Human summaries go to stdout,
machine-readable results only to files.

Exit codes: 0 success, 2 unreadable or malformed input, 3 rows rejected
by cleaning, 4 fit did not converge, 5 team universes do not match.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Sequence

from .domain import (
    DEFAULT_POINTS,
    PointsSystem,
    json_object,
    outcome_counts,
)
from .estimate import (
    GRADIENT_TOLERANCE,
    MAX_ITERATIONS,
    FitConfig,
    FittedModel,
    NonConvergenceError,
    PriorConfig,
    fit,
)
from .ingest import (
    CleanResult,
    clean,
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
    interpret_structural,
    parameter_layout,
)
from .rank import (
    TeamMismatchError,
    build_table,
    compare_rankings,
    merit_points,
    playing_records,
    pppm,
    read_previous_ranks,
)
from .simulate import parse_fixtures_csv, recovery_study

VARIANTS = {
    "opposition-dependent": VariantConfig(
        TryModel.OPPOSITION_DEPENDENT, HomeModel.SINGLE_KAPPA),
    "opposition-independent": VariantConfig(
        TryModel.OPPOSITION_INDEPENDENT, HomeModel.SINGLE_KAPPA),
    "offensive-defensive": VariantConfig(
        TryModel.OFFENSIVE_DEFENSIVE, HomeModel.SINGLE_KAPPA),
    "team-specific": VariantConfig(
        TryModel.OPPOSITION_DEPENDENT, HomeModel.TEAM_SPECIFIC),
}

def _read_text(path: str) -> str:
    """The file's UTF-8 text, less any byte-order mark at its start."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return handle.read()


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _load_points(path: str | None,
                 fallback: PointsSystem = DEFAULT_POINTS) -> PointsSystem:
    """The points system in the file at ``path``; ``fallback`` when no
    file is given."""
    if not path:
        return fallback
    return PointsSystem.from_dict(
        json_object(json.loads(_read_text(path)), "points-system file"))


def _load_parameters_file(path: str):
    """Load a FittedModel JSON or a bare parameters JSON.

    Returns (parameters, variant or None, points or None).
    """
    text = _read_text(path)
    doc = json_object(json.loads(text), path)
    if "parameters" in doc:
        model = FittedModel.from_json(text)
        return model.parameters, model.variant, model.points_system
    try:
        params = Parameters.from_dict(doc)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    variant = None
    if "variant" in doc:
        variant = VariantConfig.from_dict(doc["variant"])
    return params, variant, None


def _write_manifest(subcommand: str, argv: Sequence[str],
                    inputs: Sequence[str], outputs: Sequence[str],
                    seed: int | None, points: PointsSystem | None,
                    extra: dict | None = None) -> str:
    directory = os.path.dirname(outputs[0]) or "."
    path = os.path.join(directory, f"{subcommand}_manifest.json")
    doc = {
        "subcommand": subcommand,
        "argv": list(argv),
        "inputs": list(inputs),
        "outputs": list(outputs),
        "seed": seed,
        "points_system": None if points is None else points.to_dict(),
    }
    if extra:
        doc.update(extra)
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _load_clean_result(path: str) -> CleanResult:
    return clean(parse_csv(_read_text(path)))


def _report_rejections(result: CleanResult) -> bool:
    for rejection in result.rejected:
        print(f"row {rejection.row} rejected: {rejection.reason}",
              file=sys.stderr)
    return bool(result.rejected)


def _structural_line(model: FittedModel) -> str:
    return ", ".join(f"{name}={getattr(model.parameters, name):.6g}"
                     for name in parameter_layout(model.variant).structural)


def _print_interpretation(params: Parameters, points: PointsSystem):
    interp = interpret_structural(params, points)
    print("per-match outcome rates between equal-strength teams:")
    for label, rates in (("with home advantage", interp.with_home_advantage),
                         ("neutral venue", interp.neutral)):
        print(f"  {label}: wide {rates.wide_result:.4f}, "
              f"narrow {rates.narrow_result:.4f}, draw {rates.draw:.4f}, "
              f"home/away win ratio {rates.home_away_win_ratio:.4f}, "
              f"both try bonuses {rates.both_try_bonus:.4f}, "
              f"neither {rates.zero_try_bonus:.4f}")


def _print_fit_summary(model: FittedModel):
    report = model.report
    print(f"converged in {report.iterations} iterations; gradient max-norm "
          f"{report.final_gradient_norm:.2e}; log-likelihood "
          f"{report.log_likelihood:.6f}")
    print(f"structural parameters: {_structural_line(model)}")
    params = model.parameters
    names = parameter_layout(model.variant).strength_tables
    tables = [getattr(params, name) for name in names]
    print(f"{' / '.join(names)} (generalized mean 1):")
    for team in sorted(tables[0], key=tables[0].get, reverse=True):
        print(f"  {team}: " + " / ".join(f"{table[team]:.4f}"
                                         for table in tables))
    print("league points, observed vs expected (prior included):")
    for team in sorted(report.observed_points):
        print(f"  {team}: {report.observed_points[team]:.3f} vs "
              f"{report.expected_points[team]:.3f}")
    if model.variant == DEFAULT_VARIANT:
        _print_interpretation(params, model.points_system)


def _cmd_clean(args, argv) -> int:
    rows = parse_csv(_read_text(args.results))
    result = clean(rows)
    _write_text(args.output, write_cleaned_csv(result.rows))
    _write_text(args.audit, write_audit_csv(result.actions))
    _write_manifest("clean", argv, [args.results],
                    [args.output, args.audit], None, None)
    print(f"kept {len(result.records)} of {len(rows)} rows, "
          f"{len(result.actions)} repairs, {len(result.rejected)} rejected")
    if _report_rejections(result):
        return 3
    return 0


def _cmd_fit(args, argv) -> int:
    points = _load_points(args.points_system)
    result = _load_clean_result(args.results)
    if _report_rejections(result):
        return 3
    if result.actions:
        print(f"note: input needed {len(result.actions)} repairs; "
              "fitting the repaired rows", file=sys.stderr)
    variant = VARIANTS[args.variant]
    freeze = None
    if args.freeze_structural:
        freeze = json.loads(_read_text(args.freeze_structural))
        if not isinstance(freeze, dict):
            raise ValueError("freeze-structural file must hold a JSON "
                             "object of parameter: value pairs")
    config = FitConfig(variant=variant,
                       prior=PriorConfig(weight=args.prior_weight),
                       freeze=freeze, points_system=points)
    counts = outcome_counts(result.records, points)
    model = fit(counts, config)
    _write_text(args.model, model.to_json() + "\n")
    _write_manifest("fit", argv, [args.results], [args.model], None, points,
                    extra={"fit_config": {
                        "variant": args.variant,
                        "prior_weight": args.prior_weight,
                        "freeze": freeze,
                        "gradient_tolerance": GRADIENT_TOLERANCE,
                        "max_iterations": MAX_ITERATIONS,
                    }})
    _print_fit_summary(model)
    return 0


def _sibling(path: str, suffix: str, extension: str | None = None) -> str:
    stem, ext = os.path.splitext(path)
    return stem + suffix + (extension if extension is not None else ext)


def _cmd_rank(args, argv) -> int:
    model = FittedModel.from_json(_read_text(args.model))
    model.parameters.validate(model.variant)
    points = _load_points(args.points_system, model.points_system)
    result = _load_clean_result(args.results)
    if _report_rejections(result):
        return 3
    matches = result.records
    records = playing_records(matches, points)
    ratings = pppm(model, points=points)
    table = build_table(ratings, records, min_matches=args.min_matches)
    _write_text(args.table, table.to_csv())
    outputs = [args.table]
    for row in table.rows:
        mark = "NR" if row.rank is None else f"{row.rank:>2}"
        print(f"  {mark}  {row.team}: rating {row.rating:.4f}, "
              f"played {row.played}, points {row.league_points}, "
              f"points per match {row.lppm:.4f}")
    if args.prev_ranks:
        prev = read_previous_ranks(_read_text(args.prev_ranks))
        merit = merit_points(records, matches, prev)
        merit_table = build_table(merit, records, min_matches=args.min_matches)
        merit_path = _sibling(args.table, "_merit")
        _write_text(merit_path, merit_table.to_csv())
        comparison = compare_rankings(merit_table, table)
        comparison_path = _sibling(args.table, "_comparison", ".json")
        _write_text(comparison_path, json.dumps({
            "first_method": "MeritPoints",
            "second_method": "PPPM",
            "mean_absolute_rank_difference":
                comparison.mean_absolute_rank_difference,
            "moves": [list(move) for move in comparison.moves],
            "adjustments": {team: list(pair) for team, pair
                            in comparison.adjustments.items()},
        }, indent=2, sort_keys=True) + "\n")
        outputs += [merit_path, comparison_path]
        print(f"merit vs model ranking: mean absolute rank difference "
              f"{comparison.mean_absolute_rank_difference:.3f} places")
    _write_manifest("rank", argv, [args.model, args.results]
                    + ([args.prev_ranks] if args.prev_ranks else []),
                    outputs, None, points)
    return 0


def _cmd_simulate(args, argv) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, "
                         f"got {args.seed}")
    params, file_variant, file_points = _load_parameters_file(args.truth)
    points = _load_points(args.points_system, file_points or DEFAULT_POINTS)
    if args.variant:
        variant = VARIANTS[args.variant]
    else:
        variant = file_variant or DEFAULT_VARIANT
    params.validate(variant)
    fixtures = parse_fixtures_csv(_read_text(args.fixtures))
    config = FitConfig(variant=variant,
                       prior=PriorConfig(weight=args.prior_weight),
                       points_system=points)
    study = recovery_study(params, fixtures, args.replicates, args.seed,
                           config)
    _write_text(args.report, study.to_csv())
    _write_manifest("simulate", argv, [args.truth, args.fixtures],
                    [args.report], args.seed, points)
    summary = study.summary()
    print(f"{summary.converged} of {summary.replicates} replicates "
          "converged")
    for name, truth_value in summary.truth.items():
        estimate = summary.median_estimates.get(name)
        shown = "n/a" if estimate is None else f"{estimate:.6g}"
        print(f"  {name}: truth {truth_value:.6g}, median estimate {shown}")
    if summary.median_spearman is not None:
        print(f"  strength rank correlation (median): "
              f"{summary.median_spearman:.4f}")
    return 0


def _cmd_interpret(args, argv) -> int:
    params, file_variant, file_points = _load_parameters_file(args.model)
    points = _load_points(args.points_system, file_points or DEFAULT_POINTS)
    variant = file_variant or DEFAULT_VARIANT
    if variant != DEFAULT_VARIANT:
        raise ValueError(
            "structural interpretation is defined for the default variant "
            "(opposition-dependent try bonuses, single home factor)")
    params.validate(variant)
    interp = interpret_structural(params, points)
    _print_interpretation(params, points)
    if args.output:
        _write_text(args.output, json.dumps(asdict(interp), indent=2,
                                            sort_keys=True) + "\n")
        _write_manifest("interpret", argv, [args.model], [args.output],
                        None, points)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrumrank",
        description="Schedule-aware rugby union ratings from league "
                    "points, with data cleaning, model fitting, ranking "
                    "tables and recovery simulations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_clean = sub.add_parser("clean", help="repair a raw results CSV")
    p_clean.add_argument("results", help="raw results CSV")
    p_clean.add_argument("output", help="cleaned CSV to write")
    p_clean.add_argument("audit", help="audit log CSV to write")
    p_clean.set_defaults(handler=_cmd_clean)

    p_fit = sub.add_parser("fit", help="fit the rating model")
    p_fit.add_argument("results", help="cleaned results CSV")
    p_fit.add_argument("model", help="fitted model JSON to write")
    p_fit.add_argument("--prior-weight", type=float, default=0.0,
                       help="weight of the reference-opponent prior "
                            "(default 0)")
    p_fit.add_argument("--variant", choices=sorted(VARIANTS),
                       default="opposition-dependent")
    p_fit.add_argument("--freeze-structural", metavar="FILE",
                       help="JSON object of structural parameters to hold "
                            "fixed")
    p_fit.add_argument("--points-system", metavar="FILE",
                       help="JSON overriding the league points system")
    p_fit.set_defaults(handler=_cmd_fit)

    p_rank = sub.add_parser("rank", help="write a schedule-aware ranking "
                                         "table")
    p_rank.add_argument("model", help="fitted model JSON")
    p_rank.add_argument("results", help="cleaned results CSV")
    p_rank.add_argument("table", help="ranking table CSV to write")
    p_rank.add_argument("--min-matches", type=int, default=5,
                        help="matches needed to be ranked (default 5)")
    p_rank.add_argument("--prev-ranks", metavar="FILE",
                        help="previous-season ranks CSV; adds a merit-points "
                             "table and a ranking comparison")
    p_rank.add_argument("--points-system", metavar="FILE")
    p_rank.set_defaults(handler=_cmd_rank)

    p_sim = sub.add_parser("simulate", help="parameter-recovery study")
    p_sim.add_argument("truth", help="truth parameters JSON (fitted model "
                                     "or bare parameters)")
    p_sim.add_argument("fixtures", help="fixtures CSV "
                                        "(home_team,away_team,venue)")
    p_sim.add_argument("report", help="recovery report CSV to write")
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--prior-weight", type=float, default=0.0,
                       help="prior weight used when refitting replicates")
    p_sim.add_argument("--variant", choices=sorted(VARIANTS), default=None)
    p_sim.add_argument("--points-system", metavar="FILE")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_int = sub.add_parser("interpret", help="per-match outcome rates "
                                             "implied by structural "
                                             "parameters")
    p_int.add_argument("model", help="fitted model JSON or bare parameters "
                                     "JSON")
    p_int.add_argument("--output", metavar="FILE",
                       help="also write the rates as JSON")
    p_int.add_argument("--points-system", metavar="FILE")
    p_int.set_defaults(handler=_cmd_interpret)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.handler(args, argv_list)
    except TeamMismatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 5
    except NonConvergenceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as error:
        message = f"missing key {error}" if isinstance(error, KeyError) \
            else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
