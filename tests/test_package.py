import ast
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import types

import scrumrank
from scrumrank.cli import VARIANTS

DATA = pathlib.Path(__file__).parent / "data"

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


# Named functions and methods of the package that no command line run
# reaches, each with the reason it stays: a library or contract entry point
# that the acceptance suite or the README uses, or a name the benchmark
# wraps. A function that is neither reached nor listed is dead code.
ENTRY_POINTS = {
    "cli.entrypoint": "the console script; it calls main",
    "domain.MatchRecord.__post_init__": "validates the library's match rows",
    "domain.MatchColumns.__getitem__": "columns read as MatchRecord rows",
    "domain.MatchColumns.__iter__": "columns read as MatchRecord rows",
    "domain.MatchColumns._record": "columns read as MatchRecord rows",
    "domain.OutcomeCounts.pairs": "perfbench counts the rows through it",
    "estimate.log_likelihood": "exported; acceptance criterion 5",
    "estimate.score": "exported; acceptance criterion 6, perfbench times it",
    "estimate._full_problem": "the problem of log_likelihood and score",
    "estimate._Problem.pack": "the parameters of log_likelihood and score",
    "ingest.load_matches": "exported; the README's library example",
    "ingest.MatchTable.__getitem__": "columns read as RawMatchRow rows",
    "ingest.MatchTable.__iter__": "columns read as RawMatchRow rows",
    "model.expected_points": "library API for named fixtures; perfbench "
                             "wraps rank.expected_points",
    "model.generalized_mean": "exported; acceptance criterion 8",
    "model.solve_scale": "exported; acceptance criterion 8",
    "rank.lppm": "exported; the raw points rate of the library",
    "simulate.double_round_robin": "exported; acceptance criterion 7",
    "simulate.fixture_rng": "the per-fixture RNG stream contract",
    "simulate.sample_match": "the per-fixture RNG stream contract",
}

# Run in a fresh interpreter, so that import-time calls and the first call
# of every cached function are seen: trace each Python call into the
# package while the command line runs each argv, then write the exit codes
# and the (module, first line) of every code object reached.
_TRACED_RUNS = """
import json, pathlib, sys
package, runs, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
reached = set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        reached.add((pathlib.Path(code.co_filename).stem,
                     code.co_firstlineno))

sys.settrace(trace)
from scrumrank.cli import main
codes = [main(argv) for argv in runs]
sys.settrace(None)
pathlib.Path(out).write_text(json.dumps([codes, sorted(reached)]))
"""


def _defined_functions(package: pathlib.Path) -> dict:
    """Every named function and method of the package, by (module, first
    line) as its code object records it, mapped to module.qualname."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                found[module, first] = f"{module}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_every_function_is_reached_by_the_cli_or_listed(tmp_path):
    package = pathlib.Path(scrumrank.__file__).resolve().parent
    season = DATA / "golden_season.csv"
    model = tmp_path / "opposition-dependent.json"
    rows = [line.split(",") for line in season.read_text().splitlines()[1:]]
    (tmp_path / "fixtures.csv").write_text(
        "home_team,away_team,venue\n"
        + "".join(f"{row[1]},{row[2]},{row[7]}\n" for row in rows))
    (tmp_path / "bad.csv").write_text("date,home_team\n")
    (tmp_path / "one.csv").write_text(
        season.read_text().splitlines()[0]
        + "\n2025-01-04,Winner,Loser,33,0,4,0,Home,Won\n")
    (tmp_path / "freeze.json").write_text(json.dumps(
        {"rho_n": 0.448, "rho_d": 0.212, "tau_b": 0.042, "tau_z": 2.801,
         "kappa": 1.113}))
    runs = [["clean", DATA / "golden_cleaning_raw.csv",
             tmp_path / "cleaned.csv", tmp_path / "audit.csv"]]
    runs += [["fit", season, tmp_path / f"{variant}.json",
              "--prior-weight", "1", "--variant", variant]
             for variant in VARIANTS]
    runs += [
        ["rank", model, season, tmp_path / "table.csv",
         "--prev-ranks", DATA / "prev_ranks.csv"],
        ["simulate", model, tmp_path / "fixtures.csv",
         tmp_path / "report.csv", "--replicates", "2", "--prior-weight", "1"],
        ["interpret", model, "--output", tmp_path / "rates.json"],
        ["clean", tmp_path / "bad.csv", tmp_path / "c.csv",
         tmp_path / "a.csv"],
        ["fit", tmp_path / "one.csv", tmp_path / "one.json",
         "--freeze-structural", tmp_path / "freeze.json"],
    ]
    out = tmp_path / "reached.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(package.parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", _TRACED_RUNS, str(package),
                    json.dumps([[str(arg) for arg in argv] for argv in runs]),
                    str(out)], env=env, check=True, capture_output=True,
                   timeout=300)
    codes, reached = json.loads(out.read_text())
    # clean rejects two golden raw rows (exit 3); the last two runs exit 2
    # (a malformed header) and 4 (a diverging fit)
    assert codes == [3, 0, 0, 0, 0, 0, 0, 0, 2, 4]
    defined = _defined_functions(package)
    reached_names = {defined[tuple(key)] for key in reached
                     if tuple(key) in defined}
    unreached = set(defined.values()) - reached_names
    assert sorted(unreached - set(ENTRY_POINTS)) == []  # dead code
    assert sorted(set(ENTRY_POINTS) - unreached) == []  # stale entries
