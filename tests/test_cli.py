import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import scrumrank.rank as rank
from scrumrank.cli import _load_parameters_file, main
from scrumrank.domain import MatchRecord
from scrumrank.ingest import RawMatchRow, load_matches

DATA = pathlib.Path(__file__).parent / "data"

REFERENCE_MEANS = dict(rho_n=0.448, rho_d=0.212, tau_b=0.042, tau_z=2.801)

HEADER = ("date,home_team,away_team,home_score,away_score,"
          "home_tries,away_tries,venue,declared_result")


def _season_path(tmp_path):
    target = tmp_path / "season.csv"
    target.write_text((DATA / "golden_season.csv").read_text())
    return target


def _fit_model(tmp_path, *extra):
    season = _season_path(tmp_path)
    model = tmp_path / "model.json"
    code = main(["fit", str(season), str(model), "--prior-weight", "1.0",
                 *extra])
    assert code == 0
    return season, model


def _bare_params(tmp_path, name="params.json", **overrides):
    doc = {"strengths": {"A": 1.3, "B": 1.0, "C": 0.7, "D": 1.1},
           "kappa": 1.113, **REFERENCE_MEANS}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_clean_writes_golden_outputs_and_flags_rejects(tmp_path, capsys):
    out = tmp_path / "cleaned.csv"
    audit = tmp_path / "audit.csv"
    code = main(["clean", str(DATA / "golden_cleaning_raw.csv"),
                 str(out), str(audit)])
    assert code == 3  # two rows rejected
    assert out.read_bytes() == (DATA / "golden_cleaning_cleaned.csv"
                                ).read_bytes()
    assert audit.read_bytes() == (DATA / "golden_cleaning_audit.csv"
                                  ).read_bytes()
    captured = capsys.readouterr()
    assert "rejected" in captured.out
    assert "duplicate" in captured.err
    manifest = json.loads((tmp_path / "clean_manifest.json").read_text())
    assert manifest["subcommand"] == "clean"
    assert manifest["outputs"] == [str(out), str(audit)]


def test_clean_ok_exit_zero(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(HEADER + "\n2025-01-04,Ox,Elm,22,10,3,2,Home,Won\n")
    code = main(["clean", str(raw), str(tmp_path / "c.csv"),
                 str(tmp_path / "a.csv")])
    assert code == 0


def test_clean_manifest_replay_is_byte_identical(tmp_path):
    out = tmp_path / "cleaned.csv"
    audit = tmp_path / "audit.csv"
    main(["clean", str(DATA / "golden_cleaning_raw.csv"), str(out),
          str(audit)])
    manifest_path = tmp_path / "clean_manifest.json"
    snapshot = {p: p.read_bytes() for p in (out, audit, manifest_path)}
    main(json.loads(manifest_path.read_text())["argv"])
    for path, blob in snapshot.items():
        assert path.read_bytes() == blob


def test_fit_writes_model_and_replays(tmp_path, capsys):
    season, model = _fit_model(tmp_path)
    captured = capsys.readouterr()
    assert "converged" in captured.out
    assert "generalized mean 1" in captured.out
    doc = json.loads(model.read_text())
    assert set(doc["parameters"]["strengths"]) == {
        "Ashwood", "Barrow Hall", "Carrick", "Dunmore",
        "Eastgate", "Ferndale", "Granton", "Harborne"}
    manifest_path = tmp_path / "fit_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["inputs"] == [str(season)]
    before = model.read_bytes()
    assert main(manifest["argv"]) == 0
    assert model.read_bytes() == before


def test_fit_freeze_structural_round_trips(tmp_path):
    freeze_path = tmp_path / "freeze.json"
    freeze_path.write_text(json.dumps({"kappa": 1.113}))
    _, model = _fit_model(tmp_path, "--freeze-structural", str(freeze_path))
    doc = json.loads(model.read_text())
    assert doc["raw_parameters"]["kappa"] == 1.113
    manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
    assert manifest["fit_config"]["freeze"] == {"kappa": 1.113}


def test_fit_freeze_values_that_are_not_numbers_exit_two(tmp_path, capsys):
    freeze_path = tmp_path / "freeze.json"
    season = _season_path(tmp_path)
    for value in ("abc", None, True):
        freeze_path.write_text(json.dumps({"rho_n": value}))
        code = main(["fit", str(season), str(tmp_path / "model.json"),
                     "--freeze-structural", str(freeze_path)])
        assert code == 2
        assert "frozen rho_n must be positive" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_fit_rejected_rows_exit_three(tmp_path):
    code = main(["fit", str(DATA / "golden_cleaning_raw.csv"),
                 str(tmp_path / "model.json")])
    assert code == 3
    assert not (tmp_path / "model.json").exists()


def test_fit_nonconvergence_exit_four(tmp_path, capsys):
    season = tmp_path / "one.csv"
    season.write_text(
        HEADER + "\n2025-01-04,Winner,Loser,33,0,4,0,Home,Won\n")
    freeze_path = tmp_path / "freeze.json"
    freeze_path.write_text(json.dumps({"kappa": 1.113, **REFERENCE_MEANS}))
    code = main(["fit", str(season), str(tmp_path / "model.json"),
                 "--freeze-structural", str(freeze_path)])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_fit_singular_hessian_exit_four(tmp_path, capsys, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code = main(["fit", str(_season_path(tmp_path)),
                 str(tmp_path / "model.json"), "--prior-weight", "1.0"])
    assert code == 4
    err = capsys.readouterr().err
    assert "error:" in err and "singular Hessian" in err
    assert not (tmp_path / "model.json").exists()


def test_perfbench_tracer_wraps_and_restores_every_layer(tmp_path):
    # the traced benchmark looks these module attributes up by name, so a
    # refactor that drops one breaks it; this catches that here
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        saved = list(tracer.saved)
        assert all(getattr(module, attr) is not original
                   for module, attr, original in saved)
        _fit_model(tmp_path)
        assert spans.score_seconds(tracer, repeats=1) > 0
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.restore()
    wrapped = {f"{module.__name__}.{attr}" for module, attr, _ in saved}
    assert {"scrumrank.cli.playing_records", "scrumrank.cli.outcome_counts",
            "scrumrank.rank.expected_points", "scrumrank.estimate.minimize",
            "scrumrank.cli.fit"} <= wrapped
    assert all(getattr(module, attr) is original
               for module, attr, original in saved)
    assert metrics["estimate.fit_calls"] == 1
    # the count perfbench reads from the table's pairs view
    triples = {(match.home_team, match.away_team, match.venue) for match
               in load_matches(DATA / "golden_season.csv").records}
    assert metrics["domain.pairs"] == len(triples)


def test_cli_import_loads_no_scipy():
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, scrumrank.cli; print(sorted("
         "m for m in sys.modules if m.startswith('scipy')))"],
        env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_fit_points_system_override(tmp_path):
    points_path = tmp_path / "points.json"
    points_path.write_text(json.dumps({"win_points": 3, "draw_points": 1}))
    _, model = _fit_model(tmp_path, "--points-system", str(points_path))
    doc = json.loads(model.read_text())
    assert doc["points_system"]["win_points"] == 3
    manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
    assert manifest["points_system"]["win_points"] == 3


def test_bad_points_file_exit_two(tmp_path):
    points_path = tmp_path / "points.json"
    season = _season_path(tmp_path)
    # an unknown key, and point values that are not integers
    for doc in ({"win": 3}, {"win_points": "4"}, {"win_points": 4.5}):
        points_path.write_text(json.dumps(doc))
        code = main(["fit", str(season), str(tmp_path / "model.json"),
                     "--points-system", str(points_path)])
        assert code == 2
    assert not (tmp_path / "model.json").exists()


def test_missing_input_exit_two(tmp_path, capsys):
    code = main(["fit", str(tmp_path / "nowhere.csv"),
                 str(tmp_path / "model.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_exit_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\n1,2\n")
    code = main(["clean", str(bad), str(tmp_path / "c.csv"),
                 str(tmp_path / "a.csv")])
    assert code == 2


def test_rank_table_and_manifest(tmp_path, capsys):
    season, model = _fit_model(tmp_path)
    table = tmp_path / "table.csv"
    code = main(["rank", str(model), str(season), str(table)])
    assert code == 0
    lines = table.read_text().strip().split("\n")
    assert lines[0] == "team,rating,rank,P,W,D,L,LPPM,flags"
    assert len(lines) == 9
    ranks = [line.split(",")[2] for line in lines[1:]]
    assert ranks == [str(k) for k in range(1, 9)]  # 7 or 8 matches each
    assert "rating" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "rank_manifest.json").read_text())
    assert manifest["outputs"] == [str(table)]


def test_rank_min_matches_flags_nr(tmp_path):
    season, model = _fit_model(tmp_path)
    table = tmp_path / "table.csv"
    code = main(["rank", str(model), str(season), str(table),
                 "--min-matches", "8"])
    assert code == 0
    lines = table.read_text().strip().split("\n")[1:]
    nr = [line for line in lines if line.endswith(",NR")]
    assert nr and len(nr) < len(lines)
    assert all(line.split(",")[2] == "" for line in nr)
    ranked = [line for line in lines if not line.endswith(",NR")]
    assert lines == ranked + nr  # unranked rows sink to the bottom


def test_rank_with_previous_ranks_writes_comparison(tmp_path, capsys):
    season, model = _fit_model(tmp_path)
    table = tmp_path / "table.csv"
    code = main(["rank", str(model), str(season), str(table),
                 "--prev-ranks", str(DATA / "prev_ranks.csv")])
    assert code == 0
    merit_lines = (tmp_path / "table_merit.csv").read_text().strip()
    assert merit_lines.split("\n")[0] == "team,rating,rank,P,W,D,L,LPPM,flags"
    doc = json.loads((tmp_path / "table_comparison.json").read_text())
    assert doc["first_method"] == "MeritPoints"
    assert doc["second_method"] == "PPPM"
    assert doc["mean_absolute_rank_difference"] >= 0.0
    assert len(doc["moves"]) == 8
    team, first_rank, second_rank = doc["moves"][0]
    assert isinstance(team, str)
    assert {len(pair) for pair in doc["adjustments"].values()} == {2}
    assert "mean absolute rank difference" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "rank_manifest.json").read_text())
    assert str(DATA / "prev_ranks.csv") in manifest["inputs"]
    assert len(manifest["outputs"]) == 3


def test_rank_with_previous_ranks_tallies_the_season_once(tmp_path,
                                                          monkeypatch):
    season, model = _fit_model(tmp_path)
    calls = []
    tally = rank.team_records
    monkeypatch.setattr(rank, "team_records",
                        lambda *args: calls.append(args) or tally(*args))
    code = main(["rank", str(model), str(season),
                 str(tmp_path / "table.csv"),
                 "--prev-ranks", str(DATA / "prev_ranks.csv")])
    assert code == 0
    assert len(calls) == 1


def test_ingest_builds_no_per_row_objects(tmp_path, monkeypatch):
    """``clean``, ``fit`` and ``rank`` read a season as columns: no
    subcommand builds a RawMatchRow or a MatchRecord per row."""
    season, model = _fit_model(tmp_path)
    built = []
    for cls in (RawMatchRow, MatchRecord):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init,
                            **kwargs: built.append(self) or init(
                                self, *args, **kwargs))
    raw = DATA / "golden_cleaning_raw.csv"
    assert main(["clean", str(raw), str(tmp_path / "cleaned.csv"),
                 str(tmp_path / "audit.csv")]) == 3
    assert main(["fit", str(season), str(model)]) == 0
    assert main(["rank", str(model), str(season), str(tmp_path / "table.csv"),
                 "--prev-ranks", str(DATA / "prev_ranks.csv")]) == 0
    assert built == []
    # the patch is live: reading the records still builds them on demand
    assert len(list(load_matches(season).records)) == len(built) > 0


def test_rank_team_mismatch_exit_five(tmp_path, capsys):
    _, model = _fit_model(tmp_path)
    other = tmp_path / "other.csv"
    other.write_text(HEADER + "\n2025-01-04,Xen,Yar,22,10,3,2,Home,Won\n")
    code = main(["rank", str(model), str(other),
                 str(tmp_path / "table.csv")])
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_rank_manifest_replay_is_byte_identical(tmp_path):
    season, model = _fit_model(tmp_path)
    table = tmp_path / "table.csv"
    main(["rank", str(model), str(season), str(table),
          "--prev-ranks", str(DATA / "prev_ranks.csv")])
    manifest_path = tmp_path / "rank_manifest.json"
    outputs = [pathlib.Path(p) for p in
               json.loads(manifest_path.read_text())["outputs"]]
    snapshot = {p: p.read_bytes() for p in outputs + [manifest_path]}
    main(json.loads(manifest_path.read_text())["argv"])
    for path, blob in snapshot.items():
        assert path.read_bytes() == blob


def test_simulate_report_and_replay(tmp_path, capsys):
    params = _bare_params(tmp_path)
    fixtures = tmp_path / "fixtures.csv"
    fixtures.write_text("home_team,away_team,venue\n" + "".join(
        f"{home},{away},\n"
        for home in "ABCD" for away in "ABCD" if home != away))
    report = tmp_path / "report.csv"
    code = main(["simulate", str(params), str(fixtures), str(report),
                 "--replicates", "2", "--seed", "5",
                 "--prior-weight", "1.0"])
    assert code == 0
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "replicate,parameter,truth,estimate,converged"
    assert len(lines) == 1 + 2 * 6
    out = capsys.readouterr().out
    assert "replicates" in out and "kappa" in out
    manifest_path = tmp_path / "simulate_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["seed"] == 5
    before = report.read_bytes()
    assert main(manifest["argv"]) == 0
    assert report.read_bytes() == before


def test_simulate_unknown_fixture_team_exit_two(tmp_path, capsys):
    params = _bare_params(tmp_path)
    fixtures = tmp_path / "fixtures.csv"
    fixtures.write_text("home_team,away_team,venue\nA,Nobody,\n")
    code = main(["simulate", str(params), str(fixtures),
                 str(tmp_path / "report.csv")])
    assert code == 2
    assert "Nobody" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["opposition-dependent",
                                     "team-specific"])
def test_simulate_unknown_fixture_team_writes_nothing(tmp_path, capsys,
                                                      variant):
    _, model = _fit_model(tmp_path, "--variant", variant)
    fixtures = tmp_path / "fixtures.csv"
    fixtures.write_text("home_team,away_team,venue\nAshwood,Carrick,\n"
                        "Carrick,Nobody,\n")
    report = tmp_path / "report.csv"
    capsys.readouterr()
    code = main(["simulate", str(model), str(fixtures), str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fixtures mention 'Nobody'")
    assert not report.exists()
    assert not (tmp_path / "simulate_manifest.json").exists()


def test_simulate_negative_seed_names_the_flag(tmp_path, capsys):
    params = _bare_params(tmp_path)
    fixtures = tmp_path / "fixtures.csv"
    fixtures.write_text("home_team,away_team,venue\nA,B,\n")
    report = tmp_path / "report.csv"
    code = main(["simulate", str(params), str(fixtures), str(report),
                 "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed") and "-1" in err
    assert not report.exists()
    assert not (tmp_path / "simulate_manifest.json").exists()


def test_simulate_accepts_fitted_model_as_truth(tmp_path):
    _, model = _fit_model(tmp_path)
    fixtures = tmp_path / "fixtures.csv"
    fixtures.write_text("home_team,away_team,venue\nAshwood,Carrick,\n"
                        "Carrick,Ashwood,Neutral\n")
    code = main(["simulate", str(model), str(fixtures),
                 str(tmp_path / "report.csv"), "--replicates", "1",
                 "--prior-weight", "2.0"])
    assert code == 0


def test_bare_and_fitted_parameter_files_load_alike(tmp_path):
    for variant in ("opposition-dependent", "team-specific"):
        _, model = _fit_model(tmp_path, "--variant", variant)
        fitted = json.loads(model.read_text())
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({**fitted["parameters"],
                                    "variant": fitted["variant"]}))
        from_model, model_variant, _ = _load_parameters_file(str(model))
        from_bare, bare_variant, _ = _load_parameters_file(str(bare))
        assert from_bare == from_model
        assert bare_variant == model_variant


def test_interpret_prints_rates(tmp_path, capsys):
    params = _bare_params(tmp_path, strengths={})
    code = main(["interpret", str(params)])
    assert code == 0
    out = capsys.readouterr().out
    assert "with home advantage" in out and "neutral venue" in out
    assert not (tmp_path / "interpret_manifest.json").exists()


def test_interpret_output_file_and_manifest(tmp_path):
    params = _bare_params(tmp_path, strengths={})
    rates_path = tmp_path / "rates.json"
    code = main(["interpret", str(params), "--output", str(rates_path)])
    assert code == 0
    doc = json.loads(rates_path.read_text())
    assert set(doc) == {"with_home_advantage", "neutral"}
    assert doc["neutral"]["home_away_win_ratio"] == 1.0
    assert doc["with_home_advantage"]["home_away_win_ratio"] > 1.0
    assert (tmp_path / "interpret_manifest.json").exists()


def test_interpret_missing_kappa_exit_two(tmp_path, capsys):
    doc = {"strengths": {}, **REFERENCE_MEANS}  # no kappa
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code = main(["interpret", str(path)])
    assert code == 2
    assert "kappa" in capsys.readouterr().err


@pytest.mark.parametrize("command, source, changes, named", [
    ("interpret", "bare", {"extras": [1]}, "extras"),
    ("interpret", "bare", {"variant": "x"}, "variant"),
    ("interpret", "model", {"prior": {"weight": "1", "dummy_strength": 1.0}},
     "prior weight"),
    ("rank", "model", {"prior": {"weight": "1", "dummy_strength": 1.0}},
     "prior weight"),
    ("interpret", "model", {"prior": {"weight": 1.0, "dummy_strength": 1.0,
                                      "scale": 2.0}}, "scale"),
    ("interpret", "model", {"parameters": 5}, "parameters"),
    ("simulate", "bare", {"strengths": [1.0, 2.0]}, "strengths"),
    ("interpret", "bare", {"rho_n": "x"}, "rho_n"),
    ("interpret", "bare", {"rho_n": -1.0}, "rho_n"),
    ("rank", "model", {"points_system": {"bogus": 1}}, "bogus"),
    ("interpret", "model", {"points_system": {"bogus": 1}}, "bogus"),
    ("simulate", "model", {"points_system": {"bogus": 1}}, "bogus"),
])
def test_malformed_parameter_files_exit_two(tmp_path, capsys, command,
                                            source, changes, named):
    season = _season_path(tmp_path)
    if source == "bare":
        path = _bare_params(tmp_path, **changes)
    else:
        _, path = _fit_model(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    **changes}))
    fixtures = tmp_path / "fixtures.csv"
    fixtures.write_text("home_team,away_team,venue\nA,B,\n")
    argv = {"interpret": [path],
            "rank": [path, season, tmp_path / "table.csv"],
            "simulate": [path, fixtures, tmp_path / "report.csv"]}[command]
    capsys.readouterr()
    assert main([command, *map(str, argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("section, name, value, named", [
    ("strengths", "team", "x", "strengths of"),
    ("kappa", None, -1.0, "kappa"),
])
def test_rank_validates_the_model_parameters(tmp_path, capsys, section,
                                             name, value, named):
    season, path = _fit_model(tmp_path)
    doc = json.loads(path.read_text())
    if name is None:
        doc["parameters"][section] = value
    else:
        team = sorted(doc["parameters"][section])[0]
        doc["parameters"][section][team] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["rank", str(path), str(season),
                 str(tmp_path / "table.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and repr(value) in err
    assert not (tmp_path / "table.csv").exists()


def test_interpret_rejects_other_variants(tmp_path):
    params = _bare_params(
        tmp_path, strengths={},
        variant={"try_model": "opposition-dependent",
                 "home_model": "team-specific"})
    code = main(["interpret", str(params)])
    assert code == 2


def test_fit_variant_choices(tmp_path):
    season = _season_path(tmp_path)
    for variant in ("opposition-independent", "offensive-defensive",
                    "team-specific"):
        model = tmp_path / f"{variant}.json"
        code = main(["fit", str(season), str(model), "--prior-weight",
                     "1.0", "--variant", variant])
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["variant"]["try_model"] in variant or \
            doc["variant"]["home_model"] in variant
