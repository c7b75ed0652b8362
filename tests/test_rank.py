import dataclasses
import itertools
import math
import pathlib

import numpy as np
import pytest

from scrumrank.cli import VARIANTS
from scrumrank.domain import (
    MatchRecord,
    PointsSystem,
    ResultOutcome,
    Venue,
    outcome_counts,
)
from scrumrank.estimate import FitConfig, PriorConfig, fit
from scrumrank.ingest import load_matches
from scrumrank import rank
from scrumrank.model import (
    HomeModel,
    ParameterError,
    Parameters,
    TryModel,
    VariantConfig,
    expected_points,
)
from scrumrank.rank import (
    RankingTable,
    RankRow,
    TeamMismatchError,
    TeamRecord,
    build_table,
    compare_rankings,
    lppm,
    merit_points,
    playing_records,
    pppm,
    previous_rank_band,
    read_previous_ranks,
)

DATA = pathlib.Path(__file__).parent / "data"

REFERENCE_MEANS = dict(rho_n=0.448, rho_d=0.212, tau_b=0.042, tau_z=2.801)


def _record(team, played=6, won=3, drawn=0, lost=3,
            try_bonuses=2, losing_bonuses=1, league_points=15):
    return TeamRecord(team, played, won, drawn, lost, try_bonuses,
                      losing_bonuses, league_points)


def test_playing_records_tally():
    matches = [
        MatchRecord("A", "B", 33, 10, 4, 2),   # A wide win with bonus
        MatchRecord("B", "A", 18, 22, 2, 1),   # A narrow away win
        MatchRecord("A", "C", 16, 16, 2, 2),   # draw
        # a declared result: C's narrow win, no try bonus for anyone
        MatchRecord("C", "D", 0, 0, 0, 0,
                    result_override=ResultOutcome.HOME_NARROW),
        # at a neutral ground: D's wide win with bonus
        MatchRecord("D", "C", 40, 3, 5, 0, venue=Venue.NEUTRAL),
    ]
    records = playing_records(matches)
    a = records["A"]
    assert (a.played, a.won, a.drawn, a.lost) == (3, 2, 1, 0)
    assert a.try_bonuses == 1 and a.losing_bonuses == 0
    assert a.league_points == 5 + 4 + 2
    b = records["B"]
    assert b.losing_bonuses == 1
    assert b.league_points == 0 + 1
    assert records["C"] == TeamRecord("C", 3, 1, 1, 1, 0, 0, 2 + 4 + 0)
    assert records["D"] == TeamRecord("D", 2, 1, 0, 1, 1, 1, 1 + 5)
    assert list(records) == ["A", "B", "C", "D"]
    # win 3, draw 1, loss 0: the bonuses stay one point each
    three_point = playing_records(matches, PointsSystem(3, 1, 0))
    assert {team: r.league_points for team, r in three_point.items()} == {
        "A": 4 + 3 + 1, "B": 0 + 1, "C": 1 + 3 + 0, "D": 1 + 4}
    assert all(three_point[team].won == records[team].won
               for team in records)


def test_lppm_perfect_season_with_all_bonuses():
    matches = [MatchRecord("K", f"T{k}", 33, 10, 4, 2) for k in range(4)]
    assert lppm(matches)["K"] == 5.0


def test_lppm_long_unbeaten_run_counts_bonuses():
    # ten bonus wins and one bonus-less win: 54 points in 11 matches
    matches = [MatchRecord("S", f"T{k}", 33, 10, 4, 2) for k in range(10)]
    matches.append(MatchRecord("S", "T10", 13, 0, 2, 0))
    value = lppm(matches)["S"]
    assert abs(value - 54 / 11) < 1e-12
    assert round(value, 2) == 4.91


def test_lppm_single_narrow_loss():
    matches = [MatchRecord("L", "M", 10, 15, 1, 2)]
    assert lppm(matches)["L"] == 1.0


def test_previous_rank_band_boundaries():
    assert previous_rank_band(1) == 3
    assert previous_rank_band(25) == 3
    assert previous_rank_band(26) == 2
    assert previous_rank_band(50) == 2
    assert previous_rank_band(51) == 1
    assert previous_rank_band(75) == 1
    assert previous_rank_band(76) == 0
    assert previous_rank_band(None) == 0
    with pytest.raises(ValueError):
        previous_rank_band(0)


def _merit_season():
    matches = [MatchRecord("Hero", f"O{k}", 13, 0, 2, 0)
               for k in range(1, 9)]
    matches += [MatchRecord(f"O{k}", "Hero", 13, 0, 2, 0)
                for k in range(9, 11)]
    prev = {"O1": 10, "O2": 30, "O3": 40, "O4": 50, "O5": 55, "O6": 75}
    return matches, prev


def test_merit_points_worked_example_is_exact():
    # eight plain wins and two wide losses: 32 points in 10, LPPM 3.2;
    # one top-25, three mid-band, two lower-band opponents add 1.1
    matches, prev = _merit_season()
    merit = merit_points(playing_records(matches), matches, prev)
    assert lppm(matches)["Hero"] == 3.2
    assert merit["Hero"] == 4.3


def test_merit_points_without_ranked_opponents_is_lppm():
    matches, _ = _merit_season()
    merit = merit_points(playing_records(matches), matches, {})
    values = lppm(matches)
    assert merit == pytest.approx(values)


def test_merit_points_ignores_zero_contribution_entries():
    matches, prev = _merit_season()
    records = playing_records(matches)
    base = merit_points(records, matches, prev)
    widened = dict(prev)
    widened["O7"] = 80          # played, but outside every band
    widened["Bystander"] = 5    # never played
    assert merit_points(records, matches, widened) == base


def test_pppm_two_mean_teams_reference_value():
    params = Parameters(strengths={"A": 1.0, "B": 1.0}, kappa=1.0,
                        **REFERENCE_MEANS)
    ratings = pppm(params)
    assert ratings["A"] == ratings["B"]
    assert abs(ratings["A"] - 2.359) < 1e-3


def test_pppm_increases_with_own_strength():
    rng = np.random.default_rng(11)
    strengths = {f"T{k}": float(np.exp(rng.normal(0, 0.5)))
                 for k in range(10)}
    params = Parameters(strengths=strengths, kappa=1.113, **REFERENCE_MEANS)
    base = pppm(params)
    bumped = dict(strengths)
    bumped["T3"] *= 1.01
    lifted = pppm(Parameters(strengths=bumped, kappa=1.113, **REFERENCE_MEANS))
    assert lifted["T3"] > base["T3"]


def test_pppm_ordering_matches_strength_ordering():
    rng = np.random.default_rng(23)
    strengths = {f"T{k}": float(np.exp(rng.normal(0, 0.6)))
                 for k in range(8)}
    params = Parameters(strengths=strengths, kappa=1.113, **REFERENCE_MEANS)
    ratings = pppm(params)
    by_strength = sorted(strengths, key=strengths.get)
    by_rating = sorted(ratings, key=ratings.get)
    assert by_strength == by_rating


def test_pppm_requires_two_teams():
    params = Parameters(strengths={"A": 1.0}, **REFERENCE_MEANS)
    with pytest.raises(ValueError):
        pppm(params)


def test_pppm_accepts_a_fitted_model():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=1.0)))
    direct = pppm(model.parameters, variant=model.variant,
                  points=model.points_system)
    assert pppm(model) == direct


def test_pppm_is_the_double_round_robin_mean_in_every_variant():
    rng = np.random.default_rng(31)
    teams = [f"T{k}" for k in range(6)]

    def draw(scale):
        return {t: float(np.exp(rng.normal(0, scale))) for t in teams}

    # one parameter set carrying every variant's tables and levels
    params = Parameters(
        strengths=draw(0.6), kappa=1.113, **REFERENCE_MEANS,
        tau=0.3, delta=draw(0.5), home_strengths=draw(0.6),
        away_strengths=draw(0.6))
    for name, variant in VARIANTS.items():
        ratings = pppm(params, variant=variant)
        for team in teams:
            total = 0.0
            for other in teams:
                if other != team:
                    total += expected_points(params, team, other, variant,
                                             Venue.HOME_GROUND)[0]
                    total += expected_points(params, other, team, variant,
                                             Venue.HOME_GROUND)[1]
            longhand = total / (2 * (len(teams) - 1))
            assert abs(ratings[team] - longhand) <= 1e-12, (name, team)


def _every_variant():
    for try_model, home_model in itertools.product(TryModel, HomeModel):
        try:
            yield VariantConfig(try_model, home_model)
        except ParameterError:
            pass  # team-specific home advantage takes only one try block


def _variant_params(teams, seed, scale):
    """Independent draws for every table and level any variant reads."""
    rng = np.random.default_rng(seed)

    def draw():
        return {t: float(np.exp(rng.normal(0, scale))) for t in teams}

    return Parameters(strengths=draw(), kappa=1.113, **REFERENCE_MEANS,
                      tau=0.3, delta=draw(), home_strengths=draw(),
                      away_strengths=draw())


def _longhand_pppm(params, variant, teams):
    """The double-round-robin mean from one named call over every ordered
    pair of distinct teams."""
    home, away = zip(*itertools.permutations(teams, 2))
    at_home, on_road = expected_points(params, list(home), list(away),
                                       variant, Venue.HOME_GROUND)
    position = {team: k for k, team in enumerate(teams)}
    totals = (np.bincount([position[t] for t in home], at_home, len(teams))
              + np.bincount([position[t] for t in away], on_road,
                            len(teams)))
    return {team: totals[k] / (2 * (len(teams) - 1))
            for team, k in position.items()}


@pytest.mark.parametrize("variant", list(_every_variant()),
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
def test_pppm_chunks_agree_with_every_ordered_pair(variant):
    teams = [f"T{k:03d}" for k in range(150)]
    rows = rank.PPPM_CHUNK_FIXTURES // len(teams)
    # at least two chunks of home rows, the last one partial
    assert 1 <= rows < len(teams) and len(teams) % rows
    params = _variant_params(teams, seed=41, scale=0.8)
    ratings = pppm(params, variant=variant)
    longhand = _longhand_pppm(params, variant, teams)
    assert list(ratings) == teams
    for team in teams:
        assert abs(ratings[team] - longhand[team]) <= 1e-12, team


def test_team_specific_pppm_reads_home_rows_and_away_columns(monkeypatch):
    # three chunks of two home rows; each fixture is the no-home-advantage
    # fixture between the home side's home strength and the away side's
    # away strength
    monkeypatch.setattr(rank, "PPPM_CHUNK_FIXTURES", 12)
    teams = [f"T{k}" for k in range(6)]
    params = _variant_params(teams, seed=47, scale=0.8)
    plain = VariantConfig(home_model=HomeModel.NONE)
    totals = dict.fromkeys(teams, 0.0)
    for home, away in itertools.permutations(teams, 2):
        pair = Parameters(strengths={home: params.home_strengths[home],
                                     away: params.away_strengths[away]},
                          **REFERENCE_MEANS)
        at_home, on_road = expected_points(pair, home, away, plain)
        totals[home] += at_home
        totals[away] += on_road
    ratings = pppm(params,
                   variant=VariantConfig(home_model=HomeModel.TEAM_SPECIFIC))
    for team in teams:
        assert abs(ratings[team] - totals[team] / 10) <= 1e-12, team


@pytest.mark.parametrize("variant", list(_every_variant()),
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
def test_pppm_stays_finite_at_enormous_strength_ratios(variant):
    teams = [f"T{k}" for k in range(9)]
    levels = (1e150, 1e-150, 1.0)
    params = _variant_params(teams, seed=43, scale=0.5)
    extreme = {name: {t: levels[k % 3] * value
                      for k, (t, value) in enumerate(table.items())}
               for name, table in (("strengths", params.strengths),
                                   ("home_strengths", params.home_strengths),
                                   ("away_strengths", params.away_strengths))}
    ratings = pppm(dataclasses.replace(params, **extreme), variant=variant)
    assert all(math.isfinite(v) and 0.0 <= v <= 5.0
               for v in ratings.values())
    # the ratings still order the three strength levels
    assert ratings["T0"] > ratings["T2"] > ratings["T1"]


def test_build_table_marks_short_seasons_nr():
    records = {
        "A": _record("A", played=6),
        "B": _record("B", played=4),
        "C": _record("C", played=9),
    }
    ratings = {"A": 2.0, "B": 9.0, "C": 1.0}
    table = build_table(ratings, records, min_matches=5)
    assert [row.team for row in table.rows] == ["A", "C", "B"]
    assert [row.rank for row in table.rows] == [1, 2, None]
    assert not table.rows[2].qualified
    everyone = build_table(ratings, records, min_matches=0)
    assert [row.rank for row in everyone.rows] == [1, 2, 3]
    assert [row.team for row in everyone.rows] == ["B", "A", "C"]


def test_build_table_competition_ranking_skips_after_tie():
    records = {t: _record(t) for t in "ABCD"}
    ratings = {"A": 3.0, "B": 2.0, "C": 2.0, "D": 1.0}
    table = build_table(ratings, records, min_matches=0)
    assert [row.rank for row in table.rows] == [1, 2, 2, 4]


def test_build_table_is_stable_for_equal_ratings():
    records = {t: _record(t) for t in ("Zulu", "Alpha", "Mike")}
    ratings = {"Zulu": 2.0, "Alpha": 2.0, "Mike": 3.0}
    table = build_table(ratings, records, min_matches=0)
    assert [row.team for row in table.rows] == ["Mike", "Zulu", "Alpha"]


def test_build_table_rating_non_increasing():
    rng = np.random.default_rng(7)
    records = {f"T{k}": _record(f"T{k}") for k in range(12)}
    ratings = {team: float(rng.normal(2, 1)) for team in records}
    table = build_table(ratings, records, min_matches=0)
    values = [row.rating for row in table.rows]
    assert values == sorted(values, reverse=True)


def test_build_table_validates_inputs():
    records = {"A": _record("A")}
    with pytest.raises(TeamMismatchError):
        build_table({"A": 1.0, "B": 2.0}, records)
    with pytest.raises(ValueError):
        build_table({"A": math.inf}, records)


def test_table_csv_columns_and_flags():
    records = {"A": _record("A", played=6), "B": _record("B", played=2)}
    table = build_table({"A": 2.5, "B": 1.5}, records, min_matches=5)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "team,rating,rank,P,W,D,L,LPPM,flags"
    assert lines[1].startswith("A,2.5,1,6,3,0,3,")
    assert lines[2].endswith(",NR")
    assert ",,2,1,0,1," in lines[2] or lines[2].split(",")[2] == ""


def test_read_previous_ranks():
    ranks = read_previous_ranks((DATA / "prev_ranks.csv").read_text())
    assert ranks["Ashwood"] == 10
    assert ranks["Kelsworth"] == 12
    with pytest.raises(ValueError):
        read_previous_ranks("club,rank\nA,1\n")
    with pytest.raises(ValueError):
        read_previous_ranks("team,previous_rank\nA,1\nA,2\n")
    with pytest.raises(ValueError):
        read_previous_ranks("team,previous_rank\nA,0\n")
    with pytest.raises(ValueError):
        read_previous_ranks("team,previous_rank\nA,soon\n")


def _table(ratings, records=None, min_matches=0):
    records = records or {t: _record(t) for t in ratings}
    return build_table(ratings, records, min_matches=min_matches)


def test_compare_rankings_with_itself_is_zero():
    table = _table({"A": 3.0, "B": 2.0, "C": 1.0})
    report = compare_rankings(table, table)
    assert report.mean_absolute_rank_difference == 0.0
    assert all(first == second for _, first, second in report.moves)
    assert all(a == b for a, b in report.adjustments.values())


def test_compare_rankings_reversal_mean_difference():
    forward = _table({"A": 3.0, "B": 2.0, "C": 1.0})
    backward = _table({"A": 1.0, "B": 2.0, "C": 3.0})
    report = compare_rankings(forward, backward)
    assert abs(report.mean_absolute_rank_difference - 4 / 3) < 1e-15
    moved = {team: (a, b) for team, a, b in report.moves}
    assert moved["A"] == (1, 3) and moved["C"] == (3, 1)
    assert moved["B"] == (2, 2)


def test_compare_rankings_reports_rating_minus_lppm_pairs():
    records = {
        "A": _record("A", league_points=18),  # LPPM 3.0
        "B": _record("B", league_points=12),  # LPPM 2.0
    }
    first = build_table({"A": 3.4, "B": 2.2}, records, min_matches=0)
    second = build_table({"A": 2.8, "B": 2.6}, records, min_matches=0)
    report = compare_rankings(first, second)
    assert report.adjustments["A"] == pytest.approx((0.4, -0.2))
    assert report.adjustments["B"] == pytest.approx((0.2, 0.6))


def test_compare_rankings_drops_unranked_teams():
    records = {
        "A": _record("A", played=6),
        "B": _record("B", played=6),
        "C": _record("C", played=2),  # NR at min_matches=5
    }
    first = build_table({"A": 3.0, "B": 2.0, "C": 1.0}, records,
                        min_matches=5)
    second = build_table({"A": 2.0, "B": 3.0, "C": 9.0}, records,
                         min_matches=5)
    report = compare_rankings(first, second)
    assert {team for team, _, _ in report.moves} == {"A", "B"}
    assert "C" not in report.adjustments


def test_compare_rankings_requires_a_common_ranked_team():
    first = _table({"A": 1.0})
    second = _table({"B": 1.0})
    with pytest.raises(TeamMismatchError):
        compare_rankings(first, second)


def test_rank_row_qualified_property():
    row = RankRow(None, "A", 1.0, 3, 1, 1, 1, 7, 7 / 3)
    assert not row.qualified
    assert RankingTable((row,)).rows[0].rank is None
