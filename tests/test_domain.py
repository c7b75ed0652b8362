import dataclasses
import pathlib

import numpy as np
import pytest

from scrumrank.domain import (
    DEFAULT_POINTS,
    RESULT_ORDER,
    TRY_ORDER,
    RESULT_INDEX,
    TRY_INDEX,
    MatchColumns,
    MatchRecord,
    OutcomeCounts,
    PointsSystem,
    ResultOutcome,
    TeamRecord,
    TryOutcome,
    Venue,
    outcome_counts,
    result_points_arrays,
    team_records,
    try_points_arrays,
)
from scrumrank.ingest import load_matches

DATA = pathlib.Path(__file__).parent / "data"


# Scalar classifiers, one match at a time: the reference that
# outcome_counts' array pass is checked against.
def classify_result(home_score: int, away_score: int,
                    points: PointsSystem = DEFAULT_POINTS) -> ResultOutcome:
    """The five-way result of a final score; a margin equal to
    ``losing_bonus_margin`` still counts as narrow."""
    margin = home_score - away_score
    if margin == 0:
        return ResultOutcome.DRAW
    narrow = abs(margin) <= points.losing_bonus_margin
    if margin > 0:
        return ResultOutcome.HOME_NARROW if narrow else ResultOutcome.HOME_WIDE
    return ResultOutcome.AWAY_NARROW if narrow else ResultOutcome.AWAY_WIDE


def classify_try(home_tries: int, away_tries: int,
                 points: PointsSystem = DEFAULT_POINTS) -> TryOutcome:
    """The four-way try-bonus outcome of the try counts."""
    home = home_tries >= points.try_bonus_threshold
    away = away_tries >= points.try_bonus_threshold
    if home and away:
        return TryOutcome.BOTH_BONUS
    if home:
        return TryOutcome.HOME_BONUS
    if away:
        return TryOutcome.AWAY_BONUS
    return TryOutcome.ZERO_BONUS


def classify_match(record: MatchRecord,
                   points: PointsSystem = DEFAULT_POINTS
                   ) -> tuple[ResultOutcome, TryOutcome]:
    """A record's outcomes; a declared result scores as its override with
    no try bonus (its try outcome reads ZERO_BONUS, though outcome_counts
    keeps it out of the try counts)."""
    if record.result_override is not None:
        return record.result_override, TryOutcome.ZERO_BONUS
    return (classify_result(record.home_score, record.away_score, points),
            classify_try(record.home_tries, record.away_tries, points))


def cell_points(result: ResultOutcome, tries: TryOutcome,
                points: PointsSystem = DEFAULT_POINTS) -> tuple[float, float]:
    """League points (home, away) of an outcome pair, read from the
    points arrays."""
    (res_home, res_away), (try_home, try_away) = (result_points_arrays(points),
                                                  try_points_arrays())
    r, t = RESULT_INDEX[result], TRY_INDEX[tries]
    return res_home[r] + try_home[t], res_away[r] + try_away[t]


def test_result_classification_margin_boundaries():
    # the losing-bonus margin itself still counts as narrow
    assert classify_result(20, 13) is ResultOutcome.HOME_NARROW
    assert classify_result(20, 12) is ResultOutcome.HOME_WIDE
    assert classify_result(13, 20) is ResultOutcome.AWAY_NARROW
    assert classify_result(12, 20) is ResultOutcome.AWAY_WIDE
    assert classify_result(17, 17) is ResultOutcome.DRAW
    assert classify_result(1, 0) is ResultOutcome.HOME_NARROW


def test_result_classification_respects_custom_margin():
    points = PointsSystem(losing_bonus_margin=5)
    assert classify_result(20, 14, points) is ResultOutcome.HOME_WIDE
    assert classify_result(20, 15, points) is ResultOutcome.HOME_NARROW


def test_try_classification_threshold():
    assert classify_try(4, 4) is TryOutcome.BOTH_BONUS
    assert classify_try(4, 3) is TryOutcome.HOME_BONUS
    assert classify_try(0, 4) is TryOutcome.AWAY_BONUS
    assert classify_try(3, 3) is TryOutcome.ZERO_BONUS
    points = PointsSystem(try_bonus_threshold=3)
    assert classify_try(3, 0, points) is TryOutcome.HOME_BONUS


def test_league_points_all_cells():
    expected = {
        (ResultOutcome.HOME_WIDE, TryOutcome.ZERO_BONUS): (4, 0),
        (ResultOutcome.HOME_WIDE, TryOutcome.HOME_BONUS): (5, 0),
        (ResultOutcome.HOME_NARROW, TryOutcome.ZERO_BONUS): (4, 1),
        (ResultOutcome.HOME_NARROW, TryOutcome.BOTH_BONUS): (5, 2),
        (ResultOutcome.DRAW, TryOutcome.ZERO_BONUS): (2, 2),
        (ResultOutcome.DRAW, TryOutcome.AWAY_BONUS): (2, 3),
        (ResultOutcome.AWAY_NARROW, TryOutcome.ZERO_BONUS): (1, 4),
        (ResultOutcome.AWAY_WIDE, TryOutcome.BOTH_BONUS): (1, 5),
    }
    for (result, tries), want in expected.items():
        assert cell_points(result, tries) == want


def test_league_points_custom_system():
    points = PointsSystem(win_points=3, draw_points=1, loss_points=0)
    assert cell_points(ResultOutcome.HOME_WIDE, TryOutcome.ZERO_BONUS,
                       points) == (3, 0)
    assert cell_points(ResultOutcome.DRAW, TryOutcome.ZERO_BONUS,
                       points) == (1, 1)
    assert cell_points(ResultOutcome.AWAY_NARROW, TryOutcome.ZERO_BONUS,
                       points) == (1, 3)


def test_points_system_validation():
    with pytest.raises(ValueError):
        PointsSystem(win_points=2, draw_points=2)
    with pytest.raises(ValueError):
        PointsSystem(losing_bonus_margin=-1)
    with pytest.raises(ValueError):
        PointsSystem(try_bonus_threshold=0)
    # every value must be an int, and a bool is not one
    for bad in ({"win_points": "4"}, {"win_points": 4.5},
                {"loss_points": False}, {"try_bonus_threshold": True},
                {"losing_bonus_margin": 7.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            PointsSystem(**bad)


def test_points_system_dict_round_trip():
    points = PointsSystem(win_points=3, draw_points=1, loss_points=0,
                          losing_bonus_margin=5, try_bonus_threshold=3)
    assert points.to_dict() == {"win_points": 3, "draw_points": 1,
                                "loss_points": 0, "losing_bonus_margin": 5,
                                "try_bonus_threshold": 3}
    assert PointsSystem.from_dict(points.to_dict()) == points
    assert PointsSystem.from_dict({"losing_bonus_margin": 5}) == \
        PointsSystem(losing_bonus_margin=5)
    with pytest.raises(ValueError, match=r"unknown keys \['bogus'\]"):
        PointsSystem.from_dict({"win_points": 3, "bogus": 1})


def test_match_record_validation():
    with pytest.raises(ValueError):
        MatchRecord("A", "A", 10, 5, 1, 1)
    with pytest.raises(ValueError):
        MatchRecord("", "B", 10, 5, 1, 1)
    with pytest.raises(ValueError):
        MatchRecord("A", "B", -1, 5, 0, 1)
    # a side's score must support its try count
    with pytest.raises(ValueError):
        MatchRecord("A", "B", 19, 5, 4, 1)
    with pytest.raises(ValueError):
        MatchRecord("A", "B", 20, 4, 4, 1)
    MatchRecord("A", "B", 20, 5, 4, 1)


def test_override_must_be_narrow():
    with pytest.raises(ValueError):
        MatchRecord("A", "B", 0, 0, 0, 0,
                    result_override=ResultOutcome.HOME_WIDE)
    record = MatchRecord("A", "B", 0, 0, 0, 0,
                         result_override=ResultOutcome.AWAY_NARROW)
    assert classify_match(record) == (ResultOutcome.AWAY_NARROW,
                                      TryOutcome.ZERO_BONUS)


def test_league_points_of_classified_matches():
    record = MatchRecord("A", "B", 31, 5, 4, 1)
    assert cell_points(*classify_match(record)) == (5, 0)
    narrow = MatchRecord("A", "B", 18, 22, 2, 4)
    assert cell_points(*classify_match(narrow)) == (1, 5)


def _table(*matches) -> OutcomeCounts:
    """The table of (home, away, venue, result, tries) matches; tries None
    keeps a match out of the try counts."""
    home, away, venue, result, tries = zip(*matches)
    return OutcomeCounts.tabulate(
        home, away, [v is Venue.HOME_GROUND for v in venue],
        [RESULT_INDEX[r] for r in result],
        [-1 if t is None else TRY_INDEX[t] for t in tries])


def _row_keys(counts: OutcomeCounts) -> list:
    """Each row's (home, away, venue), read from the table's arrays."""
    return [(counts.teams[home], counts.teams[away],
             Venue.HOME_GROUND if at_home else Venue.NEUTRAL)
            for home, away, at_home in zip(counts.home.tolist(),
                                           counts.away.tolist(),
                                           counts.home_ground.tolist())]


def _bumped(counts: OutcomeCounts, block: str, key, cell: int,
            by: int) -> OutcomeCounts:
    """The table with one pair's count in one block's cell moved by ``by``."""
    bumped = getattr(counts, block).copy()
    bumped[_row_keys(counts).index(key), cell] += by
    return dataclasses.replace(counts, **{block: bumped})


def test_outcome_counts_add_and_validate():
    counts = _table(
        ("A", "B", Venue.HOME_GROUND, ResultOutcome.HOME_WIDE,
         TryOutcome.HOME_BONUS),
        ("A", "B", Venue.HOME_GROUND, ResultOutcome.DRAW,
         TryOutcome.ZERO_BONUS),
        ("B", "C", Venue.NEUTRAL, ResultOutcome.AWAY_NARROW, None))
    assert counts.teams == ["A", "B", "C"]
    assert counts.result.sum() == 3
    counts.validate()
    keys = _row_keys(counts)
    pair = keys.index(("A", "B", Venue.HOME_GROUND))
    assert counts.result[pair].sum() == 2 and counts.tries[pair].sum() == 2
    # the override match was kept out of the try counts
    neutral = keys.index(("B", "C", Venue.NEUTRAL))
    assert counts.result[neutral].sum() == 1
    assert counts.tries[neutral].sum() == 0
    with pytest.raises(ValueError, match="cannot play itself: 'A'"):
        _table(("A", "B", Venue.HOME_GROUND, ResultOutcome.DRAW,
                TryOutcome.ZERO_BONUS),
               ("A", "A", Venue.HOME_GROUND, ResultOutcome.DRAW,
                TryOutcome.ZERO_BONUS))


def test_pairs_are_the_rows_keys():
    # the keys perfbench counts the rows through
    counts = _table(
        ("A", "B", Venue.HOME_GROUND, ResultOutcome.HOME_WIDE,
         TryOutcome.HOME_BONUS),
        ("A", "B", Venue.HOME_GROUND, ResultOutcome.DRAW,
         TryOutcome.ZERO_BONUS),
        ("B", "C", Venue.NEUTRAL, ResultOutcome.AWAY_NARROW, None))
    assert counts.pairs.tolist() == [[0, 1, 1], [1, 2, 0]]
    assert [(counts.teams[home], counts.teams[away],
             Venue.HOME_GROUND if on_ground else Venue.NEUTRAL)
            for home, away, on_ground in counts.pairs] == _row_keys(counts)
    assert len(counts.pairs) == len(counts.home)
    pair = _row_keys(counts).index(("A", "B", Venue.HOME_GROUND))
    assert counts.result[pair].sum() == 2 and counts.tries[pair].sum() == 2
    # the keys are a copy: writing into them leaves the table as it was
    counts.pairs[:] = 0
    assert counts.pairs.tolist() == [[0, 1, 1], [1, 2, 0]]
    assert counts.tries.sum() == 2


def test_outcome_counts_rejects_excess_try_outcomes():
    counts = _table(("A", "B", Venue.HOME_GROUND, ResultOutcome.DRAW,
                     TryOutcome.ZERO_BONUS))
    counts = _bumped(counts, "tries", ("A", "B", Venue.HOME_GROUND), 0, 1)
    with pytest.raises(ValueError):
        counts.validate()


def test_outcome_counts_validate_names_the_first_bad_pair():
    counts = _table(*((home, away, Venue.HOME_GROUND, ResultOutcome.DRAW,
                       TryOutcome.ZERO_BONUS)
                      for home, away in (("A", "B"), ("C", "D"), ("E", "F"))))
    good = counts
    counts = _bumped(counts, "tries", ("E", "F", Venue.HOME_GROUND), 0, 1)
    counts = _bumped(counts, "tries", ("C", "D", Venue.HOME_GROUND), 1, 1)
    with pytest.raises(ValueError, match="'C' vs 'D'"):
        counts.validate()
    # a stack of seasons over the same rows: a bad row in any season counts
    stack = dataclasses.replace(
        good, result=np.stack([good.result, counts.result]),
        tries=np.stack([good.tries, counts.tries]))
    with pytest.raises(ValueError, match="'C' vs 'D'"):
        stack.validate()
    # a negative count before both excess pairs is reported first
    counts = _bumped(counts, "result", ("A", "B", Venue.HOME_GROUND), 0, -2)
    with pytest.raises(ValueError, match="non-negative"):
        counts.validate()
    # a row that pairs a team with itself is reported before its counts
    with pytest.raises(ValueError, match="cannot play itself: 'A'"):
        dataclasses.replace(counts, away=counts.home).validate()


def _hand_season() -> list[MatchRecord]:
    return [
        # home wide win with home try bonus: 5 - 0
        MatchRecord("A", "B", 33, 10, 4, 2),
        # away narrow win, both bonus: 2 - 5
        MatchRecord("A", "C", 25, 30, 4, 4),
        # draw, zero bonus, at a neutral ground: 2 - 2
        MatchRecord("B", "C", 16, 16, 2, 2, venue=Venue.NEUTRAL),
        # declared result only: narrow home win, no try information: 4 - 1
        MatchRecord("C", "A", 0, 0, 0, 0,
                    result_override=ResultOutcome.HOME_NARROW),
    ]


def _records_match_by_match(matches, points):
    """Playing records tallied one match at a time from cell_points."""
    rows = {}
    for match in matches:
        result, tries = classify_match(match, points)
        both = cell_points(result, tries, points)
        for k, side in enumerate(("HOME", "AWAY")):
            other = "AWAY" if side == "HOME" else "HOME"
            row = rows.setdefault((match.home_team, match.away_team)[k],
                                  [0] * 7)
            row[0] += 1
            row[1] += result.name.startswith(side)
            row[2] += result is ResultOutcome.DRAW
            row[3] += result.name.startswith(other)
            row[4] += tries is TryOutcome.BOTH_BONUS \
                or tries.name.startswith(side)
            row[5] += result.name == f"{other}_NARROW"
            row[6] += int(both[k])
    return {team: TeamRecord(team, *row) for team, row in sorted(rows.items())}


@pytest.mark.parametrize("points", [
    DEFAULT_POINTS,
    PointsSystem(win_points=3, draw_points=1, loss_points=0,
                 losing_bonus_margin=5, try_bonus_threshold=3),
])
def test_team_records_equal_a_match_by_match_tally(points):
    matches = [*load_matches(DATA / "golden_season.csv").records,
               *_hand_season()]
    counts = outcome_counts(matches, points)
    records = team_records(counts, points)
    assert records == _records_match_by_match(matches, points)
    assert list(records) == sorted(records)
    assert all(type(value) is int for record in records.values()
               for value in dataclasses.astuple(record)[1:])


@pytest.mark.parametrize("points", [
    DEFAULT_POINTS,
    PointsSystem(losing_bonus_margin=5, try_bonus_threshold=3),
])
def test_outcome_counts_equal_the_scalar_classification(points):
    rng = np.random.default_rng(17)
    teams = ("A", "B", "C", "D", "E")
    matches = []
    for _ in range(400):
        home, away = rng.choice(teams, 2, replace=False).tolist()
        venue = Venue.NEUTRAL if rng.random() < 0.2 else Venue.HOME_GROUND
        if rng.random() < 0.1:
            override = (ResultOutcome.HOME_NARROW,
                        ResultOutcome.AWAY_NARROW)[rng.integers(2)]
            matches.append(MatchRecord(home, away, 0, 0, 0, 0, venue=venue,
                                       result_override=override))
            continue
        tries = rng.integers(0, 6, 2)
        # margins cluster around the narrow/wide boundaries
        home_score = int(5 * tries[0] + rng.integers(0, 12))
        away_score = int(max(5 * tries[1], home_score
                             + rng.integers(-9, 10)))
        matches.append(MatchRecord(home, away, home_score, away_score,
                                   int(tries[0]), int(tries[1]), venue))
    expected: dict = {}
    for match in matches:
        result, tries = classify_match(match, points)
        key = (match.home_team, match.away_team, match.venue)
        cells = expected.setdefault(key, (np.zeros(5), np.zeros(4)))
        cells[0][RESULT_INDEX[result]] += 1
        if match.result_override is None:
            cells[1][TRY_INDEX[tries]] += 1
    counts = outcome_counts(matches, points)
    keys = _row_keys(counts)
    assert set(keys) == set(expected)
    for key, (result, tries) in expected.items():
        row = keys.index(key)
        assert np.array_equal(counts.result[row], result), key
        assert np.array_equal(counts.tries[row], tries), key


def test_hand_season_points_and_outcome_totals():
    counts = outcome_counts(_hand_season())
    # per-team points tallied by hand from the four matches above
    assert {team: record.league_points
            for team, record in team_records(counts).items()} == {
        "A": 5 + 2 + 1, "B": 0 + 2, "C": 5 + 2 + 4}
    result, tries = counts.result.sum(axis=0), counts.tries.sum(axis=0)
    assert result[1] + result[3] == 2  # the away narrow win and the override
    assert result[2] == 1
    assert tries[0] == 1
    assert tries[3] == 1  # the draw; the override has no try outcome
    # the override match contributes no try outcome at all
    assert tries.sum() == 3


def test_outcome_counts_groups_by_venue():
    records = [
        MatchRecord("A", "B", 10, 5, 1, 1),
        MatchRecord("A", "B", 10, 5, 1, 1, venue=Venue.NEUTRAL),
    ]
    counts = outcome_counts(records)
    assert len(counts.home) == 2
    # the Home row sorts before the Neutral row of the same pair, whatever
    # the order of the matches
    for table in (counts, outcome_counts(records[::-1])):
        assert _row_keys(table) == [("A", "B", Venue.HOME_GROUND),
                                    ("A", "B", Venue.NEUTRAL)]
        assert table.home_ground.tolist() == [True, False]


def test_outcome_counts_do_not_depend_on_match_order():
    matches = [*load_matches(DATA / "golden_season.csv").records,
               *_hand_season()]
    counts = outcome_counts(matches)
    shuffled = [matches[k] for k in
                np.random.default_rng(5).permutation(len(matches))]
    again = outcome_counts(shuffled)
    assert again.teams == counts.teams
    for name in ("home", "away", "home_ground", "result", "tries"):
        assert np.array_equal(getattr(again, name), getattr(counts, name))
    # rows sorted by home team, away team and venue value
    keys = [(home, away, venue.value)
            for home, away, venue in _row_keys(counts)]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_match_columns_read_back_as_the_records():
    matches = [*load_matches(DATA / "golden_season.csv").records,
               *_hand_season()]
    columns = MatchColumns.of(matches)
    assert MatchColumns.of(columns) is columns
    assert len(columns) == len(matches)
    assert list(columns) == matches
    assert [columns[k] for k in range(-len(matches), 0)] == matches
    assert all(type(value) is int for match in columns
               for value in dataclasses.astuple(match)[2:6])
    assert len(MatchColumns.of([])) == 0
    assert outcome_counts([]).result.sum() == 0


def test_enum_orders_are_stable():
    assert [o.value for o in RESULT_ORDER] == [
        "home_wide", "home_narrow", "draw", "away_narrow", "away_wide"]
    assert [o.value for o in TRY_ORDER] == [
        "both_bonus", "home_bonus", "away_bonus", "zero_bonus"]
    assert DEFAULT_POINTS.win_points == 4
