"""Ranking tables: league points per match, model-predicted points per
match, and the banded merit-points adjustment.

League points per match (LPPM) is the plain table metric: points taken
divided by matches played. The model counterpart (PPPM) asks what the
fitted model expects a team to average over a balanced schedule, one home
and one away fixture against every other team, so teams with uneven or
weak schedules are put on a common footing. Merit points instead add a
fixed bonus per fixture based on the opponent's previous-season rank band;
they are computed in exact tenths so published tables can be matched
digit for digit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (
    DEFAULT_POINTS,
    MatchColumns,
    MatchRecord,
    PointsSystem,
    TeamRecord,
    Venue,
    outcome_counts,
    team_records,
)
from .estimate import FittedModel
from .model import (
    DEFAULT_VARIANT,
    Parameters,
    VariantConfig,
    expected_points,
    parameter_layout,
)


class TeamMismatchError(ValueError):
    """Two inputs that must cover the same teams do not."""

    def __init__(self, message: str, missing: Sequence[str],
                 extra: Sequence[str]):
        super().__init__(message)
        self.missing = tuple(missing)
        self.extra = tuple(extra)


def _require_same_teams(first: Iterable[str], second: Iterable[str],
                        what: str):
    a, b = set(first), set(second)
    if a != b:
        missing = sorted(a - b)
        extra = sorted(b - a)
        raise TeamMismatchError(
            f"{what}: teams do not match (missing from second: {missing}, "
            f"unexpected in second: {extra})",
            missing=missing, extra=extra,
        )


def playing_records(matches: Iterable[MatchRecord],
                    points: PointsSystem = DEFAULT_POINTS
                    ) -> dict[str, TeamRecord]:
    """Aggregate per-team playing records from match results."""
    return team_records(outcome_counts(matches, points), points)


def lppm(matches: Iterable[MatchRecord],
         points: PointsSystem = DEFAULT_POINTS) -> dict[str, float]:
    """League points per match for every team in the results."""
    return {team: record.lppm
            for team, record in playing_records(matches, points).items()}


def _model_parts(source: FittedModel | Parameters,
                 variant: VariantConfig | None,
                 points: PointsSystem | None):
    if isinstance(source, FittedModel):
        return (source.parameters,
                variant or source.variant,
                points or source.points_system)
    return (source, variant or DEFAULT_VARIANT, points or DEFAULT_POINTS)


def pppm(source: FittedModel | Parameters, *,
         variant: VariantConfig | None = None,
         points: PointsSystem | None = None) -> dict[str, float]:
    """Predicted points per match over a balanced double round robin.

    Each team meets every other twice, once at home and once away, with
    the home-advantage factor active on home legs; the average expected
    league points per fixture is the schedule-corrected rating.
    """
    params, variant, points = _model_parts(source, variant, points)
    teams = sorted(getattr(params, parameter_layout(variant).home))
    if len(teams) < 2:
        raise ValueError("a rating needs at least two teams")
    m = len(teams)
    totals = np.zeros(m)
    for k, team in enumerate(teams):
        # one call per home team: its home leg against every other team
        others = teams[:k] + teams[k + 1:]
        at_home, on_road = expected_points(params, [team] * (m - 1), others,
                                           variant=variant,
                                           venue=Venue.HOME_GROUND,
                                           points=points)
        totals[k] += at_home.sum()
        totals[np.arange(m) != k] += on_road
    return {team: float(total) / (2 * (m - 1))
            for team, total in zip(teams, totals)}


def previous_rank_band(rank: int | None) -> int:
    """Fixture bonus for facing an opponent of the given previous rank,
    in tenths of a league point."""
    if rank is None:
        return 0
    if rank < 1:
        raise ValueError(f"previous rank must be positive, got {rank}")
    if rank <= 25:
        return 3
    if rank <= 50:
        return 2
    if rank <= 75:
        return 1
    return 0


def merit_points(records: Mapping[str, TeamRecord],
                 matches: Iterable[MatchRecord],
                 previous_ranks: Mapping[str, int]) -> dict[str, float]:
    """Merit points: LPPM plus banded additional points per fixture.

    Each fixture adds 0.3, 0.2, 0.1 or 0 to the team's rating according
    to the opponent's previous-season rank (top 25, 26-50, 51-75, lower
    or unranked); the additions are totals, not per-match averages. The
    arithmetic runs on integer tenths with a single division so published
    decimals are matched exactly, without accumulated float error.
    ``records`` are the teams' playing records over the same ``matches``.
    """
    tenths = {team: 0 for team in records}
    matches = MatchColumns.of(matches)
    for home, away in zip(matches.home_team.tolist(),
                          matches.away_team.tolist()):
        tenths[home] += previous_rank_band(previous_ranks.get(away))
        tenths[away] += previous_rank_band(previous_ranks.get(home))
    return {
        team: (record.league_points * 10 + tenths[team] * record.played)
        / (10 * record.played)
        for team, record in records.items()
    }


@dataclass(frozen=True)
class RankRow:
    rank: int | None  # None means not ranked (too few matches)
    team: str
    rating: float
    played: int
    won: int
    drawn: int
    lost: int
    league_points: int
    lppm: float

    @property
    def qualified(self) -> bool:
        return self.rank is not None


@dataclass(frozen=True)
class RankingTable:
    """An ordered ranking with competition-style tie handling.

    Tied ratings share the higher rank and the next distinct rating takes
    the rank it would have with the tie counted (1, 2, 2, 4). Teams with
    fewer than the qualifying number of matches appear below the ranked
    block marked NR.
    """

    rows: tuple[RankRow, ...]
    method: str
    min_matches: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["team", "rating", "rank", "P", "W", "D", "L",
                         "LPPM", "flags"])
        for row in self.rows:
            writer.writerow([
                row.team, repr(row.rating),
                "" if row.rank is None else row.rank,
                row.played, row.won, row.drawn, row.lost,
                repr(row.lppm), "" if row.qualified else "NR",
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "method": self.method,
            "min_matches": self.min_matches,
            "rows": [
                {"rank": row.rank, "team": row.team, "rating": row.rating,
                 "played": row.played, "won": row.won, "drawn": row.drawn,
                 "lost": row.lost, "league_points": row.league_points,
                 "lppm": row.lppm, "qualified": row.qualified}
                for row in self.rows
            ],
        }
        return json.dumps(doc, indent=2)


def build_table(metric_values: Mapping[str, float],
                records: Mapping[str, TeamRecord],
                method: str = "PPPM",
                min_matches: int = 5) -> RankingTable:
    """Rank teams by a metric, qualifying only those with enough matches.

    Equal ratings keep the input order of ``records`` (the sort is
    stable), and share a rank competition-style.
    """
    _require_same_teams(metric_values, records, "ranking metric vs records")
    for team, value in metric_values.items():
        if not math.isfinite(value):
            raise ValueError(f"rating for {team!r} is not finite: {value!r}")

    def sort_key(team: str):
        return -metric_values[team]

    qualified = sorted((t for t, r in records.items()
                        if r.played >= min_matches), key=sort_key)
    unranked = sorted((t for t, r in records.items()
                       if r.played < min_matches), key=sort_key)
    rows: list[RankRow] = []
    for position, team in enumerate(qualified):
        if position > 0 and metric_values[team] == metric_values[
                qualified[position - 1]]:
            rank = rows[-1].rank  # share the tied rank
        else:
            rank = position + 1
        record = records[team]
        rows.append(RankRow(rank, team, metric_values[team], record.played,
                            record.won, record.drawn, record.lost,
                            record.league_points, record.lppm))
    for team in unranked:
        record = records[team]
        rows.append(RankRow(None, team, metric_values[team], record.played,
                            record.won, record.drawn, record.lost,
                            record.league_points, record.lppm))
    return RankingTable(rows=tuple(rows), method=method,
                        min_matches=min_matches)


PREV_RANKS_HEADER = ("team", "previous_rank")


def read_previous_ranks(text: str) -> dict[str, int]:
    """Read a previous-season ranking CSV: team,previous_rank."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(cell.strip() for cell in next(reader))
    except StopIteration:
        raise ValueError("empty previous-ranks file: no header row") from None
    if header != PREV_RANKS_HEADER:
        raise ValueError(f"bad previous-ranks header {','.join(header)!r}; "
                         f"expected {','.join(PREV_RANKS_HEADER)}")
    ranks: dict[str, int] = {}
    for index, cells in enumerate(reader, start=1):
        if len(cells) != 2:
            raise ValueError(f"previous-ranks row {index}: expected 2 cells, "
                             f"found {len(cells)}")
        team, rank_text = cells[0].strip(), cells[1].strip()
        if not team:
            raise ValueError(f"previous-ranks row {index}: blank team")
        if team in ranks:
            raise ValueError(f"previous-ranks row {index}: duplicate team "
                             f"{team!r}")
        try:
            rank = int(rank_text)
        except ValueError:
            raise ValueError(f"previous-ranks row {index}: bad rank "
                             f"{rank_text!r}") from None
        if rank < 1:
            raise ValueError(f"previous-ranks row {index}: rank must be "
                             f"positive, got {rank}")
        ranks[team] = rank
    return ranks


@dataclass(frozen=True)
class RankingComparison:
    """How two tables order the teams they both rank.

    ``moves`` pairs each team with its rank under the first and second
    table, sorted by the size of the move. ``adjustments`` holds, per
    team, the pair (first rating - LPPM, second rating - LPPM): how far
    each metric moves the team away from its raw league-points rate.
    """

    mean_absolute_rank_difference: float
    moves: tuple[tuple[str, int, int], ...]
    adjustments: Mapping[str, tuple[float, float]]


def compare_rankings(first: RankingTable,
                     second: RankingTable) -> RankingComparison:
    """Compare two ranking tables over the teams ranked in both.

    Unranked (NR) rows are dropped before intersecting. An empty
    intersection raises TeamMismatchError.
    """
    rows_first = {row.team: row for row in first.rows if row.rank is not None}
    rows_second = {row.team: row for row in second.rows
                   if row.rank is not None}
    common = [team for team in rows_first if team in rows_second]
    if not common:
        raise TeamMismatchError(
            "ranking comparison: no team is ranked in both tables",
            missing=sorted(set(rows_first) - set(rows_second)),
            extra=sorted(set(rows_second) - set(rows_first)))
    moves = sorted(
        ((team, rows_first[team].rank, rows_second[team].rank)
         for team in common),
        key=lambda item: (-abs(item[1] - item[2]), item[0]),
    )
    total = sum(abs(a - b) for _, a, b in moves)
    adjustments = {
        team: (rows_first[team].rating - rows_first[team].lppm,
               rows_second[team].rating - rows_second[team].lppm)
        for team in common
    }
    return RankingComparison(
        mean_absolute_rank_difference=total / len(moves),
        moves=tuple(moves),
        adjustments=adjustments,
    )
