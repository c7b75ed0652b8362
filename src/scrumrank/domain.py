"""Match outcomes, league points and the outcome table the rating model reads.

A completed fixture is reduced to a pair of categorical outcomes: a five-way
result (who won, and whether the margin was within the losing-bonus range)
and a four-way try outcome (which sides reached the try-bonus threshold).
League points are a function of that pair alone, so a season collapses to
outcome counts per ordered (home, away, venue) triple, and that table is
what the likelihood in :mod:`scrumrank.estimate` consumes; a fit takes
each team's observed points from it as a moment of its own problem.
``MatchColumns`` holds a list of fixtures as columns, which
``outcome_counts`` classifies in one array pass. ``OutcomeCounts`` holds
the table as sorted per-pair arrays, built by ``OutcomeCounts.tabulate``
alone, and ``team_records`` tallies each team's playing record over it,
for the ranking tables and for the diagnosis of a failed fit.

Everything here is a pure function of immutable values; no I/O.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# A try is worth at least five score units, so a side's score can never be
# smaller than five times its try count.
TRY_SCORE_VALUE = 5


class ResultOutcome(Enum):
    """Five-way match result: winner side and whether the margin was narrow."""

    HOME_WIDE = "home_wide"
    HOME_NARROW = "home_narrow"
    DRAW = "draw"
    AWAY_NARROW = "away_narrow"
    AWAY_WIDE = "away_wide"


class TryOutcome(Enum):
    """Which sides reached the try-bonus threshold."""

    BOTH_BONUS = "both_bonus"
    HOME_BONUS = "home_bonus"
    AWAY_BONUS = "away_bonus"
    ZERO_BONUS = "zero_bonus"


class Venue(Enum):
    """Where the fixture was played: the home side's ground or a neutral one."""

    HOME_GROUND = "Home"
    NEUTRAL = "Neutral"


RESULT_ORDER: tuple[ResultOutcome, ...] = (
    ResultOutcome.HOME_WIDE,
    ResultOutcome.HOME_NARROW,
    ResultOutcome.DRAW,
    ResultOutcome.AWAY_NARROW,
    ResultOutcome.AWAY_WIDE,
)

TRY_ORDER: tuple[TryOutcome, ...] = (
    TryOutcome.BOTH_BONUS,
    TryOutcome.HOME_BONUS,
    TryOutcome.AWAY_BONUS,
    TryOutcome.ZERO_BONUS,
)

RESULT_INDEX = {outcome: k for k, outcome in enumerate(RESULT_ORDER)}
TRY_INDEX = {outcome: k for k, outcome in enumerate(TRY_ORDER)}


def json_object(value, name: str) -> Mapping:
    """``value`` when it is a JSON object, else a ValueError naming the
    section ``name``."""
    if not isinstance(value, Mapping):
        raise ValueError(f"schema error, {name} must be a JSON object")
    return value


@dataclass(frozen=True)
class PointsSystem:
    """League points on offer for each element of a match outcome.

    The losing bonus (one point for losing by no more than
    ``losing_bonus_margin``) and the try bonus (one point for scoring at
    least ``try_bonus_threshold`` tries) are worth a single point each; only
    the win/draw/loss values and the two thresholds are configurable.
    """

    win_points: int = 4
    draw_points: int = 2
    loss_points: int = 0
    losing_bonus_margin: int = 7
    try_bonus_threshold: int = 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be an integer, got "
                                 f"{value!r}")
        if not (self.win_points > self.draw_points > self.loss_points >= 0):
            raise ValueError("points must satisfy win > draw > loss >= 0")
        if self.losing_bonus_margin < 0:
            raise ValueError("losing_bonus_margin must be non-negative")
        if self.try_bonus_threshold < 1:
            raise ValueError("try_bonus_threshold must be at least 1")

    def to_dict(self) -> dict:
        """JSON form, as stored in fitted-model files and manifests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PointsSystem":
        """Inverse of ``to_dict``; absent keys keep their defaults, and an
        unknown key is a ValueError that names it."""
        allowed = [f.name for f in fields(cls)]
        unknown = set(json_object(doc, "points_system")) - set(allowed)
        if unknown:
            raise ValueError(f"points_system: unknown keys {sorted(unknown)}; "
                             f"allowed {allowed}")
        return cls(**doc)


DEFAULT_POINTS = PointsSystem()

# Result overrides come from declared results with no recorded score; the
# declared winner is treated as a narrow winner, so only these two outcomes
# are legal override values.
_OVERRIDE_OUTCOMES = (ResultOutcome.HOME_NARROW, ResultOutcome.AWAY_NARROW)


@dataclass(frozen=True)
class MatchRecord:
    """One completed fixture: final score, try counts and venue.

    ``result_override`` marks a record whose outcome was taken from a
    declared result rather than the (absent) score; such records bypass
    classification and carry no try information.
    """

    home_team: str
    away_team: str
    home_score: int
    away_score: int
    home_tries: int
    away_tries: int
    venue: Venue = Venue.HOME_GROUND
    result_override: ResultOutcome | None = None

    def __post_init__(self):
        if not self.home_team or not self.away_team:
            raise ValueError("team names must be non-empty")
        if self.home_team == self.away_team:
            raise ValueError(f"a team cannot play itself: {self.home_team!r}")
        for label in ("home_score", "away_score", "home_tries", "away_tries"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be non-negative")
        if self.result_override is not None:
            if self.result_override not in _OVERRIDE_OUTCOMES:
                raise ValueError("an override must name a narrow winner")
        else:
            if self.home_score < TRY_SCORE_VALUE * self.home_tries:
                raise ValueError(
                    f"home score {self.home_score} cannot support "
                    f"{self.home_tries} tries"
                )
            if self.away_score < TRY_SCORE_VALUE * self.away_tries:
                raise ValueError(
                    f"away score {self.away_score} cannot support "
                    f"{self.away_tries} tries"
                )


@dataclass(frozen=True, eq=False)
class MatchColumns(abc.Sequence):
    """Completed fixtures held as columns; each item reads as a MatchRecord.

    ``home_team`` and ``away_team`` hold the sides' names, the four counts
    are int64 arrays, ``home_ground`` is False at a neutral ground, and
    ``override`` holds a declared result's RESULT_ORDER cell, or -1 where
    the score decides the result. ``of`` converts match records; the
    cleaner builds its columns directly, already checked as a MatchRecord
    checks its fields.
    """

    home_team: np.ndarray
    away_team: np.ndarray
    home_score: np.ndarray
    away_score: np.ndarray
    home_tries: np.ndarray
    away_tries: np.ndarray
    home_ground: np.ndarray
    override: np.ndarray

    @classmethod
    def of(cls, matches: Iterable[MatchRecord]) -> "MatchColumns":
        """``matches`` as columns; columns pass through unchanged."""
        if isinstance(matches, MatchColumns):
            return matches
        matches = list(matches)
        return cls(
            *(np.array([getattr(match, name) for match in matches],
                       dtype=object) for name in ("home_team", "away_team")),
            *(np.array([getattr(match, name) for match in matches],
                       dtype=np.int64) for name in _COUNT_FIELDS),
            np.array([match.venue is Venue.HOME_GROUND for match in matches],
                     dtype=bool),
            np.array([-1 if match.result_override is None
                      else RESULT_INDEX[match.result_override]
                      for match in matches], dtype=np.intp))

    def __len__(self) -> int:
        return len(self.home_team)

    def __getitem__(self, k: int) -> MatchRecord:
        return self._record(self.home_team[k], self.away_team[k],
                            *(int(getattr(self, name)[k])
                              for name in _COUNT_FIELDS),
                            bool(self.home_ground[k]), int(self.override[k]))

    def __iter__(self) -> Iterator[MatchRecord]:
        columns = [getattr(self, f.name).tolist() for f in fields(self)]
        return (self._record(*cells) for cells in zip(*columns))

    @staticmethod
    def _record(home, away, home_score, away_score, home_tries, away_tries,
                on_ground, override) -> MatchRecord:
        return MatchRecord(
            home, away, home_score, away_score, home_tries, away_tries,
            Venue.HOME_GROUND if on_ground else Venue.NEUTRAL,
            None if override < 0 else RESULT_ORDER[override])


_COUNT_FIELDS = ("home_score", "away_score", "home_tries", "away_tries")


def result_points_arrays(points: PointsSystem = DEFAULT_POINTS
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Home and away result points per RESULT_ORDER cell."""
    win, draw, loss = points.win_points, points.draw_points, points.loss_points
    home = np.array([win, win, draw, loss + 1, loss], dtype=float)
    away = np.array([loss, loss + 1, draw, win, win], dtype=float)
    return home, away


def try_points_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Home and away try-bonus points per TRY_ORDER cell."""
    home = np.array([1.0, 1.0, 0.0, 0.0])
    away = np.array([1.0, 0.0, 1.0, 0.0])
    return home, away


@dataclass(frozen=True, eq=False)
class OutcomeCounts:
    """Season-level outcome frequency table, one row per ordered (home,
    away, venue) triple, rows sorted by home team, away team and venue
    value.

    ``home`` and ``away`` index each row's sides into the sorted ``teams``,
    ``home_ground`` is False at a neutral ground, and ``result`` and
    ``tries`` are the outcome counts, rows x 5 and rows x 4. A stack of
    seasons played over the same fixture list shares the rows, and its
    counts carry a leading replicate axis: replicates x rows x 5 and x 4;
    only ``validate`` and ``estimate.fit_replicates`` read a stack.
    ``tabulate`` builds every table.
    """

    teams: list[str]
    home: np.ndarray
    away: np.ndarray
    home_ground: np.ndarray
    result: np.ndarray
    tries: np.ndarray

    @classmethod
    def tabulate(cls, home: Sequence[str], away: Sequence[str],
                 home_ground: Sequence[bool], result: Sequence[int],
                 tries: Sequence[int]) -> "OutcomeCounts":
        """The table of a list of matches, given per match its sides, its
        home-ground flag, its RESULT_ORDER cell and its TRY_ORDER cell; a
        try cell of -1 keeps the match out of the try counts.

        Cells given as replicates x matches arrays, one row per season of
        the same matches, tabulate a stack: the rows are found once and
        each season's cells are counted into its own tables.
        """
        teams = sorted({*home, *away})
        index = {team: k for k, team in enumerate(teams)}
        sides = np.array([[index[team] for team in home],
                          [index[team] for team in away]], dtype=np.intp)
        self_play = np.flatnonzero(sides[0] == sides[1])
        if self_play.size:
            raise ValueError("a team cannot play itself: "
                             f"{home[int(self_play[0])]!r}")
        neutral = ~np.asarray(home_ground, dtype=bool)
        keys, row = np.unique((sides[0] * len(teams) + sides[1]) * 2
                              + neutral, return_inverse=True)
        n = len(keys)
        result = np.asarray(result, dtype=np.intp)
        tries = np.asarray(tries, dtype=np.intp)
        stack = result.shape[:-1]  # () for one season
        seasons = int(np.prod(stack))
        # each match's row among every season's rows
        row = np.arange(seasons).reshape(*stack, 1) * n + row
        counted = tries >= 0
        return cls(
            teams, keys // 2 // len(teams), keys // 2 % len(teams),
            keys % 2 == 0,
            np.bincount((row * 5 + result).ravel(),
                        minlength=seasons * n * 5).reshape(*stack, n, 5),
            np.bincount((row * 4 + tries)[counted],
                        minlength=seasons * n * 4).reshape(*stack, n, 4))

    # no caller in the package; kept only because perfbench/spans.py counts
    # the rows through it
    @property
    def pairs(self) -> np.ndarray:
        """Each row's home index, away index and home-ground flag, rows x 3."""
        return np.stack([self.home, self.away, self.home_ground], axis=1)

    def validate(self):
        """Raise for the first bad row, in any season of a stack:
        self-play, a negative count, or more try outcomes than matches,
        checked in that order."""
        stack = tuple(range(self.result.ndim - 2))  # a stack's replicates
        self_play = self.home == self.away
        negative = ((self.result < 0).any(axis=-1)
                    | (self.tries < 0).any(axis=-1)).any(axis=stack)
        excess = (self.tries.sum(axis=-1)
                  > self.result.sum(axis=-1)).any(axis=stack)
        bad = np.flatnonzero(self_play | negative | excess)
        if not bad.size:
            return
        k = int(bad[0])
        home, away = self.teams[self.home[k]], self.teams[self.away[k]]
        if self_play[k]:
            raise ValueError(f"a team cannot play itself: {home!r}")
        if negative[k]:
            raise ValueError("outcome counts must be non-negative")
        raise ValueError(
            f"pair {home!r} vs {away!r}: more try outcomes than matches")


def outcome_counts(matches: Iterable[MatchRecord],
                   points: PointsSystem = DEFAULT_POINTS) -> OutcomeCounts:
    """Tally classified outcomes for match records or ``MatchColumns``.

    One array pass classifies every match. A margin of at most
    ``losing_bonus_margin`` is narrow, and a side with at least
    ``try_bonus_threshold`` tries takes a try bonus; a declared result
    takes its override cell and stays out of the try counts.
    """
    m = MatchColumns.of(matches)
    # RESULT_ORDER and TRY_ORDER cells, as indices
    margin = m.home_score - m.away_score
    narrow = np.abs(margin) <= points.losing_bonus_margin
    result = np.where(margin > 0, np.where(narrow, 1, 0),
                      np.where(margin < 0, np.where(narrow, 3, 4), 2))
    home_bonus = m.home_tries >= points.try_bonus_threshold
    away_bonus = m.away_tries >= points.try_bonus_threshold
    tries = np.where(home_bonus, np.where(away_bonus, 0, 1),
                     np.where(away_bonus, 2, 3))
    declared = m.override >= 0
    return OutcomeCounts.tabulate(
        m.home_team, m.away_team, m.home_ground,
        np.where(declared, m.override, result), np.where(declared, -1, tries))


@dataclass(frozen=True)
class TeamRecord:
    """One team's matches, results, bonuses and league points."""

    team: str
    played: int
    won: int
    drawn: int
    lost: int
    try_bonuses: int
    losing_bonuses: int
    league_points: int

    @property
    def lppm(self) -> float:
        """League points per match."""
        return self.league_points / self.played


def team_records(counts: OutcomeCounts,
                 points: PointsSystem = DEFAULT_POINTS
                 ) -> dict[str, TeamRecord]:
    """Every team's playing record over an outcome table, in the order of
    ``counts.teams``.

    Declared results enter the result counts only, so each counts as a
    narrow win that takes no try bonus.
    """
    r, t = counts.result, counts.tries
    res_home, res_away = result_points_arrays(points)
    try_home, try_away = try_points_arrays()
    played, drawn = r.sum(axis=1), r[:, 2]
    home_won, away_won = r[:, :2].sum(axis=1), r[:, 3:].sum(axis=1)
    # per pair and side: played, won, drawn, lost, try bonuses, losing
    # bonuses and league points
    sides = ((counts.home, [played, home_won, drawn, away_won, t @ try_home,
                          r[:, 3], r @ res_home + t @ try_home]),
             (counts.away, [played, away_won, drawn, home_won, t @ try_away,
                          r[:, 1], r @ res_away + t @ try_away]))
    m, k = len(counts.teams), len(sides[0][1])
    tally = np.zeros(m * k)
    for team, columns in sides:
        slots = team[:, None] * k + np.arange(k)
        tally += np.bincount(slots.ravel(), np.stack(columns, axis=1).ravel(),
                             m * k)
    rows = np.rint(tally).astype(int).reshape(m, k).tolist()
    return {team: TeamRecord(team, *row)
            for team, row in zip(counts.teams, rows)}

