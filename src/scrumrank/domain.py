"""Match outcomes, league points and the totals that drive the rating model.

A completed fixture is reduced to a pair of categorical outcomes: a five-way
result (who won, and whether the margin was within the losing-bonus range)
and a four-way try outcome (which sides reached the try-bonus threshold).
League points are a function of that pair alone, so a season collapses to
outcome counts per ordered (home, away, venue) triple plus a handful of
totals, and those totals are exactly what the likelihood in
:mod:`scrumrank.estimate` consumes. ``MatchColumns`` holds a list of
fixtures as columns, which ``outcome_counts`` classifies in one array pass.
``OutcomeCounts`` holds the table as sorted per-pair arrays, built by
``OutcomeCounts.tabulate`` alone, and ``team_records`` is the one per-team
tally over it.

Everything here is a pure function of immutable values; no I/O.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field, fields
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


def classify_result(home_score: int, away_score: int,
                    points: PointsSystem = DEFAULT_POINTS) -> ResultOutcome:
    """Classify a final score into the five-way result outcome.

    A margin equal to ``losing_bonus_margin`` still counts as narrow: the
    boundary is inclusive because the loser collects the bonus point there.
    """
    margin = home_score - away_score
    if margin == 0:
        return ResultOutcome.DRAW
    narrow = abs(margin) <= points.losing_bonus_margin
    if margin > 0:
        return ResultOutcome.HOME_NARROW if narrow else ResultOutcome.HOME_WIDE
    return ResultOutcome.AWAY_NARROW if narrow else ResultOutcome.AWAY_WIDE


def classify_try(home_tries: int, away_tries: int,
                 points: PointsSystem = DEFAULT_POINTS) -> TryOutcome:
    """Classify try counts into the four-way try-bonus outcome."""
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
    """Classify a record, honouring a declared-result override.

    Override records score as a narrow win with no try bonuses; their try
    outcome is reported as ZERO_BONUS for points purposes but they are kept
    out of try-outcome counts entirely.
    """
    if record.result_override is not None:
        return record.result_override, TryOutcome.ZERO_BONUS
    return (classify_result(record.home_score, record.away_score, points),
            classify_try(record.home_tries, record.away_tries, points))


def league_points(result: ResultOutcome, tries: TryOutcome,
                  points: PointsSystem = DEFAULT_POINTS) -> tuple[int, int]:
    """League points (home, away) awarded for an outcome pair."""
    (res_home, res_away), (try_home, try_away) = (result_points_arrays(points),
                                                  try_points_arrays())
    r, t = RESULT_INDEX[result], TRY_INDEX[tries]
    return int(res_home[r] + try_home[t]), int(res_away[r] + try_away[t])


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


@dataclass(frozen=True)
class PairCounts:
    """Outcome frequencies for one ordered (home, away, venue) triple.

    ``result.sum()`` and ``tries.sum()`` can differ: override records enter
    the result counts only.
    """

    result: np.ndarray
    tries: np.ndarray


PairKey = tuple[str, str, Venue]


def _empty(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class OutcomeCounts:
    """Season-level outcome frequency table, one row per ordered (home,
    away, venue) triple, rows sorted by home team, away team and venue
    value.

    ``home`` and ``away`` index each row's sides into the sorted ``teams``,
    ``home_ground`` is False at a neutral ground, and ``result`` and
    ``tries`` are the outcome counts, rows x 5 and rows x 4. The default
    is the empty table; ``tabulate`` builds every other.
    """

    teams: list[str] = field(default_factory=list)
    home: np.ndarray = field(default_factory=lambda: _empty(0))
    away: np.ndarray = field(default_factory=lambda: _empty(0))
    home_ground: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))
    result: np.ndarray = field(default_factory=lambda: _empty(0, 5))
    tries: np.ndarray = field(default_factory=lambda: _empty(0, 4))

    @classmethod
    def tabulate(cls, home: Sequence[str], away: Sequence[str],
                 home_ground: Sequence[bool], result: Sequence[int],
                 tries: Sequence[int]) -> "OutcomeCounts":
        """The table of a list of matches, given per match its sides, its
        home-ground flag, its RESULT_ORDER cell and its TRY_ORDER cell; a
        try cell of -1 keeps the match out of the try counts."""
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
        tries = np.asarray(tries, dtype=np.intp)
        counted = tries >= 0
        return cls(
            teams, keys // 2 // len(teams), keys // 2 % len(teams),
            keys % 2 == 0,
            np.bincount(row * 5 + np.asarray(result, dtype=np.intp),
                        minlength=n * 5).reshape(n, 5),
            np.bincount(row[counted] * 4 + tries[counted],
                        minlength=n * 4).reshape(n, 4))

    @property
    def pairs(self) -> Mapping[PairKey, PairCounts]:
        """Read-only ``{(home, away, venue): PairCounts}`` over the rows."""
        return _PairView(self)

    def total_matches(self) -> int:
        return int(self.result.sum())

    def validate(self):
        """Raise for the first bad row: self-play, a negative count, or
        more try outcomes than matches, checked in that order."""
        self_play = self.home == self.away
        negative = (self.result < 0).any(axis=1) | (self.tries < 0).any(axis=1)
        excess = self.tries.sum(axis=1) > self.result.sum(axis=1)
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


class _PairView(abc.Mapping):
    """``OutcomeCounts.pairs``: its length is the row count, and its
    lookups are built on first use, over read-only views of the rows."""

    def __init__(self, counts: OutcomeCounts):
        self._counts = counts
        self._pairs: dict[PairKey, PairCounts] | None = None

    def __len__(self) -> int:
        return len(self._counts.home)

    def _lookup(self) -> dict[PairKey, PairCounts]:
        if self._pairs is None:
            c = self._counts
            result, tries = c.result.view(), c.tries.view()
            result.flags.writeable = tries.flags.writeable = False
            self._pairs = {
                (c.teams[h], c.teams[a],
                 Venue.HOME_GROUND if on_ground else Venue.NEUTRAL):
                    PairCounts(r, t)
                for h, a, on_ground, r, t in zip(
                    c.home.tolist(), c.away.tolist(),
                    c.home_ground.tolist(), result, tries)}
        return self._pairs

    def __getitem__(self, key: PairKey) -> PairCounts:
        return self._lookup()[key]

    def __iter__(self) -> Iterator[PairKey]:
        return iter(self._lookup())


def outcome_counts(matches: Iterable[MatchRecord],
                   points: PointsSystem = DEFAULT_POINTS) -> OutcomeCounts:
    """Tally classified outcomes for match records or ``MatchColumns``.

    One array pass classifies every match as ``classify_match`` does:
    a declared result takes its override cell and stays out of the try
    counts.
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


@dataclass(frozen=True)
class SuffStats:
    """Totals that, with the match counts, fully determine the likelihood.

    points      league points per team, bonuses included
    narrow      number of matches decided by a narrow margin
    draws       number of drawn matches
    both_bonus  matches where both sides took the try bonus
    zero_bonus  matches where neither side did
    home_edge   home minus away league points, non-neutral matches only
    """

    points: Mapping[str, int]
    narrow: int
    draws: int
    both_bonus: int
    zero_bonus: int
    home_edge: int


def sufficient_stats_from_counts(counts: OutcomeCounts,
                                 points: PointsSystem = DEFAULT_POINTS
                                 ) -> SuffStats:
    """Aggregate an outcome table into the model's sufficient statistics."""
    counts.validate()
    records = team_records(counts, points)
    result, tries = counts.result.sum(axis=0), counts.tries.sum(axis=0)
    res_home, res_away = result_points_arrays(points)
    try_home, try_away = try_points_arrays()
    on_ground = counts.home_ground
    edge = (counts.result[on_ground].sum(axis=0) @ (res_home - res_away)
            + counts.tries[on_ground].sum(axis=0) @ (try_home - try_away))
    return SuffStats(
        points={team: record.league_points
                for team, record in records.items()},
        narrow=int(result[1] + result[3]),
        draws=int(result[2]),
        both_bonus=int(tries[0]),
        zero_bonus=int(tries[3]),
        home_edge=int(round(edge)),
    )


def sufficient_stats(matches: Iterable[MatchRecord],
                     points: PointsSystem = DEFAULT_POINTS) -> SuffStats:
    """Sufficient statistics straight from match records."""
    return sufficient_stats_from_counts(outcome_counts(matches, points), points)
