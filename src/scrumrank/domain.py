"""Match outcomes, league points and the totals that drive the rating model.

A completed fixture is reduced to a pair of categorical outcomes: a five-way
result (who won, and whether the margin was within the losing-bonus range)
and a four-way try outcome (which sides reached the try-bonus threshold).
League points are a function of that pair alone, so a season collapses to
outcome counts per ordered (home, away, venue) triple plus a handful of
totals, and those totals are exactly what the likelihood in
:mod:`scrumrank.estimate` consumes. ``OutcomeCounts.columns`` is the one
array view of that table and ``team_records`` the one per-team tally.

Everything here is a pure function of immutable values; no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence

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
        """Inverse of ``to_dict``; absent keys keep their defaults."""
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


@dataclass
class PairCounts:
    """Outcome frequencies for one ordered (home, away, venue) triple.

    ``result.sum()`` and ``tries.sum()`` can differ: override records enter
    the result counts only.
    """

    result: np.ndarray = field(default_factory=lambda: np.zeros(5, dtype=int))
    tries: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=int))

    def validate(self):
        if (self.result < 0).any() or (self.tries < 0).any():
            raise ValueError("outcome counts must be non-negative")
        if self.result.shape != (5,) or self.tries.shape != (4,):
            raise ValueError("malformed count vectors")


PairKey = tuple[str, str, Venue]


@dataclass(frozen=True)
class PairColumns:
    """An outcome table as parallel per-pair arrays: ``home`` and ``away``
    index each pair's sides into ``teams``, ``home_ground`` is False at a
    neutral ground, and ``result`` and ``tries`` are the outcome counts,
    pairs x 5 and pairs x 4."""

    teams: list[str]
    home: np.ndarray
    away: np.ndarray
    home_ground: np.ndarray
    result: np.ndarray
    tries: np.ndarray


@dataclass
class OutcomeCounts:
    """Season-level outcome frequency table keyed by (home, away, venue)."""

    pairs: dict[PairKey, PairCounts] = field(default_factory=dict)

    def add(self, home: str, away: str, venue: Venue,
            result: ResultOutcome, tries: TryOutcome | None):
        """Record one match; ``tries=None`` keeps it out of try counts."""
        if home == away:
            raise ValueError(f"a team cannot play itself: {home!r}")
        pc = self.pairs.setdefault((home, away, venue), PairCounts())
        pc.result[RESULT_INDEX[result]] += 1
        if tries is not None:
            pc.tries[TRY_INDEX[tries]] += 1

    def teams(self) -> list[str]:
        names: set[str] = set()
        for home, away, _ in self.pairs:
            names.add(home)
            names.add(away)
        return sorted(names)

    def total_matches(self) -> int:
        return sum(int(pc.result.sum()) for pc in self.pairs.values())

    def columns(self, teams: Sequence[str]) -> PairColumns:
        """The pairs as parallel arrays, sorted by home team, away team and
        venue value, with both sides indexed into ``teams``.

        A team missing from ``teams`` raises KeyError; the first one found,
        reading each pair's home side before its away side, is named.
        """
        index = {team: k for k, team in enumerate(teams)}
        items = sorted(self.pairs.items(), key=lambda kv: (
            kv[0][0], kv[0][1], kv[0][2].value))
        n = len(items)
        sides = [(index[home], index[away]) for (home, away, _), _ in items]
        home, away = np.array(sides, dtype=int).reshape(n, 2).T.copy()
        return PairColumns(
            list(teams), home, away,
            np.array([venue is Venue.HOME_GROUND
                      for (_, _, venue), _ in items], dtype=bool),
            np.array([pc.result for _, pc in items]).reshape(n, 5),
            np.array([pc.tries for _, pc in items]).reshape(n, 4))

    def validate(self):
        """Raise for the first bad pair in insertion order.

        Self-play and malformed vectors are found pair by pair; the count
        checks run on the stacked vectors of the pairs before the first
        such pair.
        """
        keys, counts = list(self.pairs), list(self.pairs.values())
        first = next((k for k, ((home, away, _), pc)
                      in enumerate(self.pairs.items())
                      if home == away or pc.result.shape != (5,)
                      or pc.tries.shape != (4,)), len(keys))
        result = np.array([pc.result for pc in counts[:first]]).reshape(-1, 5)
        tries = np.array([pc.tries for pc in counts[:first]]).reshape(-1, 4)
        bad = np.flatnonzero((result < 0).any(axis=1) | (tries < 0).any(axis=1)
                             | (tries.sum(axis=1) > result.sum(axis=1)))
        index = int(bad[0]) if bad.size else first
        if index == len(keys):
            return
        home, away, _ = keys[index]
        if home == away:
            raise ValueError(f"a team cannot play itself: {home!r}")
        counts[index].validate()
        raise ValueError(
            f"pair {home!r} vs {away!r}: more try outcomes than matches")


def outcome_counts(matches: Iterable[MatchRecord],
                   points: PointsSystem = DEFAULT_POINTS) -> OutcomeCounts:
    """Tally classified outcomes for a collection of match records."""
    counts = OutcomeCounts()
    for match in matches:
        result, tries = classify_match(match, points)
        if match.result_override is not None:
            tries = None
        counts.add(match.home_team, match.away_team, match.venue, result, tries)
    return counts


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


def team_records(view: PairColumns,
                 points: PointsSystem = DEFAULT_POINTS
                 ) -> dict[str, TeamRecord]:
    """Every team's playing record over an outcome table's columns, in the
    order of ``view.teams``.

    Declared results enter the result counts only, so each counts as a
    narrow win that takes no try bonus.
    """
    r, t = view.result, view.tries
    res_home, res_away = result_points_arrays(points)
    try_home, try_away = try_points_arrays()
    played, drawn = r.sum(axis=1), r[:, 2]
    home_won, away_won = r[:, :2].sum(axis=1), r[:, 3:].sum(axis=1)
    # per pair and side: played, won, drawn, lost, try bonuses, losing
    # bonuses and league points
    sides = ((view.home, [played, home_won, drawn, away_won, t @ try_home,
                          r[:, 3], r @ res_home + t @ try_home]),
             (view.away, [played, away_won, drawn, home_won, t @ try_away,
                          r[:, 1], r @ res_away + t @ try_away]))
    m, k = len(view.teams), len(sides[0][1])
    tally = np.zeros(m * k)
    for team, columns in sides:
        slots = team[:, None] * k + np.arange(k)
        tally += np.bincount(slots.ravel(), np.stack(columns, axis=1).ravel(),
                             m * k)
    rows = np.rint(tally).astype(int).reshape(m, k).tolist()
    return {team: TeamRecord(team, *row)
            for team, row in zip(view.teams, rows)}


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
    view = counts.columns(counts.teams())
    records = team_records(view, points)
    result, tries = view.result.sum(axis=0), view.tries.sum(axis=0)
    res_home, res_away = result_points_arrays(points)
    try_home, try_away = try_points_arrays()
    on_ground = view.home_ground
    edge = (view.result[on_ground].sum(axis=0) @ (res_home - res_away)
            + view.tries[on_ground].sum(axis=0) @ (try_home - try_away))
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
