"""Regenerate the golden season fixture under tests/data.

Run from the repository root after an intentional behaviour change:

    python3 tests/data/generate_golden.py

The season is one draw from the outcome model at fixed structural values
over an eight-team schedule (a full round robin plus two rematches),
rendered back into plausible score lines. The seed below was chosen so
that a zero-prior fit converges and the season contains every outcome
class with no undefeated or winless team.
"""

from __future__ import annotations

import csv
import datetime
import io
import pathlib

import numpy as np

from scrumrank.domain import (
    ResultOutcome,
    TryOutcome,
    Venue,
    outcome_counts,
)
from scrumrank.model import Parameters
from scrumrank.estimate import FitConfig, NonConvergenceError, PriorConfig, fit
from scrumrank.ingest import EXPECTED_HEADER, parse_csv, clean
from scrumrank.simulate import Fixture, fixture_rng, sample_match

TEAMS = ("Ashwood", "Barrow Hall", "Carrick", "Dunmore",
         "Eastgate", "Ferndale", "Granton", "Harborne")
# Spread strengths over [1/2, 2] in a fixed non-alphabetical order so the
# fitted ranking is not trivially the team-name ordering.
_ORDER = (3, 0, 6, 1, 7, 4, 2, 5)
STRENGTHS = {
    TEAMS[_ORDER[pos]]: float(level)
    for pos, level in enumerate(np.exp(np.linspace(np.log(0.5), np.log(2), 8)))
}
TRUTH = Parameters(strengths=STRENGTHS, rho_n=0.448, rho_d=0.212,
                   tau_b=0.042, tau_z=2.801, kappa=1.113)

WIDE_MARGIN = 12
NARROW_MARGIN = 5
TRY_LINES = {
    TryOutcome.BOTH_BONUS: (4, 4),
    TryOutcome.HOME_BONUS: (4, 2),
    TryOutcome.AWAY_BONUS: (2, 4),
    TryOutcome.ZERO_BONUS: (3, 2),
}
MARGINS = {
    ResultOutcome.HOME_WIDE: WIDE_MARGIN,
    ResultOutcome.HOME_NARROW: NARROW_MARGIN,
    ResultOutcome.DRAW: 0,
    ResultOutcome.AWAY_NARROW: -NARROW_MARGIN,
    ResultOutcome.AWAY_WIDE: -WIDE_MARGIN,
}
NEUTRAL_INDICES = {10, 20}


def season_fixtures() -> list[Fixture]:
    fixtures = []
    for i in range(len(TEAMS)):
        for j in range(i + 1, len(TEAMS)):
            home, away = (TEAMS[i], TEAMS[j]) if (i + j) % 2 == 0 \
                else (TEAMS[j], TEAMS[i])
            fixtures.append(Fixture(home, away))
    fixtures.append(Fixture(fixtures[0].away_team, fixtures[0].home_team))
    fixtures.append(Fixture(fixtures[1].away_team, fixtures[1].home_team))
    return [
        Fixture(f.home_team, f.away_team,
                Venue.NEUTRAL if idx in NEUTRAL_INDICES else Venue.HOME_GROUND)
        for idx, f in enumerate(fixtures)
    ]


def scores_for(result: ResultOutcome,
               tries: TryOutcome) -> tuple[int, int, int, int]:
    home_tries, away_tries = TRY_LINES[tries]
    base_home, base_away = 5 * home_tries, 5 * away_tries
    margin = MARGINS[result]
    shortfall = margin - (base_home - base_away)
    home_score = base_home + max(0, shortfall)
    away_score = base_away + max(0, -shortfall)
    return home_score, away_score, home_tries, away_tries


def synthesize(seed: int) -> list[list[str]]:
    rows = []
    start = datetime.date(2024, 9, 7)
    for index, fixture in enumerate(season_fixtures()):
        rng = fixture_rng(seed, 0, index)
        result, tries = sample_match(TRUTH, fixture, rng)
        home_score, away_score, home_tries, away_tries = scores_for(result,
                                                                    tries)
        if index % 2 == 0:
            declared = {0: "Draw"}.get(
                home_score - away_score,
                "Won" if home_score > away_score else "Loss")
        else:
            declared = ""
        rows.append([
            (start + datetime.timedelta(days=2 * index)).isoformat(),
            fixture.home_team, fixture.away_team,
            str(home_score), str(away_score), str(home_tries),
            str(away_tries), fixture.venue.value, declared,
        ])
    return rows


def acceptable(rows: list[list[str]]) -> bool:
    text = render(rows)
    result = clean(parse_csv(text))
    if result.rejected or result.actions:
        return False
    records = result.records
    wins = {team: 0 for team in TEAMS}
    losses = {team: 0 for team in TEAMS}
    for record in records:
        if record.home_score > record.away_score:
            wins[record.home_team] += 1
            losses[record.away_team] += 1
        elif record.home_score < record.away_score:
            wins[record.away_team] += 1
            losses[record.home_team] += 1
    counts = outcome_counts(records)
    # every result and try outcome class occurs somewhere in the season
    if (counts.result.sum(axis=0) == 0).any() \
            or (counts.tries.sum(axis=0) == 0).any():
        return False
    if any(wins[t] == 0 or losses[t] == 0 for t in TEAMS):
        return False
    try:
        fit(counts, FitConfig(prior=PriorConfig(weight=0.0)))
    except NonConvergenceError:
        return False
    return True


def render(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EXPECTED_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def main() -> None:
    for seed in range(500):
        rows = synthesize(seed)
        if acceptable(rows):
            break
    else:
        raise SystemExit("no seed under 500 met the season constraints")
    out = pathlib.Path(__file__).with_name("golden_season.csv")
    out.write_text(render(rows))
    print(f"seed {seed}: wrote {out} ({len(rows)} matches)")


if __name__ == "__main__":
    main()
