"""Season simulation and parameter-recovery studies.

Fixtures are sampled from the model's two outcome distributions with a
counter-based generator keyed by (seed, replicate, fixture index), so any
single fixture can be regenerated without replaying the season and adding
replicates never disturbs earlier ones. Each fixture consumes exactly two
uniform draws: one picks the result cell, one the try cell, both by
inverting the categorical CDF.

The recovery study closes the loop: simulate seasons at known parameters,
refit each one, and report how well the structural parameters and the
strength ordering come back.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (
    DEFAULT_POINTS,
    OutcomeCounts,
    PointsSystem,
    RESULT_ORDER,
    TRY_ORDER,
    ResultOutcome,
    TryOutcome,
    Venue,
)
from .estimate import (
    FitConfig,
    NonConvergenceError,
    _structural_names,
    fit,
)
from .model import (
    DEFAULT_VARIANT,
    HomeModel,
    Parameters,
    VariantConfig,
    normalize_parameters,
    outcome_distribution,
)


@dataclass(frozen=True)
class Fixture:
    home_team: str
    away_team: str
    venue: Venue = Venue.HOME_GROUND

    def __post_init__(self):
        if self.home_team == self.away_team:
            raise ValueError(f"a team cannot play itself: {self.home_team!r}")


FIXTURES_HEADER = ("home_team", "away_team", "venue")


def parse_fixtures_csv(text: str) -> list[Fixture]:
    """Read a fixture list: home_team,away_team,venue (venue blank = Home)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(cell.strip() for cell in next(reader))
    except StopIteration:
        raise ValueError("empty fixtures file: no header row") from None
    if header != FIXTURES_HEADER:
        raise ValueError(f"bad fixtures header {','.join(header)!r}; "
                         f"expected {','.join(FIXTURES_HEADER)}")
    fixtures = []
    for index, cells in enumerate(reader, start=1):
        if len(cells) != 3:
            raise ValueError(f"fixtures row {index}: expected 3 cells, "
                             f"found {len(cells)}")
        home, away, venue = (cell.strip() for cell in cells)
        if venue in ("", "Home"):
            where = Venue.HOME_GROUND
        elif venue == "Neutral":
            where = Venue.NEUTRAL
        else:
            raise ValueError(f"fixtures row {index}: unrecognized venue "
                             f"{venue!r}")
        fixtures.append(Fixture(home, away, where))
    return fixtures


def write_fixtures_csv(fixtures: Iterable[Fixture]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIXTURES_HEADER)
    for fixture in fixtures:
        writer.writerow([fixture.home_team, fixture.away_team,
                         fixture.venue.value])
    return buf.getvalue()


def double_round_robin(teams: Sequence[str]) -> list[Fixture]:
    """Every ordered pair once: one home and one away leg per pair."""
    if len(set(teams)) != len(teams):
        raise ValueError("duplicate team names in the fixture list")
    return [Fixture(home, away)
            for home in teams for away in teams if home != away]


def mirror_fixtures(fixtures: Iterable[Fixture]) -> list[Fixture]:
    """The same fixtures with home and away swapped."""
    return [Fixture(f.away_team, f.home_team, f.venue) for f in fixtures]


def fixture_rng(seed: int, replicate: int,
                fixture_index: int) -> np.random.Generator:
    """Independent stream for one fixture of one replicate."""
    seq = np.random.SeedSequence(seed, spawn_key=(replicate, fixture_index))
    return np.random.Generator(np.random.Philox(seq))


def _sample_cell(probs: np.ndarray, u: float) -> int:
    cdf = np.cumsum(probs)
    return min(int(np.searchsorted(cdf, u, side="right")), len(probs) - 1)


def _draw(result_probs: np.ndarray, try_probs: np.ndarray,
          rng: np.random.Generator) -> tuple[ResultOutcome, TryOutcome]:
    u_result, u_tries = rng.random(2)
    return (RESULT_ORDER[_sample_cell(result_probs, u_result)],
            TRY_ORDER[_sample_cell(try_probs, u_tries)])


def sample_match(params: Parameters, fixture: Fixture,
                 rng: np.random.Generator,
                 variant: VariantConfig = DEFAULT_VARIANT,
                 points: PointsSystem = DEFAULT_POINTS
                 ) -> tuple[ResultOutcome, TryOutcome]:
    """Draw one match outcome; consumes exactly two uniforms."""
    dist = outcome_distribution(params, fixture.home_team, fixture.away_team,
                                variant=variant, venue=fixture.venue,
                                points=points)
    return _draw(dist.result, dist.tries, rng)


def simulate_season(params: Parameters, fixtures: Sequence[Fixture],
                    seed: int, replicate: int = 0,
                    variant: VariantConfig = DEFAULT_VARIANT,
                    points: PointsSystem = DEFAULT_POINTS) -> OutcomeCounts:
    """Sample every fixture once and tabulate the outcomes.

    The probabilities of the whole season come from one model call; each
    fixture is then drawn from its own stream exactly as ``sample_match``
    draws it.
    """
    dist = outcome_distribution(params, [f.home_team for f in fixtures],
                                [f.away_team for f in fixtures], variant,
                                [f.venue for f in fixtures], points)
    counts = OutcomeCounts()
    for index, fixture in enumerate(fixtures):
        result, tries = _draw(dist.result[:, index], dist.tries[:, index],
                              fixture_rng(seed, replicate, index))
        counts.add(fixture.home_team, fixture.away_team, fixture.venue,
                   result, tries)
    return counts


def _structural_values(params: Parameters,
                       variant: VariantConfig) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in _structural_names(variant):
        if name == "tau":
            values[name] = params.extras.tau
        else:
            values[name] = getattr(params, name)
    return values


def _strength_map(params: Parameters,
                  variant: VariantConfig) -> Mapping[str, float]:
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        return params.extras.home_strengths
    return params.strengths


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    NaN when either input is constant, where the correlation is undefined.
    """
    ra = _average_ranks(np.asarray(a, dtype=float))
    rb = _average_ranks(np.asarray(b, dtype=float))
    ra -= ra.mean()
    rb -= rb.mean()
    scale = math.sqrt(float(ra @ ra) * float(rb @ rb))
    if scale == 0.0:
        return math.nan
    return max(-1.0, min(1.0, float(ra @ rb) / scale))


@dataclass(frozen=True)
class ReplicateResult:
    replicate: int
    converged: bool
    estimates: Mapping[str, float] | None
    strength_spearman: float | None
    degenerate_spread: bool  # all estimated strengths tied, no ordering


@dataclass(frozen=True)
class RecoverySummary:
    replicates: int
    converged: int
    truth: Mapping[str, float]
    median_estimates: Mapping[str, float]
    median_spearman: float | None


@dataclass(frozen=True)
class RecoveryStudy:
    truth: Parameters
    variant: VariantConfig
    results: tuple[ReplicateResult, ...]

    def summary(self) -> RecoverySummary:
        truth_values = _structural_values(self.truth, self.variant)
        converged = [r for r in self.results if r.converged]
        medians = {
            name: statistics.median(r.estimates[name] for r in converged)
            for name in truth_values
        } if converged else {}
        spearmans = [r.strength_spearman for r in converged
                     if r.strength_spearman is not None]
        return RecoverySummary(
            replicates=len(self.results),
            converged=len(converged),
            truth=truth_values,
            median_estimates=medians,
            median_spearman=(statistics.median(spearmans)
                             if spearmans else None),
        )

    def to_csv(self) -> str:
        truth_values = _structural_values(self.truth, self.variant)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replicate", "parameter", "truth", "estimate",
                         "converged"])
        for result in self.results:
            for name, true_value in truth_values.items():
                estimate = ""
                if result.estimates is not None:
                    estimate = repr(result.estimates[name])
                writer.writerow([result.replicate, name, repr(true_value),
                                 estimate, int(result.converged)])
            writer.writerow([result.replicate, "strength_spearman", "",
                             "" if result.strength_spearman is None
                             else repr(result.strength_spearman),
                             int(result.converged)])
        return buf.getvalue()


def recovery_study(truth: Parameters, fixtures: Sequence[Fixture],
                   replicates: int, seed: int,
                   fit_config: FitConfig = FitConfig()) -> RecoveryStudy:
    """Simulate-and-refit: how well do estimates find the truth again?

    The truth is gauge-normalized first so its structural parameters live
    in the same convention the fitted estimates are reported in.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    variant = fit_config.variant
    truth = normalize_parameters(truth, variant)
    truth_strengths = _strength_map(truth, variant)
    # only teams that actually play get estimates, so the recovery is
    # scored over the fixture list's team set
    teams = sorted({team for f in fixtures
                    for team in (f.home_team, f.away_team)})
    missing = [team for team in teams if team not in truth_strengths]
    if missing:
        raise ValueError(f"fixtures mention {missing[0]!r}, which has no "
                         "strength in the truth parameters")
    truth_order = np.array([truth_strengths[t] for t in teams])
    results: list[ReplicateResult] = []
    for replicate in range(replicates):
        counts = simulate_season(truth, fixtures, seed, replicate,
                                 variant, fit_config.points_system)
        try:
            fitted = fit(counts, fit_config)
        except NonConvergenceError:
            results.append(ReplicateResult(replicate, False, None, None,
                                           False))
            continue
        estimates = _structural_values(fitted.parameters, variant)
        est_strengths = _strength_map(fitted.parameters, variant)
        est_order = np.array([est_strengths[t] for t in teams])
        rho = spearman(truth_order, est_order)
        degenerate = math.isnan(rho)  # one side's strengths all tied
        results.append(ReplicateResult(replicate, True, estimates,
                                       None if degenerate else rho,
                                       degenerate))
    return RecoveryStudy(truth=truth, variant=variant, results=tuple(results))
