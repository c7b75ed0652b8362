import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

from scrumrank.cli import VARIANTS
from scrumrank.domain import (
    RESULT_INDEX,
    RESULT_ORDER,
    TRY_INDEX,
    TRY_ORDER,
    OutcomeCounts,
    ResultOutcome,
    TryOutcome,
    Venue,
)
from scrumrank.estimate import FitConfig, PriorConfig
import scrumrank.simulate as simulate
from scrumrank.model import Parameters, outcome_distribution
from scrumrank.simulate import (
    Fixture,
    ReplicateResult,
    RecoveryStudy,
    _fixture_uniforms,
    _merge_ties,
    double_round_robin,
    fixture_rng,
    parse_fixtures_csv,
    recovery_study,
    sample_match,
    simulate_season,
    spearman,
)

DATA = pathlib.Path(__file__).parent / "data"

REFERENCE_MEANS = dict(rho_n=0.448, rho_d=0.212, tau_b=0.042, tau_z=2.801)


def _params(strengths, kappa=1.113):
    return Parameters(strengths=strengths, kappa=kappa, **REFERENCE_MEANS)


def test_fixture_rejects_self_play():
    with pytest.raises(ValueError):
        Fixture("A", "A")


def test_parse_fixtures_csv_reads_both_venues():
    text = "home_team,away_team,venue\nA,B,Home\nC,D,Neutral\n"
    assert parse_fixtures_csv(text) == [Fixture("A", "B"),
                                        Fixture("C", "D", Venue.NEUTRAL)]


def test_parse_fixtures_blank_venue_means_home():
    fixtures = parse_fixtures_csv("home_team,away_team,venue\nA,B,\n")
    assert fixtures == [Fixture("A", "B", Venue.HOME_GROUND)]


def test_parse_fixtures_errors():
    with pytest.raises(ValueError, match="header"):
        parse_fixtures_csv("home,away,venue\nA,B,\n")
    with pytest.raises(ValueError, match="empty"):
        parse_fixtures_csv("")
    with pytest.raises(ValueError, match="3 cells"):
        parse_fixtures_csv("home_team,away_team,venue\nA,B\n")
    with pytest.raises(ValueError, match="venue"):
        parse_fixtures_csv("home_team,away_team,venue\nA,B,Mars\n")


def test_double_round_robin_covers_every_ordered_pair():
    teams = ["A", "B", "C", "D"]
    fixtures = double_round_robin(teams)
    assert len(fixtures) == 12
    pairs = {(f.home_team, f.away_team) for f in fixtures}
    assert len(pairs) == 12
    assert all(f.venue is Venue.HOME_GROUND for f in fixtures)
    assert ("A", "B") in pairs and ("B", "A") in pairs
    with pytest.raises(ValueError):
        double_round_robin(["A", "B", "A"])


def test_fixture_rng_streams_are_reproducible_and_distinct():
    first = fixture_rng(42, 3, 7).random(4)
    again = fixture_rng(42, 3, 7).random(4)
    assert np.array_equal(first, again)
    other_fixture = fixture_rng(42, 3, 8).random(4)
    other_replicate = fixture_rng(42, 4, 7).random(4)
    other_seed = fixture_rng(43, 3, 7).random(4)
    assert not np.array_equal(first, other_fixture)
    assert not np.array_equal(first, other_replicate)
    assert not np.array_equal(first, other_seed)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3,
                                  123456789012345678901234567890])
@pytest.mark.parametrize("replicate", [0, 19, 2**32 + 1])
def test_season_kernel_reproduces_fixture_streams_bit_for_bit(seed,
                                                              replicate):
    # seeds and replicates of 2**32 or more span several SeedSequence words
    expected = np.array([fixture_rng(seed, replicate, index).random(2)
                         for index in range(500)]).T
    got = _fixture_uniforms(seed, replicate, 500)
    assert got.shape == (2, 500)
    assert (got == expected).all()


def test_season_kernel_rejects_negative_seed_or_replicate():
    for seed, replicate in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed, spawn_key=(replicate, 0))
        with pytest.raises(ValueError):
            _fixture_uniforms(seed, replicate, 3)


def test_sample_match_consumes_exactly_two_uniforms():
    params = _params({"A": 1.4, "B": 0.8})
    rng = fixture_rng(5, 0, 0)
    shadow = fixture_rng(5, 0, 0)
    sample_match(params, Fixture("A", "B"), rng)
    shadow.random(2)
    assert np.array_equal(rng.random(8), shadow.random(8))


def test_sample_match_matches_model_frequencies():
    params = _params({"A": 1.6, "B": 0.7})
    fixture = Fixture("A", "B")
    dist = outcome_distribution(params, "A", "B")
    n = 20000
    result_hits = np.zeros(5)
    try_hits = np.zeros(4)
    for index in range(n):
        result, tries = sample_match(params, fixture,
                                     fixture_rng(99, 0, index))
        result_hits[RESULT_INDEX[result]] += 1
        try_hits[TRY_INDEX[tries]] += 1
    # binomial noise at n=20000 keeps every cell within ~0.012 of truth
    assert np.max(np.abs(result_hits / n - dist.result)) < 0.015
    assert np.max(np.abs(try_hits / n - dist.tries)) < 0.015


def test_sample_match_is_a_cdf_inversion():
    # a tiny uniform lands in the first cell, one near 1 in the last
    params = _params({"A": 1.0, "B": 1.0})
    dist = outcome_distribution(params, "A", "B")

    class Scripted:
        def __init__(self, values):
            self.values = list(values)

        def random(self, k):
            out = np.array(self.values[:k])
            del self.values[:k]
            return out

    result, tries = sample_match(params, Fixture("A", "B"),
                                 Scripted([1e-12, 1 - 1e-12]))
    assert result is RESULT_ORDER[0]
    assert tries is TRY_ORDER[-1]
    edge = dist.result[0] + 1e-12
    result, _ = sample_match(params, Fixture("A", "B"),
                             Scripted([edge, 0.5]))
    assert result is RESULT_ORDER[1]


def test_simulate_season_tabulates_every_fixture():
    params = _params({"A": 1.2, "B": 1.0, "C": 0.8})
    fixtures = double_round_robin(["A", "B", "C"])
    counts = simulate_season(params, fixtures, seed=7)
    assert counts.result.sum() == len(fixtures)
    assert counts.teams == ["A", "B", "C"]
    counts.validate()
    # every pair's result and try counts cover the same matches
    assert np.array_equal(counts.result.sum(axis=1),
                          counts.tries.sum(axis=1))


def _counts_equal(left, right):
    # the rows are sorted, so equal pairs sit in equal rows
    return left.teams == right.teams and all(
        np.array_equal(getattr(left, name), getattr(right, name))
        for name in ("home", "away", "home_ground", "result", "tries"))


def test_simulate_season_is_deterministic_per_replicate():
    params = _params({"A": 1.2, "B": 0.9})
    fixtures = [Fixture("A", "B"), Fixture("B", "A")] * 10
    first = simulate_season(params, fixtures, seed=3, replicate=1)
    again = simulate_season(params, fixtures, seed=3, replicate=1)
    assert _counts_equal(first, again)
    other = simulate_season(params, fixtures, seed=3, replicate=2)
    assert not _counts_equal(first, other)


def test_simulate_season_extension_preserves_earlier_fixtures():
    # counter-based streams: appending fixtures must not disturb the
    # outcomes already drawn for the existing ones
    params = _params({"A": 1.2, "B": 0.9, "C": 1.0})
    fixtures = double_round_robin(["A", "B", "C"])
    short = fixtures[:3]
    per_fixture_short = [
        sample_match(params, f, fixture_rng(11, 0, i))
        for i, f in enumerate(short)
    ]
    per_fixture_full = [
        sample_match(params, f, fixture_rng(11, 0, i))
        for i, f in enumerate(fixtures)
    ]
    assert per_fixture_full[:3] == per_fixture_short


def test_simulate_season_equals_per_fixture_sample_match_draws():
    # the season is one vectorized model call, but each fixture must be
    # drawn from its own stream exactly as sample_match draws it
    rng = np.random.default_rng(2024)
    teams = ["A", "B", "C", "D"]

    def draw(scale):
        return {t: float(np.exp(rng.normal(0, scale))) for t in teams}

    # one parameter set carrying every variant's tables and levels
    params = Parameters(
        strengths=draw(0.7), kappa=1.113, **REFERENCE_MEANS,
        tau=0.3, delta=draw(0.5), home_strengths=draw(0.7),
        away_strengths=draw(0.7))
    fixtures = [Fixture(f.home_team, f.away_team,
                        Venue.NEUTRAL if k % 3 == 0 else Venue.HOME_GROUND)
                for k, f in enumerate(double_round_robin(teams) * 3)]
    for name, variant in VARIANTS.items():
        counts = simulate_season(params, fixtures, seed=17, replicate=2,
                                 variant=variant)
        draws = [sample_match(params, fixture, fixture_rng(17, 2, index),
                              variant)
                 for index, fixture in enumerate(fixtures)]
        tally = OutcomeCounts.tabulate(
            [f.home_team for f in fixtures], [f.away_team for f in fixtures],
            [f.venue is Venue.HOME_GROUND for f in fixtures],
            [RESULT_INDEX[result] for result, _ in draws],
            [TRY_INDEX[tries] for _, tries in draws])
        assert _counts_equal(counts, tally), name


@pytest.mark.parametrize("seed", [0, 17, 2**32 + 5])
def test_stacked_seasons_equal_each_replicates_season(seed):
    # one model call and one tally serve every replicate, and each
    # replicate's table must be the one its own season gives
    rng = np.random.default_rng(seed % 1000)
    teams = ["A", "B", "C", "D", "E"]

    def draw(scale):
        return {t: float(np.exp(rng.normal(0, scale))) for t in teams}

    params = Parameters(
        strengths=draw(0.7), kappa=1.113, **REFERENCE_MEANS,
        tau=0.3, delta=draw(0.5), home_strengths=draw(0.7),
        away_strengths=draw(0.7))
    fixtures = [Fixture(f.home_team, f.away_team,
                        Venue.NEUTRAL if k % 4 == 1 else Venue.HOME_GROUND)
                for k, f in enumerate(double_round_robin(teams) * 2)]
    # replicates of one and of two 32-bit words
    replicates = [0, 3, 2**32 + 1, 1, 2**33]
    for name, variant in VARIANTS.items():
        stack = simulate_season(params, fixtures, seed, replicates, variant)
        stack.validate()
        assert stack.result.shape[0] == stack.tries.shape[0] == 5
        for k, replicate in enumerate(replicates):
            alone = simulate_season(params, fixtures, seed, replicate,
                                    variant)
            assert stack.teams == alone.teams
            for column in ("home", "away", "home_ground"):
                assert np.array_equal(getattr(stack, column),
                                      getattr(alone, column))
            assert np.array_equal(stack.result[k], alone.result), name
            assert np.array_equal(stack.tries[k], alone.tries), name


def test_golden_season_regenerates_byte_for_byte():
    path = DATA / "generate_golden.py"
    spec = importlib.util.spec_from_file_location("generate_golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    # seed 8 is the first seed the generator's constraints accept
    rendered = golden.render(golden.synthesize(8)).encode("utf-8")
    assert rendered == (DATA / "golden_season.csv").read_bytes()


def test_strong_team_mostly_wins_wide():
    params = _params({"Goliath": 3.0, "Pebble": 1 / 3})
    counts = simulate_season(
        params, [Fixture("Goliath", "Pebble")] * 400, seed=21)
    (row,) = np.flatnonzero(
        (counts.home == counts.teams.index("Goliath"))
        & (counts.away == counts.teams.index("Pebble")) & counts.home_ground)
    assert counts.result[row, RESULT_INDEX[ResultOutcome.HOME_WIDE]] > 300


def test_recovery_study_smoke():
    rng = np.random.default_rng(1)
    strengths = {f"T{k}": float(np.exp(rng.normal(0, 0.4)))
                 for k in range(6)}
    truth = _params(strengths)
    fixtures = double_round_robin(sorted(strengths))
    study = recovery_study(truth, fixtures, replicates=3, seed=13,
                           fit_config=FitConfig(
                               prior=PriorConfig(weight=1.0)))
    summary = study.summary()
    assert summary.replicates == 3
    assert summary.converged >= 1
    assert set(summary.truth) == {"rho_n", "rho_d", "tau_b", "tau_z",
                                  "kappa"}
    assert set(summary.median_estimates) == set(summary.truth)
    assert summary.median_spearman is not None
    assert -1.0 <= summary.median_spearman <= 1.0
    # rare outcomes carry almost no signal in 30 matches, so only the
    # parameters every match informs get a sanity window here
    for name in ("kappa", "tau_z", "rho_n", "rho_d"):
        value = summary.median_estimates[name]
        assert 0.1 * summary.truth[name] < value < 10 * summary.truth[name]
    assert summary.median_estimates["tau_b"] >= 0.0


def test_merge_ties_joins_runs_within_the_width_only():
    values = np.array([0.3, 0.1, 0.3 + 1e-12, 0.2, 0.1 - 6e-7, 0.1 + 6e-7])
    merged = _merge_ties(values, 1e-6)
    # neighbours 6e-7 apart chain into one run wider than the width, which
    # takes its smallest value
    assert merged.tolist() == [0.3, 0.1 - 6e-7, 0.3, 0.2, 0.1 - 6e-7,
                               0.1 - 6e-7]
    assert _merge_ties(values, 0.0).tolist() == values.tolist()


def test_recovery_spearman_ranks_near_equal_estimates_as_ties(monkeypatch):
    truth = _params({"A": 1.0, "B": 0.9, "C": 2.0})
    # A and B differ by fit noise only: without ties A would rank above B
    estimate = _params({"A": 1.0 * (1 + 1e-12), "B": 1.0, "C": 2.0})
    monkeypatch.setattr(simulate, "fit_replicates",
                        lambda counts, config: [estimate])
    study = recovery_study(truth, double_round_robin(["A", "B", "C"]),
                           replicates=1, seed=3)
    (result,) = study.results
    assert result.strength_spearman == spearman([1.0, 0.9, 2.0],
                                                [1.0, 1.0, 2.0])
    assert result.strength_spearman != spearman([1.0, 0.9, 2.0],
                                                [1.0 + 1e-12, 1.0, 2.0])


def test_recovery_study_requires_a_replicate():
    truth = _params({"A": 1.0, "B": 1.0})
    with pytest.raises(ValueError):
        recovery_study(truth, [Fixture("A", "B")], replicates=0, seed=1)


def test_recovery_csv_layout_and_failed_rows():
    truth = _params({"A": 1.0, "B": 1.0})
    failed = ReplicateResult(replicate=0, converged=False, estimates=None,
                             strength_spearman=None, degenerate_spread=False)
    study = RecoveryStudy(truth=truth, variant=FitConfig().variant,
                          results=(failed,))
    lines = study.to_csv().strip().split("\n")
    assert lines[0] == "replicate,parameter,truth,estimate,converged"
    assert len(lines) == 1 + 5 + 1  # five structural rows plus spearman
    assert all(line.endswith(",0") for line in lines[1:])
    assert lines[1].split(",")[3] == ""  # no estimate recorded


def test_spearman_matches_scipy_on_ties_and_constants():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(17)
    cases = [([1.0, 2.0], [2.0, 1.0]), ([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]),
             ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])]
    for n in (3, 5, 10, 40):
        for _ in range(25):
            a = rng.integers(0, 4, n).astype(float)  # heavy ties
            b = np.round(rng.normal(0.0, 1.0, n), 1)
            cases.append((a, b))
    for a, b in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SciPy warns on constants
            expected = float(stats.spearmanr(a, b).statistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spearman(a, b)
        if np.isnan(expected):
            assert np.isnan(got)
        else:
            assert abs(got - expected) <= 1e-12


def test_recovery_scores_every_strength_table(monkeypatch):
    teams = ["A", "B", "C", "D"]
    home = dict(zip(teams, [0.5, 0.8, 1.2, 2.0]))

    def team_specific(away):
        return Parameters(strengths=home, kappa=1.0, **REFERENCE_MEANS,
                          home_strengths=home,
                          away_strengths=dict(zip(teams, away)))

    truth = team_specific([0.6, 0.9, 1.1, 1.7])

    def scored(estimate):
        monkeypatch.setattr(simulate, "fit_replicates",
                            lambda counts, config: [estimate])
        (result,) = recovery_study(
            truth, double_round_robin(teams), replicates=1, seed=3,
            fit_config=FitConfig(variant=VARIANTS["team-specific"])).results
        return result

    assert scored(truth).strength_spearman == 1.0
    # the home table alone still orders every team perfectly
    reversed_away = scored(team_specific([1.7, 1.1, 0.9, 0.6]))
    assert reversed_away.strength_spearman == -1.0
    assert not reversed_away.degenerate_spread
    tied_away = scored(team_specific([1.0] * 4))
    assert tied_away.degenerate_spread
    assert tied_away.strength_spearman is None
