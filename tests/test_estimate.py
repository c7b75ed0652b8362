import dataclasses
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from scrumrank.domain import (
    DEFAULT_POINTS,
    OutcomeCounts,
    Venue,
    outcome_counts,
    team_records,
)
import scrumrank.estimate as estimate
from scrumrank.estimate import (
    FitConfig,
    FittedModel,
    NonConvergenceError,
    PriorConfig,
    Score,
    _log_normalizer,
    _Problem,
    fit,
    fit_replicates,
    log_likelihood,
    minimize,
    score,
)
from scrumrank.ingest import load_matches
from scrumrank.model import (
    DEFAULT_VARIANT,
    GAUGE_POWER,
    HomeModel,
    ParameterError,
    Parameters,
    TeamLogs,
    TryModel,
    VariantConfig,
    generalized_mean,
    outcome_distribution,
    parameter_layout,
)
from scrumrank.simulate import Fixture, double_round_robin, simulate_season

DATA = pathlib.Path(__file__).parent / "data"

ALL_VARIANTS = (
    DEFAULT_VARIANT,
    VariantConfig(try_model=TryModel.OPPOSITION_INDEPENDENT),
    VariantConfig(try_model=TryModel.OFFENSIVE_DEFENSIVE),
    VariantConfig(home_model=HomeModel.TEAM_SPECIFIC),
)

# every home-model and try-model pair VariantConfig accepts
ACCEPTED_VARIANTS = tuple(
    VariantConfig(try_model=t, home_model=h)
    for h in HomeModel for t in TryModel
    if h is not HomeModel.TEAM_SPECIFIC or t is TryModel.OPPOSITION_DEPENDENT
)


def _golden_counts() -> OutcomeCounts:
    return outcome_counts(load_matches(DATA / "golden_season.csv").records)


def _random_params(rng, teams, variant):
    def draw():
        return float(np.exp(rng.normal(0, 0.6)))

    extras = {}
    if variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
        extras = dict(tau=draw())
    elif variant.try_model is TryModel.OFFENSIVE_DEFENSIVE:
        extras = dict(delta={t: draw() for t in teams})
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        extras = dict(home_strengths={t: draw() for t in teams},
                      away_strengths={t: draw() for t in teams})
    return Parameters(
        strengths={t: draw() for t in teams},
        rho_n=draw(), rho_d=draw(), tau_b=draw(), tau_z=draw(),
        kappa=draw(), **extras,
    )


def _random_counts(rng, teams) -> OutcomeCounts:
    matches = []  # (home, away, home ground, result cell, try cell)
    n_matches = int(rng.integers(6, 14))
    for _ in range(n_matches):
        i, j = rng.choice(len(teams), size=2, replace=False)
        on_ground = rng.random() < 0.8
        result = int(rng.integers(0, 5))
        tries = int(rng.integers(0, 4))
        matches.append((teams[i], teams[j], on_ground, result, tries))
    return OutcomeCounts.tabulate(*zip(*matches))


def _max_norm(s: Score) -> float:
    """The largest absolute residual of a score, over every populated
    field."""
    parts = []
    for f in dataclasses.fields(s):
        value = getattr(s, f.name)
        if isinstance(value, dict):
            parts.extend(abs(v) for v in value.values())
        elif value is not None:
            parts.append(abs(value))
    return max(parts, default=0.0)


def _bump(params: Parameters, variant: VariantConfig, group: str,
          key: str | None, h: float) -> Parameters:
    """Multiply one parameter by exp(h), returning a new Parameters."""
    value = getattr(params, group)
    if key is None:
        return dataclasses.replace(params, **{group: value * math.exp(h)})
    table = dict(value)
    table[key] *= math.exp(h)
    return dataclasses.replace(params, **{group: table})


def _gradient_entries(params: Parameters, variant: VariantConfig, teams):
    entries = [(name, None) for name in
               ("rho_n", "rho_d", "tau_b", "tau_z", "kappa")]
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        entries += [("home_strengths", t) for t in teams]
        entries += [("away_strengths", t) for t in teams]
    else:
        entries += [("strengths", t) for t in teams]
    if variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
        entries.append(("tau", None))
    if variant.try_model is TryModel.OFFENSIVE_DEFENSIVE:
        entries += [("delta", t) for t in teams]
    return entries


def _score_entry(s, group, key):
    value = getattr(s, group)
    if key is not None:
        value = value[key]
    return value


def check_gradient(params, counts, variant, weight, h=1e-5,
                   rtol=1e-6, atol=1e-9):
    prior = PriorConfig(weight=weight)
    teams = counts.teams
    s = score(params, counts, prior=prior, variant=variant)
    for group, key in _gradient_entries(params, variant, teams):
        analytic = _score_entry(s, group, key)
        if analytic is None:
            continue  # not part of this variant
        up = log_likelihood(_bump(params, variant, group, key, h),
                            counts, prior=prior, variant=variant)
        down = log_likelihood(_bump(params, variant, group, key, -h),
                              counts, prior=prior, variant=variant)
        numeric = (up - down) / (2 * h)
        assert abs(analytic - numeric) <= atol + rtol * abs(numeric), \
            f"{group}[{key}]: analytic {analytic} vs numeric {numeric}"


def test_score_matches_finite_differences_each_variant():
    rng = np.random.default_rng(2024)
    teams = ("A", "B", "C", "D")
    for trial, variant in enumerate(ALL_VARIANTS * 3):
        params = _random_params(rng, teams, variant)
        counts = _random_counts(rng, teams)
        weight = (0.0, 0.7, 1.9)[trial % 3]
        check_gradient(params, counts, variant, weight)


def test_score_vanishes_at_the_fitted_maximum():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=0.0)))
    s = score(model.raw_parameters, counts)
    assert _max_norm(s) <= 1e-6


def test_fit_reproduces_every_teams_points_total():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=0.0)))
    report = model.report
    for team, observed in report.observed_points.items():
        expected = report.expected_points[team]
        assert abs(observed - expected) / max(1.0, observed) <= 1e-6


@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("freeze", [None, {"rho_d": 0.212}],
                         ids=["free", "rho_d"])
def test_points_totals_include_the_prior_matches(variant, weight, freeze):
    counts = _golden_counts()
    model = fit(counts, FitConfig(variant=variant,
                                  prior=PriorConfig(weight=weight),
                                  freeze=freeze))
    # observed totals carry the notional prior point per side of each
    # strength table, and are exact: integers plus w per table
    prior_points = weight * len(parameter_layout(variant).strength_tables)
    records = team_records(counts)
    assert list(model.report.observed_points) == counts.teams
    for team, observed in model.report.observed_points.items():
        assert observed == records[team].league_points + prior_points
        assert abs(observed - model.report.expected_points[team]) <= 1e-6


def test_converged_fit_builds_no_team_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a converged fit built team records")

    monkeypatch.setattr(estimate, "team_records", refuse)
    for weight in (0.0, 1.0):
        fit(_golden_counts(), FitConfig(prior=PriorConfig(weight=weight)))
    monkeypatch.undo()
    # a failed fit still diagnoses itself from the teams' records
    counts = OutcomeCounts.tabulate(["Winner"], ["Loser"], [True], [0], [1])
    fixed = {"rho_n": 0.448, "rho_d": 0.212, "tau_b": 0.042,
             "tau_z": 2.801, "kappa": 1.113}
    with pytest.raises(NonConvergenceError) as err:
        fit(counts, FitConfig(prior=PriorConfig(weight=0.0), freeze=fixed))
    assert "'Winner' is undefeated" in err.value.diagnosis
    assert "'Loser' is winless" in err.value.diagnosis


def test_fitted_strengths_have_unit_generalized_mean():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    for weight in (0.0, 1.0, 4.0):
        model = fit(counts, FitConfig(prior=PriorConfig(weight=weight)))
        assert abs(generalized_mean(model.parameters.strengths) - 1.0) < 1e-10


def test_raw_and_normalized_parameters_agree_on_probabilities():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=1.0)))
    teams = counts.teams
    for home, away in ((teams[0], teams[1]), (teams[2], teams[5])):
        raw = outcome_distribution(model.raw_parameters, home, away)
        normalized = outcome_distribution(model.parameters, home, away)
        assert np.allclose(raw.result, normalized.result, atol=1e-12)
        assert np.allclose(raw.tries, normalized.tries, atol=1e-12)


def test_zero_prior_pins_then_normalizes():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=0.0)))
    first_team = counts.teams[0]
    assert model.raw_parameters.strengths[first_team] == 1.0
    assert abs(generalized_mean(model.parameters.strengths) - 1.0) < 1e-10


def test_fit_is_deterministic():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    config = FitConfig(prior=PriorConfig(weight=1.0))
    assert fit(counts, config).to_json() == fit(counts, config).to_json()


def test_single_decisive_match_diverges_without_prior():
    # with the structural block frozen, a lone maximum-points win pushes
    # the winner's strength to infinity unless the prior anchors it
    counts = OutcomeCounts.tabulate(["Winner"], ["Loser"], [True], [0], [1])
    fixed = {"rho_n": 0.448, "rho_d": 0.212, "tau_b": 0.042,
             "tau_z": 2.801, "kappa": 1.113}
    with pytest.raises(NonConvergenceError) as err:
        fit(counts, FitConfig(prior=PriorConfig(weight=0.0), freeze=fixed))
    assert "'Winner' is undefeated" in err.value.diagnosis
    assert "'Loser' is winless" in err.value.diagnosis
    assert "prior" in err.value.diagnosis
    assert err.value.best_parameters is not None
    assert err.value.gradient_norm >= 0.0
    # the same data fits fine once the prior anchors the scale
    model = fit(counts, FitConfig(prior=PriorConfig(weight=1.0),
                                  freeze=fixed))
    assert model.parameters.strengths["Winner"] \
        > model.parameters.strengths["Loser"]


def test_iteration_budget_failure_reports_diagnostics(monkeypatch):
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    monkeypatch.setattr(estimate, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError) as err:
        fit(counts, FitConfig(prior=PriorConfig(weight=1.0)))
    assert err.value.iterations <= 1


def test_frozen_fit_holds_structural_values():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    fixed = {"rho_n": 0.448, "rho_d": 0.212, "tau_b": 0.042,
             "tau_z": 2.801, "kappa": 1.113}
    model = fit(counts, FitConfig(prior=PriorConfig(weight=1.0),
                                  freeze=fixed))
    raw = model.raw_parameters
    for name, value in fixed.items():
        assert getattr(raw, name) == value
    # strengths still reach their own optimum given the frozen block
    s = score(raw, counts, prior=PriorConfig(weight=1.0))
    assert max(abs(v) for v in s.strengths.values()) <= 1e-6


@pytest.mark.parametrize("try_model", [TryModel.OPPOSITION_INDEPENDENT,
                                       TryModel.OFFENSIVE_DEFENSIVE])
@pytest.mark.parametrize("weight", [0.0, 1.0])
def test_fit_leaves_levels_outside_the_variant_at_one(try_model, weight):
    model = fit(_golden_counts(), FitConfig(
        variant=VariantConfig(try_model=try_model),
        prior=PriorConfig(weight=weight)))
    for params in (model.parameters, model.raw_parameters):
        assert params.tau_b == params.tau_z == 1.0
        doc = params.to_dict()
        assert doc["log"]["tau_b"] == doc["log"]["tau_z"] == 0.0


@pytest.mark.parametrize("variant, freeze", [
    *((variant, None) for variant in ALL_VARIANTS),
    (DEFAULT_VARIANT, "rho_d"),
], ids=lambda v: v if isinstance(v, str) or v is None
    else f"{v.home_model.value}/{v.try_model.value}")
def test_pack_and_x_to_parameters_round_trip(variant, freeze):
    teams = ["A", "B", "C"]
    params = _random_params(np.random.default_rng(53), teams, variant)
    frozen = None if freeze is None else {freeze: getattr(params, freeze)}
    # a table in which every team plays
    counts = OutcomeCounts.tabulate(["A", "B"], ["B", "C"], [True, False],
                                    [0, 2], [3, 1])
    assert counts.teams == teams
    problem = _Problem.from_counts(counts, variant, 0.0, DEFAULT_POINTS,
                                   freeze=frozen)
    again = problem.x_to_parameters(problem.pack(params))
    layout = parameter_layout(variant)
    for name in layout.tables:
        assert getattr(again, name).keys() == getattr(params, name).keys()
        for team, value in getattr(params, name).items():
            assert math.isclose(getattr(again, name)[team], value,
                                rel_tol=1e-15, abs_tol=0)
    for name in layout.structural:
        assert math.isclose(getattr(again, name), getattr(params, name),
                            rel_tol=1e-15, abs_tol=0)


def test_freeze_rejects_unknown_or_invalid_names():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    with pytest.raises(ParameterError):
        fit(counts, FitConfig(freeze={"gamma": 1.0}))
    with pytest.raises(ParameterError):
        fit(counts, FitConfig(freeze={"rho_n": -1.0}))
    # a frozen value must be a real number, and a bool is not one
    for bad in ("abc", None, True, math.inf):
        with pytest.raises(ParameterError, match="frozen rho_n"):
            fit(counts, FitConfig(freeze={"rho_n": bad}))


def test_fit_requires_two_teams():
    with pytest.raises(ParameterError):
        fit(OutcomeCounts.tabulate([], [], [], [], []))


def test_prior_config_validation():
    with pytest.raises(ParameterError):
        PriorConfig(weight=-0.5)


def test_fitted_model_json_refuses_another_reference_strength():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    doc = json.loads(fit(counts, FitConfig(prior=PriorConfig(weight=1.0)))
                     .to_json())
    doc["prior"]["dummy_strength"] = 2.0
    with pytest.raises(ParameterError):
        FittedModel.from_json(json.dumps(doc))


def test_fitted_model_json_round_trip():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=1.0)))
    text = model.to_json()
    again = FittedModel.from_json(text)
    assert again.to_json() == text
    assert again.parameters.strengths == model.parameters.strengths
    assert again.variant == model.variant
    doc = json.loads(text)
    assert set(doc) == {"variant", "prior", "points_system", "parameters",
                        "raw_parameters", "convergence"}


def test_log_likelihood_is_maximal_at_the_fit():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    config = FitConfig(prior=PriorConfig(weight=1.0))
    model = fit(counts, config)
    best = log_likelihood(model.raw_parameters, counts, prior=config.prior)
    rng = np.random.default_rng(5)
    teams = counts.teams
    for _ in range(5):
        team = teams[int(rng.integers(len(teams)))]
        worse = _bump(model.raw_parameters, DEFAULT_VARIANT, "strengths",
                      team, float(rng.normal(0, 0.3)))
        assert log_likelihood(worse, counts, prior=config.prior) < best


def test_variant_fits_converge_on_the_golden_season():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    for variant in ACCEPTED_VARIANTS:
        model = fit(counts, FitConfig(variant=variant,
                                      prior=PriorConfig(weight=1.0)))
        assert model.report.iterations <= 15  # Newton steps
        assert model.report.final_gradient_norm <= 1e-8
        s = score(model.raw_parameters, counts,
                  prior=PriorConfig(weight=1.0), variant=variant)
        assert _max_norm(s) <= 1e-6


def test_parameter_fields_are_the_layout_names():
    names = {f.name for f in dataclasses.fields(Parameters)}
    assert names == set(GAUGE_POWER)
    assert names == {f.name for f in dataclasses.fields(Score)}
    for variant in ALL_VARIANTS:
        layout = parameter_layout(variant)
        assert set(layout.tables + layout.structural) <= names


@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
def test_fitted_parameters_survive_their_json_form(variant):
    model = fit(_golden_counts(), FitConfig(variant=variant,
                                            prior=PriorConfig(weight=1.0)))
    layout = parameter_layout(variant)
    sets_extras = bool({"tau", "delta", "home_strengths", "away_strengths"}
                       & set(layout.tables + layout.structural))
    for params in (model.parameters, model.raw_parameters):
        doc = json.loads(json.dumps(params.to_dict()))
        again = Parameters.from_dict(doc)
        assert again == params
        assert again.to_dict() == doc
        assert ("extras" in doc) == sets_extras


def test_log_normalizer_matches_scipy_logsumexp():
    rng = np.random.default_rng(11)
    blocks = [rng.normal(0, 3, size=(rows, k))
              for rows in (5, 4) for k in (1, 3, 17)]
    blocks.append(np.array([[700.0, -700.0, 699.5, -np.inf],
                            [699.0, -701.0, -700.0, -np.inf],
                            [-700.0, -699.0, 700.0, -np.inf]]))
    for lw in blocks:
        got = _log_normalizer(lw)
        assert not np.isnan(got).any()
        np.testing.assert_allclose(got, logsumexp(lw, axis=0),
                                   rtol=0, atol=1e-14)
    assert _log_normalizer(blocks[-1])[-1] == -np.inf
    assert _log_normalizer(np.zeros((5, 0))).shape == (0,)


def _dense_hessian(problem: _Problem, x: np.ndarray,
                   probs=None) -> np.ndarray:
    """The exact Hessian as a dense matrix in x's order, under ``probs``
    or, without them, under a fresh evaluation at ``x``: the factor's
    panels laid out in elimination order, whose upper triangle is mirrored
    below the diagonal and negated."""
    if probs is None:
        probs = problem.evaluate(x)[2]
    plan = problem._hessian_plan()
    buffer = problem.factor(x, probs).buffer
    n = problem.n_free
    ordered = np.zeros((n, n))
    tops = np.append(plan.bounds[2:], n)  # where each block's reach ends
    for (at, rows, width), lo, top in zip(plan.panels, plan.bounds, tops):
        columns = np.arange(lo, n) if top == n \
            else np.r_[lo:top, plan.border:n]
        ordered[lo:lo + rows, columns] = \
            buffer[at:at + rows * width].reshape(rows, width)
    upper = np.triu(ordered)
    hess = np.empty((n, n))
    hess[np.ix_(plan.order, plan.order)] = -(upper + np.triu(upper, 1).T)
    return hess


def _hessian_by_central_differences(problem: _Problem, x: np.ndarray,
                                    h: float = 1e-5) -> np.ndarray:
    columns = []
    for k in range(len(x)):
        bump = np.zeros(len(x))
        bump[k] = h
        columns.append((problem.evaluate(x + bump)[1]
                        - problem.evaluate(x - bump)[1]) / (2 * h))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", [
    (0.0, None, True),
    (1.0, None, False),
    # a frozen rho_n fixes the strength scale, so nothing is pinned
    (0.0, {"rho_n": 0.448}, False),
])
def test_hessian_matches_central_differences(variant, weight, freeze,
                                             pin_first):
    counts = _golden_counts()  # two of its fixtures are at neutral venues
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    x = np.random.default_rng(31).normal(0.0, 0.5, problem.n_free)
    analytic = _dense_hessian(problem, x)
    numeric = _hessian_by_central_differences(problem, x)
    assert analytic.shape == (problem.n_free, problem.n_free)
    np.testing.assert_allclose(analytic, analytic.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)
    # concave: the negated Hessian is positive definite
    np.linalg.cholesky(-analytic)


@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", [
    (0.0, None, True),
    (1.0, None, False),
    (0.0, {"rho_n": 0.448}, False),
])
def test_hessian_from_evaluated_probabilities_equals_a_fresh_one(
        variant, weight, freeze, pin_first):
    counts = _golden_counts()

    def problem():
        return _Problem.from_counts(counts, variant, weight,
                                    DEFAULT_POINTS, freeze=freeze,
                                    pin_first=pin_first)

    reused = problem()
    x1, x2 = np.random.default_rng(37).normal(0.0, 0.5, (2, reused.n_free))
    _, _, probs = reused.evaluate(x1)
    at_x1 = _dense_hessian(problem(), x1)
    assert np.array_equal(_dense_hessian(reused, x1, probs), at_x1)
    assert np.array_equal(_dense_hessian(reused, x1), at_x1)
    # an evaluation at one point leaves nothing behind for another
    reused.evaluate(x1)
    at_x2 = _dense_hessian(reused, x2)
    assert np.array_equal(at_x2, _dense_hessian(problem(), x2))
    assert not np.array_equal(at_x2, at_x1)


@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", [
    (0.0, None, True),
    (1.0, None, False),
    (0.0, {"rho_n": 0.448}, False),
])
def test_value_equals_the_evaluated_log_likelihood(variant, weight, freeze,
                                                   pin_first):
    counts = _golden_counts()
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    x = np.random.default_rng(41).normal(0.0, 0.5, problem.n_free)
    assert problem._likelihood(x)[0] == problem.evaluate(x)[0]


@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight", [0.0, 1.0])
def test_expected_points_are_the_played_pairs_expected_points(variant,
                                                              weight):
    counts = _golden_counts()
    model = fit(counts, FitConfig(variant=variant,
                                  prior=PriorConfig(weight=weight)))
    raw = model.raw_parameters
    home_exp, away_exp = outcome_distribution(
        raw, [counts.teams[i] for i in counts.home],
        [counts.teams[j] for j in counts.away], variant,
        [Venue.HOME_GROUND if at_home else Venue.NEUTRAL
         for at_home in counts.home_ground]).expected_points()
    matches = counts.result.sum(axis=1)
    m = len(counts.teams)
    expected = (np.bincount(counts.home, matches * home_exp, m)
                + np.bincount(counts.away, matches * away_exp, m))
    # each strength table's two notional prior matches against strength 1
    for name in parameter_layout(variant).strength_tables:
        strengths = np.array([getattr(raw, name)[t] for t in counts.teams])
        expected += 2.0 * weight * strengths / (1.0 + strengths)
    reported = np.array([model.report.expected_points[t]
                         for t in counts.teams])
    np.testing.assert_allclose(reported, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("variant", ALL_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
def test_fit_runs_the_kernel_only_for_evaluations(monkeypatch, variant):
    kernel_calls = []
    kernel = TeamLogs.log_weights

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(args[1])
        return kernel(*args, **kwargs)

    results = []
    solver = estimate.minimize

    def counting_solver(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(TeamLogs, "log_weights", counting_kernel)
    monkeypatch.setattr(estimate, "minimize", counting_solver)
    fit(_golden_counts(), FitConfig(variant=variant,
                                    prior=PriorConfig(weight=1.0)))
    (result,) = results
    assert result.nit >= 2
    # one kernel pass per block for each likelihood-and-gradient
    # evaluation; every Hessian and the closing points totals reuse the
    # probabilities of the evaluation at their iterate
    assert len(kernel_calls) == 2 * result.nfev


@pytest.mark.parametrize("dropped", [(0,), (0, 1), (-1,), (1, -1)])
def test_problem_names_the_first_team_missing_from_the_list(dropped):
    counts = _golden_counts()
    teams = counts.teams
    gone = {teams[k] for k in dropped}
    # the parameters lack these teams; the first in the table's order is named
    first = next(team for team in teams if team in gone)
    params = _random_params(np.random.default_rng(7),
                            [t for t in teams if t not in gone],
                            DEFAULT_VARIANT)
    for call in (score, log_likelihood):
        with pytest.raises(ParameterError,
                           match=re.escape(f"counts mention {first!r}")):
            call(params, counts, PriorConfig(weight=1.0))


def test_teams_the_table_never_plays_are_ignored():
    counts = _golden_counts()
    prior = PriorConfig(weight=1.0)
    params = _random_params(np.random.default_rng(11), counts.teams,
                            DEFAULT_VARIANT)
    wider = dataclasses.replace(
        params, strengths={**params.strengths, "Idle": 2.5})
    assert log_likelihood(wider, counts, prior) \
        == log_likelihood(params, counts, prior)
    assert score(wider, counts, prior) == score(params, counts, prior)


def _stack_of_seasons(teams: int, fixture_repeats: int, replicates: int
                      ) -> OutcomeCounts:
    """A stack of double round robin seasons at seed 1."""
    names = [f"S{k:02d}" for k in range(teams)]
    rng = np.random.default_rng(1)
    truth = Parameters(
        strengths={t: float(np.exp(rng.normal(0, 0.6))) for t in names},
        rho_n=0.448, rho_d=0.212, tau_b=0.042, tau_z=2.801, kappa=1.113)
    return simulate_season(truth, double_round_robin(names) * fixture_repeats,
                           seed=1, replicate=range(replicates))


def _with_special_seasons(counts: OutcomeCounts) -> OutcomeCounts:
    """The stack with two more seasons: one where the first team wins every
    match wide, always alone with a try bonus, and one without try
    outcomes, whose try propensities are unidentified, so its Hessian has
    a singular block."""
    result = np.concatenate([counts.result, counts.result[:2]])
    tries = np.concatenate([counts.tries, counts.tries[:2]])
    for side, result_cell, try_cell in ((counts.home, 0, 1),
                                        (counts.away, 4, 2)):
        won = side == 0
        played = result[-2, won].sum(axis=1)
        result[-2, won] = tries[-2, won] = 0
        result[-2, won, result_cell] = tries[-2, won, try_cell] = played
    tries[-1] = 0
    return dataclasses.replace(counts, result=result, tries=tries)


def _season(counts: OutcomeCounts, replicate: int) -> OutcomeCounts:
    return dataclasses.replace(counts, result=counts.result[replicate],
                               tries=counts.tries[replicate])


@pytest.mark.parametrize("stack, weight, maxiter", [
    # 20 teams, prior weight 1: replicate 6 takes 23 steps, the rest 6-8
    (lambda: _with_special_seasons(_stack_of_seasons(20, 1, 20)), 1.0, 500),
    # 8 teams, no prior: the seasons at a structural boundary take 22
    # steps, and the undefeated team's season runs its strengths away;
    # with a budget of 21 steps those fail
    (lambda: _with_special_seasons(_stack_of_seasons(8, 2, 6)), 0.0, 21),
], ids=["prior-1", "no-prior"])
def test_replicate_ascents_match_solo_ascents(stack, weight, maxiter):
    counts = stack()

    def problem(table):
        return _Problem.from_counts(table, DEFAULT_VARIANT,
                                    weight, DEFAULT_POINTS,
                                    pin_first=weight == 0.0)

    stacked = problem(counts)
    results = []
    for replicate in range(len(counts.result)):
        one = stacked.replicate(replicate)
        assert one._hessian_plan() is stacked._hessian_plan()
        got = minimize(one, np.zeros(one.n_free), 1e-8, maxiter)
        solo = problem(_season(counts, replicate))
        want = minimize(solo, np.zeros(solo.n_free), 1e-8, maxiter)
        assert np.array_equal(got.x, want.x), replicate
        assert (got.value, got.grad_inf, got.nit, got.nfev, got.converged,
                got.message) == (want.value, want.grad_inf, want.nit,
                                 want.nfev, want.converged, want.message)
        results.append(got)
    messages = [r.message for r in results]
    # the season without try outcomes stops at its singular block alone
    assert messages[-1] == "singular Hessian"
    assert messages.count("singular Hessian") == 1
    steps = [r.nit for r in results]
    assert min(steps) <= 8 and max(steps) >= 20
    assert any(r.converged for r in results if r.nit >= 20) == (weight > 0.0)
    assert not results[-2].converged or weight > 0.0


def test_fit_replicates_equals_each_fit():
    counts = _with_special_seasons(_stack_of_seasons(8, 2, 4))
    config = FitConfig(prior=PriorConfig(weight=0.0))
    estimates = fit_replicates(counts, config)
    assert len(estimates) == len(counts.result)
    for replicate, estimate in enumerate(estimates):
        try:
            want = fit(_season(counts, replicate), config).parameters
        except NonConvergenceError:
            want = None
        assert estimate == want, replicate
    # the undefeated team's strengths run away, and the singular season
    # stops: both are failed fits
    assert estimates[-2] is None and estimates[-1] is None
    assert all(estimate is not None for estimate in estimates[:-2])


def test_fit_calls_the_newton_solver_once(monkeypatch):
    calls = []
    solver = estimate.minimize

    def counting(*args, **kwargs):
        result = solver(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(estimate, "minimize", counting)
    model = fit(_golden_counts(), FitConfig(prior=PriorConfig(weight=1.0)))
    assert len(calls) == 1
    result = calls[0]
    assert isinstance(result.nit, int) and isinstance(result.nfev, int)
    assert result.nit == model.report.iterations
    assert result.nfev >= result.nit + 1
    assert result.value == model.report.log_likelihood


def _raise_linalg_error(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("solve, reason", [
    (_raise_linalg_error, "singular Hessian"),
    (lambda a, b: np.full_like(b, np.nan), "no finite ascent direction"),
    (lambda a, b: -b, "no finite ascent direction"),
])
def test_failed_newton_direction_is_a_nonconvergence(monkeypatch, solve,
                                                     reason):
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(NonConvergenceError) as err:
        fit(_golden_counts(), FitConfig(prior=PriorConfig(weight=1.0)))
    assert reason in str(err.value)
    assert err.value.diagnosis in str(err.value)
    assert err.value.iterations == 0
    assert err.value.best_parameters is not None


def test_exhausted_step_halvings_are_a_nonconvergence(monkeypatch):
    evaluate = _Problem.evaluate
    seen = []

    def worse_after_the_start(problem, x):
        value, grad, probs = evaluate(problem, x)
        seen.append(x)
        if len(seen) == 1:
            return value, grad, probs
        return -np.inf, np.full_like(grad, np.inf), probs

    monkeypatch.setattr(_Problem, "evaluate", worse_after_the_start)
    with pytest.raises(NonConvergenceError) as err:
        fit(_golden_counts(), FitConfig(prior=PriorConfig(weight=1.0)))
    assert "step halvings" in str(err.value)
    assert err.value.iterations == 1
    assert err.value.best_parameters.strengths == {
        team: 1.0 for team in _golden_counts().teams}


@pytest.mark.parametrize("weight", [0.0, 1.0])
def test_season_without_draws_terminates(weight):
    # The draw propensity has no maximum-likelihood estimate here: it runs
    # towards zero. Until such boundary estimates are refused, the fit
    # returns once the gradient tolerance is met with rho_d near zero.
    records = [dataclasses.replace(r, home_score=r.away_score + 1)
               if r.home_score == r.away_score else r
               for r in load_matches(DATA / "golden_season.csv").records]
    model = fit(outcome_counts(records),
                FitConfig(prior=PriorConfig(weight=weight)))
    assert model.report.iterations <= 50
    assert model.report.final_gradient_norm <= 1e-8
    assert model.raw_parameters.rho_d < 1e-6


def test_two_component_schedule_fits_without_prior():
    strengths = {f"T{k}": float(v)
                 for k, v in enumerate(np.exp(np.linspace(-0.8, 0.8, 8)))}
    truth = Parameters(strengths=strengths, kappa=1.113, rho_n=0.448,
                       rho_d=0.212, tau_b=0.042, tau_z=2.801)
    fixtures = (double_round_robin(["T0", "T2", "T4", "T6"])
                + double_round_robin(["T1", "T3", "T5", "T7"])) * 4
    counts = simulate_season(truth, fixtures, seed=1, replicate=0)
    model = fit(counts, FitConfig(prior=PriorConfig(weight=0.0)))
    assert model.report.iterations <= 15
    assert model.report.final_gradient_norm <= 1e-8
    # the earlier BFGS fitter's strengths, at its gradient max-norm 9.3e-9
    reference = [0.5883570956723361, 0.5846909053020902, 0.6573421086655772,
                 0.9376238265607615, 1.2432456040228224, 1.0185895838916845,
                 1.9277485635290232, 1.965849379772358]
    np.testing.assert_allclose(
        [model.parameters.strengths[f"T{k}"] for k in range(8)],
        reference, rtol=1e-8)


# -- the block-elimination Newton direction --

def _ring_counts(variant: VariantConfig, teams: int = 60,
                 offsets=(1, 2, 3, 5)) -> OutcomeCounts:
    """A season on a ring: each team meets the teams ``offsets`` places on,
    once at home and once away, so the schedule graph is long and thin."""
    names = [f"R{k:02d}" for k in range(teams)]
    fixtures = [Fixture(names[p], names[(p + d) % teams])
                for p in range(teams) for d in offsets]
    fixtures += [Fixture(f.away_team, f.home_team) for f in fixtures]
    truth = _random_params(np.random.default_rng(41), names, variant)
    return simulate_season(truth, fixtures, seed=5, variant=variant)


def _two_component_counts(variant: VariantConfig) -> OutcomeCounts:
    """The schedule of test_two_component_schedule_fits_without_prior."""
    names = [f"T{k}" for k in range(8)]
    fixtures = (double_round_robin(names[0::2])
                + double_round_robin(names[1::2])) * 4
    truth = _random_params(np.random.default_rng(43), names, variant)
    return simulate_season(truth, fixtures, seed=1, variant=variant)


SCHEDULES = {"ring": _ring_counts, "two-component": _two_component_counts}

GAUGES = [
    (0.0, None, True),
    (1.0, None, False),
    (0.0, {"rho_n": 0.448}, False),
]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", GAUGES)
def test_block_direction_equals_a_dense_solve(schedule, variant, weight,
                                              freeze, pin_first):
    counts = SCHEDULES[schedule](variant)
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    assert len(problem._hessian_plan().bounds) - 1 >= 2
    x = np.random.default_rng(47).normal(0.0, 0.5, problem.n_free)
    _, g, probs = problem.evaluate(x)
    dense = np.linalg.solve(-_dense_hessian(problem, x, probs), g)
    direction = problem.factor(x, probs).solve(g)
    assert np.abs(direction - dense).max() <= 1e-10 * np.abs(dense).max()


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", GAUGES)
def test_factor_solves_many_right_hand_sides(schedule, variant, weight,
                                             freeze, pin_first):
    counts = SCHEDULES[schedule](variant)
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    assert len(problem._hessian_plan().bounds) - 1 >= 2
    rng = np.random.default_rng(61)
    x = rng.normal(0.0, 0.5, problem.n_free)
    _, _, probs = problem.evaluate(x)
    rhs = rng.normal(0.0, 1.0, (problem.n_free, 4))
    solved = problem.factor(x, probs).solve(rhs)
    assert solved.shape == rhs.shape
    hessian = _dense_hessian(problem, x, probs)
    for k in range(rhs.shape[1]):
        dense = np.linalg.solve(-hessian, rhs[:, k])
        assert np.abs(solved[:, k] - dense).max() \
            <= 1e-10 * np.abs(dense).max()


def _feature_x(problem: _Problem) -> list[list[list[int]]]:
    """Per block and pair, the x index of each feature: -1 is the pinned
    log, n no parameter."""
    return [(features.slots - problem.pinned).T.tolist()
            for features in problem._features()]


def _joined_entries(problem: _Problem) -> set[tuple[int, int]]:
    """Every off-diagonal entry (r, c), r < c, that two features of a block
    join at a pair, by plain loops over the feature tables."""
    entries = set()
    for per_pair in _feature_x(problem):
        for xs in per_pair:
            for a in xs:
                for b in xs:
                    if 0 <= a < b < problem.n_free:
                        entries.add((a, b))
    return entries


def _breadth_first_blocks(entries, n, n_border):
    """Elimination order and bounds by a plain breadth-first search over
    the off-diagonal ``entries`` (r, c): the level sets of each component
    in turn, from its lowest parameter, merged until a block holds
    n_border parameters."""
    n_graph = n - n_border
    neighbours = {v: set() for v in range(n_graph)}
    for r, c in entries:
        if r < n_graph and c < n_graph:
            neighbours[r].add(c)
            neighbours[c].add(r)
    visited, levels = set(), []
    for seed in range(n_graph):
        level = [] if seed in visited else [seed]
        while level:
            visited.update(level)
            levels.append(level)
            level = sorted({c for v in level for c in neighbours[v]}
                           - visited)
    blocks, pending = [], []
    for level in levels:
        pending += level
        if len(pending) >= n_border:
            blocks.append(sorted(pending))
            pending = []
    if pending:
        blocks.append(sorted(pending))
    order = [v for block in blocks for v in block] + list(range(n_graph, n))
    bounds = [0]
    for block in blocks[:-1]:
        bounds.append(bounds[-1] + len(block))
    return order, bounds + [n]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", GAUGES)
def test_elimination_blocks_match_a_plain_breadth_first_search(
        schedule, variant, weight, freeze, pin_first):
    counts = SCHEDULES[schedule](variant)
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    plan = problem._hessian_plan()
    n, n_border = problem.n_free, len(problem.free_structural)
    entries = _joined_entries(problem)
    order, bounds = _breadth_first_blocks(entries, n, n_border)
    assert plan.order.tolist() == order
    assert plan.bounds.tolist() == bounds
    # without a border every level is a block of its own
    edges = np.array([r * n + c for r, c in entries])
    order, bounds = estimate._elimination_blocks(edges, n, 0)
    assert (order.tolist(), bounds.tolist()) \
        == _breadth_first_blocks(entries, n, 0)


def _panel_entries(plan, n: int,
                   places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and column, in elimination order, of each of ``places`` in
    the plan's panels."""
    offsets = np.array([at for at, _, _ in plan.panels])
    block = np.searchsorted(offsets, places, side="right") - 1
    widths = np.array([width for _, _, width in plan.panels])
    row, column = np.divmod(places - offsets[block], widths[block])
    lo = plan.bounds[block]
    top = np.append(plan.bounds[2:], n)[block]  # where the block's reach ends
    col = np.where(lo + column < top, lo + column,
                   plan.border + lo + column - top)
    return lo + row, col


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", GAUGES)
def test_plan_places_are_one_triangle_in_elimination_order(
        schedule, variant, weight, freeze, pin_first):
    counts = SCHEDULES[schedule](variant)
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    plan = problem._hessian_plan()
    n = problem.n_free
    for features, (_, _, targets) in zip(problem._features(), plan.blocks):
        x_index = features.slots - problem.pinned
        fa, fb = np.triu_indices(len(x_index))
        lo = np.minimum(x_index[fa], x_index[fb])
        hi = np.maximum(x_index[fa], x_index[fb])
        targets = targets.reshape(len(fa), -1)
        kept = targets != plan.size
        assert np.array_equal(kept, (lo >= 0) & (hi < n))
        # no unordered pair of entries has two places
        assert len(np.unique(targets[kept])) \
            == len(np.unique(lo[kept] * n + hi[kept]))
        # each entry sits at its upper orientation in elimination order
        row, col = _panel_entries(plan, n, targets[kept])
        assert (row <= col).all()
        assert np.array_equal(
            np.sort([plan.order[row], plan.order[col]], axis=0),
            np.stack([lo[kept], hi[kept]]))
    x = np.random.default_rng(71).normal(0.0, 0.5, n)
    _, _, probs = problem.evaluate(x)
    buffer = problem.factor(x, probs).buffer
    for at, size, width in plan.panels:
        own = buffer[at:at + size * width].reshape(size, width)[:, :size]
        assert np.array_equal(own, own.T)


# the golden season's two neutral fixtures leave log kappa with no
# parameter at their pairs
PLAN_SCHEDULES = {**SCHEDULES, "golden": lambda variant: _golden_counts()}


@pytest.mark.parametrize("schedule", PLAN_SCHEDULES)
@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", GAUGES)
def test_plan_places_match_a_plain_enumeration(schedule, variant, weight,
                                               freeze, pin_first):
    counts = PLAN_SCHEDULES[schedule](variant)
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    plan = problem._hessian_plan()
    n, pinned = problem.n_free, problem.pinned
    border = n - len(problem.free_structural)
    bounds = plan.bounds.tolist()
    rank = {x: r for r, x in enumerate(plan.order.tolist())}
    block_of = [b for b in range(len(bounds) - 1)
                for _ in range(bounds[b], bounds[b + 1])]

    def place(r, c):
        """Where the entry at ranks r <= c sits: in r's panel, at column
        c if c lies in r's block or the next, else at border column c."""
        b = block_of[r]
        at, _, width = plan.panels[b]
        lo, top = bounds[b], bounds[b + 2] if b + 2 < len(bounds) else n
        assert c < top or c >= border
        return at + (r - lo) * width + (c - lo if c < top
                                        else top - lo + c - border)

    blocks = _feature_x(problem)
    assert plan.prior_places.tolist() == [
        place(rank[x], rank[x]) for x in range(problem.n_strength - pinned)]
    for per_pair, (exps, _, targets) in zip(blocks, plan.blocks):
        k = exps.shape[1]
        feature_pairs = [(a, b) for a in range(k) for b in range(a, k)]
        rows = targets.reshape(len(feature_pairs), -1).tolist()
        for (a, b), row in zip(feature_pairs, rows):
            expected = []
            for xs in per_pair:
                if 0 <= min(xs[a], xs[b]) and max(xs[a], xs[b]) < n:
                    r, c = sorted((rank[xs[a]], rank[xs[b]]))
                    expected.append(place(r, c))
                else:
                    expected.append(plan.size)
            assert row == expected
    no_parameter = any(n in xs for per_pair in blocks for xs in per_pair)
    assert no_parameter == (schedule == "golden"
                            and "kappa" in problem.free_structural)


def _offset_ring(teams: int) -> OutcomeCounts:
    """A season on a ring in which each team meets the teams 1, 2, 3, 5, 8
    and 13 places on, once at home and once away."""
    names = [f"R{k:04d}" for k in range(teams)]
    fixtures = [Fixture(names[p], names[(p + d) % teams])
                for d in (1, 2, 3, 5, 8, 13) for p in range(teams)]
    fixtures += [Fixture(f.away_team, f.home_team) for f in fixtures]
    truth = _random_params(np.random.default_rng(67), names, DEFAULT_VARIANT)
    return simulate_season(truth, fixtures, seed=7)


def test_newton_step_memory_grows_with_the_played_pairs():
    # The plan and a direction hold arrays sized by the pairs; an array of
    # n x n entries would make the peak per pair grow fourfold here.
    per_pair = []
    for teams in (500, 2000):
        counts = _offset_ring(teams)
        problem = _Problem.from_counts(counts, DEFAULT_VARIANT,
                                       1.0, DEFAULT_POINTS)
        x = np.zeros(problem.n_free)
        _, g, probs = problem.evaluate(x)
        tracemalloc.start()
        try:
            problem.factor(x, probs).solve(g)  # builds the plan too
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_pair.append(peak / len(counts.home))
    assert per_pair[1] <= 1.5 * per_pair[0]


def test_newton_step_memory_per_played_pair_is_small():
    # The plan holds one entry of each mirrored Hessian pair and places it
    # straight in the factor's panels, one feature pair at a time: about
    # 502 bytes. Numbering the entries as slots first took about 491; the
    # 11 more come from the mirror, which now lists whole square triangles
    # (12,394 entries against 2,669 at sparse-1000). A table of candidate
    # entries took about 590, and both entries of each pair about 1,125.
    counts = _offset_ring(2000)
    problem = _Problem.from_counts(counts, DEFAULT_VARIANT,
                                   1.0, DEFAULT_POINTS)
    x = np.zeros(problem.n_free)
    _, g, probs = problem.evaluate(x)
    tracemalloc.start()
    try:
        problem.factor(x, probs).solve(g)  # builds the plan too
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(counts.home) < 540


def test_a_later_newton_step_allocates_no_covariance_sized_array():
    # The covariances are formed in the plan's scratch. Allocating and
    # freeing them anew at every step makes the allocator return their
    # pages to the system and fault them in again at the next step.
    counts = _offset_ring(500)
    problem = _Problem.from_counts(counts, DEFAULT_VARIANT,
                                   1.0, DEFAULT_POINTS)
    x = np.zeros(problem.n_free)
    _, g, probs = problem.evaluate(x)
    problem.factor(x, probs).solve(g)  # builds the plan
    widest = max(products.shape[1]
                 for _, products, _ in problem._hessian_plan().blocks)
    tracemalloc.start()
    try:
        problem.factor(x, probs).solve(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one covariance-sized array: k(k+1)/2 x pairs
    assert peak < widest * len(counts.home) * 8


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("variant", ACCEPTED_VARIANTS,
                         ids=lambda v: f"{v.home_model.value}/"
                                       f"{v.try_model.value}")
@pytest.mark.parametrize("weight, freeze, pin_first", GAUGES)
def test_block_plan_partitions_and_bounds_the_hessian(schedule, variant,
                                                      weight, freeze,
                                                      pin_first):
    counts = SCHEDULES[schedule](variant)
    problem = _Problem.from_counts(counts, variant, weight,
                                   DEFAULT_POINTS, freeze=freeze,
                                   pin_first=pin_first)
    plan = problem._hessian_plan()
    n = problem.n_free
    border = n - len(problem.free_structural)
    # every free parameter in exactly one block, the border in the last
    assert sorted(plan.order.tolist()) == list(range(n))
    assert plan.bounds[0] == 0 and plan.bounds[-1] == n
    assert (np.diff(plan.bounds) > 0).all()
    assert plan.order[border:].tolist() == list(range(border, n))
    assert plan.bounds[-2] <= border
    # outside the border, no entry couples blocks further than one apart
    x = np.random.default_rng(53).normal(0.0, 0.5, n)
    ordered = _dense_hessian(problem, x)[np.ix_(plan.order, plan.order)]
    block = np.repeat(np.arange(len(plan.bounds) - 1), np.diff(plan.bounds))
    in_border = np.arange(n) >= border
    allowed = (np.abs(block[:, None] - block[None, :]) <= 1) \
        | in_border[:, None] | in_border[None, :]
    assert (ordered[~allowed] == 0.0).all()
    if schedule == "ring":  # enough blocks for the pattern to exclude some
        assert (~allowed).any()


@pytest.mark.parametrize("weight, pin_first", [(0.0, True), (1.0, False)])
@pytest.mark.parametrize("counts", [
    _golden_counts,
    lambda: simulate_season(
        _random_params(np.random.default_rng(59),
                       [f"D{k:02d}" for k in range(20)], DEFAULT_VARIANT),
        double_round_robin([f"D{k:02d}" for k in range(20)]), seed=2),
], ids=["golden", "double-round-robin-20"])
def test_round_robin_plans_one_block_in_x_order(counts, weight, pin_first):
    counts = counts()
    problem = _Problem.from_counts(counts, DEFAULT_VARIANT,
                                   weight, DEFAULT_POINTS,
                                   pin_first=pin_first)
    plan = problem._hessian_plan()
    assert plan.bounds.tolist() == [0, problem.n_free]
    assert plan.order.tolist() == list(range(problem.n_free))


def test_singular_middle_block_is_a_nonconvergence(monkeypatch):
    counts = _ring_counts(DEFAULT_VARIANT)
    problem = _Problem.from_counts(counts, DEFAULT_VARIANT,
                                   1.0, DEFAULT_POINTS)
    assert len(problem._hessian_plan().bounds) - 1 >= 3
    solve = np.linalg.solve
    calls = []

    def singular_second_block(a, b):
        calls.append(a.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_second_block)
    with pytest.raises(NonConvergenceError) as err:
        fit(counts, FitConfig(prior=PriorConfig(weight=1.0)))
    assert len(calls) == 2
    assert "singular Hessian" in str(err.value)
    assert err.value.iterations == 0
