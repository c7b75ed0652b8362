import dataclasses
import json
import math

import numpy as np
import pytest

from scrumrank.cli import VARIANTS
from scrumrank.domain import (
    PointsSystem,
    Venue,
    result_points_arrays,
    try_points_arrays,
)
from scrumrank.model import (
    DEFAULT_VARIANT,
    HomeModel,
    ParameterError,
    Parameters,
    TeamLogs,
    TryModel,
    VariantConfig,
    expected_points,
    gauge_transform,
    generalized_mean,
    interpret_structural,
    normalize_parameters,
    normalize_stack,
    outcome_distribution,
    parameter_layout,
    result_block,
    solve_scale,
    try_block,
)

REFERENCE_MEANS = dict(rho_n=0.448, rho_d=0.212, tau_b=0.042, tau_z=2.801,
                   kappa=1.113)


def _params(strengths, **overrides) -> Parameters:
    values = dict(REFERENCE_MEANS)
    values.update(overrides)
    return Parameters(strengths=strengths, **values)


def _random_params(rng, teams=("A", "B"), variant=DEFAULT_VARIANT):
    strengths = {t: float(np.exp(rng.normal(0, 0.7))) for t in teams}
    extras = {}
    if variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
        extras = dict(tau=float(np.exp(rng.normal(0, 0.5))))
    elif variant.try_model is TryModel.OFFENSIVE_DEFENSIVE:
        extras = dict(
            delta={t: float(np.exp(rng.normal(0, 0.5))) for t in teams})
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        extras = dict(
            home_strengths={t: float(np.exp(rng.normal(0, 0.7)))
                            for t in teams},
            away_strengths={t: float(np.exp(rng.normal(0, 0.7)))
                            for t in teams},
        )
    return Parameters(
        strengths=strengths,
        rho_n=float(np.exp(rng.normal(0, 0.5))),
        rho_d=float(np.exp(rng.normal(0, 0.5))),
        tau_b=float(np.exp(rng.normal(0, 0.5))),
        tau_z=float(np.exp(rng.normal(0, 0.5))),
        kappa=float(np.exp(rng.normal(0, 0.3))),
        **extras,
    )


def _result_log_weights(pi_i, pi_j, params):
    """Kernel log weights of the result block for one home fixture."""
    logs = TeamLogs.of(dataclasses.replace(params,
                                           strengths={"A": pi_i, "B": pi_j}),
                       ["A", "B"])
    return logs.log_weights(result_block(), np.array([0]), np.array([1]),
                            np.array([1.0]))[:, 0]


def test_result_cells_form_a_distribution():
    params = _params({"A": 1.4, "B": 0.8})
    probs = outcome_distribution(params, "A", "B").result
    assert probs.shape == (5,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs > 0).all()


def test_try_cells_form_a_distribution():
    params = _params({"A": 1.4, "B": 0.8})
    probs = outcome_distribution(params, "A", "B").tries
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs > 0).all()


def test_result_cells_match_direct_weight_ratios():
    # unnormalized cell weights written out longhand
    pi_i, pi_j, kappa = 1.3, 0.7, 1.1
    params = _params({"A": pi_i, "B": pi_j}, kappa=kappa)
    rho_n, rho_d = params.rho_n, params.rho_d
    weights = np.array([
        kappa ** 4 * pi_i ** 4,
        rho_n * kappa ** 3 * pi_i ** 4 * pi_j,
        rho_d * pi_i ** 2 * pi_j ** 2,
        rho_n * pi_i * pi_j ** 4 / kappa ** 3,
        pi_j ** 4 / kappa ** 4,
    ])
    expected = weights / weights.sum()
    got = outcome_distribution(params, "A", "B").result
    assert np.allclose(got, expected, rtol=1e-12, atol=0)
    level = np.exp(_result_log_weights(pi_i, pi_j, params))
    assert np.allclose(level, weights, rtol=1e-12, atol=0)


def test_try_cells_match_direct_weight_ratios():
    pi_i, pi_j, kappa = 1.3, 0.7, 1.1
    params = _params({"A": pi_i, "B": pi_j}, kappa=kappa)
    weights = np.array([
        params.tau_b * pi_i * pi_j,
        kappa * pi_i,
        pi_j / kappa,
        params.tau_z,
    ])
    expected = weights / weights.sum()
    assert np.allclose(outcome_distribution(params, "A", "B").tries,
                       expected, rtol=1e-12, atol=0)


def test_neutral_venue_drops_home_advantage():
    params = _params({"A": 1.0, "B": 1.0})
    neutral = outcome_distribution(params, "A", "B",
                                   venue=Venue.NEUTRAL).result
    # equal teams on a neutral ground: exact home/away symmetry
    assert abs(neutral[0] - neutral[4]) < 1e-15
    assert abs(neutral[1] - neutral[3]) < 1e-15
    at_home = outcome_distribution(params, "A", "B",
                                   venue=Venue.HOME_GROUND).result
    assert at_home[0] > at_home[4]


def test_probabilities_never_overflow_but_weights_can():
    params = _params({"A": 1e120, "B": 1.0})
    probs = outcome_distribution(params, "A", "B").result
    assert np.isfinite(probs).all()
    # both home-win cells keep the pi_i^4 factor, so it is their sum
    # that approaches 1; their ratio stays rho_n * pi_j / kappa
    assert probs[0] + probs[1] > 0.999
    # the log weights stay finite; exponentiating them would not
    log_weights = _result_log_weights(1e120, 1.0, params)
    assert np.isfinite(log_weights).all()
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(log_weights)).any()


def test_stronger_home_team_shifts_mass_to_wide_win():
    weak = outcome_distribution(_params({"A": 0.9, "B": 1.0}), "A",
                                "B").result
    strong = outcome_distribution(_params({"A": 1.8, "B": 1.0}), "A",
                                  "B").result
    assert strong[0] > weak[0]
    assert strong[4] < weak[4]


def test_expected_points_matches_joint_enumeration():
    params = _params({"A": 1.6, "B": 0.7})
    dist = outcome_distribution(params, "A", "B")
    res_home, res_away = result_points_arrays()
    try_home, try_away = try_points_arrays()
    want_home = want_away = 0.0
    for r in range(5):
        for t in range(4):
            joint = dist.result[r] * dist.tries[t]
            want_home += joint * (res_home[r] + try_home[t])
            want_away += joint * (res_away[r] + try_away[t])
    got_home, got_away = expected_points(params, "A", "B")
    assert abs(got_home - want_home) < 1e-12
    assert abs(got_away - want_away) < 1e-12


def test_gauge_transform_preserves_all_joint_probabilities():
    rng = np.random.default_rng(421)
    variants = [
        DEFAULT_VARIANT,
        VariantConfig(try_model=TryModel.OPPOSITION_INDEPENDENT),
        VariantConfig(try_model=TryModel.OFFENSIVE_DEFENSIVE),
        VariantConfig(home_model=HomeModel.TEAM_SPECIFIC),
    ]
    for trial in range(60):
        variant = variants[trial % len(variants)]
        params = _random_params(rng, ("A", "B"), variant)
        c = float(np.exp(rng.normal(0, 1.0)))
        scaled = gauge_transform(params, c, variant)
        for venue in (Venue.HOME_GROUND, Venue.NEUTRAL):
            before = outcome_distribution(params, "A", "B", variant, venue)
            after = outcome_distribution(scaled, "A", "B", variant, venue)
            assert np.allclose(before.result, after.result,
                               rtol=0, atol=1e-13)
            assert np.allclose(before.tries, after.tries,
                               rtol=0, atol=1e-13)


def test_gauge_transform_rejects_bad_scale():
    params = _params({"A": 1.0, "B": 1.0})
    for c in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            gauge_transform(params, c)


def test_generalized_mean_definition():
    assert generalized_mean([1.0]) == 1.0
    assert abs(generalized_mean([3.0, 1.0]) - (1.5 + 1.0) / 2) < 1e-15
    # an unbounded strength contributes exactly 2
    assert generalized_mean([math.inf, 0.0]) == 1.0


def test_solve_scale_closed_form_pair():
    # for strengths (3, 1) the mean hits 1 at exactly 1/sqrt(3)
    c = solve_scale([3.0, 1.0])
    assert abs(c - 1.0 / math.sqrt(3.0)) < 1e-10


def test_solve_scale_reciprocal_pairs_give_unit_scale():
    rng = np.random.default_rng(77)
    for _ in range(25):
        values = []
        for _ in range(rng.integers(1, 5)):
            x = float(np.exp(rng.normal(0, 1.5)))
            values += [x, 1.0 / x]
        assert abs(solve_scale(values) - 1.0) < 1e-12


def test_solve_scale_handles_an_infinite_strength():
    c = solve_scale([math.inf, 1.0, 1.0])
    mean = (2.0 + 2 * c / (1 + c) + 2 * c / (1 + c)) / 3
    assert abs(mean - 1.0) < 1e-10


def test_solve_scale_failure_modes():
    with pytest.raises(ValueError):
        solve_scale([math.inf, math.inf])  # mean is pinned at 2
    with pytest.raises(ValueError):
        solve_scale([0.0, 0.0])
    with pytest.raises(ValueError):
        solve_scale([])


def _mean_one_term_at_a_time(values, c=1.0):
    """The generalized mean of c * values, summed one strength at a time
    in Python: the reference for its array form."""
    return sum(2.0 if math.isinf(v) else 2.0 * c * v / (1.0 + c * v)
               for v in values) / len(values)


def _solve_scale_one_term_at_a_time(values, rel_tol=1e-12):
    """solve_scale's bisection over the reference mean."""
    def mean_at(c):
        return _mean_one_term_at_a_time(values, c)

    lo = hi = 1.0
    while mean_at(lo) >= 1.0:
        lo /= 2.0
    while mean_at(hi) <= 1.0:
        hi *= 2.0
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_generalized_mean_and_scale_equal_the_term_by_term_sum():
    rng = np.random.default_rng(619)
    for trial in range(40):
        values = np.exp(rng.normal(0, 2.0, int(rng.integers(2, 300))))
        if trial % 4 == 0:
            values[rng.integers(len(values))] = math.inf
        if trial % 5 == 0:
            values[rng.integers(len(values))] = 0.0
        for scale in (1e-3, 1.0, 37.0, 1e5):
            field = (values * scale).tolist()
            assert generalized_mean(field) == _mean_one_term_at_a_time(field)
            assert solve_scale(field) == \
                _solve_scale_one_term_at_a_time(field)


def test_normalize_stack_equals_each_normalization():
    rng = np.random.default_rng(620)
    teams = [f"T{k}" for k in range(12)]
    for variant in VARIANTS.values():
        layout = parameter_layout(variant)
        stack = []
        for trial in range(9):
            scale = float(np.exp(rng.normal(0, 3.0)))
            tables = {name: {t: scale * float(np.exp(rng.normal(0, 1.5)))
                             for t in teams} for name in layout.tables}
            if trial % 3 == 0:  # one unbounded strength
                tables[layout.home]["T0"] = math.inf
            levels = {name: float(np.exp(rng.normal()))
                      for name in layout.structural}
            stack.append(dataclasses.replace(
                Parameters(strengths={}), **{**tables, **levels}))
        assert normalize_stack(stack, variant) == [
            normalize_parameters(params, variant) for params in stack]
    assert normalize_stack([], DEFAULT_VARIANT) == []


def test_normalize_parameters_reaches_unit_mean_and_keeps_probs():
    rng = np.random.default_rng(3111)
    for _ in range(20):
        params = _random_params(rng, ("A", "B", "C"))
        normalized = normalize_parameters(params)
        assert abs(generalized_mean(normalized.strengths) - 1.0) < 1e-10
        before = outcome_distribution(params, "A", "C")
        after = outcome_distribution(normalized, "A", "C")
        assert np.allclose(before.result, after.result, atol=1e-13)
        assert np.allclose(before.tries, after.tries, atol=1e-13)


def test_normalize_parameters_team_specific_uses_joint_pool():
    variant = VariantConfig(home_model=HomeModel.TEAM_SPECIFIC)
    params = Parameters(
        strengths={},
        rho_n=0.4, rho_d=0.2, tau_b=0.05, tau_z=2.0,
        home_strengths={"A": 3.0, "B": 0.8},
        away_strengths={"A": 1.5, "B": 0.4},
    )
    normalized = normalize_parameters(params, variant)
    pool = list(normalized.home_strengths.values()) \
        + list(normalized.away_strengths.values())
    assert abs(generalized_mean(pool) - 1.0) < 1e-10


def test_interpret_structural_headline_rates():
    params = _params({"A": 1.0, "B": 1.0})
    report = interpret_structural(params)
    rates = report.with_home_advantage
    assert 0.64 <= rates.wide_result <= 0.66
    assert abs(rates.home_away_win_ratio - 2.2) <= 0.05
    assert 0.005 <= rates.both_try_bonus <= 0.015
    # on neutral ground equal teams split the win chances evenly
    assert abs(report.neutral.home_away_win_ratio - 1.0) < 1e-12
    total = (rates.wide_result + rates.narrow_result + rates.draw)
    assert abs(total - 1.0) < 1e-12


def test_variant_config_rejects_team_specific_without_dependent_tries():
    with pytest.raises(ParameterError):
        VariantConfig(try_model=TryModel.OPPOSITION_INDEPENDENT,
                      home_model=HomeModel.TEAM_SPECIFIC)


def test_parameters_validation():
    with pytest.raises(ParameterError):
        _params({"A": 1.0, "B": -1.0}).validate()
    with pytest.raises(ParameterError):
        _params({"A": 1.0}, rho_n=0.0).validate()
    variant = VariantConfig(try_model=TryModel.OPPOSITION_INDEPENDENT)
    with pytest.raises(ParameterError):
        _params({"A": 1.0, "B": 1.0}).validate(variant)
    ok = Parameters(strengths={"A": 1.0, "B": 1.0}, rho_n=0.4, rho_d=0.2,
                    tau_b=0.05, tau_z=2.0, tau=0.3)
    ok.validate(variant)


def test_opposition_independent_try_block_is_two_coin_flips():
    variant = VariantConfig(try_model=TryModel.OPPOSITION_INDEPENDENT)
    tau = 0.3
    pi_i, pi_j, kappa = 1.5, 0.6, 1.2
    params = Parameters(strengths={"A": pi_i, "B": pi_j}, rho_n=0.4,
                        rho_d=0.2, tau_b=1.0, tau_z=1.0, kappa=kappa,
                        tau=tau)
    probs = outcome_distribution(params, "A", "B", variant).tries
    p_home = tau * kappa * pi_i / (1 + tau * kappa * pi_i)
    p_away = (tau * pi_j / kappa) / (1 + tau * pi_j / kappa)
    expected = np.array([
        p_home * p_away,
        p_home * (1 - p_away),
        (1 - p_home) * p_away,
        (1 - p_home) * (1 - p_away),
    ])
    assert np.allclose(probs, expected, rtol=1e-12, atol=0)


def test_offensive_defensive_try_block_weights():
    variant = VariantConfig(try_model=TryModel.OFFENSIVE_DEFENSIVE)
    pi_i, pi_j = 1.4, 0.9
    delta_i, delta_j = 1.2, 0.7
    params = Parameters(strengths={"A": pi_i, "B": pi_j}, rho_n=0.4,
                        rho_d=0.2, tau_b=1.0, tau_z=1.0, kappa=1.0,
                        delta={"A": delta_i, "B": delta_j})
    probs = outcome_distribution(params, "A", "B", variant).tries
    dd = delta_i * delta_j
    weights = np.array([pi_i * pi_j / dd, pi_i, pi_j, dd])
    assert np.allclose(probs, weights / weights.sum(), rtol=1e-12, atol=0)


def test_team_specific_home_model_uses_side_strengths():
    variant = VariantConfig(home_model=HomeModel.TEAM_SPECIFIC)
    params = Parameters(
        strengths={},
        rho_n=0.4, rho_d=0.2, tau_b=0.05, tau_z=2.0, kappa=7.0,
        home_strengths={"A": 2.0, "B": 1.0},
        away_strengths={"A": 0.5, "B": 1.0},
    )
    dist = outcome_distribution(params, "A", "B", variant)
    # kappa is ignored: the same fixture with kappa=1 is identical
    flat = dataclasses.replace(params, kappa=1.0)
    again = outcome_distribution(flat, "A", "B", variant)
    assert np.allclose(dist.result, again.result, atol=0, rtol=0)
    assert np.allclose(dist.tries, again.tries, atol=0, rtol=0)


def test_team_specific_fixtures_read_home_and_away_tables():
    # each fixture is the no-home-advantage fixture between the home side's
    # home strength and the away side's away strength
    variant = VariantConfig(home_model=HomeModel.TEAM_SPECIFIC)
    plain = VariantConfig(home_model=HomeModel.NONE)
    home_table = {"A": 2.0, "B": 0.6, "C": 1.3}
    away_table = {"A": 0.9, "B": 1.7, "C": 0.4}
    params = _params({}, home_strengths=home_table, away_strengths=away_table)
    pairs = [(a, b) for a in home_table for b in home_table if a != b]
    dist = outcome_distribution(params, [a for a, _ in pairs],
                                [b for _, b in pairs], variant)
    for k, (home, away) in enumerate(pairs):
        pair = _params({home: home_table[home], away: away_table[away]})
        want = outcome_distribution(pair, home, away, plain)
        assert np.allclose(dist.result[:, k], want.result, rtol=1e-13, atol=0)
        assert np.allclose(dist.tries[:, k], want.tries, rtol=1e-13, atol=0)


def test_custom_points_system_changes_exponents():
    points = PointsSystem(win_points=3, draw_points=1, loss_points=0)
    params = _params({"A": 2.0, "B": 0.5})
    default_probs = outcome_distribution(params, "A", "B").result
    custom_probs = outcome_distribution(params, "A", "B",
                                        points=points).result
    assert not np.allclose(default_probs, custom_probs)


def test_fixture_sequences_match_single_fixtures_bit_for_bit():
    rng = np.random.default_rng(808)
    teams = ("A", "B", "C")
    for variant in VARIANTS.values():
        params = _random_params(rng, teams, variant)
        home, away, venue = zip(*[(h, a, v) for h in teams for a in teams
                                  if h != a for v in Venue])
        dist = outcome_distribution(params, home, away, variant, venue)
        assert dist.result.shape == (5, len(home))
        for probs in (dist.result, dist.tries):
            assert np.abs(probs.sum(axis=0) - 1.0).max() <= 1e-12
            assert (probs >= 0).all()
        home_pts, away_pts = expected_points(params, home, away, variant,
                                             venue)
        for k in range(len(home)):
            one = outcome_distribution(params, home[k], away[k], variant,
                                       venue[k])
            assert np.array_equal(dist.result[:, k], one.result)
            assert np.array_equal(dist.tries[:, k], one.tries)
            single = expected_points(params, home[k], away[k], variant,
                                     venue[k])
            assert abs(home_pts[k] - single[0]) < 1e-14
            assert abs(away_pts[k] - single[1]) < 1e-14


def test_fixture_sequences_must_match_in_length():
    params = _params({"A": 1.0, "B": 1.0})
    with pytest.raises(ValueError):
        outcome_distribution(params, ["A", "B"], ["B"])
    with pytest.raises(ValueError):
        outcome_distribution(params, ["A"], ["B"],
                             venue=[Venue.HOME_GROUND, Venue.NEUTRAL])


def test_parameters_and_variant_json_round_trip():
    rng = np.random.default_rng(19)
    for variant in VARIANTS.values():
        params = _random_params(rng, ("A", "B"), variant)
        doc = json.loads(json.dumps(params.to_dict()))
        assert Parameters.from_dict(doc) == params
        assert doc["log"]["kappa"] == math.log(params.kappa)
        assert VariantConfig.from_dict(
            json.loads(json.dumps(variant.to_dict()))) == variant
    with pytest.raises(ValueError, match="missing kappa"):
        Parameters.from_dict({"strengths": {}, "rho_n": 1.0, "rho_d": 1.0,
                              "tau_b": 1.0, "tau_z": 1.0})
    for decode, section in ((Parameters.from_dict, "parameters"),
                            (VariantConfig.from_dict, "variant"),
                            (PointsSystem.from_dict, "points_system")):
        with pytest.raises(ValueError, match=f"{section} must be a JSON "):
            decode([1])


def test_structural_names_come_from_the_variants_blocks():
    expected = {
        "opposition-dependent": ("rho_n", "rho_d", "tau_b", "tau_z",
                                 "kappa"),
        "opposition-independent": ("rho_n", "rho_d", "tau", "kappa"),
        "offensive-defensive": ("rho_n", "rho_d", "kappa"),
        "team-specific": ("rho_n", "rho_d", "tau_b", "tau_z"),
    }
    for label, variant in VARIANTS.items():
        names = (tuple(result_block().structural)
                 + tuple(try_block(variant).structural))
        if variant.home_model is HomeModel.SINGLE_KAPPA:
            names += ("kappa",)
        assert parameter_layout(variant).structural == names
        assert names == expected[label]
