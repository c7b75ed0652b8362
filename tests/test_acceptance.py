"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line naming the property it certifies, at
the tolerance and time budget that property is held to. The checks lean
on independent oracles wherever a value could otherwise be circular: a
projected-gradient entropy maximizer, brute-force enumeration of the
outcome grid, closed-form normalization scales and byte-frozen golden
files.
"""

import math
import pathlib
import time

import numpy as np

from test_estimate import (
    ALL_VARIANTS,
    _random_counts,
    _random_params,
    check_gradient,
)

from scrumrank.domain import MatchRecord, Venue, outcome_counts
from scrumrank.estimate import (
    FitConfig,
    PriorConfig,
    _Problem,
    fit,
    minimize,
    score,
)
from scrumrank.ingest import (
    clean,
    load_matches,
    parse_csv,
    write_audit_csv,
    write_cleaned_csv,
)
from scrumrank.model import (
    HomeModel,
    OutcomeBlock,
    Parameters,
    VariantConfig,
    gauge_transform,
    generalized_mean,
    interpret_structural,
    outcome_distribution,
    solve_scale,
)
from scrumrank.estimate import log_likelihood
from scrumrank.rank import lppm, merit_points, playing_records, pppm
from scrumrank.simulate import double_round_robin, recovery_study

DATA = pathlib.Path(__file__).parent / "data"

REFERENCE_MEANS = dict(rho_n=0.448, rho_d=0.212, tau_b=0.042, tau_z=2.801)


def _criterion(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_01_structural_interpretation():
    params = Parameters(strengths={}, kappa=1.113, **REFERENCE_MEANS)
    rates = interpret_structural(params).with_home_advantage
    ok = (abs(rates.wide_result - 0.65) <= 0.01
          and abs(rates.both_try_bonus - 0.01) <= 0.005
          and abs(rates.home_away_win_ratio - 2.2) <= 0.05)
    _criterion(1, "fitted propensities imply familiar match rates", ok,
               f"wide {rates.wide_result:.4f}, both-bonus "
               f"{rates.both_try_bonus:.4f}, home/away ratio "
               f"{rates.home_away_win_ratio:.4f}")


def test_criterion_02_merit_points_worked_example():
    matches = [MatchRecord("Hero", f"O{k}", 13, 0, 2, 0)
               for k in range(1, 9)]
    matches += [MatchRecord(f"O{k}", "Hero", 13, 0, 2, 0)
                for k in range(9, 11)]
    prev = {"O1": 10, "O2": 30, "O3": 40, "O4": 50, "O5": 55, "O6": 75}
    value = merit_points(playing_records(matches), matches, prev)["Hero"]
    ok = value == 4.3
    _criterion(2, "merit points worked example is exact", ok,
               f"LPPM {lppm(matches)['Hero']} plus banded tenths gives "
               f"{value!r}")


def test_criterion_03_fit_reproduces_golden_season_totals():
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    start = time.perf_counter()
    model = fit(counts, FitConfig())
    elapsed = time.perf_counter() - start
    report = model.report
    worst_points = max(
        abs(report.observed_points[t] - report.expected_points[t])
        / max(1.0, report.observed_points[t])
        for t in report.observed_points)
    s = score(model.parameters, counts)
    structural = {"narrow": s.rho_n, "draws": s.rho_d, "both-bonus": s.tau_b,
                  "zero-bonus": s.tau_z, "home-edge": s.kappa}
    worst_structural = max(abs(v) for v in structural.values())
    ok = worst_points <= 1e-6 and worst_structural <= 1e-6 and elapsed < 1.0
    _criterion(3, "golden season fit matches every observed total", ok,
               f"points rel {worst_points:.2e}, structural "
               f"{worst_structural:.2e}, {elapsed:.2f}s")


def test_criterion_04_entropy_maximizer_agrees_with_mle():
    # three teams, two win-only matches per pair: A took 3 wins, B 2, C 1.
    # The oracle maximizes total outcome entropy over the per-match win
    # probabilities directly, subject only to each team's observed total,
    # by projected gradient on the constraint subspace. The fitted
    # log-linear model must land on the same per-pair probabilities.
    start = time.perf_counter()
    matches = [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]
    wins = np.array([3.0, 2.0, 1.0])
    constraints = np.zeros((3, 6))
    rhs = np.zeros(3)
    for team in range(3):
        rhs[team] = wins[team] - sum(1 for (_, j) in matches if j == team)
        for k, (i, j) in enumerate(matches):
            constraints[team, k] = 1.0 if i == team else \
                (-1.0 if j == team else 0.0)
    pinv = np.linalg.pinv(constraints)

    def project(vec):
        return vec - pinv @ (constraints @ vec - rhs)

    probs = project(np.full(6, 0.5))
    for _ in range(200000):
        step = project(probs + 0.05 * (np.log1p(-probs) - np.log(probs)))
        step = np.clip(step, 1e-12, 1.0 - 1e-12)
        if np.max(np.abs(step - probs)) < 1e-15:
            probs = step
            break
        probs = step

    binary = OutcomeBlock(
        outcomes=("home_win", "away_win"),
        home_points=np.array([1.0, 0.0]),
        away_points=np.array([0.0, 1.0]),
        structural={},
        kappa_exp=np.array([1.0, -1.0]),
    )
    observed = np.array([[2.0, 1.0, 2.0], [0.0, 1.0, 0.0]])
    # three pairs at neutral grounds; the binary block has no propensities
    # and no home advantage applies, so only the strengths are free
    problem = _Problem(
        ["A", "B", "C"], np.array([0, 0, 1]), np.array([1, 2, 2]),
        np.zeros(3), [(binary, observed)],
        VariantConfig(home_model=HomeModel.NONE), 0.0, pin_first=True)
    result = minimize(problem, np.zeros(problem.n_free), 1e-12, 500)
    grad_inf, converged = result.grad_inf, result.converged
    strengths = np.exp(np.concatenate([[0.0], result.x]))
    parametric = np.array([
        strengths[0] / (strengths[0] + strengths[1]),
        strengths[0] / (strengths[0] + strengths[2]),
        strengths[1] / (strengths[1] + strengths[2]),
    ])
    oracle = np.array([probs[0:2].mean(), probs[2:4].mean(),
                       probs[4:6].mean()])
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(parametric - oracle)))
    ok = converged and worst <= 1e-4 and elapsed < 10.0
    _criterion(4, "parametric fit equals the entropy maximizer", ok,
               f"per-pair prob gap {worst:.2e}, gradient {grad_inf:.1e}, "
               f"{elapsed:.2f}s")


def test_criterion_05_strength_scale_is_pure_gauge():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    counts = outcome_counts([
        MatchRecord("X", "Y", 26, 10, 3, 1),
        MatchRecord("Y", "Z", 15, 12, 2, 1),
        MatchRecord("Z", "X", 20, 20, 2, 4, Venue.NEUTRAL),
    ])
    worst_prob = 0.0
    worst_ll = 0.0
    for _ in range(1000):
        params = Parameters(
            strengths={t: float(np.exp(rng.normal(0, 0.7))) for t in "XYZ"},
            rho_n=float(np.exp(rng.normal(-0.5, 0.4))),
            rho_d=float(np.exp(rng.normal(-1.0, 0.4))),
            tau_b=float(np.exp(rng.normal(-3.0, 0.5))),
            tau_z=float(np.exp(rng.normal(1.0, 0.4))),
            kappa=float(np.exp(rng.normal(0.1, 0.2))),
        )
        moved = gauge_transform(params, float(np.exp(rng.uniform(-2, 2))))
        base = outcome_distribution(params, "X", "Y")
        after = outcome_distribution(moved, "X", "Y")
        gap = np.abs(np.outer(base.result, base.tries)
                     - np.outer(after.result, after.tries))
        worst_prob = max(worst_prob, float(gap.max()))
        worst_ll = max(worst_ll, abs(log_likelihood(params, counts)
                                     - log_likelihood(moved, counts)))
    elapsed = time.perf_counter() - start
    ok = worst_prob <= 1e-12 and worst_ll <= 1e-9 and elapsed < 1.0
    _criterion(5, "rescaling strengths changes nothing observable", ok,
               f"1000 draws, joint prob gap {worst_prob:.1e}, "
               f"log-likelihood gap {worst_ll:.1e}, {elapsed:.2f}s")


def test_criterion_06_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    failures = []
    for k in range(100):
        variant = ALL_VARIANTS[k % len(ALL_VARIANTS)]
        teams = [f"T{n}" for n in range(int(rng.integers(3, 6)))]
        params = _random_params(rng, teams, variant)
        counts = _random_counts(rng, teams)
        weight = (0.0, 0.7, 1.9)[k % 3]
        try:
            check_gradient(params, counts, variant, weight)
        except AssertionError as error:
            failures.append(f"instance {k}: {error}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _criterion(6, "score function matches finite differences", ok,
               f"100 instances over {len(ALL_VARIANTS)} variants, "
               f"{len(failures)} failures, {elapsed:.1f}s"
               + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_07_simulated_seasons_recover_the_truth():
    start = time.perf_counter()
    values = np.exp(np.linspace(np.log(1 / 3), np.log(3), 10))
    strengths = {f"T{k}": float(v) for k, v in enumerate(values)}
    truth = Parameters(strengths=strengths, kappa=1.113, **REFERENCE_MEANS)
    fixtures = double_round_robin(sorted(strengths))
    study = recovery_study(
        truth, fixtures, replicates=50, seed=9,
        fit_config=FitConfig(prior=PriorConfig(weight=1.0)))
    summary = study.summary()
    elapsed = time.perf_counter() - start
    margins = {name: abs(summary.median_estimates[name] / true_value - 1.0)
               for name, true_value in summary.truth.items()}
    worst_name = max(margins, key=margins.get)
    ok = (summary.converged == summary.replicates
          and max(margins.values()) <= 0.10
          and summary.median_spearman is not None
          and summary.median_spearman >= 0.95
          and elapsed < 120.0)
    _criterion(7, "fitting simulated seasons recovers the generator", ok,
               f"{summary.converged}/{summary.replicates} converged, worst "
               f"median margin {margins[worst_name]:.3f} ({worst_name}), "
               f"spearman {summary.median_spearman:.3f}, {elapsed:.1f}s")


def test_criterion_08_normalization_scale_solutions():
    closed_form = abs(solve_scale([3.0, 1.0]) - 3.0 ** -0.5)
    rng = np.random.default_rng(808)
    reciprocal = 0.0
    for _ in range(50):
        v = float(np.exp(rng.normal(0, 1.2)))
        reciprocal = max(reciprocal, abs(solve_scale([v, 1.0 / v]) - 1.0))
    fitted_gap = 0.0
    counts = outcome_counts(load_matches(DATA / "golden_season.csv").records)
    for weight in (0.0, 1.0):
        model = fit(counts, FitConfig(prior=PriorConfig(weight=weight)))
        fitted_gap = max(fitted_gap, abs(
            generalized_mean(model.parameters.strengths) - 1.0))
    with_inf = [math.inf, 0.4, 0.2]
    c = solve_scale(with_inf)
    inf_gap = abs(generalized_mean([math.inf, 0.4 * c, 0.2 * c]) - 1.0)
    ok = (closed_form <= 1e-10 and reciprocal <= 1e-12
          and fitted_gap <= 1e-10 and inf_gap <= 1e-10)
    _criterion(8, "normalization lands on its closed forms", ok,
               f"3:1 gap {closed_form:.1e}, reciprocal {reciprocal:.1e}, "
               f"fitted {fitted_gap:.1e}, unbounded input {inf_gap:.1e}")


def test_criterion_09_rating_rewards_strength():
    rng = np.random.default_rng(909)
    violations = 0
    for trial in range(100):
        strengths = {f"T{k}": float(np.exp(rng.normal(0, 0.6)))
                     for k in range(10)}
        params = Parameters(strengths=strengths, kappa=1.113, **REFERENCE_MEANS)
        team = f"T{trial % 10}"
        bumped = dict(strengths)
        bumped[team] *= 1.01
        lifted = Parameters(strengths=bumped, kappa=1.113, **REFERENCE_MEANS)
        if not pppm(lifted)[team] > pppm(params)[team]:
            violations += 1
    ok = violations == 0
    _criterion(9, "a stronger team always rates higher", ok,
               f"100 random fields, {violations} violations")


def test_criterion_10_cleaning_is_frozen_and_idempotent():
    raw = (DATA / "golden_cleaning_raw.csv").read_text()
    result = clean(parse_csv(raw))
    cleaned = write_cleaned_csv(result.rows)
    audit = write_audit_csv(result.actions)
    frozen = (cleaned == (DATA / "golden_cleaning_cleaned.csv").read_text()
              and audit == (DATA / "golden_cleaning_audit.csv").read_text())
    again = clean(parse_csv(cleaned))
    idempotent = (not again.actions and not again.rejected
                  and write_cleaned_csv(again.rows) == cleaned)
    ok = frozen and idempotent
    _criterion(10, "cleaning output is byte-frozen and idempotent", ok,
               f"{len(result.actions)} repairs, {len(result.rejected)} "
               f"rejected, frozen={frozen}, idempotent={idempotent}")


def test_criterion_11_prior_weight_trades_rate_against_volume():
    # two unbeaten teams on identical schedules: A averaged more per match
    # over 4 matches, B banked more wins over 8. With no prior the fit
    # follows the per-match rate; a heavy prior discounts the short season.
    def bonus_win(home, away):
        return MatchRecord(home, away, 33, 10, 4, 2, Venue.NEUTRAL)

    def plain_win(home, away):
        return MatchRecord(home, away, 13, 0, 2, 0, Venue.NEUTRAL)

    others = ["C", "D", "E", "F"]
    matches = [bonus_win("A", team) for team in others[:3]]
    matches.append(plain_win("A", others[3]))
    for k, team in enumerate(others + others):
        matches.append(bonus_win("B", team) if k < 5
                       else plain_win("B", team))
    cycle = [("C", "D"), ("C", "F"), ("E", "C"), ("E", "F"), ("D", "E"),
             ("F", "D")]
    matches += [bonus_win(winner, loser) for winner, loser in cycle]
    values = lppm(matches)
    assert values["A"] == 4.75 and values["B"] == 4.625
    counts = outcome_counts(matches)
    freeze = {"kappa": 1.113, **REFERENCE_MEANS}
    lead = {}
    for weight in (0.0, 8.0):
        model = fit(counts, FitConfig(prior=PriorConfig(weight=weight),
                                      freeze=freeze))
        lead[weight] = (model.parameters.strengths["A"],
                        model.parameters.strengths["B"])
    ok = lead[0.0][0] > lead[0.0][1] and lead[8.0][1] > lead[8.0][0]
    _criterion(11, "prior weight arbitrates rate versus body of work", ok,
               f"no prior A {lead[0.0][0]:.3f} vs B {lead[0.0][1]:.3f}; "
               f"weight 8 A {lead[8.0][0]:.3f} vs B {lead[8.0][1]:.3f}")
