"""Maximum-likelihood fitting of the outcome model.

The likelihood factorizes over ordered (home, away, venue) triples, and
each triple's result and try blocks are independently normalized
categorical distributions whose log cell weights are linear in the log
parameters. The gradient in log space is therefore observed minus expected
sufficient statistics: per-team league points for the strengths, the
narrow/draw/bonus totals for the propensity parameters, and the home
points edge for the home-advantage factor. Convergence is certified by
driving those retrodictive residuals to zero, which is the model's
defining property: every team's expected points over its actual schedule
equal the points it actually took.

A symmetric prior keeps every strength finite: each team notionally plays
a fixed reference opponent of strength 1 twice, winning one match worth a
single point and losing the other, with both matches weighted by a
continuous ``weight``. With weight zero the likelihood is scale-invariant,
so one log strength is pinned at zero during optimization; either way the
reported parameters are gauge-rescaled afterwards so the generalized mean
of the strengths is 1.

The concave log likelihood is maximized by quasi-Newton (BFGS) ascent on
the log parameters with exact gradients, starting from all log parameters
at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .domain import (
    DEFAULT_POINTS,
    OutcomeCounts,
    PointsSystem,
    Venue,
)
from .model import (
    DEFAULT_VARIANT,
    HomeModel,
    OutcomeBlock,
    Parameters,
    ParameterError,
    TryModel,
    VariantConfig,
    VariantParameters,
    log_cell_weights,
    normalize_parameters,
    result_block,
    try_block,
)

# A normalized log strength beyond this is treated as a diverging estimate:
# it corresponds to a strength ratio above e^12, far outside anything a
# finite season can support.
_DIVERGENCE_LOG_LIMIT = 12.0


def _log_normalizer(lw: np.ndarray) -> np.ndarray:
    """Log of the column sums of ``exp(lw)``, shifted by each column's max.

    A column whose max is not finite is shifted by zero, so an all ``-inf``
    column gives ``-inf``. A plain NumPy reduction is used because this runs
    twice per likelihood evaluation on small blocks, where the per-call
    overhead of ``scipy.special.logsumexp`` dominates the arithmetic.
    """
    top = lw.max(axis=0, initial=-np.inf)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(lw - top).sum(axis=0))


class NonConvergenceError(RuntimeError):
    """The optimizer failed to certify a maximum.

    Carries the best parameters seen and a diagnosis of the likely cause,
    typically a team whose record pins its strength at infinity when no
    prior weight is applied.
    """

    def __init__(self, message: str, best: Parameters, diagnosis: str,
                 iterations: int, gradient_norm: float):
        super().__init__(message)
        self.best_parameters = best
        self.diagnosis = diagnosis
        self.iterations = iterations
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class PriorConfig:
    """Symmetric regularizing prior: one notional win and loss per team
    against a fixed reference opponent, each weighted by ``weight``."""

    weight: float = 0.0
    dummy_strength: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ParameterError(f"prior weight must be non-negative, got "
                                 f"{self.weight!r}")
        if self.dummy_strength != 1.0:
            raise ParameterError("the reference opponent's strength is fixed "
                                 "at 1")


@dataclass(frozen=True)
class FitConfig:
    variant: VariantConfig = DEFAULT_VARIANT
    prior: PriorConfig = PriorConfig()
    gradient_tolerance: float = 1e-8
    max_iterations: int = 500
    freeze: Mapping[str, float] | None = None
    points_system: PointsSystem = DEFAULT_POINTS


@dataclass(frozen=True)
class Score:
    """Observed-minus-expected residuals: the log-space gradient.

    Only the fields meaningful for the variant are populated; the rest
    stay None.
    """

    strengths: Mapping[str, float] | None = None
    delta: Mapping[str, float] | None = None
    home_strengths: Mapping[str, float] | None = None
    away_strengths: Mapping[str, float] | None = None
    rho_n: float | None = None
    rho_d: float | None = None
    tau_b: float | None = None
    tau_z: float | None = None
    tau: float | None = None
    kappa: float | None = None

    def max_norm(self) -> float:
        parts: list[float] = []
        for group in (self.strengths, self.delta, self.home_strengths,
                      self.away_strengths):
            if group is not None:
                parts.extend(abs(v) for v in group.values())
        for name in ("rho_n", "rho_d", "tau_b", "tau_z", "tau", "kappa"):
            value = getattr(self, name)
            if value is not None:
                parts.append(abs(value))
        return max(parts) if parts else 0.0


def _structural_names(variant: VariantConfig) -> list[str]:
    names = ["rho_n", "rho_d"]
    if variant.try_model is TryModel.OPPOSITION_DEPENDENT:
        names += ["tau_b", "tau_z"]
    elif variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
        names += ["tau"]
    if variant.home_model is HomeModel.SINGLE_KAPPA:
        names += ["kappa"]
    return names


class _Problem:
    """Vectorized likelihood and gradient over a fixed team indexing."""

    def __init__(self, teams: Sequence[str], variant: VariantConfig,
                 prior_weight: float, points: PointsSystem,
                 freeze: Mapping[str, float] | None = None,
                 pin_first: bool = False):
        self.teams = list(teams)
        self.index = {team: k for k, team in enumerate(self.teams)}
        self.m = len(self.teams)
        self.variant = variant
        self.w = float(prior_weight)
        self.points = points
        self.team_specific = variant.home_model is HomeModel.TEAM_SPECIFIC
        self.off_def = variant.try_model is TryModel.OFFENSIVE_DEFENSIVE
        names = _structural_names(variant)
        freeze = dict(freeze or {})
        unknown = set(freeze) - set(names)
        if unknown:
            raise ParameterError(
                f"cannot freeze {sorted(unknown)}; this variant's structural "
                f"parameters are {names}"
            )
        for name, value in freeze.items():
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"frozen {name} must be positive, got "
                                     f"{value!r}")
        self.frozen_logs = {name: math.log(value)
                            for name, value in freeze.items()}
        self.frozen_levels = dict(freeze)
        self.free_structural = [n for n in names if n not in freeze]
        self.pinned = 1 if pin_first else 0
        self.n_strength = 2 * self.m if self.team_specific else self.m
        self.n_def = self.m if self.off_def else 0
        self.n_free = (self.n_strength - self.pinned) + self.n_def \
            + len(self.free_structural)
        # pair data, filled by one of the loaders
        self.i_idx = np.zeros(0, dtype=int)
        self.j_idx = np.zeros(0, dtype=int)
        self.home_mask = np.zeros(0)
        self.block_data: list[tuple[OutcomeBlock, np.ndarray, np.ndarray]] = []

    # ---- loaders ----

    @classmethod
    def from_counts(cls, teams, counts: OutcomeCounts, variant, prior_weight,
                    points, freeze=None, pin_first=False) -> "_Problem":
        problem = cls(teams, variant, prior_weight, points, freeze, pin_first)
        keys = sorted(counts.pairs, key=lambda k: (k[0], k[1], k[2].value))
        i_idx, j_idx, home = [], [], []
        r_obs = np.zeros((5, len(keys)))
        t_obs = np.zeros((4, len(keys)))
        for p, key in enumerate(keys):
            home_team, away_team, venue = key
            if home_team not in problem.index or away_team not in problem.index:
                missing = home_team if home_team not in problem.index \
                    else away_team
                raise ParameterError(f"counts mention {missing!r}, which is "
                                     "not in the team list")
            i_idx.append(problem.index[home_team])
            j_idx.append(problem.index[away_team])
            home.append(1.0 if venue is Venue.HOME_GROUND else 0.0)
            r_obs[:, p] = counts.pairs[key].result
            t_obs[:, p] = counts.pairs[key].tries
        problem.i_idx = np.array(i_idx, dtype=int)
        problem.j_idx = np.array(j_idx, dtype=int)
        problem.home_mask = np.array(home)
        problem.block_data = [
            (result_block(points), r_obs, r_obs.sum(axis=0)),
            (try_block(variant), t_obs, t_obs.sum(axis=0)),
        ]
        return problem

    @classmethod
    def from_blocks(cls, teams, pairs: Sequence[tuple[int, int, bool]],
                    block_data, variant=None, prior_weight=0.0,
                    points=DEFAULT_POINTS, pin_first=False) -> "_Problem":
        """Loader for a custom outcome block set (used for small studies)."""
        variant = variant or VariantConfig(home_model=HomeModel.NONE)
        problem = cls(teams, variant, prior_weight, points,
                      pin_first=pin_first)
        problem.i_idx = np.array([p[0] for p in pairs], dtype=int)
        problem.j_idx = np.array([p[1] for p in pairs], dtype=int)
        problem.home_mask = np.array([1.0 if p[2] else 0.0 for p in pairs])
        problem.block_data = [(block, np.asarray(obs, dtype=float),
                               np.asarray(obs, dtype=float).sum(axis=0))
                              for block, obs in block_data]
        return problem

    # ---- parameter packing ----

    def unpack(self, x: np.ndarray):
        pos = 0
        n = self.n_strength - self.pinned
        flat = np.zeros(self.n_strength)
        flat[self.pinned:] = x[pos:pos + n]
        pos += n
        if self.team_specific:
            alpha_home, alpha_away = flat[:self.m], flat[self.m:]
        else:
            alpha_home = alpha_away = flat
        cdef = None
        if self.off_def:
            cdef = x[pos:pos + self.m]
            pos += self.m
        slog = dict(self.frozen_logs)
        for name in self.free_structural:
            slog[name] = x[pos]
            pos += 1
        if "kappa" not in slog:
            slog["kappa"] = 0.0
        return alpha_home, alpha_away, cdef, slog

    def pack(self, params: Parameters) -> np.ndarray:
        """Inverse of unpack for a full (unpinned) layout."""
        if self.pinned:
            raise ParameterError("cannot pack parameters into a pinned layout")
        parts: list[float] = []
        if self.team_specific:
            parts += [math.log(params.extras.home_strengths[t])
                      for t in self.teams]
            parts += [math.log(params.extras.away_strengths[t])
                      for t in self.teams]
        else:
            parts += [math.log(params.strengths[t]) for t in self.teams]
        if self.off_def:
            parts += [math.log(params.extras.delta[t]) for t in self.teams]
        for name in self.free_structural:
            if name == "tau":
                parts.append(math.log(params.extras.tau))
            else:
                parts.append(math.log(getattr(params, name)))
        return np.array(parts)

    def x_to_parameters(self, x: np.ndarray) -> Parameters:
        alpha_home, alpha_away, cdef, slog = self.unpack(x)
        level = {name: math.exp(value) for name, value in slog.items()}
        level.update(self.frozen_levels)  # keep frozen values exact
        extras = None
        if self.team_specific:
            extras = VariantParameters(
                home_strengths={t: math.exp(alpha_home[k])
                                for k, t in enumerate(self.teams)},
                away_strengths={t: math.exp(alpha_away[k])
                                for k, t in enumerate(self.teams)},
            )
            strengths: dict[str, float] = {}
        else:
            strengths = {t: math.exp(alpha_home[k])
                         for k, t in enumerate(self.teams)}
        if self.off_def:
            extras = VariantParameters(
                delta={t: math.exp(cdef[k]) for k, t in enumerate(self.teams)})
        if self.variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
            extras = VariantParameters(tau=level["tau"])
        return Parameters(
            strengths=strengths,
            rho_n=level.get("rho_n", 1.0),
            rho_d=level.get("rho_d", 1.0),
            tau_b=level.get("tau_b", 1.0),
            tau_z=level.get("tau_z", 1.0),
            kappa=level.get("kappa", 1.0),
            extras=extras,
        )

    # ---- likelihood ----

    def _log_weights(self, block: OutcomeBlock, alpha_home, alpha_away,
                     cdef, slog) -> np.ndarray:
        defence_sum = None if cdef is None \
            else cdef[self.i_idx] + cdef[self.j_idx]
        return log_cell_weights(block, alpha_home[self.i_idx],
                                alpha_away[self.j_idx], slog,
                                slog["kappa"] * self.home_mask, defence_sum)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        alpha_home, alpha_away, cdef, slog = self.unpack(x)
        value = 0.0
        g_strength = np.zeros(self.n_strength)
        g_def = np.zeros(self.m)
        g_struct = {name: 0.0 for name in self.free_structural}
        ga_home = g_strength[:self.m] if self.team_specific else g_strength
        ga_away = g_strength[self.m:] if self.team_specific else g_strength
        for block, obs, mvec in self.block_data:
            lw = self._log_weights(block, alpha_home, alpha_away, cdef, slog)
            log_z = _log_normalizer(lw)
            value += float((obs * lw).sum() - mvec @ log_z)
            probs = np.exp(lw - log_z[None, :])
            resid = obs - mvec[None, :] * probs
            np.add.at(ga_home, self.i_idx, block.home_points @ resid)
            np.add.at(ga_away, self.j_idx, block.away_points @ resid)
            for name, exps in block.structural.items():
                if name in g_struct:
                    g_struct[name] += float(exps @ resid.sum(axis=1))
            if "kappa" in g_struct:
                g_struct["kappa"] += float(
                    (block.kappa_exp @ resid) @ self.home_mask)
            if block.defence_exp is not None:
                per_pair = block.defence_exp @ resid
                np.add.at(g_def, self.i_idx, per_pair)
                np.add.at(g_def, self.j_idx, per_pair)
        if self.w > 0:
            for alpha, grad in self._prior_groups(alpha_home, alpha_away,
                                                  ga_home, ga_away):
                value += float(self.w * (alpha - 2.0
                                         * np.logaddexp(0.0, alpha)).sum())
                grad += self.w * (1.0 - 2.0 * expit(alpha))
        g = np.concatenate([
            g_strength[self.pinned:],
            g_def if self.off_def else np.zeros(0),
            np.array([g_struct[name] for name in self.free_structural]),
        ])
        return value, g

    def _prior_groups(self, alpha_home, alpha_away, ga_home, ga_away):
        if self.team_specific:
            return ((alpha_home, ga_home), (alpha_away, ga_away))
        return ((alpha_home, ga_home),)

    # ---- reporting ----

    def points_totals(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Observed and expected league points per team, prior included."""
        alpha_home, alpha_away, cdef, slog = self.unpack(x)
        observed = np.zeros(self.m)
        expected = np.zeros(self.m)
        for block, obs, mvec in self.block_data:
            lw = self._log_weights(block, alpha_home, alpha_away, cdef, slog)
            log_z = _log_normalizer(lw)
            probs = np.exp(lw - log_z[None, :])
            exp_cells = mvec[None, :] * probs
            np.add.at(observed, self.i_idx, block.home_points @ obs)
            np.add.at(observed, self.j_idx, block.away_points @ obs)
            np.add.at(expected, self.i_idx, block.home_points @ exp_cells)
            np.add.at(expected, self.j_idx, block.away_points @ exp_cells)
        if self.w > 0:
            per_side = 2 if self.team_specific else 1
            observed += self.w * per_side
            expected += 2.0 * self.w * expit(alpha_home[:self.m] if not
                                             self.team_specific else
                                             alpha_home)
            if self.team_specific:
                expected += 2.0 * self.w * expit(alpha_away)
        return observed, expected


def _full_problem(params: Parameters, counts: OutcomeCounts,
                  prior: PriorConfig, variant: VariantConfig,
                  points: PointsSystem) -> tuple[_Problem, np.ndarray]:
    params.validate(variant)
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        teams = sorted(params.extras.home_strengths)
    else:
        teams = sorted(params.strengths)
    problem = _Problem.from_counts(teams, counts, variant, prior.weight,
                                   points)
    return problem, problem.pack(params)


def log_likelihood(params: Parameters, counts: OutcomeCounts,
                   prior: PriorConfig = PriorConfig(),
                   variant: VariantConfig = DEFAULT_VARIANT,
                   points: PointsSystem = DEFAULT_POINTS) -> float:
    """Normalized log likelihood of the counts (plus prior) at ``params``."""
    problem, x = _full_problem(params, counts, prior, variant, points)
    value, _ = problem.value_and_grad(x)
    return value


def score(params: Parameters, counts: OutcomeCounts,
          prior: PriorConfig = PriorConfig(),
          variant: VariantConfig = DEFAULT_VARIANT,
          points: PointsSystem = DEFAULT_POINTS) -> Score:
    """Gradient of the log likelihood over the log parameters.

    Every component is an observed-minus-expected residual; at the maximum
    they all vanish, which is the retrodictive criterion.
    """
    problem, x = _full_problem(params, counts, prior, variant, points)
    _, grad = problem.value_and_grad(x)
    m = problem.m
    pos = 0
    fields: dict = {}
    if problem.team_specific:
        fields["home_strengths"] = {t: grad[pos + k]
                                    for k, t in enumerate(problem.teams)}
        fields["away_strengths"] = {t: grad[pos + m + k]
                                    for k, t in enumerate(problem.teams)}
        pos += 2 * m
    else:
        fields["strengths"] = {t: grad[pos + k]
                               for k, t in enumerate(problem.teams)}
        pos += m
    if problem.off_def:
        fields["delta"] = {t: grad[pos + k]
                           for k, t in enumerate(problem.teams)}
        pos += m
    for name in problem.free_structural:
        fields[name] = float(grad[pos])
        pos += 1
    return Score(**fields)


def _maximize(problem: _Problem, x0: np.ndarray, gtol: float, maxiter: int,
              trace: list | None = None):
    """BFGS ascent with exact gradients; returns the final iterate.

    The quasi-Newton line search can stall from floating-point noise just
    short of the tolerance, so the optimizer is asked for a tighter target
    than is accepted and restarted with a fresh curvature estimate while
    it stalls above tolerance with budget left.
    """
    def objective(x):
        value, grad = problem.value_and_grad(x)
        return -value, -grad

    callback = None
    if trace is not None:
        callback = lambda xk: trace.append(problem.value_and_grad(xk)[0])
    if problem.n_free == 0:
        return x0, 0, 0.0, True, "nothing to optimize"
    x = np.asarray(x0, dtype=float)
    total_nit = 0
    message = ""
    grad_inf = math.inf
    for _ in range(3):
        res = minimize(objective, x, jac=True, method="BFGS",
                       callback=callback,
                       options={"gtol": 0.01 * gtol,
                                "maxiter": maxiter - total_nit})
        x = res.x
        total_nit += int(res.nit)
        message = str(res.message)
        _, grad = problem.value_and_grad(x)
        grad_inf = float(np.abs(grad).max()) if grad.size else 0.0
        if grad_inf <= gtol or total_nit >= maxiter or res.nit == 0:
            break
    if grad_inf > gtol and total_nit < maxiter:
        x, grad_inf, polish_steps = _newton_polish(
            problem, x, gtol, min(10, maxiter - total_nit))
        total_nit += polish_steps
    return x, total_nit, grad_inf, grad_inf <= gtol, message


def _newton_polish(problem: _Problem, x: np.ndarray, gtol: float,
                   max_steps: int):
    """Finish a stalled quasi-Newton run with damped Newton steps.

    The Hessian of the concave log likelihood is estimated by central
    differences of the analytic gradient; steps are halved until the
    gradient max-norm decreases. Near the optimum this converges
    quadratically where the line search has hit floating-point noise.
    """
    h = 1e-6
    n = len(x)
    _, g = problem.value_and_grad(x)
    grad_inf = float(np.abs(g).max())
    steps = 0
    for _ in range(max_steps):
        if grad_inf <= gtol:
            break
        hessian = np.zeros((n, n))
        for k in range(n):
            bump = np.zeros(n)
            bump[k] = h
            g_plus = problem.value_and_grad(x + bump)[1]
            g_minus = problem.value_and_grad(x - bump)[1]
            hessian[:, k] = (g_plus - g_minus) / (2.0 * h)
        hessian = 0.5 * (hessian + hessian.T)
        try:
            direction = np.linalg.solve(hessian, -g)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        improved = False
        for _ in range(20):
            x_next = x + scale * direction
            g_next = problem.value_and_grad(x_next)[1]
            next_inf = float(np.abs(g_next).max())
            if next_inf < grad_inf:
                x, g, grad_inf = x_next, g_next, next_inf
                improved = True
                break
            scale *= 0.5
        steps += 1
        if not improved:
            break
    return x, grad_inf, steps


def _team_results(counts: OutcomeCounts) -> dict[str, tuple[int, int, int]]:
    """Wins, draws, losses per team."""
    wdl = {team: [0, 0, 0] for team in counts.teams()}
    for (home, away, _), pc in counts.pairs.items():
        r = pc.result
        wdl[home][0] += int(r[0] + r[1])
        wdl[home][1] += int(r[2])
        wdl[home][2] += int(r[3] + r[4])
        wdl[away][0] += int(r[3] + r[4])
        wdl[away][1] += int(r[2])
        wdl[away][2] += int(r[0] + r[1])
    return {team: tuple(v) for team, v in wdl.items()}


def _diagnose(counts: OutcomeCounts, prior_weight: float) -> str:
    notes = []
    for team, (won, drawn, lost) in sorted(_team_results(counts).items()):
        if won > 0 and drawn == 0 and lost == 0:
            notes.append(f"team {team!r} is undefeated, so its strength "
                         "estimate is unbounded")
        elif lost > 0 and drawn == 0 and won == 0:
            notes.append(f"team {team!r} is winless, so its strength "
                         "estimate collapses towards zero")
    if prior_weight == 0:
        notes.append("supply a positive prior weight (for example "
                     "--prior-weight 1) to keep every strength finite")
    if not notes:
        notes.append("the likelihood surface is nearly flat; check that the "
                     "schedule connects all teams")
    return "; ".join(notes)


@dataclass(frozen=True)
class ConvergenceReport:
    """Fit diagnostics: iteration count, residual norm, points recovery."""

    iterations: int
    final_gradient_norm: float
    log_likelihood: float
    observed_points: Mapping[str, float]
    expected_points: Mapping[str, float]


@dataclass(frozen=True)
class FittedModel:
    """A converged fit: reported parameters, raw parameters, diagnostics.

    ``parameters`` follow the generalized-mean-1 convention; conversely
    ``raw_parameters`` are exactly as converged (prior gauge, or with the
    first team's log strength pinned at zero when no prior was used). All
    probabilities agree between the two, because the rescaling is a gauge
    transform.
    """

    parameters: Parameters
    raw_parameters: Parameters
    variant: VariantConfig
    prior: PriorConfig
    points_system: PointsSystem
    report: ConvergenceReport

    def to_json(self) -> str:
        doc = {
            "variant": self.variant.to_dict(),
            "prior": {"weight": self.prior.weight,
                      "dummy_strength": self.prior.dummy_strength},
            "points_system": {
                "win_points": self.points_system.win_points,
                "draw_points": self.points_system.draw_points,
                "loss_points": self.points_system.loss_points,
                "losing_bonus_margin": self.points_system.losing_bonus_margin,
                "try_bonus_threshold": self.points_system.try_bonus_threshold,
            },
            "parameters": self.parameters.to_dict(),
            "raw_parameters": self.raw_parameters.to_dict(),
            "convergence": {
                "iterations": self.report.iterations,
                "final_gradient_norm": self.report.final_gradient_norm,
                "log_likelihood": self.report.log_likelihood,
                "observed_points": dict(self.report.observed_points),
                "expected_points": dict(self.report.expected_points),
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        doc = json.loads(text)

        conv = doc["convergence"]
        return cls(
            parameters=Parameters.from_dict(doc["parameters"]),
            raw_parameters=Parameters.from_dict(doc["raw_parameters"]),
            variant=VariantConfig.from_dict(doc["variant"]),
            prior=PriorConfig(**doc["prior"]),
            points_system=PointsSystem(**doc["points_system"]),
            report=ConvergenceReport(
                iterations=conv["iterations"],
                final_gradient_norm=conv["final_gradient_norm"],
                log_likelihood=conv["log_likelihood"],
                observed_points=conv["observed_points"],
                expected_points=conv["expected_points"],
            ),
        )


def _check_divergence(normalized: Parameters, variant: VariantConfig,
                      counts: OutcomeCounts, prior_weight: float,
                      iterations: int, grad_norm: float):
    groups: list[Mapping[str, float]] = []
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        groups += [normalized.extras.home_strengths,
                   normalized.extras.away_strengths]
    else:
        groups.append(normalized.strengths)
    if variant.try_model is TryModel.OFFENSIVE_DEFENSIVE:
        groups.append(normalized.extras.delta)
    for group in groups:
        for team, value in group.items():
            if abs(math.log(value)) > _DIVERGENCE_LOG_LIMIT:
                raise NonConvergenceError(
                    f"strength estimates diverged (team {team!r} at "
                    f"{value:.3g}); " + _diagnose(counts, prior_weight),
                    best=normalized,
                    diagnosis=_diagnose(counts, prior_weight),
                    iterations=iterations,
                    gradient_norm=grad_norm,
                )


# rho_d and kappa do not absorb a strength rescale, so freezing them
# leaves the gauge direction free
_GAUGE_FIXED_NAMES = frozenset({"rho_d", "kappa"})


def _gauge_broken(variant: VariantConfig,
                  freeze: Mapping[str, float] | None) -> bool:
    """True when a frozen structural parameter pins the strength scale."""
    if not freeze:
        return False
    absorbing = set(_structural_names(variant)) - _GAUGE_FIXED_NAMES
    return bool(absorbing & set(freeze))


def fit(counts: OutcomeCounts, config: FitConfig = FitConfig()) -> FittedModel:
    """Fit the model to an outcome table.

    Raises NonConvergenceError when the gradient tolerance is not reached
    within the iteration budget or a strength estimate runs away; the
    error carries the best iterate and a diagnosis.
    """
    counts.validate()
    teams = counts.teams()
    if len(teams) < 2:
        raise ParameterError("fitting needs at least two teams' matches")
    w = config.prior.weight
    # with no prior the likelihood is scale-invariant and one strength must
    # be pinned, unless a frozen scale-absorbing parameter already fixed it
    pin = w == 0.0 and not _gauge_broken(config.variant, config.freeze)
    problem = _Problem.from_counts(
        teams, counts, config.variant, w, config.points_system,
        freeze=config.freeze, pin_first=pin,
    )
    x0 = np.zeros(problem.n_free)
    x, nit, grad_inf, converged, message = _maximize(
        problem, x0, config.gradient_tolerance, config.max_iterations)
    raw = problem.x_to_parameters(x)
    if not converged:
        diagnosis = _diagnose(counts, w)
        raise NonConvergenceError(
            f"no certified maximum after {nit} iterations (gradient "
            f"max-norm {grad_inf:.3g}, optimizer said: {message}); "
            + diagnosis,
            best=raw, diagnosis=diagnosis, iterations=nit,
            gradient_norm=grad_inf,
        )
    normalized = normalize_parameters(raw, config.variant)
    _check_divergence(normalized, config.variant, counts, w, nit, grad_inf)
    observed, expected = problem.points_totals(x)
    value, _ = problem.value_and_grad(x)
    report = ConvergenceReport(
        iterations=nit,
        final_gradient_norm=grad_inf,
        log_likelihood=float(value),
        observed_points={t: float(observed[k])
                         for k, t in enumerate(problem.teams)},
        expected_points={t: float(expected[k])
                         for k, t in enumerate(problem.teams)},
    )
    return FittedModel(
        parameters=normalized,
        raw_parameters=raw,
        variant=config.variant,
        prior=config.prior,
        points_system=config.points_system,
        report=report,
    )


def freeze_and_refit(counts: OutcomeCounts, fixed: Mapping[str, float],
                     config: FitConfig = FitConfig()) -> FittedModel:
    """Refit strengths with the given structural parameters held fixed."""
    return fit(counts, replace(config, freeze=dict(fixed)))
