"""Outcome probabilities for a fixture between two rated teams.

The model is log-linear: every outcome cell awarding (a, b) league points to
the home and away side has weight

    kappa^(a - b) * pi_i^a * pi_j^b * (per-cell propensity multipliers)

normalized independently within the result block (five cells) and the try
block (four cells). Strong teams are therefore pushed towards high-points
cells exactly in proportion to the points on offer, which is what makes the
fitted model reproduce every team's actual points total over its actual
schedule. The home-advantage factor ``kappa`` applies only at a team's own
ground; neutral fixtures drop it.

Multipliers for the default variant:

    result   narrow cells carry rho_n, the draw cell carries rho_d
    try      the both-bonus cell carries tau_b, the zero-bonus cell tau_z

Variants swap the try block (a single shared ``tau``, or per-team defensive
strengths) or the home-advantage treatment (per-team home and away strengths
instead of pi and kappa, or no home advantage at all).

One function, ``log_cell_weights``, builds the log cell weights of a block
for a whole array of fixtures at once (cells x fixtures). The fit in
``estimate``, ``outcome_distribution`` and ``expected_points`` here, PPPM in
``rank`` and season sampling in ``simulate`` all go through it; named
fixtures reach it through one mapping from ``Parameters`` to log arrays
that covers all four variants. Probabilities are normalized in the log
domain with a max shift per fixture, so enormous strength ratios cannot
overflow.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    DEFAULT_POINTS,
    RESULT_ORDER,
    TRY_ORDER,
    PointsSystem,
    Venue,
    result_points_arrays,
    try_points_arrays,
)


class ParameterError(ValueError):
    """A parameter value outside its legal domain."""


class TryModel(Enum):
    OPPOSITION_DEPENDENT = "opposition-dependent"
    OPPOSITION_INDEPENDENT = "opposition-independent"
    OFFENSIVE_DEFENSIVE = "offensive-defensive"


class HomeModel(Enum):
    SINGLE_KAPPA = "single-kappa"
    TEAM_SPECIFIC = "team-specific"
    NONE = "none"


@dataclass(frozen=True)
class VariantConfig:
    """Which try-block and home-advantage treatment the model uses."""

    try_model: TryModel = TryModel.OPPOSITION_DEPENDENT
    home_model: HomeModel = HomeModel.SINGLE_KAPPA

    def __post_init__(self):
        if (self.home_model is HomeModel.TEAM_SPECIFIC
                and self.try_model is not TryModel.OPPOSITION_DEPENDENT):
            raise ParameterError(
                "team-specific home advantage is only defined with the "
                "opposition-dependent try block"
            )

    def to_dict(self) -> dict:
        """JSON form, as stored in fitted-model and parameters files."""
        return {"try_model": self.try_model.value,
                "home_model": self.home_model.value}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "VariantConfig":
        return cls(try_model=TryModel(doc["try_model"]),
                   home_model=HomeModel(doc["home_model"]))


DEFAULT_VARIANT = VariantConfig()


@dataclass(frozen=True)
class VariantParameters:
    """Extra parameters used by the non-default variants.

    tau             shared bonus propensity (opposition-independent tries)
    delta           per-team defensive strength; offence is pi / delta
    home_strengths  per-team strength when playing at home
    away_strengths  per-team strength when playing away
    """

    tau: float | None = None
    delta: Mapping[str, float] | None = None
    home_strengths: Mapping[str, float] | None = None
    away_strengths: Mapping[str, float] | None = None


# the structural levels every parameter set carries, whatever the variant
_LEVELS = ("rho_n", "rho_d", "tau_b", "tau_z", "kappa")


@dataclass(frozen=True)
class Parameters:
    """Full parameter set: per-team strengths plus structural propensities."""

    strengths: Mapping[str, float]
    rho_n: float = 1.0
    rho_d: float = 1.0
    tau_b: float = 1.0
    tau_z: float = 1.0
    kappa: float = 1.0
    extras: VariantParameters | None = None

    def validate(self, variant: VariantConfig = DEFAULT_VARIANT):
        def _positive(name, value):
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise ParameterError(f"{name} must be positive and finite, "
                                     f"got {value!r}")

        for name in _LEVELS:
            _positive(name, getattr(self, name))
        if variant.home_model is HomeModel.TEAM_SPECIFIC:
            extras = self.extras
            if extras is None or extras.home_strengths is None \
                    or extras.away_strengths is None:
                raise ParameterError("team-specific variant needs home and "
                                     "away strengths")
            if set(extras.home_strengths) != set(extras.away_strengths):
                raise ParameterError("home and away strengths must cover the "
                                     "same teams")
            for team, value in extras.home_strengths.items():
                _positive(f"home strength of {team}", value)
            for team, value in extras.away_strengths.items():
                _positive(f"away strength of {team}", value)
        else:
            for team, value in self.strengths.items():
                _positive(f"strength of {team}", value)
        if variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
            if self.extras is None or self.extras.tau is None:
                raise ParameterError("opposition-independent variant needs tau")
            _positive("tau", self.extras.tau)
        if variant.try_model is TryModel.OFFENSIVE_DEFENSIVE:
            if self.extras is None or self.extras.delta is None:
                raise ParameterError("offensive-defensive variant needs delta")
            if set(self.extras.delta) != set(self.strengths):
                raise ParameterError("delta must cover the same teams as "
                                     "strengths")
            for team, value in self.extras.delta.items():
                _positive(f"delta of {team}", value)

    def structural(self, name: str) -> float:
        """One structural parameter by name; ``tau`` lives in the extras."""
        return self.extras.tau if name == "tau" else getattr(self, name)

    def to_dict(self) -> dict:
        """JSON form: strengths, structural levels and their logs, and the
        variant extras when present."""
        doc: dict = {"strengths": dict(self.strengths)}
        doc.update({name: getattr(self, name) for name in _LEVELS})
        doc["log"] = {name: math.log(getattr(self, name)) for name in _LEVELS}
        if self.extras is not None:
            doc["extras"] = asdict(self.extras)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Parameters":
        """Inverse of ``to_dict``; strengths may be absent (team-specific
        variant) and the logs are not read back."""
        missing = [name for name in _LEVELS if name not in doc]
        if missing:
            raise ValueError(f"schema error, missing {', '.join(missing)}")
        extras = None
        if doc.get("extras") is not None:
            extras = VariantParameters(**{
                f.name: doc["extras"].get(f.name)
                for f in fields(VariantParameters)})
        return cls(strengths=doc.get("strengths") or {},
                   extras=extras, **{name: doc[name] for name in _LEVELS})


@dataclass(frozen=True)
class OutcomeBlock:
    """One independently normalized outcome family (result or try block).

    home_points / away_points double as the strength exponents: the
    log-weight of a cell is linear in the log parameters with these
    coefficients. ``defence_exp`` is the exponent applied to both sides'
    log defensive strengths (offensive-defensive try block only).
    """

    outcomes: tuple
    home_points: np.ndarray
    away_points: np.ndarray
    structural: Mapping[str, np.ndarray]
    kappa_exp: np.ndarray
    defence_exp: np.ndarray | None = None

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)


# Cached because every outcome_distribution call needs both blocks; one
# block object is shared by all callers, so nothing may write to its arrays.
@lru_cache(maxsize=None)
def result_block(points: PointsSystem = DEFAULT_POINTS) -> OutcomeBlock:
    """Five-cell result block with narrow and draw propensities."""
    home, away = result_points_arrays(points)
    structural = {
        "rho_n": np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
        "rho_d": np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    }
    return OutcomeBlock(RESULT_ORDER, home, away, structural, home - away)


@lru_cache(maxsize=None)
def try_block(variant: VariantConfig = DEFAULT_VARIANT) -> OutcomeBlock:
    """Four-cell try block for the configured variant."""
    home, away = try_points_arrays()
    kappa_exp = home - away
    if variant.try_model is TryModel.OPPOSITION_DEPENDENT:
        structural = {
            "tau_b": np.array([1.0, 0.0, 0.0, 0.0]),
            "tau_z": np.array([0.0, 0.0, 0.0, 1.0]),
        }
        return OutcomeBlock(TRY_ORDER, home, away, structural, kappa_exp)
    if variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
        # Independent per-side coin flips: bonus weight tau * pi (times
        # kappa or 1/kappa), no-bonus weight 1. The four-cell form below is
        # the product of the two per-side normalizations.
        structural = {"tau": home + away}
        return OutcomeBlock(TRY_ORDER, home, away, structural, kappa_exp)
    # Offensive-defensive: both-bonus weight pi_i pi_j / (delta_i delta_j),
    # single-bonus weights pi, zero-bonus weight delta_i delta_j.
    return OutcomeBlock(TRY_ORDER, home, away, {}, kappa_exp,
                        defence_exp=1.0 - home - away)


def log_cell_weights(block: OutcomeBlock, log_pi_home: np.ndarray,
                     log_pi_away: np.ndarray,
                     log_structural: Mapping[str, float],
                     log_kappa_home: np.ndarray,
                     defence_sum: np.ndarray | None) -> np.ndarray:
    """Log cell weights of one block, shaped cells x fixtures.

    Every consumer of the model builds its weights here: the fit, fixture
    probabilities, PPPM and simulation. The per-fixture arguments are
    arrays: each side's log strength, log kappa times the home-ground mask
    (zero at neutral grounds and in variants without a single kappa), and
    the sum of both sides' log defensive strengths, read only by a block
    with defence exponents.
    """
    lw = block.home_points[:, None] * log_pi_home[None, :] \
        + block.away_points[:, None] * log_pi_away[None, :]
    for name, exps in block.structural.items():
        lw = lw + exps[:, None] * log_structural[name]
    lw = lw + block.kappa_exp[:, None] * log_kappa_home[None, :]
    if block.defence_exp is not None:
        lw = lw + block.defence_exp[:, None] * defence_sum[None, :]
    return lw


def _normalize_log_weights(lw: np.ndarray) -> np.ndarray:
    weights = np.exp(lw - lw.max(axis=0))
    return weights / weights.sum(axis=0)


def _team_logs(values: Mapping[str, float], teams: Sequence[str]) -> np.ndarray:
    # math.log rather than np.log: NumPy's SIMD log can differ in the last
    # bit, and sampled seasons should not depend on the CPU's vector units
    return np.array([math.log(values[team]) for team in teams], dtype=float)


def _kernel_arguments(params: Parameters, home: Sequence[str],
                      away: Sequence[str], venue: Sequence[Venue],
                      variant: VariantConfig) -> tuple:
    """Map parameters onto ``log_cell_weights``'s per-fixture arguments.

    Team-specific home advantage reads each side's strength from its own
    table; only the single-kappa variant applies kappa.
    """
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        home_side = params.extras.home_strengths
        away_side = params.extras.away_strengths
    else:
        home_side = away_side = params.strengths
    log_structural = {name: math.log(getattr(params, name))
                      for name in ("rho_n", "rho_d", "tau_b", "tau_z")}
    if params.extras is not None and params.extras.tau is not None:
        log_structural["tau"] = math.log(params.extras.tau)
    log_kappa = 0.0
    if variant.home_model is HomeModel.SINGLE_KAPPA:
        log_kappa = math.log(params.kappa)
    at_home = np.array([v is Venue.HOME_GROUND for v in venue], dtype=float)
    defence_sum = None
    if variant.try_model is TryModel.OFFENSIVE_DEFENSIVE:
        defence_sum = (_team_logs(params.extras.delta, home)
                       + _team_logs(params.extras.delta, away))
    return (_team_logs(home_side, home), _team_logs(away_side, away),
            log_structural, log_kappa * at_home, defence_sum)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Result and try probabilities for one fixture (cell vectors) or for
    many (cells x fixtures arrays)."""

    result: np.ndarray
    tries: np.ndarray

    def joint(self) -> np.ndarray:
        """5 x 4 (x fixtures) joint probabilities; the blocks are
        independent."""
        return self.result[:, None] * self.tries[None, :]

    def validate(self, tol: float = 1e-12):
        for name, probs in (("result", self.result), ("try", self.tries)):
            if np.abs(probs.sum(axis=0) - 1.0).max() > tol \
                    or (probs < 0).any():
                raise ValueError(f"{name} probabilities are not a distribution")


def outcome_distribution(params: Parameters, home: str | Sequence[str],
                         away: str | Sequence[str],
                         variant: VariantConfig = DEFAULT_VARIANT,
                         venue: Venue | Sequence[Venue] = Venue.HOME_GROUND,
                         points: PointsSystem = DEFAULT_POINTS
                         ) -> OutcomeDistribution:
    """Outcome distribution for one named fixture or for many.

    ``home`` and ``away`` are team names or equal-length sequences of
    them; ``venue`` is one Venue for every fixture or a sequence. A single
    fixture gives cell vectors, sequences give cells x fixtures arrays.
    """
    single = isinstance(home, str)
    if single:
        home, away = [home], [away]
    if isinstance(venue, Venue):
        venue = [venue] * len(home)
    if not len(home) == len(away) == len(venue):
        raise ValueError("home teams, away teams and venues must match in "
                         "length")
    args = _kernel_arguments(params, home, away, venue, variant)
    result = _normalize_log_weights(
        log_cell_weights(result_block(points), *args))
    tries = _normalize_log_weights(log_cell_weights(try_block(variant), *args))
    if single:
        return OutcomeDistribution(result[:, 0], tries[:, 0])
    return OutcomeDistribution(result, tries)


def expected_points(params: Parameters, home: str | Sequence[str],
                    away: str | Sequence[str],
                    variant: VariantConfig = DEFAULT_VARIANT,
                    venue: Venue | Sequence[Venue] = Venue.HOME_GROUND,
                    points: PointsSystem = DEFAULT_POINTS):
    """Expected league points (home, away) for named fixtures.

    Takes fixtures as ``outcome_distribution`` does; returns two floats
    for one fixture and two arrays over fixtures for sequences.
    """
    dist = outcome_distribution(params, home, away, variant, venue, points)
    res_home, res_away = result_points_arrays(points)
    try_home, try_away = try_points_arrays()
    home_exp = res_home @ dist.result + try_home @ dist.tries
    away_exp = res_away @ dist.result + try_away @ dist.tries
    if isinstance(home, str):
        return float(home_exp), float(away_exp)
    return home_exp, away_exp


def _pair(params: Parameters, pi_home: float, pi_away: float,
          defence_home: float | None = None,
          defence_away: float | None = None) -> Parameters:
    """``params`` with teams "home" and "away" at the given strengths, in
    every variant's strength tables."""
    sides = {"home": pi_home, "away": pi_away}
    extras = replace(params.extras or VariantParameters(),
                     home_strengths=sides, away_strengths=sides,
                     delta={"home": defence_home, "away": defence_away})
    return replace(params, strengths=sides, extras=extras)


def result_probs(pi_home: float, pi_away: float, params: Parameters,
                 at_home: bool = True,
                 points: PointsSystem = DEFAULT_POINTS) -> np.ndarray:
    """Result-cell probabilities in RESULT_ORDER."""
    venue = Venue.HOME_GROUND if at_home else Venue.NEUTRAL
    return outcome_distribution(_pair(params, pi_home, pi_away), "home",
                                "away", venue=venue, points=points).result


def try_probs(pi_home: float, pi_away: float, params: Parameters,
              at_home: bool = True,
              variant: VariantConfig = DEFAULT_VARIANT,
              defence_home: float | None = None,
              defence_away: float | None = None) -> np.ndarray:
    """Try-cell probabilities in TRY_ORDER."""
    if variant.try_model is TryModel.OFFENSIVE_DEFENSIVE and (
            defence_home is None or defence_away is None):
        raise ParameterError("offensive-defensive try probabilities need "
                             "both defensive strengths")
    pair = _pair(params, pi_home, pi_away, defence_home, defence_away)
    venue = Venue.HOME_GROUND if at_home else Venue.NEUTRAL
    return outcome_distribution(pair, "home", "away", variant, venue).tries


@dataclass(frozen=True)
class OutcomeRates:
    """Headline probabilities for a fixture between two mean-strength teams."""

    wide_result: float
    narrow_result: float
    draw: float
    home_away_win_ratio: float
    both_try_bonus: float
    zero_try_bonus: float


@dataclass(frozen=True)
class StructuralInterpretation:
    """Mean-strength fixture rates with and without home advantage."""

    with_home_advantage: OutcomeRates
    neutral: OutcomeRates


def _rates(rp: np.ndarray, tp: np.ndarray) -> OutcomeRates:
    home_win = rp[0] + rp[1]
    away_win = rp[3] + rp[4]
    return OutcomeRates(
        wide_result=float(rp[0] + rp[4]),
        narrow_result=float(rp[1] + rp[3]),
        draw=float(rp[2]),
        home_away_win_ratio=float(home_win / away_win),
        both_try_bonus=float(tp[0]),
        zero_try_bonus=float(tp[3]),
    )


def interpret_structural(params: Parameters,
                         points: PointsSystem = DEFAULT_POINTS
                         ) -> StructuralInterpretation:
    """What the propensity parameters say about a mean-strength fixture.

    Reported twice: once with the home-advantage factor applied and once
    for a neutral fixture, because the narrow/draw/bonus shares shift
    slightly once kappa is in play.
    """
    dist = outcome_distribution(_pair(params, 1.0, 1.0), ["home"] * 2,
                                ["away"] * 2,
                                venue=[Venue.HOME_GROUND, Venue.NEUTRAL],
                                points=points)
    return StructuralInterpretation(
        with_home_advantage=_rates(dist.result[:, 0], dist.tries[:, 0]),
        neutral=_rates(dist.result[:, 1], dist.tries[:, 1]),
    )


def gauge_transform(params: Parameters, c: float) -> Parameters:
    """Rescale all strengths by ``c`` without changing any probability.

    The propensity parameters absorb the rescaling: rho_n, tau_b (and the
    shared tau) divide by c, tau_z multiplies by c, defensive strengths
    scale by sqrt(c), and rho_d and kappa are untouched.
    """
    if not (math.isfinite(c) and c > 0):
        raise ParameterError(f"scale must be positive and finite, got {c!r}")
    extras = params.extras
    if extras is not None:
        new_extras = VariantParameters(
            tau=None if extras.tau is None else extras.tau / c,
            delta=None if extras.delta is None else
            {team: math.sqrt(c) * value for team, value in extras.delta.items()},
            home_strengths=None if extras.home_strengths is None else
            {team: c * value for team, value in extras.home_strengths.items()},
            away_strengths=None if extras.away_strengths is None else
            {team: c * value for team, value in extras.away_strengths.items()},
        )
    else:
        new_extras = None
    return Parameters(
        strengths={team: c * value for team, value in params.strengths.items()},
        rho_n=params.rho_n / c,
        rho_d=params.rho_d,
        tau_b=params.tau_b / c,
        tau_z=params.tau_z * c,
        kappa=params.kappa,
        extras=new_extras,
    )


def _strength_values(values) -> list[float]:
    if isinstance(values, Mapping):
        values = values.values()
    out = [float(v) for v in values]
    if not out:
        raise ValueError("no strengths supplied")
    for v in out:
        if v < 0 or math.isnan(v):
            raise ValueError(f"strengths must be non-negative, got {v!r}")
    return out


def generalized_mean(strengths) -> float:
    """Mean of 2 pi / (1 + pi) over the field.

    Unlike the arithmetic mean this stays finite for arbitrarily strong
    teams: each term lies in [0, 2), with an unbounded strength contributing
    exactly 2.
    """
    values = _strength_values(strengths)
    total = sum(2.0 if math.isinf(v) else 2.0 * v / (1.0 + v) for v in values)
    return total / len(values)


def solve_scale(strengths, rel_tol: float = 1e-12) -> float:
    """Positive c such that the generalized mean of c * strengths is 1.

    The mean is strictly increasing in c, from 0 towards 2 (or from the
    share of unbounded strengths), so bisection on an expanding bracket
    finds the unique root when one exists.
    """
    values = _strength_values(strengths)

    def mean_at(c: float) -> float:
        total = sum(2.0 if math.isinf(v) else 2.0 * c * v / (1.0 + c * v)
                    for v in values)
        return total / len(values)

    lo = hi = 1.0
    for _ in range(2200):
        if mean_at(lo) < 1.0:
            break
        lo /= 2.0
    else:
        raise ValueError("no positive scale achieves a generalized mean of 1; "
                         "too many unbounded strengths")
    for _ in range(2200):
        if mean_at(hi) > 1.0:
            break
        hi *= 2.0
    else:
        raise ValueError("no positive scale achieves a generalized mean of 1; "
                         "strengths are all zero or vanishing")
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def arithmetic_normalize(strengths: Mapping[str, float]) -> dict[str, float]:
    """Rescale strengths to arithmetic mean 1; fails on unbounded values."""
    values = list(strengths.values())
    if not values:
        raise ValueError("no strengths supplied")
    if any(math.isinf(v) for v in values):
        raise ValueError("an arithmetic mean of 1 is unreachable with an "
                         "unbounded strength; use the generalized mean")
    mean = sum(values) / len(values)
    if mean <= 0:
        raise ValueError("mean strength must be positive")
    return {team: value / mean for team, value in strengths.items()}


def normalize_parameters(params: Parameters,
                         variant: VariantConfig = DEFAULT_VARIANT) -> Parameters:
    """Gauge-rescale so the generalized mean of the strengths is 1."""
    if variant.home_model is HomeModel.TEAM_SPECIFIC:
        pool = list(params.extras.home_strengths.values())
        pool += list(params.extras.away_strengths.values())
        c = solve_scale(pool)
    else:
        c = solve_scale(params.strengths)
    return gauge_transform(params, c)

