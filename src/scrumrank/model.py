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

This module is the one place that knows a variant's parameter layout.
``parameter_layout`` names its per-team tables (``strengths``, or
``home_strengths`` and ``away_strengths``, plus ``delta`` when the try block
reads defensive strengths) and its structural levels: its blocks'
structural keys, plus ``kappa`` for a single home-advantage factor.
``GAUGE_POWER`` says how each table and level moves when every strength is
rescaled by the same factor. ``Parameters`` has one field for each of
those names, so a table or level is read with ``getattr`` and replaced
with ``dataclasses.replace``. Validation, the gauge transform, the fit's
parameter packing, PPPM, simulation and the CLI all loop over that
description instead of branching on the variant.

One method, ``TeamLogs.log_weights``, is the kernel: it builds the log
cell weights of a block for a whole array of fixtures at once, the cell
axis leading and the fixtures forming an array of any shape. ``TeamLogs``
holds per-team log arrays for all four variants, taken from
``Parameters`` or, in the fit, from the log parameters it ascends. The
fit in ``estimate``, ``outcome_distribution`` and ``expected_points``
here, PPPM in ``rank`` and season sampling in ``simulate`` all go
through it. Named fixtures are looked up as team positions, and PPPM
passes a column of home positions against the row of all teams, so each
chunk of the double round robin is one 2-D evaluation. Probabilities are
normalized in the log domain with a max shift per fixture, so enormous
strength ratios cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    DEFAULT_POINTS,
    PointsSystem,
    Venue,
    json_object,
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
        json_object(doc, "variant")
        return cls(try_model=TryModel(doc["try_model"]),
                   home_model=HomeModel(doc["home_model"]))


DEFAULT_VARIANT = VariantConfig()


# the structural levels every parameter set carries, whatever the variant
_LEVELS = ("rho_n", "rho_d", "tau_b", "tau_z", "kappa")
# the tables and level only some variants carry, stored under "extras" in
# the JSON form
_VARIANT_FIELDS = ("tau", "delta", "home_strengths", "away_strengths")

# The power of the strength scale c that each team table and structural
# level takes when a gauge rescale multiplies every strength by c: the
# propensities absorb it and no probability changes.
GAUGE_POWER = {
    "strengths": 1, "home_strengths": 1, "away_strengths": 1, "delta": 0.5,
    "rho_n": -1, "rho_d": 0, "tau_b": -1, "tau_z": 1, "tau": -1, "kappa": 0,
}


def _positive(name, value):
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite, "
                             f"got {value!r}")


@dataclass(frozen=True)
class Parameters:
    """Full parameter set: one field per team table and structural level.

    strengths       per-team strength pi
    rho_n, rho_d    narrow-result and draw propensities
    tau_b, tau_z    both-bonus and zero-bonus propensities
    kappa           home-advantage factor
    tau             shared bonus propensity (opposition-independent tries)
    delta           per-team defensive strength; offence is pi / delta
    home_strengths  per-team strength when playing at home
    away_strengths  per-team strength when playing away

    The last four are None unless the variant reads them.
    """

    strengths: Mapping[str, float]
    rho_n: float = 1.0
    rho_d: float = 1.0
    tau_b: float = 1.0
    tau_z: float = 1.0
    kappa: float = 1.0
    tau: float | None = None
    delta: Mapping[str, float] | None = None
    home_strengths: Mapping[str, float] | None = None
    away_strengths: Mapping[str, float] | None = None

    def validate(self, variant: VariantConfig = DEFAULT_VARIANT):
        layout = parameter_layout(variant)
        for name in dict.fromkeys(_LEVELS + layout.structural):
            _positive(name, self._required(name, variant))
        first = self._required(layout.tables[0], variant)
        for name in layout.tables:
            table = self._required(name, variant)
            if not isinstance(table, Mapping):
                raise ParameterError(f"{name} must map team names to values")
            if set(table) != set(first):
                raise ParameterError(f"{name} must cover the same teams as "
                                     f"{layout.tables[0]}")
            for team, value in table.items():
                _positive(f"{name} of {team}", value)

    def _required(self, name: str, variant: VariantConfig):
        value = getattr(self, name)
        if value is None:
            raise ParameterError(f"the {variant.try_model.value} / "
                                 f"{variant.home_model.value} variant needs "
                                 f"{name}")
        return value

    def to_dict(self) -> dict:
        """JSON form: strengths, structural levels and their logs, and the
        variant fields under "extras" when any is set."""
        doc: dict = {"strengths": dict(self.strengths)}
        doc.update({name: getattr(self, name) for name in _LEVELS})
        doc["log"] = {name: math.log(getattr(self, name)) for name in _LEVELS}
        extras = {name: getattr(self, name) for name in _VARIANT_FIELDS}
        if any(value is not None for value in extras.values()):
            doc["extras"] = extras
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Parameters":
        """Inverse of ``to_dict``; strengths may be absent (team-specific
        variant) and the logs are not read back."""
        json_object(doc, "parameters")
        missing = [name for name in _LEVELS if name not in doc]
        if missing:
            raise ValueError(f"schema error, missing {', '.join(missing)}")
        extras = doc.get("extras")
        extras = {} if extras is None else json_object(extras, "extras")
        return cls(strengths=doc.get("strengths") or {},
                   **{name: doc[name] for name in _LEVELS},
                   **{name: extras.get(name) for name in _VARIANT_FIELDS})


@dataclass(frozen=True)
class OutcomeBlock:
    """One independently normalized outcome family (result or try block).

    home_points / away_points double as the strength exponents: the
    log-weight of a cell is linear in the log parameters with these
    coefficients. ``defence_exp`` is the exponent applied to both sides'
    log defensive strengths (offensive-defensive try block only).
    """

    home_points: np.ndarray
    away_points: np.ndarray
    structural: Mapping[str, np.ndarray]
    kappa_exp: np.ndarray
    defence_exp: np.ndarray | None = None


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
    return OutcomeBlock(home, away, structural, home - away)


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
        return OutcomeBlock(home, away, structural, kappa_exp)
    if variant.try_model is TryModel.OPPOSITION_INDEPENDENT:
        # Independent per-side coin flips: bonus weight tau * pi (times
        # kappa or 1/kappa), no-bonus weight 1. The four-cell form below is
        # the product of the two per-side normalizations.
        structural = {"tau": home + away}
        return OutcomeBlock(home, away, structural, kappa_exp)
    # Offensive-defensive: both-bonus weight pi_i pi_j / (delta_i delta_j),
    # single-bonus weights pi, zero-bonus weight delta_i delta_j.
    return OutcomeBlock(home, away, {}, kappa_exp,
                        defence_exp=1.0 - home - away)


@dataclass(frozen=True)
class ParameterLayout:
    """Where a variant keeps its parameters, in the order a fit packs them.

    strength_tables  per-team strength tables, the home side's first and
                     the away side's last (one table serves both sides)
    defence          the per-team defensive table, when a block reads one
    structural       the blocks' structural keys, plus kappa for a single
                     home-advantage factor
    """

    strength_tables: tuple[str, ...]
    defence: str | None
    structural: tuple[str, ...]

    @property
    def home(self) -> str:
        return self.strength_tables[0]

    @property
    def away(self) -> str:
        return self.strength_tables[-1]

    @property
    def tables(self) -> tuple[str, ...]:
        """Every per-team table: the strength tables, then the defence."""
        return self.strength_tables + ((self.defence,) if self.defence
                                       else ())

    @classmethod
    def of(cls, variant: VariantConfig,
           blocks: Sequence[OutcomeBlock]) -> "ParameterLayout":
        """The layout of a variant whose fixtures these blocks describe."""
        if variant.home_model is HomeModel.TEAM_SPECIFIC:
            strength_tables = ("home_strengths", "away_strengths")
        else:
            strength_tables = ("strengths",)
        defended = any(block.defence_exp is not None for block in blocks)
        structural = tuple(dict.fromkeys(
            name for block in blocks for name in block.structural))
        if variant.home_model is HomeModel.SINGLE_KAPPA:
            structural += ("kappa",)
        return cls(strength_tables, "delta" if defended else None,
                   structural)


@lru_cache(maxsize=None)
def parameter_layout(variant: VariantConfig = DEFAULT_VARIANT
                     ) -> ParameterLayout:
    """The layout of a variant's own result and try blocks."""
    return ParameterLayout.of(variant, (result_block(), try_block(variant)))


def _normalize_log_weights(lw: np.ndarray) -> np.ndarray:
    """Cell probabilities from log weights, overwriting ``lw``."""
    lw -= lw.max(axis=0)
    weights = np.exp(lw, out=lw)
    weights /= weights.sum(axis=0)
    return weights


def _team_logs(values: Mapping[str, float], teams: Sequence[str]) -> np.ndarray:
    # math.log rather than np.log: NumPy's SIMD log can differ in the last
    # bit, and sampled seasons should not depend on the CPU's vector units
    return np.array([math.log(values[team]) for team in teams], dtype=float)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Result and try probabilities for one fixture (cell vectors) or for
    many (cells x fixtures arrays)."""

    result: np.ndarray
    tries: np.ndarray

    def expected_points(self, points: PointsSystem = DEFAULT_POINTS
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Expected league points (home, away), each shaped as the
        fixtures are; ``points`` must be the system the result
        probabilities were built with."""
        home, away = (
            np.tensordot(np.stack(result_points_arrays(points)),
                         self.result, 1)
            + np.tensordot(np.stack(try_points_arrays()), self.tries, 1))
        return home, away


@dataclass(frozen=True)
class TeamLogs:
    """A variant's log parameters for a list of teams, each taken once.

    ``home`` and ``away`` hold the logs of the layout's home and away
    strength tables in team order (one table serves both sides outside
    the team-specific variant), ``defence`` the defence table's logs when
    the variant reads one, and ``structural`` the log of each structural
    level. Its ``log_weights`` is the model's one kernel.
    """

    variant: VariantConfig
    home: np.ndarray
    away: np.ndarray
    defence: np.ndarray | None
    structural: Mapping[str, float]

    @classmethod
    def of(cls, params: Parameters, teams: Sequence[str],
           variant: VariantConfig = DEFAULT_VARIANT) -> "TeamLogs":
        layout = parameter_layout(variant)
        logs = {name: _team_logs(getattr(params, name), teams)
                for name in layout.tables}
        return cls(variant, logs[layout.home], logs[layout.away],
                   logs.get(layout.defence),
                   {name: math.log(getattr(params, name))
                    for name in layout.structural})

    def log_weights(self, block: OutcomeBlock, home: np.ndarray,
                    away: np.ndarray, at_home: np.ndarray | float
                    ) -> np.ndarray:
        """Log cell weights of ``block``, cells x the fixtures' shape, for
        the fixtures between the teams at positions ``home`` and ``away``,
        integer arrays that broadcast together, such as a column of home
        sides against a row of away sides. ``at_home`` broadcasts to their
        shape: 1 at the home side's ground, 0 at a neutral one. Kappa
        applies only where the layout has it, and the defences only in a
        block with defence exponents. The fit, fixture probabilities, PPPM
        and simulation all build their weights here.
        """
        log_home, log_away = self.home[home], self.away[away]
        ndim = max(np.ndim(log_home), np.ndim(log_away))

        def lead(exps):
            return exps.reshape((-1,) + (1,) * ndim)

        lw = lead(block.home_points) * log_home \
            + lead(block.away_points) * log_away
        for name, exps in block.structural.items():
            lw += lead(exps) * self.structural[name]
        lw += lead(block.kappa_exp) * (self.structural.get("kappa", 0.0)
                                       * at_home)
        if block.defence_exp is not None:
            lw += lead(block.defence_exp) * (self.defence[home]
                                             + self.defence[away])
        return lw

    def distribution(self, home: np.ndarray, away: np.ndarray,
                     at_home: np.ndarray | float,
                     points: PointsSystem = DEFAULT_POINTS
                     ) -> OutcomeDistribution:
        """Outcome distribution of the fixtures that ``log_weights``
        takes; its arrays are cells x their shape."""
        return OutcomeDistribution(*(
            _normalize_log_weights(self.log_weights(block, home, away,
                                                    at_home))
            for block in (result_block(points), try_block(self.variant))))


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
    position = {team: k for k, team in enumerate(dict.fromkeys([*home,
                                                               *away]))}
    dist = TeamLogs.of(params, list(position), variant).distribution(
        np.array([position[team] for team in home], dtype=np.intp),
        np.array([position[team] for team in away], dtype=np.intp),
        np.array([v is Venue.HOME_GROUND for v in venue], dtype=float),
        points)
    if single:
        return OutcomeDistribution(dist.result[:, 0], dist.tries[:, 0])
    return dist


def expected_points(params: Parameters, home: str | Sequence[str],
                    away: str | Sequence[str],
                    variant: VariantConfig = DEFAULT_VARIANT,
                    venue: Venue | Sequence[Venue] = Venue.HOME_GROUND,
                    points: PointsSystem = DEFAULT_POINTS):
    """Expected league points (home, away) for named fixtures.

    Takes fixtures as ``outcome_distribution`` does; returns two floats
    for one fixture and two arrays over fixtures for sequences.
    """
    home_exp, away_exp = outcome_distribution(
        params, home, away, variant, venue, points).expected_points(points)
    if isinstance(home, str):
        return float(home_exp), float(away_exp)
    return home_exp, away_exp


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
    pair = replace(params, strengths={"home": 1.0, "away": 1.0})
    dist = outcome_distribution(pair, ["home"] * 2, ["away"] * 2,
                                venue=[Venue.HOME_GROUND, Venue.NEUTRAL],
                                points=points)
    return StructuralInterpretation(
        with_home_advantage=_rates(dist.result[:, 0], dist.tries[:, 0]),
        neutral=_rates(dist.result[:, 1], dist.tries[:, 1]),
    )


def _rescaled(value: float, power: float, c: float) -> float:
    """``value * c ** power`` for the powers in GAUGE_POWER."""
    if power < 0:
        return value / c ** -power
    if power == 0.5:
        return math.sqrt(c) * value
    return c ** power * value


def gauge_transform(params: Parameters, c: float,
                    variant: VariantConfig = DEFAULT_VARIANT) -> Parameters:
    """Rescale all strengths by ``c`` without changing any probability.

    Each team table and structural level of the variant's layout moves by
    ``c`` to its power in GAUGE_POWER: rho_n, tau_b and the shared tau
    divide by c, tau_z multiplies by c, defensive strengths scale by
    sqrt(c), and rho_d and kappa are untouched. Levels outside the layout
    stay as they are.
    """
    if not (math.isfinite(c) and c > 0):
        raise ParameterError(f"scale must be positive and finite, got {c!r}")
    layout = parameter_layout(variant)
    moved = {}
    for name in layout.tables + layout.structural:
        value, power = getattr(params, name), GAUGE_POWER[name]
        if power == 0:
            continue
        if isinstance(value, Mapping):
            moved[name] = {team: _rescaled(v, power, c)
                           for team, v in value.items()}
        else:
            moved[name] = _rescaled(value, power, c)
    return replace(params, **moved)


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
    values = np.array([_strength_values(strengths)])
    with np.errstate(over="ignore", invalid="ignore"):
        return _generalized_means(values, np.isinf(values))[0]


def _generalized_means(values: np.ndarray, unbounded: np.ndarray | None,
                       c=1.0) -> list[float]:
    """Mean of 2 w / (1 + w) along each row of w = c * values, a
    fields x strengths array, with 2 where ``unbounded`` (None: nowhere).
    Each row's terms are added by the builtin ``sum`` as Python floats."""
    w = c * values
    terms = 2.0 * w / (1.0 + w)
    if unbounded is not None:
        terms[unbounded] = 2.0
    n = terms.shape[1]
    return [sum(row) / n for row in terms.tolist()]


# bisection stops once each bracket is this narrow relative to its low end
_SCALE_TOLERANCE = 1e-12


def _solve_scales(values: np.ndarray) -> list[float]:
    """``solve_scale`` for each row of a fields x strengths array.

    One generalized mean per step covers every row, while each row keeps
    its own bracket and stops moving once it has found its bracket or its
    root, so each scale is the one its field finds alone.
    """
    unbounded = np.isinf(values)
    if not unbounded.any():
        unbounded = None

    def means(c: np.ndarray) -> np.ndarray:
        return np.array(_generalized_means(values, unbounded, c[:, None]))

    lo, hi = np.ones(len(values)), np.ones(len(values))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2200):
            moving = ~(means(lo) < 1.0)
            if not moving.any():
                break
            lo[moving] /= 2.0
        else:
            raise ValueError("no positive scale achieves a generalized mean "
                             "of 1; too many unbounded strengths")
        for _ in range(2200):
            moving = ~(means(hi) > 1.0)
            if not moving.any():
                break
            hi[moving] *= 2.0
        else:
            raise ValueError("no positive scale achieves a generalized mean "
                             "of 1; strengths are all zero or vanishing")
        while True:
            wide = hi - lo > _SCALE_TOLERANCE * lo
            if not wide.any():
                break
            mid = 0.5 * (lo + hi)
            below = means(mid) < 1.0
            np.copyto(lo, mid, where=wide & below)
            np.copyto(hi, mid, where=wide & ~below)
    return (0.5 * (lo + hi)).tolist()


def solve_scale(strengths) -> float:
    """Positive c such that the generalized mean of c * strengths is 1.

    The mean is strictly increasing in c, from 0 towards 2 (or from the
    share of unbounded strengths), so bisection on an expanding bracket
    finds the unique root when one exists.
    """
    values = np.array([_strength_values(strengths)])
    return _solve_scales(values)[0]


def normalize_parameters(params: Parameters,
                         variant: VariantConfig = DEFAULT_VARIANT) -> Parameters:
    """Gauge-rescale so the generalized mean of the strengths, over every
    strength table of the variant pooled, is 1."""
    (normalized,) = normalize_stack([params], variant)
    return normalized


def normalize_stack(stack: Sequence[Parameters],
                    variant: VariantConfig = DEFAULT_VARIANT
                    ) -> list[Parameters]:
    """``normalize_parameters`` of each parameter set of a stack over the
    same teams, with every gauge scale from one bisection."""
    if not stack:
        return []
    tables = parameter_layout(variant).strength_tables
    pools = np.array([
        _strength_values([value for name in tables
                          for value in getattr(params, name).values()])
        for params in stack])
    return [gauge_transform(params, c, variant)
            for params, c in zip(stack, _solve_scales(pools))]
