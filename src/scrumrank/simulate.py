"""Season simulation and parameter-recovery studies.

Fixtures are sampled from the model's two outcome distributions with a
counter-based generator keyed by (seed, replicate, fixture index), so any
single fixture can be regenerated without replaying the season and adding
replicates never disturbs earlier ones. Each fixture consumes exactly two
uniform draws: one picks the result cell, one the try cell, both by
inverting the categorical CDF.

``fixture_rng`` is the stream of one fixture. A season does not build a
generator per fixture: ``_fixture_uniforms`` computes every fixture's
first two draws of that stream at once, bit for bit, by running
SeedSequence's hashing and one Philox block in NumPy integer arithmetic.
Philox's output is a pure function of its key and counter, and NumPy's
policy for random streams (NEP 19) keeps SeedSequence and Philox streams
fixed across releases, so the two agree on every NumPy version;
``tests/test_simulate.py`` pins them to each other with ``==``.

Every replicate of a study plays the same fixtures, so a list of
replicates is sampled as one stack: one model call gives the
probabilities, ``_fixture_uniforms`` draws every replicate's uniforms at
once, and ``OutcomeCounts.tabulate`` finds the fixture list's rows once
and counts each replicate's cells into its own table.

The recovery study closes the loop: simulate seasons at known parameters,
refit each one over one shared problem (``estimate.fit_replicates``), and
report how well the structural parameters and the strength ordering come
back. Each replicate's estimates, and so its report rows, are those
a ``fit`` of its own season gives.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

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
# fit is not called here; it stays importable as simulate.fit, a name
# the benchmark's tracer wraps
from .estimate import FitConfig, fit, fit_replicates  # noqa: F401
from .ingest import small_csv_rows
from .model import (
    DEFAULT_VARIANT,
    Parameters,
    VariantConfig,
    normalize_parameters,
    outcome_distribution,
    parameter_layout,
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
    fixtures = []
    for index, (home, away, venue) in small_csv_rows(text, FIXTURES_HEADER,
                                                     "fixtures"):
        if venue in ("", "Home"):
            where = Venue.HOME_GROUND
        elif venue == "Neutral":
            where = Venue.NEUTRAL
        else:
            raise ValueError(f"fixtures row {index}: unrecognized venue "
                             f"{venue!r}")
        fixtures.append(Fixture(home, away, where))
    return fixtures


def double_round_robin(teams: Sequence[str]) -> list[Fixture]:
    """Every ordered pair once: one home and one away leg per pair."""
    if len(set(teams)) != len(teams):
        raise ValueError("duplicate team names in the fixture list")
    return [Fixture(home, away)
            for home in teams for away in teams if home != away]


def fixture_rng(seed: int, replicate: int,
                fixture_index: int) -> np.random.Generator:
    """Independent stream for one fixture of one replicate."""
    seq = np.random.SeedSequence(seed, spawn_key=(replicate, fixture_index))
    return np.random.Generator(np.random.Philox(seq))


# SeedSequence's hash constants and pool size, as in NumPy's
# numpy/random/bit_generator.pyx.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Philox4x64-10's round multipliers and Weyl key increments (Random123),
# as columns against the (2, n) halves of the counters and keys.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                     dtype=np.uint64)
_PHILOX_ROUNDS = 10


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's split of an integer into 32-bit words, low first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


# The mixing steps below take Python ints or uint32 arrays alike.
def _hashmix(value, const: int, mult: int = _MULT_A):
    """One hash of a word; returns it with the next hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of a hashed word into a pool word."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) \
        & _MASK32
    return value ^ value >> 16


def _mulhilo64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    high = a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32)
    return a * b, high


def _fixture_uniforms(seed: int, replicate: int | Sequence[int],
                      n: int) -> np.ndarray:
    """The first two ``random()`` draws of ``fixture_rng(seed, replicate,
    i)`` for every fixture index i < n, bit for bit, as a 2 x n array; for
    a sequence of replicates, a 2 x replicates x n array.

    SeedSequence hashes its words (the seed, zero-padded to the pool size,
    then the replicate and the fixture index) into a four-word pool, with
    hash constants that do not depend on the data. So everything but the
    replicate and the fixture index is mixed once, and replicates whose
    numbers take the same count of words are mixed as one array. The pool
    gives Philox its two-word key; a fresh generator's first output is one
    Philox4x64-10 block on counter (1, 0, 0, 0), and its first two words
    become doubles as ``(word >> 11) * 2**-53``.
    """
    seed_words = _uint32_words(seed)
    if np.ndim(replicate) == 0:
        return _stream_uniforms(seed_words, _uint32_words(replicate), n)
    words = [_uint32_words(r) for r in replicate]
    uniforms = np.empty((2, len(words), n))
    for width in set(map(len, words)):
        group = [k for k, w in enumerate(words) if len(w) == width]
        # one column of words per word position, one row per replicate
        columns = np.array([words[k] for k in group], dtype=np.uint32).T
        uniforms[:, group] = _stream_uniforms(seed_words,
                                              list(columns[:, :, None]), n)
    return uniforms


def _stream_uniforms(seed_words: list[int], replicate_words: list,
                     n: int) -> np.ndarray:
    """``_fixture_uniforms`` for one replicate's words (ints), or for a
    group's words (replicates x 1 uint32 columns), shaped 2 x n or
    2 x replicates x n."""
    seed_words = seed_words + [0] * (_POOL_SIZE - len(seed_words))
    const = _INIT_A
    pool = []
    for word in seed_words[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    # fixture indices below 2**32 are one word each
    tail = (seed_words[_POOL_SIZE:] + replicate_words
            + [np.arange(n, dtype=np.uint32)])
    for word in tail:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64).ravel())
    shape = np.shape(pool[0])
    key = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32])
    # a round maps counter words (c0, c1, c2, c3) to (hi(c2 M1) ^ c1 ^ k0,
    # lo(c2 M1), hi(c0 M0) ^ c3 ^ k1, lo(c0 M0)); even holds (c0, c2) and
    # odd holds (c1, c3)
    even = np.zeros(key.shape, dtype=np.uint64)
    even[0] = 1
    odd = np.zeros(key.shape, dtype=np.uint64)
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            key += _PHILOX_W
        lo, hi = _mulhilo64(even, _PHILOX_M)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return ((np.stack([even[0], odd[0]]) >> 11) * 2.0 ** -53).reshape(
        2, *shape)


def _inverse_cdf(probs: np.ndarray, u) -> np.ndarray:
    """Cell drawn by each uniform: the count of each column's categorical
    CDF values at or below it, capped at the last cell. ``u`` has the
    columns' shape, or a leading replicate axis before it."""
    cdf = np.cumsum(probs, axis=0)
    cdf = cdf.reshape(len(cdf), *(1,) * (np.ndim(u) - cdf.ndim + 1),
                      *cdf.shape[1:])
    return np.minimum((cdf <= u).sum(axis=0), len(probs) - 1)


def sample_match(params: Parameters, fixture: Fixture,
                 rng: np.random.Generator,
                 variant: VariantConfig = DEFAULT_VARIANT,
                 points: PointsSystem = DEFAULT_POINTS
                 ) -> tuple[ResultOutcome, TryOutcome]:
    """Draw one match outcome; consumes exactly two uniforms."""
    dist = outcome_distribution(params, fixture.home_team, fixture.away_team,
                                variant=variant, venue=fixture.venue,
                                points=points)
    u_result, u_tries = rng.random(2)
    return (RESULT_ORDER[int(_inverse_cdf(dist.result, u_result))],
            TRY_ORDER[int(_inverse_cdf(dist.tries, u_tries))])


def simulate_season(params: Parameters, fixtures: Sequence[Fixture],
                    seed: int, replicate: int | Sequence[int] = 0,
                    variant: VariantConfig = DEFAULT_VARIANT,
                    points: PointsSystem = DEFAULT_POINTS) -> OutcomeCounts:
    """Sample every fixture once and tabulate the outcomes.

    One model call gives the whole season's probabilities, and each
    fixture's two uniforms are those of its own stream, so every draw
    equals ``sample_match`` with ``fixture_rng(seed, replicate, index)``.
    For a sequence of replicates, every replicate's season is drawn from
    the same probabilities and the result is their stack of tables (see
    ``OutcomeCounts``), each equal to that replicate's own season.
    """
    home = [f.home_team for f in fixtures]
    away = [f.away_team for f in fixtures]
    venues = [f.venue for f in fixtures]
    dist = outcome_distribution(params, home, away, variant, venues, points)
    u_result, u_tries = _fixture_uniforms(seed, replicate, len(fixtures))
    return OutcomeCounts.tabulate(
        home, away, [venue is Venue.HOME_GROUND for venue in venues],
        _inverse_cdf(dist.result, u_result), _inverse_cdf(dist.tries, u_tries))


def _structural_values(params: Parameters,
                       variant: VariantConfig) -> dict[str, float]:
    return {name: getattr(params, name)
            for name in parameter_layout(variant).structural}


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


# Fitted log strengths closer than this many gradient tolerances are ties.
# The fit stops once every league-points residual is within the tolerance.
# A log strength's curvature, its points variance summed over its matches
# plus the prior's, is 2 to 35 points squared in a 10-team double round
# robin, so estimates that are mathematically equal differ by less than one
# tolerance there (the final Newton step leaves about 1e-16). One league
# point moves a log strength by the inverse curvature, 0.03 or more, so at
# the default tolerance of 1e-8 the tie width of 1e-6 sits two orders of
# magnitude above the noise and four below the smallest real gap.
_TIE_TOLERANCES = 100.0


def _merge_ties(values: np.ndarray, width: float) -> np.ndarray:
    """``values`` with each run of sorted neighbours no more than ``width``
    apart replaced by the run's smallest value."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.r_[True, np.diff(ordered) > width]
    merged = np.empty_like(values)
    merged[order] = ordered[starts][np.cumsum(starts) - 1]
    return merged


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
    degenerate_spread: bool  # a table's strengths all tied, no ordering


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
    in the same convention the fitted estimates are reported in. Each of
    the variant's strength tables gets its own Spearman against the truth,
    and a replicate reports the smallest; it is degenerate when any table's
    strengths are all tied. Fitted log strengths within ``_TIE_TOLERANCES``
    gradient tolerances of each other rank as ties.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    variant = fit_config.variant
    truth = normalize_parameters(truth, variant)
    tables = parameter_layout(variant).strength_tables
    truth_tables = [getattr(truth, name) for name in tables]
    # only teams that actually play get estimates, so the recovery is
    # scored over the fixture list's team set
    teams = sorted({team for f in fixtures
                    for team in (f.home_team, f.away_team)})
    missing = [team for team in teams if team not in truth_tables[0]]
    if missing:
        raise ValueError(f"fixtures mention {missing[0]!r}, which has no "
                         "strength in the truth parameters")
    truth_orders = [np.array([table[t] for t in teams])
                    for table in truth_tables]
    tie_width = _TIE_TOLERANCES * fit_config.gradient_tolerance
    counts = simulate_season(truth, fixtures, seed, range(replicates),
                             variant, fit_config.points_system)
    results: list[ReplicateResult] = []
    for replicate, fitted in enumerate(fit_replicates(counts, fit_config)):
        if fitted is None:
            results.append(ReplicateResult(replicate, False, None, None,
                                           False))
            continue
        estimates = _structural_values(fitted, variant)
        rhos = []
        for name, truth_order in zip(tables, truth_orders):
            est_strengths = getattr(fitted, name)
            est_logs = np.log([est_strengths[t] for t in teams])
            rhos.append(spearman(truth_order,
                                 _merge_ties(est_logs, tie_width)))
        # one side's strengths all tied in some table
        degenerate = any(math.isnan(rho) for rho in rhos)
        results.append(ReplicateResult(replicate, True, estimates,
                                       None if degenerate else min(rhos),
                                       degenerate))
    return RecoveryStudy(truth=truth, variant=variant, results=tuple(results))
