"""Maximum-likelihood fitting of the outcome model.

The likelihood factorizes over ordered (home, away, venue) triples, and
each triple's result and try blocks are independently normalized
categorical distributions whose log cell weights are linear in a few local
features: the two sides' log strengths and log defences, the free
propensity logs and log kappa. The weights come from the model's one
kernel, ``model.TeamLogs.log_weights``, which a fit runs once per block
for each likelihood evaluation and nowhere else: the Hessian and the
closing points totals reuse the cell probabilities of the evaluation at
their iterate. A problem lists each block's features once, in a table of
their cell exponents and their parameters' slots per pair.
The gradient in log space is the first moment of observed minus expected
counts over that table: per-team league points for the strengths, the
narrow/draw/bonus totals for the propensity parameters, and the home
points edge for the home-advantage factor. Convergence is certified by
driving those retrodictive residuals to zero, which is the model's
defining property: every team's expected points over its actual schedule,
the same moment of the expected counts, equal the points it actually took.

A symmetric prior keeps every strength finite: each team notionally plays
a fixed reference opponent of strength 1 twice, winning one match worth a
single point and losing the other, with both matches weighted by a
continuous ``weight``. With weight zero the likelihood is scale-invariant,
so one log strength is pinned at zero during optimization; either way the
reported parameters are gauge-rescaled afterwards so the generalized mean
of the strengths is 1.

The concave log likelihood is maximized by damped Newton ascent on the
log parameters, starting from all log parameters at zero. The model is a
log-linear exponential family, so the exact Hessian is minus each pair's
count-weighted covariance of its local features under the same cell
probabilities the gradient uses, plus the prior's diagonal. A handful of
steps reach the gradient tolerance.

The Hessian comes in two parts. A plan, built once per problem from the
feature tables, holds what the parameters do not change: the products of
the features taken two at a time, an elimination order, the factor's
panels and the place in those panels of every per-pair covariance entry.
The matrix is symmetric, so only the feature pairs on or right of the
diagonal are formed, and each entry is placed at whichever of its row and
column comes first in elimination order. Every array of the plan grows
with the played pairs. Each step then reuses the cell probabilities of the
evaluation at its iterate, forms the covariances with one small matrix
product per block in scratch space the plan holds, subtracts the mean
products there in place, sums them straight into the panels with one
bincount per block and mirrors the panels' diagonal blocks.

A team's parameters interact only with those of the opponents it played,
so outside the few structural parameters (the border) the Hessian is the
sparse pattern of the schedule graph. The plan orders the team parameters
by breadth-first level sets of that graph (Cuthill & McKee 1969), which
makes the matrix block tridiagonal with the border appended, and each step
solves for its direction by block elimination (George & Liu 1981). Minus
the Hessian is stored as that book stores it, one panel per elimination
block: the block's rows over its own columns, the next block's and the
border's. Each block is one small dense solve against its coupling, whose
Schur update runs inside the next panel and the border's rows, so the
cost grows with the number of teams and the size of a level rather than
with the cube of the parameter count, and the memory with the played
pairs. With one strength table, a double round robin has a single level
beyond its first team and plans one block, which is one dense solve.

A problem may hold a stack of outcome tables over the same pairs, such as
the replicates of a recovery study. Layout, features and plan are then
built once, and each replicate is ascended alone on a copy that shares them
(``_Problem.replicate``), so its iterates are those of fitting its table
alone.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    DEFAULT_POINTS,
    OutcomeCounts,
    PointsSystem,
    json_object,
    team_records,
)
from .model import (
    DEFAULT_VARIANT,
    GAUGE_POWER,
    OutcomeBlock,
    ParameterLayout,
    Parameters,
    ParameterError,
    TeamLogs,
    VariantConfig,
    _positive,
    normalize_parameters,
    normalize_stack,
    parameter_layout,
    result_block,
    try_block,
)

# A normalized log strength beyond this is treated as a diverging estimate:
# it corresponds to a strength ratio above e^12, far outside anything a
# finite season can support.
_DIVERGENCE_LOG_LIMIT = 12.0

# A fit converges once the gradient's max-norm is at most GRADIENT_TOLERANCE,
# and gives up after MAX_ITERATIONS Newton steps.
GRADIENT_TOLERANCE = 1e-8
MAX_ITERATIONS = 500


def _log_normalizer(lw: np.ndarray) -> np.ndarray:
    """Log of the column sums of ``exp(lw)``, shifted by each column's max.

    A column whose max is not finite is shifted by zero, so an all ``-inf``
    column gives ``-inf``. A plain NumPy reduction is used because this runs
    twice per likelihood evaluation on small blocks, where the per-call
    overhead of a general-purpose log-sum-exp dominates the arithmetic.
    """
    top = lw.max(axis=0, initial=-np.inf)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(lw - top).sum(axis=0))


def _logistic(a: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-a))`` without overflow for large ``|a|``."""
    return np.exp(-np.logaddexp(0.0, -a))


def _max_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


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

    def __post_init__(self):
        if not (isinstance(self.weight, (int, float))
                and not isinstance(self.weight, bool)
                and math.isfinite(self.weight) and self.weight >= 0):
            raise ParameterError(f"prior weight must be a non-negative "
                                 f"number, got {self.weight!r}")


@dataclass(frozen=True)
class FitConfig:
    variant: VariantConfig = DEFAULT_VARIANT
    prior: PriorConfig = PriorConfig()
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


class _Features:
    """One outcome block's local features, as ``_Problem._features``
    lists them.

    ``exps`` holds each feature's cell exponents (cells x k) and ``slots``
    its parameter's slot at every pair (k x pairs); a feature that reaches
    no parameter at a pair (log kappa at a neutral ground) takes the slot
    past the last one there. The team features come first: each is one
    per-team table's log at one side of the pair, and ``team`` gives its
    (table, side), side 0 for the home side's team and 1 for the away
    side's. The structural features follow.
    """

    def __init__(self, exps: np.ndarray, slots: np.ndarray,
                 team: tuple[tuple[int, int], ...]):
        self.exps, self.slots, self.team = exps, slots, team


@dataclass(frozen=True)
class _HessianPlan:
    """What ``_Problem.factor`` needs that does not depend on ``x``.

    ``order`` lists the x index of each row in elimination order, and
    elimination block ``b`` is rows ``bounds[b]:bounds[b + 1]`` of that
    order; ``border`` is the first structural row, the last block's rows
    from it on are the border. Block ``b`` keeps its rows of minus the
    Hessian in a panel, ``panels[b]`` = (offset, rows, width) of one flat
    buffer of ``size`` entries: the rows over their own columns, the next
    block's and the border's (the last block's panel is its rows over its
    own columns). The panels grow with the played pairs.

    The Hessian is symmetric, so each of its entries has one place in the
    buffer, in the row of whichever of its row and column comes first in
    elimination order. Each outcome block has its feature table's cell
    exponents (cells x k), the products of each feature pair on or right of
    the diagonal, row by row (cells x k(k+1)/2), and each pair's place at
    every pair of teams (k(k+1)/2 x pairs, flattened), ``targets``; an
    entry of the pinned log, or of log kappa where it reaches no parameter,
    is dropped at place ``size``. Both orders of two features reach the
    same place, so the lower feature pairs are left out. ``prior_places``
    are the places of the strengths' diagonal. A block's own columns form a
    square that its solve reads whole: ``upper`` lists the places above the
    diagonal inside those squares, and ``lower`` the places of their
    mirrors below it, which a factor copies them to. ``reaches`` hold, for
    each block but the last, the rows its coupling columns belong to.

    ``scratch`` is working space for ``_Problem.factor``: room for the
    k(k+1)/2 x pairs covariances of the widest block. Every step reuses it,
    so a step allocates no array of that size. Arrays that large, allocated
    and freed at every step, can go back to the system each time and have
    their pages faulted in again at the next step. The replicates that
    share a plan are fitted one at a time, so they share the scratch too.
    """

    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    order: np.ndarray
    bounds: np.ndarray
    border: int
    panels: list[tuple[int, int, int]]
    size: int
    prior_places: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    reaches: list[np.ndarray]
    scratch: np.ndarray


class _BlockFactor:
    """Minus the Hessian at one iterate, held in its plan's panels: the
    flat ``buffer`` that ``_HessianPlan.panels`` divides.

    ``solve`` runs the block elimination of George & Liu (1981) on a copy of
    the panels, so one factor serves any number of solves.
    """

    def __init__(self, plan: _HessianPlan, buffer: np.ndarray):
        self.plan, self.buffer = plan, buffer

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``d`` with ``-H d = b``, for one right-hand side (n) or a matrix
        of them (n x k).

        Each block but the last solves its own columns against its coupling
        to the next block and the border, stacked with its right-hand
        sides; the coupling then updates the next block's panel, the
        border's rows and the right-hand sides they hold. The last block,
        which holds the border, is solved directly and the earlier ones are
        back-substituted. With one block this is one dense solve.
        ``np.linalg.LinAlgError`` means a singular block.
        """
        plan = self.plan
        bounds, n = plan.bounds, len(plan.order)
        buffer = self.buffer.copy()
        panels = [buffer[at:at + rows * width].reshape(rows, width)
                  for at, rows, width in plan.panels]
        last = panels[-1]
        tail = plan.border - bounds[-2]  # the border's first row in last
        rhs = np.asarray(b, dtype=float)[plan.order]
        stacked = rhs.reshape(n, -1)  # a view: updates reach rhs
        steps = []
        for block, reach in enumerate(plan.reaches):
            lo, hi = bounds[block], bounds[block + 1]
            own = hi - lo
            coupling = panels[block][:, own:]
            width = coupling.shape[1]
            solved = np.linalg.solve(panels[block][:, :own], np.concatenate(
                [coupling, stacked[lo:hi]], axis=1))
            update = coupling.T @ solved
            if block + 2 == len(panels):  # the next panel is the last
                last -= update[:, :width]
            else:
                ahead = bounds[block + 2] - hi
                following = panels[block + 1]
                following[:, :ahead] -= update[:ahead, :ahead]
                following[:, following.shape[1] - width + ahead:] -= \
                    update[:ahead, ahead:width]
                last[tail:, tail:] -= update[ahead:, ahead:width]
            stacked[reach] -= update[:, width:]
            steps.append((lo, hi, reach, solved[:, :width],
                          solved[:, width:].reshape(rhs[lo:hi].shape)))
        lo = bounds[-2]
        y = np.empty_like(rhs)
        y[lo:] = np.linalg.solve(last, rhs[lo:])
        for lo, hi, reach, coupled, part in reversed(steps):
            y[lo:hi] = part - coupled @ y[reach]
        d = np.empty_like(y)
        d[plan.order] = y
        return d


def _elimination_blocks(edges: np.ndarray, n: int,
                        n_border: int) -> tuple[np.ndarray, np.ndarray]:
    """Elimination order and block bounds for a symmetric n x n Hessian
    whose last ``n_border`` parameters (the border) may couple to every
    other one.

    The other parameters form a graph whose ``edges`` are the codes
    lo * n + hi of the entries that join two of them, lo < hi, each edge
    given once or more. Its breadth-first level sets, each search started
    from the lowest unvisited parameter so that every component is covered
    in turn, are merged in sequence until a block holds at least
    ``n_border`` parameters; the border joins the last block. An edge of a
    breadth-first search joins the same or adjacent levels, so outside the
    border the matrix is block tridiagonal in this order. Parameters keep
    their x order within a block.

    The edges are mirrored, sorted, held once each in compressed-row form,
    and each level expands only its own rows, so the search reads every
    edge once.
    """
    n_graph = n - n_border
    lo, hi = np.divmod(edges, n)
    codes = np.sort(np.concatenate([edges, hi * n + lo]))
    rows, indices = np.divmod(codes[np.diff(codes, prepend=-1) != 0], n)
    indptr = np.searchsorted(rows, np.arange(n_graph + 1))
    visited = np.zeros(n_graph, dtype=bool)
    levels = []
    while not visited.all():
        level = np.array([np.argmin(visited)])
        while level.size:
            visited[level] = True
            levels.append(level)
            first = indptr[level]
            count = indptr[level + 1] - first
            runs = np.repeat(first - np.cumsum(count) + count, count)
            reached = indices[runs + np.arange(len(runs))]
            level = np.sort(reached[~visited[reached]])
            level = level[np.diff(level, prepend=-1) != 0]
    blocks, pending = [], []
    for level in levels:
        pending.append(level)
        if sum(map(len, pending)) >= n_border:
            blocks.append(np.sort(np.concatenate(pending)))
            pending = []
    if pending:
        blocks.append(np.sort(np.concatenate(pending)))
    order = np.concatenate(blocks + [np.arange(n_graph, n)])
    sizes = [len(block) for block in blocks[:-1]]
    return order, np.array([0, *np.cumsum(sizes, dtype=int), n])


def _panels(order: np.ndarray, bounds: np.ndarray, border: int
            ) -> tuple[list[tuple[int, int, int]], np.ndarray, np.ndarray,
                       np.ndarray, np.ndarray, list[np.ndarray]]:
    """The panels, mirror and reaches of ``_HessianPlan`` for a symmetric
    n x n matrix eliminated in ``order`` by the blocks at ``bounds``, whose
    rows from ``border`` on are the border, and the rule that places its
    entries.

    The rule comes as two arrays by rank in elimination order, ``start``
    and ``end``, each with one more entry for rank n that any row past the
    last may read. An entry at ranks r <= c sits at ``start[r] + c`` when
    c is a column of r's block or the next one, and at ``end[r] + c`` when
    c is a border column; in the last block the two agree.
    """
    n = len(order)
    lows, sizes = bounds[:-1], np.diff(bounds)
    tops = np.append(bounds[2:], n)  # where each block's reach ends
    widths = tops - lows + np.where(tops < n, n - border, 0)
    offsets = np.concatenate([[0], np.cumsum(sizes * widths)])
    lo, width = np.repeat(lows, sizes), np.repeat(widths, sizes)
    start = np.append(np.repeat(offsets[:-1], sizes)
                      + (np.arange(n) - lo) * width - lo, 0)
    end = start + np.append(lo + width - n, 0)
    panels = list(zip(offsets[:-1].tolist(), sizes.tolist(),
                      widths.tolist()))
    upper, lower = [], []
    for at, rows, span in panels:
        row, col = np.triu_indices(rows, 1)
        upper.append(at + row * span + col)
        lower.append(at + col * span + row)
    reaches = [np.arange(hi, n) if top == n
               else np.concatenate([np.arange(hi, top), np.arange(border, n)])
               for hi, top in zip(bounds[1:-1], tops[:-1])]
    return (panels, start, end, np.concatenate(lower), np.concatenate(upper),
            reaches)


class _Problem:
    """Vectorized likelihood and gradient over a fixed team indexing.

    The pairs are parallel arrays: home and away team indices and a home
    ground mask (1 at the home side's ground, 0 at a neutral one). Each
    block comes with its observed cell counts, cells x pairs, or
    replicates x cells x pairs for a stack of tables over the same pairs,
    whose replicates are evaluated through ``replicate``. ``x`` holds
    the log parameters in the layout's order: every per-team table in
    turn, less the pinned first entry, then the free structural levels.
    """

    def __init__(self, teams: Sequence[str], i_idx: np.ndarray,
                 j_idx: np.ndarray, home_mask: np.ndarray,
                 blocks: Sequence[tuple[OutcomeBlock, np.ndarray]],
                 variant: VariantConfig, prior_weight: float,
                 freeze: Mapping[str, float] | None = None,
                 pin_first: bool = False):
        self.teams = list(teams)
        self.variant = variant
        self.m = len(self.teams)
        self.w = float(prior_weight)
        self.i_idx, self.j_idx, self.home_mask = i_idx, j_idx, home_mask
        self.block_data = [(block, obs, obs.sum(axis=-2))
                           for block, obs in blocks]
        self.layout = ParameterLayout.of(variant, [b for b, _ in blocks])
        names = self.layout.structural
        freeze = dict(freeze or {})
        unknown = set(freeze) - set(names)
        if unknown:
            raise ParameterError(
                f"cannot freeze {sorted(unknown)}; this variant's structural "
                f"parameters are {list(names)}"
            )
        for name, value in freeze.items():
            _positive(f"frozen {name}", value)
        self.frozen_logs = {name: math.log(value)
                            for name, value in freeze.items()}
        self.frozen_levels = dict(freeze)
        self.free_structural = [n for n in names if n not in freeze]
        self.pinned = 1 if pin_first else 0
        self.n_strength = len(self.layout.strength_tables) * self.m
        self.n_team = len(self.layout.tables) * self.m
        self.n_free = self.n_team - self.pinned + len(self.free_structural)
        self._table: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._plan: _HessianPlan | None = None

    @classmethod
    def from_counts(cls, counts: OutcomeCounts, variant, prior_weight,
                    points, freeze=None, pin_first=False) -> "_Problem":
        """The result and try blocks over the table's pairs and teams; a
        stack of tables gives one replicate per table."""
        return cls(counts.teams, counts.home, counts.away,
                   counts.home_ground.astype(float),
                   [(result_block(points), _cells_by_pairs(counts.result)),
                    (try_block(variant), _cells_by_pairs(counts.tries))],
                   variant, prior_weight, freeze, pin_first)

    def replicate(self, r: int) -> "_Problem":
        """The problem of table ``r`` of a stack alone. It shares this
        problem's layout, feature tables and Hessian plan, which are built
        here once."""
        self._hessian_plan()
        one = copy.copy(self)
        one.block_data = [(block, obs[r], mvec[r])
                          for block, obs, mvec in self.block_data]
        return one

    # ---- parameter packing ----

    def _tables(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each per-team table's slice of ``flat``, by table name."""
        return dict(zip(self.layout.tables,
                        flat.reshape(len(self.layout.tables), self.m)))

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
        """Every per-team log in x's layout, the pinned one included, and
        the log of every structural level."""
        n = self.n_team - self.pinned
        flat = np.zeros(self.n_team)
        flat[self.pinned:] = x[:n]
        slog = dict(self.frozen_logs)
        slog.update(zip(self.free_structural, x[n:]))
        return flat, slog

    def pack(self, params: Parameters) -> np.ndarray:
        """Inverse of unpack for a full (unpinned) layout, over the
        problem's teams alone; the first that ``params`` lack is named."""
        if self.pinned:
            raise ParameterError("cannot pack parameters into a pinned layout")
        missing = [t for t in self.teams
                   if t not in getattr(params, self.layout.home)]
        if missing:
            raise ParameterError(f"counts mention {missing[0]!r}, which has "
                                 "no strength in the parameters")
        parts = [math.log(getattr(params, name)[t])
                 for name in self.layout.tables for t in self.teams]
        parts += [math.log(getattr(params, name))
                  for name in self.free_structural]
        return np.array(parts)

    def x_to_parameters(self, x: np.ndarray) -> Parameters:
        flat, slog = self.unpack(x)
        values: dict = {
            name: {t: math.exp(logs[k]) for k, t in enumerate(self.teams)}
            for name, logs in self._tables(flat).items()}
        values.update({name: math.exp(slog[name])
                       for name in self.free_structural})
        values.update(self.frozen_levels)  # keep frozen values exact
        return replace(Parameters(strengths={}), **values)

    # ---- likelihood ----

    def _likelihood(self, x: np.ndarray) -> tuple[float, np.ndarray, list]:
        """Log likelihood at ``x``, every per-team log (the pinned one too),
        and each block's log weights (cells x pairs) and log normalizers."""
        flat, slog = self.unpack(x)
        tables = self._tables(flat)
        logs = TeamLogs(self.variant, tables[self.layout.home],
                        tables[self.layout.away],
                        tables.get(self.layout.defence), slog)
        value, weights = 0.0, []
        for block, obs, mvec in self.block_data:
            lw = logs.log_weights(block, self.i_idx, self.j_idx,
                                  self.home_mask)
            log_z = _log_normalizer(lw)
            value += float((obs * lw).sum() - mvec @ log_z)
            weights.append((lw, log_z))
        if self.w > 0:
            alpha = flat[:self.n_strength]
            value += float(self.w * (alpha - 2.0
                                     * np.logaddexp(0.0, alpha)).sum())
        return value, flat, weights

    def _features(self) -> list[_Features]:
        """Each block's features, built on first use and kept.

        The team features are each side's log strength and both log
        defences; the structural ones are the free structural logs and log
        kappa. The slots run over every per-team log (the pinned one too),
        the free structural logs and a slot for no parameter, which log
        kappa takes at a neutral ground.
        """
        if self._table is not None:
            return self._table
        layout = self.layout
        tables = {name: t for t, name in enumerate(layout.tables)}
        struct = {name: self.n_team + k
                  for k, name in enumerate(self.free_structural)}
        sides = (self.i_idx, self.j_idx)
        self._table = []
        for block, _, _ in self.block_data:
            team = [(block.home_points, tables[layout.home], 0),
                    (block.away_points, tables[layout.away], 1)]
            if block.defence_exp is not None:
                team += [(block.defence_exp, tables[layout.defence], side)
                         for side in (0, 1)]
            features = [(exps, table * self.m + sides[side])
                        for exps, table, side in team]
            features += [(exps, np.full(len(self.i_idx), struct[name]))
                         for name, exps in block.structural.items()
                         if name in struct]
            if "kappa" in struct:
                # the home mask is 0 or 1
                features.append((block.kappa_exp,
                                 np.where(self.home_mask > 0, struct["kappa"],
                                          self.n_team + len(struct))))
            self._table.append(_Features(
                np.stack([f[0] for f in features], axis=1),
                np.stack([f[1] for f in features]),
                tuple((table, side) for _, table, side in team)))
        return self._table

    def _first_moments(self, cells: Sequence[np.ndarray]) -> np.ndarray:
        """Per slot, the sum over blocks, pairs and cells of the feature
        exponents times ``cells``, a cells x pairs array per block."""
        sums = np.zeros(self.n_team + len(self.free_structural) + 1)
        for features, per_cell in zip(self._features(), cells):
            sums += np.bincount(features.slots.ravel(),
                                (features.exps.T @ per_cell).ravel(),
                                len(sums))
        return sums

    def evaluate(self, x: np.ndarray
                 ) -> tuple[float, np.ndarray, list[np.ndarray]]:
        """Log likelihood, its gradient and each block's cell probabilities
        at ``x``; ``factor`` takes the probabilities for the same ``x``.
        The gradient is the first moment of the features' observed minus
        expected counts, plus the prior's."""
        value, flat, weights = self._likelihood(x)
        probs = [np.exp(lw - log_z[None, :]) for lw, log_z in weights]
        g = self._first_moments([obs - mvec[None, :] * p for (_, obs, mvec), p
                                 in zip(self.block_data, probs)])
        if self.w > 0:
            g[:self.n_strength] += self.w * (
                1.0 - 2.0 * _logistic(flat[:self.n_strength]))
        return value, g[self.pinned:-1], probs

    def _hessian_plan(self) -> _HessianPlan:
        """The part of the Hessian that does not depend on ``x``.

        Built on first use and kept for the problem's lifetime; a fit that
        stops before its first step never builds it. Every array it builds
        grows with the played pairs.

        The elimination order comes from the entries that two team features
        of a block join at each pair. A feature's x index is -1 for the
        pinned log and n where it reaches no parameter; both rank n in that
        order, and an entry whose column ranks n is dropped. An entry of two
        team features is placed from its row's start, as the matrix is
        block tridiagonal, and any other from its row's end, where the
        border columns close the row.
        """
        if self._plan is not None:
            return self._plan
        n, pinned = self.n_free, self.pinned
        border = n - len(self.free_structural)
        team_x, joined = {}, set()  # by (table, side)
        for features in self._features():
            team_x.update(zip(features.team, features.slots - pinned))
            joined.update(itertools.combinations(features.team, 2))
        edges = []
        for a, b in joined:
            lo = np.minimum(team_x[a], team_x[b])
            hi = np.maximum(team_x[a], team_x[b])
            edges.append((lo * n + hi)[lo >= 0])
        order, bounds = _elimination_blocks(np.concatenate(edges), n,
                                            n - border)
        panels, start, end, lower, upper, reaches = _panels(order, bounds,
                                                            border)
        at, rows, width = panels[-1]
        size = at + rows * width
        rank = np.full(n + 1, n)
        rank[order] = np.arange(n)
        blocks = []
        for features in self._features():
            ranks = rank[features.slots - pinned]
            fa, fb = np.triu_indices(len(ranks))
            targets = np.empty((len(fa), len(self.i_idx)), dtype=np.intp)
            for a, b, out in zip(fa.tolist(), fb.tolist(), targets):
                row = np.minimum(ranks[a], ranks[b])
                col = np.maximum(ranks[a], ranks[b])
                rule = start if b < len(features.team) else end
                np.add(rule[row], col, out=out)
                out[col == n] = size
            blocks.append((features.exps, features.exps[:, fa]
                           * features.exps[:, fb], targets.ravel()))
        widest = max(products.shape[1] for _, products, _ in blocks)
        strengths = rank[:self.n_strength - pinned]
        self._plan = _HessianPlan(
            blocks, order, bounds, border, panels, size,
            start[strengths] + strengths, lower, upper, reaches,
            np.empty(widest * len(self.i_idx)))
        return self._plan

    def factor(self, x: np.ndarray,
               probs: Sequence[np.ndarray]) -> _BlockFactor:
        """Minus the Hessian at ``x`` in the plan's panels.

        A pair's block adds the count-weighted covariance of its features
        under its cell probabilities: ``probs``, as ``evaluate`` returns
        them at the same ``x``.

        One matrix product per block forms the second moments of the
        feature pairs on and right of the diagonal in the plan's scratch,
        and each feature's row of mean products is subtracted there in
        place; one bincount sums the block's covariance entries into their
        places. The prior adds its curvature to the strengths' diagonal,
        and each block's square is mirrored below its diagonal.
        """
        plan = self._hessian_plan()
        buffer = None
        for (_, _, mvec), (exps, products, targets), p in zip(
                self.block_data, plan.blocks, probs):
            cov = plan.scratch[:products.shape[1] * p.shape[1]]
            _covariances(exps, products, p, mvec, cov.reshape(-1, p.shape[1]))
            added = np.bincount(targets, cov, plan.size + 1)
            if buffer is None:
                buffer = added
            else:
                buffer += added
        if self.w > 0:
            p = _logistic(x[:self.n_strength - self.pinned])
            buffer[plan.prior_places] += 2.0 * self.w * p * (1.0 - p)
        buffer = buffer[:-1]  # less the dropped entries' place
        buffer[plan.lower] = buffer[plan.upper]
        return _BlockFactor(plan, buffer)

    # ---- reporting ----

    def expected_totals(self, x: np.ndarray,
                        probs: Sequence[np.ndarray]) -> np.ndarray:
        """Expected league points per team at ``x``, prior included: the
        first moment of the expected counts over the strength tables,
        under ``probs`` as ``evaluate`` returns them at ``x``."""
        flat, _ = self.unpack(x)
        totals = self._first_moments([
            mvec[None, :] * p
            for (_, _, mvec), p in zip(self.block_data, probs)
        ])[:self.n_strength]
        if self.w > 0:
            # one notional win and loss per side the team's strength plays
            totals += 2.0 * self.w * _logistic(flat[:self.n_strength])
        return totals.reshape(-1, self.m).sum(axis=0)


def _covariances(exps: np.ndarray, products: np.ndarray, p: np.ndarray,
                 mvec: np.ndarray, out: np.ndarray) -> None:
    """Each pair's count-weighted covariance of a block's features, written
    into ``out`` (products' columns x pairs): the features' cell exponents
    ``exps`` (cells x k), their products on and right of the diagonal,
    row by row (cells x k(k+1)/2), the cell probabilities ``p`` (cells x
    pairs) and the match counts ``mvec``.

    One matrix product forms the second moments, and each feature's row of
    mean products is subtracted in place.
    """
    k = exps.shape[1]
    mean = exps.T @ p  # k x pairs
    np.matmul(products.T, p * mvec[None, :], out=out)
    outer, row = np.empty_like(mean), 0
    for a in range(k):  # feature a with itself and every later one
        np.multiply(mean[a:], mean[a], out=outer[a:])
        outer[a:] *= mvec
        out[row:row + k - a] -= outer[a:]
        row += k - a


def _cells_by_pairs(counts: np.ndarray) -> np.ndarray:
    """A table's counts, pairs x cells, as a contiguous cells x pairs float
    array; a stack's, replicates x pairs x cells, as replicates x cells x
    pairs."""
    return np.ascontiguousarray(np.swapaxes(counts, -1, -2), dtype=float)


def _full_problem(params: Parameters, counts: OutcomeCounts,
                  prior: PriorConfig, variant: VariantConfig,
                  points: PointsSystem) -> tuple[_Problem, np.ndarray]:
    """The unpinned problem over the table's teams, and ``params`` in it."""
    params.validate(variant)
    problem = _Problem.from_counts(counts, variant, prior.weight, points)
    return problem, problem.pack(params)


def log_likelihood(params: Parameters, counts: OutcomeCounts,
                   prior: PriorConfig = PriorConfig(),
                   variant: VariantConfig = DEFAULT_VARIANT,
                   points: PointsSystem = DEFAULT_POINTS) -> float:
    """Normalized log likelihood of the counts (plus prior) at ``params``,
    over the table's teams: a team ``params`` rate but the table never
    plays is ignored, prior terms and all, and one they lack is an error.
    """
    problem, x = _full_problem(params, counts, prior, variant, points)
    return problem._likelihood(x)[0]


def score(params: Parameters, counts: OutcomeCounts,
          prior: PriorConfig = PriorConfig(),
          variant: VariantConfig = DEFAULT_VARIANT,
          points: PointsSystem = DEFAULT_POINTS) -> Score:
    """Gradient of the log likelihood over the log parameters.

    Every component is an observed-minus-expected residual; at the maximum
    they all vanish, which is the retrodictive criterion. As in
    ``log_likelihood``, only the table's teams get entries.
    """
    problem, x = _full_problem(params, counts, prior, variant, points)
    _, grad, _ = problem.evaluate(x)
    parts: dict = {
        name: dict(zip(problem.teams, table))
        for name, table in problem._tables(grad[:problem.n_team]).items()}
    parts.update(zip(problem.free_structural,
                     map(float, grad[problem.n_team:])))
    return Score(**parts)


# Halving a step this many times shrinks it below 1e-12 of a Newton step.
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class NewtonResult:
    """Last accepted iterate of ``minimize`` with its log likelihood,
    gradient max-norm and each block's cell probabilities, Newton steps
    (``nit``) and likelihood-and-gradient evaluations (``nfev``);
    ``message`` says why the ascent stopped."""

    x: np.ndarray
    value: float
    grad_inf: float
    probs: list[np.ndarray]
    nit: int
    nfev: int
    converged: bool
    message: str


def minimize(problem: _Problem, x0: np.ndarray, gtol: float,
             maxiter: int) -> NewtonResult:
    """Minimize the negative log likelihood by damped exact Newton steps.

    Each step solves ``-H d = g`` with the analytic Hessian, by block
    elimination in the problem's planned order, and halves ``d`` until the
    log likelihood does not drop or the gradient max-norm falls. The run
    converges once the gradient max-norm is at most ``gtol``. A singular
    Hessian block, a non-finite or non-ascent direction, exhausted halvings
    or the step budget end it unconverged.
    """
    x = np.asarray(x0, dtype=float)
    value, g, probs = problem.evaluate(x)
    grad_inf = _max_norm(g)
    nit, nfev = 0, 1
    while grad_inf > gtol:
        if nit >= maxiter:
            message = f"step budget of {maxiter} used up"
            break
        try:
            d = problem.factor(x, probs).solve(g)
        except np.linalg.LinAlgError:
            message = "singular Hessian"
            break
        if not (np.isfinite(d).all() and float(g @ d) > 0):
            message = "no finite ascent direction"
            break
        nit += 1
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = x + step * d
            trial_value, trial_g, trial_probs = problem.evaluate(trial)
            nfev += 1
            trial_inf = _max_norm(trial_g)
            if trial_value >= value or trial_inf < grad_inf:
                break
            step *= 0.5
        else:
            message = f"no improvement after {_MAX_HALVINGS} step halvings"
            break
        x, value, g, probs, grad_inf = (trial, trial_value, trial_g,
                                        trial_probs, trial_inf)
    else:
        return NewtonResult(x, value, grad_inf, probs, nit, nfev, True,
                            "gradient tolerance reached")
    return NewtonResult(x, value, grad_inf, probs, nit, nfev, False, message)


def _diagnose(counts: OutcomeCounts, points: PointsSystem,
              prior_weight: float) -> str:
    """Why a fit of ``counts`` failed, read from each team's record."""
    notes = []
    for team, record in team_records(counts, points).items():
        won, drawn, lost = record.won, record.drawn, record.lost
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
    """Fit diagnostics: iteration count, residual norm, points recovery.

    Both points totals are the fit problem's first moments over its
    strength tables, of the observed and of the expected counts, plus the
    prior's: league points and ``w`` per strength table, observed.
    """

    iterations: int
    final_gradient_norm: float
    log_likelihood: float
    observed_points: Mapping[str, float]
    expected_points: Mapping[str, float]


# the sections of a fitted-model file, each a JSON object
_MODEL_SECTIONS = ("variant", "prior", "points_system", "parameters",
                   "raw_parameters", "convergence")


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
            # the reference opponent's strength, fixed at 1
            "prior": {"weight": self.prior.weight, "dummy_strength": 1.0},
            "points_system": self.points_system.to_dict(),
            "parameters": self.parameters.to_dict(),
            "raw_parameters": self.raw_parameters.to_dict(),
            # vars, not asdict: asdict deep-copies every per-team float
            "convergence": vars(self.report),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        doc = json_object(json.loads(text), "model file")
        for name in _MODEL_SECTIONS:
            json_object(doc[name], name)
        prior = doc["prior"]
        unknown = set(prior) - {"weight", "dummy_strength"}
        if unknown:
            raise ValueError(f"schema error, unknown prior keys "
                             f"{sorted(unknown)}")
        if prior.get("dummy_strength", 1.0) != 1.0:
            raise ParameterError("the reference opponent's strength is fixed "
                                 "at 1")
        conv = doc["convergence"]
        return cls(
            parameters=Parameters.from_dict(doc["parameters"]),
            raw_parameters=Parameters.from_dict(doc["raw_parameters"]),
            variant=VariantConfig.from_dict(doc["variant"]),
            prior=PriorConfig(prior.get("weight", 0.0)),
            points_system=PointsSystem.from_dict(doc["points_system"]),
            report=ConvergenceReport(
                iterations=conv["iterations"],
                final_gradient_norm=conv["final_gradient_norm"],
                log_likelihood=conv["log_likelihood"],
                observed_points=conv["observed_points"],
                expected_points=conv["expected_points"],
            ),
        )


def _divergence(normalized: Parameters, variant: VariantConfig
                ) -> tuple[str, float] | None:
    """The first team with a normalized table value past the divergence
    limit, with that value; None when there is none."""
    for name in parameter_layout(variant).tables:
        for team, value in getattr(normalized, name).items():
            if abs(math.log(value)) > _DIVERGENCE_LOG_LIMIT:
                return team, value
    return None


def _gauge_broken(variant: VariantConfig,
                  freeze: Mapping[str, float] | None) -> bool:
    """True when a frozen structural parameter pins the strength scale:
    one of the variant's levels that a strength rescale moves."""
    return any(GAUGE_POWER[name] != 0 and name in (freeze or {})
               for name in parameter_layout(variant).structural)


def _fit_problem(counts: OutcomeCounts, config: FitConfig) -> _Problem:
    """The problem ``fit`` ascends, over the table's teams, or over a
    stack's."""
    counts.validate()
    if len(counts.teams) < 2:
        raise ParameterError("fitting needs at least two teams' matches")
    w = config.prior.weight
    # with no prior the likelihood is scale-invariant and one strength must
    # be pinned, unless a frozen scale-absorbing parameter already fixed it
    pin = w == 0.0 and not _gauge_broken(config.variant, config.freeze)
    return _Problem.from_counts(counts, config.variant, w,
                                config.points_system, freeze=config.freeze,
                                pin_first=pin)


def fit(counts: OutcomeCounts, config: FitConfig = FitConfig()) -> FittedModel:
    """Fit the model to an outcome table.

    Raises NonConvergenceError when the Newton ascent stops short of the
    gradient tolerance (step budget, singular Hessian, no ascent step) or
    a strength estimate runs away; the error carries the best iterate and
    a diagnosis.
    """
    problem = _fit_problem(counts, config)
    w = config.prior.weight
    result = minimize(problem, np.zeros(problem.n_free), GRADIENT_TOLERANCE,
                      MAX_ITERATIONS)
    nit, grad_inf = result.nit, result.grad_inf
    raw = problem.x_to_parameters(result.x)
    if not result.converged:
        diagnosis = _diagnose(counts, config.points_system, w)
        raise NonConvergenceError(
            f"no certified maximum after {nit} Newton steps (gradient "
            f"max-norm {grad_inf:.3g}, {result.message}); " + diagnosis,
            best=raw, diagnosis=diagnosis, iterations=nit,
            gradient_norm=grad_inf,
        )
    normalized = normalize_parameters(raw, config.variant)
    diverged = _divergence(normalized, config.variant)
    if diverged is not None:
        team, value = diverged
        diagnosis = _diagnose(counts, config.points_system, w)
        raise NonConvergenceError(
            f"strength estimates diverged (team {team!r} at {value:.3g}); "
            + diagnosis, best=normalized, diagnosis=diagnosis,
            iterations=nit, gradient_norm=grad_inf,
        )
    # expected_totals' moment of the observed counts, plus the w points of
    # each strength table's notional prior matches
    observed = problem._first_moments(
        [obs for _, obs, _ in problem.block_data])[:problem.n_strength]
    observed = (observed.reshape(-1, problem.m).sum(axis=0)
                + w * len(problem.layout.strength_tables))
    expected = problem.expected_totals(result.x, result.probs)
    report = ConvergenceReport(
        iterations=nit,
        final_gradient_norm=grad_inf,
        log_likelihood=result.value,
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


def fit_replicates(counts: OutcomeCounts,
                   config: FitConfig = FitConfig()
                   ) -> list[Parameters | None]:
    """The reported parameters of every table of a stack.

    ``counts`` is a stack of tables over the same rows, as
    ``simulate_season`` samples it for a list of replicates. Each entry
    equals ``fit(table, config).parameters`` for its own table, and is
    None where that fit raises NonConvergenceError. The problem and its
    Hessian plan are built once, nothing else of a fitted model is built,
    and every gauge scale comes from one bisection.
    """
    stack = _fit_problem(counts, config)
    x0 = np.zeros(stack.n_free)
    raws = []
    for r in range(len(counts.result)):
        problem = stack.replicate(r)
        result = minimize(problem, x0, GRADIENT_TOLERANCE, MAX_ITERATIONS)
        raws.append(problem.x_to_parameters(result.x)
                    if result.converged else None)
    normalized = iter(normalize_stack([raw for raw in raws if raw is not None],
                                      config.variant))
    estimates = [None if raw is None else next(normalized) for raw in raws]
    return [None if estimate is None
            or _divergence(estimate, config.variant) is not None
            else estimate for estimate in estimates]
